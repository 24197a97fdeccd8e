"""The pure scenario model, loading no numpy at import: matrices, configuration and
its validation, SINR, rates, the outage rate threshold, amplifier model, objectives."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


class DimensionError(ValueError):
    """Shapes of two operands are incompatible."""


class ConfigError(ValueError):
    """A configuration file or override could not be parsed or validated."""


def db_to_linear(x_db: float) -> float:
    """Convert a dB quantity to linear scale."""
    try:
        return float(10.0 ** (x_db / 10.0))
    except OverflowError:
        raise OverflowError(f"{x_db} dB is beyond the float range on the linear scale") from None


@dataclass(frozen=True, eq=False)
class ComplexMatrix:
    """Immutable dense complex matrix.

    Thin wrapper around a 2-D complex128 array. Entries must be finite;
    the backing array is made read-only so instances can be shared freely.
    Instances compare by identity.
    """

    data: np.ndarray

    def __post_init__(self) -> None:
        import numpy as np  # here, so that importing the config layer loads no numpy

        arr = np.array(self.data, dtype=np.complex128, copy=True, order="C")
        if arr.ndim != 2:
            raise ValueError(f"expected a 2-D array, got ndim={arr.ndim}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"matrix must be at least 1x1, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("matrix entries must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape


@dataclass(frozen=True)
class SystemConfig:
    """Full description of one simulated scenario.

    Only the array geometry (M, N, N_vec) has no default; everything else
    falls back to the values used throughout the experiment recipes. Each
    field is one scenario key of the config file, under the field's name and
    parsed as the field's type.
    """

    M: int                     # transmit antennas at the base station
    N: int                     # single-antenna users served simultaneously
    N_vec: int                 # columns in the DFT beam codebook (N_vec >= M)
    k: float = 0.0             # Rician factor; 0 = pure NLOS, inf = pure LOS
    beta: float = 0.2          # LOS diagonal amplitude parameter
    P_dB: float = 10.0         # transmit power budget over noise, in dB
    alpha: float = 0.001       # per-iteration delay penalty on throughput
    N_it: int = 500            # search iterations per channel realization
    L: int = 10                # population size
    S: int = 5                 # mutated offspring per generation
    mutation_fraction: float = 0.10  # fraction of beam slots replaced per mutation
    theta_dB: float = -100.0   # per-user SINR threshold for outage accounting
    # Amplifier model applied to the power budget; the defaults describe an
    # ideal (lossless, unsaturable) amplifier, whose output is its input.
    pa_epsilon: float = 1.0    # maximum efficiency, in (0, 1]
    pa_mu: float = 0.0         # efficiency roll-off exponent, in [0, 1)
    pa_rho_max_dB: float = math.inf  # saturation output power in dB (inf = no limit)
    realizations: int = 500    # Monte Carlo channel draws per experiment point
    seed: int = 12345          # root seed for all random streams

    @property
    def P_linear(self) -> float:
        return db_to_linear(self.P_dB)


_LN2 = math.log(2.0)


class SaturationError(ValueError):
    """The amplifier cannot deliver the requested output power."""


def sinr_from_components(signal: np.ndarray, interference: np.ndarray, p_over_m: float) -> np.ndarray:
    """SINR given per-user signal/interference gains and the per-antenna power P/M.

    Noise power is normalized to one, so p_over_m carries the full SNR scaling.
    Shape-generic; used both for single gain matrices and batched populations.
    """
    return (p_over_m * signal) / (1.0 + p_over_m * interference)


def rates(sinr_values: np.ndarray) -> np.ndarray:
    """Shannon rates log2(1 + SINR) in bits per channel use.

    Uses log1p so thresholds near zero keep full relative precision.
    """
    import numpy as np  # here, so that importing the config layer loads no numpy

    return np.log1p(np.asarray(sinr_values, dtype=np.float64)) / _LN2


def min_rate_for_threshold(theta_dB: float) -> float:
    """Rate a user must reach so that their SINR meets the threshold theta_dB."""
    return float(math.log1p(db_to_linear(theta_dB)) / _LN2)


def pa_output_power(rho_cons: float, epsilon: float, mu: float, rho_max_dB: float) -> float:
    """Radiated power the amplifier produces when drawing rho_cons (linear scale).

    Inverts the consumption law rho_cons = rho_max^mu * rho_out^(1-mu) / epsilon,
    with efficiency epsilon, roll-off exponent mu and saturation power
    rho_max_dB (inf = no limit). The ideal amplifier (epsilon = 1, mu = 0, no
    limit) returns rho_cons unchanged. Raises SaturationError when the implied
    output would exceed rho_max; the onset sits at rho_cons = rho_max / epsilon,
    and that boundary itself is allowed.
    """
    if not rho_cons >= 0:
        raise ValueError(f"consumed power must be non-negative, got {rho_cons}")
    if epsilon == 1.0 and mu == 0.0 and not math.isfinite(rho_max_dB):
        return float(rho_cons)
    if mu == 1.0:
        raise ValueError("mu = 1 leaves the output power undetermined; use mu in [0, 1)")
    rho_max = db_to_linear(rho_max_dB) if math.isfinite(rho_max_dB) else math.inf
    if mu > 0 and not math.isfinite(rho_max):
        raise ValueError("mu > 0 requires a finite saturation power rho_max_dB")
    if mu == 0:
        rho_out = epsilon * rho_cons
    else:
        rho_out = (epsilon * rho_cons / rho_max**mu) ** (1.0 / (1.0 - mu))
    if rho_out > rho_max:
        # Tolerate representation error right at the saturation boundary.
        if rho_out <= rho_max * (1.0 + 1e-9):
            return float(rho_max)
        raise SaturationError(
            f"consumed power {rho_cons:g} implies output {rho_out:g} beyond saturation "
            f"{rho_max:g} (onset at rho_cons = {rho_max / epsilon:g})"
        )
    return float(rho_out)


class ObjectiveKind(enum.Enum):
    """What the beam search tries to maximize.

    OUTAGE_COUNT compares candidates lexicographically: served user count
    first, total sum rate as the tie-break.
    """

    THROUGHPUT = "throughput"
    OUTAGE_THROUGHPUT = "outage_throughput"
    OUTAGE_COUNT = "outage_count"

    @classmethod
    def from_string(cls, name: str) -> "ObjectiveKind":
        for kind in cls:
            if kind.value == name:
                return kind
        options = ", ".join(k.value for k in cls)
        raise ValueError(f"unknown objective {name!r}; expected one of: {options}")

    def __str__(self) -> str:
        return self.value


def validate_config(cfg: SystemConfig) -> list[str]:
    """Collect every violated invariant of a SystemConfig. Empty list means valid."""
    errs: list[str] = []
    if cfg.M < 1:
        errs.append(f"M >= 1 violated (M={cfg.M})")
    if cfg.N < 1:
        errs.append(f"N >= 1 violated (N={cfg.N})")
    if cfg.N_vec < 1:
        errs.append(f"N_vec >= 1 violated (N_vec={cfg.N_vec})")
    if cfg.N > cfg.M:
        errs.append(f"N <= M violated (N={cfg.N}, M={cfg.M})")
    if cfg.M > cfg.N_vec:
        errs.append(f"M <= N_vec violated (M={cfg.M}, N_vec={cfg.N_vec})")
    if cfg.N > cfg.N_vec:
        errs.append(f"N <= N_vec violated (N={cfg.N}, N_vec={cfg.N_vec})")
    if not cfg.k >= 0:  # also catches NaN
        errs.append(f"k >= 0 violated (k={cfg.k})")
    if not cfg.beta >= 0:
        errs.append(f"beta >= 0 violated (beta={cfg.beta})")
    if not 2.0 * cfg.beta**2 <= 1.0:
        errs.append(f"2*beta^2 <= 1 violated (beta={cfg.beta})")
    if not math.isfinite(cfg.P_dB):
        errs.append(f"P_dB must be finite (P_dB={cfg.P_dB})")
    if math.isnan(cfg.theta_dB):
        errs.append(f"theta_dB must not be NaN (theta_dB={cfg.theta_dB})")
    if not cfg.alpha >= 0:
        errs.append(f"alpha >= 0 violated (alpha={cfg.alpha})")
    if cfg.N_it < 1:
        errs.append(f"N_it >= 1 violated (N_it={cfg.N_it})")
    if cfg.alpha >= 0 and cfg.N_it >= 1 and not cfg.alpha * cfg.N_it < 1:
        errs.append(f"alpha*N_it < 1 violated (alpha={cfg.alpha}, N_it={cfg.N_it})")
    if cfg.L < 2:
        errs.append(f"L >= 2 violated (L={cfg.L})")
    if cfg.S < 0:
        errs.append(f"S >= 0 violated (S={cfg.S})")
    if not cfg.S + 1 < cfg.L:
        errs.append(f"S + 1 < L violated (S={cfg.S}, L={cfg.L}); need room for a fresh member")
    if not 0.0 < cfg.mutation_fraction <= 1.0:
        errs.append(f"0 < mutation_fraction <= 1 violated (mutation_fraction={cfg.mutation_fraction})")
    if not 0.0 < cfg.pa_epsilon <= 1.0:
        errs.append(f"0 < pa_epsilon <= 1 violated (epsilon={cfg.pa_epsilon})")
    if not 0.0 <= cfg.pa_mu < 1.0:
        errs.append(f"0 <= pa_mu < 1 violated (mu={cfg.pa_mu})")
    if not cfg.pa_rho_max_dB > -math.inf or math.isnan(cfg.pa_rho_max_dB):
        errs.append(f"pa_rho_max_dB must not be NaN or -inf (rho_max_dB={cfg.pa_rho_max_dB})")
    if cfg.realizations < 1:
        errs.append(f"realizations >= 1 violated (realizations={cfg.realizations})")
    if not 0 <= cfg.seed < 2**64:
        errs.append(f"seed must fit in an unsigned 64-bit integer (seed={cfg.seed})")
    if not errs:
        # Whether the amplifier can deliver the budget (mu > 0 needs a finite
        # saturation power, and the output must stay below it) is decided by
        # the amplifier model itself; whether the outage threshold converts to
        # a finite rate, by the conversion every run makes.
        try:
            pa_output_power(cfg.P_linear, cfg.pa_epsilon, cfg.pa_mu, cfg.pa_rho_max_dB)
            min_rate_for_threshold(cfg.theta_dB)
        except (ValueError, OverflowError) as exc:
            errs.append(f"{type(exc).__name__}: {exc}")
    return errs


def require_valid(cfg: SystemConfig) -> SystemConfig:
    """Raise ConfigError if the configuration violates any invariant."""
    errs = validate_config(cfg)
    if errs:
        raise ConfigError("invalid configuration: " + "; ".join(errs))
    return cfg
