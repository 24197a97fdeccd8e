"""Core types shared by the whole package: matrices, configuration, beam selections."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable

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
class PaParams:
    """Power amplifier model parameters.

    The defaults describe an ideal (lossless, unsaturable) amplifier, for
    which the output power equals the consumed power.
    """

    epsilon: float = 1.0       # maximum efficiency, in (0, 1]
    mu: float = 0.0            # efficiency roll-off exponent, in [0, 1)
    rho_max_dB: float = math.inf  # saturation output power in dB (inf = no limit)

    @property
    def rho_max_linear(self) -> float:
        return db_to_linear(self.rho_max_dB) if math.isfinite(self.rho_max_dB) else math.inf

    @property
    def is_ideal(self) -> bool:
        return self.epsilon == 1.0 and self.mu == 0.0 and not math.isfinite(self.rho_max_dB)


IDEAL_PA = PaParams()


@dataclass(frozen=True)
class SystemConfig:
    """Full description of one simulated scenario.

    Only the array geometry (M, N, N_vec) has no default; everything else
    falls back to the values used throughout the experiment recipes.
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
    pa: PaParams = IDEAL_PA    # amplifier model applied to the power budget
    realizations: int = 500    # Monte Carlo channel draws per experiment point
    seed: int = 12345          # root seed for all random streams
    los_formula: str = "normalized"  # "normalized" (unit Frobenius power) or "verbatim"

    @property
    def P_linear(self) -> float:
        return db_to_linear(self.P_dB)

    def with_overrides(self, **kwargs) -> "SystemConfig":
        """Return a copy with the given fields replaced."""
        pa_keys = {k: v for k, v in kwargs.items() if k in ("epsilon", "mu", "rho_max_dB")}
        rest = {k: v for k, v in kwargs.items() if k not in pa_keys}
        if pa_keys:
            rest["pa"] = replace(self.pa, **pa_keys)
        return replace(self, **rest)


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
    if not 0.0 < cfg.pa.epsilon <= 1.0:
        errs.append(f"0 < pa.epsilon <= 1 violated (epsilon={cfg.pa.epsilon})")
    if not 0.0 <= cfg.pa.mu < 1.0:
        errs.append(f"0 <= pa.mu < 1 violated (mu={cfg.pa.mu})")
    if not cfg.pa.rho_max_dB > -math.inf or math.isnan(cfg.pa.rho_max_dB):
        errs.append(f"pa.rho_max_dB must not be NaN or -inf (rho_max_dB={cfg.pa.rho_max_dB})")
    if cfg.realizations < 1:
        errs.append(f"realizations >= 1 violated (realizations={cfg.realizations})")
    if not 0 <= cfg.seed < 2**64:
        errs.append(f"seed must fit in an unsigned 64-bit integer (seed={cfg.seed})")
    if cfg.los_formula not in ("normalized", "verbatim"):
        errs.append(f"los_formula must be 'normalized' or 'verbatim' (got {cfg.los_formula!r})")
    if not errs:
        # Whether the amplifier can deliver the budget (mu > 0 needs a finite
        # saturation power, and the output must stay below it) is decided by
        # the amplifier model itself; whether the outage threshold converts to
        # a finite rate, by the conversion every run makes. Imported here:
        # metrics imports core.
        from .metrics import min_rate_for_threshold, pa_output_power

        try:
            pa_output_power(cfg.P_linear, cfg.pa)
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


@dataclass(frozen=True)
class BeamSelection:
    """An ordered assignment of distinct codebook columns to users.

    Indices are 1-based: user i is served by codebook column indices[i].
    Order matters; (3, 1) and (1, 3) serve the users with swapped beams.
    """

    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        idx = tuple(int(u) for u in self.indices)
        object.__setattr__(self, "indices", idx)
        if len(idx) == 0:
            raise ValueError("beam selection must assign at least one user")
        if any(u < 1 for u in idx):
            raise ValueError(f"codebook columns are 1-based, got {idx}")
        if len(set(idx)) != len(idx):
            raise ValueError(f"beam selection has duplicate columns: {idx}")

    def __len__(self) -> int:
        return len(self.indices)

    def check_range(self, n_vec: int) -> None:
        """Raise if any index addresses a column beyond the codebook width."""
        bad = [u for u in self.indices if u > n_vec]
        if bad:
            raise ValueError(f"beam indices {bad} exceed codebook size N_vec={n_vec}")

    def as_array(self) -> np.ndarray:
        """Indices as a 0-based int64 array (internal array convention)."""
        return np.asarray(self.indices, dtype=np.int64) - 1

    @classmethod
    def from_array(cls, sel0: Iterable[int]) -> "BeamSelection":
        """Build from 0-based indices."""
        return cls(tuple(int(u) + 1 for u in sel0))
