"""Link-quality metrics, throughput objectives, and the power amplifier model."""

from __future__ import annotations

import enum
import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

from .core import db_to_linear

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

