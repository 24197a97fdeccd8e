"""Scalar reference chain: score one candidate at a time, step by step.

The package scores selections only through the batched
``search.SelectionEvaluator.evaluate``. The functions here walk the model
the long way (materialize the beamforming matrix, multiply, square, form
each user's SINR, then the rate objective) and serve as the oracle the
tests check the batched path against. The amplifier's forward consumption
law lives here too: the package only inverts it (``pa_output_power``), and
the tests check that inverse against it. Nothing under ``src/`` imports them.
"""

from __future__ import annotations

import math

import numpy as np

from beamsel.codebook import Codebook
from beamsel.core import BeamSelection, ComplexMatrix, DimensionError, PaParams
from beamsel.metrics import (
    ObjectiveKind,
    SaturationError,
    min_rate_for_threshold,
    served_stats,
    sinr_from_components,
)


def matmul(a: ComplexMatrix, b: ComplexMatrix) -> ComplexMatrix:
    """Matrix product a @ b with an explicit shape check."""
    if a.cols != b.rows:
        raise DimensionError(
            f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}: inner dimensions differ"
        )
    return ComplexMatrix(a.data @ b.data)


def identity(n: int) -> ComplexMatrix:
    return ComplexMatrix(np.eye(n, dtype=np.complex128))


def materialize(cb: Codebook, sel: BeamSelection) -> ComplexMatrix:
    """Assemble the M x N beamforming matrix whose column i is codebook column sel[i]."""
    sel.check_range(cb.n_vec)
    return ComplexMatrix(cb.w.data[:, sel.as_array()])


def channel_gain(h: ComplexMatrix, v: ComplexMatrix) -> np.ndarray:
    """Per-link power gains |H V|^2 as a real N x N array.

    Row i, column j is the power user i receives from the beam assigned to
    user j; the diagonal carries the intended links.
    """
    t = matmul(h, v).data
    return t.real**2 + t.imag**2


def sinr(g: np.ndarray, p: float, m: int) -> np.ndarray:
    """Per-user SINR from a gain matrix under total transmit power p split over m antennas."""
    g = np.asarray(g, dtype=np.float64)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ValueError(f"gain matrix must be square, got shape {g.shape}")
    if np.any(g < 0):
        raise ValueError("gains are squared magnitudes and cannot be negative")
    if not p >= 0:
        raise ValueError(f"transmit power must be non-negative, got {p}")
    if m < 1:
        raise ValueError(f"antenna count must be positive, got {m}")
    signal = np.diagonal(g)
    interference = g.sum(axis=1) - signal
    return sinr_from_components(signal, interference, p / m)


def delay_factor(alpha: float, k_it: int) -> float:
    """The (1 - alpha*K) fraction of the frame left for payload after K search iterations."""
    if k_it < 1:
        raise ValueError(f"iteration index is 1-based, got {k_it}")
    if not alpha >= 0:
        raise ValueError(f"alpha must be non-negative, got {alpha}")
    factor = 1.0 - alpha * k_it
    if factor < 0:
        raise ValueError(f"delay penalty alpha*K = {alpha * k_it} exceeds 1; no frame time is left")
    return factor


def throughput(r: np.ndarray, alpha: float, k_it: int) -> float:
    """Delay-weighted sum throughput (1 - alpha*K) * sum(r)."""
    r = np.asarray(r, dtype=np.float64)
    return float(delay_factor(alpha, k_it) * r.sum())


def outage_throughput(r: np.ndarray, alpha: float, k_it: int, theta_dB: float) -> float:
    """Delay-weighted throughput counting only users whose rate clears the threshold."""
    r = np.asarray(r, dtype=np.float64)
    served = r >= min_rate_for_threshold(theta_dB)
    return float(delay_factor(alpha, k_it) * r[served].sum())


def evaluate_objective(kind: ObjectiveKind, r: np.ndarray, k_it: int, alpha: float = 0.001,
                       theta_dB: float = -100.0):
    """Score a rate vector under the objective at search iteration k_it.

    Returns a float for the rate objectives and a (served_count, sum_rate)
    tuple for OUTAGE_COUNT; tuples compare lexicographically, which is the
    intended ordering.
    """
    r = np.asarray(r, dtype=np.float64)
    if kind is ObjectiveKind.THROUGHPUT:
        return throughput(r, alpha, k_it)
    if kind is ObjectiveKind.OUTAGE_THROUGHPUT:
        return outage_throughput(r, alpha, k_it, theta_dB)
    served, _ = served_stats(r, theta_dB)
    return served, float(r.sum())


def pa_consumed_power(rho_out: float, pa: PaParams) -> float:
    """Power the amplifier draws to radiate rho_out (linear scale). Inverse of pa_output_power."""
    if not rho_out >= 0:
        raise ValueError(f"output power must be non-negative, got {rho_out}")
    if pa.is_ideal:
        return float(rho_out)
    if pa.mu == 1.0:
        raise ValueError("mu = 1 leaves the consumption law degenerate; use mu in [0, 1)")
    rho_max = pa.rho_max_linear
    if pa.mu > 0 and not math.isfinite(rho_max):
        raise ValueError("mu > 0 requires a finite saturation power rho_max_dB")
    if rho_out > rho_max * (1.0 + 1e-9):
        raise SaturationError(f"output power {rho_out:g} exceeds saturation {rho_max:g}")
    if pa.mu == 0:
        return float(rho_out / pa.epsilon)
    return float(rho_max**pa.mu * rho_out ** (1.0 - pa.mu) / pa.epsilon)


def pa_effective_efficiency(rho_out: float, pa: PaParams) -> float:
    """Ratio of radiated to consumed power at the given operating point."""
    if rho_out <= 0:
        raise ValueError(f"efficiency needs a positive output power, got {rho_out}")
    return float(rho_out / pa_consumed_power(rho_out, pa))
