"""Rician fading channel generation with reproducible per-realization streams."""

from __future__ import annotations

import math

import numpy as np

from .core import ComplexMatrix, DimensionError, SystemConfig

# Sub-stream labels under one (seed, realization) pair. Keeping the channel,
# the search, and any baseline searches on separate streams means adding or
# removing a consumer never perturbs the others.
STREAM_CHANNEL = 0
STREAM_SEARCH = 1
STREAM_BASELINE = 2


def stream_rng(seed: int, realization_index: int, stream: int = STREAM_CHANNEL) -> np.random.Generator:
    """Independent generator for one (seed, realization, stream) triple.

    A pure function of its arguments: any realization can be regenerated in
    isolation, in any order, on any worker.
    """
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if realization_index < 0:
        raise ValueError(f"realization_index must be non-negative, got {realization_index}")
    ss = np.random.SeedSequence([int(seed), int(realization_index), int(stream)])
    return np.random.default_rng(ss)


def sample_nlos(cfg: SystemConfig, rng: np.random.Generator) -> ComplexMatrix:
    """Draw the N x M scattered component with i.i.d. unit-power complex normal entries."""
    shape = (cfg.N, cfg.M)
    h = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return ComplexMatrix(h * np.sqrt(0.5))


def build_los(cfg: SystemConfig) -> ComplexMatrix:
    """Deterministic N x M line-of-sight component.

    The leading diagonal carries beta*(1+j); every other entry carries c*(1+j)
    with c chosen so the matrix has total power N*M ("normalized", the
    default). The "verbatim" variant uses c = sqrt((N*M - d*beta^2)/d) with
    d = min(N, M) instead, which concentrates far more power off-diagonal and
    is kept only for comparison runs.
    """
    n, m, beta = cfg.N, cfg.M, cfg.beta
    if beta < 0:
        raise ValueError(f"beta must be non-negative, got {beta}")
    if 2.0 * beta**2 > 1.0:
        raise ValueError(f"beta={beta} puts more than unit power on a diagonal entry (need 2*beta^2 <= 1)")
    d = min(n, m)
    total = n * m
    h = np.zeros((n, m), dtype=np.complex128)
    if total > d:
        if cfg.los_formula == "normalized":
            c = math.sqrt((total - 2.0 * d * beta**2) / (2.0 * (total - d)))
        elif cfg.los_formula == "verbatim":
            c = math.sqrt((total - d * beta**2) / d)
        else:
            raise ValueError(f"unknown los_formula {cfg.los_formula!r}")
        h[:] = c * (1.0 + 1.0j)
    for i in range(d):
        h[i, i] = beta * (1.0 + 1.0j)
    return ComplexMatrix(h)


def compose_channel(h_los: ComplexMatrix, h_nlos: ComplexMatrix, k: float) -> ComplexMatrix:
    """Blend LOS and NLOS components with Rician factor k.

    k=0 returns the NLOS matrix unchanged and k=inf returns the LOS matrix
    unchanged, with no floating-point residue in either case.
    """
    if h_los.shape != h_nlos.shape:
        raise DimensionError(f"LOS shape {h_los.shape} differs from NLOS shape {h_nlos.shape}")
    if not k >= 0:
        raise ValueError(f"Rician factor must be non-negative, got {k}")
    if k == 0:
        return h_nlos
    if math.isinf(k):
        return h_los
    w_los = math.sqrt(k / (k + 1.0))
    w_nlos = math.sqrt(1.0 / (k + 1.0))
    return ComplexMatrix(w_los * h_los.data + w_nlos * h_nlos.data)


def realize_channel(cfg: SystemConfig, realization_index: int) -> ComplexMatrix:
    """Generate channel realization `realization_index` for this configuration."""
    rng = stream_rng(cfg.seed, realization_index, STREAM_CHANNEL)
    h_nlos = sample_nlos(cfg, rng)
    h_los = build_los(cfg)
    return compose_channel(h_los, h_nlos, cfg.k)
