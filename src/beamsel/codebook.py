"""DFT beam codebook construction."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import ComplexMatrix


@dataclass(frozen=True)
class Codebook:
    """A bank of constant-modulus candidate beamforming vectors (columns of w)."""

    w: ComplexMatrix

    @property
    def m(self) -> int:
        return self.w.rows

    @property
    def n_vec(self) -> int:
        return self.w.cols


@functools.lru_cache(maxsize=32)
def build_dft_codebook(m: int, n_vec: int) -> Codebook:
    """Build the oversampled M x N_vec DFT codebook.

    Entry (u, v) is exp(-j*2*pi*u*v / N_vec) for 0-based u, v, so every entry
    has unit modulus and the first row and column are all ones. Power scaling
    is applied downstream, not here. The codebook depends only on its shape
    and its matrix is read-only, so one instance per shape is cached and
    shared by every realization.
    """
    rows = np.arange(m, dtype=np.float64)[:, None]
    cols = np.arange(n_vec, dtype=np.float64)[None, :]
    w = np.exp(-2j * np.pi * rows * cols / n_vec)
    return Codebook(ComplexMatrix(w))

