"""Beam selection search: genetic algorithm plus exhaustive and random baselines.

Populations are int64 arrays of shape (members, N) holding 0-based codebook
column indices; the public BeamSelection type stays 1-based. Every search in
this module scores candidates through SelectionEvaluator so the genetic
algorithm, the baselines, and the reported statistics share one code path.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .codebook import build_dft_codebook
from .core import BeamSelection, ComplexMatrix, DimensionError, SystemConfig, require_valid
from .metrics import ObjectiveKind, min_rate_for_threshold, pa_output_power, rates, sinr_from_components


class SearchSpaceError(ValueError):
    """The exhaustive search space is too large to enumerate."""


# Largest ordered search space exhaustive_search enumerates.
EXHAUSTIVE_CAP = 1_000_000
CHUNK = 4096  # selections scored per evaluate call by the baselines
# Version of how the searches consume their random streams. Bump it with any
# change that makes a seed draw different selections; provenance records it.
# 2: one batched draw per call of _draw_selection and mutate.
STREAM_LAYOUT = 2


def n_replaced(mutation_fraction: float, n: int) -> int:
    """How many beam slots one mutation replaces: ceil(fraction * n), at least 1.

    The small bias term keeps products like 0.1 * 20 from ceiling up to 3
    due to binary representation.
    """
    return max(1, math.ceil(mutation_fraction * n - 1e-9))


@dataclass(frozen=True)
class EvalBatch:
    """Scores for a batch of candidate selections under one objective."""

    kind: ObjectiveKind
    user_rates: np.ndarray     # (B, N)
    raw: np.ndarray            # (B,) undiscounted objective scalar
    weighted_base: np.ndarray  # (B,) the sum that (1 - alpha*K) multiplies
    served: np.ndarray | None  # (B,) served user counts, outage objectives only
    total_sum: np.ndarray      # (B,) plain sum rate, used as the count tie-break

    def best_index(self) -> int:
        """Index of the best member; ties resolve to the lowest index."""
        if self.kind is ObjectiveKind.OUTAGE_COUNT:
            top = self.served.max()
            among = np.flatnonzero(self.served == top)
            return int(among[np.argmax(self.total_sum[among])])
        return int(np.argmax(self.raw))

    def comparable(self, i: int):
        """Orderable score of member i: float, or (served, sum rate) for the count objective."""
        if self.kind is ObjectiveKind.OUTAGE_COUNT:
            return int(self.served[i]), float(self.total_sum[i])
        return float(self.raw[i])


class SelectionEvaluator:
    """Scores beam selections against one channel realization.

    The one handle every search gets for a realization: it validates cfg
    once, keeps it, and precomputes the per-user gain of every codebook
    column (|H W|^2), after which any selection's gain matrix is a pure row
    gather. The amplifier model is applied to the power budget here, so
    every search sees the post-amplifier SNR, and the outage threshold is
    cfg.theta_dB.
    """

    def __init__(self, cfg: SystemConfig, h: ComplexMatrix, kind: ObjectiveKind = ObjectiveKind.THROUGHPUT):
        self.cfg = require_valid(cfg)
        if h.shape != (cfg.N, cfg.M):
            raise DimensionError(f"channel shape {h.shape} does not match (N, M) = ({cfg.N}, {cfg.M})")
        cb = build_dft_codebook(cfg.M, cfg.N_vec)
        t = h.data @ cb.w.data
        # Row u holds every user's power gain from codebook column u.
        self._column_gains = np.ascontiguousarray((t.real**2 + t.imag**2).T)
        self._p_over_m = pa_output_power(cfg.P_linear, cfg.pa) / cfg.M
        self._min_rate = min_rate_for_threshold(cfg.theta_dB)
        self.kind = kind

    def evaluate(self, selections: np.ndarray) -> EvalBatch:
        """Score a (B, N) array of 0-based selections."""
        sels = np.asarray(selections, dtype=np.int64)
        if sels.ndim == 1:
            sels = sels[None, :]
        # gains[b, j, i] = power user i receives from member b's j-th beam.
        gains = self._column_gains[sels]
        signal = np.einsum("bii->bi", gains)
        interference = gains.sum(axis=1) - signal
        snr = sinr_from_components(signal, interference, self._p_over_m)
        user_rates = rates(snr)
        total_sum = user_rates.sum(axis=1)
        kind = self.kind
        served = None
        if kind is ObjectiveKind.THROUGHPUT:
            raw = total_sum
            base = total_sum
        else:
            served_mask = user_rates >= self._min_rate
            served = served_mask.sum(axis=1)
            base = np.where(served_mask, user_rates, 0.0).sum(axis=1)
            raw = base if kind is ObjectiveKind.OUTAGE_THROUGHPUT else served.astype(np.float64)
        return EvalBatch(kind=kind, user_rates=user_rates, raw=raw,
                         weighted_base=base, served=served, total_sum=total_sum)


def _draw_selection(count: int, n: int, n_vec: int, rng: np.random.Generator) -> np.ndarray:
    """A (count, n) block of uniform ordered selections of n distinct 0-based columns out of n_vec.

    One Generator call: each row ranks n_vec uniform keys, and the columns of
    its n smallest keys, in key order, are a uniform ordered selection.
    """
    return rng.random((count, n_vec)).argsort(axis=1)[:, :n]


def init_population(cfg: SystemConfig, rng: np.random.Generator) -> np.ndarray:
    """Uniform random starting population, one selection per row (0-based)."""
    return _draw_selection(cfg.L, cfg.N, cfg.N_vec, rng)


def mutate(parent: np.ndarray, count: int, cfg: SystemConfig, rng: np.random.Generator) -> np.ndarray:
    """A (count, N) block of mutants of one 0-based selection.

    Each child replaces k = ceil(mutation_fraction * N) distinct slots, drawn
    uniformly. Their new columns are a uniform ordered draw of distinct
    columns the parent does not use; when fewer than k are unused, the
    remaining slots take the columns freed by the first ones, so every
    replaced slot still changes. When the codebook has no spare columns
    (N == N_vec) a child swaps two slots instead. The draws are one Generator
    call per block, whatever the parent.
    """
    parent = np.asarray(parent, dtype=np.int64)
    n = parent.size
    children = np.repeat(parent[None, :], count, axis=0)
    if cfg.N_vec == 1:
        return children  # a single-column codebook has one selection
    spare = cfg.N_vec - n
    k = 2 if spare == 0 else n_replaced(cfg.mutation_fraction, n)
    keys = rng.random((count, n + spare))
    rows = np.arange(count)[:, None]
    slots = keys[:, :n].argsort(axis=1)[:, :k]
    old = children[rows, slots]
    if spare == 0:
        new = old[:, ::-1]  # the two slots trade columns
    else:
        unused = np.ones(cfg.N_vec, dtype=bool)
        unused[parent] = False
        fresh = np.flatnonzero(unused)[keys[:, n:].argsort(axis=1)[:, :min(k, spare)]]
        new = np.concatenate([fresh, old[:, :k - fresh.shape[1]]], axis=1)
    children[rows, slots] = new
    return children


@dataclass(frozen=True)
class GaTrajectory:
    """Per-iteration record of a genetic algorithm run.

    queens holds the best selection of each iteration (1-based columns).
    raw_scores is the undiscounted objective scalar of that queen: sum rate,
    served-user rate sum, or served-user count depending on the objective.
    weighted_bases is the rate sum that the delay factor (1 - alpha*K)
    multiplies; for the count objective this is the served-rate sum, recorded
    for reporting even though the search ranks by count.
    """

    queens: np.ndarray         # (N_it, N) int64, 1-based
    raw_scores: np.ndarray     # (N_it,)
    weighted_bases: np.ndarray # (N_it,)
    alpha: float
    L: int

    @property
    def n_it(self) -> int:
        return self.raw_scores.size

    def evaluations_used(self, k_it: int) -> int:
        """Objective evaluations consumed after k_it iterations: L per iteration."""
        if not 1 <= k_it <= self.n_it:
            raise ValueError(f"iteration index must be in [1, {self.n_it}], got {k_it}")
        return self.L * k_it

    def weighted_scores(self, alpha: float | None = None) -> np.ndarray:
        """Delay-weighted score per iteration, optionally under a different alpha."""
        a = self.alpha if alpha is None else alpha
        k = np.arange(1, self.n_it + 1, dtype=np.float64)
        return (1.0 - a * k) * self.weighted_bases

    def queen(self, k_it: int) -> BeamSelection:
        """The best selection found by iteration k_it (1-based)."""
        if not 1 <= k_it <= self.n_it:
            raise ValueError(f"iteration index must be in [1, {self.n_it}], got {k_it}")
        return BeamSelection(tuple(int(u) for u in self.queens[k_it - 1]))

    @property
    def final_raw(self) -> float:
        return float(self.raw_scores[-1])


def ga_run(ev: SelectionEvaluator, rng: np.random.Generator) -> GaTrajectory:
    """Run the elitist genetic search on the evaluator's channel realization.

    Each generation scores all L members, crowns the best as Queen (ties go to
    the lowest population index), then builds the next generation from the
    Queen, S of her mutants, and fresh uniform selections. Elitism makes the
    raw score non-decreasing across iterations.
    """
    cfg = ev.cfg
    pop = init_population(cfg, rng)
    queens = np.empty((cfg.N_it, cfg.N), dtype=np.int64)
    raw = np.empty(cfg.N_it, dtype=np.float64)
    base = np.empty(cfg.N_it, dtype=np.float64)
    for it in range(cfg.N_it):
        batch = ev.evaluate(pop)
        b = batch.best_index()
        queens[it] = pop[b]
        raw[it] = batch.raw[b]
        base[it] = batch.weighted_base[b]
        if it + 1 == cfg.N_it:
            break
        nxt = np.empty_like(pop)
        nxt[0] = pop[b]
        nxt[1:cfg.S + 1] = mutate(pop[b], cfg.S, cfg, rng)
        nxt[cfg.S + 1:] = _draw_selection(cfg.L - cfg.S - 1, cfg.N, cfg.N_vec, rng)
        pop = nxt
    return GaTrajectory(queens=queens + 1, raw_scores=raw, weighted_bases=base,
                        alpha=cfg.alpha, L=cfg.L)


def search_space_size(cfg: SystemConfig) -> int:
    """Number of ordered selections of N distinct columns from N_vec."""
    return math.perm(cfg.N_vec, cfg.N)


def _best_of_chunks(ev: SelectionEvaluator, chunks):
    """Score each (B, N) chunk of 0-based selections and return (best, score).

    Ties resolve to the earliest member: within a chunk through best_index,
    across chunks because only a strictly better score replaces the best.
    """
    best_sel: np.ndarray | None = None
    best_cmp = None
    for arr in chunks:
        batch = ev.evaluate(arr)
        i = batch.best_index()
        cmp = batch.comparable(i)
        if best_cmp is None or cmp > best_cmp:
            best_cmp = cmp
            best_sel = arr[i]
    return BeamSelection.from_array(best_sel), best_cmp


def exhaustive_search(ev: SelectionEvaluator):
    """Enumerate every ordered selection and return (best, score).

    The score is the undiscounted objective: a float for the rate objectives,
    a (served, sum rate) tuple for the count objective. Ties resolve to the
    first optimum in lexicographic enumeration order. Refuses to run when the
    space exceeds EXHAUSTIVE_CAP.
    """
    cfg = ev.cfg
    size = search_space_size(cfg)
    if size > EXHAUSTIVE_CAP:
        raise SearchSpaceError(
            f"{size} ordered selections exceed the exhaustive cap of {EXHAUSTIVE_CAP}; shrink N_vec/N")
    perms = itertools.permutations(range(cfg.N_vec), cfg.N)

    def chunks():
        while chunk := list(itertools.islice(perms, CHUNK)):
            yield np.asarray(chunk, dtype=np.int64)

    return _best_of_chunks(ev, chunks())


def random_search(ev: SelectionEvaluator, budget: int, rng: np.random.Generator):
    """Score `budget` uniform selections and return (best, score).

    The matched-budget baseline for the genetic search is budget = L * N_it.
    Ties resolve to the earliest draw.
    """
    cfg = ev.cfg
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")

    def chunks():
        for start in range(0, budget, CHUNK):
            yield _draw_selection(min(CHUNK, budget - start), cfg.N, cfg.N_vec, rng)

    return _best_of_chunks(ev, chunks())
