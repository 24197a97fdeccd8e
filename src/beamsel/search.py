"""Beam selection search: genetic algorithm plus exhaustive and random baselines.

A selection is an int64 row of N distinct 0-based codebook column indices;
populations stack them into (members, N) arrays. Every search in this module
scores candidates through SelectionEvaluator so the genetic algorithm, the
baselines, and the reported statistics share one code path.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .codebook import build_dft_codebook
from .core import ComplexMatrix, DimensionError, SystemConfig, require_valid
from .metrics import ObjectiveKind, min_rate_for_threshold, pa_output_power, rates, sinr_from_components


class SearchSpaceError(ValueError):
    """The exhaustive search space is too large to enumerate."""


# Largest ordered search space exhaustive_search enumerates.
EXHAUSTIVE_CAP = 1_000_000
CHUNK = 4096  # selections scored per evaluate call by the baselines
KEY_CHUNK_BYTES = 256 * 1024  # most bytes of keys ga_run draws and ranks at once
# Version of how the searches consume their random streams. Bump it with any
# change that makes a seed draw different selections; provenance records it.
# 2: every member is ranked from N_vec uniform keys, taken from the stream in
#    member order. ga_run takes the initial population's, then for each later
#    generation its S mutants' (none when N_vec == 1) and its L - S - 1 fresh
#    members'; random_search takes its draws'. How many Generator calls
#    deliver those keys does not matter; only their order does.
STREAM_LAYOUT = 2


def n_replaced(mutation_fraction: float, n: int) -> int:
    """How many beam slots one mutation replaces: ceil(fraction * n), at least 1.

    The small bias term keeps products like 0.1 * 20 from ceiling up to 3
    due to binary representation.
    """
    return max(1, math.ceil(mutation_fraction * n - 1e-9))


class EvalBatch:
    """Scores for a batch of candidate selections under one objective.

    Scoring computes only what ranking reads: raw, which for the count
    objective is the served counts. The other fields are derived from
    user_rates on first read. Every per-member sum runs over that member's
    own C-contiguous row, so a member's scores do not depend on the batch
    around it.
    """

    def __init__(self, kind: ObjectiveKind, user_rates: np.ndarray, min_rate: float):
        self.kind = kind
        self.user_rates = user_rates  # (B, N)
        self._min_rate = min_rate
        # (B,) undiscounted objective scalar
        if kind is ObjectiveKind.THROUGHPUT:
            self.raw = self.total_sum
        elif kind is ObjectiveKind.OUTAGE_THROUGHPUT:
            self.raw = self.weighted_base
        else:
            self.raw = self.served.astype(np.float64)

    @functools.cached_property
    def total_sum(self) -> np.ndarray:
        """(B,) plain sum rate, the count objective's tie-break."""
        return self.user_rates.sum(axis=1)

    @functools.cached_property
    def served_rates(self) -> np.ndarray:
        """(B, N) user_rates with the users below the rate threshold zeroed."""
        return np.where(self.user_rates >= self._min_rate, self.user_rates, 0.0)

    @functools.cached_property
    def weighted_base(self) -> np.ndarray:
        """(B,) the sum that (1 - alpha*K) multiplies: the served users' rates for outage objectives."""
        if self.kind is ObjectiveKind.THROUGHPUT:
            return self.total_sum
        return self.served_rates.sum(axis=1)

    @functools.cached_property
    def served(self) -> np.ndarray:
        """(B,) served user counts: the users whose rate reaches the threshold.

        Counted over a contiguous (N, B) plane, which is much faster than a
        short row axis; integer counts are exact in any order.
        """
        return np.greater_equal(self.user_rates.T, self._min_rate, order="C").sum(axis=0)

    def best_index(self) -> int:
        """Index of the best member; ties resolve to the lowest index."""
        return rank_best(self.kind, self.raw, self.user_rates)


def rank_best(kind: ObjectiveKind, raw: np.ndarray, user_rates: np.ndarray) -> int:
    """Index of the best of B scored members; ties resolve to the lowest index.

    The count objective's raw score is the served count, and among the
    members that serve the most users the highest sum rate wins; only those
    members' (B, N) user_rates rows are summed. The other objectives rank by
    raw score alone.
    """
    if kind is ObjectiveKind.OUTAGE_COUNT:
        tied = np.flatnonzero(raw == raw.max())
        return int(tied[np.argmax(user_rates[tied].sum(axis=1))])
    return int(np.argmax(raw))


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
        # gains[j, b, i] = power user i receives from member b's j-th beam.
        # Slot-major, so the sum over beams adds contiguous (B, N) planes in
        # slot order. np.take copies whole rows, several times faster than
        # the equivalent fancy index.
        gains = np.take(self._column_gains, sels.T, axis=0)
        signal = np.einsum("ibi->bi", gains)
        interference = gains.sum(axis=0) - signal
        snr = sinr_from_components(signal, interference, self._p_over_m)
        return EvalBatch(self.kind, rates(snr), self._min_rate)


def _draw_selection(count: int, n: int, n_vec: int, rng: np.random.Generator) -> np.ndarray:
    """A (count, n) block of uniform ordered selections of n distinct 0-based columns out of n_vec.

    One Generator call: each row ranks n_vec uniform keys, and the columns of
    its n smallest keys, in key order, are a uniform ordered selection.
    """
    return rng.random((count, n_vec)).argsort(axis=1)[:, :n]


def init_population(cfg: SystemConfig, rng: np.random.Generator) -> np.ndarray:
    """Uniform random starting population, one selection per row (0-based)."""
    return _draw_selection(cfg.L, cfg.N, cfg.N_vec, rng)


def rank_mutation_keys(keys: np.ndarray, cfg: SystemConfig) -> tuple[np.ndarray, np.ndarray]:
    """Rank (..., N_vec) mutation keys into the (slots, picks) that mutate assembles.

    The first N keys of a row rank the parent's slots: the slots of the k
    smallest, in key order, are the ones to replace, with
    k = ceil(mutation_fraction * N), or 2 when N == N_vec. The other N_vec - N
    keys rank the columns the parent does not use; picks holds the positions,
    among those columns, of the min(k, N_vec - N) smallest. Neither depends on
    the parent, so a whole block of generations is ranked at once. Zero-width
    keys give empty slots, and mutate then returns copies.
    """
    n = cfg.N
    k = 2 if cfg.N_vec == n else n_replaced(cfg.mutation_fraction, n)
    slots = keys[..., :n].argsort(axis=-1)[..., :k]
    picks = keys[..., n:].argsort(axis=-1)[..., :k]
    return slots, picks


def mutate(parent: np.ndarray, slots: np.ndarray, picks: np.ndarray, n_vec: int) -> np.ndarray:
    """The (count, N) block of mutants of one 0-based selection from ranked keys.

    Child c replaces the slots slots[c] (see rank_mutation_keys). Slot i takes
    the picks[c, i]-th column, in column order, that the parent does not use;
    when fewer columns are unused than slots are replaced, the remaining slots
    take the columns freed by the first ones, so every replaced slot still
    changes. When the codebook has no spare columns (N == n_vec) a child swaps
    its two slots instead.
    """
    parent = np.asarray(parent, dtype=np.int64)
    count, k = slots.shape
    if n_vec == parent.size:
        new = parent[slots[:, ::-1]]  # the two slots trade columns
    else:
        unused = np.ones(n_vec, dtype=bool)
        unused[parent] = False
        new = np.flatnonzero(unused)[picks]
        if new.shape[1] < k:
            new = np.concatenate([new, parent[slots[:, :k - new.shape[1]]]], axis=1)
    children = np.repeat(parent[None, :], count, axis=0)
    children[np.arange(count)[:, None], slots] = new
    return children


@dataclass(frozen=True)
class GaTrajectory:
    """Per-iteration record of a genetic algorithm run.

    queens holds the best selection of each iteration (0-based columns).
    raw_scores is the undiscounted objective scalar of that queen: sum rate,
    served-user rate sum, or served-user count depending on the objective.
    weighted_bases is the rate sum that the delay factor (1 - alpha*K)
    multiplies; for the count objective this is the served-rate sum, recorded
    for reporting even though the search ranks by count.
    """

    queens: np.ndarray         # (N_it, N) int64, 0-based
    raw_scores: np.ndarray     # (N_it,)
    weighted_bases: np.ndarray # (N_it,)
    alpha: float

    @property
    def n_it(self) -> int:
        return self.raw_scores.size

    def weighted_scores(self, alpha: float | None = None) -> np.ndarray:
        """Delay-weighted score per iteration, optionally under a different alpha."""
        a = self.alpha if alpha is None else alpha
        k = np.arange(1, self.n_it + 1, dtype=np.float64)
        return (1.0 - a * k) * self.weighted_bases

    @property
    def final_raw(self) -> float:
        return float(self.raw_scores[-1])


def ga_run(ev: SelectionEvaluator, rng: np.random.Generator) -> GaTrajectory:
    """Run the elitist genetic search on the evaluator's channel realization.

    Each generation scores all L members, crowns the best as Queen (ties go to
    the lowest population index), then builds the next generation from the
    Queen, S of her mutants, and fresh uniform selections. Elitism makes the
    raw score non-decreasing across iterations. The keys of as many
    generations as fit in KEY_CHUNK_BYTES are drawn and ranked at once, which
    changes no selection (see STREAM_LAYOUT).
    """
    cfg = ev.cfg
    n, n_vec, s = cfg.N, cfg.N_vec, cfg.S
    pop = init_population(cfg, rng)
    queens = np.empty((cfg.N_it, n), dtype=np.int64)
    raw = np.empty(cfg.N_it, dtype=np.float64)
    base = np.empty(cfg.N_it, dtype=np.float64)
    # Each later generation takes a fixed run of keys: N_vec per mutant (none
    # when N_vec == 1, whose one selection has no mutants to rank), then N_vec
    # per fresh member. A block of generations is drawn and ranked at once.
    width = n_vec if n_vec > 1 else 0
    per_gen = s * width + (cfg.L - s - 1) * n_vec
    span = max(1, KEY_CHUNK_BYTES // (8 * per_gen))
    keys = np.empty((min(span, cfg.N_it - 1), per_gen))
    for it in range(cfg.N_it):
        batch = ev.evaluate(pop)
        b = batch.best_index()
        queens[it] = pop[b]
        raw[it] = batch.raw[b]
        base[it] = batch.weighted_base[b]
        if it + 1 == cfg.N_it:
            break
        j = it % span
        if j == 0:
            block = rng.random(out=keys[:min(span, cfg.N_it - 1 - it)])
            g = block.shape[0]
            slots, picks = rank_mutation_keys(block[:, :s * width].reshape(g, s, width), cfg)
            fresh = block[:, s * width:].reshape(g, -1, n_vec).argsort(axis=-1)[..., :n]
        pop = np.empty_like(pop)
        pop[0] = queens[it]
        pop[1:s + 1] = mutate(queens[it], slots[j], picks[j], n_vec)
        pop[s + 1:] = fresh[j]
    return GaTrajectory(queens=queens, raw_scores=raw, weighted_bases=base, alpha=cfg.alpha)


def search_space_size(cfg: SystemConfig) -> int:
    """Number of ordered selections of N distinct columns from N_vec."""
    return math.perm(cfg.N_vec, cfg.N)


def _best_of_chunks(ev: SelectionEvaluator, chunks) -> tuple[np.ndarray, float]:
    """Score each (B, N) chunk of selections and return (best row, raw score).

    rank_best picks each chunk's winner and then the best of the winners,
    whose rates rows it reads, so ties resolve to the earliest member
    whatever the chunk size. The winners' rows are copied, so no chunk's
    arrays outlive it.
    """
    rows, raw, user_rates = [], [], []
    for arr in chunks:
        batch = ev.evaluate(arr)
        i = batch.best_index()
        rows.append(arr[i].copy())
        raw.append(batch.raw[i])
        user_rates.append(batch.user_rates[i].copy())
    w = rank_best(ev.kind, np.array(raw), np.array(user_rates))
    return rows[w], float(raw[w])


@functools.lru_cache(maxsize=1)
def _ordered_selections(n_vec: int, n: int) -> np.ndarray:
    """Read-only int64 table of every ordered selection, in itertools.permutations order.

    Row r is the r-th selection, but the table is stored slot-major (Fortran
    order), so a block of rows transposes into the contiguous (N, B) index
    that evaluate gathers with. Only the latest shape is cached, so at
    EXHAUSTIVE_CAP the table holds at most 32.3 MiB (N_vec=10, N=7).
    """
    perms = itertools.chain.from_iterable(itertools.permutations(range(n_vec), n))
    table = np.asfortranarray(
        np.fromiter(perms, dtype=np.int64, count=math.perm(n_vec, n) * n).reshape(-1, n))
    table.flags.writeable = False
    return table


def exhaustive_search(ev: SelectionEvaluator) -> tuple[np.ndarray, float]:
    """Score every ordered selection, from the per-shape table, and return (best row, raw score).

    The score is the undiscounted objective: sum rate, served-rate sum, or
    served count. Ties resolve to the first optimum in lexicographic
    enumeration order. Refuses to run when the space exceeds EXHAUSTIVE_CAP.
    """
    cfg = ev.cfg
    size = search_space_size(cfg)
    if size > EXHAUSTIVE_CAP:
        raise SearchSpaceError(
            f"{size} ordered selections exceed the exhaustive cap of {EXHAUSTIVE_CAP}; shrink N_vec/N")
    table = _ordered_selections(cfg.N_vec, cfg.N)
    return _best_of_chunks(ev, (table[s:s + CHUNK] for s in range(0, size, CHUNK)))


def random_search(ev: SelectionEvaluator, budget: int,
                  rng: np.random.Generator) -> tuple[np.ndarray, float]:
    """Score `budget` uniform selections and return (best row, raw score).

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
