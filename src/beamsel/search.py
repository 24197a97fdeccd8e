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
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .codebook import build_dft_codebook
from .config import EXHAUSTIVE_CAP, search_space_size
from .core import (
    ComplexMatrix,
    DimensionError,
    ObjectiveKind,
    SystemConfig,
    min_rate_for_threshold,
    pa_output_power,
    rates,
    require_valid,
    sinr_from_components,
)


class SearchSpaceError(ValueError):
    """The exhaustive search space is too large to enumerate."""


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

    user_rates is (..., N): any leading axes index the members, and each
    score has their shape. min_rate is the rate threshold: one float, or one
    per member, shaped like the leading axes; a compare against a member's
    own threshold gives the bits of a compare against the same float.
    Scoring computes only what ranking reads: raw, which for the count
    objective is the served counts and for throughput is also
    weighted_base. The other fields are derived from user_rates on first
    read. Every per-member sum runs over that member's own C-contiguous row,
    so a member's scores do not depend on the batch around it or on its
    shape.
    """

    def __init__(self, kind: ObjectiveKind, user_rates: np.ndarray, min_rate: float | np.ndarray):
        self.kind = kind
        self.user_rates = user_rates  # (..., N)
        self._min_rate = min_rate  # float or (...,)
        # (...,) undiscounted objective scalar. Throughput's is set here, not
        # read through the cached properties, whose first read takes a lock.
        if kind is ObjectiveKind.THROUGHPUT:
            self.raw = self.weighted_base = user_rates.sum(axis=-1)
        elif kind is ObjectiveKind.OUTAGE_THROUGHPUT:
            self.raw = self.weighted_base
        else:
            self.raw = self.served.astype(np.float64)

    @functools.cached_property
    def served_rates(self) -> np.ndarray:
        """(..., N) user_rates with the users below the rate threshold zeroed."""
        return np.where(self.user_rates >= np.expand_dims(self._min_rate, -1), self.user_rates, 0.0)

    @functools.cached_property
    def weighted_base(self) -> np.ndarray:
        """(...,) the rate sum the delay factor multiplies: the served users' rates for outage objectives."""
        return self.served_rates.sum(axis=-1)

    @functools.cached_property
    def served(self) -> np.ndarray:
        """(...,) served user counts: the users whose rate reaches the threshold.

        Counted over contiguous (N, ...) planes, which is much faster than a
        short row axis; integer counts are exact in any order. A transpose
        puts the user axis first at a tenth of np.moveaxis's call cost.
        """
        users_first = self.user_rates.transpose(-1, *range(self.user_rates.ndim - 1))
        return np.greater_equal(users_first, self._min_rate, order="C").sum(axis=0)

    def best_index(self) -> int:
        """Index of the best member; ties resolve to the lowest index."""
        return rank_best(self.kind, self.raw, self.user_rates)


def rank_best(kind: ObjectiveKind, raw: np.ndarray, user_rates: np.ndarray) -> int | np.ndarray:
    """Index of the best of B scored members; ties resolve to the lowest index.

    raw is (..., B) and user_rates (..., B, N); any leading axes are blocks
    ranked independently, and the result has their shape (an int for a
    single block). The count objective's raw score is the served count, and
    among the members that serve the most users the highest sum rate wins;
    only those members' user_rates rows are summed. The other objectives
    rank by raw score alone.
    """
    if kind is ObjectiveKind.OUTAGE_COUNT:
        tied = raw == raw.max(axis=-1, keepdims=True)
        tie_break = np.full(raw.shape, -np.inf)
        tie_break[tied] = user_rates[tied].sum(axis=-1)
        raw = tie_break
    best = raw.argmax(axis=-1)
    return int(best) if best.ndim == 0 else best


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
        self._p_over_m = pa_output_power(cfg.P_linear, cfg.pa_epsilon, cfg.pa_mu, cfg.pa_rho_max_dB) / cfg.M
        self._min_rate = min_rate_for_threshold(cfg.theta_dB)
        self.kind = kind

    def evaluate(self, selections: np.ndarray) -> EvalBatch:
        """Score a (B, N) array of 0-based selections, or one (N,) selection.

        Raises DimensionError for rows that are not N wide, and ValueError
        for selections that are not of an integer type or, naming the first
        bad row, for a row with an index outside [0, N_vec) or a column used
        twice.
        """
        sels = np.asarray(selections)
        if sels.ndim == 1:
            sels = sels[None, :]
        n, n_vec = self.cfg.N, self.cfg.N_vec
        if sels.ndim != 2 or sels.shape[1] != n:
            raise DimensionError(f"selections must be (B, {n}) or ({n},), got shape {np.shape(selections)}")
        if not np.issubdtype(sels.dtype, np.integer):
            raise ValueError(f"selections must be integer column indices, got dtype {sels.dtype}")
        slots = np.ascontiguousarray(sels.T, dtype=np.int64)  # (N, B): each slot's columns, contiguous
        bad = ((slots < 0) | (slots >= n_vec)).any(axis=0)
        for i in range(1, n):
            bad |= (slots[i] == slots[:i]).any(axis=0)
        if bad.any():
            row = int(np.argmax(bad))
            raise ValueError(f"selection row {row} {sels[row].tolist()} is not {n} distinct "
                             f"columns in [0, {n_vec})")
        return _score_rows(self._column_gains, slots.T, self._p_over_m, self.kind, self._min_rate)


def _score_rows(column_gains: np.ndarray, rows: np.ndarray, p_over_m: float,
                kind: ObjectiveKind, min_rate: float | np.ndarray) -> EvalBatch:
    """Score (B, N) rows of a gain table: the one gather, SINR and rate chain.

    Row u of column_gains holds every user's power gain from column u; ga_run
    passes several realizations' tables stacked, with each selection offset
    to its own table's rows, and one threshold per row (see EvalBatch).
    """
    # gains[j, b, i] = power user i receives from member b's j-th beam.
    # Slot-major, so the sum over beams adds contiguous (B, N) planes in slot
    # order. take copies whole rows, several times faster than the
    # equivalent fancy index. The diagonal is copied out of its strided view
    # once, so the subtraction and the SINR read contiguous rows.
    gains = column_gains.take(rows.T, axis=0)
    signal = np.ascontiguousarray(np.einsum("ibi->bi", gains))
    interference = gains.sum(axis=0)
    interference -= signal
    snr = sinr_from_components(signal, interference, p_over_m)
    return EvalBatch(kind, rates(snr), min_rate)


def _draw_selection(count: int, n: int, n_vec: int, rng: np.random.Generator) -> np.ndarray:
    """A (count, n) block of uniform ordered selections of n distinct 0-based columns out of n_vec.

    One Generator call: each row ranks n_vec uniform keys, and the columns of
    its n smallest keys, in key order, are a uniform ordered selection.
    """
    return rng.random((count, n_vec)).argsort(axis=1)[:, :n]


def rank_mutation_keys(keys: np.ndarray, cfg: SystemConfig) -> tuple[np.ndarray, np.ndarray]:
    """Rank (..., N_vec) mutation keys into the (slots, picks) that mutate assembles.

    The first N keys of a row rank the parent's slots: the slots of the k
    smallest, in key order, are the ones to replace, with
    k = ceil(mutation_fraction * N), or 2 when N == N_vec. The other N_vec - N
    keys rank the columns the parent does not use; picks holds the positions,
    among those columns, of the min(k, N_vec - N) smallest. Neither depends on
    the parent, so a whole block of generations is ranked at once. Zero-width
    keys give empty slots, and mutate then returns copies.

    A one-slot mutation keeps only each run's smallest key, so it takes
    argmin rather than sorting the run, and a repeated minimum goes to the
    lowest index. argsort leaves the order of equal keys unspecified, so the
    two agree whenever a run's smallest key is unique; a tie needs two equal
    53-bit uniform keys.
    """
    n = cfg.N
    k = 2 if cfg.N_vec == n else n_replaced(cfg.mutation_fraction, n)

    def smallest(run: np.ndarray) -> np.ndarray:
        if k == 1 and run.shape[-1]:
            return run.argmin(axis=-1)[..., None]
        return run.argsort(axis=-1)[..., :k]

    return smallest(keys[..., :n]), smallest(keys[..., n:])


def mutate(parents: np.ndarray, slots: np.ndarray, picks: np.ndarray, n_vec: int) -> np.ndarray:
    """The (R, count, N) mutants of R 0-based selections from ranked keys.

    Child c of parent r replaces the slots slots[r, c] (see
    rank_mutation_keys). Slot i takes the picks[r, c, i]-th column, in column
    order, that the parent does not use; when fewer columns are unused than
    slots are replaced, the remaining slots take the columns freed by the
    first ones, so every replaced slot still changes. When the codebook has
    no spare columns (N == n_vec) a child swaps its two slots instead.
    """
    parents = np.asarray(parents, dtype=np.int64)
    r, count, k = slots.shape
    n = parents.shape[1]
    lane = np.arange(r)[:, None, None]
    if n_vec == n:
        new = parents[lane, slots[..., ::-1]]  # the two slots trade columns
    else:
        unused = np.ones((r, n_vec), dtype=bool)
        unused[lane[:, 0], parents] = False
        free = unused.nonzero()[1].reshape(r, n_vec - n)  # each row's unused columns, in order
        new = free[lane, picks]
        if new.shape[2] < k:
            new = np.concatenate([new, parents[lane, slots[..., :k - new.shape[2]]]], axis=2)
    children = parents[:, None, :].repeat(count, axis=1)
    children[lane, np.arange(count)[:, None], slots] = new
    return children


@dataclass(frozen=True)
class GaTrajectory:
    """Per-iteration record of a block of genetic algorithm runs, one row per lane.

    queens holds each iteration's best selection (0-based columns), and
    queen_rates her users' rates, from which an EvalBatch gives every score
    of hers. The arrays are C-contiguous and read-only.
    """

    queens: np.ndarray       # (lanes, N_it, N) int64, 0-based
    queen_rates: np.ndarray  # (lanes, N_it, N)


def _min_rates(ev: SelectionEvaluator, min_rates: Sequence[float] | None) -> list[float]:
    """The rate thresholds a search ranks ev's rows under: min_rates, by default ev's own.

    ValueError for an empty list or a NaN threshold, which no compare can
    rank under; inf (theta_dB = inf) and 0 (theta_dB = -inf) are thresholds.
    """
    if min_rates is None:
        return [ev._min_rate]
    min_rates = list(min_rates)
    if not min_rates or any(math.isnan(t) for t in min_rates):
        raise ValueError(f"a search needs one or more rate thresholds, none NaN, got {min_rates}")
    return min_rates


def ga_run(evaluators: Sequence[SelectionEvaluator], rngs: Sequence[np.random.Generator],
           min_rates: Sequence[float] | None = None) -> GaTrajectory:
    """Run the elitist genetic search on a block of lanes in lockstep.

    evaluators[r] holds realization r's channel and rngs[r] its search
    stream; every evaluator must share one config and objective, whose L, S,
    mutation_fraction and N_it the search reads. min_rates are the rate
    thresholds its lanes rank under, by default the evaluators' own. The
    block has a lane per threshold and realization, threshold-major: lane
    p * R + r ranks realization r's members under min_rates[p], and row
    p * R + r of the trajectory is its record.

    Each generation scores all L members, crowns the best as Queen (ties go
    to the lowest population index), then builds the next generation from
    the Queen, S of her mutants, and fresh uniform selections. Elitism makes
    the raw score non-decreasing across iterations. The block advances
    together: one gather scores every lane's members, and the keys of as
    many generations as fit in KEY_CHUNK_BYTES, counted over the
    realizations, are drawn from each stream and ranked once for all of the
    realization's lanes. Neither changes a selection (see STREAM_LAYOUT), so
    a lane's row does not depend on the block around it.
    """
    if not evaluators or len(evaluators) != len(rngs):
        raise ValueError(f"ga_run needs one stream per evaluator, got {len(evaluators)} "
                         f"evaluators and {len(rngs)} streams")
    ev0 = evaluators[0]
    kind = ev0.kind
    if any(ev.cfg != ev0.cfg or ev.kind is not kind for ev in evaluators):
        raise ValueError("ga_run needs evaluators that share one config and one objective")
    min_rates = _min_rates(ev0, min_rates)
    cfg = ev0.cfg
    r, n, n_vec, s = len(evaluators), cfg.N, cfg.N_vec, cfg.S
    lanes = len(min_rates) * r
    # Lane i gathers from realization i % R's table, at rows (i % R) * N_vec..
    # of the stacked gain tables, and ranks under its own threshold.
    realization = np.tile(np.arange(r), len(min_rates))
    table = np.concatenate([ev._column_gains for ev in evaluators])
    offsets = (realization * n_vec)[:, None, None]
    member_min_rates = np.repeat(min_rates, r * cfg.L)
    lane_index = np.arange(lanes)
    lane_rows = lane_index * cfg.L  # each lane's first row in a generation's batch
    pop = np.stack([_draw_selection(cfg.L, n, n_vec, rng) for rng in rngs])[realization]  # (lanes, L, N)
    queens = np.empty((lanes, cfg.N_it, n), dtype=np.int64)
    queen_rates = np.empty((lanes, cfg.N_it, n), dtype=np.float64)
    # Each later generation takes a fixed run of keys: N_vec per mutant (none
    # when N_vec == 1, whose one selection has no mutants to rank), then N_vec
    # per fresh member. A chunk of generations is drawn and ranked at once.
    width = n_vec if n_vec > 1 else 0
    per_gen = s * width + (cfg.L - s - 1) * n_vec
    span = max(1, KEY_CHUNK_BYTES // (8 * per_gen * r))
    keys = np.empty((r, min(span, cfg.N_it - 1), per_gen))
    for it in range(cfg.N_it):
        batch = _score_rows(table, (pop + offsets).reshape(-1, n), ev0._p_over_m, kind, member_min_rates)
        best = rank_best(kind, batch.raw.reshape(lanes, -1), batch.user_rates.reshape(lanes, -1, n))
        queen = pop[lane_index, best]
        queens[:, it] = queen
        queen_rates[:, it] = batch.user_rates[lane_rows + best]
        if it + 1 == cfg.N_it:
            break
        j = it % span
        if j == 0:
            g = min(span, cfg.N_it - 1 - it)
            for rng, lane_keys in zip(rngs, keys):
                rng.random(out=lane_keys[:g])
            chunk = keys[:, :g]
            slots, picks = rank_mutation_keys(chunk[..., :s * width].reshape(r, g, s, width), cfg)
            fresh = chunk[..., s * width:].reshape(r, g, -1, n_vec).argsort(axis=-1)[..., :n]
            # Every lane of a realization reuses its ranked keys.
            slots, picks, fresh = slots[realization], picks[realization], fresh[realization]
        pop[:, 0] = queen
        pop[:, 1:s + 1] = mutate(queen, slots[:, j], picks[:, j], n_vec)
        pop[:, s + 1:] = fresh[:, j]
    for arr in (queens, queen_rates):
        arr.flags.writeable = False
    return GaTrajectory(queens=queens, queen_rates=queen_rates)


def _best_of_chunks(ev: SelectionEvaluator, min_rates: Sequence[float],
                    chunks) -> list[tuple[np.ndarray, float]]:
    """Score each (B, N) chunk of selections once and return each threshold's (best row, raw score).

    One evaluate call gives a chunk's user rates, which are then ranked under
    ev's objective at each of min_rates. rank_best picks each chunk's winner
    and then the best of the winners, whose rates rows it reads, so ties
    resolve to the earliest member whatever the chunk size. The winners'
    rows are copied as int64, so no chunk's arrays outlive it.
    """
    winners = [([], [], []) for _ in min_rates]
    for arr in chunks:
        first = ev.evaluate(arr)
        for min_rate, (rows, raw, user_rates) in zip(min_rates, winners):
            batch = first if min_rate == ev._min_rate else EvalBatch(ev.kind, first.user_rates, min_rate)
            i = batch.best_index()
            rows.append(arr[i].astype(np.int64))
            raw.append(batch.raw[i])
            user_rates.append(batch.user_rates[i].copy())
    best = []
    for rows, raw, user_rates in winners:
        w = rank_best(ev.kind, np.array(raw), np.array(user_rates))
        best.append((rows[w], float(raw[w])))
    return best


@functools.lru_cache(maxsize=1)
def _ordered_selections(n_vec: int, n: int) -> np.ndarray:
    """Read-only int32 table of every ordered selection, in itertools.permutations order.

    Row r is the r-th selection, but the table is stored slot-major (Fortran
    order), so a block of rows transposes into the contiguous (N, B) index
    that evaluate gathers with. Every index is below N_vec, and
    N_vec <= perm(N_vec, N) <= EXHAUSTIVE_CAP, so int32 holds them all. Only
    the latest shape is cached, so at EXHAUSTIVE_CAP the table holds at most
    16.2 MiB (N_vec=10, N=7).
    """
    perms = itertools.chain.from_iterable(itertools.permutations(range(n_vec), n))
    table = np.asfortranarray(
        np.fromiter(perms, dtype=np.int32, count=math.perm(n_vec, n) * n).reshape(-1, n))
    table.flags.writeable = False
    return table


def exhaustive_search(ev: SelectionEvaluator,
                      min_rates: Sequence[float] | None = None) -> list[tuple[np.ndarray, float]]:
    """Score every ordered selection, from the per-shape table, once for several rate thresholds.

    min_rates default to ev's own threshold. Returns each threshold's (best
    row, raw score), ranked under ev's objective at that threshold; the
    score is the undiscounted objective: sum rate, served-rate sum, or
    served count. Ties resolve to the first optimum in lexicographic
    enumeration order. Refuses to run when the space exceeds EXHAUSTIVE_CAP.
    """
    cfg = ev.cfg
    size = search_space_size(cfg)
    if size > EXHAUSTIVE_CAP:
        raise SearchSpaceError(
            f"{size} ordered selections exceed the exhaustive cap of {EXHAUSTIVE_CAP}; shrink N_vec/N")
    min_rates = _min_rates(ev, min_rates)
    table = _ordered_selections(cfg.N_vec, cfg.N)
    return _best_of_chunks(ev, min_rates, (table[s:s + CHUNK] for s in range(0, size, CHUNK)))


def random_search(ev: SelectionEvaluator, budget: int, rng: np.random.Generator,
                  min_rates: Sequence[float] | None = None) -> list[tuple[np.ndarray, float]]:
    """Score `budget` uniform selections once for several rate thresholds.

    min_rates are as for exhaustive_search, and so is the result: each
    threshold's (best row, raw score). The matched-budget baseline for the
    genetic search is budget = L * N_it. Ties resolve to the earliest draw.
    """
    cfg = ev.cfg
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    min_rates = _min_rates(ev, min_rates)

    def chunks():
        for start in range(0, budget, CHUNK):
            yield _draw_selection(min(CHUNK, budget - start), cfg.N, cfg.N_vec, rng)

    return _best_of_chunks(ev, min_rates, chunks())
