import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beamsel.channel import realize_channel, stream_rng, STREAM_SEARCH
from beamsel.codebook import build_dft_codebook
from beamsel.config import search_space_size
from beamsel.core import (
    ComplexMatrix,
    DimensionError,
    ObjectiveKind,
    SystemConfig,
    db_to_linear,
    min_rate_for_threshold,
    pa_output_power,
    rates,
)
from beamsel.harness import delay_weighted
import beamsel.search as search
from beamsel.search import (
    EvalBatch,
    SearchSpaceError,
    _best_of_chunks,
    _draw_selection,
    _ordered_selections,
    SelectionEvaluator,
    exhaustive_search,
    ga_run,
    mutate,
    n_replaced,
    random_search,
    rank_best,
    rank_mutation_keys,
)
from scalar_oracle import channel_gain, lexicographic_best, materialize, served_stats, sinr

def _cfg(**kw):
    base = dict(M=8, N=2, N_vec=16, N_it=40, seed=1)
    base.update(kw)
    return SystemConfig(**base)


def _channel(cfg, r=0):
    return realize_channel(cfg, r)


def reference_scores(cfg, h, sels_0based):
    """Oracle scoring path: materialize each candidate and walk the full op
    chain (gain matrix -> SINR -> rates -> objective) one candidate at a time.
    """
    cb = build_dft_codebook(cfg.M, cfg.N_vec)
    p = pa_output_power(cfg.P_linear, cfg.pa_epsilon, cfg.pa_mu, cfg.pa_rho_max_dB)
    out_rates = []
    for row in np.asarray(sels_0based):
        g = channel_gain(h, materialize(cb, row))
        out_rates.append(rates(sinr(g, p, cfg.M)))
    return np.array(out_rates)


@pytest.mark.parametrize("fraction,n,want", [
    (0.10, 8, 1),
    (0.10, 10, 1),
    (0.10, 11, 2),
    (0.10, 20, 2),   # 0.1 * 20 is 2.0000000000000004 in binary; must not ceil to 3
    (0.25, 6, 2),
    (0.30, 10, 3),
    (1.00, 5, 5),
    (0.01, 3, 1),    # never less than one slot
])
def test_mutation_replaces_expected_slot_count(fraction, n, want):
    assert n_replaced(fraction, n) == want


def test_init_population_valid_and_deterministic():
    cfg = _cfg(M=8, N=3, N_vec=12, L=10)
    pop_a = _draw_selection(cfg.L, cfg.N, cfg.N_vec, np.random.default_rng(7))
    pop_b = _draw_selection(cfg.L, cfg.N, cfg.N_vec, np.random.default_rng(7))
    np.testing.assert_array_equal(pop_a, pop_b)
    assert pop_a.shape == (10, 3)
    for row in pop_a:
        assert len(set(row.tolist())) == 3
        assert row.min() >= 0 and row.max() < 12


def test_init_population_full_codebook_draws_permutations():
    cfg = _cfg(M=4, N=4, N_vec=4, L=10)
    pop = _draw_selection(cfg.L, cfg.N, cfg.N_vec, np.random.default_rng(0))
    for row in pop:
        assert sorted(row.tolist()) == [0, 1, 2, 3]


def _chi_square(counts):
    expected = counts.sum() / counts.size
    return float(((counts - expected) ** 2 / expected).sum())


def test_draw_selection_covers_every_ordered_pair_uniformly():
    sels = _draw_selection(12_000, 2, 4, np.random.default_rng(11))
    assert sels.shape == (12_000, 2)
    assert np.all(sels[:, 0] != sels[:, 1])
    pairs = sorted(set(itertools.permutations(range(4), 2)))
    counts = np.array([np.count_nonzero((sels[:, 0] == a) & (sels[:, 1] == b)) for a, b in pairs])
    assert counts.sum() == 12_000  # all 12 ordered pairs, nothing else
    assert counts.min() > 0
    # 11 degrees of freedom: P(chi2 > 40) is about 3e-5.
    assert _chi_square(counts) < 40.0


def _mutants(parent, count, cfg, rng):
    """count mutants of parent from count rows of N_vec keys, ranked as ga_run ranks them."""
    slots, picks = rank_mutation_keys(rng.random((1, count, cfg.N_vec)), cfg)
    return mutate(np.asarray(parent)[None, :], slots, picks, cfg.N_vec)[0]


def _ga(ev, rng):
    """One realization's trajectory: a ga_run block of one, whose arrays have a leading axis of 1."""
    return ga_run([ev], [rng])


def _raw(traj, ev):
    """(R, N_it) raw scores of a trajectory's queens, from their recorded rates under ev's objective."""
    return EvalBatch(ev.kind, traj.queen_rates, ev._min_rate).raw


def _changed_slots(children, parent):
    return np.count_nonzero(children != parent[None, :], axis=1)


def _assert_valid(children, n_vec):
    n = children.shape[1]
    assert all(len(set(row.tolist())) == n for row in children)
    assert children.min() >= 0 and children.max() < n_vec


def test_mutate_changes_exactly_one_slot_for_small_n():
    cfg = _cfg(M=8, N=8, N_vec=128)
    parent = np.arange(8, dtype=np.int64)
    children = _mutants(parent, 200, cfg, np.random.default_rng(3))
    assert children.shape == (200, 8)
    assert np.all(_changed_slots(children, parent) == 1)
    assert not np.isin(children[children != parent[None, :]], parent).any()
    _assert_valid(children, 128)


def test_mutate_changes_two_slots_for_n_twenty():
    cfg = _cfg(M=32, N=20, N_vec=64)
    parent = np.arange(20, dtype=np.int64)
    children = _mutants(parent, 100, cfg, np.random.default_rng(4))
    assert np.all(_changed_slots(children, parent) == 2)
    _assert_valid(children, 64)


# One and two slots: the two tests above.
@pytest.mark.parametrize("fraction,n,n_vec,want", [
    (1.00, 4, 16, 4),   # every slot, from 12 unused columns
    (1.00, 6, 8, 6),    # every slot, with only 2 unused columns
])
def test_mutate_replaces_n_replaced_slots(fraction, n, n_vec, want):
    assert n_replaced(fraction, n) == want
    cfg = _cfg(M=n, N=n, N_vec=n_vec, mutation_fraction=fraction)
    parent = np.random.default_rng(1).permutation(n_vec)[:n]
    children = _mutants(parent, 500, cfg, np.random.default_rng(2))
    assert np.all(_changed_slots(children, parent) == want)
    _assert_valid(children, n_vec)
    # Replacements come from outside the parent as long as unused columns remain.
    fresh = np.count_nonzero(~np.isin(children, parent), axis=1)
    assert np.all(fresh == min(want, n_vec - n))


def test_mutate_replacements_are_uniform_over_unused_columns():
    cfg = _cfg(M=4, N=4, N_vec=16)
    parent = np.array([9, 2, 14, 5], dtype=np.int64)
    children = _mutants(parent, 12_000, cfg, np.random.default_rng(6))
    changed = children != parent[None, :]
    new_cols = children[changed]
    assert new_cols.size == 12_000
    assert not np.isin(new_cols, parent).any()
    unused = np.setdiff1d(np.arange(16), parent)
    counts = np.array([np.count_nonzero(new_cols == c) for c in unused])
    assert counts.sum() == 12_000
    # 11 degrees of freedom for the 12 unused columns, 3 for the 4 slots.
    assert _chi_square(counts) < 40.0
    assert _chi_square(changed.sum(axis=0)) < 25.0


def test_mutate_draws_a_fixed_amount_whatever_the_parent():
    # No rejection loop: the keys are ranked without looking at the parent,
    # so the stream advances by the same amount for any parent and the slots
    # depend on the stream alone. test_ga_run_draws_a_fixed_number_of_keys
    # checks the same property for a whole run.
    cfg = _cfg(M=8, N=4, N_vec=16, mutation_fraction=0.5)
    rngs = [np.random.default_rng(8), np.random.default_rng(8)]
    a = _mutants(np.array([0, 1, 2, 3]), 50, cfg, rngs[0])
    b = _mutants(np.array([12, 7, 15, 4]), 50, cfg, rngs[1])
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
    np.testing.assert_array_equal(a != np.array([0, 1, 2, 3]), b != np.array([12, 7, 15, 4]))


def test_mutate_swaps_when_codebook_has_no_spare_columns():
    cfg = _cfg(M=6, N=6, N_vec=6)
    parent = np.array([0, 1, 2, 3, 4, 5], dtype=np.int64)
    children = _mutants(parent, 50, cfg, np.random.default_rng(5))
    for child in children:
        assert sorted(child.tolist()) == parent.tolist()
        assert np.count_nonzero(child != parent) == 2


def test_mutate_single_column_codebook_returns_copy():
    # N = N_vec = 1 has exactly one selection, so there is nothing to swap.
    cfg = _cfg(M=1, N=1, N_vec=1)
    parent = np.array([0], dtype=np.int64)
    children = _mutants(parent, 3, cfg, np.random.default_rng(0))
    np.testing.assert_array_equal(children, np.zeros((3, 1), dtype=np.int64))
    assert not np.shares_memory(children, parent)


def test_mutate_deterministic_and_leaves_parent_alone():
    cfg = _cfg(M=8, N=4, N_vec=16)
    parent = np.array([3, 7, 11, 15], dtype=np.int64)
    snapshot = parent.copy()
    a = _mutants(parent, 5, cfg, np.random.default_rng(9))
    b = _mutants(parent, 5, cfg, np.random.default_rng(9))
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(parent, snapshot)


def test_mutate_stays_valid_across_random_shapes():
    rng = np.random.default_rng(12)
    for _ in range(300):
        n_vec = int(rng.integers(2, 40))
        n = int(rng.integers(1, n_vec + 1))
        m = max(n, 2)
        frac = float(rng.uniform(0.05, 1.0))
        cfg = SystemConfig(M=max(m, n_vec // 4 + 1), N=n, N_vec=max(n_vec, max(m, n_vec // 4 + 1)),
                           mutation_fraction=frac)
        parent = np.sort(rng.choice(cfg.N_vec, size=n, replace=False)).astype(np.int64)
        children = _mutants(parent, 4, cfg, rng)
        assert children.shape == (4, n)
        _assert_valid(children, cfg.N_vec)


def test_mutate_block_matches_one_parent_at_a_time():
    # The block axis assembles each parent's mutants from its own keys alone,
    # in every mutation shape: one slot, every slot with few spare columns,
    # the full-codebook swap and the single-column copy.
    for shape in (dict(M=8, N=4, N_vec=16), dict(M=8, N=6, N_vec=8, mutation_fraction=1.0),
                  dict(M=6, N=6, N_vec=6), dict(M=1, N=1, N_vec=1)):
        cfg = _cfg(**shape)
        rng = np.random.default_rng(31)
        parents = np.stack([rng.permutation(cfg.N_vec)[:cfg.N] for _ in range(5)])
        width = cfg.N_vec if cfg.N_vec > 1 else 0
        slots, picks = rank_mutation_keys(rng.random((5, 7, width)), cfg)
        block = mutate(parents, slots, picks, cfg.N_vec)
        assert block.shape == (5, 7, cfg.N)
        for r in range(5):
            alone = mutate(parents[r:r + 1], slots[r:r + 1], picks[r:r + 1], cfg.N_vec)
            np.testing.assert_array_equal(block[r], alone[0])
            _assert_valid(block[r], cfg.N_vec)



def _argsort_reference(keys, cfg):
    """(slots, picks) as rank_mutation_keys defines them, from a stable argsort of each run of keys."""
    n = cfg.N
    k = 2 if cfg.N_vec == n else n_replaced(cfg.mutation_fraction, n)
    return tuple(run.argsort(axis=-1, kind="stable")[..., :k] for run in (keys[..., :n], keys[..., n:]))


@pytest.mark.parametrize("shape", [
    dict(M=2, N=1, N_vec=2),                           # k = 1, one slot key and one pick key
    dict(M=4, N=2, N_vec=4),                           # k = 1, runs of two keys
    dict(M=32, N=8, N_vec=128),                        # k = 1, 120 pick keys
    dict(M=8, N=4, N_vec=16, mutation_fraction=0.5),   # k = 2
    dict(M=8, N=6, N_vec=8, mutation_fraction=1.0),    # k = 6, only two pick keys
    dict(M=6, N=6, N_vec=6),                           # N == N_vec: two slots, no pick keys
    dict(M=1, N=1, N_vec=1),                           # zero-width keys
], ids=["k1_width1", "k1_width2", "k1_width120", "k2", "k6_two_picks", "full_codebook", "single_column"])
def test_rank_mutation_keys_matches_argsort_reference(shape):
    # A one-slot mutation takes each run's smallest key by argmin; every
    # other shape sorts. Random keys have no ties, so either way the ranks
    # must equal a stable argsort's, in shape and dtype too.
    cfg = _cfg(**shape)
    width = cfg.N_vec if cfg.N_vec > 1 else 0
    keys = np.random.default_rng(5).random((3, 4, 5, width))
    for got, want in zip(rank_mutation_keys(keys, cfg), _argsort_reference(keys, cfg)):
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        np.testing.assert_array_equal(got, want)


def test_rank_mutation_keys_breaks_a_repeated_minimum_toward_the_lowest_index():
    cfg = _cfg(M=8, N=4, N_vec=8)  # one slot replaced
    keys = np.array([[0.5, 0.25, 0.75, 0.25, 0.875, 0.125, 0.375, 0.125]])
    slots, picks = rank_mutation_keys(keys, cfg)
    assert slots.tolist() == [[1]] and picks.tolist() == [[1]]

def test_evaluator_matches_reference_op_chain():
    cfg = _cfg(M=8, N=4, N_vec=16, P_dB=10.0)
    h = _channel(cfg)
    ev = SelectionEvaluator(cfg, h)
    rng = np.random.default_rng(21)
    sels = np.array([rng.choice(16, size=4, replace=False) for _ in range(32)])
    batch = ev.evaluate(sels)
    want = reference_scores(cfg, h, sels)
    np.testing.assert_allclose(batch.user_rates, want, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(batch.raw, want.sum(axis=1), rtol=1e-12)


def test_evaluator_applies_amplifier_to_power_budget():
    cfg = _cfg(M=8, N=2, N_vec=16, P_dB=30.0, pa_epsilon=0.5, pa_mu=0.5, pa_rho_max_dB=35.0)
    h = _channel(cfg)
    ev = SelectionEvaluator(cfg, h)
    sel = np.array([[0, 5]])
    got = ev.evaluate(sel).user_rates[0]
    want = reference_scores(cfg, h, sel)[0]
    np.testing.assert_allclose(got, want, rtol=1e-12)
    # and the radiated power really is below the consumed power
    assert pa_output_power(cfg.P_linear, 0.5, 0.5, 35.0) < cfg.P_linear


def test_evaluator_outage_variants():
    cfg = _cfg(M=8, N=4, N_vec=16, P_dB=0.0, alpha=0.0, theta_dB=0.0)
    h = _channel(cfg)
    ev = SelectionEvaluator(cfg, h, ObjectiveKind.OUTAGE_THROUGHPUT)
    rng = np.random.default_rng(2)
    sels = np.array([rng.choice(16, size=4, replace=False) for _ in range(16)])
    batch = ev.evaluate(sels)
    served_mask = batch.user_rates >= 1.0  # theta 0 dB needs rate 1
    np.testing.assert_array_equal(batch.served, served_mask.sum(axis=1))
    np.testing.assert_allclose(batch.raw, np.where(served_mask, batch.user_rates, 0.0).sum(axis=1))
    count = SelectionEvaluator(cfg, h, ObjectiveKind.OUTAGE_COUNT)
    cbatch = count.evaluate(sels)
    np.testing.assert_array_equal(cbatch.raw, cbatch.served.astype(float))
    np.testing.assert_allclose(cbatch.user_rates.sum(axis=1), batch.user_rates.sum(axis=1))
    # Every objective counts served users by the same rule as the oracle.
    for kind in ObjectiveKind:
        kbatch = SelectionEvaluator(cfg, h, kind).evaluate(sels)
        for b, r in enumerate(kbatch.user_rates):
            served, flags = served_stats(r, cfg.theta_dB)
            assert kbatch.served[b] == served
            assert kbatch.served_rates[b].tobytes() == np.where(flags, 0.0, r).tobytes()


def test_evaluator_rejects_channel_shape_mismatch():
    cfg = _cfg(M=8, N=2, N_vec=16)
    bad = ComplexMatrix(np.ones((3, 8)))
    with pytest.raises(ValueError):
        SelectionEvaluator(cfg, bad)


def test_evaluator_rejects_invalid_selections():
    # A negative index would wrap to a real column, and a repeated column
    # scores a selection the search can never make: [3, 3] outscores [7, 0].
    cfg = _cfg(M=4, N=2, N_vec=8)
    ev = SelectionEvaluator(cfg, _channel(cfg))
    valid = ev.evaluate([[7, 0], [1, 2]]).raw
    assert valid.shape == (2,)
    for bad in ([-1, 0], [3, 3], [8, 0], [0, 2**40]):
        with pytest.raises(ValueError, match=r"selection row 0 "):
            ev.evaluate(bad)
    with pytest.raises(ValueError, match=r"selection row 2 \[5, 5\]"):
        ev.evaluate([[7, 0], [1, 2], [5, 5], [-1, 0]])
    for shape in ((3,), (2, 3), (2, 1), (1, 2, 2)):
        with pytest.raises(DimensionError):
            ev.evaluate(np.zeros(shape, dtype=np.int64))


def test_evaluator_rejects_non_integer_selections():
    # A cast would truncate [0.5, 1.7] to [0, 1] and score that selection.
    cfg = _cfg(M=4, N=2, N_vec=8)
    ev = SelectionEvaluator(cfg, _channel(cfg))
    for bad in ([0.5, 1.7], [7.9, 0.2], np.array([[7.0, 0.0]]), [True, False], ["7", "0"]):
        with pytest.raises(ValueError, match="must be integer column indices"):
            ev.evaluate(bad)
    want = ev.evaluate([7, 0]).raw.tobytes()
    for ok in (np.array([7, 0], dtype=np.uint8), np.array([[7, 0]], dtype=np.int32)):
        assert ev.evaluate(ok).raw.tobytes() == want


def test_best_index_breaks_ties_toward_lowest():
    cfg = _cfg(M=8, N=2, N_vec=16, theta_dB=0.0)
    ev = SelectionEvaluator(cfg, _channel(cfg))
    same = np.array([[1, 2], [1, 2], [1, 2]])
    assert ev.evaluate(same).best_index() == 0
    count_ev = SelectionEvaluator(cfg, _channel(cfg), ObjectiveKind.OUTAGE_COUNT)
    assert count_ev.evaluate(same).best_index() == 0


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=12))
def test_rank_best_matches_lexicographic_oracle(members):
    # Values from 0..3 make ties in served count, in sum rate and in both common.
    served, total = (list(col) for col in zip(*members))
    raw = np.array(served, dtype=np.float64)
    user_rates = np.array(total, dtype=np.float64)[:, None]  # one user, whose rate is the sum
    want = lexicographic_best(served, total)
    assert rank_best(ObjectiveKind.OUTAGE_COUNT, raw, user_rates) == want
    first_max = served.index(max(served))
    assert rank_best(ObjectiveKind.THROUGHPUT, raw, user_rates) == first_max
    assert rank_best(ObjectiveKind.OUTAGE_THROUGHPUT, raw, user_rates) == first_max
    # A leading block axis ranks each block alone: here the members and
    # their reversal, whose winner is the last of the tied rows.
    rev = served[::-1], total[::-1]
    blocks = np.stack([raw, raw[::-1]]), np.stack([user_rates, user_rates[::-1]])
    assert rank_best(ObjectiveKind.OUTAGE_COUNT, *blocks).tolist() == [want, lexicographic_best(*rev)]
    assert rank_best(ObjectiveKind.THROUGHPUT, *blocks).tolist() == [first_max, rev[0].index(max(served))]


@pytest.mark.parametrize("kind", list(ObjectiveKind))
@pytest.mark.parametrize("n", [1, 2, 4, 7, 8, 9, 12])
def test_member_scores_do_not_depend_on_the_batch(n, kind):
    # numpy sums a row of fewer than 8 terms in order and a longer one
    # pairwise, and a batch of one row can reach a different reduction path
    # than a larger batch. Every field of a member must have the same bits
    # scored alone, in a batch, in a permuted batch and in a slot-major
    # (Fortran-order) batch like the exhaustive table's.
    cfg = _cfg(M=16, N=n, N_vec=16, P_dB=10.0, theta_dB=0.0)
    ev = SelectionEvaluator(cfg, _channel(cfg), kind)
    sels = _draw_selection(33, n, 16, np.random.default_rng(n))
    perm = np.random.default_rng(0).permutation(33)
    batches = {
        "batch": (ev.evaluate(sels), np.arange(33)),
        "permuted": (ev.evaluate(sels[perm]), np.argsort(perm)),
        "slot-major": (ev.evaluate(np.asfortranarray(sels)), np.arange(33)),
    }
    for b in range(33):
        alone = ev.evaluate(sels[b])
        for name, (batch, row) in batches.items():
            for field in ("raw", "weighted_base", "served", "served_rates", "user_rates"):
                want, got = getattr(alone, field), getattr(batch, field)
                assert got[row[b]].tobytes() == want[0].tobytes(), (name, field, b)


@pytest.mark.parametrize("kind", list(ObjectiveKind))
@pytest.mark.parametrize("n", [4, 12])
def test_eval_batch_scores_a_block_as_its_flat_reshape(n, kind):
    # EvalBatch takes (..., N) rates. Every field over a block's
    # (R, N_it, N) queen_rates must have the bits of the same field over its
    # (R*N_it, N) reshape, and the raw scores must be the ones evaluate gives
    # each lane's queens: the block is all a score curve needs.
    cfg = _cfg(M=16, N=n, N_vec=32, N_it=25, P_dB=10.0, theta_dB=0.0)
    evs = [SelectionEvaluator(cfg, _channel(cfg, r), kind) for r in range(3)]
    traj = ga_run(evs, [stream_rng(cfg.seed, r, STREAM_SEARCH) for r in range(3)])
    block = EvalBatch(kind, traj.queen_rates, evs[0]._min_rate)
    flat = EvalBatch(kind, traj.queen_rates.reshape(-1, n), evs[0]._min_rate)
    for field in ("raw", "weighted_base", "served", "served_rates"):
        got, want = getattr(block, field), getattr(flat, field)
        assert got.shape == (3, cfg.N_it, *want.shape[1:]), field
        assert got.tobytes() == want.tobytes(), field
    for r, ev in enumerate(evs):
        assert block.raw[r].tobytes() == ev.evaluate(traj.queens[r]).raw.tobytes(), r



@pytest.mark.parametrize("n", [1, 4, 12])
def test_eval_batch_shares_the_rate_sum_arrays(n):
    # _aggregate reads raw and weighted_base and keeps one example curve when
    # they are one array: under throughput the plain sum is both, and under
    # outage_throughput the served-rate sum is both.
    user_rates = np.random.default_rng(n).random((3, 5, n))
    batch = EvalBatch(ObjectiveKind.THROUGHPUT, user_rates, 0.5)
    assert batch.raw is batch.weighted_base
    assert batch.raw.tobytes() == user_rates.sum(axis=-1).tobytes()
    batch = EvalBatch(ObjectiveKind.OUTAGE_THROUGHPUT, user_rates, 0.5)
    assert batch.raw is batch.weighted_base
    assert batch.raw.tobytes() == np.where(user_rates >= 0.5, user_rates, 0.0).sum(axis=-1).tobytes()

class _TableEvaluator:
    """Stands in for SelectionEvaluator under the count objective: selection [i] scores rates[i]."""

    kind = ObjectiveKind.OUTAGE_COUNT

    def __init__(self, rates: np.ndarray, min_rate: float):
        self._rates = rates
        self._min_rate = min_rate

    def evaluate(self, selections: np.ndarray) -> EvalBatch:
        return EvalBatch(self.kind, self._rates[selections[:, 0]], self._min_rate)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(st.integers(0, 3), min_size=n, max_size=n), min_size=1, max_size=12)),
    st.integers(1, 5))
@example([[3, 3], [0, 0], [2, 0]], 2)          # one row serves the most users
@example([[1, 0], [0, 1], [1, 0]], 2)          # every row ties, in served count and sum rate
@example([[0, 1], [1, 1], [1, 0]], 1)          # every row ties in served count
@example([[2, 0], [0, 0], [2, 3], [2, 3]], 2)  # a later tied row wins, in a later chunk
def test_count_ranking_matches_lexicographic_oracle(rows, chunk):
    # Integer-valued rates against threshold rates of 2 and 1 make ties in
    # served count, and in sum rate among the tied rows, common. One
    # evaluator scores the chunks once and ranks them under both thresholds.
    user_rates = np.array(rows, dtype=np.float64)
    ids = np.arange(len(rows))[:, None]
    thresholds = (2.0, 1.0)
    found = _best_of_chunks(_TableEvaluator(user_rates, thresholds[0]), thresholds,
                            (ids[s:s + chunk] for s in range(0, len(rows), chunk)))
    for threshold, (sel, score) in zip(thresholds, found):
        served = (user_rates >= threshold).sum(axis=1)
        want = lexicographic_best(served.tolist(), user_rates.sum(axis=1).tolist())
        assert EvalBatch(ObjectiveKind.OUTAGE_COUNT, user_rates, threshold).best_index() == want
        assert (sel.tolist(), score) == ([want], float(served[want]))


def test_ga_scores_never_decrease():
    cfg = _cfg(M=16, N=4, N_vec=32, N_it=60)
    h = _channel(cfg)
    ev = SelectionEvaluator(cfg, h)
    raw = _raw(_ga(ev, stream_rng(cfg.seed, 0, STREAM_SEARCH)), ev)
    assert raw.shape == (1, 60)
    assert np.all(np.diff(raw, axis=-1) >= 0.0)



def test_ga_run_calls_the_population_steps_through_their_module_names(monkeypatch):
    # A tracer that rebinds search.mutate and search._draw_selection must see
    # every call: one mutate per generation after the first, and one initial
    # draw per realization.
    calls = {"mutate": 0, "_draw_selection": 0}
    for name in calls:
        original = getattr(search, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(search, name, counted)
    cfg = _cfg(M=8, N=4, N_vec=16, N_it=12)
    evs = [SelectionEvaluator(cfg, _channel(cfg, r)) for r in range(3)]
    ga_run(evs, [np.random.default_rng(r) for r in range(3)])
    assert calls == {"mutate": cfg.N_it - 1, "_draw_selection": 3}

def test_ga_deterministic_given_stream():
    cfg = _cfg(M=8, N=2, N_vec=16, N_it=25)
    h = _channel(cfg)
    a = _ga(SelectionEvaluator(cfg, h), stream_rng(9, 3, STREAM_SEARCH))
    b = _ga(SelectionEvaluator(cfg, h), stream_rng(9, 3, STREAM_SEARCH))
    np.testing.assert_array_equal(a.queens, b.queens)
    np.testing.assert_array_equal(a.queen_rates, b.queen_rates)


def test_ga_trajectory_independent_of_alpha():
    # The delay factor is applied after the fact; the search itself ranks by
    # the undiscounted score, so alpha must not steer it.
    cfg = _cfg(M=8, N=2, N_vec=16, N_it=30, alpha=0.001)
    h = _channel(cfg)
    slow_ev, fast_ev = SelectionEvaluator(replace(cfg, alpha=0.0), h), SelectionEvaluator(cfg, h)
    slow = _ga(slow_ev, stream_rng(5, 0, STREAM_SEARCH))
    fast = _ga(fast_ev, stream_rng(5, 0, STREAM_SEARCH))
    np.testing.assert_array_equal(slow.queens, fast.queens)
    np.testing.assert_array_equal(slow.queen_rates, fast.queen_rates)
    np.testing.assert_allclose(delay_weighted(_raw(slow, slow_ev), 0.001),
                               delay_weighted(_raw(fast, fast_ev), cfg.alpha), rtol=1e-15)


def test_ga_trajectory_accounting():
    cfg = _cfg(M=8, N=2, N_vec=16, N_it=20, L=10)
    h = _channel(cfg)
    ev = SelectionEvaluator(cfg, h)
    traj = _ga(ev, stream_rng(1, 0, STREAM_SEARCH))
    assert traj.queens.shape == (1, 20, 2) and traj.queens.dtype == np.int64
    # every queen is a valid 0-based selection: distinct columns in [0, N_vec)
    assert all(len(set(q.tolist())) == 2 for q in traj.queens[0])
    assert traj.queens.min() >= 0
    assert traj.queens.max() < 16
    assert float(ev.evaluate(traj.queens[0, -1]).raw[0]) == pytest.approx(_raw(traj, ev)[0, -1], rel=1e-14)
    # each iteration's queen_rates are her users' rates, with evaluate's bits
    assert ev.evaluate(traj.queens[0]).user_rates.tobytes() == traj.queen_rates[0].tobytes()


def test_ga_weighted_scores_match_raw_for_zero_alpha():
    cfg = _cfg(M=8, N=2, N_vec=16, N_it=15)
    h = _channel(cfg)
    ev = SelectionEvaluator(cfg, h)
    raw = _raw(_ga(ev, stream_rng(2, 0, STREAM_SEARCH)), ev)
    np.testing.assert_allclose(delay_weighted(raw, 0.0), raw, rtol=1e-15)


@pytest.mark.parametrize("shape", [
    dict(M=8, N=4, N_vec=16),
    dict(M=32, N=8, N_vec=128, N_it=60),  # three chunks of keys
    dict(M=1, N=1, N_vec=1),              # mutants of the one selection take no keys
    dict(M=8, N=3, N_vec=16, S=0),        # no mutants
    dict(M=6, N=6, N_vec=6),              # N == N_vec: mutants swap two slots
], ids=["spare_columns", "three_key_chunks", "single_column", "no_mutants", "full_codebook"])
def test_ga_run_draws_a_fixed_number_of_keys(shape):
    # ga_run draws many generations' keys before it knows their queens, which
    # is only sound because every generation takes the same number of keys,
    # whatever the channel: L * N_vec for the first population, then N_vec
    # per mutant (none when N_vec == 1) and per fresh member. A block of two
    # realizations takes that many from each one's stream.
    cfg = _cfg(**{"N_it": 40, **shape})
    per_gen = cfg.L - 1 if cfg.N_vec > 1 else cfg.L - cfg.S - 1
    expected = np.random.default_rng(17)
    expected.random(cfg.L * cfg.N_vec + (cfg.N_it - 1) * per_gen * cfg.N_vec)
    rngs = [np.random.default_rng(17), np.random.default_rng(17)]
    ga_run([SelectionEvaluator(cfg, _channel(cfg, r)) for r in (0, 1)], rngs)
    for rng in rngs:
        assert rng.bit_generator.state == expected.bit_generator.state


@pytest.mark.parametrize("kind", list(ObjectiveKind))
def test_ga_trajectories_own_read_only_rows(kind):
    # A block holds one C-contiguous, read-only row per realization, so the
    # scores taken from it are C-contiguous too, and a mean over
    # realizations adds them in index order.
    cfg = _cfg(N_it=12, theta_dB=0.0)
    evs = [SelectionEvaluator(cfg, _channel(cfg, r), kind) for r in range(3)]
    traj = ga_run(evs, [np.random.default_rng(r) for r in range(3)])
    assert traj.queens.shape == traj.queen_rates.shape == (3, 12, cfg.N)
    for arr in (traj.queens, traj.queen_rates):
        assert arr.flags.c_contiguous and not arr.flags.writeable
    assert _raw(traj, evs[0]).shape == (3, 12) and _raw(traj, evs[0]).flags.c_contiguous


def test_ga_run_needs_one_config_objective_and_stream_per_evaluator():
    cfg = _cfg(N_it=5)
    ev = SelectionEvaluator(cfg, _channel(cfg))
    others = [
        SelectionEvaluator(replace(cfg, P_dB=cfg.P_dB + 1.0), _channel(cfg)),
        SelectionEvaluator(cfg, _channel(cfg), ObjectiveKind.OUTAGE_COUNT),
    ]
    for other in others:
        with pytest.raises(ValueError, match="one config and one objective"):
            ga_run([ev, other], [np.random.default_rng(0), np.random.default_rng(1)])
    with pytest.raises(ValueError, match="one stream per evaluator"):
        ga_run([ev, ev], [np.random.default_rng(0)])
    with pytest.raises(ValueError, match="one stream per evaluator"):
        ga_run([], [])


@pytest.mark.parametrize("kind", list(ObjectiveKind))
def test_ga_lanes_match_each_point_alone(kind):
    # Thresholds run as the lanes of one block that draws and ranks each
    # realization's keys once. Every lane must have the bits of a search
    # whose evaluator was built at that threshold's theta_dB, run alone, in
    # threshold-major order, with a repeated threshold keeping its own lanes.
    cfg = _cfg(M=8, N=4, N_vec=16, N_it=30, P_dB=0.0)
    evs = [SelectionEvaluator(cfg, _channel(cfg, r), kind) for r in range(3)]
    thetas = (-4.0, 2.0, -4.0)
    block = ga_run(evs, [stream_rng(cfg.seed, r, STREAM_SEARCH) for r in range(3)],
                   [min_rate_for_threshold(t) for t in thetas])
    assert block.queens.shape == block.queen_rates.shape == (9, 30, 4)
    for p, theta in enumerate(thetas):
        for r in range(3):
            alone = ga_run([SelectionEvaluator(replace(cfg, theta_dB=theta), _channel(cfg, r), kind)],
                           [stream_rng(cfg.seed, r, STREAM_SEARCH)])
            for field in ("queens", "queen_rates"):
                assert getattr(block, field)[3 * p + r].tobytes() == getattr(alone, field)[0].tobytes(), (p, r)
    if kind is not ObjectiveKind.THROUGHPUT:
        assert block.queens[:3].tobytes() != block.queens[3:6].tobytes()  # the thresholds steer the search


def test_searches_need_one_or_more_thresholds_none_nan():
    # An empty threshold list or a NaN threshold has nothing to rank under.
    # theta_dB = inf and -inf give the thresholds inf, which serves nobody,
    # and 0, which serves everybody.
    cfg = _cfg(M=4, N=2, N_vec=8, N_it=5)
    ev = SelectionEvaluator(cfg, _channel(cfg), ObjectiveKind.OUTAGE_COUNT)
    searches = (lambda t: ga_run([ev], [np.random.default_rng(0)], t),
                lambda t: random_search(ev, 10, np.random.default_rng(0), t),
                lambda t: exhaustive_search(ev, t))
    for search_under in searches:
        for bad in ([], [float("nan")], [0.5, float("nan")]):
            with pytest.raises(ValueError, match="one or more rate thresholds, none NaN"):
                search_under(bad)
    edges = [min_rate_for_threshold(t) for t in (np.inf, -np.inf)]
    assert edges == [np.inf, 0.0]
    for found in (searches[1](edges), searches[2](edges)):
        assert [score for _, score in found] == [0.0, cfg.N]
    traj = searches[0](edges)
    for lane, served in enumerate((0, cfg.N)):
        assert (EvalBatch(ev.kind, traj.queen_rates[lane], edges[lane]).raw == served).all()


def test_search_space_size():
    assert search_space_size(_cfg(M=8, N=2, N_vec=8)) == 56
    assert search_space_size(_cfg(M=4, N=4, N_vec=4)) == 24


def test_exhaustive_matches_explicit_enumeration():
    cfg = _cfg(M=4, N=2, N_vec=8)
    h = _channel(cfg)
    ev = SelectionEvaluator(cfg, h)
    best_score = -np.inf
    best_sel = None
    for perm in itertools.permutations(range(8), 2):
        score = float(ev.evaluate(np.array(perm)).raw[0])
        if score > best_score:
            best_score = score
            best_sel = perm
    ((sel, score),) = exhaustive_search(SelectionEvaluator(cfg, h))
    assert score == pytest.approx(best_score, rel=1e-14)
    assert sel.tolist() == list(best_sel)


def test_exhaustive_tie_breaks_to_first_enumerated():
    cfg = _cfg(M=4, N=2, N_vec=8)
    flat = ComplexMatrix(np.zeros((2, 4)))
    ((sel, score),) = exhaustive_search(SelectionEvaluator(cfg, flat))
    assert score == 0.0
    assert sel.tolist() == [0, 1]


@pytest.mark.parametrize("n_vec,n", [(4, 1), (4, 4), (6, 3), (16, 4)])
def test_ordered_selections_table_is_the_permutation_order(n_vec, n):
    table = _ordered_selections(n_vec, n)
    assert table.tolist() == [list(p) for p in itertools.permutations(range(n_vec), n)]
    assert table.dtype == np.int32
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 1
    assert _ordered_selections(n_vec, n) is table


def test_ordered_selections_caches_one_shape():
    first = _ordered_selections(6, 3)
    _ordered_selections(5, 2)
    assert _ordered_selections.cache_info().currsize == 1
    again = _ordered_selections(6, 3)
    assert again is not first
    np.testing.assert_array_equal(again, first)


def _best_row(batch) -> int:
    if batch.kind is ObjectiveKind.OUTAGE_COUNT:
        return lexicographic_best(batch.served, batch.user_rates.sum(axis=-1))
    return int(np.argmax(batch.raw))


@pytest.mark.parametrize("kind", list(ObjectiveKind))
@pytest.mark.parametrize("flat", [False, True])
def test_chunk_size_never_changes_the_winner(monkeypatch, kind, flat):
    # Faded: 9 of the 56 rows tie at 2 served users, spread over several
    # chunks of 7, and the sum rate decides among them. Flat: every row
    # scores 0 on every objective, so only the enumeration order decides.
    cfg = _cfg(M=4, N=2, N_vec=8, P_dB=10.0, theta_dB=0.0)
    h = ComplexMatrix(np.zeros((2, 4))) if flat else _channel(cfg)
    ev = SelectionEvaluator(cfg, h, kind)
    table = _ordered_selections(8, 2)
    every = ev.evaluate(table)
    want = _best_row(every)
    if not flat and kind is ObjectiveKind.OUTAGE_COUNT:
        tied = np.flatnonzero(every.served == every.served.max())
        assert len(set(tied // 7)) > 1 and want != tied[0]  # decided across chunks
    drawn = _draw_selection(40, 2, 8, np.random.default_rng(5))
    drawn_batch = ev.evaluate(drawn)
    r_want = _best_row(drawn_batch)
    for chunk in (1, 7, 4096):
        monkeypatch.setattr(search, "CHUNK", chunk)
        ((sel, score),) = exhaustive_search(ev)
        assert (sel.tolist(), score) == (table[want].tolist(), float(every.raw[want]))
        ((sel, score),) = random_search(ev, 40, np.random.default_rng(5))
        assert (sel.tolist(), score) == (drawn[r_want].tolist(), float(drawn_batch.raw[r_want]))


def test_exhaustive_refuses_oversized_space():
    cfg = _cfg(M=32, N=8, N_vec=128)
    h = _channel(cfg)
    with pytest.raises(SearchSpaceError):
        exhaustive_search(SelectionEvaluator(cfg, h))


def test_exhaustive_count_objective_returns_served_count():
    # At this power and threshold the 56 rows serve 0, 1 or 2 users, and 9 tie at 2.
    cfg = _cfg(M=4, N=2, N_vec=8, P_dB=10.0, theta_dB=0.0)
    ev = SelectionEvaluator(cfg, _channel(cfg), ObjectiveKind.OUTAGE_COUNT)
    ((sel, score),) = exhaustive_search(ev)
    assert isinstance(score, float)
    batch = ev.evaluate(sel)
    assert score == int(batch.served[0])
    # The served count ranks first, then the sum rate breaks ties: no row
    # serves more users, and none with the same count has a higher sum rate.
    every = ev.evaluate(np.array(list(itertools.permutations(range(8), 2))))
    assert score == every.served.max()
    tied = every.served == every.served.max()
    assert every.user_rates.sum(axis=-1)[tied].max() == pytest.approx(float(batch.user_rates[0].sum()), rel=1e-14)


def test_random_search_budget_one_and_determinism():
    cfg = _cfg(M=8, N=2, N_vec=16)
    ev = SelectionEvaluator(cfg, _channel(cfg))
    ((a_sel, a_score),) = random_search(ev, 1, np.random.default_rng(3))
    ((b_sel, b_score),) = random_search(ev, 1, np.random.default_rng(3))
    assert a_sel.tolist() == b_sel.tolist() and a_score == b_score
    with pytest.raises(ValueError):
        random_search(ev, 0, np.random.default_rng(3))


def test_random_search_never_beats_exhaustive():
    cfg = _cfg(M=4, N=2, N_vec=8)
    ev = SelectionEvaluator(cfg, _channel(cfg))
    ((_, opt),) = exhaustive_search(ev)
    ((_, found),) = random_search(ev, 25, np.random.default_rng(0))
    assert found <= opt + 1e-12


def test_ga_attains_small_instance_optimum_most_of_the_time():
    cfg = _cfg(M=4, N=2, N_vec=8, N_it=50, L=10, S=5)
    hits = 0
    trials = 30
    for r in range(trials):
        ev = SelectionEvaluator(cfg, realize_channel(cfg, r))
        ((_, opt),) = exhaustive_search(ev)
        traj = _ga(ev, stream_rng(cfg.seed, r, STREAM_SEARCH))
        final = _raw(traj, ev)[0, -1]
        assert final <= opt + 1e-9  # can never beat the true optimum
        if final >= opt - 1e-9:
            hits += 1
    assert hits >= int(0.9 * trials)


def test_ga_beats_matched_budget_random_search_on_average():
    cfg = _cfg(M=16, N=4, N_vec=32, N_it=40, L=10)
    ga_scores = []
    rs_scores = []
    for r in range(40):
        ev = SelectionEvaluator(cfg, realize_channel(cfg, r))
        traj = _ga(ev, stream_rng(cfg.seed, r, STREAM_SEARCH))
        ((_, found),) = random_search(ev, cfg.L * cfg.N_it, stream_rng(cfg.seed, r, 2))
        ga_scores.append(_raw(traj, ev)[0, -1])
        rs_scores.append(found)
    assert np.mean(ga_scores) > np.mean(rs_scores)


def test_count_objective_serves_at_least_as_many_users():
    # Optimizing the served count directly should not serve fewer users than
    # optimizing the rate sum, on average.
    cfg = _cfg(M=8, N=4, N_vec=16, N_it=30, P_dB=0.0, theta_dB=0.0)
    served_count = []
    served_thr = []
    for r in range(40):
        h = realize_channel(cfg, r)
        ev = SelectionEvaluator(cfg, h, ObjectiveKind.OUTAGE_COUNT)
        t_count = _ga(ev, stream_rng(cfg.seed, r, STREAM_SEARCH))
        t_thr = _ga(SelectionEvaluator(cfg, h), stream_rng(cfg.seed, r, STREAM_SEARCH))
        served_count.append(_raw(t_count, ev)[0, -1])
        served_thr.append(int(ev.evaluate(t_thr.queens[0, -1]).served[0]))
    assert np.mean(served_count) >= np.mean(served_thr)
