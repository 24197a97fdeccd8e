import itertools

import numpy as np
import pytest

from beamsel.channel import realize_channel, stream_rng, STREAM_SEARCH
from beamsel.codebook import build_dft_codebook
from beamsel.core import BeamSelection, ComplexMatrix, PaParams, SystemConfig, db_to_linear
from beamsel.metrics import ObjectiveKind, pa_output_power, rates
from beamsel.search import (
    SearchSpaceError,
    _draw_selection,
    SelectionEvaluator,
    exhaustive_search,
    ga_run,
    init_population,
    mutate,
    n_replaced,
    random_search,
    search_space_size,
)
from scalar_oracle import channel_gain, materialize, sinr

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
    p = pa_output_power(cfg.P_linear, cfg.pa)
    out_rates = []
    for row in np.asarray(sels_0based):
        sel = BeamSelection.from_array(row)
        v = materialize(cb, sel)
        g = channel_gain(h, v)
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
    pop_a = init_population(cfg, np.random.default_rng(7))
    pop_b = init_population(cfg, np.random.default_rng(7))
    np.testing.assert_array_equal(pop_a, pop_b)
    assert pop_a.shape == (10, 3)
    for row in pop_a:
        assert len(set(row.tolist())) == 3
        assert row.min() >= 0 and row.max() < 12


def test_init_population_full_codebook_draws_permutations():
    cfg = _cfg(M=4, N=4, N_vec=4, L=10)
    pop = init_population(cfg, np.random.default_rng(0))
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


def _changed_slots(children, parent):
    return np.count_nonzero(children != parent[None, :], axis=1)


def _assert_valid(children, n_vec):
    n = children.shape[1]
    assert all(len(set(row.tolist())) == n for row in children)
    assert children.min() >= 0 and children.max() < n_vec


def test_mutate_changes_exactly_one_slot_for_small_n():
    cfg = _cfg(M=8, N=8, N_vec=128)
    parent = np.arange(8, dtype=np.int64)
    children = mutate(parent, 200, cfg, np.random.default_rng(3))
    assert children.shape == (200, 8)
    assert np.all(_changed_slots(children, parent) == 1)
    assert not np.isin(children[children != parent[None, :]], parent).any()
    _assert_valid(children, 128)


def test_mutate_changes_two_slots_for_n_twenty():
    cfg = _cfg(M=32, N=20, N_vec=64)
    parent = np.arange(20, dtype=np.int64)
    children = mutate(parent, 100, cfg, np.random.default_rng(4))
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
    children = mutate(parent, 500, cfg, np.random.default_rng(2))
    assert np.all(_changed_slots(children, parent) == want)
    _assert_valid(children, n_vec)
    # Replacements come from outside the parent as long as unused columns remain.
    fresh = np.count_nonzero(~np.isin(children, parent), axis=1)
    assert np.all(fresh == min(want, n_vec - n))


def test_mutate_replacements_are_uniform_over_unused_columns():
    cfg = _cfg(M=4, N=4, N_vec=16)
    parent = np.array([9, 2, 14, 5], dtype=np.int64)
    children = mutate(parent, 12_000, cfg, np.random.default_rng(6))
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
    # No rejection loop: the stream advances by the same amount for any
    # parent, so the slots drawn depend on the stream alone.
    cfg = _cfg(M=8, N=4, N_vec=16, mutation_fraction=0.5)
    rngs = [np.random.default_rng(8), np.random.default_rng(8)]
    a = mutate(np.array([0, 1, 2, 3]), 50, cfg, rngs[0])
    b = mutate(np.array([12, 7, 15, 4]), 50, cfg, rngs[1])
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
    np.testing.assert_array_equal(a != np.array([0, 1, 2, 3]), b != np.array([12, 7, 15, 4]))


def test_mutate_swaps_when_codebook_has_no_spare_columns():
    cfg = _cfg(M=6, N=6, N_vec=6)
    parent = np.array([0, 1, 2, 3, 4, 5], dtype=np.int64)
    children = mutate(parent, 50, cfg, np.random.default_rng(5))
    for child in children:
        assert sorted(child.tolist()) == parent.tolist()
        assert np.count_nonzero(child != parent) == 2


def test_mutate_single_column_codebook_returns_copy():
    # N = N_vec = 1 has exactly one selection, so there is nothing to swap.
    cfg = _cfg(M=1, N=1, N_vec=1)
    parent = np.array([0], dtype=np.int64)
    children = mutate(parent, 3, cfg, np.random.default_rng(0))
    np.testing.assert_array_equal(children, np.zeros((3, 1), dtype=np.int64))
    assert not np.shares_memory(children, parent)


def test_mutate_deterministic_and_leaves_parent_alone():
    cfg = _cfg(M=8, N=4, N_vec=16)
    parent = np.array([3, 7, 11, 15], dtype=np.int64)
    snapshot = parent.copy()
    a = mutate(parent, 5, cfg, np.random.default_rng(9))
    b = mutate(parent, 5, cfg, np.random.default_rng(9))
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
        children = mutate(parent, 4, cfg, rng)
        assert children.shape == (4, n)
        _assert_valid(children, cfg.N_vec)


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
    pa = PaParams(epsilon=0.5, mu=0.5, rho_max_dB=35.0)
    cfg = _cfg(M=8, N=2, N_vec=16, P_dB=30.0, pa=pa)
    h = _channel(cfg)
    ev = SelectionEvaluator(cfg, h)
    sel = np.array([[0, 5]])
    got = ev.evaluate(sel).user_rates[0]
    want = reference_scores(cfg, h, sel)[0]
    np.testing.assert_allclose(got, want, rtol=1e-12)
    # and the radiated power really is below the consumed power
    assert pa_output_power(cfg.P_linear, pa) < cfg.P_linear


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
    np.testing.assert_allclose(cbatch.total_sum, batch.user_rates.sum(axis=1))


def test_evaluator_rejects_channel_shape_mismatch():
    cfg = _cfg(M=8, N=2, N_vec=16)
    bad = ComplexMatrix(np.ones((3, 8)))
    with pytest.raises(ValueError):
        SelectionEvaluator(cfg, bad)


def test_best_index_breaks_ties_toward_lowest():
    cfg = _cfg(M=8, N=2, N_vec=16, theta_dB=0.0)
    ev = SelectionEvaluator(cfg, _channel(cfg))
    same = np.array([[1, 2], [1, 2], [1, 2]])
    assert ev.evaluate(same).best_index() == 0
    count_ev = SelectionEvaluator(cfg, _channel(cfg), ObjectiveKind.OUTAGE_COUNT)
    assert count_ev.evaluate(same).best_index() == 0


def test_ga_scores_never_decrease():
    cfg = _cfg(M=16, N=4, N_vec=32, N_it=60)
    h = _channel(cfg)
    traj = ga_run(SelectionEvaluator(cfg, h), stream_rng(cfg.seed, 0, STREAM_SEARCH))
    assert traj.n_it == 60
    assert np.all(np.diff(traj.raw_scores) >= 0.0)


def test_ga_deterministic_given_stream():
    cfg = _cfg(M=8, N=2, N_vec=16, N_it=25)
    h = _channel(cfg)
    a = ga_run(SelectionEvaluator(cfg, h), stream_rng(9, 3, STREAM_SEARCH))
    b = ga_run(SelectionEvaluator(cfg, h), stream_rng(9, 3, STREAM_SEARCH))
    np.testing.assert_array_equal(a.queens, b.queens)
    np.testing.assert_array_equal(a.raw_scores, b.raw_scores)


def test_ga_trajectory_independent_of_alpha():
    # The delay factor is applied after the fact; the search itself ranks by
    # the undiscounted score, so alpha must not steer it.
    cfg = _cfg(M=8, N=2, N_vec=16, N_it=30, alpha=0.001)
    h = _channel(cfg)
    slow = ga_run(SelectionEvaluator(cfg.with_overrides(alpha=0.0), h), stream_rng(5, 0, STREAM_SEARCH))
    fast = ga_run(SelectionEvaluator(cfg, h), stream_rng(5, 0, STREAM_SEARCH))
    np.testing.assert_array_equal(slow.queens, fast.queens)
    np.testing.assert_array_equal(slow.raw_scores, fast.raw_scores)
    np.testing.assert_allclose(slow.weighted_scores(0.001), fast.weighted_scores(), rtol=1e-15)


def test_ga_trajectory_accounting():
    cfg = _cfg(M=8, N=2, N_vec=16, N_it=20, L=10)
    h = _channel(cfg)
    traj = ga_run(SelectionEvaluator(cfg, h), stream_rng(1, 0, STREAM_SEARCH))
    assert traj.evaluations_used(1) == 10
    assert traj.evaluations_used(20) == 200
    with pytest.raises(ValueError):
        traj.evaluations_used(0)
    with pytest.raises(ValueError):
        traj.evaluations_used(21)
    # queens are reported 1-based
    assert traj.queens.min() >= 1
    assert traj.queens.max() <= 16
    sel = traj.queen(20)
    ev = SelectionEvaluator(cfg, h)
    assert float(ev.evaluate(sel.as_array()).raw[0]) == pytest.approx(traj.final_raw, rel=1e-14)


def test_ga_weighted_scores_match_raw_for_zero_alpha():
    cfg = _cfg(M=8, N=2, N_vec=16, N_it=15)
    h = _channel(cfg)
    traj = ga_run(SelectionEvaluator(cfg, h), stream_rng(2, 0, STREAM_SEARCH))
    np.testing.assert_allclose(traj.weighted_scores(0.0), traj.raw_scores, rtol=1e-15)


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
    sel, score = exhaustive_search(SelectionEvaluator(cfg, h))
    assert score == pytest.approx(best_score, rel=1e-14)
    assert sel.as_array().tolist() == list(best_sel)


def test_exhaustive_tie_breaks_to_first_enumerated():
    cfg = _cfg(M=4, N=2, N_vec=8)
    flat = ComplexMatrix(np.zeros((2, 4)))
    sel, score = exhaustive_search(SelectionEvaluator(cfg, flat))
    assert score == 0.0
    assert sel.indices == (1, 2)


def test_exhaustive_refuses_oversized_space():
    cfg = _cfg(M=32, N=8, N_vec=128)
    h = _channel(cfg)
    with pytest.raises(SearchSpaceError):
        exhaustive_search(SelectionEvaluator(cfg, h))


def test_exhaustive_count_objective_returns_tuple():
    cfg = _cfg(M=4, N=2, N_vec=8, P_dB=0.0, theta_dB=0.0)
    ev = SelectionEvaluator(cfg, _channel(cfg), ObjectiveKind.OUTAGE_COUNT)
    sel, score = exhaustive_search(ev)
    assert isinstance(score, tuple)
    served, total = score
    assert 0 <= served <= 2
    batch = ev.evaluate(sel.as_array())
    assert int(batch.served[0]) == served
    assert float(batch.total_sum[0]) == pytest.approx(total, rel=1e-14)


def test_random_search_budget_one_and_determinism():
    cfg = _cfg(M=8, N=2, N_vec=16)
    ev = SelectionEvaluator(cfg, _channel(cfg))
    a_sel, a_score = random_search(ev, 1, np.random.default_rng(3))
    b_sel, b_score = random_search(ev, 1, np.random.default_rng(3))
    assert a_sel == b_sel and a_score == b_score
    with pytest.raises(ValueError):
        random_search(ev, 0, np.random.default_rng(3))


def test_random_search_never_beats_exhaustive():
    cfg = _cfg(M=4, N=2, N_vec=8)
    ev = SelectionEvaluator(cfg, _channel(cfg))
    _, opt = exhaustive_search(ev)
    _, found = random_search(ev, 25, np.random.default_rng(0))
    assert found <= opt + 1e-12


def test_ga_attains_small_instance_optimum_most_of_the_time():
    cfg = _cfg(M=4, N=2, N_vec=8, N_it=50, L=10, S=5)
    hits = 0
    trials = 30
    for r in range(trials):
        ev = SelectionEvaluator(cfg, realize_channel(cfg, r))
        _, opt = exhaustive_search(ev)
        traj = ga_run(ev, stream_rng(cfg.seed, r, STREAM_SEARCH))
        assert traj.final_raw <= opt + 1e-9  # can never beat the true optimum
        if traj.final_raw >= opt - 1e-9:
            hits += 1
    assert hits >= int(0.9 * trials)


def test_ga_beats_matched_budget_random_search_on_average():
    cfg = _cfg(M=16, N=4, N_vec=32, N_it=40, L=10)
    ga_scores = []
    rs_scores = []
    for r in range(40):
        ev = SelectionEvaluator(cfg, realize_channel(cfg, r))
        traj = ga_run(ev, stream_rng(cfg.seed, r, STREAM_SEARCH))
        _, found = random_search(ev, cfg.L * cfg.N_it, stream_rng(cfg.seed, r, 2))
        ga_scores.append(traj.final_raw)
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
        t_count = ga_run(ev, stream_rng(cfg.seed, r, STREAM_SEARCH))
        t_thr = ga_run(SelectionEvaluator(cfg, h), stream_rng(cfg.seed, r, STREAM_SEARCH))
        served_count.append(t_count.raw_scores[-1])
        final = t_thr.queen(t_thr.n_it).as_array()
        served_thr.append(int(ev.evaluate(final).served[0]))
    assert np.mean(served_count) >= np.mean(served_thr)
