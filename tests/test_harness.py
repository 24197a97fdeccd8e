import dataclasses
import json
import math
import os
import platform
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamsel import harness
from beamsel.channel import STREAM_SEARCH, realize_channel, stream_rng
from beamsel.core import ConfigError, ObjectiveKind, SaturationError, SystemConfig, validate_config
from beamsel.cli import apply_cli_overrides, parse_config
from beamsel.config import CONFIG_KEYS, ExperimentConfig, apply_override, apply_settings, coerce_value
from beamsel.harness import (
    SweepPointResult,
    _aggregate,
    _run_realization,
    convergence_iteration,
    rate_cdf,
    run_experiment,
    write_result_files,
)
from beamsel.search import STREAM_LAYOUT, SearchSpaceError, SelectionEvaluator, ga_run
from scalar_oracle import served_stats


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _curves(*rows):
    """An (R, N_it) array with one row of scores per realization."""
    return np.array(rows, dtype=np.float64)


def _base(**kw):
    cfg = dict(M=8, N=2, N_vec=16, N_it=30, realizations=4, seed=7)
    cfg.update(kw)
    return SystemConfig(**cfg)


def test_convergence_iteration_no_delay_rule():
    raw = _curves([1.0, 2.0, 3.0, 3.0, 3.0])
    assert convergence_iteration(raw, raw, 0.0).tolist() == [3]
    raw = _curves([5.0, 5.0, 5.0])
    assert convergence_iteration(raw, raw, 0.0).tolist() == [1]
    # 5% slack: 2.85 is within tolerance of the final 3.0; each row has its own final score
    block = _curves([1.0, 2.85, 2.9, 3.0], [1.0, 2.0, 3.0, 3.0])
    assert convergence_iteration(block, block, 0.0, tol=0.05).tolist() == [2, 3]


def test_convergence_iteration_weighted_rule():
    # weighted scores (1 - 0.1K) * base peak at K = 3
    raw = _curves([1.0, 2.0, 3.0, 3.0, 3.0])
    assert convergence_iteration(raw, raw, 0.1).tolist() == [3]
    # flat raw curve: the delay factor makes earlier strictly better
    raw = _curves([4.0, 4.0, 4.0])
    assert convergence_iteration(raw, raw, 0.01).tolist() == [1]


def test_convergence_iteration_explicit_alpha_overrides():
    raw = _curves([1.0, 2.0, 3.0, 3.0])
    assert convergence_iteration(raw, raw, 0.0).tolist() == [3]
    # The weighted rule reads the bases and the no-delay rule the raw scores,
    # as for the count objective, whose raw score is the served count.
    counts, bases = _curves([1.0, 2.0, 2.0, 2.0]), _curves([1.0, 2.0, 3.0, 3.0])
    assert convergence_iteration(counts, bases, 0.1).tolist() == [3]
    assert convergence_iteration(counts, bases, 0.0).tolist() == [2]


def test_rate_cdf_pairs():
    def cdf(samples):
        values, fractions = rate_cdf(np.array(samples))
        return values.tolist(), fractions.tolist()

    assert cdf([0.0, 2.0]) == ([0.0, 2.0], [0.5, 1.0])
    assert cdf([1.0, 1.0, 1.0]) == ([1.0], [1.0])
    values, fractions = cdf([3.0, 1.0, 2.0, 1.0])
    assert values == [1.0, 2.0, 3.0]
    assert fractions[-1] == 1.0
    with pytest.raises(ValueError):
        rate_cdf(np.array([]))


def test_coerce_value_types():
    assert coerce_value("M", "32") == 32
    assert coerce_value("alpha", "1e-3") == 0.001
    assert coerce_value("pa_rho_max_dB", "inf") == math.inf
    with pytest.raises(ConfigError):
        coerce_value("M", "32.5")
    with pytest.raises(ConfigError):
        coerce_value("k", "fast")
    with pytest.raises(ConfigError):
        coerce_value("bandwidth", "20")


def test_apply_override_routing():
    cfg = _base()
    assert apply_override(cfg, "M", "16").M == 16
    assert apply_override(cfg, "k", 3).k == 3.0
    out = apply_override(cfg, "pa_epsilon", "0.5")
    assert out.pa_epsilon == 0.5
    assert replace(out, pa_epsilon=cfg.pa_epsilon) == cfg  # only the amplifier changed
    with pytest.raises(ConfigError):
        apply_override(cfg, "N_it", 12.5)
    with pytest.raises(ConfigError):
        apply_override(cfg, "w", 1)


def test_experiment_config_validation():
    base = _base()
    with pytest.raises(ConfigError):
        ExperimentConfig(base=base, sweep_key="objective")
    with pytest.raises(ConfigError):
        ExperimentConfig(base=base, sweep_key="k")
    with pytest.raises(ConfigError):
        ExperimentConfig(base=base, baselines=("greedy",))
    with pytest.raises(ConfigError, match="more than once"):
        ExperimentConfig(base=base, baselines=("random", "exhaustive", "random"))
    with pytest.raises(ConfigError):
        ExperimentConfig(base=base, convergence_tol=1.0)


def test_experiment_points():
    base = _base()
    single = ExperimentConfig(base=base)
    assert single.points() == [(None, base)]
    sweep = ExperimentConfig(base=base, sweep_key="k", sweep_values=(0.0, 1.0, 3.0))
    pts = sweep.points()
    assert [v for v, _ in pts] == [0.0, 1.0, 3.0]
    assert [c.k for _, c in pts] == [0.0, 1.0, 3.0]
    # non-swept fields are untouched
    assert all(c.M == base.M and c.seed == base.seed for _, c in pts)


def test_point_search_uses_point_threshold_and_alpha():
    # A block of 6 realizations whose K* differ. Under every objective each
    # realization's served count and constrained rates at K* must have the
    # bits of its K* queen, found by a run of its own, scored again through
    # evaluate at the point's own theta_dB, and must match
    # scalar_oracle.served_stats. With alpha > 0 some runs crown a new queen
    # after K*, so the last iteration's queen would give other rates. The
    # count objective's raw score is the served count.
    base = _base(N=4, P_dB=10.0, alpha=0.02, realizations=6)
    for kind in ObjectiveKind:
        ec = ExperimentConfig(base=base, objective_kind=kind,
                              sweep_key="theta_dB", sweep_values=(-3.0, 6.0))
        result = run_experiment(ec)
        served = []
        for pt in result.points:
            cfg = pt.cfg
            assert len(set(pt.convergence_iterations.tolist())) > 1
            moved_after = 0
            for r in range(cfg.realizations):
                ev = SelectionEvaluator(cfg, realize_channel(cfg, r), kind)
                alone = ga_run([ev], [stream_rng(cfg.seed, r, STREAM_SEARCH)])
                scored = ev.evaluate(alone.queens[0])
                (kstar,) = convergence_iteration(scored.raw[None], scored.weighted_base[None], cfg.alpha)
                assert pt.convergence_iterations[r] == kstar
                moved_after += bool(np.any(alone.queens[0, kstar - 1] != alone.queens[0, -1]))
                at_kstar = ev.evaluate(alone.queens[0, kstar - 1])
                rates = pt.rate_samples[r * cfg.N:(r + 1) * cfg.N]
                assert pt.served_counts[r] == at_kstar.served[0]
                assert rates.tobytes() == at_kstar.served_rates[0].tobytes()
                count, flags = served_stats(at_kstar.user_rates[0], cfg.theta_dB)
                assert pt.served_counts[r] == count
                assert rates.tobytes() == np.where(flags, 0.0, at_kstar.user_rates[0]).tobytes()
                if kind is ObjectiveKind.OUTAGE_COUNT:
                    assert pt.served_counts[r] == scored.raw[kstar - 1]
            assert moved_after > 0
            served.append(pt.avg_served_users)
        assert served[0] > served[1]  # the two thresholds serve different counts
    # Under the rate-sum objective the weighted curves are (1 - alpha*K) times the raw ones.
    ec = ExperimentConfig(base=_base(realizations=3), sweep_key="alpha", sweep_values=(0.0, 0.01))
    for pt in run_experiment(ec).points:
        k = np.arange(1, pt.cfg.N_it + 1)
        np.testing.assert_array_equal(pt.example_weighted_curve, (1.0 - pt.cfg.alpha * k) * pt.example_raw_curve)


def test_one_evaluator_per_realization(monkeypatch):
    # The GA and both baselines share one gain table, and the points of a
    # group share each realization's channel and gain table.
    builds, realized = [], []
    init = SelectionEvaluator.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(args)
        init(self, *args, **kwargs)

    def counting_realize(cfg, index):
        realized.append(index)
        return realize_channel(cfg, index)

    monkeypatch.setattr(SelectionEvaluator, "__init__", counting_init)
    monkeypatch.setattr(harness, "realize_channel", counting_realize)
    ec = ExperimentConfig(base=_base(M=4, N=2, N_vec=8, N_it=5, realizations=3),
                          baselines=("random", "exhaustive"))
    result = run_experiment(ec)
    assert not result.errors and set(result.points[0].baseline_means) == {"random", "exhaustive"}
    assert len(builds) == 3 and realized == [0, 1, 2]
    # A theta_dB or alpha sweep is one group; S and mutation_fraction shape
    # the search's keys, so each of their points is a group of its own.
    sweeps = {"theta_dB": ((-3.0, 0.0, 3.0), 3), "alpha": ((0.0, 0.01, 0.02), 3),
              "S": ((3.0, 4.0, 5.0), 9), "mutation_fraction": ((0.1, 0.5, 1.0), 9)}
    for key, (values, tables) in sweeps.items():
        builds.clear()
        realized.clear()
        result = run_experiment(replace(ec, sweep_key=key, sweep_values=values))
        assert not result.errors and len(result.points) == 3
        assert len(builds) == len(realized) == tables, key


def test_run_experiment_shapes_and_determinism():
    ec = ExperimentConfig(base=_base())
    a = run_experiment(ec)
    b = run_experiment(ec)
    assert len(a.points) == 1 and not a.errors
    pt = a.points[0]
    assert pt.mean_weighted_curve.shape == (30,)
    assert pt.final_throughputs.shape == (4,)
    assert np.all((1 <= pt.convergence_iterations) & (pt.convergence_iterations <= 30))
    np.testing.assert_array_equal(a.points[0].mean_weighted_curve, b.points[0].mean_weighted_curve)
    np.testing.assert_array_equal(a.points[0].final_throughputs, b.points[0].final_throughputs)
    np.testing.assert_array_equal(a.points[0].rate_samples, b.points[0].rate_samples)


def test_run_experiment_mean_raw_curve_monotone():
    ec = ExperimentConfig(base=_base(alpha=0.0))
    pt = run_experiment(ec).points[0]
    assert np.all(np.diff(pt.mean_raw_curve) >= -1e-12)
    # with alpha = 0 the weighted and raw curves coincide
    np.testing.assert_allclose(pt.mean_weighted_curve, pt.mean_raw_curve, rtol=1e-15)


def test_run_experiment_worker_count_does_not_change_numbers():
    ec = ExperimentConfig(base=_base(N_it=20))
    serial = run_experiment(ec, workers=1)
    parallel = run_experiment(ec, workers=2)
    np.testing.assert_array_equal(serial.points[0].mean_weighted_curve,
                                  parallel.points[0].mean_weighted_curve)
    np.testing.assert_array_equal(serial.points[0].final_throughputs,
                                  parallel.points[0].final_throughputs)
    np.testing.assert_array_equal(serial.points[0].rate_samples,
                                  parallel.points[0].rate_samples)
    np.testing.assert_array_equal(serial.points[0].served_counts,
                                  parallel.points[0].served_counts)


def test_run_experiment_isolates_saturating_point():
    ec = ExperimentConfig(base=_base(pa_epsilon=0.5, pa_mu=0.5, pa_rho_max_dB=35.0, N_it=15, realizations=2),
                          sweep_key="P_dB", sweep_values=(10.0, 60.0))
    result = run_experiment(ec)
    assert len(result.points) == 1
    assert result.points[0].sweep_value == 10.0
    assert len(result.errors) == 1
    assert result.errors[0].sweep_value == 60.0
    assert "SaturationError" in result.errors[0].message


def test_run_experiment_isolates_invalid_point():
    ec = ExperimentConfig(base=_base(N_it=15, realizations=2),
                          sweep_key="N", sweep_values=(2.0, 20.0))
    result = run_experiment(ec)
    assert [pt.sweep_value for pt in result.points] == [2.0]
    assert len(result.errors) == 1
    assert "N <= M" in result.errors[0].message


def test_run_experiment_isolates_oversized_exhaustive_point():
    ec = ExperimentConfig(base=_base(M=8, N=2, N_it=5, realizations=1), baselines=("exhaustive",),
                          sweep_key="N_vec", sweep_values=(16.0, 2048.0))
    result = run_experiment(ec)
    assert [pt.sweep_value for pt in result.points] == [16.0]
    assert "exhaustive baseline" in result.errors[0].message


@pytest.mark.parametrize("error", [ValueError, SaturationError, SearchSpaceError, ConfigError])
def test_run_experiment_propagates_realization_errors(monkeypatch, error):
    # The point screen runs before any realization, so whatever a realization
    # raises is a bug, typed domain errors included.
    def broken(cfg, index):
        raise error("raised inside a realization")

    monkeypatch.setattr(harness, "realize_channel", broken)
    with pytest.raises(error, match="raised inside a realization"):
        run_experiment(ExperimentConfig(base=_base(realizations=1)))


# Amplifiers: ideal, feasible at low power, saturating at high power, and
# three that no power budget can use (mu = 1, mu > 0 unbounded, epsilon = 0),
# each as (pa_epsilon, pa_mu, pa_rho_max_dB).
AMPLIFIERS = [(1.0, 0.0, math.inf), (0.5, 0.0, 30.0), (0.5, 0.5, 30.0),
              (0.5, 0.5, 10.0), (0.5, 1.0, 30.0), (0.5, 0.5, math.inf),
              (0.0, 0.0, math.inf)]


@st.composite
def tiny_experiments(draw):
    """Tiny scenarios: valid, or with at most one field out of range."""
    m = draw(st.integers(1, 5))
    L = draw(st.integers(2, 6))
    cfg = SystemConfig(
        M=m, N=draw(st.integers(1, m)), N_vec=draw(st.integers(m, 8)),
        k=draw(st.sampled_from([0.0, 1.0, 3.0, math.inf])),
        beta=draw(st.floats(0.0, 0.7)),
        P_dB=draw(st.floats(-10.0, 70.0)),
        alpha=draw(st.sampled_from([0.0, 0.001, 0.3])),
        N_it=draw(st.integers(1, 5)), L=L, S=draw(st.integers(0, L - 2)),
        mutation_fraction=draw(st.floats(0.01, 1.0)),
        theta_dB=draw(st.floats(-20.0, 20.0)),
        **dict(zip(("pa_epsilon", "pa_mu", "pa_rho_max_dB"), draw(st.sampled_from(AMPLIFIERS)))),
        realizations=1, seed=draw(st.integers(0, 2**16)),
    )
    broken = draw(st.sampled_from([{}] * 8 + [
        {"N": m + 1}, {"N_vec": m - 1}, {"k": -1.0}, {"beta": 0.75}, {"L": 1}, {"S": -1},
        {"S": L - 1}, {"mutation_fraction": 0.0}, {"theta_dB": math.nan},
        {"theta_dB": 4000.0}]))
    return ExperimentConfig(base=replace(cfg, **broken),
                            objective_kind=draw(st.sampled_from(list(ObjectiveKind))),
                            baselines=draw(st.sampled_from(
                                [(), ("random",), ("exhaustive",), ("random", "exhaustive")])))


@given(tiny_experiments())
@settings(max_examples=200, deadline=None)
def test_validate_accepts_exactly_what_runs(ec):
    result = run_experiment(ec)
    assert (validate_config(ec.base) == []) == (not result.errors), result.errors


def test_outage_probability_identity():
    # four users on four antennas is interference-limited, so some users miss
    # the threshold while others clear it
    base = _base(M=4, N=4, N_vec=8, P_dB=0.0, theta_dB=0.0, N_it=20, realizations=10)
    ec = ExperimentConfig(base=base, objective_kind=ObjectiveKind.OUTAGE_THROUGHPUT)
    pt = run_experiment(ec).points[0]
    assert 0.0 < pt.empirical_outage_prob < 1.0
    identity = 1.0 - pt.avg_served_users / pt.cfg.N
    assert pt.empirical_outage_prob == pytest.approx(identity, abs=1e-12)


def test_nu_percent_peaks_at_exactly_100():
    ec = ExperimentConfig(base=_base(N_it=25))
    pt = run_experiment(ec).points[0]
    nu = pt.nu_percent()
    assert nu.max() == 100.0
    assert nu.min() >= 0.0


def test_baseline_scores_bracket_the_search(tmp_path):
    base = _base(M=4, N=2, N_vec=8, N_it=25, alpha=0.0, realizations=6)
    ec = ExperimentConfig(base=base, baselines=("random", "exhaustive"))
    result = run_experiment(ec)
    pt = result.points[0]
    assert set(pt.baseline_means) == {"random", "exhaustive"}
    assert pt.baseline_means["exhaustive"] >= pt.mean_final_throughput - 1e-12
    assert pt.baseline_means["random"] <= pt.baseline_means["exhaustive"] + 1e-12
    # The per-realization scores bracket each run, and the means are theirs.
    exhaustive = pt.baseline_scores["exhaustive"]
    assert pt.final_raws.shape == exhaustive.shape == (base.realizations,)
    assert np.all(pt.final_raws <= exhaustive) and np.all(pt.baseline_scores["random"] <= exhaustive)
    assert pt.baseline_means["random"] == float(np.mean(pt.baseline_scores["random"]))
    assert pt.evaluations_per_realization == base.L * base.N_it
    # Random search spends the genetic run's budget; exhaustive scores all 8 * 7 selections.
    write_result_files(result, tmp_path)
    rows = (tmp_path / "baselines.csv").read_text().splitlines()[1:]
    assert [r.split(",")[3] for r in rows] == ["56", str(base.L * base.N_it)]


def _baseline_rows(result, out) -> list[list[str]]:
    """baselines.csv's data rows without the sweep_value column."""
    write_result_files(result, out)
    return [row.split(",")[1:] for row in (out / "baselines.csv").read_text().splitlines()[1:]]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("kind,key,values", [
    *[(kind, "theta_dB", (-4.0, 0.0, 4.0, 0.0)) for kind in ObjectiveKind],
    (ObjectiveKind.OUTAGE_COUNT, "alpha", (0.0, 0.01)),
], ids=[*(f"theta-{kind.value}" for kind in ObjectiveKind), "alpha-outage_count"])
def test_shared_baselines_match_each_point_alone(kind, key, values, workers, tmp_path):
    # A sweep over theta_dB or alpha runs as one group whose baselines score
    # each realization's rows once. Every point's per-realization scores and
    # baselines.csv rows must have the bits of that point run on its own,
    # and a repeated value keeps both of its points.
    base = _base(M=8, N=4, N_vec=16, N_it=20, P_dB=0.0, realizations=5)
    ec = ExperimentConfig(base=base, objective_kind=kind, sweep_key=key, sweep_values=values,
                          baselines=("random", "exhaustive"))
    shared = run_experiment(ec, workers=workers)
    assert not shared.errors and [pt.sweep_value for pt in shared.points] == list(values)
    rows = _baseline_rows(shared, tmp_path / "shared")
    assert len(rows) == 2 * len(values)
    for i, (pt, (_, cfg)) in enumerate(zip(shared.points, ec.points())):
        alone = run_experiment(replace(ec, base=cfg, sweep_key=None, sweep_values=()), workers=workers)
        (want,) = alone.points
        for name in ec.baselines:
            assert pt.baseline_scores[name].tobytes() == want.baseline_scores[name].tobytes(), (i, name)
        assert rows[2 * i:2 * i + 2] == _baseline_rows(alone, tmp_path / f"alone{i}")
    if key == "theta_dB" and kind is not ObjectiveKind.THROUGHPUT:
        # The thresholds rank differently, so one shared ranking could not pass.
        scores = [pt.baseline_scores["exhaustive"].tobytes() for pt in shared.points[:3]]
        assert len(set(scores)) == 3


def _assert_same_point(got: SweepPointResult, want: SweepPointResult, what) -> None:
    """Every field of two points' results has the same bits, apart from the sweep value and the timing."""
    for f in dataclasses.fields(SweepPointResult):
        if f.name in ("sweep_value", "wall_seconds"):
            continue
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(a, np.ndarray):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), (what, f.name)
        elif isinstance(a, dict):
            assert a.keys() == b.keys(), (what, f.name)
            assert all(a[k].tobytes() == b[k].tobytes() for k in a), (what, f.name)
        else:
            assert a == b, (what, f.name)


@pytest.mark.parametrize("kind,key,values", [
    *[(kind, "theta_dB", (-4.0, 0.0, 4.0, 0.0)) for kind in ObjectiveKind],
    (ObjectiveKind.OUTAGE_COUNT, "alpha", (0.0, 0.01, 0.0)),
    (ObjectiveKind.OUTAGE_THROUGHPUT, "S", (3.0, 5.0, 3.0)),
    (ObjectiveKind.OUTAGE_COUNT, "mutation_fraction", (0.5, 0.1, 0.5)),
], ids=[*(f"theta-{kind.value}" for kind in ObjectiveKind), "alpha-outage_count", "S-outage_throughput",
        "mutation_fraction-outage_count"])
def test_group_points_match_each_point_alone(kind, key, values):
    # The points of a theta_dB or alpha group share each realization's
    # evaluator and run as the lanes of one GA block; S and mutation_fraction
    # points run as groups of their own. Every point's result must have the
    # bits of that point run on its own, field by field; a repeated value
    # keeps both of its points.
    base = _base(M=8, N=4, N_vec=16, N_it=20, P_dB=0.0, theta_dB=-2.0, realizations=5)
    ec = ExperimentConfig(base=base, objective_kind=kind, sweep_key=key, sweep_values=values,
                          baselines=("random", "exhaustive"))
    group = run_experiment(ec)
    assert not group.errors and [pt.sweep_value for pt in group.points] == list(values)
    for i, (pt, (_, cfg)) in enumerate(zip(group.points, ec.points())):
        assert pt.cfg == cfg
        alone = run_experiment(replace(ec, base=cfg, sweep_key=None, sweep_values=()))
        _assert_same_point(pt, alone.points[0], (key, i))



@pytest.mark.parametrize("kind,key,values,thresholds", [
    (ObjectiveKind.OUTAGE_COUNT, "alpha", (0.0, 0.01, 0.02), 1),
    (ObjectiveKind.THROUGHPUT, "theta_dB", (-4.0, 0.0, 4.0), 1),
    (ObjectiveKind.OUTAGE_THROUGHPUT, "theta_dB", (-4.0, 0.0, -4.0), 2),
], ids=["alpha-outage_count", "theta-throughput", "theta-repeated-outage_throughput"])
def test_group_runs_one_lane_per_distinct_threshold(monkeypatch, kind, key, values, thresholds):
    # No search reads alpha, and throughput reads no threshold, so a group's
    # block holds one lane per realization and distinct threshold, not one
    # per point.
    lanes = []

    def counting_ga_run(evaluators, rngs, min_rates=None):
        block = ga_run(evaluators, rngs, min_rates)
        lanes.append(block.queens.shape[0])
        return block

    monkeypatch.setattr(harness, "ga_run", counting_ga_run)
    ec = ExperimentConfig(base=_base(N_it=10, realizations=4), objective_kind=kind,
                          sweep_key=key, sweep_values=values, baselines=("random",))
    result = run_experiment(ec)
    assert not result.errors and len(result.points) == 3
    assert lanes == [thresholds * 4]

def test_sweep_keeps_every_point_in_sweep_order():
    # P_dB changes the power, so 0 and 10 are two groups; the repeated 0 runs
    # with the first one and both keep their place.
    ec = ExperimentConfig(base=_base(N_it=10, realizations=2), sweep_key="P_dB",
                          sweep_values=(0.0, 10.0, 0.0), baselines=("random",))
    result = run_experiment(ec)
    assert [pt.sweep_value for pt in result.points] == [0.0, 10.0, 0.0]
    first, _, again = result.points
    assert first.baseline_scores["random"].tobytes() == again.baseline_scores["random"].tobytes()
    assert first.final_throughputs.tobytes() == again.final_throughputs.tobytes()


def test_group_wall_time_is_split_evenly():
    ec = ExperimentConfig(base=_base(N_it=10, realizations=2), sweep_key="theta_dB",
                          sweep_values=(-3.0, 0.0, 3.0), baselines=("random",))
    walls = {pt.wall_seconds for pt in run_experiment(ec).points}
    assert len(walls) == 1 and walls.pop() > 0.0


def test_blocks_hand_their_points_only_the_queens_rates():
    # Each point's part of a block is its threshold's queens' rates and
    # baseline scores; the queens' selections stay in the block.
    cfg = _base(N_it=6)
    cfgs = [replace(cfg, theta_dB=t) for t in (-3.0, 0.0, -3.0)]
    ec = ExperimentConfig(base=cfg, objective_kind=ObjectiveKind.OUTAGE_THROUGHPUT, baselines=("random",))
    parts = _run_realization(ec, cfgs, [1, 3])
    assert len(parts) == len(cfgs)
    for rates, scores in parts:
        assert type(rates) is np.ndarray and rates.dtype == np.float64
        assert rates.shape == (2, cfg.N_it, cfg.N)
        assert scores["random"].shape == (2,)
    assert parts[0][0] is parts[2][0]  # one threshold, one array


def test_pool_has_no_more_workers_than_blocks(monkeypatch, tmp_path):
    sizes = []

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    for realizations, pools in ((2, [2]), (1, [])):
        ec = ExperimentConfig(base=_base(N_it=5, realizations=realizations), sweep_key="P_dB",
                              sweep_values=(0.0, 10.0), baselines=("random",))
        sizes.clear()
        pooled = run_experiment(ec, workers=4)
        assert sizes == pools, realizations
        write_result_files(pooled, tmp_path / f"pooled{realizations}")
        write_result_files(run_experiment(ec), tmp_path / f"serial{realizations}")
        for csv in (tmp_path / f"serial{realizations}").glob("*.csv"):
            assert csv.read_bytes() == (tmp_path / f"pooled{realizations}" / csv.name).read_bytes(), csv.name


def test_aggregate_is_order_insensitive():
    cfg = _base(N_it=15, realizations=3)
    ec = ExperimentConfig(base=cfg)
    # three blocks of one realization each, aggregated forwards and backwards
    parts = [_run_realization(ec, [cfg], [i])[0] for i in range(3)]
    fwd = _aggregate(ec, None, cfg, parts, 0.0)
    rev = _aggregate(ec, None, cfg, parts[::-1], 0.0)
    np.testing.assert_allclose(fwd.mean_weighted_curve, rev.mean_weighted_curve, rtol=1e-12)
    assert fwd.mean_final_throughput == pytest.approx(rev.mean_final_throughput, rel=1e-12)
    assert fwd.empirical_outage_prob == rev.empirical_outage_prob
    assert sorted(fwd.final_throughputs) == sorted(rev.final_throughputs.tolist())


def test_single_realization_degenerate_aggregates():
    for kind in ObjectiveKind:
        ec = ExperimentConfig(base=_base(realizations=1, N_it=12), objective_kind=kind)
        pt = run_experiment(ec).points[0]
        assert pt.realizations == 1
        np.testing.assert_array_equal(pt.mean_weighted_curve, pt.example_weighted_curve)
        # a rate sum's curve is stored once; the count objective's raw curve is the served count
        assert (pt.example_weighted_bases is pt.example_raw_curve) == (kind is not ObjectiveKind.OUTAGE_COUNT)
        assert np.isfinite(pt.mean_final_throughput)
        assert pt.rate_samples.shape == (pt.cfg.N,)


def test_write_result_files(tmp_path):
    ec = ExperimentConfig(base=_base(N_it=10, realizations=2),
                          sweep_key="k", sweep_values=(0.0, 1.0),
                          baselines=("random",))
    result = run_experiment(ec)
    written = write_result_files(result, tmp_path)
    names = {p.name for p in written}
    assert names == {"curve.csv", "curve_example.csv", "summary.csv", "cdf.csv",
                     "convergence.csv", "baselines.csv", "provenance.json"}

    curve = (tmp_path / "curve.csv").read_text().splitlines()
    assert curve[0] == "sweep_value,K,mean_weighted_throughput,mean_raw_throughput,nu_percent"
    assert len(curve) == 1 + 2 * 10  # two sweep points, ten iterations each

    summary = (tmp_path / "summary.csv").read_text().splitlines()
    assert len(summary) == 3
    cells = summary[1].split(",")
    assert float(cells[1]) == result.points[0].mean_final_throughput  # repr round-trips

    prov = json.loads((tmp_path / "provenance.json").read_text())
    assert prov["package_version"]
    assert prov["seed"] == 7
    assert prov["stream_layout"] == STREAM_LAYOUT == 2
    assert prov["sweep_key"] == "k"
    assert prov["base_config"]["M"] == 8
    assert prov["points"][0]["realizations"] == 2
    # timing stays out of the CSVs
    for p in written:
        if p.suffix == ".csv":
            assert "wall" not in p.read_text().splitlines()[0]


def test_run_with_every_point_failed_writes_headers_only(tmp_path):
    # N > M fails validation at every point, so no point has a row to write.
    ec = ExperimentConfig(base=_base(M=4, N=2, N_vec=8, N_it=5, realizations=1), sweep_key="N",
                          sweep_values=(5.0, 6.0), baselines=("random",))
    result = run_experiment(ec)
    assert not result.points and len(result.errors) == 2
    written = write_result_files(result, tmp_path)
    headers = {
        "curve.csv": "sweep_value,K,mean_weighted_throughput,mean_raw_throughput,nu_percent\n",
        "curve_example.csv": "sweep_value,K,weighted_throughput,raw_throughput\n",
        "summary.csv": "sweep_value,mean_final_throughput_bpcu,avg_convergence_iteration,"
                       "empirical_outage_prob,avg_served_users,evaluations\n",
        "cdf.csv": "sweep_value,rate_bpcu,cum_fraction\n",
        "convergence.csv": "sweep_value,alpha,avg_convergence_iteration,avg_convergence_iteration_no_delay\n",
    }
    assert [p.name for p in written] == [*headers, "provenance.json"]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([*headers, "provenance.json"])
    for name, header in headers.items():
        assert (tmp_path / name).read_text() == header


def test_provenance_is_strict_json_for_non_finite_values(tmp_path):
    # JSON has no literal for inf or nan, and the config accepts k = inf,
    # theta_dB = -inf and pa_rho_max_dB = inf. The sidecar writes each
    # non-finite float as its repr, so a strict parser loads it.
    ec = ExperimentConfig(base=_base(N_it=5, realizations=1, theta_dB=-math.inf),
                          sweep_key="k", sweep_values=(0.0, math.inf, math.nan))
    write_result_files(run_experiment(ec), tmp_path)

    def refuse(name):
        raise ValueError(f"provenance.json holds the non-standard constant {name}")

    prov = json.loads((tmp_path / "provenance.json").read_text(), parse_constant=refuse)
    assert prov["base_config"]["theta_dB"] == "-inf"
    assert prov["base_config"]["pa_rho_max_dB"] == "inf"
    assert prov["sweep_values"] == [0.0, "inf", "nan"]
    assert [pt["sweep_value"] for pt in prov["points"]] == [0.0, "inf"]
    assert [e["sweep_value"] for e in prov["errors"]] == ["nan"]


def test_provenance_records_the_environment(tmp_path):
    write_result_files(run_experiment(ExperimentConfig(base=_base(N_it=5, realizations=1))), tmp_path)

    def refuse(name):
        raise ValueError(f"provenance.json holds the non-standard constant {name}")

    prov = json.loads((tmp_path / "provenance.json").read_text(), parse_constant=refuse)
    assert prov["environment"] == {"python": platform.python_version(), "numpy": np.__version__,
                                   "platform": platform.platform(), "cpu_count": os.cpu_count()}
    assert prov["workers"] == 1
    assert harness._environment() is harness._environment()  # looked up once per process


def test_result_files_byte_identical_across_runs(tmp_path):
    ec = ExperimentConfig(base=_base(N_it=8, realizations=2))
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    write_result_files(run_experiment(ec), dir_a)
    write_result_files(run_experiment(ec), dir_b)
    for name in ["curve.csv", "curve_example.csv", "summary.csv", "cdf.csv", "convergence.csv"]:
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


def _experiment_from_provenance(prov: dict) -> ExperimentConfig:
    """Rebuild an experiment from its provenance.json alone, through the config keys' parsers."""

    def raw(value) -> str:
        if isinstance(value, list):
            return ",".join(map(raw, value))
        return value if isinstance(value, str) else repr(value)

    settings = {**prov["base_config"], "objective": prov["objective"], "baselines": prov["baselines"],
                "convergence_tol": prov["convergence_tol"]}
    if prov["sweep_key"] is not None:
        settings.update(sweep=prov["sweep_key"], sweep_values=prov["sweep_values"])
    placeholder = ExperimentConfig(base=SystemConfig(M=1, N=1, N_vec=1))
    return apply_settings(placeholder, [(key, raw(v), "provenance.json") for key, v in settings.items()])


REPLAYED = {
    "amplifier_recipe": lambda: apply_cli_overrides(parse_config(CONFIG_DIR / "amplifier_power_sweep.cfg"),
                                                    ("realizations=2", "N_it=10", "baselines=random")),
    "N_vec_sweep": lambda: ExperimentConfig(base=_base(M=4, N=2, N_it=10, realizations=2), sweep_key="N_vec",
                                            sweep_values=(4, 8), baselines=("random", "exhaustive")),
    "k_inf": lambda: ExperimentConfig(base=_base(k=math.inf, N_it=10, realizations=2), baselines=("random",)),
    "theta_dB_sweep": lambda: ExperimentConfig(
        base=_base(M=4, N=2, N_vec=8, N_it=10, realizations=2), objective_kind=ObjectiveKind.OUTAGE_COUNT,
        sweep_key="theta_dB", sweep_values=(-math.inf, 0.0, 5.0), baselines=("random", "exhaustive"),
        convergence_tol=0.05),
}


@pytest.mark.parametrize("name", REPLAYED)
def test_provenance_alone_replays_the_run(name, tmp_path):
    # Every scenario key is a SystemConfig field, and provenance.json records
    # them all, so a results directory says enough to write itself again.
    ec = REPLAYED[name]()
    written = write_result_files(run_experiment(ec), tmp_path / "first")
    prov = json.loads((tmp_path / "first" / "provenance.json").read_text())
    assert set(prov["base_config"]) == {key for key, e in CONFIG_KEYS.items() if e.owner == "system"}
    replayed = _experiment_from_provenance(prov)
    assert replayed == ec
    again = write_result_files(run_experiment(replayed), tmp_path / "again")
    assert [p.name for p in again] == [p.name for p in written]
    for first, second in zip(written, again):
        if first.suffix == ".csv":
            assert second.read_bytes() == first.read_bytes(), first.name


def test_run_experiment_rejects_bad_worker_count():
    with pytest.raises(ValueError):
        run_experiment(ExperimentConfig(base=_base()), workers=0)
