import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamsel import harness
from beamsel.core import ConfigError, PaParams, SystemConfig, validate_config
from beamsel.harness import (
    ExperimentConfig,
    _aggregate,
    _run_realization,
    apply_override,
    coerce_value,
    convergence_iteration,
    rate_cdf,
    run_experiment,
    write_result_files,
)
from beamsel.metrics import ObjectiveKind
from beamsel.search import STREAM_LAYOUT, GaTrajectory, SelectionEvaluator


def _traj(raw, alpha=0.0, n=2):
    raw = np.asarray(raw, dtype=np.float64)
    queens = np.tile(np.arange(1, n + 1), (raw.size, 1))
    return GaTrajectory(queens=queens, raw_scores=raw, weighted_bases=raw.copy(),
                        alpha=alpha, L=10)


def _base(**kw):
    cfg = dict(M=8, N=2, N_vec=16, N_it=30, realizations=4, seed=7)
    cfg.update(kw)
    return SystemConfig(**cfg)


def test_convergence_iteration_no_delay_rule():
    assert convergence_iteration(_traj([1.0, 2.0, 3.0, 3.0, 3.0]), alpha=0.0) == 3
    assert convergence_iteration(_traj([5.0, 5.0, 5.0]), alpha=0.0) == 1
    # 5% slack: 2.85 is within tolerance of the final 3.0
    assert convergence_iteration(_traj([1.0, 2.85, 2.9, 3.0]), alpha=0.0, tol=0.05) == 2


def test_convergence_iteration_weighted_rule():
    # weighted scores (1 - 0.1K) * base peak at K = 3
    traj = _traj([1.0, 2.0, 3.0, 3.0, 3.0], alpha=0.1)
    assert convergence_iteration(traj) == 3
    # flat raw curve: the delay factor makes earlier strictly better
    assert convergence_iteration(_traj([4.0, 4.0, 4.0], alpha=0.01)) == 1


def test_convergence_iteration_explicit_alpha_overrides():
    traj = _traj([1.0, 2.0, 3.0, 3.0], alpha=0.1)
    assert convergence_iteration(traj, alpha=0.0) == 3
    with pytest.raises(ValueError):
        convergence_iteration(traj, alpha=0.0, tol=1.0)


def test_rate_cdf_pairs():
    assert rate_cdf(np.array([0.0, 2.0])) == [(0.0, 0.5), (2.0, 1.0)]
    assert rate_cdf(np.array([1.0, 1.0, 1.0])) == [(1.0, 1.0)]
    pairs = rate_cdf(np.array([3.0, 1.0, 2.0, 1.0]))
    assert [v for v, _ in pairs] == [1.0, 2.0, 3.0]
    assert pairs[-1][1] == 1.0
    with pytest.raises(ValueError):
        rate_cdf(np.array([]))


def test_coerce_value_types():
    assert coerce_value("M", "32") == 32
    assert coerce_value("alpha", "1e-3") == 0.001
    assert coerce_value("pa_rho_max_dB", "inf") == math.inf
    assert coerce_value("los_formula", "verbatim") == "verbatim"
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
    assert apply_override(cfg, "pa_epsilon", "0.5").pa.epsilon == 0.5
    assert apply_override(cfg, "los_formula", "verbatim").los_formula == "verbatim"
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
    # The count objective's raw score is the served count under the search's
    # threshold. With alpha = 0 the K* queen holds the final score, so it must
    # equal the count served_stats makes at the point's own theta_dB.
    base = _base(N=4, P_dB=0.0, alpha=0.0, realizations=1)
    ec = ExperimentConfig(base=base, objective_kind=ObjectiveKind.OUTAGE_COUNT,
                          sweep_key="theta_dB", sweep_values=(-3.0, 6.0))
    served = []
    for _, cfg in ec.points():
        outcome = _run_realization(ec, cfg, 0)
        assert outcome.served == outcome.raw_curve[outcome.kstar - 1]
        served.append(outcome.served)
    assert served[0] > served[1]  # the two thresholds serve different counts
    # Under the rate-sum objective the weighted curve is (1 - alpha*K) times the raw one.
    ec = ExperimentConfig(base=_base(realizations=1), sweep_key="alpha", sweep_values=(0.0, 0.01))
    for _, cfg in ec.points():
        outcome = _run_realization(ec, cfg, 0)
        k = np.arange(1, cfg.N_it + 1)
        np.testing.assert_array_equal(outcome.weighted_curve, (1.0 - cfg.alpha * k) * outcome.raw_curve)


def test_one_evaluator_per_realization(monkeypatch):
    # The GA, the K* rescoring and both baselines share one gain table.
    builds = []
    init = SelectionEvaluator.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SelectionEvaluator, "__init__", counting_init)
    ec = ExperimentConfig(base=_base(M=4, N=2, N_vec=8, N_it=5, realizations=3),
                          baselines=("random", "exhaustive"))
    result = run_experiment(ec)
    assert not result.errors and set(result.points[0].baseline_means) == {"random", "exhaustive"}
    assert len(builds) == 3


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
    assert serial.points[0].outage_flag_total == parallel.points[0].outage_flag_total


def test_run_experiment_isolates_saturating_point():
    pa = PaParams(epsilon=0.5, mu=0.5, rho_max_dB=35.0)
    ec = ExperimentConfig(base=_base(pa=pa, N_it=15, realizations=2),
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


def test_run_experiment_propagates_plain_value_error(monkeypatch):
    # Only the typed domain errors become point errors; anything else is a bug.
    def broken(cfg, index):
        raise ValueError("not a domain error")

    monkeypatch.setattr(harness, "realize_channel", broken)
    with pytest.raises(ValueError, match="not a domain error"):
        run_experiment(ExperimentConfig(base=_base(realizations=1)))


# Amplifiers: ideal, feasible at low power, saturating at high power, and
# three that no power budget can use (mu = 1, mu > 0 unbounded, epsilon = 0).
AMPLIFIERS = [PaParams(), PaParams(0.5, 0.0, 30.0), PaParams(0.5, 0.5, 30.0),
              PaParams(0.5, 0.5, 10.0), PaParams(0.5, 1.0, 30.0), PaParams(0.5, 0.5, math.inf),
              PaParams(0.0, 0.0, math.inf)]


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
        pa=draw(st.sampled_from(AMPLIFIERS)),
        realizations=1, seed=draw(st.integers(0, 2**16)),
        los_formula=draw(st.sampled_from(["normalized", "verbatim"])),
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


def test_baseline_scores_bracket_the_search():
    base = _base(M=4, N=2, N_vec=8, N_it=25, alpha=0.0, realizations=6)
    ec = ExperimentConfig(base=base, baselines=("random", "exhaustive"))
    pt = run_experiment(ec).points[0]
    assert set(pt.baseline_means) == {"random", "exhaustive"}
    assert pt.baseline_means["exhaustive"] >= pt.mean_final_throughput - 1e-12
    assert pt.baseline_means["random"] <= pt.baseline_means["exhaustive"] + 1e-12
    assert pt.evaluations_per_realization == base.L * base.N_it


def test_aggregate_is_order_insensitive():
    cfg = _base(N_it=15, realizations=3)
    ec = ExperimentConfig(base=cfg)
    outcomes = [_run_realization(ec, cfg, r) for r in range(3)]
    fwd = _aggregate(None, cfg, outcomes, 0.0)
    rev = _aggregate(None, cfg, list(reversed(outcomes)), 0.0)
    np.testing.assert_allclose(fwd.mean_weighted_curve, rev.mean_weighted_curve, rtol=1e-12)
    assert fwd.mean_final_throughput == pytest.approx(rev.mean_final_throughput, rel=1e-12)
    assert fwd.outage_flag_total == rev.outage_flag_total
    assert sorted(fwd.final_throughputs) == sorted(rev.final_throughputs.tolist())


def test_single_realization_degenerate_aggregates():
    ec = ExperimentConfig(base=_base(realizations=1, N_it=12))
    pt = run_experiment(ec).points[0]
    assert pt.realizations == 1
    np.testing.assert_array_equal(pt.mean_weighted_curve, pt.example_weighted_curve)
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


def test_result_files_byte_identical_across_runs(tmp_path):
    ec = ExperimentConfig(base=_base(N_it=8, realizations=2))
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    write_result_files(run_experiment(ec), dir_a)
    write_result_files(run_experiment(ec), dir_b)
    for name in ["curve.csv", "curve_example.csv", "summary.csv", "cdf.csv", "convergence.csv"]:
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


def test_run_experiment_rejects_bad_worker_count():
    with pytest.raises(ValueError):
        run_experiment(ExperimentConfig(base=_base()), workers=0)
