"""Acceptance gate: one test per release criterion, one printed verdict each.

The statistics-based criteria run at full scale, so this file takes a few
minutes on one core. Each verdict line is also recorded in VERDICT_LINES,
which conftest.py replays after the run summary where output capture cannot
swallow it.
"""

import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from beamsel.channel import (
    STREAM_CHANNEL,
    STREAM_SEARCH,
    build_los,
    compose_channel,
    realize_channel,
    sample_nlos,
    stream_rng,
)
from beamsel.cli import main as cli_main
from beamsel.core import BeamSelection, PaParams, SystemConfig
from beamsel.harness import ExperimentConfig, convergence_iteration, run_experiment
from beamsel.metrics import ObjectiveKind, pa_output_power
from beamsel.search import SelectionEvaluator, exhaustive_search, ga_run, mutate
from scalar_oracle import outage_throughput, pa_consumed_power, throughput

SEED = 12345
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
VERDICT_LINES: list[str] = []


def _verdict(num: int, name: str, checks: list[tuple[bool, str]]) -> None:
    ok = all(c for c, _ in checks)
    detail = "; ".join(d if c else f"FAILED: {d}" for c, d in checks)
    line = f"[acceptance] criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    VERDICT_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, f"criterion {num} {name}: {detail}"


@pytest.fixture(scope="module")
def convergence_trajectories():
    """200 search trajectories of the reference convergence scenario."""
    cfg = SystemConfig(M=32, N=8, N_vec=128, k=0.0, P_dB=10.0, alpha=0.001,
                       N_it=500, seed=SEED)
    t0 = time.perf_counter()
    trajs = []
    for r in range(200):
        ev = SelectionEvaluator(cfg, realize_channel(cfg, r))
        trajs.append(ga_run(ev, stream_rng(SEED, r, STREAM_SEARCH)))
    return trajs, time.perf_counter() - t0


def test_c01_oracle_equivalence():
    cfg = SystemConfig(M=4, N=2, N_vec=8, k=0.0, P_dB=10.0, N_it=50, L=10, S=5,
                       seed=SEED)
    t0 = time.perf_counter()
    attained = 0
    gaps = []
    for r in range(200):
        ev = SelectionEvaluator(cfg, realize_channel(cfg, r))
        _, opt = exhaustive_search(ev)
        traj = ga_run(ev, stream_rng(SEED, r, STREAM_SEARCH))
        if abs(traj.final_raw - opt) <= 1e-9 * max(1.0, abs(opt)):
            attained += 1
        gaps.append(max(0.0, opt - traj.final_raw) / abs(opt))
    elapsed = time.perf_counter() - t0
    frac = attained / 200
    mean_gap = float(np.mean(gaps))
    _verdict(1, "oracle equivalence", [
        (frac >= 0.95, f"attainment {attained}/200 = {frac:.3f} (need >= 0.95)"),
        (mean_gap < 0.005, f"mean relative gap {mean_gap:.2e} (need < 0.5%)"),
        (elapsed < 30.0, f"runtime {elapsed:.1f}s (cap 30s)"),
    ])


def test_c02_fast_convergence(convergence_trajectories):
    trajs, build_seconds = convergence_trajectories
    k95 = [convergence_iteration(t, alpha=0.0, tol=0.05) for t in trajs[:100]]
    med = float(np.median(k95))
    _verdict(2, "fast convergence", [
        (med <= 200.0, f"median first-95% iteration {med:g} over 100 realizations (need <= 200)"),
        (build_seconds < 300.0, f"trajectory build {build_seconds:.1f}s for 200 runs (cap 300s)"),
    ])


def test_c03_delay_tradeoff_shape(convergence_trajectories):
    trajs, _ = convergence_trajectories
    mean_curve = np.mean([t.weighted_scores() for t in trajs], axis=0)
    peak = int(np.argmax(mean_curve)) + 1
    rng = np.random.default_rng(0)
    zeros_exact = all(throughput(rng.random(8) * 10.0, 0.001, 1000) == 0.0 for _ in range(5))
    _verdict(3, "delay trade-off shape", [
        (1 < peak < 500, f"mean weighted curve peaks at K={peak} (interior of [1, 500])"),
        (zeros_exact, "throughput at K = 1/alpha is exactly 0.0"),
    ])


def test_c04_convergence_iteration_ordering(convergence_trajectories):
    trajs, _ = convergence_trajectories
    k_delay = float(np.mean([convergence_iteration(t) for t in trajs]))
    k_free = float(np.mean([convergence_iteration(t, alpha=0.0, tol=0.0) for t in trajs]))
    ratio = k_free / k_delay
    _verdict(4, "iterations-to-convergence ordering", [
        (10.0 <= k_delay <= 150.0, f"avg K* (delay-weighted) = {k_delay:.1f} (band [10, 150])"),
        (ratio >= 5.0, f"avg K (no delay) = {k_free:.1f}, ratio {ratio:.2f} (need >= 5)"),
    ])


def test_c05_codebook_size_scaling():
    base = SystemConfig(M=32, N=8, N_vec=128, k=1.0, P_dB=10.0, alpha=0.0,
                        N_it=1000, realizations=200, seed=SEED)
    ec = ExperimentConfig(base=base, sweep_key="N_vec", sweep_values=(32, 64, 96, 128))
    res = run_experiment(ec)
    y = np.array([pt.mean_final_throughput for pt in res.points])
    x = np.array([32.0, 64.0, 96.0, 128.0])
    coef = np.polyfit(x, y, 1)
    r2 = float(1 - np.sum((y - np.polyval(coef, x)) ** 2) / np.sum((y - y.mean()) ** 2))
    increasing = bool(np.all(np.diff(y) > 0))
    _verdict(5, "codebook-size scaling", [
        (increasing, "mean final throughput strictly increasing over N_vec "
                     + np.array2string(np.round(y, 3), separator=", ")),
        (r2 >= 0.9, f"linear fit R^2 = {r2:.4f} (need >= 0.9)"),
    ])


def test_c06_amplifier_effect():
    pa = PaParams(epsilon=0.5, mu=0.5, rho_max_dB=35.0)
    grid = (10.0, 20.0, 30.0, 36.0)
    means = {}
    for label, pa_params in [("ideal", None), ("pa", pa)]:
        kw = dict(M=16, N=4, N_vec=64, k=3.0, N_it=200, alpha=0.0,
                  realizations=200, seed=SEED)
        if pa_params is not None:
            kw["pa"] = pa_params
        ec = ExperimentConfig(base=SystemConfig(**kw), sweep_key="P_dB", sweep_values=grid)
        means[label] = np.array([pt.mean_final_throughput for pt in run_experiment(ec).points])
    gap = means["ideal"] - means["pa"]
    rel = gap / means["ideal"]
    _verdict(6, "amplifier effect", [
        (bool(np.all(gap > 0)), "ideal-vs-amplifier gap positive at every consumed-power point "
                                + np.array2string(np.round(gap, 3), separator=", ")),
        (rel[-1] < rel[0], f"relative gap shrinks with power ({rel[0]:.3f} -> {rel[-1]:.4f})"),
    ])


def test_c07_channel_condition_ordering():
    base = SystemConfig(M=32, N=8, N_vec=128, P_dB=10.0, N_it=500, alpha=0.0,
                        realizations=300, seed=SEED)
    ec = ExperimentConfig(base=base, sweep_key="k", sweep_values=(0.0, 1.0, 3.0))
    res = run_experiment(ec)
    finals = {pt.sweep_value: pt.final_throughputs for pt in res.points}
    checks = []
    for a, b in [(0.0, 1.0), (1.0, 3.0)]:
        d = finals[a] - finals[b]
        se = float(d.std(ddof=1) / np.sqrt(d.size))
        checks.append((float(d.mean()) > 2 * se,
                       f"R(k={a:g}) - R(k={b:g}) = {d.mean():.3f} vs 2se = {2 * se:.3f}"))
    _verdict(7, "channel-condition ordering", checks)


def test_c08_outage_constraint_behavior():
    grid = (0.0, 5.0, 10.0, 15.0)
    base = SystemConfig(M=32, N=8, N_vec=128, k=0.0, N_it=200, alpha=0.0,
                        realizations=200, seed=SEED)
    un = run_experiment(ExperimentConfig(base=base, sweep_key="P_dB", sweep_values=grid))
    un_means = np.array([pt.mean_final_throughput for pt in un.points])
    checks = []
    rel_at_zero = None
    for theta in (-4.0, -2.0, 0.0):
        eb = base.with_overrides(theta_dB=theta)
        con = run_experiment(ExperimentConfig(base=eb, sweep_key="P_dB", sweep_values=grid,
                                              objective_kind=ObjectiveKind.OUTAGE_THROUGHPUT))
        con_means = np.array([pt.mean_final_throughput for pt in con.points])
        checks.append((bool(np.all(con_means <= un_means + 1e-9)),
                       f"constrained <= unconstrained at every power for theta={theta:g}"))
        if theta == 0.0:
            rel_at_zero = (un_means - con_means) / un_means
    checks.append((bool(np.all(np.diff(rel_at_zero) < 0)),
                   "relative gap at theta=0 dB shrinks monotonically over power "
                   + np.array2string(np.round(rel_at_zero, 3), separator=", ")))
    _verdict(8, "outage-constraint behavior", checks)


def test_c09_served_users_ordering():
    base = SystemConfig(M=32, N=8, N_vec=128, k=0.0, P_dB=10.0, N_it=200,
                        realizations=200, seed=SEED)
    checks = []
    for theta in (-4.0, -2.0, 0.0):
        served = {}
        for kind in (ObjectiveKind.OUTAGE_COUNT, ObjectiveKind.OUTAGE_THROUGHPUT):
            eb = base.with_overrides(theta_dB=theta)
            res = run_experiment(ExperimentConfig(base=eb, objective_kind=kind))
            served[kind] = res.points[0].avg_served_users
        oc = served[ObjectiveKind.OUTAGE_COUNT]
        ot = served[ObjectiveKind.OUTAGE_THROUGHPUT]
        checks.append((oc > ot, f"theta={theta:g}: count-optimized serves {oc:.2f} vs {ot:.2f}"))
    eb = base.with_overrides(theta_dB=-100.0)
    exact = []
    for kind in (ObjectiveKind.OUTAGE_COUNT, ObjectiveKind.OUTAGE_THROUGHPUT):
        res = run_experiment(ExperimentConfig(base=eb, objective_kind=kind))
        exact.append(res.points[0].avg_served_users)
    checks.append((exact[0] == 8.0 and exact[1] == 8.0,
                   f"theta=-100 dB: both objectives serve exactly 8.00 ({exact[0]}, {exact[1]})"))
    _verdict(9, "served-users ordering", checks)


def test_c10_invariant_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    checks = []

    # elitism: best score never decreases
    mono = True
    for r in range(15):
        cfg = SystemConfig(M=16, N=4, N_vec=32, N_it=40, seed=SEED)
        traj = ga_run(SelectionEvaluator(cfg, realize_channel(cfg, r)), stream_rng(SEED, r, STREAM_SEARCH))
        mono &= bool(np.all(np.diff(traj.raw_scores) >= 0))
    checks.append((mono, "elitism keeps best score non-decreasing (15 runs)"))

    # 1e5 mutations keep selections valid
    shapes = [(8, 4, 16), (32, 8, 128), (6, 6, 6), (16, 3, 24)]
    valid = True
    for m, n, n_vec in shapes:
        cfg = SystemConfig(M=m, N=n, N_vec=n_vec)
        parent = np.sort(rng.choice(n_vec, size=n, replace=False)).astype(np.int64)
        for _ in range(250):
            children = mutate(parent, 100, cfg, rng)
            ordered = np.sort(children, axis=1)
            if (np.any(ordered[:, 1:] == ordered[:, :-1])
                    or children.min() < 0 or children.max() >= n_vec):
                valid = False
                break
            parent = children[-1]
        BeamSelection.from_array(parent).check_range(n_vec)
    checks.append((valid, "selection validity held over 100000 mutations"))

    # amplifier round trip
    worst = 0.0
    for _ in range(1000):
        pa = PaParams(epsilon=float(rng.uniform(0.05, 1.0)),
                      mu=float(rng.uniform(0.0, 0.9)),
                      rho_max_dB=float(rng.uniform(20.0, 40.0)))
        rho_out = float(rng.uniform(0.001, 0.999)) * pa.rho_max_linear
        back = pa_output_power(pa_consumed_power(rho_out, pa), pa)
        worst = max(worst, abs(back - rho_out) / rho_out)
    checks.append((worst < 1e-10, f"amplifier round-trip worst relative error {worst:.1e}"))

    # outage-gated throughput never exceeds the plain sum
    gate_ok = True
    for _ in range(10_000):
        r = rng.random(rng.integers(1, 9)) * 12.0
        theta = float(rng.uniform(-30.0, 10.0))
        if outage_throughput(r, 0.0, 1, theta) > throughput(r, 0.0, 1) + 1e-12:
            gate_ok = False
            break
    checks.append((gate_ok, "gated throughput <= plain throughput on 10000 random rate vectors"))

    # deterministic channel component carries exactly M*N power (any shape
    # with at least one off-diagonal entry; a 1x1 matrix is all diagonal)
    los_ok = True
    for _ in range(50):
        m = int(rng.integers(2, 65))
        n = int(rng.integers(1, m + 1))
        beta = float(rng.uniform(0.0, math.sqrt(0.5)))
        cfg = SystemConfig(M=m, N=n, N_vec=m, beta=beta)
        p = float(np.sum(np.abs(build_los(cfg).data) ** 2))
        if abs(p - m * n) > 1e-12 * m * n:
            los_ok = False
            break
    checks.append((los_ok, "LOS Frobenius power equals M*N for 50 random shapes (rel 1e-12)"))

    # mean total channel power matches the entry count at several k
    power_ok = True
    detail = []
    for k in (0.0, 1.0, 10.0):
        cfg = SystemConfig(M=8, N=4, N_vec=8, k=k, seed=41)
        los = build_los(cfg)
        powers = [float(np.sum(np.abs(
            compose_channel(los, sample_nlos(cfg, stream_rng(41, r, STREAM_CHANNEL)), k).data) ** 2))
            for r in range(3000)]
        ratio = float(np.mean(powers)) / (cfg.M * cfg.N)
        detail.append(f"k={k:g}: {ratio:.3f}")
        power_ok &= abs(ratio - 1.0) <= 0.03
    checks.append((power_ok, "mean channel power / (M*N) in 1 +- 0.03 (" + ", ".join(detail) + ")"))

    elapsed = time.perf_counter() - t0
    checks.append((elapsed < 60.0, f"runtime {elapsed:.1f}s (cap 60s)"))
    _verdict(10, "invariant suite", checks)


def test_c11_recipe_determinism(tmp_path):
    # Each shipped recipe runs twice at reduced statistical size (realization
    # and iteration counts only; the code path is identical) and must produce
    # byte-identical CSVs.
    recipes = sorted(CONFIG_DIR.glob("*.cfg"))
    assert recipes, f"no recipe configs found in {CONFIG_DIR}"
    checks = []
    for cfg_path in recipes:
        has_sweep = any(line.split("#")[0].strip().startswith("sweep ")
                        or line.split("#")[0].strip().startswith("sweep=")
                        for line in cfg_path.read_text().splitlines())
        command = "sweep" if has_sweep else "run"
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / cfg_path.stem / tag
            code = cli_main([command, "--config", str(cfg_path),
                             "--set", "realizations=3", "--set", "N_it=25",
                             "--out", str(out)])
            assert code == 0, f"{cfg_path.name} run {tag} exited {code}"
            outs.append(out)
        same = all((outs[0] / p.name).read_bytes() == p.read_bytes()
                   for p in sorted(outs[1].glob("*.csv")))
        n_csv = len(list(outs[1].glob("*.csv")))
        checks.append((same and n_csv >= 5, f"{cfg_path.name}: {n_csv} CSVs byte-identical"))
    _verdict(11, "recipe determinism", checks)
