"""Monte Carlo experiment harness: sweeps, aggregation, and result files.

Every realization is keyed by (seed, realization_index, stream), so results
do not depend on worker count or execution order, and sweep points reuse the
same channel draws for paired comparisons.
"""

from __future__ import annotations

import functools
import json
import math
import os
import platform
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from itertools import repeat
from pathlib import Path
from typing import Sequence

import numpy as np

from ._version import __version__
from .channel import STREAM_BASELINE, STREAM_SEARCH, realize_channel, stream_rng
from .config import ExperimentConfig, search_space_size
from .core import ObjectiveKind, SystemConfig, min_rate_for_threshold
from .search import (
    STREAM_LAYOUT,
    EvalBatch,
    SelectionEvaluator,
    exhaustive_search,
    ga_run,
    random_search,
)


def delay_weighted(bases: np.ndarray, alpha: float) -> np.ndarray:
    """(1 - alpha*K) * bases[..., K - 1] for K = 1..N_it along the last axis: the delay-weighted curves."""
    k = np.arange(1, bases.shape[-1] + 1, dtype=np.float64)
    return (1.0 - alpha * k) * bases


def convergence_iteration(raw: np.ndarray, bases: np.ndarray, alpha: float, tol: float = 0.0) -> np.ndarray:
    """(R,) iteration the experiment reports as the stopping point of each of R runs.

    raw and bases are (R, N_it): each iteration's queen's raw score, and the
    rate sum that the delay factor multiplies (EvalBatch.weighted_base). With
    a positive delay penalty this is the first iteration maximizing the
    delay-weighted score. With alpha = 0 it is the first iteration whose raw
    score reaches (1 - tol) of the run's final raw score.
    """
    if alpha > 0:
        return np.argmax(delay_weighted(bases, alpha), axis=-1) + 1
    target = (1.0 - tol) * raw[:, -1:]
    return np.argmax(raw >= target, axis=-1) + 1


def rate_cdf(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Empirical CDF of per-user rates: the distinct rate values, ascending, and their cumulative fractions.

    The fractions end at exactly 1.0.
    """
    arr = np.asarray(samples, dtype=np.float64).ravel()
    if arr.size == 0:
        raise ValueError("rate_cdf needs at least one sample")
    values, counts = np.unique(arr, return_counts=True)
    return values, np.cumsum(counts) / arr.size


# Most lanes one _run_realization call advances in lockstep, where a lane is
# one rate threshold's search on one realization. A group of P points has at
# most P thresholds, so its blocks hold BLOCK_CAP // P realizations, and at
# least one. It bounds the block's arrays (per-generation gathers,
# trajectories) the way KEY_CHUNK_BYTES bounds its keys; no result depends
# on it.
BLOCK_CAP = 64


def _run_realization(ec: ExperimentConfig, cfgs: Sequence[SystemConfig],
                     indices: Sequence[int]) -> list[tuple[np.ndarray, dict[str, np.ndarray]]]:
    """Run the realizations `indices` of a group of points: each point's queens' rates and baseline scores.

    The points' configs differ only in theta_dB and alpha, which no channel,
    gain table, power or random draw reads, so each realization's channel
    and evaluator are built once for all of them. No search reads alpha, and
    the throughput objective reads no threshold either, so the searches run
    once per distinct rate threshold (once in all under throughput): the
    genetic searches as the lanes of one lockstep block, each ranking under
    its threshold, and each realization's baselines from its baseline
    stream, scoring each row once and ranking it under every threshold.
    Each point then takes its threshold's queens' rates, a
    (len(indices), N_it, N) array, and baseline scores, one (len(indices),)
    array per baseline, in index order; points that share a threshold share
    those arrays. The queens themselves stay here: no statistic reads them.
    """
    cfg = cfgs[0]
    evs = [SelectionEvaluator(cfg, realize_channel(cfg, i), ec.objective_kind) for i in indices]
    point_rates = [min_rate_for_threshold(c.theta_dB) for c in cfgs]
    if ec.objective_kind is ObjectiveKind.THROUGHPUT:
        point_rates = point_rates[:1] * len(cfgs)
    min_rates = list(dict.fromkeys(point_rates))
    rngs = [stream_rng(cfg.seed, i, STREAM_SEARCH) for i in indices]
    queen_rates = np.split(ga_run(evs, rngs, min_rates).queen_rates, len(min_rates))
    scores = [{name: np.empty(len(indices)) for name in ec.baselines} for _ in min_rates]
    for r, (index, ev) in enumerate(zip(indices, evs)):
        brng = stream_rng(cfg.seed, index, STREAM_BASELINE)
        for name in ec.baselines:
            found = (random_search(ev, cfg.L * cfg.N_it, brng, min_rates) if name == "random"
                     else exhaustive_search(ev, min_rates))
            for threshold_scores, (_, score) in zip(scores, found):
                threshold_scores[name][r] = score
    return [(queen_rates[i], scores[i]) for i in map(min_rates.index, point_rates)]


@dataclass
class SweepPointResult:
    """Aggregated statistics for one sweep point."""

    sweep_value: float | None
    cfg: SystemConfig
    mean_weighted_curve: np.ndarray
    mean_raw_curve: np.ndarray
    example_weighted_bases: np.ndarray   # realization 0, for single-run traces
    example_raw_curve: np.ndarray        # the same array as the bases for rate-sum objectives
    final_throughputs: np.ndarray        # (R,) per-realization best weighted score
    final_raws: np.ndarray               # (R,) per-realization raw score of the last iteration
    convergence_iterations: np.ndarray   # (R,)
    convergence_iterations_no_delay: np.ndarray
    served_counts: np.ndarray            # (R,)
    rate_samples: np.ndarray             # (R*N,) outage-constrained per-user rates at K*
    baseline_scores: dict[str, np.ndarray]  # name -> (R,) per-realization raw score
    wall_seconds: float

    @property
    def realizations(self) -> int:
        return self.final_throughputs.size

    @property
    def example_weighted_curve(self) -> np.ndarray:
        """Realization 0's delay-weighted score per iteration."""
        return delay_weighted(self.example_weighted_bases, self.cfg.alpha)

    @property
    def mean_final_throughput(self) -> float:
        return float(np.mean(self.final_throughputs))

    @property
    def avg_convergence_iteration(self) -> float:
        return float(np.mean(self.convergence_iterations))

    @property
    def avg_convergence_iteration_no_delay(self) -> float:
        return float(np.mean(self.convergence_iterations_no_delay))

    @property
    def empirical_outage_prob(self) -> float:
        users = self.realizations * self.cfg.N
        return float((users - int(self.served_counts.sum())) / users)

    @property
    def avg_served_users(self) -> float:
        return float(np.mean(self.served_counts))

    @property
    def baseline_means(self) -> dict[str, float]:
        return {name: float(np.mean(s)) for name, s in self.baseline_scores.items()}

    @property
    def evaluations_per_realization(self) -> int:
        return self.cfg.L * self.cfg.N_it

    def nu_percent(self) -> np.ndarray:
        """Mean weighted curve normalized so its maximum is exactly 100."""
        top = self.mean_weighted_curve.max()
        if top <= 0:
            return np.zeros_like(self.mean_weighted_curve)
        return 100.0 * (self.mean_weighted_curve / top)


@dataclass
class PointError:
    sweep_value: float | None
    message: str


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    points: list[SweepPointResult] = field(default_factory=list)
    errors: list[PointError] = field(default_factory=list)
    workers: int = 1
    wall_seconds: float = 0.0


def _aggregate(ec: ExperimentConfig, sweep_value: float | None, cfg: SystemConfig,
               parts: list[tuple[np.ndarray, dict[str, np.ndarray]]], wall: float) -> SweepPointResult:
    """One point's statistics from its blocks' (queens' rates, baseline scores), joined in the given order.

    Every score comes from the queens' recorded rates, under the point's own
    objective and threshold. Every mean over realizations reduces a
    C-contiguous (R, N_it) array, so numpy adds its rows in index order.
    """
    rates = np.concatenate([queen_rates for queen_rates, _ in parts])
    min_rate = min_rate_for_threshold(cfg.theta_dB)
    scores = EvalBatch(ec.objective_kind, rates, min_rate)
    raw, bases = scores.raw, scores.weighted_base  # one array for the rate-sum objectives
    weighted = delay_weighted(bases, cfg.alpha)
    kstar = convergence_iteration(raw, bases, cfg.alpha)
    at_kstar = EvalBatch(ec.objective_kind, rates[np.arange(raw.shape[0]), kstar - 1], min_rate)
    example_raw = raw[0].copy()
    return SweepPointResult(
        sweep_value=sweep_value,
        cfg=cfg,
        mean_weighted_curve=weighted.mean(axis=0),
        mean_raw_curve=raw.mean(axis=0),
        example_weighted_bases=example_raw if bases is raw else bases[0].copy(),
        example_raw_curve=example_raw,
        final_throughputs=weighted.max(axis=1),
        final_raws=raw[:, -1].copy(),
        convergence_iterations=kstar,
        convergence_iterations_no_delay=convergence_iteration(raw, bases, 0.0, ec.convergence_tol),
        served_counts=at_kstar.served,
        rate_samples=at_kstar.served_rates.ravel(),
        baseline_scores={name: np.concatenate([scores[name] for _, scores in parts])
                         for name in ec.baselines},
        wall_seconds=wall,
    )


def run_experiment(ec: ExperimentConfig, workers: int = 1) -> ExperimentResult:
    """Run every sweep point that passes ec.violations; report the others as errors.

    A point is screened before any of its realizations runs, so an exception
    raised inside a realization is a bug and propagates. The runnable points
    whose configs differ only in theta_dB and alpha run as one group, so
    each realization's channel, gain table, search keys and baselines are
    built, drawn and scored once for all of them (see _run_realization);
    each point's wall_seconds is its group's wall time split evenly.
    result.points keeps sweep order.
    Realizations are reduced in index order whatever the worker count, so a
    given (config, seed) pair always produces identical numbers.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    t_start = time.perf_counter()
    result = ExperimentResult(config=ec, workers=workers)
    runnable: list[tuple[float | None, SystemConfig]] = []
    groups: dict[SystemConfig, list[int]] = {}  # cfg with theta_dB and alpha reset -> positions in runnable
    for sweep_value, cfg in ec.points():
        violations = ec.violations(cfg)
        if violations:
            result.errors.append(PointError(sweep_value, "invalid configuration: " + "; ".join(violations)))
        else:
            key = replace(cfg, theta_dB=ec.base.theta_dB, alpha=ec.base.alpha)
            groups.setdefault(key, []).append(len(runnable))
            runnable.append((sweep_value, cfg))
    points: list[SweepPointResult | None] = [None] * len(runnable)
    plans = []  # (positions, cfgs, blocks) per group
    for positions in groups.values():
        cfgs = [runnable[i][1] for i in positions]
        # One block per worker, unless that exceeds BLOCK_CAP lanes.
        n = cfgs[0].realizations
        size = max(1, min(BLOCK_CAP // len(cfgs), -(-n // workers)))
        plans.append((positions, cfgs, [range(start, min(start + size, n)) for start in range(0, n, size)]))
    # A pool may start every worker at its first submit, so it gets no more than a group has blocks.
    pool_size = min(workers, max((len(blocks) for _, _, blocks in plans), default=0))
    pool = ProcessPoolExecutor(max_workers=pool_size) if pool_size > 1 else None
    run_map = map if pool is None else pool.map
    try:
        for positions, cfgs, blocks in plans:
            t0 = time.perf_counter()
            parts = list(run_map(_run_realization, repeat(ec), repeat(cfgs), blocks))
            wall = (time.perf_counter() - t0) / len(positions)
            for p, i in enumerate(positions):
                points[i] = _aggregate(ec, *runnable[i], [part[p] for part in parts], wall)
    finally:
        if pool is not None:
            pool.shutdown()
    result.points = points
    result.wall_seconds = time.perf_counter() - t_start
    return result


def _write_csv(path: Path, columns: dict[str, list[str]]) -> Path:
    """Write columns (name -> cells) as a CSV headed by the names, making its directory; return path."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(columns) + "\n")
        f.writelines(",".join(row) + "\n" for row in zip(*columns.values(), strict=True))
    return path


def _cells(values) -> list[str]:
    """Each value, flattened in order, as its Python scalar's repr: full-precision floats, integer integers."""
    return [cell for v in values for cell in map(repr, np.ravel(v).tolist())]


def _strict_json(value):
    """value with each non-finite float as its repr ("inf", "-inf", "nan"), so strict JSON parsers load it."""
    if isinstance(value, dict):
        return {k: _strict_json(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_strict_json(v) for v in value]
    return repr(float(value)) if isinstance(value, float) and not math.isfinite(value) else value


@functools.cache
def _environment() -> dict[str, object]:
    """The Python and numpy versions, platform and CPU count of this process, for provenance.json.

    Looked up once per process, since the first platform.platform() call
    takes milliseconds. Callers share the dict and must not change it.
    """
    return {"python": platform.python_version(), "numpy": np.__version__,
            "platform": platform.platform(), "cpu_count": os.cpu_count()}


def write_result_files(result: ExperimentResult, out_dir) -> list[Path]:
    """Write the experiment's CSV outputs and JSON provenance into out_dir.

    CSV cells carry full double precision; timing lives only in the JSON
    sidecar so repeated runs stay byte-identical.
    """
    out = Path(out_dir)
    pts = result.points
    sweep = ["" if pt.sweep_value is None else repr(float(pt.sweep_value)) for pt in pts]

    def per_row(counts) -> list[str]:
        """Each point's sweep cell, once for each of its rows."""
        return [cell for cell, n in zip(sweep, counts) for _ in range(n)]

    n_it = [pt.mean_weighted_curve.size for pt in pts]
    iterations = {"sweep_value": per_row(n_it), "K": [str(k) for n in n_it for k in range(1, n + 1)]}
    cdfs = [rate_cdf(pt.rate_samples) for pt in pts]
    means = [sorted(pt.baseline_means.items()) for pt in pts]
    written = [
        _write_csv(out / "curve.csv", {
            **iterations,
            "mean_weighted_throughput": _cells(pt.mean_weighted_curve for pt in pts),
            "mean_raw_throughput": _cells(pt.mean_raw_curve for pt in pts),
            "nu_percent": _cells(pt.nu_percent() for pt in pts)}),
        _write_csv(out / "curve_example.csv", {
            **iterations,
            "weighted_throughput": _cells(pt.example_weighted_curve for pt in pts),
            "raw_throughput": _cells(pt.example_raw_curve for pt in pts)}),
        _write_csv(out / "summary.csv", {
            "sweep_value": sweep,
            "mean_final_throughput_bpcu": _cells(pt.mean_final_throughput for pt in pts),
            "avg_convergence_iteration": _cells(pt.avg_convergence_iteration for pt in pts),
            "empirical_outage_prob": _cells(pt.empirical_outage_prob for pt in pts),
            "avg_served_users": _cells(pt.avg_served_users for pt in pts),
            "evaluations": _cells(pt.evaluations_per_realization for pt in pts)}),
        _write_csv(out / "cdf.csv", {
            "sweep_value": per_row(values.size for values, _ in cdfs),
            "rate_bpcu": _cells(values for values, _ in cdfs),
            "cum_fraction": _cells(fractions for _, fractions in cdfs)}),
        _write_csv(out / "convergence.csv", {
            "sweep_value": sweep,
            "alpha": _cells(pt.cfg.alpha for pt in pts),
            "avg_convergence_iteration": _cells(pt.avg_convergence_iteration for pt in pts),
            "avg_convergence_iteration_no_delay": _cells(pt.avg_convergence_iteration_no_delay for pt in pts)}),
    ]
    if any(means):
        written.append(_write_csv(out / "baselines.csv", {
            "sweep_value": per_row(map(len, means)),
            "baseline": [name for point in means for name, _ in point],
            "mean_score": _cells(score for point in means for _, score in point),
            # Random search gets the genetic run's budget; exhaustive scores the whole space.
            "evaluations_per_realization": _cells(
                search_space_size(pt.cfg) if name == "exhaustive" else pt.evaluations_per_realization
                for pt, point in zip(pts, means) for name, _ in point)}))

    ec = result.config
    provenance = {
        "package_version": __version__,
        "objective": ec.objective_kind.value,
        "sweep_key": ec.sweep_key,
        "sweep_values": list(ec.sweep_values),
        "baselines": list(ec.baselines),
        "convergence_tol": ec.convergence_tol,
        "base_config": asdict(ec.base),
        "seed": ec.base.seed,
        "stream_layout": STREAM_LAYOUT,
        "environment": _environment(),
        "workers": result.workers,
        "wall_seconds_total": result.wall_seconds,
        "points": [
            {"sweep_value": pt.sweep_value, "realizations": pt.realizations,
             "wall_seconds": pt.wall_seconds} for pt in result.points
        ],
        "errors": [{"sweep_value": e.sweep_value, "message": e.message} for e in result.errors],
        "files": [p.name for p in written],
    }
    prov_path = out / "provenance.json"
    with open(prov_path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(_strict_json(provenance), f, indent=2, sort_keys=True, allow_nan=False)
        f.write("\n")
    written.append(prov_path)
    return written
