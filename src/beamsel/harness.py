"""Monte Carlo experiment harness: sweeps, aggregation, and result files.

Every realization is keyed by (seed, realization_index, stream), so results
do not depend on worker count or execution order, and sweep points reuse the
same channel draws for paired comparisons.
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import repeat
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from ._version import __version__
from .channel import STREAM_BASELINE, STREAM_SEARCH, realize_channel, stream_rng
from .core import ConfigError, SystemConfig, validate_config
from .metrics import ObjectiveKind, min_rate_for_threshold
from .search import (
    EXHAUSTIVE_CAP,
    STREAM_LAYOUT,
    EvalBatch,
    GaTrajectory,
    SelectionEvaluator,
    exhaustive_search,
    ga_run,
    random_search,
    search_space_size,
)


class ConfigKey(NamedTuple):
    """How one config key is parsed and which dataclass field it sets."""

    parse: Callable[[str], object]
    owner: str   # "system" (SystemConfig), "pa" (SystemConfig.pa) or "experiment"
    field: str


def _list_of(parse: Callable[[str], object]) -> Callable[[str], tuple]:
    """Parser for a comma-separated list; empty items are skipped."""
    return lambda raw: tuple(parse(v.strip()) for v in raw.split(",") if v.strip())


# The one table of config keys. The config file, --set overrides, sweeps and
# the provenance sidecar all read it.
CONFIG_KEYS: dict[str, ConfigKey] = {
    **{k: ConfigKey(int, "system", k) for k in ("M", "N", "N_vec", "N_it", "L", "S",
                                                "realizations", "seed")},
    **{k: ConfigKey(float, "system", k) for k in ("k", "beta", "P_dB", "alpha",
                                                  "mutation_fraction", "theta_dB")},
    "pa_epsilon": ConfigKey(float, "pa", "epsilon"),
    "pa_mu": ConfigKey(float, "pa", "mu"),
    "pa_rho_max_dB": ConfigKey(float, "pa", "rho_max_dB"),
    "objective": ConfigKey(ObjectiveKind.from_string, "experiment", "objective_kind"),
    "sweep": ConfigKey(str, "experiment", "sweep_key"),
    "sweep_values": ConfigKey(_list_of(float), "experiment", "sweep_values"),
    "baselines": ConfigKey(_list_of(str), "experiment", "baselines"),
    "convergence_tol": ConfigKey(float, "experiment", "convergence_tol"),
}
SWEEPABLE_KEYS = tuple(k for k, e in CONFIG_KEYS.items()
                       if e.owner != "experiment" and e.parse in (int, float))
BASELINE_NAMES = ("random", "exhaustive")


def coerce_value(key: str, raw: str):
    """Parse a raw string for any config key into its proper type."""
    entry = CONFIG_KEYS.get(key)
    if entry is None:
        raise ConfigError(f"unknown configuration key {key!r}; known keys: " + ", ".join(CONFIG_KEYS))
    raw = raw.strip()
    try:
        return entry.parse(raw)
    except ValueError as exc:
        raise ConfigError(f"cannot parse value {raw!r} for key {key!r}: {exc}") from None


def apply_override(cfg: SystemConfig, key: str, value) -> SystemConfig:
    """Return cfg with one scenario key replaced; accepts already-typed or string values."""
    if isinstance(value, str):
        value = coerce_value(key, value)
    entry = CONFIG_KEYS.get(key)
    if entry is None or entry.owner == "experiment":
        raise ConfigError(f"{key!r} is not a scenario configuration key")
    if entry.parse is int:
        if isinstance(value, float) and not value.is_integer():
            raise ConfigError(f"key {key!r} takes an integer, got {value!r}")
        value = int(value)
    elif entry.parse is float:
        value = float(value)
    if entry.owner == "pa":
        return replace(cfg, pa=replace(cfg.pa, **{entry.field: value}))
    return replace(cfg, **{entry.field: value})


def apply_settings(ec: ExperimentConfig, settings) -> ExperimentConfig:
    """Apply (key, raw value, where) triples from a config file or --set.

    Scenario keys are applied one by one. Experiment-level fields are
    collected and the ExperimentConfig is rebuilt once at the end, so that
    ``sweep`` set before ``sweep_values`` does not fail validation halfway.
    Parse errors name ``where``: the file and line, or ``--set``.
    """
    base = ec.base
    updates: dict[str, object] = {}
    for key, raw, where in settings:
        try:
            value = coerce_value(key, raw)
            entry = CONFIG_KEYS[key]
            if entry.owner == "experiment":
                updates[entry.field] = value
            else:
                base = apply_override(base, key, value)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None
    return replace(ec, base=base, **updates)


@dataclass(frozen=True)
class ExperimentConfig:
    """A full experiment: a base scenario, an objective, and an optional sweep."""

    base: SystemConfig
    objective_kind: ObjectiveKind = ObjectiveKind.THROUGHPUT
    sweep_key: str | None = None
    sweep_values: tuple[float, ...] = ()
    baselines: tuple[str, ...] = ()     # subset of BASELINE_NAMES
    convergence_tol: float = 0.0        # slack for the alpha=0 convergence rule

    def __post_init__(self) -> None:
        if self.sweep_key is not None and self.sweep_key not in SWEEPABLE_KEYS:
            raise ConfigError(f"cannot sweep key {self.sweep_key!r}; sweepable: "
                              + ", ".join(SWEEPABLE_KEYS))
        if self.sweep_key is not None and len(self.sweep_values) == 0:
            raise ConfigError("sweep declared without sweep_values")
        for b in self.baselines:
            if b not in BASELINE_NAMES:
                raise ConfigError(f"unknown baseline {b!r}; known: " + ", ".join(BASELINE_NAMES))
        if len(set(self.baselines)) < len(self.baselines):
            raise ConfigError("baselines lists a name more than once: " + ", ".join(self.baselines))
        if not 0.0 <= self.convergence_tol < 1.0:
            raise ConfigError(f"convergence_tol must be in [0, 1), got {self.convergence_tol}")

    def points(self) -> list[tuple[float | None, SystemConfig]]:
        """The (sweep_value, config) pairs this experiment runs."""
        if self.sweep_key is None:
            return [(None, self.base)]
        return [(float(v), apply_override(self.base, self.sweep_key, v)) for v in self.sweep_values]

    def violations(self, cfg: SystemConfig) -> list[str]:
        """Why this experiment cannot run the point cfg; empty when it can."""
        errs = validate_config(cfg)
        if not errs and "exhaustive" in self.baselines and search_space_size(cfg) > EXHAUSTIVE_CAP:
            errs.append(f"exhaustive baseline needs {search_space_size(cfg)} ordered selections, "
                        f"more than its cap of {EXHAUSTIVE_CAP}; shrink N_vec/N")
        return errs


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


def rate_cdf(samples: np.ndarray) -> list[tuple[float, float]]:
    """Empirical CDF of per-user rates as (rate, cumulative fraction) pairs.

    One pair per distinct rate value, fractions ending at exactly 1.0.
    """
    arr = np.asarray(samples, dtype=np.float64).ravel()
    if arr.size == 0:
        raise ValueError("rate_cdf needs at least one sample")
    values, counts = np.unique(arr, return_counts=True)
    fractions = np.cumsum(counts) / arr.size
    return list(zip(values.tolist(), fractions.tolist()))


# Most realizations one _run_realization call advances in lockstep. It bounds
# the block's arrays (gain tables, per-generation gathers, trajectories) the
# way KEY_CHUNK_BYTES bounds its keys; no result depends on it.
BLOCK_CAP = 64
# Config fields that no channel, power or baseline draw reads: sweep points
# that differ only in these share their baselines' scoring.
BASELINE_FREE_FIELDS = ("theta_dB", "alpha", "S", "mutation_fraction")


def _run_realization(ec: ExperimentConfig, cfgs: Sequence[SystemConfig],
                     indices: Sequence[int]) -> list[tuple[GaTrajectory, dict[str, np.ndarray]]]:
    """Run the realizations `indices` of a group of points: each point's block trajectory and baseline scores.

    The points' configs differ only in BASELINE_FREE_FIELDS, which no channel
    reads, so each realization's channel is drawn once for all of them. Each
    point's genetic searches run as one lockstep block; then each
    realization scores each baseline's rows once, from its baseline stream,
    and every point ranks them under its own objective threshold. A point's
    baseline scores are one (len(indices),) array per baseline, in index order.
    """
    cfg = cfgs[0]
    channels = [realize_channel(cfg, i) for i in indices]
    evs = [[SelectionEvaluator(c, h, ec.objective_kind) for h in channels] for c in cfgs]
    trajs = [ga_run(point_evs, [stream_rng(cfg.seed, i, STREAM_SEARCH) for i in indices])
             for point_evs in evs]
    scores = [{name: np.empty(len(indices)) for name in ec.baselines} for _ in cfgs]
    for r, index in enumerate(indices):
        group = [point_evs[r] for point_evs in evs]
        brng = stream_rng(cfg.seed, index, STREAM_BASELINE)
        for name in ec.baselines:
            found = (random_search(group, cfg.L * cfg.N_it, brng) if name == "random"
                     else exhaustive_search(group))
            for point_scores, (_, score) in zip(scores, found):
                point_scores[name][r] = score
    return list(zip(trajs, scores))


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
               parts: list[tuple[GaTrajectory, dict[str, np.ndarray]]], wall: float) -> SweepPointResult:
    """One point's statistics from its blocks' (trajectory, baseline scores), concatenated in the given order.

    Every score comes from the queens' recorded rates, under the point's own
    objective and threshold. Every mean over realizations reduces a
    C-contiguous (R, N_it) array, so numpy adds its rows in index order.
    """
    rates = np.concatenate([traj.queen_rates for traj, _ in parts])
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
    whose configs differ only in BASELINE_FREE_FIELDS run as one group, so
    each realization's baselines are scored once for all of them; each
    point's wall_seconds is its group's wall time split evenly.
    result.points keeps sweep order.
    Realizations are reduced in index order whatever the worker count, so a
    given (config, seed) pair always produces identical numbers.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    t_start = time.perf_counter()
    result = ExperimentResult(config=ec, workers=workers)
    runnable: list[tuple[float | None, SystemConfig]] = []
    groups: dict[SystemConfig, list[int]] = {}  # cfg with the free fields reset -> positions in runnable
    for sweep_value, cfg in ec.points():
        violations = ec.violations(cfg)
        if violations:
            result.errors.append(PointError(sweep_value, "invalid configuration: " + "; ".join(violations)))
        else:
            key = replace(cfg, **{f: getattr(ec.base, f) for f in BASELINE_FREE_FIELDS})
            groups.setdefault(key, []).append(len(runnable))
            runnable.append((sweep_value, cfg))
    points: list[SweepPointResult | None] = [None] * len(runnable)
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        for positions in groups.values():
            t0 = time.perf_counter()
            cfgs = [runnable[i][1] for i in positions]
            # One block per worker, unless that exceeds BLOCK_CAP realizations.
            n = cfgs[0].realizations
            size = min(BLOCK_CAP, -(-n // workers))
            blocks = [range(start, min(start + size, n)) for start in range(0, n, size)]
            if pool is None:
                parts = [_run_realization(ec, cfgs, block) for block in blocks]
            else:
                parts = list(pool.map(_run_realization, repeat(ec), repeat(cfgs), blocks))
            wall = (time.perf_counter() - t0) / len(positions)
            for p, i in enumerate(positions):
                points[i] = _aggregate(ec, *runnable[i], [part[p] for part in parts], wall)
    finally:
        if pool is not None:
            pool.shutdown()
    result.points = points
    result.wall_seconds = time.perf_counter() - t_start
    return result


def _fmt(x) -> str:
    """Full-precision, locale-independent cell formatting."""
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(_fmt(c) for c in row) + "\n")


def _strict_json(value):
    """value with each non-finite float as its repr ("inf", "-inf", "nan"), so strict JSON parsers load it."""
    if isinstance(value, dict):
        return {k: _strict_json(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_strict_json(v) for v in value]
    return repr(float(value)) if isinstance(value, float) and not math.isfinite(value) else value


def write_result_files(result: ExperimentResult, out_dir) -> list[Path]:
    """Write the experiment's CSV outputs and JSON provenance into out_dir.

    CSV cells carry full double precision; timing lives only in the JSON
    sidecar so repeated runs stay byte-identical.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    curve_rows = []
    example_rows = []
    summary_rows = []
    cdf_rows = []
    conv_rows = []
    baseline_rows = []
    for pt in result.points:
        nu = pt.nu_percent()
        example = pt.example_weighted_curve
        for i in range(pt.mean_weighted_curve.size):
            curve_rows.append((pt.sweep_value, i + 1, pt.mean_weighted_curve[i],
                               pt.mean_raw_curve[i], nu[i]))
            example_rows.append((pt.sweep_value, i + 1, example[i], pt.example_raw_curve[i]))
        summary_rows.append((pt.sweep_value, pt.mean_final_throughput,
                             pt.avg_convergence_iteration, pt.empirical_outage_prob,
                             pt.avg_served_users, pt.evaluations_per_realization))
        for rate, frac in rate_cdf(pt.rate_samples):
            cdf_rows.append((pt.sweep_value, rate, frac))
        conv_rows.append((pt.sweep_value, pt.cfg.alpha, pt.avg_convergence_iteration,
                          pt.avg_convergence_iteration_no_delay))
        for name, score in sorted(pt.baseline_means.items()):
            # Random search gets the genetic run's budget; exhaustive scores the whole space.
            evaluations = (search_space_size(pt.cfg) if name == "exhaustive"
                           else pt.evaluations_per_realization)
            baseline_rows.append((pt.sweep_value, name, score, evaluations))

    files = [
        ("curve.csv", ["sweep_value", "K", "mean_weighted_throughput", "mean_raw_throughput",
                       "nu_percent"], curve_rows),
        ("curve_example.csv", ["sweep_value", "K", "weighted_throughput", "raw_throughput"],
         example_rows),
        ("summary.csv", ["sweep_value", "mean_final_throughput_bpcu", "avg_convergence_iteration",
                         "empirical_outage_prob", "avg_served_users", "evaluations"], summary_rows),
        ("cdf.csv", ["sweep_value", "rate_bpcu", "cum_fraction"], cdf_rows),
        ("convergence.csv", ["sweep_value", "alpha", "avg_convergence_iteration",
                             "avg_convergence_iteration_no_delay"], conv_rows),
    ]
    if baseline_rows:
        files.append(("baselines.csv", ["sweep_value", "baseline", "mean_score",
                                        "evaluations_per_realization"], baseline_rows))
    for name, header, rows in files:
        path = out / name
        _write_csv(path, header, rows)
        written.append(path)

    ec = result.config
    provenance = {
        "package_version": __version__,
        "objective": ec.objective_kind.value,
        "sweep_key": ec.sweep_key,
        "sweep_values": list(ec.sweep_values),
        "baselines": list(ec.baselines),
        "convergence_tol": ec.convergence_tol,
        "base_config": {key: getattr(ec.base.pa if e.owner == "pa" else ec.base, e.field)
                        for key, e in CONFIG_KEYS.items() if e.owner != "experiment"},
        "seed": ec.base.seed,
        "stream_layout": STREAM_LAYOUT,
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
