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
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from ._version import __version__
from .channel import STREAM_BASELINE, STREAM_SEARCH, realize_channel, stream_rng
from .core import ConfigError, SystemConfig, validate_config
from .metrics import ObjectiveKind, SaturationError, served_stats
from .search import (
    EXHAUSTIVE_CAP,
    STREAM_LAYOUT,
    GaTrajectory,
    SearchSpaceError,
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
    "los_formula": ConfigKey(str, "system", "los_formula"),
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
    return cfg.with_overrides(**{entry.field: value})


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


def convergence_iteration(traj: GaTrajectory, alpha: float | None = None, tol: float = 0.0) -> int:
    """Iteration the experiment reports as the stopping point of a run.

    With a positive delay penalty this is the first iteration maximizing the
    delay-weighted score. With alpha = 0 it is the first iteration whose raw
    score reaches (1 - tol) of the run's final raw score.
    """
    a = traj.alpha if alpha is None else alpha
    if a > 0:
        return int(np.argmax(traj.weighted_scores(a))) + 1
    if not 0.0 <= tol < 1.0:
        raise ValueError(f"tol must be in [0, 1), got {tol}")
    target = (1.0 - tol) * traj.final_raw
    return int(np.argmax(traj.raw_scores >= target)) + 1


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


@dataclass(frozen=True)
class RealizationOutcome:
    """Everything one realization contributes to the aggregates."""

    weighted_curve: np.ndarray   # (N_it,) delay-weighted score per iteration
    raw_curve: np.ndarray        # (N_it,)
    kstar: int                   # reported stopping iteration
    kstar_no_delay: int          # stopping iteration under alpha = 0
    final_weighted: float        # best delay-weighted score of the run
    served: int
    outage_flags_total: int
    user_rates_constrained: np.ndarray  # (N,) rates at K*, zeroed for users in outage
    baseline_scores: dict[str, float]


def _run_realization(ec: ExperimentConfig, cfg: SystemConfig, index: int) -> RealizationOutcome:
    ev = SelectionEvaluator(cfg, realize_channel(cfg, index), ec.objective_kind)
    traj = ga_run(ev, stream_rng(cfg.seed, index, STREAM_SEARCH))
    weighted = traj.weighted_scores()
    kstar = convergence_iteration(traj)
    kstar0 = convergence_iteration(traj, alpha=0.0, tol=ec.convergence_tol)
    user_rates = ev.evaluate(traj.queens[kstar - 1] - 1).user_rates[0]
    served, flags = served_stats(user_rates, cfg.theta_dB)
    constrained = np.where(flags, 0.0, user_rates)
    baseline_scores: dict[str, float] = {}
    if ec.baselines:
        brng = stream_rng(cfg.seed, index, STREAM_BASELINE)
        for name in ec.baselines:
            if name == "random":
                _, score = random_search(ev, cfg.L * cfg.N_it, brng)
            else:
                _, score = exhaustive_search(ev)
            baseline_scores[name] = float(score[0]) if isinstance(score, tuple) else float(score)
    return RealizationOutcome(
        weighted_curve=weighted,
        raw_curve=traj.raw_scores,
        kstar=kstar,
        kstar_no_delay=kstar0,
        final_weighted=float(weighted.max()),
        served=served,
        outage_flags_total=int(flags.sum()),
        user_rates_constrained=constrained,
        baseline_scores=baseline_scores,
    )


def _realization_job(args) -> RealizationOutcome:
    return _run_realization(*args)


@dataclass
class SweepPointResult:
    """Aggregated statistics for one sweep point."""

    sweep_value: float | None
    cfg: SystemConfig
    mean_weighted_curve: np.ndarray
    mean_raw_curve: np.ndarray
    example_weighted_curve: np.ndarray   # realization 0, for single-run traces
    example_raw_curve: np.ndarray
    final_throughputs: np.ndarray        # (R,) per-realization best weighted score
    convergence_iterations: np.ndarray   # (R,)
    convergence_iterations_no_delay: np.ndarray
    served_counts: np.ndarray            # (R,)
    outage_flag_total: int
    rate_samples: np.ndarray             # (R*N,) outage-constrained per-user rates at K*
    baseline_means: dict[str, float]
    wall_seconds: float

    @property
    def realizations(self) -> int:
        return self.final_throughputs.size

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
        return float(self.outage_flag_total / (self.realizations * self.cfg.N))

    @property
    def avg_served_users(self) -> float:
        return float(np.mean(self.served_counts))

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


def _aggregate(sweep_value: float | None, cfg: SystemConfig,
               outcomes: list[RealizationOutcome], wall: float) -> SweepPointResult:
    weighted = np.stack([o.weighted_curve for o in outcomes])
    raw = np.stack([o.raw_curve for o in outcomes])
    baseline_means: dict[str, float] = {}
    for name in outcomes[0].baseline_scores:
        baseline_means[name] = float(np.mean([o.baseline_scores[name] for o in outcomes]))
    return SweepPointResult(
        sweep_value=sweep_value,
        cfg=cfg,
        mean_weighted_curve=weighted.mean(axis=0),
        mean_raw_curve=raw.mean(axis=0),
        example_weighted_curve=outcomes[0].weighted_curve,
        example_raw_curve=outcomes[0].raw_curve,
        final_throughputs=np.array([o.final_weighted for o in outcomes]),
        convergence_iterations=np.array([o.kstar for o in outcomes]),
        convergence_iterations_no_delay=np.array([o.kstar_no_delay for o in outcomes]),
        served_counts=np.array([o.served for o in outcomes]),
        outage_flag_total=int(sum(o.outage_flags_total for o in outcomes)),
        rate_samples=np.concatenate([o.user_rates_constrained for o in outcomes]),
        baseline_means=baseline_means,
        wall_seconds=wall,
    )


def run_experiment(ec: ExperimentConfig, workers: int = 1) -> ExperimentResult:
    """Run every sweep point; failures abort only the point they occur in.

    Realizations are reduced in index order whatever the worker count, so a
    given (config, seed) pair always produces identical numbers.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    t_start = time.perf_counter()
    result = ExperimentResult(config=ec, workers=workers)
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        for sweep_value, cfg in ec.points():
            t0 = time.perf_counter()
            violations = ec.violations(cfg)
            if violations:
                result.errors.append(PointError(sweep_value, "invalid configuration: " + "; ".join(violations)))
                continue
            jobs = [(ec, cfg, r) for r in range(cfg.realizations)]
            try:
                if pool is None:
                    outcomes = [_realization_job(j) for j in jobs]
                else:
                    chunk = max(1, len(jobs) // (workers * 4))
                    outcomes = list(pool.map(_realization_job, jobs, chunksize=chunk))
            except (SaturationError, SearchSpaceError, ConfigError) as exc:
                result.errors.append(PointError(sweep_value, f"{type(exc).__name__}: {exc}"))
                continue
            result.points.append(_aggregate(sweep_value, cfg, outcomes, time.perf_counter() - t0))
    finally:
        if pool is not None:
            pool.shutdown()
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


def _config_as_dict(cfg: SystemConfig) -> dict:
    d = {key: getattr(cfg.pa if e.owner == "pa" else cfg, e.field)
         for key, e in CONFIG_KEYS.items() if e.owner != "experiment"}
    # JSON has no inf literal; keep the sidecar loadable by strict parsers.
    if math.isinf(d["pa_rho_max_dB"]):
        d["pa_rho_max_dB"] = "inf"
    return d


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
        for i in range(pt.mean_weighted_curve.size):
            curve_rows.append((pt.sweep_value, i + 1, pt.mean_weighted_curve[i],
                               pt.mean_raw_curve[i], nu[i]))
            example_rows.append((pt.sweep_value, i + 1, pt.example_weighted_curve[i],
                                 pt.example_raw_curve[i]))
        summary_rows.append((pt.sweep_value, pt.mean_final_throughput,
                             pt.avg_convergence_iteration, pt.empirical_outage_prob,
                             pt.avg_served_users, pt.evaluations_per_realization))
        for rate, frac in rate_cdf(pt.rate_samples):
            cdf_rows.append((pt.sweep_value, rate, frac))
        conv_rows.append((pt.sweep_value, pt.cfg.alpha, pt.avg_convergence_iteration,
                          pt.avg_convergence_iteration_no_delay))
        for name, score in sorted(pt.baseline_means.items()):
            baseline_rows.append((pt.sweep_value, name, score, pt.evaluations_per_realization))

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
        "base_config": _config_as_dict(ec.base),
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
        json.dump(provenance, f, indent=2, sort_keys=True)
        f.write("\n")
    written.append(prov_path)
    return written
