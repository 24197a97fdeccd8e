"""Benchmark of beamsel's Monte Carlo sweeps.

    python3 bench/run.py --workload ga_sweep --seed 1 --seconds 50 --trace 0

A run derives SEEDS_PER_RUN experiment seeds from --seed and builds the
workload's experiment for each. It repeats run_experiment +
write_result_files over them in turn until --seconds have passed (at least
once per seed) and checks the CSVs of every repetition. A workload with a
pool check then runs each experiment once more on a 2-worker process pool,
whose CSVs must equal the 1-worker ones byte for byte.

With --trace 0 it reports the end-to-end metrics: timings are medians over
the 1-worker repetitions, which take turns on every CPU (see per_cpu_median),
and the quality metric averages the SEEDS_PER_RUN experiments, so it
depends on --seed alone. With --trace 1 it alternates
untraced and traced repetitions (see spans.py), traces the 2-worker pass,
and reports the per-layer metrics. The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics; the lines above
it are for people. The full record (environment, CSV digests, every
repetition) is written to .bench_runs/ under the repository root. The exit
code is 0 only when every point and every check passed.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads: the scoring matmuls are small,
# and the 2-worker pass must keep workers x threads within two cores.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
SETUP_REPEATS = 9
SEEDS_PER_RUN = 8

# All recipes use L=10, S=5, mutation_fraction=0.1; realizations are sized so
# one repetition takes one to four seconds on a 2-core x86 box, and so the
# SEEDS_PER_RUN experiments of a run hold enough realizations for a steady
# quality metric.
GA_SWEEP = """\
M = 32
N = 8
N_vec = 128
k = 0
alpha = 0.001
N_it = 200
L = 10
S = 5
mutation_fraction = 0.1
sweep = P_dB
sweep_values = 0, 2, 4, 6, 8, 10, 12, 14
realizations = 4
"""

OUTAGE_BASELINES = """\
M = 8
N = 4
N_vec = 16
k = 0
alpha = 0.001
N_it = 200
L = 10
S = 5
mutation_fraction = 0.1
objective = outage_count
sweep = theta_dB
sweep_values = -4, 0, 4
baselines = random, exhaustive
realizations = 10
"""


@dataclass(frozen=True)
class Workload:
    recipe: str               # config-file text; the seed comes from --seed
    pool_check: bool = False  # also run each experiment on a 2-worker pool


WORKLOADS = {
    "ga_sweep": Workload(GA_SWEEP, pool_check=True),
    "outage_baselines": Workload(OUTAGE_BASELINES),
}
POOL_WORKERS = 2

# Layers whose call counts are reported; every traced layer reports self time.
COUNTED_LAYERS = (
    "search.mutate", "search.draw_selection", "search.evaluate", "search.gain_table",
    "codebook.build", "core.complex_matrix", "channel.realize",
)


class Checks:
    """Every point run and every output check, with the ones that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.points = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


@dataclass
class Rep:
    wall_s: float
    cpu_s: float
    realizations: int
    digests: dict[str, str]
    out_dir: Path
    result: object  # the ExperimentResult
    cpu: int | None = None  # the CPU a 1-worker repetition was pinned to


@contextlib.contextmanager
def pinned(cpu: int | None):
    """Run the block on one CPU, then give the process all its CPUs back."""
    if cpu is None:
        yield
        return
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def per_cpu_median(reps: list[Rep], field: str) -> float:
    """Mean over CPUs of the median of field on each CPU.

    The CPUs of a small shared host can differ in speed by a quarter, and the
    scheduler keeps a single-threaded process on one of them for minutes, so
    1-worker repetitions take turns on every CPU and each CPU counts equally.
    """
    by_cpu: dict[int | None, list[float]] = defaultdict(list)
    for r in reps:
        by_cpu[r.cpu].append(getattr(r, field))
    return statistics.fmean(statistics.median(v) for v in by_cpu.values())


def cpu_seconds(who: int = resource.RUSAGE_SELF) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def total_cpu_seconds() -> float:
    """CPU time of this process plus every child it has reaped."""
    return cpu_seconds() + cpu_seconds(resource.RUSAGE_CHILDREN)


def csv_digests(out_dir: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out_dir.glob("*.csv"))}


def read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def by_point(rows: list[dict[str, str]]) -> dict[str, list[dict[str, str]]]:
    groups: dict[str, list[dict[str, str]]] = defaultdict(list)
    for row in rows:
        groups[row["sweep_value"]].append(row)
    return groups


def check_outputs(ec, result, out: Path, checks: Checks) -> None:
    """The invariants every sweep's files must satisfy, one check per point each."""
    failed = {e.sweep_value for e in result.errors}
    done = {p.sweep_value for p in result.points}
    points = dict(ec.points())
    for value in points:
        checks.points += 1
        checks.expect(value in done and value not in failed, f"point {value} failed")
    curves = by_point(read_csv(out / "curve.csv"))
    cdfs = by_point(read_csv(out / "cdf.csv"))
    baselines = by_point(read_csv(out / "baselines.csv")) if (out / "baselines.csv").exists() else {}
    for row in read_csv(out / "summary.csv"):
        sv = row["sweep_value"]
        cfg = points[float(sv)]
        raw = [float(r["mean_raw_throughput"]) for r in curves[sv]]
        nu = [float(r["nu_percent"]) for r in curves[sv]]
        checks.expect(len(raw) == cfg.N_it and all(a <= b for a, b in zip(raw, raw[1:])),
                      f"point {sv}: mean raw curve not non-decreasing over {cfg.N_it} iterations")
        checks.expect(max(nu, default=0.0) == 100.0, f"point {sv}: nu_percent does not peak at 100")
        checks.expect(bool(cdfs[sv]) and float(cdfs[sv][-1]["cum_fraction"]) == 1.0,
                      f"point {sv}: cdf does not end at 1.0")
        checks.expect(int(row["evaluations"]) == cfg.L * cfg.N_it,
                      f"point {sv}: evaluations != L*N_it")
        if ec.baselines:
            score = {r["baseline"]: float(r["mean_score"]) for r in baselines[sv]}
            exhaustive = score.get("exhaustive", -math.inf)
            checks.expect(score.get("random", math.inf) <= exhaustive,
                          f"point {sv}: random baseline missing or above exhaustive")
            checks.expect(bool(raw) and raw[-1] <= exhaustive,
                          f"point {sv}: GA final value missing or above exhaustive")


def run_once(harness, ec, workers: int, out: Path, tracer=None) -> Rep:
    with tracer.installed() if tracer else contextlib.nullcontext():
        c0 = total_cpu_seconds()
        t0 = time.perf_counter()
        result = harness.run_experiment(ec, workers=workers)
        harness.write_result_files(result, out)
        wall = time.perf_counter() - t0
        cpu = total_cpu_seconds() - c0
    return Rep(wall_s=wall, cpu_s=cpu, realizations=sum(p.realizations for p in result.points),
               digests=csv_digests(out), out_dir=out, result=result)


def run_traced(harness, ec, workers: int, out: Path):
    """run_once under a fresh Tracer; also returns the CPU time of reaped workers."""
    from spans import Tracer

    tracer = Tracer()
    kids0 = cpu_seconds(resource.RUSAGE_CHILDREN)
    rep = run_once(harness, ec, workers, out, tracer)
    return rep, tracer, cpu_seconds(resource.RUSAGE_CHILDREN) - kids0


def measure_setup(cfg_path: Path, overrides: tuple[str, ...], checks: Checks) -> dict[str, float]:
    """Median wall time of SETUP_REPEATS fresh interpreters loading the experiment."""
    walls, imports, loads = [], [], []
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), str(cfg_path), *overrides]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        walls.append(time.perf_counter() - t0)
        checks.expect(proc.returncode == 0, f"setup probe failed: {proc.stdout}{proc.stderr}")
        if proc.returncode == 0:
            probe = json.loads(proc.stdout)
            imports.append(probe["import_s"])
            loads.append(probe["load_s"])
    return {"setup_s": statistics.median(walls),
            "cli.import_s": statistics.median(imports) if imports else 0.0,
            "cli.load_s": statistics.median(loads) if loads else 0.0}


def mean_final_throughput(out: Path) -> float:
    return statistics.fmean(float(r["mean_final_throughput_bpcu"]) for r in read_csv(out / "summary.csv"))


def exhaustive_gap(out: Path, n_it: int) -> float:
    """(exhaustive mean - GA mean final raw) / exhaustive mean; 0 without that baseline."""
    path = out / "baselines.csv"
    rows = [r for r in read_csv(path) if r["baseline"] == "exhaustive"] if path.exists() else []
    if not rows:
        return 0.0
    exhaustive = statistics.fmean(float(r["mean_score"]) for r in rows)
    ga = statistics.fmean(float(r["mean_raw_throughput"]) for r in read_csv(out / "curve.csv")
                          if int(r["K"]) == n_it)
    return (exhaustive - ga) / exhaustive


def layer_metrics(tracer, rep: Rep) -> dict[str, float]:
    """Per-layer numbers of one traced 1-worker repetition."""
    from spans import LAYERS, ROOT_SPAN

    totals = tracer.layer_totals()

    def get(name: str, key: str) -> float:
        return totals.get(name, {}).get(key, 0.0)

    m: dict[str, float] = {}
    for _, _, name in LAYERS:
        self_s = get(name, "self_s")
        m[f"{name}.self_s"] = self_s
        m[f"{name}.share"] = self_s / rep.wall_s
    for name in COUNTED_LAYERS:
        m[f"{name}.calls"] = get(name, "calls")
    for name in ("search.exhaustive", "search.random_search"):
        m[f"{name}.total_s"] = get(name, "total_s")  # including their draws and scoring
    m["search.evaluate.members"] = tracer.members
    m["search.evaluate.computed_bytes"] = tracer.computed_bytes
    m["search.evaluate.us_per_member"] = (
        1e6 * get("search.evaluate", "self_s") / tracer.members if tracer.members else 0.0)
    m["search.evaluate.rescored_ratio"] = tracer.rescored / tracer.ga_members if tracer.ga_members else 0.0
    m["search.gain_table.per_realization"] = get("search.gain_table", "calls") / rep.realizations
    shapes = len(tracer.codebook_shapes)
    m["codebook.build.per_distinct"] = get("codebook.build", "calls") / shapes if shapes else 0.0
    m["harness.write.bytes"] = sum(p.stat().st_size for p in rep.out_dir.iterdir() if p.is_file())
    named = sum(t["self_s"] for name, t in totals.items() if name != ROOT_SPAN)
    m["trace.attributed_share"] = named / rep.wall_s
    return m


def pool_metrics(tracer, rep: Rep, child_cpu_s: float) -> dict[str, float]:
    """Pool numbers of one traced 2-worker repetition; workers record no spans."""
    from spans import POOL_SPAN

    wait = tracer.layer_totals().get(POOL_SPAN, {}).get("self_s", 0.0)
    return {"harness.pool.wait_s": wait,
            "harness.pool.share": wait / rep.wall_s,
            "harness.pool.tasks": tracer.pool_tasks,
            "harness.pool.cpu_per_wall": child_cpu_s / wait if wait else 0.0}


def percentile_ms(durations: list[float], q: float) -> float:
    import numpy as np

    return 1e3 * float(np.percentile(durations, q)) if durations else 0.0


def environment(seed: int, experiment_seeds: list[int], workers: list[int]) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "loadavg_at_start": list(os.getloadavg()),
        "commit": git_commit(),
        "seed": seed,
        "experiment_seeds": experiment_seeds,
        "workers": workers,
    }


def steal_seconds() -> float | None:
    """CPU time the hypervisor gave to other guests, summed over all CPUs."""
    try:
        with open("/proc/stat", encoding="utf-8") as f:
            return int(f.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    """HEAD of the repository around the benchmark, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2**64 // SEEDS_PER_RUN:
        p.error(f"--seed must be in [0, 2**64 / {SEEDS_PER_RUN})")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_beamsel():
    """Import beamsel from this checkout's src/, never from an installed copy."""
    if not (SRC / "beamsel" / "__init__.py").is_file():
        raise SystemExit(f"error: no beamsel sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import beamsel

    if Path(beamsel.__file__).resolve().parent != SRC / "beamsel":
        raise SystemExit(f"error: imported beamsel from {beamsel.__file__}, not {SRC}")
    from beamsel import cli, harness

    return cli, harness


def main(argv=None) -> int:
    args = parse_args(argv)
    cli, harness = import_beamsel()
    wl = WORKLOADS[args.workload]
    run_dir = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir.mkdir(parents=True, exist_ok=True)
    cfg_path = run_dir / "experiment.cfg"
    cfg_path.write_text(wl.recipe, encoding="utf-8")
    seeds = [args.seed * SEEDS_PER_RUN + j for j in range(SEEDS_PER_RUN)]
    experiments = [cli.apply_cli_overrides(cli.parse_config(cfg_path), (f"seed={s}",)) for s in seeds]
    env = environment(args.seed, seeds, [1, POOL_WORKERS] if wl.pool_check else [1])
    checks = Checks()
    setup = measure_setup(cfg_path, (f"seed={seeds[0]}",), checks)

    untraced: list[Rep] = []
    traced: list[tuple[Rep, dict[str, float], list[float]]] = []
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    expected: list[dict[str, str] | None] = [None] * SEEDS_PER_RUN
    steal0 = steal_seconds()
    deadline = time.perf_counter() + args.seconds
    i = 0
    while i < SEEDS_PER_RUN or time.perf_counter() < deadline:
        j = i % SEEDS_PER_RUN
        # Shift the CPU rotation every pass over the seeds, so no seed keeps one CPU.
        cpu = cpus[(i + i // SEEDS_PER_RUN) % len(cpus)] if cpus else None
        ec, out = experiments[j], run_dir / f"out{j}"
        with pinned(cpu):
            rep = run_once(harness, ec, 1, out)
        rep.cpu = cpu
        untraced.append(rep)
        check_outputs(ec, rep.result, out, checks)
        expected[j] = expected[j] or rep.digests
        checks.expect(rep.digests == expected[j], "CSV digests differ from the seed's first run")
        if args.trace:
            with pinned(cpu):
                trep, tracer, _ = run_traced(harness, ec, 1, out)
            trep.cpu = cpu
            check_outputs(ec, trep.result, out, checks)
            checks.expect(trep.digests == expected[j], "traced run changed the CSVs")
            traced.append((trep, layer_metrics(tracer, trep), tracer.durations("search.ga_run")))
        i += 1
    steal1 = steal_seconds()
    steal = None if steal0 is None or steal1 is None else steal1 - steal0

    pool: list[tuple[Rep, dict[str, float]]] = []
    if wl.pool_check:
        for j, ec in enumerate(experiments):
            out = run_dir / f"pool{j}"
            if args.trace:
                prep, tracer, child_cpu = run_traced(harness, ec, POOL_WORKERS, out)
                pool.append((prep, pool_metrics(tracer, prep, child_cpu)))
            else:
                prep = run_once(harness, ec, POOL_WORKERS, out)
                pool.append((prep, {}))
            check_outputs(ec, prep.result, out, checks)
            checks.expect(prep.digests == expected[j],
                          f"{POOL_WORKERS}-worker CSVs differ from the 1-worker run")

    outs = [run_dir / f"out{j}" for j in range(SEEDS_PER_RUN)]
    gap = statistics.fmean(exhaustive_gap(o, experiments[0].base.N_it) for o in outs)
    failed = len(checks.failures)
    point_error_ratio = failed / checks.points
    untraced_wall = per_cpu_median(untraced, "wall_s")

    if args.trace:
        per_rep = [m for _, m, _ in traced]
        metrics = {k: statistics.median(m[k] for m in per_rep) for k in per_rep[0]}
        for k in ("harness.pool.wait_s", "harness.pool.share", "harness.pool.tasks",
                  "harness.pool.cpu_per_wall"):
            metrics[k] = statistics.median(m[k] for _, m in pool) if pool else 0.0
        metrics["harness.pool.speedup"] = (
            untraced_wall / statistics.median(r.wall_s for r, _ in pool) if pool else 0.0)
        ga_ms = [d for _, _, ds in traced for d in ds]
        traced_wall = per_cpu_median([r for r, _, _ in traced], "wall_s")
        metrics.update({
            "search.ga_run.ms_p50": percentile_ms(ga_ms, 50),
            "search.ga_run.ms_p90": percentile_ms(ga_ms, 90),
            "search.ga_run.ms_p99": percentile_ms(ga_ms, 99),
            "search.ga_run.samples": len(ga_ms),
            "cli.import_s": setup["cli.import_s"],
            "cli.load_s": setup["cli.load_s"],
            "quality.exhaustive_gap": gap,
            "trace.wall_s": traced_wall,
            "trace.untraced_wall_s": untraced_wall,
            "trace.overhead_s": traced_wall - untraced_wall,
            "trace.overhead_ratio": (traced_wall - untraced_wall) / untraced_wall,
        })
    else:
        rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                     resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        metrics = {
            "wall_s": untraced_wall,
            "cpu_s": per_cpu_median(untraced, "cpu_s"),
            "peak_rss_mb": rss_kb / 1024.0,
            "setup_s": setup["setup_s"],
            "mean_final_throughput_bpcu": statistics.fmean(mean_final_throughput(o) for o in outs),
        }

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics and BENCHMARK.json disagree: {sorted(set(units) ^ set(metrics))}")
    print(f"workload {args.workload}, seed {args.seed} (experiment seeds {seeds}), "
          f"{len(untraced)} untraced and {len(traced)} traced repetitions "
          f"of {untraced[0].realizations} realizations")
    for name, value in metrics.items():
        print(f"  {name:<40} {value:>16.6g} {units[name]}")
    rate = untraced[0].realizations / untraced_wall
    print(f"  {'realizations_per_s':<40} {rate:>16.6g} 1/s")
    print(f"  {'point_error_ratio':<40} {point_error_ratio:>16.6g} ratio "
          f"({failed} failed of {checks.points} points run; {checks.attempted} points and checks)")
    if experiments[0].baselines:
        print(f"  {'exhaustive_gap':<40} {gap:>16.6g} ratio")
    if steal is not None:
        print(f"  {'cpu_steal_s (while measuring)':<40} {steal:>16.6g} s")
    for failure in checks.failures[:20]:
        print(f"  FAILED: {failure}")
    record = {"workload": args.workload, "environment": env, "setup": setup,
              "csv_sha256": dict(zip(map(str, seeds), expected)), "wall_s": [r.wall_s for r in untraced],
              "cpus": [r.cpu for r in untraced], "pool_wall_s": [r.wall_s for r, _ in pool],
              "traced_wall_s": [r.wall_s for r, _, _ in traced], "metrics": metrics,
              "realizations_per_s": rate, "point_error_ratio": point_error_ratio,
              "exhaustive_gap": gap,
              "cpu_steal_s": steal,
              "failures": checks.failures}
    (run_dir / "record.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print("environment " + json.dumps(env))
    print(json.dumps({"correct": not failed, "attempted": checks.attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
