"""Command line harness: parse a config file, run experiments, write result files.

Commands
    run           execute the base configuration (any sweep in the file is ignored)
    sweep         execute every sweep point declared by the configuration
    convergence   like run/sweep, but prints the stopping-iteration table
    oracle-check  compare the genetic search against exhaustive enumeration
    validate      parse and validate without running anything

Config files are flat ``key = value`` lines with ``#`` comments. Unknown keys
are rejected with their line number. M, N, and N_vec are required; everything
else has a default.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import MISSING, fields, replace
from pathlib import Path

from .config import ExperimentConfig, apply_settings, search_space_size
from .core import ConfigError, SystemConfig

REQUIRED_KEYS = tuple(f.name for f in fields(SystemConfig) if f.default is MISSING)
ORACLE_TOLERANCE = 1e-9
ORACLE_ATTAINMENT = 0.95


def _parse_lines(text: str, source: str) -> dict[str, tuple[str, int]]:
    """Flat key=value parsing; returns key -> (raw value, line number)."""
    entries: dict[str, tuple[str, int]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        key, sep, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if not sep or not key or not raw:
            raise ConfigError(f"{source}:{lineno}: expected key = value, got {line.strip()!r}")
        if key in entries:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r} "
                              f"(first set on line {entries[key][1]})")
        entries[key] = (raw, lineno)
    return entries


def parse_config(path) -> ExperimentConfig:
    """Parse a config file into an ExperimentConfig (not yet validated)."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {p}: {exc}") from None
    entries = _parse_lines(text, str(p))
    missing = [k for k in REQUIRED_KEYS if k not in entries]
    if missing:
        raise ConfigError(f"{p}: missing required keys: " + ", ".join(missing))
    placeholder = ExperimentConfig(base=SystemConfig(M=1, N=1, N_vec=1))
    return apply_settings(placeholder, [(key, raw, f"{p}:{lineno}")
                                        for key, (raw, lineno) in entries.items()])


def apply_cli_overrides(ec: ExperimentConfig, sets: tuple[str, ...]) -> ExperimentConfig:
    """Apply --set KEY=VALUE pairs on top of a parsed configuration."""
    settings = []
    for item in sets:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, raw = item.partition("=")
        settings.append((key.strip(), raw, "--set"))
    return apply_settings(ec, settings)


def _load_experiment(args: argparse.Namespace) -> ExperimentConfig:
    ec = apply_cli_overrides(parse_config(args.config), tuple(args.sets))
    if args.seed is not None:
        ec = replace(ec, base=replace(ec.base, seed=args.seed))
    return ec


def _print_point_table(result, convergence_view: bool) -> None:
    if convergence_view:
        print(f"{'sweep_value':>12} {'alpha':>9} {'avg_K*':>9} {'avg_K* (alpha=0)':>17}")
    else:
        print(f"{'sweep_value':>12} {'mean_final_bpcu':>16} {'avg_K*':>8} "
              f"{'outage_prob':>12} {'avg_served':>11}")
    for pt in result.points:
        sv = "-" if pt.sweep_value is None else f"{pt.sweep_value:g}"
        if convergence_view:
            print(f"{sv:>12} {pt.cfg.alpha:>9g} {pt.avg_convergence_iteration:>9.1f} "
                  f"{pt.avg_convergence_iteration_no_delay:>17.1f}")
        else:
            print(f"{sv:>12} {pt.mean_final_throughput:>16.4f} "
                  f"{pt.avg_convergence_iteration:>8.1f} {pt.empirical_outage_prob:>12.4f} "
                  f"{pt.avg_served_users:>11.2f}")
    for err in result.errors:
        sv = "-" if err.sweep_value is None else f"{err.sweep_value:g}"
        print(f"point {sv}: FAILED: {err.message}", file=sys.stderr)


def _check_out(out: str) -> None:
    """Refuse an --out that cannot become a directory, before any realization runs."""
    existing = next(p for p in (Path(out), *Path(out).parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"--out {out}: {existing} exists and is not a directory")


def _run_and_write(ec: ExperimentConfig, args: argparse.Namespace, convergence_view: bool) -> int:
    from . import harness  # the numeric layers load only for a command that runs

    _check_out(args.out)
    result = harness.run_experiment(ec, workers=args.workers)
    written = harness.write_result_files(result, args.out)
    _print_point_table(result, convergence_view)
    print(f"wrote {len(written)} files to {Path(args.out).resolve()}")
    return 1 if result.errors or not result.points else 0


def command_run(args: argparse.Namespace) -> int:
    ec = _load_experiment(args)
    if ec.sweep_key is not None:
        print(f"note: config declares a sweep over {ec.sweep_key!r}; "
              f"'run' executes only the base configuration (use 'sweep' for the full grid)",
              file=sys.stderr)
        ec = replace(ec, sweep_key=None, sweep_values=())
    return _run_and_write(ec, args, convergence_view=False)


def command_sweep(args: argparse.Namespace) -> int:
    ec = _load_experiment(args)
    if ec.sweep_key is None:
        raise ConfigError("'sweep' needs a config with sweep= and sweep_values= "
                          "(or --set sweep=... --set sweep_values=...)")
    return _run_and_write(ec, args, convergence_view=False)


def command_convergence(args: argparse.Namespace) -> int:
    ec = _load_experiment(args)
    return _run_and_write(ec, args, convergence_view=True)


def command_validate(args: argparse.Namespace) -> int:
    ec = _load_experiment(args)
    points = ec.points()
    ok = True
    for sweep_value, cfg in points:
        label = "base config" if sweep_value is None else f"sweep point {ec.sweep_key}={sweep_value:g}"
        for v in ec.violations(cfg):
            ok = False
            print(f"{label}: {v}")
    if ok:
        print(f"configuration valid ({len(points)} point{'s' if len(points) != 1 else ''})")
    return 0 if ok else 1


def command_oracle_check(args: argparse.Namespace) -> int:
    """Run the genetic search against exhaustive enumeration on a small config.

    Runs the base configuration with the exhaustive baseline, one trial per
    realization. A trial attains the optimum when the final raw score matches
    it to ORACLE_TOLERANCE (relative). Exits 0 only when the attainment
    fraction reaches ORACLE_ATTAINMENT.
    """
    import numpy as np

    from . import harness

    ec = _load_experiment(args)
    _check_out(args.out)
    result = harness.run_experiment(replace(ec, sweep_key=None, sweep_values=(), baselines=("exhaustive",)),
                                    workers=args.workers)
    if result.errors:
        raise ConfigError(result.errors[0].message)
    pt = result.points[0]
    size = search_space_size(pt.cfg)
    found, opt = pt.final_raws, pt.baseline_scores["exhaustive"]
    gaps = np.maximum(0.0, opt - found) / np.maximum(np.abs(opt), 1e-300)
    attained = int(np.count_nonzero(np.abs(found - opt) <= ORACLE_TOLERANCE * np.maximum(1.0, np.abs(opt))))
    fraction = attained / pt.realizations
    mean_gap = float(np.mean(gaps))
    print(f"search space: {size} ordered selections")
    print(f"trials: {pt.realizations}")
    print(f"attainment: {attained}/{pt.realizations} = {fraction:.4f} "
          f"(threshold {ORACLE_ATTAINMENT})")
    print(f"mean relative gap: {mean_gap:.3e}")
    report = harness._write_csv(Path(args.out) / "oracle_check.csv", {
        "trials": [str(pt.realizations)], "attained": [str(attained)], "attainment_fraction": [repr(fraction)],
        "mean_relative_gap": [repr(mean_gap)], "search_space": [str(size)]})
    print(f"wrote {report}")
    return 0 if fraction >= ORACLE_ATTAINMENT else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="beamsel",
                                     description="Beam selection experiments for multiuser MIMO initial access.")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="path to a key = value config file")
    common.add_argument("--set", dest="sets", action="append", default=[], metavar="KEY=VALUE",
                        help="override a config key (repeatable, applied after the file)")
    common.add_argument("--out", default="results", help="output directory (default: results)")
    common.add_argument("--seed", type=int, default=None, help="override the root seed")
    common.add_argument("--workers", type=int, default=1, help="parallel workers (default: 1)")
    sub.add_parser("run", parents=[common], help="run the base configuration")
    sub.add_parser("sweep", parents=[common], help="run every sweep point")
    sub.add_parser("convergence", parents=[common], help="run and report stopping iterations")
    sub.add_parser("oracle-check", parents=[common],
                   help="genetic search vs exhaustive enumeration on a small config")
    sub.add_parser("validate", parents=[common], help="validate the configuration and exit")
    return parser


_COMMANDS = {
    "run": command_run,
    "sweep": command_sweep,
    "convergence": command_convergence,
    "oracle-check": command_oracle_check,
    "validate": command_validate,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.workers < 1:
            raise ConfigError(f"workers must be at least 1, got {args.workers}")
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
