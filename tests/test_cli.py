import ast
import graphlib
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from beamsel import harness
from beamsel.channel import STREAM_SEARCH, realize_channel, stream_rng
from beamsel.cli import (
    _load_experiment,
    apply_cli_overrides,
    build_parser,
    main,
    parse_config,
)
from beamsel.config import search_space_size
from beamsel.core import ConfigError, ObjectiveKind
from beamsel.search import SelectionEvaluator, exhaustive_search, ga_run

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"
SRC_DIR = ROOT / "src"

FULL_CONFIG = """\
# antenna array and users
M = 32
N = 8
N_vec = 128          # oversampled codebook
k = 1.0
beta = 0.2
P_dB = 10
alpha = 0.001
N_it = 50
L = 10
S = 5
mutation_fraction = 0.1
theta_dB = -100
realizations = 3
seed = 4242
pa_epsilon = 1.0
pa_mu = 0.0
pa_rho_max_dB = inf

objective = throughput
sweep = k
sweep_values = 0, 1, 3
baselines = random
convergence_tol = 0.05
"""

TINY_CONFIG = """\
M = 8
N = 2
N_vec = 16
N_it = 20
realizations = 2
seed = 11
"""


def _write(tmp_path, text, name="exp.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_parse_config_full_file(tmp_path):
    ec = parse_config(_write(tmp_path, FULL_CONFIG))
    assert ec.base.M == 32
    assert ec.base.N_vec == 128
    assert ec.base.k == 1.0
    assert ec.base.seed == 4242
    assert ec.base.pa_epsilon == 1.0
    assert ec.objective_kind is ObjectiveKind.THROUGHPUT
    assert ec.sweep_key == "k"
    assert ec.sweep_values == (0.0, 1.0, 3.0)
    assert ec.baselines == ("random",)
    assert ec.convergence_tol == 0.05
    assert len(ec.points()) == 3


def test_parse_config_missing_required(tmp_path):
    p = _write(tmp_path, "M = 8\nN_vec = 16\n")
    with pytest.raises(ConfigError, match="missing required keys: N"):
        parse_config(p)


def test_parse_config_unknown_key_reports_line(tmp_path):
    p = _write(tmp_path, "M = 8\nN = 2\nN_vec = 16\nbandwidth = 20\n")
    with pytest.raises(ConfigError, match=r"exp\.cfg:4"):
        parse_config(p)


def test_parse_config_duplicate_key_reports_both_lines(tmp_path):
    p = _write(tmp_path, "M = 8\nN = 2\nN_vec = 16\nM = 16\n")
    with pytest.raises(ConfigError, match=r":4: duplicate key 'M' \(first set on line 1\)"):
        parse_config(p)


def test_parse_config_malformed_line(tmp_path):
    p = _write(tmp_path, "M = 8\nN = 2\nN_vec 16\n")
    with pytest.raises(ConfigError, match=r"exp\.cfg:3"):
        parse_config(p)


def test_parse_config_bad_value_reports_line(tmp_path):
    p = _write(tmp_path, "M = 8\nN = 2\nN_vec = wide\n")
    with pytest.raises(ConfigError, match=r"exp\.cfg:3"):
        parse_config(p)


def test_parse_config_missing_file():
    with pytest.raises(ConfigError, match="cannot read config file"):
        parse_config("/nonexistent/exp.cfg")


def test_cli_overrides(tmp_path):
    ec = parse_config(_write(tmp_path, TINY_CONFIG))
    out = apply_cli_overrides(ec, ("M=16", "objective=outage_count", "theta_dB=-2",
                                   "sweep=P_dB", "sweep_values=0,5", "convergence_tol=0.1"))
    assert out.base.M == 16
    assert out.base.theta_dB == -2.0
    assert out.objective_kind is ObjectiveKind.OUTAGE_COUNT
    assert out.sweep_key == "P_dB"
    assert out.sweep_values == (0.0, 5.0)
    assert out.convergence_tol == 0.1
    with pytest.raises(ConfigError):
        apply_cli_overrides(ec, ("M",))
    with pytest.raises(ConfigError):
        apply_cli_overrides(ec, ("bandwidth=20",))
    for bad in ("objective=bogus", "sweep_values=a,b", "convergence_tol=x"):
        with pytest.raises(ConfigError, match="--set"):
            apply_cli_overrides(ec, (bad,))


def test_seed_flag_wins_over_file_and_set(tmp_path):
    p = _write(tmp_path, TINY_CONFIG)
    args = build_parser().parse_args(["run", "--config", str(p), "--set", "seed=99", "--seed", "123"])
    ec = _load_experiment(args)
    assert ec.base.seed == 123


def test_workers_below_one_exits_one(tmp_path, capsys):
    p = _write(tmp_path, TINY_CONFIG)
    assert build_parser().parse_args(["run", "--config", str(p)]).workers == 1
    assert main(["run", "--config", str(p), "--out", str(tmp_path / "out"), "--workers", "0"]) == 1
    assert "error: workers must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_main_requires_subcommand():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_validate_command(tmp_path, capsys):
    p = _write(tmp_path, TINY_CONFIG)
    assert main(["validate", "--config", str(p)]) == 0
    assert "configuration valid" in capsys.readouterr().out
    assert main(["validate", "--config", str(p), "--set", "N=20"]) == 1
    assert "N <= M" in capsys.readouterr().out
    rejected = [
        (("pa_mu=1", "pa_rho_max_dB=30"), "pa_mu < 1"),
        (("pa_mu=0.5",), "finite saturation power"),
        (("P_dB=60", "pa_epsilon=0.5", "pa_mu=0.5", "pa_rho_max_dB=10"), "SaturationError"),
        (("M=32", "N=8", "N_vec=128", "baselines=exhaustive"), "exhaustive baseline"),
        (("theta_dB=nan",), "theta_dB must not be NaN"),
        (("theta_dB=4000",), "OverflowError: 4000.0 dB"),
    ]
    for sets, message in rejected:
        argv = ["validate", "--config", str(p)]
        for item in sets:
            argv += ["--set", item]
        assert main(argv) == 1
        assert message in capsys.readouterr().out
    # --seed reaches the same seed rule as --set seed=...
    for argv in (["--seed", "-1"], ["--set", "seed=-1"]):
        assert main(["validate", "--config", str(p), *argv]) == 1
        assert "seed must fit in an unsigned 64-bit integer" in capsys.readouterr().out
    assert main(["validate", "--config", str(p), "--set", "objective=bogus"]) == 1
    assert "error: --set: " in capsys.readouterr().err
    assert main(["validate", "--config", str(p), "--set", "baselines=random,random"]) == 1
    assert "error: baselines lists a name more than once" in capsys.readouterr().err


def test_integer_sweep_value_past_float_precision_is_refused(tmp_path, capsys):
    # Sweep values are read as floats, which would run 2**53 + 1 as 2**53;
    # --set keeps an integer key exact.
    p = _write(tmp_path, TINY_CONFIG + "sweep = seed\nsweep_values = 9007199254740993\n")
    assert main(["validate", "--config", str(p)]) == 1
    captured = capsys.readouterr()
    assert "configuration valid" not in captured.out
    assert "error: key 'seed' takes an integer, got 9007199254740992.0" in captured.err
    assert main(["validate", "--config", str(_write(tmp_path, TINY_CONFIG)),
                 "--set", "seed=9007199254740993"]) == 0
    assert _load_experiment(build_parser().parse_args(
        ["run", "--config", str(p), "--set", "seed=9007199254740993"])).base.seed == 2**53 + 1


@pytest.mark.parametrize("command", ["run", "sweep", "convergence", "oracle-check"])
def test_out_that_cannot_be_a_directory_is_refused_before_running(tmp_path, capsys, monkeypatch, command):
    def no_run(*args, **kwargs):
        raise AssertionError("a realization ran")

    monkeypatch.setattr(harness, "run_experiment", no_run)
    p = _write(tmp_path, TINY_CONFIG + "sweep = P_dB\nsweep_values = 0, 10\n")
    taken = tmp_path / "taken"
    taken.write_text("not a directory")
    for out in (taken, taken / "below"):
        assert main([command, "--config", str(p), "--out", str(out)]) == 1
        assert f"error: --out {out}: {taken} exists and is not a directory" in capsys.readouterr().err
    assert taken.read_text() == "not a directory"


def test_validate_reports_each_sweep_point(tmp_path, capsys):
    p = _write(tmp_path, TINY_CONFIG + "sweep = N\nsweep_values = 2, 20\n")
    assert main(["validate", "--config", str(p)]) == 1
    out = capsys.readouterr().out
    assert "sweep point N=20" in out


# Runs in a fresh interpreter: `validate`, then the parse, --set override and
# per-point validation that the benchmark's set-up probe times.
NO_NUMPY_SCRIPT = """\
import sys
from beamsel import cli
from beamsel.core import validate_config

recipe = sys.argv[1]
assert cli.main(["validate", "--config", recipe]) == 0
ec = cli.apply_cli_overrides(cli.parse_config(recipe), ("seed=3",))
assert ec.base.seed == 3
assert not [v for _, cfg in ec.points() for v in validate_config(cfg)]
sys.exit("numpy was imported" if "numpy" in sys.modules else 0)
"""


@pytest.mark.parametrize("recipe", sorted(p.name for p in CONFIG_DIR.glob("*.cfg")))
def test_validating_a_recipe_imports_no_numpy(recipe):
    path = os.pathsep.join(filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", NO_NUMPY_SCRIPT, str(CONFIG_DIR / recipe)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "configuration valid" in proc.stdout


def test_package_modules_import_one_another_without_a_cycle():
    # Every relative import in a package module, at any depth (a function-local
    # import too), is an edge of the module graph; prepare() raises CycleError
    # naming the modules of a cycle.
    modules = {path.stem: path for path in (SRC_DIR / "beamsel").glob("*.py")}
    graph = {}
    for name, path in modules.items():
        targets = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                targets.update([node.module.split(".")[0]] if node.module else [a.name for a in node.names])
        graph[name] = targets & modules.keys()
    assert graph["cli"] >= {"config", "core", "harness"}  # the walk sees the function-local imports
    graphlib.TopologicalSorter(graph).prepare()


def test_run_command_writes_results(tmp_path, capsys):
    p = _write(tmp_path, TINY_CONFIG)
    out_dir = tmp_path / "results"
    code = main(["run", "--config", str(p), "--out", str(out_dir)])
    assert code == 0
    for name in ["curve.csv", "curve_example.csv", "summary.csv", "cdf.csv",
                 "convergence.csv", "provenance.json"]:
        assert (out_dir / name).exists()
    # single point, no sweep: summary has exactly one data row
    assert len((out_dir / "summary.csv").read_text().splitlines()) == 2
    assert "wrote" in capsys.readouterr().out


def test_run_command_ignores_declared_sweep(tmp_path, capsys):
    p = _write(tmp_path, TINY_CONFIG + "sweep = k\nsweep_values = 0, 1\n")
    out_dir = tmp_path / "results"
    assert main(["run", "--config", str(p), "--out", str(out_dir)]) == 0
    captured = capsys.readouterr()
    assert "executes only the base configuration" in captured.err
    assert len((out_dir / "summary.csv").read_text().splitlines()) == 2


def test_sweep_command_runs_every_point(tmp_path):
    p = _write(tmp_path, TINY_CONFIG + "sweep = P_dB\nsweep_values = 0, 10\n")
    out_dir = tmp_path / "results"
    assert main(["sweep", "--config", str(p), "--out", str(out_dir)]) == 0
    summary = (out_dir / "summary.csv").read_text().splitlines()
    assert len(summary) == 3
    assert summary[1].startswith("0.0,")
    assert summary[2].startswith("10.0,")


def test_sweep_command_requires_sweep(tmp_path, capsys):
    p = _write(tmp_path, TINY_CONFIG)
    assert main(["sweep", "--config", str(p)]) == 1
    assert "error:" in capsys.readouterr().err


def test_convergence_command_prints_table(tmp_path, capsys):
    p = _write(tmp_path, TINY_CONFIG)
    out_dir = tmp_path / "results"
    assert main(["convergence", "--config", str(p), "--out", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert "avg_K*" in out
    assert "alpha=0" in out


def test_cli_outputs_are_deterministic(tmp_path):
    p = _write(tmp_path, TINY_CONFIG)
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(p), "--out", str(dir_a)]) == 0
    assert main(["run", "--config", str(p), "--out", str(dir_b)]) == 0
    for name in ["curve.csv", "summary.csv", "cdf.csv"]:
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


def test_seed_flag_changes_results(tmp_path):
    p = _write(tmp_path, TINY_CONFIG)
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(p), "--out", str(dir_a)]) == 0
    assert main(["run", "--config", str(p), "--out", str(dir_b), "--seed", "999"]) == 0
    assert (dir_a / "summary.csv").read_bytes() != (dir_b / "summary.csv").read_bytes()


def test_invalid_config_exits_one(tmp_path, capsys):
    p = _write(tmp_path, "M = 8\nN = 20\nN_vec = 16\nrealizations = 1\n")
    assert main(["run", "--config", str(p), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "FAILED" in err or "error:" in err


def test_oracle_check_small_config(tmp_path, capsys):
    cfg = "M = 4\nN = 2\nN_vec = 8\nN_it = 50\nrealizations = 20\nseed = 3\n"
    p = _write(tmp_path, cfg)
    out_dir = tmp_path / "oracle"
    code = main(["oracle-check", "--config", str(p), "--out", str(out_dir)])
    out = capsys.readouterr().out
    assert "search space: 56 ordered selections" in out
    assert "attainment:" in out
    assert code == 0
    report = (out_dir / "oracle_check.csv").read_text().splitlines()
    assert report[0].startswith("trials,attained")
    assert report[1].startswith("20,")


def _oracle_check_row(ec, tolerance=1e-9) -> str:
    """oracle_check.csv's data row, built one trial at a time from the search functions."""
    cfg = ec.base
    attained, gaps = 0, []
    for r in range(cfg.realizations):
        ev = SelectionEvaluator(cfg, realize_channel(cfg, r), ec.objective_kind)
        ((_, opt),) = exhaustive_search(ev)
        traj = ga_run([ev], [stream_rng(cfg.seed, r, STREAM_SEARCH)])
        found = float(ev.evaluate(traj.queens[0, -1]).raw[0])
        gaps.append(max(0.0, opt - found) / max(abs(opt), 1e-300))
        attained += abs(found - opt) <= tolerance * max(1.0, abs(opt))
    fraction = attained / cfg.realizations
    return (f"{cfg.realizations},{attained},{fraction!r},{float(np.mean(gaps))!r},"
            f"{search_space_size(cfg)}")


@pytest.mark.parametrize("cfg", [
    "M = 4\nN = 2\nN_vec = 8\nN_it = 50\nrealizations = 12\nseed = 3\n",
    # Fails its threshold: the count objective at theta 0 dB misses some optima.
    "M = 8\nN = 4\nN_vec = 16\nN_it = 30\ntheta_dB = 0\nobjective = outage_count\n"
    "realizations = 6\nseed = 5\nsweep = P_dB\nsweep_values = 0, 10\nbaselines = random\n",
])
def test_oracle_check_matches_direct_loop(tmp_path, cfg):
    p = _write(tmp_path, cfg)
    want = _oracle_check_row(parse_config(p))
    reports = []
    for workers in ("1", "2"):
        out_dir = tmp_path / f"w{workers}"
        code = main(["oracle-check", "--config", str(p), "--out", str(out_dir), "--workers", workers])
        report = (out_dir / "oracle_check.csv").read_bytes()
        assert report.decode().splitlines()[1] == want
        assert code == (0 if float(want.split(",")[2]) >= 0.95 else 1)
        reports.append(report)
    assert reports[0] == reports[1]


def test_oracle_check_refuses_huge_space(tmp_path, capsys):
    cfg = "M = 32\nN = 8\nN_vec = 128\nrealizations = 1\n"
    p = _write(tmp_path, cfg)
    assert main(["oracle-check", "--config", str(p), "--out", str(tmp_path / "o")]) == 1
    assert "error:" in capsys.readouterr().err


def test_full_scale_single_realization_is_quick(tmp_path):
    cfg = "M = 32\nN = 8\nN_vec = 128\nN_it = 500\nrealizations = 1\nseed = 1\n"
    p = _write(tmp_path, cfg)
    t0 = time.perf_counter()
    assert main(["run", "--config", str(p), "--out", str(tmp_path / "r")]) == 0
    assert time.perf_counter() - t0 < 10.0
