"""Golden digests: every recipe's CSVs must match, byte for byte, across commits.

Acceptance criterion 11 only shows that two runs of the same code agree.
This test pins the bytes themselves, so a refactor that changes a number
anywhere in the pipeline fails here. Each recipe in configs/ runs through
the CLI with the overrides criterion 11 uses (realizations=3, N_it=25).

Only a declared stream-layout change (a deliberate change to how the random
streams are consumed, with a new search.STREAM_LAYOUT) may update the
digests below. Such an update is recorded in CHANGES.md together with the
reason. To print the digests of the current
code, run ``PYTHONPATH=src python tests/test_golden.py``.
"""

import hashlib
import sys
from pathlib import Path

import pytest

from beamsel.channel import STREAM_SEARCH, realize_channel, stream_rng
from beamsel.cli import main as cli_main
from beamsel.core import SystemConfig
from beamsel.search import SelectionEvaluator, ga_run

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
OVERRIDES = ("--set", "realizations=3", "--set", "N_it=25")

GOLDEN = {
    "amplifier_power_sweep.cfg": {
        "cdf.csv": "21ad182bd7ba9ee86b4f8e3813c80d367284217cb7e36b46d85de3423e75e7e9",
        "convergence.csv": "ea41735b96903b2a598efdffe625e02ce97233f591773513ca6a9d2fbea719f2",
        "curve.csv": "536293476d62b3edf455b8907123d614e8b0143922b02896ce6997d997934365",
        "curve_example.csv": "650c4ea5e1bd69d48217b4299cfd8c5630f9512ebb57447b149c9ae06a12b032",
        "summary.csv": "b057334d023ef699e6de2f7a38a5886201893ce3c59c338b04c135a59a11dcef",
    },
    "codebook_size_sweep.cfg": {
        "cdf.csv": "de45077dc2c60c2f9bcc23540a36b8899e86de0bb2e302d07c035e0ba7afe7b0",
        "convergence.csv": "32dc285e7d64416867fb3cd01398e4b807a4e26da1eb43e0c47bdbba431b897e",
        "curve.csv": "43f7073903e04a043ec9b78057c013ae3134e673105c3c45ffba592d9c089fdb",
        "curve_example.csv": "a1808a2a81b243cd0d11f3d68ef75835a00e965980393af034be8d63998b88a6",
        "summary.csv": "7a8b6ca5838de6461652a95dd70271cefc54b6a162ee696864d87d7549175ddd",
    },
    "convergence_trace.cfg": {
        "cdf.csv": "77e324096eaf170cd04ba09c29efe63fe1c143eba483aaef6d682747ccc617e5",
        "convergence.csv": "969bfab857dd8471a7a330b9804b8ab99cc3e08f41969aadae11c8bd49917b0c",
        "curve.csv": "c0eb701a9ca424fee8d7ee61fad73d86763114514f1b11dd7c97b90f5927ceea",
        "curve_example.csv": "3cb8071f7303c0ef98a0eba0b56da041bd317aa72f9708ad567091afb8a75032",
        "summary.csv": "d9ebbd1892d38942bf5609f803f60ad9b5ab4eb646f37bb69fda25663cde1511",
    },
    "outage_power_sweep.cfg": {
        "cdf.csv": "5a5e00c1e7c41c38457e1fc8d47b2ed9f73655dbfb80bcc6404f49fff4f59aa2",
        "convergence.csv": "97e865269761dc5e4878c8063daea3eb493d6150c43ca24f361f77a8e2ddc567",
        "curve.csv": "9b634a6890853eaf94794afd53ae2934b560f41cc0ae9e868ea7edb435b490d1",
        "curve_example.csv": "f8807fe85833af2e2d45d9826e26f4ed3261350defced6d4f542d88216fc0049",
        "summary.csv": "311ddb3f2c813125c0d47dda2084b83b54e3f05b94cc7dbcd4817c619e03a987",
    },
    "power_sweep.cfg": {
        "cdf.csv": "d1acfc3b1580f4aab5c58e1f6ad9cc5773559b03d37ff009b9e0e2a116595c05",
        "convergence.csv": "a52b14b074c92f1ad4ed02d2bfdc4c54cfdc6067c60222001c0bdcb4e3aa65ff",
        "curve.csv": "5333eb1d816f0aa5572966ba7754a30f61e01af7580cc40e4c6afcd096879cd5",
        "curve_example.csv": "ffe46a6dc28e494db5f5f313a30553c61dd608e9cfe0a87f3ae75a6c5ef8ff9f",
        "summary.csv": "372fc81b3a40487b23e7dba1ffc208fa542cc132551e81394a9d524f54313789",
    },
    "served_users.cfg": {
        "cdf.csv": "cbe0102dd19776185fe307c2fc15aa18d3d276d8eeeeaefdfa1068cff7b0207a",
        "convergence.csv": "e683d3ba656a6083a1d13f8490e44ab7627997244e99ef121498db7b15ba2c5e",
        "curve.csv": "6d72a58ab653fb7108523afcf187638366d50647b240cd82a08631865a6f61e5",
        "curve_example.csv": "2d775ead0cf48d30c80603071bcfd1068ad5febd9398abde5cc0f912b48308b6",
        "summary.csv": "047f6c80aaadc3b1a056b7965d70e7abd12f5f0a39c16aa0c857885470d217c1",
    },
    "stopping_iterations.cfg": {
        "cdf.csv": "793c560d1bacf82a606daab00b41856e5df5dc217d15f63dd4645cfec5f702c4",
        "convergence.csv": "3a67893aee3ba231eade5180be5105d3c96cd6f9cf7dc99acfa780fa6b80f743",
        "curve.csv": "db7c7fa14069f9b321e7dbe357f50f852e2a9d660717215dbb3d94f64d9d9ae3",
        "curve_example.csv": "7beaab43c6b426a56acfe2bc58d4a30b7e7b8e2663f445bbbbbeab4c6a919b9b",
        "summary.csv": "c4861f1b039d54ad31586887fb200a427e535ecad127282ce4319c4aefc70e02",
    },
}

# No recipe runs a baseline, so one more case shrinks power_sweep.cfg until
# exhaustive enumeration is cheap and turns both baselines on.
BASELINE_OVERRIDES = ("--set", "M=8", "--set", "N=3", "--set", "N_vec=16",
                      "--set", "baselines=random,exhaustive")
BASELINE_GOLDEN = {
    "baselines.csv": "ac9bea7c6ff9cc9675315d6d1891edead36750848d21f572b2c1d0fbea01592b",
    "cdf.csv": "700786500a07bd5d20c3c95fb3e46f446616d5bc13576f3ae85b4cc60808a7f0",
    "convergence.csv": "5629398e73cc8d7b929f406e29fbd723d41bc5f044056916401c35afdf452e45",
    "curve.csv": "a1bd6d4170932470786ee56f67a37cafb2f2599a53f2fd7dcf87cb104ed1d06c",
    "curve_example.csv": "85b3d22cb9f214105f035503910ec8e38cd7fdd503380fcffcbb6b1731c5381b",
    "summary.csv": "49c8cff6d256a392c5215a23701a376fe3f23f59e37bc12b6c6ae8a6c9216bc6",
}


# Every recipe replaces one slot per mutation from a codebook with spare
# columns. These ga_run cases pin the other mutation shapes: several slots
# (mutation_fraction=0.5), every slot with fewer spare columns than slots,
# and the swap of a full codebook (N == N_vec).
GA_SHAPES = {
    "half_of_the_slots": dict(M=8, N=4, N_vec=16, mutation_fraction=0.5),
    "few_spare_columns": dict(M=8, N=6, N_vec=8, mutation_fraction=1.0),
    "full_codebook_swap": dict(M=6, N=6, N_vec=6),
}
GA_GOLDEN = {
    "few_spare_columns": "bf4ede067c72abafd57ae4e7701657f6a212a1289093be804fc33013445911a9",
    "full_codebook_swap": "823f496c0246089170ffb3ceb43aa7dfee178e752c9d1def9545b0bd43eb43a6",
    "half_of_the_slots": "92c2a5083c4ebc05db1eb4674a454cd815d79a28d8f2ed666dda13f84aa71440",
}


def ga_digest(shape: str) -> str:
    """SHA-256 of the queens, raw scores and weighted bases of three ga_run calls."""
    cfg = SystemConfig(**GA_SHAPES[shape], N_it=30, L=10, S=5, P_dB=10.0, seed=2024)
    digest = hashlib.sha256()
    for r in range(3):
        traj = ga_run(SelectionEvaluator(cfg, realize_channel(cfg, r)),
                      stream_rng(cfg.seed, r, STREAM_SEARCH))
        for arr in (traj.queens, traj.raw_scores, traj.weighted_bases):
            digest.update(arr.tobytes())
    return digest.hexdigest()


def _command(cfg_path: Path) -> str:
    has_sweep = any(line.split("#")[0].strip().split("=")[0].strip() == "sweep"
                    for line in cfg_path.read_text().splitlines())
    return "sweep" if has_sweep else "run"


def recipe_digests(cfg_path: Path, out: Path, extra: tuple[str, ...] = ()) -> dict[str, str]:
    """Run one recipe and return {csv name: SHA-256 hex digest}."""
    code = cli_main([_command(cfg_path), "--config", str(cfg_path), *OVERRIDES, *extra,
                     "--out", str(out)])
    assert code == 0, f"{cfg_path.name} exited {code}"
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.glob("*.csv"))}


def test_every_recipe_has_a_golden_entry():
    assert sorted(p.name for p in CONFIG_DIR.glob("*.cfg")) == sorted(GOLDEN)


@pytest.mark.parametrize("recipe", sorted(GOLDEN))
def test_recipe_csvs_match_golden_digests(recipe, tmp_path):
    assert recipe_digests(CONFIG_DIR / recipe, tmp_path) == GOLDEN[recipe]


def test_baseline_csvs_match_golden_digests(tmp_path):
    got = recipe_digests(CONFIG_DIR / "power_sweep.cfg", tmp_path, BASELINE_OVERRIDES)
    assert got == BASELINE_GOLDEN


@pytest.mark.parametrize("shape", sorted(GA_GOLDEN))
def test_ga_run_matches_golden_digest(shape):
    assert ga_digest(shape) == GA_GOLDEN[shape]


if __name__ == "__main__":
    import contextlib
    import json
    import tempfile

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
        golden = {cfg.name: recipe_digests(cfg, Path(tmp) / cfg.stem)
                  for cfg in sorted(CONFIG_DIR.glob("*.cfg"))}
        baseline = recipe_digests(CONFIG_DIR / "power_sweep.cfg", Path(tmp) / "baselines",
                                  BASELINE_OVERRIDES)
    print("GOLDEN =", json.dumps(golden, indent=4))
    print("BASELINE_GOLDEN =", json.dumps(baseline, indent=4))
    print("GA_GOLDEN =", json.dumps({shape: ga_digest(shape) for shape in sorted(GA_SHAPES)},
                                    indent=4))
