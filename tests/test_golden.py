"""Golden digests: every recipe's CSVs must match, byte for byte, across commits.

Acceptance criterion 11 only shows that two runs of the same code agree.
This test pins the bytes themselves, so a refactor that changes a number
anywhere in the pipeline fails here. Each recipe in configs/ runs through
the CLI with the overrides criterion 11 uses (realizations=3, N_it=25).

Only a declared stream-layout change (a deliberate change to how the random
streams are consumed) may update GOLDEN. Such an update is recorded in
CHANGES.md together with the reason. To print the digests of the current
code, run ``PYTHONPATH=src python tests/test_golden.py``.
"""

import hashlib
import sys
from pathlib import Path

import pytest

from beamsel.cli import main as cli_main

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
OVERRIDES = ("--set", "realizations=3", "--set", "N_it=25")

GOLDEN = {
    "amplifier_power_sweep.cfg": {
        "cdf.csv": "99c070a95c1fda3f54d28b3a5841f99c5fa024e854eca79d94bf5681b4b3954c",
        "convergence.csv": "3db25e306066f588ff292de097b1ea1566fbf2ec42216e5ee2fde7c5fcc567a3",
        "curve.csv": "c99466e08b53f41bb15c7b7187618cfc3e86497c5178ec7aef6dfbc349a03512",
        "curve_example.csv": "f22cdfc44bdf421a2211e35142c48851316700554888dd482ad039abf7c91144",
        "summary.csv": "60918eae6de61679565cbd292b457207ea3fd3bde0260d7e43bcc4b338669278",
    },
    "codebook_size_sweep.cfg": {
        "cdf.csv": "7ae1eebfff0a26dc1ed81f43f23dfb2fa0b161286f032bd3d0b2ab96b8a0cbfb",
        "convergence.csv": "ae158df15b538ff3f649527efc2add15395bf1764a6152315b056c910a8b5d4d",
        "curve.csv": "c127657079c7117e7007a20b58b0b3beb1e2df78fdbb7252272a91ae8e0629e2",
        "curve_example.csv": "fb13c38bc4dc42018418a7035a4be8930d0ea1bfa72052484e09d285b54a524c",
        "summary.csv": "b6ad10d2599c8cc3343c9743f08e0ee5d530f214ad0d6f884ea02246fb27bdfa",
    },
    "convergence_trace.cfg": {
        "cdf.csv": "2c2c11e4ca002d68d7494a10f0310ae3868494874a7f5f3eb8c0797a757cff37",
        "convergence.csv": "d434e8d7c1a1738d26ee754072bd6962a8bd2aae73a2eee6e189dcd37543f2af",
        "curve.csv": "fa5bd089437a23058dc24257009916b02257c83a44a351439b83a9bbee588a70",
        "curve_example.csv": "e583f3720df2163bc7eae8e2f17298b123dd854c84ff95c1bc3790e498929b85",
        "summary.csv": "adffc10d4ab3db8b53560614d5692e6a8ebb7a196e5fcbaa164892efe5a64117",
    },
    "outage_power_sweep.cfg": {
        "cdf.csv": "c611063fe6ebc1ed2624fbb113b3c1daaa126ecebf77b9713d0953cb055d8ea3",
        "convergence.csv": "8a61e2bd8b2f9fd9101208144b6b6cbebf239d20ce1b370190c4dcd5d08a4aec",
        "curve.csv": "9845dceacac0e77a4b6db9d5fd2d44b313d19fd38b0742f2c8f24e96982cdf47",
        "curve_example.csv": "0353d076c7230ab8cc59da7740b61d29387932a5aa7cedc23aba982f67cc56bd",
        "summary.csv": "b525813f60fa36cfdcf631dbf6c3bbda78e9c7414ab1fcd30273f6d0df959070",
    },
    "power_sweep.cfg": {
        "cdf.csv": "42e90dadbd14ea82dd2248d661e7f187c51df8de90208fa83339d8a641a61f08",
        "convergence.csv": "df9b1bb00dde1c4d8ad38c16c381319763ccfe05d97b7fbbf2b4b22e11d6a939",
        "curve.csv": "2de6e9c7d63ba2a32e9a2d3a8498250bc1857b211b159664b5ba6c1906b22cfb",
        "curve_example.csv": "42304c8f48bc51b17e62829c5f588abadc5ed9a8e6a076a07ccc5265f2927286",
        "summary.csv": "fd08e1fa12d0a92dfb038f471d5e48d86ec7e07ecf4054103587807b1db2b74a",
    },
    "served_users.cfg": {
        "cdf.csv": "66be3ac8c7361d2dae3ea0e7825073d4f2db72c3758df52016162d76bea9fe42",
        "convergence.csv": "e6d4c26882a026baaee36c5dd97e9b4a016a5d4f512e26dd60ca1d6271c706a7",
        "curve.csv": "6fa2fcbb7ae6dc8d1e0cbcbce875382a95ccec20a316a4312c6e79c8f2c5df91",
        "curve_example.csv": "ccaa6853fbf6694aae82b1a382f7a806d1d066af0282411143511b03b4b5629e",
        "summary.csv": "84c95f0469c73d3c406def91a1e71811026b187b54e2a389be240c94f296b6b6",
    },
    "stopping_iterations.cfg": {
        "cdf.csv": "c3b941a8024217932246fe2f53a14c3174908dbb6a95ca8727553fb565ca1596",
        "convergence.csv": "ed3284dd9f2e26bc0fac5d677957e2112f0796b426aef4260d53fa7c06c9fd2d",
        "curve.csv": "6ca54de36a1fe9feb052af9a274ef8746e5dd222ed50043e21016d6baf575c27",
        "curve_example.csv": "349beb25d286a527b16a0256a4ad69d77fe98f726282420c78419dce723934a6",
        "summary.csv": "404077b48e6cc8c57ee8a16ca77e3cd5e95eae295420e876b0cc7123af046801",
    },
}

# No recipe runs a baseline, so one more case shrinks power_sweep.cfg until
# exhaustive enumeration is cheap and turns both baselines on.
BASELINE_OVERRIDES = ("--set", "M=8", "--set", "N=3", "--set", "N_vec=16",
                      "--set", "baselines=random,exhaustive")
BASELINE_GOLDEN = {
    "baselines.csv": "014153e6a489d5eda118a71fe2c5bc5a57d6f57feab9d57cf8294e795a368429",
    "cdf.csv": "42d713918f37e5b48032ae60feee6e4b0e4aea2632159012176cdfce0e0bebfb",
    "convergence.csv": "b5a072590b7e5205c8f2dcf8afa6a5eab9e3cf270c47ba8ee3ec9cf0d21b2667",
    "curve.csv": "35349a683e95ad17f20b26f1cdce4225ce5ff25ea68809a17b85be949e788f5e",
    "curve_example.csv": "d1944bc448c0bf241869baf0a78b95d843dd7fe622607e6629f4649995c13d24",
    "summary.csv": "fef4df9312880d8b5379a1733817f8d7d25c8d3903ebc8cb2450f0f59dc2b1b1",
}


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
