"""Golden digests: every recipe's CSVs must match, byte for byte, across commits.

Acceptance criterion 11 only shows that two runs of the same code agree.
This test pins the bytes themselves, so a refactor that changes a number
anywhere in the pipeline fails here. Each recipe in configs/ runs through
the CLI with the overrides criterion 11 uses (realizations=3, N_it=25).

Only a declared behaviour change may update the digests below: a
stream-layout change (a deliberate change to how the random streams are
consumed, with a new search.STREAM_LAYOUT) or a deliberate change to what a
file reports. Such an update is recorded in CHANGES.md together with the
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
from beamsel import harness, search
from beamsel.search import EvalBatch, SelectionEvaluator, ga_run

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
    "baselines.csv": "4cbb0817ee001f34fe374021ad8693e6477d95ebfa2259e6ddc01001f5db1dc6",
    "cdf.csv": "700786500a07bd5d20c3c95fb3e46f446616d5bc13576f3ae85b4cc60808a7f0",
    "convergence.csv": "5629398e73cc8d7b929f406e29fbd723d41bc5f044056916401c35afdf452e45",
    "curve.csv": "a1bd6d4170932470786ee56f67a37cafb2f2599a53f2fd7dcf87cb104ed1d06c",
    "curve_example.csv": "85b3d22cb9f214105f035503910ec8e38cd7fdd503380fcffcbb6b1731c5381b",
    "summary.csv": "49c8cff6d256a392c5215a23701a376fe3f23f59e37bc12b6c6ae8a6c9216bc6",
}

# BASELINE_OVERRIDES runs the throughput objective only. This case pins the
# count objective (served count first, then sum rate, then the earliest
# member): the GA's queens follow its ranking every generation, and the
# baselines report the best served count over all of their chunks.
# served_users.cfg is shrunk until its whole theta_dB sweep enumerates cheaply.
COUNT_BASELINE_OVERRIDES = ("--set", "M=8", "--set", "N=4", "--set", "N_vec=16",
                            "--set", "N_it=50", "--set", "baselines=random,exhaustive")
COUNT_BASELINE_GOLDEN = {
    "baselines.csv": "6584603abeef0fd09dad634bc019069605acecd6ea2273844b2d8eadbbd40125",
    "cdf.csv": "345e902448fcd0a41cdc6e79197a2cf09134072c3103cc7ba4c8ccfa53100376",
    "convergence.csv": "81b5beb817ae937af65db40f32305dd5941e2e462c53c1c0900f9cda94bc1bdc",
    "curve.csv": "4aa5ee9c0589b448475db1235e02a931e5c9f0dd8458f536a0e34080db5c8427",
    "curve_example.csv": "64e140ad071962739ce1c938d5a4e76715b426186a8f15dfcfa569cf975785be",
    "summary.csv": "79045ae17a642d6038fadaef0e5cad2902a1864ea98909a22c1e6cbcdf534cee",
}

# COUNT_BASELINE_OVERRIDES ranks by served count, which a threshold moves
# only through its counts. Under outage_throughput every baseline ranks by
# the served users' rate sum, so this case pins that ranking under each of
# the sweep's thresholds.
OUTAGE_BASELINE_OVERRIDES = (*COUNT_BASELINE_OVERRIDES, "--set", "objective=outage_throughput")
OUTAGE_BASELINE_GOLDEN = {
    "baselines.csv": "cdce03be06294b82aaa68f1ae26488d79f807e52278379175ad1f650c979747b",
    "cdf.csv": "0cf9263a8e9b806b8a7e2783c8a0df35df5005d0a81eb2b3adde7dcb2c8712fb",
    "convergence.csv": "bdf698b633db404be9ae9842fc571d94f0d61afee576b4b2bca2d6c3ed985070",
    "curve.csv": "466d3388ffd318cb6ae1b5ff476fd1e89d2db599ff121696821aad3e2ac48dc5",
    "curve_example.csv": "8cccf675bfd0d2697fddd3a58c82803a74ca2a461d575ebbc87fac8d6d21345a",
    "summary.csv": "dec88cd14bbc5837e2a696a7404939d2f5b25857738be3f2e01e2ccea478c27b",
}

# numpy sums a row of fewer than 8 terms in order and a longer one pairwise,
# so the cases above leave the baselines' N >= 8 reductions unpinned. This
# count case runs them at N = 8, where exhaustive enumeration is still cheap.
N8_BASELINE_OVERRIDES = ("--set", "M=8", "--set", "N=8", "--set", "N_vec=9",
                         "--set", "baselines=random,exhaustive")
N8_BASELINE_GOLDEN = {
    "baselines.csv": "ed09081862008bc63716198f99b0bba442a2746f81600ec1d71e4f218d6a4252",
    "cdf.csv": "bfa70e9a1dafa985d588bd4d5f73a0295fe161af5789b333598f9fb372f54021",
    "convergence.csv": "b3ee34cf798d995fd135ae976be9e1fb62cce13047714f326499469e3b1eb7ae",
    "curve.csv": "816a77411726e2204430522ebc252bf32703a46dc28762ab98670b53a0da8b55",
    "curve_example.csv": "6aff0477db9ffd80be132d7605ae62fc5c749da53137d9171034f2e5cf811926",
    "summary.csv": "a23efcf6cb96f46617367476ffd933bf44041df4f1b5b45977dd9b9365cbc9a4",
}

# Every case above runs 3 realizations, and numpy sums fewer than 8 terms in
# order, so none of them pins how the means over realizations are reduced.
# These cases run 20, which numpy sums pairwise.
MANY_REALIZATIONS_CASES = {
    "count_baselines": ("served_users.cfg", (*COUNT_BASELINE_OVERRIDES, "--set", "realizations=20")),
    "throughput": ("power_sweep.cfg", ("--set", "realizations=20")),
}
MANY_REALIZATIONS_GOLDEN = {
    "count_baselines": {
        "baselines.csv": "3d6016febf6940957a3d21870b473bab7836ad283338851b2dbd942cbc94e927",
        "cdf.csv": "646b3081c868e39b910a4e4dce767e76d1348a458fda13ffacc8676129818a06",
        "convergence.csv": "fc7da2ea695260d0f11e6b7d321ef4535c321ea48d7d75994ba963202a3af349",
        "curve.csv": "3fd9e30ce19b32c943eb6fd2d77bee3ec43436a793656d98c958071ad1fa6749",
        "curve_example.csv": "64e140ad071962739ce1c938d5a4e76715b426186a8f15dfcfa569cf975785be",
        "summary.csv": "258d615a0fdace2b8e0cabab50f6f371ef80a2660c2dd42186e5b28004542f90",
    },
    "throughput": {
        "cdf.csv": "502330a803192887c8afcaee5aa8036e743e16d26aa51eb297b0c75b57600c75",
        "convergence.csv": "79954b0fd63470e743814c2ea6c4d76da1c9c9b2405c5bd77f41e5fadf2ccd1d",
        "curve.csv": "8cfb4e919e42972b1f3fbc25c285a419fc304d44d899f21d52c4ffe1778b4667",
        "curve_example.csv": "ffe46a6dc28e494db5f5f313a30553c61dd608e9cfe0a87f3ae75a6c5ef8ff9f",
        "summary.csv": "65b03d5770fca62bf86841909fcce89c33a6bb28583dfe88ed1634714787edae",
    },
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


GA_REALIZATIONS = 3


def ga_digest(shape: str) -> str:
    """SHA-256 of the queens and raw scores of GA_REALIZATIONS runs.

    The runs advance as one ga_run block and are hashed realization by
    realization, in the layout GA_GOLDEN was recorded in: the queens 1-based
    (queens + 1), then the raw scores twice, since the sum rate was both the
    raw score and the weighted base. The raw scores are the queens' sum
    rates, taken from queen_rates.
    """
    cfg = SystemConfig(**GA_SHAPES[shape], N_it=30, L=10, S=5, P_dB=10.0, seed=2024)
    evs = [SelectionEvaluator(cfg, realize_channel(cfg, r)) for r in range(GA_REALIZATIONS)]
    traj = ga_run(evs, [stream_rng(cfg.seed, r, STREAM_SEARCH) for r in range(GA_REALIZATIONS)])
    raw = EvalBatch(evs[0].kind, traj.queen_rates, evs[0]._min_rate).raw
    digest = hashlib.sha256()
    for r in range(GA_REALIZATIONS):
        for arr in (traj.queens[r] + 1, raw[r], raw[r]):
            digest.update(arr.tobytes())
    return digest.hexdigest()


def _key_chunk_bytes(generations: int, n_vec: int, block: int = GA_REALIZATIONS) -> int:
    """The KEY_CHUNK_BYTES at which a ga_run block draws `generations` generations' keys at once.

    With L = 10 and N_vec > 1, as in every case here, each later generation
    takes (L - 1) * N_vec keys of 8 bytes from each of the block's streams.
    """
    return generations * 8 * 9 * n_vec * block


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


def test_count_baseline_csvs_match_golden_digests(tmp_path):
    got = recipe_digests(CONFIG_DIR / "served_users.cfg", tmp_path, COUNT_BASELINE_OVERRIDES)
    assert got == COUNT_BASELINE_GOLDEN


def test_outage_baseline_csvs_match_golden_digests(tmp_path):
    got = recipe_digests(CONFIG_DIR / "served_users.cfg", tmp_path, OUTAGE_BASELINE_OVERRIDES)
    assert got == OUTAGE_BASELINE_GOLDEN


def test_n8_baseline_csvs_match_golden_digests(tmp_path):
    got = recipe_digests(CONFIG_DIR / "served_users.cfg", tmp_path, N8_BASELINE_OVERRIDES)
    assert got == N8_BASELINE_GOLDEN


@pytest.mark.parametrize("case", sorted(MANY_REALIZATIONS_CASES))
def test_many_realization_csvs_match_golden_digests(case, tmp_path):
    recipe, extra = MANY_REALIZATIONS_CASES[case]
    assert recipe_digests(CONFIG_DIR / recipe, tmp_path, extra) == MANY_REALIZATIONS_GOLDEN[case]


@pytest.mark.parametrize("shape", sorted(GA_GOLDEN))
def test_ga_run_matches_golden_digest(shape):
    assert ga_digest(shape) == GA_GOLDEN[shape]


@pytest.mark.parametrize("shape", [*sorted(GA_SHAPES), "single_column"])
def test_ga_block_matches_blocks_of_one(shape):
    # Every field of every realization has the same bits whether it runs in a
    # block of several or alone; the queens and their rates determine every
    # score. N_vec == 1 draws no mutation keys at all.
    cfg = SystemConfig(**GA_SHAPES.get(shape, dict(M=1, N=1, N_vec=1)), N_it=30, L=10, S=5,
                       P_dB=10.0, seed=2024)
    evs = [SelectionEvaluator(cfg, realize_channel(cfg, r)) for r in range(4)]
    block = ga_run(evs, [stream_rng(cfg.seed, r, STREAM_SEARCH) for r in range(4)])
    for r in range(4):
        alone = ga_run([evs[r]], [stream_rng(cfg.seed, r, STREAM_SEARCH)])
        for field in ("queens", "queen_rates"):
            assert getattr(block, field)[r].tobytes() == getattr(alone, field)[0].tobytes(), (r, field)


@pytest.mark.parametrize("generations", [1, 7])
def test_digests_hold_across_key_chunk_boundaries(generations, monkeypatch, tmp_path):
    # ga_run draws the keys of up to KEY_CHUNK_BYTES of generations at a time,
    # summed over its block, and every run above fits in one such chunk.
    # Chunks of 1 and 7 generations cross many boundaries, and 7 leaves a
    # partial last chunk. The recipe runs its 3 realizations as one block.
    for shape in sorted(GA_GOLDEN):
        monkeypatch.setattr(search, "KEY_CHUNK_BYTES", _key_chunk_bytes(generations, GA_SHAPES[shape]["N_vec"]))
        assert ga_digest(shape) == GA_GOLDEN[shape]
    monkeypatch.setattr(search, "KEY_CHUNK_BYTES", _key_chunk_bytes(generations, 16))
    got = recipe_digests(CONFIG_DIR / "served_users.cfg", tmp_path, COUNT_BASELINE_OVERRIDES)
    assert got == COUNT_BASELINE_GOLDEN


@pytest.mark.parametrize("recipe,extra", [
    ("power_sweep.cfg", ()),
    ("served_users.cfg", COUNT_BASELINE_OVERRIDES),
    ("served_users.cfg", OUTAGE_BASELINE_OVERRIDES),
], ids=["throughput", "count_baselines", "outage_baselines"])
def test_csvs_do_not_depend_on_block_size_or_workers(recipe, extra, monkeypatch, tmp_path):
    # run_experiment splits a group's realizations into lockstep blocks, one
    # per worker unless harness.BLOCK_CAP lanes bind. A power_sweep point is a
    # group of one; served_users' five thresholds are one group. Caps of 1
    # and 7 lanes (blocks of one realization for the group), 12 (blocks of
    # two realizations of the group, 10 of the 12 lanes) and 64, on 1 and 2
    # workers, must write the same bytes. 11 realizations leave a partial
    # last block: power_sweep's under cap 7, the group's under cap 12, and
    # both on 2 workers.
    extra = (*extra, "--set", "realizations=11")
    digests = {}
    for cap in (1, 7, 12, 64):
        monkeypatch.setattr(harness, "BLOCK_CAP", cap)
        for workers in ("1", "2"):
            out = tmp_path / f"cap{cap}-w{workers}"
            digests[cap, workers] = recipe_digests(CONFIG_DIR / recipe, out, (*extra, "--workers", workers))
    assert all(d == digests[1, "1"] for d in digests.values()), digests


if __name__ == "__main__":
    import contextlib
    import json
    import tempfile

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
        golden = {cfg.name: recipe_digests(cfg, Path(tmp) / cfg.stem)
                  for cfg in sorted(CONFIG_DIR.glob("*.cfg"))}
        baseline = recipe_digests(CONFIG_DIR / "power_sweep.cfg", Path(tmp) / "baselines",
                                  BASELINE_OVERRIDES)
        count_baseline = recipe_digests(CONFIG_DIR / "served_users.cfg",
                                        Path(tmp) / "count_baselines", COUNT_BASELINE_OVERRIDES)
        outage_baseline = recipe_digests(CONFIG_DIR / "served_users.cfg",
                                         Path(tmp) / "outage_baselines", OUTAGE_BASELINE_OVERRIDES)
        n8_baseline = recipe_digests(CONFIG_DIR / "served_users.cfg",
                                     Path(tmp) / "n8_baselines", N8_BASELINE_OVERRIDES)
        many = {case: recipe_digests(CONFIG_DIR / recipe, Path(tmp) / f"many_{case}", extra)
                for case, (recipe, extra) in sorted(MANY_REALIZATIONS_CASES.items())}
    print("GOLDEN =", json.dumps(golden, indent=4))
    print("BASELINE_GOLDEN =", json.dumps(baseline, indent=4))
    print("COUNT_BASELINE_GOLDEN =", json.dumps(count_baseline, indent=4))
    print("OUTAGE_BASELINE_GOLDEN =", json.dumps(outage_baseline, indent=4))
    print("N8_BASELINE_GOLDEN =", json.dumps(n8_baseline, indent=4))
    print("MANY_REALIZATIONS_GOLDEN =", json.dumps(many, indent=4))
    print("GA_GOLDEN =", json.dumps({shape: ga_digest(shape) for shape in sorted(GA_SHAPES)},
                                    indent=4))
