"""Golden outputs: the reproducibility contract, byte for byte.

For a given seed and BLAS kernel ``report.csv``, ``analysis.csv`` and the
files of ``generate`` must not change by a single byte unless a change to
the numbers is intended and stated.  The digests below were recorded with
the numpy and scipy versions named next to them; other versions may
legitimately round differently, so the test skips there, saying why,
instead of failing.  The kernel that numpy's bundled OpenBLAS picks for the
CPU moves the rounding of ``simulate`` and ``analyze``, so their digests
are keyed by its name: a kernel with none recorded fails, naming it.  The
Haswell and SkylakeX digests are also checked in a subprocess that forces
that kernel, where the CPU can run it.
"""

import hashlib
import json
import subprocess
import sys

import numpy
import pytest
import scipy

from conftest import KERNEL_FLAGS, cpu_has, golden, kernel_env
from crtiv import cli

RECORDED_WITH = {"numpy": "2.4.6", "scipy": "1.17.1"}
# By OpenBLAS kernel: the kernel the CPU picks, or OPENBLAS_CORETYPE sets.
GOLDEN = {
    "SkylakeX": {
        # simulate, default scenario, seed 1, 40 replicates, one or two workers
        "report.csv": "1e6d76a3b83a25a8a35d78e31676090fb7e6ea031749262dbdb41359ea6ea849",
        # analyze --adjust-x x_1 --adjust-w w_1 on the default scenario's trial for seed 1
        "analysis.csv": "499c0b94a283efaecab830285d9f2edc769bf1decbe0fb1171b2f840d12c46d1",
        # the same, on that trial with a byte order mark and CRLF line ends
        "analysis.csv bom crlf": (
            "499c0b94a283efaecab830285d9f2edc769bf1decbe0fb1171b2f840d12c46d1"
        ),
        # the same, on that trial with its first cluster id quoted and holding a comma
        "analysis.csv quoted id": (
            "499c0b94a283efaecab830285d9f2edc769bf1decbe0fb1171b2f840d12c46d1"
        ),
        # the same, on that trial with its last cluster's rows moved to the top:
        # cluster order then differs from first-seen order, and the x adjustment,
        # a fit over rows, sees them in a new order
        "analysis.csv last cluster first": (
            "bd704132b7c75bb8646517b7d8d2ac29dfb11c6755c412853d49d9c1edea6de3"
        ),
    },
    # The same runs under OpenBLAS's AVX2 kernels.
    "Haswell": {
        "report.csv": "0f277b9155fa7fe109f568462d6036370cbcf55a488f40f51b52adaa6910b259",
        "analysis.csv": "069d8bdbc5f82258488354aabe17109a1d2fc5be336f958a3bcee98a40c86be5",
        "analysis.csv bom crlf": (
            "069d8bdbc5f82258488354aabe17109a1d2fc5be336f958a3bcee98a40c86be5"
        ),
        "analysis.csv quoted id": (
            "069d8bdbc5f82258488354aabe17109a1d2fc5be336f958a3bcee98a40c86be5"
        ),
        "analysis.csv last cluster first": (
            "a3929a90296c64a373559350b0d2e2ba8c8039b8421daffbd744c1d0a37f3430"
        ),
    },
}
# generate, default scenario, seed 1: the same on every kernel tried
# (SkylakeX, Haswell, Nehalem, Prescott), so not keyed by one
GENERATED = {
    "trial.csv": "abb6b2321d35b8d0d2c23e01d8d586af47293975df04c8576edfa7979bd22f53",
    "truth_clusters.csv": "8d4d452b6dc0f6e25ad15a4462e6a71af74b5b982a512b9fa444b9216f43e7a6",
    "truth_individuals.csv": "27de0b55d9d7355b1e83b5b70fa619cad83a207dd92db604317f38ad80da824e",
}


@pytest.fixture(autouse=True)
def recorded_versions():
    running = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    if running != RECORDED_WITH:
        pytest.skip(f"digests recorded with {RECORDED_WITH}, running {running}")


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture
def default_scenario(tmp_path):
    scenario = tmp_path / "scenario.txt"
    scenario.write_text("", encoding="utf-8")
    return scenario


# The same digest on the worker pool: the report does not depend on --threads.
@pytest.mark.parametrize("threads", ["1", "2"])
def test_simulate_report_is_byte_identical_to_the_recorded_one(
    tmp_path, default_scenario, threads
):
    out = tmp_path / "sim"
    argv = ["simulate", "--scenario", str(default_scenario), "--output-dir", str(out)]
    assert cli.main(argv + ["--replicates", "40", "--seed", "1", "--threads", threads]) == 0
    assert sha256(out / "report.csv") == golden(GOLDEN)["report.csv"]


def test_generate_outputs_are_byte_identical_to_the_recorded_ones(tmp_path, default_scenario):
    out = tmp_path / "gen"
    argv = ["generate", "--scenario", str(default_scenario), "--output-dir", str(out)]
    assert cli.main(argv + ["--seed", "1"]) == 0
    assert {name: sha256(out / name) for name in GENERATED} == GENERATED


def analyze_digest(tmp_path, scenario, edit=None) -> str:
    """Digest of ``analysis.csv`` for the golden trial, its bytes first
    passed through ``edit``."""
    gen = tmp_path / "gen"
    argv = ["generate", "--scenario", str(scenario), "--output-dir", str(gen)]
    assert cli.main(argv + ["--seed", "1"]) == 0
    trial = gen / "trial.csv"
    if edit is not None:
        trial.write_bytes(edit(trial.read_bytes()))
    out = tmp_path / "analysis"
    argv = ["analyze", "--input", str(trial), "--output-dir", str(out)]
    assert cli.main(argv + ["--adjust-x", "x_1", "--adjust-w", "w_1"]) == 0
    return sha256(out / "analysis.csv")


def test_analyze_output_is_byte_identical_to_the_recorded_one(tmp_path, default_scenario):
    assert analyze_digest(tmp_path, default_scenario) == golden(GOLDEN)["analysis.csv"]


def bom_crlf(data: bytes) -> bytes:
    return b"\xef\xbb\xbf" + data.replace(b"\r\n", b"\n").replace(b"\n", b"\r\n")


def quoted_id(data: bytes) -> bytes:
    """Rename the first data row's cluster to a quoted id holding a comma."""
    first = data.split(b"\n")[1].split(b",")[0]
    return data.replace(b"\n" + first + b",", b'\n"' + first + b', quoted",')


def last_cluster_first(data: bytes) -> bytes:
    """Move every row of the last cluster to the top, keeping their order."""
    header, *rows = data.splitlines(keepends=True)
    last = rows[-1].split(b",")[0] + b","
    moved = [row for row in rows if row.startswith(last)]
    return header + b"".join(moved + [row for row in rows if not row.startswith(last)])


# The quoted-id variant is read by csv, the others by the plain-file parser.
@pytest.mark.parametrize(
    "variant, edit",
    [("bom crlf", bom_crlf), ("quoted id", quoted_id), ("last cluster first", last_cluster_first)],
)
def test_analyze_output_of_an_edited_trial_is_byte_identical_to_the_recorded_one(
    tmp_path, default_scenario, variant, edit
):
    digest = analyze_digest(tmp_path, default_scenario, edit)
    assert digest == golden(GOLDEN)[f"analysis.csv {variant}"]


# Runs the command line on each argv of its first argument, after printing
# the OpenBLAS kernel it runs on.
UNDER_KERNEL = """
import json, sys
from conftest import openblas_core
from crtiv import cli
print(openblas_core(), flush=True)
for argv in json.loads(sys.argv[1]):
    assert cli.main(argv) == 0
"""


def assert_recorded_under(kernel, tmp_path, default_scenario):
    """The golden simulate and analyze, run in a fresh process that forces
    the OpenBLAS kernel ``kernel``, give its recorded digests."""
    gen, sim, analysis = tmp_path / "gen", tmp_path / "sim", tmp_path / "analysis"
    argv = ["generate", "--scenario", str(default_scenario), "--output-dir", str(gen)]
    assert cli.main(argv + ["--seed", "1"]) == 0
    runs = [
        ["simulate", "--scenario", str(default_scenario), "--output-dir", str(sim)]
        + ["--replicates", "40", "--seed", "1", "--threads", "1"],
        ["analyze", "--input", str(gen / "trial.csv"), "--output-dir", str(analysis)]
        + ["--adjust-x", "x_1", "--adjust-w", "w_1"],
    ]
    command = [sys.executable, "-c", UNDER_KERNEL, json.dumps(runs)]
    done = subprocess.run(
        command, env=kernel_env(kernel), capture_output=True, text=True, check=True
    )
    assert done.stdout.splitlines()[0] == kernel
    recorded = GOLDEN[kernel]
    assert sha256(sim / "report.csv") == recorded["report.csv"]
    assert sha256(analysis / "analysis.csv") == recorded["analysis.csv"]


@pytest.mark.skipif(not cpu_has(KERNEL_FLAGS["Haswell"]), reason="the Haswell kernels need AVX2")
def test_the_haswell_kernel_gives_its_recorded_simulate_and_analyze(tmp_path, default_scenario):
    assert_recorded_under("Haswell", tmp_path, default_scenario)


@pytest.mark.skipif(
    not cpu_has(KERNEL_FLAGS["SkylakeX"]), reason="the SkylakeX kernels need AVX-512"
)
def test_the_skylakex_kernel_gives_its_recorded_simulate_and_analyze(tmp_path, default_scenario):
    assert_recorded_under("SkylakeX", tmp_path, default_scenario)
