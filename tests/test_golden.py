"""Golden outputs: the reproducibility contract, byte for byte.

For a given seed ``report.csv``, ``analysis.csv`` and the files of
``generate`` must not change by a single byte unless a change to the numbers is intended and stated.  The
digests below were recorded with the numpy and scipy versions named next to
them; other versions may legitimately round differently, so the test skips
there, saying why, instead of failing.
"""

import hashlib

import numpy
import pytest
import scipy

from crtiv import cli

RECORDED_WITH = {"numpy": "2.4.6", "scipy": "1.17.1"}
GOLDEN = {
    # simulate, default scenario, seed 1, 40 replicates, one or two workers
    "report.csv": "93f2b7bb937f700ebf08e1af9a353e8542ff28b277b6133b6eee77b496112085",
    # analyze --adjust-x x_1 --adjust-w w_1 on the default scenario's trial for seed 1
    "analysis.csv": "c5e7a31d3b2af34d492cd4efa8da94206ac2ba8ef9a1bce3fefa3fac1873efaa",
    # the same, on that trial with a byte order mark and CRLF line ends
    "analysis.csv bom crlf": "c5e7a31d3b2af34d492cd4efa8da94206ac2ba8ef9a1bce3fefa3fac1873efaa",
    # the same, on that trial with its first cluster id quoted and holding a comma
    "analysis.csv quoted id": "c5e7a31d3b2af34d492cd4efa8da94206ac2ba8ef9a1bce3fefa3fac1873efaa",
    # the same, on that trial with its last cluster's rows moved to the top:
    # cluster order then differs from first-seen order, and the x adjustment,
    # a fit over rows, sees them in a new order
    "analysis.csv last cluster first": "003fb79ea52b1a8663be02a607c567124654e73907bd56b6693dc46f11ff7474",
    # generate, default scenario, seed 1
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
    assert sha256(out / "report.csv") == GOLDEN["report.csv"]


def test_generate_outputs_are_byte_identical_to_the_recorded_ones(tmp_path, default_scenario):
    out = tmp_path / "gen"
    argv = ["generate", "--scenario", str(default_scenario), "--output-dir", str(out)]
    assert cli.main(argv + ["--seed", "1"]) == 0
    names = ("trial.csv", "truth_clusters.csv", "truth_individuals.csv")
    assert {name: sha256(out / name) for name in names} == {name: GOLDEN[name] for name in names}


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
    assert analyze_digest(tmp_path, default_scenario) == GOLDEN["analysis.csv"]


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
    assert digest == GOLDEN[f"analysis.csv {variant}"]
