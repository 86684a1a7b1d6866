"""Golden outputs: the reproducibility contract, byte for byte.

For a given seed ``report.csv`` and ``analysis.csv`` must not change by a
single byte unless a change to the numbers is intended and stated.  The
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
    # simulate, default scenario, seed 1, 40 replicates, one worker
    "report.csv": "50eb312216b7b411900826ed1a6d820d3a5b9bee1f30c34ca5378c8fa1959c62",
    # analyze --adjust-x x_1 --adjust-w w_1 on the default scenario's trial for seed 1
    "analysis.csv": "c5e7a31d3b2af34d492cd4efa8da94206ac2ba8ef9a1bce3fefa3fac1873efaa",
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


def test_simulate_report_is_byte_identical_to_the_recorded_one(tmp_path, default_scenario):
    out = tmp_path / "sim"
    argv = ["simulate", "--scenario", str(default_scenario), "--output-dir", str(out)]
    assert cli.main(argv + ["--replicates", "40", "--seed", "1", "--threads", "1"]) == 0
    assert sha256(out / "report.csv") == GOLDEN["report.csv"]


def test_analyze_output_is_byte_identical_to_the_recorded_one(tmp_path, default_scenario):
    gen = tmp_path / "gen"
    argv = ["generate", "--scenario", str(default_scenario), "--output-dir", str(gen)]
    assert cli.main(argv + ["--seed", "1"]) == 0
    out = tmp_path / "analysis"
    argv = ["analyze", "--input", str(gen / "trial.csv"), "--output-dir", str(out)]
    assert cli.main(argv + ["--adjust-x", "x_1", "--adjust-w", "w_1"]) == 0
    assert sha256(out / "analysis.csv") == GOLDEN["analysis.csv"]
