"""Golden outputs past the default scenario, byte for byte.

``test_golden.py`` pins the default scenario.  These pin ``generate`` with
individual-level adherence and Pareto sizes, and a trial in which no one
complies, whose complier weights are all zero; and ``simulate`` reports in
which cells fail on every replicate: at two clusters every variant, and at
three the w-adjusted ones, which have no residual degrees of freedom.
Recorded, and skipped on other versions, as there.
"""

import hashlib

import numpy
import pytest
import scipy

from crtiv import cli

RECORDED_WITH = {"numpy": "2.4.6", "scipy": "1.17.1"}
NAMES = ("trial.csv", "truth_clusters.csv", "truth_individuals.csv")
# generate --seed 1 on each scenario: the digests of NAMES, in order
GOLDEN = {
    "adherence = individual\nsizes = pareto\nclusters = 30\n": (
        "69a0f7f886609fd562189718804521bb352d3e10a605bf28c8fbba082a7bb3c1",
        "88b0231afcb4183def4f9966c4467c4058803564f5627e03b37845bfbad34ba7",
        "11f99e74e77f115b548b7154ca349c3027e39bf9c05241e1e49b3087c1cade2f",
    ),
    "clusters = 4\npi = 0.01\n": (
        "fcfefb1d9a2d94c3dbcf240d2b1e0218c4cefa6c2a33a181963a4a96ee0230c6",
        "cd107938ead59c5024d78d1b906ab0eee312e0ca8a892bf8f730cbf390e11a45",
        "943eb279f4f8eb98a51725038da28c2a3f4cb03fab635780f029e568cd8add76",
    ),
}
# simulate --replicates 50 --seed 8 on each scenario: the digests of
# report.csv and report.txt
REPORTS = {
    "clusters = 2\n": (
        "bf85d9d13306deb67c4b82a2bbc3a1ae46c958c000b909cb90443829e3c86e22",
        "bd627347d90ee08d75762644ca08ab3b260eb69db26d3256ba8f2744625f3086",
    ),
    "clusters = 3\n": (
        "71e742133062918066a937094f168913c8439227786c114a9d1fad9e002aa408",
        "053ad77ea0861d705fbf6e865cd270cb92b5036852abcf4d329d4db83157e778",
    ),
}


@pytest.fixture(autouse=True)
def recorded_versions():
    running = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    if running != RECORDED_WITH:
        pytest.skip(f"digests recorded with {RECORDED_WITH}, running {running}")


def generated(tmp_path, scenario_text):
    scenario = tmp_path / "scenario.txt"
    scenario.write_text(scenario_text, encoding="utf-8")
    out = tmp_path / "gen"
    argv = ["generate", "--scenario", str(scenario), "--output-dir", str(out), "--seed", "1"]
    assert cli.main(argv) == 0
    return out


@pytest.mark.parametrize("scenario_text", GOLDEN, ids=["individual pareto", "no complier"])
def test_generate_outputs_are_byte_identical_to_the_recorded_ones(tmp_path, scenario_text):
    out = generated(tmp_path, scenario_text)
    digests = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest() for name in NAMES)
    assert digests == GOLDEN[scenario_text]


def test_a_trial_without_compliers_has_zero_weights(tmp_path):
    out = generated(tmp_path, "clusters = 4\npi = 0.01\n")
    rows = (out / "truth_clusters.csv").read_text(encoding="utf-8").splitlines()
    assert rows[0] == "cluster_id,n,n_compliers,psi,psi_cl"
    assert [row.split(",")[2:] for row in rows[1:]] == [["0", "0", "0"]] * 4


@pytest.mark.parametrize("scenario_text", REPORTS, ids=["2 clusters", "3 clusters"])
def test_simulate_reports_with_failing_cells_are_byte_identical_to_the_recorded_ones(
    tmp_path, scenario_text
):
    scenario = tmp_path / "scenario.txt"
    scenario.write_text(scenario_text, encoding="utf-8")
    out = tmp_path / "sim"
    argv = ["simulate", "--scenario", str(scenario), "--output-dir", str(out)]
    assert cli.main(argv + ["--replicates", "50", "--seed", "8"]) == 0
    digests = tuple(
        hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("report.csv", "report.txt")
    )
    assert digests == REPORTS[scenario_text]
