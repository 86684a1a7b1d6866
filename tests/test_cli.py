import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crtiv import cli, collapse
from crtiv.collapse import (
    anova_icc,
    cluster_means,
    continuous_residuals,
    summaries_from_values,
)
from crtiv.dgp import AdherenceLevel, PoissonSizes, ScenarioConfig, generate
from crtiv.errors import (
    CovariateShapeMismatch,
    NonConstantClusterCovariate,
    ParseError,
    SchemaMismatch,
    ValidationFailure,
)
from crtiv.iv import first_stage_f, itt, tsls
from crtiv.model import (
    AnalysisOptions,
    DfMode,
    IndividualRecord,
    SeMode,
    TrialDataset,
    Weights,
    validate,
)


def write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


BASIC_HEADER = ["cluster_id", "z", "d", "y"]


def test_ingest_minimal_file(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(
        path,
        BASIC_HEADER,
        [["a", 0, 0, 1.5], ["a", 0, 0, 2.5], ["b", 1, 1, 0.5], ["b", 1, 0, 1.0]],
    )
    ds = cli.ingest_csv(path)
    assert len(ds.columns().cluster_ids) == 2
    assert ds.n_records == 4
    validate(ds)


def test_ingest_rejects_non_finite_values(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, BASIC_HEADER, [["a", 0, 0, 1.0], ["b", 1, 1, "nan"]])
    with pytest.raises(ParseError) as info:
        cli.ingest_csv(path)
    assert info.value.line == 3


def test_ingest_accepts_byte_order_mark(tmp_path):
    path = tmp_path / "bom.csv"
    body = "cluster_id,z,d,y\na,0,0,1.5\nb,1,1,0.5\n"
    path.write_bytes(b"\xef\xbb\xbf" + body.encode("utf-8"))
    ds = cli.ingest_csv(path)
    assert len(ds.columns().cluster_ids) == 2


def test_ingest_rejects_varying_cluster_covariate(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(
        path,
        BASIC_HEADER + ["w_open"],
        [["a", 0, 0, 1.5, 1.0], ["a", 0, 0, 2.5, 0.0], ["b", 1, 1, 0.5, 1.0]],
    )
    with pytest.raises(NonConstantClusterCovariate):
        cli.ingest_csv(path)


def test_ingest_schema_errors(tmp_path):
    missing = tmp_path / "missing.csv"
    write_csv(missing, ["cluster_id", "z", "d"], [["a", 0, 0]])
    with pytest.raises(SchemaMismatch):
        cli.ingest_csv(missing)

    unknown = tmp_path / "unknown.csv"
    write_csv(unknown, BASIC_HEADER + ["bogus"], [["a", 0, 0, 1.0, 2.0]])
    with pytest.raises(SchemaMismatch):
        cli.ingest_csv(unknown)


def test_ingest_parse_error_carries_line_number(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, BASIC_HEADER, [["a", 0, 0, 1.0], ["b", 1, "oops", 2.0]])
    with pytest.raises(ParseError) as info:
        cli.ingest_csv(path)
    assert info.value.line == 3

    ragged = tmp_path / "ragged.csv"
    write_csv(ragged, BASIC_HEADER, [["a", 0, 0, 1.0], ["b", 1, 1]])
    with pytest.raises(ParseError) as info:
        cli.ingest_csv(ragged)
    assert info.value.line == 3


def test_roundtrip_generated_trial(tmp_path):
    trial = generate(ScenarioConfig(n_clusters=15, sizes=PoissonSizes(8.0)), seed=21)
    path = tmp_path / "trial.csv"
    cli.write_dataset_csv(trial.dataset, path)
    back = cli.ingest_csv(path)
    original = cluster_means(validate(trial.dataset))
    recovered = cluster_means(validate(back))
    # 17-digit output round-trips exactly
    assert original.ids == recovered.ids
    for a, b in zip(original[1:], recovered[1:]):
        assert np.array_equal(a, b)


def make_perfect_adherence_file(path, n_clusters=16, seed=0):
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n_clusters):
        z = i % 2
        for _ in range(int(rng.integers(3, 9))):
            rows.append(
                [f"g{i:03d}", z, z, f"{rng.normal():.17g}", f"{rng.normal(scale=0.3):.17g}"]
            )
    write_csv(path, BASIC_HEADER + ["x_base"], rows)


def test_analyze_perfect_adherence_late_equals_itt(tmp_path):
    data = tmp_path / "trial.csv"
    make_perfect_adherence_file(data)
    out = tmp_path / "out"
    code = cli.main(
        ["analyze", "--input", str(data), "--output-dir", str(out)]
    )
    assert code == 0
    rows = read_rows(out / "analysis.csv")
    late = {
        (r["weights"], r["se_mode"], r["df_mode"]): r
        for r in rows
        if r["estimator"] == "late"
    }
    itt_rows = {
        (r["weights"], r["se_mode"], r["df_mode"]): r
        for r in rows
        if r["estimator"] == "itt"
    }
    assert len(late) == 12 and len(itt_rows) == 12
    for key, row in late.items():
        twin = itt_rows[key]
        assert float(row["estimate"]) == pytest.approx(float(twin["estimate"]), abs=1e-10)
        assert float(row["se"]) == pytest.approx(float(twin["se"]), abs=1e-10)
        assert float(row["ci_low"]) == pytest.approx(float(twin["ci_low"]), abs=1e-10)
        assert float(row["first_stage_f"]) == math.inf


def test_analyze_cluster_size_weights_move_estimate_under_imbalance(tmp_path):
    # One giant low-outcome cluster per arm dominates the size-weighted fit.
    rng = np.random.default_rng(5)
    rows = []
    for i in range(12):
        z = i % 2
        big = i < 2
        n = 400 if big else 5
        shift = -1.0 if big else 1.0
        d = z if rng.random() < 0.8 or big else 0
        for _ in range(n):
            rows.append([f"g{i:03d}", z, d, f"{shift + 0.5 * z * d + rng.normal():.17g}"])
    data = tmp_path / "trial.csv"
    write_csv(data, BASIC_HEADER, rows)
    out = tmp_path / "out"
    assert cli.main(["analyze", "--input", str(data), "--output-dir", str(out)]) == 0
    rows = read_rows(out / "analysis.csv")
    late = {
        (r["weights"], r["se_mode"], r["df_mode"]): float(r["estimate"])
        for r in rows
        if r["estimator"] == "late"
    }
    assert abs(late[("cs", "model", "normal")] - late[("none", "model", "normal")]) > 1e-3


def test_analyze_rows_match_library_calls(tmp_path):
    trial = generate(ScenarioConfig(n_clusters=20, pi=0.7), seed=31)
    data = tmp_path / "trial.csv"
    cli.write_dataset_csv(trial.dataset, data)
    out = tmp_path / "out"
    assert cli.main(["analyze", "--input", str(data), "--output-dir", str(out)]) == 0

    dataset = validate(cli.ingest_csv(data))
    summaries = cluster_means(dataset)
    cols = dataset.columns()
    rho = anova_icc(cols.y, cols.codes).rho
    rows = read_rows(out / "analysis.csv")
    for row in rows:
        options = AnalysisOptions(
            weights=Weights(row["weights"]),
            se_mode=SeMode(row["se_mode"]),
            df_mode=DfMode(row["df_mode"]),
        )
        fitter = tsls if row["estimator"] == "late" else itt
        expected = fitter(summaries, options, icc=rho)
        assert float(row["estimate"]) == expected.estimate
        assert float(row["se"]) == expected.se
        assert float(row["p"]) == expected.p


@pytest.mark.parametrize(
    "flags, n_estimates",
    [([], 1), (["--weights", "cs"], 0), (["--icc", "0.1"], 0)],
)
def test_analyze_estimates_the_icc_only_when_a_cell_reads_it(
    tmp_path, monkeypatch, flags, n_estimates
):
    trial = generate(ScenarioConfig(n_clusters=20, pi=0.7), seed=31)
    data = tmp_path / "trial.csv"
    cli.write_dataset_csv(trial.dataset, data)
    original, calls = collapse.anova_icc, []

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(collapse, "anova_icc", counted)
    assert cli.main(["analyze", "--input", str(data), *flags]) == 0
    assert len(calls) == n_estimates


def test_adjusted_analyze_rows_match_library_calls(tmp_path):
    trial = generate(ScenarioConfig(n_clusters=20, pi=0.7), seed=37)
    data = tmp_path / "trial.csv"
    cli.write_dataset_csv(trial.dataset, data)
    out = tmp_path / "out"
    argv = ["analyze", "--input", str(data), "--output-dir", str(out)]
    assert cli.main(argv + ["--adjust-w", "w_1", "--adjust-x", "x_1"]) == 0

    dataset = validate(cli.ingest_csv(data))
    residuals = continuous_residuals(dataset, (0,))
    summaries = summaries_from_values(dataset, residuals)
    rho = anova_icc(residuals, dataset.columns().codes).rho
    f_stat = first_stage_f(summaries)
    rows = read_rows(out / "analysis.csv")
    assert len(rows) == 48
    for row in rows:
        options = AnalysisOptions(
            weights=Weights(row["weights"]),
            se_mode=SeMode(row["se_mode"]),
            df_mode=DfMode(row["df_mode"]),
            adjust_w=row["adjust_w"] == "1",
        )
        fitter = tsls if row["estimator"] == "late" else itt
        expected = fitter(summaries, options, icc=rho)
        assert row["cl_outcome"] == "adjusted_for_x"
        assert float(row["estimate"]) == expected.estimate
        assert float(row["se"]) == expected.se
        assert (float(row["ci_low"]), float(row["ci_high"])) == expected.ci
        assert float(row["p"]) == expected.p
        assert float(row["df"]) == expected.df
        if row["estimator"] == "late":
            assert float(row["first_stage_f"]) == expected.first_stage_f == f_stat
        else:
            assert math.isnan(float(row["first_stage_f"]))
        assert int(row["n_clusters"]) == expected.n_clusters == 20


def test_analyze_with_w_and_x_adjustment(tmp_path):
    trial = generate(ScenarioConfig(n_clusters=24, pi=0.7), seed=33)
    data = tmp_path / "trial.csv"
    cli.write_dataset_csv(trial.dataset, data)
    out = tmp_path / "out"
    code = cli.main(
        [
            "analyze",
            "--input",
            str(data),
            "--output-dir",
            str(out),
            "--adjust-w",
            "w_1",
            "--adjust-x",
            "x_1",
            "--weights",
            "mv",
        ]
    )
    assert code == 0
    rows = read_rows(out / "analysis.csv")
    assert {r["cl_outcome"] for r in rows} == {"adjusted_for_x"}
    assert {r["adjust_w"] for r in rows} == {"0", "1"}
    assert len([r for r in rows if r["estimator"] == "late"]) == 8


def test_analyze_unknown_covariate_name_fails_validation(tmp_path):
    data = tmp_path / "trial.csv"
    make_perfect_adherence_file(data)
    code = cli.main(
        ["analyze", "--input", str(data), "--adjust-x", "x_nope"]
    )
    assert code == 2


def counting(monkeypatch, module, name):
    """Replace ``module.name`` with a wrapper that records its calls."""
    original, calls = getattr(module, name), []

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_a_bad_adjust_w_name_fails_before_any_adjustment(tmp_path, monkeypatch, capsys):
    trial = generate(ScenarioConfig(n_clusters=20, pi=0.7), seed=31)
    data = tmp_path / "trial.csv"
    cli.write_dataset_csv(trial.dataset, data)
    residuals = counting(monkeypatch, collapse, "continuous_residuals")
    estimates = counting(monkeypatch, collapse, "anova_icc")
    capsys.readouterr()
    argv = ["analyze", "--input", str(data), "--adjust-x", "x_1", "--adjust-w", "w_9"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("crtiv-error kind=validation type=SchemaMismatch")
    assert residuals == [] and estimates == []


def test_exit_code_validation_error(tmp_path, capsys):
    data = tmp_path / "bad.csv"
    write_csv(data, BASIC_HEADER, [["a", 1, 1, 1.0], ["b", 1, 1, 2.0]])
    code = cli.main(["analyze", "--input", str(data)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("crtiv-error kind=validation type=EmptyArm")
    assert "\n" not in err.strip("\n")


def test_exit_code_numeric_error(tmp_path, capsys):
    data = tmp_path / "null.csv"
    write_csv(
        data,
        BASIC_HEADER,
        [["a", 0, 0, 1.0], ["b", 0, 1, 2.0], ["c", 1, 0, 1.5], ["d", 1, 1, 0.5]],
    )
    code = cli.main(["analyze", "--input", str(data)])
    assert code == 3
    assert "kind=numeric" in capsys.readouterr().err


def test_icc_flag_validation(tmp_path):
    data = tmp_path / "t.csv"
    make_perfect_adherence_file(data)
    assert cli.main(["analyze", "--input", str(data), "--icc", "0.2"]) == 0
    assert cli.main(["analyze", "--input", str(data), "--icc", "chunky"]) == 2
    assert cli.main(["analyze", "--input", str(data), "--icc", "1.5"]) == 2


def write_scenario(path, **overrides):
    base = {
        "adherence": "cluster",
        "clusters": 12,
        "sizes": "poisson",
        "poisson_mean": 6,
        "pi": 0.6,
        "beta_cz": 0.4,
    }
    base.update(overrides)
    path.write_text(
        "\n".join(f"{k} = {v}" for k, v in base.items()) + "\n", encoding="utf-8"
    )


def test_simulate_smoke_writes_full_grid_report(tmp_path):
    scenario = tmp_path / "scn.txt"
    write_scenario(scenario)
    out = tmp_path / "sim"
    code = cli.main(
        [
            "simulate",
            "--scenario",
            str(scenario),
            "--output-dir",
            str(out),
            "--replicates",
            "10",
            "--seed",
            "2",
        ]
    )
    assert code == 0
    rows = read_rows(out / "report.csv")
    assert len(rows) == 48
    assert (out / "scenario_echo.txt").exists()
    assert all(int(r["n_replicates"]) == 10 for r in rows)
    assert all(
        int(r["attempts"]) == int(r["rejected_weak"]) + 10 for r in rows
    )


def test_simulate_same_seed_byte_identical(tmp_path):
    scenario = tmp_path / "scn.txt"
    write_scenario(scenario)
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert (
            cli.main(
                [
                    "simulate",
                    "--scenario",
                    str(scenario),
                    "--output-dir",
                    str(out),
                    "--replicates",
                    "5",
                    "--seed",
                    "9",
                ]
            )
            == 0
        )
        outputs.append((out / "report.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_generate_writes_trial_and_truth(tmp_path):
    scenario = tmp_path / "scn.txt"
    write_scenario(scenario, clusters=8)
    out = tmp_path / "gen"
    assert (
        cli.main(
            ["generate", "--scenario", str(scenario), "--output-dir", str(out), "--seed", "4"]
        )
        == 0
    )
    clusters = read_rows(out / "truth_clusters.csv")
    assert len(clusters) == 8
    assert sum(float(r["psi"]) for r in clusters) == pytest.approx(1.0, abs=1e-12)
    individuals = read_rows(out / "truth_individuals.csv")
    data_rows = read_rows(out / "trial.csv")
    assert len(individuals) == len(data_rows)
    assert {r["compliance"] for r in individuals} <= {"complier", "never_taker"}


def test_scenario_parser_errors(tmp_path):
    bad_key = tmp_path / "bad.txt"
    bad_key.write_text("clusterz = 10\n", encoding="utf-8")
    with pytest.raises(SchemaMismatch):
        cli.read_scenario(bad_key)

    bad_line = tmp_path / "line.txt"
    bad_line.write_text("just some words\n", encoding="utf-8")
    with pytest.raises(ParseError):
        cli.read_scenario(bad_line)

    bad_value = tmp_path / "value.txt"
    bad_value.write_text("pi = 1.5\n", encoding="utf-8")
    with pytest.raises(SchemaMismatch):
        cli.read_scenario(bad_value)


def test_scenario_defaults_and_comments(tmp_path):
    path = tmp_path / "scn.txt"
    path.write_text("# comment only\nrho_y = 0.20  # inline\n", encoding="utf-8")
    config = cli.read_scenario(path)
    assert config.rho_y == 0.20
    assert config.n_clusters == 50
    assert config.adherence is AdherenceLevel.CLUSTER


def test_machine_format_roundtrips():
    values = [0.1, 1e-17, math.pi, -1234.5678901234567, float("inf")]
    for v in values:
        assert float(cli._machine(v)) == v


@pytest.mark.parametrize(
    "text, message",
    [("sizes = pareto\npareto_shape = wide\n", "wide"), ("clusters = 1e400\n", "infinity")],
)
def test_scenario_bad_numbers_are_schema_errors(tmp_path, text, message):
    scenario = tmp_path / "scn.txt"
    scenario.write_text(text, encoding="utf-8")
    with pytest.raises(SchemaMismatch, match=message):
        cli.read_scenario(scenario)


# --- columnar ingest: round trip, error precedence, permutation invariance ---

CLUSTER_IDS = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=6
)
FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def datasets(draw):
    ids = draw(st.lists(CLUSTER_IDS, min_size=1, max_size=6, unique=True))
    n_x, n_w = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    covariates = {cid: tuple(draw(st.lists(FINITE, min_size=n_w, max_size=n_w))) for cid in ids}
    records = []
    for cid in ids:
        z = draw(st.integers(0, 1))
        for _ in range(draw(st.integers(1, 3))):
            x = tuple(draw(st.lists(FINITE, min_size=n_x, max_size=n_x)))
            records.append(IndividualRecord(cid, z, draw(st.integers(0, 1)), draw(FINITE), x))
    return TrialDataset(records=draw(st.permutations(records)), cluster_covariates=covariates)


@settings(max_examples=60, deadline=None)
@given(dataset=datasets())
def test_write_then_ingest_is_an_exact_round_trip(tmp_path_factory, dataset):
    path = tmp_path_factory.mktemp("roundtrip") / "trial.csv"
    cli.write_dataset_csv(dataset, path)
    back = cli.ingest_csv(path)
    original, recovered = dataset.columns(), back.columns()
    assert recovered.cluster_ids == original.cluster_ids
    for name in ("codes", "z", "d", "y", "x", "sizes"):
        mine, theirs = getattr(recovered, name), getattr(original, name)
        assert mine.shape == theirs.shape and mine.tobytes() == theirs.tobytes(), name
    assert back.cluster_covariates == dataset.cluster_covariates
    assert back.records == dataset.records


@pytest.mark.parametrize(
    "covariates",
    [{"a": (1.0,)}, {"a": (1.0,), "b": (1.0, 2.0)}],
    ids=["a cluster without w", "w of different lengths"],
)
def test_write_rejects_clusters_with_unequal_w(tmp_path, covariates):
    dataset = TrialDataset(
        records=[IndividualRecord("a", 0, 0, 1.0), IndividualRecord("b", 1, 1, 2.0)],
        cluster_covariates=covariates,
    )
    path = tmp_path / "trial.csv"
    with pytest.raises(CovariateShapeMismatch):
        cli.write_dataset_csv(dataset, path)
    assert not path.exists()


def many_rows(n, n_clusters=30):
    """Valid rows with a w and an x column; cluster c has w = c / 10."""
    return [
        [f"s{c:02d}", c % 2, c % 2, f"{i / 7:.6f}", f"{c / 10}", f"{(i % 13) / 3:.6f}"]
        for i in range(n)
        for c in [i % n_clusters]
    ]


def first_error(tmp_path, rows, header=BASIC_HEADER + ["w_1", "x_1"]):
    path = tmp_path / "t.csv"
    write_csv(path, header, rows)
    with pytest.raises(ValidationFailure) as info:
        cli.ingest_csv(path)
    return info.value


def test_ingest_fault_after_the_first_block_reports_its_file_line(tmp_path):
    rows = many_rows(3 * cli._BLOCK_ROWS)
    line = 2 * cli._BLOCK_ROWS + 123  # header is line 1, data starts on line 2
    rows[line - 2][3] = "1.2.3"
    error = first_error(tmp_path, rows)
    assert isinstance(error, ParseError) and error.line == line
    assert str(error) == f"line {line}: column 'y': cannot parse '1.2.3'"


def test_ingest_covariate_mismatch_beats_a_later_bad_cell(tmp_path):
    rows = many_rows(3 * cli._BLOCK_ROWS)
    rows[40][4] = "9.5"  # line 42: cluster s10 (first seen on line 12) changes w
    rows[2 * cli._BLOCK_ROWS][3] = "oops"
    error = first_error(tmp_path, rows)
    assert isinstance(error, NonConstantClusterCovariate)
    assert str(error) == "cluster s10: w columns differ between line 12 and line 42"


def test_ingest_covariate_mismatch_against_an_earlier_block(tmp_path):
    rows = many_rows(2 * cli._BLOCK_ROWS)
    late = 30 * (cli._BLOCK_ROWS // 30 + 1)  # a row of cluster s00 in the second block
    rows[late][4] = "7"
    error = first_error(tmp_path, rows)
    assert isinstance(error, NonConstantClusterCovariate)
    assert str(error) == f"cluster s00: w columns differ between line 2 and line {late + 2}"


@pytest.mark.parametrize("ragged_offset", [5, cli._BLOCK_ROWS], ids=["same block", "next block"])
def test_ingest_bad_cell_beats_a_later_ragged_row(tmp_path, ragged_offset):
    rows = many_rows(3 * cli._BLOCK_ROWS)
    bad = cli._BLOCK_ROWS - 10
    rows[bad][5] = "inf"
    rows[bad + ragged_offset] = rows[bad + ragged_offset][:4]
    error = first_error(tmp_path, rows)
    assert isinstance(error, ParseError) and error.line == bad + 2
    assert "column 'x_1': non-finite value 'inf'" in str(error)

    rows[bad][5] = "1"  # with the bad cell mended, the ragged row is reported
    error = first_error(tmp_path, rows)
    assert isinstance(error, ParseError) and error.line == bad + ragged_offset + 2
    assert "expected 6 fields, found 4" in str(error)


def test_ingest_cells_of_one_row_are_checked_left_to_right(tmp_path):
    rows = many_rows(10)
    rows[4][2] = "x"  # d
    rows[4][1] = "q"  # z, checked first
    error = first_error(tmp_path, rows)
    assert error.line == 6 and "column 'z'" in str(error)


@pytest.mark.parametrize("seed", [1, 2])
def test_analyze_is_invariant_to_the_order_of_data_rows(tmp_path, seed):
    trial = generate(ScenarioConfig(n_clusters=24, pi=0.7), seed=seed)
    data = tmp_path / "trial.csv"
    cli.write_dataset_csv(trial.dataset, data)
    header, *body = data.read_text(encoding="utf-8").splitlines(keepends=True)
    np.random.default_rng(seed).shuffle(body)
    shuffled = tmp_path / "shuffled.csv"
    shuffled.write_text(header + "".join(body), encoding="utf-8")

    outputs = []
    for path in (data, shuffled):
        out = tmp_path / path.stem
        # A fixed ICC: the estimated ICC and the x adjustment sum in record
        # order, so they are invariant only up to rounding.
        argv = ["analyze", "--input", str(path), "--output-dir", str(out)]
        assert cli.main(argv + ["--adjust-w", "w_1", "--icc", "0.05"]) == 0
        outputs.append((out / "analysis.csv").read_bytes())
    assert outputs[0] == outputs[1]


# --- bad command lines and unreadable files end in one crtiv-error line -----


def _bad_input_argv(tmp_path, case):
    """Set up the files for one bad-input case and return its argv."""
    scenario = tmp_path / "scn.txt"
    write_scenario(scenario)
    simulate = ["simulate", "--scenario", str(scenario), "--output-dir", str(tmp_path / "o")]
    if case == "zero_replicates":
        return simulate + ["--replicates", "0"]
    if case == "negative_replicates":
        return simulate + ["--replicates", "-3"]
    if case == "negative_seed":
        return simulate + ["--replicates", "2", "--seed", "-1"]
    if case == "missing_input":
        return ["analyze", "--input", str(tmp_path / "absent.csv")]
    if case == "missing_scenario":
        return ["simulate", "--scenario", str(tmp_path / "absent.txt"),
                "--output-dir", str(tmp_path / "o"), "--replicates", "2"]
    if case == "input_is_directory":
        return ["analyze", "--input", str(tmp_path)]
    if case == "csv_not_utf8":
        data = tmp_path / "latin1.csv"
        data.write_bytes(b"cluster_id,z,d,y\na,0,0,1\n\xe9,1,1,2\n")
        return ["analyze", "--input", str(data)]
    if case == "scenario_not_utf8":
        scenario.write_bytes(b"clusters = 6 # r\xe9sum\xe9\n")
        return simulate + ["--replicates", "2"]
    if case == "output_dir_is_a_file":
        target = tmp_path / "taken"
        target.write_text("", encoding="utf-8")
        return ["generate", "--scenario", str(scenario), "--output-dir", str(target)]
    raise AssertionError(case)


@pytest.mark.parametrize(
    "case, error_type",
    [
        ("zero_replicates", "BadFlag"),
        ("negative_replicates", "BadFlag"),
        ("negative_seed", "BadFlag"),
        ("missing_input", "FileNotFoundError"),
        ("missing_scenario", "FileNotFoundError"),
        ("input_is_directory", "IsADirectoryError"),
        ("csv_not_utf8", "UnicodeDecodeError"),
        ("scenario_not_utf8", "UnicodeDecodeError"),
        ("output_dir_is_a_file", "FileExistsError"),
    ],
)
def test_bad_input_ends_in_one_validation_error_line(tmp_path, capsys, case, error_type):
    argv = _bad_input_argv(tmp_path, case)
    capsys.readouterr()
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"crtiv-error kind=validation type={error_type} msg=")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not (tmp_path / "o").exists()


# --- overflow ends in a typed numeric error, not a traceback or an inf SE ----


def write_overflow_csv(path, case):
    """An 8-cluster trial with finite cells whose outcomes overflow later:
    the cluster sums (``every_row``), the variances
    (``one_row_per_cluster``), or the between-cluster sum of squares behind
    the estimated ICC (``by_arm``)."""
    big = {"every_row": "1e308", "every_row_negative": "-1e308", "one_row_per_cluster": "1e200"}
    rng = np.random.default_rng(12)
    rows = []
    for c in range(8):
        z = c % 2
        for i in range(5):
            if case == "by_arm":
                y = "1e200" if z else "-1e200"
            elif i == 0 or case != "one_row_per_cluster":
                y = big[case]
            else:
                y = f"{rng.normal():.6f}"
            rows.append([f"k{c}", z, z * int(rng.random() < 0.7), y, c / 10])
    write_csv(path, BASIC_HEADER + ["w_1"], rows)


@pytest.mark.parametrize(
    "case", ["every_row", "every_row_negative", "one_row_per_cluster", "by_arm"]
)
@pytest.mark.parametrize("flags", [[], ["--weights", "mv", "--adjust-w", "w_1"]])
# Warnings as errors: the command line must print nothing but the error line.
@pytest.mark.filterwarnings("error")
def test_overflow_ends_in_one_numeric_error_line(tmp_path, capsys, case, flags):
    data = tmp_path / "overflow.csv"
    write_overflow_csv(data, case)
    out = tmp_path / "out"
    capsys.readouterr()
    assert cli.main(["analyze", "--input", str(data), "--output-dir", str(out), *flags]) == 3
    err = capsys.readouterr().err
    assert err.startswith("crtiv-error kind=numeric type=NonFiniteValue msg=")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not (out / "analysis.csv").exists()


# Importing scipy.stats costs about a second per process, more than a whole
# default `simulate`; the package needs none of it.  The check runs in a
# fresh interpreter because the test modules import scipy.stats themselves.
_IMPORT_PROBE = """
import json, sys
from pathlib import Path

def stats_modules():
    return sorted(m for m in sys.modules if m == "scipy.stats" or m.startswith("scipy.stats."))

import crtiv, crtiv.cli
after_import = stats_modules()
Path("scn.txt").write_text("clusters = 12\\npoisson_mean = 6\\npi = 0.6\\n", encoding="utf-8")
for argv in (
    ["generate", "--scenario", "scn.txt", "--output-dir", "gen", "--seed", "1"],
    ["analyze", "--input", "gen/trial.csv", "--adjust-x", "x_1", "--adjust-w", "w_1"],
    ["simulate", "--scenario", "scn.txt", "--output-dir", "sim", "--replicates", "2"],
):
    assert crtiv.cli.main(argv) == 0, argv
print(json.dumps([after_import, stats_modules()]))
"""


def test_cli_never_imports_scipy_stats(tmp_path):
    paths = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    after_import, after_main = json.loads(done.stdout.splitlines()[-1])
    assert after_import == [] and after_main == []
