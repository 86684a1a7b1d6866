import builtins
import csv
import json
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crtiv import cli, collapse, wls
from crtiv.collapse import (
    anova_icc,
    cluster_means,
    continuous_residuals,
    summaries_from_values,
)
from crtiv.dgp import AdherenceLevel, ParetoSizes, PoissonSizes, ScenarioConfig, generate
from crtiv.errors import (
    NonConstantClusterCovariate,
    ParseError,
    SchemaMismatch,
    ValidationFailure,
)
from crtiv.iv import first_stage_f, itt, tsls
from crtiv.model import (
    AnalysisOptions,
    Columns,
    DfMode,
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
    ds, _, _ = cli.ingest_csv(path)
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
    ds, x_names, w_names = cli.ingest_csv(path)
    assert len(ds.columns().cluster_ids) == 2
    assert x_names == w_names == []

    # the x_* and w_* names come back in header order, interleaved or not
    body = "x_b,cluster_id,w_2,z,x_a,d,w_1,y\n3,a,1,0,4,0,2,1.5\n5,b,6,1,7,1,8,0.5\n"
    path.write_bytes(b"\xef\xbb\xbf" + body.encode("utf-8"))
    ds, x_names, w_names = cli.ingest_csv(path)
    assert (x_names, w_names) == (["x_b", "x_a"], ["w_2", "w_1"])
    cols = ds.columns()
    assert cols.x.tolist() == [[3, 4], [5, 7]] and cols.w.tolist() == [[1, 2], [6, 8]]


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
    back, _, _ = cli.ingest_csv(path)
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

    dataset = validate(cli.ingest_csv(data)[0])
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
    calls = counting(monkeypatch, collapse._Block, "icc")
    assert cli.main(["analyze", "--input", str(data), *flags]) == 0
    assert len(calls) == n_estimates


@pytest.mark.parametrize("flags", [[], ["--adjust-x", "x_1", "--adjust-w", "w_1"]])
def test_a_fixed_icc_is_every_cells_and_none_is_estimated(tmp_path, monkeypatch, flags):
    trial = generate(ScenarioConfig(n_clusters=20, pi=0.7), seed=31)
    data = tmp_path / "trial.csv"
    cli.write_dataset_csv(trial.dataset, data)
    out = tmp_path / "out"
    assert cli.main(["analyze", "--input", str(data), "--output-dir", str(out), *flags]) == 0
    estimated = read_rows(out / "analysis.csv")

    def refused(*args):
        raise AssertionError("a fixed ICC is not estimated")

    monkeypatch.setattr(collapse._Block, "icc", refused)
    argv = ["analyze", "--input", str(data), "--output-dir", str(out), "--icc", "0.1", *flags]
    assert cli.main(argv) == 0
    fixed = read_rows(out / "analysis.csv")
    assert len(fixed) == len(estimated) == 24 * (1 if not flags else 2)
    for row, other in zip(fixed, estimated):
        # Only the minimum-variance rows read the ICC.
        assert (row == other) is (row["weights"] != "mv"), row


def test_adjusted_analyze_rows_match_library_calls(tmp_path):
    trial = generate(ScenarioConfig(n_clusters=20, pi=0.7), seed=37)
    data = tmp_path / "trial.csv"
    cli.write_dataset_csv(trial.dataset, data)
    out = tmp_path / "out"
    argv = ["analyze", "--input", str(data), "--output-dir", str(out)]
    assert cli.main(argv + ["--adjust-w", "w_1", "--adjust-x", "x_1"]) == 0

    dataset = validate(cli.ingest_csv(data)[0])
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

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_analyze_opens_its_input_once(tmp_path, monkeypatch):
    trial = generate(ScenarioConfig(n_clusters=20, pi=0.7), seed=31)
    data = tmp_path / "trial.csv"
    cli.write_dataset_csv(trial.dataset, data)
    opened = counting(monkeypatch, builtins, "open")
    assert cli.main(["analyze", "--input", str(data), "--adjust-x", "x_1"]) == 0
    assert [str(args[0]) for args in opened].count(str(data)) == 1


def analysis_from_a_process(out, source, stdin=None) -> bytes:
    """``analysis.csv`` of ``crtiv analyze --input source`` run in a fresh
    process, which a hang fails by the timeout."""
    paths = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    argv = ["analyze", "--input", source, "--output-dir", str(out)]
    done = subprocess.run(
        [sys.executable, "-m", "crtiv.cli", *argv],
        env=env, input=stdin, capture_output=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return (out / "analysis.csv").read_bytes()


@pytest.fixture
def trial_and_analysis(tmp_path):
    """A trial CSV larger than a pipe's buffer, and its ``analysis.csv``."""
    data = tmp_path / "trial.csv"
    cli.write_dataset_csv(generate(ScenarioConfig(n_clusters=60), seed=32).dataset, data)
    assert cli.main(["analyze", "--input", str(data), "--output-dir", str(tmp_path / "file")]) == 0
    return data.read_bytes(), (tmp_path / "file" / "analysis.csv").read_bytes()


def test_analyze_reads_a_fifo_as_it_reads_a_file(tmp_path, trial_and_analysis):
    data, expected = trial_and_analysis
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "wb") as pipe:
            pipe.write(data)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        assert analysis_from_a_process(tmp_path / "out", str(fifo)) == expected
    finally:  # a reader that never opened the FIFO leaves the writer waiting in open
        os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
        writer.join(timeout=10)
    assert not writer.is_alive()


def test_analyze_reads_standard_input_as_it_reads_a_file(tmp_path, trial_and_analysis):
    data, expected = trial_and_analysis
    assert analysis_from_a_process(tmp_path / "out", "/dev/stdin", stdin=data) == expected


def test_a_bad_adjust_w_name_fails_before_any_adjustment(tmp_path, monkeypatch, capsys):
    trial = generate(ScenarioConfig(n_clusters=20, pi=0.7), seed=31)
    data = tmp_path / "trial.csv"
    cli.write_dataset_csv(trial.dataset, data)
    residuals = counting(monkeypatch, wls, "segment_residuals")
    estimates = counting(monkeypatch, collapse._Block, "icc")
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


def test_two_clusters_end_in_one_df_error_line_under_either_df_mode(tmp_path, capsys):
    # J = p = 2 fits exactly: a standard error of 0 or rounding noise is no answer.
    data = tmp_path / "two.csv"
    write_csv(data, BASIC_HEADER, [["a", 0, 0, 1.0], ["a", 0, 0, 1.4], ["b", 1, 1, 2.0]])
    for df in ("normal", "ssdf"):
        capsys.readouterr()
        assert cli.main(["analyze", "--input", str(data), "--df", df]) == 3
        err = capsys.readouterr().err
        assert err.startswith("crtiv-error kind=numeric type=DfNonPositive msg=")
        assert err.count("\n") == 1


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


@pytest.mark.parametrize(
    "text, expected",
    [
        ("", ScenarioConfig()),
        ("sizes = pareto\n", ScenarioConfig(sizes=ParetoSizes())),
    ],
)
def test_an_absent_scenario_key_reads_as_its_dataclass_default(tmp_path, text, expected):
    path = tmp_path / "scn.txt"
    path.write_text(text, encoding="utf-8")
    assert cli.read_scenario(path) == expected


def test_machine_format_roundtrips():
    values = [0.1, 1e-17, math.pi, -1234.5678901234567, float("inf")]
    for v in values:
        assert float(cli._machine(v)) == v


def test_pretty_format_keeps_the_sign_of_an_infinity():
    values = [math.inf, -math.inf, math.nan, -0.0004, 2.0]
    assert [cli._pretty(v) for v in values] == ["inf", "-inf", "nan", "-0.000", "2.000"]


@pytest.mark.parametrize(
    "text, message",
    [
        ("sizes = pareto\npareto_shape = wide\n", "wide"),
        ("clusters = 1e400\n", "infinity"),
        # Each of these hung or ended in a traceback before it was checked.
        ("poisson_mean = 0\n", "poisson mean must be at least 1"),
        ("poisson_mean = nan\n", "must be finite"),
        ("poisson_mean = -3\n", "poisson mean must be at least 1"),
        ("sizes = pareto\npareto_shape = 0\n", "positive shape"),
        ("sizes = pareto\npareto_min = 0\npareto_scale = 0.01\n", "minimum of at least 1"),
        ("lambda_w = 1e308\n", "overflows"),
        ("lambda_w = 1e154\nsigma2_w = 10\n", "overflows"),
        ("sigma2_w = nan\n", "sigma2_w must be finite"),
        ("beta_cz = inf\n", "beta_cz must be finite"),
        # Counts were truncated: 2.7 clusters ran 2.
        ("clusters = 2.7\n", "clusters must be a whole number, got '2.7'"),
        ("clusters = 5e-1\n", "clusters must be a whole number"),
        ("sizes = pareto\npareto_min = 10.5\n", "pareto_min must be a whole number"),
    ],
)
def test_scenario_bad_numbers_are_schema_errors(tmp_path, text, message):
    scenario = tmp_path / "scn.txt"
    scenario.write_text(text, encoding="utf-8")
    with pytest.raises(SchemaMismatch, match=message):
        cli.read_scenario(scenario)


# --- one scenario schema: round trip, stray and repeated keys, the README --


COUNTS = st.integers(2, 10**18)


@st.composite
def scenario_configs(draw):
    """Valid configs of either size kind and adherence level, with whole
    counts up to 10**18, past where a float holds every integer."""
    sizes = draw(
        st.one_of(
            st.builds(PoissonSizes, mean=st.floats(1.0, 1e12)),
            st.builds(
                ParetoSizes,
                shape=st.floats(1e-3, 1e3),
                scale=st.floats(1e-3, 1e3),
                minimum=COUNTS,
            ),
        )
    )
    unit = st.floats(0.0, 1.0, exclude_max=True)
    any_float = st.floats(-1e6, 1e6)
    return ScenarioConfig(
        adherence=draw(st.sampled_from(AdherenceLevel)),
        n_clusters=draw(COUNTS),
        sizes=sizes,
        rho_y=draw(unit),
        rho_x=draw(unit),
        rho_c=draw(unit),
        pi=draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        lambda_w=draw(st.floats(-10.0, 10.0)),
        lambda_x=draw(st.floats(-10.0, 10.0)),
        beta_w=draw(any_float),
        beta_x=draw(any_float),
        beta_cz=draw(any_float),
        beta_0=draw(any_float),
        beta_c=draw(any_float),
        sigma2_w=draw(st.floats(0.0, 10.0)),
        sigma2_x=draw(st.floats(0.0, 10.0)),
        total_variance=draw(st.floats(1e-6, 1e6)),
    )


@settings(max_examples=100, deadline=None)
@given(config=scenario_configs())
@example(config=ScenarioConfig(n_clusters=10**17 + 1, sizes=ParetoSizes(minimum=10**18 - 1)))
def test_a_scenario_echo_reads_back_as_its_config(tmp_path_factory, config):
    path = tmp_path_factory.mktemp("echo") / "scenario_echo.txt"
    path.write_text(cli.scenario_echo(config, seed=3, replicates=7), encoding="utf-8")
    assert cli.read_scenario(path) == config


@pytest.mark.parametrize(
    "text, message",
    [
        ("sizes = poisson\npareto_shape = 2.4\n", "pareto_shape does not apply to sizes = poisson"),
        ("sizes = pareto\npoisson_mean = 30\n", "poisson_mean does not apply to sizes = pareto"),
        # Poisson is the default kind: a Pareto key alone used to run Poisson(20).
        ("pareto_min = 12\nclusters = 8\n", "pareto_min does not apply to sizes = poisson"),
        ("clusters = 8\n# a comment\nclusters = 9\n", "clusters is given again on line 3"),
        ("pi = 0.5\nrho_y = 0.1\npi = 0.5\n", "pi is given again on line 3"),
    ],
)
def test_stray_and_repeated_scenario_keys_are_schema_errors(tmp_path, capsys, text, message):
    scenario = tmp_path / "s.txt"
    scenario.write_text(text, encoding="utf-8")
    with pytest.raises(SchemaMismatch) as info:
        cli.read_scenario(scenario)
    assert str(info.value) == f"{scenario}: {message}"
    argv = ["generate", "--scenario", str(scenario), "--output-dir", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (
        f'crtiv-error kind=validation type=SchemaMismatch msg="{scenario}: {message}"\n'
    )


def test_a_scenario_led_by_a_byte_order_mark_reads_as_without_it(tmp_path):
    body = "adherence = individual\nsizes = pareto\npareto_min = 12\nclusters = 9\n"
    plain, bom = tmp_path / "plain.txt", tmp_path / "bom.txt"
    plain.write_bytes(body.encode("utf-8"))
    bom.write_bytes(b"\xef\xbb\xbf" + body.encode("utf-8"))
    assert cli.read_scenario(bom) == cli.read_scenario(plain) != ScenarioConfig()
    bom.write_bytes(b"\xef\xbb\xbfclusters = 6 # r\xe9sum\xe9\n")
    with pytest.raises(UnicodeDecodeError):
        cli.read_scenario(bom)


def test_the_readme_table_lists_every_scenario_key_with_its_kind_and_default():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `(\w+)` \| `[\w.]+` \| `([^`]+)` \| (\w+) \|$", readme, re.M)
    assert sorted(key for key, _, _ in rows) == sorted(cli._SCENARIO_KEYS)
    echoed = {}  # each key's default, as the echo of a default config prints it
    for sizes in (ParetoSizes(), PoissonSizes()):
        for line in cli.scenario_echo(ScenarioConfig(sizes=sizes), 0, 1).splitlines():
            key, _, value = line.partition(" = ")
            echoed[key] = value
    for key, default, kind in rows:
        assert kind == (cli._SCENARIO_KEYS[key] or "any"), key
        assert default == echoed[key] or float(default) == float(echoed[key]), key


@pytest.mark.parametrize("command", ["simulate", "generate"])
@pytest.mark.parametrize(
    "text",
    [
        "poisson_mean = 1e12\n",  # asked numpy for 364 TiB
        "poisson_mean = 1e17\n",  # "array is too big"
        "poisson_mean = 1e18\n",  # the int64 total overflowed
        "sizes = pareto\npareto_shape = 1e-6\n",  # infinite sizes
        "clusters = 1e20\n",  # "Maximum allowed dimension exceeded"
        "poisson_mean = 1e19\n",  # "lam value too large"
    ],
)
def test_huge_cluster_sizes_end_in_one_error_line(tmp_path, capsys, command, text):
    scenario = tmp_path / "scn.txt"
    scenario.write_text(text, encoding="utf-8")
    argv = [command, "--scenario", str(scenario), "--output-dir", str(tmp_path / "out")]
    if command == "simulate":
        argv += ["--replicates", "2"]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("crtiv-error kind=validation type=ClusterSizesTooLarge")
    assert err.count("\n") == 1


def test_running_out_of_memory_ends_in_one_error_line(tmp_path, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 364. TiB for an array")

    monkeypatch.setattr(cli.mc, "run_study", exhausted)
    scenario = tmp_path / "scn.txt"
    scenario.write_text("", encoding="utf-8")
    argv = ["simulate", "--scenario", str(scenario), "--output-dir", str(tmp_path / "out")]
    assert cli.main(argv + ["--replicates", "2"]) == 3
    err = capsys.readouterr().err
    assert err == (
        'crtiv-error kind=numeric type=MemoryError '
        'msg="Unable to allocate 364. TiB for an array"\n'
    )


# --- columnar ingest: round trip, error precedence, permutation invariance ---

CLUSTER_IDS = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=6
)
FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def datasets(draw):
    ids = draw(st.lists(CLUSTER_IDS, min_size=1, max_size=6, unique=True))
    n_x, n_w = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    w = [draw(st.lists(FINITE, min_size=n_w, max_size=n_w)) for _ in ids]
    w = np.reshape(w, (len(ids), n_w))
    records = []
    for code in range(len(ids)):
        z = draw(st.integers(0, 1))
        for _ in range(draw(st.integers(1, 3))):
            x = tuple(draw(st.lists(FINITE, min_size=n_x, max_size=n_x)))
            records.append((code, z, draw(st.integers(0, 1)), draw(FINITE), x))
    codes, z, d, y, x = zip(*draw(st.permutations(records)))
    return TrialDataset(Columns.from_codes(ids, codes, z, d, y, x, w))


@settings(max_examples=60, deadline=None)
@given(dataset=datasets())
def test_write_then_ingest_is_an_exact_round_trip(tmp_path_factory, dataset):
    path = tmp_path_factory.mktemp("roundtrip") / "trial.csv"
    cli.write_dataset_csv(dataset, path)
    back, _, _ = cli.ingest_csv(path)
    original, recovered = dataset.columns(), back.columns()
    assert recovered.cluster_ids == original.cluster_ids
    for name in ("codes", "z", "d", "y", "x", "sizes"):
        mine, theirs = getattr(recovered, name), getattr(original, name)
        assert mine.shape == theirs.shape and mine.tobytes() == theirs.tobytes(), name
    mine, theirs = recovered.w, original.w
    assert (mine.dtype, mine.shape, mine.strides) == (theirs.dtype, theirs.shape, theirs.strides)
    assert mine.tobytes() == theirs.tobytes()


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


@pytest.mark.parametrize("block_rows", [1, cli._BLOCK_ROWS], ids=["row blocks", "one block"])
def test_ingest_error_lines_count_file_lines_past_a_quoted_line_break(
    tmp_path, monkeypatch, block_rows
):
    monkeypatch.setattr(cli, "_BLOCK_ROWS", block_rows)
    bad_y = tmp_path / "y.csv"  # the quoted id spans lines 2-3
    bad_y.write_text('cluster_id,z,d,y\n"a\nb",0,0,1\nc,1,1,x\n', encoding="utf-8")
    with pytest.raises(ParseError, match="^line 4: column 'y': cannot parse 'x'$"):
        cli.ingest_csv(bad_y)

    bad_w = tmp_path / "w.csv"  # rows on lines 2, 3-4 and 5-6
    bad_w.write_text(
        'cluster_id,z,d,y,w_1\nc,1,1,1,2\n"a\nb",0,0,1,5\n"a\nb",0,0,1,6\n', encoding="utf-8"
    )
    with pytest.raises(NonConstantClusterCovariate, match="between line 3 and line 5$"):
        cli.ingest_csv(bad_w)


# --- loadtxt and the csv path read every file alike ------------------------

# Cells float() and loadtxt may read differently: underscores, non-ASCII
# digits, Unicode and separator whitespace, NUL, comments, non-finite and
# overflowing values, hex, empty cells.
ODD_CELLS = [
    "1_0", "\u0661", "\uff11", "\u20031", "1\x85", "\xa0 1", "\x1c1", "1\x1f", "\t1 ",
    "\x00", "1\x00", "#", "0x10", "", "1 2",
]
# Cells loadtxt reads as numbers where a check must still send them to csv.
BAD_NUMBERS = ["1#x", "nan", "-inf", "1e500"]
NICE_CELLS = st.one_of(
    st.sampled_from(["0", "1", "1.5", "-0", "2e-3", " 7", "+4."]),
    FINITE.map(repr),
)
PLAIN_IDS = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters=',"\r\n'),
    max_size=4,
)


# The ways a cell may be quoted, each to be read as csv reads it: closed,
# with an escaped quote or a comma inside, a quote that does not open a
# quoted cell, text after the closing quote, an open quote that runs on into
# later lines, and a quoted LF or CRLF.
QUOTE_FORMS = [
    '"{}"', '"{}"""', '"{},"', '{}"', '"{}"x', ' "{}"', '"{}', '"{}\n"', '"{}\r\n"',
]


@st.composite
def trial_files(draw):
    """The bytes of a trial CSV, mostly valid, with a few faults worked in,
    and perhaps written as R writes it, with the header and ids quoted.
    Any cell, header cells too, may be quoted in one of ``QUOTE_FORMS``."""
    header = draw(st.permutations(["cluster_id", "z", "d", "y", "w_1", "x_1"]))
    ids = draw(st.lists(PLAIN_IDS, min_size=1, max_size=4, unique=True))
    w_of = {cid: draw(NICE_CELLS) for cid in ids}
    rows = []
    for _ in range(draw(st.integers(1, 14))):
        cid = draw(st.sampled_from(ids))
        cells = {"cluster_id": cid, "w_1": w_of[cid]}
        rows.append([cells[name] if name in cells else draw(NICE_CELLS) for name in header])
    at_id, at_w = header.index("cluster_id"), header.index("w_1")
    if draw(st.booleans()):  # R's write.csv quotes every string
        header = [f'"{name}"' for name in header]
        for row in rows:
            row[at_id] = f'"{row[at_id]}"'
    for _ in range(draw(st.integers(0, 2))):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        fault = draw(st.sampled_from(["odd", "bad", "w", "blank", "short", "long", "cr"]))
        if fault in ("odd", "bad") and row:
            odd = draw(st.sampled_from(ODD_CELLS if fault == "odd" else BAD_NUMBERS))
            row[draw(st.integers(0, len(row) - 1))] = odd
        elif fault == "w" and len(row) > at_w:
            row[at_w] = draw(NICE_CELLS)
        elif fault == "blank":
            row.clear()
        elif fault == "short":
            del row[-1:]
        elif fault == "long":
            row.append("1")
        elif fault == "cr" and row:
            row[draw(st.integers(0, len(row) - 1))] += "\r"
    table = [header, *rows]
    for _ in range(draw(st.integers(0, 2))):
        row = table[draw(st.integers(0, len(table) - 1))]
        if row:
            at = draw(st.integers(0, len(row) - 1))
            row[at] = draw(st.sampled_from(QUOTE_FORMS)).format(row[at])
    lines = [",".join(row) for row in table]
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    text = eol.join(lines) + draw(st.sampled_from([eol, ""]))
    return draw(st.sampled_from([b"", b"\xef\xbb\xbf"])) + text.encode("utf-8")


def ingest_outcome(path):
    """``ingest_csv``'s columns, or its error's class and message."""
    try:
        dataset, _, _ = cli.ingest_csv(path)
    except Exception as exc:  # any difference between the parsers counts
        return type(exc), str(exc)
    cols = dataset.columns()
    arrays = [cols.codes, cols.z, cols.d, cols.y, cols.x, cols.sizes, cols.w]
    return cols.cluster_ids, [(a.dtype.str, a.shape, a.strides, a.tobytes()) for a in arrays]


def assert_read_as_csv_alone_reads(path_factory, data, block_rows):
    """``data`` reads alike with each block offered to loadtxt first and
    with every block read by csv."""
    path = path_factory.mktemp("parsers") / "trial.csv"
    path.write_bytes(data)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_BLOCK_ROWS", block_rows)
        read = ingest_outcome(path)
        patch.setattr(cli, "_table_values", lambda *args: None)  # every block through csv
        assert ingest_outcome(path) == read


@settings(max_examples=300, deadline=None)
@given(data=trial_files(), block_rows=st.sampled_from([1, 2, 3, cli._BLOCK_ROWS]))
@example(data=b"cluster_id,z,d,y\na,0,0,1#x\n", block_rows=cli._BLOCK_ROWS)
@example(data=b"cluster_id,z,d,y\na,0,0,nan\n", block_rows=cli._BLOCK_ROWS)
@example(data=b"cluster_id,z,d,y\r\na,0,0,1,2\r\n", block_rows=cli._BLOCK_ROWS)
# Edges of the loadtxt reader's ids: ids that are prefixes of each other,
# that differ by a trailing NUL, that are empty or not ASCII (an astral
# character among them), ids in the last column before CRLF or no line end,
# clusters that take turns, within one block and across blocks, a long row
# beside a short one, with as many commas in all as two good rows, and long
# ids of one width that differ only in their last character.
@example(
    data=b"cluster_id,z,d,y\na,0,0,1\nab,1,1,2\nab,1,1,3\na,0,0,4\n", block_rows=cli._BLOCK_ROWS
)
@example(data=b"cluster_id,z,d,y\na,0,0,1\na\x00,1,1,2\na,0,0,3\n", block_rows=cli._BLOCK_ROWS)
@example(data=b"cluster_id,z,d,y\n,0,0,1\n,0,0,2\na,1,1,3\n,0,0,4", block_rows=cli._BLOCK_ROWS)
@example(
    data="cluster_id,z,d,y\n\xe9,0,0,1\ne,1,1,2\n\U0001d11e,1,1,3\n\xe9,0,0,4\n".encode(),
    block_rows=cli._BLOCK_ROWS,
)
@example(data=b"z,d,y,cluster_id\r\n0,0,1,a\r\n1,1,2,ab\r\n0,0,3,\r\n1,1,4,ab", block_rows=3)
@example(data=b"z,d,y,cluster_id\n0,0,1,a\n1,1,2,\n1,1,3,", block_rows=cli._BLOCK_ROWS)
@example(data=b"cluster_id,z,d,y\na,0,0,1\nb,1,1,2\na,0,0,3\nb,1,1,4\na,0,0,5\n", block_rows=1)
@example(data=b"cluster_id,z,d,y\na,0,0,1\nb,1,1,2\na,0,0,3\nb,1,1,4\na,0,0,5\n", block_rows=3)
@example(data=b"z,d,y,cluster_id\n0,0,1,a,2\n0,0,1\n", block_rows=cli._BLOCK_ROWS)
# Edges of loadtxt's reading of ids: blank lines, which it skips and csv
# reads as empty rows, ids with edge whitespace it must not strip, line
# breaks to str.splitlines that the text handle reads as part of a line,
# and an inner NUL beside the id without it.
@example(
    data=b"cluster_id,z,d,y\na,0,0,1\n\nb,1,1,2\r\n\r\nc,0,0,3\n", block_rows=cli._BLOCK_ROWS
)
@example(data=b"cluster_id,z,d,y\r\na,0,0,1\r\n\r\nb,1,1,2\r\n", block_rows=3)
@example(
    data=b"cluster_id,z,d,y\n a,0,0,1\na,1,1,2\na ,0,0,3\na\t,1,1,4\n\ta\t,0,0,5\na,1,1,6\n",
    block_rows=cli._BLOCK_ROWS,
)
@example(data=b"z,d,y,cluster_id\r\n0,0,1, a\t\r\n1,1,2,a \r\n0,0,3,\ta", block_rows=3)
@example(
    data="cluster_id,z,d,y\na\x0bb,0,0,1\na\x0cb,1,1,2\na\x85b,0,0,3\na\u2028b,1,1,4\na,0,0,5\n"
    .encode(),
    block_rows=cli._BLOCK_ROWS,
)
@example(data=b"cluster_id,z,d,y\na,0,0,1\na\x00b,1,1,2\na,0,0,3\n", block_rows=cli._BLOCK_ROWS)
@example(
    data=b"cluster_id,z,d,y\n" + b"".join(
        cid + b",0,0,1\n" for cid in [b"x" * 300, b"x" * 299 + b"y", b"x" * 299 + b"y", b"x" * 301]
    ),
    block_rows=cli._BLOCK_ROWS,
)
# A file as R's write.csv writes it: the header and the ids quoted.
@example(
    data=b'"cluster_id","z","d","y","w_1"\n"a",0,0,1,2\n"b",1,1,2,3\n"a",0,0,3,2\n', block_rows=2
)
def test_plain_and_csv_parsers_read_a_file_alike(tmp_path_factory, data, block_rows):
    assert_read_as_csv_alone_reads(tmp_path_factory, data, block_rows)


@settings(max_examples=200, deadline=None)
@given(data=trial_files(), block_rows=st.sampled_from([1, 2, 3, cli._BLOCK_ROWS]))
# Lines that csv joins into one row: a quoted line break, lone carriage
# returns, ending a block or not, and a quote left open on a block's last
# line, which loadtxt would end there and csv reads on past.  Each block
# goes to csv by its text, before loadtxt, or by the rows loadtxt returns.
@example(data=b'cluster_id,z,d,y\na,0,0,1\n"b\nc",1,1,2\n', block_rows=1)
@example(data=b"cluster_id,z,d,y\na,0,0,1\nb,1,1,2\r\rc,1,1,3\n", block_rows=1)
@example(data=b"cluster_id,z,d,y\na,0,0,1\rb,1,1,2\n", block_rows=1)
@example(data=b"cluster_id,z,d,y\na,0,0,1\rb,1,1,2\r", block_rows=3)
@example(data=b"z,d,y,cluster_id\r0,0,1,a\r1,1,2,b\r", block_rows=1)
@example(data=b"cluster_id,z,d,y\na,0,0,1\nb,1,1,2\r\r", block_rows=3)
@example(data=b"cluster_id,z,d,y\na,0,0,1\nb,1\r,1,2\n", block_rows=1)
@example(data=b"cluster_id,z,d,y\na,0,0,1\nb,1\r,1,2\n", block_rows=3)
@example(data=b'cluster_id,z,d,y\na,0,0,"1\n2",\n', block_rows=1)
def test_routing_each_block_by_its_text_reads_a_file_as_csv_alone_does(
    tmp_path_factory, data, block_rows
):
    assert_read_as_csv_alone_reads(tmp_path_factory, data, block_rows)


PLAIN_LAYOUTS = {
    f"{prefix}{eol_name}": (layout, eol)
    for layout, prefix in [
        ("ascii", ""),
        ("non-ascii", "non-ASCII ids, "),
        ("id last", "id last, "),
        ("spaced", "ids with inner and edge spaces, "),
        ("long", "1,000-char ids, "),
        ("r", "quoted header and ids, "),
    ]
    for eol_name, eol in [("LF", "\n"), ("CRLF", "\r\n")]
}


@pytest.mark.parametrize(("layout", "eol"), PLAIN_LAYOUTS.values(), ids=PLAIN_LAYOUTS.keys())
def test_a_plain_file_is_read_without_the_csv_module(tmp_path, monkeypatch, layout, eol):
    header, rows = BASIC_HEADER + ["w_1", "x_1"], many_rows(3 * cli._BLOCK_ROWS)
    if layout == "non-ascii":
        rows = [[f"\xe9\U0001d11e{r[0]}", *r[1:]] for r in rows]
    elif layout == "spaced":
        rows = [[f" \t{r[0]} {r[0]}\t ", *r[1:]] for r in rows]
    elif layout == "long":
        rows = [[r[0].rjust(1000, "x"), *r[1:]] for r in rows]
    elif layout == "id last":
        header, rows = header[1:] + header[:1], [r[1:] + r[:1] for r in rows]
    quote = (lambda cell: f'"{cell}"') if layout == "r" else str  # as R's write.csv writes
    path = tmp_path / "t.csv"
    lines = [",".join(map(quote, header))]
    lines += [",".join([quote(r[0]), *map(str, r[1:])]) for r in rows]
    path.write_text(eol.join(lines) + eol, encoding="utf-8", newline="")
    row_reads = counting(monkeypatch, cli, "_row_values")
    cols = cli.ingest_csv(path)[0].columns()
    at = header.index("cluster_id")
    assert list(cols.cluster_ids) == sorted({r[at] for r in rows})
    assert [cols.cluster_ids[c] for c in cols.codes.tolist()] == [r[at] for r in rows]
    assert row_reads == []


def test_loadtxt_reads_every_block_of_a_file_with_a_quoted_row(tmp_path, monkeypatch):
    rows = many_rows(3 * cli._BLOCK_ROWS)
    rows[-1][0] = "s, quoted"
    path = tmp_path / "t.csv"
    write_csv(path, BASIC_HEADER + ["w_1", "x_1"], rows)
    loadtxt = counting(monkeypatch, np, "loadtxt")
    row_reads = counting(monkeypatch, cli, "_row_values")
    assert "s, quoted" in cli.ingest_csv(path)[0].columns().cluster_ids
    assert len(loadtxt) == 3 and row_reads == []


def test_a_block_with_one_long_id_is_read_in_bounded_memory(tmp_path):
    rows = many_rows(cli._BLOCK_ROWS)
    rows[5][0] = "s" * 4000  # one long line among 4,095 short ones
    path = tmp_path / "t.csv"
    write_csv(path, BASIC_HEADER + ["w_1", "x_1"], rows)
    tracemalloc.start()
    try:
        cli.ingest_csv(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


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
    if case == "replicates_not_an_integer":
        return simulate + ["--replicates", "1e3"]
    if case == "unknown_weights":
        return ["analyze", "--input", str(tmp_path / "absent.csv"), "--weights", "bogus"]
    if case == "no_subcommand":
        return []
    if case == "negative_replicates":
        return simulate + ["--replicates", "-3"]
    if case == "zero_threads":
        return simulate + ["--replicates", "2", "--threads", "0"]
    if case == "negative_threads":
        return simulate + ["--replicates", "2", "--threads", "-4"]
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
    if case in ("repeated_x", "repeated_w", "empty_x", "empty_w"):
        data = tmp_path / "trial.csv"
        cli.write_dataset_csv(generate(ScenarioConfig(n_clusters=12), seed=5).dataset, data)
        prefix = case[-1]
        names = "" if case.startswith("empty") else f"{prefix}_1, {prefix}_1"
        return ["analyze", "--input", str(data), f"--adjust-{prefix}", names]
    raise AssertionError(case)


@pytest.mark.parametrize(
    "case, error_type",
    [
        ("zero_replicates", "BadFlag"),
        # argparse's own usage errors end in the same line.
        ("replicates_not_an_integer", "BadFlag"),
        ("unknown_weights", "BadFlag"),
        ("no_subcommand", "BadFlag"),
        ("negative_replicates", "BadFlag"),
        ("zero_threads", "BadFlag"),
        ("negative_threads", "BadFlag"),
        ("negative_seed", "BadFlag"),
        ("missing_input", "FileNotFoundError"),
        ("missing_scenario", "FileNotFoundError"),
        ("input_is_directory", "IsADirectoryError"),
        ("csv_not_utf8", "UnicodeDecodeError"),
        ("scenario_not_utf8", "UnicodeDecodeError"),
        ("output_dir_is_a_file", "FileExistsError"),
        ("repeated_x", "SchemaMismatch"),
        ("repeated_w", "SchemaMismatch"),
        # An empty value names no column; it is not an absent flag.
        ("empty_x", "SchemaMismatch"),
        ("empty_w", "SchemaMismatch"),
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


ERROR_LINE = re.compile(r'^crtiv-error kind=\w+ type=\w+ msg="((?:[^"\\]|\\.)*)"\n$')


@pytest.mark.parametrize("flag", ["--input", "--weights"])
def test_a_quote_or_backslash_in_a_message_is_escaped(tmp_path, capsys, flag):
    value = 'a"b\\c'
    if flag == "--input":
        value = str(tmp_path / value)
        argv, expected = ["analyze", "--input", value], "[Errno 2] No such file or directory: "
    else:
        argv = ["analyze", "--input", "trial.csv", "--weights", value]
        expected = "argument --weights: invalid choice: "
    capsys.readouterr()
    assert cli.main(argv) == 2
    match = ERROR_LINE.match(capsys.readouterr().err)
    assert match
    message = re.sub(r"\\(.)", r"\1", match.group(1))
    assert message.startswith(expected + repr(value))


def test_line_breaks_in_a_message_become_spaces(capsys):
    cli._fail("numeric", "NonFiniteValue", "x = 1.5 in\rcluster c\n")
    assert capsys.readouterr().err == (
        'crtiv-error kind=numeric type=NonFiniteValue msg="x = 1.5 in cluster c "\n'
    )


@pytest.mark.parametrize("argv", [["--help"], ["simulate", "--help"]])
def test_help_still_prints_usage_and_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        cli.main(argv)
    assert exit_.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: crtiv") and captured.err == ""


@pytest.mark.parametrize("line", [1, 3, 4500])
@pytest.mark.parametrize("quote", ["", '"'], ids=["plain", "quoted"])
def test_an_overlong_cell_ends_in_one_parse_error_line(tmp_path, capsys, quote, line):
    # csv takes cells of at most csv.field_size_limit() characters (131,072).
    cell = quote + "c" * 140_000 + quote
    rows = [f"k{i % 7},{i % 7 % 2},0,{i}\n" for i in range(2, 5001)]
    if line == 1:
        header = f"cluster_id,z,d,y,x_{cell}\n"
        rows = [row.replace("\n", ",0\n") for row in rows]
    else:
        header = "cluster_id,z,d,y\n"
        rows[line - 2] = f"{cell},1,1,2\n"
    data = tmp_path / "long.csv"
    data.write_text(header + "".join(rows), encoding="utf-8")
    capsys.readouterr()
    assert cli.main(["analyze", "--input", str(data), "--output-dir", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(
        f'crtiv-error kind=validation type=ParseError msg="line {line}: field larger than'
    )
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


@pytest.mark.parametrize("threads", ["1", "2"])
def test_simulate_reports_overflow_in_one_configuration_at_any_thread_count(tmp_path, threads):
    # A fresh process, and at two threads its workers, run outside the
    # suite's warning filter: stderr holds the error line or nothing.
    paths = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    failed = 'crtiv-error kind=numeric type=NonFiniteValue msg="regression inputs are not finite"\n'
    # Outcomes near 1e308 overflow the adjustment's sums, which are redone
    # in power-of-two units; outcomes near 1.7e308 on both sides of 0 leave
    # residuals past the float range, which stop the study.
    spread = "beta_0 = -1.7e308\nbeta_c = 1.7e308\nbeta_cz = 1.7e308\n"
    for name, text, code, err in [
        ("1e307", "beta_0 = 1e307\n", 0, ""),
        ("1e308", "beta_0 = 1e308\n", 0, ""),
        ("spread", spread, 3, failed),
    ]:
        scenario = tmp_path / f"{name}.txt"
        scenario.write_text(f"clusters = 12\n{text}", encoding="utf-8")
        out = tmp_path / name
        argv = ["simulate", "--scenario", str(scenario), "--output-dir", str(out)]
        done = subprocess.run(
            [sys.executable, "-m", "crtiv.cli", *argv, "--replicates", "20", "--threads", threads],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert (done.returncode, done.stderr) == (code, err)
    # The overflowing outcomes fail some fits; the Monte Carlo errors of the
    # others stay finite.
    rows = read_rows(tmp_path / "1e307" / "report.csv")
    assert all(math.isfinite(float(row["mce_bias"])) for row in rows if int(row["n_fits"]) > 1)
    assert any(int(row["n_fit_failures"]) for row in rows)


# Importing scipy.stats costs about a second per process, more than a whole
# default `simulate`, and scipy.linalg tens of milliseconds; the package
# needs neither.  The process pool (concurrent.futures.process, which loads
# multiprocessing) costs a few milliseconds more, and only a study with
# more than one worker uses it.  The check runs in a fresh interpreter
# because the test modules import all of them themselves.
_IMPORT_PROBE = """
import json, sys
from pathlib import Path

def loaded():
    heavy = sorted(
        m for m in sys.modules
        if m in ("scipy.stats", "scipy.linalg") or m.startswith(("scipy.stats.", "scipy.linalg."))
    )
    return heavy, "concurrent.futures.process" in sys.modules

import crtiv, crtiv.cli
seen = {"import": loaded()}
Path("scn.txt").write_text("clusters = 12\\npoisson_mean = 6\\npi = 0.6\\n", encoding="utf-8")
simulate = ["simulate", "--scenario", "scn.txt", "--output-dir", "sim", "--replicates", "2"]
for name, argv in (
    ("generate", ["generate", "--scenario", "scn.txt", "--output-dir", "gen", "--seed", "1"]),
    ("analyze", ["analyze", "--input", "gen/trial.csv", "--adjust-x", "x_1", "--adjust-w", "w_1"]),
    ("simulate", simulate + ["--threads", "1"]),
    ("two workers", simulate + ["--threads", "2"]),
):
    assert crtiv.cli.main(argv) == 0, argv
    seen[name] = loaded()
print(json.dumps(seen))
"""


def test_cli_never_imports_scipy_stats(tmp_path):
    paths = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout.splitlines()[-1])
    assert list(seen) == ["import", "generate", "analyze", "simulate", "two workers"]
    # No scipy.stats or scipy.linalg anywhere, and no process pool until a
    # study runs two workers (where the host has two CPUs to run them).
    pooled = (os.cpu_count() or 1) > 1
    assert seen.pop("two workers") == [[], pooled]
    assert all(after == [[], False] for after in seen.values()), seen
