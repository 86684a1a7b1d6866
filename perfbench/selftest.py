"""Tests of the benchmark itself: tracing coverage, count stability, checks.

They run the CLI in-process on small versions of the workloads.  They pin
the seed commit's call structure (48 two-stage fits per replicate and so
on), so they are kept out of the package's test suite; run them with::

    PYTHONPATH=src python3 -m pytest -q perfbench/selftest.py
"""

import csv
import json
from dataclasses import replace
from pathlib import Path

import pytest

import run
import tracer
import workloads as wl

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# binding sites that the command line's code paths go through, per subcommand
EXPECTED_SITES = {
    "simulate": {
        "crtiv.cli.main",
        "crtiv.mc.run_study",
        "crtiv.mc.fit_variants",
        "crtiv.mc.generate",
        "crtiv.mc.screen_weak_instrument",
        "crtiv.iv.tsls",
        "crtiv.iv.first_stage_f",
        "crtiv.wls.fit_wls",
        "crtiv.wls.inference",
        "crtiv.wls.critical_value",
        "crtiv.collapse.cluster_means",
        "crtiv.collapse.summaries_from_values",
        "crtiv.collapse.continuous_residuals",
        "crtiv.collapse.anova_icc",
        "crtiv.model.TrialDataset.columns",
    },
    "analyze": {
        "crtiv.cli.main",
        "crtiv.cli.ingest_csv",
        "crtiv.cli.validate",
        "crtiv.iv.tsls",
        "crtiv.iv.itt",
        "crtiv.iv.first_stage_f",
        "crtiv.wls.fit_wls",
        "crtiv.wls.inference",
        "crtiv.wls.critical_value",
        "crtiv.collapse.summaries_from_values",
        "crtiv.collapse.continuous_residuals",
        "crtiv.collapse.anova_icc",
        "crtiv.model.TrialDataset.columns",
    },
}
SMALL = {
    "sim_default": replace(wl.WORKLOADS["sim_default"], replicates=4),
    "analyze_200k": replace(wl.WORKLOADS["analyze_200k"], rows=3000, clusters=40),
}


def traced_run(workload, tmp_path: Path, seed: int, tag: str) -> tuple[dict, Path]:
    inputs = wl.prepare_inputs(workload, seed, tmp_path / "inputs")
    outdir = tmp_path / tag
    result, _ = tracer.run_main(wl.cli_args(workload, inputs, seed, outdir), trace=True)
    assert result["code"] == 0
    return result, outdir


@pytest.mark.parametrize("name", sorted(SMALL))
def test_every_binding_site_records_a_span(name, tmp_path):
    workload = SMALL[name]
    result, _ = traced_run(workload, tmp_path, seed=3, tag="out")
    sites = result["site_calls"]
    assert {s for s in EXPECTED_SITES[workload.command] if sites.get(s, 0) == 0} == set()


def test_tracer_restores_the_package(tmp_path):
    import crtiv.cli
    import crtiv.mc
    import crtiv.wls

    before = (crtiv.cli.main, crtiv.mc.generate, crtiv.wls.fit_wls, crtiv.model.TrialDataset.columns)
    traced_run(SMALL["sim_default"], tmp_path, seed=1, tag="out")
    after = (crtiv.cli.main, crtiv.mc.generate, crtiv.wls.fit_wls, crtiv.model.TrialDataset.columns)
    assert before == after


def test_calls_repeat_and_match_per_replicate_counts(tmp_path):
    workload = SMALL["sim_default"]
    first, outdir = traced_run(workload, tmp_path, seed=5, tag="a")
    second, _ = traced_run(workload, tmp_path, seed=5, tag="b")
    assert first["calls"] == second["calls"]
    with open(outdir / "report.csv", newline="", encoding="utf-8") as handle:
        row = next(csv.DictReader(handle))
    assert int(row["rejected_weak"]) == 0
    r = workload.replicates
    calls = first["calls"]
    assert calls["iv.tsls"] == 48 * r
    assert calls["iv.first_stage_f"] == 49 * r
    assert calls["wls.fit_wls"] == 146 * r
    assert calls["wls.inference"] == 48 * r
    assert calls["mc.fit_variants"] == calls["dgp.generate"] == r


def test_self_time_excludes_children():
    t = tracer.Tracer()
    t.spans[:] = [["outer", 0.0, 10.0, -1], ["inner", 1.0, 4.0, 0], ["leaf", 2.0, 3.0, 1], ["inner", 5.0, 6.0, 0]]
    summary = t.summary()
    assert summary["calls"] == {"outer": 1, "inner": 2, "leaf": 1}
    assert summary["self_s"] == pytest.approx({"outer": 6.0, "inner": 3.0, "leaf": 1.0})


def test_analyze_oracle_accepts_output_and_rejects_perturbation(tmp_path):
    workload = SMALL["analyze_200k"]
    _, outdir = traced_run(workload, tmp_path, seed=2, tag="out")
    oracle = wl.analyze_oracle(tmp_path / "inputs" / "trial.csv")
    assert wl.check_analyze(outdir, oracle) == []

    path = outdir / "analysis.csv"
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    estimate = rows[0].index("estimate")
    rows[7][estimate] = repr(float(rows[7][estimate]) * (1.0 + 1e-6))
    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerows(rows)
    problems = wl.check_analyze(outdir, oracle)
    assert len(problems) == 1 and "estimate" in problems[0]


def test_simulate_checks_pass_on_real_output(tmp_path):
    workload = SMALL["sim_default"]
    _, outdir = traced_run(workload, tmp_path, seed=4, tag="sim")
    problems, failures = wl.check_simulate(outdir, workload, reference=None)
    assert problems == [] and failures == 0


def test_analyze_input_is_a_pure_function_of_the_seed(tmp_path):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"]
    for path, seed in zip(paths, (7, 7, 8)):
        wl.write_analyze_csv(path, seed, 500, 10)
    digests = [wl.sha256_file(p) for p in paths]
    assert digests[0] == digests[1] != digests[2]
    with open(paths[0], encoding="utf-8") as handle:
        assert sum(1 for _ in handle) == 501


def test_reported_metrics_match_benchmark_json():
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == [
        (w.name, w.why) for w in wl.WORKLOADS.values()
    ]
    sample = {"ok": True, "setup_s": 1.0, "wall_s": 3.0, "cpu_s": 3.0, "peak_rss_mb": 99.0, "main_s": 2.0, "rows": 48}
    sample["probe_s"] = run.PROBE_REFERENCE_S
    end_to_end = run.end_to_end_metrics(wl.WORKLOADS["sim_default"], [sample])
    assert {k: u for k, (_, u) in end_to_end.items()} == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    imports = [{"numpy_import_s": 0.1, "scipy_import_s": 1.0, "crtiv_import_s": 0.1, "probe_s": 0.2}]
    traced = [{"ok": True, "calls": {}, "counters": {}, "self_s": {}, "main_s": 2.5, "probe_s": 0.2}]
    per_layer = run.per_layer_metrics(imports, [{"ok": True, "main_s": 2.0, "probe_s": 0.2}], traced)
    assert {k: u for k, (_, u) in per_layer.items()} == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}


def test_times_are_scaled_to_the_reference_host_speed():
    sample = {"ok": True, "setup_s": 1.0, "wall_s": 3.0, "cpu_s": 2.8, "peak_rss_mb": 99.0, "main_s": 2.0, "rows": 48}
    at_reference = run.end_to_end_metrics(wl.WORKLOADS["sim_default"], [{**sample, "probe_s": run.PROBE_REFERENCE_S}])
    # a host running at half the reference speed: the probe takes twice as long
    slow_host = run.end_to_end_metrics(wl.WORKLOADS["sim_default"], [{**sample, "probe_s": 2 * run.PROBE_REFERENCE_S}])
    for name in ("setup_s", "wall_s", "cpu_s"):
        assert slow_host[name][0] == pytest.approx(at_reference[name][0] / 2)
    for name in ("replicates_per_s", "rows_per_s"):
        assert slow_host[name][0] == pytest.approx(at_reference[name][0] * 2)
    assert slow_host["peak_rss_mb"] == at_reference["peak_rss_mb"]
