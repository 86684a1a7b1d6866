"""Invariants of ``crtiv analyze`` under relabelled and replicated records.

Each property runs the command line on a generated 16-cluster trial and on
a rewritten copy of its CSV:

- renaming every cluster with its order kept changes no byte of
  ``analysis.csv``;
- renaming the clusters in reverse order changes the numbers only at
  rounding level, as the regressions then see the clusters in another
  order;
- writing every record three times leaves the unweighted and
  cluster-size-weighted estimates and standard errors unchanged to
  rounding, because each cluster mean is unchanged and size weights are
  scale-free in weighted least squares.  Minimum-variance rows are left
  out: the ICC of replicated records is a different ICC.
"""

import csv
import io

import numpy as np
import pytest

from crtiv import cli
from crtiv.dgp import AdherenceLevel, ScenarioConfig, generate

SEEDS = range(8)
FLAGS = {"no flags": [], "x and w adjusted": ["--adjust-x", "x_1", "--adjust-w", "w_1"]}
RTOL = 1e-10  # worst seen over 12 seeds: 9.3e-15 relabelled, 2.3e-15 replicated


def trial_lines(tmp_path, seed: int) -> list[str]:
    """The CSV lines of a generated 16-cluster trial, header first; odd
    seeds draw adherence per individual, even seeds per cluster."""
    level = (AdherenceLevel.CLUSTER, AdherenceLevel.INDIVIDUAL)[seed % 2]
    path = tmp_path / "trial.csv"
    cli.write_dataset_csv(generate(ScenarioConfig(level, 16), seed=seed).dataset, path)
    return path.read_text(encoding="utf-8").splitlines(keepends=True)


def analysis_csv(tmp_path, name: str, lines: list[str], flags: list[str]) -> bytes:
    data = tmp_path / f"{name}.csv"
    data.write_text("".join(lines), encoding="utf-8")
    out = tmp_path / name
    assert cli.main(["analyze", "--input", str(data), "--output-dir", str(out), *flags]) == 0
    return (out / "analysis.csv").read_bytes()


def rows(analysis: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(analysis.decode("utf-8"))))


def relabelled(lines: list[str], rename) -> list[str]:
    header, *body = lines
    return [header] + [rename(cid) + "," + rest for cid, rest in (b.split(",", 1) for b in body)]


def assert_close(left: list[dict], right: list[dict], columns) -> None:
    labels = ("estimator", "cl_outcome", "adjust_w", "weights", "se_mode", "df_mode")
    assert [[r[k] for k in labels] for r in left] == [[r[k] for k in labels] for r in right]
    for column in columns:
        a, b = (np.array([float(r[column]) for r in side]) for side in (left, right))
        np.testing.assert_allclose(b, a, rtol=RTOL, atol=0, err_msg=column)


@pytest.mark.parametrize("flags", FLAGS.values(), ids=FLAGS)
def test_renaming_clusters_in_order_changes_no_byte(tmp_path, flags):
    for seed in SEEDS:
        lines = trial_lines(tmp_path, seed)
        renamed = relabelled(lines, lambda cid: "zz" + cid)
        assert analysis_csv(tmp_path, "renamed", renamed, flags) == analysis_csv(
            tmp_path, "original", lines, flags
        ), seed


@pytest.mark.parametrize("flags", FLAGS.values(), ids=FLAGS)
def test_renaming_clusters_in_reverse_order_changes_only_rounding(tmp_path, flags):
    for seed in SEEDS:
        lines = trial_lines(tmp_path, seed)
        ids = sorted({line.split(",", 1)[0] for line in lines[1:]})
        reverse = dict(zip(ids, reversed(ids)))
        original = rows(analysis_csv(tmp_path, "original", lines, flags))
        renamed = rows(analysis_csv(tmp_path, "renamed", relabelled(lines, reverse.get), flags))
        assert_close(original, renamed, ["estimate", "se", "p", "first_stage_f"])


@pytest.mark.parametrize("flags", FLAGS.values(), ids=FLAGS)
def test_writing_every_record_three_times_keeps_none_and_cs_cells(tmp_path, flags):
    for seed in SEEDS:
        header, *body = trial_lines(tmp_path, seed)
        tripled = [header] + [line for line in body for _ in range(3)]
        original, replicated = (
            [r for r in rows(analysis_csv(tmp_path, name, lines, flags)) if r["weights"] != "mv"]
            for name, lines in (("original", [header, *body]), ("tripled", tripled))
        )
        assert len(original) == len(replicated) > 0
        assert_close(original, replicated, ["estimate", "se"])
