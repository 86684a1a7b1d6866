"""Workload inputs, command lines and output checks for the crtiv benchmark.

Every input is made by this module from the workload seed, so the program
under test receives only files: a scenario file for ``simulate``, and for
``analyze`` a trial CSV written with plain numpy (not with ``crtiv
generate``), so that two commits analyse identical bytes.

Each check returns a list of problems; an empty list means the outputs are
correct.  ``analyze`` outputs are compared against an independent numpy
oracle, ``simulate`` reports against the statistical reference in
``reference.json`` (recorded at the seed commit by ``make_reference.py``).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import stats

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"
N_VARIANTS = 48


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: which subcommand runs, on what, and why."""

    name: str
    command: str
    why: str
    scenario: str = ""
    replicates: int = 0
    rows: int = 0
    clusters: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sim_default",
            command="simulate",
            why="default scenario, full 48-cell grid, 1 worker: the per-replicate grid fit dominates",
            scenario="",
            replicates=40,
        ),
        Workload(
            name="analyze_200k",
            command="analyze",
            why="200k-row CSV with x and w adjustment: CSV ingest, validation and collapse dominate, the grid is small",
            rows=200_000,
            clusters=400,
        ),
    )
}


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


# --- inputs --------------------------------------------------------------------


def prepare_inputs(workload: Workload, seed: int, workdir: Path) -> dict[str, Path]:
    """Write the workload's input files into ``workdir``; name -> path."""
    workdir.mkdir(parents=True, exist_ok=True)
    if workload.command == "analyze":
        path = workdir / "trial.csv"
        write_analyze_csv(path, seed, workload.rows, workload.clusters)
        return {"trial.csv": path}
    path = workdir / "scenario.txt"
    path.write_text(
        f"# {workload.name} scenario written by the benchmark\n{workload.scenario}",
        encoding="utf-8",
    )
    return {"scenario.txt": path}


def cli_args(workload: Workload, inputs: dict[str, Path], seed: int, outdir: Path) -> list[str]:
    """Arguments of ``crtiv`` (after the program name) for one invocation."""
    if workload.command == "analyze":
        return [
            "analyze",
            "--input", str(inputs["trial.csv"]),
            "--output-dir", str(outdir),
            "--adjust-x", "x_1",
            "--adjust-w", "w_1",
        ]
    args = [workload.command, "--scenario", str(inputs["scenario.txt"]), "--output-dir", str(outdir)]
    args += ["--seed", str(seed)]
    if workload.command == "simulate":
        args += ["--replicates", str(workload.replicates), "--threads", "1"]
    return args


def output_files(workload: Workload) -> tuple[str, ...]:
    """The machine-readable files one invocation must write."""
    return {
        "simulate": ("report.csv",),
        "analyze": ("analysis.csv",),
    }[workload.command]


def rows_processed(workload: Workload, outdir: Path) -> int:
    """CSV data rows read or written by one invocation (headers excluded)."""
    read = workload.rows if workload.command == "analyze" else 0
    written = 0
    for name in output_files(workload):
        with open(outdir / name, "rb") as handle:
            written += sum(1 for _ in handle) - 1
    return read + written


def write_analyze_csv(path, seed: int, n_rows: int, n_clusters: int) -> None:
    """An individual-level trial CSV made with plain numpy from ``seed``.

    Exactly ``n_rows`` rows in ``n_clusters`` clusters, half of them assigned
    to treatment, individual-level adherence that depends on ``w_1`` and
    ``x_1``, and a true complier effect of 0.4.  Numbers are written with six
    decimals, so the file is a pure function of (seed, sizes) and the
    numpy version.
    """
    rng = np.random.default_rng([seed, n_rows, n_clusters])
    sizes = 1 + rng.multinomial(n_rows - n_clusters, np.full(n_clusters, 1.0 / n_clusters))
    codes = np.repeat(np.arange(n_clusters), sizes)
    z_cluster = np.zeros(n_clusters, dtype=int)
    z_cluster[rng.permutation(n_clusters)[: n_clusters // 2]] = 1
    w_cluster = rng.normal(0.0, 0.3, n_clusters)
    x = rng.normal(0.0, 0.2, n_clusters)[codes] + rng.normal(0.0, 1.0, n_rows)
    complier = rng.random(n_rows) < 1.0 / (1.0 + np.exp(-(0.3 + 0.5 * w_cluster[codes] + 0.3 * x)))
    d = z_cluster[codes] * complier
    y = (
        0.4 * d
        + 0.2 * w_cluster[codes]
        + 0.3 * x
        + rng.normal(0.0, math.sqrt(0.05), n_clusters)[codes]
        + rng.normal(0.0, math.sqrt(0.95), n_rows)
    )
    ids = [f"site{j:04d}" for j in range(n_clusters)]
    w_text = [f"{v:.6f}" for v in w_cluster]
    lines = ["cluster_id,z,d,y,w_1,x_1\n"]
    lines += [
        f"{ids[c]},{z_cluster[c]},{di},{yi:.6f},{w_text[c]},{xi:.6f}\n"
        for c, di, yi, xi in zip(codes.tolist(), d.tolist(), y.tolist(), x.tolist())
    ]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.writelines(lines)


# --- analyze: numpy oracle -------------------------------------------------------

ORACLE_RTOL = 1e-8
ORACLE_ATOL = 1e-12
_Z975 = float(stats.norm.ppf(0.975))


def _read_trial(path):
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        columns = list(zip(*reader))
    data = dict(zip(header, columns))
    return {
        "cluster_id": np.array(data["cluster_id"]),
        **{k: np.array(data[k], dtype=float) for k in ("z", "d", "y", "w_1", "x_1")},
    }


def _wls(design, response, weights):
    """Coefficients and the (X'WX)^-1 bread, by the normal equations."""
    bread = np.linalg.inv(design.T @ (design * weights[:, None]))
    return bread @ design.T @ (weights * response), bread


def _covariances(design, residuals, weights, bread):
    n, p = design.shape
    cov_model = bread * float(weights @ residuals**2) / (n - p)
    meat = design.T @ (design * (weights**2 * residuals**2)[:, None])
    return {"model": cov_model, "hw": bread @ meat @ bread}


def analyze_oracle(trial_path) -> dict[tuple, dict]:
    """Expected analysis rows for ``--adjust-x x_1 --adjust-w w_1``.

    Independent of the package: OLS residual adjustment on ``[1, x_1]``,
    cluster means in lexicographic cluster order, the one-way ANOVA ICC of
    the residuals, and unweighted, size-weighted and minimum-variance
    two-stage and ITT fits by the normal equations.  Keyed by
    ``(estimator, adjust_w, weights, se_mode, df_mode)``.
    """
    t = _read_trial(trial_path)
    design = np.column_stack([np.ones(len(t["y"])), t["x_1"]])
    coef, *_ = np.linalg.lstsq(design, t["y"], rcond=None)
    resid = t["y"] - design @ coef

    _, codes = np.unique(t["cluster_id"], return_inverse=True)
    n = np.bincount(codes).astype(float)
    n_clusters = len(n)
    ybar = np.bincount(codes, resid) / n
    dbar = np.bincount(codes, t["d"]) / n
    z = (np.bincount(codes, t["z"]) > 0).astype(float)
    w = np.bincount(codes, t["w_1"]) / n

    # one-way ANOVA ICC of the residuals, truncated at zero
    total = n.sum()
    msb = float(n @ (ybar - resid.mean()) ** 2) / (n_clusters - 1)
    msw = float(((resid - ybar[codes]) ** 2).sum()) / (total - n_clusters)
    n0 = (total - float(n @ n) / total) / (n_clusters - 1)
    between = max(0.0, (msb - msw) / n0)
    rho = between / (between + msw)

    ones = np.ones(n_clusters)
    gamma, bread = _wls(np.column_stack([ones, z]), dbar, ones)
    fs_resid = dbar - np.column_stack([ones, z]) @ gamma
    first_stage_f = gamma[1] ** 2 / (bread[1, 1] * float(fs_resid @ fs_resid) / (n_clusters - 2))

    rows = {}
    weight_schemes = {"none": ones, "cs": n, "mv": n / (1.0 + rho * (n - 1.0))}
    for adjust_w in (0, 1):
        extra = [w] if adjust_w else []
        p = 2 + len(extra)
        for scheme, weights in weight_schemes.items():
            instruments = np.column_stack([ones, z, *extra])
            gamma, _ = _wls(instruments, dbar, weights)
            fitted = np.column_stack([ones, instruments @ gamma, *extra])
            beta, bread = _wls(fitted, ybar, weights)
            structural = ybar - np.column_stack([ones, dbar, *extra]) @ beta
            late_cov = _covariances(fitted, structural, weights, bread)

            itt_beta, itt_bread = _wls(instruments, ybar, weights)
            itt_cov = _covariances(instruments, ybar - instruments @ itt_beta, weights, itt_bread)

            for estimator, estimate, covs, f_stat in (
                ("late", beta[1], late_cov, first_stage_f),
                ("itt", itt_beta[1], itt_cov, math.nan),
            ):
                for se_mode, cov in covs.items():
                    se = math.sqrt(cov[1, 1])
                    for df_mode in ("normal", "ssdf"):
                        if df_mode == "normal":
                            df, crit = math.inf, _Z975
                            p_value = 2.0 * stats.norm.sf(abs(estimate / se))
                        else:
                            df = float(n_clusters - p)
                            crit = float(stats.t.ppf(0.975, df))
                            p_value = 2.0 * stats.t.sf(abs(estimate / se), df)
                        rows[(estimator, adjust_w, scheme, se_mode, df_mode)] = {
                            "estimate": float(estimate),
                            "se": se,
                            "ci_low": float(estimate - crit * se),
                            "ci_high": float(estimate + crit * se),
                            "p": float(p_value),
                            "df": df,
                            "first_stage_f": float(f_stat),
                            "n_clusters": float(n_clusters),
                        }
    return rows


def _read_csv_rows(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def check_analyze(outdir: Path, oracle: dict[tuple, dict]) -> list[str]:
    """Compare ``analysis.csv`` with the oracle, row by row and field by field."""
    problems = []
    rows = _read_csv_rows(outdir / "analysis.csv")
    seen = set()
    for row in rows:
        key = (row["estimator"], int(row["adjust_w"]), row["weights"], row["se_mode"], row["df_mode"])
        if key in seen or key not in oracle:
            problems.append(f"unexpected or repeated row {key}")
            continue
        seen.add(key)
        if row["cl_outcome"] != "adjusted_for_x":
            problems.append(f"{key}: cl_outcome {row['cl_outcome']!r}")
        for field, expected in oracle[key].items():
            got = float(row[field])
            same_nan = math.isnan(expected) and math.isnan(got)
            if not same_nan and not math.isclose(got, expected, rel_tol=ORACLE_RTOL, abs_tol=ORACLE_ATOL):
                problems.append(f"{key}: {field} {got!r} != oracle {expected!r}")
    if len(seen) != N_VARIANTS:
        problems.append(f"{len(seen)} distinct rows, expected {N_VARIANTS}")
    return problems


# --- simulate: structure and the seed-commit reference ---------------------------

REPORT_FIELDS = ("bias", "coverage", "mean_se")
# A report field passes when it lies within K_SD reference standard deviations
# (the spread of that field over independent studies of the same size at the
# seed commit) of the reference mean, plus a floor for fields whose reference
# spread is zero.
K_SD = 8.0
FLOOR = {"bias": 1e-9, "coverage": 0.05, "mean_se": 1e-9}


def variant_label(row: dict) -> str:
    return "/".join(
        (row["cl_outcome"], row["adjust_w"], row["weights"], row["se_mode"], row["df_mode"])
    )


def load_reference(workload: Workload) -> dict:
    reference = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))[workload.name]
    if reference["replicates"] != workload.replicates or reference["scenario"] != workload.scenario:
        raise ValueError(f"reference.json does not describe {workload.name}; rerun make_reference.py")
    return reference


def check_simulate(outdir: Path, workload: Workload, reference: dict | None) -> tuple[list[str], int]:
    """Structural checks of ``report.csv``, and statistical ones of
    ``REPORT_FIELDS`` against ``reference`` (when given).

    Returns the problems and the summed ``n_fit_failures``.
    """
    problems = []
    rows = _read_csv_rows(outdir / "report.csv")
    labels = [variant_label(r) for r in rows]
    if len(rows) != N_VARIANTS or len(set(labels)) != N_VARIANTS:
        problems.append(f"{len(rows)} rows / {len(set(labels))} variants, expected {N_VARIANTS}")
    failures = 0
    for label, row in zip(labels, rows):
        replicates = int(row["n_replicates"])
        fits, failed = int(row["n_fits"]), int(row["n_fit_failures"])
        failures += failed
        if replicates != workload.replicates:
            problems.append(f"{label}: n_replicates {replicates}")
        if int(row["attempts"]) != replicates + int(row["rejected_weak"]):
            problems.append(f"{label}: attempts != n_replicates + rejected_weak")
        if fits + failed != replicates:
            problems.append(f"{label}: n_fits + n_fit_failures != n_replicates")
        if reference is None:
            continue
        expected = reference["variants"].get(label)
        if expected is None:
            problems.append(f"{label}: not in the reference")
            continue
        for field in REPORT_FIELDS:
            got = float(row[field])
            mean, sd = expected[field]
            if not abs(got - mean) <= K_SD * sd + FLOOR[field]:
                problems.append(f"{label}: {field} {got:.6g} outside {mean:.6g} +- {K_SD}*{sd:.3g}")
    return problems, failures
