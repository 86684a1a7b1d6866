"""Command line front end and CSV input/output.

Three subcommands: ``analyze`` ingests an individual-level trial CSV and
emits the estimate grid, ``simulate`` runs a Monte Carlo study from a
scenario file, ``generate`` writes one synthetic trial with its latent-truth
sidecars.

Input CSV schema: a header row with ``cluster_id`` (string), ``z`` and ``d``
(0/1), ``y`` (number), plus optional ``w_*`` cluster-level columns (constant
within each cluster) and ``x_*`` individual-level columns.  UTF-8, comma
separated, ``.`` decimal point.  Machine-readable outputs print floats with
17 significant digits so they round-trip exactly; pretty tables use 3
decimals.

Exit codes: 0 success, 2 invalid input, 3 numeric failure.  Errors go to
stderr as single-line ``key=value`` records.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from itertools import islice, product
from pathlib import Path

import numpy as np

from . import iv, mc
from .dgp import (
    AdherenceLevel,
    GeneratedTrial,
    ParetoSizes,
    PoissonSizes,
    ScenarioConfig,
    generate,
)
from .errors import (
    CovariateShapeMismatch,
    CrtivError,
    NonConstantClusterCovariate,
    ParseError,
    SchemaMismatch,
    ValidationFailure,
)
from .model import (
    AnalysisOptions,
    Columns,
    DfMode,
    OutcomeKind,
    SeMode,
    TrialDataset,
    Weights,
    validate,
    whole_to_int,
)

_REQUIRED_COLUMNS = ("cluster_id", "z", "d", "y")


def _machine(x: float) -> str:
    return f"{x:.17g}"


def _pretty(x: float) -> str:
    if math.isinf(x):
        return "inf"
    return f"{x:.3f}"


# --- CSV ingestion -----------------------------------------------------------


def csv_columns(path) -> tuple[list[str], list[str]]:
    """The ``x_*`` and ``w_*`` column names of a trial CSV, in header order."""
    with open(path, newline="", encoding="utf-8-sig") as handle:
        header = next(csv.reader(handle), None)
    if header is None:
        raise SchemaMismatch(f"{path}: empty file")
    return (
        [c for c in header if c.startswith("x_")],
        [c for c in header if c.startswith("w_")],
    )


# Data rows are parsed this many at a time: enough for numpy to do the
# per-cell work, few enough that only one block of raw text is held.
_BLOCK_ROWS = 4096


def ingest_csv(path, outcome_kind: OutcomeKind = OutcomeKind.CONTINUOUS) -> TrialDataset:
    """Read an individual-level trial CSV into a (not yet validated) dataset.

    Rows are tokenised by :mod:`csv` and converted a block at a time
    straight into the dataset's columns: each numeric column of a block in
    one numpy call (which accepts exactly the text ``float`` accepts),
    cluster ids to integer codes in first-seen order, and the ``w_*``
    values of each row checked against the first row of its cluster.  A
    block with any fault is read again cell by cell, so the error reported
    is the first one in file order, with its line number.

    Raises :class:`SchemaMismatch` for header problems,
    :class:`ParseError` (with the file line number) for malformed cells, and
    :class:`NonConstantClusterCovariate` when a ``w_*`` column varies inside
    a cluster.
    """
    # utf-8-sig also accepts spreadsheet exports that lead with a BOM
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise SchemaMismatch(f"{path}: empty file")
        for required in _REQUIRED_COLUMNS:
            if required not in header:
                raise SchemaMismatch(f"{path}: missing column {required!r}")
        known = set(_REQUIRED_COLUMNS)
        extras = [c for c in header if c not in known]
        bad = [c for c in extras if not (c.startswith("w_") or c.startswith("x_"))]
        if bad:
            raise SchemaMismatch(f"{path}: unrecognised columns {bad}")
        if len(set(header)) != len(header):
            raise SchemaMismatch(f"{path}: duplicate column names")

        x_names = [c for c in header if c.startswith("x_")]
        w_names = [c for c in header if c.startswith("w_")]
        # Numeric columns in the order a row's cells are checked.
        numeric = [(name, header.index(name)) for name in ["z", "d", "y", *x_names, *w_names]]
        id_position = header.index("cluster_id")
        n_w = len(w_names)

        code_of: dict[str, int] = {}  # cluster id -> code, in first-seen order
        first_w = np.empty((0, n_w))  # w of each cluster's first row, by code
        first_line: list[int] = []  # file line of each cluster's first row, by code
        code_blocks, value_blocks = [], []
        line = 2  # file line of the block's first row
        while block := list(islice(reader, _BLOCK_ROWS)):
            n_known = len(first_line)  # clusters seen in earlier blocks
            parsed = _bulk_values(block, len(header), id_position, [p for _, p in numeric])
            if parsed is not None:
                ids, values = parsed
                for cid in dict.fromkeys(ids):
                    code_of.setdefault(cid, len(code_of))
                codes = np.fromiter(map(code_of.__getitem__, ids), np.intp, len(ids))
                w = values[len(numeric) - n_w :].T
                seen, first_rows = np.unique(codes, return_index=True)
                fresh = first_rows[seen >= n_known]
                if fresh.size:
                    first_w = np.concatenate([first_w, w[fresh]])
                    first_line += (line + fresh).tolist()
                if n_w and (w != first_w[codes]).any():
                    parsed = None
            if parsed is None:
                earlier = zip(code_of, first_w[:n_known].tolist(), first_line[:n_known])
                _raise_first_fault(
                    block, line, len(header), id_position, numeric, n_w,
                    {cid: (tuple(w_first), first) for cid, w_first, first in earlier},
                )
            code_blocks.append(codes)
            value_blocks.append(values)
            line += len(block)

    if not code_of:
        raise SchemaMismatch(f"{path}: no data rows")
    ids = list(code_of)
    order = sorted(range(len(ids)), key=ids.__getitem__)
    rank = np.empty(len(ids), dtype=np.intp)
    rank[order] = np.arange(len(ids))
    codes = rank[np.concatenate(code_blocks)]
    values = np.concatenate(value_blocks, axis=1)
    columns = Columns(
        cluster_ids=tuple(ids[i] for i in order),
        codes=codes,
        z=values[0],
        d=values[1],
        y=values[2],
        x=np.ascontiguousarray(values[3 : 3 + len(x_names)].T),
        sizes=np.bincount(codes, minlength=len(ids)).astype(np.intp),
    )
    return TrialDataset(
        cluster_covariates=dict(zip(ids, map(tuple, first_w.tolist()))),
        outcome_kind=outcome_kind,
        columns=columns,
    )


def _bulk_values(block, n_fields: int, id_position: int, positions: list[int]):
    """The cluster ids of a block and its numeric cells as a (columns x
    rows) float array, or ``None`` when a row is ragged or a cell is not a
    finite number."""
    if set(map(len, block)) != {n_fields}:
        return None
    try:
        values = np.array([[row[p] for row in block] for p in positions], dtype=float)
    except ValueError:
        return None
    if not np.isfinite(values).all():
        return None
    return [row[id_position] for row in block], values


def _raise_first_fault(block, line, n_fields, id_position, numeric, n_w, known):
    """Read a faulty block row by row and raise its first fault.

    ``line`` is the file line of the block's first row, ``numeric`` the
    (name, position) of each numeric column in checking order, and
    ``known`` maps the clusters of earlier blocks to their first ``w``
    values and line.
    """
    for line, row in enumerate(block, start=line):
        if len(row) != n_fields:
            raise ParseError(f"expected {n_fields} fields, found {len(row)}", line=line)
        values = [_parse_float(row[position], name, line) for name, position in numeric]
        cid, w = row[id_position], tuple(values[len(values) - n_w :])
        first_w, first_line = known.setdefault(cid, (w, line))
        if first_w != w:
            raise NonConstantClusterCovariate(
                f"cluster {cid}: w columns differ between line {first_line} and line {line}"
            )
    raise AssertionError("a block failed the bulk parse but has no faulty row")


def _parse_float(text: str, column: str, line: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"column {column!r}: cannot parse {text!r}", line=line) from None
    if not math.isfinite(value):
        raise ParseError(f"column {column!r}: non-finite value {text!r}", line=line)
    return value


# --- CSV output --------------------------------------------------------------


def _write_csv(path, header, rows) -> None:
    """Write ``rows`` under ``header``; floats at 17 significant digits."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([v if isinstance(v, (str, int)) else _machine(v) for v in row])


def write_dataset_csv(dataset: TrialDataset, path) -> None:
    """Write a dataset in the ingestion schema (values round-trip exactly).

    Raises :class:`CovariateShapeMismatch`, before writing anything, when
    the clusters' ``w`` vectors differ in length (a cluster missing from
    ``cluster_covariates`` has length 0): the schema has one set of ``w_*``
    columns for every row.
    """
    cols = dataset.columns()
    w = [dataset.covariate_vector(cid) for cid in cols.cluster_ids]
    widths = sorted({len(v) for v in w})
    if len(widths) > 1:
        raise CovariateShapeMismatch(
            f"cluster covariate vectors have lengths {widths}; the CSV schema needs one length"
        )
    n_w = widths[0] if widths else 0
    header = (
        list(_REQUIRED_COLUMNS)
        + [f"w_{i + 1}" for i in range(n_w)]
        + [f"x_{i + 1}" for i in range(cols.x.shape[1])]
    )
    rows = (
        [cols.cluster_ids[c], z, d, y, *w[c], *x]
        for c, z, d, y, x in zip(
            cols.codes.tolist(),
            whole_to_int(cols.z),
            whole_to_int(cols.d),
            cols.y.tolist(),
            cols.x.tolist(),
        )
    )
    _write_csv(path, header, rows)


def write_truth_sidecars(trial: GeneratedTrial, cluster_path, individual_path) -> None:
    """Write per-cluster complier weights and per-individual classes."""
    cols = trial.dataset.columns()
    clusters = zip(
        cols.cluster_ids,
        cols.sizes.tolist(),
        trial.n_compliers.tolist(),
        trial.psi.tolist(),
        trial.psi_cl.tolist(),
    )
    _write_csv(cluster_path, ["cluster_id", "n", "n_compliers", "psi", "psi_cl"], clusters)
    individuals = (
        [i, cols.cluster_ids[c], cls.value]
        for i, (c, cls) in enumerate(zip(cols.codes.tolist(), trial.compliance))
    )
    _write_csv(individual_path, ["row", "cluster_id", "compliance"], individuals)


# --- scenario files ----------------------------------------------------------

# Scenario keys that are ScenarioConfig fields of the same name, read as plain
# numbers; an absent key keeps the ScenarioConfig default.
_NUMERIC_KEYS = tuple(
    "rho_y rho_x rho_c pi lambda_w lambda_x beta_w beta_x beta_cz beta_0 beta_c "
    "sigma2_w sigma2_x total_variance".split()
)
_SCENARIO_KEYS = {
    "adherence",
    "clusters",
    "sizes",
    "poisson_mean",
    "pareto_shape",
    "pareto_scale",
    "pareto_min",
    *_NUMERIC_KEYS,
}


def read_scenario(path) -> ScenarioConfig:
    """Parse a flat ``key = value`` scenario file (``#`` starts a comment)."""
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(f"expected 'key = value', got {raw.strip()!r}", line=line_no)
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in _SCENARIO_KEYS:
                raise SchemaMismatch(f"{path}: unknown scenario key {key!r}")
            values[key] = value

    def number(key: str, default: float) -> float:
        return float(values.get(key, default))

    kind = values.get("sizes", "poisson").lower()
    if kind not in ("poisson", "pareto"):
        raise SchemaMismatch(f"{path}: sizes must be poisson or pareto, got {kind!r}")

    adherence = values.get("adherence", "cluster").lower()
    try:
        level = AdherenceLevel(adherence)
    except ValueError:
        raise SchemaMismatch(
            f"{path}: adherence must be cluster or individual, got {adherence!r}"
        ) from None

    try:
        if kind == "poisson":
            sizes = PoissonSizes(mean=number("poisson_mean", 20.0))
        else:
            sizes = ParetoSizes(
                shape=number("pareto_shape", 1.8),
                scale=number("pareto_scale", 9.1),
                minimum=int(number("pareto_min", 10)),
            )
        return ScenarioConfig(
            adherence=level,
            n_clusters=int(number("clusters", 50)),
            sizes=sizes,
            **{key: float(values[key]) for key in _NUMERIC_KEYS if key in values},
        )
    except (ValueError, OverflowError) as exc:
        raise SchemaMismatch(f"{path}: {exc}") from exc


def scenario_echo(config: ScenarioConfig, seed: int, replicates: int) -> str:
    """Resolved configuration in the scenario-file syntax, for provenance."""
    lines = [
        f"adherence = {config.adherence.value}",
        f"clusters = {config.n_clusters}",
    ]
    if isinstance(config.sizes, PoissonSizes):
        lines += ["sizes = poisson", f"poisson_mean = {_machine(config.sizes.mean)}"]
    else:
        lines += [
            "sizes = pareto",
            f"pareto_shape = {_machine(config.sizes.shape)}",
            f"pareto_scale = {_machine(config.sizes.scale)}",
            f"pareto_min = {config.sizes.minimum}",
        ]
    for key in _NUMERIC_KEYS:
        lines.append(f"{key} = {_machine(getattr(config, key))}")
    lines += [f"# seed = {seed}", f"# replicates = {replicates}"]
    return "\n".join(lines) + "\n"


# --- analyze -----------------------------------------------------------------

_WEIGHT_FLAGS = {"none": Weights.NONE, "cs": Weights.CLUSTER_SIZE, "mv": Weights.MIN_VARIANCE}
_SE_FLAGS = {"model": SeMode.MODEL_BASED, "hw": SeMode.HUBER_WHITE}
_DF_FLAGS = {"normal": DfMode.NORMAL_APPROX, "ssdf": DfMode.SMALL_SAMPLE}


def _analysis_rows(dataset: TrialDataset, args) -> list[dict]:
    """Fit the requested grid: per combination one LATE row and one ITT row."""
    validate(dataset)
    x_columns = _resolve_names(args.adjust_x, args.x_names, "x") if args.adjust_x else None
    w_columns = _resolve_names(args.adjust_w, args.w_names, "w") if args.adjust_w else None
    cl_outcome = "adjusted_for_x" if args.adjust_x else "unadjusted"
    fixed_icc = None if args.icc == "auto" else float(args.icc)

    weight_levels = [_WEIGHT_FLAGS[args.weights]] if args.weights else list(_WEIGHT_FLAGS.values())
    se_levels = [_SE_FLAGS[args.se]] if args.se else list(_SE_FLAGS.values())
    df_levels = [_DF_FLAGS[args.df]] if args.df else list(_DF_FLAGS.values())
    w_levels = [False, True] if args.adjust_w else [False]
    cells = [
        (cl_outcome, AnalysisOptions(weights, se_mode, df_mode, adjust_w, fixed_icc))
        for adjust_w, weights, se_mode, df_mode in product(
            w_levels, weight_levels, se_levels, df_levels
        )
    ]
    plan = iv.GridPlan(cells)
    summaries, icc = iv.outcome_summaries(dataset, x_columns, plan.needs_icc[cl_outcome])

    if w_columns is not None:
        summaries = summaries._replace(w=summaries.w[:, list(w_columns)])

    outcomes, iccs = {cl_outcome: summaries}, {cl_outcome: icc}
    fits = {estimator: plan.fit(outcomes, iccs, estimator) for estimator in ("late", "itt")}
    # Validation leaves both arms, so the screening F cannot fail here.
    first_stage_f = iv.first_stage_f(summaries)
    rows = []
    for i, (_, options) in enumerate(cells):
        for estimator, f_stat in (("late", first_stage_f), ("itt", None)):
            cell = fits[estimator][i]
            if isinstance(cell, CrtivError):
                raise cell
            fit = iv.late_fit(cell, options, summaries.n_clusters, f_stat)
            rows.append(_row(estimator, cl_outcome, options, fit))
    return rows


def _row(estimator, cl_outcome, options, fit) -> dict:
    return {
        "estimator": estimator,
        "cl_outcome": cl_outcome,
        "adjust_w": int(options.adjust_w),
        "weights": options.weights.value,
        "se_mode": options.se_mode.value,
        "df_mode": options.df_mode.value,
        "estimate": fit.estimate,
        "se": fit.se,
        "ci_low": fit.ci[0],
        "ci_high": fit.ci[1],
        "p": fit.p,
        "df": fit.df,
        "first_stage_f": math.nan if fit.first_stage_f is None else fit.first_stage_f,
        "n_clusters": fit.n_clusters,
    }


def _resolve_names(requested: str, available: list[str], prefix: str) -> tuple[int, ...]:
    names = [n.strip() for n in requested.split(",") if n.strip()]
    if not names:
        raise SchemaMismatch(f"--adjust-{prefix} given without column names")
    indices = []
    for name in names:
        if name not in available:
            raise SchemaMismatch(
                f"column {name!r} not in the file ({prefix}_* columns: {available})"
            )
        indices.append(available.index(name))
    return tuple(indices)


def _format_table(rows: list[dict]) -> str:
    headers = [
        "estimator",
        "outcome",
        "w",
        "weights",
        "se",
        "df",
        "estimate",
        "ci",
        "p",
        "F(1,J-2)",
    ]
    body = [
        [
            row["estimator"],
            row["cl_outcome"],
            "yes" if row["adjust_w"] else "no",
            row["weights"],
            row["se_mode"],
            row["df_mode"],
            _pretty(row["estimate"]),
            f"({_pretty(row['ci_low'])}, {_pretty(row['ci_high'])})",
            _pretty(row["p"]),
            "" if math.isnan(row["first_stage_f"]) else _pretty(row["first_stage_f"]),
        ]
        for row in rows
    ]
    return _aligned(headers, body)


def _aligned(headers: list[str], body: list[list[str]]) -> str:
    """Left-aligned columns under a dashed rule, one line per body row."""
    widths = [max(len(h), *(len(r[i]) for r in body)) for i, h in enumerate(headers)]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    lines += ["  ".join(cell.ljust(w) for cell, w in zip(r, widths)) for r in body]
    return "\n".join(lines) + "\n"


# --- subcommand drivers -------------------------------------------------------


def _cmd_analyze(args) -> int:
    outcome_kind = OutcomeKind(args.outcome_type)
    dataset = ingest_csv(args.input, outcome_kind)
    args.x_names, args.w_names = csv_columns(args.input)
    rows = _analysis_rows(dataset, args)
    table = _format_table(rows)
    sys.stdout.write(table)
    if args.output_dir:
        out = Path(args.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_csv(out / "analysis.csv", list(rows[0]), (row.values() for row in rows))
        (out / "analysis.txt").write_text(table, encoding="utf-8")
    return 0


_REPORT_FIELDS = [
    "cl_outcome",
    "adjust_w",
    "weights",
    "se_mode",
    "df_mode",
    "bias",
    "mce_bias",
    "coverage",
    "mce_coverage",
    "mean_se",
    "n_fits",
    "n_fit_failures",
    "n_replicates",
    "rejected_weak",
    "attempts",
]


def write_report_csv(report: mc.McReport, path) -> None:
    rows = (
        [
            key.cl_outcome.value, int(key.adjust_w), key.weights.value, key.se_mode.value,
            key.df_mode.value, res.bias, res.mce_bias, res.coverage, res.mce_coverage,
            res.mean_se, res.n_fits, res.n_fit_failures,
            report.n_replicates, report.rejected_weak, report.attempts,
        ]
        for key, res in report.variants.items()
    )
    _write_csv(path, _REPORT_FIELDS, rows)


def _format_report(report: mc.McReport) -> str:
    summary = (
        f"replicates={report.n_replicates}  rejected_weak={report.rejected_weak}  "
        f"attempts={report.attempts}  truth={_pretty(report.truth)}  "
        f"seed={report.master_seed}"
    )
    header = ["variant", "bias", "mce", "coverage", "mce_cov", "mean_se", "failures"]
    body = [
        [
            key.label(),
            _pretty(res.bias),
            _pretty(res.mce_bias),
            _pretty(res.coverage),
            _pretty(res.mce_coverage),
            _pretty(res.mean_se),
            str(res.n_fit_failures),
        ]
        for key, res in report.variants.items()
    ]
    return summary + "\n\n" + _aligned(header, body)


def _cmd_simulate(args) -> int:
    config = read_scenario(args.scenario)
    report = mc.run_study(
        config,
        n_replicates=args.replicates,
        master_seed=args.seed,
        threads=args.threads,
    )
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_report_csv(report, out / "report.csv")
    text = _format_report(report)
    (out / "report.txt").write_text(text, encoding="utf-8")
    (out / "scenario_echo.txt").write_text(
        scenario_echo(config, args.seed, args.replicates), encoding="utf-8"
    )
    sys.stdout.write(text)
    return 0


def _cmd_generate(args) -> int:
    config = read_scenario(args.scenario)
    trial = generate(config, args.seed)
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_dataset_csv(trial.dataset, out / "trial.csv")
    write_truth_sidecars(trial, out / "truth_clusters.csv", out / "truth_individuals.csv")
    (out / "scenario_echo.txt").write_text(
        scenario_echo(config, args.seed, 1), encoding="utf-8"
    )
    sys.stdout.write(
        f"wrote {trial.dataset.n_records} records in {config.n_clusters} clusters "
        f"to {out / 'trial.csv'}\n"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crtiv",
        description="Complier-effect estimation for cluster randomised trials",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="estimate from a trial CSV")
    analyze.add_argument("--input", required=True)
    analyze.add_argument("--output-dir", default=None)
    analyze.add_argument(
        "--outcome-type", choices=["continuous", "binary"], default="continuous"
    )
    analyze.add_argument("--weights", choices=sorted(_WEIGHT_FLAGS), default=None)
    analyze.add_argument("--se", choices=sorted(_SE_FLAGS), default=None)
    analyze.add_argument("--df", choices=sorted(_DF_FLAGS), default=None)
    analyze.add_argument("--adjust-w", default=None, metavar="COLS")
    analyze.add_argument("--adjust-x", default=None, metavar="COLS")
    analyze.add_argument("--icc", default="auto")
    analyze.set_defaults(run=_cmd_analyze)

    simulate = sub.add_parser("simulate", help="run a Monte Carlo study")
    simulate.add_argument("--scenario", required=True)
    simulate.add_argument("--output-dir", required=True)
    simulate.add_argument("--replicates", type=int, required=True)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--threads", type=int, default=1)
    simulate.set_defaults(run=_cmd_simulate)

    gen = sub.add_parser("generate", help="write one synthetic trial")
    gen.add_argument("--scenario", required=True)
    gen.add_argument("--output-dir", required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.set_defaults(run=_cmd_generate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "icc", None) not in (None, "auto"):
        try:
            value = float(args.icc)
        except ValueError:
            _fail("validation", "BadFlag", f"--icc must be 'auto' or a number, got {args.icc!r}")
            return 2
        if not 0.0 <= value <= 1.0:
            _fail("validation", "BadFlag", f"--icc must be in [0, 1], got {value}")
            return 2
    if getattr(args, "replicates", 1) < 1:
        _fail("validation", "BadFlag", f"--replicates must be at least 1, got {args.replicates}")
        return 2
    if getattr(args, "seed", 0) < 0:
        _fail("validation", "BadFlag", f"--seed must be nonnegative, got {args.seed}")
        return 2
    # An unreadable or unwritable path and a file that is not UTF-8 are bad
    # input as much as a malformed cell is.  numpy's overflow warnings are
    # silenced: every non-finite estimate, variance or ICC they would herald
    # ends in a typed NonFiniteValue, so the error line is the one report.
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return args.run(args)
    except (ValidationFailure, OSError, UnicodeDecodeError) as exc:
        _fail("validation", type(exc).__name__, str(exc))
        return 2
    except CrtivError as exc:
        _fail("numeric", type(exc).__name__, str(exc))
        return 3


def _fail(kind: str, type_name: str, message: str) -> None:
    message = message.replace("\n", " ")
    sys.stderr.write(f'crtiv-error kind={kind} type={type_name} msg="{message}"\n')


if __name__ == "__main__":
    sys.exit(main())
