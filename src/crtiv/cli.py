r"""Command line front end and CSV input/output.

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

The input is read in one pass, so it may be a pipe or a FIFO.  A plain
block of lines, one without quotes, lone carriage returns or the ASCII
information separators, has its numeric cells read by numpy's C reader
(``np.loadtxt``).  A block it cannot read, and every block from the first
one that is not plain on, falls back to :mod:`csv` with a numpy conversion
per column, and a block that fails that too is read cell by cell for its
first error.  The two paths give the same dataset and the same errors;
:func:`ingest_csv` says why.

Exit codes: 0 success, 2 invalid input, 3 numeric failure.  An error goes
to stderr as one line, ``crtiv-error kind=K type=T msg="M"``: ``K`` is
``validation`` or ``numeric``, ``T`` the error's class name, and ``M`` the
message with ``\`` written as ``\\``, ``"`` as ``\"`` and each line break as a
space.  So every such line matches
``^crtiv-error kind=\w+ type=\w+ msg="((?:[^"\\]|\\.)*)"$``, and dropping the
backslash before each escaped character gives the message back.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from contextlib import suppress
from dataclasses import fields
from itertools import chain, islice, product, repeat
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
    CrtivError,
    NonConstantClusterCovariate,
    ParseError,
    SchemaMismatch,
    ValidationFailure,
)
from .model import (
    AnalysisOptions,
    ClOutcome,
    Columns,
    ComplianceClass,
    DfMode,
    OutcomeKind,
    SeMode,
    TrialDataset,
    VariantKey,
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


# Data rows are parsed this many at a time: enough for numpy to do the
# per-cell work, few enough that only one block of raw text is held.
_BLOCK_ROWS = 4096

# Characters that keep a block off the plain-file parser: a quote can join
# lines into one row or hide a comma, and the four information separators
# (0x1c-0x1f) are whitespace that loadtxt strips and ``float`` does not.
_NOT_PLAIN = ('"', "\x1c", "\x1d", "\x1e", "\x1f")


def ingest_csv(
    path, outcome_kind: OutcomeKind = OutcomeKind.CONTINUOUS
) -> tuple[TrialDataset, list[str], list[str]]:
    """Read an individual-level trial CSV into a (not yet validated) dataset.

    Returns the dataset and the file's ``x_*`` and ``w_*`` column names,
    each in header order, as the dataset's ``x`` and ``w`` columns are.

    Rows are converted a block at a time straight into the dataset's
    columns: cluster ids to integer codes in first-seen order (which
    :meth:`Columns.from_codes` puts in code-point order at the end), and
    the ``w_*`` values of each row checked against the first row of its
    cluster.  The file is read in one pass, a block of lines at a time.  A
    plain block (see :func:`_is_plain`) is read by :func:`numpy.loadtxt`,
    after a check that every line has one comma fewer than the header has
    columns.  A block that fails there is tokenised by :mod:`csv`, and so
    is the rest of the file from the first block that is not plain (or
    from a header line that is not): a quoted cell can span lines, so the
    switch is one-way.  csv rows are read one numeric column at a time by
    numpy, and a block that fails that too is read again cell by cell, so
    the error reported is the first in file order, with its line number.

    loadtxt reads a cell as ``float`` does, or not at all: both strip the
    same whitespace, except the information separators 0x1c-0x1f that a
    plain file cannot hold, and then call ``PyOS_string_to_double``.  What
    ``float`` reads beyond that, such as ``1_0`` or non-ASCII digits,
    loadtxt rejects, and the block falls back.  ``comments=None`` keeps it
    from reading ``1#x`` as 1.

    Raises :class:`SchemaMismatch` for header problems,
    :class:`ParseError` (with the file line number) for malformed or
    over-long cells, and
    :class:`NonConstantClusterCovariate` when a ``w_*`` column varies inside
    a cluster.
    """
    # utf-8-sig also accepts spreadsheet exports that lead with a BOM
    with open(path, newline="", encoding="utf-8-sig") as handle:
        head = list(islice(handle, 1))  # the header line, if any
        plain = _is_plain("".join(head))
        reader = _csv_rows(head if plain else chain(head, handle))
        _, header = next(reader, (1, None))
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
        positions = [p for _, p in numeric]
        id_position = header.index("cluster_id")
        n_w = len(w_names)

        code_of: dict[str, int] = {}  # cluster id -> code, in first-seen order
        first_w = np.empty((0, n_w))  # w of each cluster's first row, by code
        first_line: list[int] = []  # file line of each cluster's first row, by code

        def encode(ids, values, n_known: int, lines):
            """The codes of a block's rows, its new clusters' first ``w`` and
            line recorded, given the file line of each row; ``None`` if a
            row's ``w`` differs from its cluster's first.  Recording from
            ``n_known`` on, a block read a second time is recorded once."""
            nonlocal first_w
            for cid in dict.fromkeys(ids):
                code_of.setdefault(cid, len(code_of))
            codes = np.fromiter(map(code_of.__getitem__, ids), np.intp, len(ids))
            w = values[len(numeric) - n_w :].T
            seen, first_rows = np.unique(codes, return_index=True)
            fresh = first_rows[seen >= n_known]
            first_w = np.concatenate([first_w[:n_known], w[fresh]])
            first_line[n_known:] = [lines[i] for i in fresh.tolist()]
            return None if n_w and (w != first_w[codes]).any() else codes

        code_blocks, value_blocks = [], []
        line = 2  # file line of a plain block's first row
        # A plain block is lines of text; a csv block is (file line, row) pairs.
        while block := list(islice(handle if plain else reader, _BLOCK_ROWS)):
            if plain and not _is_plain("".join(block)):
                plain = False  # for good: a quoted cell can run on past the block
                reader = _csv_rows(chain(block, handle), line)
                block = list(islice(reader, _BLOCK_ROWS))
            n_known = len(first_line)  # clusters seen in earlier blocks
            parsed = _plain_values(block, len(header), id_position, positions) if plain else None
            codes = encode(*parsed, n_known, range(line, line + len(block))) if parsed else None
            if codes is None:
                lines, rows = zip(*(_csv_rows(block, line) if plain else block))
                parsed = _bulk_values(rows, len(header), id_position, positions)
                codes = encode(*parsed, n_known, lines) if parsed else None
            if codes is None:
                earlier = zip(code_of, first_w[:n_known].tolist(), first_line[:n_known])
                _raise_first_fault(
                    rows, lines, len(header), id_position, numeric, n_w,
                    {cid: (tuple(w_first), first) for cid, w_first, first in earlier},
                )
            code_blocks.append(codes)
            value_blocks.append(parsed[1])
            line += len(block)

    if not code_of:
        raise SchemaMismatch(f"{path}: no data rows")
    values = np.concatenate(value_blocks, axis=1)
    columns = Columns.from_codes(
        code_of,
        np.concatenate(code_blocks),
        *values[:3],
        np.ascontiguousarray(values[3 : 3 + len(x_names)].T),
        first_w,
    )
    return TrialDataset(columns, outcome_kind), x_names, w_names


def _csv_rows(lines, first_line: int = 1):
    """The rows :mod:`csv` reads from ``lines``, whose first is file line
    ``first_line``, each as a pair (file line where the row starts, row):
    a quoted cell can hold line breaks, so a row can span lines.  A
    :class:`csv.Error` (a cell longer than :func:`csv.field_size_limit`)
    is raised as a :class:`ParseError` at the file line where it
    occurred."""
    reader = csv.reader(lines)
    offset = first_line - 1  # file lines before the first of ``lines``
    try:
        for row in reader:
            yield first_line, row
            first_line = offset + reader.line_num + 1
    except csv.Error as exc:
        raise ParseError(str(exc), line=offset + reader.line_num) from None


def _is_plain(text: str) -> bool:
    """Whether each line of ``text``, whole lines of a text handle (which
    keeps a CRLF end in one line), is one row to :mod:`csv`, split at every
    comma, with cells that loadtxt and ``float`` strip alike: it holds none
    of ``_NOT_PLAIN`` and no carriage return outside a CRLF line end."""
    if any(map(text.__contains__, _NOT_PLAIN)):
        return False
    return "\r" not in text or text.count("\r") == text.count("\r\n")


def _plain_values(lines, n_fields: int, id_position: int, positions: list[int]):
    """:func:`_bulk_values` of a block of lines of a plain file, read by
    loadtxt: ``None`` when a line is ragged or longer than :mod:`csv` takes
    a field, or loadtxt does not read every cell as a finite number."""
    if set(map(str.count, lines, repeat(","))) != {n_fields - 1}:
        return None
    if max(map(len, lines)) > csv.field_size_limit():
        return None
    try:
        values = np.loadtxt(lines, delimiter=",", usecols=positions, comments=None, ndmin=2)
    except ValueError:
        return None
    if not np.isfinite(values).all():
        return None
    ids = [line.split(",", id_position + 1)[id_position] for line in lines]
    if id_position == n_fields - 1:
        ids = [cid.rstrip("\r\n") for cid in ids]
    return ids, np.ascontiguousarray(values.T)  # laid out as _bulk_values lays it


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


def _raise_first_fault(block, lines, n_fields, id_position, numeric, n_w, known):
    """Read a faulty block row by row and raise its first fault.

    ``lines`` holds the file line where each row starts, ``numeric`` the
    (name, position) of each numeric column in checking order, and
    ``known`` maps the clusters of earlier blocks to their first ``w``
    values and line.
    """
    for line, row in zip(lines, block):
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
    """Write a dataset in the ingestion schema (values round-trip exactly)."""
    cols = dataset.columns()
    w = cols.w.tolist()
    header = (
        list(_REQUIRED_COLUMNS)
        + [f"w_{i + 1}" for i in range(cols.w.shape[1])]
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


# The compliance class named by each 0/1 complier flag.
_COMPLIANCE_LABELS = (ComplianceClass.NEVER_TAKER.value, ComplianceClass.COMPLIER.value)


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
        [i, cols.cluster_ids[c], _COMPLIANCE_LABELS[flag]]
        for i, (c, flag) in enumerate(zip(cols.codes.tolist(), trial.compliance.tolist()))
    )
    _write_csv(individual_path, ["row", "cluster_id", "compliance"], individuals)


# --- scenario files ----------------------------------------------------------

# The scenario schema: each size kind's type and the fields its keys set,
# plus the float fields of ScenarioConfig as keys of their own names.  A
# key is a count when its field's default is an int.
_SIZE_KEYS = {
    "poisson": (PoissonSizes, {"poisson_mean": "mean"}),
    "pareto": (
        ParetoSizes,
        {"pareto_shape": "shape", "pareto_scale": "scale", "pareto_min": "minimum"},
    ),
}
_NUMERIC_KEYS = tuple(f.name for f in fields(ScenarioConfig) if isinstance(f.default, float))
# Every key, mapped to the size kind it belongs to (None for any kind).
_SCENARIO_KEYS = dict.fromkeys(["adherence", "clusters", "sizes", *_NUMERIC_KEYS]) | {
    key: kind for kind, (_, keys) in _SIZE_KEYS.items() for key in keys
}


def read_scenario(path) -> ScenarioConfig:
    """Parse a flat ``key = value`` scenario file (``#`` starts a comment).

    A key may be given once, a size key only under its own ``sizes``, and
    an absent key keeps its ScenarioConfig default."""
    values: dict[str, str] = {}
    with open(path, encoding="utf-8-sig") as handle:  # skips a leading BOM
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
            if key in values:
                raise SchemaMismatch(f"{path}: {key} is given again on line {line_no}")
            values[key] = value

    def number(key: str, default):
        text = values.get(key)
        if text is None or not isinstance(default, int):
            return default if text is None else float(text)
        with suppress(ValueError):
            return int(text)  # exact past 2**53, where a float is not
        if int(value := float(text)) != value:
            raise SchemaMismatch(f"{path}: {key} must be a whole number, got {text!r}")
        return int(value)

    default = ScenarioConfig()
    kind = values.get("sizes", "poisson").lower()
    if kind not in _SIZE_KEYS:
        raise SchemaMismatch(f"{path}: sizes must be poisson or pareto, got {kind!r}")
    for key in values:
        if _SCENARIO_KEYS[key] not in (None, kind):
            raise SchemaMismatch(f"{path}: {key} does not apply to sizes = {kind}")

    adherence = values.get("adherence", default.adherence.value).lower()
    if adherence not in {level.value for level in AdherenceLevel}:
        raise SchemaMismatch(f"{path}: adherence must be cluster or individual, got {adherence!r}")

    size_type, size_fields = _SIZE_KEYS[kind]
    try:
        sizes = {f: number(key, getattr(size_type(), f)) for key, f in size_fields.items()}
        return ScenarioConfig(
            adherence=AdherenceLevel(adherence),
            sizes=size_type(**sizes),
            n_clusters=number("clusters", default.n_clusters),
            **{key: number(key, getattr(default, key)) for key in _NUMERIC_KEYS},
        )
    except (ValueError, OverflowError) as exc:
        raise SchemaMismatch(f"{path}: {exc}") from exc


def scenario_echo(config: ScenarioConfig, seed: int, replicates: int) -> str:
    """Resolved configuration in the scenario-file syntax, for provenance;
    counts print as integers, so they read back exactly at any size."""
    kind = next(k for k, (t, _) in _SIZE_KEYS.items() if isinstance(config.sizes, t))
    pairs = [("clusters", config.n_clusters), ("sizes", kind)]
    pairs += [(key, getattr(config.sizes, f)) for key, f in _SIZE_KEYS[kind][1].items()]
    pairs += [(key, getattr(config, key)) for key in _NUMERIC_KEYS]
    lines = [f"adherence = {config.adherence.value}"]
    lines += [f"{k} = {v if isinstance(v, (int, str)) else _machine(v)}" for k, v in pairs]
    lines += [f"# seed = {seed}", f"# replicates = {replicates}"]
    return "\n".join(lines) + "\n"


# --- analyze -----------------------------------------------------------------

_WEIGHT_FLAGS = {"none": Weights.NONE, "cs": Weights.CLUSTER_SIZE, "mv": Weights.MIN_VARIANCE}
_SE_FLAGS = {"model": SeMode.MODEL_BASED, "hw": SeMode.HUBER_WHITE}
_DF_FLAGS = {"normal": DfMode.NORMAL_APPROX, "ssdf": DfMode.SMALL_SAMPLE}


def _analysis_rows(dataset: TrialDataset, args) -> list[dict]:
    """Fit the requested grid: per combination one LATE row and one ITT row."""
    validate(dataset)
    # An empty flag value is a request without names, not an absent flag.
    x_columns = w_columns = None
    if args.adjust_x is not None:
        x_columns = _resolve_names(args.adjust_x, args.x_names, "x")
    if args.adjust_w is not None:
        w_columns = _resolve_names(args.adjust_w, args.w_names, "w")
    cl_outcome = ClOutcome.UNADJUSTED if x_columns is None else ClOutcome.ADJUSTED_FOR_X
    fixed_icc = None if args.icc == "auto" else float(args.icc)

    weight_levels = [_WEIGHT_FLAGS[args.weights]] if args.weights else list(_WEIGHT_FLAGS.values())
    se_levels = [_SE_FLAGS[args.se]] if args.se else list(_SE_FLAGS.values())
    df_levels = [_DF_FLAGS[args.df]] if args.df else list(_DF_FLAGS.values())
    w_levels = [False] if w_columns is None else [False, True]
    plan = iv.GridPlan(
        VariantKey(cl_outcome, AnalysisOptions(weights, se_mode, df_mode, adjust_w, fixed_icc))
        for adjust_w, weights, se_mode, df_mode in product(
            w_levels, weight_levels, se_levels, df_levels
        )
    )
    outcomes, icc = plan.summarise(dataset, x_columns)
    summaries = outcomes[cl_outcome]
    if w_columns is not None:
        summaries = outcomes[cl_outcome] = summaries._replace(w=summaries.w[:, list(w_columns)])

    fits = {estimator: plan.fit(outcomes, icc, estimator) for estimator in ("late", "itt")}
    # Validation leaves both arms, so the screening F cannot fail here.
    first_stage_f = iv.first_stage_f(summaries)
    rows = []
    for i, (_, options) in enumerate(plan.cells):
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
        "cl_outcome": cl_outcome.value,
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
        if available.index(name) in indices:
            raise SchemaMismatch(f"column {name!r} repeated in --adjust-{prefix}")
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
    dataset, args.x_names, args.w_names = ingest_csv(args.input, outcome_kind)
    rows = _analysis_rows(dataset, args)
    table = _format_table(rows)
    sys.stdout.write(table)
    if args.output_dir:
        out = Path(args.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_csv(out / "analysis.csv", list(rows[0]), (row.values() for row in rows))
        (out / "analysis.txt").write_text(table, encoding="utf-8")
    return 0


def write_report_csv(report: mc.McReport, path) -> None:
    rows = [
        {
            "cl_outcome": cl_outcome.value,
            "adjust_w": int(options.adjust_w),
            "weights": options.weights.value,
            "se_mode": options.se_mode.value,
            "df_mode": options.df_mode.value,
            "bias": res.bias,
            "mce_bias": res.mce_bias,
            "coverage": res.coverage,
            "mce_coverage": res.mce_coverage,
            "mean_se": res.mean_se,
            "n_fits": res.n_fits,
            "n_fit_failures": res.n_fit_failures,
            "n_replicates": report.n_replicates,
            "rejected_weak": report.rejected_weak,
            "attempts": report.attempts,
        }
        for (cl_outcome, options), res in report.variants.items()
    ]
    _write_csv(path, list(rows[0]), (row.values() for row in rows))


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


class _Parser(argparse.ArgumentParser):
    """Raises usage errors for :func:`main` to report; subparsers share the class."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    try:
        args = build_parser().parse_args(argv)
    except argparse.ArgumentError as exc:
        _fail("validation", "BadFlag", str(exc))
        return 2
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
    if getattr(args, "threads", 1) < 1:
        _fail("validation", "BadFlag", f"--threads must be at least 1, got {args.threads}")
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
    except MemoryError as exc:  # numpy raises a private subclass
        _fail("numeric", "MemoryError", str(exc) or "out of memory")
        return 3


def _fail(kind: str, type_name: str, message: str) -> None:
    message = message.replace("\\", "\\\\").replace('"', '\\"')
    message = message.replace("\r", " ").replace("\n", " ")
    sys.stderr.write(f'crtiv-error kind={kind} type={type_name} msg="{message}"\n')


if __name__ == "__main__":
    sys.exit(main())
