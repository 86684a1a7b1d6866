"""Failure corpus: each bad input ends in its one pinned ``crtiv-error`` line.

Every case builds its input in code, runs ``cli.main`` in-process and pins
the exit code and the exact line written to stderr.  ``{path}`` in a line
stands for the case's input file (its trial CSV or scenario file) as the
line writes it, that is with ``\\`` and ``"`` escaped; ``{repr_path}`` for
the same path as ``repr`` quotes it.  A change to any line here is a change
to what a user sees, so it edits this table and says so in CHANGES.md.

argparse words its own usage errors differently across Python versions, so
the lines it writes are pinned for the version named below and skipped on
any other.
"""

from __future__ import annotations

import sys
from typing import NamedTuple

import pytest

from crtiv import cli

ARGPARSE_RECORDED_WITH = (3, 11)

HEADER = "cluster_id,z,d,y,w_1,x_1"
BLOCK = 4096  # cli._BLOCK_ROWS: rows on file lines 2-4097 are one block


def row(line: int, drop: int = 0, **cells) -> str:
    """The valid data row on file ``line`` of :func:`trial`, with the named
    cells replaced and the last ``drop`` cells cut off.  Its cluster is
    ``s<c>`` for c = (line - 2) % 30, assigned and treated when c is odd,
    with ``w_1`` = c / 10."""
    i = line - 2
    c = i % 30
    values = {
        "cluster_id": f"s{c:02d}",
        "z": str(c % 2),
        "d": str(c % 2),
        "y": f"{i / 7:.6f}",
        "w_1": f"{c / 10}",
        "x_1": f"{(i % 13) / 3:.6f}",
    }
    values.update(cells)
    return ",".join(list(values.values())[: len(values) - drop])


def trial(n_rows: int, **faults: str) -> str:
    """A trial CSV of ``n_rows`` rows of :func:`row`; ``faults`` maps
    ``line<n>`` to the text that replaces file line n."""
    lines = [HEADER] + [row(line) for line in range(2, n_rows + 2)]
    for key, text in faults.items():
        lines[int(key.removeprefix("line")) - 1] = text
    return "\n".join(lines) + "\n"


def quoted(text: str) -> str:
    """The same trial with its first id quoted, so no block of it is read
    by the plain-file parser."""
    header, first, rest = text.split("\n", 2)
    cid, cells = first.split(",", 1)
    return f'{header}\n"{cid}",{cells}\n{rest}'


def bad_byte(text: str, line: int) -> bytes:
    """``text`` in UTF-8 with the byte 0xff, which UTF-8 never uses, at
    the end of file ``line``."""
    lines = text.encode("utf-8").split(b"\n")
    lines[line - 1] += b"\xff"
    return b"\n".join(lines)


SMALL = trial(60)  # 30 clusters of 2 rows, both arms, valid


class Case(NamedTuple):
    argv: list[str]  # "{path}" stands for the input file, "{out}" for an output dir
    input: str | bytes | None  # the input file's content, or None for no file
    code: int
    line: str
    argparse: bool = False  # the message is argparse's own wording
    file: str = "input"  # the input file's name


def analyze(data, code, line, *flags, **kw) -> Case:
    return Case(["analyze", "--input", "{path}", *flags], data, code, line, **kw)


def simulate(scenario, code, line, *flags, **kw) -> Case:
    argv = ["simulate", "--scenario", "{path}", "--output-dir", "{out}", *flags]
    return Case(argv, scenario, code, line, **kw)


def generate(scenario, code, line) -> Case:
    return Case(["generate", "--scenario", "{path}", "--output-dir", "{out}"], scenario, code, line)


def parse_error(line: int, message: str) -> str:
    return f'crtiv-error kind=validation type=ParseError msg="line {line}: {message}"'


def schema(message: str) -> str:
    return f'crtiv-error kind=validation type=SchemaMismatch msg="{message}"'


def validation(kind: str, message: str) -> str:
    return f'crtiv-error kind=validation type={kind} msg="{message}"'


def numeric(kind: str, message: str) -> str:
    return f'crtiv-error kind=numeric type={kind} msg="{message}"'


def not_utf8(position: int) -> str:
    message = f"'utf-8' codec can't decode byte 0xff in position {position}: invalid start byte"
    return validation("UnicodeDecodeError", message)


def bad_flag(message: str) -> str:
    return validation("BadFlag", message)


def w_mismatch(cid: str, first: int, line: int) -> str:
    message = f"cluster {cid}: w columns differ between line {first} and line {line}"
    return validation("NonConstantClusterCovariate", message)


# The same faults in a plain file and in one the csv module reads.
LINE_FAULTS = {
    "bad cell on line 3": (
        trial(9000, line3=row(3, y="oops")),
        parse_error(3, "column 'y': cannot parse 'oops'"),
    ),
    "bad cell on the last line of the first block": (
        trial(9000, line4097=row(BLOCK + 1, x_1="1.2.3")),
        parse_error(4097, "column 'x_1': cannot parse '1.2.3'"),
    ),
    "bad cell on the first line of the second block": (
        trial(9000, line4098=row(BLOCK + 2, z="?")),
        parse_error(4098, "column 'z': cannot parse '?'"),
    ),
    "ragged row on the first line of the second block": (
        trial(9000, line4098=row(BLOCK + 2, drop=2)),
        parse_error(4098, "expected 6 fields, found 4"),
    ),
    "bad cell past the first block": (
        trial(9000, line8321=row(8321, d="yes")),
        parse_error(8321, "column 'd': cannot parse 'yes'"),
    ),
    "w mismatch within a block": (
        # line 42 is cluster s10, first seen on line 12
        trial(9000, line42=row(42, w_1="9.5")),
        w_mismatch("s10", 12, 42),
    ),
    "w mismatch across blocks": (
        # line 4112 is cluster s00, first seen on line 2
        trial(9000, line4112=row(4112, w_1="7")),
        w_mismatch("s00", 2, 4112),
    ),
}

CELLS = {
    f"{name} cell": (trial(10, line5=row(5, y=text)), parse_error(5, message))
    for name, text, message in [
        ("nan", "nan", "column 'y': non-finite value 'nan'"),
        ("inf", "inf", "column 'y': non-finite value 'inf'"),
        ("overflowing", "1e500", "column 'y': non-finite value '1e500'"),
        ("empty", "", "column 'y': cannot parse ''"),
        ("hex", "0x10", "column 'y': cannot parse '0x10'"),
    ]
}

CASES: dict[str, Case] = {
    **{
        f"{name}, {reader}": analyze(edit(text), 2, line)
        for name, (text, line) in LINE_FAULTS.items()
        for reader, edit in [("plain", str), ("quoted", quoted)]
    },
    **{name: analyze(text, 2, line) for name, (text, line) in CELLS.items()},
    # --- dataset validation ---
    "z = 2": analyze(
        "cluster_id,z,d,y\na,0,0,1\nb,2,0,1\n", 2,
        validation("NonBinaryTreatment", "assignment z=2 in cluster b"),
    ),
    "z = 0.5": analyze(
        "cluster_id,z,d,y\na,0,0,1\nb,0.5,0,1\n", 2,
        validation("NonBinaryTreatment", "assignment z=0.5 in cluster b"),
    ),
    "d = 3": analyze(
        "cluster_id,z,d,y\na,0,0,1\nb,1,3,1\n", 2,
        validation("NonBinaryTreatment", "treatment d=3 in cluster b"),
    ),
    "mixed assignment": analyze(
        "cluster_id,z,d,y\na,0,0,1\nb,1,1,1\nb,0,0,2\n", 2,
        validation("MixedAssignmentWithinCluster", "cluster b mixes z=0 and z=1"),
    ),
    "one arm": analyze(
        "cluster_id,z,d,y\na,1,1,1\nb,1,0,2\n", 2,
        validation("EmptyArm", "both trial arms must contain at least one cluster"),
    ),
    # --- header ---
    "empty file": analyze("", 2, schema("{path}: empty file")),
    "header only": analyze("cluster_id,z,d,y\n", 2, schema("{path}: no data rows")),
    "missing column": analyze(
        "cluster_id,z,y\na,0,1\n", 2, schema("{path}: missing column 'd'")
    ),
    "repeated column": analyze(
        "cluster_id,z,d,y,x_1,x_1\na,0,0,1,2,3\n", 2, schema("{path}: duplicate column names")
    ),
    "unknown column": analyze(
        "cluster_id,z,d,y,age\na,0,0,1,2\n", 2, schema("{path}: unrecognised columns ['age']")
    ),
    "byte order mark, missing column": analyze(
        b"\xef\xbb\xbfcluster_id,z,y\na,0,1\n", 2, schema("{path}: missing column 'd'")
    ),
    # --- quoted ids ---
    "quoted id holding a comma": analyze(
        'cluster_id,z,d,y\n"a, b",0,0,1\n"a, b",1,1,1\nc,1,1,2\n', 2,
        validation("MixedAssignmentWithinCluster", "cluster a, b mixes z=0 and z=1"),
    ),
    "quoted id holding a line break": analyze(
        'cluster_id,z,d,y\nc,0,0,1\n"a\nb",2,0,1\n', 2,
        validation("NonBinaryTreatment", "assignment z=2 in cluster a b"),
    ),
    "bad cell after a quoted line break": analyze(
        'cluster_id,z,d,y\n"a\nb",0,0,1\nc,1,1,x\n', 2,
        parse_error(4, "column 'y': cannot parse 'x'"),
    ),
    # --- not UTF-8: the position counts from the start of the 8 KiB chunk
    # being decoded, and line 300 starts 9193 bytes in ---
    **{
        f"not UTF-8 {where}, {reader}": analyze(
            bad_byte(edit(trial(400)), line), 2, not_utf8(position)
        )
        for where, line, positions in [
            ("in the header", 1, (24, 24)),
            ("on the first data line", 2, (54, 56)),
            ("past the first 8 KiB", 300, (1031, 1033)),
        ]
        for (reader, edit), position in zip([("plain", str), ("quoted", quoted)], positions)
    },
    # --- --adjust-x and --adjust-w names ---
    **{
        f"--adjust-{prefix} {fault}": analyze(SMALL, 2, schema(message), f"--adjust-{prefix}", names)
        for prefix in ("x", "w")
        for fault, names, message in [
            ("unknown", f"{prefix}_9",
             f"column '{prefix}_9' not in the file ({prefix}_* columns: ['{prefix}_1'])"),
            ("repeated", f"{prefix}_1, {prefix}_1", f"column '{prefix}_1' repeated in --adjust-{prefix}"),
            ("empty", " , ", f"--adjust-{prefix} given without column names"),
        ]
    },
    # --- numeric failures ---
    "overflowing outcome": analyze(
        "cluster_id,z,d,y\n" + "".join(f"k{c},{c % 2},{c % 2},1e308\n" for c in range(8)), 3,
        numeric("NonFiniteValue", "regression inputs are not finite"),
    ),
    # A fit with as many parameters as clusters leaves no residual df.
    "two clusters": analyze(
        "cluster_id,z,d,y\na,0,0,1.0\na,0,0,1.4\nb,1,1,2.0\n", 3,
        numeric("DfNonPositive", "normal-approximation inference needs more clusters than "
                "parameters (2 clusters, 2 parameters)"),
    ),
    "three clusters, --adjust-w": analyze(
        "cluster_id,z,d,y,w_1\na,0,0,1.0,0.5\na,0,0,1.4,0.5\nb,1,1,2.0,1\nc,1,0,3.0,2\n", 3,
        numeric("DfNonPositive", "normal-approximation inference needs more clusters than "
                "parameters (3 clusters, 3 parameters)"),
        "--adjust-w", "w_1",
    ),
    # The first cell overflows as well, and its fit fails before its interval.
    "two clusters, overflowing outcome": analyze(
        "cluster_id,z,d,y\na,0,0,-1e308\nb,1,1,1e308\n", 3,
        numeric("NonFiniteValue", "estimate or its variance is not finite"),
    ),
    "collinear logistic design": analyze(
        "cluster_id,z,d,y,x_1,x_2\n"
        + "".join(f"k{c},{c % 2},{c % 2},{c // 2 % 2},{c / 2},{c / 2}\n" for c in range(12)),
        3, numeric("RankDeficientDesign", "logistic design is collinear"),
        "--outcome-type", "binary", "--adjust-x", "x_1,x_2",
    ),
    # --- scenario files ---
    **{
        f"scenario: {name}": generate(text, 2, schema("{path}: " + message))
        for name, text, message in [
            ("unknown key", "bogus = 1\n", "unknown scenario key 'bogus'"),
            ("repeated key", "pi = 0.5\n\npi = 0.5\n", "pi is given again on line 3"),
            ("pareto key under poisson", "pareto_min = 12\n",
             "pareto_min does not apply to sizes = poisson"),
            ("poisson key under pareto", "sizes = pareto\npoisson_mean = 30\n",
             "poisson_mean does not apply to sizes = pareto"),
            ("unknown size kind", "sizes = weibull\n", "sizes must be poisson or pareto, got 'weibull'"),
            ("unknown adherence", "adherence = partial\n",
             "adherence must be cluster or individual, got 'partial'"),
            ("fractional count", "clusters = 2.5\n", "clusters must be a whole number, got '2.5'"),
            ("infinite count", "clusters = inf\n", "cannot convert float infinity to integer"),
            ("nan count", "clusters = nan\n", "cannot convert float NaN to integer"),
            ("not a number", "pi = abc\n", "could not convert string to float: 'abc'"),
            ("non-finite value", "beta_cz = inf\n", "beta_cz must be finite, got inf"),
            ("one cluster", "clusters = 1\n", "need at least 2 clusters"),
            ("poisson mean below 1", "poisson_mean = 0.5\n", "poisson mean must be at least 1.0, got 0.5"),
            ("pareto shape 0", "sizes = pareto\npareto_shape = 0\n",
             "pareto sizes need a positive shape and scale and a minimum of at least 1, "
             "got ParetoSizes(shape=0.0, scale=9.1, minimum=10)"),
            ("pi of 1", "pi = 1\n", "pi must be in (0, 1), got 1.0"),
            ("rho_c of 1", "rho_c = 1\n", "rho_c must be in [0, 1), got 1.0"),
            ("negative variance", "sigma2_x = -1\n",
             "variances must be nonnegative, total variance positive"),
            ("overflowing adherence predictor", "lambda_w = 1e200\n",
             "the variance of the adherence linear predictor overflows"),
        ]
    },
    "scenario: no '='": generate(
        "clusters = 8\nclusters 9\n", 2,
        validation("ParseError", "line 2: expected 'key = value', got 'clusters 9'"),
    ),
    "screen exhausted": simulate(
        "clusters = 4\npoisson_mean = 5\npi = 1e-9\n", 3,
        numeric(
            "ScreenExhausted",
            "weak-instrument screen kept 0 of 1000 attempts (acceptance rate 0), "
            "1 replicates wanted",
        ),
        "--replicates", "1",
    ),
    **{
        f"adherence out of reach, {command.__name__}": command(
            "lambda_w = 1000\nsigma2_w = 1\n", 3,
            numeric("BracketFailure", "adherence probability 0.6 unreachable"), *flags,
        )
        for command, flags in [(generate, ()), (simulate, ("--replicates", "1"))]
    },
    **{
        f"overflowing generated outcome, {command.__name__}": command(
            "beta_0 = 1e308\nbeta_c = 1e308\nbeta_cz = 1e308\n", 3,
            numeric("NonFiniteValue", "generated outcomes are not finite"), *flags,
        )
        for command, flags in [(generate, ()), (simulate, ("--replicates", "5"))]
    },
    # Finite outcomes whose x-adjustment residuals overflow stop the study:
    # outcomes near 1.7e308 on both sides of 0.
    "simulate, overflowing x-adjustment": simulate(
        "beta_0 = -1.7e308\nbeta_c = 1.7e308\nbeta_cz = 1.7e308\n", 3,
        numeric("NonFiniteValue", "regression inputs are not finite"), "--replicates", "5",
    ),
    **{
        f"simulate, {name}": simulate(
            text, 2, validation("ClusterSizesTooLarge", message), "--replicates", "2"
        )
        for name, text, message in [
            ("clusters", "clusters = 1e20\n",
             "1e+20 clusters hold at least as many records; "
             "a generated trial holds fewer than 1e+08"),
            ("poisson mean", "poisson_mean = 1e12\n",
             "a poisson mean of 1e+12 records per cluster; "
             "a generated trial holds fewer than 1e+08"),
            ("drawn total", "sizes = pareto\npareto_shape = 1e-6\n",
             "the drawn cluster sizes total inf records; "
             "a generated trial holds fewer than 1e+08"),
        ]
    },
    # --- flags ---
    "zero replicates": simulate("", 2, bad_flag("--replicates must be at least 1, got 0"),
                                "--replicates", "0"),
    "negative replicates": simulate("", 2, bad_flag("--replicates must be at least 1, got -3"),
                                    "--replicates", "-3"),
    "zero threads": simulate("", 2, bad_flag("--threads must be at least 1, got 0"),
                             "--replicates", "2", "--threads", "0"),
    "negative seed": simulate("", 2, bad_flag("--seed must be nonnegative, got -1"),
                              "--replicates", "2", "--seed", "-1"),
    "icc not a number": analyze(SMALL, 2, bad_flag("--icc must be 'auto' or a number, got 'high'"),
                                "--icc", "high"),
    "icc above 1": analyze(SMALL, 2, bad_flag("--icc must be in [0, 1], got 1.5"), "--icc", "1.5"),
    "replicates not an integer": simulate(
        "", 2, bad_flag("argument --replicates: invalid int value: '1e3'"),
        "--replicates", "1e3", argparse=True,
    ),
    "unknown weights": analyze(
        SMALL, 2,
        bad_flag("argument --weights: invalid choice: 'bogus' (choose from 'cs', 'mv', 'none')"),
        "--weights", "bogus", argparse=True,
    ),
    "missing replicates": simulate(
        "", 2, bad_flag("the following arguments are required: --replicates"), argparse=True
    ),
    "no subcommand": Case(
        [], None, 2, bad_flag("the following arguments are required: command"), argparse=True
    ),
    **{
        f"empty output dir, {command}": Case(
            [command, flag, "{path}", *more, "--output-dir", ""], data, 2,
            bad_flag("--output-dir must name a directory, got ''"),
        )
        for command, flag, data, more in [
            ("analyze", "--input", SMALL, []),
            ("simulate", "--scenario", "", ["--replicates", "2"]),
            ("generate", "--scenario", "", []),
        ]
    },
    # --- paths ---
    "path holding a quote and a backslash": analyze(
        "", 2, schema("{path}: empty file"), file='in"put\\'
    ),
    "missing input": analyze(
        None, 2, validation("FileNotFoundError", "[Errno 2] No such file or directory: {repr_path}")
    ),
    "missing input holding a quote and a backslash": analyze(
        None, 2,
        validation("FileNotFoundError", "[Errno 2] No such file or directory: {repr_path}"),
        file='in"put\\',
    ),
}


def escaped(text: str) -> str:
    """``text`` as an error line writes it."""
    return text.replace("\\", "\\\\").replace('"', '\\"')


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_a_bad_input_ends_in_its_one_error_line(tmp_path, capsys, case):
    if case.argparse and sys.version_info[:2] != ARGPARSE_RECORDED_WITH:
        pytest.skip(f"argparse wording recorded with Python {ARGPARSE_RECORDED_WITH}")
    path = tmp_path / case.file
    out = tmp_path / "out"
    if isinstance(case.input, str):
        path.write_text(case.input, encoding="utf-8", newline="")
    elif case.input is not None:
        path.write_bytes(case.input)
    argv = [arg.replace("{path}", str(path)).replace("{out}", str(out)) for arg in case.argv]
    capsys.readouterr()
    assert cli.main(argv) == case.code
    expected = case.line.format(path=escaped(str(path)), repr_path=escaped(repr(str(path))))
    assert capsys.readouterr().err == expected + "\n"
    assert not out.exists()
