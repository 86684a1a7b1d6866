import ast
import re
from pathlib import Path

import numpy as np
import pytest

from crtiv.errors import (
    EmptyArm,
    MixedAssignmentWithinCluster,
    NonBinaryOutcomeForBinaryKind,
    NonBinaryTreatment,
    ValidationFailure,
)
from crtiv.model import (
    Columns,
    OutcomeKind,
    TrialDataset,
    validate,
)


def dataset_of(rows, kind=OutcomeKind.CONTINUOUS):
    """A dataset of ``(cluster_id, z, d, y, *x)`` rows, in row order."""
    ids = list(dict.fromkeys(row[0] for row in rows))
    codes = [ids.index(row[0]) for row in rows]
    z, d, y = ([row[i] for row in rows] for i in (1, 2, 3))
    x = [row[4:] for row in rows] if rows else None
    return TrialDataset(Columns.from_codes(ids, codes, z, d, y, x), outcome_kind=kind)


def test_mixed_assignment_within_cluster_rejected():
    ds = dataset_of([("a", 0, 0, 1.0), ("a", 1, 1, 2.0), ("b", 1, 1, 0.5)])
    with pytest.raises(MixedAssignmentWithinCluster):
        validate(ds)


def test_single_arm_rejected(make_dataset):
    ds = make_dataset({"a": (1, [(1, 1.0)]), "b": (1, [(1, 2.0)])})
    with pytest.raises(EmptyArm):
        validate(ds)
    with pytest.raises(EmptyArm):
        validate(dataset_of([]))


def test_well_formed_dataset_returned_unchanged(make_dataset):
    ds = make_dataset(
        {
            "a": (0, [(0, 1.0), (0, 2.0)]),
            "b": (1, [(1, 0.5)]),
            "c": (1, [(0, 1.5), (1, 2.5)]),
            "d": (0, [(0, 0.0)]),
        }
    )
    assert validate(ds) is ds
    assert validate(validate(ds)) is ds


def test_non_binary_treatment_rejected(make_dataset):
    ds = make_dataset({"a": (0, [(2, 1.0)]), "b": (1, [(1, 2.0)])})
    with pytest.raises(NonBinaryTreatment):
        validate(ds)
    bad_z = dataset_of([("a", 3, 0, 1.0), ("b", 0, 0, 1.0)])
    with pytest.raises(NonBinaryTreatment):
        validate(bad_z)


def test_binary_kind_requires_binary_outcome(make_dataset):
    ds = make_dataset(
        {"a": (0, [(0, 0.5)]), "b": (1, [(1, 1.0)])},
        outcome_kind=OutcomeKind.BINARY,
    )
    with pytest.raises(NonBinaryOutcomeForBinaryKind):
        validate(ds)
    ok = make_dataset(
        {"a": (0, [(0, 0.0)]), "b": (1, [(1, 1.0)])},
        outcome_kind=OutcomeKind.BINARY,
    )
    validate(ok)


def test_covariate_length_mismatch_rejected():
    # x is an n x k matrix, so a ragged one is refused when it is built.
    with pytest.raises(ValueError):
        dataset_of([("a", 0, 0, 1.0, 1.0), ("b", 1, 1, 2.0, 1.0, 2.0)])


def test_cluster_index_partitions_records(make_dataset):
    rng = np.random.default_rng(0)
    rows = {
        f"c{i}": (int(i % 2), [(0, float(v)) for v in rng.normal(size=rng.integers(1, 9))])
        for i in range(12)
    }
    ds = validate(make_dataset(rows))
    cols = ds.columns()
    assert int(cols.sizes.sum()) == ds.n_records
    assert len(cols.cluster_ids) == 12
    assert list(cols.cluster_ids) == sorted(cols.cluster_ids)


def test_validate_reports_the_first_faulty_record_and_its_first_check():
    def first_error(rows, kind=OutcomeKind.BINARY):
        with pytest.raises(ValidationFailure) as info:
            validate(dataset_of(rows, kind))
        return type(info.value), str(info.value)

    fine = ("a", 0, 0, 1.0, 0.5)
    # Within one record: z, then d, then a binary y.
    assert first_error([fine, ("b", 3, 2, 0.5, 1.0)]) == (
        NonBinaryTreatment, "assignment z=3 in cluster b")
    assert first_error([fine, ("b", 1, 2, 0.5, 1.0)]) == (
        NonBinaryTreatment, "treatment d=2 in cluster b")
    assert first_error([fine, ("b", 1, 1, 0.5, 1.0)]) == (
        NonBinaryOutcomeForBinaryKind, "outcome y=0.5 in cluster b")
    # Across records, record order wins over check order.
    assert first_error([fine, ("c", 0, 0, 0.25, 1.0), ("b", 7, 0, 1.0, 1.0)]) == (
        NonBinaryOutcomeForBinaryKind, "outcome y=0.25 in cluster c")
    # Record checks come before mixed assignment, which comes before empty arms.
    both_arms = [("c", 1, 0, 1.0, 1.0), ("b", 0, 0, 1.0, 1.0)]
    assert first_error([fine, *both_arms, ("d", 0, 0.5, 1.0, 1.0)]) == (
        NonBinaryTreatment, "treatment d=0.5 in cluster d")
    assert first_error([fine, *both_arms, ("b", 1, 0, 1.0, 1.0)]) == (
        MixedAssignmentWithinCluster, "cluster b mixes z=0 and z=1")
    assert first_error([fine, ("b", 0, 0, 1.0, 1.0)]) == (
        EmptyArm, "both trial arms must contain at least one cluster")


def test_from_codes_sorts_the_clusters_and_remaps_the_codes():
    columns = Columns.from_codes(
        ids=["b", "a"],
        codes=[0, 1, 0],
        z=[1, 0, 1],
        d=[0, 0, 1],
        y=[2.5, 1.5, -0.5],
        x=[(1.0, -1.0), (0.0, 2.0), (3.0, 4.0)],
        w=[(2, 20), (1, 10)],
    )
    assert columns.cluster_ids == ("a", "b")
    assert columns.codes.tolist() == [1, 0, 1]
    assert columns.sizes.tolist() == [1, 2]
    assert columns.z.dtype == float and columns.z.tolist() == [1.0, 0.0, 1.0]
    assert columns.x.tolist() == [[1.0, -1.0], [0.0, 2.0], [3.0, 4.0]]
    # The rows of w follow the sorted ids.
    assert columns.w.dtype == float and columns.w.tolist() == [[1.0, 10.0], [2.0, 20.0]]
    bare = Columns.from_codes(["a"], [0], [0], [0], [1.0])
    assert bare.x.shape == (1, 0) and bare.w.shape == (1, 0)

    ds = TrialDataset(columns)
    assert ds.columns() is columns
    assert ds.n_records == 3

    # Code-point order, with ids that np.unique would merge kept apart.
    ids = ["b", "a\x00", "a", "B", "é"]
    columns = Columns.from_codes(ids, range(5), [0] * 5, [0] * 5, [0.0] * 5)
    assert columns.cluster_ids == ("B", "a", "a\x00", "b", "é")
    assert [columns.cluster_ids[c] for c in columns.codes] == ids
    w = [[i] for i in range(5)]  # each id's position in ids
    columns = Columns.from_codes(ids, range(5), [0] * 5, [0] * 5, [0.0] * 5, w=w)
    assert [ids[int(i)] for i in columns.w[:, 0]] == list(columns.cluster_ids)


@pytest.mark.parametrize(
    "w",
    [[[1.0]], [[1.0], [2.0], [3.0]], [1.0, 2.0], [[[1.0]], [[2.0]]]],
    ids=["too few rows", "too many rows", "1-d", "3-d"],
)
def test_from_codes_rejects_w_without_one_row_per_id(w):
    with pytest.raises(ValueError, match="one row for each of the 2 ids"):
        Columns.from_codes(["a", "b"], [0, 1], [0, 1], [0, 1], [1.0, 2.0], w=w)


@pytest.mark.parametrize(
    "ids, codes, y, message",
    [
        (["a", "a"], [0, 1], [1.0, 2.0], "distinct"),
        (["a", "b", "c"], [0, 1], [1.0, 2.0], "at least one record"),
        (["a", "b"], [0, 2], [1.0, 2.0], "index"),
        (["a", "b"], [-1, 1], [1.0, 2.0], "index"),
        (["a", "b"], [0.0, 1.0], [1.0, 2.0], "integers"),
        (["a", "b"], [0, 1], [1.0, 2.0, 3.0], "equal lengths"),
    ],
    ids=[
        "repeated id", "unused id", "code past the end", "negative code", "float codes",
        "unequal lengths",
    ],
)
def test_from_codes_rejects_inconsistent_columns(ids, codes, y, message):
    with pytest.raises(ValueError, match=message):
        Columns.from_codes(ids, codes, [0, 1], [0, 1], y)


@pytest.mark.parametrize(
    "column, value, kind, message",
    [
        ("z", 2.0, OutcomeKind.CONTINUOUS, "assignment z=2 in cluster k2"),
        ("z", 0.5, OutcomeKind.CONTINUOUS, "assignment z=0.5 in cluster k2"),
        ("d", 3.0, OutcomeKind.CONTINUOUS, "treatment d=3 in cluster k2"),
        ("y", 2.0, OutcomeKind.BINARY, "outcome y=2.0 in cluster k2"),
    ],
    ids=["z=2", "z=0.5", "d=3", "y=2"],
)
def test_validate_reports_a_faulty_row_of_the_columns_without_building_records(
    column, value, kind, message
):
    codes = np.repeat(np.arange(6), 50)
    z = (codes % 2).astype(float)
    values = {"z": z, "d": z.copy(), "y": z.copy()}
    values[column][137] = value  # a record of cluster k2
    columns = Columns(
        cluster_ids=tuple(f"k{c}" for c in range(6)),
        codes=codes,
        x=np.empty((len(codes), 0)),
        sizes=np.bincount(codes),
        w=np.empty((6, 0)),
        **values,
    )
    ds = TrialDataset(columns=columns, outcome_kind=kind)
    with pytest.raises(ValidationFailure, match=f"^{re.escape(message)}$"):
        validate(ds)
    # The same message when the cluster ids are given in reverse.
    reverse = Columns.from_codes(columns.cluster_ids[::-1], 5 - codes, **values)
    with pytest.raises(ValidationFailure, match=f"^{re.escape(message)}$"):
        validate(TrialDataset(reverse, outcome_kind=kind))


PACKAGE = Path(__file__).resolve().parents[1] / "src" / "crtiv"


def test_only_model_reads_the_private_attributes_of_a_dataset():
    # Parsed, not imported: a dataset's internals, and the summaries cache it
    # once had, are no other module's business.
    private = {"_columns", "_summaries"}
    readers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in private:
                readers.add((path.stem, node.attr))
    assert {module for module, _ in readers} <= {"model"}


def test_a_dataset_takes_no_new_attributes(make_dataset):
    ds = make_dataset({"a": (0, [(0, 1.0)]), "b": (1, [(1, 2.0)])})
    with pytest.raises(AttributeError):
        ds.summaries = None
    assert not hasattr(ds, "__dict__")
