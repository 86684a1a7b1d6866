import numpy as np
import pytest

from crtiv.errors import (
    CovariateShapeMismatch,
    EmptyArm,
    MixedAssignmentWithinCluster,
    NonBinaryOutcomeForBinaryKind,
    NonBinaryTreatment,
    ValidationFailure,
)
from crtiv.model import (
    IndividualRecord,
    OutcomeKind,
    TrialDataset,
    validate,
)


def test_mixed_assignment_within_cluster_rejected():
    ds = TrialDataset(
        records=[
            IndividualRecord("a", 0, 0, 1.0),
            IndividualRecord("a", 1, 1, 2.0),
            IndividualRecord("b", 1, 1, 0.5),
        ]
    )
    with pytest.raises(MixedAssignmentWithinCluster):
        validate(ds)


def test_single_arm_rejected(make_dataset):
    ds = make_dataset({"a": (1, [(1, 1.0)]), "b": (1, [(1, 2.0)])})
    with pytest.raises(EmptyArm):
        validate(ds)
    with pytest.raises(EmptyArm):
        validate(TrialDataset(records=[]))


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
    bad_z = TrialDataset(
        records=[IndividualRecord("a", 3, 0, 1.0), IndividualRecord("b", 0, 0, 1.0)]
    )
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
    ds = TrialDataset(
        records=[
            IndividualRecord("a", 0, 0, 1.0, (1.0,)),
            IndividualRecord("b", 1, 1, 2.0, (1.0, 2.0)),
        ]
    )
    with pytest.raises(CovariateShapeMismatch):
        validate(ds)


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


def test_records_coerced_to_tuple(make_dataset):
    ds = make_dataset({"a": (0, [(0, 1.0)]), "b": (1, [(1, 2.0)])})
    assert isinstance(ds.records, tuple)


def test_validate_reports_the_first_faulty_record_and_its_first_check():
    def first_error(records, kind=OutcomeKind.BINARY):
        with pytest.raises(ValidationFailure) as info:
            validate(TrialDataset(records=records, outcome_kind=kind))
        return type(info.value), str(info.value)

    fine = IndividualRecord("a", 0, 0, 1.0, (0.5,))
    # Within one record: z, then d, then the x length, then a binary y.
    assert first_error([fine, IndividualRecord("b", 3, 2, 0.5, (1.0, 2.0))]) == (
        NonBinaryTreatment, "assignment z=3 in cluster b")
    assert first_error([fine, IndividualRecord("b", 1, 2, 0.5, (1.0, 2.0))]) == (
        NonBinaryTreatment, "treatment d=2 in cluster b")
    assert first_error([fine, IndividualRecord("b", 1, 1, 0.5, (1.0, 2.0))]) == (
        CovariateShapeMismatch, "record in cluster b has 2 covariates, expected 1")
    assert first_error([fine, IndividualRecord("b", 1, 1, 0.5, (1.0,))]) == (
        NonBinaryOutcomeForBinaryKind, "outcome y=0.5 in cluster b")
    # Across records, record order wins over check order.
    assert first_error(
        [fine, IndividualRecord("c", 0, 0, 0.25, (1.0,)), IndividualRecord("b", 7, 0, 1.0, (1.0,))]
    ) == (NonBinaryOutcomeForBinaryKind, "outcome y=0.25 in cluster c")
    # Record checks come before mixed assignment, which comes before empty arms.
    both_arms = [IndividualRecord("c", 1, 0, 1.0, (1.0,)), IndividualRecord("b", 0, 0, 1.0, (1.0,))]
    assert first_error([fine, *both_arms, IndividualRecord("d", 0, 0.5, 1.0, (1.0,))]) == (
        NonBinaryTreatment, "treatment d=0.5 in cluster d")
    assert first_error([fine, *both_arms, IndividualRecord("b", 1, 0, 1.0, (1.0,))]) == (
        MixedAssignmentWithinCluster, "cluster b mixes z=0 and z=1")
    assert first_error([fine, IndividualRecord("b", 0, 0, 1.0, (1.0,))]) == (
        EmptyArm, "both trial arms must contain at least one cluster")


def test_records_and_columns_describe_the_same_trial():
    records = [
        IndividualRecord("b", 1, 0, 2.5, (1.0, -1.0)),
        IndividualRecord("a", 0, 0, 1.5, (0.0, 2.0)),
        IndividualRecord("b", 1, 1, -0.5, (3.0, 4.0)),
    ]
    ds = TrialDataset(records=records, cluster_covariates={"a": (1,), "b": (2,)})
    cols = ds.columns()
    assert cols.cluster_ids == ("a", "b")
    assert cols.codes.tolist() == [1, 0, 1]
    assert cols.sizes.tolist() == [1, 2]
    assert cols.x.tolist() == [[1.0, -1.0], [0.0, 2.0], [3.0, 4.0]]
    assert ds.cluster_covariates == {"a": (1.0,), "b": (2.0,)}

    rebuilt = TrialDataset(columns=cols, cluster_covariates=ds.cluster_covariates)
    assert rebuilt.columns() is cols
    assert rebuilt.records == tuple(records)
    assert rebuilt.n_records == 3
    with pytest.raises(TypeError):
        TrialDataset()
    with pytest.raises(TypeError):
        TrialDataset(records=records, columns=cols)
