import numpy as np
import pytest

from crtiv.model import IndividualRecord, OutcomeKind, Summaries, TrialDataset


def build_dataset(cluster_rows, outcome_kind=OutcomeKind.CONTINUOUS, covariates=None):
    """cluster_rows: {cluster_id: (z, [(d, y, *x), ...])}."""
    records = []
    for cid, (z, rows) in cluster_rows.items():
        for row in rows:
            d, y, *x = row
            records.append(IndividualRecord(cid, z, d, y, tuple(x)))
    return TrialDataset(
        records=records,
        cluster_covariates=covariates or {},
        outcome_kind=outcome_kind,
    )


def random_summaries(rng, n_clusters=None, with_w=False, arm_gap=0.3):
    """Random valid cluster summaries with a clearly relevant instrument."""
    n = int(n_clusters if n_clusters is not None else rng.integers(4, 61))
    n_treated = int(rng.integers(2, n - 1))
    z = np.zeros(n, dtype=int)
    z[rng.choice(n, size=n_treated, replace=False)] = 1
    d = np.clip(rng.uniform(0.0, 0.6, n) + arm_gap * z, 0.0, 1.0)
    y = rng.normal(0.0, 1.0, n)
    sizes = rng.integers(2, 80, n)
    w = rng.normal(0.0, 1.0, (n, 1)) if with_w else None
    return Summaries(
        ids=tuple(f"c{i:04d}" for i in range(n)),
        n=sizes,
        z=z.astype(float),
        d_bar=d,
        y_bar=y,
        w=w if with_w else np.empty((n, 0)),
    )


@pytest.fixture
def make_dataset():
    return build_dataset


@pytest.fixture
def make_summaries():
    return random_summaries
