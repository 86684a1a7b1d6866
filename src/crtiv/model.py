"""Domain types shared across the package.

Everything here is immutable after construction and safe to share between
concurrent workers.  A trial is stored column by column (:class:`Columns`):
one array each for assignment, treatment received and outcome, a matrix of
individual-level covariates, and an integer code per record naming its
cluster.  Clusters are opaque string identifiers, and all deterministic
output orders them lexicographically (by code point).  Cluster-level
covariates are a mapping with one entry per cluster.  Individual records
exist only at the edge of the API, for building or reading a dataset row by
row.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    CovariateShapeMismatch,
    EmptyArm,
    MixedAssignmentWithinCluster,
    NonBinaryOutcomeForBinaryKind,
    NonBinaryTreatment,
)


class OutcomeKind(enum.Enum):
    CONTINUOUS = "continuous"
    BINARY = "binary"


class Weights(enum.Enum):
    """Weighting scheme for cluster-level regressions."""

    NONE = "none"
    CLUSTER_SIZE = "cs"
    MIN_VARIANCE = "mv"


class SeMode(enum.Enum):
    MODEL_BASED = "model"
    HUBER_WHITE = "hw"


class DfMode(enum.Enum):
    NORMAL_APPROX = "normal"
    SMALL_SAMPLE = "ssdf"


class ComplianceClass(enum.Enum):
    """Latent adherence type defined by potential treatment received.

    The built-in data generator only emits compliers and never-takers
    (one-sided non-adherence); the other two classes exist so external
    datasets can be described.
    """

    COMPLIER = "complier"
    NEVER_TAKER = "never_taker"
    ALWAYS_TAKER = "always_taker"
    DEFIER = "defier"


@dataclass(frozen=True, slots=True)
class IndividualRecord:
    """One participant: assignment ``z``, treatment received ``d``, outcome
    ``y``, and an optional vector of individual-level covariates ``x``.

    Records are the row-wise view of a :class:`TrialDataset`, for building
    small datasets by hand and for reading one back.
    """

    cluster_id: str
    z: int
    d: int
    y: float
    x: tuple[float, ...] = ()


class Columns(NamedTuple):
    """The stored form of a trial: one array per individual-level variable.

    ``cluster_ids`` is sorted by code point and ``codes`` maps each record
    to its position in that ordering, so per-cluster reductions are cheap
    vectorised segment operations.  ``z``, ``d`` and ``y`` are float arrays
    of length n, ``x`` is an n x k float matrix (k may be 0), and ``sizes``
    counts the records of each cluster.
    """

    cluster_ids: tuple[str, ...]
    codes: np.ndarray
    z: np.ndarray
    d: np.ndarray
    y: np.ndarray
    x: np.ndarray
    sizes: np.ndarray


class TrialDataset:
    """Individual-level trial data grouped by cluster, stored as columns.

    Parameters
    ----------
    records : sequence of IndividualRecord, converted to columns once; give
        either this or ``columns``.
    cluster_covariates : mapping from cluster id to a tuple of cluster-level
        covariate values; clusters absent from the mapping carry an empty
        vector.
    outcome_kind : whether ``y`` is continuous or 0/1.
    columns : the arrays themselves, as the CSV reader and the data
        generator build them.

    Construction does not check the data; :func:`validate` does.  The
    dataset is not modified after construction: ``records`` is built from
    the columns on first use, and the unadjusted :class:`Summaries` are kept
    by :func:`crtiv.collapse.cluster_means` once computed.
    """

    def __init__(
        self,
        records: Sequence[IndividualRecord] | None = None,
        cluster_covariates: Mapping[str, Sequence[float]] | None = None,
        outcome_kind: OutcomeKind = OutcomeKind.CONTINUOUS,
        *,
        columns: Columns | None = None,
    ):
        if (records is None) == (columns is None):
            raise TypeError("TrialDataset needs exactly one of records and columns")
        # Per-record x lengths of a ragged record list, for validate to report.
        self._x_widths = None
        if columns is None:
            records = tuple(records)
            columns, self._x_widths = _columns_from_records(records)
        self._columns = columns
        self._records = records
        self._summaries = None
        self.cluster_covariates = {
            str(k): tuple(float(v) for v in vec) for k, vec in (cluster_covariates or {}).items()
        }
        self.outcome_kind = outcome_kind

    @property
    def n_records(self) -> int:
        return len(self._columns.y)

    def columns(self) -> Columns:
        """The stored arrays."""
        return self._columns

    @property
    def records(self) -> tuple[IndividualRecord, ...]:
        """The dataset as records, in record order (built on first use)."""
        if self._records is None:
            cols = self._columns
            self._records = tuple(
                map(
                    IndividualRecord,
                    [cols.cluster_ids[c] for c in cols.codes.tolist()],
                    whole_to_int(cols.z),
                    whole_to_int(cols.d),
                    cols.y.tolist(),
                    map(tuple, cols.x.tolist()),
                )
            )
        return self._records

    def covariate_vector(self, cluster_id: str) -> tuple[float, ...]:
        return self.cluster_covariates.get(cluster_id, ())


def whole_to_int(values: np.ndarray) -> list:
    """``values.tolist()`` with whole numbers as ``int``: 0/1 codes read back
    and print as ``0`` and ``1``."""
    return [int(v) if v.is_integer() else v for v in values.tolist()]


def _columns_from_records(records: Sequence[IndividualRecord]):
    ids = [r.cluster_id for r in records]
    cluster_ids = sorted(set(ids))
    position = {cid: i for i, cid in enumerate(cluster_ids)}
    codes = np.array([position[cid] for cid in ids], dtype=np.intp)
    widths = np.array([len(r.x) for r in records], dtype=np.intp)
    k = int(widths[0]) if len(records) else 0
    ragged = bool((widths != k).any())
    if ragged:
        # Never read: validate rejects the dataset first.
        x = np.full((len(records), k), np.nan)
    else:
        x = np.array([r.x for r in records], dtype=float).reshape(len(records), k)
    columns = Columns(
        cluster_ids=tuple(cluster_ids),
        codes=codes,
        z=np.array([r.z for r in records], dtype=float),
        d=np.array([r.d for r in records], dtype=float),
        y=np.array([r.y for r in records], dtype=float),
        x=x,
        sizes=np.bincount(codes, minlength=len(cluster_ids)).astype(np.intp),
    )
    return columns, widths if ragged else None


class Summaries(NamedTuple):
    """Cluster summaries, one entry per cluster in each column: the form every
    estimator works on.

    ``ids`` names the clusters, ``n`` holds their sizes, ``z`` the 0/1
    assignment as floats, ``d_bar`` the fraction receiving active treatment,
    ``y_bar`` the mean outcome (raw or covariate-adjusted), and ``w`` the
    cluster covariates as a J x q matrix (q may be 0), or ``None`` when the
    clusters' covariate vectors differ in length.
    :func:`crtiv.collapse.cluster_means` builds them from a dataset; for a
    trial known only at cluster level, build them from arrays::

        Summaries(ids=("a", "b", "c", "d"), n=np.array([12, 7, 20, 9]),
                  z=np.array([0.0, 0.0, 1.0, 1.0]),
                  d_bar=np.array([0.0, 0.1, 0.8, 0.6]),
                  y_bar=np.array([1.2, 0.4, 2.9, 1.7]), w=np.empty((4, 0)))

    Being a tuple, ``len()`` of a ``Summaries`` counts its six fields: the
    number of clusters is :attr:`n_clusters`.
    """

    ids: tuple[str, ...]
    n: np.ndarray
    z: np.ndarray
    d_bar: np.ndarray
    y_bar: np.ndarray
    w: np.ndarray | None

    @property
    def n_clusters(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class AnalysisOptions:
    """One cell of the estimation grid.

    ``icc`` fixes the intra-cluster correlation used by minimum-variance
    weights; leave it ``None`` to have the caller estimate it from the data
    being analysed.
    """

    weights: Weights = Weights.NONE
    se_mode: SeMode = SeMode.MODEL_BASED
    df_mode: DfMode = DfMode.NORMAL_APPROX
    adjust_w: bool = False
    icc: float | None = None

    def __post_init__(self):
        if self.icc is not None and not 0.0 <= self.icc <= 1.0:
            raise ValueError(f"fixed icc must be in [0, 1], got {self.icc}")


@dataclass(frozen=True)
class LateFit:
    """Point estimate with its standard error and interval.

    ``df`` is ``math.inf`` under the normal approximation.  ``first_stage_f``
    is the unadjusted, unweighted first-stage F statistic (``None`` for fits,
    such as the assignment-effect regression, that have no first stage).
    """

    estimate: float
    se: float
    ci: tuple[float, float]
    p: float
    df: float
    first_stage_f: float | None
    n_clusters: int
    options_used: AnalysisOptions


def validate(dataset: TrialDataset) -> TrialDataset:
    """Check dataset invariants and return the dataset unchanged.

    Raises
    ------
    NonBinaryTreatment
        ``z`` or ``d`` outside {0, 1}.
    NonBinaryOutcomeForBinaryKind
        declared-binary outcome with a value outside {0, 1}.
    CovariateShapeMismatch
        records carry ``x`` vectors of different lengths.
    MixedAssignmentWithinCluster
        assignment varies within a cluster.
    EmptyArm
        fewer than one cluster in either arm.
    """
    cols = dataset.columns()
    if not len(cols.y):
        raise EmptyArm("dataset has no records")

    # Per-record checks, in the order they apply to each record; the first
    # faulty record reports its first failing check, read from its row of
    # the columns as ``records`` would show it.
    k = cols.x.shape[1]

    def cluster(i):
        return cols.cluster_ids[cols.codes[i]]

    def whole(values, i):
        return whole_to_int(values[i : i + 1])[0]

    checks = [
        (
            (cols.z != 0) & (cols.z != 1),
            NonBinaryTreatment,
            lambda i: f"assignment z={whole(cols.z, i)!r} in cluster {cluster(i)}",
        ),
        (
            (cols.d != 0) & (cols.d != 1),
            NonBinaryTreatment,
            lambda i: f"treatment d={whole(cols.d, i)!r} in cluster {cluster(i)}",
        ),
    ]
    if dataset._x_widths is not None:
        checks.append((
            dataset._x_widths != k,
            CovariateShapeMismatch,
            lambda i: (
                f"record in cluster {cluster(i)} has {dataset._x_widths[i]} covariates, "
                f"expected {k}"
            ),
        ))
    if dataset.outcome_kind is OutcomeKind.BINARY:
        checks.append((
            (cols.y != 0) & (cols.y != 1),
            NonBinaryOutcomeForBinaryKind,
            lambda i: f"outcome y={cols.y[i].item()!r} in cluster {cluster(i)}",
        ))
    faulty = np.logical_or.reduce([mask for mask, _, _ in checks])
    if faulty.any():
        i = int(np.argmax(faulty))
        for mask, error, message in checks:
            if mask[i]:
                raise error(message(i))

    z_sums = np.bincount(cols.codes, weights=cols.z, minlength=len(cols.cluster_ids))
    mixed = (z_sums != 0) & (z_sums != cols.sizes)
    if mixed.any():
        cid = cols.cluster_ids[int(np.argmax(mixed))]
        raise MixedAssignmentWithinCluster(f"cluster {cid} mixes z=0 and z=1")

    cluster_z = (z_sums > 0).astype(int)
    if cluster_z.all() or not cluster_z.any():
        raise EmptyArm("both trial arms must contain at least one cluster")
    return dataset
