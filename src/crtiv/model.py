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
    by :func:`crtiv.collapse.summarise` once computed.
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


@dataclass(frozen=True)
class ClusterSummary:
    """Per-cluster summary used by the cluster-level estimators.

    ``y_bar`` is either the raw outcome mean or a covariate-adjusted residual
    mean; ``d_bar`` is always the raw fraction receiving active treatment.
    """

    cluster_id: str
    n: int
    z: int
    d_bar: float
    y_bar: float
    w: tuple[float, ...] = ()


class Summaries(NamedTuple):
    """Cluster summaries stored column by column, one entry per cluster.

    ``n`` holds the cluster sizes, ``z`` the 0/1 assignment as floats,
    ``d_bar`` and ``y_bar`` the summaries of :class:`ClusterSummary`, and
    ``w`` the cluster covariates as a J x q matrix (q may be 0), or ``None``
    when the clusters' covariate vectors differ in length.  This is the form
    the estimators work on; a list of :class:`ClusterSummary` is its row-wise
    view at the edge of the API, converted by :meth:`of`.

    Being a tuple, ``len()`` of a ``Summaries`` counts its fields: the
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

    @classmethod
    def of(cls, summaries: Summaries | Sequence[ClusterSummary]) -> Summaries:
        """``summaries`` in columns: a ``Summaries`` as it is, a sequence of
        :class:`ClusterSummary` converted."""
        if isinstance(summaries, Summaries):
            return summaries
        summaries = list(summaries)
        return cls(
            ids=tuple(s.cluster_id for s in summaries),
            n=np.array([s.n for s in summaries]),
            z=np.array([s.z for s in summaries], dtype=float),
            d_bar=np.array([s.d_bar for s in summaries], dtype=float),
            y_bar=np.array([s.y_bar for s in summaries], dtype=float),
            w=covariate_matrix([s.w for s in summaries]),
        )


def covariate_matrix(vectors: Sequence[Sequence[float]]) -> np.ndarray | None:
    """One covariate vector per cluster as a J x q matrix; ``None`` when
    their lengths differ."""
    widths = {len(v) for v in vectors}
    if len(widths) > 1:
        return None
    return np.array(vectors, dtype=float).reshape(len(vectors), widths.pop() if widths else 0)


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
    # faulty record reports its first failing check.
    k = cols.x.shape[1]
    checks = [
        (
            (cols.z != 0) & (cols.z != 1),
            NonBinaryTreatment,
            lambda r: f"assignment z={r.z!r} in cluster {r.cluster_id}",
        ),
        (
            (cols.d != 0) & (cols.d != 1),
            NonBinaryTreatment,
            lambda r: f"treatment d={r.d!r} in cluster {r.cluster_id}",
        ),
    ]
    if dataset._x_widths is not None:
        checks.append((
            dataset._x_widths != k,
            CovariateShapeMismatch,
            lambda r: f"record in cluster {r.cluster_id} has {len(r.x)} covariates, expected {k}",
        ))
    if dataset.outcome_kind is OutcomeKind.BINARY:
        checks.append((
            (cols.y != 0) & (cols.y != 1),
            NonBinaryOutcomeForBinaryKind,
            lambda r: f"outcome y={r.y!r} in cluster {r.cluster_id}",
        ))
    faulty = np.logical_or.reduce([mask for mask, _, _ in checks])
    if faulty.any():
        i = int(np.argmax(faulty))
        for mask, error, message in checks:
            if mask[i]:
                raise error(message(dataset.records[i]))

    z_sums = np.bincount(cols.codes, weights=cols.z, minlength=len(cols.cluster_ids))
    mixed = (z_sums != 0) & (z_sums != cols.sizes)
    if mixed.any():
        cid = cols.cluster_ids[int(np.argmax(mixed))]
        raise MixedAssignmentWithinCluster(f"cluster {cid} mixes z=0 and z=1")

    cluster_z = (z_sums > 0).astype(int)
    if cluster_z.all() or not cluster_z.any():
        raise EmptyArm("both trial arms must contain at least one cluster")
    return dataset
