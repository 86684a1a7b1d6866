"""Domain types shared across the package.

Everything here, a :class:`TrialDataset` included, is immutable after
construction and safe to share between concurrent workers.  A trial is
stored column by column (:class:`Columns`): one array each for assignment,
treatment received and outcome, a matrix of individual-level covariates,
and an integer code per record naming its cluster.  Clusters are opaque
string identifiers, ordered by code point in all deterministic output.
Cluster-level covariates are a matrix with one row per cluster, in that order.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
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


class ClOutcome(enum.Enum):
    """Which outcome summary enters the second stage."""

    UNADJUSTED = "unadjusted"
    ADJUSTED_FOR_X = "adjusted_for_x"


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


class Columns(NamedTuple):
    """The one form of a trial: one array per individual-level variable.

    ``cluster_ids`` is sorted by code point and ``codes`` maps each record
    to its position in that ordering, so per-cluster reductions are cheap
    vectorised segment operations.  ``z``, ``d`` and ``y`` are float arrays
    of length n, ``x`` is an n x k float matrix (k may be 0), ``sizes``
    counts the records of each cluster, and ``w`` is a J x q float matrix
    of cluster-level covariates (q may be 0) whose rows follow
    ``cluster_ids``.  :meth:`from_codes` builds them and decides the
    cluster order::

        Columns.from_codes(ids=["b", "a"], codes=[0, 1, 0],
                           z=[1, 0, 1], d=[0, 0, 1], y=[2.5, 1.5, -0.5],
                           w=[[0.3], [-0.1]])
    """

    cluster_ids: tuple[str, ...]
    codes: np.ndarray
    z: np.ndarray
    d: np.ndarray
    y: np.ndarray
    x: np.ndarray
    sizes: np.ndarray
    w: np.ndarray

    @classmethod
    def from_codes(cls, ids, codes, z, d, y, x=None, w=None) -> Columns:
        """Columns from per-record values and codes into a table of ids.

        ``ids`` are the distinct cluster ids in any order, and record ``i``
        belongs to cluster ``ids[codes[i]]``.  ``x`` is an n x k matrix of
        individual covariates, or ``None`` for none; ``w`` is a J x q
        matrix of cluster covariates whose row ``j`` belongs to ``ids[j]``,
        or ``None`` for none.  The ids are sorted by :func:`sorted`, by code
        point (``np.unique`` would merge ids that differ only by trailing
        NULs), and the codes and the rows of ``w`` reordered to match.

        Raises :class:`ValueError` for a repeated id, an id that no record
        names, codes that are not integers or fall outside the id table,
        arrays of unequal length, and a ``w`` that is not a matrix with one
        row per id.
        """
        ids = list(ids)
        if len(set(ids)) != len(ids):
            raise ValueError("cluster ids must be distinct")
        codes = np.asarray(codes)
        if codes.size and codes.dtype.kind not in "iu":
            raise ValueError(f"codes must be integers, not {codes.dtype}")
        codes = codes.astype(np.intp, copy=False)
        if codes.size and (codes.min() < 0 or codes.max() >= len(ids)):
            raise ValueError(f"codes must index the {len(ids)} cluster ids")
        z, d, y = (np.asarray(v, dtype=float) for v in (z, d, y))
        x = np.empty((len(codes), 0)) if x is None else np.asarray(x, dtype=float)
        if x.ndim != 2 or not len(codes) == len(z) == len(d) == len(y) == len(x):
            raise ValueError("codes, z, d, y and the rows of x must have equal lengths")
        w = np.empty((len(ids), 0)) if w is None else np.asarray(w, dtype=float)
        if w.ndim != 2 or len(w) != len(ids):
            raise ValueError(f"w must be a matrix with one row for each of the {len(ids)} ids")
        order = sorted(range(len(ids)), key=ids.__getitem__)
        rank = np.empty(len(ids), dtype=np.intp)
        rank[order] = np.arange(len(ids))
        codes = rank[codes]
        sizes = np.bincount(codes, minlength=len(ids)).astype(np.intp)
        if not sizes.all():
            raise ValueError("every cluster id needs at least one record")
        return cls(tuple(ids[i] for i in order), codes, z, d, y, x, sizes, w[order])


class TrialDataset:
    """Individual-level trial data grouped by cluster, stored as columns.

    Parameters
    ----------
    columns : the trial's :class:`Columns`, cluster covariates included.
    outcome_kind : whether ``y`` is continuous or 0/1.

    Construction does not check the data; :func:`validate` does.  A dataset
    holds its columns and outcome kind and nothing else: it keeps no
    summaries, so collapsing it (:mod:`crtiv.collapse`) never depends on
    earlier calls, and it takes no new attributes.
    """

    __slots__ = ("_columns", "outcome_kind")

    def __init__(self, columns: Columns, outcome_kind: OutcomeKind = OutcomeKind.CONTINUOUS):
        self._columns = columns
        self.outcome_kind = outcome_kind

    @property
    def n_records(self) -> int:
        return len(self._columns.y)

    def columns(self) -> Columns:
        """The stored arrays."""
        return self._columns


def whole_to_int(values: np.ndarray) -> list:
    """``values.tolist()`` with whole numbers as ``int``: 0/1 codes read back
    and print as ``0`` and ``1``."""
    return [int(v) if v.is_integer() else v for v in values.tolist()]


class Summaries(NamedTuple):
    """Cluster summaries, one entry per cluster in each column: the form every
    estimator works on.

    ``ids`` names the clusters, ``n`` holds their sizes, ``z`` the 0/1
    assignment as floats, ``d_bar`` the fraction receiving active treatment,
    ``y_bar`` the mean outcome (raw or covariate-adjusted), and ``w`` the
    cluster covariates as a J x q matrix (q may be 0).
    :func:`crtiv.collapse.cluster_means` builds them from a dataset, whose
    ``w`` they share; for a trial known only at cluster level, build them
    from arrays::

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
    w: np.ndarray

    @property
    def n_clusters(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class AnalysisOptions:
    """How one outcome summary is fitted: weights, SE mode, df mode and
    cluster-covariate adjustment (a cell of the grid is a
    :class:`VariantKey`).

    The ICC behind minimum-variance weights belongs to the trial and
    outcome, not to a cell: :func:`crtiv.iv.tsls` and :func:`crtiv.iv.itt`
    take it as ``icc``, and :meth:`crtiv.iv.GridPlan.summarise` estimates it
    or fixes it for every outcome.
    """

    weights: Weights = Weights.NONE
    se_mode: SeMode = SeMode.MODEL_BASED
    df_mode: DfMode = DfMode.NORMAL_APPROX
    adjust_w: bool = False


class VariantKey(NamedTuple):
    """One cell of the estimation grid: an outcome summary and the options
    it is fitted with.  The full grid has 2 x 2 x 3 x 2 x 2 = 48 cells."""

    cl_outcome: ClOutcome
    options: AnalysisOptions

    def label(self) -> str:
        options = self.options
        return "/".join(
            (
                self.cl_outcome.value,
                "w-adj" if options.adjust_w else "w-none",
                options.weights.value,
                options.se_mode.value,
                options.df_mode.value,
            )
        )


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


def validate(dataset: TrialDataset) -> TrialDataset:
    """Check dataset invariants and return the dataset unchanged.

    Raises
    ------
    NonBinaryTreatment
        ``z`` or ``d`` outside {0, 1}.
    NonBinaryOutcomeForBinaryKind
        declared-binary outcome with a value outside {0, 1}.
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
    # the columns.

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
