"""Cluster-level summaries, covariate-adjusted outcomes, and ICC estimation.

The summary step turns the individual-level columns into one row per
cluster: the mean outcome, the fraction receiving active treatment, the
cluster size, and any cluster-level covariates.  Individual-level
covariates cannot enter the cluster-level regressions directly, so
adjustment happens here instead: a single individual-level regression of the
outcome on the selected covariates (no treatment terms, clustering ignored)
is fitted, and the within-cluster means of its residuals replace the raw
outcome means.  For binary outcomes
the regression is logistic and the residual is the observed-minus-predicted
success count scaled by cluster size.

The treatment summary ``d_bar`` is never adjusted; first-stage regressions
always see the raw adherence fractions.

Summaries are columns (:class:`~crtiv.model.Summaries`) built straight from
the dataset's arrays, and every collapse is a pure function of its
arguments.  :func:`cluster_means` computes the unadjusted ones on each call;
:func:`summaries_from_values` gives an adjusted variant, which shares every
column except ``y_bar`` with the unadjusted summaries it is handed.

:func:`summarise_block` is the one way from datasets to the grid's
summaries and ICCs (:meth:`crtiv.iv.GridPlan.summarise` is its one-item
case).  It collapses a block of trials at once: their columns are
concatenated once (``_Block``, used only here), each trial's cluster codes
offset by the clusters before it, so the cluster sums, means and ICC
moments of the whole block are one array operation each.  The continuous
covariate adjustment of a block is one :func:`crtiv.wls.segment_residuals`
over its records, each trial a segment: every inner product of its
Gram-Schmidt pass is one ``np.add.reduceat`` over the trials' starts,
which sums a trial's terms as its first plus numpy's pairwise sum of the
rest.  Only what sets a trial's own bits stays per trial: a binary
outcome's logistic fit, the sort of its records, and the mean, dot product
and sums of its ICC.  Each cluster's and trial's reductions see the same
values in the same order as alone, so a block gives each trial the bits of
its own call; :func:`cluster_means`, :func:`summaries_from_values`,
:func:`continuous_residuals` and :func:`anova_icc` are the one-trial case,
and all but :func:`continuous_residuals`, which gathers the selected x
columns, copy no array.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, pairwise
from typing import Mapping, Sequence

import numpy as np
from scipy.special import expit

from . import wls
from .errors import (
    NoCovariatesSelected,
    NonConvergence,
    RankDeficient,
    RankDeficientDesign,
    SeparationDetected,
)
from .model import ClOutcome, Columns, OutcomeKind, Summaries, TrialDataset

_SCORE_TOL = 1e-10
_MAX_NEWTON_ITER = 100
_SEPARATION_BOUND = 30.0


@dataclass(frozen=True)
class IccEstimate:
    """Intra-cluster correlation with its variance components.

    ``rho`` is ``sigma2_between / (sigma2_between + sigma2_within)`` and is 0
    when both components vanish; the between component is truncated at zero
    when the moment estimator goes negative.
    """

    rho: float
    sigma2_between: float
    sigma2_within: float


def cluster_means(dataset: TrialDataset) -> Summaries:
    """Collapse a dataset to unadjusted per-cluster summaries.

    Output is ordered lexicographically by cluster id and, for a dataset
    that passes ``validate`` (0/1 ``d``), bit-identical under any order of
    the input records.  Each call collapses afresh; ``n`` and ``w`` are the
    dataset's own arrays, so do not modify them.  The one-trial case of a
    block's collapse.
    """
    block = _Block.of([dataset.columns()])
    (summaries,) = block.summaries(block.column("y"))
    return summaries


def summaries_from_values(
    dataset: TrialDataset, values, unadjusted: Summaries | None = None
) -> Summaries:
    """Summaries whose outcome column is the cluster mean of ``values``.

    ``values`` is one number per record, in record order.  Used for adjusted
    outcomes; also handy for custom residual definitions.  Every other column
    is that of :func:`cluster_means`: the very arrays of ``unadjusted``, the
    dataset's unadjusted summaries, when given, and otherwise formed here.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != dataset.columns().y.shape:
        raise ValueError(f"need one value per record, got shape {values.shape}")
    block = _Block.of([dataset.columns()])
    (summaries,) = block.summaries(values, None if unadjusted is None else [unadjusted])
    return summaries


# An overflowed cluster mean ends in the grid's NonFiniteValue, an ICC in
# that of iv._usable_icc and a covariate adjustment in that of
# wls.segment_residuals or of the logistic fit.
@np.errstate(over="ignore", invalid="ignore")
def summarise_block(
    datasets: Sequence[TrialDataset],
    outcomes: Mapping[ClOutcome, bool],
    x_columns: Sequence[int] | None = None,
    unadjusted: Sequence[Summaries] | None = None,
    icc: float | None = None,
) -> list[tuple[dict[ClOutcome, Summaries], dict[ClOutcome, float | None]]]:
    """The summaries of each outcome of each dataset of a block, and the ICC
    behind its minimum-variance weights: for each dataset, the two mappings
    :meth:`crtiv.iv.GridPlan.fit` takes, so the list is the items of
    :meth:`~crtiv.iv.GridPlan.fit_block`.

    ``outcomes`` maps each :class:`~crtiv.model.ClOutcome` to collapse to
    whether an ICC is read for it, as a plan's ``needs_icc`` does; other
    keys are ignored.  ``x_columns`` selects the individual-level
    covariates of the adjusted outcome.  ``unadjusted``, if given, holds
    each dataset's unadjusted summaries, and they are otherwise collapsed
    here if read; the adjusted summaries share their columns.  A number
    ``icc`` becomes every outcome's ICC; otherwise one is estimated for each
    outcome that reads one, from the values its summaries average: the raw
    outcomes or the adjustment residuals.  An adjusted outcome and no
    ``x_columns`` raise :class:`~crtiv.errors.NoCovariatesSelected`.  It
    runs without numpy's overflow warnings: every value an overflow spoils
    here ends in a :class:`~crtiv.errors.NonFiniteValue`, raised or held by
    a cell.  Item ``i`` is the one-item block of dataset ``i``, bit for bit.
    """
    if ClOutcome.ADJUSTED_FOR_X in outcomes and x_columns is None:
        raise NoCovariatesSelected("covariate-adjusted cells need x_columns")
    if not datasets:
        return []
    items = [({}, {}) for _ in datasets]
    block = _Block.of([dataset.columns() for dataset in datasets])
    for outcome in ClOutcome:
        if outcome not in outcomes:
            continue
        if outcome is ClOutcome.UNADJUSTED:
            values = block.column("y")
            if unadjusted is None:
                unadjusted = block.summaries(values)
            summaries = unadjusted
        else:
            values = _residuals(block, datasets, x_columns)
            summaries = block.summaries(values, unadjusted)
        rho = [icc] * len(datasets)
        if icc is None and outcomes[outcome]:
            rho = [estimate.rho for estimate in block.icc(values)]
        for (outcome_summaries, outcome_icc), s, r in zip(items, summaries, rho):
            outcome_summaries[outcome], outcome_icc[outcome] = s, r
    return items


class _Block:
    """The records of a block of trials as one set of columns, which a
    collapse and an ICC read at once.

    ``codes`` and ``sizes`` hold every trial's cluster codes and cluster
    sizes in trial order, each trial's codes raised by the cluster count of
    the trials before it, so that they number every cluster of the block.
    ``clusters`` and ``records`` bound each trial's clusters and records.
    A block of one trial holds that trial's own arrays, uncopied.  Built
    :meth:`of` the trials' :class:`~crtiv.model.Columns`, it also forms
    their summaries; built from codes alone, as by :func:`anova_icc`, it
    estimates ICCs only.
    """

    def __init__(self, codes: Sequence[np.ndarray], sizes: Sequence[np.ndarray], columns=()):
        self.columns = columns
        self.clusters = [0, *accumulate(map(len, sizes))]
        self.records = [0, *accumulate(map(len, codes))]
        self._codes = codes
        self.codes = self.gather(codes, self.clusters)
        self.sizes = self.gather(sizes)

    @classmethod
    def of(cls, columns: Sequence[Columns]) -> _Block:
        return cls([c.codes for c in columns], [c.sizes for c in columns], columns)

    def gather(self, arrays: Sequence[np.ndarray], offsets=None) -> np.ndarray:
        """One array of ``arrays``, one per trial, in trial order; with
        ``offsets``, each trial's records raised by its entry."""
        if len(arrays) == 1:
            return arrays[0]
        block = np.concatenate(arrays)
        if offsets is not None:
            block += np.repeat(offsets[:-1], np.diff(self.records))
        return block

    def column(self, name: str) -> np.ndarray:
        """The trials' column ``name`` of :class:`~crtiv.model.Columns` as one array."""
        return self.gather([getattr(c, name) for c in self.columns])

    def summaries(self, values: np.ndarray, unadjusted=None) -> list[Summaries]:
        """Each trial's summaries whose outcome column is the cluster mean of
        ``values``, one per record of the block.  Given the trials'
        ``unadjusted`` summaries, every other column is theirs; otherwise
        the z and d sums are one ``bincount`` each, in record order."""
        y_bar = self._means(values)
        bounds = list(pairwise(self.clusters))
        if unadjusted is not None:
            return [s._replace(y_bar=y_bar[a:b]) for s, (a, b) in zip(unadjusted, bounds)]
        z_sums = np.bincount(self.codes, weights=self.column("z"), minlength=len(self.sizes))
        # d is 0/1, so its sums are exact in any order and need no sort.
        d_sums = np.bincount(self.codes, weights=self.column("d"), minlength=len(self.sizes))
        z, d_bar = (z_sums > 0).astype(float), d_sums / self.sizes
        return [
            Summaries(c.cluster_ids, c.sizes, z[a:b], d_bar[a:b], y_bar[a:b], c.w)
            for c, (a, b) in zip(self.columns, bounds)
        ]

    def _means(self, values: np.ndarray) -> np.ndarray:
        # Sum each cluster in sorted-value order so the means are
        # bit-identical under any permutation of a trial's records: sort
        # the trial's values, then stably by cluster.  That is the order of
        # lexsort((values, codes)) up to ties, which are equal values (0.0
        # and -0.0 add to the same bits in either order), at about half its
        # cost.  numpy's stable sort is a radix sort for 16-bit integers and
        # a timsort for int64, so codes that fit in 16 bits (J <= 65,536)
        # are sorted as such; a stable sort's result is unique, so the order
        # is the same either way.  Each trial sorts its own records, as one
        # sort of a whole block costs more than its trials' sorts; the
        # sorted values of every cluster of the block are then one reduceat,
        # and each cluster's sum depends only on its own values in order.
        orders = []
        for codes, (a, b), (start, end) in zip(
            self._codes, pairwise(self.clusters), pairwise(self.records)
        ):
            if b - a <= 1 << 16:
                codes = codes.astype(np.uint16)
            order = np.argsort(values[start:end])
            orders.append(order[np.argsort(codes[order], kind="stable")])
        order = self.gather(orders, self.records)
        return np.add.reduceat(values[order], np.cumsum(self.sizes) - self.sizes) / self.sizes

    def icc(self, values: np.ndarray) -> list[IccEstimate]:
        """The one-way ANOVA ICC of each trial's ``values``, one per record
        of the block, as :func:`anova_icc` defines it.

        The cluster means are one weighted ``bincount`` in record order, and
        every other step but a trial's grand mean and its two sums of squares
        is one elementwise pass over the block.  Those three each trial
        reduces from its own slices, whose sums depend only on their length
        and order.  A trial with fewer than 2 clusters, or with an empty
        one, raises :class:`ValueError`.
        """
        n_clusters = np.diff(self.clusters)
        if n_clusters.min() < 2:
            raise ValueError("ICC estimation needs at least 2 clusters")
        if not self.sizes.all():
            trial = np.searchsorted(self.clusters, self.sizes.argmin(), side="right") - 1
            raise ValueError(f"codes must use every cluster index 0..{n_clusters[trial] - 1}")
        sizes = self.sizes.astype(float)
        means = np.bincount(self.codes, weights=values, minlength=len(sizes)) / sizes
        squares = (values - means[self.codes]) ** 2
        grand = np.array([values[start:end].mean() for start, end in pairwise(self.records)])
        deviations = (means - grand.repeat(n_clusters)) ** 2
        ss_between = np.array([sizes[a:b] @ deviations[a:b] for a, b in pairwise(self.clusters)])
        ss_within = np.array([squares[start:end].sum() for start, end in pairwise(self.records)])
        total = np.diff(self.records).astype(float)
        ms_between = ss_between / (n_clusters - 1)
        ms_within = np.divide(
            ss_within, total - n_clusters, out=np.zeros(len(total)), where=total > n_clusters
        )
        # Sums of squared integer sizes are exact in any order.
        n0 = (total - np.add.reduceat(sizes * sizes, self.clusters[:-1]) / total) / (n_clusters - 1)
        between = (ms_between - ms_within) / n0
        between = np.where(between > 0.0, between, 0.0)  # also where nan, as max(0.0, nan)
        denom = between + ms_within
        rho = np.divide(between, denom, out=np.zeros(len(denom)), where=denom > 0.0)
        return list(map(IccEstimate, rho.tolist(), between.tolist(), ms_within.tolist()))


def _selected(columns: Columns, x_columns, allow_empty) -> list[int]:
    """``x_columns`` as indices of ``columns.x``, checked against its width."""
    x_columns = [int(c) for c in x_columns]
    if not x_columns and not allow_empty:
        raise NoCovariatesSelected("select at least one individual-level covariate")
    k = columns.x.shape[1]
    for c in x_columns:
        if not 0 <= c < k:
            raise NoCovariatesSelected(f"covariate index {c} out of range for {k} columns")
    return x_columns


def _residuals(block: _Block, datasets: Sequence[TrialDataset], x_columns) -> np.ndarray:
    """The per-record residuals of each dataset's covariate adjustment, one
    per record of the block: one segmented fit for a block of continuous
    trials, and trial by trial otherwise."""
    if all(dataset.outcome_kind is OutcomeKind.CONTINUOUS for dataset in datasets):
        return _continuous(block, x_columns)
    return block.gather(
        [
            binary_residuals(dataset, x_columns)
            if dataset.outcome_kind is OutcomeKind.BINARY
            else continuous_residuals(dataset, x_columns)
            for dataset in datasets
        ]
    )


def _continuous(block: _Block, x_columns) -> np.ndarray:
    """The OLS residuals of each trial of ``block`` on its intercept and
    selected x, by one :func:`crtiv.wls.segment_residuals` over the block's
    records, once the selection is checked against every trial.  The first
    trial to fail, in trial order, raises."""
    selections = [_selected(columns, x_columns, allow_empty=False) for columns in block.columns]
    x = block.gather([columns.x[:, s] for columns, s in zip(block.columns, selections)])
    residuals, errors = wls.segment_residuals(x, block.column("y"), block.records)
    if errors:
        exc = errors[min(errors)]
        if isinstance(exc, RankDeficient):
            raise RankDeficientDesign(str(exc)) from exc
        raise exc
    return residuals


def continuous_residuals(dataset: TrialDataset, x_columns: Sequence[int]) -> np.ndarray:
    """Per-record residuals of OLS of the outcome on intercept + selected x:
    the one-trial case of a block's adjustment, bit for bit."""
    return _continuous(_Block.of([dataset.columns()]), x_columns)


def binary_residuals(dataset: TrialDataset, x_columns: Sequence[int] = ()) -> np.ndarray:
    """Per-record ``y - p_hat`` from a logistic fit on intercept + selected x.

    An empty selection fits the intercept-only model.
    """
    cols = dataset.columns()
    x_columns = _selected(cols, x_columns, allow_empty=True)
    design = np.column_stack([np.ones(len(cols.y)), cols.x[:, x_columns]])
    coef = _fit_logistic(design, cols.y)
    return cols.y - expit(design @ coef)


def _fit_logistic(design, y):
    """Maximum-likelihood logistic coefficients via damped Newton steps.

    Converges when the largest score falls below 1e-10; declares separation
    when any coefficient exceeds 30 on the logit scale.  Both are read in
    units of the linear predictor, scaled by their column's root mean square
    (1 for the intercept), so the units of a covariate do not matter.  The
    one fit outside the regression core, for the measured reasons given in
    :mod:`crtiv.wls`.
    """
    n, p = design.shape
    if np.linalg.matrix_rank(design, tol=1e-10 * max(1.0, float(np.abs(design).max()))) < p:
        raise RankDeficientDesign("logistic design is collinear")
    # Nonzero: a column of zeros fails the rank check.
    units = np.sqrt(np.mean(design * design, axis=0))

    beta = np.zeros(p)
    ll = _log_likelihood(design, y, beta)
    for _ in range(_MAX_NEWTON_ITER):
        eta = design @ beta
        probs = expit(eta)
        score = design.T @ (y - probs)
        if np.max(np.abs(score / units)) < _SCORE_TOL:
            return beta
        info = design.T @ (design * (probs * (1.0 - probs))[:, None])
        try:
            step = np.linalg.solve(info, score)
        except np.linalg.LinAlgError as exc:
            raise SeparationDetected("singular information matrix") from exc

        # Accept any step that does not worsen the log-likelihood beyond its
        # own rounding noise, which scales with |ll|; an absolute tolerance
        # here stalls the final near-optimum Newton steps on large samples.
        noise = 1e-12 * (1.0 + abs(ll))
        scale = 1.0
        while scale > 1e-10:
            candidate = beta + scale * step
            ll_new = _log_likelihood(design, y, candidate)
            if ll_new >= ll - noise:
                break
            scale *= 0.5
        else:
            raise NonConvergence("step halving stalled")
        beta, ll = candidate, ll_new
        if np.max(np.abs(beta * units)) > _SEPARATION_BOUND:
            raise SeparationDetected(
                f"coefficient magnitude exceeded {_SEPARATION_BOUND} on the logit scale"
            )
    raise NonConvergence(f"no convergence in {_MAX_NEWTON_ITER} Newton iterations")


def _log_likelihood(design, y, beta):
    eta = design @ beta
    return float(y @ eta - np.logaddexp(0.0, eta).sum())


def anova_icc(values, codes) -> IccEstimate:
    """One-way ANOVA moment estimator of the intra-cluster correlation.

    Parameters
    ----------
    values : array of individual-level measurements.
    codes : parallel array of cluster indices 0..J-1, each used, as in
        ``Columns.codes``; other codes, or J < 2, raise :class:`ValueError`.

    The between-cluster variance component is ``(MSB - MSW) / n0`` with
    ``n0 = (N - sum(n_j^2)/N) / (J - 1)``, truncated at zero; ``rho`` is the
    between share of the total.  Identical values everywhere give ``rho = 0``.
    The one-trial case of a block's ICCs.
    """
    values = np.asarray(values, dtype=float)
    codes = np.asarray(codes)
    if codes.dtype.kind not in "iu":
        raise ValueError(f"codes must be integers, not {codes.dtype}")
    (estimate,) = _Block([codes], [np.bincount(codes)]).icc(values)
    return estimate
