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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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
from .model import Summaries, TrialDataset

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
    dataset's own arrays, so do not modify them.
    """
    return _collapse(dataset, dataset.columns().y)


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
    return _collapse(dataset, values, unadjusted)


def _collapse(dataset, values, unadjusted=None) -> Summaries:
    cols = dataset.columns()
    y_bar = _cluster_means_of(values, cols)
    if unadjusted is not None:
        return unadjusted._replace(y_bar=y_bar)
    z_sums = np.bincount(cols.codes, weights=cols.z, minlength=len(cols.cluster_ids))
    # d is 0/1, so its sums are exact in any order and need no sort.
    d_sums = np.bincount(cols.codes, weights=cols.d, minlength=len(cols.cluster_ids))
    return Summaries(
        ids=cols.cluster_ids,
        n=cols.sizes,
        z=(z_sums > 0).astype(float),
        d_bar=d_sums / cols.sizes,
        y_bar=y_bar,
        w=cols.w,
    )


def _cluster_means_of(values, cols):
    # Sum each cluster in sorted-value order so the means are bit-identical
    # under any permutation of the input records: sort the values, then
    # stably by cluster.  That is the order of lexsort((values, codes)) up
    # to ties, which are equal values (0.0 and -0.0 add to the same bits
    # in either order), at about half its cost.
    order = np.argsort(values)
    order = order[np.argsort(cols.codes[order], kind="stable")]
    starts = np.searchsorted(cols.codes[order], np.arange(len(cols.cluster_ids)))
    return np.add.reduceat(values[order], starts) / cols.sizes


def _adjustment_design(dataset, x_columns, allow_empty):
    cols = dataset.columns()
    x_columns = tuple(int(c) for c in x_columns)
    if not x_columns and not allow_empty:
        raise NoCovariatesSelected("select at least one individual-level covariate")
    k = cols.x.shape[1]
    for c in x_columns:
        if not 0 <= c < k:
            raise NoCovariatesSelected(f"covariate index {c} out of range for {k} columns")
    design = np.column_stack([np.ones(len(cols.y))] + [cols.x[:, c] for c in x_columns])
    return design, cols


def continuous_residuals(dataset: TrialDataset, x_columns: Sequence[int]) -> np.ndarray:
    """Per-record residuals of OLS of the outcome on intercept + selected x."""
    design, cols = _adjustment_design(dataset, x_columns, allow_empty=False)
    try:
        fit = wls.fit_wls(design, cols.y)
    except RankDeficient as exc:
        raise RankDeficientDesign(str(exc)) from exc
    return fit.residuals


def binary_residuals(dataset: TrialDataset, x_columns: Sequence[int] = ()) -> np.ndarray:
    """Per-record ``y - p_hat`` from a logistic fit on intercept + selected x.

    An empty selection fits the intercept-only model.
    """
    design, cols = _adjustment_design(dataset, x_columns, allow_empty=True)
    coef = _fit_logistic(design, cols.y)
    return cols.y - expit(design @ coef)


def _fit_logistic(design, y):
    """Maximum-likelihood logistic coefficients via damped Newton steps.

    Converges when the largest absolute score falls below 1e-10; declares
    separation when any coefficient exceeds 30 on the logit scale.  The one
    fit outside the regression core, for the measured reasons given in
    :mod:`crtiv.wls`.
    """
    n, p = design.shape
    if np.linalg.matrix_rank(design, tol=1e-10 * max(1.0, float(np.abs(design).max()))) < p:
        raise RankDeficientDesign("logistic design is collinear")

    beta = np.zeros(p)
    ll = _log_likelihood(design, y, beta)
    for _ in range(_MAX_NEWTON_ITER):
        eta = design @ beta
        probs = expit(eta)
        score = design.T @ (y - probs)
        if np.max(np.abs(score)) < _SCORE_TOL:
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
        if np.max(np.abs(beta)) > _SEPARATION_BOUND:
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
    """
    values = np.asarray(values, dtype=float)
    codes = np.asarray(codes)
    if codes.dtype.kind not in "iu":
        raise ValueError(f"codes must be integers, not {codes.dtype}")
    sizes = np.bincount(codes).astype(float)
    n_clusters = len(sizes)
    if n_clusters < 2:
        raise ValueError("ICC estimation needs at least 2 clusters")
    if not sizes.all():
        raise ValueError(f"codes must use every cluster index 0..{n_clusters - 1}")

    total = float(sizes.sum())
    means = np.bincount(codes, weights=values) / sizes
    grand = float(values.mean())

    ss_between = float(sizes @ (means - grand) ** 2)
    ss_within = float(((values - means[codes]) ** 2).sum())
    ms_between = ss_between / (n_clusters - 1)
    ms_within = ss_within / (total - n_clusters) if total > n_clusters else 0.0

    n0 = (total - float(sizes @ sizes) / total) / (n_clusters - 1)
    sigma2_between = max(0.0, (ms_between - ms_within) / n0)
    sigma2_within = ms_within
    denom = sigma2_between + sigma2_within
    rho = sigma2_between / denom if denom > 0.0 else 0.0
    return IccEstimate(rho=rho, sigma2_between=sigma2_between, sigma2_within=sigma2_within)
