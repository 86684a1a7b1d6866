"""Cluster-level estimators: assignment effect, Wald ratio, two-stage fit.

All three consume the per-cluster summaries produced by :mod:`crtiv.collapse`.
The two-stage fit regresses the adherence fraction on assignment (plus any
cluster covariates), then the outcome summary on the fitted adherence; with a
single binary instrument and no weights this reproduces the Wald ratio of arm
means exactly.

Standard errors for the second stage are built from structural residuals,
i.e. residuals formed with the *actual* adherence fractions rather than the
first-stage fitted values.  Plugging stage-two OLS residuals into the usual
formulas understates the variance, so the two-stage fit reads only the
stage-two ``xtwx_inv`` of its :class:`~crtiv.wls.DesignFit` and builds both
covariances itself; neither stage's own covariances are ever formed.

:func:`fit_grid` is the one loop over an estimation grid, shared by the
command line and the Monte Carlo runner.  SE and df mode only post-process a
fit, so it solves once per (outcome, w-adjust, weights) group and fans each
solve out to its cells; groups whose first stages have identical inputs
share one first-stage solve.  :func:`tsls` and :func:`itt` are its one-cell
case.

The weak-instrument screen uses the unadjusted, unweighted first stage even
when the analysis itself is adjusted or weighted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Hashable, Mapping, NamedTuple, Sequence

import numpy as np

from . import collapse, wls
from .errors import (
    CovariateShapeMismatch,
    CrtivError,
    EmptyArm,
    MissingIcc,
    WeakDenominator,
    ZeroDenominator,
)
from .model import (
    AnalysisOptions,
    ClusterSummary,
    DfMode,
    LateFit,
    OutcomeKind,
    SeMode,
    TrialDataset,
    Weights,
    validate,
)

_RELEVANCE_TOL = 1e-12


@dataclass(frozen=True)
class TslsInternals:
    """Both stages of the two-stage system, for inspection and testing.

    ``structural_residuals`` are computed with the actual adherence
    fractions, never the first-stage fitted values.
    """

    gamma0: float
    gamma_z: float
    gamma_w: tuple[float, ...]
    beta0: float
    beta_iv: float
    beta_w: tuple[float, ...]
    first_stage_fitted: np.ndarray
    structural_residuals: np.ndarray


def _summary_arrays(summaries: Sequence[ClusterSummary], need_w: bool):
    if not summaries:
        raise EmptyArm("no cluster summaries")
    y = np.array([s.y_bar for s in summaries], dtype=float)
    d = np.array([s.d_bar for s in summaries], dtype=float)
    z = np.array([s.z for s in summaries], dtype=float)
    w_mat = None
    if need_w:
        widths = {len(s.w) for s in summaries}
        if len(widths) != 1 or widths == {0}:
            raise CovariateShapeMismatch(
                "cluster covariates must be present, with equal length, for every cluster"
            )
        w_mat = np.array([s.w for s in summaries], dtype=float)
    return y, d, z, w_mat


def resolve_weights(
    summaries: Sequence[ClusterSummary], options: AnalysisOptions, icc: float | None = None
) -> np.ndarray:
    """Regression weights for the requested scheme.

    For minimum-variance weights the ICC comes from ``options.icc`` when
    fixed, otherwise from the ``icc`` argument (an estimate supplied by the
    caller, e.g. :func:`late_from_dataset`).
    """
    sizes = np.array([s.n for s in summaries], dtype=float)
    if options.weights is Weights.NONE:
        return np.ones(len(sizes))
    if options.weights is Weights.CLUSTER_SIZE:
        return sizes
    rho = options.icc if options.icc is not None else icc
    if rho is None:
        raise MissingIcc(
            "minimum-variance weights need an ICC: fix one in AnalysisOptions.icc "
            "or pass an estimate"
        )
    return wls.mv_weights(sizes, rho)


def _design(z_or_d: np.ndarray, w_mat) -> np.ndarray:
    pieces = [np.ones(len(z_or_d)), z_or_d]
    if w_mat is not None:
        pieces.append(w_mat)
    return np.column_stack(pieces)


def itt(
    summaries: Sequence[ClusterSummary],
    options: AnalysisOptions,
    icc: float | None = None,
) -> LateFit:
    """Assignment-effect regression of the outcome summary on assignment."""
    return late_fit(_fit_cell(summaries, options, icc, "itt"), options, len(summaries))


def wald_late(summaries: Sequence[ClusterSummary]) -> float:
    """Ratio of unweighted arm-mean differences of outcome and adherence."""
    y, d, z, _ = _summary_arrays(summaries, need_w=False)
    treated = z == 1.0
    if not treated.any() or treated.all():
        raise EmptyArm("both arms required for the ratio estimator")
    numerator = float(y[treated].mean() - y[~treated].mean())
    denominator = float(d[treated].mean() - d[~treated].mean())
    if abs(denominator) < _RELEVANCE_TOL:
        raise ZeroDenominator("arm means of treatment received coincide")
    return numerator / denominator


def first_stage_f(summaries: Sequence[ClusterSummary]) -> float:
    """Screening F: squared t-ratio of assignment in the unadjusted,
    unweighted first stage, with model-based SE and (1, J-2) degrees of
    freedom.  Deterministic adherence (zero residuals) returns ``inf``."""
    _, d, z, _ = _summary_arrays(summaries, need_w=False)
    fit = wls.fit_wls(_design(z, None), d)
    gamma_z = float(fit.coefficients[1])
    # Treat residuals at rounding-noise level as identically zero; adherence
    # fractions live in [0, 1] so an absolute threshold is safe.
    if float(np.max(np.abs(fit.residuals), initial=0.0)) <= 1e-12:
        return math.inf if abs(gamma_z) > _RELEVANCE_TOL else 0.0
    se = math.sqrt(float(fit.cov_model[1, 1]))
    return (gamma_z / se) ** 2


def _group_inputs(summaries, options, icc):
    return *_summary_arrays(summaries, options.adjust_w), resolve_weights(summaries, options, icc)


def _stage_one(d, z, w_mat, weights) -> np.ndarray:
    """First-stage coefficients: adherence fraction on assignment (and w)."""
    return wls.fit_wls(_design(z, w_mat), d, weights).coefficients


def _two_stage(y, d, z, w_mat, weights, gamma):
    """Stage two on the first-stage coefficients ``gamma``: the internals,
    and the group solve ``(estimate, cov_model, cov_robust, n_params)`` its
    grid cells share."""
    if abs(float(gamma[1])) < _RELEVANCE_TOL:
        raise WeakDenominator("first-stage assignment coefficient is numerically zero")
    d_hat = _design(z, w_mat) @ gamma

    fitted_design = _design(d_hat, w_mat)
    stage2 = wls.fit_wls(fitted_design, y, weights)
    beta = stage2.coefficients

    structural = y - _design(d, w_mat) @ beta
    n_clusters, n_params = len(y), stage2.n_params
    sigma2 = (
        float(weights @ structural**2) / (n_clusters - n_params)
        if n_clusters > n_params
        else 0.0
    )
    cov_model = sigma2 * stage2.xtwx_inv
    cov_robust = wls.sandwich(stage2.xtwx_inv, fitted_design, weights * structural)

    internals = TslsInternals(
        gamma0=float(gamma[0]),
        gamma_z=float(gamma[1]),
        gamma_w=tuple(float(g) for g in gamma[2:]),
        beta0=float(beta[0]),
        beta_iv=float(beta[1]),
        beta_w=tuple(float(b) for b in beta[2:]),
        first_stage_fitted=d_hat,
        structural_residuals=structural,
    )
    return internals, (internals.beta_iv, cov_model, cov_robust, n_params)


def _assignment(y, d, z, w_mat, weights):
    """The assignment-effect regression as a group solve."""
    fit = wls.fit_wls(_design(z, w_mat), y, weights)
    return float(fit.coefficients[1]), fit.cov_model, fit.cov_robust, fit.n_params


class CellFit(NamedTuple):
    """One grid cell: estimate, standard error, two-sided 95% critical value,
    and the parameter count behind the small-sample degrees of freedom."""

    estimate: float
    se: float
    crit: float
    n_params: int


@lru_cache(maxsize=None)
def _critical_value(df_mode: DfMode, n_clusters: int, n_params: int) -> float:
    crit, _ = wls.critical_value(df_mode, n_clusters, n_params)
    return crit


def fit_grid(
    outcomes: Mapping[Hashable, Sequence[ClusterSummary]],
    cells: Sequence[tuple[Hashable, AnalysisOptions]],
    icc: Mapping[Hashable, float] | None = None,
    estimator: str = "late",
) -> list[CellFit | CrtivError]:
    """Fit every ``(outcome, options)`` cell of an estimation grid.

    ``outcomes`` maps each outcome key to its cluster summaries, ``icc`` to
    the ICC estimate behind minimum-variance weights (used when
    ``options.icc`` is unset).  ``estimator`` is ``"late"`` (two-stage least
    squares) or ``"itt"`` (assignment-effect regression).  The regression
    runs once per (outcome, w-adjust, weights) group; each cell then picks
    its covariance and its critical value.

    The result lines up with ``cells``.  A cell whose fit raises a package
    error holds that error instead, so the caller can raise or count it
    without losing the other cells.  Other exceptions propagate.
    """
    first_stages: dict[tuple, np.ndarray] = {}

    def late(y, d, z, w_mat, weights):
        # Stage one never sees the outcome: outcome variants with the same
        # d, z, w and weights (all but estimated minimum-variance weights)
        # share one first-stage solve.
        key = tuple(None if a is None else a.tobytes() for a in (d, z, w_mat, weights))
        if key not in first_stages:
            first_stages[key] = _stage_one(d, z, w_mat, weights)
        return _two_stage(y, d, z, w_mat, weights, first_stages[key])[1]

    solve = _assignment if estimator == "itt" else late
    icc = icc or {}
    groups: dict[tuple, tuple | CrtivError] = {}
    fits: list[CellFit | CrtivError] = []
    for outcome, options in cells:
        summaries = outcomes[outcome]
        key = (outcome, options.adjust_w, options.weights, options.icc)
        if key not in groups:
            try:
                groups[key] = solve(*_group_inputs(summaries, options, icc.get(outcome)))
            except CrtivError as exc:
                groups[key] = exc
        if isinstance(groups[key], CrtivError):
            fits.append(groups[key])
            continue
        estimate, cov_model, cov_robust, n_params = groups[key]
        cov = cov_robust if options.se_mode is SeMode.HUBER_WHITE else cov_model
        se = math.sqrt(max(0.0, float(cov[1, 1])))
        try:
            crit = _critical_value(options.df_mode, len(summaries), n_params)
        except CrtivError as exc:
            fits.append(exc)
            continue
        fits.append(CellFit(estimate, se, crit, n_params))
    return fits


def _fit_cell(summaries, options, icc, estimator) -> CellFit:
    (fit,) = fit_grid({None: summaries}, [(None, options)], {None: icc}, estimator)
    if isinstance(fit, CrtivError):
        raise fit
    return fit


def late_fit(
    cell: CellFit, options: AnalysisOptions, n_clusters: int, first_stage_f: float | None = None
) -> LateFit:
    """Interval and p-value of one grid cell under ``options.df_mode``."""
    ci_low, ci_high, p_value, df = wls.inference(
        cell.estimate, cell.se, options.df_mode, n_clusters, cell.n_params
    )
    return LateFit(
        estimate=cell.estimate,
        se=cell.se,
        ci=(ci_low, ci_high),
        p=p_value,
        df=df,
        first_stage_f=first_stage_f,
        n_clusters=n_clusters,
        options_used=options,
    )


def tsls_system(
    summaries: Sequence[ClusterSummary],
    options: AnalysisOptions,
    icc: float | None = None,
) -> TslsInternals:
    """Coefficients, fitted values, and structural residuals of both stages."""
    y, d, z, w_mat, weights = _group_inputs(summaries, options, icc)
    internals, _ = _two_stage(y, d, z, w_mat, weights, _stage_one(d, z, w_mat, weights))
    return internals


def tsls(
    summaries: Sequence[ClusterSummary],
    options: AnalysisOptions,
    icc: float | None = None,
) -> LateFit:
    """Two-stage least squares on cluster summaries: the one-cell grid.

    Stage one regresses the adherence fraction on assignment, stage two the
    outcome summary on the fitted adherence, with identical weights in both
    stages and cluster covariates in both when ``options.adjust_w``.  The
    reported SE follows ``options.se_mode``; interval and p-value follow
    ``options.df_mode`` with degrees of freedom ``J - p``, ``p`` counting
    second-stage parameters only.
    """
    cell = _fit_cell(summaries, options, icc, "late")
    return late_fit(cell, options, len(summaries), first_stage_f(summaries))


def outcome_summaries(dataset: TrialDataset, x_columns: Sequence[int] | None):
    """Summaries of one outcome variant plus the record-level values behind them.

    ``x_columns`` selects individual-level covariates for the adjusted
    outcome summary; ``None`` keeps the raw means.  The values (raw outcomes
    or the adjustment residuals) are what the ICC backing minimum-variance
    weights is estimated from.
    """
    if x_columns is None:
        return collapse.cluster_means(dataset), dataset.columns().y
    if dataset.outcome_kind is OutcomeKind.BINARY:
        values = collapse.binary_residuals(dataset, x_columns)
    else:
        values = collapse.continuous_residuals(dataset, x_columns)
    return collapse.summaries_from_values(dataset, values), values


def _prepared_inputs(dataset, options, x_columns):
    """Summaries plus an ICC estimate (when needed) for one dataset fit."""
    validate(dataset)
    summaries, icc_values = outcome_summaries(dataset, x_columns)
    icc = None
    if options.weights is Weights.MIN_VARIANCE and options.icc is None:
        icc = collapse.anova_icc(icc_values, dataset.columns().codes).rho
    return summaries, icc


def late_from_dataset(
    dataset: TrialDataset,
    options: AnalysisOptions,
    x_columns: Sequence[int] | None = None,
) -> LateFit:
    """Validate, collapse, and fit the two-stage estimator in one call."""
    summaries, icc = _prepared_inputs(dataset, options, x_columns)
    return tsls(summaries, options, icc=icc)


def itt_from_dataset(
    dataset: TrialDataset,
    options: AnalysisOptions,
    x_columns: Sequence[int] | None = None,
) -> LateFit:
    """Validate, collapse, and fit the assignment-effect regression."""
    summaries, icc = _prepared_inputs(dataset, options, x_columns)
    return itt(summaries, options, icc=icc)
