"""Cluster-level estimators: assignment effect, Wald ratio, two-stage fit.

All three consume the per-cluster summaries, the columns of
:class:`~crtiv.model.Summaries` produced by :mod:`crtiv.collapse`.  The
two-stage fit regresses the adherence fraction on assignment (plus any
cluster covariates), then the outcome summary on the fitted adherence; with a
single binary instrument and no weights this reproduces the Wald ratio of arm
means exactly.

Standard errors for the second stage are built from structural residuals,
i.e. residuals formed with the *actual* adherence fractions rather than the
first-stage fitted values.  Plugging stage-two OLS residuals into the usual
formulas understates the variance, so the two-stage fit reads only the
stage-two ``(X'WX)^-1`` and builds both covariances itself; neither stage's
own covariances are ever formed.

:func:`fit_grid` is the one loop over an estimation grid, shared by the
command line and the Monte Carlo runner.  SE and df mode only post-process a
fit, so it solves once per (outcome, w-adjust, weights) group and fans each
solve out to its cells; groups whose first stages have identical inputs
share one first-stage solve.  All first stages go to the regression core as
one batch and all second stages as another, so a full grid takes one stacked
QR per design shape and stage (:func:`crtiv.wls.solve`).  The bookkeeping
that depends only on the cells (which group and critical value each cell
reads) is done once per grid by :class:`GridPlan`, by position, so a Monte
Carlo study does it once, not once per replicate.  :func:`tsls` and
:func:`itt` are the grid's one-cell case.  From a dataset, the command line,
the Monte Carlo runner and :func:`late_from_dataset` all reach the grid
through :func:`outcome_summaries`, which estimates an ICC only where
``GridPlan.needs_icc`` says a cell reads one.

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
    NonFiniteValue,
    WeakDenominator,
    ZeroDenominator,
)
from .model import (
    AnalysisOptions,
    DfMode,
    LateFit,
    OutcomeKind,
    SeMode,
    Summaries,
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


def _weights(n, scheme: Weights, rho: float | None) -> np.ndarray:
    sizes = np.asarray(n, dtype=float)
    if scheme is Weights.NONE:
        return np.ones(len(sizes))
    if scheme is Weights.CLUSTER_SIZE:
        return sizes
    if rho is None:
        raise MissingIcc(
            "minimum-variance weights need an ICC: fix one in AnalysisOptions.icc "
            "or pass an estimate"
        )
    if not math.isfinite(rho):  # an estimate from overflowed outcomes
        raise NonFiniteValue(f"ICC estimate is not finite: {rho}")
    return wls.mv_weights(sizes, rho)


def _design(z_or_d: np.ndarray, w_mat) -> np.ndarray:
    pieces = [np.ones(len(z_or_d)), z_or_d]
    if w_mat is not None:
        pieces.append(w_mat)
    return np.column_stack(pieces)


class _Inputs(NamedTuple):
    """What one (outcome, w-adjust, weights) group regresses."""

    summaries: Summaries
    weights: np.ndarray
    # [1, z, w] and [1, d, w]: the first-stage design, and the design of the
    # structural residuals.
    assignment_design: np.ndarray
    received_design: np.ndarray
    # Equal keys mean equal first-stage inputs (d, z, w and weights).
    stage_one_key: tuple


def _inputs(summaries: Summaries, adjust_w: bool, scheme: Weights, rho, shared: dict) -> _Inputs:
    """The inputs of one group.

    ``shared`` holds the weights and designs built so far in one fit, keyed
    by the identity of what they are built from: outcome variants of one
    dataset share their ``n``, ``z``, ``d_bar`` and ``w`` arrays, so each
    is built once, and equal first-stage inputs have equal identities.
    """
    if not summaries.n_clusters:
        raise EmptyArm("no cluster summaries")
    w_mat = None
    if adjust_w:
        if summaries.w is None or not summaries.w.shape[1]:
            raise CovariateShapeMismatch(
                "cluster covariates must be present, with equal length, for every cluster"
            )
        w_mat = summaries.w
    if scheme is not Weights.MIN_VARIANCE:
        rho = None
    weights = _once(shared, (id(scheme), id(summaries.n), rho), _weights, summaries.n, scheme, rho)
    x_z = _once(shared, (id(summaries.z), id(w_mat)), _design, summaries.z, w_mat)
    x_d = _once(shared, (id(summaries.d_bar), id(w_mat)), _design, summaries.d_bar, w_mat)
    return _Inputs(summaries, weights, x_z, x_d, (id(x_z), id(summaries.d_bar), id(weights)))


def _once(shared: dict, key, build, *args):
    if key not in shared:
        shared[key] = build(*args)
    return shared[key]


def _assignment(inputs: list) -> list:
    """The assignment-effect regression of each group: ``(estimate,
    model-based variance, robust variance, n_params)`` or the group's error."""
    out = list(inputs)
    ok = [g for g, inp in enumerate(inputs) if not isinstance(inp, CrtivError)]
    designs = [inputs[g].assignment_design for g in ok]
    solved = wls.solve(
        designs, [inputs[g].summaries.y_bar for g in ok], [inputs[g].weights for g in ok]
    )
    for g, design, res in zip(ok, designs, solved):
        if isinstance(res, CrtivError):
            out[g] = res
            continue
        coefficients, r = res
        y, weights = inputs[g].summaries.y_bar, inputs[g].weights
        n, p = design.shape
        fit = wls.DesignFit(coefficients, y - design @ coefficients, n, p, weights, design, r)
        out[g] = (float(coefficients[1]), fit.cov_model[1, 1], fit.cov_robust[1, 1], p)
    return out


class _TwoStage(NamedTuple):
    gamma: np.ndarray
    d_hat: np.ndarray
    fitted_design: np.ndarray
    beta: np.ndarray
    r: np.ndarray


def _two_stages(inputs: list) -> list:
    """Both stages of each group: a :class:`_TwoStage` or the group's error.

    Groups with equal first-stage inputs share one first-stage solve; the
    first stages go to the regression core as one batch, the second stages
    as another.
    """
    out = list(inputs)
    ok = [g for g, inp in enumerate(inputs) if not isinstance(inp, CrtivError)]
    problem_of: dict[tuple, int] = {}
    designs, responses, weights = [], [], []
    for g in ok:
        inp = inputs[g]
        if inp.stage_one_key not in problem_of:
            problem_of[inp.stage_one_key] = len(designs)
            designs.append(inp.assignment_design)
            responses.append(inp.summaries.d_bar)
            weights.append(inp.weights)
    first = wls.solve(designs, responses, weights)

    second = []
    for g in ok:
        inp = inputs[g]
        k = problem_of[inp.stage_one_key]
        if isinstance(first[k], CrtivError):
            out[g] = first[k]
            continue
        gamma = first[k][0]
        if abs(float(gamma[1])) < _RELEVANCE_TOL:
            out[g] = WeakDenominator("first-stage assignment coefficient is numerically zero")
            continue
        d_hat = designs[k] @ gamma
        fitted_design = designs[k].copy()
        fitted_design[:, 1] = d_hat
        second.append((g, gamma, d_hat, fitted_design))
    solved = wls.solve(
        [x for _, _, _, x in second],
        [inputs[g].summaries.y_bar for g, _, _, _ in second],
        [inputs[g].weights for g, _, _, _ in second],
    )
    for (g, gamma, d_hat, fitted_design), res in zip(second, solved):
        out[g] = res if isinstance(res, CrtivError) else _TwoStage(gamma, d_hat, fitted_design, *res)
    return out


def _structural_residuals(inp: _Inputs, beta) -> np.ndarray:
    return inp.summaries.y_bar - inp.received_design @ beta


def _late(inputs: list) -> list:
    """The two-stage estimate of each group: ``(estimate, model-based
    variance, robust variance, n_params)`` or the group's error."""
    out = _two_stages(inputs)
    for g, fit in enumerate(out):
        if isinstance(fit, CrtivError):
            continue
        inp = inputs[g]
        structural = _structural_residuals(inp, fit.beta)
        n_clusters, n_params = fit.fitted_design.shape
        sigma2 = (
            float(inp.weights @ structural**2) / (n_clusters - n_params)
            if n_clusters > n_params
            else 0.0
        )
        xtwx_inv = wls.xtwx_inv(fit.r)
        cov_model = sigma2 * xtwx_inv
        cov_robust = wls.sandwich(xtwx_inv, fit.fitted_design, inp.weights * structural)
        out[g] = (float(fit.beta[1]), cov_model[1, 1], cov_robust[1, 1], n_params)
    return out


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


def _cell_critical_value(df_mode: DfMode, dims) -> float | CrtivError | None:
    if dims is None:
        return None
    try:
        return _critical_value(df_mode, *dims)
    except CrtivError as exc:
        return exc


class GridPlan:
    """The bookkeeping of an estimation grid that depends only on its cells.

    ``cells`` is a sequence of ``(outcome, options)``.  The plan numbers the
    distinct outcomes and the distinct (outcome, w-adjust, weights, fixed
    ICC) groups, notes for each cell its group, SE mode and df mode, and
    keeps the critical values of the cells per cluster count and parameter
    count, so fitting the same grid again does no per-cell lookups by key.

    ``needs_icc`` maps each outcome to whether the fit reads an estimated
    ICC for it: true when one of its cells has minimum-variance weights and
    no fixed ICC.
    """

    def __init__(self, cells: Sequence[tuple[Hashable, AnalysisOptions]]):
        outcome_of: dict = {}
        group_of: dict = {}
        self.cells: list[tuple[int, bool, DfMode]] = []
        for outcome, options in cells:
            o = outcome_of.setdefault(outcome, len(outcome_of))
            g = group_of.setdefault(
                (o, options.adjust_w, options.weights, options.icc), len(group_of)
            )
            self.cells.append((g, options.se_mode is SeMode.HUBER_WHITE, options.df_mode))
        self.outcomes = tuple(outcome_of)
        self.groups = tuple(group_of)
        self.needs_icc = dict.fromkeys(self.outcomes, False)
        for o, _, scheme, fixed_icc in self.groups:
            if scheme is Weights.MIN_VARIANCE and fixed_icc is None:
                self.needs_icc[self.outcomes[o]] = True
        self._critical_values: dict[tuple, tuple] = {}

    def fit(
        self,
        summaries: Mapping[Hashable, Summaries],
        icc: Mapping[Hashable, float | None],
        estimator: str = "late",
    ) -> list[CellFit | CrtivError]:
        """Fit the grid on the summaries and ICC estimates of its outcomes,
        both keyed by outcome.  See :func:`fit_grid`."""
        summaries = [summaries[k] for k in self.outcomes]
        icc = [icc.get(k) for k in self.outcomes]
        inputs, shared = [], {}
        for o, adjust_w, scheme, fixed_icc in self.groups:
            rho = fixed_icc if fixed_icc is not None else icc[o]
            try:
                inputs.append(_inputs(summaries[o], adjust_w, scheme, rho, shared))
            except CrtivError as exc:
                inputs.append(exc)
        groups = (_assignment if estimator == "itt" else _late)(inputs)

        dims = tuple(
            None if isinstance(fit, CrtivError) else (summaries[group[0]].n_clusters, fit[3])
            for group, fit in zip(self.groups, groups)
        )
        crits = self._critical_values.get(dims)
        if crits is None:
            crits = tuple(_cell_critical_value(df, dims[g]) for g, _, df in self.cells)
            self._critical_values[dims] = crits

        fits: list[CellFit | CrtivError] = []
        for (g, robust, _), crit in zip(self.cells, crits):
            fit = groups[g]
            if isinstance(fit, CrtivError):
                fits.append(fit)
                continue
            if isinstance(crit, CrtivError):
                fits.append(crit)
                continue
            estimate, var_model, var_robust, n_params = fit
            variance = float(var_robust if robust else var_model)
            if not (math.isfinite(estimate) and math.isfinite(variance)):
                fits.append(NonFiniteValue("estimate or its variance is not finite"))
                continue
            fits.append(CellFit(estimate, math.sqrt(max(0.0, variance)), crit, n_params))
        return fits


def fit_grid(
    outcomes: Mapping[Hashable, Summaries],
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
    without losing the other cells; a cell whose estimate or chosen variance
    is not finite holds :class:`~crtiv.errors.NonFiniteValue`.  Other
    exceptions propagate.
    """
    return GridPlan(cells).fit(outcomes, icc or {}, estimator)


def itt(
    summaries: Summaries,
    options: AnalysisOptions,
    icc: float | None = None,
) -> LateFit:
    """Assignment-effect regression of the outcome summary on assignment."""
    cell = _fit_cell(summaries, options, icc, "itt")
    return late_fit(cell, options, summaries.n_clusters)


def wald_late(summaries: Summaries) -> float:
    """Ratio of unweighted arm-mean differences of outcome and adherence."""
    if not summaries.n_clusters:
        raise EmptyArm("no cluster summaries")
    y, d, treated = summaries.y_bar, summaries.d_bar, summaries.z == 1.0
    if not treated.any() or treated.all():
        raise EmptyArm("both arms required for the ratio estimator")
    numerator = float(y[treated].mean() - y[~treated].mean())
    denominator = float(d[treated].mean() - d[~treated].mean())
    if abs(denominator) < _RELEVANCE_TOL:
        raise ZeroDenominator("arm means of treatment received coincide")
    return numerator / denominator


def first_stage_f(summaries: Summaries) -> float:
    """Screening F: squared t-ratio of assignment in the unadjusted,
    unweighted first stage, with model-based SE and (1, J-2) degrees of
    freedom.  Deterministic adherence (zero residuals) returns ``inf``."""
    if not summaries.n_clusters:
        raise EmptyArm("no cluster summaries")
    design = _design(summaries.z, None)
    fit = wls.design_fit(design, summaries.d_bar, np.ones(summaries.n_clusters))
    gamma_z = float(fit.coefficients[1])
    # Treat residuals at rounding-noise level as identically zero; adherence
    # fractions live in [0, 1] so an absolute threshold is safe.
    if float(np.max(np.abs(fit.residuals), initial=0.0)) <= 1e-12:
        return math.inf if abs(gamma_z) > _RELEVANCE_TOL else 0.0
    se = math.sqrt(float(fit.cov_model[1, 1]))
    return (gamma_z / se) ** 2


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
    summaries: Summaries,
    options: AnalysisOptions,
    icc: float | None = None,
) -> TslsInternals:
    """Coefficients, fitted values, and structural residuals of both stages."""
    rho = options.icc if options.icc is not None else icc
    inputs = _inputs(summaries, options.adjust_w, options.weights, rho, {})
    (fit,) = _two_stages([inputs])
    if isinstance(fit, CrtivError):
        raise fit
    gamma, beta = fit.gamma, fit.beta
    return TslsInternals(
        gamma0=float(gamma[0]),
        gamma_z=float(gamma[1]),
        gamma_w=tuple(float(g) for g in gamma[2:]),
        beta0=float(beta[0]),
        beta_iv=float(beta[1]),
        beta_w=tuple(float(b) for b in beta[2:]),
        first_stage_fitted=fit.d_hat,
        structural_residuals=_structural_residuals(inputs, beta),
    )


def tsls(
    summaries: Summaries,
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
    return late_fit(cell, options, summaries.n_clusters, first_stage_f(summaries))


def outcome_summaries(
    dataset: TrialDataset, x_columns: Sequence[int] | None, needs_icc: bool
) -> tuple[Summaries, float | None]:
    """Columnar summaries of one outcome variant, plus the ICC estimate behind
    minimum-variance weights when ``needs_icc`` (see :class:`GridPlan`).

    ``x_columns`` selects individual-level covariates for the adjusted
    outcome summary; ``None`` keeps the raw means.  The ICC is estimated from
    the values the summaries average: the raw outcomes or the adjustment
    residuals.
    """
    if x_columns is None:
        summaries, values = collapse.cluster_means(dataset), dataset.columns().y
    else:
        if dataset.outcome_kind is OutcomeKind.BINARY:
            values = collapse.binary_residuals(dataset, x_columns)
        else:
            values = collapse.continuous_residuals(dataset, x_columns)
        summaries = collapse.summaries_from_values(dataset, values)
    icc = collapse.anova_icc(values, dataset.columns().codes).rho if needs_icc else None
    return summaries, icc


def late_from_dataset(
    dataset: TrialDataset,
    options: AnalysisOptions,
    x_columns: Sequence[int] | None = None,
) -> LateFit:
    """Validate, collapse, and fit the two-stage estimator in one call."""
    validate(dataset)
    needs_icc = GridPlan([(None, options)]).needs_icc[None]
    summaries, icc = outcome_summaries(dataset, x_columns, needs_icc)
    return tsls(summaries, options, icc=icc)
