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
formulas understates the variance, so the two-stage fit reads both
covariances from a :class:`~crtiv.wls.DesignFit` of the stage-two designs
and R factors with the structural residuals; neither stage's own
covariances are ever formed.  ``_late`` is the one two-stage path: it runs
both stages and forms the structural residuals of every group of a grid.

:meth:`GridPlan.fit_block` is the one loop over an estimation grid, shared
by the command line and the Monte Carlo runner, and fits a block of items
(trials) at once; :meth:`GridPlan.fit` is its one-item case.  SE and df
mode only post-process a fit, so it solves once per (item, outcome,
w-adjust, weights) group and fans each solve out to its cells.  All first
stages of a block go to the regression core as one batch and all second
stages as another, so a block takes one stacked QR per design shape and
stage (:func:`crtiv.wls.solve`), and every group's variances are read at
once per stack.  Stacked numpy and LAPACK calls give each problem the bits
of its own call, so a block fit equals its one-item fits bit for bit.  The
bookkeeping that depends only on the cells (which group each cell reads)
is done once per grid by :class:`GridPlan`, by position, so a Monte Carlo
study does it once, not once per replicate.  :func:`tsls` and :func:`itt`
are the grid's one-cell case.  From a dataset, the command line, the Monte
Carlo runner and :func:`late_from_dataset` all reach the grid through
:meth:`GridPlan.summarise`, which estimates an ICC only where a cell reads
one and reuses the unadjusted summaries a caller hands it.

The weak-instrument screen uses the unadjusted, unweighted first stage even
when the analysis itself is adjusted or weighted.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Hashable, Iterable, Mapping, NamedTuple, Sequence

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
    ClOutcome,
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


def _weights(n, scheme: Weights, rho: float | None) -> np.ndarray:
    if scheme is Weights.NONE:
        return np.ones(len(n))
    sizes = np.asarray(n, dtype=float)
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


def _design(first: np.ndarray, w_mat) -> np.ndarray:
    """``[1, first, w]``, or ``[1, first]`` without cluster covariates."""
    design = np.empty((len(first), 2 if w_mat is None else 2 + w_mat.shape[1]))
    design[:, 0] = 1.0
    design[:, 1] = first
    if w_mat is not None:
        design[:, 2:] = w_mat
    return design


class _Problem(NamedTuple):
    """What one (outcome, w-adjust, weights) group of one item regresses:
    its summaries, its weights and the first-stage design ``[1, z, w]``."""

    summaries: Summaries
    weights: np.ndarray
    design: np.ndarray


def _problem(summaries: Summaries, adjust_w: bool, scheme: Weights, rho) -> _Problem:
    if not summaries.n_clusters:
        raise EmptyArm("no cluster summaries")
    w_mat = None
    if adjust_w:
        w_mat = np.asarray(summaries.w, dtype=float)
        if w_mat.ndim != 2 or len(w_mat) != summaries.n_clusters:
            raise CovariateShapeMismatch(f"w of shape {w_mat.shape} is not one row per cluster")
        if not w_mat.shape[1]:
            raise CovariateShapeMismatch("adjusting for w needs at least one cluster covariate")
    if scheme is not Weights.MIN_VARIANCE:
        rho = None
    return _Problem(summaries, _weights(summaries.n, scheme, rho), _design(summaries.z, w_mat))


def _by_stack(groups: list, solved: list, out: list) -> dict:
    """The groups of each stack of ``solved`` in row order; a group whose
    problem failed gets its error in ``out`` instead."""
    stacks: dict[wls.DesignFit, list[int]] = {}
    for g, fit in zip(groups, solved):
        if isinstance(fit, CrtivError):
            out[g] = fit
        else:
            stacks.setdefault(fit.stack, []).append(g)
    return stacks


def _read(stack: wls.DesignFit, groups: list, out: list) -> None:
    """Give each group of ``stack`` (one per row) the ``(estimate,
    model-based variance, robust variance, n_params)`` of its second
    coefficient: what a group hands its cells."""
    cov_model, cov_robust = stack.covariances()
    n_params = stack.design.shape[2]
    for row, g in enumerate(groups):
        estimate = float(stack.coefficients[row, 1])
        out[g] = (estimate, cov_model[row, 1, 1], cov_robust[row, 1, 1], n_params)


def _assignment(problems: list) -> list:
    """The assignment-effect regression of each group: its estimate and
    variances (see :func:`_read`) or the group's error."""
    out = list(problems)
    ok = [g for g, pr in enumerate(problems) if not isinstance(pr, CrtivError)]
    solved = wls.solve(
        [problems[g].design for g in ok],
        [problems[g].summaries.y_bar for g in ok],
        [problems[g].weights for g in ok],
    )
    for stack, groups in _by_stack(ok, solved, out).items():
        _read(stack, groups, out)
    return out


def _late(problems: list) -> list:
    """The two-stage estimate of each group: its estimate and variances
    (see :func:`_read`) or the group's error.

    Every group's first stage goes to the regression core as one batch and,
    after each group's relevance check, every second stage as another.  The
    fitted adherence is one stacked product per first-stage stack, and the
    structural residuals, formed with the actual adherence fractions, one
    per second-stage stack, which then gives every group's variances.
    """
    out = list(problems)
    ok = [g for g, pr in enumerate(problems) if not isinstance(pr, CrtivError)]
    first = wls.solve(
        [problems[g].design for g in ok],
        [problems[g].summaries.d_bar for g in ok],
        [problems[g].weights for g in ok],
    )

    # [1, d_hat, w] of every row of a first-stage stack.
    fitted_designs: dict[wls.DesignFit, np.ndarray] = {}
    second, designs = [], []
    for g, fit in zip(ok, first):
        if isinstance(fit, CrtivError):
            out[g] = fit
            continue
        if abs(float(fit.coefficients[1])) < _RELEVANCE_TOL:
            out[g] = WeakDenominator("first-stage assignment coefficient is numerically zero")
            continue
        stack = fit.stack
        if stack not in fitted_designs:
            fitted = stack.design.copy()
            fitted[:, :, 1] = (stack.design @ stack.coefficients[:, :, None])[:, :, 0]
            fitted_designs[stack] = fitted
        second.append(g)
        designs.append(fitted_designs[stack][fit.row])
    solved = wls.solve(
        designs,
        [problems[g].summaries.y_bar for g in second],
        [problems[g].weights for g in second],
    )
    for stack, groups in _by_stack(second, solved, out).items():
        # [1, d, w]: the stage-two design with the actual adherence fractions.
        received = stack.design.copy()
        received[:, :, 1] = [problems[g].summaries.d_bar for g in groups]
        y_bar = np.array([problems[g].summaries.y_bar for g in groups])
        residuals = y_bar - (received @ stack.coefficients[:, :, None])[:, :, 0]
        structural = wls.DesignFit(
            stack.coefficients, residuals, stack.weights_used, stack.design, stack.r
        )
        _read(structural, groups, out)
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


class GridPlan:
    """The bookkeeping of an estimation grid that depends only on its cells.

    ``cells`` is a sequence of ``(outcome, options)`` pairs, such as
    :class:`~crtiv.model.VariantKey`; the plan keeps the distinct ones, in
    order, as ``cells``.  It numbers the distinct (outcome, w-adjust,
    weights, fixed ICC) groups and notes for each cell its group, SE mode
    and df mode, so fitting the same grid again does no per-cell lookups by
    key.

    ``needs_icc`` maps each outcome to whether the fit reads an estimated
    ICC for it: true when one of its cells has minimum-variance weights and
    no fixed ICC.
    """

    def __init__(self, cells: Iterable[tuple[Hashable, AnalysisOptions]]):
        self.cells = tuple(dict.fromkeys(cells))
        group_of: dict = {}
        self._slots: list[tuple[int, bool, DfMode]] = []
        self.needs_icc: dict[Hashable, bool] = {}
        for outcome, options in self.cells:
            group = (outcome, options.adjust_w, options.weights, options.icc)
            g = group_of.setdefault(group, len(group_of))
            self._slots.append((g, options.se_mode is SeMode.HUBER_WHITE, options.df_mode))
            estimated = options.weights is Weights.MIN_VARIANCE and options.icc is None
            self.needs_icc[outcome] = self.needs_icc.get(outcome, False) or estimated
        self.groups = tuple(group_of)

    def summarise(
        self,
        dataset: TrialDataset,
        x_columns: Sequence[int] | None = None,
        unadjusted: Summaries | None = None,
    ) -> tuple[dict[ClOutcome, Summaries], dict[ClOutcome, float | None]]:
        """The summaries of each outcome of the grid, and the ICC estimate
        behind its minimum-variance weights: the two mappings :meth:`fit`
        takes.

        The outcomes are :class:`~crtiv.model.ClOutcome` members;
        ``x_columns`` selects the individual-level covariates of the
        adjusted one.  ``unadjusted`` are the dataset's unadjusted summaries
        if the caller has them, and are otherwise collapsed here if read; the
        adjusted summaries share their columns.  An ICC is estimated only
        for an outcome whose cells read one (``needs_icc``), from the values
        its summaries average: the raw outcomes or the adjustment residuals.
        """
        summaries, icc = {}, {}
        cols = dataset.columns()
        for outcome in ClOutcome:
            if outcome not in self.needs_icc:
                continue
            if outcome is ClOutcome.UNADJUSTED:
                if unadjusted is None:
                    unadjusted = collapse.cluster_means(dataset)
                summaries[outcome], values = unadjusted, cols.y
            else:
                if dataset.outcome_kind is OutcomeKind.BINARY:
                    values = collapse.binary_residuals(dataset, x_columns)
                else:
                    values = collapse.continuous_residuals(dataset, x_columns)
                summaries[outcome] = collapse.summaries_from_values(dataset, values, unadjusted)
            icc[outcome] = None
            if self.needs_icc[outcome]:
                icc[outcome] = collapse.anova_icc(values, cols.codes).rho
        return summaries, icc

    def fit(
        self,
        summaries: Mapping[Hashable, Summaries],
        icc: Mapping[Hashable, float | None],
        estimator: str = "late",
    ) -> list[CellFit | CrtivError]:
        """Fit every cell of the grid: the one-item case of :meth:`fit_block`.

        ``summaries`` maps each outcome to its cluster summaries, ``icc`` to
        the ICC estimate behind minimum-variance weights (used when
        ``options.icc`` is unset).  ``estimator`` is ``"late"`` (two-stage
        least squares) or ``"itt"`` (assignment-effect regression).  The
        regression runs once per (outcome, w-adjust, weights) group; each
        cell then picks its covariance and its critical value.

        The result lines up with the cells.  A cell whose fit raises a
        package error holds that error instead, so the caller can raise or
        count it without losing the other cells; a cell whose estimate or
        chosen variance is not finite holds
        :class:`~crtiv.errors.NonFiniteValue`.  A held error carries no
        traceback, so a study that keeps it does not keep this call's frame
        and arrays alive.  Other exceptions propagate.
        """
        (fits,) = self.fit_block([(summaries, icc)], estimator)
        return fits

    def fit_block(
        self,
        items: Sequence[tuple[Mapping[Hashable, Summaries], Mapping[Hashable, float | None]]],
        estimator: str = "late",
    ) -> list[list[CellFit | CrtivError]]:
        """Fit every cell of the grid on each item of a block in one pass.

        Each item is a ``(summaries, icc)`` pair as :meth:`fit` takes, and
        the result holds :meth:`fit`'s list for each item, bit for bit: the
        groups of all items go to the regression core together, so each
        stage takes one stacked QR per design shape for the whole block, and
        a failure stays in its own item and cell.
        """
        if estimator not in ("late", "itt"):
            raise ValueError(f"estimator must be 'late' or 'itt', got {estimator!r}")
        problems: list = []
        for summaries, icc in items:
            for outcome, adjust_w, scheme, fixed_icc in self.groups:
                rho = fixed_icc if fixed_icc is not None else icc.get(outcome)
                try:
                    problems.append(_problem(summaries[outcome], adjust_w, scheme, rho))
                except CrtivError as exc:
                    problems.append(exc.with_traceback(None))
        estimates = (_assignment if estimator == "itt" else _late)(problems)
        size = len(self.groups)
        return [
            self._cells(estimates[i * size : (i + 1) * size], summaries)
            for i, (summaries, _) in enumerate(items)
        ]

    def _cells(self, groups: list, summaries: Mapping) -> list[CellFit | CrtivError]:
        """The cells of one item from the estimates of its groups."""
        n_clusters = [summaries[outcome].n_clusters for outcome, *_ in self.groups]
        fits: list[CellFit | CrtivError] = []
        for g, robust, df_mode in self._slots:
            fit = groups[g]
            if isinstance(fit, CrtivError):
                fits.append(fit)
                continue
            estimate, var_model, var_robust, n_params = fit
            try:
                crit = _critical_value(df_mode, n_clusters[g], n_params)
            except CrtivError as exc:
                fits.append(exc.with_traceback(None))
                continue
            variance = float(var_robust if robust else var_model)
            if not (math.isfinite(estimate) and math.isfinite(variance)):
                fits.append(NonFiniteValue("estimate or its variance is not finite"))
                continue
            fits.append(CellFit(estimate, math.sqrt(max(0.0, variance)), crit, n_params))
        return fits


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
    # As arrays, so that a Summaries built from lists answers, as in tsls.
    y = np.asarray(summaries.y_bar, dtype=float)
    d = np.asarray(summaries.d_bar, dtype=float)
    treated = np.asarray(summaries.z, dtype=float) == 1.0
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
    (fit,) = wls.solve(
        [_design(summaries.z, None)], [summaries.d_bar], [np.ones(summaries.n_clusters)]
    )
    if isinstance(fit, CrtivError):
        raise fit
    gamma_z = float(fit.coefficients[1])
    # Treat residuals at rounding-noise level as identically zero; adherence
    # fractions live in [0, 1] so an absolute threshold is safe.
    if float(np.max(np.abs(fit.residuals), initial=0.0)) <= 1e-12:
        return math.inf if abs(gamma_z) > _RELEVANCE_TOL else 0.0
    se = math.sqrt(float(fit.cov_model[1, 1]))
    return (gamma_z / se) ** 2


def _fit_cell(summaries, options, icc, estimator) -> CellFit:
    (fit,) = GridPlan([(None, options)]).fit({None: summaries}, {None: icc}, estimator)
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


def late_from_dataset(
    dataset: TrialDataset,
    options: AnalysisOptions,
    x_columns: Sequence[int] | None = None,
) -> LateFit:
    """Validate, collapse, and fit the two-stage estimator in one call,
    on the outcome adjusted for ``x_columns`` unless they are ``None``."""
    validate(dataset)
    outcome = ClOutcome.UNADJUSTED if x_columns is None else ClOutcome.ADJUSTED_FOR_X
    summaries, icc = GridPlan([(outcome, options)]).summarise(dataset, x_columns)
    return tsls(summaries[outcome], options, icc=icc[outcome])
