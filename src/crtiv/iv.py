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
(trials) at once; :meth:`GridPlan.fit` is its one-item case.  SE and df mode
only post-process a fit, so it solves once per (item, outcome, w-adjust,
weights) group, a problem, and fans each solve out to its cells.  A block's
problems are built as arrays: each failure of an item short of a fit (its
summaries, ICC or cluster covariates) is decided once per (item, outcome)
before any stack is built, and the items of one outcome and cluster count
share one ``[1, z]`` and one ``[1, z, w]`` design.  Each group of the
outcome is a stack of rows of one of these with its own weights, and the
stacks of one design shape are concatenated into one
(:meth:`GridPlan._stacks`).  Each stack of a stage is one
:func:`crtiv.wls.solve`, so a block takes one stacked QR per design shape
and stage.  So the fitted designs, the structural residuals and every
problem's variances are read at once per stack, into (items x groups)
arrays.  The cells are one gather of those arrays through the plan's
per-cell group and SE mode, and come back as a :class:`GridFit` of (items x
cells) arrays, each failed cell holding the index of its package error.
Critical values are formed where intervals are, by :func:`late_fit` and the
Monte Carlo runner.  The core's stacked QR, matmuls and back-substitution
give each problem the bits of its own one-problem stack, so a block fit
equals its one-item fits bit for bit.
:func:`tsls` and :func:`itt` are the grid's one-cell case.  From a dataset,
the command line, the Monte Carlo runner and :func:`late_from_dataset` all
reach the grid through :meth:`GridPlan.summarise`, which estimates an ICC
only where a cell reads one and none is fixed, and reuses a caller's summaries.

The weak-instrument screen uses the unadjusted, unweighted first stage even
when the analysis itself is adjusted or weighted.  :func:`first_stage_fs`
screens a block of trials as a one-cell grid with that first stage: the
same stacks, one solve per cluster count, and the same error bookkeeping,
with each stack's Fs formed at once.  :func:`first_stage_f` is its
one-trial case.
"""

from __future__ import annotations

import math
from typing import Hashable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from . import collapse, wls
from .errors import (
    CovariateShapeMismatch,
    CrtivError,
    EmptyArm,
    MissingIcc,
    NoCovariatesSelected,
    NonFiniteValue,
    WeakDenominator,
    ZeroDenominator,
)
from .model import (
    AnalysisOptions,
    ClOutcome,
    LateFit,
    OutcomeKind,
    SeMode,
    Summaries,
    TrialDataset,
    Weights,
    validate,
)

_RELEVANCE_TOL = 1e-12


def _design(first: np.ndarray, w: np.ndarray | None = None) -> np.ndarray:
    """``[1, first, w]`` of each row of ``first`` (rows x J), with ``w``
    rows x J x q, or ``[1, first]`` without it."""
    design = np.empty((*first.shape, 2 if w is None else 2 + w.shape[-1]))
    design[..., 0] = 1.0
    design[..., 1] = first
    if w is not None:
        design[..., 2:] = w
    return design


def _checked(summaries: Summaries) -> int:
    """The number of clusters of ``summaries``, once there is one and each
    column an estimator reads has one entry per cluster."""
    if not (n_clusters := summaries.n_clusters):
        raise EmptyArm("no cluster summaries")
    for name in ("n", "z", "d_bar", "y_bar"):
        if (shape := np.shape(getattr(summaries, name))) != (n_clusters,):
            raise ValueError(f"summaries column {name} has shape {shape}, not one per cluster")
    return n_clusters


def _cluster_covariates(summaries: Summaries, n_clusters: int) -> np.ndarray:
    """``summaries.w`` as the J x q matrix (q > 0) the w-adjusted cells read."""
    w_mat = np.asarray(summaries.w, dtype=float)
    if w_mat.ndim != 2 or len(w_mat) != n_clusters:
        raise CovariateShapeMismatch(f"w of shape {w_mat.shape} is not one row per cluster")
    if not w_mat.shape[1]:
        raise CovariateShapeMismatch("adjusting for w needs at least one cluster covariate")
    return w_mat


def _usable_icc(rho: float | None) -> float:
    """``rho``, once minimum-variance weights can read it: the one ICC check."""
    if rho is None:
        raise MissingIcc("minimum-variance weights need an ICC: pass an estimate or a fixed value")
    if not math.isfinite(rho):  # an estimate from overflowed outcomes
        raise NonFiniteValue(f"ICC is not finite: {rho}")
    if not 0.0 <= rho <= 1.0:
        raise MissingIcc(f"ICC must be in [0, 1], got {rho}")
    return rho


class _Stack(NamedTuple):
    """Problems of one design shape: ``problems`` numbers each row ``item *
    groups + group``, ``design`` is rows x J x p, and ``d_bar``, ``y_bar``
    and ``weights`` are rows x J."""

    problems: np.ndarray
    design: np.ndarray
    d_bar: np.ndarray
    y_bar: np.ndarray
    weights: np.ndarray


class _Results:
    """What each (item, group) problem of a block hands its cells, as
    (items x groups) arrays addressed by problem number: the estimate, both
    variances of the second coefficient, the parameter count of the fitted
    design, and ``code``, nonzero for a failed problem, indexing its error
    in ``errors``."""

    def __init__(self, n_items: int, n_groups: int):
        shape = (n_items, n_groups)
        self.estimate = np.full(shape, np.nan)
        self.var_model = np.full(shape, np.nan)
        self.var_robust = np.full(shape, np.nan)
        self.n_params = np.zeros(shape, dtype=np.intp)
        self.code = np.zeros(shape, dtype=np.intp)
        self.errors: list[CrtivError | None] = [None]

    def fail(self, problems, error: CrtivError) -> None:
        self.code.flat[problems] = len(self.errors)
        self.errors.append(error)

    def read(self, problems: np.ndarray, fit: wls.DesignFit) -> None:
        cov_model, cov_robust = fit.covariances()
        self.estimate.flat[problems] = fit.coefficients[:, 1]
        self.var_model.flat[problems] = cov_model[:, 1, 1]
        self.var_robust.flat[problems] = cov_robust[:, 1, 1]
        self.n_params.flat[problems] = fit.design.shape[2]


def _solve(stacks: list[_Stack], responses: list, results: _Results):
    """Solve each of ``stacks`` against its response in ``responses``: each
    failed problem's error goes to ``results``, and each stack with a fitted
    problem comes back as ``(stack, rows, fit)``."""
    for stack, response in zip(stacks, responses):
        rows, fit, errors = wls.solve(stack.design, response, stack.weights)
        for row, error in errors.items():
            results.fail(stack.problems[row], error)
        if fit is not None:
            yield stack, rows, fit


def _assignment(stacks: list[_Stack], results: _Results) -> None:
    """The assignment-effect regression of every problem, into ``results``."""
    for stack, rows, fit in _solve(stacks, [s.y_bar for s in stacks], results):
        results.read(stack.problems[rows], fit)


def _late(stacks: list[_Stack], results: _Results) -> None:
    """The two-stage estimate of every problem, into ``results``.

    Every first-stage stack goes to the regression core and, after each
    problem's relevance check, every second-stage stack.  The fitted
    adherence is one stacked product per first-stage stack, and the
    structural residuals, formed with the actual adherence fractions, one
    per second-stage stack, which then gives every problem's variances.
    """
    second = []
    for stack, rows, fit in _solve(stacks, [s.d_bar for s in stacks], results):
        weak = np.abs(fit.coefficients[:, 1]) < _RELEVANCE_TOL
        if weak.any():
            message = "first-stage assignment coefficient is numerically zero"
            results.fail(stack.problems[rows[weak]], WeakDenominator(message))
        design, coefficients, kept = fit.design[~weak], fit.coefficients[~weak], rows[~weak]
        # [1, d_hat, w] of every relevant row.
        fitted = design.copy()
        fitted[:, :, 1] = (design @ coefficients[:, :, None])[:, :, 0]
        weights = fit.weights_used[~weak]
        second.append(
            _Stack(stack.problems[kept], fitted, stack.d_bar[kept], stack.y_bar[kept], weights)
        )
    for stack, rows, fit in _solve(second, [s.y_bar for s in second], results):
        # [1, d, w]: the stage-two design with the actual adherence fractions.
        received = fit.design.copy()
        received[:, :, 1] = stack.d_bar[rows]
        residuals = stack.y_bar[rows] - (received @ fit.coefficients[:, :, None])[:, :, 0]
        structural = wls.DesignFit(fit.coefficients, residuals, fit.weights_used, fit.design, fit.r)
        results.read(stack.problems[rows], structural)


class CellFit(NamedTuple):
    """One grid cell: estimate, standard error, and the parameter count
    behind the small-sample degrees of freedom."""

    estimate: float
    se: float
    n_params: int


class GridFit:
    """The cells of a grid on each item of a block, as (items x cells)
    arrays: ``estimate`` and ``se`` (``nan`` in a failed cell), ``n_params``
    (0 in a failed cell), and ``error``, 0 in a fitted cell and otherwise
    the position of the cell's package error in ``errors``.

    Indexing by item gives that item's cells as :meth:`GridPlan.fit`
    returns them, a :class:`CellFit` per fitted cell and the error of each
    failed one, and iterating gives every item's.
    """

    def __init__(self, estimate, se, n_params, error, errors: tuple):
        self.estimate, self.se, self.n_params = estimate, se, n_params
        self.error, self.errors = error, errors

    def __len__(self) -> int:
        return len(self.error)

    def __getitem__(self, item: int) -> list[CellFit | CrtivError]:
        columns = (self.estimate, self.se, self.n_params)
        cells = zip(self.error[item].tolist(), *(c[item].tolist() for c in columns))
        return [self.errors[code] if code else CellFit(*fit) for code, *fit in cells]


class GridPlan:
    """The bookkeeping of an estimation grid that depends only on its cells.

    ``cells`` is a sequence of ``(outcome, options)`` pairs, such as
    :class:`~crtiv.model.VariantKey`; the plan keeps the distinct ones, in
    order, as ``cells``.  It numbers the distinct (outcome, w-adjust,
    weights) groups and notes for each cell its group and SE mode as
    arrays, so fitting the same grid again gathers the cells of every item
    at once and does no per-cell lookups by key.

    ``needs_icc`` maps each outcome to whether the fit reads an ICC for it:
    true when one of its cells has minimum-variance weights.

    Each failure of an item short of a fit is decided once per (item,
    outcome), before any stack is built: a failed check of its summaries,
    ICC or cluster covariates fails just the groups that read them, so each
    group's stack holds every row of its design.
    """

    def __init__(self, cells: Iterable[tuple[Hashable, AnalysisOptions]]):
        self.cells = tuple(dict.fromkeys(cells))
        group_of: dict = {}
        slots = []
        for outcome, options in self.cells:
            group = (outcome, options.adjust_w, options.weights)
            g = group_of.setdefault(group, len(group_of))
            slots.append((g, options.se_mode is SeMode.HUBER_WHITE))
        self.groups = tuple(group_of)
        # Each cell's group, and whether it reads the robust variance.
        groups, robust = zip(*slots) if slots else ((), ())
        self._slots = (np.array(groups, dtype=np.intp), np.array(robust, dtype=bool))
        # The groups of each outcome, those of them adjusted for w, and those
        # with minimum-variance weights, which read the outcome's ICC.
        self._outcome_groups, self._w_groups, self._icc_groups = {}, {}, {}
        for outcome in dict.fromkeys(outcome for outcome, *_ in self.groups):
            groups = [(g, *group[1:]) for g, group in enumerate(self.groups) if group[0] == outcome]
            self._outcome_groups[outcome] = np.array([g for g, *_ in groups], dtype=np.intp)
            self._w_groups[outcome] = np.array([g for g, w, *_ in groups if w], dtype=np.intp)
            mv = [g for g, _, weights in groups if weights is Weights.MIN_VARIANCE]
            self._icc_groups[outcome] = np.array(mv, dtype=np.intp)
        self.needs_icc = {outcome: len(g) > 0 for outcome, g in self._icc_groups.items()}

    # An overflowed cluster mean ends in the grid's NonFiniteValue, an ICC in
    # _usable_icc's and a covariate adjustment in that of wls.solve.
    @np.errstate(over="ignore", invalid="ignore")
    def summarise(
        self,
        dataset: TrialDataset,
        x_columns: Sequence[int] | None = None,
        unadjusted: Summaries | None = None,
        icc: float | None = None,
    ) -> tuple[dict[ClOutcome, Summaries], dict[ClOutcome, float | None]]:
        """The summaries of each outcome of the grid, and the ICC behind its
        minimum-variance weights: the two mappings :meth:`fit` takes.

        The outcomes are :class:`~crtiv.model.ClOutcome` members;
        ``x_columns`` selects the individual-level covariates of the
        adjusted one.  ``unadjusted`` are the dataset's unadjusted summaries
        if the caller has them, and are otherwise collapsed here if read; the
        adjusted summaries share their columns.  A number ``icc`` becomes
        every outcome's ICC; otherwise one is estimated for each outcome
        whose cells read one (``needs_icc``), from the values its summaries
        average: the raw outcomes or the adjustment residuals.
        A grid with adjusted cells and no ``x_columns`` raises
        :class:`~crtiv.errors.NoCovariatesSelected`.  It runs without numpy's
        overflow warnings: every value an overflow spoils here ends in a
        :class:`~crtiv.errors.NonFiniteValue`, raised or held by a cell.
        """
        if ClOutcome.ADJUSTED_FOR_X in self.needs_icc and x_columns is None:
            raise NoCovariatesSelected("covariate-adjusted cells need x_columns")
        summaries, rho = {}, {}
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
            rho[outcome] = icc
            if icc is None and self.needs_icc[outcome]:
                rho[outcome] = collapse.anova_icc(values, cols.codes).rho
        return summaries, rho

    def fit(
        self,
        summaries: Mapping[Hashable, Summaries],
        icc: Mapping[Hashable, float | None],
        estimator: str = "late",
    ) -> list[CellFit | CrtivError]:
        """Fit every cell of the grid: the one-item case of :meth:`fit_block`.

        ``summaries`` maps each outcome to its cluster summaries, ``icc`` to
        the ICC its minimum-variance weights read, estimated or fixed.
        ``estimator`` is ``"late"`` (two-stage least squares) or ``"itt"``
        (assignment-effect regression).  The regression runs once per
        (outcome, w-adjust, weights) group; each cell then picks its
        covariance; its df mode is read only where its interval is formed
        (:func:`late_fit`).

        The result lines up with the cells.  A cell whose fit raises a
        package error holds that error instead, so the caller can raise or
        count it without losing the other cells; a cell whose estimate or
        chosen variance is not finite holds
        :class:`~crtiv.errors.NonFiniteValue`.  A held error carries no
        traceback, so a study that keeps it does not keep this call's frame
        and arrays alive.  Other exceptions propagate.
        """
        return self.fit_block([(summaries, icc)], estimator)[0]

    def fit_block(
        self,
        items: Sequence[tuple[Mapping[Hashable, Summaries], Mapping[Hashable, float | None]]],
        estimator: str = "late",
    ) -> GridFit:
        """Fit every cell of the grid on each item of a block in one pass.

        Each item is a ``(summaries, icc)`` pair as :meth:`fit` takes, and
        item ``i`` of the result is :meth:`fit`'s list for it, bit for bit.
        The problems of all items are built as stacked arrays, one stack per
        design shape (:meth:`_stacks`), and each stack goes to the
        regression core once per stage, so each stage takes one stacked QR
        per design shape for the whole block; a failure stays in its own
        item and cell.
        """
        if estimator not in ("late", "itt"):
            raise ValueError(f"estimator must be 'late' or 'itt', got {estimator!r}")
        results = _Results(len(items), len(self.groups))
        stacks = self._stacks(items, results)
        # Every non-finite value here ends in a typed error, in solve or _cells.
        with np.errstate(over="ignore", invalid="ignore"):
            (_assignment if estimator == "itt" else _late)(stacks, results)
        return self._cells(results)

    def _stacks(self, items: Sequence, results: _Results) -> list[_Stack]:
        """The stage-one problems of every item of a block, one
        :class:`_Stack` per design shape, for :meth:`fit_block` and the
        screen; each failure of an item short of a fit goes to ``results``."""
        n_groups = len(self.groups)
        # One source per (item, outcome) whose summaries pass their checks,
        # by outcome, cluster count, count of cluster covariates (0 if its
        # w-adjusted groups failed theirs) and whether it has an ICC (not if
        # the groups that read one failed theirs).  The w check, run last, wins.
        sources: dict[tuple[Hashable, int, int, bool], list] = {}
        for k, (summaries, icc) in enumerate(items):
            for outcome, groups in self._outcome_groups.items():
                try:
                    n_clusters = _checked(source := summaries[outcome])
                except CrtivError as exc:
                    results.fail(k * n_groups + groups, exc.with_traceback(None))
                    continue
                rho = w_mat = None
                if len(icc_groups := self._icc_groups[outcome]):
                    try:
                        rho = _usable_icc(icc.get(outcome))
                    except CrtivError as exc:
                        results.fail(k * n_groups + icc_groups, exc.with_traceback(None))
                if len(w_groups := self._w_groups[outcome]):
                    try:
                        w_mat = _cluster_covariates(source, n_clusters)
                    except CrtivError as exc:
                        results.fail(k * n_groups + w_groups, exc.with_traceback(None))
                width = 0 if w_mat is None else w_mat.shape[1]
                key = (outcome, n_clusters, width, rho is not None)
                sources.setdefault(key, []).append((k, source, w_mat, rho))
        by_shape: dict[tuple[int, int], list[_Stack]] = {}
        for (outcome, *_), same in sources.items():
            for stack in self._problems(outcome, same):
                by_shape.setdefault(stack.design.shape[1:], []).append(stack)
        return [
            parts[0] if len(parts) == 1 else _Stack(*map(np.concatenate, zip(*parts)))
            for parts in by_shape.values()
        ]

    def _problems(self, outcome: Hashable, sources: list):
        """The stage-one problems of ``outcome`` on ``sources``, the ``(item,
        summaries, w, ICC)`` of the block with one cluster count, one count
        of cluster covariates and an ICC for all or none: a :class:`_Stack`
        per group of the outcome that they can fit, on the ``[1, z]`` or
        ``[1, z, w]`` design of the sources, which all the groups share, with
        the group's weights."""
        items, summaries, w_mats, iccs = zip(*sources)
        offset = np.array(items) * len(self.groups)
        n, z, d_bar, y_bar = (
            np.array([getattr(s, column) for s in summaries], dtype=float)
            for column in ("n", "z", "d_bar", "y_bar")
        )
        designs = {False: _design(z)}
        if w_mats[0] is not None:
            designs[True] = _design(z, np.array(w_mats))
        rho = None if iccs[0] is None else np.array(iccs)[:, None]
        for g in self._outcome_groups[outcome].tolist():
            _, adjust_w, scheme = self.groups[g]
            if adjust_w not in designs:
                continue  # each of these problems failed its w check
            if scheme is not Weights.MIN_VARIANCE:
                weights = n if scheme is Weights.CLUSTER_SIZE else np.ones(n.shape)
            elif rho is None:
                continue  # each of these problems failed its ICC check
            else:
                weights = wls.mv_weights(n, rho)
            yield _Stack(offset + g, designs[adjust_w], d_bar, y_bar, weights)

    def _cells(self, results: _Results) -> GridFit:
        """Every cell of every item from the results of its group: one
        gather per column, and each failed cell's error."""
        groups, robust = self._slots
        error = results.code[:, groups]
        estimate = results.estimate[:, groups]
        variance = np.where(robust, results.var_robust[:, groups], results.var_model[:, groups])
        errors = results.errors
        overflow = (error == 0) & ~(np.isfinite(estimate) & np.isfinite(variance))
        if overflow.any():
            error[overflow] = len(errors)
            errors.append(NonFiniteValue("estimate or its variance is not finite"))
        fitted = error == 0
        se = np.sqrt(np.where(variance > 0.0, variance, 0.0))
        return GridFit(
            np.where(fitted, estimate, np.nan),
            np.where(fitted, se, np.nan),
            np.where(fitted, results.n_params[:, groups], 0),
            error,
            tuple(errors),
        )


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
    _checked(summaries)
    # As arrays, so that a Summaries built from lists answers, as in tsls.
    y = np.asarray(summaries.y_bar, dtype=float)
    d = np.asarray(summaries.d_bar, dtype=float)
    treated = np.asarray(summaries.z, dtype=float) == 1.0
    if not treated.any() or treated.all():
        raise EmptyArm("both arms required for the ratio estimator")
    with np.errstate(over="ignore", invalid="ignore"):  # overflow ends in NonFiniteValue
        numerator = float(y[treated].mean() - y[~treated].mean())
        denominator = float(d[treated].mean() - d[~treated].mean())
        if abs(denominator) < _RELEVANCE_TOL:
            raise ZeroDenominator("arm means of treatment received coincide")
        ratio = numerator / denominator
    if not math.isfinite(ratio):
        raise NonFiniteValue(f"Wald ratio is not finite: {ratio}")
    return ratio


# The screen's first stage: the unadjusted outcome with no weights and no w.
_SCREEN = GridPlan([(None, AnalysisOptions())])


def first_stage_fs(block: Sequence[Summaries]) -> list[float | CrtivError]:
    """The screening F of each summaries of ``block``, as
    :func:`first_stage_f` gives it, or the package error its first stage
    raised.  The block is a grid's block on the one-cell plan ``_SCREEN``:
    one :func:`crtiv.wls.solve` per cluster count, and one stacked pass per
    stack for its covariances and Fs.  A slope or a variance that is not
    finite is that item's :class:`~crtiv.errors.NonFiniteValue`, and raises
    no warning."""
    results = _Results(len(block), 1)
    stacks = _SCREEN._stacks([({None: summaries}, {}) for summaries in block], results)
    # Every non-finite slope or variance ends in a NonFiniteValue below.
    with np.errstate(over="ignore", invalid="ignore"):
        for stack, rows, fit in _solve(stacks, [s.d_bar for s in stacks], results):
            problems, gamma_z = stack.problems[rows], fit.coefficients[:, 1]
            variance = fit.covariances(robust=False)[0][:, 1, 1]
            # Treat residuals at rounding-noise level as identically zero;
            # adherence fractions live in [0, 1] so an absolute threshold is
            # safe.  With no residual degrees of freedom (J = 2) the fit is
            # exact too, and its F is inf, or 0 for a flat slope.
            exact = np.max(np.abs(fit.residuals), axis=1, initial=0.0) <= 1e-12
            exact |= fit.design.shape[1] <= fit.design.shape[2]
            f_stat = np.where(np.abs(gamma_z) > _RELEVANCE_TOL, math.inf, 0.0)
            t_ratio = gamma_z[~exact] / np.sqrt(variance[~exact])
            f_stat[~exact] = t_ratio * t_ratio  # past the largest float: inf
            results.estimate.flat[problems] = f_stat
            slope = np.isfinite(gamma_z)
            for name, bad, values in (
                ("slope", ~slope, gamma_z),
                ("variance", slope & ~exact & ~np.isfinite(variance), variance),
            ):
                for problem, value in zip(problems[bad].tolist(), values[bad].tolist()):
                    message = f"first-stage {name} is not finite: {value}"
                    results.fail(problem, NonFiniteValue(message))
    codes, f_stats = results.code[:, 0].tolist(), results.estimate[:, 0].tolist()
    return [results.errors[code] if code else f for code, f in zip(codes, f_stats)]


def first_stage_f(summaries: Summaries) -> float:
    """Screening F: squared t-ratio of assignment in the unadjusted,
    unweighted first stage, with model-based SE and (1, J-2) degrees of
    freedom.  An exact fit, from deterministic adherence (zero residuals)
    or from J = 2, returns ``inf``, or 0 when the slope is flat; an F past
    the largest float is ``inf`` too.  A slope or a variance that is not
    finite raises :class:`~crtiv.errors.NonFiniteValue`.  The one-trial
    case of :func:`first_stage_fs`."""
    (f_stat,) = first_stage_fs([summaries])
    if isinstance(f_stat, CrtivError):
        raise f_stat
    return f_stat


def _fit_cell(summaries, options, icc, estimator) -> CellFit:
    (fit,) = GridPlan([(None, options)]).fit({None: summaries}, {None: icc}, estimator)
    if isinstance(fit, CrtivError):
        raise fit
    return fit


def late_fit(
    cell: CellFit, options: AnalysisOptions, n_clusters: int, first_stage_f: float | None = None
) -> LateFit:
    """Interval and p-value of one grid cell under ``options.df_mode``;
    :class:`~crtiv.errors.DfNonPositive` if ``n_clusters <= cell.n_params``."""
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
    second-stage parameters only; minimum-variance weights read ``icc``.
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
