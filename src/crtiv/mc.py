"""Monte Carlo study runner for the estimator grid.

A study repeatedly generates trials from one scenario, discards datasets that
fail the weak-instrument screen (first-stage F below 10), fits every
requested estimator variant on each retained dataset, and aggregates
empirical bias and 95% interval coverage with their Monte Carlo errors.

Replicates are seeded independently from (master_seed, attempt_index), and a
rejected attempt still consumes its index.  The unit of work is a block of
consecutive attempts: each attempt is generated on its own, the block's
unadjusted summaries are one block collapse
(:func:`crtiv.collapse.summarise_block`), its screens one stacked
first-stage solve per cluster count (:func:`crtiv.dgp.screen_block`), and
the retained replicates are summarised, with their ICCs, in one more block
collapse and fitted in one stacked pass through the grid
(:meth:`crtiv.iv.GridPlan.fit_block`).  Each gives each attempt the bits of
its own call, so results are bit-identical for a given master seed
regardless of block size, thread count or scheduling; a task is just a
range of attempt indices.  A block hands back which attempts it kept and
the (replicates x cells) arrays of estimate, SE, parameter count and whether
each cell was fitted.  The study aggregates its rows in one pass: the
critical values are one (replicates x cells) array, coverage is one count,
and each cell's estimates and SEs are sorted as one row, so a cell is
invariant to replicate order.  The cells with the same count of fits are
reduced together, row by row, each to the bits :func:`bias_and_mce` and
:func:`coverage_and_mce` give it alone.  A cell with no residual degrees of
freedom counts as a failed fit.
"""

from __future__ import annotations

import ctypes
import functools
import importlib
import math
import os
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np
from scipy.special import betainccinv

from . import collapse, iv, wls
from .dgp import GeneratedTrial, ScenarioConfig, generate, screen_block
from .errors import CrtivError, DfNonPositive, ScreenExhausted
from .model import AnalysisOptions, ClOutcome, DfMode, SeMode, VariantKey, Weights

# Attempts allowed per requested replicate before a study gives up on a
# scenario whose weak-instrument screen (almost) never passes.
_MAX_ATTEMPTS_PER_REPLICATE = 1000

# A study gives up before its budget once the one-sided Clopper-Pearson
# upper bound on the acceptance rate, at this level, would keep fewer
# replicates in the attempts left than are still needed; never before
# _MIN_GIVE_UP attempts.  With none kept that is about 20,700 attempts,
# whatever the replicates wanted.
_GIVE_UP_LEVEL = 1e-9
_MIN_GIVE_UP = 1000

# Attempts per block: a block's retained replicates are fitted in one
# stacked pass through the grid, whose per-problem overhead this amortises.
_BLOCK = 32

# The generator writes one individual-level covariate, and the adjusted
# outcome is adjusted for it.
_X_COLUMNS = (0,)

# The OpenBLAS that the numpy and scipy wheels bundle, as (package, library
# file in <package>.libs, the call that sets its thread count).
_OPENBLAS = (
    ("numpy", "libscipy_openblas64_-*.so", "scipy_openblas_set_num_threads64_"),
    ("scipy", "libscipy_openblas-*.so", "scipy_openblas_set_num_threads"),
)


def variant_grid() -> tuple[VariantKey, ...]:
    """The full grid in canonical order."""
    return tuple(
        VariantKey(cl_outcome, AnalysisOptions(weights, se_mode, df_mode, adjust_w))
        for cl_outcome in ClOutcome
        for adjust_w in (False, True)
        for weights in Weights
        for se_mode in SeMode
        for df_mode in DfMode
    )


@dataclass(frozen=True)
class VariantResult:
    """Aggregated performance of one variant over the retained replicates."""

    bias: float
    mce_bias: float
    coverage: float
    mce_coverage: float
    mean_se: float
    n_fits: int
    n_fit_failures: int


@dataclass(frozen=True)
class McReport:
    """Study output: one :class:`VariantResult` per requested variant.

    ``rejected_weak + n_replicates == attempts`` always holds.
    """

    variants: Mapping[VariantKey, VariantResult]
    n_replicates: int
    rejected_weak: int
    attempts: int
    truth: float
    master_seed: int


def bias_and_mce(estimates, truth: float) -> tuple[float, float]:
    """Empirical bias and its Monte Carlo error.

    Bias is the mean estimate minus the truth; the MCE is the sample standard
    deviation of the estimates over ``sqrt(L)`` (``nan`` for fewer than two
    estimates).  Where the sum of squared deviations overflows, the MCE is
    their :func:`math.hypot` over ``sqrt(L * (L - 1))``, which stays finite.
    Inputs are sorted before reduction so any permutation of the same
    replicates gives bit-identical output.  The one-row case of a study's
    aggregation.
    """
    values = np.sort(np.asarray(estimates, dtype=float))
    if values.size == 0:
        return math.nan, math.nan
    (bias,), (mce,) = _bias_and_mce(values[None, :], truth)
    return float(bias), float(mce)


def _bias_and_mce(rows: np.ndarray, truth: float) -> tuple[np.ndarray, np.ndarray]:
    """:func:`bias_and_mce` of each row of ``rows``, which hold the sorted
    estimates of one cell each, of one count.  Each row's mean and sum of
    squares are numpy's pairwise sums of that row, as of the row alone."""
    count = rows.shape[1]
    means = rows.mean(axis=1)
    if count < 2:
        return means - truth, np.full(len(rows), math.nan)
    pairs = count * (count - 1)
    with np.errstate(over="ignore"):  # an overflowed sum takes the finite hypot below
        deviations = rows - means[:, None]
        squares = np.square(deviations, out=deviations).sum(axis=1)
    mce = np.sqrt(squares / pairs)
    for row in np.flatnonzero(~np.isfinite(squares)).tolist():
        mce[row] = math.hypot(*(rows[row] - means[row]).tolist()) / math.sqrt(pairs)
    return means - truth, mce


def coverage_and_mce(estimates, ses, crit_values, truth: float) -> tuple[float, float]:
    """Share of replicates whose interval covers the truth, with nominal MCE.

    Each replicate uses its own critical value, so normal and small-sample
    variants are scored against the intervals they actually report.  The MCE
    is the binomial value ``sqrt(0.95 * 0.05 / L)`` at the nominal level.
    The one-row case of a study's aggregation.
    """
    estimates = np.asarray(estimates, dtype=float)
    ses = np.asarray(ses, dtype=float)
    crit_values = np.asarray(crit_values, dtype=float)
    if not (estimates.shape == ses.shape == crit_values.shape):
        raise ValueError("estimates, ses, and crit_values must have equal length")
    if estimates.size == 0:
        return math.nan, math.nan
    coverage, mce = _coverage_and_mce(estimates, ses, crit_values, truth, estimates.size)
    return float(coverage), float(mce)


def _coverage_and_mce(estimates, ses, crit_values, truth: float, n_fits):
    """:func:`coverage_and_mce` of each column of (replicates x cells)
    arrays, or of 1-D ones, over its ``n_fits`` replicates: one count of the
    covered intervals.  A replicate whose critical value is ``nan`` covers
    nothing; a cell whose ``n_fits`` is ``nan`` reads ``nan``."""
    covered = np.count_nonzero(np.abs(estimates - truth) < crit_values * ses, axis=0)
    return covered / n_fits, np.sqrt(0.95 * 0.05 / n_fits)


def _critical_values(variants, n_params, fitted, n_clusters: int) -> np.ndarray:
    """The critical value of each cell of (replicates x cells) arrays of
    parameter counts and fitted flags, by its variant's df mode: ``nan`` for
    an unfitted cell and for one without residual df, a failed fit.  Every
    trial has ``n_clusters`` clusters, so each (parameter count, df mode)
    that a fitted cell has is formed once."""
    modes = tuple(DfMode)
    code = n_params * len(modes)
    code += [modes.index(options.df_mode) for _, options in variants]
    code[~fitted] = -1
    # Indexed by code; the last entry, which -1 reads, stays nan.
    values = np.full(code.max() + 2, math.nan)
    for c in np.unique(code[fitted]).tolist():
        p, m = divmod(c, len(modes))
        try:
            values[c] = wls.critical_value(modes[m], n_clusters, p)[0]
        except DfNonPositive:
            pass
    return values[code]


def _aggregate(estimate, se, crit, truth: float) -> list[VariantResult]:
    """Every cell's :class:`VariantResult` from the (replicates x cells)
    estimates, SEs and critical values of a study, scoring each replicate
    whose critical value is not ``nan``.

    Coverage is one count.  Each cell's scored estimates, and then its SEs,
    are sorted as one row, and the cells with the same count of scored
    replicates are reduced together, row by row, so each cell reads the
    bits :func:`bias_and_mce` and :func:`coverage_and_mce` give it alone.
    """
    scored = ~np.isnan(crit)
    n_fits = np.count_nonzero(scored, axis=0)
    coverage, mce_coverage = _coverage_and_mce(
        estimate, se, crit, truth, np.where(n_fits > 0, n_fits, np.nan)
    )
    bias, mce_bias, mean_se = (np.full(len(n_fits), math.nan) for _ in range(3))
    for cells, rows in _scored_rows(estimate, scored, n_fits):
        bias[cells], mce_bias[cells] = _bias_and_mce(rows, truth)
    for cells, rows in _scored_rows(se, scored, n_fits):
        mean_se[cells] = rows.mean(axis=1)
    n_replicates = len(crit)
    return [
        VariantResult(*values, n_fit_failures=n_replicates - values[-1])
        for values in zip(
            *(a.tolist() for a in (bias, mce_bias, coverage, mce_coverage, mean_se, n_fits))
        )
    ]


def _scored_rows(values, scored, n_fits):
    """Each group of cells whose count of scored replicates is the same,
    above zero, as ``(cells, rows)``: row ``k`` holds the sorted scored
    values of cell ``cells[k]``."""
    rows = values.T.copy()
    rows[~scored.T] = np.nan  # sorted after every scored value
    rows.sort(axis=1)
    for count in np.unique(n_fits[n_fits > 0]).tolist():
        cells = np.flatnonzero(n_fits == count)
        yield cells, rows[:, :count] if len(cells) == len(rows) else rows[cells, :count]


def _hopeless(retained: int, attempt: int, needed: int, left: int) -> bool:
    """Whether ``left`` more attempts are past hope of keeping ``needed``
    more replicates, ``retained`` of ``attempt`` having been kept: at the
    one-sided Clopper-Pearson upper bound on the acceptance rate at level
    ``_GIVE_UP_LEVEL``, they keep fewer than ``needed`` on average.  Never
    before ``_MIN_GIVE_UP`` attempts.  The bound is at least the observed
    rate, so a study keeping enough at that rate never computes it."""
    if attempt < _MIN_GIVE_UP or retained * left >= needed * attempt:
        return False
    upper = 1.0
    if retained < attempt:
        upper = float(betainccinv(retained + 1, attempt - retained, _GIVE_UP_LEVEL))
    return upper * left < needed


def _replicate_seed(master_seed: int, attempt: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=(int(master_seed), int(attempt)))


def fit_variants(
    trial: GeneratedTrial, variants: Iterable[VariantKey]
) -> list[iv.CellFit | CrtivError]:
    """Fit each distinct variant on one trial, in the order of their first
    appearance: a :class:`crtiv.iv.CellFit` per variant, or the package
    error its fit raised.  The one-trial case of a study's block fit.  Any
    other exception propagates, since it indicates a bug rather than a
    degenerate replicate.
    """
    plan = iv.GridPlan(variants)
    return plan.fit(*plan.summarise(trial.dataset, _X_COLUMNS))


def _one_blas_thread() -> None:
    """One thread in each library of ``_OPENBLAS`` that is there, so that
    pool workers do not oversubscribe the CPUs with BLAS threads."""
    for package, pattern, setter in _OPENBLAS:
        site = Path(importlib.import_module(package).__file__).parent.parent
        for library in (site / f"{package}.libs").glob(pattern):
            getattr(ctypes.CDLL(str(library)), setter, lambda threads: None)(1)


def _evaluate_block(config, master_seed, plan, attempts: range) -> tuple[list[bool], tuple]:
    """Which attempts of a block the screen keeps, and the cells of the kept
    ones: their (replicates x cells) estimate, SE, parameter count and
    whether each cell was fitted.

    Each attempt is generated on its own.  The block's unadjusted summaries
    are one :func:`crtiv.collapse.summarise_block`, its screens one
    :func:`crtiv.dgp.screen_block`, and the kept attempts' summaries and
    ICCs, on the plan's outcomes, one more block summary, which one
    :meth:`crtiv.iv.GridPlan.fit_block` then fits.
    """
    datasets = [generate(config, _replicate_seed(master_seed, a)).dataset for a in attempts]
    screened = collapse.summarise_block(datasets, {ClOutcome.UNADJUSTED: False})
    unadjusted = [summaries[ClOutcome.UNADJUSTED] for summaries, _ in screened]
    retained = screen_block(unadjusted)
    kept = [i for i, passed in enumerate(retained) if passed]
    items = collapse.summarise_block(
        [datasets[i] for i in kept], plan.needs_icc, _X_COLUMNS, [unadjusted[i] for i in kept]
    )
    fit = plan.fit_block(items)
    return retained, (fit.estimate, fit.se, fit.n_params, fit.error == 0)


def run_study(
    config: ScenarioConfig,
    n_replicates: int,
    variants: Iterable[VariantKey] | None = None,
    master_seed: int = 0,
    threads: int = 1,
) -> McReport:
    """Run one scenario until ``n_replicates`` datasets pass the screen.

    Attempts are evaluated in blocks of consecutive indices (at most
    ``_BLOCK``) and consumed in index order.  ``threads`` (at least one)
    worker processes run the blocks, capped at ``os.cpu_count()``, each
    with one BLAS thread (:func:`_one_blas_thread`); with one, each block
    runs in this process and holds no more attempts than replicates are still
    needed, so no attempt past the last retained one is generated.  Attempts
    a worker pool evaluated past the last retained index are discarded
    uncounted.  The report is the same for any count, and a variant's
    ``n_fit_failures`` counts the replicates whose cell failed or has no
    residual degrees of freedom.  A scenario whose screen keeps fewer than
    ``n_replicates`` datasets in ``1000 * n_replicates`` attempts raises
    :class:`~crtiv.errors.ScreenExhausted` rather than running on, and so
    does one whose acceptance rate, after at least 1000 attempts, leaves
    that budget past hope (:func:`_hopeless`).  Both are judged after each
    attempt, so the attempt a study stops at does not depend on the block
    size or the workers.
    """
    if n_replicates < 1:
        raise ValueError("need at least one replicate")
    if threads < 1:
        raise ValueError(f"need at least one thread, got {threads}")
    plan = iv.GridPlan(variants if variants is not None else variant_grid())
    variants = plan.cells
    if not variants:
        raise ValueError("no estimator variants requested")

    # The cells of the counted replicates of each block, as (estimate, SE,
    # parameter count, fitted) arrays of (replicates x cells).
    blocks_kept: list[tuple] = []
    retained = attempt = 0
    max_attempts = _MAX_ATTEMPTS_PER_REPLICATE * n_replicates
    workers = min(threads, os.cpu_count() or 1)
    evaluate = functools.partial(_evaluate_block, config, master_seed, plan)
    pool = None
    if workers > 1:
        # Imported only here: the pool loads multiprocessing, which a
        # one-worker study never uses.
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(workers, initializer=_one_blas_thread)
    with pool or nullcontext():
        mapper = map if pool is None else pool.map
        while retained < n_replicates and attempt < max_attempts:
            # One block per worker, of at most _BLOCK attempts; together
            # they hold no more attempts than replicates are still needed,
            # rounded up to a multiple of the workers, so in this process
            # no attempt past the last retained one is made.
            needed = n_replicates - retained
            size = min(_BLOCK, -(-needed // workers))
            end = min(attempt + workers * size, max_attempts)
            blocks = [range(a, min(a + size, end)) for a in range(attempt, end, size)]
            for kept, cells in mapper(evaluate, blocks):
                counted = 0
                for passed in kept:
                    attempt += 1
                    counted += passed
                    retained += passed
                    needed = n_replicates - retained
                    if not needed or _hopeless(retained, attempt, needed, max_attempts - attempt):
                        max_attempts = attempt  # the study ends at this attempt
                        break
                blocks_kept.append(tuple(column[:counted] for column in cells))
                if attempt == max_attempts:
                    break

    if retained < n_replicates:
        raise ScreenExhausted(
            f"weak-instrument screen kept {retained} of {attempt} attempts "
            f"(acceptance rate {retained / attempt:.3g}), {n_replicates} replicates wanted"
        )

    truth = config.beta_cz
    estimate, se, n_params, fitted = (np.concatenate(column) for column in zip(*blocks_kept))
    # Each array is held once from here: a long study's memory is these rows.
    del blocks_kept
    crit = _critical_values(variants, n_params, fitted, config.n_clusters)
    del n_params, fitted
    aggregated = dict(zip(variants, _aggregate(estimate, se, crit, truth)))
    return McReport(
        variants=aggregated,
        n_replicates=n_replicates,
        rejected_weak=attempt - retained,
        attempts=attempt,
        truth=truth,
        master_seed=int(master_seed),
    )
