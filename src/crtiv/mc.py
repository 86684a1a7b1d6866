"""Monte Carlo study runner for the estimator grid.

A study repeatedly generates trials from one scenario, discards datasets that
fail the weak-instrument screen (first-stage F below 10), fits every
requested estimator variant on each retained dataset, and aggregates
empirical bias and 95% interval coverage with their Monte Carlo errors.

Replicates are seeded independently from (master_seed, attempt_index), and a
rejected attempt still consumes its index.  The unit of work is a block of
consecutive attempts: each attempt is generated and collapsed on its own,
the block's screens are one stacked first-stage solve per cluster count
(:func:`crtiv.dgp.screen_block`), and the retained replicates are summarised
and fitted in one stacked pass through the grid
(:meth:`crtiv.iv.GridPlan.fit_block`).  Both give each attempt the bits of
its own call, so results are bit-identical for a given master seed
regardless of block size, thread count or scheduling; a task is just a
range of attempt indices.  A block hands back which attempts it kept and
the (replicates x cells) arrays of estimate, SE, parameter count and whether
each cell was fitted; cell ``i`` is aggregated from column ``i`` of the
study's rows, sorting its inputs first, so that is invariant to replicate
order.  Its critical values are formed there too, and a cell with no
residual degrees of freedom counts as a failed fit.
"""

from __future__ import annotations

import ctypes
import functools
import importlib
import math
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from . import collapse, iv, wls
from .dgp import GeneratedTrial, ScenarioConfig, generate, screen_block
from .errors import CrtivError, DfNonPositive, ScreenExhausted
from .model import AnalysisOptions, ClOutcome, DfMode, SeMode, VariantKey, Weights

# Attempts allowed per requested replicate before a study gives up on a
# scenario whose weak-instrument screen (almost) never passes.
_MAX_ATTEMPTS_PER_REPLICATE = 1000

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
    replicates gives bit-identical output.
    """
    values = np.sort(np.asarray(estimates, dtype=float))
    if values.size == 0:
        return math.nan, math.nan
    mean = float(values.mean())
    if values.size < 2:
        return mean - truth, math.nan
    pairs = values.size * (values.size - 1)
    with np.errstate(over="ignore"):  # an overflowed sum takes the finite hypot below
        squares = float(((values - mean) ** 2).sum())
    if math.isfinite(squares):
        return mean - truth, math.sqrt(squares / pairs)
    return mean - truth, math.hypot(*(values - mean).tolist()) / math.sqrt(pairs)


def coverage_and_mce(estimates, ses, crit_values, truth: float) -> tuple[float, float]:
    """Share of replicates whose interval covers the truth, with nominal MCE.

    Each replicate uses its own critical value, so normal and small-sample
    variants are scored against the intervals they actually report.  The MCE
    is the binomial value ``sqrt(0.95 * 0.05 / L)`` at the nominal level.
    """
    estimates = np.asarray(estimates, dtype=float)
    ses = np.asarray(ses, dtype=float)
    crit_values = np.asarray(crit_values, dtype=float)
    if not (estimates.shape == ses.shape == crit_values.shape):
        raise ValueError("estimates, ses, and crit_values must have equal length")
    if estimates.size == 0:
        return math.nan, math.nan
    covered = np.abs(estimates - truth) < crit_values * ses
    coverage = float(int(covered.sum())) / estimates.size
    return coverage, math.sqrt(0.95 * 0.05 / estimates.size)


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

    Each attempt is generated and collapsed on its own; the block's screens
    are one :func:`crtiv.dgp.screen_block`, and the kept attempts are
    summarised and then fitted together by one
    :meth:`crtiv.iv.GridPlan.fit_block`.
    """
    trials = [generate(config, _replicate_seed(master_seed, attempt)) for attempt in attempts]
    # An overflowed cluster mean ends in the grid's NonFiniteValue.
    with np.errstate(over="ignore", invalid="ignore"):
        unadjusted = [collapse.cluster_means(trial.dataset) for trial in trials]
    retained = screen_block(unadjusted)
    fit = plan.fit_block(
        [
            plan.summarise(trial.dataset, _X_COLUMNS, summaries)
            for trial, summaries, kept in zip(trials, unadjusted, retained)
            if kept
        ]
    )
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
    :class:`~crtiv.errors.ScreenExhausted` rather than running on.
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
    pool = ProcessPoolExecutor(workers, initializer=_one_blas_thread) if workers > 1 else None
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
                    if retained == n_replicates:
                        break
                    attempt += 1
                    counted += passed
                    retained += passed
                blocks_kept.append(tuple(column[:counted] for column in cells))
                if retained == n_replicates:
                    break

    if retained < n_replicates:
        raise ScreenExhausted(
            f"weak-instrument screen kept {retained} of {attempt} attempts "
            f"(acceptance rate {retained / attempt:.3g}), {n_replicates} replicates wanted"
        )

    truth = config.beta_cz
    estimate, se, n_params, fitted = (np.concatenate(column) for column in zip(*blocks_kept))
    # One critical value per (df mode, parameter count), as every trial has
    # config.n_clusters clusters; nan, a failed fit, without residual df.
    values: dict[tuple[DfMode, int], float] = {}
    aggregated = {}
    for i, variant in enumerate(variants):
        crit = np.full(len(estimate), np.nan)
        for p in np.unique(n_params[fitted[:, i], i]).tolist():
            if (key := (variant[1].df_mode, p)) not in values:
                try:
                    values[key] = wls.critical_value(key[0], config.n_clusters, p)[0]
                except DfNonPositive:
                    values[key] = math.nan
            crit[fitted[:, i] & (n_params[:, i] == p)] = values[key]
        rows = ~np.isnan(crit)
        estimates, ses, crits = estimate[rows, i], se[rows, i], crit[rows]
        bias, mce_bias = bias_and_mce(estimates, truth)
        coverage, mce_coverage = coverage_and_mce(estimates, ses, crits, truth)
        n_fits = len(estimates)
        aggregated[variant] = VariantResult(
            bias=bias,
            mce_bias=mce_bias,
            coverage=coverage,
            mce_coverage=mce_coverage,
            mean_se=float(np.sort(ses).mean()) if n_fits else math.nan,
            n_fits=n_fits,
            n_fit_failures=n_replicates - n_fits,
        )
    return McReport(
        variants=aggregated,
        n_replicates=n_replicates,
        rejected_weak=attempt - retained,
        attempts=attempt,
        truth=truth,
        master_seed=int(master_seed),
    )
