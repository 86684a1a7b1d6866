"""Monte Carlo study runner for the estimator grid.

A study repeatedly generates trials from one scenario, discards datasets that
fail the weak-instrument screen (first-stage F below 10), fits every
requested estimator variant on each retained dataset, and aggregates
empirical bias and 95% interval coverage with their Monte Carlo errors.

Replicates are seeded independently from (master_seed, attempt_index), and a
rejected attempt still consumes its index.  The unit of work is a block of
consecutive attempts: each attempt is generated, collapsed, screened and
summarised on its own, and the block's retained replicates are fitted in
one stacked pass through the grid (:meth:`crtiv.iv.GridPlan.fit_block`),
which gives each replicate the bits of its own fit.  So results are
bit-identical for a given master seed regardless of block size, thread
count or scheduling; a task is just a range of attempt indices.  A retained
replicate yields one list of cell fits (or errors) in grid order; the study
keeps each fit, or only its error's class, and cell ``i`` is aggregated from
position ``i`` of each list, sorting its inputs first, so that is invariant
to replicate order.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from . import collapse, iv
from .dgp import GeneratedTrial, ScenarioConfig, generate, screen_weak_instrument
from .errors import CrtivError, ScreenExhausted
from .model import AnalysisOptions, ClOutcome, DfMode, SeMode, Summaries, VariantKey, Weights

# Attempts allowed per requested replicate before a study gives up on a
# scenario whose weak-instrument screen (almost) never passes.
_MAX_ATTEMPTS_PER_REPLICATE = 1000

# Attempts per block: a block's retained replicates are fitted in one
# stacked pass through the grid, whose per-problem overhead this amortises.
_BLOCK = 32

# The generator writes one individual-level covariate, and the adjusted
# outcome is adjusted for it.
_X_COLUMNS = (0,)


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
    estimates).  Inputs are sorted before reduction so any permutation of the
    same replicates gives bit-identical output.
    """
    values = np.sort(np.asarray(estimates, dtype=float))
    if values.size == 0:
        return math.nan, math.nan
    mean = float(values.mean())
    if values.size < 2:
        return mean - truth, math.nan
    mce = math.sqrt(float(((values - mean) ** 2).sum()) / (values.size * (values.size - 1)))
    return mean - truth, mce


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
    trial: GeneratedTrial,
    variants: Iterable[VariantKey] | iv.GridPlan,
    unadjusted: Summaries | None = None,
) -> list[iv.CellFit | CrtivError]:
    """Fit each distinct variant on one trial, in the order of the plan's
    ``cells``: a :class:`crtiv.iv.CellFit` per variant, or the package error
    its fit raised.  The one-trial case of a study's block fit.

    ``variants`` may be a :class:`crtiv.iv.GridPlan` of them, so a study
    plans its grid once, and ``unadjusted`` the trial's unadjusted summaries,
    so its screen's collapse is reused.  Any other exception propagates,
    since it indicates a bug rather than a degenerate replicate.
    """
    plan = variants if isinstance(variants, iv.GridPlan) else iv.GridPlan(variants)
    (fits,) = plan.fit_block([plan.summarise(trial.dataset, _X_COLUMNS, unadjusted)])
    return fits


def _evaluate_block(config, master_seed, plan, attempts: range) -> list:
    """The grid fits of each attempt of a block, ``None`` for one the screen
    rejects, with each failed cell's error reduced to its class.

    Each attempt is generated, collapsed, screened and summarised on its
    own; the retained ones are fitted together by one
    :meth:`crtiv.iv.GridPlan.fit_block`.
    """
    items, retained = [], []
    for attempt in attempts:
        trial = generate(config, _replicate_seed(master_seed, attempt))
        unadjusted = collapse.cluster_means(trial.dataset)
        retained.append(screen_weak_instrument(unadjusted))
        if retained[-1]:
            items.append(plan.summarise(trial.dataset, _X_COLUMNS, unadjusted))
    fitted = iter(plan.fit_block(items))
    return [
        [f if isinstance(f, iv.CellFit) else type(f) for f in next(fitted)] if kept else None
        for kept in retained
    ]


def run_study(
    config: ScenarioConfig,
    n_replicates: int,
    variants: Iterable[VariantKey] | None = None,
    master_seed: int = 0,
    threads: int = 1,
) -> McReport:
    """Run one scenario until ``n_replicates`` datasets pass the screen.

    Attempts are evaluated in blocks of consecutive indices (at most
    ``_BLOCK``) and consumed in index order.  ``threads`` worker processes
    run the blocks, capped at ``os.cpu_count()``; with one, each block runs
    in this process and holds no more attempts than replicates are still
    needed, so no attempt past the last retained one is generated.  Attempts
    a worker pool evaluated past the last retained index are discarded
    uncounted.  The report is the same for any count, and a variant's
    ``n_fit_failures`` counts the replicates whose cell failed.  A scenario
    whose screen keeps fewer than ``n_replicates`` datasets in ``1000 *
    n_replicates`` attempts raises :class:`~crtiv.errors.ScreenExhausted`
    rather than running on.
    """
    if n_replicates < 1:
        raise ValueError("need at least one replicate")
    plan = iv.GridPlan(variants if variants is not None else variant_grid())
    variants = plan.cells
    if not variants:
        raise ValueError("no estimator variants requested")

    # One list per retained replicate, in the order of variants: each cell's
    # fit, or the class of its error (an error object costs far more).
    replicates: list[list[iv.CellFit | type[CrtivError]]] = []
    attempt = 0
    max_attempts = _MAX_ATTEMPTS_PER_REPLICATE * n_replicates
    workers = min(threads, os.cpu_count() or 1)
    evaluate = functools.partial(_evaluate_block, config, master_seed, plan)
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        mapper = map if pool is None else pool.map
        while len(replicates) < n_replicates and attempt < max_attempts:
            # One block per worker, of at most _BLOCK attempts; together
            # they hold no more attempts than replicates are still needed,
            # rounded up to a multiple of the workers, so in this process
            # no attempt past the last retained one is made.
            needed = n_replicates - len(replicates)
            size = min(_BLOCK, -(-needed // workers))
            end = min(attempt + workers * size, max_attempts)
            blocks = [range(a, min(a + size, end)) for a in range(attempt, end, size)]
            for fits in (result for block in mapper(evaluate, blocks) for result in block):
                attempt += 1
                if fits is not None:
                    replicates.append(fits)
                    if len(replicates) == n_replicates:
                        break

    if (retained := len(replicates)) < n_replicates:
        raise ScreenExhausted(
            f"weak-instrument screen kept {retained} of {attempt} attempts "
            f"(acceptance rate {retained / attempt:.3g}), {n_replicates} replicates wanted"
        )

    truth = config.beta_cz
    aggregated = {}
    for i, variant in enumerate(variants):
        rows = [fits[i] for fits in replicates if isinstance(fits[i], iv.CellFit)]
        estimates = [r.estimate for r in rows]
        ses = np.asarray([r.se for r in rows])
        crits = [r.crit for r in rows]
        bias, mce_bias = bias_and_mce(estimates, truth)
        coverage, mce_coverage = coverage_and_mce(estimates, ses, crits, truth)
        mean_se = float(np.sort(ses).mean()) if len(rows) else math.nan
        aggregated[variant] = VariantResult(
            bias=bias,
            mce_bias=mce_bias,
            coverage=coverage,
            mce_coverage=mce_coverage,
            mean_se=mean_se,
            n_fits=len(rows),
            n_fit_failures=n_replicates - len(rows),
        )
    return McReport(
        variants=aggregated,
        n_replicates=n_replicates,
        rejected_weak=attempt - retained,
        attempts=attempt,
        truth=truth,
        master_seed=int(master_seed),
    )
