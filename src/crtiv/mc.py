"""Monte Carlo study runner for the estimator grid.

A study repeatedly generates trials from one scenario, discards datasets that
fail the weak-instrument screen (first-stage F below 10), fits every
requested estimator variant on each retained dataset, and aggregates
empirical bias and 95% interval coverage with their Monte Carlo errors.

Replicates are seeded independently from (master_seed, attempt_index), and a
rejected attempt still consumes its index, so results are bit-identical for a
given master seed regardless of thread count or scheduling.  Aggregations
sort their inputs before reducing, so they are also invariant to replicate
order.
"""

from __future__ import annotations

import enum
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import collapse, iv
from .dgp import GeneratedTrial, ScenarioConfig, generate, screen_weak_instrument
from .errors import CrtivError, ScreenExhausted
from .model import AnalysisOptions, DfMode, SeMode, Weights

# Attempts allowed per requested replicate before a study gives up on a
# scenario whose weak-instrument screen (almost) never passes.
_MAX_ATTEMPTS_PER_REPLICATE = 1000


class ClOutcome(enum.Enum):
    """Which outcome summary enters the second stage."""

    UNADJUSTED = "unadjusted"
    ADJUSTED_FOR_X = "adjusted_for_x"


@dataclass(frozen=True)
class VariantKey:
    """One cell of the estimation grid (2 x 2 x 3 x 2 x 2 = 48 cells)."""

    cl_outcome: ClOutcome
    adjust_w: bool
    weights: Weights
    se_mode: SeMode
    df_mode: DfMode

    def label(self) -> str:
        return "/".join(
            (
                self.cl_outcome.value,
                "w-adj" if self.adjust_w else "w-none",
                self.weights.value,
                self.se_mode.value,
                self.df_mode.value,
            )
        )


def variant_grid() -> tuple[VariantKey, ...]:
    """The full grid in canonical order."""
    return tuple(
        VariantKey(cl_outcome, adjust_w, weights, se_mode, df_mode)
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


class _Grid(tuple):
    """A tuple of distinct variants with the bookkeeping of their fit done
    once: the outcome summaries each trial needs, and the positional plan
    of the grid (:class:`crtiv.iv.GridPlan`).  :func:`run_study` builds one
    per study; :func:`fit_variants` builds one for any other sequence."""

    def __new__(cls, variants: Iterable[VariantKey]):
        grid = super().__new__(cls, dict.fromkeys(variants))
        # Unadjusted first, so the adjusted summaries share its columns.
        grid.outcomes = tuple(o for o in ClOutcome if any(v.cl_outcome is o for v in grid))
        grid.needs_icc = tuple(
            any(v.cl_outcome is o and v.weights is Weights.MIN_VARIANCE for v in grid)
            for o in grid.outcomes
        )
        grid.plan = iv.GridPlan([
            (grid.outcomes.index(v.cl_outcome),
             AnalysisOptions(v.weights, v.se_mode, v.df_mode, v.adjust_w))
            for v in grid
        ])
        return grid


def fit_variants(
    trial: GeneratedTrial,
    variants: Sequence[VariantKey],
    x_columns: Sequence[int] = (0,),
) -> dict[VariantKey, tuple[float, float, float] | None]:
    """Fit each variant on one trial: (estimate, se, critical value) per key.

    A variant that raises a package error maps to ``None``; anything else
    propagates, since unexpected exceptions indicate a bug rather than a
    degenerate replicate.
    """
    grid = variants if isinstance(variants, _Grid) else _Grid(variants)
    dataset = trial.dataset
    summaries, icc = [], []
    for cl_outcome, needs_icc in zip(grid.outcomes, grid.needs_icc):
        adjusted = cl_outcome is ClOutcome.ADJUSTED_FOR_X
        outcome, values = iv.outcome_summaries(dataset, x_columns if adjusted else None)
        summaries.append(outcome)
        icc.append(collapse.anova_icc(values, dataset.columns().codes).rho if needs_icc else None)
    # The plan's outcome keys are positions in grid.outcomes.
    keys = grid.plan.outcomes
    fits = grid.plan.fit([summaries[k] for k in keys], [icc[k] for k in keys])
    return {
        v: None if isinstance(fit, CrtivError) else (fit.estimate, fit.se, fit.crit)
        for v, fit in zip(grid, fits)
    }


def _evaluate_attempt(args):
    config, master_seed, attempt, variants, x_columns = args
    trial = generate(config, _replicate_seed(master_seed, attempt))
    if not screen_weak_instrument(trial):
        return None
    return fit_variants(trial, variants, x_columns)


def run_study(
    config: ScenarioConfig,
    n_replicates: int,
    variants: Iterable[VariantKey] | None = None,
    master_seed: int = 0,
    threads: int = 1,
    x_columns: Sequence[int] = (0,),
) -> McReport:
    """Run one scenario until ``n_replicates`` datasets pass the screen.

    Attempts are generated, screened, and fitted in index order; speculative
    attempts evaluated past the last retained index (which parallel execution
    produces) are discarded uncounted.  A scenario whose screen keeps fewer
    than ``n_replicates`` datasets in ``1000 * n_replicates`` attempts raises
    :class:`~crtiv.errors.ScreenExhausted` rather than running on.
    """
    if n_replicates < 1:
        raise ValueError("need at least one replicate")
    variants = _Grid(variants if variants is not None else variant_grid())
    if not variants:
        raise ValueError("no estimator variants requested")
    x_columns = tuple(int(c) for c in x_columns)

    # By position: fit_variants returns its rows in the order of variants.
    per_variant: list[list[tuple[float, float, float]]] = [[] for _ in variants]
    failures = [0] * len(variants)
    retained = 0
    rejected = 0
    attempt = 0

    def consume(outcome) -> None:
        nonlocal retained, rejected
        if outcome is None:
            rejected += 1
            return
        retained += 1
        for i, row in enumerate(outcome.values()):
            if row is None:
                failures[i] += 1
            else:
                per_variant[i].append(row)

    max_attempts = _MAX_ATTEMPTS_PER_REPLICATE * n_replicates
    if threads <= 1:
        while retained < n_replicates and attempt < max_attempts:
            consume(_evaluate_attempt((config, master_seed, attempt, variants, x_columns)))
            attempt += 1
    else:
        block = max(4 * threads, 32)
        with ProcessPoolExecutor(max_workers=threads) as pool:
            while retained < n_replicates and attempt < max_attempts:
                indices = range(attempt, min(attempt + block, max_attempts))
                args = [(config, master_seed, i, variants, x_columns) for i in indices]
                for outcome in pool.map(_evaluate_attempt, args, chunksize=4):
                    attempt += 1
                    consume(outcome)
                    if retained >= n_replicates:
                        break

    if retained < n_replicates:
        raise ScreenExhausted(
            f"weak-instrument screen kept {retained} of {attempt} attempts "
            f"(acceptance rate {retained / attempt:.3g}), {n_replicates} replicates wanted"
        )

    truth = config.beta_cz
    aggregated = {}
    for i, variant in enumerate(variants):
        rows = per_variant[i]
        estimates = [r[0] for r in rows]
        ses = np.asarray([r[1] for r in rows])
        crits = [r[2] for r in rows]
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
            n_fit_failures=failures[i],
        )
    return McReport(
        variants=aggregated,
        n_replicates=n_replicates,
        rejected_weak=rejected,
        attempts=rejected + n_replicates,
        truth=truth,
        master_seed=int(master_seed),
    )
