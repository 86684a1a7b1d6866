import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from crtiv import collapse, iv, mc, wls
from crtiv.dgp import (
    AdherenceLevel,
    GeneratedTrial,
    PoissonSizes,
    ScenarioConfig,
    generate,
    screen_weak_instrument,
)
from crtiv.errors import CrtivError, DfNonPositive, NonFiniteValue, ScreenExhausted
from crtiv.mc import (
    ClOutcome,
    VariantKey,
    bias_and_mce,
    coverage_and_mce,
    fit_variants,
    run_study,
    variant_grid,
)
from crtiv.model import (
    AnalysisOptions,
    DfMode,
    SeMode,
    TrialDataset,
    Weights,
)

FAST_CONFIG = ScenarioConfig(
    adherence=AdherenceLevel.CLUSTER,
    n_clusters=12,
    sizes=PoissonSizes(6.0),
    pi=0.6,
    beta_cz=0.4,
)

ONE_VARIANT = (
    VariantKey(ClOutcome.UNADJUSTED, False, Weights.NONE, SeMode.HUBER_WHITE, DfMode.SMALL_SAMPLE),
)


def test_variant_grid_is_full_cross():
    grid = variant_grid()
    assert len(grid) == 48
    assert len(set(grid)) == 48


def test_bias_constant_sample():
    bias, mce = bias_and_mce([0.5, 0.5, 0.5], truth=0.4)
    assert bias == pytest.approx(0.1, abs=1e-12)
    assert mce == 0.0


def test_bias_two_point_formula():
    bias, mce = bias_and_mce([0.3, 0.5], truth=0.4)
    assert bias == pytest.approx(0.0, abs=1e-15)
    assert mce == pytest.approx(0.1, abs=1e-15)


def test_bias_symmetric_sample_is_zero():
    bias, _ = bias_and_mce([0.25, 0.75], truth=0.5)
    assert bias == 0.0


def test_bias_single_estimate():
    bias, mce = bias_and_mce([0.9], truth=0.4)
    assert bias == pytest.approx(0.5, abs=1e-15)
    assert math.isnan(mce)


def test_bias_permutation_invariance_bitwise():
    rng = np.random.default_rng(0)
    estimates = rng.normal(size=101)
    shuffled = rng.permutation(estimates)
    assert bias_and_mce(estimates, 0.2) == bias_and_mce(shuffled, 0.2)


def test_coverage_extremes_and_mce():
    ses = np.ones(4)
    crits = np.full(4, 2.0)
    full, _ = coverage_and_mce(np.full(4, 0.1), ses, crits, truth=0.0)
    assert full == 1.0
    half, _ = coverage_and_mce(np.array([0.0, 0.0, 5.0, 5.0]), ses, crits, truth=0.0)
    assert half == 0.5
    _, mce = coverage_and_mce(np.zeros(2500), np.ones(2500), np.full(2500, 2.0), 0.0)
    assert mce == pytest.approx(math.sqrt(0.95 * 0.05 / 2500), abs=1e-15)


def test_coverage_never_decreases_when_intervals_widen():
    rng = np.random.default_rng(1)
    estimates = rng.normal(0.0, 1.0, 400)
    ses = rng.uniform(0.3, 1.5, 400)
    z = float(stats.norm.ppf(0.975))
    t = float(stats.t.ppf(0.975, 8))
    narrow, _ = coverage_and_mce(estimates, ses, np.full(400, z), 0.0)
    wide, _ = coverage_and_mce(estimates, ses, np.full(400, t), 0.0)
    assert wide >= narrow


def test_coverage_length_mismatch_rejected():
    with pytest.raises(ValueError):
        coverage_and_mce([0.1], [0.1, 0.2], [2.0, 2.0], 0.0)


def test_run_study_deterministic_for_fixed_seed():
    a = run_study(FAST_CONFIG, n_replicates=6, variants=ONE_VARIANT, master_seed=42)
    b = run_study(FAST_CONFIG, n_replicates=6, variants=ONE_VARIANT, master_seed=42)
    assert a.variants == b.variants
    assert a.rejected_weak == b.rejected_weak
    c = run_study(FAST_CONFIG, n_replicates=6, variants=ONE_VARIANT, master_seed=43)
    assert c.variants != a.variants


def test_run_study_thread_count_does_not_change_results():
    sequential = run_study(FAST_CONFIG, n_replicates=6, variants=ONE_VARIANT, master_seed=7)
    threaded = run_study(
        FAST_CONFIG, n_replicates=6, variants=ONE_VARIANT, master_seed=7, threads=2
    )
    assert sequential.variants == threaded.variants
    assert sequential.attempts == threaded.attempts
    assert sequential.rejected_weak == threaded.rejected_weak


def test_attempt_accounting():
    report = run_study(FAST_CONFIG, n_replicates=8, variants=ONE_VARIANT, master_seed=5)
    assert report.attempts == report.rejected_weak + report.n_replicates
    assert report.rejected_weak > 0  # small weak trial rejects some draws
    result = report.variants[ONE_VARIANT[0]]
    assert result.n_fits + result.n_fit_failures == report.n_replicates


def test_single_replicate_bias_is_estimate_minus_truth():
    report = run_study(FAST_CONFIG, n_replicates=1, variants=ONE_VARIANT, master_seed=11)
    result = report.variants[ONE_VARIANT[0]]
    assert math.isnan(result.mce_bias)
    assert result.n_fits == 1
    assert result.coverage in (0.0, 1.0)


def test_full_grid_study_smoke():
    report = run_study(FAST_CONFIG, n_replicates=2, master_seed=3)
    assert len(report.variants) == 48
    assert all(r.n_fits + r.n_fit_failures == 2 for r in report.variants.values())


def test_retained_replicates_all_pass_the_screen():
    from crtiv.collapse import cluster_means
    from crtiv.dgp import generate
    from crtiv.iv import first_stage_f
    from crtiv.mc import _replicate_seed

    report = run_study(FAST_CONFIG, n_replicates=8, variants=ONE_VARIANT, master_seed=17)
    f_stats = []
    for attempt in range(report.attempts):
        trial = generate(FAST_CONFIG, _replicate_seed(17, attempt))
        f_stats.append(first_stage_f(cluster_means(trial.dataset)))
    retained = [f for f in f_stats if f >= 10.0]
    assert len(retained) == report.n_replicates
    assert len(f_stats) - len(retained) == report.rejected_weak
    assert min(retained) >= 10.0


def test_full_grid_study_same_for_one_and_two_workers():
    sequential = run_study(FAST_CONFIG, n_replicates=6, master_seed=21)
    threaded = run_study(FAST_CONFIG, n_replicates=6, master_seed=21, threads=2)
    assert len(sequential.variants) == 48
    assert sequential == threaded


# A screen that never passes: with adherence this rare no cluster complies,
# the first stage is flat, and F is 0.
NEVER_ADHERES = ScenarioConfig(n_clusters=4, sizes=PoissonSizes(5.0), pi=1e-9)


@pytest.mark.parametrize("threads", [1, 2])
def test_run_study_gives_up_when_the_screen_never_passes(monkeypatch, threads):
    monkeypatch.setattr(mc, "_MAX_ATTEMPTS_PER_REPLICATE", 10)
    with pytest.raises(ScreenExhausted, match=r"kept 0 of 30 attempts \(acceptance rate 0\)"):
        run_study(NEVER_ADHERES, n_replicates=3, variants=ONE_VARIANT, threads=threads)


def test_simulate_cli_exits_3_when_the_screen_never_passes(monkeypatch, tmp_path, capsys):
    from crtiv import cli

    monkeypatch.setattr(mc, "_MAX_ATTEMPTS_PER_REPLICATE", 5)
    scenario = tmp_path / "scn.txt"
    scenario.write_text("clusters = 4\npoisson_mean = 5\npi = 1e-9\n", encoding="utf-8")
    argv = ["simulate", "--scenario", str(scenario), "--output-dir", str(tmp_path / "out")]
    assert cli.main(argv + ["--replicates", "2"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("crtiv-error kind=numeric type=ScreenExhausted")
    assert err.count("\n") == 1


# --- grid fan-out: every cell equals its own one-cell fit ---------------------


def per_cell_fit(trial, variant, x_columns=(0,)):
    """(estimate, se, critical value) of one variant from ``iv.tsls`` alone."""
    dataset = trial.dataset
    if variant.cl_outcome is ClOutcome.UNADJUSTED:
        values = dataset.columns().y
        summaries = collapse.cluster_means(dataset)
    else:
        values = collapse.continuous_residuals(dataset, x_columns)
        summaries = collapse.summaries_from_values(dataset, values)
    icc = collapse.anova_icc(values, dataset.columns().codes).rho
    options = AnalysisOptions(variant.weights, variant.se_mode, variant.df_mode, variant.adjust_w)
    try:
        fit = iv.tsls(summaries, options, icc=icc)
        n_params = 3 if variant.adjust_w else 2
        crit, _ = wls.critical_value(variant.df_mode, summaries.n_clusters, n_params)
    except CrtivError:
        return None
    return fit.estimate, fit.se, crit


GRID_CONFIG = ScenarioConfig(n_clusters=10, sizes=PoissonSizes(8.0))
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


@settings(max_examples=15, deadline=None)
@given(seed=SEEDS)
def test_full_grid_cells_equal_per_cell_tsls(seed):
    trial = generate(GRID_CONFIG, seed)
    fits = fit_variants(trial, variant_grid())
    assert list(fits) == list(variant_grid())
    for variant, fit in fits.items():
        assert fit == per_cell_fit(trial, variant), variant.label()


@settings(max_examples=10, deadline=None)
@given(seed=SEEDS)
def test_variant_subset_gives_the_full_grid_values(seed):
    trial = generate(GRID_CONFIG, seed)
    full = fit_variants(trial, variant_grid())
    subset = [v for v in variant_grid() if v.weights is Weights.MIN_VARIANCE]
    assert fit_variants(trial, subset) == {v: full[v] for v in subset}
    reversed_order = subset[::-1]
    assert fit_variants(trial, reversed_order) == {v: full[v] for v in reversed_order}


THREE_CLUSTERS = ScenarioConfig(n_clusters=3, sizes=PoissonSizes(6.0))


def no_residual_df(variant):
    # J=3 clusters leave J - p = 0 degrees of freedom once w enters (p = 3).
    return variant.adjust_w and variant.df_mode is DfMode.SMALL_SAMPLE


@settings(max_examples=15, deadline=None)
@given(seed=SEEDS)
def test_failures_stay_in_their_own_cells(seed):
    trial = generate(THREE_CLUSTERS, seed)
    assume(screen_weak_instrument(trial))
    fits = fit_variants(trial, variant_grid())
    summaries = collapse.cluster_means(trial.dataset)
    for variant, fit in fits.items():
        assert (fit is None) == no_residual_df(variant), variant.label()
        assert fit == per_cell_fit(trial, variant)
        if no_residual_df(variant):
            options = AnalysisOptions(Weights.NONE, variant.se_mode, variant.df_mode, True)
            with pytest.raises(DfNonPositive):
                iv.tsls(summaries, options)


def test_failure_counts_follow_the_failing_cells():
    report = run_study(THREE_CLUSTERS, n_replicates=4, master_seed=8)
    for variant, result in report.variants.items():
        expected = 4 if no_residual_df(variant) else 0
        assert result.n_fit_failures == expected, variant.label()
        assert result.n_fits == 4 - expected


# --- work per replicate -------------------------------------------------------


def counting(monkeypatch, module, name):
    """Replace ``module.name`` with a wrapper that counts its calls."""
    original, calls = getattr(module, name), []

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_retained_replicate_is_screened_once_and_collapsed_once_per_outcome(monkeypatch):
    screens = counting(monkeypatch, mc, "screen_weak_instrument")
    collapses = counting(monkeypatch, collapse, "_collapse")
    attempt = next(
        i for i in range(50)
        if mc._evaluate_attempt((ScenarioConfig(), 5, i, variant_grid(), (0,))) is not None
    )
    screens.clear()
    collapses.clear()
    assert mc._evaluate_attempt((ScenarioConfig(), 5, attempt, variant_grid(), (0,))) is not None
    assert len(screens) == 1
    # One unadjusted collapse shared by the screen and the grid, one adjusted.
    assert len(collapses) == 2


def test_grid_without_mv_cells_estimates_no_icc(monkeypatch):
    trial = generate(ScenarioConfig(), 8)
    estimates = counting(monkeypatch, collapse, "anova_icc")
    variants = [v for v in variant_grid() if v.weights is not Weights.MIN_VARIANCE]
    fits = fit_variants(trial, variants)
    assert all(fit is not None for fit in fits.values())
    assert estimates == []
    fit_variants(trial, variant_grid())
    # One estimate per outcome: unadjusted and adjusted for x.
    assert len(estimates) == 2


def test_full_grid_on_a_default_trial_solves_21_regressions(monkeypatch):
    trial = generate(ScenarioConfig(), 8)
    original, batches = wls.solve, []

    def counted(designs, responses, weights):
        batches.append(len(designs))
        return original(designs, responses, weights)

    monkeypatch.setattr(wls, "solve", counted)
    fits = fit_variants(trial, variant_grid())
    assert all(fit is not None for fit in fits.values())
    # One residual fit, then per outcome 2 w-adjust x 3 weights stage-two
    # fits; stage one is shared between the outcomes for none and cs weights
    # (4 solves) and not for estimated minimum-variance weights (4 solves).
    assert sum(batches) == 1 + 12 + 4 + 4


def test_full_grid_factors_each_design_shape_once_per_stage(monkeypatch):
    trial = generate(ScenarioConfig(), 8)
    calls = counting(monkeypatch, np.linalg, "qr")
    fits = fit_variants(trial, variant_grid())
    assert all(fit is not None for fit in fits.values())
    # The residual fit, then one stacked factorisation per design shape
    # (without and with w) for each of the two stages.
    assert len(calls) == 1 + 2 + 2


def with_outcome(trial, y):
    cols = trial.dataset.columns()
    dataset = TrialDataset(
        columns=cols._replace(y=y), cluster_covariates=trial.dataset.cluster_covariates
    )
    return GeneratedTrial(dataset, (), trial.psi, trial.psi_cl, trial.n_compliers)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_overflowing_fits_count_as_fit_failures():
    trial = generate(ScenarioConfig(), 8)
    cols = trial.dataset.columns()
    # One huge outcome per cluster: the summaries stay finite, the variances
    # overflow, and every cell fails with NonFiniteValue instead of an
    # infinite SE.
    y = cols.y.copy()
    y[np.searchsorted(cols.codes, np.arange(len(cols.cluster_ids)))] = 1e200
    fits = fit_variants(with_outcome(trial, y), variant_grid())
    assert list(fits.values()) == [None] * 48
    # Outcomes near the float maximum overflow the cluster sums themselves.
    overflowed = with_outcome(trial, np.full_like(cols.y, 1e308)).dataset
    cells = [(0, AnalysisOptions(icc=0.1)), (0, AnalysisOptions(adjust_w=True))]
    for estimator in ("late", "itt"):
        fits = iv.fit_grid({0: collapse.cluster_means(overflowed)}, cells, estimator=estimator)
        assert [type(fit) for fit in fits] == [NonFiniteValue, NonFiniteValue]
