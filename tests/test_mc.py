import concurrent.futures
import ctypes
import functools
import importlib
import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from crtiv import collapse, dgp, iv, mc, wls
from crtiv.dgp import (
    AdherenceLevel,
    GeneratedTrial,
    ParetoSizes,
    PoissonSizes,
    ScenarioConfig,
    generate,
    screen_weak_instrument,
)
from crtiv.errors import (
    CovariateShapeMismatch,
    CrtivError,
    DfNonPositive,
    MissingIcc,
    NoCovariatesSelected,
    NonFiniteValue,
    RankDeficient,
    ScreenExhausted,
    WeakDenominator,
)
from crtiv.mc import (
    ClOutcome,
    VariantKey,
    VariantResult,
    bias_and_mce,
    coverage_and_mce,
    fit_variants,
    run_study,
    variant_grid,
)
from crtiv.model import (
    AnalysisOptions,
    DfMode,
    OutcomeKind,
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
    VariantKey(
        ClOutcome.UNADJUSTED,
        AnalysisOptions(Weights.NONE, SeMode.HUBER_WHITE, DfMode.SMALL_SAMPLE),
    ),
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


def test_an_mce_whose_sum_of_squares_overflows_is_finite():
    # 187 estimates of scale 1e153: each squared deviation is finite, their
    # sum is not.
    estimates = np.random.default_rng(4).normal(0.0, 1e153, 187)
    deviations = np.sort(estimates) - np.sort(estimates).mean()
    with np.errstate(over="ignore"):
        assert np.isinf((deviations**2).sum())
    bias, mce = bias_and_mce(estimates, 0.4)
    assert bias == float(np.sort(estimates).mean()) - 0.4
    assert mce == math.hypot(*deviations.tolist()) / math.sqrt(187 * 186)
    scaled = np.std(estimates / 1e153, ddof=1) / math.sqrt(187)
    assert mce == pytest.approx(scaled * 1e153, rel=1e-12)


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


@pytest.mark.parametrize(
    "n_replicates, variants, message",
    [(0, None, "need at least one replicate"), (2, [], "no estimator variants requested")],
    ids=["no replicates", "empty grid"],
)
def test_run_study_refuses_an_empty_study(n_replicates, variants, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        run_study(FAST_CONFIG, n_replicates, variants)


@pytest.mark.parametrize("threads", [0, -1])
def test_run_study_refuses_fewer_than_one_thread(threads):
    # Zero divided the block size by zero workers; a negative count looped
    # over an empty range of blocks forever.
    with pytest.raises(ValueError, match=f"^need at least one thread, got {threads}$"):
        run_study(FAST_CONFIG, 2, ONE_VARIANT, threads=threads)


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


@pytest.fixture
def serial_pool(monkeypatch):
    """Worker pools that map in this process, on a host of 3 CPUs: returns
    the lists of the worker counts asked for and of the tasks evaluated."""
    created, tasks = [], []

    class SerialPool:
        """Records the worker count asked for and each task as it evaluates
        it, in this process; each worker would start with one BLAS thread."""

        def __init__(self, max_workers, initializer):
            assert initializer is mc._one_blas_thread
            created.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, args, chunksize=1):
            def evaluate(task):
                tasks.append(task)
                return fn(task)

            return map(evaluate, list(args))

    # The study imports the pool where it starts one.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(mc.os, "cpu_count", lambda: 3)
    return created, tasks


def test_worker_count_is_capped_at_the_cpu_count(monkeypatch, serial_pool):
    created, tasks = serial_pool
    serial = run_study(FAST_CONFIG, n_replicates=4, variants=ONE_VARIANT, master_seed=9)
    assert created == []
    for threads, workers in [(2, 2), (3, 3), (1000, 3)]:
        pooled = run_study(
            FAST_CONFIG, n_replicates=4, variants=ONE_VARIANT, master_seed=9, threads=threads
        )
        assert created.pop() == workers and not created
        assert pooled == serial
    # Each task is a block of consecutive attempt indices; the scenario and
    # grid ride with the mapped function.
    assert tasks and all(type(task) is range and task.step == 1 for task in tasks)

    monkeypatch.setattr(mc.os, "cpu_count", lambda: None)  # count unknown: run serially
    unknown = run_study(
        FAST_CONFIG, n_replicates=4, variants=ONE_VARIANT, master_seed=9, threads=8
    )
    assert unknown == serial and created == []


def test_pool_attempts_past_the_last_retained_one_are_discarded(serial_pool):
    # Two workers share an odd number of replicates, so a round's blocks
    # hold an attempt more than are still needed; at this seed the first
    # three attempts pass, so the fourth is evaluated and discarded.
    _, tasks = serial_pool
    serial = run_study(FAST_CONFIG, n_replicates=3, variants=ONE_VARIANT, master_seed=10)
    pooled = run_study(
        FAST_CONFIG, n_replicates=3, variants=ONE_VARIANT, master_seed=10, threads=2
    )
    assert pooled == serial
    assert sum(map(len, tasks)) > pooled.attempts


def blas_threads():
    """The thread count of each bundled OpenBLAS that ``mc._OPENBLAS`` names."""
    counts = []
    for package, pattern, setter in mc._OPENBLAS:
        site = Path(importlib.import_module(package).__file__).parent.parent
        for library in sorted((site / f"{package}.libs").glob(pattern)):
            counts.append(getattr(ctypes.CDLL(str(library)), setter.replace("_set_", "_get_"))())
    return counts


def test_each_worker_runs_one_blas_thread():
    # Without it each worker keeps OpenBLAS's own thread pool, and two
    # workers oversubscribe the CPUs of a small host.
    counts = blas_threads()
    if not counts:
        pytest.skip("numpy and scipy bundle no OpenBLAS here")
    with ProcessPoolExecutor(1, initializer=mc._one_blas_thread) as pool:
        assert pool.submit(blas_threads).result() == [1] * len(counts)


def test_the_blas_thread_setting_skips_what_is_absent(monkeypatch):
    # A library that is not bundled, or one without the call, is skipped.
    absent = (
        ("numpy", "libno_such_blas-*.so", "no_such_call"),
        ("crtiv", "*.so", "no_such_call"),
        ("numpy", "libscipy_openblas64_-*.so", "no_such_call"),
        ("scipy", "libgfortran-*.so*", "no_such_call"),
    )
    monkeypatch.setattr(mc, "_OPENBLAS", absent)
    assert mc._one_blas_thread() is None


# A screen that never passes: with adherence this rare no cluster complies,
# the first stage is flat, and F is 0.
NEVER_ADHERES = ScenarioConfig(n_clusters=4, sizes=PoissonSizes(5.0), pi=1e-9)


@pytest.mark.parametrize("threads", [1, 2])
def test_run_study_gives_up_when_the_screen_never_passes(monkeypatch, threads):
    monkeypatch.setattr(mc, "_MAX_ATTEMPTS_PER_REPLICATE", 10)
    with pytest.raises(ScreenExhausted, match=r"kept 0 of 30 attempts \(acceptance rate 0\)"):
        run_study(NEVER_ADHERES, n_replicates=3, variants=ONE_VARIANT, threads=threads)


def test_a_hopeless_screen_gives_up_whatever_the_replicates_wanted(tmp_path, capsys):
    # This scenario's screen keeps no attempt at pi = 0.001.  Its budget of
    # 10^7 attempts would take about 20 minutes; the Clopper-Pearson rule
    # stops it after 20,671, and after at most about 20,720 at any number.
    from crtiv import cli

    scenario = tmp_path / "scn.txt"
    scenario.write_text("clusters = 30\npoisson_mean = 2\npi = 0.001\n", encoding="utf-8")
    argv = ["simulate", "--scenario", str(scenario), "--output-dir", str(tmp_path / "out")]
    capsys.readouterr()
    assert cli.main(argv + ["--replicates", "10000"]) == 3
    assert capsys.readouterr().err == (
        "crtiv-error kind=numeric type=ScreenExhausted msg=\"weak-instrument screen kept 0 of "
        "20671 attempts (acceptance rate 0), 10000 replicates wanted\"\n"
    )


def test_the_give_up_rule_reads_the_clopper_pearson_upper_bound():
    budget = 1000 * 10000
    # With none kept, 1 - 1e-9 ** (1 / n) is the bound: 20,671 attempts are
    # the first whose bound keeps fewer than 10,000 in the rest of the budget.
    for attempt, hopeless in [(20670, False), (20671, True)]:
        upper = 1.0 - mc._GIVE_UP_LEVEL ** (1.0 / attempt)
        assert (upper * (budget - attempt) < 10000) is hopeless
        assert mc._hopeless(0, attempt, 10000, budget - attempt) is hopeless
    # Never before 1000 attempts, even with no attempt left.
    assert not mc._hopeless(0, 999, 1, 0)
    assert mc._hopeless(0, 1000, 1, 0)
    # A rate that keeps enough on average never gives up; one whose upper
    # bound keeps too few does.
    assert not mc._hopeless(1, 2000, 10000, budget - 2000)
    assert mc._hopeless(100, 10**6, 10**6, 10**6)


@pytest.mark.parametrize("threads", [1, 2])
def test_the_give_up_attempt_does_not_depend_on_the_blocks_or_workers(monkeypatch, threads):
    # A looser rule that stops the never-adhering study inside its budget of
    # 50: at 1 - 0.01 ** (1 / n) it keeps fewer than 5 of the 50 - n left
    # first at n = 23, inside a block of each size (2, 3 or 5) run here.
    monkeypatch.setattr(mc, "_MAX_ATTEMPTS_PER_REPLICATE", 10)
    monkeypatch.setattr(mc, "_GIVE_UP_LEVEL", 0.01)
    monkeypatch.setattr(mc, "_MIN_GIVE_UP", 5)
    for block in (2, 32):
        monkeypatch.setattr(mc, "_BLOCK", block)
        with pytest.raises(ScreenExhausted, match=r"kept 0 of 23 attempts \(acceptance rate 0\)"):
            run_study(NEVER_ADHERES, n_replicates=5, variants=ONE_VARIANT, threads=threads)


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


def per_cell_fit(trial, variant):
    """(estimate, se, critical value) of one variant from ``iv.tsls`` alone."""
    dataset = trial.dataset
    if variant.cl_outcome is ClOutcome.UNADJUSTED:
        values = dataset.columns().y
        summaries = collapse.cluster_means(dataset)
    else:
        values = collapse.continuous_residuals(dataset, (0,))
        summaries = collapse.summaries_from_values(dataset, values)
    icc = collapse.anova_icc(values, dataset.columns().codes).rho
    options = variant.options
    try:
        fit = iv.tsls(summaries, options, icc=icc)
        n_params = 3 if options.adjust_w else 2
        crit, _ = wls.critical_value(options.df_mode, summaries.n_clusters, n_params)
    except CrtivError:
        return None
    return fit.estimate, fit.se, crit


def values_of(fit):
    """(estimate, se, parameter count) of a grid cell, or None if it failed."""
    return None if isinstance(fit, CrtivError) else (fit.estimate, fit.se, fit.n_params)


def reported(fit, variant, n_clusters):
    """(estimate, se, critical value) of a grid cell as a study scores it,
    or None if it failed or has no residual degrees of freedom."""
    if isinstance(fit, CrtivError):
        return None
    try:
        crit, _ = wls.critical_value(variant.options.df_mode, n_clusters, fit.n_params)
    except DfNonPositive:
        return None
    return fit.estimate, fit.se, crit


GRID_CONFIG = ScenarioConfig(n_clusters=10, sizes=PoissonSizes(8.0))
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


@settings(max_examples=15, deadline=None)
@given(seed=SEEDS)
def test_full_grid_cells_equal_per_cell_tsls(seed):
    trial = generate(GRID_CONFIG, seed)
    fits = fit_variants(trial, variant_grid())
    assert len(fits) == len(variant_grid())
    for variant, fit in zip(variant_grid(), fits):
        expected = per_cell_fit(trial, variant)
        assert reported(fit, variant, GRID_CONFIG.n_clusters) == expected, variant.label()


@settings(max_examples=10, deadline=None)
@given(seed=SEEDS)
def test_variant_subset_gives_the_full_grid_values(seed):
    trial = generate(GRID_CONFIG, seed)
    full = dict(zip(variant_grid(), map(values_of, fit_variants(trial, variant_grid()))))
    subset = [v for v in variant_grid() if v.options.weights is Weights.MIN_VARIANCE]
    for variants in (subset, subset[::-1]):
        assert list(map(values_of, fit_variants(trial, variants))) == [full[v] for v in variants]


THREE_CLUSTERS = ScenarioConfig(n_clusters=3, sizes=PoissonSizes(6.0))


def no_residual_df(variant):
    # J=3 clusters leave J - p = 0 degrees of freedom once w enters (p = 3),
    # and J <= p fails in either df mode.
    return variant.options.adjust_w


@settings(max_examples=15, deadline=None)
@given(seed=SEEDS)
def test_failures_stay_in_their_own_cells(seed):
    trial = generate(THREE_CLUSTERS, seed)
    summaries = collapse.cluster_means(trial.dataset)
    assume(screen_weak_instrument(summaries))
    fits = fit_variants(trial, variant_grid())
    for variant, fit in zip(variant_grid(), fits):
        # Every cell is fitted; one without residual df fails only where
        # its interval is formed.
        assert fit.n_params == (3 if no_residual_df(variant) else 2), variant.label()
        assert reported(fit, variant, 3) == per_cell_fit(trial, variant)
        if no_residual_df(variant):
            with pytest.raises(DfNonPositive):
                iv.late_fit(fit, variant.options, 3)
            options = AnalysisOptions(
                Weights.NONE, variant.options.se_mode, variant.options.df_mode, True
            )
            with pytest.raises(DfNonPositive):
                iv.tsls(summaries, options)


def test_failure_counts_follow_the_failing_cells():
    report = run_study(THREE_CLUSTERS, n_replicates=4, master_seed=8)
    for variant, result in report.variants.items():
        expected = 4 if no_residual_df(variant) else 0
        assert result.n_fit_failures == expected, variant.label()
        assert result.n_fits == 4 - expected


@pytest.mark.parametrize("n_clusters", [2, 3, 4, 11, 200])
def test_a_study_scores_each_cell_with_the_critical_value_of_its_df(monkeypatch, n_clusters):
    # A study forms the critical values of its fitted cells from the
    # scenario's cluster count and each cell's parameter count, bit for bit
    # as wls.critical_value gives them, and counts a cell with as many
    # clusters as parameters as a failed fit.
    scored = recording(monkeypatch, mc, "_coverage_and_mce", lambda *args: args[2])
    config = ScenarioConfig(n_clusters=n_clusters, sizes=PoissonSizes(6.0))
    report = run_study(config, n_replicates=3, master_seed=3)
    # Coverage is one count over the study's (replicates x cells) critical
    # values, nan where a replicate is not scored.
    (crits,) = scored
    assert crits.shape == (3, len(variant_grid()))
    checked = 0
    for variant, column in zip(variant_grid(), crits.T):
        result = report.variants[variant]
        n_params = 3 if variant.options.adjust_w else 2
        checked += 1
        if n_clusters <= n_params:
            with pytest.raises(DfNonPositive):
                wls.critical_value(variant.options.df_mode, n_clusters, n_params)
            assert (result.n_fits, result.n_fit_failures) == (0, 3), variant.label()
            assert np.isnan(column).all(), variant.label()
            continue
        crit, _ = wls.critical_value(variant.options.df_mode, n_clusters, n_params)
        assert result.n_fits == 3, variant.label()
        assert column.tobytes() == np.full(3, crit).tobytes(), variant.label()
    assert checked == 48


def test_a_default_study_forms_each_critical_value_once(monkeypatch):
    # One call per (df mode, parameter count): 2 df modes x 2 or 3 parameters.
    calls = counting(monkeypatch, wls, "critical_value")
    run_study(ScenarioConfig(), 40, master_seed=502)
    assert len(calls) <= 4


@pytest.mark.parametrize("n_replicates", [1, 5])
@pytest.mark.parametrize("n_clusters", [2, 3])
def test_a_nan_in_the_report_sits_next_to_its_explanation(n_clusters, n_replicates):
    # With two or three clusters many cells have no residual degrees of
    # freedom; their report rows hold nan, explained by n_fits.
    config = ScenarioConfig(n_clusters=n_clusters, sizes=PoissonSizes(6.0))
    report = run_study(config, n_replicates=n_replicates, master_seed=2)
    assert any(result.n_fits == 0 for result in report.variants.values())
    for variant, result in report.variants.items():
        assert result.n_fits + result.n_fit_failures == n_replicates
        unfitted = result.n_fits == 0
        assert math.isnan(result.bias) == unfitted, variant.label()
        assert math.isnan(result.coverage) == unfitted, variant.label()
        assert math.isnan(result.mce_coverage) == unfitted, variant.label()
        assert math.isnan(result.mean_se) == unfitted, variant.label()
        assert math.isnan(result.mce_bias) == (result.n_fits < 2), variant.label()


# --- work per replicate -------------------------------------------------------


def counting(monkeypatch, module, name):
    """Replace ``module.name`` with a wrapper that counts its calls."""
    original, calls = getattr(module, name), []

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def counting_block_fits(monkeypatch):
    """Record the items of each ``GridPlan.fit_block`` call."""
    original, blocks = iv.GridPlan.fit_block, []

    def counted(self, items, estimator="late"):
        blocks.append(len(items))
        return original(self, items, estimator)

    monkeypatch.setattr(iv.GridPlan, "fit_block", counted)
    return blocks


def test_simulate_fits_the_grid_once_per_retained_replicate(monkeypatch, tmp_path):
    # A one-worker simulate run fits the retained replicates of each block of
    # attempts in one block fit, so each retained replicate is one item of
    # one GridPlan.fit_block call.
    from crtiv import cli

    blocks = counting_block_fits(monkeypatch)
    scenario = tmp_path / "scn.txt"
    scenario.write_text("clusters = 8\npoisson_mean = 5\n", encoding="utf-8")
    out = tmp_path / "out"
    argv = ["simulate", "--scenario", str(scenario), "--output-dir", str(out)]
    assert cli.main(argv + ["--replicates", "5", "--seed", "2"]) == 0
    report = (out / "report.csv").read_text(encoding="utf-8").splitlines()
    header, first = report[0].split(","), report[1].split(",")
    assert int(first[header.index("rejected_weak")]) > 0
    assert sum(blocks) == int(first[header.index("n_replicates")]) == 5


SMALL_TRIALS = ScenarioConfig(n_clusters=8, sizes=PoissonSizes(5.0))


def recording(monkeypatch, module, name, record):
    """Replace ``module.name`` with a wrapper that appends ``record(*args)``."""
    original, records = getattr(module, name), []

    def recorded(*args, **kwargs):
        records.append(record(*args, **kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, recorded)
    return records


def test_retained_replicate_is_screened_once_and_collapsed_once_per_outcome(monkeypatch):
    # The screens of a block are one call, over all of its attempts.
    screens = recording(monkeypatch, iv, "first_stage_fs", len)
    original, collapses = collapse._Block.summaries, []

    def counted(block, values, unadjusted=None):
        collapses.append((len(block.columns), unadjusted is None))
        return original(block, values, unadjusted)

    monkeypatch.setattr(collapse._Block, "summaries", counted)
    estimates = recording(monkeypatch, collapse._Block, "icc", lambda block, _: len(block.columns))
    plan = iv.GridPlan(variant_grid())
    # Attempts 7, 12 and 14 of this scenario pass the screen.
    retained, _ = mc._evaluate_block(SMALL_TRIALS, 5, plan, range(5, 15))
    kept = [a for a, passed in zip(range(5, 15), retained) if passed]
    assert kept == [7, 12, 14]
    assert screens == [10]
    # The block's unadjusted collapse holds each attempt once, and the
    # screen and the grid share it; the adjusted collapse holds each
    # retained attempt once, on the unadjusted summaries' columns.
    assert collapses == [(10, True), (3, False)]
    # One ICC per outcome of each retained attempt.
    assert estimates == [3, 3]


@pytest.mark.parametrize("kind", list(OutcomeKind))
def test_an_adjusted_grid_without_covariates_is_a_typed_error(kind):
    cols = generate(ScenarioConfig(), 2).dataset.columns()
    if kind is OutcomeKind.BINARY:
        cols = cols._replace(y=(cols.y > 0).astype(float))
    dataset = TrialDataset(cols, kind)
    plan = iv.GridPlan(variant_grid())
    with pytest.raises(NoCovariatesSelected, match="need x_columns"):
        plan.summarise(dataset)
    # The unadjusted cells alone need no covariates.
    unadjusted = [v for v in variant_grid() if v.cl_outcome is ClOutcome.UNADJUSTED]
    summaries, _ = iv.GridPlan(unadjusted).summarise(dataset)
    assert set(summaries) == {ClOutcome.UNADJUSTED}


@pytest.mark.parametrize("seed", range(4))
def test_the_screens_summaries_give_the_grid_what_it_collapses_itself(seed):
    dataset = generate(ScenarioConfig(), seed).dataset
    plan = iv.GridPlan(variant_grid())
    own = plan.fit(*plan.summarise(dataset, (0,)))
    (item,) = collapse.summarise_block(
        [dataset], plan.needs_icc, (0,), [collapse.cluster_means(dataset)]
    )
    handed = plan.fit(*item)
    assert [values_of(fit) for fit in handed] == [values_of(fit) for fit in own]
    assert [type(fit) for fit in handed] == [type(fit) for fit in own]


def test_grid_without_mv_cells_estimates_no_icc(monkeypatch):
    trial = generate(ScenarioConfig(), 8)
    estimates = counting(monkeypatch, collapse._Block, "icc")
    variants = [v for v in variant_grid() if v.options.weights is not Weights.MIN_VARIANCE]
    fits = fit_variants(trial, variants)
    assert not any(isinstance(fit, CrtivError) for fit in fits)
    assert estimates == []
    fit_variants(trial, variant_grid())
    # One estimate per outcome: unadjusted and adjusted for x.
    assert len(estimates) == 2


def summarised(plan, trials):
    """The block fit's items of ``trials``."""
    return [plan.summarise(trial.dataset, (0,)) for trial in trials]


def test_full_grid_on_a_default_trial_solves_24_regressions(monkeypatch):
    trials = [generate(ScenarioConfig(), seed) for seed in range(8, 13)]
    plan = iv.GridPlan(variant_grid())
    # Each wls.solve call is recorded by the problems of its stack.
    stacks = recording(monkeypatch, wls, "solve", lambda design, *_: len(design))
    fits = fit_variants(trials[0], variant_grid())
    assert not any(isinstance(fit, CrtivError) for fit in fits)
    # One first stage and one second stage per (outcome, w-adjust, weights)
    # group: 2 outcomes x 2 x 3 = 12 groups, in a stack without w and a
    # stack with w per stage, 6 groups each.  The x-adjustment's residuals
    # are no solve: wls.segment_residuals orthogonalises them.
    assert stacks == [6, 6, 6, 6]
    items = summarised(plan, trials)
    stacks.clear()
    # A block sends the groups of all its trials in the same four stacks.
    assert all(not isinstance(f, CrtivError) for fits in plan.fit_block(items) for f in fits)
    assert stacks == [6 * 5] * 4


def test_full_grid_factors_each_design_shape_once_per_stage(monkeypatch):
    trials = [generate(ScenarioConfig(), seed) for seed in range(8, 13)]
    plan = iv.GridPlan(variant_grid())
    calls = counting(monkeypatch, np.linalg, "qr")
    fits = fit_variants(trials[0], variant_grid())
    assert not any(isinstance(fit, CrtivError) for fit in fits)
    # One stacked factorisation per design shape (without and with w) for
    # each of the two stages; the x-adjustment factors nothing.
    assert len(calls) == 2 + 2
    items = summarised(plan, trials)
    calls.clear()
    # A block of five trials sharing J: still one per design shape and stage.
    plan.fit_block(items)
    assert len(calls) == 2 + 2


@pytest.mark.parametrize("seed", range(4))
def test_cells_do_not_depend_on_which_arrays_the_outcomes_share(seed):
    dataset = generate(ScenarioConfig(), seed).dataset
    plan = iv.GridPlan(variant_grid())
    summaries, icc = plan.summarise(dataset, (0,))
    unadjusted, adjusted = summaries.values()
    assert adjusted.d_bar is unadjusted.d_bar and adjusted.n is unadjusted.n
    # A flat adherence fraction, shared too, fails every two-stage cell.
    flat_d = np.full_like(unadjusted.d_bar, 0.5)
    flat = {outcome: s._replace(d_bar=flat_d) for outcome, s in summaries.items()}
    for shared in (summaries, flat):
        copies = {
            outcome: s._replace(n=s.n.copy(), z=s.z.copy(), d_bar=s.d_bar.copy(), w=s.w.copy())
            for outcome, s in shared.items()
        }
        for estimator in ("late", "itt"):
            fits = plan.fit(shared, icc, estimator)
            fits_of_copies = plan.fit(copies, icc, estimator)
            assert list(map(values_of, fits_of_copies)) == list(map(values_of, fits))
            assert list(map(type, fits_of_copies)) == list(map(type, fits))
    assert all(isinstance(fit, WeakDenominator) for fit in plan.fit(flat, icc, "late"))


def with_outcome(trial, y):
    cols = trial.dataset.columns()
    dataset = TrialDataset(cols._replace(y=y))
    return GeneratedTrial(dataset, trial.compliance)


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
    assert [type(fit) for fit in fits] == [NonFiniteValue] * 48
    # Outcomes near the float maximum overflow the cluster sums themselves.
    overflowed = with_outcome(trial, np.full_like(cols.y, 1e308)).dataset
    cells = [(0, AnalysisOptions()), (0, AnalysisOptions(adjust_w=True))]
    for estimator in ("late", "itt"):
        fits = iv.GridPlan(cells).fit({0: collapse.cluster_means(overflowed)}, {}, estimator)
        assert [type(fit) for fit in fits] == [NonFiniteValue, NonFiniteValue]


# --- an affine map of the outcome maps every cell of the grid ----------------


@settings(max_examples=25, deadline=None)
@given(
    seed=SEEDS,
    exponent=st.floats(min_value=-3.0, max_value=3.0),
    sign=st.sampled_from([1.0, -1.0]),
    shift=st.floats(min_value=-10.0, max_value=10.0),
)
def test_an_affine_map_of_the_outcome_maps_every_cell(seed, exponent, sign, shift):
    # Two-stage least squares and the assignment-effect regression are linear
    # in the outcome, and the ANOVA ICC behind minimum-variance weights is
    # affine invariant, so y -> a*y + b maps each estimate to a*beta and each
    # SE to |a|*SE.  |b| <= 10*|a| keeps the cancellation in the means small.
    a = sign * 10.0**exponent
    b = shift * abs(a)
    dataset = generate(ScenarioConfig(n_clusters=12), seed).dataset
    cols = dataset.columns()
    mapped = TrialDataset(cols._replace(y=a * cols.y + b))
    plan = iv.GridPlan(variant_grid())
    for estimator in ("late", "itt"):
        before = plan.fit(*plan.summarise(dataset, (0,)), estimator)
        after = plan.fit(*plan.summarise(mapped, (0,)), estimator)
        for variant, old, new in zip(plan.cells, before, after):
            if isinstance(old, CrtivError):
                assert type(new) is type(old), variant.label()
                continue
            tolerance = 1e-9 * abs(a) * max(abs(old.estimate), old.se)
            assert abs(new.estimate - a * old.estimate) <= tolerance, variant.label()
            assert abs(new.se - abs(a) * old.se) <= tolerance, variant.label()
            assert new.n_params == old.n_params, variant.label()


# --- blocks of attempts --------------------------------------------------------

# How each item of a block is made: as generated, or broken so that cells
# fail.  J = 3 leaves the w-adjusted cells no residual degrees of freedom
# (they are fitted, and fail where their intervals are formed), a flat
# adherence fraction fails every two-stage cell, and one huge outcome per
# cluster overflows every variance.
BLOCK_ITEMS = ("plain", "three_clusters", "flat_d", "overflow")


@functools.cache
def screened_seeds(config):
    """Seeds of the first 16 trials of ``config`` that pass the screen."""
    seeds = (s for s in range(1000) if screen_weak_instrument(generate_summaries(config, s)))
    return list(itertools.islice(seeds, 16))


def generate_summaries(config, seed):
    return collapse.cluster_means(generate(config, seed).dataset)


def block_item(plan, kind, index):
    config = THREE_CLUSTERS if kind == "three_clusters" else GRID_CONFIG
    trial = generate(config, screened_seeds(config)[index])
    if kind == "overflow":
        cols = trial.dataset.columns()
        y = cols.y.copy()
        y[np.searchsorted(cols.codes, np.arange(len(cols.cluster_ids)))] = 1e200
        trial = with_outcome(trial, y)
    summaries, icc = plan.summarise(trial.dataset, (0,))
    if kind == "flat_d":
        flat = np.full(config.n_clusters, 0.5)
        summaries = {outcome: s._replace(d_bar=flat) for outcome, s in summaries.items()}
    return summaries, icc


def expected_failure(kind, variant, estimator):
    """The error class a cell of an item of this kind holds, or None."""
    if kind == "flat_d" and estimator == "late":
        return WeakDenominator
    if kind == "overflow":
        return NonFiniteValue
    return None


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
@settings(max_examples=20, deadline=None)
@given(
    block=st.lists(
        st.tuples(st.sampled_from(BLOCK_ITEMS), st.integers(0, 15)), min_size=1, max_size=8
    ),
    estimator=st.sampled_from(["late", "itt"]),
)
def test_a_block_fit_equals_its_one_item_fits_bit_for_bit(block, estimator):
    plan = iv.GridPlan(variant_grid())
    items = [block_item(plan, kind, index) for kind, index in block]
    together = plan.fit_block(items, estimator)
    assert len(together) == len(items)
    for (kind, _), item, fits in zip(block, items, together):
        alone = plan.fit(*item, estimator)
        assert [values_of(f) for f in fits] == [values_of(f) for f in alone], kind
        # Each failure stays in its own item and cell, and a held error has
        # no traceback, which would keep the fit's frame alive.
        expected = [expected_failure(kind, v, estimator) or iv.CellFit for v in plan.cells]
        assert [type(f) for f in fits] == [type(f) for f in alone] == expected, kind
        assert all(f.__traceback__ is None for f in fits if isinstance(f, CrtivError))
        if kind == "three_clusters":
            n_params = [3 if no_residual_df(v) else 2 for v in plan.cells]
            assert [f.n_params for f in fits] == n_params


def described(fit):
    """A grid cell's values, or the class and message of its error."""
    return (type(fit), str(fit)) if isinstance(fit, CrtivError) else values_of(fit)


# The ICC an item hands its minimum-variance cells: as estimated, missing,
# not finite, or outside [0, 1], for both outcomes or for one.
# "none_without_w" also has summaries with no cluster covariates.
ICC_KINDS = {
    "estimated": lambda icc: icc,
    "none": lambda icc: dict.fromkeys(icc),
    "nan": lambda icc: dict.fromkeys(icc, math.nan),
    "one_inf": lambda icc: {**icc, ClOutcome.ADJUSTED_FOR_X: math.inf},
    "one_below_zero": lambda icc: {**icc, ClOutcome.UNADJUSTED: -0.1},
    "none_without_w": lambda icc: dict.fromkeys(icc),
}


@pytest.mark.parametrize("estimator", ["late", "itt"])
def test_a_weight_failure_stays_in_its_own_item_of_a_block(estimator):
    plan = iv.GridPlan(variant_grid())
    kinds = [
        "estimated", "none", "estimated", "nan", "one_inf", "none", "estimated", "one_below_zero",
        "none_without_w",
    ]
    items = []
    for index, kind in enumerate(kinds):
        summaries, icc = block_item(plan, "plain", index)
        if kind == "none_without_w":
            summaries = {o: s._replace(w=np.empty((len(s.ids), 0))) for o, s in summaries.items()}
        items.append((summaries, ICC_KINDS[kind](icc)))
    together = plan.fit_block(items, estimator)
    for kind, (summaries, icc), fits in zip(kinds, items, together):
        alone = plan.fit(summaries, icc, estimator)
        assert [described(f) for f in fits] == [described(f) for f in alone], kind
        for (outcome, options), fit in zip(plan.cells, fits):
            expected = iv.CellFit
            if options.adjust_w and kind == "none_without_w":
                # The w check's error wins over the ICC check's.
                expected = CovariateShapeMismatch
            elif options.weights is Weights.MIN_VARIANCE:
                rho = icc[outcome]
                if rho is not None and not math.isfinite(rho):
                    expected = NonFiniteValue
                elif rho is None or not 0.0 <= rho <= 1.0:
                    expected = MissingIcc
            assert type(fit) is expected, (kind, outcome, options)


@pytest.mark.parametrize("estimator", ["late", "itt"])
def test_an_icc_outside_the_unit_interval_fails_only_its_own_items_mv_cells(estimator):
    plan = iv.GridPlan(variant_grid())
    first, (summaries, estimated) = (block_item(plan, "plain", index) for index in range(2))
    second = (summaries, dict.fromkeys(estimated, 1.5))
    together = plan.fit_block([first, second], estimator)
    for item, fits in zip((first, second), together):
        alone = plan.fit(*item, estimator)
        assert [described(f) for f in fits] == [described(f) for f in alone]
    with_estimate = plan.fit(summaries, estimated, estimator)
    for (_, options), fit, fit_with_estimate in zip(plan.cells, together[1], with_estimate):
        if options.weights is Weights.MIN_VARIANCE:
            assert described(fit) == (MissingIcc, "ICC must be in [0, 1], got 1.5")
        else:
            assert isinstance(fit, iv.CellFit) and fit == fit_with_estimate


# How each attempt of a screened block is made: as generated, with a
# single-arm assignment draw (a rank-deficient first stage), with a flat
# adherence fraction (F = 0), or with every cluster's adherence equal to its
# assignment (F = inf); "twelve" draws from a scenario of another J.
SCREEN_ITEMS = ("plain", "twelve", "one_arm", "flat", "all_compliers")


def screen_item(kind, seed):
    config = ScenarioConfig(n_clusters=12) if kind == "twelve" else GRID_CONFIG
    summaries = generate_summaries(config, seed)
    if kind == "one_arm":
        return summaries._replace(z=np.ones_like(summaries.z))
    if kind == "flat":
        return summaries._replace(d_bar=np.full_like(summaries.d_bar, 0.5))
    if kind == "all_compliers":
        return summaries._replace(d_bar=summaries.z.copy())
    return summaries


@settings(max_examples=20, deadline=None)
@given(
    block=st.lists(
        st.tuples(st.sampled_from(SCREEN_ITEMS), st.integers(0, 40)), min_size=1, max_size=12
    )
)
def test_a_block_screen_equals_each_attempts_screen_alone(block):
    summaries = [screen_item(kind, seed) for kind, seed in block]
    together = iv.first_stage_fs(summaries)
    passed = dgp.screen_block(summaries)
    assert len(together) == len(passed) == len(block)
    for (kind, _), item, f_stat, kept in zip(block, summaries, together, passed):
        assert kept is dgp.screen_weak_instrument(item)
        try:
            alone = iv.first_stage_f(item)
        except CrtivError as exc:
            alone = exc
        if kind == "one_arm":
            assert type(alone) is RankDeficient
        if isinstance(alone, CrtivError):
            # Rejected through its error, which the block keeps in its place.
            assert type(f_stat) is type(alone) and str(f_stat) == str(alone)
            assert not kept
            continue
        assert np.float64(f_stat).tobytes() == np.float64(alone).tobytes(), kind
        assert kept is (alone >= 10.0)
        if kind == "flat":
            assert f_stat == 0.0
        if kind == "all_compliers":
            assert f_stat == math.inf


def test_a_simulate_block_makes_one_screen_solve_and_four_grid_solves(monkeypatch):
    # Each wls.solve call is recorded by the problems of its stack.  A
    # block's screens are one call (its attempts share one cluster count),
    # and its grid one per design shape (without and with w) and stage; the
    # x-adjusted outcome's residuals take none.
    solves = recording(monkeypatch, wls, "solve", lambda design, *_: len(design))
    plan = iv.GridPlan(variant_grid())
    retained, cells = mc._evaluate_block(ScenarioConfig(), 1, plan, range(mc._BLOCK))
    kept = sum(retained)
    assert kept > 0 and all(fitted.all() for fitted in cells[3])
    assert solves == [mc._BLOCK] + [6 * kept] * 4
    # So a study makes five solves per block.
    blocks = counting_block_fits(monkeypatch)
    solves.clear()
    report = run_study(ScenarioConfig(), 40, master_seed=502)
    assert len(solves) == 5 * len(blocks)


# The scenarios of the block-summary check: the default, individual-level
# adherence, and a few heavy-tailed clusters.
SUMMARY_SCENARIOS = {
    "default": ScenarioConfig(),
    "individual": ScenarioConfig(adherence=AdherenceLevel.INDIVIDUAL),
    "pareto_8": ScenarioConfig(n_clusters=8, sizes=ParetoSizes()),
}


def summary_bits(summaries):
    """The ids and the bytes of every column of ``summaries``."""
    return summaries.ids, *(np.asarray(column).tobytes() for column in summaries[1:])


def icc_bits(estimate):
    return np.array([estimate.rho, estimate.sigma2_between, estimate.sigma2_within]).tobytes()


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("scenario", list(SUMMARY_SCENARIOS))
def test_a_block_summary_equals_each_trials_own_calls_bit_for_bit(scenario, seed):
    # The blocks a study summarises: every attempt's unadjusted summaries,
    # for the screen, then the retained attempts' summaries and ICCs.
    config = SUMMARY_SCENARIOS[scenario]
    datasets = [generate(config, mc._replicate_seed(seed, a)).dataset for a in range(mc._BLOCK)]
    # The default scenarios' screens reject few attempts, so every fifth
    # attempt adheres nowhere: its first stage is flat, and the screen
    # rejects it.
    for a in range(0, mc._BLOCK, 5):
        cols = datasets[a].columns()
        datasets[a] = TrialDataset(cols._replace(d=np.zeros_like(cols.d)))
    screened = collapse.summarise_block(datasets, {ClOutcome.UNADJUSTED: False})
    assert all(icc == {ClOutcome.UNADJUSTED: None} for _, icc in screened)
    unadjusted = [s[ClOutcome.UNADJUSTED] for s, _ in screened]
    for dataset, summaries in zip(datasets, unadjusted):
        assert summary_bits(summaries) == summary_bits(collapse.cluster_means(dataset))
    retained = dgp.screen_block(unadjusted)
    assert any(retained) and not all(retained)
    kept = [dataset for dataset, passed in zip(datasets, retained) if passed]
    plan = iv.GridPlan(variant_grid())
    kept_unadjusted = [s for s, p in zip(unadjusted, retained) if p]
    items = collapse.summarise_block(kept, plan.needs_icc, (0,), kept_unadjusted)
    residuals = [collapse.continuous_residuals(dataset, (0,)) for dataset in kept]
    block = collapse._Block.of([dataset.columns() for dataset in kept])
    block_iccs = [block.icc(block.column("y")), block.icc(np.concatenate(residuals))]
    for k, (dataset, (summaries, icc)) in enumerate(zip(kept, items)):
        cols = dataset.columns()
        own = {
            ClOutcome.UNADJUSTED: (collapse.cluster_means(dataset), cols.y),
            ClOutcome.ADJUSTED_FOR_X: (
                collapse.summaries_from_values(dataset, residuals[k]),
                residuals[k],
            ),
        }
        for (outcome, (alone, values)), estimates in zip(own.items(), block_iccs):
            assert summary_bits(summaries[outcome]) == summary_bits(alone), outcome
            estimate = collapse.anova_icc(values, cols.codes)
            assert icc_bits(estimates[k]) == icc_bits(estimate), outcome
            assert np.float64(icc[outcome]).tobytes() == np.float64(estimate.rho).tobytes()
        # And the one-item block is the same as a block of many.
        alone_summaries, alone_icc = plan.summarise(dataset, (0,))
        assert alone_icc == icc
        assert list(map(summary_bits, alone_summaries.values())) == list(
            map(summary_bits, summaries.values())
        )


def same_bits(a, b):
    """Equal floats bit for bit, or both nan."""
    if isinstance(a, float) and math.isnan(a):
        return isinstance(b, float) and math.isnan(b)
    return type(a) is type(b) and np.float64(a).tobytes() == np.float64(b).tobytes()


def assert_one_row_results(results, estimate, se, crit, truth):
    """Each cell's result is that of the one-row functions on the column of
    its scored replicates, those whose critical value is not nan; returns
    how many cells' sums of squares overflow."""
    overflowed = 0
    for i, result in enumerate(results):
        scored = ~np.isnan(crit[:, i])
        estimates, ses, crits = estimate[scored, i], se[scored, i], crit[scored, i]
        n_fits = len(estimates)
        expected = VariantResult(
            *bias_and_mce(estimates, truth),
            *coverage_and_mce(estimates, ses, crits, truth),
            mean_se=float(np.sort(ses).mean()) if n_fits else math.nan,
            n_fits=n_fits,
            n_fit_failures=len(crit) - n_fits,
        )
        for name in VariantResult.__dataclass_fields__:
            assert same_bits(getattr(result, name), getattr(expected, name)), (i, name)
        if n_fits > 1:
            with np.errstate(over="ignore"):
                deviations = np.sort(estimates) - np.sort(estimates).mean()
                overflowed += bool(np.isinf(np.square(deviations).sum()))
    return overflowed


@pytest.mark.parametrize(
    "config, n_replicates",
    [
        (ScenarioConfig(n_clusters=3, sizes=PoissonSizes(6.0)), 40),
        (ScenarioConfig(n_clusters=12, beta_0=1e307), 20),
        (ScenarioConfig(n_clusters=12), 1),
        (SMALL_TRIALS, 60),
    ],
    ids=["failing cells", "overflowing squares", "one replicate", "small trials"],
)
def test_a_studys_aggregation_equals_the_one_row_functions_for_each_cell(
    monkeypatch, config, n_replicates
):
    inputs = recording(monkeypatch, mc, "_aggregate", lambda *args: args)
    report = run_study(config, n_replicates, master_seed=6)
    ((estimate, se, crit, truth),) = inputs
    assert crit.shape == (n_replicates, 48)
    results = [report.variants[variant] for variant in variant_grid()]
    overflowed = assert_one_row_results(results, estimate, se, crit, truth)
    if config.n_clusters == 3:
        # The cluster-covariate cells have no residual df.
        assert sum(result.n_fits == 0 for result in results) == 24
    if config.beta_0 == 1e307:
        # Some fits fail, and some cells take the hypot path.
        assert overflowed and any(result.n_fit_failures for result in results)


@pytest.mark.parametrize("n_replicates", [1, 2, 9, 130, 9000])
def test_the_aggregation_equals_the_one_row_functions_at_any_length(n_replicates):
    # Lengths past numpy's pairwise-sum unrolling (8) and blocking (128).
    rng = np.random.default_rng(n_replicates)
    estimate = rng.normal(0.4, 1.0, (n_replicates, 6))
    se = rng.uniform(0.1, 2.0, (n_replicates, 6))
    crit = np.where(rng.random((n_replicates, 6)) < 0.2, np.nan, 1.96)
    crit[:, 0] = np.nan  # a cell never scored
    crit[:, 1] = 2.2  # a cell always scored
    estimate[:, 2] *= 1e153  # squares that overflow past a few hundred rows
    results = mc._aggregate(estimate, se, crit, 0.4)
    overflowed = assert_one_row_results(results, estimate, se, crit, 0.4)
    assert overflowed == (n_replicates > 130)


@pytest.mark.parametrize("threads", [1, 2])
def test_report_is_byte_identical_for_any_block_size(monkeypatch, tmp_path, threads):
    from crtiv import cli

    scenario = tmp_path / "scn.txt"
    scenario.write_text("clusters = 8\npoisson_mean = 5\n", encoding="utf-8")
    reports = set()
    for block in (1, 5, 32):
        monkeypatch.setattr(mc, "_BLOCK", block)
        out = tmp_path / f"out{block}"
        argv = ["simulate", "--scenario", str(scenario), "--output-dir", str(out)]
        argv += ["--replicates", "12", "--seed", "4", "--threads", str(threads)]
        assert cli.main(argv) == 0
        reports.add((out / "report.csv").read_bytes())
    assert len(reports) == 1


@pytest.mark.parametrize("block", [1, 3, 32])
def test_one_worker_generates_no_attempt_it_does_not_count(monkeypatch, block):
    monkeypatch.setattr(mc, "_BLOCK", block)
    generated = counting(monkeypatch, mc, "generate")
    report = run_study(FAST_CONFIG, n_replicates=8, variants=ONE_VARIANT, master_seed=5)
    assert report.rejected_weak > 0
    assert len(generated) == report.attempts
