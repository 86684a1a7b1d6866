import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_summaries
from crtiv import dgp, iv, wls
from crtiv.collapse import cluster_means
from crtiv.dgp import PoissonSizes, ScenarioConfig, generate
from crtiv.errors import (
    CovariateShapeMismatch,
    CrtivError,
    DfNonPositive,
    EmptyArm,
    MissingIcc,
    NonFiniteValue,
    RankDeficient,
    WeakDenominator,
    ZeroDenominator,
)
from crtiv.iv import (
    GridPlan,
    first_stage_f,
    itt,
    late_from_dataset,
    tsls,
    wald_late,
)
from crtiv.model import (
    AnalysisOptions,
    ClOutcome,
    DfMode,
    LateFit,
    SeMode,
    Summaries,
    Weights,
    validate,
)

ALL_OPTION_COMBOS = [
    AnalysisOptions(weights=w, se_mode=s, df_mode=d)
    for w in Weights
    for s in SeMode
    for d in DfMode
]


def summaries_from_arrays(y, d, z, sizes=None, w=None):
    n = len(y)
    sizes = sizes if sizes is not None else [10] * n
    return Summaries(
        ids=tuple(f"c{i:03d}" for i in range(n)),
        n=np.array([int(s) for s in sizes]),
        z=np.asarray(z, dtype=float),
        d_bar=np.asarray(d, dtype=float),
        y_bar=np.asarray(y, dtype=float),
        w=np.empty((n, 0)) if w is None else np.asarray(w, dtype=float).reshape(n, 1),
    )


def oracle_tsls(y, d, z, weights, w_col=None):
    """Explicit two-stage matrix arithmetic via inv(), independent of the
    QR-based implementation."""
    n = len(y)
    ones = np.ones(n)
    pieces = [ones, z] if w_col is None else [ones, z, w_col]
    x1 = np.column_stack(pieces)
    w = np.asarray(weights, dtype=float)

    def wls(design, response):
        xtwx_inv = np.linalg.inv(design.T @ (design * w[:, None]))
        return xtwx_inv, xtwx_inv @ design.T @ (w * response)

    _, gamma = wls(x1, d)
    d_hat = x1 @ gamma
    x2 = np.column_stack([ones, d_hat] if w_col is None else [ones, d_hat, w_col])
    xtwx_inv, beta = wls(x2, y)
    x2_actual = np.column_stack([ones, d] if w_col is None else [ones, d, w_col])
    resid = y - x2_actual @ beta
    p = x2.shape[1]
    sigma2 = float(w @ resid**2) / (n - p)
    cov_model = sigma2 * xtwx_inv
    meat = x2.T @ (x2 * (w**2 * resid**2)[:, None])
    cov_robust = xtwx_inv @ meat @ xtwx_inv
    return beta, cov_model, cov_robust


def test_itt_unweighted_is_arm_mean_difference():
    y = np.array([1.0, 2.0, 3.0, 5.0])
    z = np.array([0, 0, 1, 1])
    summaries = summaries_from_arrays(y, z.astype(float), z)
    fit = itt(summaries, AnalysisOptions())
    assert fit.estimate == pytest.approx(4.0 - 1.5, abs=1e-12)
    assert fit.first_stage_f is None


def test_weighted_itt_matches_normal_equation_oracle(make_summaries):
    rng = np.random.default_rng(22)
    summaries = make_summaries(rng, n_clusters=12)
    y = summaries.y_bar
    z = summaries.z
    w = summaries.n.astype(float)
    design = np.column_stack([np.ones(len(y)), z])
    xtwx_inv = np.linalg.inv(design.T @ (design * w[:, None]))
    beta = xtwx_inv @ design.T @ (w * y)
    resid = y - design @ beta
    sigma2 = float(w @ resid**2) / (len(y) - 2)
    fit = itt(summaries, AnalysisOptions(weights=Weights.CLUSTER_SIZE))
    assert fit.estimate == pytest.approx(beta[1], abs=1e-12)
    assert fit.se == pytest.approx(math.sqrt(sigma2 * xtwx_inv[1, 1]), abs=1e-12)


def test_perfect_adherence_itt_equals_tsls_for_every_option_combo(make_summaries):
    rng = np.random.default_rng(2)
    summaries = make_summaries(rng, n_clusters=14)
    summaries = summaries._replace(d_bar=summaries.z.copy())
    for options in ALL_OPTION_COMBOS:
        a = itt(summaries, options, icc=0.3)
        b = tsls(summaries, options, icc=0.3)
        assert b.estimate == pytest.approx(a.estimate, abs=1e-10)
        assert b.se == pytest.approx(a.se, abs=1e-10)
        assert b.ci[0] == pytest.approx(a.ci[0], abs=1e-10)
        assert b.p == pytest.approx(a.p, abs=1e-10)


def test_wald_direct_substitution():
    # Arm means: treated (0.9, 0.7), control (0.2, 0.1) -> 0.7 / 0.6.
    summaries = summaries_from_arrays(
        y=np.array([0.2, 0.2, 0.9, 0.9]),
        d=np.array([0.1, 0.1, 0.7, 0.7]),
        z=np.array([0, 0, 1, 1]),
    )
    assert wald_late(summaries) == pytest.approx(0.7 / 0.6, abs=1e-12)


def test_wald_on_summaries_built_from_lists_equals_the_array_built_result():
    columns = dict(n=[12, 7, 20, 9], z=[0, 0, 1, 1], d_bar=[0.0, 0.1, 0.8, 0.6])
    columns.update(y_bar=[1.2, 0.4, 2.9, 1.7], w=[[0.3], [-0.1], [0.5], [0.2]])
    listed = Summaries(ids=("a", "b", "c", "d"), **columns)
    arrays = listed._replace(**{k: np.array(v, dtype=float) for k, v in columns.items()})
    assert wald_late(listed) == wald_late(arrays)
    for fitter in (tsls, itt):
        for adjust_w in (False, True):
            options = AnalysisOptions(adjust_w=adjust_w)
            assert fitter(listed, options) == fitter(arrays, options)


@pytest.mark.parametrize(
    "w",
    [np.ones(5), np.ones((4, 1)), [[1.0, 2.0]] * 4],
    ids=["one-dimensional", "four-rows-as-array", "four-rows-as-lists"],
)
@pytest.mark.parametrize("fitter", [tsls, itt])
def test_a_w_without_one_row_per_cluster_is_a_covariate_shape_mismatch(make_summaries, fitter, w):
    summaries = make_summaries(np.random.default_rng(3), n_clusters=5)._replace(w=w)
    with pytest.raises(CovariateShapeMismatch, match="not one row per cluster"):
        fitter(summaries, AnalysisOptions(adjust_w=True))
    # Without w adjustment the covariates are never read.
    assert math.isfinite(fitter(summaries, AnalysisOptions()).estimate)


@pytest.mark.parametrize("fitter", [tsls, itt])
def test_adjusting_for_no_cluster_covariate_is_a_covariate_shape_mismatch(make_summaries, fitter):
    summaries = make_summaries(np.random.default_rng(3), n_clusters=5)
    assert summaries.w.shape == (5, 0)
    with pytest.raises(
        CovariateShapeMismatch, match="^adjusting for w needs at least one cluster covariate$"
    ):
        fitter(summaries, AnalysisOptions(adjust_w=True))


def test_wald_perfect_adherence_reduces_to_itt_difference(make_summaries):
    rng = np.random.default_rng(3)
    summaries = make_summaries(rng, n_clusters=10)
    summaries = summaries._replace(d_bar=summaries.z.copy())
    y = summaries.y_bar
    z = summaries.z
    expected = y[z == 1].mean() - y[z == 0].mean()
    assert wald_late(summaries) == pytest.approx(expected, abs=1e-12)


def test_wald_zero_denominator():
    summaries = summaries_from_arrays(
        y=np.array([0.1, 0.5, 0.4, 0.2]),
        d=np.array([0.3, 0.6, 0.3, 0.6]),
        z=np.array([0, 0, 1, 1]),
    )
    with pytest.raises(ZeroDenominator):
        wald_late(summaries)
    with pytest.raises(EmptyArm):
        wald_late(summaries_from_arrays(np.ones(2), np.ones(2), np.array([1, 1])))


# The J = 2 trial whose outcome means overflow every difference and
# regression of them.  Under filterwarnings = error, a RuntimeWarning on the
# way to a typed error fails the tests that use it.
OVERFLOWING = summaries_from_arrays([-1e308, 1e308], [0.0, 1.0], [0, 1], sizes=[1, 1])


def test_an_overflowing_wald_ratio_is_a_typed_error():
    with pytest.raises(NonFiniteValue, match="^Wald ratio is not finite: inf$"):
        wald_late(OVERFLOWING)


@pytest.mark.parametrize("estimator", ["late", "itt"])
def test_an_overflowing_grid_holds_typed_errors_without_a_warning(estimator):
    plan = GridPlan([(0, AnalysisOptions(w, se)) for w in Weights for se in SeMode])
    (fits,) = plan.fit_block([({0: OVERFLOWING}, {0: 0.1})], estimator)
    assert [type(fit) for fit in fits] == [NonFiniteValue] * len(plan.cells)
    with pytest.raises(NonFiniteValue, match="^estimate or its variance is not finite$"):
        (tsls if estimator == "late" else itt)(OVERFLOWING, AnalysisOptions())


def test_just_identified_tsls_equals_wald(make_summaries):
    rng = np.random.default_rng(4)
    for _ in range(200):
        summaries = make_summaries(rng)
        fit = tsls(summaries, AnalysisOptions())
        assert abs(fit.estimate - wald_late(summaries)) < 1e-10


WALD_WEIGHTS = {
    "none": (AnalysisOptions(), lambda n: np.ones(len(n))),
    "cs": (AnalysisOptions(weights=Weights.CLUSTER_SIZE), lambda n: n.astype(float)),
    "mv": (
        AnalysisOptions(weights=Weights.MIN_VARIANCE),
        lambda n: wls.mv_weights(n, 0.05),
    ),
}


def arm_mean_gap(values, z, weights):
    treated = z == 1.0
    return np.average(values[treated], weights=weights[treated]) - np.average(
        values[~treated], weights=weights[~treated]
    )


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_two_stage_fit_is_the_weighted_wald_ratio(seed):
    # With one binary instrument and no covariates, the two-stage estimate is
    # the ratio of the weighted arm-mean gaps of outcome and adherence, and
    # the assignment effect is the outcome gap (Imbens & Angrist 1994).
    summaries = random_summaries(np.random.default_rng(seed))
    plan = GridPlan([("o", options) for options, _ in WALD_WEIGHTS.values()])
    late = plan.fit({"o": summaries}, {"o": 0.05}, "late")
    assignment = plan.fit({"o": summaries}, {"o": 0.05}, "itt")
    for (name, (_, weights_of)), two_stage, effect in zip(WALD_WEIGHTS.items(), late, assignment):
        weights = weights_of(summaries.n)
        gap_y = arm_mean_gap(summaries.y_bar, summaries.z, weights)
        gap_d = arm_mean_gap(summaries.d_bar, summaries.z, weights)
        assert abs(two_stage.estimate - gap_y / gap_d) * abs(gap_d) <= 1e-10, name
        assert abs(effect.estimate - gap_y) <= 1e-12, name


@pytest.mark.parametrize("estimator", ["ITT", "LATE", "wald", ""])
def test_grid_fit_takes_only_late_or_itt(estimator):
    summaries = random_summaries(np.random.default_rng(2))
    with pytest.raises(ValueError, match="'late' or 'itt'"):
        GridPlan([("o", AnalysisOptions())]).fit({"o": summaries}, {}, estimator)


def test_tsls_matches_matrix_oracle_with_and_without_w(make_summaries):
    rng = np.random.default_rng(5)
    for _ in range(50):
        summaries = make_summaries(rng, with_w=True)
        y = summaries.y_bar
        d = summaries.d_bar
        z = summaries.z
        w_col = summaries.w[:, 0]
        sizes = summaries.n.astype(float)

        for adjust_w, weights in ((False, None), (True, None), (True, sizes)):
            options = AnalysisOptions(
                weights=Weights.CLUSTER_SIZE if weights is not None else Weights.NONE,
                adjust_w=adjust_w,
            )
            fit_model = tsls(summaries, options)
            fit_robust = tsls(summaries, replace(options, se_mode=SeMode.HUBER_WHITE))
            beta, cov_model, cov_robust = oracle_tsls(
                y,
                d,
                z,
                weights if weights is not None else np.ones(len(y)),
                w_col if adjust_w else None,
            )
            assert fit_model.estimate == pytest.approx(beta[1], abs=1e-10)
            assert fit_model.se == pytest.approx(math.sqrt(cov_model[1, 1]), abs=1e-10)
            assert fit_robust.se == pytest.approx(math.sqrt(cov_robust[1, 1]), abs=1e-10)


def test_six_cluster_w_fixture_matches_oracle():
    y = np.array([1.2, 0.4, 2.2, 2.9, 1.7, 3.4])
    d = np.array([0.1, 0.0, 0.2, 0.8, 0.6, 0.9])
    z = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
    w_col = np.array([0.3, -0.2, 0.5, -0.1, 0.4, 0.0])
    sizes = np.array([12, 7, 20, 9, 15, 11], dtype=float)
    summaries = summaries_from_arrays(y, d, z.astype(int), sizes=sizes, w=w_col)

    options = AnalysisOptions(weights=Weights.CLUSTER_SIZE, adjust_w=True)
    fit = tsls(summaries, options)
    fit_hw = tsls(summaries, replace(options, se_mode=SeMode.HUBER_WHITE))
    beta, cov_model, cov_robust = oracle_tsls(y, d, z, sizes, w_col)
    assert fit.estimate == pytest.approx(beta[1], abs=1e-10)
    assert fit.se == pytest.approx(math.sqrt(cov_model[1, 1]), abs=1e-10)
    assert fit_hw.se == pytest.approx(math.sqrt(cov_robust[1, 1]), abs=1e-10)


def test_irrelevant_w_leaves_point_estimate_unchanged(make_summaries):
    rng = np.random.default_rng(6)
    summaries = make_summaries(rng, n_clusters=9)
    y = summaries.y_bar
    d = summaries.d_bar
    z = summaries.z

    # Build w orthogonal to the base design and to both residualized outcomes,
    # so its fitted coefficient is zero in each stage.
    base = np.column_stack([np.ones(len(y)), z])
    proj = base @ np.linalg.lstsq(base, np.eye(len(y)), rcond=None)[0]

    def strip(v):
        return v - proj @ v

    d_t, y_t = strip(d), strip(y)
    v = strip(np.random.default_rng(7).normal(size=len(y)))
    for u in (d_t, y_t - (y_t @ d_t) / (d_t @ d_t) * d_t):
        v = v - (v @ u) / (u @ u) * u

    with_w = summaries._replace(w=v[:, None])
    plain = tsls(summaries, AnalysisOptions())
    adjusted = tsls(with_w, AnalysisOptions(adjust_w=True))
    assert adjusted.estimate == pytest.approx(plain.estimate, abs=1e-10)


def test_first_stage_f_deterministic_adherence_is_infinite():
    z = np.array([0, 0, 1, 1, 1])
    summaries = summaries_from_arrays(np.ones(5), z.astype(float), z)
    assert first_stage_f(summaries) == math.inf


def test_first_stage_f_null_instrument():
    z = np.array([0, 0, 1, 1])
    # Nobody treated anywhere: exact zero slope and zero residuals.
    summaries = summaries_from_arrays(np.ones(4), np.zeros(4), z)
    assert first_stage_f(summaries) == 0.0
    # Same adherence multiset in both arms: slope is numerically zero.
    balanced = summaries_from_arrays(
        np.array([1.0, 2.0, 3.0, 4.0]), np.array([0.2, 0.6, 0.2, 0.6]), z
    )
    assert first_stage_f(balanced) < 1e-16


def test_first_stage_f_fixture_is_squared_t():
    z = np.array([0, 0, 0, 1, 1, 1])
    d = np.array([0.0, 0.0, 0.0, 0.4, 0.5, 0.6])
    summaries = summaries_from_arrays(np.zeros(6), d, z)
    # Hand computation: slope 0.5, SSR 0.02, sigma2 0.005,
    # var = 0.005 * (1/3 + 1/3), F = 0.25 / 0.003333... = 75.
    assert first_stage_f(summaries) == pytest.approx(75.0, rel=1e-9)


def test_first_stage_f_equals_squared_t_oracle(make_summaries):
    rng = np.random.default_rng(8)
    for _ in range(50):
        summaries = make_summaries(rng)
        d = summaries.d_bar
        z = summaries.z
        n1, n0 = int((z == 1).sum()), int((z == 0).sum())
        gamma = d[z == 1].mean() - d[z == 0].mean()
        ssr = ((d[z == 1] - d[z == 1].mean()) ** 2).sum() + (
            (d[z == 0] - d[z == 0].mean()) ** 2
        ).sum()
        var = ssr / (len(d) - 2) * (1.0 / n1 + 1.0 / n0)
        assert first_stage_f(summaries) == pytest.approx(gamma**2 / var, rel=1e-10)


def test_mv_weight_limits_reproduce_cs_and_unweighted(make_summaries):
    rng = np.random.default_rng(9)
    summaries = make_summaries(rng, n_clusters=12)
    cs = tsls(summaries, AnalysisOptions(weights=Weights.CLUSTER_SIZE))
    mv0 = tsls(summaries, AnalysisOptions(weights=Weights.MIN_VARIANCE), icc=0.0)
    assert mv0.estimate == cs.estimate and mv0.se == cs.se
    plain = tsls(summaries, AnalysisOptions())
    mv1 = tsls(summaries, AnalysisOptions(weights=Weights.MIN_VARIANCE), icc=1.0)
    assert mv1.estimate == plain.estimate and mv1.se == plain.se


def test_weight_scale_invariance_of_estimate_and_hw_se(make_summaries):
    # Scaling all weights by a constant: cluster-size weights vs doubled sizes.
    rng = np.random.default_rng(10)
    summaries = make_summaries(rng, n_clusters=11)
    doubled = summaries._replace(n=2 * summaries.n)
    options = AnalysisOptions(weights=Weights.CLUSTER_SIZE, se_mode=SeMode.HUBER_WHITE)
    a = tsls(summaries, options)
    b = tsls(doubled, options)
    assert b.estimate == pytest.approx(a.estimate, abs=1e-12)
    assert b.se == pytest.approx(a.se, abs=1e-12)


def test_affine_outcome_equivariance(make_summaries):
    rng = np.random.default_rng(12)
    summaries = make_summaries(rng, n_clusters=15)
    a, b = 2.5, -1.7
    mapped = summaries._replace(y_bar=a + b * summaries.y_bar)
    for options in (AnalysisOptions(), AnalysisOptions(se_mode=SeMode.HUBER_WHITE)):
        base = tsls(summaries, options)
        moved = tsls(mapped, options)
        assert moved.estimate == pytest.approx(b * base.estimate, rel=1e-10)
        assert moved.se == pytest.approx(abs(b) * base.se, rel=1e-10)


def test_weak_denominator_raises():
    z = np.array([0, 0, 1, 1])
    summaries = summaries_from_arrays(
        np.array([1.0, 2.0, 3.0, 4.0]), np.array([0.2, 0.6, 0.2, 0.6]), z
    )
    with pytest.raises(WeakDenominator):
        tsls(summaries, AnalysisOptions())


def test_mv_without_icc_raises(make_summaries):
    rng = np.random.default_rng(13)
    summaries = make_summaries(rng)
    with pytest.raises(MissingIcc):
        tsls(summaries, AnalysisOptions(weights=Weights.MIN_VARIANCE))


@pytest.mark.parametrize("icc", [1.5, -0.1])
def test_a_fixed_icc_outside_the_unit_interval_is_refused(make_summaries, icc):
    summaries = make_summaries(np.random.default_rng(13))
    for fitter in (tsls, itt):
        with pytest.raises(MissingIcc, match=rf"^ICC must be in \[0, 1\], got {icc}$"):
            fitter(summaries, AnalysisOptions(weights=Weights.MIN_VARIANCE), icc=icc)
        # Cells without minimum-variance weights never read it.
        assert fitter(summaries, AnalysisOptions(), icc=icc) == fitter(summaries, AnalysisOptions())


def test_structural_residuals_use_actual_adherence(make_summaries):
    rng = np.random.default_rng(14)
    summaries = make_summaries(rng, n_clusters=10)
    y, d, z = summaries.y_bar, summaries.d_bar, summaries.z
    ones = np.ones(len(y))
    gamma = np.linalg.lstsq(np.column_stack([ones, z]), d, rcond=None)[0]
    x_hat = np.column_stack([ones, gamma[0] + gamma[1] * z])
    xtx_inv = np.linalg.inv(x_hat.T @ x_hat)
    beta = xtx_inv @ x_hat.T @ y

    def ses(resid):
        model = math.sqrt(resid @ resid / (len(y) - 2) * xtx_inv[1, 1])
        robust = math.sqrt((xtx_inv @ (x_hat.T * resid**2) @ x_hat @ xtx_inv)[1, 1])
        return model, robust

    structural = ses(y - np.column_stack([ones, d]) @ beta)
    stage_two = ses(y - x_hat @ beta)
    fitted = [tsls(summaries, AnalysisOptions(se_mode=mode)).se for mode in SeMode]
    assert fitted == pytest.approx(structural, abs=1e-12)
    # Residuals against the fitted first stage would give other SEs.
    for se, other in zip(fitted, stage_two):
        assert se != pytest.approx(other, abs=1e-8)


UNADJUSTED, ADJUSTED = ClOutcome


def test_grid_plan_needs_icc_only_for_estimated_mv_weights():
    dataset = generate(ScenarioConfig(n_clusters=10), 3).dataset
    cs = AnalysisOptions(weights=Weights.CLUSTER_SIZE)
    mv = AnalysisOptions(weights=Weights.MIN_VARIANCE)
    mv_w = AnalysisOptions(weights=Weights.MIN_VARIANCE, adjust_w=True)
    for cells, estimated in [
        ([(UNADJUSTED, cs), (ADJUSTED, AnalysisOptions())], set()),
        ([(UNADJUSTED, cs), (ADJUSTED, mv), (ADJUSTED, mv_w)], {ADJUSTED}),
        ([(ADJUSTED, mv_w)], {ADJUSTED}),
    ]:
        plan = GridPlan(cells)
        assert {outcome for outcome, needed in plan.needs_icc.items() if needed} == estimated
        summaries, icc = plan.summarise(dataset, (0,))
        assert set(summaries) == set(icc) == {outcome for outcome, _ in cells}
        assert {outcome for outcome, rho in icc.items() if rho is not None} == estimated
        # A fixed ICC becomes every outcome's.
        fixed_summaries, fixed = plan.summarise(dataset, (0,), icc=0.1)
        assert fixed == dict.fromkeys(icc, 0.1)
        assert fixed_summaries.keys() == summaries.keys()


def test_dataset_level_wrappers_match_manual_pipeline(make_dataset):
    rng = np.random.default_rng(15)
    rows = {
        f"c{i}": (
            i % 2,
            [
                (int(rng.integers(0, 2)) * (i % 2), float(rng.normal()), float(rng.normal()))
                for _ in range(int(rng.integers(3, 8)))
            ],
        )
        for i in range(10)
    }
    ds = validate(make_dataset(rows))
    options = AnalysisOptions(se_mode=SeMode.HUBER_WHITE, df_mode=DfMode.SMALL_SAMPLE)
    fit = late_from_dataset(ds, options)
    manual = tsls(cluster_means(ds), options)
    assert fit.estimate == manual.estimate and fit.se == manual.se
    summaries, icc = GridPlan([(UNADJUSTED, options)]).summarise(ds)
    assignment = itt(summaries[UNADJUSTED], options, icc=icc[UNADJUSTED])
    manual_itt = itt(cluster_means(ds), options)
    assert assignment.estimate == manual_itt.estimate


# --- the grid: every cell equals its own one-cell fit, faults included -------

FULL_GRID = [
    AnalysisOptions(weights, se_mode, df_mode, adjust_w)
    for adjust_w in (False, True)
    for weights in Weights
    for se_mode in SeMode
    for df_mode in DfMode
]


def damaged(summaries: Summaries, damage: str) -> Summaries:
    """``summaries`` with a fault that fails some cells of the grid."""
    if damage == "constant w":  # collinear with the intercept once w enters
        return summaries._replace(w=np.ones_like(summaries.w))
    if damage == "flat adherence":  # no first stage at all
        return summaries._replace(d_bar=np.full_like(summaries.d_bar, 0.5))
    return summaries


def same_cell(a, b):
    if isinstance(a, CrtivError):
        return type(a) is type(b) and str(a) == str(b)
    return a == b


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_clusters=st.sampled_from([3, 7, 20]),
    damage=st.sampled_from(["none", "constant w", "flat adherence"]),
    estimator=st.sampled_from(["late", "itt"]),
    rho=st.sampled_from([0.05, 0.2]),
)
@example(seed=0, n_clusters=3, damage="none", estimator="late", rho=0.05)  # J - p = 0 with w
@example(seed=0, n_clusters=20, damage="constant w", estimator="late", rho=0.05)
@example(seed=0, n_clusters=20, damage="flat adherence", estimator="late", rho=0.2)
def test_grid_cells_equal_their_one_cell_fits(seed, n_clusters, damage, estimator, rho):
    trial = generate(ScenarioConfig(n_clusters=n_clusters, sizes=PoissonSizes(8.0)), seed)
    columns = damaged(cluster_means(trial.dataset), damage)
    cells = [("o", options) for options in FULL_GRID]
    icc = {"o": rho}
    from_grid = GridPlan(cells).fit({"o": columns}, icc, estimator)
    assert len(from_grid) == len(cells)
    for cell, fit in zip(cells, from_grid):
        (alone,) = GridPlan([cell]).fit({"o": columns}, icc, estimator)
        assert same_cell(fit, alone), cell[1]
    # The faults land in the cells they belong to (given both arms).
    failed = {type(fit) for fit in from_grid if isinstance(fit, CrtivError)}
    both_arms = 0 < columns.z.sum() < n_clusters
    if damage == "constant w" and both_arms:
        assert RankDeficient in failed
    if damage == "flat adherence" and estimator == "late" and both_arms:
        assert WeakDenominator in failed
    # The df mode does not enter the fit: a small-sample cell equals its
    # normal-approximation twin.  With J=3 and w, J - p = 0: the cell is
    # fitted, and forming its interval fails in either df mode.
    fits = {options: fit for (_, options), fit in zip(cells, from_grid)}
    for options, fit in fits.items():
        assert same_cell(fit, fits[replace(options, df_mode=DfMode.NORMAL_APPROX)]), options
        if isinstance(fit, CrtivError):
            continue
        assert fit.n_params == (3 if options.adjust_w else 2)
        if n_clusters == 3 and options.adjust_w:
            with pytest.raises(DfNonPositive):
                iv.late_fit(fit, options, n_clusters)
        else:
            assert iv.late_fit(fit, options, n_clusters).estimate == fit.estimate
    if (seed, n_clusters, damage) == (0, 3, "none"):
        assert not failed


def test_small_sample_df_counts_clusters_not_fields():
    # A Summaries is a tuple of six fields; seven clusters must give J - p.
    trial = generate(ScenarioConfig(n_clusters=7, sizes=PoissonSizes(8.0)), 4)
    columns = cluster_means(trial.dataset)
    assert len(columns) == 6 and columns.n_clusters == 7
    for fitter in (tsls, itt):
        for adjust_w, n_params in ((False, 2), (True, 3)):
            options = AnalysisOptions(df_mode=DfMode.SMALL_SAMPLE, adjust_w=adjust_w)
            on_columns = fitter(columns, options)
            assert on_columns.df == 7 - n_params
            assert on_columns.n_clusters == 7


def test_no_summaries_is_an_empty_arm():
    summaries = Summaries((), *(np.empty(0) for _ in range(4)), np.empty((0, 0)))
    for estimate in (
        lambda: tsls(summaries, AnalysisOptions()),
        lambda: itt(summaries, AnalysisOptions()),
        lambda: first_stage_f(summaries),
        lambda: wald_late(summaries),
    ):
        with pytest.raises(EmptyArm):
            estimate()


ENTRY_POINTS = {
    "tsls": lambda summaries: tsls(summaries, AnalysisOptions()).estimate,
    "itt": lambda summaries: itt(summaries, AnalysisOptions()).estimate,
    "first_stage_f": first_stage_f,
    "wald_late": wald_late,
}


@pytest.mark.parametrize("column", ["n", "z", "d_bar", "y_bar"])
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_a_column_without_one_entry_per_cluster_is_named(make_summaries, entry, column):
    summaries = make_summaries(np.random.default_rng(6), n_clusters=50)
    values = getattr(summaries, column)
    for ragged in (values[:-1], list(values[:-1]), np.reshape(values, (-1, 1))):
        with pytest.raises(ValueError, match=f"summaries column {column} has shape"):
            ENTRY_POINTS[entry](summaries._replace(**{column: ragged}))
    # One entry per cluster answers, as a list too.
    assert math.isfinite(ENTRY_POINTS[entry](summaries._replace(**{column: list(values)})))


def test_an_interval_reads_the_critical_value_of_its_cell_bit_for_bit():
    # Each fitted cell of a block holds the parameter count of its design,
    # and late_fit forms its interval with the critical value of its (df
    # mode, cluster count, parameter count) as wls.critical_value gives it.
    # A cell with as many clusters as parameters is fitted, and forming its
    # interval raises the error wls.critical_value raises.  Summaries with
    # 0, 1 and 2 cluster covariates give 2 to 4 parameters.
    plan = GridPlan(
        ("o", AnalysisOptions(df_mode=df_mode, adjust_w=adjust_w))
        for adjust_w in (False, True)
        for df_mode in DfMode
    )
    rng = np.random.default_rng(17)
    shapes, items = [], []
    for n_clusters in range(2, 201):
        z = np.arange(n_clusters) % 2.0
        for width in (0, 1, 2):
            summaries = Summaries(
                ids=tuple(f"c{i:03d}" for i in range(n_clusters)),
                n=rng.integers(2, 80, n_clusters),
                z=z,
                d_bar=0.2 + 0.5 * z + rng.uniform(0.0, 0.2, n_clusters),
                y_bar=rng.normal(0.0, 1.0, n_clusters),
                w=rng.normal(0.0, 1.0, (n_clusters, width)),
            )
            shapes.append((n_clusters, width))
            items.append(({"o": summaries}, {"o": None}))
    for estimator in ("late", "itt"):
        fit = plan.fit_block(items, estimator)
        for k, (n_clusters, width) in enumerate(shapes):
            for c, (_, options) in enumerate(plan.cells):
                cell = fit[k][c]
                if options.adjust_w and not width:
                    assert type(cell) is CovariateShapeMismatch
                    assert cell.__traceback__ is None
                    continue
                n_params = 2 + width if options.adjust_w else 2
                if n_clusters < n_params:
                    assert type(cell) is RankDeficient
                    assert cell.__traceback__ is None
                    continue
                assert cell.n_params == fit.n_params[k, c] == n_params
                if n_clusters == n_params:
                    with pytest.raises(DfNonPositive) as expected:
                        wls.critical_value(options.df_mode, n_clusters, n_params)
                    with pytest.raises(DfNonPositive) as raised:
                        iv.late_fit(cell, options, n_clusters)
                    assert str(raised.value) == str(expected.value)
                else:
                    crit, df = wls.critical_value(options.df_mode, n_clusters, n_params)
                    reported = iv.late_fit(cell, options, n_clusters)
                    half = crit * cell.se
                    assert reported.ci == (cell.estimate - half, cell.estimate + half)
                    assert reported.df == df


def test_a_first_stage_without_residual_df_is_an_exact_fit():
    # J = 2 leaves no residual degrees of freedom, so the model variance is
    # 0 even where rounding leaves residuals above the exact-fit tolerance.
    z = np.array([0, 1])
    steep = summaries_from_arrays(np.zeros(2), [0.3, 1e6], z)
    flat = summaries_from_arrays(np.zeros(2), [0.3, 0.3], z)
    assert first_stage_f(steep) == math.inf
    assert first_stage_f(flat) == 0.0
    assert iv.first_stage_fs([steep, flat]) == [math.inf, 0.0]
    assert dgp.screen_block([steep, flat]) == [True, False]
    # A slope past the float range is no exact fit's: a typed error.
    overflowed = summaries_from_arrays(np.zeros(2), [-1e308, 1e308], z)
    with pytest.raises(NonFiniteValue, match="^first-stage slope is not finite: inf$"):
        first_stage_f(overflowed)
    assert type(iv.first_stage_fs([overflowed])[0]) is NonFiniteValue
    assert dgp.screen_block([overflowed]) == [False]


def test_a_first_stage_variance_that_overflows_is_a_typed_error():
    # Adherence fractions past any real trial's: the slope is finite, and
    # the residual sum of squares behind its variance overflows.
    summaries = summaries_from_arrays(
        np.zeros(6), [0.0, 1e200, 1e-3, 1.0000001e200, 0.0, 1e200], [0, 1, 0, 1, 0, 1]
    )
    with pytest.raises(NonFiniteValue, match="^first-stage variance is not finite: inf$"):
        first_stage_f(summaries)
    assert type(iv.first_stage_fs([summaries])[0]) is NonFiniteValue
    assert dgp.screen_block([summaries]) == [False]
    # A finite variance whose F passes the largest float reads as an exact fit.
    strong = summaries_from_arrays(np.zeros(5), [1e160, 1.0, 0.0, 0.0, 0.0], [1, 0, 0, 0, 0])
    assert first_stage_f(strong) == math.inf


_HUGE = st.floats(min_value=-1e308, max_value=1e308)
EVERY_OPTIONS = [replace(o, adjust_w=a) for o in ALL_OPTION_COMBOS for a in (False, True)]


@st.composite
def extreme_summaries(draw):
    """Summaries of 2 to 8 clusters of 1 to 50 records, with finite columns
    up to the float limit: d_bar in [0, 1] or up to +-1e308, y_bar and a
    J x q w (q from 0 to 2) up to +-1e308.  Either arm may be empty."""
    j, q = draw(st.integers(2, 8)), draw(st.integers(0, 2))

    def column(values, size=j):
        return np.array(draw(st.lists(values, min_size=size, max_size=size)))

    return Summaries(
        ids=tuple(f"c{i}" for i in range(j)),
        n=column(st.integers(1, 50)),
        z=column(st.sampled_from([0.0, 1.0])),
        d_bar=column(draw(st.sampled_from([st.floats(0.0, 1.0), _HUGE]))),
        y_bar=column(_HUGE),
        w=column(_HUGE, j * q).reshape(j, q).astype(float),
    )


def _answer_or_typed_error(call, *args):
    """``call(*args)``, or the package error it raised."""
    try:
        return call(*args)
    except CrtivError as exc:
        return exc


# The suite runs with warnings as errors: an overflow on the way to an
# answer or a typed error must stay silent, in the library as on the
# command line.
@settings(max_examples=200, deadline=None)
@example(  # a first-stage slope past the float range, with no residual df
    summaries=Summaries(
        ids=("c0", "c1"),
        n=np.ones(2),
        z=np.array([0.0, 1.0]),
        d_bar=np.array([-1e308, 1e308]),
        y_bar=np.zeros(2),
        w=np.zeros((2, 0)),
    ),
    icc=None,
    options=EVERY_OPTIONS[0],
)
@example(  # a first-stage slope past the float range
    summaries=Summaries(
        ids=("c0", "c1", "c2"),
        n=np.ones(3),
        z=np.array([0.0, 0.0, 1.0]),
        d_bar=np.array([-1e308, -1e308, 1e308]),
        y_bar=np.zeros(3),
        w=np.zeros((3, 0)),
    ),
    icc=None,
    options=EVERY_OPTIONS[0],
)
@given(
    summaries=extreme_summaries(),
    icc=st.none() | st.floats(0.0, 1.0),
    options=st.sampled_from(EVERY_OPTIONS),
)
def test_extreme_summaries_end_in_an_answer_or_a_typed_error_per_cell(summaries, icc, options):
    plan = GridPlan([(0, o) for o in EVERY_OPTIONS])
    for estimator in ("late", "itt"):
        for cell in plan.fit({0: summaries}, {0: icc}, estimator):
            assert isinstance(cell, CrtivError) or (
                math.isfinite(cell.estimate) and math.isfinite(cell.se)
            )
    (f_stat,) = iv.first_stage_fs([summaries])
    assert isinstance(f_stat, CrtivError) or f_stat >= 0.0
    if f_stat == math.inf:  # an exact fit or a huge F, of a finite slope
        wls.fit_wls(np.column_stack([np.ones(len(summaries.z)), summaries.z]), summaries.d_bar)
    assert isinstance(_answer_or_typed_error(wald_late, summaries), (float, CrtivError))
    for fitter in (tsls, itt):
        fit = _answer_or_typed_error(fitter, summaries, options, icc)
        assert isinstance(fit, (LateFit, CrtivError))
