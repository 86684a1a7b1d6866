import math

import numpy as np
import pytest
from scipy import stats
from scipy.linalg import solve_triangular

from crtiv.errors import DfNonPositive, NonFiniteValue, NonPositiveWeight, RankDeficient
from crtiv.model import DfMode
from crtiv.wls import _back_substitute, critical_value, fit_wls, inference, mv_weights, solve


def oracle_wls(design, response, weights):
    """Explicit normal-equation / sandwich arithmetic, no QR anywhere."""
    w = np.asarray(weights, dtype=float)
    xtwx = design.T @ (design * w[:, None])
    xtwx_inv = np.linalg.inv(xtwx)
    beta = xtwx_inv @ design.T @ (w * response)
    resid = response - design @ beta
    n, p = design.shape
    sigma2 = float(w @ resid**2) / (n - p)
    cov_model = sigma2 * xtwx_inv
    meat = design.T @ (design * (w**2 * resid**2)[:, None])
    cov_robust = xtwx_inv @ meat @ xtwx_inv
    return beta, cov_model, cov_robust


def random_instance(rng, n=None, p=None):
    n = n or int(rng.integers(6, 30))
    p = p or int(rng.integers(2, min(5, n - 1)))
    design = np.column_stack([np.ones(n), rng.normal(size=(n, p - 1))])
    response = rng.normal(size=n)
    weights = rng.uniform(0.2, 5.0, n)
    return design, response, weights


def test_exact_fit_has_zero_residuals_and_model_cov():
    x = np.arange(6, dtype=float)
    design = np.column_stack([np.ones(6), x])
    response = 2.0 + 3.0 * x
    fit = fit_wls(design, response)
    assert np.allclose(fit.residuals, 0.0, atol=1e-12)
    assert np.allclose(fit.cov_model, 0.0, atol=1e-24)
    assert np.allclose(fit.coefficients, [2.0, 3.0], atol=1e-12)


def test_weight_scale_invariance():
    rng = np.random.default_rng(42)
    for _ in range(50):
        design, response, weights = random_instance(rng)
        base = fit_wls(design, response, weights)
        scaled = fit_wls(design, response, 3.7 * weights)
        assert np.allclose(base.coefficients, scaled.coefficients, atol=1e-12)
        assert np.allclose(base.cov_model, scaled.cov_model, rtol=1e-10, atol=1e-14)
        assert np.allclose(base.cov_robust, scaled.cov_robust, rtol=1e-10, atol=1e-14)


def test_five_point_fixture_matches_closed_form():
    x = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    y = np.array([1.1, 1.9, 3.2, 3.9, 5.1])
    slope = ((x - x.mean()) @ (y - y.mean())) / ((x - x.mean()) @ (x - x.mean()))
    intercept = y.mean() - slope * x.mean()
    fit = fit_wls(np.column_stack([np.ones(5), x]), y)
    assert fit.coefficients[0] == pytest.approx(intercept, abs=1e-12)
    assert fit.coefficients[1] == pytest.approx(slope, abs=1e-12)


def test_unit_weights_reproduce_ols_oracle():
    rng = np.random.default_rng(7)
    for _ in range(100):
        design, response, _ = random_instance(rng)
        ones = np.ones(len(response))
        fit = fit_wls(design, response)
        beta, cov_model, cov_robust = oracle_wls(design, response, ones)
        assert np.allclose(fit.coefficients, beta, atol=1e-10)
        assert np.allclose(fit.cov_model, cov_model, atol=1e-10)
        assert np.allclose(fit.cov_robust, cov_robust, atol=1e-10)


def test_weighted_fit_matches_oracle():
    rng = np.random.default_rng(8)
    for _ in range(100):
        design, response, weights = random_instance(rng)
        fit = fit_wls(design, response, weights)
        beta, cov_model, cov_robust = oracle_wls(design, response, weights)
        assert np.allclose(fit.coefficients, beta, atol=1e-10)
        assert np.allclose(fit.cov_model, cov_model, atol=1e-10)
        assert np.allclose(fit.cov_robust, cov_robust, atol=1e-10)


def test_covariances_symmetric_psd():
    rng = np.random.default_rng(9)
    design, response, weights = random_instance(rng, n=20, p=3)
    fit = fit_wls(design, response, weights)
    for cov in (fit.cov_model, fit.cov_robust):
        assert np.allclose(cov, cov.T)
        assert np.linalg.eigvalsh(cov).min() > -1e-12


def test_rank_deficient_design_rejected():
    n = 10
    x = np.ones(n)
    design = np.column_stack([np.ones(n), x])  # duplicate of intercept
    with pytest.raises(RankDeficient):
        fit_wls(design, np.zeros(n))
    with pytest.raises(RankDeficient):
        fit_wls(np.ones((2, 3)), np.zeros(2))  # n < p
    with pytest.raises(RankDeficient, match="^design matrix is rank deficient$"):
        fit_wls(np.empty((4, 0)), np.zeros(4))  # no columns


def test_nonpositive_weights_rejected():
    design = np.column_stack([np.ones(4), np.arange(4.0)])
    y = np.zeros(4)
    for bad in (0.0, -1.0, 1e-13):
        # The minimum prints as a Python float, not as numpy's repr.
        message = rf"^weights must exceed 1e-12; minimum was {bad}$"
        with pytest.raises(NonPositiveWeight, match=message):
            fit_wls(design, y, np.array([1.0, 1.0, 1.0, bad]))


def test_fit_wls_refuses_inputs_of_the_wrong_shape():
    design = np.column_stack([np.ones(4), np.arange(4.0)])
    y = np.arange(4.0)
    with pytest.raises(ValueError, match="^design must be a 2-D array$"):
        fit_wls(np.ones(4), y)
    with pytest.raises(ValueError, match=r"^response shape \(3,\) does not match design rows 4$"):
        fit_wls(design, y[:3])
    with pytest.raises(ValueError, match="^one weight per observation required$"):
        fit_wls(design, y, np.ones(3))


def test_inference_refuses_a_negative_standard_error():
    with pytest.raises(ValueError, match="^standard error must be nonnegative$"):
        inference(0.5, -1e-9, DfMode.NORMAL_APPROX, 10, 2)


def test_mv_weights_formula_and_limits():
    sizes = np.arange(1, 10_001)
    assert np.array_equal(mv_weights(sizes, 0.0), sizes.astype(float))
    assert np.array_equal(mv_weights(sizes, 1.0), np.ones(10_000))
    assert mv_weights([20], 0.05)[0] == pytest.approx(20.0 / 1.95, abs=1e-12)
    with pytest.raises(ValueError):
        mv_weights([5], 1.5)
    with pytest.raises(ValueError):
        mv_weights([0], 0.2)


def test_inference_zero_se_degenerates():
    res = inference(0.3, 0.0, DfMode.NORMAL_APPROX, 10, 2)
    assert res.ci_low == res.ci_high == 0.3
    assert res.p_value == 0.0
    null = inference(0.0, 0.0, DfMode.SMALL_SAMPLE, 10, 2)
    assert null.p_value == 1.0


def test_small_sample_interval_strictly_wider():
    normal = inference(0.5, 0.2, DfMode.NORMAL_APPROX, 10, 2)
    small = inference(0.5, 0.2, DfMode.SMALL_SAMPLE, 10, 2)
    assert small.df == 8
    assert small.ci_low < normal.ci_low < normal.ci_high < small.ci_high
    assert small.p_value > normal.p_value


def test_interval_width_ratio_is_quantile_ratio():
    for df in (3, 8, 30, 114):
        normal = inference(1.0, 0.37, DfMode.NORMAL_APPROX, df + 2, 2)
        small = inference(1.0, 0.37, DfMode.SMALL_SAMPLE, df + 2, 2)
        ratio = (small.ci_high - small.ci_low) / (normal.ci_high - normal.ci_low)
        expected = stats.t.ppf(0.975, df) / stats.norm.ppf(0.975)
        assert ratio == pytest.approx(expected, rel=1e-14)


def test_df_nonpositive_under_small_sample():
    with pytest.raises(DfNonPositive):
        inference(0.1, 0.1, DfMode.SMALL_SAMPLE, 2, 2)


def test_no_residual_df_fails_under_either_df_mode():
    # J <= p leaves zero residuals, so no standard error to build an interval on.
    for mode in DfMode:
        for n_clusters in (1, 2):
            with pytest.raises(DfNonPositive):
                critical_value(mode, n_clusters, 2)
    assert critical_value(DfMode.NORMAL_APPROX, 3, 2)[1] == math.inf


def test_interval_widening_at_114_df():
    # Risk-difference point estimate with a normal 95% CI of (-0.006, 0.305);
    # t(114) inference should widen it to roughly (-0.009, 0.308).
    coef = 0.1495
    se = (0.305 - (-0.006)) / 2.0 / stats.norm.ppf(0.975)
    normal = inference(coef, se, DfMode.NORMAL_APPROX, 116, 2)
    small = inference(coef, se, DfMode.SMALL_SAMPLE, 116, 2)
    assert small.df == 114
    assert normal.ci_low == pytest.approx(-0.006, abs=5e-4)
    assert normal.ci_high == pytest.approx(0.305, abs=5e-4)
    assert small.ci_low == pytest.approx(-0.009, abs=2e-3)
    assert small.ci_high == pytest.approx(0.308, abs=2e-3)
    assert small.ci_low < normal.ci_low and small.ci_high > normal.ci_high


# The quantiles and p-values come from scipy.special; scipy.stats, which
# calls the same functions, is the oracle and must agree to the last bit.


@pytest.mark.parametrize("level", [0.9, 0.95, 0.99])
def test_critical_values_equal_scipy_stats_bit_for_bit(level):
    q = 0.5 + level / 2.0
    crit, df = critical_value(DfMode.NORMAL_APPROX, 10, 2, level)
    assert (crit.hex(), df) == (float(stats.norm.ppf(q)).hex(), math.inf)
    dfs = np.arange(1, 2001)
    expected = [float(v).hex() for v in stats.t.ppf(q, dfs)]
    got = []
    for df in dfs.tolist():
        crit, crit_df = critical_value(DfMode.SMALL_SAMPLE, df + 3, 3, level)
        assert crit_df == df
        got.append(crit.hex())
    assert got == expected


T_RATIOS = [0.0, 5e-324, 1e-8, 1.96, 40.0, 1e300, math.inf, math.nan]


@pytest.mark.parametrize("df", [None, 1, 2, 3, 7, 28, 48, 197])
def test_inference_p_values_equal_scipy_stats_bit_for_bit(df):
    rng = np.random.default_rng(20)
    spread = (rng.standard_normal(400) * 10.0 ** rng.uniform(-4, 2, 400)).tolist()
    mode = DfMode.NORMAL_APPROX if df is None else DfMode.SMALL_SAMPLE
    n_params = 2
    n_clusters = 10 if df is None else df + n_params
    crit = stats.norm.ppf(0.975) if df is None else stats.t.ppf(0.975, df)
    for t in T_RATIOS + [-t for t in T_RATIOS] + spread:
        res = inference(t, 1.0, mode, n_clusters, n_params)
        tail = stats.norm.sf(abs(t)) if df is None else stats.t.sf(abs(t), df)
        assert res.p_value.hex() == (2.0 * float(tail)).hex(), t
        assert res.ci_low.hex() == (t - float(crit)).hex(), t
        assert res.ci_high.hex() == (t + float(crit)).hex(), t


# The regression core back-substitutes in numpy and stacks its
# factorisations.  scipy.linalg.solve_triangular, test-only, is the oracle
# of the back-substitution: bit for bit for the coefficients at p <= 2,
# within a stated tolerance elsewhere; a scalar loop pins its summation
# order.  A stack's every result equals its per-matrix or one-problem call
# to the last bit.

# Largest difference from the oracle, relative to the oracle's largest
# entry: 9 machine epsilons; the worst of the 300 problems of each shape
# below is 2.1 (4.7e-16, at n = p = 4).
BACK_SUBSTITUTION_RTOL = 2e-15


def scaled_systems(n, p, count, seed):
    """Seeded sqrt-weight-scaled designs and responses, as the core forms them."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        design = np.column_stack([np.ones(n), rng.normal(size=(n, p - 1))])
        sqrt_w = np.sqrt(rng.uniform(0.2, 40.0, n))
        yield sqrt_w[:, None] * design, sqrt_w * rng.normal(size=n)


def textbook_back_substitution(r, b):
    """``r x = b`` in Python floats: row ``i`` is ``(b_i - sum_{j>i} r_ij
    x_j) / r_ii``, the sum in increasing ``j``."""
    x = [0.0] * len(b)
    for i in reversed(range(len(b))):
        x[i] = (b[i] - sum(r[i][j] * x[j] for j in range(i + 1, len(b)))) / r[i][i]
    return x


@pytest.mark.parametrize("n, p", [(50, 2), (50, 3), (3, 2), (3, 3), (50, 4), (4, 4)])
def test_back_substitution_matches_solve_triangular(n, p):
    a, b = map(np.array, zip(*scaled_systems(n, p, 300, seed=100 * n + p)))
    q, r = np.linalg.qr(a)
    qtb = q.transpose(0, 2, 1) @ b[:, :, None]
    eye = np.eye(p)
    coefficients = _back_substitute(r, qtb)
    r_inv = _back_substitute(r, np.broadcast_to(eye, r.shape))
    for k in range(len(r)):
        oracle = solve_triangular(r[k], qtb[k])
        if p <= 2:
            assert coefficients[k].tobytes() == oracle.tobytes()
        textbook = textbook_back_substitution(r[k].tolist(), qtb[k, :, 0].tolist())
        assert coefficients[k, :, 0].tolist() == textbook
        for got, want in ((coefficients[k], oracle), (r_inv[k], solve_triangular(r[k], eye))):
            assert np.abs(got - want).max() <= BACK_SUBSTITUTION_RTOL * np.abs(want).max()


@pytest.mark.parametrize("p", [2, 3])
def test_stacked_qr_and_qtb_equal_the_per_matrix_calls(p):
    rng = np.random.default_rng(p)
    for _ in range(60):
        k = int(rng.integers(1, 9))
        a, b = map(np.array, zip(*scaled_systems(50, p, k, seed=int(rng.integers(2**32)))))
        q, r = np.linalg.qr(a)
        qtb = q.transpose(0, 2, 1) @ b[:, :, None]
        eye = np.broadcast_to(np.eye(p), r.shape)
        coefficients, r_inv = _back_substitute(r, qtb), _back_substitute(r, eye)
        for i in range(k):
            q_i, r_i = np.linalg.qr(a[i])
            assert q[i].tobytes() == q_i.tobytes()
            assert r[i].tobytes() == r_i.tobytes()
            assert qtb[i, :, 0].tobytes() == (q_i.T @ b[i]).tobytes()
            # A stack's back-substitution is each one-problem stack's.
            one = slice(i, i + 1)
            assert coefficients[i].tobytes() == _back_substitute(r[one], qtb[one])[0].tobytes()
            assert r_inv[i].tobytes() == _back_substitute(r[one], eye[one])[0].tobytes()


def test_solve_keeps_each_problems_failure_to_itself():
    rng = np.random.default_rng(3)
    good = [np.column_stack([np.ones(8), rng.normal(size=8)]) for _ in range(3)]
    collinear = np.column_stack([np.ones(8), np.ones(8)])
    # A stack of five 8 x 2 problems and a stack of one 1 x 2 problem.
    designs = [np.array([good[0], collinear, good[1], good[2], good[0]]), np.ones((1, 1, 2))]
    responses = [rng.normal(size=x.shape[:2]) for x in designs]
    responses[0][3] = np.inf
    weights = [np.ones(x.shape[:2]) for x in designs]
    weights[0][4] = 0.0
    # One solve per stack.
    solved = [solve(x, y, w) for x, y, w in zip(designs, responses, weights)]
    errors = [{row: type(err) for row, err in s.errors.items()} for s in solved]
    assert errors == [
        {1: RankDeficient, 3: NonFiniteValue, 4: NonPositiveWeight},
        {0: RankDeficient},
    ]
    # Each stack's fit holds exactly its fitted problems, in input order.
    assert [s.rows.tolist() for s in solved] == [[0, 2], []]
    assert solved[1].fit is None
    rows, stack, _ = solved[0]
    for row, i in enumerate(rows.tolist()):
        alone = fit_wls(designs[0][i], responses[0][i])
        assert stack.coefficients[row].tobytes() == alone.coefficients.tobytes()
        assert stack.r[row].tobytes() == alone.r.tobytes()
        residuals = responses[0][i] - designs[0][i] @ stack.coefficients[row]
        assert stack.residuals[row].tobytes() == residuals.tobytes()


def test_non_finite_inputs_raise_a_typed_error():
    design = np.column_stack([np.ones(5), np.arange(5.0)])
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(NonFiniteValue):
            fit_wls(design, np.array([1.0, 2.0, bad, 4.0, 5.0]))
        broken = design.copy()
        broken[2, 1] = bad
        with pytest.raises((NonFiniteValue, RankDeficient)):
            fit_wls(broken, np.arange(5.0))
    # Finite inputs whose slope overflows: no warning, then a typed error.
    with pytest.raises(NonFiniteValue, match="^regression coefficients are not finite$"):
        fit_wls([[1, 0], [1, 0], [1, 1]], [-1e308, -1e308, 1e308])
