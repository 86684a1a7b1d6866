import subprocess
import sys
from dataclasses import astuple

import numpy as np
import pytest
from scipy.special import expit

from conftest import KERNEL_FLAGS, cpu_has, kernel_env
from crtiv import collapse
from crtiv.collapse import (
    anova_icc,
    binary_residuals,
    cluster_means,
    continuous_residuals,
    summaries_from_values,
)
from crtiv.errors import (
    NoCovariatesSelected,
    RankDeficientDesign,
    SeparationDetected,
)
from crtiv.iv import late_from_dataset, tsls
from crtiv.model import AnalysisOptions, Columns, OutcomeKind, TrialDataset, validate


def test_simple_means(make_dataset):
    ds = make_dataset(
        {"a": (1, [(1, 1.0), (1, 0.0), (0, 1.0), (0, 0.0)]), "b": (0, [(0, 2.0)])}
    )
    summaries = cluster_means(validate(ds))
    a, b = summaries.ids.index("a"), summaries.ids.index("b")
    assert summaries.y_bar[a] == 0.5
    assert summaries.d_bar[a] == 0.5
    assert summaries.n[a] == 4
    assert summaries.y_bar[b] == 2.0


def test_perfect_adherence_dbar_equals_assignment(make_dataset):
    ds = make_dataset({"a": (1, [(1, 0.3), (1, 1.2)]), "b": (0, [(0, 0.1)])})
    summaries = cluster_means(validate(ds))
    assert np.array_equal(summaries.d_bar, summaries.z)


def test_means_match_bruteforce_oracle(make_dataset):
    rng = np.random.default_rng(5)
    rows = {
        "p": (0, [(int(rng.integers(0, 2)), float(v)) for v in rng.normal(size=3)]),
        "q": (1, [(int(rng.integers(0, 2)), float(v)) for v in rng.normal(size=5)]),
    }
    ds = validate(make_dataset(rows))
    summaries = cluster_means(ds)
    for cid, (_, recs) in rows.items():
        y_sum = sum(r[1] for r in recs)
        d_sum = sum(r[0] for r in recs)
        k = summaries.ids.index(cid)
        assert summaries.y_bar[k] == pytest.approx(y_sum / len(recs), abs=1e-15)
        assert summaries.d_bar[k] == pytest.approx(d_sum / len(recs), abs=1e-15)


def test_order_invariance(make_dataset):
    rng = np.random.default_rng(11)
    ds = make_dataset(
        {
            f"c{i}": (i % 2, [(0, float(v)) for v in rng.normal(size=4)])
            for i in range(6)
        }
    )
    base = cluster_means(ds)
    cols = ds.columns()
    order = rng.permutation(ds.n_records)
    shuffled = Columns.from_codes(
        cols.cluster_ids, *(v[order] for v in (cols.codes, cols.z, cols.d, cols.y, cols.x))
    )
    permuted = cluster_means(TrialDataset(shuffled, outcome_kind=ds.outcome_kind))
    assert base.ids == permuted.ids
    for a, b in zip(base[1:], permuted[1:]):
        assert np.array_equal(a, b)


def test_adjust_continuous_rank_deficient(make_dataset):
    ds = make_dataset(
        {"a": (0, [(0, 1.0, 2.0), (0, 2.0, 2.0)]), "b": (1, [(1, 3.0, 2.0)])}
    )
    with pytest.raises(RankDeficientDesign):
        summaries_from_values(ds, continuous_residuals(ds, (0,)))


def test_adjust_continuous_requires_covariates(make_dataset):
    ds = make_dataset({"a": (0, [(0, 1.0, 0.5)]), "b": (1, [(1, 2.0, 1.5)])})
    with pytest.raises(NoCovariatesSelected):
        summaries_from_values(ds, continuous_residuals(ds, ()))
    with pytest.raises(NoCovariatesSelected):
        summaries_from_values(ds, continuous_residuals(ds, (3,)))


def test_zero_coefficient_adjustment_is_intercept_shift(make_dataset):
    # x paired so that sum((x - xbar) * y) is exactly zero: slope estimate 0.
    ds = make_dataset(
        {
            "a": (0, [(0, 3.0, 1.0), (0, 3.0, -1.0)]),
            "b": (1, [(1, 5.0, 2.0), (1, 5.0, -2.0)]),
            "c": (0, [(0, 4.0, 0.0)]),
            "d": (1, [(1, 7.0, 0.0)]),
        }
    )
    validate(ds)
    adjusted = summaries_from_values(ds, continuous_residuals(ds, (0,)))
    grand_mean = np.mean(ds.columns().y)
    raw = cluster_means(ds)
    assert adjusted.y_bar == pytest.approx(raw.y_bar - grand_mean, abs=1e-12)
    assert np.array_equal(adjusted.d_bar, raw.d_bar)
    base = tsls(cluster_means(ds), AnalysisOptions())
    shifted = tsls(adjusted, AnalysisOptions())
    assert shifted.estimate == pytest.approx(base.estimate, abs=1e-10)
    assert shifted.se == pytest.approx(base.se, abs=1e-10)


def test_adjustment_matches_hand_normal_equations(make_dataset):
    ds = make_dataset(
        {
            "a": (0, [(0, 1.0, 0.2), (0, 2.0, 0.7)]),
            "b": (1, [(1, 1.5, -0.4), (1, 3.0, 1.1), (1, 2.5, 0.9)]),
            "c": (0, [(0, 0.5, -1.0)]),
        }
    )
    validate(ds)
    cols = ds.columns()
    y, x = cols.y, cols.x[:, 0]
    n = len(y)
    # 2x2 normal equations solved by hand (Cramer's rule).
    sx, sxx, sy, sxy = x.sum(), (x * x).sum(), y.sum(), (x * y).sum()
    det = n * sxx - sx * sx
    intercept = (sxx * sy - sx * sxy) / det
    slope = (n * sxy - sx * sy) / det
    resid = y - intercept - slope * x

    expected = {}
    for cid in ("a", "b", "c"):
        mask = cols.codes == cols.cluster_ids.index(cid)
        expected[cid] = resid[mask].mean()
    summaries = summaries_from_values(ds, continuous_residuals(ds, (0,)))
    for cid, y_bar in zip(summaries.ids, summaries.y_bar):
        assert y_bar == pytest.approx(expected[cid], abs=1e-12)


def test_adjusted_residual_means_weighted_to_zero(make_dataset):
    rng = np.random.default_rng(3)
    rows = {
        f"c{i}": (
            i % 2,
            [
                (int(rng.integers(0, 2)), float(rng.normal()), float(rng.normal()))
                for _ in range(int(rng.integers(2, 7)))
            ],
        )
        for i in range(8)
    }
    ds = validate(make_dataset(rows))
    s = summaries_from_values(ds, continuous_residuals(ds, (0,)))
    total = sum(s.n * s.y_bar)
    assert abs(total) < 1e-10


def test_binary_intercept_only_score_identity(make_dataset):
    rng = np.random.default_rng(13)
    rows = {
        f"c{i}": (
            i % 2,
            [(0, float(rng.integers(0, 2))) for _ in range(int(rng.integers(3, 9)))],
        )
        for i in range(6)
    }
    ds = validate(make_dataset(rows, outcome_kind=OutcomeKind.BINARY))
    summaries = summaries_from_values(ds, binary_residuals(ds, ()))
    assert abs(sum(summaries.n * summaries.y_bar)) < 1e-8


def test_binary_intercept_and_covariate_score_identity(make_dataset):
    rng = np.random.default_rng(14)
    rows = {
        f"c{i}": (
            i % 2,
            [
                (0, float(rng.integers(0, 2)), float(rng.normal()))
                for _ in range(int(rng.integers(3, 9)))
            ],
        )
        for i in range(6)
    }
    ds = validate(make_dataset(rows, outcome_kind=OutcomeKind.BINARY))
    summaries = summaries_from_values(ds, binary_residuals(ds, (0,)))
    assert abs(sum(summaries.n * summaries.y_bar)) < 1e-8


def test_perfect_prediction_limit_gives_zero_residual_means(make_dataset):
    # A hypothetical fit with p_hat identically equal to y collapses to zeros.
    ds = make_dataset(
        {"a": (0, [(0, 1.0), (0, 0.0)]), "b": (1, [(1, 1.0)])},
        outcome_kind=OutcomeKind.BINARY,
    )
    y = ds.columns().y
    assert (summaries_from_values(ds, y - y).y_bar == 0.0).all()


def separated_dataset(make_dataset, units=1.0):
    # x sign perfectly predicts y: the MLE runs off to infinity.
    return make_dataset(
        {
            "a": (0, [(0, 0.0, -2.0 * units), (0, 0.0, -1.0 * units), (0, 0.0, -0.5 * units)]),
            "b": (1, [(1, 1.0, 0.5 * units), (1, 1.0, 1.0 * units), (1, 1.0, 2.0 * units)]),
        },
        outcome_kind=OutcomeKind.BINARY,
    )


def test_separation_detected(make_dataset):
    ds = separated_dataset(make_dataset)
    with pytest.raises(SeparationDetected):
        summaries_from_values(ds, binary_residuals(ds, (0,)))


# Separation is judged in units of the linear predictor, whatever x's units.
@pytest.mark.parametrize("units", [1e-3, 1e3])
def test_separation_detected_whatever_the_units_of_x(make_dataset, units):
    ds = separated_dataset(make_dataset, units)
    with pytest.raises(SeparationDetected):
        summaries_from_values(ds, binary_residuals(ds, (0,)))


def binary_trial(x_units=1.0):
    """A 30-cluster trial of 40 records each whose binary outcome depends on
    one covariate, given in ``x_units``: ``y ~ Bernoulli(expit(0.2 + 0.5 x))``
    for the unit-scale ``x ~ N(0, 1)``."""
    rng = np.random.default_rng(7)
    n_clusters, size = 30, 40
    codes = np.repeat(np.arange(n_clusters), size)
    z = (np.arange(n_clusters) % 2)[codes]
    d = (rng.random(len(codes)) < 0.3 + 0.5 * z).astype(int)
    x = rng.normal(size=len(codes))
    y = (rng.random(len(codes)) < expit(0.2 + 0.5 * x)).astype(float)
    ids = [f"c{j:02d}" for j in range(n_clusters)]
    columns = Columns.from_codes(ids, codes, z, d, y, (x * x_units)[:, None])
    return TrialDataset(columns, OutcomeKind.BINARY)


# Convergence and separation are judged in units of the linear predictor, so
# a covariate's units do not decide whether the fit answers, nor its answer.
@pytest.mark.parametrize("power", range(-3, 7))
def test_the_logistic_adjustment_does_not_depend_on_the_units_of_x(power):
    unit, scaled = binary_trial(), binary_trial(10.0**power)
    residuals = binary_residuals(scaled, (0,))
    assert np.allclose(residuals, binary_residuals(unit, (0,)), rtol=0, atol=1e-13)
    options = AnalysisOptions()
    expected = late_from_dataset(unit, options, (0,))
    fit = late_from_dataset(scaled, options, (0,))
    assert fit.estimate == pytest.approx(expected.estimate, rel=1e-12)
    assert fit.se == pytest.approx(expected.se, rel=1e-12)


def irls_logistic(design, y, tol=1e-12, max_iter=200):
    """Independent iteratively-reweighted least squares fit."""
    beta = np.zeros(design.shape[1])
    for _ in range(max_iter):
        eta = design @ beta
        p = expit(eta)
        w = p * (1 - p)
        zvar = eta + (y - p) / w
        wx = design * w[:, None]
        new = np.linalg.solve(design.T @ wx, wx.T @ zvar)
        if np.max(np.abs(new - beta)) < tol:
            return new
        beta = new
    return beta


def test_binary_adjustment_matches_irls_oracle(make_dataset):
    rng = np.random.default_rng(21)
    rows = {}
    for i in range(8):
        cluster = []
        for _ in range(int(rng.integers(4, 10))):
            x1, x2 = rng.normal(), rng.normal()
            prob = expit(0.3 + 0.8 * x1 - 0.5 * x2)
            cluster.append((0, float(rng.random() < prob), x1, x2))
        rows[f"c{i}"] = (i % 2, cluster)
    ds = validate(make_dataset(rows, outcome_kind=OutcomeKind.BINARY))

    cols = ds.columns()
    y, x = cols.y, cols.x
    design = np.column_stack([np.ones(len(y)), x])
    beta = irls_logistic(design, y)
    resid = y - expit(design @ beta)
    expected = {
        cid: resid[cols.codes == k].mean() for k, cid in enumerate(cols.cluster_ids)
    }
    summaries = summaries_from_values(ds, binary_residuals(ds, (0, 1)))
    for cid, y_bar in zip(summaries.ids, summaries.y_bar):
        assert y_bar == pytest.approx(expected[cid], abs=1e-10)
    assert np.allclose(binary_residuals(ds, (0, 1)), resid, atol=1e-10)


def test_binary_adjustment_converges_on_moderate_samples(make_dataset):
    # Large-sample fits must not stall in the final Newton steps, where
    # log-likelihood changes sit at rounding-noise level.
    rng = np.random.default_rng(29)
    for _ in range(25):
        rows = {}
        for i in range(30):
            cluster = []
            for _ in range(int(rng.integers(15, 35))):
                x = rng.normal()
                prob = 0.3 + 0.05 * x + rng.normal(0, 0.03)
                cluster.append((0, float(rng.random() < np.clip(prob, 0.02, 0.98)), x))
            rows[f"c{i}"] = (i % 2, cluster)
        ds = validate(make_dataset(rows, outcome_kind=OutcomeKind.BINARY))
        summaries = summaries_from_values(ds, binary_residuals(ds, (0,)))
        assert abs(sum(summaries.n * summaries.y_bar)) < 1e-8


def test_icc_one_when_within_variance_zero(make_dataset):
    ds = make_dataset(
        {"a": (0, [(0, 1.0)] * 3), "b": (1, [(1, 5.0)] * 3), "c": (0, [(0, -2.0)] * 3)}
    )
    cols = ds.columns()
    est = anova_icc(cols.y, cols.codes)
    assert est.rho == 1.0
    assert est.sigma2_within == 0.0


def test_icc_truncated_to_zero_when_msb_below_msw():
    # Between-cluster means equal, all spread within clusters.
    values = np.array([0.0, 2.0, 0.0, 2.0, 0.0, 2.0, 0.0, 2.0])
    clusters = np.array([0, 0, 1, 1, 2, 2, 3, 3])
    est = anova_icc(values, clusters)
    assert est.rho == 0.0
    assert est.sigma2_between == 0.0


def test_icc_balanced_fixture_matches_hand_anova():
    values = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 2.0, 2.0, 2.0, 8.0, 9.0, 7.0])
    clusters = np.repeat(np.arange(4), 3)
    # Hand ANOVA table: balanced design, m = 3 per cluster.
    means = values.reshape(4, 3).mean(axis=1)
    grand = values.mean()
    msb = 3 * ((means - grand) ** 2).sum() / 3
    msw = ((values.reshape(4, 3) - means[:, None]) ** 2).sum() / 8
    sigma_b = max(0.0, (msb - msw) / 3)
    expected = sigma_b / (sigma_b + msw)
    est = anova_icc(values, clusters)
    assert est.rho == pytest.approx(expected, abs=1e-12)
    assert est.sigma2_within == pytest.approx(msw, abs=1e-12)


def test_icc_always_in_unit_interval():
    rng = np.random.default_rng(17)
    for _ in range(50):
        n_clusters = int(rng.integers(2, 12))
        sizes = rng.integers(1, 9, n_clusters)
        clusters = np.repeat(np.arange(n_clusters), sizes)
        values = rng.normal(size=len(clusters)) + rng.normal(size=n_clusters)[clusters]
        est = anova_icc(values, clusters)
        assert 0.0 <= est.rho <= 1.0


def test_icc_degenerate_constant_values():
    est = anova_icc(np.full(10, 3.3), np.repeat(np.arange(5), 2))
    assert est.rho == 0.0


def test_icc_treatment_selector(make_dataset):
    ds = make_dataset(
        {"a": (1, [(1, 0.1), (1, 0.4)]), "b": (0, [(0, 0.2), (0, 0.3)])}
    )
    cols = ds.columns()
    est = anova_icc(cols.d, cols.codes)
    assert est.rho == 1.0  # treatment constant within clusters, differs between


@pytest.mark.parametrize(
    "codes, message",
    [
        # cluster labels, which the ICC used to renumber itself
        ([5, 5, 9, 9], "every cluster index 0..9"),
        ([0, 0, 2, 2], "every cluster index 0..2"),
        ([0.0, 0.0, 1.0, 1.0], "codes must be integers, not float64"),
        (["a", "a", "b", "b"], "codes must be integers"),
        ([0, 0, 0, 0], "at least 2 clusters"),
    ],
)
def test_icc_takes_cluster_indices_not_labels(codes, message):
    with pytest.raises(ValueError, match=message):
        anova_icc([1.0, 2.0, 3.0, 5.0], np.array(codes))


def scalar_icc(values, codes):
    """The moment estimator of one trial in scalar arithmetic: rho and the
    two variance components."""
    sizes = np.bincount(codes).astype(float)
    n_clusters, total = len(sizes), float(sizes.sum())
    means = np.bincount(codes, weights=values) / sizes
    grand = float(values.mean())
    ss_between = float(sizes @ (means - grand) ** 2)
    ss_within = float(((values - means[codes]) ** 2).sum())
    ms_between = ss_between / (n_clusters - 1)
    ms_within = ss_within / (total - n_clusters) if total > n_clusters else 0.0
    n0 = (total - float(sizes @ sizes) / total) / (n_clusters - 1)
    between = max(0.0, (ms_between - ms_within) / n0)
    denom = between + ms_within
    return between / denom if denom > 0.0 else 0.0, between, ms_within


@pytest.mark.parametrize("seed", range(3))
def test_icc_equals_the_scalar_moment_formulas_bit_for_bit(seed):
    from crtiv.dgp import ScenarioConfig, generate

    rng = np.random.default_rng(seed)
    cases = []
    for n_clusters in (2, 5, 20, 40):
        seed = int(rng.integers(1 << 30))
        cols = generate(ScenarioConfig(n_clusters=n_clusters), seed).dataset.columns()
        cases.append((cols.y, cols.codes))
    # One record per cluster (no within df), constant values (no variance),
    # a between component that the truncation zeroes, and squares that
    # overflow, where the truncation reads a nan component as zero.
    cases += [
        (rng.normal(size=5), np.arange(5)),
        (np.full(6, 2.5), np.repeat(np.arange(3), 2)),
        (np.array([0.0, 2.0, 0.0, 2.0, 0.0, 2.0]), np.repeat(np.arange(3), 2)),
        (np.array([1e307, -1e307, 1e307, -1e307, 3e307, 1e307]), np.repeat(np.arange(3), 2)),
        (np.array([1.7e308, 1.7e308, -1.7e308, -1.7e308, 1.0, 2.0]), np.repeat(np.arange(3), 2)),
    ]
    block = collapse._Block([codes for _, codes in cases], [np.bincount(c) for _, c in cases])
    with np.errstate(over="ignore", invalid="ignore"):
        in_block = block.icc(np.concatenate([values for values, _ in cases]))
        for (values, codes), estimate in zip(cases, in_block, strict=True):
            expected = np.array(scalar_icc(values, codes)).tobytes()
            assert np.array(astuple(anova_icc(values, codes))).tobytes() == expected
            assert np.array(astuple(estimate)).tobytes() == expected


def test_continuous_residuals_shape_check(make_dataset):
    ds = make_dataset({"a": (0, [(0, 1.0, 0.1)]), "b": (1, [(1, 2.0, 0.2)])})
    with pytest.raises(ValueError):
        summaries_from_values(ds, np.zeros(5))
    res = continuous_residuals(ds, (0,))
    assert res.shape == (2,)


def test_summaries_from_values_share_the_unadjusted_columns_and_skip_the_raw_means(
    make_dataset, monkeypatch
):
    ds = make_dataset({"a": (0, [(0, 1.0), (0, 2.0)]), "b": (1, [(1, 3.0), (0, 5.0)])})
    original, averaged = collapse._Block._means, []

    def counted(block, values):
        averaged.append(values)
        return original(block, values)

    monkeypatch.setattr(collapse._Block, "_means", counted)
    values = np.array([0.5, -0.5, 1.5, 2.5])
    adjusted = summaries_from_values(ds, values)
    # The values alone (d_bar is a bincount), never the raw outcome: no
    # cluster_means pass either.
    assert len(averaged) == 1 and averaged[0] is not ds.columns().y
    raw = cluster_means(ds)
    averaged.clear()
    again = summaries_from_values(ds, values, raw)
    # Handed the unadjusted summaries, it averages the values alone.
    assert len(averaged) == 1 and averaged[0] is not ds.columns().y
    assert np.array_equal(again.y_bar, adjusted.y_bar)
    for name in ("n", "z", "d_bar", "w"):
        assert getattr(again, name) is getattr(raw, name)


def test_cluster_means_does_not_depend_on_earlier_calls(make_dataset):
    ds = make_dataset({"a": (0, [(0, 1.0), (0, 2.0)]), "b": (1, [(1, 3.0), (0, 5.0)])})
    raw = cluster_means(ds)
    adjusted = summaries_from_values(ds, np.array([0.5, -0.5, 1.5, 2.5]))
    adjusted.d_bar[0] = 0.123
    # Edited summaries of one call are not what a later call returns.
    later = cluster_means(ds)
    assert later.d_bar.tolist() == raw.d_bar.tolist() == [0.0, 0.5]
    assert later.d_bar is not raw.d_bar


def lexsorted_means(values, cols):
    """Cluster means summed in ``lexsort((values, codes))`` order."""
    order = np.lexsort((values, cols.codes))
    starts = np.searchsorted(cols.codes[order], np.arange(len(cols.cluster_ids)))
    return np.add.reduceat(values[order], starts) / cols.sizes


def shuffled(dataset, rng):
    cols = dataset.columns()
    perm = rng.permutation(len(cols.codes))
    return TrialDataset(
        cols._replace(
            codes=cols.codes[perm], z=cols.z[perm], d=cols.d[perm], y=cols.y[perm], x=cols.x[perm]
        )
    )


@pytest.mark.parametrize("seed", range(4))
def test_cluster_means_equal_the_lexsort_order_bit_for_bit(seed):
    from crtiv.dgp import ScenarioConfig, generate

    rng = np.random.default_rng(seed)
    dataset = generate(ScenarioConfig(), seed).dataset
    cols = dataset.columns()
    # Values with many ties: repeated values and zeros of both signs in
    # every cluster, next to negative and positive ones.
    ties = rng.choice([-0.0, 0.0, 0.1, -2.5, 1e-300, 3.0], size=len(cols.y))
    for ds in (dataset, shuffled(dataset, rng), shuffled(dataset, rng)):
        cols = ds.columns()
        for values in (cols.y, continuous_residuals(ds, (0,)), ties):
            expected = lexsorted_means(values, cols)
            assert summaries_from_values(ds, values).y_bar.tobytes() == expected.tobytes()
    zeros = TrialDataset(cols._replace(y=np.where(rng.random(len(cols.y)) < 0.5, -0.0, 0.0)))
    means = cluster_means(zeros).y_bar
    assert means.tobytes() == lexsorted_means(zeros.columns().y, cols).tobytes()


@pytest.mark.parametrize(
    "n_clusters", [1 << 16, (1 << 16) + 1], ids=["uint16 codes", "int64 codes"]
)
def test_cluster_means_on_both_sides_of_the_16_bit_cut(n_clusters):
    rng = np.random.default_rng(n_clusters)
    ids = [f"c{j:05d}" for j in range(n_clusters)]
    codes = rng.permutation(np.repeat(np.arange(n_clusters), rng.integers(1, 4, n_clusters)))
    ties = rng.choice([-0.0, 0.0, 0.1, -2.5, 3.0], size=len(codes))
    values = np.where(rng.random(len(codes)) < 0.5, ties, rng.normal(size=len(codes)))
    cols = Columns.from_codes(ids, codes, np.zeros(len(codes)), np.zeros(len(codes)), values)
    # The int64 stable sort the 16-bit radix sort stands in for.
    order = np.argsort(values)
    order = order[np.argsort(cols.codes[order].astype(np.int64), kind="stable")]
    starts = np.searchsorted(cols.codes[order], np.arange(n_clusters))
    expected = np.add.reduceat(values[order], starts) / cols.sizes
    assert cluster_means(TrialDataset(cols)).y_bar.tobytes() == expected.tobytes()


# Prints the OpenBLAS kernel it runs on, then the digest of the x-adjusted
# residuals of 64 default trials.
RESIDUAL_DIGEST = """
import hashlib
from conftest import openblas_core
from crtiv import collapse, mc
from crtiv.dgp import ScenarioConfig, generate
digest = hashlib.sha256()
for attempt in range(64):
    dataset = generate(ScenarioConfig(), mc._replicate_seed(1, attempt)).dataset
    digest.update(collapse.continuous_residuals(dataset, (0,)).tobytes())
print(openblas_core(), digest.hexdigest())
"""


def test_the_adjustment_residuals_do_not_depend_on_the_blas_kernel():
    # Each kernel is forced in a fresh process, where the CPU can run it.
    kernels = [kernel for kernel, flag in KERNEL_FLAGS.items() if cpu_has(flag)]
    if not kernels:
        pytest.skip("the CPU runs none of the kernels tried")
    digests = {}
    for kernel in kernels:
        command = [sys.executable, "-c", RESIDUAL_DIGEST]
        done = subprocess.run(
            command, env=kernel_env(kernel), capture_output=True, text=True, check=True
        )
        core, digests[kernel] = done.stdout.split()
        assert core == kernel
    assert len(set(digests.values())) == 1, digests
