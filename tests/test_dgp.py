import math

import numpy as np
import pytest

from crtiv.collapse import anova_icc, cluster_means
from crtiv.dgp import (
    AdherenceLevel,
    ParetoSizes,
    PoissonSizes,
    ScenarioConfig,
    calibrate_lambda0,
    draw_cluster_sizes,
    generate,
    screen_weak_instrument,
)
from crtiv.model import TrialDataset

from conftest import rows_of


def test_poisson_sizes_mean_and_positivity():
    config = ScenarioConfig(n_clusters=100_000, sizes=PoissonSizes(20.0))
    sizes = draw_cluster_sizes(config, np.random.default_rng(0))
    assert sizes.min() >= 1
    assert abs(sizes.mean() - 20.0) < 0.2


def test_truncation_matters_for_small_means():
    config = ScenarioConfig(n_clusters=200_000, sizes=PoissonSizes(2.5))
    sizes = draw_cluster_sizes(config, np.random.default_rng(1))
    assert sizes.min() >= 1
    # Zero-truncated Poisson mean: lambda / (1 - exp(-lambda)).
    expected = 2.5 / (1.0 - math.exp(-2.5))
    assert abs(sizes.mean() - expected) < 0.02


def test_pareto_sizes_floor_mean_and_tail():
    config = ScenarioConfig(n_clusters=100_000, sizes=ParetoSizes())
    sizes = draw_cluster_sizes(config, np.random.default_rng(2))
    assert sizes.min() >= 10
    assert sizes.dtype.kind == "i"
    assert 19.0 < sizes.mean() < 21.0
    # Right tail is untouched by rounding/flooring: compare the share of
    # sizes >= 15 with the exact survival at the rounding boundary 14.5.
    expected_at_least_15 = (9.1 / 14.5) ** 1.8
    assert abs((sizes >= 15).mean() - expected_at_least_15) < 0.01


def test_one_sided_nonadherence():
    for level in AdherenceLevel:
        trial = generate(ScenarioConfig(adherence=level), seed=3)
        cols = trial.dataset.columns()
        assert not cols.d[cols.z == 0].any()
        # The complier flags are in record order: treated compliers take it.
        treated = cols.z == 1
        assert np.array_equal(cols.d[treated], trial.compliance[treated])


def test_cluster_level_adherence_gives_binary_dbar():
    trial = generate(ScenarioConfig(adherence=AdherenceLevel.CLUSTER), seed=4)
    for d_bar in cluster_means(trial.dataset).d_bar:
        assert d_bar in (0.0, 1.0)


def test_generation_is_pure_function_of_config_and_seed():
    config = ScenarioConfig(adherence=AdherenceLevel.INDIVIDUAL, pi=0.85)
    a = generate(config, seed=5)
    b = generate(config, seed=5)
    assert rows_of(a.dataset) == rows_of(b.dataset)
    assert np.array_equal(a.compliance, b.compliance)
    assert np.array_equal(a.psi, b.psi)
    c = generate(config, seed=6)
    assert rows_of(a.dataset) != rows_of(c.dataset)


def test_psi_weights_sum_to_one_and_truth_is_exact():
    config = ScenarioConfig(adherence=AdherenceLevel.INDIVIDUAL, beta_cz=0.4, pi=0.85)
    trial = generate(config, seed=7)
    assert trial.psi.sum() == pytest.approx(1.0, abs=1e-12)
    assert trial.psi_cl.sum() == pytest.approx(1.0, abs=1e-12)
    assert trial.compliance.dtype == np.int8
    assert set(np.unique(trial.compliance).tolist()) == {0, 1}
    assert int(trial.compliance.sum()) == int(trial.n_compliers.sum())


def test_equal_cluster_sizes_make_both_weightings_coincide():
    # A degenerate Pareto pins every size at the floor, giving equal clusters.
    config = ScenarioConfig(
        adherence=AdherenceLevel.INDIVIDUAL,
        n_clusters=40,
        sizes=ParetoSizes(shape=1e9, scale=9.1, minimum=10),
        pi=0.85,
    )
    trial = generate(config, seed=8)
    assert set(cluster_means(trial.dataset).n.tolist()) == {10}
    assert np.allclose(trial.psi, trial.psi_cl, atol=1e-12)


def test_cluster_level_complier_fraction_matches_target():
    config = ScenarioConfig(
        adherence=AdherenceLevel.CLUSTER,
        n_clusters=100_000,
        sizes=PoissonSizes(1.0),
        pi=0.60,
        lambda_w=0.0,
    )
    trial = generate(config, seed=9)
    sizes = trial.dataset.columns().sizes
    cluster_compliant = trial.n_compliers == sizes
    assert abs(cluster_compliant.mean() - 0.60) < 0.01


def test_realized_outcome_icc_tracks_target():
    config = ScenarioConfig(
        adherence=AdherenceLevel.INDIVIDUAL,
        n_clusters=2_000,
        rho_y=0.05,
        pi=0.85,
        beta_cz=0.1,
    )
    trial = generate(config, seed=10)
    cols = trial.dataset.columns()
    assert anova_icc(cols.y, cols.codes).rho == pytest.approx(0.05, abs=0.02)


def test_covariate_variance_decomposition():
    config = ScenarioConfig(n_clusters=5_000, sizes=PoissonSizes(20.0))
    trial = generate(config, seed=11)
    cols = trial.dataset.columns()
    x = cols.x[:, 0]
    assert x.var() == pytest.approx(0.08, abs=0.005)
    assert anova_icc(x, cols.codes).rho == pytest.approx(0.05, abs=0.02)
    assert cols.w.shape == (5_000, 1)
    assert cols.w[:, 0].var() == pytest.approx(0.08, abs=0.01)


def test_calibration_closed_form_without_spread():
    config = ScenarioConfig(pi=0.60, lambda_w=0.0)
    assert calibrate_lambda0(config) == pytest.approx(math.log(0.6 / 0.4), abs=1e-12)


def test_calibration_attenuation_with_random_effect():
    config = ScenarioConfig(
        adherence=AdherenceLevel.INDIVIDUAL, pi=0.85, lambda_w=0.0, lambda_x=0.0
    )
    assert calibrate_lambda0(config) > math.log(0.85 / 0.15)


def test_calibrated_marginal_probability_hits_target_by_quadrature():
    from scipy.special import expit

    config = ScenarioConfig(
        adherence=AdherenceLevel.INDIVIDUAL,
        pi=0.85,
        lambda_w=0.7,
        lambda_x=0.7,
    )
    lam0 = calibrate_lambda0(config)
    sd = math.sqrt(
        0.7**2 * 0.08 + 0.7**2 * 0.08 + config.zeta_variance
    )
    rng = np.random.default_rng(12)
    draws = expit(lam0 + sd * rng.normal(size=2_000_000))
    assert abs(draws.mean() - 0.85) < 0.001


def test_zeta_variance_from_adherence_icc():
    config = ScenarioConfig(adherence=AdherenceLevel.INDIVIDUAL, rho_c=0.5)
    assert config.zeta_variance == pytest.approx(math.pi**2 / 3.0, abs=1e-12)
    cluster = ScenarioConfig(adherence=AdherenceLevel.CLUSTER, rho_c=0.5)
    assert cluster.zeta_variance == 0.0


def test_screen_accepts_deterministic_adherence_and_rejects_null():
    strong = generate(
        ScenarioConfig(adherence=AdherenceLevel.CLUSTER, pi=0.999999, lambda_w=0.0),
        seed=13,
    )
    assert screen_weak_instrument(cluster_means(strong.dataset))

    weak = generate(ScenarioConfig(), seed=14)
    # Shuffle adherence against assignment: rebuild with d independent of z.
    cols = weak.dataset.columns()
    null_dataset = TrialDataset(cols._replace(d=np.zeros_like(cols.d)))
    assert not screen_weak_instrument(cluster_means(null_dataset))


def test_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(pi=0.0)
    with pytest.raises(ValueError):
        ScenarioConfig(rho_y=1.0)
    with pytest.raises(ValueError):
        ScenarioConfig(n_clusters=1)
