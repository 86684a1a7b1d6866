"""Acceptance suite.

Each test prints one PASS/FAIL line per criterion (run with ``-s`` to see
them on success).  Criterion 5 is known-red: its 40%-below-15 share
conflicts with the default Pareto(shape 1.8, scale 9.1, floor 10) sizes that
``test_dgp.py`` pins, which put roughly 57% of sizes below 15 and 40% above.
The targets themselves can all be met (shape 2.4, scale 11.7, floor 10 gives
mean 20.0, minimum 12 and about 40% below 15), so the conflict is between the
pinned defaults and the target; the check is asserted as stated rather than
weakened.
"""

import csv
import math
import time

import numpy as np

from conftest import build_dataset, random_summaries
from crtiv import cli
from crtiv.collapse import anova_icc, binary_residuals, summaries_from_values
from crtiv.dgp import (
    AdherenceLevel,
    ParetoSizes,
    PoissonSizes,
    ScenarioConfig,
    draw_cluster_sizes,
    generate,
)
from crtiv.iv import tsls, wald_late
from crtiv.mc import ClOutcome, VariantKey, coverage_and_mce, run_study
from crtiv.model import (
    AnalysisOptions,
    ComplianceClass,
    DfMode,
    IndividualRecord,
    OutcomeKind,
    SeMode,
    TrialDataset,
    Weights,
)
from crtiv.wls import fit_wls


def check(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


# -- 1: just-identified equivalence -------------------------------------------


def test_criterion_1_just_identified_equivalence():
    rng = np.random.default_rng(1001)
    start = time.time()
    worst = 0.0
    for _ in range(1000):
        summaries = random_summaries(rng)
        gap = abs(tsls(summaries, AnalysisOptions()).estimate - wald_late(summaries))
        worst = max(worst, gap)
    elapsed = time.time() - start
    check(
        "criterion 1 (tsls == wald, 1000 random instances)",
        worst < 1e-10 and elapsed < 5.0,
        f"worst gap {worst:.3e}, elapsed {elapsed:.2f}s",
    )


# -- 2: oracle equality --------------------------------------------------------


def _oracle_wls(design, response, weights):
    w = np.asarray(weights, dtype=float)
    xtwx_inv = np.linalg.inv(design.T @ (design * w[:, None]))
    beta = xtwx_inv @ design.T @ (w * response)
    resid = response - design @ beta
    n, p = design.shape
    sigma2 = float(w @ resid**2) / (n - p)
    meat = design.T @ (design * (w**2 * resid**2)[:, None])
    return beta, sigma2 * xtwx_inv, xtwx_inv @ meat @ xtwx_inv


def _oracle_tsls(y, d, z, weights, w_col):
    ones = np.ones(len(y))
    x1 = np.column_stack([ones, z] if w_col is None else [ones, z, w_col])
    w = np.asarray(weights, dtype=float)
    gamma = np.linalg.inv(x1.T @ (x1 * w[:, None])) @ x1.T @ (w * d)
    d_hat = x1 @ gamma
    x2 = np.column_stack([ones, d_hat] if w_col is None else [ones, d_hat, w_col])
    xtwx_inv = np.linalg.inv(x2.T @ (x2 * w[:, None]))
    beta = xtwx_inv @ x2.T @ (w * y)
    x2_actual = np.column_stack([ones, d] if w_col is None else [ones, d, w_col])
    resid = y - x2_actual @ beta
    n, p = x2.shape
    sigma2 = float(w @ resid**2) / (n - p)
    meat = x2.T @ (x2 * (w**2 * resid**2)[:, None])
    return beta, sigma2 * xtwx_inv, xtwx_inv @ meat @ xtwx_inv


def _well_posed_instance(rng):
    # Draws where the weighted, covariate-adjusted first stage keeps a solid
    # assignment coefficient; chance near-collinearity would otherwise blow
    # the covariances up and make an absolute 1e-10 comparison meaningless.
    while True:
        n_clusters = int(rng.integers(10, 25))
        summaries = random_summaries(rng, n_clusters=n_clusters, with_w=True, arm_gap=0.5)
        sizes = summaries.n.astype(float)
        d = summaries.d_bar
        z = summaries.z
        w_col = summaries.w[:, 0]
        x1 = np.column_stack([np.ones(n_clusters), z, w_col])
        gamma = np.linalg.lstsq(
            np.sqrt(sizes)[:, None] * x1, np.sqrt(sizes) * d, rcond=None
        )[0]
        if abs(gamma[1]) >= 0.15:
            return summaries


def test_criterion_2_oracle_equality():
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(6, 15))
        design = np.column_stack([np.ones(n), rng.normal(size=(n, 2))])
        response = rng.normal(size=n)
        weights = rng.uniform(0.3, 4.0, n)
        fit = fit_wls(design, response, weights)
        beta, cov_m, cov_r = _oracle_wls(design, response, weights)
        worst = max(
            worst,
            float(np.max(np.abs(fit.coefficients - beta))),
            float(np.max(np.abs(fit.cov_model - cov_m))),
            float(np.max(np.abs(fit.cov_robust - cov_r))),
        )

        summaries = _well_posed_instance(rng)
        y = summaries.y_bar
        d = summaries.d_bar
        z = summaries.z
        w_col = summaries.w[:, 0]
        sizes = summaries.n.astype(float)
        for adjust_w in (False, True):
            options = AnalysisOptions(weights=Weights.CLUSTER_SIZE, adjust_w=adjust_w)
            fit_m = tsls(summaries, options)
            fit_r = tsls(
                summaries,
                AnalysisOptions(
                    weights=Weights.CLUSTER_SIZE,
                    adjust_w=adjust_w,
                    se_mode=SeMode.HUBER_WHITE,
                ),
            )
            beta, cov_m, cov_r = _oracle_tsls(
                y, d, z, sizes, w_col if adjust_w else None
            )
            worst = max(
                worst,
                abs(fit_m.estimate - beta[1]),
                abs(fit_m.se - math.sqrt(cov_m[1, 1])),
                abs(fit_r.se - math.sqrt(cov_r[1, 1])),
            )
    check(
        "criterion 2 (fit_wls and tsls match matrix oracles, 200 instances)",
        worst < 1e-10,
        f"worst deviation {worst:.3e}",
    )


# -- 3: minimum-variance weight limits ----------------------------------------


def test_criterion_3_mv_weight_limits():
    from crtiv.wls import mv_weights

    sizes = np.arange(1, 10_001)
    at_zero = np.array_equal(mv_weights(sizes, 0.0), sizes.astype(float))
    at_one = np.array_equal(mv_weights(sizes, 1.0), np.ones(sizes.size))
    check(
        "criterion 3 (mv_weights exact at rho in {0, 1} for n in [1, 1e4])",
        at_zero and at_one,
        f"rho=0 gives sizes: {at_zero}; rho=1 gives ones: {at_one}",
    )


# -- 4: data-generator calibration ----------------------------------------------


def test_criterion_4_dgp_calibration():
    start = time.time()
    base = dict(
        adherence=AdherenceLevel.INDIVIDUAL,
        pi=0.85,
        lambda_w=0.7,
        lambda_x=0.7,
        beta_w=0.4,
        beta_x=0.4,
        beta_cz=0.1,
    )
    big = generate(
        ScenarioConfig(n_clusters=50_000, sizes=PoissonSizes(20.0), **base), seed=41
    )
    n = len(big.compliance)
    fraction = sum(c is ComplianceClass.COMPLIER for c in big.compliance) / n
    frac_ok = abs(fraction - 0.85) < 0.005 and n >= 900_000

    icc_ok = True
    realized = {}
    for rho in (0.05, 0.20):
        trial = generate(
            ScenarioConfig(n_clusters=5_000, sizes=PoissonSizes(20.0), rho_y=rho, **base),
            seed=42,
        )
        cols = trial.dataset.columns()
        realized[rho] = anova_icc(cols.y, cols.codes).rho
        icc_ok = icc_ok and abs(realized[rho] - rho) < 0.02
    elapsed = time.time() - start
    realized_text = ", ".join(f"target {k}: {v:.4f}" for k, v in realized.items())
    check(
        "criterion 4 (adherence and outcome-ICC calibration)",
        frac_ok and icc_ok and elapsed < 30.0,
        f"complier fraction {fraction:.4f} (n={n}), realized ICC ({realized_text}), "
        f"elapsed {elapsed:.1f}s",
    )


# -- 5: heavy-tailed size targets (known red, see module docstring) ------------


def test_criterion_5_pareto_size_targets():
    config = ScenarioConfig(n_clusters=100_000, sizes=ParetoSizes())
    sizes = draw_cluster_sizes(config, np.random.default_rng(55))
    mean = float(sizes.mean())
    below = float((sizes < 15).mean())
    above = float((sizes > 15).mean())
    mean_ok = 19.0 < mean < 21.0
    min_ok = int(sizes.min()) >= 10
    below_ok = abs(below - 0.40) < 0.03
    check(
        "criterion 5 (Pareto sizes: mean 20+-1, min 10, 40%+-3% below 15)",
        mean_ok and min_ok and below_ok,
        f"mean {mean:.3f} ({'ok' if mean_ok else 'BAD'}), min {int(sizes.min())} "
        f"({'ok' if min_ok else 'BAD'}), below-15 share {below:.4f} vs target 0.40 "
        f"({'ok' if below_ok else 'BAD'}; above-15 share is {above:.4f} -- the "
        f"distribution puts ~40% of sizes above 15, not below)",
    )


# -- 6: desk-scale simulation reproduction --------------------------------------


def _variant(weights, se_mode, df_mode):
    return VariantKey(ClOutcome.UNADJUSTED, False, weights, se_mode, df_mode)


def test_criterion_6a_bias_and_coverage_at_moderate_clusters():
    start = time.time()
    config = ScenarioConfig(
        adherence=AdherenceLevel.CLUSTER,
        n_clusters=50,
        sizes=PoissonSizes(20.0),
        rho_y=0.05,
        pi=0.60,
        lambda_w=0.05,
        lambda_x=0.05,
        beta_w=0.1,
        beta_x=0.1,
        beta_cz=0.4,
    )
    key = _variant(Weights.NONE, SeMode.HUBER_WHITE, DfMode.SMALL_SAMPLE)
    report = run_study(config, n_replicates=500, variants=(key,), master_seed=20240801)
    result = report.variants[key]
    elapsed = time.time() - start
    ok = abs(result.bias) < 0.02 and 0.92 <= result.coverage <= 0.98 and elapsed < 300
    check(
        "criterion 6a (J=50: small bias, nominal-band coverage for SSDF+HW)",
        ok,
        f"bias {result.bias:.4f}, coverage {result.coverage:.3f}, elapsed {elapsed:.0f}s",
    )


def test_criterion_6b_small_sample_correction_restores_coverage():
    config = ScenarioConfig(
        adherence=AdherenceLevel.CLUSTER,
        n_clusters=10,
        sizes=PoissonSizes(100.0),
        rho_y=0.20,
        pi=0.60,
        lambda_w=0.05,
        lambda_x=0.05,
        beta_w=0.1,
        beta_x=0.1,
        beta_cz=0.4,
    )
    keys = tuple(
        _variant(Weights.NONE, SeMode.HUBER_WHITE, df_mode) for df_mode in DfMode
    )
    report = run_study(config, n_replicates=500, variants=keys, master_seed=20240802)
    normal = report.variants[_variant(Weights.NONE, SeMode.HUBER_WHITE, DfMode.NORMAL_APPROX)]
    small = report.variants[_variant(Weights.NONE, SeMode.HUBER_WHITE, DfMode.SMALL_SAMPLE)]
    check(
        "criterion 6b (J=10: normal-approximation under-covers vs SSDF)",
        normal.coverage < small.coverage,
        f"normal {normal.coverage:.3f} < ssdf {small.coverage:.3f}",
    )


def test_criterion_6c_bias_shrinks_with_more_clusters():
    common = dict(
        adherence=AdherenceLevel.CLUSTER,
        rho_y=0.05,
        pi=0.60,
        lambda_w=0.7,
        lambda_x=0.7,
        beta_w=0.4,
        beta_x=0.4,
        beta_cz=0.4,
    )
    key = _variant(Weights.NONE, SeMode.HUBER_WHITE, DfMode.SMALL_SAMPLE)
    at_50 = run_study(
        ScenarioConfig(n_clusters=50, sizes=PoissonSizes(20.0), **common),
        n_replicates=500,
        variants=(key,),
        master_seed=20240803,
    ).variants[key]
    at_400 = run_study(
        ScenarioConfig(n_clusters=400, sizes=PoissonSizes(2.5), **common),
        n_replicates=500,
        variants=(key,),
        master_seed=20240804,
    ).variants[key]
    ok = abs(at_400.bias) < abs(at_50.bias) or abs(at_400.bias) < 3 * at_400.mce_bias
    check(
        "criterion 6c (J=400 bias negligible vs J=50)",
        ok,
        f"|bias| J=50 {abs(at_50.bias):.4f}, J=400 {abs(at_400.bias):.4f}, "
        f"3*MCE {3 * at_400.mce_bias:.4f}",
    )


def test_criterion_6d_robust_se_needed_with_size_weights_under_imbalance():
    config = ScenarioConfig(
        adherence=AdherenceLevel.CLUSTER,
        n_clusters=50,
        sizes=ParetoSizes(),
        rho_y=0.20,
        pi=0.60,
        lambda_w=0.7,
        lambda_x=0.7,
        beta_w=0.4,
        beta_x=0.4,
        beta_cz=0.4,
    )
    keys = tuple(
        _variant(Weights.CLUSTER_SIZE, se_mode, DfMode.SMALL_SAMPLE) for se_mode in SeMode
    )
    report = run_study(config, n_replicates=500, variants=keys, master_seed=20240805)
    model = report.variants[
        _variant(Weights.CLUSTER_SIZE, SeMode.MODEL_BASED, DfMode.SMALL_SAMPLE)
    ]
    robust = report.variants[
        _variant(Weights.CLUSTER_SIZE, SeMode.HUBER_WHITE, DfMode.SMALL_SAMPLE)
    ]
    check(
        "criterion 6d (Pareto imbalance, size weights: HW coverage >= model)",
        robust.coverage >= model.coverage,
        f"hw {robust.coverage:.3f} >= model {model.coverage:.3f}",
    )


# -- 7: residual and Monte Carlo error identities -------------------------------


def test_criterion_7_residual_and_mce_identities():
    rng = np.random.default_rng(1007)
    rows = {
        f"c{i}": (
            i % 2,
            [
                (0, float(rng.integers(0, 2)), float(rng.normal()))
                for _ in range(int(rng.integers(5, 30)))
            ],
        )
        for i in range(20)
    }
    dataset = build_dataset(rows, outcome_kind=OutcomeKind.BINARY)
    intercept_only = summaries_from_values(dataset, binary_residuals(dataset, ()))
    weighted_sum = abs(sum(intercept_only.n * intercept_only.y_bar))

    _, mce = coverage_and_mce(
        np.zeros(2500), np.ones(2500), np.full(2500, 2.0), truth=0.0
    )
    mce_ok = abs(mce - 0.004359) < 1e-6
    band = (0.95 - 1.959964 * mce, 0.95 + 1.959964 * mce)
    check(
        "criterion 7 (difference-residual and coverage-MCE identities)",
        weighted_sum < 1e-8 and mce_ok,
        f"|sum n_j e_j| = {weighted_sum:.2e}; coverage MCE {mce:.6f} "
        f"(valid range {band[0]:.3f}-{band[1]:.3f})",
    )


# -- 8: re-analysis workflow structure ------------------------------------------


def _synthetic_trial_116(tmp_path, perfect_adherence: bool):
    rng = np.random.default_rng(1160 + int(perfect_adherence))
    records = []
    covariates = {}
    for i in range(116):
        cid = f"gp{i:03d}"
        z = 1 if i < 58 else 0
        open_weekend = float(rng.random() < 0.65)
        covariates[cid] = (open_weekend,)
        n = int(rng.integers(25, 60))
        p_receive = 0.75 if z else 0.08
        for _ in range(n):
            d = z if perfect_adherence else int(rng.random() < p_receive)
            age = float(rng.normal(50.0, 10.0))
            p_y = 0.35 + 0.1 * d + 0.002 * (age - 50.0)
            y = float(rng.random() < min(max(p_y, 0.01), 0.99))
            records.append(IndividualRecord(cid, z, d, y, (age,)))
    dataset = TrialDataset(
        records=records, cluster_covariates=covariates, outcome_kind=OutcomeKind.BINARY
    )
    path = tmp_path / ("perfect.csv" if perfect_adherence else "trial.csv")
    cli.write_dataset_csv(dataset, path)
    return path


def _read(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def test_criterion_8_reanalysis_grid_structure(tmp_path):
    data = _synthetic_trial_116(tmp_path, perfect_adherence=False)
    out_un = tmp_path / "unadjusted"
    code_un = cli.main(
        [
            "analyze",
            "--input",
            str(data),
            "--outcome-type",
            "binary",
            "--output-dir",
            str(out_un),
            "--adjust-w",
            "w_1",
        ]
    )
    out_ad = tmp_path / "adjusted"
    code_ad = cli.main(
        [
            "analyze",
            "--input",
            str(data),
            "--outcome-type",
            "binary",
            "--output-dir",
            str(out_ad),
            "--adjust-w",
            "w_1",
            "--adjust-x",
            "x_1",
        ]
    )
    grids_ok = code_un == 0 and code_ad == 0
    details = []
    for out, expected_outcome in ((out_un, "unadjusted"), (out_ad, "adjusted_for_x")):
        rows = _read(out / "analysis.csv")
        late = [r for r in rows if r["estimator"] == "late"]
        grid = {(r["weights"], r["se_mode"], r["df_mode"], r["adjust_w"]) for r in late}
        grids_ok = (
            grids_ok
            and len(late) == 24
            and len(grid) == 24
            and all(r["cl_outcome"] == expected_outcome for r in rows)
            and all(math.isfinite(float(r["estimate"])) for r in rows)
            and all(
                float(r["df"]) == 113.0
                for r in late
                if r["df_mode"] == "ssdf" and r["adjust_w"] == "1"
            )
            and all(
                float(r["df"]) == 114.0
                for r in late
                if r["df_mode"] == "ssdf" and r["adjust_w"] == "0"
            )
        )
        details.append(f"{expected_outcome}: {len(late)} LATE rows")

    perfect = _synthetic_trial_116(tmp_path, perfect_adherence=True)
    out_p = tmp_path / "perfect"
    cli.main(
        [
            "analyze",
            "--input",
            str(perfect),
            "--outcome-type",
            "binary",
            "--output-dir",
            str(out_p),
        ]
    )
    rows = _read(out_p / "analysis.csv")
    late = {
        (r["weights"], r["se_mode"], r["df_mode"]): r
        for r in rows
        if r["estimator"] == "late"
    }
    itt_rows = {
        (r["weights"], r["se_mode"], r["df_mode"]): r
        for r in rows
        if r["estimator"] == "itt"
    }
    identical = all(
        abs(float(late[k]["estimate"]) - float(itt_rows[k]["estimate"])) < 1e-10
        and abs(float(late[k]["se"]) - float(itt_rows[k]["se"])) < 1e-10
        for k in late
    )
    check(
        "criterion 8 (116-cluster grid structure; perfect adherence LATE == ITT)",
        grids_ok and identical,
        "; ".join(details) + f"; perfect-adherence rows identical: {identical}",
    )
