"""
Covariate adjustment, ICC estimation, and weighting
===================================================

Cluster-level regressions can only include cluster-level covariates
directly.  Individual-level covariates enter through a two-step detour:
regress the outcome on them (ignoring treatment and clustering), then use
the within-cluster residual means as the outcome summaries.  This script
shows that machinery, the one-way ANOVA ICC estimate, and how the ICC
drives minimum-variance weights.
"""

import numpy as np

from crtiv import (
    AdherenceLevel,
    AnalysisOptions,
    PoissonSizes,
    ScenarioConfig,
    SeMode,
    Weights,
    anova_icc,
    cluster_means,
    continuous_residuals,
    generate,
    late_from_dataset,
    mv_weights,
    summaries_from_values,
    tsls,
    validate,
)

# 1. Generate a trial with individual-level non-adherence and covariates that
#    matter: both the cluster covariate and the individual covariate shift
#    adherence and the outcome.
config = ScenarioConfig(
    adherence=AdherenceLevel.INDIVIDUAL,
    n_clusters=40,
    sizes=PoissonSizes(25.0),
    rho_y=0.10,
    pi=0.85,
    lambda_w=0.7,
    lambda_x=0.7,
    beta_w=0.4,
    beta_x=0.4,
    beta_cz=0.4,
)
trial = generate(config, seed=2024)
dataset = validate(trial.dataset)
print(f"true complier effect: {config.beta_cz}")

# 2. Outcome ICC by one-way ANOVA, and what it does to the weights: at
#    rho = 0 minimum-variance weights equal cluster sizes, at rho = 1 they
#    flatten to one; estimates in between shrink the influence of big
#    clusters.
columns = dataset.columns()
est = anova_icc(columns.y, columns.codes)
print(f"\noutcome ICC: rho = {est.rho:.3f} "
      f"(between {est.sigma2_between:.3f}, within {est.sigma2_within:.3f})")
sizes = np.array([s.n for s in cluster_means(dataset)])
for rho in (0.0, est.rho, 1.0):
    w = mv_weights(sizes, rho)
    print(f"  rho={rho:.3f}: weight range {w.min():6.2f} .. {w.max():6.2f}")

# 3. Raw vs covariate-adjusted outcome summaries.  Adjusting strips the
#    outcome variance attributable to the individual covariate; with these
#    effect sizes that is only a percent or so, so expect a small change in
#    the standard error rather than a dramatic one.
raw = cluster_means(dataset)
adjusted = summaries_from_values(dataset, continuous_residuals(dataset, x_columns=(0,)))
options = AnalysisOptions(se_mode=SeMode.HUBER_WHITE)
fit_raw = tsls(raw, options, icc=est.rho)
fit_adj = tsls(adjusted, options, icc=est.rho)
print(f"\nraw summaries:      {fit_raw.estimate:+.3f}  se {fit_raw.se:.3f}")
print(f"adjusted summaries: {fit_adj.estimate:+.3f}  se {fit_adj.se:.3f}")

# 4. The one-call wrapper reproduces the manual pipeline, re-estimating the
#    ICC on whichever outcome variant is analysed when minimum-variance
#    weights ask for one.
for weights in Weights:
    fit = late_from_dataset(
        dataset,
        AnalysisOptions(weights=weights, se_mode=SeMode.HUBER_WHITE),
        x_columns=(0,),
    )
    print(f"  {weights.value:4s} weighted, adjusted: "
          f"{fit.estimate:+.3f}  ({fit.ci[0]:+.3f}, {fit.ci[1]:+.3f})")

# 5. Cluster covariates enter the two-stage system directly instead: both
#    stages gain the covariate column.
with_w = late_from_dataset(dataset, AnalysisOptions(adjust_w=True))
print(f"\ncluster-covariate adjusted: {with_w.estimate:+.3f}  se {with_w.se:.3f}")
