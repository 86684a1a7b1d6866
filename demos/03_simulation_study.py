"""
A small Monte Carlo study of interval coverage
==============================================

With few clusters, normal-approximation intervals for the two-stage
estimator under-cover; Student-t intervals on J - p degrees of freedom
restore coverage close to the nominal 95%.  This script reproduces that
comparison at desk scale (200 replicates) for a 10-cluster trial, then
prints the study bookkeeping that makes runs reproducible.
"""

import time

from crtiv import (
    AdherenceLevel,
    AnalysisOptions,
    ClOutcome,
    DfMode,
    PoissonSizes,
    ScenarioConfig,
    SeMode,
    VariantKey,
    Weights,
    run_study,
)

# 1. Scenario: 10 large clusters, high outcome ICC, cluster-level refusal,
#    true complier effect 0.4.  Datasets whose first-stage F falls below 10
#    are rejected and redrawn, mimicking a weak-instrument screen.
config = ScenarioConfig(
    adherence=AdherenceLevel.CLUSTER,
    n_clusters=10,
    sizes=PoissonSizes(100.0),
    rho_y=0.20,
    pi=0.60,
    beta_cz=0.4,
)

# 2. Two estimator variants that differ only in the degrees-of-freedom rule.
variants = tuple(
    VariantKey(ClOutcome.UNADJUSTED, AnalysisOptions(Weights.NONE, SeMode.HUBER_WHITE, df_mode))
    for df_mode in DfMode
)

start = time.time()
report = run_study(config, n_replicates=200, variants=variants, master_seed=11)
elapsed = time.time() - start

# 3. Coverage with each variant's own critical value.  The nominal band at
#    this replicate count is wide, but the ordering is already clear.
print(f"retained {report.n_replicates} datasets "
      f"({report.rejected_weak} rejected as weak, {elapsed:.1f}s)\n")
print(f"{'variant':44s}  {'bias':>7s}  {'coverage':>8s}  {'mean se':>7s}")
for key, result in report.variants.items():
    print(
        f"{key.label():44s}  {result.bias:+.4f}  {result.coverage:8.3f}  "
        f"{result.mean_se:7.3f}"
    )

normal, small = (report.variants[v] for v in variants)
print(
    f"\nnormal-approximation coverage {normal.coverage:.3f} vs "
    f"small-sample t coverage {small.coverage:.3f} "
    f"(nominal 0.95, Monte Carlo error {small.mce_coverage:.3f})"
)

# 4. Determinism: the same master seed always reproduces the same report,
#    independent of thread count, because each attempt derives its own seed
#    from (master_seed, attempt_index).
again = run_study(config, n_replicates=200, variants=variants, master_seed=11)
print(f"\nsame master seed reproduces the report: {again.variants == report.variants}")
