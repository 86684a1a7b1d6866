"""Complier-effect estimation for cluster randomised trials.

Estimates the local average treatment effect under non-adherence by two-stage
least squares on cluster-level summaries, with the weighting, robust-SE, and
degrees-of-freedom strategies exposed as an options grid, plus a reproducible
Monte Carlo engine for studying their finite-sample behaviour.
"""

from .collapse import (
    IccEstimate,
    anova_icc,
    binary_residuals,
    cluster_means,
    continuous_residuals,
    summaries_from_values,
)
from .dgp import (
    AdherenceLevel,
    GeneratedTrial,
    ParetoSizes,
    PoissonSizes,
    ScenarioConfig,
    calibrate_lambda0,
    draw_cluster_sizes,
    generate,
    screen_weak_instrument,
)
from .iv import (
    TslsInternals,
    first_stage_f,
    itt,
    late_from_dataset,
    tsls,
    tsls_system,
    wald_late,
)
from .mc import (
    ClOutcome,
    McReport,
    VariantKey,
    VariantResult,
    bias_and_mce,
    coverage_and_mce,
    run_study,
    variant_grid,
)
from .model import (
    AnalysisOptions,
    ComplianceClass,
    DfMode,
    IndividualRecord,
    LateFit,
    OutcomeKind,
    SeMode,
    Summaries,
    TrialDataset,
    Weights,
    validate,
)
from .wls import DesignFit, fit_wls, inference, mv_weights

__version__ = "0.1.0"

__all__ = [
    "AdherenceLevel",
    "AnalysisOptions",
    "ClOutcome",
    "ComplianceClass",
    "DesignFit",
    "DfMode",
    "GeneratedTrial",
    "IccEstimate",
    "IndividualRecord",
    "LateFit",
    "McReport",
    "OutcomeKind",
    "ParetoSizes",
    "PoissonSizes",
    "ScenarioConfig",
    "SeMode",
    "Summaries",
    "TrialDataset",
    "TslsInternals",
    "VariantKey",
    "VariantResult",
    "Weights",
    "anova_icc",
    "bias_and_mce",
    "binary_residuals",
    "calibrate_lambda0",
    "cluster_means",
    "continuous_residuals",
    "coverage_and_mce",
    "draw_cluster_sizes",
    "first_stage_f",
    "fit_wls",
    "generate",
    "inference",
    "itt",
    "late_from_dataset",
    "mv_weights",
    "run_study",
    "screen_weak_instrument",
    "summaries_from_values",
    "tsls",
    "tsls_system",
    "validate",
    "variant_grid",
    "wald_late",
]
