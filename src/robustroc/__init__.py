"""Robust covariate-conditional ROC curve and AUC estimation.

Pipeline: fit location-scale regressions per population with MM-estimators,
build an adaptive outlier-downweighting empirical distribution of the
standardized residuals, and plug both into the conditional ROC formula.
A Monte Carlo lab and a CLI for datasets, surfaces, and campaigns round
out the package.
"""
from .models import (
    EvalGrid,
    Family,
    FitMethod,
    Group,
    PopulationSample,
    RegressionSpec,
    RobustFit,
    ScenarioKind,
    default_grids,
    design_matrix,
    standardized_residuals,
)
from .robust import (
    DegenerateScaleWarning,
    MMConfig,
    bisquare_rho,
    bisquare_weight,
    fit_least_squares,
    fit_mm_linear,
    fit_mm_nonlinear,
    m_scale,
)
from .weighting import (
    ReferenceDistribution,
    WeightedEcdf,
    WeightFunction,
    WeightKind,
    adaptive_cutoff,
    atypicality_dn,
    build_weighted_ecdf,
    hard_rejection,
    normal_reference,
    plain_ecdf,
    smooth_polynomial,
    standard_normal_reference,
    weight_function,
)
from .roc import (
    AucCurve,
    ConditionalRocModel,
    MarkerTransform,
    RocSurface,
    Variant,
    auc_curve,
    roc_at,
    roc_surface,
    transform_marker,
)
from .simulate import (
    ContaminationKind,
    ContaminationScheme,
    MetricsReport,
    ScenarioSpec,
    VariantMetrics,
    generate,
    ks_metric,
    mse_metric,
    run_campaign,
    true_surface,
)
from .datasets import (
    DatasetFormatError,
    SyntheticStudy,
    make_synthetic_study,
    read_dataset,
    write_dataset,
)
from .config import ConfigError, RunConfig, load_config

__version__ = "0.1.0"

__all__ = [
    "AucCurve", "ConditionalRocModel", "ConfigError", "ContaminationKind",
    "ContaminationScheme", "DatasetFormatError", "DegenerateScaleWarning",
    "EvalGrid", "Family", "FitMethod", "Group", "MMConfig", "MarkerTransform",
    "MetricsReport", "PopulationSample", "ReferenceDistribution", "RegressionSpec",
    "RobustFit", "RocSurface", "RunConfig", "ScenarioKind",
    "ScenarioSpec", "SyntheticStudy", "Variant", "VariantMetrics", "WeightFunction",
    "WeightKind", "WeightedEcdf", "adaptive_cutoff", "atypicality_dn",
    "auc_curve", "bisquare_rho", "bisquare_weight", "build_weighted_ecdf",
    "default_grids", "design_matrix", "fit_least_squares",
    "fit_mm_linear", "fit_mm_nonlinear", "generate",
    "hard_rejection", "ks_metric", "load_config", "m_scale",
    "make_synthetic_study", "mse_metric", "normal_reference", "plain_ecdf",
    "read_dataset", "roc_at", "roc_surface", "run_campaign", "smooth_polynomial",
    "standard_normal_reference", "standardized_residuals", "transform_marker",
    "true_surface", "weight_function", "write_dataset",
]
