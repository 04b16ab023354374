"""Closure-probability estimation for geometric lifespans from
left-truncated, right-censored event-history panels."""

from .estimator import (
    EstimateResult,
    NoRiskTimeError,
    SufficientStats,
    estimate,
    sufficient_stats,
    theta_hat,
    var_hat,
    wald_ci,
)
from .likelihood import LogLikProfile, conditional_loglik, grid_argmax, likelihood_contribution
from .model import (
    LatentUnit,
    ObservedUnit,
    StudyDesign,
    TruncationDist,
    geom_pmf,
    geom_survival,
    life_expectancy,
    observe,
    sample_units,
)
from .panel_io import AggregateTable, PanelFormatError, parse_aggregate, parse_units, to_sufficient_stats
from .paths import PathBundle, build_paths, sum_identities
from .simulation import (
    SimConfig,
    StudyReport,
    asymptotic_variance,
    run_replicate,
    run_study,
)

__version__ = "0.1.0"

__all__ = [
    "AggregateTable",
    "EstimateResult",
    "LatentUnit",
    "LogLikProfile",
    "NoRiskTimeError",
    "ObservedUnit",
    "PanelFormatError",
    "PathBundle",
    "SimConfig",
    "StudyDesign",
    "StudyReport",
    "SufficientStats",
    "TruncationDist",
    "asymptotic_variance",
    "build_paths",
    "conditional_loglik",
    "estimate",
    "geom_pmf",
    "geom_survival",
    "grid_argmax",
    "life_expectancy",
    "likelihood_contribution",
    "observe",
    "parse_aggregate",
    "parse_units",
    "run_replicate",
    "run_study",
    "sample_units",
    "sufficient_stats",
    "sum_identities",
    "theta_hat",
    "to_sufficient_stats",
    "var_hat",
    "wald_ci",
]
