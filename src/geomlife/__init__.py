"""Closure-probability estimation for geometric lifespans from
left-truncated, right-censored event-history panels.

The public names below are loaded on first use (PEP 562), so importing
the package costs nothing until a name is needed, and a name loads only
its own module and what that module imports.
"""

import importlib

__version__ = "0.1.0"

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "EstimateResult": "estimator",
    "NoRiskTimeError": "estimator",
    "SufficientStats": "estimator",
    "estimate": "estimator",
    "sufficient_stats": "estimator",
    "theta_hat": "estimator",
    "var_hat": "estimator",
    "wald_ci": "estimator",
    "conditional_loglik": "likelihood",
    "grid_argmax": "likelihood",
    "likelihood_contribution": "likelihood",
    "LatentUnit": "model",
    "ObservedUnit": "model",
    "StudyDesign": "model",
    "TruncationDist": "model",
    "geom_pmf": "model",
    "geom_survival": "model",
    "life_expectancy": "model",
    "observe": "model",
    "sample_units": "model",
    "AggregateTable": "panel_io",
    "PanelFormatError": "panel_io",
    "parse_aggregate": "panel_io",
    "parse_units": "panel_io",
    "to_sufficient_stats": "panel_io",
    "PathBundle": "paths",
    "build_paths": "paths",
    "sum_identities": "paths",
    "SimConfig": "simulation",
    "StudyReport": "simulation",
    "asymptotic_variance": "simulation",
    "run_replicate": "simulation",
    "run_study": "simulation",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
