"""Bayesian inference for mixture autoregressive time series models.

Gaussian mixture autoregressions are fit by Gibbs sampling with a
random-walk step over the full stability region of the AR coefficients,
relabelled online to undo label switching, extended across model orders by
birth and death moves, compared through marginal likelihoods, and used for
posterior-averaged density forecasts.

`import mixar` loads no submodule: each public name is imported from its
home module (`_EXPORTS`) when first read, so a command that forecasts from
stored draws never loads the samplers.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "Hyperparams": "config", "RelabelConfig": "config", "OrderMoveConfig": "config",
    "EvidenceConfig": "config", "ForecastRequest": "config",
    "DatasetRecipe": "datasets", "model_a_spec": "datasets", "model_b_spec": "datasets",
    "ChainOutput": "model", "MARSpec": "model", "TimeSeries": "model",
    "conditional_cdf": "model", "conditional_moments": "model", "conditional_pdf": "model",
    "log_likelihood": "model", "simulate_path": "model", "theoretical_acf": "model",
    "StabilityReport": "stability", "is_stable": "stability", "spectral_radius": "stability",
    "default_hyperparams": "sampler", "gibbs_sweep": "sampler", "run_chain": "sampler",
    "tune_gamma": "sampler",
    "relabel_chain": "relabel",
    "OrderTrace": "rjmcmc", "rjmcmc_run": "rjmcmc",
    "EvidenceResult": "evidence", "marginal_log_likelihood": "evidence", "select_g": "evidence",
    "ForecastResult": "forecast", "posterior_averaged_forecast": "forecast",
    "predictive_density_fixed": "forecast", "predictive_moments": "forecast",
    "DensityGrid": "summary", "ParameterSummary": "summary", "average_density": "summary",
    "density_grid": "summary", "summarize": "summary",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
