"""Bayesian inference for mixture autoregressive time series models.

Gaussian mixture autoregressions are fit by Gibbs sampling with a
random-walk step over the full stability region of the AR coefficients,
relabelled online to undo label switching, extended across model orders by
birth and death moves, compared through marginal likelihoods, and used for
posterior-averaged density forecasts.
"""

from .datasets import DatasetRecipe, model_a_spec, model_b_spec, prepare_recipe
from .evidence import (
    EvidenceConfig,
    EvidenceResult,
    marginal_log_likelihood,
    select_g,
)
from .forecast import (
    ForecastRequest,
    ForecastResult,
    posterior_averaged_forecast,
    predictive_density_fixed,
    predictive_moments,
)
from .model import (
    MARSpec,
    TimeSeries,
    conditional_cdf,
    conditional_moments,
    conditional_pdf,
    log_likelihood,
    simulate_path,
    theoretical_acf,
)
from .relabel import RelabelConfig, relabel_chain
from .rjmcmc import OrderMoveConfig, OrderTrace, rjmcmc_run
from .sampler import (
    ChainOutput,
    Hyperparams,
    default_hyperparams,
    gibbs_sweep,
    run_chain,
    tune_gamma,
)
from .stability import StabilityReport, is_stable, spectral_radius, stability_matrix
from .summary import DensityGrid, ParameterSummary, average_density, density_grid, summarize

__version__ = "0.1.0"

__all__ = [
    "ChainOutput",
    "DatasetRecipe",
    "DensityGrid",
    "EvidenceConfig",
    "EvidenceResult",
    "ForecastRequest",
    "ForecastResult",
    "Hyperparams",
    "MARSpec",
    "OrderMoveConfig",
    "OrderTrace",
    "ParameterSummary",
    "RelabelConfig",
    "StabilityReport",
    "TimeSeries",
    "average_density",
    "conditional_cdf",
    "conditional_moments",
    "conditional_pdf",
    "default_hyperparams",
    "density_grid",
    "gibbs_sweep",
    "is_stable",
    "log_likelihood",
    "marginal_log_likelihood",
    "model_a_spec",
    "model_b_spec",
    "posterior_averaged_forecast",
    "predictive_density_fixed",
    "predictive_moments",
    "prepare_recipe",
    "relabel_chain",
    "rjmcmc_run",
    "run_chain",
    "select_g",
    "simulate_path",
    "spectral_radius",
    "stability_matrix",
    "summarize",
    "theoretical_acf",
    "tune_gamma",
    "__version__",
]
