"""Expected information gain estimation for Bayesian experimental designs.

Nested Monte Carlo and an antithetic multilevel estimator with optional
Laplace-based importance sampling, plus two ready-made data models (a
linear-Gaussian case with a closed-form answer and a one-compartment
pharmacokinetic model).
"""

from .adaptive import (
    AdaptiveConfig,
    MlmcRunResult,
    bias_converged,
    estimate_rates,
    nmc_cost_model,
    optimal_allocation,
    run_adaptive,
)
from .bayes import BayesModel, ForwardMap, fd_hessian, fd_jacobian
from .errors import InnerUnderflowError, NonConvergenceError
from .estimators import (
    EstimatorConfig,
    LevelStats,
    merge,
    nmc_estimate,
    sample_level_pair,
    sample_level_values,
    sample_p_values,
)
from .gaussian import GaussianDensity
from .models import (
    LinearGaussianSpec,
    PkSpec,
    linear_gaussian_analytic_eig,
    make_linear_model,
    make_pk_model,
    sampling_schedule,
)
from .streams import RandomStream

__version__ = "0.1.0"

__all__ = [
    "AdaptiveConfig",
    "BayesModel",
    "EstimatorConfig",
    "ForwardMap",
    "GaussianDensity",
    "InnerUnderflowError",
    "LevelStats",
    "LinearGaussianSpec",
    "MlmcRunResult",
    "NonConvergenceError",
    "PkSpec",
    "RandomStream",
    "bias_converged",
    "estimate_rates",
    "fd_hessian",
    "fd_jacobian",
    "linear_gaussian_analytic_eig",
    "make_linear_model",
    "make_pk_model",
    "merge",
    "nmc_cost_model",
    "nmc_estimate",
    "optimal_allocation",
    "run_adaptive",
    "sample_level_values",
    "sample_level_pair",
    "sample_p_values",
    "sampling_schedule",
]
