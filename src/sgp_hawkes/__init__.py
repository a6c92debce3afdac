"""Sigmoid-Gaussian-process Hawkes processes: simulation, EM, VI, baselines.

The conditional intensity is lambda(t) = mu(t) + sum phi(t - t_i) with both
the background mu and the trigger kernel phi modeled as a positive bound times
a sigmoid-transformed sparse Gaussian process. ``fit_em`` returns MAP point
estimates, ``fit_vi`` a mean-field posterior, ``fit_mle`` a parametric
exponential-kernel baseline; the evaluation module scores held-out data and
runs time-rescaling goodness-of-fit checks.
"""

from .em import fit_em
from .evaluation import RescaledSample, est_err, ks_statistic, rescale, test_ll
from .fitbase import FitConfig, FitReport, SgpModel
from .kernels import InducingGrid, KernelHyperparams, uniform_inducing_grid
from .mle import ExpHawkesParams, exp_hawkes_nll, fit_mle
from .process import (
    EventSequence,
    RateFunctions,
    case1_rates,
    case2_rates,
    log_likelihood,
    simulate_thinning,
)
from .serialize import load_model, rates_for_eval, save_model
from .vi import fit_vi

__version__ = "0.1.0"

__all__ = [
    "EventSequence",
    "ExpHawkesParams",
    "FitConfig",
    "FitReport",
    "InducingGrid",
    "KernelHyperparams",
    "RateFunctions",
    "RescaledSample",
    "SgpModel",
    "case1_rates",
    "case2_rates",
    "est_err",
    "exp_hawkes_nll",
    "fit_em",
    "fit_mle",
    "fit_vi",
    "ks_statistic",
    "load_model",
    "log_likelihood",
    "rates_for_eval",
    "rescale",
    "save_model",
    "simulate_thinning",
    "test_ll",
    "uniform_inducing_grid",
    "__version__",
]
