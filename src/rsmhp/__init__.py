"""Monte-Carlo multipath cost estimation for finite-horizon stochastic control.

Sampling schemes (branching tree, likeliness-pruned tree, independent paths)
and estimators (nominal, mean, likeliness-weighted) over a small model
abstraction, with exact analytic oracles for linear benchmarks, a target
tracking case study, and a reproducible experiment harness.
"""
from .model import (
    DimensionError,
    DiscreteNoise,
    GaussianNoise,
    NoiseLaw,
    StochasticModel,
    TrajectorySet,
    as_controls,
    rollout,
    trajectory_cost,
)
from .sampling import (
    PruneRecord,
    SamplerConfig,
    TreeSizeError,
    sample_independent,
    sample_tree,
    sample_tree_pruned,
    sample_tree_pruned_logged,
)
from .estimators import (
    Estimate,
    estimate_mean,
    estimate_nbo,
    estimate_weighted,
    normalize_weights,
)
from .linear import (
    LinearModel,
    LqgParams,
    chebyshev_bound,
    linear_stochastic_model,
    lqg_cost_variance,
    lqg_exact_cost,
    lqg_stochastic_model,
    nbo_error,
    power_sum,
    var_p,
)

__version__ = "0.1.0"

__all__ = [
    "DimensionError",
    "DiscreteNoise",
    "GaussianNoise",
    "NoiseLaw",
    "StochasticModel",
    "TrajectorySet",
    "as_controls",
    "rollout",
    "trajectory_cost",
    "PruneRecord",
    "SamplerConfig",
    "TreeSizeError",
    "sample_independent",
    "sample_tree",
    "sample_tree_pruned",
    "sample_tree_pruned_logged",
    "Estimate",
    "estimate_mean",
    "estimate_nbo",
    "estimate_weighted",
    "normalize_weights",
    "LinearModel",
    "LqgParams",
    "chebyshev_bound",
    "linear_stochastic_model",
    "lqg_cost_variance",
    "lqg_exact_cost",
    "lqg_stochastic_model",
    "nbo_error",
    "power_sum",
    "var_p",
    "__version__",
]
