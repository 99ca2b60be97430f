"""Cost estimators over sampled trajectory sets.

Two families: plain sample averages of trajectory costs, and weighted
averages where each cost is scaled by its normalized likeliness (weights sum
to the set size, so equal weights reduce to the plain mean).  The weighted
estimator derives the normalized weights from the set's raw likeliness on
every call, through ``normalize_weights``, which also rejects weights that
do not sum to the set size.  The nominal estimator simulates a single path
with every disturbance at its mean.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import (
    SamplingScheme,
    StochasticModel,
    TrajectorySet,
    rollout,
)

__all__ = [
    "EstimatorScheme",
    "Estimate",
    "estimate_nbo",
    "estimate_mean",
    "estimate_weighted",
    "normalize_weights",
]


class EstimatorScheme(Enum):
    NBO = "nbo"
    MEAN_TREE = "mean_tree"
    MEAN_PRUNED = "mean_pruned"
    MEAN_INDEPENDENT = "mean_independent"
    WEIGHTED_TREE = "weighted_tree"
    WEIGHTED_PRUNED = "weighted_pruned"
    WEIGHTED_INDEPENDENT = "weighted_independent"


_MEAN_SCHEME = {
    SamplingScheme.TREE: EstimatorScheme.MEAN_TREE,
    SamplingScheme.TREE_PRUNED: EstimatorScheme.MEAN_PRUNED,
    SamplingScheme.INDEPENDENT: EstimatorScheme.MEAN_INDEPENDENT,
}

_WEIGHTED_SCHEME = {
    SamplingScheme.TREE: EstimatorScheme.WEIGHTED_TREE,
    SamplingScheme.TREE_PRUNED: EstimatorScheme.WEIGHTED_PRUNED,
    SamplingScheme.INDEPENDENT: EstimatorScheme.WEIGHTED_INDEPENDENT,
}


@dataclass(frozen=True)
class Estimate:
    """An expected-cost estimate with its sampling pedigree.

    ``empirical_variance`` is the unbiased sample variance of the averaged
    terms (per-trajectory costs, or weighted terms for weighted schemes);
    it is 0 for a single sample.
    """

    value: float
    n_samples: int
    empirical_variance: float
    scheme: EstimatorScheme


def estimate_nbo(model: StochasticModel, controls) -> Estimate:
    """Cost of the nominal path: every disturbance replaced by its mean."""
    nominal = [(model.noise.mean, 1.0)] * model.horizon
    path = rollout(model, controls, nominal)
    return Estimate(
        value=path.cost,
        n_samples=1,
        empirical_variance=0.0,
        scheme=EstimatorScheme.NBO,
    )


def _variance(terms: np.ndarray) -> float:
    if terms.shape[0] < 2:
        return 0.0
    return float(np.var(terms, ddof=1))


def estimate_mean(trajectories: TrajectorySet) -> Estimate:
    """Plain average of trajectory costs."""
    n = len(trajectories)
    if n == 0:
        raise ValueError("cannot estimate from an empty trajectory set")
    costs = trajectories.costs
    return Estimate(
        value=float(costs.sum() / n),
        n_samples=n,
        empirical_variance=_variance(costs),
        scheme=_MEAN_SCHEME[trajectories.scheme],
    )


def normalize_weights(trajectories: TrajectorySet) -> np.ndarray:
    """The set's normalized weights, an (n,) array that sums to the set size.

    q_i = likeliness_i * n / sum(likeliness).  A set whose weights do not
    sum to n is rejected: that happens when the likeliness underflows, so
    ``n / total`` overflows and the weights come out NaN.
    """
    lik = trajectories.raw_likeliness
    if np.any(lik < 0.0):
        raise ValueError("raw likeliness values must be nonnegative")
    total = float(lik.sum())
    if total == 0.0:
        raise ValueError("cannot normalize all-zero likeliness")
    n = len(trajectories)
    # An underflowed total makes n / total inf and a zero likeliness times it
    # NaN; the check below reports that, so numpy need not warn first.
    with np.errstate(invalid="ignore"):
        q = lik * (n / total)
    q_total = q.sum()
    if not math.isclose(q_total, float(n), rel_tol=1e-9, abs_tol=1e-9):
        raise ValueError(f"normalized weights must sum to the set size {n}, got {q_total}")
    return q


def estimate_weighted(trajectories: TrajectorySet) -> Estimate:
    """Likeliness-weighted average: (1/n) * sum_i q_i * cost_i.

    The weights q come from ``normalize_weights``.  Rescaling all raw
    likeliness values by a common factor leaves the estimate unchanged.
    """
    n = len(trajectories)
    if n == 0:
        raise ValueError("cannot estimate from an empty trajectory set")
    terms = normalize_weights(trajectories) * trajectories.costs
    return Estimate(
        value=float(terms.sum() / n),
        n_samples=n,
        empirical_variance=_variance(terms),
        scheme=_WEIGHTED_SCHEME[trajectories.scheme],
    )
