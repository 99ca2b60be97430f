"""Cost estimators over sampled trajectory sets.

Two families: plain sample averages of trajectory costs, and weighted
averages where each cost is scaled by its normalized likeliness (weights sum
to the set size, so equal weights reduce to the plain mean).  The weighted
estimator derives the normalized weights from the set's raw likeliness on
every call, through ``normalize_weights``, which also rejects weights that
do not sum to the set size.  The nominal estimator simulates a single path
with every disturbance at its mean.

Every reduction runs along the last axis.  So a stacked set, whose leading
axis holds one replication per row as the samplers return it, is reduced in
one pass, and the estimate holds one value per replication; an unstacked set
is the same code on a 1-d array.  Each row's sum has the bits of that
replication's own ``.sum()``, so a replication's estimate does not depend on
how many replications were stacked with it.  The sample variance of the
averaged terms is computed only when it is read.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .model import Array, StochasticModel, TrajectorySet, rollout

__all__ = [
    "Estimate",
    "estimate_nbo",
    "estimate_mean",
    "estimate_weighted",
    "normalize_weights",
]


# Tolerance of the "weights sum to the set size" check, relative and absolute.
_SUM_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class Estimate:
    """An expected-cost estimate and the terms it averages.

    ``terms`` are per-trajectory costs, or likeliness-weighted costs for the
    weighted estimator, shaped like the set's costs.  From an unstacked set
    they are (n,) and ``value`` is their mean, a float.  From a stacked set
    they are (R, n) and ``value`` is the (R,) array of row means.  Either
    way the sample count of an estimate is ``terms.shape[-1]``.  Estimates
    compare by identity, since ``value`` may be an array.

    ``empirical_variance`` is the unbiased sample variance of the terms (per
    replication), 0 for a single sample.  It is computed on first read.
    """

    value: float | Array
    terms: Array = field(repr=False)

    @cached_property
    def empirical_variance(self) -> float | Array:
        if self.terms.shape[-1] < 2:
            spread = np.zeros(self.terms.shape[:-1])
        else:
            spread = np.var(self.terms, axis=-1, ddof=1)
        return float(spread) if self.terms.ndim == 1 else spread


def estimate_nbo(model: StochasticModel, controls) -> Estimate:
    """Cost of the nominal path: every disturbance replaced by its mean."""
    costs = rollout(model, controls, [(model.noise.mean, 1.0)] * model.horizon).costs
    return Estimate(float(costs[0]), costs)


def _nonempty(values: Array) -> Array:
    if values.size == 0:
        raise ValueError("cannot estimate from an empty trajectory set")
    return values


def _estimate(terms: Array) -> Estimate:
    """Means of ``terms`` along the last axis; a float from an unstacked set."""
    values = terms.sum(axis=-1) / terms.shape[-1]
    return Estimate(float(values) if terms.ndim == 1 else values, terms)


def estimate_mean(trajectories: TrajectorySet) -> Estimate:
    """Plain average of trajectory costs, one per replication of a stacked set."""
    return _estimate(_nonempty(trajectories.costs))


def _normalized(lik: Array) -> Array:
    """Normalized weights of raw likeliness, each last-axis row summing to its length n."""
    if np.any(lik < 0.0):
        raise ValueError("raw likeliness values must be nonnegative")
    totals = lik.sum(axis=-1, keepdims=True)
    if np.any(totals == 0.0):
        raise ValueError("cannot normalize all-zero likeliness")
    n = lik.shape[-1]
    # An underflowed total makes n / total inf and a zero likeliness times it
    # NaN; the check below reports that, so numpy need not warn first.
    with np.errstate(over="ignore", invalid="ignore"):
        q = lik * (n / totals)
    q_totals = q.sum(axis=-1)
    # math.isclose(q_total, n, rel_tol=_SUM_TOL, abs_tol=_SUM_TOL), row by row.
    miss = np.abs(q_totals - n)
    close = np.isfinite(q_totals) & (
        (miss <= _SUM_TOL * np.abs(q_totals)) | (miss <= _SUM_TOL * n) | (miss <= _SUM_TOL)
    )
    if not close.all():
        raise ValueError(f"normalized weights must sum to the set size {n}, got {q_totals.flat[np.argmin(close)]}")
    return q


def normalize_weights(trajectories: TrajectorySet) -> np.ndarray:
    """The set's normalized weights, shaped like its costs, each row summing to its size n.

    q_i = likeliness_i * n / sum(likeliness), over the set's paths or, for a
    stacked set, over each replication's.  Weights that do not sum to n are
    rejected: that happens when the likeliness underflows, so ``n / total``
    overflows and the weights come out NaN.
    """
    return _normalized(trajectories.raw_likeliness)


def estimate_weighted(trajectories: TrajectorySet) -> Estimate:
    """Likeliness-weighted average: (1/n) * sum_i q_i * cost_i, one per replication.

    The weights q are ``normalize_weights``'s.  Rescaling all raw likeliness
    values by a common factor leaves the estimate unchanged.  In a stacked
    set, a replication whose weights fail the sum check fails the whole call.
    """
    terms = _normalized(_nonempty(trajectories.raw_likeliness))
    terms *= trajectories.costs
    return _estimate(terms)
