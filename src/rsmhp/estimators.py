"""Cost estimators over sampled trajectory sets.

Two families: plain sample averages of trajectory costs, and weighted
averages where each cost is scaled by its normalized likeliness (weights sum
to the set size, so equal weights reduce to the plain mean).  The weighted
estimator derives the normalized weights from the set's raw likeliness on
every call, through ``normalize_weights``, which also rejects weights that
do not sum to the set size.  The nominal estimator simulates a single path
with every disturbance at its mean.

A stacked set, one contiguous block of rows per replication as the samplers
return it, is reduced in one pass: given ``blocks``, the estimators view its
arrays as (blocks, n) and sum each row, and the estimate holds one value per
block.  A single set is one block of the same code.  Each row's sum has the
bits of that block's own ``.sum()``, so a replication's estimate does not
depend on how many replications were stacked with it.  The sample variance of
the averaged terms is computed only when it is read.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from ._checks import check_int
from .model import (
    Array,
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

# Tolerance of the "weights sum to the set size" check, relative and absolute.
_SUM_TOL = 1e-9


@dataclass(frozen=True)
class Estimate:
    """An expected-cost estimate with its sampling pedigree.

    ``terms`` are the averaged terms: per-trajectory costs, or weighted terms
    for weighted schemes.  From a single set they are (n,) and ``value`` is
    their mean, a float.  From an estimator given ``blocks`` they are
    (blocks, n) and ``value`` is the (blocks,) array of row means.  Either
    way ``n_samples`` is n, the size of one block.

    ``empirical_variance`` is the unbiased sample variance of the terms (per
    block), 0 for a single sample.  It is computed on first read.
    """

    value: float | Array
    n_samples: int
    scheme: EstimatorScheme
    terms: Array = field(repr=False, compare=False)

    @cached_property
    def empirical_variance(self) -> float | Array:
        if self.n_samples < 2:
            spread = np.zeros(self.terms.shape[:-1])
        else:
            spread = np.var(self.terms, axis=-1, ddof=1)
        return float(spread) if self.terms.ndim == 1 else spread


def estimate_nbo(model: StochasticModel, controls) -> Estimate:
    """Cost of the nominal path: every disturbance replaced by its mean."""
    nominal = [(model.noise.mean, 1.0)] * model.horizon
    path = rollout(model, controls, nominal)
    return Estimate(
        value=path.cost,
        n_samples=1,
        scheme=EstimatorScheme.NBO,
        terms=np.array([path.cost]),
    )


def _rows(values: Array, blocks: int | None) -> Array:
    """``values`` as a (blocks, n) view, one row per block; no ``blocks`` is one block."""
    if values.shape[0] == 0:
        raise ValueError("cannot estimate from an empty trajectory set")
    if blocks is None:
        return values[None, :]
    check_int("blocks", blocks, 1)
    if values.shape[0] % blocks:
        raise ValueError(f"cannot cut {values.shape[0]} trajectories into {blocks} equal blocks")
    return values.reshape(blocks, values.shape[0] // blocks)


def _estimate(terms: Array, blocks: int | None, scheme: EstimatorScheme) -> Estimate:
    """Row means of the (blocks, n) ``terms``; a float from one set without ``blocks``."""
    n = terms.shape[1]
    values = terms.sum(axis=1) / n
    if blocks is None:
        return Estimate(float(values[0]), n, scheme, terms[0])
    return Estimate(values, n, scheme, terms)


def estimate_mean(trajectories: TrajectorySet, blocks: int | None = None) -> Estimate:
    """Plain average of trajectory costs, per block when ``blocks`` is given.

    ``blocks`` cuts a stacked set into that many equal blocks of consecutive
    rows, one per replication, and the estimate holds one value per block.
    """
    costs = _rows(trajectories.costs, blocks)
    return _estimate(costs, blocks, _MEAN_SCHEME[trajectories.scheme])


def _normalized(lik: Array) -> Array:
    """Normalized weights of (blocks, n) raw likeliness, each row summing to n."""
    if np.any(lik < 0.0):
        raise ValueError("raw likeliness values must be nonnegative")
    totals = lik.sum(axis=1)
    if np.any(totals == 0.0):
        raise ValueError("cannot normalize all-zero likeliness")
    n = lik.shape[1]
    # An underflowed total makes n / total inf and a zero likeliness times it
    # NaN; the check below reports that, so numpy need not warn first.
    with np.errstate(over="ignore", invalid="ignore"):
        q = lik * (n / totals)[:, None]
    q_totals = q.sum(axis=1)
    # math.isclose(q_total, n, rel_tol=_SUM_TOL, abs_tol=_SUM_TOL), row by row.
    miss = np.abs(q_totals - n)
    close = np.isfinite(q_totals) & (
        (miss <= _SUM_TOL * np.abs(q_totals)) | (miss <= _SUM_TOL * n) | (miss <= _SUM_TOL)
    )
    if not close.all():
        raise ValueError(f"normalized weights must sum to the set size {n}, got {q_totals[np.argmin(close)]}")
    return q


def normalize_weights(trajectories: TrajectorySet) -> np.ndarray:
    """The set's normalized weights, an (n,) array that sums to the set size.

    q_i = likeliness_i * n / sum(likeliness).  A set whose weights do not
    sum to n is rejected: that happens when the likeliness underflows, so
    ``n / total`` overflows and the weights come out NaN.
    """
    return _normalized(trajectories.raw_likeliness[None, :])[0]


def estimate_weighted(trajectories: TrajectorySet, blocks: int | None = None) -> Estimate:
    """Likeliness-weighted average: (1/n) * sum_i q_i * cost_i, per block when given.

    The weights q are ``normalize_weights``'s, taken per block.  Rescaling
    all raw likeliness values by a common factor leaves the estimate
    unchanged.  ``blocks`` acts as in ``estimate_mean``; a block whose
    weights fail the sum check fails the whole call.
    """
    terms = _normalized(_rows(trajectories.raw_likeliness, blocks))
    terms *= _rows(trajectories.costs, blocks)
    return _estimate(terms, blocks, _WEIGHTED_SCHEME[trajectories.scheme])
