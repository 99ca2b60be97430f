"""Stochastic control problems: noise laws, models, trajectories, rollouts.

A model is a finite-horizon controlled Markov chain

    x_{k+1} = f(x_k, u_k, w_k),   k = 0..H-1

with additive cost  sum_k g(x_k, u_k) + g_H(x_H).  The model's callables
act on row-stacked states, one row per path, so the samplers step a whole
batch of paths at once and a single-path ``rollout`` is a batch of one
through the same checked stepping code.  Everything downstream (samplers,
estimators) works against this interface only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Sequence

import numpy as np
from numpy.typing import NDArray

Array = NDArray[np.float64]
Rng = np.random.Generator

__all__ = [
    "Array",
    "DimensionError",
    "NoiseLaw",
    "GaussianNoise",
    "DiscreteNoise",
    "DegenerateNoise",
    "StochasticModel",
    "SamplingScheme",
    "Trajectory",
    "TrajectorySet",
    "as_controls",
    "rollout",
    "trajectory_cost",
]


class DimensionError(ValueError):
    """A state, control, or noise vector has the wrong shape."""


class NoiseLaw:
    """Per-step disturbance distribution.

    ``sample_batch(rng, count)`` returns ``(draws (count, dim), weights
    (count,))``, where a weight is the probability mass of its draw for
    discrete laws and the probability density for continuous ones.  Only
    relative weights matter downstream (they are normalized per trajectory
    set), so the two conventions mix freely.  Weights must be strictly
    positive for every drawable value.  Batches are consumed positionally
    by the samplers, so a law only has to be deterministic given the
    generator state.
    """

    mean: Array

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def sample_batch(self, rng: Rng, count: int) -> tuple[Array, Array]:
        raise NotImplementedError


class GaussianNoise(NoiseLaw):
    """Multivariate normal disturbance; weights are density values.

    The density is evaluated through the whitened draw z (|z|^2 equals the
    Mahalanobis distance of the sample), which avoids per-draw solves.
    """

    def __init__(self, mean, cov) -> None:
        mean = np.atleast_1d(np.asarray(mean, dtype=float))
        cov = np.atleast_2d(np.asarray(cov, dtype=float))
        if mean.ndim != 1:
            raise DimensionError(f"mean must be a vector, got shape {mean.shape}")
        d = mean.shape[0]
        if cov.shape != (d, d):
            raise DimensionError(f"cov must be ({d}, {d}), got {cov.shape}")
        if not np.allclose(cov, cov.T, rtol=1e-12, atol=1e-12):
            raise ValueError("cov must be symmetric")
        try:
            self._chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError as exc:
            raise ValueError("cov must be positive definite") from exc
        self.mean = mean
        self.cov = cov
        log_det = 2.0 * np.sum(np.log(np.diag(self._chol)))
        self._log_norm = -0.5 * (d * math.log(2.0 * math.pi) + log_det)

    @classmethod
    def from_std(cls, mean, std) -> "GaussianNoise":
        """Diagonal Gaussian from per-component standard deviations."""
        mean = np.atleast_1d(np.asarray(mean, dtype=float))
        std = np.broadcast_to(np.asarray(std, dtype=float), mean.shape)
        return cls(mean, np.diag(std**2))

    def sample_batch(self, rng: Rng, count: int) -> tuple[Array, Array]:
        z = rng.standard_normal((count, self.dim))
        draws = self.mean + z @ self._chol.T
        weights = np.exp(self._log_norm - 0.5 * np.einsum("ij,ij->i", z, z))
        return draws, weights


class DiscreteNoise(NoiseLaw):
    """Finite-support disturbance; weights are probability masses."""

    def __init__(self, values, probs) -> None:
        values = np.asarray(values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        probs = np.asarray(probs, dtype=float)
        if probs.ndim != 1 or probs.shape[0] != values.shape[0]:
            raise DimensionError("probs must be one weight per support point")
        if np.any(probs < 0.0):
            raise ValueError("probabilities must be nonnegative")
        total = probs.sum()
        if not math.isclose(total, 1.0, rel_tol=1e-9):
            raise ValueError(f"probabilities must sum to 1, got {total}")
        self.values = values
        self.probs = probs / total
        self.mean = self.probs @ self.values

    def sample_batch(self, rng: Rng, count: int) -> tuple[Array, Array]:
        idx = rng.choice(self.values.shape[0], size=count, p=self.probs)
        return self.values[idx], self.probs[idx]


class DegenerateNoise(NoiseLaw):
    """Deterministic disturbance (zero variance); weight is always 1.

    Draws consume no generator state, so degenerate models stay reproducible
    under any sampling scheme.
    """

    def __init__(self, value) -> None:
        self.mean = np.atleast_1d(np.asarray(value, dtype=float))

    def sample_batch(self, rng: Rng, count: int) -> tuple[Array, Array]:
        return np.broadcast_to(self.mean, (count, self.dim)).copy(), np.ones(count)


def _zero_terminal(xs: Array) -> Array:
    return np.zeros(xs.shape[0])


@dataclass(frozen=True)
class StochasticModel:
    """Finite-horizon problem definition over row-stacked states.

    ``transition(xs, u, ws)``, ``stage_cost(xs, u)`` and ``terminal_cost(xs)``
    act on n paths at once: ``xs`` is (n, state_dim), ``ws`` is
    (n, noise_dim) and ``u`` is the step's control vector, shared by every
    row.  They return the successor states (n, state_dim) and the costs
    (n,); any other shape is a ``DimensionError`` naming the callable and
    the step.  Row i of an output must depend on row i of the inputs only.
    """

    state_dim: int
    control_dim: int
    transition: Callable[[Array, Array, Array], Array]
    stage_cost: Callable[[Array, Array], Array]
    noise: NoiseLaw
    horizon: int
    initial_state: Array
    terminal_cost: Callable[[Array], Array] = _zero_terminal

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if self.state_dim < 1 or self.control_dim < 1:
            raise ValueError("state_dim and control_dim must be >= 1")
        x0 = np.atleast_1d(np.asarray(self.initial_state, dtype=float))
        if x0.shape != (self.state_dim,):
            raise DimensionError(
                f"initial_state must have shape ({self.state_dim},), got {x0.shape}"
            )
        x0.flags.writeable = False
        object.__setattr__(self, "initial_state", x0)


class SamplingScheme(Enum):
    TREE = "tree"
    TREE_PRUNED = "tree_pruned"
    INDEPENDENT = "independent"


@dataclass(frozen=True)
class Trajectory:
    """One simulated path with its per-step noise weights.

    ``raw_likeliness`` is the product of the step weights; ``cost`` is the
    accumulated stage cost plus terminal cost.  Values are immutable after
    construction (arrays are marked read-only).
    """

    states: Array
    step_weights: Array
    raw_likeliness: float
    cost: float

    def __post_init__(self) -> None:
        for arr in (self.states, self.step_weights):
            arr.flags.writeable = False

    @property
    def horizon(self) -> int:
        return self.step_weights.shape[0]


class TrajectorySet:
    """Batch of trajectories from one sampling call (columnar storage).

    Arrays are stacked along the leading axis: ``states`` is (n, H+1, dim),
    ``step_weights`` is (n, H).  ``normalized_weights`` is filled by
    ``estimators.normalize_weights`` and sums to n.  ``branch_paths`` records
    each tree trajectory's branch digits (most significant first) and is None
    for the independent scheme.
    """

    def __init__(
        self,
        states: Array,
        step_weights: Array,
        raw_likeliness: Array,
        costs: Array,
        scheme: SamplingScheme,
        normalized_weights: Array | None = None,
        branch_paths: NDArray[np.intp] | None = None,
    ) -> None:
        states = np.asarray(states, dtype=float)
        step_weights = np.asarray(step_weights, dtype=float)
        raw_likeliness = np.asarray(raw_likeliness, dtype=float)
        costs = np.asarray(costs, dtype=float)
        n = states.shape[0]
        if states.ndim != 3:
            raise DimensionError(f"states must be (n, H+1, dim), got {states.shape}")
        if step_weights.shape != (n, states.shape[1] - 1):
            raise DimensionError(
                f"step_weights must be ({n}, {states.shape[1] - 1}), got {step_weights.shape}"
            )
        if raw_likeliness.shape != (n,) or costs.shape != (n,):
            raise DimensionError("raw_likeliness and costs must be (n,)")
        if normalized_weights is not None:
            normalized_weights = np.asarray(normalized_weights, dtype=float)
            if normalized_weights.shape != (n,):
                raise DimensionError("normalized_weights must be (n,)")
            total = normalized_weights.sum()
            if n and not math.isclose(total, float(n), rel_tol=1e-9, abs_tol=1e-9):
                raise ValueError(
                    f"normalized weights must sum to the set size {n}, got {total}"
                )
        for arr in (states, step_weights, raw_likeliness, costs, normalized_weights):
            if arr is not None and arr.flags.owndata:
                arr.flags.writeable = False
        self.states = states
        self.step_weights = step_weights
        self.raw_likeliness = raw_likeliness
        self.costs = costs
        self.scheme = scheme
        self.normalized_weights = normalized_weights
        self.branch_paths = branch_paths

    @classmethod
    def from_trajectories(
        cls,
        trajectories: Sequence[Trajectory],
        scheme: SamplingScheme,
        normalized_weights: Array | None = None,
    ) -> "TrajectorySet":
        if not trajectories:
            raise ValueError("trajectory set must not be empty")
        states = np.stack([t.states for t in trajectories])
        step_weights = np.stack([t.step_weights for t in trajectories])
        lik = np.array([t.raw_likeliness for t in trajectories])
        costs = np.array([t.cost for t in trajectories])
        return cls(states, step_weights, lik, costs, scheme, normalized_weights)

    def with_weights(self, normalized_weights: Array) -> "TrajectorySet":
        """Copy of the set carrying the given normalized weights."""
        return TrajectorySet(
            self.states,
            self.step_weights,
            self.raw_likeliness,
            self.costs,
            self.scheme,
            normalized_weights=normalized_weights,
            branch_paths=self.branch_paths,
        )

    def split(self, parts: int) -> list["TrajectorySet"]:
        """Cut the set into ``parts`` equal blocks of consecutive rows.

        The blocks are views, in row order, so a call over several
        replications splits back into one set per replication.  They carry
        no normalized weights, which are relative to the whole set.
        """
        n = len(self)
        if parts < 1 or n % parts:
            raise ValueError(f"cannot split {n} trajectories into {parts} equal parts")
        size = n // parts
        return [
            TrajectorySet(
                self.states[start : start + size],
                self.step_weights[start : start + size],
                self.raw_likeliness[start : start + size],
                self.costs[start : start + size],
                self.scheme,
                branch_paths=None if self.branch_paths is None else self.branch_paths[start : start + size],
            )
            for start in range(0, n, size)
        ]

    def __len__(self) -> int:
        return self.states.shape[0]

    def __getitem__(self, i: int) -> Trajectory:
        return Trajectory(
            states=self.states[i],
            step_weights=self.step_weights[i],
            raw_likeliness=float(self.raw_likeliness[i]),
            cost=float(self.costs[i]),
        )

    @property
    def trajectories(self) -> list[Trajectory]:
        return [self[i] for i in range(len(self))]


def as_controls(model: StochasticModel, controls) -> Array:
    """Validate a control sequence against the model; returns (H, control_dim).

    A 1-d sequence is accepted when the control dimension is 1 (one scalar
    per step) or when the horizon is 1 (a single control vector).
    """
    arr = np.asarray(controls, dtype=float)
    if arr.ndim == 1:
        if model.control_dim == 1:
            arr = arr[:, None]
        elif model.horizon == 1 and arr.shape[0] == model.control_dim:
            arr = arr[None, :]
    if arr.shape != (model.horizon, model.control_dim):
        raise DimensionError(
            f"controls must have shape ({model.horizon}, {model.control_dim}), "
            f"got {np.asarray(controls).shape}"
        )
    return arr


def _checked(out, expected: tuple, name: str, step: int) -> Array:
    out = np.asarray(out, dtype=float)
    if out.shape != expected:
        raise DimensionError(
            f"{name} returned shape {out.shape} at step {step}, expected {expected}"
        )
    return out


def _stage_costs(model: StochasticModel, states: Array, u_k: Array, step: int) -> Array:
    return _checked(model.stage_cost(states, u_k), states.shape[:1], "stage_cost", step)


def _terminal_costs(model: StochasticModel, states: Array) -> Array:
    return _checked(model.terminal_cost(states), states.shape[:1], "terminal_cost", model.horizon)


def _transitions(model: StochasticModel, states: Array, u_k: Array, draws: Array, step: int) -> Array:
    return _checked(model.transition(states, u_k, draws), states.shape, "transition", step)


def _simulate_paths(
    model: StochasticModel, u: Array, draws: Array, weights: Array
) -> tuple[Array, Array, Array]:
    """Step n paths from the initial state through their own H draws each.

    ``draws`` is (n, H, noise_dim) and ``weights`` is (n, H).  Returns the
    state histories (n, H+1, state_dim), the raw likeliness (n,) and the
    costs (n,).  Both ``rollout`` (n = 1) and ``sample_independent`` run here.
    """
    count = draws.shape[0]
    history = np.empty((count, model.horizon + 1, model.state_dim))
    history[:, 0] = model.initial_state
    states = history[:, 0].copy()
    costs = np.zeros(count)
    for k in range(model.horizon):
        costs += _stage_costs(model, states, u[k], k)
        states = _transitions(model, states, u[k], draws[:, k], k)
        history[:, k + 1] = states
    costs += _terminal_costs(model, states)
    return history, np.prod(weights, axis=1), costs


def rollout(model: StochasticModel, controls, noise_draws) -> Trajectory:
    """Simulate one trajectory from explicit per-step (draw, weight) pairs.

    ``noise_draws`` must supply exactly one pair per step.  The path runs
    as a batch of one, so it matches the same draws' row of a sampled
    batch bit for bit.  The function is pure: repeated calls with the same
    arguments return identical values.
    """
    u = as_controls(model, controls)
    if len(noise_draws) != model.horizon:
        raise DimensionError(
            f"need {model.horizon} noise draws, got {len(noise_draws)}"
        )
    dim = model.noise.dim
    draws = np.empty((1, model.horizon, dim))
    weights = np.empty((1, model.horizon))
    for k, (draw, weight) in enumerate(noise_draws):
        vec = np.atleast_1d(np.asarray(draw, dtype=float))
        if vec.shape != (dim,):
            raise DimensionError(
                f"noise draw at step {k} must have shape ({dim},), got {vec.shape}"
            )
        draws[0, k] = vec
        weights[0, k] = weight
    states, likeliness, costs = _simulate_paths(model, u, draws, weights)
    return Trajectory(
        states=states[0],
        step_weights=weights[0],
        raw_likeliness=float(likeliness[0]),
        cost=float(costs[0]),
    )


def trajectory_cost(model: StochasticModel, states, controls) -> float:
    """Cumulative cost of a given state path: sum of stage costs + terminal.

    Pure recomputation from states and controls, as a batch of one; does
    not touch the noise.
    """
    u = as_controls(model, controls)
    states = np.asarray(states, dtype=float)
    if states.ndim == 1:
        states = states[:, None]
    if states.shape != (model.horizon + 1, model.state_dim):
        raise DimensionError(
            f"states must have shape ({model.horizon + 1}, {model.state_dim}), "
            f"got {states.shape}"
        )
    cost = np.zeros(1)
    for k in range(model.horizon):
        cost += _stage_costs(model, states[k : k + 1], u[k], k)
    cost += _terminal_costs(model, states[model.horizon :])
    return float(cost[0])
