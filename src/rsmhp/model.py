"""Stochastic control problems: noise laws, models, trajectories, rollouts.

A model is a finite-horizon controlled Markov chain

    x_{k+1} = f(x_k, u_k, w_k),   k = 0..H-1

with additive cost  sum_k g(x_k, u_k) + g_H(x_H).  The model's callables
act on row-stacked states, one row per path, so the samplers step a whole
batch of paths at once and a single-path ``rollout`` is a batch of one
through the same checked stepping code, returned as a one-row
``TrajectorySet``.  Everything downstream (samplers, estimators) works
against this interface only.

A noise law draws the values of many generators (one per replication) in
one ``sample_batch`` call and transforms them in one row-invariant pass, so
a replication's draws are the same bits whether it is sampled alone or
stacked with others.  A sampled path's weight is its raw likeliness, the
product of its step weights.  It is the one weight a ``TrajectorySet``
stores; normalized weights are derived from it where an estimator needs
them.  A set sampled for several replications carries them on a leading
axis of each array, so its layout is its shape.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Protocol

import numpy as np
from numpy.typing import NDArray

from ._checks import check_int, check_real, check_reals

Array = NDArray[np.float64]

__all__ = [
    "Array",
    "DimensionError",
    "NoiseLaw",
    "GaussianNoise",
    "DiscreteNoise",
    "StochasticModel",
    "TrajectorySet",
    "as_controls",
    "rollout",
    "trajectory_cost",
]


class DimensionError(ValueError):
    """A state, control, or noise vector has the wrong shape."""


class Streams(Protocol):
    """A sized iterable of generators; see ``NoiseLaw`` for how laws use it."""

    def __len__(self) -> int: ...

    def __iter__(self) -> Iterator[np.random.Generator]: ...


class NoiseLaw:
    """Per-step disturbance distribution.

    ``sample_batch(streams, count)`` draws ``count`` values from each
    generator of ``streams`` in turn, then turns all the stacked rows into
    ``(draws (rows, dim), weights (rows,))`` in one pass, where ``rows`` is
    ``len(streams) * count`` and stream r's values are the r-th block of
    ``count`` consecutive rows.  A weight is the probability mass of its draw
    for discrete laws and the probability density for continuous ones.  Only
    relative weights matter downstream (they are normalized per trajectory
    set), so the two conventions mix freely.  Weights must be strictly
    positive for every drawable value.

    ``streams`` is a sized iterable of generators, and each one is valid only
    until the next is taken (the samplers re-key one generator per stream),
    so a law takes all of a stream's values as it is yielded and keeps none.
    The transform must be row-invariant: a row's draw and weight depend on
    that row's raw values only, bit for bit, however many rows are stacked
    with it.  Elementwise numpy arithmetic is; a matrix product or a
    reduction is not, since BLAS and ufunc loops pick their order of sums by
    array size.  So a block of a stacked call equals its one-stream call, and
    a law only has to be deterministic given the generators' states.

    A law may also be asked for one stream's values in several consecutive
    calls, each passing ``[stream]`` with the same live generator: the calls
    must return, row for row, what one call for their total count would.
    ``sample_independent`` relies on this to draw a replication larger than
    its block size in pieces.  A law meets it when it takes its values from
    the generator one after another, as numpy's ``standard_normal`` and
    ``choice(p=...)`` do; one that draws a surplus sized by ``count`` to
    reject from does not.
    """

    mean: Array

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def sample_batch(self, streams: Streams, count: int) -> tuple[Array, Array]:
        raise NotImplementedError


class GaussianNoise(NoiseLaw):
    """Multivariate normal disturbance; weights are density values.

    The density is evaluated through the whitened draw z (|z|^2 equals the
    Mahalanobis distance of the sample), which avoids per-draw solves.
    """

    def __init__(self, mean, cov) -> None:
        mean = np.atleast_1d(check_reals("mean", mean))
        cov = np.atleast_2d(check_reals("cov", cov))
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

    def sample_batch(self, streams: Streams, count: int) -> tuple[Array, Array]:
        z = np.empty((len(streams), count, self.dim))
        for block, stream in zip(z, streams):
            stream.standard_normal(out=block)
        z = z.reshape(-1, self.dim)
        # |z|^2, then mean + z @ chol.T in place, as elementwise sums in a fixed
        # order, so no row's bits depend on the number of rows (a BLAS
        # product's do).  The factor is lower triangular: draw component c
        # needs z_0 .. z_c only, so it overwrites z_c once the later ones are done.
        weights = z[:, 0] * z[:, 0]
        for j in range(1, self.dim):
            weights += z[:, j] * z[:, j]
        for c in reversed(range(self.dim)):
            column = z[:, c]
            column *= self._chol[c, c]
            for j in range(c):
                column += z[:, j] * self._chol[c, j]
            column += self.mean[c]
        # exp(log_norm - |z|^2 / 2), in place.
        weights *= -0.5
        weights += self._log_norm
        return z, np.exp(weights, out=weights)


class DiscreteNoise(NoiseLaw):
    """Finite-support disturbance; weights are probability masses.

    A one-point law, ``DiscreteNoise([v], [1.0])``, is a deterministic
    disturbance: every draw is v with weight 1, and it takes no values from
    the streams, since there is nothing to choose.
    """

    def __init__(self, values, probs) -> None:
        values = check_reals("values", values)
        if values.ndim == 1:
            values = values[:, None]
        probs = check_reals("probs", probs)
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

    def sample_batch(self, streams: Streams, count: int) -> tuple[Array, Array]:
        if self.values.shape[0] == 1:
            rows = len(streams) * count
            return np.repeat(self.values, rows, axis=0), np.full(rows, self.probs[0])
        idx = np.empty((len(streams), count), dtype=np.intp)
        for block, stream in zip(idx, streams):
            block[:] = stream.choice(self.values.shape[0], size=count, p=self.probs)
        idx = idx.ravel()
        return self.values[idx], self.probs[idx]


def _zero_terminal(xs: Array) -> Array:
    return np.zeros(xs.shape[0])


@dataclass(frozen=True, eq=False)
class StochasticModel:
    """Finite-horizon problem definition over row-stacked states.

    ``transition(xs, u, ws)``, ``stage_cost(xs, u)`` and ``terminal_cost(xs)``
    act on n paths at once: ``xs`` is (n, state_dim), ``ws`` is
    (n, noise_dim) and ``u`` is the step's control vector, shared by every
    row.  They return the successor states (n, state_dim) and the costs
    (n,); any other shape is a ``DimensionError`` naming the callable and
    the step.  Row i of an output must depend on row i of the inputs only.
    The callables may run on a worker thread (``sample_independent`` steps
    its blocks on one), but only one call at a time, in step order.
    ``initial_state`` must be finite.  A model holds callables, so it
    compares and hashes by identity.
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
        check_int("horizon", self.horizon, 1)
        check_int("state_dim", self.state_dim, 1)
        check_int("control_dim", self.control_dim, 1)
        x0 = np.atleast_1d(check_reals("initial_state", self.initial_state))
        if x0.shape != (self.state_dim,):
            raise DimensionError(
                f"initial_state must have shape ({self.state_dim},), got {x0.shape}"
            )
        x0.flags.writeable = False
        object.__setattr__(self, "initial_state", x0)


class TrajectorySet:
    """Batch of trajectories from one sampling call or rollout, as arrays only.

    Paths are stacked along the leading axis: ``states`` is (n, H+1, dim),
    ``raw_likeliness`` and ``costs`` are (n,); row i of each is path i.  A
    sampler call given several replications adds a leading replication
    axis: ``states`` is then (R, n, H+1, dim), the others (R, n), and
    ``costs[r]`` is replication r's paths.  The raw likeliness is the
    product of a path's step weights and the only weight a set stores;
    ``estimators.normalize_weights`` derives the normalized weights from it.
    ``branch_paths`` records each tree trajectory's branch digits (most
    significant first) on the same leading axes, and is None for
    independent paths and rollouts.  ``len`` is the total path count.  The
    float arrays are read-only.
    """

    def __init__(
        self,
        states: Array,
        raw_likeliness: Array,
        costs: Array,
        branch_paths: NDArray[np.intp] | None = None,
    ) -> None:
        states = np.asarray(states, dtype=float)
        raw_likeliness = np.asarray(raw_likeliness, dtype=float)
        costs = np.asarray(costs, dtype=float)
        if states.ndim not in (3, 4):
            raise DimensionError(
                f"states must be (n, H+1, dim) or (R, n, H+1, dim), got {states.shape}"
            )
        lead = states.shape[:-2]
        if raw_likeliness.shape != lead or costs.shape != lead:
            raise DimensionError(
                f"raw_likeliness and costs must be {lead}, one value per trajectory of states "
                f"{states.shape}, got {raw_likeliness.shape} and {costs.shape}"
            )
        if branch_paths is not None:
            digits = np.asarray(branch_paths)
            if digits.dtype.kind not in "iu" or digits.ndim != len(lead) + 1 or digits.shape[:-1] != lead:
                raise DimensionError(
                    f"branch_paths must be None or an integer array with one row per "
                    f"trajectory {lead}, got {type(branch_paths).__name__} of dtype "
                    f"{digits.dtype} and shape {digits.shape}"
                )
        for arr in (states, raw_likeliness, costs):
            arr.flags.writeable = False
        self.states = states
        self.raw_likeliness = raw_likeliness
        self.costs = costs
        self.branch_paths = branch_paths

    def __len__(self) -> int:
        return self.costs.size


def as_controls(model: StochasticModel, controls) -> Array:
    """Validate a control sequence against the model; returns (H, control_dim).

    A 1-d sequence is accepted when the control dimension is 1 (one scalar
    per step) or when the horizon is 1 (a single control vector).  A bool,
    string or other non-real entry is a ``TypeError``, and a non-finite
    control is rejected, naming its step.
    """
    arr = check_reals("controls", controls, finite=False)
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
    if not np.isfinite(arr).all():
        for step, control in enumerate(arr):
            check_reals(f"controls at step {step}", control)
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
    model: StochasticModel,
    u: Array,
    draws: Array,
    weights: Array,
    out: tuple[Array, Array, Array],
) -> None:
    """Step n paths from the initial state through their own H draws each.

    ``draws`` is (n, H, noise_dim) and ``weights`` is (n, H).  Writes the
    state histories (n, H+1, state_dim), the raw likeliness (n,) and the
    costs (n,) into the three arrays of ``out``, overwriting any prior
    contents.  Both ``rollout`` (n = 1) and each block of
    ``sample_independent`` run here.
    """
    history, likeliness, costs = out
    history[:, 0] = model.initial_state
    states = history[:, 0].copy()
    costs.fill(0.0)
    for k in range(model.horizon):
        costs += _stage_costs(model, states, u[k], k)
        states = _transitions(model, states, u[k], draws[:, k], k)
        history[:, k + 1] = states
    costs += _terminal_costs(model, states)
    # The product of each path's weights in step order, as the tree samplers
    # accumulate it; a reduction along short rows (np.prod(axis=1)) gives
    # the same bits at several times the cost.
    likeliness[:] = weights[:, 0]
    for k in range(1, model.horizon):
        likeliness *= weights[:, k]


def rollout(model: StochasticModel, controls, noise_draws) -> TrajectorySet:
    """Simulate one trajectory from explicit per-step (draw, weight) pairs.

    ``noise_draws`` must supply exactly one pair per step, each draw of
    finite reals and each weight a finite positive real, as a noise law's
    are.  The path runs as a batch of one, returned as a one-row
    ``TrajectorySet``, so it matches the same draws' row of a sampled batch
    bit for bit.  The function is pure: repeated calls return identical
    values.
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
        vec = np.atleast_1d(check_reals(f"noise draw at step {k}", draw))
        if vec.shape != (dim,):
            raise DimensionError(
                f"noise draw at step {k} must have shape ({dim},), got {vec.shape}"
            )
        weight = check_real(f"noise weight at step {k}", weight)
        if weight <= 0.0:
            raise ValueError(f"noise weight at step {k} must be > 0, got {weight!r}")
        draws[0, k] = vec
        weights[0, k] = weight
    out = (np.empty((1, model.horizon + 1, model.state_dim)), np.empty(1), np.empty(1))
    _simulate_paths(model, u, draws, weights, out)
    return TrajectorySet(*out)


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
