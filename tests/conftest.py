"""Shared helpers for the test suite."""
from __future__ import annotations

import itertools

import numpy as np

from rsmhp import NoiseLaw, StochasticModel, rollout


class CyclicNoise(NoiseLaw):
    """Deterministic law for enumeration tests: emits its support cyclically.

    Ignores the generator entirely, so a fresh instance always yields the
    same draw sequence.  ``probs`` are the masses used as weights and for
    the mean.  Stateful across calls; build a new instance per sampling run.
    """

    def __init__(self, values, probs) -> None:
        values = np.asarray(values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        self.values = values
        self.probs = np.asarray(probs, dtype=float)
        self.mean = self.probs @ self.values
        self._next = 0

    def sample_batch(self, streams, count):
        rows = len(streams) * count
        idx = (self._next + np.arange(rows)) % self.probs.shape[0]
        self._next += rows
        return self.values[idx], self.probs[idx]


def accumulator_model(noise, horizon, with_terminal=False, x0=0.0):
    """Scalar x' = x + w with stage cost x (control ignored)."""

    def transition(xs, u, ws):
        return xs + ws

    def stage_cost(xs, u):
        return xs[:, 0]

    kwargs = {}
    if with_terminal:
        kwargs["terminal_cost"] = lambda xs: xs[:, 0]
    return StochasticModel(
        state_dim=1,
        control_dim=1,
        transition=transition,
        stage_cost=stage_cost,
        noise=noise,
        horizon=horizon,
        initial_state=[x0],
        **kwargs,
    )


def enumerate_expectation(model, controls, values, probs) -> float:
    """Exact expected cost by brute force over every noise outcome sequence."""
    points = list(range(len(probs)))
    total = 0.0
    for combo in itertools.product(points, repeat=model.horizon):
        draws = [(values[i], probs[i]) for i in combo]
        prob = float(np.prod([probs[i] for i in combo]))
        total += prob * rollout(model, controls, draws).costs[0]
    return total


def likeliness_rank(trajectory_set) -> np.ndarray:
    """Indices sorted by raw likeliness descending, ties by branch digits."""
    paths = trajectory_set.branch_paths
    keys = tuple(paths[:, col] for col in range(paths.shape[1] - 1, -1, -1))
    keys = keys + (-trajectory_set.raw_likeliness,)
    return np.lexsort(keys)


def set_arrays_equal(a, b) -> bool:
    """Bitwise equality of two trajectory sets' payload arrays."""
    return (
        np.array_equal(a.states, b.states)
        and np.array_equal(a.raw_likeliness, b.raw_likeliness)
        and np.array_equal(a.costs, b.costs)
    )
