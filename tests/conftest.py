"""Shared helpers for the test suite."""
from __future__ import annotations

import itertools
import math
from unittest import mock

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

from rsmhp import NoiseLaw, StochasticModel, rollout
from rsmhp.uav import planning


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


def target_transition_matrix(dt: float) -> np.ndarray:
    """Constant-velocity transition of the (px, py, vx, vy) target state, as a 4x4 matrix: the reference."""
    f = np.eye(4)
    f[0, 2] = dt
    f[1, 3] = dt
    return f


def target_process_cov(intensity: float, dt: float) -> np.ndarray:
    """White-acceleration process covariance of the (px, py, vx, vy) target state, as a 4x4 matrix: the reference.

    ``intensity`` is the acceleration power spectral density q; the familiar
    block form has position variance q dt^3/3, velocity variance q dt and
    cross term q dt^2/2 per axis.
    """
    q3 = intensity * dt**3 / 3.0
    q2 = intensity * dt**2 / 2.0
    q1 = intensity * dt
    return np.array([[q3, 0.0, q2, 0.0], [0.0, q3, 0.0, q2], [q2, 0.0, q1, 0.0], [0.0, q2, 0.0, q1]])


def tracking_objective_oracle(uav, belief, flat, scenario, nodes: int) -> tuple:
    """Mean and variance of one sampled future's trace total, by a tensor Gauss-Hermite rule: the oracle.

    ``objective_mhp`` averages the total over futures that start at the
    belief mean and add the process noise.  The axes step alike and
    independently, so each axis's H target positions are one Gaussian
    H-vector m + A z, a linear map of that axis's normals; ``A`` is read
    off the 4x4 transition and LAPACK's factor of the 4x4 process
    covariance, not the program's per-axis step.  On the eigenbasis of
    A A' the vector is m + U sqrt(lambda) xi with xi standard normal, one
    coordinate per direction of positive variance.  ``hermegauss(nodes)``
    on each coordinate of both axes gives nodes^(2 rank) target paths,
    each scored by ``planning._trace_terms`` with its ``_target_paths``
    patched to return them.  At rank 0 (no process noise) the one path is
    the noiseless prediction, with weight 1.
    """
    horizon = len(flat) // 2
    f = target_transition_matrix(scenario.dt)
    q = target_process_cov(scenario.process_intensity, scenario.dt)
    root = np.linalg.cholesky(q) if scenario.process_intensity > 0.0 else np.zeros((4, 4))
    # Row k of A holds the x position's loadings after step k + 1 on the
    # x axis's (position, velocity) normals of steps 1 .. k + 1.
    a = np.zeros((horizon, horizon, 2))
    mean = np.asarray(belief.mean, dtype=float)
    means = []
    for k in range(horizon):
        mean = f @ mean
        means.append(mean[:2])
        for j in range(k + 1):
            a[k, j] = (np.linalg.matrix_power(f, k - j) @ root)[0, [0, 2]]
    a = a.reshape(horizon, 2 * horizon)
    lam, u = np.linalg.eigh(a @ a.T)
    keep = lam > 1e-12 * lam.max()
    loadings = u[:, keep] * np.sqrt(lam[keep])  # (H, rank)
    rank = loadings.shape[1]
    x, w = hermegauss(nodes)
    w = w / math.sqrt(2.0 * math.pi)
    grid = np.indices((nodes,) * (2 * rank)).reshape(2 * rank, nodes ** (2 * rank)).T
    weights = np.prod(w[grid], axis=1)
    xi = x[grid]  # (N, 2 rank): the x axis's coordinates, then the y axis's
    means = np.array(means).T  # (2, H)
    paths = np.stack([means[axis][:, None] + loadings @ xi[:, axis * rank:(axis + 1) * rank].T for axis in (0, 1)])
    with mock.patch.object(planning, "_target_paths", lambda *args: paths):
        totals = planning._trace_terms(uav, belief, scenario, None)([flat])[0]
    mean_total = float(weights @ totals)
    return mean_total, float(weights @ (totals - mean_total) ** 2)
