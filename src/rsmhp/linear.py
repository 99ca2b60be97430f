"""Closed-form analysis for linear-dynamics benchmarks.

Two exactly solvable families used as oracles for the Monte-Carlo machinery:

* A linear-Gaussian model with linear stage cost c'x + d'u, whose
  per-trajectory cost variance has the closed form
  var_p = c' [ sum_k A_k Sigma A_k' ] c  with  A_k = sum_{q=0}^{H-k-1} A^q,
  feeding a Chebyshev tail bound on the sample-mean estimator.

* A scalar tracking problem x_{k+1} = (1-a) x_k + a u_k + w_k with cost
  r (x_H - T)^2 + sum u_k^2, whose expected cost and nominal-path error
  r sigma^2 sum_{n<H} (1-a)^{2n} are exact.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import check_finite, check_int
from .model import (
    Array,
    DimensionError,
    DiscreteNoise,
    GaussianNoise,
    StochasticModel,
)

__all__ = [
    "LinearModel",
    "LqgParams",
    "var_p",
    "chebyshev_bound",
    "lqg_exact_cost",
    "lqg_cost_variance",
    "nbo_error",
    "linear_stochastic_model",
    "lqg_stochastic_model",
]


class LinearModel:
    """Linear dynamics x' = A x + B u + w with linear stage cost c'x + d'u.

    The noise is zero-mean Gaussian with covariance ``noise_cov`` (positive
    semidefinite; symmetric within 1e-12); ``linear_stochastic_model``,
    unlike ``var_p``, needs it positive definite or exactly zero.
    ``cost_state`` and ``cost_control`` are the row vectors c and d.  Every
    entry must be finite.
    """

    def __init__(self, a_matrix, b_matrix, cost_state, cost_control, noise_cov, horizon: int) -> None:
        a_matrix = np.atleast_2d(np.asarray(a_matrix, dtype=float))
        n = a_matrix.shape[0]
        if a_matrix.shape != (n, n):
            raise DimensionError(f"A must be square, got {a_matrix.shape}")
        b_matrix = np.asarray(b_matrix, dtype=float)
        if b_matrix.ndim == 0:
            b_matrix = b_matrix.reshape(1, 1)
        elif b_matrix.ndim == 1:
            b_matrix = b_matrix[:, None]
        if b_matrix.shape[0] != n:
            raise DimensionError(f"B must have {n} rows, got {b_matrix.shape}")
        m = b_matrix.shape[1]
        cost_state = np.atleast_1d(np.asarray(cost_state, dtype=float)).ravel()
        if cost_state.shape != (n,):
            raise DimensionError(f"cost_state must have {n} entries, got {cost_state.shape}")
        cost_control = np.atleast_1d(np.asarray(cost_control, dtype=float)).ravel()
        if cost_control.shape != (m,):
            raise DimensionError(f"cost_control must have {m} entries, got {cost_control.shape}")
        noise_cov = np.atleast_2d(np.asarray(noise_cov, dtype=float))
        if noise_cov.shape != (n, n):
            raise DimensionError(f"noise_cov must be ({n}, {n}), got {noise_cov.shape}")
        for name, value in (("a_matrix", a_matrix), ("b_matrix", b_matrix), ("cost_state", cost_state),
                            ("cost_control", cost_control), ("noise_cov", noise_cov)):
            check_finite(name, value)
        if not np.allclose(noise_cov, noise_cov.T, rtol=1e-12, atol=1e-12):
            raise ValueError("noise_cov must be symmetric")
        eigs = np.linalg.eigvalsh(noise_cov)
        scale = max(1.0, float(np.abs(eigs).max()) if eigs.size else 1.0)
        if eigs.size and eigs.min() < -1e-12 * scale:
            raise ValueError("noise_cov must be positive semidefinite")
        check_int("horizon", horizon, 1)
        self.a_matrix = a_matrix
        self.b_matrix = b_matrix
        self.cost_state = cost_state
        self.cost_control = cost_control
        self.noise_cov = noise_cov
        self.horizon = horizon
        self.state_dim = n
        self.control_dim = m


def var_p(model: LinearModel) -> float:
    """Exact variance of the per-trajectory cost under independent paths.

    Step k's noise reaches the cost through the gain g_k = c' A_k, with
    A_k = sum_{q=0}^{H-k-1} A^q, so its contribution is g_k Sigma g_k'.  The
    gains follow the backward recurrence g_{H-1} = c', g_k = c' + g_{k+1} A:
    one vector-matrix product per step.
    """
    c = model.cost_state
    gain = c
    total = float(gain @ model.noise_cov @ gain)
    for _ in range(model.horizon - 1):
        gain = c + gain @ model.a_matrix
        total += float(gain @ model.noise_cov @ gain)
    return total


def chebyshev_bound(model: LinearModel, n_samples: int, epsilon: float) -> float:
    """Tail bound P(|J_N - J| >= epsilon) <= min(1, var_p / (N epsilon^2)).

    The raw value var_p(model) / (n_samples * epsilon**2) is vacuous above
    1, so the bound is clamped there.
    """
    check_int("n_samples", n_samples, 1)
    if not epsilon > 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    return min(var_p(model) / (n_samples * epsilon * epsilon), 1.0)


@dataclass(frozen=True)
class LqgParams:
    """Scalar tracking benchmark parameters.

    Dynamics x_{k+1} = (1-a) x_k + a u_k + w_k with w_k ~ N(0, sigma^2),
    cost r (x_H - target)^2 + sum_k u_k^2.  sigma = 0 is allowed and makes
    the problem deterministic.  Every value must be finite.
    """

    a: float
    r: float
    target: float
    sigma: float
    x0: float
    horizon: int

    def __post_init__(self) -> None:
        for name in ("a", "r", "target", "sigma", "x0"):
            check_finite(name, getattr(self, name))
        if not 0.0 < self.a < 1.0:
            raise ValueError(f"a must lie in (0, 1), got {self.a}")
        if self.r <= 0.0:
            raise ValueError(f"r must be positive, got {self.r}")
        if self.sigma < 0.0:
            raise ValueError(f"sigma must be nonnegative, got {self.sigma}")
        check_int("horizon", self.horizon, 1)


def _lqg_mean_terminal(params: LqgParams, controls: Array) -> float:
    x = params.x0
    for k in range(params.horizon):
        x = (1.0 - params.a) * x + params.a * controls[k] + 0.0
    return x


def nbo_error(params: LqgParams) -> float:
    """Exact gap between the expected cost and the nominal-path cost.

    r sigma^2 sum_{n=0}^{H-1} (1-a)^(2n): the variance of x_H scaled by the
    terminal weight.  Independent of the controls.
    """
    decay = (1.0 - params.a) ** 2
    total = 0.0
    term = 1.0
    for _ in range(params.horizon):
        total += term
        term *= decay
    return params.r * params.sigma**2 * total


def _lqg_controls(params: LqgParams, controls) -> Array:
    """The control sequence as a checked (H,) vector of finite values."""
    u = np.atleast_1d(np.asarray(controls, dtype=float)).ravel()
    if u.shape != (params.horizon,):
        raise DimensionError(
            f"controls must have {params.horizon} entries, got {u.shape}"
        )
    check_finite("controls", u)
    return u


def lqg_exact_cost(params: LqgParams, controls) -> float:
    """Exact expected cost: nominal terminal tracking + control effort + noise term."""
    u = _lqg_controls(params, controls)
    mean_terminal = _lqg_mean_terminal(params, u)
    deterministic = params.r * (mean_terminal - params.target) ** 2 + float(u @ u)
    return deterministic + nbo_error(params)


def lqg_cost_variance(params: LqgParams, controls) -> float:
    """Exact variance of the per-trajectory cost under fixed controls.

    Only the terminal term fluctuates: x_H = m + v with v ~ N(0, V) where
    V = sigma^2 sum_{n<H} (1-a)^{2n} and m is the nominal terminal state, so

        Var[r (x_H - T)^2] = r^2 (2 V^2 + 4 mu^2 V),   mu = m - T.

    Divide by the path count for the variance of the sample-mean estimator;
    its standard error is the square root of that.
    """
    u = _lqg_controls(params, controls)
    spread = nbo_error(params) / params.r
    mu = _lqg_mean_terminal(params, u) - params.target
    return params.r**2 * (2.0 * spread**2 + 4.0 * mu**2 * spread)


def _products(rows: Array, matrix: Array) -> Array:
    """``rows @ matrix.T`` as elementwise sums in column order, (n, k) by (m, k) to (n, m).

    Entry (i, r) is ((rows[i, 0] * matrix[r, 0] + rows[i, 1] * matrix[r, 1]) + ...),
    each product and sum rounded on its own, whatever the number of rows.
    """
    out = rows[:, :1] * matrix[:, 0]
    for j in range(1, rows.shape[1]):
        out += rows[:, j : j + 1] * matrix[:, j]
    return out


def linear_stochastic_model(model: LinearModel, initial_state) -> StochasticModel:
    """Simulation twin of a LinearModel.

    The cost is sum_{k=0}^{H-1} (c'x_k + d'u_k) plus a terminal c'x_H, so
    each noise draw w_k reaches the cost through states x_{k+1}..x_H; that
    is the convention var_p describes.  (The deterministic c'x_0 term only
    shifts the mean.)  The expected cost therefore equals the nominal-path
    cost, and estimate_nbo gives the exact expectation.  The noise is
    Gaussian, or the one-point law at zero when ``noise_cov`` is exactly
    zero; any other singular ``noise_cov`` has no Gaussian to draw from and
    raises ValueError naming it.

    Every product (A x, B u, c'x, d'u) is a sum of elementwise products
    taken in column order (``_products``), as ``GaussianNoise.sample_batch``
    applies its factor.  So a row's result does not depend on how many rows
    are stacked with it, nor on the CPU: a BLAS dot product picks its order,
    and whether it fuses a multiply and an add, by array size and by the
    kernel it dispatches to.  A rollout matches its row of a sampled batch bit
    for bit.  For one state and one control each product is a single
    multiplication.
    """
    a_matrix = model.a_matrix
    b_matrix = model.b_matrix
    c = model.cost_state[None, :]
    d = model.cost_control[None, :]
    if not model.noise_cov.any():
        noise = DiscreteNoise(np.zeros((1, model.state_dim)), [1.0])
    else:
        try:
            noise = GaussianNoise(np.zeros(model.state_dim), model.noise_cov)
        except ValueError:
            raise ValueError("noise_cov must be positive definite or exactly zero to draw from") from None

    def transition(xs, u, ws):
        out = _products(xs, a_matrix)
        out += _products(u[None, :], b_matrix)
        out += ws
        return out

    def stage_cost(xs, u):
        return _products(xs, c)[:, 0] + _products(u[None, :], d)[0, 0]

    def terminal_cost(xs):
        return _products(xs, c)[:, 0]

    return StochasticModel(
        state_dim=model.state_dim,
        control_dim=model.control_dim,
        transition=transition,
        stage_cost=stage_cost,
        noise=noise,
        horizon=model.horizon,
        initial_state=initial_state,
        terminal_cost=terminal_cost,
    )


def lqg_stochastic_model(params: LqgParams) -> StochasticModel:
    """Simulation twin of the scalar tracking benchmark.

    The noise is N(0, sigma^2), or the one-point law at zero when sigma = 0.
    """
    a = params.a
    r = params.r
    target = params.target
    if params.sigma == 0.0:
        noise = DiscreteNoise(np.zeros((1, 1)), [1.0])
    else:
        noise = GaussianNoise([0.0], [[params.sigma**2]])

    def transition(xs, u, ws):
        return (1.0 - a) * xs + a * u + ws

    def stage_cost(xs, u):
        return np.full(xs.shape[0], u[0] * u[0])

    def terminal_cost(xs):
        return r * (xs[:, 0] - target) ** 2

    return StochasticModel(
        state_dim=1,
        control_dim=1,
        transition=transition,
        stage_cost=stage_cost,
        noise=noise,
        horizon=params.horizon,
        initial_state=[params.x0],
        terminal_cost=terminal_cost,
    )
