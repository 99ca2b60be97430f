"""Analytic results for linear models: variance, tail bound, scalar tracking costs."""
from __future__ import annotations

import numpy as np
import pytest

from rsmhp import (
    LinearModel,
    LqgParams,
    SamplerConfig,
    chebyshev_bound,
    estimate_mean,
    estimate_nbo,
    linear_stochastic_model,
    lqg_cost_variance,
    lqg_exact_cost,
    lqg_stochastic_model,
    nbo_error,
    power_sum,
    sample_independent,
    var_p,
)


def _benchmark():
    return LinearModel(0.5, 1.0, 1.0, 0.0, 1.0, horizon=2)


def test_power_sum_last_step_is_identity():
    out = power_sum(np.array([[0.3, 0.1], [0.0, 0.7]]), horizon=4, k=3)
    np.testing.assert_array_equal(out, np.eye(2))


def test_power_sum_scalar_hand_value():
    out = power_sum(np.array([[0.5]]), horizon=2, k=0)
    assert out[0, 0] == pytest.approx(1.5, rel=1e-15)


def test_power_sum_identity_dynamics_counts_steps():
    for k in range(5):
        out = power_sum(np.eye(3), horizon=5, k=k)
        np.testing.assert_allclose(out, (5 - k) * np.eye(3), rtol=1e-15)


def test_power_sum_satisfies_backward_recurrence():
    rng = np.random.default_rng(11)
    a = rng.normal(scale=0.4, size=(3, 3))
    horizon = 6
    for k in range(horizon - 1):
        lhs = power_sum(a, horizon, k)
        rhs = np.eye(3) + a @ power_sum(a, horizon, k + 1)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-14)


def test_power_sum_rejects_out_of_range_step():
    with pytest.raises(ValueError):
        power_sum(np.eye(2), horizon=3, k=3)
    with pytest.raises(ValueError):
        power_sum(np.eye(2), horizon=3, k=-1)


def test_var_p_is_zero_for_zero_noise_covariance():
    model = LinearModel(0.5, 1.0, 1.0, 0.0, 0.0, horizon=4)
    assert var_p(model) == 0.0


def test_var_p_scalar_hand_value():
    assert var_p(_benchmark()) == pytest.approx(3.25, rel=1e-12)


def test_var_p_matches_sampled_cost_variance_scalar():
    lin = _benchmark()
    model = linear_stochastic_model(lin, [0.0])
    out = sample_independent(
        model, np.zeros(2), SamplerConfig(branch_factor=100_000, master_seed=5)
    )
    empirical = out.costs.var(ddof=1)
    assert empirical == pytest.approx(var_p(lin), rel=0.05)


def test_var_p_matches_sampled_cost_variance_two_dim():
    rng = np.random.default_rng(23)
    a = rng.normal(scale=0.35, size=(2, 2))
    b = rng.normal(size=(2, 1))
    c = rng.normal(size=2)
    root = rng.normal(size=(2, 2))
    sigma = root @ root.T + 0.1 * np.eye(2)
    lin = LinearModel(a, b, c, np.zeros(1), sigma, horizon=4)
    model = linear_stochastic_model(lin, [0.3, -0.2])
    controls = rng.normal(size=(4, 1))
    out = sample_independent(
        model, controls, SamplerConfig(branch_factor=100_000, master_seed=6)
    )
    empirical = out.costs.var(ddof=1)
    assert empirical == pytest.approx(var_p(lin), rel=0.05)


def test_var_p_invariant_to_controls_and_start():
    # The fluctuation of the cost comes only from the noise terms, so the
    # sampled variance must not move when the deterministic part changes.
    lin = _benchmark()
    variances = []
    for x0, shift in ((0.0, 0.0), (4.0, -1.5)):
        model = linear_stochastic_model(lin, [x0])
        out = sample_independent(
            model,
            np.full((2, 1), shift),
            SamplerConfig(branch_factor=50_000, master_seed=9),
        )
        variances.append(out.costs.var(ddof=1))
    assert variances[0] == pytest.approx(variances[1], rel=1e-9)


def test_chebyshev_bound_zero_variance_is_zero():
    model = LinearModel(0.5, 1.0, 1.0, 0.0, 0.0, horizon=2)
    assert chebyshev_bound(model, n_samples=10, epsilon=0.5) == 0.0


def test_chebyshev_bound_hand_value():
    out = chebyshev_bound(_benchmark(), n_samples=100, epsilon=0.5, clamp=False)
    assert out == pytest.approx(0.13, rel=1e-12)


def test_chebyshev_bound_halves_when_samples_double():
    model = _benchmark()
    one = chebyshev_bound(model, n_samples=400, epsilon=0.5, clamp=False)
    two = chebyshev_bound(model, n_samples=800, epsilon=0.5, clamp=False)
    assert two == pytest.approx(0.5 * one, rel=1e-12)


def test_chebyshev_bound_clamps_to_one_by_default():
    model = _benchmark()
    assert chebyshev_bound(model, n_samples=1, epsilon=0.01) == 1.0
    raw = chebyshev_bound(model, n_samples=1, epsilon=0.01, clamp=False)
    assert raw > 1.0


def test_chebyshev_bound_rejects_bad_arguments():
    model = _benchmark()
    with pytest.raises(ValueError):
        chebyshev_bound(model, n_samples=0, epsilon=0.5)
    with pytest.raises(ValueError):
        chebyshev_bound(model, n_samples=10, epsilon=0.0)


def test_chebyshev_coverage_holds_empirically():
    # Tail bound sanity: the miss frequency over repeated estimates never
    # exceeds the bound (it is loose for sums of light-tailed terms).
    lin = _benchmark()
    model = linear_stochastic_model(lin, [0.0])
    controls = np.zeros(2)
    exact = estimate_nbo(model, controls).value
    n = 100
    epsilon = 0.1 * np.sqrt(var_p(lin))
    misses = 0
    reps = 400
    for rep in range(reps):
        out = sample_independent(
            model, controls, SamplerConfig(branch_factor=n, master_seed=1000 + rep)
        )
        if abs(estimate_mean(out).value - exact) > epsilon:
            misses += 1
    bound = chebyshev_bound(lin, n_samples=n, epsilon=epsilon)
    assert misses / reps <= bound


def test_lqg_params_validation():
    with pytest.raises(ValueError):
        LqgParams(a=0.0, r=10.0, target=1.0, sigma=1.0, x0=0.0, horizon=2)
    with pytest.raises(ValueError):
        LqgParams(a=1.0, r=10.0, target=1.0, sigma=1.0, x0=0.0, horizon=2)
    with pytest.raises(ValueError):
        LqgParams(a=0.5, r=-1.0, target=1.0, sigma=1.0, x0=0.0, horizon=2)
    with pytest.raises(ValueError):
        LqgParams(a=0.5, r=10.0, target=1.0, sigma=-0.5, x0=0.0, horizon=2)
    with pytest.raises(ValueError):
        LqgParams(a=0.5, r=10.0, target=1.0, sigma=1.0, x0=0.0, horizon=0)
    LqgParams(a=0.5, r=10.0, target=1.0, sigma=0.0, x0=0.0, horizon=1)


def _toy_params(sigma=1.0, horizon=2):
    return LqgParams(a=0.5, r=10.0, target=1.0, sigma=sigma, x0=0.0, horizon=horizon)


def test_lqg_exact_cost_hand_value():
    assert lqg_exact_cost(_toy_params(), [0.55, 0.17]) == pytest.approx(
        18.8764625, rel=1e-12
    )


def test_lqg_exact_cost_zero_noise_equals_nominal_path_cost():
    params = _toy_params(sigma=0.0)
    model = lqg_stochastic_model(params)
    u = [0.55, 0.17]
    assert lqg_exact_cost(params, u) == pytest.approx(
        estimate_nbo(model, u).value, rel=1e-12
    )


def test_nbo_error_hand_value():
    assert nbo_error(_toy_params()) == pytest.approx(12.5, rel=1e-12)


def test_nbo_error_zero_noise_is_zero():
    assert nbo_error(_toy_params(sigma=0.0)) == 0.0


def test_nbo_error_long_horizon_approaches_geometric_limit():
    # r * sigma^2 / (1 - (1-a)^2) = 10 / 0.75 for a = 0.5.
    params = _toy_params(horizon=200)
    assert nbo_error(params) == pytest.approx(40.0 / 3.0, rel=1e-9)


def test_exact_minus_nominal_identity_across_random_params():
    rng = np.random.default_rng(42)
    for _ in range(25):
        params = LqgParams(
            a=float(rng.uniform(0.05, 0.95)),
            r=float(rng.uniform(0.1, 20.0)),
            target=float(rng.normal()),
            sigma=float(rng.uniform(0.0, 2.0)),
            x0=float(rng.normal()),
            horizon=int(rng.integers(1, 7)),
        )
        u = rng.normal(size=params.horizon)
        model = lqg_stochastic_model(params)
        gap = lqg_exact_cost(params, u) - estimate_nbo(model, u).value
        assert gap == pytest.approx(nbo_error(params), abs=1e-9)


def test_lqg_exact_cost_matches_monte_carlo():
    params = _toy_params()
    model = lqg_stochastic_model(params)
    u = [0.55, 0.17]
    out = sample_independent(
        model, u, SamplerConfig(branch_factor=1_000_000, master_seed=7)
    )
    est = estimate_mean(out)
    stderr = np.sqrt(est.empirical_variance / est.n_samples)
    assert abs(est.value - lqg_exact_cost(params, u)) < 3.0 * stderr + 1e-9


def test_lqg_exact_cost_matches_monte_carlo_longer_horizon():
    params = LqgParams(a=0.3, r=4.0, target=-0.5, sigma=0.8, x0=1.2, horizon=5)
    model = lqg_stochastic_model(params)
    rng = np.random.default_rng(8)
    u = rng.normal(size=5)
    out = sample_independent(model, u, SamplerConfig(branch_factor=400_000, master_seed=8))
    est = estimate_mean(out)
    stderr = np.sqrt(est.empirical_variance / est.n_samples)
    assert abs(est.value - lqg_exact_cost(params, u)) < 3.0 * stderr + 1e-9


def test_linear_model_validation():
    with pytest.raises(ValueError):
        LinearModel(np.eye(2), np.ones((3, 1)), np.ones(2), 0.0, np.eye(2), horizon=2)
    with pytest.raises(ValueError):
        LinearModel(np.eye(2), np.ones((2, 1)), np.ones(3), 0.0, np.eye(2), horizon=2)
    asym = np.array([[1.0, 0.5], [0.2, 1.0]])
    with pytest.raises(ValueError):
        LinearModel(np.eye(2), np.ones((2, 1)), np.ones(2), 0.0, asym, horizon=2)
    indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(ValueError):
        LinearModel(np.eye(2), np.ones((2, 1)), np.ones(2), 0.0, indefinite, horizon=2)
    with pytest.raises(ValueError):
        LinearModel(0.5, 1.0, 1.0, 0.0, 1.0, horizon=0)


def test_lqg_cost_variance_hand_value():
    # V = 1.25, mu = 0.2225 - 1 = -0.7775:
    # 100 * (2 * 1.5625 + 4 * 0.60450625 * 1.25) = 614.753125
    assert lqg_cost_variance(_toy_params(), [0.55, 0.17]) == pytest.approx(
        614.753125, rel=1e-12
    )


def test_lqg_cost_variance_zero_noise_is_zero():
    assert lqg_cost_variance(_toy_params(sigma=0.0), [0.55, 0.17]) == 0.0


def test_lqg_cost_variance_matches_sampled_costs():
    params = LqgParams(a=0.3, r=4.0, target=-0.5, sigma=0.8, x0=1.2, horizon=5)
    model = lqg_stochastic_model(params)
    rng = np.random.default_rng(9)
    u = rng.normal(size=5)
    out = sample_independent(model, u, SamplerConfig(branch_factor=400_000, master_seed=9))
    empirical = float(np.var(out.costs, ddof=1))
    assert empirical == pytest.approx(lqg_cost_variance(params, u), rel=0.05)


def test_lqg_cost_variance_rejects_wrong_control_length():
    with pytest.raises(Exception):
        lqg_cost_variance(_toy_params(), [0.55])
