"""Analytic results for linear models: variance, tail bound, scalar tracking costs."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from rsmhp import (
    DiscreteNoise,
    GaussianNoise,
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
    rollout,
    sample_independent,
    var_p,
)
from rsmhp._seeds import seed_states
from rsmhp.sampling import _INDEPENDENT_DOMAIN, _Rekeyed


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


def test_tiny_noise_covariance_stays_gaussian():
    # Only an exactly zero covariance means no noise; 1e-9 is a real law.
    zero = linear_stochastic_model(LinearModel(0.5, 0.0, 1.0, 0.0, 0.0, 3), [0.0])
    assert isinstance(zero.noise, DiscreteNoise)
    assert zero.noise.values.tolist() == [[0.0]] and zero.noise.probs.tolist() == [1.0]
    model = LinearModel(0.5, 0.0, 1.0, 0.0, 1e-9, 3)
    stochastic = linear_stochastic_model(model, [0.0])
    assert isinstance(stochastic.noise, GaussianNoise)
    n = 1000
    paths = sample_independent(stochastic, np.zeros(3), SamplerConfig(branch_factor=n, master_seed=0))
    assert np.all(paths.raw_likeliness != 1.0)
    # The sample variance against var_p, inside the 99.9% chi-square band.
    ratio = np.var(paths.costs, ddof=1) / var_p(model)
    assert chi2.ppf(0.0005, n - 1) / (n - 1) < ratio < chi2.ppf(0.9995, n - 1) / (n - 1)


def test_singular_noise_covariance_is_rejected_naming_noise_cov():
    # var_p takes a PSD covariance, but only a positive definite or an
    # exactly zero one can be simulated.
    model = LinearModel(np.eye(2), np.ones(2), [1.0, 1.0], 0.0, np.diag([1.0, 0.0]), horizon=3)
    assert np.isfinite(var_p(model))
    with pytest.raises(ValueError, match="noise_cov must be positive definite or exactly zero"):
        linear_stochastic_model(model, [0.0, 0.0])


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
    model = _benchmark()
    out = chebyshev_bound(model, n_samples=100, epsilon=0.5)
    assert out == var_p(model) / (100 * 0.5**2)
    assert out == pytest.approx(0.13, rel=1e-12)


def test_chebyshev_bound_halves_when_samples_double():
    model = _benchmark()
    one = chebyshev_bound(model, n_samples=400, epsilon=0.5)
    two = chebyshev_bound(model, n_samples=800, epsilon=0.5)
    assert one == var_p(model) / (400 * 0.5**2) < 1.0
    assert two == pytest.approx(0.5 * one, rel=1e-12)


def test_chebyshev_bound_clamps_to_one_by_default():
    model = _benchmark()
    assert var_p(model) / (1 * 0.01**2) > 1.0
    assert chebyshev_bound(model, n_samples=1, epsilon=0.01) == 1.0


def test_chebyshev_bound_rejects_bad_arguments():
    model = _benchmark()
    with pytest.raises(ValueError):
        chebyshev_bound(model, n_samples=0, epsilon=0.5)
    with pytest.raises(ValueError):
        chebyshev_bound(model, n_samples=10, epsilon=0.0)
    with pytest.raises(ValueError):
        chebyshev_bound(model, n_samples=10, epsilon=float("nan"))


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
    stderr = np.sqrt(est.empirical_variance / est.terms.shape[-1])
    assert abs(est.value - lqg_exact_cost(params, u)) < 3.0 * stderr + 1e-9


def test_lqg_exact_cost_matches_monte_carlo_longer_horizon():
    params = LqgParams(a=0.3, r=4.0, target=-0.5, sigma=0.8, x0=1.2, horizon=5)
    model = lqg_stochastic_model(params)
    rng = np.random.default_rng(8)
    u = rng.normal(size=5)
    out = sample_independent(model, u, SamplerConfig(branch_factor=400_000, master_seed=8))
    est = estimate_mean(out)
    stderr = np.sqrt(est.empirical_variance / est.terms.shape[-1])
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


def _fixed_order_dot(row, coeffs) -> float:
    """(row[0] * coeffs[0] + row[1] * coeffs[1]) + ..., in Python floats."""
    acc = float(row[0]) * float(coeffs[0])
    for x, a in zip(row[1:], coeffs[1:]):
        acc = acc + float(x) * float(a)
    return acc


def _random_linear(rng, dim, control_dim, horizon):
    root = rng.normal(size=(dim, dim))
    return LinearModel(
        rng.normal(scale=0.5, size=(dim, dim)),
        rng.normal(size=(dim, control_dim)),
        rng.normal(size=dim),
        rng.normal(size=control_dim),
        root @ root.T + 0.1 * np.eye(dim),
        horizon=horizon,
    )


@given(
    dim=st.integers(min_value=1, max_value=4),
    control_dim=st.integers(min_value=1, max_value=2),
    rows=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_linear_model_products_are_fixed_order_sums(dim, control_dim, rows, seed):
    # No BLAS: every entry is a sum of rounded products in column order, so a
    # row's bits depend neither on the CPU's dot kernel nor on its neighbours.
    rng = np.random.default_rng(seed)
    lin = _random_linear(rng, dim, control_dim, horizon=1)
    model = linear_stochastic_model(lin, np.zeros(dim))
    xs = rng.normal(scale=10.0, size=(rows, dim))
    ws = rng.normal(size=(rows, dim))
    u = rng.normal(size=control_dim)
    moved = model.transition(xs, u, ws)
    stage = model.stage_cost(xs, u)
    terminal = model.terminal_cost(xs)
    for i in range(rows):
        want = [
            _fixed_order_dot(xs[i], lin.a_matrix[r]) + _fixed_order_dot(u, lin.b_matrix[r]) + float(ws[i, r])
            for r in range(dim)
        ]
        assert moved[i].tolist() == want
        assert stage[i] == _fixed_order_dot(xs[i], lin.cost_state) + _fixed_order_dot(u, lin.cost_control)
        assert terminal[i] == _fixed_order_dot(xs[i], lin.cost_state)
        alone = slice(i, i + 1)
        assert np.array_equal(model.transition(xs[alone], u, ws[alone]), moved[alone])
        assert np.array_equal(model.stage_cost(xs[alone], u), stage[alone])
        assert np.array_equal(model.terminal_cost(xs[alone]), terminal[alone])


@given(
    control_dim=st.integers(min_value=1, max_value=2),
    horizon=st.integers(min_value=1, max_value=5),
    count=st.integers(min_value=1, max_value=6),
    seeds=st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=4),
    model_seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_rollout_equals_its_row_of_a_stacked_two_state_batch(control_dim, horizon, count, seeds, model_seed):
    rng = np.random.default_rng(model_seed)
    model = linear_stochastic_model(_random_linear(rng, 2, control_dim, horizon), rng.normal(size=2))
    controls = rng.normal(size=(horizon, control_dim))
    batch = sample_independent(model, controls, SamplerConfig(branch_factor=count, seeds=tuple(seeds)))
    # The draws the sampler takes: one sample_batch call over every seed's stream.
    streams = _Rekeyed(seed_states(seeds, (_INDEPENDENT_DOMAIN,), 2))
    draws, weights = model.noise.sample_batch(streams, count * horizon)
    draws = draws.reshape(len(seeds) * count, horizon, 2)
    weights = weights.reshape(len(seeds) * count, horizon)
    for i in range(len(batch)):
        path = rollout(model, controls, list(zip(draws[i], weights[i])))
        assert np.array_equal(path.states[0], batch.states[i])
        assert path.costs[0] == batch.costs[i]
        assert path.raw_likeliness[0] == batch.raw_likeliness[i]
