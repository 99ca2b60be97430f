"""Model abstraction: noise laws, rollouts, trajectory costs."""
from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import CyclicNoise

from rsmhp import (
    DegenerateNoise,
    DimensionError,
    DiscreteNoise,
    GaussianNoise,
    SamplingScheme,
    StochasticModel,
    Trajectory,
    TrajectorySet,
    as_controls,
    rollout,
    trajectory_cost,
)


def _tracking_model(a=0.5, r=10.0, target=1.0, horizon=2, x0=0.0, sigma=1.0):
    noise = GaussianNoise([0.0], [[sigma**2]]) if sigma > 0 else DegenerateNoise([0.0])

    def transition(xs, u, ws):
        return (1.0 - a) * xs + a * u + ws

    return StochasticModel(
        state_dim=1,
        control_dim=1,
        transition=transition,
        stage_cost=lambda xs, u: np.full(len(xs), u[0] ** 2),
        noise=noise,
        horizon=horizon,
        initial_state=[x0],
        terminal_cost=lambda xs: r * (xs[:, 0] - target) ** 2,
    )


def test_rollout_follows_scalar_recurrence():
    model = _tracking_model()
    zero = (np.zeros(1), 1.0)
    path = rollout(model, [0.55, 0.17], [zero, zero])
    assert path.states.shape == (3, 1)
    np.testing.assert_allclose(path.states[:, 0], [0.0, 0.275, 0.2225], atol=1e-12)


def test_rollout_zero_cost_single_step():
    noise = GaussianNoise([0.3], [[1.0]])
    model = StochasticModel(
        state_dim=1,
        control_dim=1,
        transition=lambda xs, u, ws: xs + ws,
        stage_cost=lambda xs, u: np.zeros(len(xs)),
        noise=noise,
        horizon=1,
        initial_state=[0.0],
    )
    path = rollout(model, [0.0], [(noise.mean, 1.0)])
    assert path.cost == 0.0


def test_rollout_linear_stage_cost_sums_visited_states():
    # x' = x + w, stage cost x over k = 0..H-1, no terminal term.
    model = StochasticModel(
        state_dim=1,
        control_dim=1,
        transition=lambda xs, u, ws: xs + ws,
        stage_cost=lambda xs, u: xs[:, 0],
        noise=GaussianNoise([0.0], [[1.0]]),
        horizon=2,
        initial_state=[0.0],
    )
    path = rollout(model, [0.0, 0.0], [(np.ones(1), 0.5), (np.ones(1), 0.5)])
    assert path.cost == pytest.approx(1.0, abs=1e-15)


def test_rollout_populates_likeliness_and_cost_invariants():
    model = _tracking_model()
    draws = [(np.array([0.4]), 0.8), (np.array([-0.2]), 0.3)]
    path = rollout(model, [0.55, 0.17], draws)
    assert path.raw_likeliness == pytest.approx(0.8 * 0.3, rel=1e-12)
    assert path.states[0, 0] == model.initial_state[0]
    recomputed = trajectory_cost(model, path.states, [0.55, 0.17])
    assert path.cost == pytest.approx(recomputed, rel=1e-12)


def test_rollout_wrong_draw_count_is_an_error():
    model = _tracking_model()
    with pytest.raises(DimensionError):
        rollout(model, [0.55, 0.17], [(np.zeros(1), 1.0)])


def test_rollout_wrong_draw_shape_names_the_step():
    model = _tracking_model()
    draws = [(np.zeros(1), 1.0), (np.zeros(2), 1.0)]
    with pytest.raises(DimensionError, match="step 1"):
        rollout(model, [0.55, 0.17], draws)


def test_rollout_wrong_control_shape_is_an_error():
    model = _tracking_model()
    with pytest.raises(DimensionError):
        rollout(model, [0.55, 0.17, 0.3], [(np.zeros(1), 1.0)] * 2)


def test_rollout_is_pure():
    model = _tracking_model()
    draws = [(np.array([0.123]), 0.7), (np.array([-0.456]), 0.2)]
    first = rollout(model, [0.55, 0.17], draws)
    second = rollout(model, [0.55, 0.17], draws)
    assert np.array_equal(first.states, second.states)
    assert first.cost == second.cost
    assert first.raw_likeliness == second.raw_likeliness


def test_trajectory_cost_terminal_only():
    model = StochasticModel(
        state_dim=1,
        control_dim=1,
        transition=lambda xs, u, ws: xs + ws,
        stage_cost=lambda xs, u: np.zeros(len(xs)),
        noise=GaussianNoise([0.0], [[1.0]]),
        horizon=2,
        initial_state=[0.0],
        terminal_cost=lambda xs: xs[:, 0] ** 2,
    )
    assert trajectory_cost(model, [[0.0], [1.0], [2.0]], [0.0, 0.0]) == 4.0


def test_trajectory_cost_quadratic_tracking_benchmark():
    model = _tracking_model()
    states = [[0.0], [0.275], [0.2225]]
    cost = trajectory_cost(model, states, [0.55, 0.17])
    assert cost == pytest.approx(6.3764625, abs=1e-9)


def test_trajectory_cost_constant_stage():
    model = StochasticModel(
        state_dim=1,
        control_dim=1,
        transition=lambda xs, u, ws: xs + ws,
        stage_cost=lambda xs, u: np.full(len(xs), 5.0),
        noise=GaussianNoise([0.0], [[1.0]]),
        horizon=1,
        initial_state=[0.0],
    )
    assert trajectory_cost(model, [[0.0], [1.0]], [0.0]) == 5.0


def test_trajectory_cost_wrong_length_is_an_error():
    model = _tracking_model()
    with pytest.raises(DimensionError):
        trajectory_cost(model, [[0.0], [1.0]], [0.55, 0.17])


def test_cost_additivity_over_split_halves():
    rng = np.random.default_rng(11)
    noise = GaussianNoise([0.0], [[1.0]])

    def make(horizon, x0, terminal):
        kwargs = {"terminal_cost": terminal} if terminal else {}
        return StochasticModel(
            state_dim=1,
            control_dim=1,
            transition=lambda xs, u, ws: 0.7 * xs + 0.3 * u + ws,
            stage_cost=lambda xs, u: xs[:, 0] ** 2 + u[0] ** 2,
            noise=noise,
            horizon=horizon,
            initial_state=[x0],
            **kwargs,
        )

    terminal = lambda xs: 3.0 * xs[:, 0]
    for _ in range(25):
        controls = rng.normal(size=4)
        draws = [(rng.normal(size=1), 1.0) for _ in range(4)]
        whole = make(4, 0.0, terminal)
        path = rollout(whole, controls, draws)
        first = make(2, 0.0, None)
        second = make(2, float(path.states[2, 0]), terminal)
        split_cost = trajectory_cost(
            first, path.states[:3], controls[:2]
        ) + trajectory_cost(second, path.states[2:], controls[2:])
        assert split_cost == pytest.approx(path.cost, rel=1e-12)


def test_as_controls_accepts_flat_scalars_and_rejects_mismatch():
    model = _tracking_model()
    arr = as_controls(model, [0.1, 0.2])
    assert arr.shape == (2, 1)
    with pytest.raises(DimensionError):
        as_controls(model, [[0.1, 0.2]])


def test_gaussian_noise_weight_is_the_density():
    law = GaussianNoise([1.0], [[4.0]])
    rng = np.random.default_rng(0)
    draws, weights = law.sample_batch(rng, 1)
    draw, weight = draws[0], weights[0]
    expected = math.exp(-0.5 * (draw[0] - 1.0) ** 2 / 4.0) / math.sqrt(2 * math.pi * 4.0)
    assert weight == pytest.approx(expected, rel=1e-12)
    draws, weights = law.sample_batch(np.random.default_rng(1), 64)
    dens = np.exp(-0.5 * (draws[:, 0] - 1.0) ** 2 / 4.0) / math.sqrt(2 * math.pi * 4.0)
    np.testing.assert_allclose(weights, dens, rtol=1e-12)


def test_gaussian_noise_rejects_bad_covariance():
    with pytest.raises(ValueError):
        GaussianNoise([0.0, 0.0], [[1.0, 0.5], [0.4, 1.0]])
    with pytest.raises(ValueError):
        GaussianNoise([0.0], [[-1.0]])


def test_discrete_noise_weights_are_masses():
    law = DiscreteNoise([-1.0, 1.0], [0.9, 0.1])
    rng = np.random.default_rng(5)
    draws, weights = law.sample_batch(rng, 200)
    for d, w in zip(draws[:, 0], weights):
        assert w == (0.9 if d == -1.0 else 0.1)
    assert law.mean[0] == pytest.approx(-0.8)
    with pytest.raises(ValueError):
        DiscreteNoise([-1.0, 1.0], [0.5, 0.4])


def test_degenerate_noise_is_constant_with_unit_weight():
    law = DegenerateNoise([2.5])
    draws, weights = law.sample_batch(np.random.default_rng(0), 10)
    assert np.all(draws == 2.5)
    assert np.all(weights == 1.0)


def test_cyclic_noise_fixture_enumerates_in_order():
    law = CyclicNoise([-1.0, 1.0], [0.5, 0.5])
    draws, weights = law.sample_batch(np.random.default_rng(0), 4)
    np.testing.assert_array_equal(draws[:, 0], [-1.0, 1.0, -1.0, 1.0])
    assert np.all(weights == 0.5)


def test_trajectory_set_round_trips_trajectories():
    states = np.stack([np.zeros((3, 1)), np.ones((3, 1))])
    ts = TrajectorySet(states, [1.0, 0.25], [4.0, 7.0], SamplingScheme.TREE)
    assert len(ts) == 2
    assert ts[1].cost == 7.0
    assert ts[1].raw_likeliness == 0.25
    assert ts[1].horizon == 2
    assert isinstance(ts[0], Trajectory)
    assert np.array_equal(ts[0].states, states[0])


@pytest.mark.parametrize("states", [np.float64(1.0), np.zeros(3), np.zeros((1, 3))], ids=["0-d", "1-d", "2-d"])
def test_trajectory_set_checks_the_states_rank_first(states):
    # A 0-d array has no leading axis to count rows on.
    with pytest.raises(DimensionError, match=r"states must be \(n, H\+1, dim\)"):
        TrajectorySet(states, [1.0], [0.0], SamplingScheme.TREE)
    with pytest.raises(DimensionError, match="raw_likeliness and costs"):
        TrajectorySet(np.zeros((2, 3, 1)), [1.0], [0.0, 0.0], SamplingScheme.TREE)


def test_model_validates_initial_state_shape():
    with pytest.raises(DimensionError):
        StochasticModel(
            state_dim=2,
            control_dim=1,
            transition=lambda xs, u, ws: xs,
            stage_cost=lambda xs, u: np.zeros(len(xs)),
            noise=GaussianNoise([0.0], [[1.0]]),
            horizon=1,
            initial_state=[0.0],
        )


def test_model_rejects_nonpositive_horizon():
    with pytest.raises(ValueError):
        StochasticModel(
            state_dim=1,
            control_dim=1,
            transition=lambda xs, u, ws: xs,
            stage_cost=lambda xs, u: np.zeros(len(xs)),
            noise=GaussianNoise([0.0], [[1.0]]),
            horizon=0,
            initial_state=[0.0],
        )
