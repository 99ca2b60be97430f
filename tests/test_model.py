"""Model abstraction: noise laws, rollouts, trajectory costs."""
from __future__ import annotations

import dataclasses
import importlib
import math
import pkgutil
from pathlib import Path

import numpy as np
import pytest

from conftest import CyclicNoise

import rsmhp
from rsmhp import (
    DimensionError,
    DiscreteNoise,
    Estimate,
    GaussianNoise,
    LinearModel,
    LqgParams,
    PruneRecord,
    SamplerConfig,
    StochasticModel,
    TrajectorySet,
    as_controls,
    chebyshev_bound,
    linear_stochastic_model,
    lqg_cost_variance,
    lqg_exact_cost,
    lqg_stochastic_model,
    rollout,
    sample_independent,
    trajectory_cost,
)
from rsmhp.experiments import load_spec
from rsmhp.experiments.spec import (
    ChebyshevCoverageParams,
    CovarianceDecayParams,
    ExperimentKind,
    ExperimentSpec,
    LqgConvergenceParams,
    PruningStudyParams,
    UavMonteCarloParams,
    VarianceScalingParams,
    _ScalarBenchmarkParams,
)
from rsmhp.uav import (
    PlannerConfig,
    PlannerObjective,
    ScenarioConfig,
    TargetBelief,
    UavControl,
    UavState,
    kalman_update,
)

_LQG = dict(a=0.5, r=10.0, target=1.0, sigma=1.0, x0=0.0, horizon=2)
_LINEAR = dict(a_matrix=0.5, b_matrix=1.0, cost_state=1.0, cost_control=0.0, noise_cov=1.0, horizon=2)


def _tracking_model(a=0.5, r=10.0, target=1.0, horizon=2, x0=0.0, sigma=1.0):
    noise = GaussianNoise([0.0], [[sigma**2]]) if sigma > 0 else DiscreteNoise([[0.0]], [1.0])

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
    assert path.states.shape == (1, 3, 1)
    np.testing.assert_allclose(path.states[0, :, 0], [0.0, 0.275, 0.2225], atol=1e-12)


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
    assert path.costs[0] == 0.0


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
    assert path.costs[0] == pytest.approx(1.0, abs=1e-15)


def test_rollout_populates_likeliness_and_cost_invariants():
    model = _tracking_model()
    draws = [(np.array([0.4]), 0.8), (np.array([-0.2]), 0.3)]
    path = rollout(model, [0.55, 0.17], draws)
    assert path.raw_likeliness[0] == pytest.approx(0.8 * 0.3, rel=1e-12)
    assert path.states[0, 0, 0] == model.initial_state[0]
    recomputed = trajectory_cost(model, path.states[0], [0.55, 0.17])
    assert path.costs[0] == pytest.approx(recomputed, rel=1e-12)


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
    assert first.costs[0] == second.costs[0]
    assert first.raw_likeliness[0] == second.raw_likeliness[0]


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
        states = path.states[0]
        first = make(2, 0.0, None)
        second = make(2, float(states[2, 0]), terminal)
        split_cost = trajectory_cost(
            first, states[:3], controls[:2]
        ) + trajectory_cost(second, states[2:], controls[2:])
        assert split_cost == pytest.approx(path.costs[0], rel=1e-12)


def test_as_controls_accepts_flat_scalars_and_rejects_mismatch():
    model = _tracking_model()
    arr = as_controls(model, [0.1, 0.2])
    assert arr.shape == (2, 1)
    with pytest.raises(DimensionError):
        as_controls(model, [[0.1, 0.2]])


def test_gaussian_noise_weight_is_the_density():
    law = GaussianNoise([1.0], [[4.0]])
    rng = np.random.default_rng(0)
    draws, weights = law.sample_batch([rng], 1)
    draw, weight = draws[0], weights[0]
    expected = math.exp(-0.5 * (draw[0] - 1.0) ** 2 / 4.0) / math.sqrt(2 * math.pi * 4.0)
    assert weight == pytest.approx(expected, rel=1e-12)
    draws, weights = law.sample_batch([np.random.default_rng(1)], 64)
    dens = np.exp(-0.5 * (draws[:, 0] - 1.0) ** 2 / 4.0) / math.sqrt(2 * math.pi * 4.0)
    np.testing.assert_allclose(weights, dens, rtol=1e-12)


def test_gaussian_noise_rejects_bad_covariance():
    with pytest.raises(ValueError):
        GaussianNoise([0.0, 0.0], [[1.0, 0.5], [0.4, 1.0]])
    with pytest.raises(ValueError):
        GaussianNoise([0.0], [[-1.0]])


def test_gaussian_noise_transform_matches_the_matrix_form():
    # The elementwise transform is mean + z @ chol.T up to rounding, and
    # its weights are the multivariate normal density.
    mean = np.array([1.0, -2.0, 0.5, 3.0])
    root = np.random.default_rng(3).normal(size=(4, 4))
    cov = root @ root.T + 0.1 * np.eye(4)
    law = GaussianNoise(mean, cov)
    draws, weights = law.sample_batch([np.random.default_rng(4)], 50)
    z = np.random.default_rng(4).standard_normal((50, 4))
    np.testing.assert_allclose(draws, mean + z @ np.linalg.cholesky(cov).T, rtol=1e-12, atol=1e-12)
    dev = draws - mean
    maha = np.einsum("ij,ij->i", dev @ np.linalg.inv(cov), dev)
    dens = np.exp(-0.5 * maha) / math.sqrt((2 * math.pi) ** 4 * np.linalg.det(cov))
    np.testing.assert_allclose(weights, dens, rtol=1e-9)


@pytest.mark.parametrize(
    "make, name",
    [
        (lambda: GaussianNoise([math.nan], [[1.0]]), "mean"),
        (lambda: GaussianNoise([0.0, math.inf], np.eye(2)), "mean"),
        (lambda: GaussianNoise([0.0], [[math.inf]]), "cov"),
        (lambda: GaussianNoise([0.0], [[math.nan]]), "cov"),
        (lambda: GaussianNoise([0.0, 0.0], [[1.0, math.nan], [math.nan, 1.0]]), "cov"),
        (lambda: DiscreteNoise([[math.nan]], [1.0]), "values"),
        (lambda: DiscreteNoise([-math.inf, 1.0], [0.5, 0.5]), "values"),
        (lambda: DiscreteNoise([-1.0, 1.0], [math.nan, 0.5]), "probs"),
        (lambda: DiscreteNoise([[0.0, math.nan]], [1.0]), "values"),
        (lambda: DiscreteNoise([[0.0, -math.inf]], [1.0]), "values"),
    ],
    ids=[
        "gaussian-nan-mean",
        "gaussian-inf-mean",
        "gaussian-inf-cov",
        "gaussian-nan-cov",
        "gaussian-nan-offdiagonal",
        "discrete-nan-values",
        "discrete-inf-values",
        "discrete-nan-probs",
        "degenerate-nan",
        "degenerate-inf",
    ],
)
def test_noise_laws_reject_non_finite_parameters_by_name(make, name):
    with pytest.raises(ValueError, match=rf"^{name} must be finite"):
        make()


def _lqg_model():
    return lqg_stochastic_model(LqgParams(**_LQG))


@pytest.mark.parametrize(
    "make, field, error",
    [
        pytest.param(lambda: LqgParams(**{**_LQG, "r": math.inf}), "r", ValueError, id="LqgParams.r"),
        pytest.param(lambda: LqgParams(**{**_LQG, "sigma": math.nan}), "sigma", ValueError, id="LqgParams.sigma"),
        pytest.param(lambda: LqgParams(**{**_LQG, "x0": math.nan}), "x0", ValueError, id="LqgParams.x0"),
        pytest.param(lambda: LqgParams(**{**_LQG, "target": math.inf}), "target", ValueError, id="LqgParams.target"),
        pytest.param(lambda: LinearModel(**{**_LINEAR, "a_matrix": math.nan}), "a_matrix", ValueError,
                     id="LinearModel.a_matrix"),
        pytest.param(lambda: LinearModel(**{**_LINEAR, "cost_control": math.inf}), "cost_control", ValueError,
                     id="LinearModel.cost_control"),
        pytest.param(lambda: ScenarioConfig(dt=math.inf), "dt", ValueError, id="ScenarioConfig.dt"),
        pytest.param(lambda: ScenarioConfig(accel_max=math.nan), "accel_max", ValueError,
                     id="ScenarioConfig.accel_max"),
        pytest.param(lambda: ScenarioConfig(sigma0=math.nan), "sigma0", ValueError, id="ScenarioConfig.sigma0"),
        pytest.param(lambda: ScenarioConfig(eta=math.inf), "eta", ValueError, id="ScenarioConfig.eta"),
        pytest.param(lambda: ScenarioConfig(process_intensity=math.nan), "process_intensity", ValueError,
                     id="ScenarioConfig.process_intensity"),
        pytest.param(lambda: ScenarioConfig(uav_heading=math.nan), "uav_heading", ValueError,
                     id="ScenarioConfig.uav_heading"),
        pytest.param(lambda: ScenarioConfig(uav_position=(math.nan, 0.0)), "uav_position", ValueError,
                     id="ScenarioConfig.uav_position"),
        pytest.param(lambda: ScenarioConfig(target_mean=[math.nan, 0.0, 0.0, 0.0]), "target_mean", ValueError,
                     id="ScenarioConfig.target_mean"),
        # A non-finite vehicle state made the planner score NaN.
        pytest.param(lambda: UavState((math.nan, 0.0), 0.0, 30.0), "position", ValueError, id="UavState.position"),
        pytest.param(lambda: UavState(np.array([0.0, math.inf]), 0.0, 30.0), "position", ValueError,
                     id="UavState.position_array"),
        pytest.param(lambda: UavState((0.0, 0.0), math.nan, 30.0), "heading", ValueError, id="UavState.heading"),
        pytest.param(lambda: UavState((0.0, 0.0), 0.0, math.inf), "speed", ValueError, id="UavState.speed"),
        # A non-finite control failed one step later, naming the vehicle's position.
        pytest.param(lambda: UavControl(math.nan, 0.0), "forward_acceleration", ValueError,
                     id="UavControl.forward_acceleration"),
        pytest.param(lambda: UavControl(0.0, -math.inf), "bank_angle", ValueError, id="UavControl.bank_angle"),
        # Numeric strings and bools were converted by float(), and a string
        # that is not a number failed with numpy's or float's own message.
        pytest.param(lambda: UavControl("1.5", 0.0), "forward_acceleration", TypeError,
                     id="UavControl.forward_acceleration_str"),
        pytest.param(lambda: UavControl(0.0, True), "bank_angle", TypeError, id="UavControl.bank_angle_bool"),
        pytest.param(lambda: UavState((0, "1"), 0, 30), "position", TypeError, id="UavState.position_str"),
        pytest.param(lambda: UavState((0, 0), True, 30), "heading", TypeError, id="UavState.heading_bool"),
        pytest.param(lambda: ScenarioConfig(dt=True), "dt", TypeError, id="ScenarioConfig.dt_bool"),
        pytest.param(lambda: ScenarioConfig(eta=True), "eta", TypeError, id="ScenarioConfig.eta_bool"),
        pytest.param(lambda: ScenarioConfig(dt="1"), "dt", TypeError, id="ScenarioConfig.dt_str"),
        pytest.param(lambda: LqgParams(**{**_LQG, "r": True}), "r", TypeError, id="LqgParams.r_bool"),
        pytest.param(lambda: LqgParams(**{**_LQG, "a": "0.5"}), "a", TypeError, id="LqgParams.a_str"),
        # A non-finite initial state gave NaN costs from every sampler.
        pytest.param(lambda: linear_stochastic_model(LinearModel(**_LINEAR), [math.nan]), "initial_state", ValueError,
                     id="StochasticModel.initial_state"),
        pytest.param(lambda: sample_independent(_lqg_model(), [0.1, math.nan], SamplerConfig(branch_factor=4)),
                     "controls at step 1", ValueError, id="sample_independent.controls"),
        pytest.param(lambda: rollout(_lqg_model(), [0.1, 0.2], [(math.nan, 1.0), (0.0, 1.0)]),
                     "noise draw at step 0", ValueError, id="rollout.draw"),
        pytest.param(lambda: rollout(_lqg_model(), [0.1, 0.2], [(0.0, 1.0), (0.0, -3.0)]),
                     "noise weight at step 1", ValueError, id="rollout.weight"),
        pytest.param(lambda: rollout(_lqg_model(), [0.1, 0.2], [(0.0, math.nan), (0.0, 1.0)]),
                     "noise weight at step 0", ValueError, id="rollout.nan_weight"),
        pytest.param(lambda: lqg_exact_cost(LqgParams(**_LQG), [math.nan, 0.1]), "controls", ValueError,
                     id="lqg_exact_cost.controls"),
        pytest.param(lambda: lqg_cost_variance(LqgParams(**_LQG), [0.1, math.inf]), "controls", ValueError,
                     id="lqg_cost_variance.controls"),
        pytest.param(lambda: chebyshev_bound(LinearModel(**_LINEAR), True, 0.5), "n_samples", TypeError,
                     id="chebyshev_bound.n_samples"),
        # A bool epsilon ran as 1.0, and a string one failed on Python's '>'.
        pytest.param(lambda: chebyshev_bound(LinearModel(**_LINEAR), 10, True), "epsilon", TypeError,
                     id="chebyshev_bound.epsilon_bool"),
        pytest.param(lambda: chebyshev_bound(LinearModel(**_LINEAR), 10, "0.5"), "epsilon", TypeError,
                     id="chebyshev_bound.epsilon_str"),
        # Vector entries went through numpy's float conversion: a bool ran
        # as 0.0 or 1.0, a numeric string as its number, and another string
        # failed with numpy's own message.
        pytest.param(lambda: ScenarioConfig(uav_position=(True, 0)), "uav_position", TypeError,
                     id="ScenarioConfig.uav_position_bool"),
        pytest.param(lambda: ScenarioConfig(target_mean=("600", 400, 5, 0)), "target_mean", TypeError,
                     id="ScenarioConfig.target_mean_numeric_str"),
        pytest.param(lambda: ScenarioConfig(target_mean=("x", 400, 5, 0)), "target_mean", TypeError,
                     id="ScenarioConfig.target_mean_str"),
        pytest.param(lambda: ScenarioConfig(target_cov=np.eye(4, dtype=bool)), "target_cov", TypeError,
                     id="ScenarioConfig.target_cov_bool"),
        pytest.param(lambda: TargetBelief(["1", 0, 0, 0], np.eye(4)), "mean", TypeError, id="TargetBelief.mean_str"),
        pytest.param(lambda: kalman_update(TargetBelief(np.zeros(4), np.eye(4)), np.array([True, False]), 1.0),
                     "measurement", TypeError, id="kalman_update.measurement_bool"),
        # variance went through float(): True and "1" both updated with 1.0.
        pytest.param(lambda: kalman_update(TargetBelief(np.zeros(4), np.eye(4)), np.zeros(2), True),
                     "variance", TypeError, id="kalman_update.variance_bool"),
        pytest.param(lambda: kalman_update(TargetBelief(np.zeros(4), np.eye(4)), np.zeros(2), "1"),
                     "variance", TypeError, id="kalman_update.variance_str"),
        # The scalar stack's arrays went through numpy's float conversion: a
        # bool ran as 0.0 or 1.0 and a numeric string as its number.
        pytest.param(lambda: sample_independent(_lqg_model(), ["0.55", "0.17"], SamplerConfig(branch_factor=4)),
                     "controls", TypeError, id="sample_independent.controls_str"),
        pytest.param(lambda: sample_independent(_lqg_model(), [True, False], SamplerConfig(branch_factor=4)),
                     "controls", TypeError, id="sample_independent.controls_bool"),
        pytest.param(lambda: sample_independent(_lqg_model(), np.array([True, False]), SamplerConfig(branch_factor=4)),
                     "controls", TypeError, id="sample_independent.controls_bool_array"),
        pytest.param(lambda: GaussianNoise(["0"], [[1.0]]), "mean", TypeError, id="GaussianNoise.mean_str"),
        pytest.param(lambda: GaussianNoise([0.0], [["1"]]), "cov", TypeError, id="GaussianNoise.cov_str"),
        pytest.param(lambda: DiscreteNoise(["1", "2"], [0.5, 0.5]), "values", TypeError, id="DiscreteNoise.values_str"),
        pytest.param(lambda: DiscreteNoise([1.0, 2.0], [True, False]), "probs", TypeError,
                     id="DiscreteNoise.probs_bool"),
        pytest.param(lambda: LinearModel(**{**_LINEAR, "a_matrix": [[True]]}), "a_matrix", TypeError,
                     id="LinearModel.a_matrix_bool"),
        pytest.param(lambda: LinearModel(**{**_LINEAR, "noise_cov": "1"}), "noise_cov", TypeError,
                     id="LinearModel.noise_cov_str"),
        pytest.param(lambda: linear_stochastic_model(LinearModel(**_LINEAR), ["0.5"]), "initial_state", TypeError,
                     id="StochasticModel.initial_state_str"),
        pytest.param(lambda: lqg_exact_cost(LqgParams(**_LQG), ["0.55", "0.17"]), "controls", TypeError,
                     id="lqg_exact_cost.controls_str"),
        pytest.param(lambda: rollout(_lqg_model(), [0.1, 0.2], [("0", 1.0), (0.0, 1.0)]), "noise draw at step 0",
                     TypeError, id="rollout.draw_str"),
        # rollout took the weight True as 1.0, and failed on "1" in Python's '<'.
        pytest.param(lambda: rollout(_lqg_model(), [0.1, 0.2], [(0.0, True), (0.0, 1.0)]), "noise weight at step 0",
                     TypeError, id="rollout.weight_bool"),
        pytest.param(lambda: rollout(_lqg_model(), [0.1, 0.2], [(0.0, 1.0), (0.0, "1")]), "noise weight at step 1",
                     TypeError, id="rollout.weight_str"),
        # A ragged sequence failed in np.shape with numpy's message, naming no field.
        pytest.param(lambda: TargetBelief(np.zeros(4), [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 1]]),
                     "belief covariance", ValueError, id="TargetBelief.covariance_ragged"),
        pytest.param(lambda: UavState(((0.0, 1.0), 0.0), 0.0, 30.0), "position", ValueError,
                     id="UavState.position_ragged"),
    ],
)
def test_bad_inputs_fail_naming_their_field(make, field, error):
    # Each of these once ran on to a NaN or infinite result.
    with pytest.raises(error, match=rf"^{field} must be "):
        make()


def _add_noise(xs, u, ws):
    return xs + ws


def _no_stage_cost(xs, u):
    return np.zeros(len(xs))


# Each factory builds a new instance from new arrays; two calls give equal values.
_VALUE_TYPES = {
    ScenarioConfig: lambda: ScenarioConfig(
        uav_position=np.array([1.0, 2.0]), target_mean=np.array([600.0, 400.0, 5.0, 1.0]),
        target_cov=np.diag([400.0, 400.0, 25.0, 25.0]),
    ),
    UavState: lambda: UavState(np.array([1.0, 2.0]), 0.5, 30.0),
    UavControl: lambda: UavControl(1.5, -0.2),
    TargetBelief: lambda: TargetBelief(np.array([1.0, 2.0, 3.0, 4.0]), np.diag([4.0, 4.0, 1.0, 1.0])),
    SamplerConfig: lambda: SamplerConfig(branch_factor=3, prune_width=2, seeds=np.array([5, 6])),
    PlannerConfig: lambda: PlannerConfig(horizon=3, n_trajectories=5, objective=PlannerObjective.RSMHP),
    LqgParams: lambda: LqgParams(**_LQG),
    # List-valued keys given as lists are stored as tuples.
    _ScalarBenchmarkParams: lambda: _ScalarBenchmarkParams(horizon=3),
    LqgConvergenceParams: lambda: LqgConvergenceParams(controls=[0.1, 0.2, 0.3], horizon=3),
    ChebyshevCoverageParams: lambda: ChebyshevCoverageParams(n_values=[10, 20], epsilons=[0.5]),
    VarianceScalingParams: lambda: VarianceScalingParams(n_values=[10, 20]),
    PruningStudyParams: lambda: PruningStudyParams(horizon=3, m_values=[1, 2]),
    CovarianceDecayParams: lambda: CovarianceDecayParams(horizon=3, reps=20),
    UavMonteCarloParams: lambda: UavMonteCarloParams(nt_values=[5, 20], target_mean=[1.0, 2.0, 3.0, 4.0]),
    ExperimentSpec: lambda: ExperimentSpec(
        ExperimentKind.PRUNING_STUDY, 5, "out", PruningStudyParams(horizon=3, m_values=[1, 2]),
    ),
}
_IDENTITY_TYPES = {
    Estimate: lambda: Estimate(np.array([1.0]), np.array([[1.0]])),
    PruneRecord: lambda: PruneRecord(1, np.array([0.5, 0.5]), np.array([[0], [1]]), np.array([1])),
    StochasticModel: lambda: StochasticModel(
        state_dim=1, control_dim=1, transition=_add_noise, stage_cost=_no_stage_cost,
        noise=DiscreteNoise([[0.0]], [1.0]), horizon=2, initial_state=np.array([0.0]),
    ),
}


def test_every_frozen_dataclass_is_a_value_or_an_identity_type():
    found = set()
    for module in pkgutil.walk_packages(rsmhp.__path__, "rsmhp."):
        for obj in vars(importlib.import_module(module.name)).values():
            params = getattr(obj, "__dataclass_params__", None)
            if isinstance(obj, type) and params is not None and params.frozen:
                found.add(obj)
    assert found == set(_VALUE_TYPES) | set(_IDENTITY_TYPES)


@pytest.mark.parametrize("path", sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.ini")),
                         ids=lambda path: path.stem)
def test_every_shipped_spec_is_a_hashable_value(path):
    first, second = load_spec(path), load_spec(path)
    assert first is not second and first == second
    assert hash(first) == hash(second) and {first: "first"}[second] == "first"
    assert hash(first.with_overrides(master_seed=first.master_seed + 1)) != hash(first)


@pytest.mark.parametrize("cls", list(_VALUE_TYPES), ids=lambda cls: cls.__name__)
def test_value_types_compare_and_hash_by_value(cls):
    first, second = _VALUE_TYPES[cls](), _VALUE_TYPES[cls]()
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second) and {first: "first"}[second] == "first"
    compared = [f.name for f in dataclasses.fields(cls) if f.compare]
    assert not [name for name in compared if isinstance(getattr(first, name), np.ndarray)]


@pytest.mark.parametrize("cls", list(_IDENTITY_TYPES), ids=lambda cls: cls.__name__)
def test_identity_types_compare_and_hash_by_identity(cls):
    first, second = _IDENTITY_TYPES[cls](), _IDENTITY_TYPES[cls]()
    assert first == first and first != second
    assert hash(first) == hash(first) and {first: "first"}.get(second) is None


def test_discrete_noise_weights_are_masses():
    law = DiscreteNoise([-1.0, 1.0], [0.9, 0.1])
    rng = np.random.default_rng(5)
    draws, weights = law.sample_batch([rng], 200)
    for d, w in zip(draws[:, 0], weights):
        assert w == (0.9 if d == -1.0 else 0.1)
    assert law.mean[0] == pytest.approx(-0.8)
    with pytest.raises(ValueError):
        DiscreteNoise([-1.0, 1.0], [0.5, 0.4])


def test_degenerate_noise_is_constant_with_unit_weight():
    # A one-point law is the deterministic disturbance.
    law = DiscreteNoise([[2.5, -1.0]], [1.0])
    draws, weights = law.sample_batch([np.random.default_rng(0), np.random.default_rng(1)], 10)
    assert draws.tolist() == [[2.5, -1.0]] * 20
    assert weights.tolist() == [1.0] * 20
    assert law.mean.tolist() == [2.5, -1.0]


class _UnreadStreams:
    """Streams of a known count that fail if any generator is taken."""

    def __init__(self, count):
        self.count = count

    def __len__(self):
        return self.count

    def __iter__(self):
        raise AssertionError("a one-point law must not take any stream")


def test_degenerate_noise_draws_from_no_stream():
    law = DiscreteNoise([[2.5, -1.0]], [1.0])
    draws, weights = law.sample_batch(_UnreadStreams(3), 4)
    assert draws.tolist() == [[2.5, -1.0]] * 12
    assert weights.tolist() == [1.0] * 12
    draws[0, 0] = 7.0  # the rows are the caller's own, not a view of the law
    assert law.sample_batch(_UnreadStreams(1), 1)[0].tolist() == [[2.5, -1.0]]


def test_cyclic_noise_fixture_enumerates_in_order():
    law = CyclicNoise([-1.0, 1.0], [0.5, 0.5])
    draws, weights = law.sample_batch([np.random.default_rng(0)], 4)
    np.testing.assert_array_equal(draws[:, 0], [-1.0, 1.0, -1.0, 1.0])
    assert np.all(weights == 0.5)


def test_trajectory_set_round_trips_trajectories():
    states = np.stack([np.zeros((3, 1)), np.ones((3, 1))])
    ts = TrajectorySet(states, [1.0, 0.25], [4.0, 7.0])
    assert len(ts) == 2


@pytest.mark.parametrize("states", [np.float64(1.0), np.zeros(3), np.zeros((1, 3))], ids=["0-d", "1-d", "2-d"])
def test_trajectory_set_checks_the_states_rank_first(states):
    # A 0-d array has no leading axis to count rows on.
    with pytest.raises(DimensionError, match=r"states must be \(n, H\+1, dim\)"):
        TrajectorySet(states, [1.0], [0.0])
    with pytest.raises(DimensionError, match="raw_likeliness and costs"):
        TrajectorySet(np.zeros((2, 3, 1)), [1.0], [0.0, 0.0])


def test_trajectory_set_rejects_a_flat_array_beside_stacked_states():
    # Twelve costs are as many trajectories as (3, 4) states, but not one
    # per trajectory on the replication axis.
    with pytest.raises(DimensionError, match=r"must be \(3, 4\).*got \(3, 4\) and \(12,\)"):
        TrajectorySet(np.zeros((3, 4, 3, 1)), np.ones((3, 4)), np.zeros(12))
    with pytest.raises(DimensionError, match="branch_paths"):
        TrajectorySet(np.zeros((3, 4, 3, 1)), np.ones((3, 4)), np.zeros((3, 4)), np.zeros((12, 2), dtype=np.intp))
    ts = TrajectorySet(np.zeros((3, 4, 3, 1)), np.ones((3, 4)), np.zeros((3, 4)), np.zeros((3, 4, 2), dtype=np.intp))
    assert len(ts) == 12


@pytest.mark.parametrize(
    "branch_paths",
    ["tree", np.zeros((5, 7), dtype=np.intp), np.zeros((2, 1)), np.zeros(2, dtype=np.intp)],
    ids=["label", "wrong-rows", "float", "1-d"],
)
def test_trajectory_set_checks_branch_paths(branch_paths):
    # A scheme label passed where the old constructor took one is rejected too.
    with pytest.raises(DimensionError, match="branch_paths"):
        TrajectorySet(np.zeros((2, 3, 1)), [1.0, 1.0], [0.0, 0.0], branch_paths)
    for digits in (np.zeros((2, 2), dtype=np.intp), np.zeros((2, 0), dtype=np.uint8)):
        ts = TrajectorySet(np.zeros((2, 3, 1)), [1.0, 1.0], [0.0, 0.0], digits)
        assert ts.branch_paths is digits


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


@pytest.mark.parametrize(
    "stored",
    [
        lambda x: linear_stochastic_model(LinearModel(0.5, 1.0, 1.0, 0.0, 1.0, horizon=2), x).initial_state,
        lambda x: GaussianNoise(x, [[1.0]]).mean,
        lambda x: LinearModel(x, 1.0, 1.0, 0.0, 1.0, horizon=2).a_matrix,
    ],
    ids=["initial_state", "gaussian_mean", "a_matrix"],
)
def test_models_keep_read_only_copies_of_caller_arrays(stored):
    # The caller's array stays writable, and a later edit of it does not
    # reach the model, whose own copy cannot be edited either.
    caller = np.array([0.5])
    kept = stored(caller)
    caller[0] = 1.0
    assert np.all(kept == 0.5)
    assert not kept.flags.writeable
