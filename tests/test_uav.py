"""Tracking case study: kinematics, filter, planner objectives, episodes."""
from __future__ import annotations

import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from rsmhp import GaussianNoise, LinearModel, LqgParams, StochasticModel
from rsmhp.experiments import load_spec, run_experiment
from rsmhp.uav import (
    GRAVITY,
    PlannerConfig,
    PlannerObjective,
    ScenarioConfig,
    TargetBelief,
    UavControl,
    UavState,
    kalman_predict,
    kalman_update,
    objective_mhp,
    objective_nbo,
    plan_step,
    run_episode,
    scenario_objective_terms,
    sensor_cov,
    sensor_measure,
    target_process_cov,
    target_step,
    target_transition_matrix,
    uav_step,
)


def _uav(x=0.0, y=0.0, heading=0.0, speed=30.0):
    return UavState(position=np.array([x, y]), heading=heading, speed=speed)


def _belief(px=600.0, py=400.0, vx=5.0, vy=0.0, pos_var=400.0, vel_var=16.0):
    return TargetBelief(
        mean=np.array([px, py, vx, vy]),
        covariance=np.diag([pos_var, pos_var, vel_var, vel_var]),
    )


# ---------------------------------------------------------------- kinematics


def test_uav_straight_line_at_constant_speed():
    state = _uav(speed=20.0)
    for _ in range(5):
        state = uav_step(state, UavControl(0.0, 0.0), dt=1.0)
    np.testing.assert_allclose(state.position, [100.0, 0.0], rtol=1e-12)
    assert state.heading == 0.0
    assert state.speed == 20.0


def test_uav_positive_bank_turns_monotonically():
    state = _uav()
    headings = [state.heading]
    for _ in range(10):
        state = uav_step(state, UavControl(0.0, 0.3), dt=0.5)
        headings.append(state.heading)
    assert all(b > a for a, b in zip(headings, headings[1:]))


def test_uav_full_circle_returns_heading_modulo_two_pi():
    # Constant speed and bank give a constant turn rate g tan(b)/v, so the
    # exact period is 2 pi v / (g tan b); integrate it in small steps.
    speed = 30.0
    bank = 0.3
    rate = GRAVITY * np.tan(bank) / speed
    period = 2.0 * np.pi / rate
    n = 4096
    state = _uav(speed=speed)
    start = state.heading
    for _ in range(n):
        state = uav_step(state, UavControl(0.0, bank), dt=period / n)
    wrapped = (state.heading - start) % (2.0 * np.pi)
    assert min(wrapped, 2.0 * np.pi - wrapped) < 1e-6


def test_uav_speed_clamps_to_bounds():
    state = _uav(speed=48.0)
    state = uav_step(state, UavControl(5.0, 0.0), dt=1.0, v_min=10.0, v_max=50.0)
    assert state.speed == 50.0
    state = _uav(speed=11.0)
    state = uav_step(state, UavControl(-5.0, 0.0), dt=1.0, v_min=10.0, v_max=50.0)
    assert state.speed == 10.0


def test_uav_displacement_uses_post_turn_heading():
    # One step with a left bank must already bend the displacement left.
    state = uav_step(_uav(), UavControl(0.0, 0.3), dt=1.0)
    assert state.position[1] > 0.0


# -------------------------------------------------------------------- target


def test_target_advances_by_velocity_without_noise():
    rng = np.random.default_rng(0)
    out = target_step(np.array([0.0, 0.0, 1.0, 0.0]), 1.0, rng, intensity=0.0)
    np.testing.assert_allclose(out, [1.0, 0.0, 1.0, 0.0], rtol=1e-15)


def test_target_fixed_point_with_zero_velocity_and_noise():
    rng = np.random.default_rng(0)
    state = np.array([3.0, -2.0, 0.0, 0.0])
    out = target_step(state, 1.0, rng, intensity=0.0)
    np.testing.assert_array_equal(out, state)


def test_target_sample_mean_matches_noiseless_prediction():
    rng = np.random.default_rng(7)
    state = np.array([10.0, -5.0, 2.0, 1.5])
    dt = 1.0
    intensity = 4.0
    draws = np.array([target_step(state, dt, rng, intensity=intensity) for _ in range(10_000)])
    predicted = target_transition_matrix(dt) @ state
    stds = np.sqrt(np.diag(target_process_cov(intensity, dt)))
    np.testing.assert_array_less(
        np.abs(draws.mean(axis=0) - predicted), 3.0 * stds / 100.0 + 1e-12
    )


def test_target_step_rejects_nonpositive_dt():
    with pytest.raises(ValueError):
        target_step(np.zeros(4), 0.0, np.random.default_rng(0))


# -------------------------------------------------------------------- sensor


def test_sensor_cov_constant_when_range_free():
    a = sensor_cov([0.0, 0.0], [10.0, 0.0], sigma0=3.0, eta=0.0)
    b = sensor_cov([0.0, 0.0], [1000.0, 500.0], sigma0=3.0, eta=0.0)
    np.testing.assert_array_equal(a, b)
    np.testing.assert_allclose(a, 9.0 * np.eye(2), rtol=1e-15)


def test_sensor_cov_range_doubling_adds_three_eta_r_squared():
    eta = 2e-3
    r = 350.0
    near = sensor_cov([0.0, 0.0], [r, 0.0], sigma0=5.0, eta=eta)
    far = sensor_cov([0.0, 0.0], [2.0 * r, 0.0], sigma0=5.0, eta=eta)
    increase = far[0, 0] - near[0, 0]
    assert increase == pytest.approx(3.0 * eta * r * r, rel=1e-12)
    assert far[1, 1] - near[1, 1] == pytest.approx(increase, rel=1e-12)


def test_sensor_sample_covariance_matches_reported_cov():
    rng = np.random.default_rng(11)
    uav = _uav()
    target = np.array([300.0, 200.0])
    draws = np.empty((10_000, 2))
    cov = None
    for i in range(draws.shape[0]):
        z, cov = sensor_measure(uav, target, rng, sigma0=4.0, eta=1e-3)
        draws[i] = z - target
    sample = np.cov(draws.T)
    sigma_sq = cov[0, 0]
    assert sample[0, 0] == pytest.approx(sigma_sq, rel=0.1)
    assert sample[1, 1] == pytest.approx(sigma_sq, rel=0.1)
    assert abs(sample[0, 1]) < 0.05 * sigma_sq


# -------------------------------------------------------------------- filter


def test_kalman_update_with_huge_noise_is_a_no_op():
    belief = _belief()
    out = kalman_update(belief, np.array([0.0, 0.0]), 1e12 * np.eye(2))
    np.testing.assert_allclose(out.mean, belief.mean, atol=1e-6)
    np.testing.assert_allclose(out.covariance, belief.covariance, atol=1e-6)


def test_kalman_update_with_zero_noise_pins_position():
    belief = _belief()
    z = np.array([640.0, 383.0])
    out = kalman_update(belief, z, np.zeros((2, 2)))
    np.testing.assert_allclose(out.position, z, atol=1e-6)


def test_kalman_update_never_increases_trace():
    rng = np.random.default_rng(3)
    belief = _belief()
    for _ in range(50):
        root = rng.normal(size=(4, 4))
        belief = TargetBelief(belief.mean, root @ root.T + 0.1 * np.eye(4))
        noise = float(rng.uniform(0.1, 100.0))
        z = belief.position + rng.normal(size=2)
        updated = kalman_update(belief, z, noise * np.eye(2))
        assert np.trace(updated.covariance) <= np.trace(belief.covariance) + 1e-9
        belief = updated


def test_kalman_cycle_preserves_symmetry_and_positive_definiteness():
    rng = np.random.default_rng(5)
    belief = _belief()
    for _ in range(100):
        belief = kalman_predict(belief, 1.0, intensity=2.0)
        z = belief.position + rng.normal(scale=10.0, size=2)
        belief = kalman_update(belief, z, float(rng.uniform(1.0, 50.0)) * np.eye(2))
        cov = belief.covariance
        np.testing.assert_allclose(cov, cov.T, atol=1e-9)
        assert np.linalg.eigvalsh(cov).min() > 0.0


def test_kalman_predict_trace_is_linear_without_process_noise():
    belief = _belief()
    doubled = TargetBelief(belief.mean, 2.0 * belief.covariance)
    one = np.trace(kalman_predict(belief, 1.0, intensity=0.0).covariance)
    two = np.trace(kalman_predict(doubled, 1.0, intensity=0.0).covariance)
    assert two == pytest.approx(2.0 * one, rel=1e-9)


def test_kalman_update_rejects_singular_innovation():
    belief = TargetBelief(np.zeros(4), np.diag([0.0, 0.0, 1.0, 1.0]))
    with pytest.raises(np.linalg.LinAlgError):
        kalman_update(belief, np.zeros(2), np.zeros((2, 2)))


def test_belief_validation():
    with pytest.raises(ValueError):
        TargetBelief(np.zeros(3), np.eye(4))
    asym = np.eye(4)
    asym[0, 1] = 0.5
    with pytest.raises(ValueError):
        TargetBelief(np.zeros(4), asym)
    indefinite = np.diag([1.0, 1.0, 1.0, -1.0])
    with pytest.raises(ValueError):
        TargetBelief(np.zeros(4), indefinite)


# ---------------------------------------------------------------- objectives


def _straight(h):
    return [UavControl(0.0, 0.0)] * h


def test_objective_nbo_single_step_with_uninformative_sensor():
    # With an essentially infinite-noise sensor the single-step value is the
    # predicted trace: the update changes nothing.
    sc = ScenarioConfig(sigma0=1e9, eta=0.0)
    belief = _belief()
    value = objective_nbo(_uav(), belief, _straight(1), sc)
    predicted = np.trace(
        kalman_predict(belief, sc.dt, intensity=sc.process_intensity).covariance
    )
    assert value == pytest.approx(predicted, rel=1e-9)


def test_objective_nbo_prefers_flying_toward_the_target():
    sc = ScenarioConfig()
    belief = _belief(px=0.0, py=800.0, vx=0.0, vy=0.0)
    toward = objective_nbo(_uav(heading=np.pi / 2.0), belief, _straight(4), sc)
    away = objective_nbo(_uav(heading=-np.pi / 2.0), belief, _straight(4), sc)
    assert toward < away


def test_objective_nbo_single_step_trace_linearity():
    # Without process noise the predicted covariance is linear in the prior,
    # and an uninformative sensor keeps the update out of the picture.
    sc = ScenarioConfig(sigma0=1e9, eta=0.0, process_intensity=0.0)
    belief = _belief()
    doubled = TargetBelief(belief.mean, 2.0 * belief.covariance)
    one = objective_nbo(_uav(), belief, _straight(1), sc)
    two = objective_nbo(_uav(), doubled, _straight(1), sc)
    assert two == pytest.approx(2.0 * one, rel=1e-9)


def test_objective_mhp_zero_noise_equals_nbo():
    sc = ScenarioConfig(process_intensity=0.0)
    cfg = PlannerConfig(horizon=6, n_trajectories=30, objective=PlannerObjective.RSMHP)
    belief = _belief()
    sampled = objective_mhp(_uav(), belief, _straight(6), sc, cfg, np.random.default_rng(1))
    nominal = objective_nbo(_uav(), belief, _straight(6), sc)
    assert sampled == pytest.approx(nominal, rel=1e-9)


def test_objective_mhp_single_future_matches_first_term_of_pair():
    sc = ScenarioConfig()
    belief = _belief()
    cfg1 = PlannerConfig(horizon=6, n_trajectories=1, objective=PlannerObjective.RSMHP)
    cfg2 = PlannerConfig(horizon=6, n_trajectories=2, objective=PlannerObjective.RSMHP)
    terms = scenario_objective_terms(
        _uav(), belief, _straight(6), sc, cfg2, np.random.default_rng(9)
    )
    single = objective_mhp(_uav(), belief, _straight(6), sc, cfg1, np.random.default_rng(9))
    assert single == terms[0]


def test_objective_mhp_deterministic_given_seed():
    sc = ScenarioConfig()
    cfg = PlannerConfig(horizon=6, n_trajectories=40, objective=PlannerObjective.RSMHP)
    belief = _belief()
    a = objective_mhp(_uav(), belief, _straight(6), sc, cfg, np.random.default_rng(4))
    b = objective_mhp(_uav(), belief, _straight(6), sc, cfg, np.random.default_rng(4))
    assert a == b


def test_objective_mhp_variance_scales_inversely_with_future_count():
    sc = ScenarioConfig()
    belief = _belief()
    uav = _uav()
    controls = _straight(6)
    sizes = np.array([10, 50, 250])
    variances = []
    for n_t in sizes:
        cfg = PlannerConfig(horizon=6, n_trajectories=int(n_t), objective=PlannerObjective.RSMHP)
        values = [
            objective_mhp(uav, belief, controls, sc, cfg, np.random.default_rng(1000 + s))
            for s in range(60)
        ]
        variances.append(np.var(values, ddof=1))
    slope = np.polyfit(np.log(sizes), np.log(variances), 1)[0]
    assert -1.15 <= slope <= -0.85


def test_objective_mhp_concentrates_across_scenario_configurations():
    # Inter-seed spread at 250 futures must undercut the spread at 50 in at
    # least 90% of a small bank of configurations.
    configs = [
        ScenarioConfig(),
        ScenarioConfig(process_intensity=8.0),
        ScenarioConfig(sigma0=2.0, eta=1e-2),
        ScenarioConfig(target_mean=np.array([300.0, 200.0, -8.0, 4.0])),
        ScenarioConfig(target_cov=np.diag([2500.0, 2500.0, 100.0, 100.0])),
        ScenarioConfig(process_intensity=15.0, eta=5e-3),
        ScenarioConfig(uav_speed=45.0, process_intensity=5.0),
        ScenarioConfig(sigma0=10.0, eta=1e-4),
    ]
    belief_for = lambda sc: TargetBelief(sc.target_mean, sc.target_cov)
    wins = 0
    for sc in configs:
        spreads = []
        for n_t in (50, 250):
            cfg = PlannerConfig(
                horizon=6, n_trajectories=n_t, objective=PlannerObjective.RSMHP
            )
            values = [
                objective_mhp(
                    _uav(), belief_for(sc), _straight(6), sc, cfg,
                    np.random.default_rng(200 + s),
                )
                for s in range(12)
            ]
            spreads.append(np.std(values, ddof=1))
        if spreads[1] < spreads[0]:
            wins += 1
    assert wins >= int(np.ceil(0.9 * len(configs)))


def test_objectives_reject_an_empty_control_sequence():
    sc = ScenarioConfig()
    with pytest.raises(ValueError, match="empty"):
        objective_nbo(_uav(), _belief(), [], sc)
    cfg = PlannerConfig(horizon=1, n_trajectories=3, objective=PlannerObjective.RSMHP)
    with pytest.raises(ValueError, match="empty"):
        objective_mhp(_uav(), _belief(), [], sc, cfg, np.random.default_rng(0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_objectives_reject_non_finite_controls_naming_the_entry(bad):
    sc = ScenarioConfig()
    controls = _straight(4)
    controls[2] = UavControl(0.0, bad)
    with pytest.raises(ValueError, match="control 2 has non-finite bank_angle"):
        objective_nbo(_uav(), _belief(), controls, sc)
    controls = _straight(4)
    controls[1] = UavControl(bad, 0.0)
    cfg = PlannerConfig(horizon=4, n_trajectories=3, objective=PlannerObjective.RSMHP)
    with pytest.raises(ValueError, match="control 1 has non-finite forward_acceleration"):
        objective_mhp(_uav(), _belief(), controls, sc, cfg, np.random.default_rng(0))


def _coupled_cov(i, j, value=1.0):
    cov = np.diag([400.0, 400.0, 16.0, 16.0])
    cov[i, j] = cov[j, i] = value
    return cov


@pytest.mark.parametrize("entry", [(0, 1), (0, 3), (1, 2), (2, 3)])
def test_planner_rejects_cross_axis_belief_covariance(entry):
    sc = ScenarioConfig()
    belief = TargetBelief(np.array([600.0, 400.0, 5.0, 0.0]), _coupled_cov(*entry))
    cfg = PlannerConfig(horizon=3, n_trajectories=4, objective=PlannerObjective.RSMHP, eval_budget=20)
    match = rf"belief covariance .*\[{entry[0]},{entry[1]}\]"
    with pytest.raises(ValueError, match=match):
        objective_nbo(_uav(), belief, _straight(3), sc)
    with pytest.raises(ValueError, match=match):
        objective_mhp(_uav(), belief, _straight(3), sc, cfg, np.random.default_rng(0))
    with pytest.raises(ValueError, match=match):
        scenario_objective_terms(_uav(), belief, _straight(3), sc, cfg, np.random.default_rng(0))
    for objective in PlannerObjective:
        with pytest.raises(ValueError, match=match):
            plan_step(_uav(), belief, sc, replace(cfg, objective=objective), np.random.default_rng(0))


# ------------------------------------------------------------------- planner


def test_plan_step_constant_objective_returns_initial_guess():
    # A range-free sensor makes the objective independent of the controls.
    sc = ScenarioConfig(eta=0.0)
    cfg = PlannerConfig(horizon=4, objective=PlannerObjective.NBO, eval_budget=60)
    control = plan_step(_uav(), _belief(), sc, cfg, np.random.default_rng(2))
    assert control.forward_acceleration == 0.0
    assert control.bank_angle == 0.0


def test_plan_step_single_step_banks_toward_the_target():
    # Vehicle flying east, target due north: positive bank turns toward it.
    sc = ScenarioConfig()
    belief = _belief(px=0.0, py=600.0, vx=0.0, vy=0.0)
    cfg = PlannerConfig(horizon=1, objective=PlannerObjective.NBO, eval_budget=60)
    control = plan_step(_uav(), belief, sc, cfg, np.random.default_rng(3))
    assert control.bank_angle > 0.0


def test_plan_step_respects_actuator_bounds():
    sc = ScenarioConfig()
    for seed in range(6):
        for obj, n_t in ((PlannerObjective.NBO, 1), (PlannerObjective.RSMHP, 20)):
            cfg = PlannerConfig(
                horizon=3, n_trajectories=n_t, objective=obj, eval_budget=50
            )
            control = plan_step(_uav(), _belief(), sc, cfg, np.random.default_rng(seed))
            assert abs(control.forward_acceleration) <= sc.accel_max + 1e-12
            assert abs(control.bank_angle) <= sc.bank_max + 1e-12


def test_plan_step_deterministic_given_seed():
    sc = ScenarioConfig()
    cfg = PlannerConfig(
        horizon=4, n_trajectories=25, objective=PlannerObjective.RSMHP, eval_budget=70
    )
    a = plan_step(_uav(), _belief(), sc, cfg, np.random.default_rng(8))
    b = plan_step(_uav(), _belief(), sc, cfg, np.random.default_rng(8))
    assert a == b


# ------------------------------------------------------------------ episodes


def _small_scenario(**overrides):
    base = dict(n_steps=8)
    base.update(overrides)
    return ScenarioConfig(**base)


def _small_planner(**overrides):
    base = dict(horizon=3, objective=PlannerObjective.NBO, eval_budget=30)
    base.update(overrides)
    return PlannerConfig(**base)


def test_episode_zero_sensor_noise_gives_negligible_error():
    sc = _small_scenario(sigma0=0.0, eta=0.0)
    errors = run_episode(sc, _small_planner(), run_index=0)
    assert errors.shape == (sc.n_steps,)
    assert errors.max() < 1e-9


def test_episode_error_trace_reproducible():
    sc = _small_scenario()
    cfg = _small_planner(
        objective=PlannerObjective.RSMHP, n_trajectories=15, eval_budget=40
    )
    a = run_episode(sc, cfg, run_index=3)
    b = run_episode(sc, cfg, run_index=3)
    np.testing.assert_array_equal(a, b)


def test_monte_carlo_runs_differ_across_run_indices():
    sc = _small_scenario(n_steps=6)
    out = [run_episode(sc, _small_planner(), run_index=i).mean() for i in range(3)]
    assert len(set(out)) == 3


def test_scenario_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(dt=0.0)
    with pytest.raises(ValueError):
        ScenarioConfig(n_steps=0)
    with pytest.raises(ValueError):
        ScenarioConfig(v_min=60.0, v_max=50.0)
    with pytest.raises(ValueError):
        ScenarioConfig(uav_speed=5.0)
    with pytest.raises(ValueError):
        ScenarioConfig(bank_max=2.0)
    with pytest.raises(ValueError):
        ScenarioConfig(sigma0=-1.0)
    with pytest.raises(ValueError):
        ScenarioConfig(target_mean=np.zeros(3))


def test_scenario_accepts_unequal_per_axis_blocks():
    cov = np.diag([900.0, 100.0, 25.0, 4.0])
    cov[0, 2] = cov[2, 0] = 30.0
    np.testing.assert_array_equal(ScenarioConfig(target_cov=cov).target_cov, cov)


@pytest.mark.parametrize("entry", [(0, 1), (0, 3), (1, 2), (2, 3)])
def test_scenario_rejects_cross_axis_target_cov_naming_the_entry(entry):
    with pytest.raises(ValueError, match=rf"target_cov .*\[{entry[0]},{entry[1]}\]"):
        ScenarioConfig(target_cov=_coupled_cov(*entry))


def _stochastic_model(**fields):
    base = dict(
        state_dim=1,
        control_dim=1,
        transition=lambda xs, u, ws: xs + ws,
        stage_cost=lambda xs, u: xs[:, 0],
        noise=GaussianNoise([0.0], [[1.0]]),
        horizon=2,
        initial_state=[0.0],
    )
    base.update(fields)
    return StochasticModel(**base)


def _linear_model(horizon):
    return LinearModel(0.9, 1.0, 1.0, 0.1, 1.0, horizon=horizon)


def _lqg_params(horizon):
    return LqgParams(a=0.5, r=1.0, target=1.0, sigma=1.0, x0=0.0, horizon=horizon)


def _run_experiment(workers):
    spec = load_spec(Path(__file__).resolve().parent.parent / "configs" / "lqg_convergence.ini")
    with tempfile.TemporaryDirectory() as out:
        return run_experiment(spec.with_overrides(output=out), workers=workers)


@pytest.mark.parametrize(
    "build, field, value, error",
    [
        (PlannerConfig, "horizon", 2.5, TypeError),
        (PlannerConfig, "horizon", True, TypeError),
        (PlannerConfig, "n_trajectories", 2.5, TypeError),
        (PlannerConfig, "eval_budget", 3.5, TypeError),
        (PlannerConfig, "master_seed", 1.5, TypeError),
        (PlannerConfig, "master_seed", -1, ValueError),
        (ScenarioConfig, "n_steps", 2.5, TypeError),
        (ScenarioConfig, "n_steps", False, TypeError),
        (ScenarioConfig, "master_seed", "3", TypeError),
        (ScenarioConfig, "master_seed", -1, ValueError),
        (_stochastic_model, "horizon", 2.5, TypeError),
        (_stochastic_model, "horizon", 0, ValueError),
        (_stochastic_model, "state_dim", 2.0, TypeError),
        (_stochastic_model, "control_dim", True, TypeError),
        (_stochastic_model, "control_dim", 0, ValueError),
        (_linear_model, "horizon", 2.5, TypeError),
        (_lqg_params, "horizon", 2.5, TypeError),
        (_run_experiment, "workers", 2.0, TypeError),
        (_run_experiment, "workers", True, TypeError),
        (_run_experiment, "workers", 0, ValueError),
    ],
)
def test_configs_reject_non_integers_naming_the_field(build, field, value, error):
    with pytest.raises(error, match=rf"^{field} must be "):
        build(**{field: value})


def test_planner_config_validation():
    with pytest.raises(ValueError):
        PlannerConfig(horizon=0)
    with pytest.raises(ValueError):
        PlannerConfig(n_trajectories=0)
    with pytest.raises(ValueError):
        PlannerConfig(eval_budget=0)
    with pytest.raises(ValueError):
        PlannerConfig(objective="nbo")
