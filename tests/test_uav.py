"""Tracking case study: kinematics, filter, planner objectives, episodes."""
from __future__ import annotations

import dataclasses
import math
import os
import platform
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import target_process_cov, target_transition_matrix
from rsmhp import GaussianNoise, LinearModel, LqgParams, SamplerConfig, StochasticModel
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
    sensor_cov,
    sensor_measure,
    target_step,
    uav_step,
)
from rsmhp.uav import planning, simulate
from rsmhp.uav.planning import _frozen_draws, _planned_path


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
        state = uav_step(state, UavControl(0.0, 0.0), ScenarioConfig(dt=1.0))
    np.testing.assert_allclose(state.position, [100.0, 0.0], rtol=1e-12)
    assert state.heading == 0.0
    assert state.speed == 20.0


def test_uav_positive_bank_turns_monotonically():
    state = _uav()
    headings = [state.heading]
    for _ in range(10):
        state = uav_step(state, UavControl(0.0, 0.3), ScenarioConfig(dt=0.5))
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
    sc = ScenarioConfig(dt=period / n)
    state = _uav(speed=speed)
    start = state.heading
    for _ in range(n):
        state = uav_step(state, UavControl(0.0, bank), sc)
    wrapped = (state.heading - start) % (2.0 * np.pi)
    assert min(wrapped, 2.0 * np.pi - wrapped) < 1e-6


def test_uav_speed_clamps_to_bounds():
    sc = ScenarioConfig(dt=1.0, v_min=10.0, v_max=50.0)
    state = _uav(speed=48.0)
    state = uav_step(state, UavControl(5.0, 0.0), sc)
    assert state.speed == 50.0
    state = _uav(speed=11.0)
    state = uav_step(state, UavControl(-5.0, 0.0), sc)
    assert state.speed == 10.0


def test_uav_displacement_uses_post_turn_heading():
    # One step with a left bank must already bend the displacement left.
    state = uav_step(_uav(), UavControl(0.0, 0.3), ScenarioConfig(dt=1.0))
    assert state.position[1] > 0.0


def test_planned_path_is_the_flown_path_bit_for_bit():
    # The planner and the episode step through one function, so a plan's
    # path is exactly the path uav_step flies under the same controls.
    sc = ScenarioConfig()
    pairs = np.random.default_rng(3).uniform(-1.0, 1.0, (2000, 2)) * [sc.accel_max, sc.bank_max]
    # From heading 0 the last bit of a turn reaches the position.
    start = _uav(speed=25.0)
    for accel, bank in pairs.tolist():
        flown = uav_step(start, UavControl(accel, bank), sc)
        assert np.array_equal(_planned_path(start, [accel, bank], sc), [flown.position])
    state = start
    flown = []
    for accel, bank in pairs[:100].tolist():
        state = uav_step(state, UavControl(accel, bank), sc)
        flown.append(state.position)
    assert np.array_equal(_planned_path(start, pairs[:100].ravel().tolist(), sc), flown)


# -------------------------------------------------------------------- target


def test_target_advances_by_velocity_without_noise():
    rng = np.random.default_rng(0)
    out = target_step(np.array([0.0, 0.0, 1.0, 0.0]), ScenarioConfig(dt=1.0, process_intensity=0.0), rng)
    np.testing.assert_allclose(out, [1.0, 0.0, 1.0, 0.0], rtol=1e-15)


def test_target_fixed_point_with_zero_velocity_and_noise():
    rng = np.random.default_rng(0)
    state = np.array([3.0, -2.0, 0.0, 0.0])
    out = target_step(state, ScenarioConfig(dt=1.0, process_intensity=0.0), rng)
    np.testing.assert_array_equal(out, state)


_EPS = np.finfo(float).eps


@pytest.mark.parametrize("dt", [1.0, 0.1, 2.5])
def test_noiseless_target_step_is_the_transition(dt):
    # Bit for bit p + dt v on each axis; within a rounding of the 4x4
    # product F x, whose kernel may fuse the multiply-add p + dt v.
    sc = ScenarioConfig(dt=dt, process_intensity=0.0)
    state = np.array([600.0, -400.3, 5.7, -3.1])
    px, py, vx, vy = state.tolist()
    stepped = target_step(state, sc, np.random.default_rng(0))
    assert stepped.tobytes() == np.array([px + dt * vx, py + dt * vy, vx, vy]).tobytes()
    f = target_transition_matrix(dt)
    assert np.all(np.abs(stepped - f @ state) <= _EPS * (np.abs(f) @ np.abs(state)))
    assert target_step(state, dataclasses.replace(sc, dt=2.0 * dt), np.random.default_rng(0))[0] == px + 2.0 * dt * vx


def test_scenario_stores_given_arrays_as_float_tuples():
    sc = ScenarioConfig(
        uav_position=np.array([3, 4]), target_mean=np.array([1, 2, 3, 4]), target_cov=np.diag([4, 4, 1, 1]),
    )
    assert sc.uav_position == (3.0, 4.0)
    assert sc.target_mean == (1.0, 2.0, 3.0, 4.0)
    assert sc.target_cov == ((4.0, 0.0, 0.0, 0.0), (0.0, 4.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0, 1.0))
    assert all(type(value) is float for value in sc.uav_position + sc.target_mean + sum(sc.target_cov, ()))
    assert sc == ScenarioConfig(uav_position=(3.0, 4.0), target_mean=sc.target_mean, target_cov=sc.target_cov)


def test_target_sample_mean_matches_noiseless_prediction():
    rng = np.random.default_rng(7)
    state = np.array([10.0, -5.0, 2.0, 1.5])
    dt = 1.0
    intensity = 4.0
    sc = ScenarioConfig(dt=dt, process_intensity=intensity)
    draws = np.array([target_step(state, sc, rng) for _ in range(10_000)])
    predicted = target_transition_matrix(dt) @ state
    stds = np.sqrt(np.diag(target_process_cov(intensity, dt)))
    np.testing.assert_array_less(
        np.abs(draws.mean(axis=0) - predicted), 3.0 * stds / 100.0 + 1e-12
    )


def _ref_factor(pp, pv, vv):
    """The lower Cholesky factor (l_pp, l_vp, l_vv) of [[pp, pv], [pv, vv]] on floats: the per-axis reference."""
    l_pp = math.sqrt(pp)
    l_vp = pv / l_pp
    return l_pp, l_vp, math.sqrt(vv - l_vp * l_vp)


def _factor_matrix(factor):
    """The 4x4 lower factor of the (px, py, vx, vy) state whose axes each carry the per-axis ``factor``."""
    l_pp, l_vp, l_vv = factor
    return np.array([[l_pp, 0.0, 0.0, 0.0], [0.0, l_pp, 0.0, 0.0], [l_vp, 0.0, l_vv, 0.0], [0.0, l_vp, 0.0, l_vv]])


# LAPACK may scale by a reciprocal and fuse multiply-adds where the closed
# form rounds a division and each operation, so a factor entry may differ
# from LAPACK's by a few units in the last place of the terms it is formed
# from.  The process covariance's l_vv^2 = q dt / 4 cancels three quarters
# of q dt, which stays within 8 eps as well.
_FACTOR_ULPS = 8.0


def _ref_target_step(state, scenario, rng):
    """The target step on Python floats, with the closed-form factor computed per call: the per-axis reference."""
    px, py, vx, vy = (float(x) for x in state)
    dt, q = scenario.dt, target_process_cov(scenario.process_intensity, scenario.dt)
    if scenario.process_intensity == 0.0:
        (l_pp, l_vp, l_vv), z = (0.0, 0.0, 0.0), [0.0] * 4
    else:
        (l_pp, l_vp, l_vv), z = _ref_factor(q[0, 0], q[0, 2], q[2, 2]), rng.standard_normal(4).tolist()
    px, vx = px + dt * vx + l_pp * z[0], vx + (l_vp * z[0] + l_vv * z[2])
    py, vy = py + dt * vy + l_pp * z[1], vy + (l_vp * z[1] + l_vv * z[3])
    return np.array([px, py, vx, vy])


def _matrix_target_step(state, scenario, rng):
    """The target step as 4x4 products with LAPACK's Cholesky factor, and the scale of its terms."""
    f = target_transition_matrix(scenario.dt)
    if scenario.process_intensity == 0.0:
        return f @ state, np.abs(f) @ np.abs(state)
    root, z = np.linalg.cholesky(target_process_cov(scenario.process_intensity, scenario.dt)), rng.standard_normal(4)
    return f @ state + root @ z, np.abs(f) @ np.abs(state) + np.abs(root) @ np.abs(z)


@pytest.mark.parametrize("dt, intensity", [(1.0, 2.0), (0.1, 8.0), (0.37, 1e-6), (2.5, 0.0)])
def test_target_step_is_the_per_call_cholesky_step_bit_for_bit(dt, intensity):
    sc = ScenarioConfig(dt=dt, process_intensity=intensity)
    rng, ref_rng, matrix_rng = (np.random.default_rng(5) for _ in range(3))
    state = ref_state = np.array([600.0, 400.0, 5.0, -3.0])
    for _ in range(50):
        matrix_state, scale = _matrix_target_step(state, sc, matrix_rng)
        state, ref_state = target_step(state, sc, rng), _ref_target_step(ref_state, sc, ref_rng)
        assert state.tobytes() == ref_state.tobytes()
        assert np.all(np.abs(state - matrix_state) <= _FACTOR_ULPS * _EPS * scale)
    # All three draw the same normals, and at intensity 0 none.
    assert rng.bit_generator.state == ref_rng.bit_generator.state == matrix_rng.bit_generator.state
    if intensity == 0.0:
        assert rng.bit_generator.state == np.random.default_rng(5).bit_generator.state


# -------------------------------------------------------------------- sensor


def test_sensor_cov_constant_when_range_free():
    sc = ScenarioConfig(sigma0=3.0, eta=0.0)
    a = sensor_cov([0.0, 0.0], [10.0, 0.0], sc)
    b = sensor_cov([0.0, 0.0], [1000.0, 500.0], sc)
    assert type(a) is float
    assert a == b == 9.0


def test_sensor_cov_range_doubling_adds_three_eta_r_squared():
    eta = 2e-3
    r = 350.0
    sc = ScenarioConfig(sigma0=5.0, eta=eta)
    near = sensor_cov([0.0, 0.0], [r, 0.0], sc)
    far = sensor_cov([0.0, 0.0], [2.0 * r, 0.0], sc)
    assert far - near == pytest.approx(3.0 * eta * r * r, rel=1e-12)


def test_sensor_sample_covariance_matches_reported_cov():
    rng = np.random.default_rng(11)
    uav = _uav()
    target = np.array([300.0, 200.0])
    draws = np.empty((10_000, 2))
    sigma_sq = sensor_cov(uav.position, target, ScenarioConfig(sigma0=4.0, eta=1e-3))
    for i in range(draws.shape[0]):
        draws[i] = sensor_measure(target, sigma_sq, rng) - target
    sample = np.cov(draws.T)
    assert sample[0, 0] == pytest.approx(sigma_sq, rel=0.1)
    assert sample[1, 1] == pytest.approx(sigma_sq, rel=0.1)
    assert abs(sample[0, 1]) < 0.05 * sigma_sq


# -------------------------------------------------------------------- filter


def test_kalman_update_with_huge_noise_is_a_no_op():
    belief = _belief()
    out = kalman_update(belief, np.array([0.0, 0.0]), 1e12)
    np.testing.assert_allclose(out.mean, belief.mean, atol=1e-6)
    np.testing.assert_allclose(out.covariance, belief.covariance, atol=1e-6)


def test_kalman_update_with_zero_noise_pins_position():
    belief = _belief()
    z = np.array([640.0, 383.0])
    out = kalman_update(belief, z, 0.0)
    np.testing.assert_allclose(out.position, z, atol=1e-6)


def _block_cov(block):
    """The 4x4 (px, py, vx, vy) covariance whose x and y axes share the (P_pp, P_pv, P_vv) ``block``."""
    pp, pv, vv = block
    return np.array([[pp, 0.0, pv, 0.0], [0.0, pp, 0.0, pv], [pv, 0.0, vv, 0.0], [0.0, pv, 0.0, vv]])


def test_kalman_update_never_increases_trace():
    rng = np.random.default_rng(3)
    belief = _belief()
    for _ in range(50):
        root = rng.normal(size=(2, 2))
        block = root @ root.T + 0.1 * np.eye(2)
        belief = TargetBelief(belief.mean, _block_cov((block[0, 0], block[0, 1], block[1, 1])))
        noise = float(rng.uniform(0.1, 100.0))
        z = belief.position + rng.normal(size=2)
        updated = kalman_update(belief, z, noise)
        assert np.trace(updated.covariance) <= np.trace(belief.covariance) + 1e-9
        belief = updated


def test_kalman_cycle_preserves_symmetry_and_positive_definiteness():
    rng = np.random.default_rng(5)
    belief = _belief()
    for _ in range(100):
        belief = kalman_predict(belief, ScenarioConfig(dt=1.0, process_intensity=2.0))
        z = belief.position + rng.normal(scale=10.0, size=2)
        belief = kalman_update(belief, z, float(rng.uniform(1.0, 50.0)))
        cov = belief.covariance
        np.testing.assert_allclose(cov, cov.T, atol=1e-9)
        assert np.linalg.eigvalsh(cov).min() > 0.0


def test_kalman_predict_trace_is_linear_without_process_noise():
    belief = _belief()
    doubled = TargetBelief(belief.mean, 2.0 * belief.covariance)
    sc = ScenarioConfig(dt=1.0, process_intensity=0.0)
    one = np.trace(kalman_predict(belief, sc).covariance)
    two = np.trace(kalman_predict(doubled, sc).covariance)
    assert two == pytest.approx(2.0 * one, rel=1e-9)


def test_kalman_update_rejects_singular_innovation():
    belief = TargetBelief(np.zeros(4), np.diag([0.0, 0.0, 1.0, 1.0]))
    with pytest.raises(np.linalg.LinAlgError):
        kalman_update(belief, np.zeros(2), 0.0)


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


def _ref_kalman_predict(mean, cov, scenario):
    """The filter's time update as 4x4 matrix products: the reference."""
    f = target_transition_matrix(scenario.dt)
    q = target_process_cov(scenario.process_intensity, scenario.dt)
    cov = f @ cov @ f.T + q
    return f @ mean, 0.5 * (cov + cov.T)


def _ref_kalman_update(mean, cov, measurement, noise_cov):
    """The Joseph-form update as 4x4 matrix products with an inverse: the reference."""
    h = np.zeros((2, 4))
    h[0, 0] = h[1, 1] = 1.0
    gain = cov @ h.T @ np.linalg.inv(h @ cov @ h.T + noise_cov)
    mean = mean + gain @ (measurement - h @ mean)
    closed = np.eye(4) - gain @ h
    cov = closed @ cov @ closed.T + gain @ noise_cov @ gain.T
    return mean, 0.5 * (cov + cov.T)


_axis_blocks = st.tuples(
    st.floats(1e-3, 1e6), st.floats(-0.99, 0.99), st.floats(1e-3, 1e6)
).map(lambda b: (b[0], b[1] * np.sqrt(b[0] * b[2]), b[2]))
_means = st.lists(st.floats(-1e4, 1e4), min_size=4, max_size=4)


@given(
    block=_axis_blocks,
    mean=_means,
    measurement=st.lists(st.floats(-1e4, 1e4), min_size=2, max_size=2),
    dt=st.integers(-6, 4).map(lambda k: 2.0**k),
    intensity=st.just(0.0) | st.floats(1e-3, 1e3),
    noise=st.sampled_from([0.0, 1e12]) | st.floats(1e-3, 1e6),
)
@settings(max_examples=300, deadline=None)
def test_per_axis_filter_equals_the_4x4_reference_bit_for_bit(block, mean, measurement, dt, intensity, noise):
    # dt is a power of two, the study's dt = 1 among them, so dt times an
    # entry is exact.  Otherwise the reference's own bits depend on whether
    # the BLAS kernel fuses the multiply-adds of F P F' (see the next test).
    mean, cov = np.array(mean), _block_cov(block)
    sc = ScenarioConfig(dt=dt, process_intensity=intensity)
    predicted = kalman_predict(TargetBelief(mean, cov), sc)
    ref_mean, ref_cov = _ref_kalman_predict(mean, cov, sc)
    assert np.array_equal(predicted.mean, ref_mean)
    assert np.array_equal(predicted.covariance, ref_cov)
    updated = kalman_update(predicted, np.array(measurement), noise)
    ref_mean, ref_cov = _ref_kalman_update(ref_mean, ref_cov, np.array(measurement), noise * np.eye(2))
    assert np.array_equal(updated.mean, ref_mean)
    assert np.array_equal(updated.covariance, ref_cov)


@given(block=_axis_blocks, mean=_means, dt=st.floats(1e-3, 10.0), intensity=st.just(0.0) | st.floats(1e-3, 1e3))
@settings(max_examples=200, deadline=None)
def test_per_axis_predict_is_within_a_rounding_of_the_4x4_reference_at_any_dt(block, mean, dt, intensity):
    # A product that fuses pp + dt * pv rounds once where the per-axis
    # code rounds twice, so each entry may differ by a few units in the last
    # place of the largest term that entry sums.
    mean, cov = np.array(mean), _block_cov(block)
    sc = ScenarioConfig(dt=dt, process_intensity=intensity)
    predicted = kalman_predict(TargetBelief(mean, cov), sc)
    ref_mean, ref_cov = _ref_kalman_predict(mean, cov, sc)
    _, term_scale = _ref_kalman_predict(np.abs(mean), np.abs(cov), sc)
    assert np.array_equal(predicted.mean, ref_mean)
    assert np.all(np.abs(predicted.covariance - ref_cov) <= 4.0 * np.finfo(float).eps * term_scale)


def test_belief_keeps_the_mean_and_covariance_it_was_built_from():
    mean = np.array([600.0, 400.0, 5.0, -2.0])
    cov = _block_cov((900.0, 30.0, 25.0))
    belief = TargetBelief(mean, cov)
    assert np.array_equal(belief.mean, mean)
    assert np.array_equal(belief.covariance, cov)
    assert np.array_equal(belief.position, mean[:2])
    assert belief.means == ((600.0, 5.0), (400.0, -2.0))
    assert belief.block == (900.0, 30.0, 25.0)


def _unequal_block_cov():
    cov = np.diag([900.0, 100.0, 25.0, 4.0])
    cov[0, 2] = cov[2, 0] = 30.0
    return cov


def test_belief_rejects_unequal_per_axis_blocks():
    with pytest.raises(ValueError, match=r"^belief covariance must have equal x and y .* \(900\.0, 30\.0, 25\.0\)"):
        TargetBelief(np.zeros(4), _unequal_block_cov())
    # Only the velocity variance differs.
    with pytest.raises(ValueError, match="^belief covariance must have equal x and y"):
        TargetBelief(np.zeros(4), np.diag([400.0, 400.0, 16.0, 25.0]))


@pytest.mark.parametrize("variance", [-1e-12, -1.0, np.nan, np.inf, -np.inf])
def test_kalman_update_rejects_a_negative_or_non_finite_variance(variance):
    # -1e-12 would otherwise give P_pp = -1.59e-12, and -1 a message about
    # the belief covariance instead of the variance.
    with pytest.raises(ValueError, match="^variance must be finite and nonnegative"):
        kalman_update(_belief(), np.zeros(2), variance)


@pytest.mark.parametrize("measurement", [[np.nan, 0.0], [0.0, np.inf], [-np.inf, np.nan]])
def test_kalman_update_rejects_a_non_finite_measurement(measurement):
    # The per-axis update would carry it into the mean: [nan, 0, nan, 0].
    prior = TargetBelief(np.zeros(4), np.eye(4))
    with pytest.raises(ValueError, match="^measurement must be finite"):
        kalman_update(prior, measurement, 1.0)


def test_kalman_update_rejects_a_non_positive_innovation_variance():
    # P_pp + r < 0: a P_pp of -1e-10 is within the belief's PSD tolerance,
    # and a noiseless sensor adds nothing to it.
    belief = TargetBelief(np.zeros(4), np.diag([-1e-10, -1e-10, 1.0, 1.0]))
    with pytest.raises(np.linalg.LinAlgError, match="innovation variance must be positive and finite, got -1e-10"):
        kalman_update(belief, np.zeros(2), 0.0)
    # P_pp + r overflows to inf.
    huge = TargetBelief(np.zeros(4), np.diag([1e308, 1e308, 1.0, 1.0]))
    with pytest.raises(np.linalg.LinAlgError, match="got inf"):
        kalman_update(huge, np.zeros(2), 1e308)


# ---------------------------------------------------------------- objectives


def _straight(h):
    return [UavControl(0.0, 0.0)] * h


def test_objective_nbo_single_step_with_uninformative_sensor():
    # With an essentially infinite-noise sensor the single-step value is the
    # predicted trace: the update changes nothing.
    sc = ScenarioConfig(sigma0=1e9, eta=0.0)
    belief = _belief()
    value = objective_nbo(_uav(), belief, _straight(1), sc)
    predicted = np.trace(kalman_predict(belief, sc).covariance)
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
    process_raw = _frozen_draws(cfg2, np.random.default_rng(9))
    terms = planning._trace_terms(_uav(), belief, sc, process_raw)([[0.0] * 12])[0]
    single = objective_mhp(_uav(), belief, _straight(6), sc, cfg1, np.random.default_rng(9))
    assert single == terms[0]


def test_objective_mhp_deterministic_given_seed():
    sc = ScenarioConfig()
    cfg = PlannerConfig(horizon=6, n_trajectories=40, objective=PlannerObjective.RSMHP)
    belief = _belief()
    a = objective_mhp(_uav(), belief, _straight(6), sc, cfg, np.random.default_rng(4))
    b = objective_mhp(_uav(), belief, _straight(6), sc, cfg, np.random.default_rng(4))
    assert a == b


@given(
    seed=st.integers(0, 2**64 - 1),
    n_futures=st.integers(1, 12),
    horizon=st.integers(1, 8),
)
@settings(max_examples=60, deadline=None)
def test_frozen_draws_equal_one_default_rng_per_future(seed, n_futures, horizon):
    config = PlannerConfig(horizon=horizon, n_trajectories=n_futures)
    got = _frozen_draws(config, np.random.default_rng(seed))
    child_seeds = np.random.default_rng(seed).integers(np.iinfo(np.int64).max, size=n_futures)
    for future, child in zip(got, child_seeds, strict=True):
        fresh = np.random.default_rng(int(child)).standard_normal((horizon, 6))[:, :4]
        assert np.array_equal(future, fresh)


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


def test_uav_control_stores_floats_and_rejects_what_is_not_a_number():
    control = UavControl(np.float32(1.5), 2)
    assert type(control.forward_acceleration) is float and type(control.bank_angle) is float
    assert control == UavControl(1.5, 2.0)
    for bad in ("a", "1.5", True):
        with pytest.raises(TypeError, match="^forward_acceleration must be a real number"):
            UavControl(bad, 0)


def test_objectives_reject_an_empty_control_sequence():
    sc = ScenarioConfig()
    with pytest.raises(ValueError, match="empty"):
        objective_nbo(_uav(), _belief(), [], sc)
    cfg = PlannerConfig(horizon=1, n_trajectories=3, objective=PlannerObjective.RSMHP)
    with pytest.raises(ValueError, match="empty"):
        objective_mhp(_uav(), _belief(), [], sc, cfg, np.random.default_rng(0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_objectives_reject_non_finite_controls_naming_the_entry(bad):
    # A UavControl cannot hold these; any object with the two fields can.
    sc = ScenarioConfig()
    controls = _straight(4)
    controls[2] = SimpleNamespace(forward_acceleration=0.0, bank_angle=bad)
    with pytest.raises(ValueError, match="control 2 has non-finite bank_angle"):
        objective_nbo(_uav(), _belief(), controls, sc)
    controls = _straight(4)
    controls[1] = SimpleNamespace(forward_acceleration=bad, bank_angle=0.0)
    cfg = PlannerConfig(horizon=4, n_trajectories=3, objective=PlannerObjective.RSMHP)
    with pytest.raises(ValueError, match="control 1 has non-finite forward_acceleration"):
        objective_mhp(_uav(), _belief(), controls, sc, cfg, np.random.default_rng(0))


def _coupled_cov(i, j, value=1.0):
    cov = np.diag([400.0, 400.0, 16.0, 16.0])
    cov[i, j] = cov[j, i] = value
    return cov


@pytest.mark.parametrize("entry", [(0, 1), (0, 3), (1, 2), (2, 3)])
def test_planner_rejects_cross_axis_belief_covariance(entry):
    # The planner's per-axis recursion needs a per-axis belief, and no
    # TargetBelief with a cross-axis entry can be built.
    with pytest.raises(ValueError, match=rf"belief covariance .*\[{entry[0]},{entry[1]}\]"):
        TargetBelief(np.array([600.0, 400.0, 5.0, 0.0]), _coupled_cov(*entry))


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


def test_episode_streams_are_the_spawned_children_of_its_seeds(monkeypatch):
    # Initial state, process and measurement: the spawn(3) children of
    # (scenario seed, run); then the planner's (planner seed, run) stream.
    built, generators = [], simulate.generators

    def recording(seeds, keys):
        streams = list(generators(seeds, keys))
        built.extend(stream.bit_generator.state for stream in streams)
        return streams

    monkeypatch.setattr(simulate, "generators", recording)
    run_episode(_small_scenario(n_steps=1, master_seed=7), _small_planner(master_seed=11), run_index=4)
    children = np.random.SeedSequence(7, spawn_key=(4,)).spawn(3)
    expected = [*children, np.random.SeedSequence(11, spawn_key=(4,))]
    assert built == [np.random.default_rng(seq).bit_generator.state for seq in expected]


@pytest.mark.parametrize(
    "run_index, error, message",
    [(1.5, TypeError, "^run_index must be an integer"), (True, TypeError, "^run_index must be an integer"),
     (-1, ValueError, "^run_index must be >= 0"), (2**32, ValueError, "below 2\\*\\*32")],
)
def test_run_episode_rejects_a_run_index_that_is_not_one_key_word(run_index, error, message):
    # A float would otherwise be truncated to the key of another run.
    with pytest.raises(error, match=message):
        run_episode(_small_scenario(n_steps=1), _small_planner(), run_index=run_index)


def test_run_episode_names_a_run_index_past_one_key_word():
    # It failed in the seed derivation, as "spawn key ints must be below 2**32".
    with pytest.raises(ValueError, match=r"^run_index must be below 2\*\*32, got 4294967296$"):
        run_episode(_small_scenario(n_steps=1), _small_planner(), run_index=2**32)


def test_monte_carlo_runs_differ_across_run_indices():
    sc = _small_scenario(n_steps=6)
    out = [run_episode(sc, _small_planner(), run_index=i).mean() for i in range(3)]
    assert len(set(out)) == 3


def test_episode_initial_truth_is_a_dt_0_step_by_the_prior_factor(monkeypatch):
    # The first measurement sees the initial truth: the prior mean moved by
    # target_axis_step with dt 0 and target_factor, on the first four
    # normals of the initial-state stream.
    sc = _small_scenario(n_steps=1, target_cov=_block_cov((900.0, 30.0, 25.0)), master_seed=3)
    seen = []
    monkeypatch.setattr(simulate, "sensor_cov", lambda uav, target, scenario: seen.append(target) or 1.0)
    run_episode(sc, _small_planner(), run_index=2)
    init_rng = np.random.default_rng(np.random.SeedSequence(3, spawn_key=(2,)).spawn(3)[0])
    z = init_rng.standard_normal(4).tolist()
    l_pp, _, _ = sc.target_factor
    px, py, vx, vy = sc.target_mean
    assert np.array(seen[0]).tobytes() == np.array([px + 0.0 * vx + l_pp * z[0], py + 0.0 * vy + l_pp * z[1]]).tobytes()


def _blas_kernel_is_switchable() -> bool:
    """Whether ``OPENBLAS_CORETYPE=Prescott`` selects another kernel for numpy's BLAS.

    It does only for an OpenBLAS built with ``DYNAMIC_ARCH`` on x86; MKL,
    Accelerate, a single-target OpenBLAS or an ARM build ignore it.
    """
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return False
    return ("openblas" in blas.get("name", "").lower()
            and "DYNAMIC_ARCH" in blas.get("openblas configuration", "")
            and platform.machine().lower() in ("x86_64", "amd64", "i686", "x86"))


@pytest.mark.skipif(not _blas_kernel_is_switchable(),
                    reason="numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS on x86, so OPENBLAS_CORETYPE switches no kernel")
def test_tracking_csvs_do_not_depend_on_the_blas_kernel(tmp_path):
    # A four-run study with the shipped study's noise, natively and under
    # OpenBLAS's Prescott kernel, numpy's SIMD dispatch left as it is.  A
    # BLAS product on the episode path fuses multiply-adds on one kernel and
    # not on another, which moves last bits of the CSVs.
    config = Path(__file__).resolve().parent / "data" / "tracking_blas.ini"
    path = os.pathsep.join(filter(None, [str(Path(__file__).resolve().parent.parent / "src"),
                                         os.environ.get("PYTHONPATH")]))
    native = {key: value for key, value in os.environ.items() if key != "OPENBLAS_CORETYPE"}
    runs = {}
    for label, extra in (("native", {}), ("prescott", {"OPENBLAS_CORETYPE": "Prescott"})):
        runs[label] = subprocess.Popen(
            [sys.executable, "-m", "rsmhp.experiments.cli", "run", str(config), "--out", str(tmp_path / label)],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, env=dict(native, PYTHONPATH=path, **extra),
        )
    for proc in runs.values():
        _, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
    csvs = sorted(p.name for p in (tmp_path / "native").glob("*.csv"))
    assert csvs == ["cdf_nbo.csv", "cdf_nt50.csv"]
    native_bytes, prescott_bytes = ({name: (tmp_path / label / name).read_bytes() for name in csvs}
                                    for label in ("native", "prescott"))
    assert [name for name in csvs if native_bytes[name] != prescott_bytes[name]] == []


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


@pytest.mark.parametrize("position, shape", [((0.0, 0.0, 5.0), "(3,)"), ((1.0,), "(1,)"), (5.0, "()")])
def test_scenario_rejects_a_uav_position_that_is_not_a_2_vector(position, shape):
    with pytest.raises(ValueError, match=rf"^uav_position must be a 2-vector, got shape {re.escape(shape)}"):
        ScenarioConfig(uav_position=position)
    assert ScenarioConfig(uav_position=np.array([3, 4])).uav_position == (3.0, 4.0)


def test_scenario_rejects_unequal_per_axis_blocks():
    with pytest.raises(ValueError, match=r"^target_cov must have equal x and y .* \(100\.0, 0\.0, 4\.0\)"):
        ScenarioConfig(target_cov=_unequal_block_cov())


def test_scenario_rejects_target_cov_without_a_cholesky_factor():
    # The block has eigenvalues 400 and -1e-7: within the PSD tolerance
    # -1e-9 * 400, so a belief may hold it, but target_cov + 1e-12 I has no
    # Cholesky factor to draw an episode's initial target state with.
    half = 0.5e-7
    cov = _block_cov((200.0 - half, 200.0 + half, 200.0 - half))
    TargetBelief(np.zeros(4), cov)
    with pytest.raises(ValueError, match="target_cov must have a Cholesky factor"):
        ScenarioConfig(target_cov=cov)


def test_scenario_target_factor_is_the_cholesky_factor():
    cov = _block_cov((900.0, 30.0, 25.0))
    factor = ScenarioConfig(target_cov=cov).target_factor
    assert factor == _ref_factor(900.0 + 1e-12, 30.0, 25.0 + 1e-12)
    root = np.linalg.cholesky(cov + 1e-12 * np.eye(4))
    assert np.all(np.abs(_factor_matrix(factor) - root) <= _FACTOR_ULPS * _EPS * np.abs(root))


@pytest.mark.parametrize("dt, intensity", [(1.0, 2.0), (0.1, 8.0), (0.37, 1e-6), (2.5, 0.0)])
def test_scenario_derives_the_process_factor_and_block(dt, intensity):
    sc = ScenarioConfig(dt=dt, process_intensity=intensity)
    q = target_process_cov(intensity, dt)
    assert sc.process_block == (q[0, 0], q[0, 2], q[2, 2])
    assert sc.process_factor == (_ref_factor(*sc.process_block) if intensity > 0.0 else (0.0, 0.0, 0.0))
    assert all(type(entry) is float for entry in sc.process_block + sc.process_factor)
    root = np.linalg.cholesky(q) if intensity > 0.0 else np.zeros((4, 4))
    assert np.all(np.abs(_factor_matrix(sc.process_factor) - root) <= _FACTOR_ULPS * _EPS * np.abs(root))
    assert dataclasses.replace(sc, eta=0.0).process_block == sc.process_block


# Blocks within the PSD tolerance 1e-9 of singular, near the 1e-12 added to
# the prior's variances, and subnormal; intensities down to the least subnormal.
_tiny = st.floats(-1e-9, 1e-9) | st.sampled_from([-1e-12, -1e-12 + 1e-28, 0.0, 5e-324, 1e-310])


@given(block=st.tuples(_tiny, _tiny, _tiny), intensity=st.floats(0.0, 1e-280), dt=st.floats(1e-3, 10.0))
@settings(max_examples=300, deadline=None)
def test_scenario_factors_near_underflow_are_rejected_by_name(block, intensity, dt):
    # The closed-form factor divides by l_pp and takes the square root of
    # vv - l_vp^2: a pivot that underflows to 0 or goes negative must be
    # rejected naming its field, never raise ZeroDivisionError or
    # "math domain error".
    try:
        sc = ScenarioConfig(dt=dt, process_intensity=intensity, target_cov=_block_cov(block))
    except ValueError as exc:
        assert str(exc).startswith(("target_cov must", "process_intensity ")), str(exc)
        return
    for factor in (sc.target_factor,) + ((sc.process_factor,) if intensity > 0.0 else ()):
        assert all(math.isfinite(entry) for entry in factor)
        assert factor[0] > 0.0 and factor[2] > 0.0


def test_scenario_rejects_a_process_intensity_too_small_to_factor():
    with pytest.raises(ValueError, match="process_intensity 5e-324"):
        ScenarioConfig(process_intensity=5e-324)


def test_scenario_rejects_a_noiseless_sensor_on_a_noiseless_target():
    with pytest.raises(ValueError, match="sigma0, eta and process_intensity are all 0"):
        ScenarioConfig(sigma0=0.0, eta=0.0, process_intensity=0.0)
    for field in ("sigma0", "eta", "process_intensity"):
        ScenarioConfig(**{name: 0.0 for name in ("sigma0", "eta", "process_intensity") if name != field})


def test_scenarios_compare_by_value():
    assert ScenarioConfig() == ScenarioConfig()
    assert ScenarioConfig(target_cov=np.diag([400.0, 400.0, 16.0, 16.0])) == ScenarioConfig()
    assert ScenarioConfig(target_cov=np.diag([400.0, 400.0, 25.0, 25.0])) != ScenarioConfig()
    assert ScenarioConfig(target_mean=np.array([600.0, 400.0, 5.0, 1.0])) != ScenarioConfig()
    assert ScenarioConfig(eta=1e-3) != ScenarioConfig()


def test_scenarios_hash_by_value():
    cov = np.diag([400.0, 400.0, 25.0, 25.0])
    assert hash(ScenarioConfig()) == hash(ScenarioConfig(target_cov=np.diag([400.0, 400.0, 16.0, 16.0])))
    assert hash(ScenarioConfig(target_cov=cov)) == hash(ScenarioConfig(target_cov=cov.copy()))
    table = {ScenarioConfig(): "default", ScenarioConfig(target_cov=cov): "wide"}
    assert table[ScenarioConfig()] == "default" and table[ScenarioConfig(target_cov=cov)] == "wide"
    assert ScenarioConfig(target_cov=cov) != ScenarioConfig() and len(table) == 2


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


def _sampler_config(**fields):
    return SamplerConfig(branch_factor=3, **fields)


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
        (PlannerConfig, "master_seed", 2**64, ValueError),
        (ScenarioConfig, "n_steps", 2.5, TypeError),
        (ScenarioConfig, "n_steps", False, TypeError),
        (ScenarioConfig, "master_seed", "3", TypeError),
        (ScenarioConfig, "master_seed", -1, ValueError),
        (ScenarioConfig, "master_seed", 2**64, ValueError),
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
        (_sampler_config, "master_seed", 2**64, ValueError),
        (_sampler_config, "master_seed", 2**70, ValueError),
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
