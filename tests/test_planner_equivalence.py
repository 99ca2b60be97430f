"""The planner objective against a full 4x4 filter rollout kept here as reference.

The reference pushes every sampled future through the complete Kalman
filter: sampled truths, simulated measurements, mean updates and Joseph-form
4x4 covariance updates.  The planner's objective keeps only the per-axis
covariance recursion that reaches the value, so both must agree to
rounding on every future.
"""
from __future__ import annotations

import numpy as np
import pytest

from rsmhp.uav import (
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
    scenario_objective_terms,
    sensor_cov,
    target_process_cov,
    target_step,
    target_transition_matrix,
    uav_step,
)

RTOL = 1e-12
HORIZON = 6


# ----------------------------------------------------------------- reference


def _ref_path(uav, pairs, sc):
    x, y = float(uav.position[0]), float(uav.position[1])
    heading, speed = uav.heading, uav.speed
    path = np.empty((pairs.shape[0], 2))
    for k, (accel, bank) in enumerate(pairs):
        speed = min(max(speed + accel * sc.dt, sc.v_min), sc.v_max)
        heading = heading + sc.gravity * np.tan(bank) / speed * sc.dt
        x += speed * np.cos(heading) * sc.dt
        y += speed * np.sin(heading) * sc.dt
        path[k] = x, y
    return path


def _ref_joseph_update(covs, noise_vars):
    s00 = covs[:, 0, 0] + noise_vars
    s01 = covs[:, 0, 1]
    s11 = covs[:, 1, 1] + noise_vars
    det = s00 * s11 - s01 * s01
    inv = np.empty(covs.shape[:1] + (2, 2))
    inv[:, 0, 0] = s11 / det
    inv[:, 0, 1] = -s01 / det
    inv[:, 1, 0] = inv[:, 0, 1]
    inv[:, 1, 1] = s00 / det
    gain = covs[:, :, :2] @ inv
    closed = np.broadcast_to(np.eye(4), covs.shape).copy()
    closed[:, :, :2] -= gain
    covs = closed @ covs @ closed.swapaxes(-1, -2)
    covs = covs + (gain * noise_vars[:, None, None]) @ gain.swapaxes(-1, -2)
    return gain, 0.5 * (covs + covs.swapaxes(-1, -2))


def _ref_draws(n, horizon, rng):
    seeds = rng.integers(np.iinfo(np.int64).max, size=n)
    blocks = np.array([np.random.default_rng(int(s)).standard_normal((horizon, 6)) for s in seeds])
    return blocks[:, :, :4], blocks[:, :, 4:]


def _ref_totals(uav, belief, pairs, sc, process_raw, meas_raw):
    """Per-future trace totals of the full filter rollout, (n,)."""
    n, horizon, _ = process_raw.shape
    f = target_transition_matrix(sc.dt)
    q = target_process_cov(sc.process_intensity, sc.dt)
    q_root = np.linalg.cholesky(q) if sc.process_intensity > 0.0 else np.zeros((4, 4))
    path = _ref_path(uav, pairs, sc)
    truths = np.broadcast_to(belief.mean, (n, 4)).copy()
    means = truths.copy()
    covs = np.broadcast_to(belief.covariance, (n, 4, 4)).copy()
    totals = np.zeros(n)
    for k in range(horizon):
        truths = truths @ f.T + process_raw[:, k] @ q_root.T
        means, covs = means @ f.T, f @ covs @ f.T + q
        delta = truths[:, :2] - path[k]
        noise_vars = sc.sigma0**2 + sc.eta * (delta[:, 0] ** 2 + delta[:, 1] ** 2)
        measurements = truths[:, :2] + np.sqrt(noise_vars)[:, None] * meas_raw[:, k]
        gain, covs = _ref_joseph_update(covs, noise_vars)
        means = means + (gain @ (measurements - means[:, :2])[:, :, None])[:, :, 0]
        totals += np.einsum("nii->n", covs)
    return totals


# ------------------------------------------------------------------- inputs


def _walk_beliefs(sc, steps=(0, 3, 12, 30)):
    """Beliefs of a closed-loop filter walk with a vehicle circling the origin."""
    rng = np.random.default_rng(17)
    belief = TargetBelief(sc.target_mean, sc.target_cov)
    truth = np.array(sc.target_mean, dtype=float)
    uav = UavState(position=np.zeros(2), heading=0.0, speed=30.0)
    out = []
    for step in range(max(steps) + 1):
        cov = sensor_cov(uav.position, truth[:2], sc)
        measurement = truth[:2] + np.sqrt(cov[0, 0]) * rng.standard_normal(2)
        belief = kalman_update(belief, measurement, cov)
        if step in steps:
            out.append((uav, belief))
        uav = uav_step(uav, UavControl(1.0, 0.3), sc)
        truth = target_step(truth, sc, rng)
        belief = kalman_predict(belief, sc)
    return out


def _unequal_belief():
    cov = np.diag([900.0, 100.0, 25.0, 4.0])
    cov[0, 2] = cov[2, 0] = 30.0
    cov[1, 3] = cov[3, 1] = -5.0
    uav = UavState(position=np.array([150.0, -80.0]), heading=1.0, speed=22.0)
    return uav, TargetBelief(np.array([500.0, 250.0, -3.0, 6.0]), cov)


def _cases(sc):
    return _walk_beliefs(sc) + [_unequal_belief()]


def _random_pairs(sc, rng):
    return rng.uniform(-1.0, 1.0, (HORIZON, 2)) * [sc.accel_max, sc.bank_max]


def _controls(pairs):
    return [UavControl(float(a), float(b)) for a, b in pairs]


# -------------------------------------------------------------------- tests


SCENARIOS = [ScenarioConfig(), ScenarioConfig(process_intensity=8.0, sigma0=2.0, eta=1e-2)]


@pytest.mark.parametrize("sc", SCENARIOS)
def test_objective_nbo_matches_full_filter_rollout(sc):
    rng = np.random.default_rng(3)
    zeros = np.zeros((1, HORIZON, 4))
    zeros_meas = np.zeros((1, HORIZON, 2))
    for uav, belief in _cases(sc):
        for _ in range(3):
            pairs = _random_pairs(sc, rng)
            expected = _ref_totals(uav, belief, pairs, sc, zeros, zeros_meas)[0]
            assert objective_nbo(uav, belief, _controls(pairs), sc) == pytest.approx(expected, rel=RTOL)


@pytest.mark.parametrize("sc", SCENARIOS)
@pytest.mark.parametrize("n", [1, 2, 50, 250])
def test_sampled_terms_match_full_filter_rollout(sc, n):
    rng = np.random.default_rng(n)
    cfg = PlannerConfig(horizon=HORIZON, n_trajectories=n, objective=PlannerObjective.RSMHP)
    for case, (uav, belief) in enumerate(_cases(sc)):
        pairs = _random_pairs(sc, rng)
        seed = 100 * n + case
        terms = scenario_objective_terms(
            uav, belief, _controls(pairs), sc, cfg, np.random.default_rng(seed)
        )
        process_raw, meas_raw = _ref_draws(n, HORIZON, np.random.default_rng(seed))
        expected = _ref_totals(uav, belief, pairs, sc, process_raw, meas_raw)
        np.testing.assert_allclose(terms, expected, rtol=RTOL, atol=0.0)


@pytest.mark.parametrize("n", [1, 2, 50, 250])
def test_objective_mhp_equals_nbo_exactly_without_range_dependence(n):
    sc = ScenarioConfig(eta=0.0)
    cfg = PlannerConfig(horizon=HORIZON, n_trajectories=n, objective=PlannerObjective.RSMHP)
    rng = np.random.default_rng(11)
    for uav, belief in _cases(sc):
        controls = _controls(_random_pairs(sc, rng))
        sampled = objective_mhp(uav, belief, controls, sc, cfg, np.random.default_rng(n))
        assert sampled == objective_nbo(uav, belief, controls, sc)
