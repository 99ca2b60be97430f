"""The planner objective against a full 4x4 filter rollout kept here as reference.

The reference pushes every sampled future through the complete Kalman
filter: sampled truths, simulated measurements, mean updates and Joseph-form
4x4 covariance updates.  The planner's objective keeps only the per-axis
covariance recursion that reaches the value, so both must agree to
rounding on every future.  A one-future objective is scored on Python
floats, and that kernel must equal the numpy one bit for bit.
"""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
from rsmhp.uav import planning

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


@pytest.mark.parametrize("sc", SCENARIOS)
def test_one_future_terms_are_a_one_element_array(sc):
    cfg = PlannerConfig(horizon=HORIZON, n_trajectories=1, objective=PlannerObjective.RSMHP)
    uav, belief = _unequal_belief()
    controls = _controls(_random_pairs(sc, np.random.default_rng(8)))
    terms = scenario_objective_terms(uav, belief, controls, sc, cfg, np.random.default_rng(9))
    assert isinstance(terms, np.ndarray) and terms.shape == (1,)
    assert terms[0] == objective_mhp(uav, belief, controls, sc, cfg, np.random.default_rng(9))


# Per-axis (p, v, P_pp, P_pv, P_vv): variances 1e-3 to 1e6, correlation up to +-0.99.
_axes = st.tuples(
    st.floats(-1e4, 1e4), st.floats(-50.0, 50.0),
    st.floats(1e-3, 1e6), st.floats(-0.99, 0.99), st.floats(1e-3, 1e6),
).map(lambda a: (a[0], a[1], a[2], a[3] * math.sqrt(a[2] * a[4]), a[4]))


@given(
    x_axis=_axes,
    y_axis=_axes,
    dt=st.floats(1e-3, 10.0),
    eta=st.just(0.0) | st.floats(1e-6, 1.0),
    sigma0=st.floats(0.0, 10.0),
    intensity=st.just(0.0) | st.floats(1e-3, 1e3),
    horizon=st.integers(1, 8),
    # Controls up to twice the actuator box: inside and outside it.
    reach=st.sampled_from([1.0, 2.0]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=300, deadline=None)
def test_one_future_float_kernel_equals_the_numpy_kernel(
    x_axis, y_axis, dt, eta, sigma0, intensity, horizon, reach, seed
):
    # A scenario rejects a noiseless sensor on a noiseless target.
    assume(sigma0 > 0.0 or eta > 0.0 or intensity > 0.0)
    sc = ScenarioConfig(dt=dt, eta=eta, sigma0=sigma0, process_intensity=intensity)
    belief = TargetBelief.from_axes(x_axis, y_axis)
    uav = UavState(position=np.array([150.0, -80.0]), heading=1.0, speed=22.0)
    rng = np.random.default_rng(seed)
    process_raw = rng.standard_normal((1, horizon, 4))
    flat = (rng.uniform(-reach, reach, (horizon, 2)) * [sc.accel_max, sc.bank_max]).ravel().tolist()
    # Extreme inputs can overflow to inf or NaN, where both kernels must
    # give the same non-finite value.
    with np.errstate(invalid="ignore", divide="ignore"):
        (value,) = planning._trace_objective(uav, belief, sc, process_raw)([flat])
        expected = planning._trace_terms(uav, belief, sc, process_raw)([flat])[0, 0]
    assert type(value) is float
    assert value == expected or (math.isnan(value) and math.isnan(expected))


def test_one_future_float_kernel_matches_numpy_at_zero_innovation_variance():
    # No prior or process noise, no sensor floor, and a vehicle flying
    # straight over a target moving at its speed: the range is 0, so r is 0,
    # P_pp + r is 0 and numpy's kernel divides 0 by 0; the float kernel must
    # give its NaN rather than raise.
    sc = ScenarioConfig(sigma0=0.0, process_intensity=0.0)
    belief = TargetBelief(np.array([600.0, 400.0, 10.0, 0.0]), np.zeros((4, 4)))
    uav = UavState(position=np.array([600.0, 400.0]), heading=0.0, speed=10.0)
    process_raw = np.zeros((1, 3, 4))
    flat = [0.0, 0.0] * 3
    targets = planning._target_paths(belief, sc, process_raw)[:, :, 0].T
    assert np.array_equal(planning._planned_path(uav, flat, sc), targets)
    with np.errstate(invalid="ignore", divide="ignore"):
        expected = planning._trace_terms(uav, belief, sc, process_raw)([flat])[0, 0]
        (value,) = planning._trace_objective(uav, belief, sc, process_raw)([flat])
    assert np.isnan(expected) and np.isnan(value)


# ------------------------------------------------------------ batched scoring


def _per_axis_totals(uav, belief, sc, process_raw, flat):
    """Per-future totals of both axes' recursions, each run in full on floats, (n,)."""
    targets = planning._target_paths(belief, sc, process_raw)
    path = planning._planned_path(uav, flat, sc)
    noise_vars = sc.sigma0**2 + sc.eta * np.square(targets - path.T[:, :, None]).sum(axis=0)
    q = target_process_cov(sc.process_intensity, sc.dt)
    totals = []
    for r_future in noise_vars.T.tolist():
        axis_totals = []
        for _, _, pp, pv, vv in belief.axes:
            acc_pp = acc_vv = 0.0
            for r in r_future:
                pp, pv = pp + sc.dt * pv, pv + sc.dt * vv
                pp, pv, vv = pp + sc.dt * pv + q[0, 0], pv + q[0, 2], vv + q[2, 2]
                s = pp + r
                vv -= pv / s * pv
                pp, pv = pp * (r / s), pv * (r / s)
                acc_pp += pp
                acc_vv += vv
            axis_totals.append(acc_pp + acc_vv)
        totals.append(axis_totals[0] + axis_totals[1])
    return np.array(totals)


# Per-axis (P_pp, P_pv, P_vv) blocks: a shared one, one with its P_pv's sign
# of zero flipped on the other axis, or two independent ones.
_zero_pv = st.tuples(st.floats(1e-3, 1e6), st.floats(1e-3, 1e6)).map(lambda b: (b[0], 0.0, b[1]))
_block = st.tuples(st.floats(1e-3, 1e6), st.floats(-0.99, 0.99), st.floats(1e-3, 1e6)).map(
    lambda b: (b[0], b[1] * math.sqrt(b[0] * b[2]), b[2])
)
_block_pairs = (
    _block.map(lambda b: (b, b))
    | _zero_pv.map(lambda b: (b, (b[0], -0.0, b[2])))
    | _zero_pv.map(lambda b: ((b[0], -0.0, b[2]), b))
    | st.tuples(_block, _block)
)


@given(
    blocks=_block_pairs,
    n=st.sampled_from([1, 2, 5, 50]),
    k=st.integers(1, 14),
    sc=st.sampled_from(SCENARIOS),
    horizon=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_batched_scores_equal_each_candidates_own_score(blocks, n, k, sc, horizon, seed):
    x_block, y_block = blocks
    belief = TargetBelief.from_axes((500.0, -3.0) + x_block, (250.0, 6.0) + y_block)
    uav = UavState(position=np.array([150.0, -80.0]), heading=1.0, speed=22.0)
    rng = np.random.default_rng(seed)
    process_raw = rng.standard_normal((n, horizon, 4))
    candidates = (rng.uniform(-1.0, 1.0, (k, horizon, 2)) * [sc.accel_max, sc.bank_max]).reshape(k, -1).tolist()
    terms = planning._trace_terms(uav, belief, sc, process_raw)
    batched = terms(candidates)
    assert batched.shape == (k, n)
    score = planning._trace_objective(uav, belief, sc, process_raw)
    scores = score(candidates)
    assert len(scores) == k and all(type(value) is float for value in scores)
    for flat, row, value in zip(candidates, batched, scores):
        assert row.tobytes() == terms([flat])[0].tobytes()
        assert row.tobytes() == _per_axis_totals(uav, belief, sc, process_raw, flat).tobytes()
        assert value == score([flat])[0] == planning._future_mean(row)


@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 16, 17, 50, 127, 128, 129, 250, 1000])
def test_row_future_means_equal_each_rows_future_mean(n):
    rng = np.random.default_rng(n)
    terms = np.concatenate([
        rng.uniform(50.0, 5000.0, (3, n)),
        np.exp(rng.uniform(-30.0, 30.0, (3, n))),
        np.full((1, n), 1234.5678),
    ])
    means = planning._future_means(terms)
    assert means.shape == (terms.shape[0],)
    assert [float(m) for m in means] == [planning._future_mean(row) for row in terms]
    assert means[-1] == 1234.5678
