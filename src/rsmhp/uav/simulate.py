"""Closed-loop tracking episodes and the replicated study over them.

Every stream of randomness is derived from (master seed, run index), and
planner randomness is derived separately from the planner seed, so two
studies with different planners but the same scenario seed face identical
target paths and identical raw measurement noise (common random numbers).
The per-step measurement noise is stored as standard normals and scaled by
the geometry-dependent standard deviation at use time, which is what makes
the pairing exact even though planners steer different vehicle paths.
Episodes are independent given their run index, which is what lets the
experiment runner fan them out over worker processes.
"""
from __future__ import annotations

import numpy as np

from .dynamics import UavState, sensor_cov, target_step, uav_step
from .filtering import TargetBelief, kalman_predict, kalman_update
from .planning import PlannerConfig, plan_step
from .scenario import ScenarioConfig

__all__ = ["run_episode", "run_monte_carlo"]


def _episode_streams(scenario: ScenarioConfig, run_index: int):
    root = np.random.SeedSequence(scenario.master_seed, spawn_key=(run_index,))
    init_seed, process_seed, meas_seed = root.spawn(3)
    return (
        np.random.default_rng(init_seed),
        np.random.default_rng(process_seed),
        np.random.default_rng(meas_seed),
    )


def run_episode(
    scenario: ScenarioConfig, config: PlannerConfig, run_index: int = 0
) -> np.ndarray:
    """One closed-loop episode; returns the per-step position error trace.

    Step cycle: measure the target from the current vehicle position,
    update the belief, record the error between the belief mean position
    and the true position, plan, move the vehicle, move the target, predict
    the belief forward.
    """
    init_rng, process_rng, meas_rng = _episode_streams(scenario, run_index)
    planner_rng = np.random.default_rng(
        np.random.SeedSequence(config.master_seed, spawn_key=(run_index,))
    )

    belief = TargetBelief(scenario.target_mean, scenario.target_cov)
    root = np.linalg.cholesky(
        scenario.target_cov + 1e-12 * np.eye(4)
    )
    truth = scenario.target_mean + root @ init_rng.standard_normal(4)
    uav = UavState(
        position=np.asarray(scenario.uav_position, dtype=float),
        heading=scenario.uav_heading,
        speed=scenario.uav_speed,
    )

    errors = np.empty(scenario.n_steps)
    for step in range(scenario.n_steps):
        cov = sensor_cov(uav.position, truth[:2], scenario.sigma0, scenario.eta)
        std = np.sqrt(cov[0, 0])
        measurement = truth[:2] + std * meas_rng.standard_normal(2)
        belief = kalman_update(belief, measurement, cov)
        errors[step] = float(np.hypot(*(belief.position - truth[:2])))
        control = plan_step(uav, belief, scenario, config, planner_rng)
        uav = uav_step(
            uav,
            control,
            scenario.dt,
            v_min=scenario.v_min,
            v_max=scenario.v_max,
            gravity=scenario.gravity,
        )
        truth = target_step(
            truth, scenario.dt, process_rng, intensity=scenario.process_intensity
        )
        belief = kalman_predict(belief, scenario.dt, intensity=scenario.process_intensity)
    return errors


def run_monte_carlo(
    scenario: ScenarioConfig, config: PlannerConfig, n_runs: int
) -> np.ndarray:
    """Replicated episodes; returns the per-run time-averaged position errors."""
    if n_runs < 1:
        raise ValueError(f"n_runs must be >= 1, got {n_runs}")
    return np.array(
        [float(run_episode(scenario, config, i).mean()) for i in range(n_runs)]
    )
