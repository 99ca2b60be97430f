"""Closed-loop tracking episodes.

Every stream of randomness is derived from (master seed, run index), and
planner randomness is derived separately from the planner seed, all by
``_seeds.generators``, so two studies with different planners but the same
scenario seed face identical target paths and identical raw measurement
noise (common random numbers).
Each step's measurement is two standard normals from the measurement
stream, which ``sensor_measure`` scales by the square root of the
geometry-dependent per-axis variance ``sensor_cov``, so the pairing is
exact even though planners steer different vehicle paths.  The initial
truth and every target step are ``target_axis_step``, the step the
planner samples its futures with.  Every step function reads its
parameters from the one ``ScenarioConfig``.  Episodes are independent
given their run index, which is what lets the experiment runner fan them
out over worker processes.
"""
from __future__ import annotations

import numpy as np

from .._checks import check_int
from .._seeds import generators
from .dynamics import UavState, sensor_cov, sensor_measure, target_axis_step, target_step, uav_step
from .filtering import TargetBelief, kalman_predict, kalman_update
from .planning import PlannerConfig, plan_step
from .scenario import ScenarioConfig

__all__ = ["run_episode"]


def run_episode(
    scenario: ScenarioConfig, config: PlannerConfig, run_index: int = 0
) -> np.ndarray:
    """One closed-loop episode; returns the per-step position error trace.

    Step cycle: measure the target from the current vehicle position,
    update the belief, record the error between the belief mean position
    and the true position, plan, move the vehicle, move the target, predict
    the belief forward.  The initial-state, process and measurement streams
    are the ``spawn(3)`` children of (scenario seed, ``run_index``), in that
    order; ``run_index`` is one spawn-key word, an integer in [0, 2^32).
    """
    check_int("run_index", run_index, 0)
    if run_index >= 2**32:
        raise ValueError(f"run_index must be below 2**32, got {run_index}")
    init_rng, process_rng, meas_rng = generators(scenario.master_seed, [(run_index, i) for i in range(3)])
    (planner_rng,) = generators(config.master_seed, (run_index,))

    belief = TargetBelief(scenario.target_mean, scenario.target_cov)
    # The initial truth: a step of dt 0 from the prior mean, by the prior's factor.
    mean, z = np.array(scenario.target_mean), init_rng.standard_normal(4)
    truth = np.concatenate(target_axis_step(mean[:2], mean[2:], z[:2], z[2:], 0.0, scenario.target_factor))
    uav = UavState(position=scenario.uav_position, heading=scenario.uav_heading, speed=scenario.uav_speed)

    errors = np.empty(scenario.n_steps)
    for step in range(scenario.n_steps):
        variance = sensor_cov(uav.position, truth[:2], scenario)
        belief = kalman_update(belief, sensor_measure(truth[:2], variance, meas_rng), variance)
        errors[step] = float(np.hypot(*(belief.position - truth[:2])))
        control = plan_step(uav, belief, scenario, config, planner_rng)
        uav = uav_step(uav, control, scenario)
        truth = target_step(truth, scenario, process_rng)
        belief = kalman_predict(belief, scenario)
    return errors
