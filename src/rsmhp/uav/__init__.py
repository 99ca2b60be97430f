"""Tracking case study: a planar vehicle steers to keep a moving target well localized."""
from .dynamics import (
    GRAVITY, UavControl, UavState, sensor_cov, sensor_measure, target_axis_step, target_step, uav_step,
)
from .filtering import TargetBelief, kalman_predict, kalman_update
from .planning import (
    PlannerConfig, PlannerObjective, objective_mhp, objective_nbo, plan_step,
)
from .scenario import ScenarioConfig
from .simulate import run_episode

__all__ = [
    "GRAVITY", "UavControl", "UavState", "sensor_cov", "sensor_measure", "target_axis_step", "target_step",
    "uav_step",
    "TargetBelief", "kalman_predict", "kalman_update",
    "PlannerConfig", "PlannerObjective", "objective_mhp", "objective_nbo", "plan_step",
    "ScenarioConfig",
    "run_episode",
]
