"""Tracking case study: a planar vehicle steers to keep a moving target well localized."""
from .dynamics import (
    GRAVITY,
    UavControl,
    UavState,
    measurement_matrix,
    sensor_cov,
    sensor_measure,
    target_process_cov,
    target_step,
    target_transition_matrix,
    uav_step,
)
from .filtering import TargetBelief, kalman_predict, kalman_update
from .planning import (
    PlannerConfig,
    PlannerObjective,
    objective_mhp,
    objective_nbo,
    plan_step,
    scenario_objective_terms,
)
from .scenario import ScenarioConfig
from .simulate import run_episode

__all__ = [
    "GRAVITY",
    "UavControl",
    "UavState",
    "measurement_matrix",
    "sensor_cov",
    "sensor_measure",
    "target_process_cov",
    "target_step",
    "target_transition_matrix",
    "uav_step",
    "TargetBelief",
    "kalman_predict",
    "kalman_update",
    "PlannerConfig",
    "PlannerObjective",
    "objective_mhp",
    "objective_nbo",
    "plan_step",
    "scenario_objective_terms",
    "ScenarioConfig",
    "run_episode",
]
