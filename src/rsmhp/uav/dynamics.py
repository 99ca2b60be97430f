"""Vehicle, target, and sensor models for the tracking case study.

A fixed-wing style vehicle moves in the plane under forward acceleration
and bank angle (coordinated turn: heading rate g tan(bank) / speed).  The
tracked object follows a near-constant-velocity model with white
acceleration noise, the same on each axis.  An onboard position sensor
reports the target with isotropic noise whose variance grows with the
vehicle-to-target range, which is what couples vehicle motion to tracking
quality; ``sensor_cov`` returns that one per-axis variance.  A
``UavState`` holds Python floats, so states compare and hash by value.

The step functions read every world parameter (time step, speed bounds,
noise levels) from the episode's ``ScenarioConfig``, which validates them
once and derives the transition matrix and the process covariance's
factor from them; none has a default of its own.  Gravity is the
constant ``GRAVITY``, read as the class attribute ``ScenarioConfig.gravity``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .._checks import check_real, check_vector

if TYPE_CHECKING:
    from .scenario import ScenarioConfig

__all__ = [
    "GRAVITY", "UavState", "UavControl", "uav_step", "uav_step_floats", "target_transition_matrix",
    "target_process_cov", "target_step", "sensor_cov", "sensor_measure",
]

GRAVITY = 9.81


@dataclass(frozen=True)
class UavState:
    """Planar vehicle state: position (m), heading (rad), speed (m/s), all finite reals other than bools.

    ``position`` is stored as an (x, y) pair of floats; any 2-vector, an array too, may be given.
    """

    position: tuple
    heading: float
    speed: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "position", check_vector("position", self.position, 2))
        for name in ("heading", "speed"):
            object.__setattr__(self, name, check_real(name, getattr(self, name)))


@dataclass(frozen=True)
class UavControl:
    """Forward acceleration (m/s^2) and bank angle (rad): finite reals other than bools, stored as floats."""

    forward_acceleration: float
    bank_angle: float

    def __post_init__(self) -> None:
        for name in ("forward_acceleration", "bank_angle"):
            object.__setattr__(self, name, check_real(name, getattr(self, name)))


def uav_step_floats(x, y, heading, speed, accel, bank, scenario: ScenarioConfig) -> tuple:
    """One vehicle step on Python floats: ``(x, y, heading, speed)`` after it.

    Speed integrates the acceleration and is clamped to [v_min, v_max].
    Heading integrates the coordinated-turn rate gravity*tan(bank)/speed at
    the new speed, and the displacement uses the new heading, so a one-step
    plan already feels the turn.  The episode and the planner both step
    through here, with ``math``'s functions rather than numpy's
    CPU-dispatched kernels, so a planned path is the flown one bit for bit.
    """
    dt = scenario.dt
    speed = min(max(speed + accel * dt, scenario.v_min), scenario.v_max)
    heading = heading + scenario.gravity * math.tan(bank) / speed * dt
    return x + speed * math.cos(heading) * dt, y + speed * math.sin(heading) * dt, heading, speed


def uav_step(state: UavState, control: UavControl, scenario: ScenarioConfig) -> UavState:
    """Advance the vehicle one step (deterministic kinematics, ``uav_step_floats``)."""
    x, y = state.position
    x, y, heading, speed = uav_step_floats(
        x, y, state.heading, state.speed, control.forward_acceleration, control.bank_angle, scenario
    )
    return UavState(position=(x, y), heading=heading, speed=speed)


def target_transition_matrix(dt: float) -> np.ndarray:
    """Constant-velocity transition for the (px, py, vx, vy) state."""
    f = np.eye(4)
    f[0, 2] = dt
    f[1, 3] = dt
    return f


def target_process_cov(intensity: float, dt: float) -> np.ndarray:
    """White-acceleration process covariance for the constant-velocity model.

    ``intensity`` is the acceleration power spectral density q; the familiar
    block form has position variance q dt^3/3, velocity variance q dt and
    cross term q dt^2/2 per axis.
    """
    q3 = intensity * dt**3 / 3.0
    q2 = intensity * dt**2 / 2.0
    q1 = intensity * dt
    return np.array(
        [
            [q3, 0.0, q2, 0.0],
            [0.0, q3, 0.0, q2],
            [q2, 0.0, q1, 0.0],
            [0.0, q2, 0.0, q1],
        ]
    )


def target_step(state, scenario: ScenarioConfig, rng: np.random.Generator):
    """Advance the true target state: ``scenario.target_transition`` times it, plus noise scaled by ``process_root``.

    At ``process_intensity`` 0 the step is the noiseless prediction and draws nothing.
    """
    mean = scenario.target_transition @ np.asarray(state, dtype=float)
    if scenario.process_intensity == 0.0:
        return mean
    return mean + scenario.process_root @ rng.standard_normal(4)


def sensor_cov(uav_position, target_position, scenario: ScenarioConfig) -> float:
    """Per-axis measurement noise variance sigma0^2 + eta * range^2; the covariance is that times I."""
    delta = np.asarray(target_position, dtype=float) - np.asarray(uav_position, dtype=float)
    range_sq = float(delta @ delta)
    return scenario.sigma0**2 + scenario.eta * range_sq


def sensor_measure(target_position, variance: float, rng: np.random.Generator) -> np.ndarray:
    """Noisy target position under isotropic noise of per-axis ``variance``.

    ``variance`` is a ``sensor_cov`` result; two standard normals from
    ``rng`` are scaled by its square root, so the same draws serve any
    geometry.
    """
    return np.asarray(target_position, dtype=float) + math.sqrt(variance) * rng.standard_normal(2)
