"""Vehicle, target, and sensor models for the tracking case study.

A fixed-wing style vehicle moves in the plane under forward acceleration
and bank angle (coordinated turn: heading rate g tan(bank) / speed).  The
tracked object follows a near-constant-velocity model with white
acceleration noise, the same on each axis and independent between them,
so one per-axis step, ``target_axis_step``, moves the flown truth
(``target_step``), draws the episode's initial truth and samples the
planner's futures.  An onboard position sensor
reports the target with isotropic noise whose variance grows with the
vehicle-to-target range, which is what couples vehicle motion to tracking
quality; ``sensor_cov`` returns that one per-axis variance.  A
``UavState`` holds Python floats, so states compare and hash by value.
No step uses a matrix product, so no BLAS kernel can change a bit.

The step functions read every world parameter (time step, speed bounds,
noise levels) from the episode's ``ScenarioConfig``, which validates them
once and derives the per-axis noise factors from them; none has a default
of its own.  Gravity is the constant ``GRAVITY``, read as the class
attribute ``ScenarioConfig.gravity``.
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
    "GRAVITY", "UavState", "UavControl", "uav_step", "uav_step_floats", "target_axis_step", "target_step",
    "sensor_cov", "sensor_measure",
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


def target_axis_step(p, v, z_p, z_v, dt: float, factor: tuple) -> tuple:
    """The constant-velocity target's step on each axis: ``(p', v')`` after ``dt``.

    ``p' = p + dt v + l_pp z_p`` and ``v' = v + (l_vp z_p + l_vv z_v)``,
    where ``factor`` is the lower Cholesky factor ``(l_pp, l_vp, l_vv)`` of
    one axis's noise covariance and ``z_p``, ``z_v`` are standard normals.
    The arguments may be Python floats or numpy arrays that broadcast: one
    axis, both axes, or both axes of many futures.  Each operation is one
    rounded multiply or add, elementwise and in this order, so the flown
    truth and the planner's futures give the same bits on every CPU.
    """
    l_pp, l_vp, l_vv = factor
    return p + dt * v + l_pp * z_p, v + (l_vp * z_p + l_vv * z_v)


def target_step(state, scenario: ScenarioConfig, rng: np.random.Generator) -> np.ndarray:
    """Advance the true (px, py, vx, vy) target state by ``target_axis_step`` with the ``process_factor``.

    Four standard normals from ``rng`` are ordered like the state, so the
    x axis takes the first and third and the y axis the second and fourth.
    At ``process_intensity`` 0 the step is the noiseless prediction and
    draws nothing.
    """
    state = np.asarray(state, dtype=float)
    z = rng.standard_normal(4) if scenario.process_intensity > 0.0 else np.zeros(4)
    return np.concatenate(target_axis_step(state[:2], state[2:], z[:2], z[2:], scenario.dt, scenario.process_factor))


def sensor_cov(uav_position, target_position, scenario: ScenarioConfig) -> float:
    """Per-axis measurement noise variance sigma0^2 + eta * (dx dx + dy dy); the covariance is that times I.

    (dx, dy) is the target's offset from the vehicle.  Each square and sum
    is one rounded float operation, in the order of the planner's kernels,
    so a planned future's noise is the flown noise of its geometry.
    """
    dx, dy = (float(t) - float(u) for t, u in zip(target_position, uav_position, strict=True))
    return scenario.sigma0**2 + scenario.eta * (dx * dx + dy * dy)


def sensor_measure(target_position, variance: float, rng: np.random.Generator) -> np.ndarray:
    """Noisy target position under isotropic noise of per-axis ``variance``.

    ``variance`` is a ``sensor_cov`` result; two standard normals from
    ``rng`` are scaled by its square root, so the same draws serve any
    geometry.
    """
    return np.asarray(target_position, dtype=float) + math.sqrt(variance) * rng.standard_normal(2)
