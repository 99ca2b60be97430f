"""Scenario configuration for the tracking study.

Everything an episode needs to be reproducible lives here: time step,
episode length, vehicle actuator and speed bounds, sensor and target noise
levels, initial conditions, and the master seed that derives every stream.
The target's per-axis noise factors are derived from these in closed form.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .._checks import check_int, check_real, check_seed, check_vector
from .dynamics import GRAVITY
from .filtering import covariance_block

__all__ = ["ScenarioConfig"]


def _axis_factor(pp: float, pv: float, vv: float):
    """Lower Cholesky factor (sqrt(pp), pv / l_pp, sqrt(vv - l_vp^2)) of [[pp, pv], [pv, vv]].

    None where a pivot is not positive, NaN or an underflow to 0 included.
    """
    if not pp > 0.0:
        return None
    l_pp = math.sqrt(pp)
    l_vp = pv / l_pp
    rest = vv - l_vp * l_vp
    if not rest > 0.0:
        return None
    return l_pp, l_vp, math.sqrt(rest)


@dataclass(frozen=True)
class ScenarioConfig:
    """Episode and world parameters (defaults give a desk-scale study).

    The sensor noise variance is sigma0^2 + eta * range^2 per axis, so eta
    controls how strongly vehicle position matters.  ``process_intensity``
    is the target's white-acceleration power density.  Every float must be
    a finite real other than a bool and is stored as a float.
    ``uav_position``, ``target_mean`` and ``target_cov`` may be given as
    arrays and are stored as tuples of floats: a pair, a 4-tuple and 4 rows
    of 4, each entry checked under its field's name.  The target model is
    isotropic, so ``target_cov`` must have equal x and y blocks and no
    cross-axis entries (``covariance_block``).  ``gravity`` is a constant
    of the class, not a field.  The target model's constants are derived
    once, not passed, each a tuple of floats shared by both axes:
    ``process_block``, the process covariance's per-axis (q_pp, q_pv,
    q_vv) = (q dt^3/3, q dt^2/2, q dt), and two lower Cholesky factors
    (l_pp, l_vp, l_vv) for ``target_axis_step``: ``target_factor`` of the
    prior block of ``target_cov`` with 1e-12 added to both variances (the
    initial target draw), and ``process_factor`` of ``process_block``
    (zeros at intensity 0).  Configs without these factors are rejected,
    and so are ``sigma0``, ``eta`` and ``process_intensity`` all 0.  The
    derived fields are not compared, so configs compare and hash equal
    when their given values are equal.
    """

    dt: float = 1.0
    n_steps: int = 50
    v_min: float = 10.0
    v_max: float = 50.0
    accel_max: float = 5.0
    bank_max: float = np.pi / 6.0
    process_intensity: float = 2.0
    sigma0: float = 5.0
    eta: float = 2e-3
    uav_position: tuple = (0.0, 0.0)
    uav_heading: float = 0.0
    uav_speed: float = 30.0
    target_mean: tuple = (600.0, 400.0, 5.0, 0.0)
    target_cov: tuple = ((400.0, 0.0, 0.0, 0.0), (0.0, 400.0, 0.0, 0.0), (0.0, 0.0, 16.0, 0.0), (0.0, 0.0, 0.0, 16.0))
    master_seed: int = 0
    target_factor: tuple = field(init=False, repr=False, compare=False)
    process_block: tuple = field(init=False, repr=False, compare=False)
    process_factor: tuple = field(init=False, repr=False, compare=False)
    gravity: ClassVar[float] = GRAVITY

    def __post_init__(self) -> None:
        for name in ("dt", "v_min", "v_max", "accel_max", "bank_max", "process_intensity", "sigma0", "eta",
                     "uav_heading", "uav_speed"):
            object.__setattr__(self, name, check_real(name, getattr(self, name)))
        if self.dt <= 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        check_int("n_steps", self.n_steps, 1)
        check_seed("master_seed", self.master_seed)
        if not 0.0 < self.v_min <= self.v_max:
            raise ValueError(f"need 0 < v_min <= v_max, got [{self.v_min}, {self.v_max}]")
        if not self.v_min <= self.uav_speed <= self.v_max:
            raise ValueError(f"uav_speed {self.uav_speed} outside [{self.v_min}, {self.v_max}]")
        if self.accel_max <= 0.0:
            raise ValueError(f"accel_max must be positive, got {self.accel_max}")
        if not 0.0 < self.bank_max < np.pi / 2.0:
            raise ValueError(f"bank_max must lie in (0, pi/2), got {self.bank_max}")
        if self.sigma0 < 0.0:
            raise ValueError(f"sigma0 must be nonnegative, got {self.sigma0}")
        if self.eta < 0.0:
            raise ValueError(f"eta must be nonnegative, got {self.eta}")
        if self.process_intensity < 0.0:
            raise ValueError(f"process_intensity must be nonnegative, got {self.process_intensity}")
        if self.sigma0 == 0.0 and self.eta == 0.0 and self.process_intensity == 0.0:
            # A noiseless sensor on a noiseless target: the filter's position
            # variance collapses to 0, and with it the innovation variance.
            raise ValueError("sigma0, eta and process_intensity are all 0: no episode can filter without noise")
        for name, size in (("uav_position", 2), ("target_mean", 4)):
            object.__setattr__(self, name, check_vector(name, getattr(self, name), size))
        pp, pv, vv = covariance_block(self.target_cov, "target_cov")
        object.__setattr__(self, "target_cov", tuple(tuple(map(float, row)) for row in self.target_cov))
        target_factor = _axis_factor(pp + 1e-12, pv, vv + 1e-12)
        if target_factor is None:
            raise ValueError(f"target_cov must have a Cholesky factor after adding 1e-12 I, got block {(pp, pv, vv)!r}")
        q = self.process_intensity
        block = (q * self.dt**3 / 3.0, q * self.dt**2 / 2.0, q * self.dt)
        process_factor = _axis_factor(*block) if q > 0.0 else (0.0, 0.0, 0.0)
        if process_factor is None:
            raise ValueError(f"process_intensity {q!r} is too small to factor")
        object.__setattr__(self, "target_factor", target_factor)
        object.__setattr__(self, "process_block", block)
        object.__setattr__(self, "process_factor", process_factor)
