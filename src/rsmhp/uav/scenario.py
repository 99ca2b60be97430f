"""Scenario configuration for the tracking study.

Everything an episode needs to be reproducible lives here: time step,
episode length, vehicle actuator and speed bounds, sensor and target noise
levels, initial conditions, and the master seed that derives every stream.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import ClassVar

import numpy as np

from .._checks import check_finite, check_int, check_seed
from .dynamics import GRAVITY, target_process_cov
from .filtering import covariance_axes

__all__ = ["ScenarioConfig"]


@dataclass(frozen=True)
class ScenarioConfig:
    """Episode and world parameters (defaults give a desk-scale study).

    The sensor noise variance is sigma0^2 + eta * range^2 per axis, so eta
    controls how strongly vehicle position matters.  ``process_intensity``
    is the target's white-acceleration power density.  Every float must be
    finite.  ``gravity`` is a constant of the class, not a field.
    The target model's constants are derived once, not passed: the
    read-only lower Cholesky factors ``target_root`` of ``target_cov +
    1e-12 I`` (the initial target draw) and ``process_root`` of the process
    covariance (zeros at intensity 0), and ``process_block``, that
    covariance's per-axis (q_pp, q_pv, q_vv).  Configs without these
    factors are rejected, and so are ``sigma0``, ``eta`` and
    ``process_intensity`` all 0.  Configs compare and hash equal when every
    compared field, arrays included, is equal by value.
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
    target_mean: np.ndarray = field(default_factory=lambda: np.array([600.0, 400.0, 5.0, 0.0]))
    target_cov: np.ndarray = field(default_factory=lambda: np.diag([400.0, 400.0, 16.0, 16.0]))
    master_seed: int = 0
    target_root: np.ndarray = field(init=False, repr=False, compare=False)
    process_root: np.ndarray = field(init=False, repr=False, compare=False)
    process_block: tuple = field(init=False, repr=False, compare=False)
    gravity: ClassVar[float] = GRAVITY

    def __post_init__(self) -> None:
        for name in ("dt", "v_min", "v_max", "accel_max", "bank_max", "process_intensity", "sigma0", "eta",
                     "uav_position", "uav_heading", "uav_speed", "target_mean"):
            check_finite(name, getattr(self, name))
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
        position, mean = np.array(self.uav_position, dtype=float), np.array(self.target_mean, dtype=float)
        for name, vector, size in (("uav_position", position, 2), ("target_mean", mean, 4)):
            if vector.shape != (size,):
                raise ValueError(f"{name} must be a {size}-vector, got shape {vector.shape}")
        covariance_axes(self.target_cov, "target_cov")
        cov = np.array(self.target_cov, dtype=float)
        try:
            root = np.linalg.cholesky(cov + 1e-12 * np.eye(4))
        except np.linalg.LinAlgError as exc:
            raise ValueError(f"target_cov must have a Cholesky factor after adding 1e-12 I: {exc}") from None
        process = target_process_cov(self.process_intensity, self.dt)
        try:
            process_root = np.linalg.cholesky(process) if self.process_intensity > 0.0 else np.zeros((4, 4))
        except np.linalg.LinAlgError:
            raise ValueError(f"process_intensity {self.process_intensity!r} is too small to factor") from None
        for array in (mean, cov, root, process_root):
            array.setflags(write=False)
        q = process.tolist()
        object.__setattr__(self, "target_mean", mean)
        object.__setattr__(self, "target_cov", cov)
        object.__setattr__(self, "target_root", root)
        object.__setattr__(self, "process_root", process_root)
        object.__setattr__(self, "process_block", (q[0][0], q[0][2], q[2][2]))
        object.__setattr__(self, "uav_position", tuple(position.tolist()))

    def __eq__(self, other) -> bool:
        # The generated __eq__ compares fields inside a tuple, where the
        # elementwise == of the array fields has no truth value.
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._compared() == other._compared()

    def __hash__(self) -> int:
        return hash(self._compared())

    def _compared(self) -> tuple:
        # Validation fixes the arrays' shapes, so their flat entries are their value.
        return tuple(
            tuple(value.ravel().tolist()) if isinstance(value, np.ndarray) else value
            for value in (getattr(self, f.name) for f in fields(self) if f.compare)
        )
