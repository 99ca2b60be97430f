"""Scenario configuration for the tracking study.

Everything an episode needs to be reproducible lives here: time step,
episode length, vehicle actuator and speed bounds, sensor and target noise
levels, initial conditions, and the master seed that derives every stream.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .._checks import check_int
from .dynamics import GRAVITY
from .filtering import require_per_axis

__all__ = ["ScenarioConfig"]


def _default_target_mean() -> np.ndarray:
    return np.array([600.0, 400.0, 5.0, 0.0])


def _default_target_cov() -> np.ndarray:
    return np.diag([400.0, 400.0, 16.0, 16.0])


@dataclass(frozen=True)
class ScenarioConfig:
    """Episode and world parameters (defaults give a desk-scale study).

    The sensor noise variance is sigma0^2 + eta * range^2 per axis, so eta
    controls how strongly vehicle position matters.  ``process_intensity``
    is the target's white-acceleration power density.
    """

    dt: float = 1.0
    n_steps: int = 50
    v_min: float = 10.0
    v_max: float = 50.0
    accel_max: float = 5.0
    bank_max: float = np.pi / 6.0
    gravity: float = GRAVITY
    process_intensity: float = 2.0
    sigma0: float = 5.0
    eta: float = 2e-3
    uav_position: tuple = (0.0, 0.0)
    uav_heading: float = 0.0
    uav_speed: float = 30.0
    target_mean: np.ndarray = field(default_factory=_default_target_mean)
    target_cov: np.ndarray = field(default_factory=_default_target_cov)
    master_seed: int = 0

    def __post_init__(self) -> None:
        if self.dt <= 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        check_int("n_steps", self.n_steps, 1)
        check_int("master_seed", self.master_seed, 0)
        if not 0.0 < self.v_min <= self.v_max:
            raise ValueError(f"need 0 < v_min <= v_max, got [{self.v_min}, {self.v_max}]")
        if not self.v_min <= self.uav_speed <= self.v_max:
            raise ValueError(f"uav_speed {self.uav_speed} outside [{self.v_min}, {self.v_max}]")
        if self.accel_max <= 0.0:
            raise ValueError(f"accel_max must be positive, got {self.accel_max}")
        if not 0.0 < self.bank_max < np.pi / 2.0:
            raise ValueError(f"bank_max must lie in (0, pi/2), got {self.bank_max}")
        if self.sigma0 < 0.0 or self.eta < 0.0:
            raise ValueError("sigma0 and eta must be nonnegative")
        if self.process_intensity < 0.0:
            raise ValueError(f"process_intensity must be nonnegative, got {self.process_intensity}")
        mean = np.asarray(self.target_mean, dtype=float)
        cov = np.asarray(self.target_cov, dtype=float)
        if mean.shape != (4,):
            raise ValueError(f"target_mean must be a 4-vector, got shape {mean.shape}")
        if cov.shape != (4, 4):
            raise ValueError(f"target_cov must be 4x4, got shape {cov.shape}")
        if not np.allclose(cov, cov.T, atol=1e-9):
            raise ValueError("target_cov must be symmetric")
        if np.linalg.eigvalsh(cov).min() < -1e-9:
            raise ValueError("target_cov must be positive semidefinite")
        require_per_axis(cov, "target_cov")
        mean = mean.copy()
        cov = cov.copy()
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "target_mean", mean)
        object.__setattr__(self, "target_cov", cov)
        object.__setattr__(self, "uav_position", tuple(float(v) for v in self.uav_position))
