"""Kalman filtering of the constant-velocity target.

Predict and update operate on a TargetBelief.  Updates use the Joseph form
and re-symmetrize, so covariances stay symmetric and cannot go indefinite
from rounding.  The transition, process noise, observation and isotropic
sensor noise all act on each axis separately, so a belief without
cross-axis covariance keeps none; the planner relies on this and checks it
with ``require_per_axis``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .dynamics import measurement_matrix, target_process_cov, target_transition_matrix

if TYPE_CHECKING:
    from .scenario import ScenarioConfig

__all__ = [
    "TargetBelief",
    "kalman_predict",
    "kalman_update",
]

_EIG_TOL = -1e-9

# Entries coupling the x axis (px, vx) with the y axis (py, vy).
_CROSS_AXIS = ((0, 1), (0, 3), (1, 2), (2, 3))


def require_per_axis(cov, label: str) -> None:
    """Raise ValueError naming the first nonzero cross-axis entry of a 4x4 covariance."""
    for i, j in _CROSS_AXIS:
        if cov[i, j] != 0.0 or cov[j, i] != 0.0:
            raise ValueError(
                f"{label} must have no cross-axis covariance, "
                f"got [{i},{j}] = {float(cov[i, j])!r}, [{j},{i}] = {float(cov[j, i])!r}"
            )


@dataclass(frozen=True)
class TargetBelief:
    """Gaussian belief over the target state (px, py, vx, vy)."""

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.covariance, dtype=float)
        if mean.shape != (4,):
            raise ValueError(f"mean must be a 4-vector, got shape {mean.shape}")
        if cov.shape != (4, 4):
            raise ValueError(f"covariance must be 4x4, got shape {cov.shape}")
        if not np.allclose(cov, cov.T, atol=1e-9):
            raise ValueError("covariance must be symmetric within 1e-9")
        eigs = np.linalg.eigvalsh(cov)
        if eigs.min() < _EIG_TOL * max(1.0, abs(eigs.max())):
            raise ValueError(f"covariance must be positive semidefinite, eigs {eigs}")
        mean = mean.copy()
        cov = cov.copy()
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)

    @property
    def position(self) -> np.ndarray:
        return self.mean[:2]


def kalman_predict(belief: TargetBelief, scenario: ScenarioConfig) -> TargetBelief:
    """Time update: constant-velocity transition plus the scenario's process noise."""
    f = target_transition_matrix(scenario.dt)
    q = target_process_cov(scenario.process_intensity, scenario.dt)
    mean = f @ belief.mean
    cov = f @ belief.covariance @ f.T + q
    return TargetBelief(mean=mean, covariance=0.5 * (cov + cov.T))


def kalman_update(belief: TargetBelief, measurement, noise_cov) -> TargetBelief:
    """Measurement update with a position observation (Joseph form)."""
    measurement = np.asarray(measurement, dtype=float)
    noise_cov = np.asarray(noise_cov, dtype=float)
    h = measurement_matrix()
    p = belief.covariance
    innovation_cov = h @ p @ h.T + noise_cov
    det = innovation_cov[0, 0] * innovation_cov[1, 1] - innovation_cov[0, 1] ** 2
    if not np.isfinite(det) or det <= 0.0:
        raise np.linalg.LinAlgError(
            f"innovation covariance is not invertible (det {det})"
        )
    gain = p @ h.T @ np.linalg.inv(innovation_cov)
    mean = belief.mean + gain @ (measurement - h @ belief.mean)
    closed = np.eye(4) - gain @ h
    cov = closed @ p @ closed.T + gain @ noise_cov @ gain.T
    return TargetBelief(mean=mean, covariance=0.5 * (cov + cov.T))
