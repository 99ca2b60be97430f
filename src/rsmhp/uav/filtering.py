"""Kalman filtering of the constant-velocity target, with one covariance block for both axes.

The target model is isotropic: transition, process noise, position sensor
and sensor noise are the same on each axis and act on each axis separately.
So a belief without cross-axis covariance whose x and y blocks are equal
keeps them equal through predict and update.  ``TargetBelief`` holds each
axis's (p, v) mean and the one (P_pp, P_pv, P_vv) block both axes share,
and rejects any other covariance.  Predict and the Joseph-form update
compute the block once and round each entry in the order the 4x4 matrix
products (the reference in ``tests/test_uav.py``) do, so they give the
products' bits unless a BLAS kernel fuses a multiply-add whose product is
inexact: in predict, any dt that is not a power of two.  These floats give
the same bits on every CPU.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from numpy.linalg import LinAlgError

from .._checks import check_vector

if TYPE_CHECKING:
    from .scenario import ScenarioConfig

__all__ = ["TargetBelief", "covariance_block", "kalman_predict", "kalman_update"]


def _check_block(block, label: str) -> None:
    """Reject a (P_pp, P_pv, P_vv) block whose least eigenvalue is below -1e-9 max(1, |largest|), or NaN."""
    pp, pv, vv = block
    middle = 0.5 * (pp + vv)
    radius = math.hypot(0.5 * (pp - vv), pv)
    low, high = middle - radius, middle + radius
    if not low >= -1e-9 * max(1.0, abs(high)):
        raise ValueError(f"{label} must be positive semidefinite, got eigenvalues from {low!r} to {high!r}")


def covariance_block(cov, label: str) -> tuple:
    """The (P_pp, P_pv, P_vv) both axes of a (px, py, vx, vy) covariance share, P_pv the mean of its mirrors.

    Raises ValueError naming ``label`` unless ``cov`` is 4x4,
    ``np.allclose`` to its transpose (atol 1e-9), without cross-axis
    entries, with equal x and y blocks, and PSD; each row is a
    ``check_vector``, so an entry that is not a finite real raises there.
    """
    shape = np.shape(cov)
    if shape != (4, 4):
        raise ValueError(f"{label} must be 4x4, got shape {shape}")
    c = [check_vector(label, row, 4) for row in cov]
    if not np.allclose(c, np.transpose(c), atol=1e-9):
        raise ValueError(f"{label} must be symmetric within 1e-9")
    for i, j in ((0, 1), (0, 3), (1, 2), (2, 3)):  # x entries against y entries
        if c[i][j] != 0.0 or c[j][i] != 0.0:
            raise ValueError(
                f"{label} must have no cross-axis covariance, got [{i},{j}] = {c[i][j]!r}, [{j},{i}] = {c[j][i]!r}"
            )
    x, y = ((c[i][i], 0.5 * (c[i][i + 2] + c[i + 2][i]), c[i + 2][i + 2]) for i in (0, 1))
    if x != y:
        raise ValueError(f"{label} must have equal x and y (P_pp, P_pv, P_vv) blocks, got {x!r} and {y!r}")
    _check_block(x, label)
    return x


@dataclass(frozen=True, init=False)
class TargetBelief:
    """Gaussian belief over the target state (px, py, vx, vy), built from its mean and covariance.

    ``means`` holds the (p, v) of the x and then the y axis, and ``block``
    the (P_pp, P_pv, P_vv) both axes share; ``mean``, ``covariance`` and
    ``position`` are arrays built from them.
    """

    means: tuple
    block: tuple

    def __init__(self, mean, covariance) -> None:
        px, py, vx, vy = check_vector("mean", mean, 4)
        object.__setattr__(self, "means", ((px, vx), (py, vy)))
        object.__setattr__(self, "block", covariance_block(covariance, "belief covariance"))

    @classmethod
    def _of(cls, means: tuple, block: tuple) -> TargetBelief:
        """The belief of two (p, v) means and a shared block, after the PSD check."""
        _check_block(block, "belief covariance")
        belief = object.__new__(cls)
        object.__setattr__(belief, "means", means)
        object.__setattr__(belief, "block", block)
        return belief

    @property
    def mean(self) -> np.ndarray:
        (px, vx), (py, vy) = self.means
        return np.array([px, py, vx, vy])

    @property
    def covariance(self) -> np.ndarray:
        pp, pv, vv = self.block
        return np.array([[pp, 0.0, pv, 0.0], [0.0, pp, 0.0, pv], [pv, 0.0, vv, 0.0], [0.0, pv, 0.0, vv]])

    @property
    def position(self) -> np.ndarray:
        return self.mean[:2]


def kalman_predict(belief: TargetBelief, scenario: ScenarioConfig) -> TargetBelief:
    """Time update: constant-velocity transition plus the scenario's per-axis ``process_block``."""
    dt = scenario.dt
    q_pp, q_pv, q_vv = scenario.process_block
    pp, pv, vv = belief.block
    # F P F' with F = [[1, dt], [0, 1]]: (F P) first, then (F P) F'.
    pp += dt * pv
    pv += dt * vv
    pp += dt * pv
    means = tuple((p + dt * v, v) for p, v in belief.means)
    return TargetBelief._of(means, (pp + q_pp, pv + q_pv, vv + q_vv))


def kalman_update(belief: TargetBelief, measurement, variance: float) -> TargetBelief:
    """Measurement update with a position observation of per-axis noise ``variance`` (Joseph form).

    ``measurement`` is a ``check_vector`` 2-vector.  Raises ValueError
    unless ``variance`` is finite and nonnegative, and LinAlgError when the
    innovation variance P_pp + variance is not positive and finite.
    """
    z = check_vector("measurement", measurement, 2)
    r = float(variance)
    if not 0.0 <= r < math.inf:
        raise ValueError(f"variance must be finite and nonnegative, got {r!r}")
    pp, pv, vv = belief.block
    s = pp + r
    if not 0.0 < s < math.inf:
        raise LinAlgError(f"innovation variance must be positive and finite, got {s!r}")
    inverse = 1.0 / s
    kp, kv = pp * inverse, pv * inverse
    c = 1.0 - kp
    # C P with C = I - K H = [[c, 0], [-kv, 1]], then (C P) C' + K r K'.
    cpp, cpv, cvp, cvv = c * pp, c * pv, pv - kv * pp, vv - kv * pv
    kpr, kvr = kp * r, kv * r
    block = (
        cpp * c + kpr * kp,
        0.5 * ((cpv - cpp * kv + kpr * kv) + (cvp * c + kvr * kp)),
        cvv - cvp * kv + kvr * kv,
    )
    means = []
    for (p, v), z_axis in zip(belief.means, z):
        innovation = z_axis - p
        means.append((p + kp * innovation, v + kv * innovation))
    return TargetBelief._of(tuple(means), block)
