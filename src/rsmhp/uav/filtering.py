"""Kalman filtering of the constant-velocity target, one axis at a time.

Transition, process noise, position sensor and diagonal sensor noise act on
each axis separately, so ``TargetBelief`` holds each axis as (p, v, P_pp,
P_pv, P_vv) floats and rejects cross-axis covariance.  Predict and the
Joseph-form update round each entry in the order the 4x4 matrix products
(the reference in ``tests/test_uav.py``) do, so they give the products' bits
unless a BLAS kernel fuses a multiply-add whose product is inexact: in
predict, any dt that is not a power of two.  These floats give the same bits
on every CPU.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from numpy.linalg import LinAlgError

from .._checks import check_finite

if TYPE_CHECKING:
    from .scenario import ScenarioConfig

__all__ = ["TargetBelief", "covariance_axes", "kalman_predict", "kalman_update"]


def _check_blocks(blocks, label: str) -> None:
    """Reject (P_pp, P_pv, P_vv) blocks whose least eigenvalue is below -1e-9 max(1, |largest|), or NaN."""
    low, high = math.inf, -math.inf
    for pp, pv, vv in blocks:
        middle = 0.5 * (pp + vv)
        radius = math.hypot(0.5 * (pp - vv), pv)
        low, high = min(low, middle - radius), max(high, middle + radius)
    if not low >= -1e-9 * max(1.0, abs(high)):
        raise ValueError(f"{label} must be positive semidefinite, got eigenvalues from {low!r} to {high!r}")


def covariance_axes(cov, label: str) -> tuple:
    """The (P_pp, P_pv, P_vv) of each axis of a (px, py, vx, vy) covariance, P_pv the mean of its mirrors.

    Raises ValueError naming ``label`` unless ``cov`` is finite, 4x4,
    ``np.allclose`` to its transpose (atol 1e-9), PSD and without cross-axis entries.
    """
    check_finite(label, cov)
    cov = np.asarray(cov, dtype=float)
    if cov.shape != (4, 4):
        raise ValueError(f"{label} must be 4x4, got shape {cov.shape}")
    if not np.allclose(cov, cov.T, atol=1e-9):
        raise ValueError(f"{label} must be symmetric within 1e-9")
    c = cov.tolist()
    for i, j in ((0, 1), (0, 3), (1, 2), (2, 3)):  # x entries against y entries
        if c[i][j] != 0.0 or c[j][i] != 0.0:
            raise ValueError(
                f"{label} must have no cross-axis covariance, got [{i},{j}] = {c[i][j]!r}, [{j},{i}] = {c[j][i]!r}"
            )
    blocks = tuple((c[i][i], 0.5 * (c[i][i + 2] + c[i + 2][i]), c[i + 2][i + 2]) for i in (0, 1))
    _check_blocks(blocks, label)
    return blocks


@dataclass(frozen=True, init=False)
class TargetBelief:
    """Gaussian belief over the target state (px, py, vx, vy), built from its mean and covariance.

    ``axes`` holds (p, v, P_pp, P_pv, P_vv) of the x and then the y axis;
    ``mean``, ``covariance`` and ``position`` are arrays built from it.
    """

    axes: tuple

    def __init__(self, mean, covariance) -> None:
        mean = np.asarray(mean, dtype=float)
        if mean.shape != (4,):
            raise ValueError(f"mean must be a 4-vector, got shape {mean.shape}")
        check_finite("mean", mean)
        m = mean.tolist()
        blocks = covariance_axes(covariance, "belief covariance")
        object.__setattr__(self, "axes", tuple((m[i], m[i + 2]) + blocks[i] for i in (0, 1)))

    @classmethod
    def from_axes(cls, x: tuple, y: tuple) -> TargetBelief:
        """The belief of two (p, v, P_pp, P_pv, P_vv) axes, after the same PSD check."""
        _check_blocks((x[2:], y[2:]), "belief covariance")
        belief = object.__new__(cls)
        object.__setattr__(belief, "axes", (x, y))
        return belief

    @property
    def mean(self) -> np.ndarray:
        (px, vx, *_), (py, vy, *_) = self.axes
        return np.array([px, py, vx, vy])

    @property
    def covariance(self) -> np.ndarray:
        (_, _, xpp, xpv, xvv), (_, _, ypp, ypv, yvv) = self.axes
        return np.array([[xpp, 0.0, xpv, 0.0], [0.0, ypp, 0.0, ypv], [xpv, 0.0, xvv, 0.0], [0.0, ypv, 0.0, yvv]])

    @property
    def position(self) -> np.ndarray:
        return self.mean[:2]


def kalman_predict(belief: TargetBelief, scenario: ScenarioConfig) -> TargetBelief:
    """Time update: constant-velocity transition plus the scenario's per-axis ``process_block``."""
    dt = scenario.dt
    q_pp, q_pv, q_vv = scenario.process_block
    axes = []
    for p, v, pp, pv, vv in belief.axes:
        # F P F' with F = [[1, dt], [0, 1]]: (F P) first, then (F P) F'.
        pp += dt * pv
        pv += dt * vv
        pp += dt * pv
        axes.append((p + dt * v, v, pp + q_pp, pv + q_pv, vv + q_vv))
    return TargetBelief.from_axes(*axes)


def kalman_update(belief: TargetBelief, measurement, noise_cov) -> TargetBelief:
    """Measurement update with a position observation (Joseph form).

    ``noise_cov`` is the 2x2 sensor covariance and must be diagonal, since
    an off-diagonal entry would couple the axes.  Raises LinAlgError when an
    axis's innovation variance P_pp + r is not positive and finite.
    """
    z, r = np.asarray(measurement, dtype=float), np.asarray(noise_cov, dtype=float)
    if z.shape != (2,) or r.shape != (2, 2):
        raise ValueError(f"need a 2-vector measurement and 2x2 noise_cov, got shapes {z.shape} and {r.shape}")
    r = r.tolist()
    if r[0][1] != 0.0 or r[1][0] != 0.0:
        raise ValueError(f"noise_cov must be diagonal, got [0,1] = {r[0][1]!r}, [1,0] = {r[1][0]!r}")
    axes = []
    for (p, v, pp, pv, vv), z_axis, r_axis in zip(belief.axes, z.tolist(), (r[0][0], r[1][1])):
        s = pp + r_axis
        if not 0.0 < s < math.inf:
            raise LinAlgError(f"innovation variance must be positive and finite, got {s!r}")
        inverse = 1.0 / s
        kp, kv = pp * inverse, pv * inverse
        c = 1.0 - kp
        # C P with C = I - K H = [[c, 0], [-kv, 1]], then (C P) C' + K r K'.
        cpp, cpv, cvp, cvv = c * pp, c * pv, pv - kv * pp, vv - kv * pv
        kpr, kvr = kp * r_axis, kv * r_axis
        innovation = z_axis - p
        axes.append((
            p + kp * innovation,
            v + kv * innovation,
            cpp * c + kpr * kp,
            0.5 * ((cpv - cpp * kv + kpr * kv) + (cvp * c + kvr * kp)),
            cvv - cvp * kv + kvr * kv,
        ))
    return TargetBelief.from_axes(*axes)
