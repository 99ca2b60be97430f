"""Receding-horizon planning against the tracking objective.

The planner scores a candidate control sequence by the accumulated trace
of the filter covariance along the planned vehicle path.  Two scorers are
provided: a nominal one (future noise replaced by its mean, so one target
future pinned to the noiseless prediction) and a sampled one (average over
independently drawn target futures).  A budgeted simplex search with
restarts minimizes the scorer over the flattened (acceleration, bank)
sequence.

The covariance recursion of a future depends on the controls only through
the range-dependent sensor noise, and on the future only through the
target positions.  Measurements and belief means never reach the value, so
none are simulated: the target paths are fixed once per objective, and an
evaluation is the vehicle path, the noise variances, and H steps of the
Kalman covariance recursion.  With a position sensor of isotropic noise and
a prior without cross-axis covariance, that recursion splits into two
independent per-axis recursions over (P_pp, P_pv, P_vv).
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .dynamics import UavControl, target_process_cov, target_transition_matrix
from .filtering import TargetBelief, require_per_axis
from .scenario import ScenarioConfig

__all__ = [
    "PlannerObjective",
    "PlannerConfig",
    "objective_nbo",
    "objective_mhp",
    "scenario_objective_terms",
    "plan_step",
]


class PlannerObjective(enum.Enum):
    """Which scorer the planner minimizes."""

    NBO = "nbo"
    RSMHP = "rsmhp"


@dataclass(frozen=True)
class PlannerConfig:
    horizon: int = 6
    n_trajectories: int = 50
    objective: PlannerObjective = PlannerObjective.NBO
    eval_budget: int = 120
    master_seed: int = 0

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if self.n_trajectories < 1:
            raise ValueError(f"n_trajectories must be >= 1, got {self.n_trajectories}")
        if self.eval_budget < 1:
            raise ValueError(f"eval_budget must be >= 1, got {self.eval_budget}")
        if not isinstance(self.objective, PlannerObjective):
            raise ValueError(f"objective must be a PlannerObjective, got {self.objective!r}")


def _as_control_pairs(controls, horizon: int) -> list:
    """Flat [accel_0, bank_0, accel_1, ...] list of a checked control sequence."""
    if len(controls) == 0:
        raise ValueError("control sequence is empty")
    if len(controls) != horizon:
        raise ValueError(f"expected {horizon} controls, got {len(controls)}")
    flat = []
    for k, c in enumerate(controls):
        for name in ("forward_acceleration", "bank_angle"):
            value = float(getattr(c, name))
            if not math.isfinite(value):
                raise ValueError(f"control {k} has non-finite {name} {value}")
            flat.append(value)
    return flat


def _planned_path(uav, flat_controls, scenario) -> np.ndarray:
    """Vehicle positions after each of the H planned steps, shape (H, 2).

    Same kinematics as uav_step, on Python floats since the path does not
    depend on the sampled futures and sits inside the optimizer's inner loop.
    """
    x, y = uav.position.tolist()
    heading = uav.heading
    speed = uav.speed
    dt = scenario.dt
    path = []
    for accel, bank in zip(flat_controls[0::2], flat_controls[1::2]):
        speed = min(max(speed + accel * dt, scenario.v_min), scenario.v_max)
        heading = heading + scenario.gravity * math.tan(bank) / speed * dt
        x += speed * math.cos(heading) * dt
        y += speed * math.sin(heading) * dt
        path.append((x, y))
    return np.array(path)


def _target_paths(belief, scenario, process_raw) -> np.ndarray:
    """Target positions per axis, step and future, shape (2, H, n).

    ``process_raw`` holds the frozen standard-normal process draws, shaped
    (n, H, 4); all zeros gives the noiseless prediction of the belief mean.
    """
    n, horizon, _ = process_raw.shape
    f = target_transition_matrix(scenario.dt)
    if scenario.process_intensity > 0.0:
        q_root = np.linalg.cholesky(target_process_cov(scenario.process_intensity, scenario.dt))
    else:
        q_root = np.zeros((4, 4))
    truths = np.broadcast_to(belief.mean, (n, 4))
    paths = np.empty((2, horizon, n))
    for k in range(horizon):
        truths = truths @ f.T + process_raw[:, k] @ q_root.T
        paths[:, k] = truths[:, :2].T
    return paths


def _trace_objective(uav, belief, scenario, process_raw):
    """Per-future accumulated covariance trace as a function of the controls.

    Everything that does not depend on the controls is fixed here: the
    target paths, the prior per-axis covariance entries and the process
    noise.  The returned function maps a flat control list to (n,) totals.
    """
    require_per_axis(belief.covariance, "belief covariance")
    targets = _target_paths(belief, scenario, process_raw)
    n = targets.shape[2]
    cov = 0.5 * (belief.covariance + belief.covariance.T)
    # Entries P_pp, P_pv, P_vv, each a (2, n) array: x and y axis by future.
    prior = np.array([np.diag(cov)[:2], np.diag(cov, 2), np.diag(cov)[2:]])
    prior = np.ascontiguousarray(np.broadcast_to(prior[:, :, None], (3, 2, n)))
    q = target_process_cov(scenario.process_intensity, scenario.dt)
    q_axis = np.array([q[0, 0], q[0, 2], q[2, 2]])[:, None, None]
    dt = scenario.dt
    sigma0_sq = scenario.sigma0**2
    eta = scenario.eta

    def totals(flat_controls) -> np.ndarray:
        delta = targets - _planned_path(uav, flat_controls, scenario).T[:, :, None]
        np.square(delta, out=delta)
        # (H, n): one isotropic variance per step and future, shared by both axes.
        noise_vars = sigma0_sq + eta * (delta[0] + delta[1])
        p = prior.copy()
        pp, pv, vv = p
        upper, lower = p[:2], p[1:]
        accumulated = np.zeros_like(p)
        for r in noise_vars:
            # Predict: F P F' + Q per axis, with F = [[1, dt], [0, 1]].
            upper += dt * lower
            pp += dt * pv
            p += q_axis
            # Update with a scalar position measurement of variance r.
            s = pp + r
            vv -= pv / s * pv
            upper *= r / s
            accumulated += p
        return (accumulated[0] + accumulated[2]).sum(axis=0)

    return totals


def _future_mean(terms: np.ndarray) -> float:
    """Average over futures; exactly the common value when all futures agree."""
    return float(terms[0] + (terms - terms[0]).sum() / terms.size)


def objective_nbo(uav, belief: TargetBelief, controls, scenario: ScenarioConfig) -> float:
    """Nominal tracking objective: one future, the noise-free target.

    The target follows the noiseless constant-velocity prediction of the
    belief mean, and only the covariance recursion (with range-dependent
    noise along the planned path) matters.
    """
    flat = _as_control_pairs(controls, len(controls))
    nominal = np.zeros((1, len(controls), 4))
    return float(_trace_objective(uav, belief, scenario, nominal)(flat)[0])


def _frozen_draws(config: PlannerConfig, horizon: int, rng: np.random.Generator):
    """Per-future frozen process standard normals (n, H, 4), one sub-seed per future.

    Each future gets its own child seed, so the first future of an
    n_trajectories = 2 evaluation is draw-identical to an n_trajectories = 1
    evaluation started from the same generator state.  Each child stream
    yields an (H, 6) block whose last two columns are not used: the
    objective simulates no measurements, and drawing them keeps every
    future's process draws at the same place in its stream.
    """
    seeds = rng.integers(np.iinfo(np.int64).max, size=config.n_trajectories)
    process_raw = np.empty((config.n_trajectories, horizon, 4))
    for i, seed in enumerate(seeds):
        process_raw[i] = np.random.default_rng(int(seed)).standard_normal((horizon, 6))[:, :4]
    return process_raw


def scenario_objective_terms(
    uav,
    belief: TargetBelief,
    controls,
    scenario: ScenarioConfig,
    config: PlannerConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Per-future accumulated covariance traces for the sampled objective."""
    flat = _as_control_pairs(controls, config.horizon)
    process_raw = _frozen_draws(config, config.horizon, rng)
    return _trace_objective(uav, belief, scenario, process_raw)(flat)


def objective_mhp(
    uav,
    belief: TargetBelief,
    controls,
    scenario: ScenarioConfig,
    config: PlannerConfig,
    rng: np.random.Generator,
) -> float:
    """Sampled tracking objective: average trace total over drawn futures."""
    return _future_mean(scenario_objective_terms(uav, belief, controls, scenario, config, rng))


def plan_step(
    uav,
    belief: TargetBelief,
    scenario: ScenarioConfig,
    config: PlannerConfig,
    rng: np.random.Generator,
):
    """Pick the next control by budgeted simplex descent over H (accel, bank) pairs.

    The search runs in coordinates normalized to [-1, 1] per component and
    projects every candidate into bounds before scoring, so the returned
    control always respects the actuator limits.  Sampled futures are drawn
    once and reused for every evaluation (common random numbers), which
    keeps the objective deterministic during the search.  Leftover budget
    after the first descent funds restarts from the best point so far,
    perturbed by the supplied generator.  Returns the first control of the
    best sequence found (the initial straight-flight guess if nothing
    strictly improves on it).
    """
    horizon = config.horizon
    dim = 2 * horizon
    scales = np.tile([scenario.accel_max, scenario.bank_max], horizon)

    if config.objective is PlannerObjective.RSMHP:
        process_raw = _frozen_draws(config, horizon, rng)
    else:
        process_raw = np.zeros((1, horizon, 4))
    totals = _trace_objective(uav, belief, scenario, process_raw)

    budget = config.eval_budget
    state = {"evals": 0, "best_y": np.zeros(dim), "best_value": None}

    def objective(y):
        if state["evals"] >= budget:
            # Out of budget: hand the optimizer a flat surface so it stops
            # moving; best-so-far is already recorded.
            return state["best_value"]
        state["evals"] += 1
        y = np.clip(y, -1.0, 1.0)
        value = _future_mean(totals((y * scales).tolist()))
        if state["best_value"] is None or value < state["best_value"]:
            state["best_value"] = value
            state["best_y"] = y
        return value

    objective(state["best_y"])  # score the straight-flight guess first
    start = state["best_y"]
    while state["evals"] < budget:
        remaining = budget - state["evals"]
        if remaining < dim + 2:
            break
        minimize(
            objective,
            start,
            method="Nelder-Mead",
            options={
                "maxfev": remaining,
                "xatol": 1e-3,
                "fatol": 1e-9,
                "initial_simplex": _initial_simplex(start, 0.25),
            },
        )
        start = np.clip(state["best_y"] + rng.uniform(-0.2, 0.2, size=dim), -1.0, 1.0)

    best = state["best_y"] * scales
    return UavControl(forward_acceleration=float(best[0]), bank_angle=float(best[1]))


def _initial_simplex(center: np.ndarray, step: float) -> np.ndarray:
    dim = center.shape[0]
    simplex = np.tile(center, (dim + 1, 1))
    for i in range(dim):
        # Step toward the interior when already at the upper bound.
        simplex[i + 1, i] += step if center[i] <= 1.0 - step else -step
    return simplex
