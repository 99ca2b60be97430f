"""Receding-horizon planning against the tracking objective.

The planner scores a candidate control sequence by the accumulated trace
of the filter covariance along the planned vehicle path.  Two scorers are
provided: a nominal one (future noise replaced by its mean, so one target
future pinned to the noiseless prediction) and a sampled one (average over
independently drawn target futures).  A budgeted Nelder-Mead search with
restarts minimizes the scorer over the flattened (acceleration, bank)
sequence.  The search is a generator that yields each candidate and takes
its score through ``send``, so the caller, not the search, owns the budget
and the scoring; it replays scipy's Nelder-Mead point for point without
importing scipy.

The covariance recursion of a future depends on the controls only through
the range-dependent sensor noise, and on the future only through the
target positions.  Measurements and belief means never reach the value, so
none are simulated: the target paths are fixed once per objective, and an
evaluation is the vehicle path, the noise variances, and H steps of the
Kalman covariance recursion.  A ``TargetBelief`` has no cross-axis
covariance, so with a position sensor of isotropic noise that recursion
splits into two independent per-axis recursions over (P_pp, P_pv, P_vv).
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .._checks import check_int, check_seed
from .._seeds import seed_states
from .dynamics import UavControl, target_process_cov, target_transition_matrix, uav_step_floats
from .filtering import TargetBelief
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
        check_int("horizon", self.horizon, 1)
        check_int("n_trajectories", self.n_trajectories, 1)
        check_int("eval_budget", self.eval_budget, 1)
        check_seed("master_seed", self.master_seed)
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

    The steps are ``uav_step_floats``, the episode's own kinematics, on
    Python floats since the path does not depend on the sampled futures and
    sits inside the optimizer's inner loop.
    """
    x, y = uav.position.tolist()
    heading = uav.heading
    speed = uav.speed
    path = []
    for accel, bank in zip(flat_controls[0::2], flat_controls[1::2]):
        x, y, heading, speed = uav_step_floats(x, y, heading, speed, accel, bank, scenario)
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
    targets = _target_paths(belief, scenario, process_raw)
    n = targets.shape[2]
    # Entries P_pp, P_pv, P_vv, each a (2, n) array: x and y axis by future.
    prior = np.array([axis[2:] for axis in belief.axes]).T
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


# PCG64's 128-bit LCG multiplier, for its seeding step (``pcg64_srandom_r``).
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _frozen_draws(config: PlannerConfig, horizon: int, rng: np.random.Generator):
    """Per-future frozen process standard normals (n, H, 4), one sub-seed per future.

    Each future gets its own child seed, so the first future of an
    n_trajectories = 2 evaluation is draw-identical to an n_trajectories = 1
    evaluation started from the same generator state.  Each child stream
    yields an (H, 6) block whose last two columns are not used: the
    objective simulates no measurements, and drawing them keeps every
    future's process draws at the same place in its stream.

    Future i draws what ``np.random.default_rng(seed_i)`` would.  The
    seeds' ``SeedSequence`` words come from one ``seed_states`` pass, and
    one PCG64 is re-seeded per future through its ``state`` setter, with
    PCG64's seeding step (state and increment from the four words) done in
    Python ints.
    """
    seeds = rng.integers(np.iinfo(np.int64).max, size=config.n_trajectories)
    bit_generator = np.random.PCG64(0)
    stream = np.random.Generator(bit_generator)
    state = bit_generator.state
    block = np.empty((horizon, 6))
    process_raw = np.empty((config.n_trajectories, horizon, 4))
    for i, (w0, w1, w2, w3) in enumerate(seed_states(seeds, (), 4).tolist()):
        inc = (((w2 << 64 | w3) << 1) | 1) & _MASK128
        state["state"]["state"] = ((inc + (w0 << 64 | w1)) * _PCG64_MULT + inc) & _MASK128
        state["state"]["inc"] = inc
        bit_generator.state = state
        stream.standard_normal(out=block)
        process_raw[i] = block[:, :4]
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
    keeps the objective deterministic during the search.  At most
    ``eval_budget`` candidates are scored: first the straight-flight guess,
    then Nelder-Mead searches, each started while the budget left covers a
    full initial simplex plus one step.  After each search, the next one
    starts from the best point so far, perturbed by the supplied generator.
    Returns the first control of the best sequence found (the initial
    straight-flight guess if nothing strictly improves on it).
    """
    horizon = config.horizon
    dim = 2 * horizon
    scales = np.tile([scenario.accel_max, scenario.bank_max], horizon)

    if config.objective is PlannerObjective.RSMHP:
        process_raw = _frozen_draws(config, horizon, rng)
    else:
        process_raw = np.zeros((1, horizon, 4))
    totals = _trace_objective(uav, belief, scenario, process_raw)

    best_y = np.zeros(dim)
    best_value = _future_mean(totals((best_y * scales).tolist()))
    evals = 1
    start = best_y
    while config.eval_budget - evals >= dim + 2:
        search = _nelder_mead(_initial_simplex(start, 0.25), xatol=1e-3, fatol=1e-9)
        value = None
        while evals < config.eval_budget:
            try:
                y = search.send(value)
            except StopIteration:
                break
            y = np.clip(y, -1.0, 1.0)
            value = _future_mean(totals((y * scales).tolist()))
            evals += 1
            if value < best_value:
                best_value, best_y = value, y
        start = np.clip(best_y + rng.uniform(-0.2, 0.2, size=dim), -1.0, 1.0)

    best = best_y * scales
    return UavControl(forward_acceleration=float(best[0]), bank_angle=float(best[1]))


def _initial_simplex(center: np.ndarray, step: float) -> np.ndarray:
    dim = center.shape[0]
    simplex = np.tile(center, (dim + 1, 1))
    for i in range(dim):
        # Step toward the interior when already at the upper bound.
        simplex[i + 1, i] += step if center[i] <= 1.0 - step else -step
    return simplex


def _nelder_mead(simplex: np.ndarray, xatol: float, fatol: float):
    """Nelder-Mead from an initial simplex, as a generator of points to score.

    Yields each point as a new array, which the caller may keep but must not
    modify, and takes its value through ``send``.  Returns once the simplex
    has converged: every vertex within ``xatol`` of the best in each
    coordinate and every value within ``fatol``.  The caller owns the
    evaluation budget and simply stops sending.  The steps, their arithmetic
    and the ``np.argsort`` orderings (not stable past 16 vertices) are those
    of scipy's ``_minimize_neldermead`` without bounds and not adaptive
    (rho = 1, chi = 2, psi = sigma = 0.5), so the evaluated points match
    scipy's bit for bit (Nelder & Mead, "A simplex method for function
    minimization", 1965).
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    sim = np.array(simplex, dtype=float)
    n = sim.shape[1]
    fsim = np.full((n + 1,), np.inf, dtype=float)
    for k in range(n + 1):
        fsim[k] = yield sim[k].copy()
    # scipy sorts the first simplex twice; with ties the passes can differ.
    for _ in range(2):
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)

    while not (
        np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol
        and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol
    ):
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = (1 + rho) * xbar - rho * sim[-1]
        fxr = yield xr
        if fxr < fsim[0]:
            xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
            fxe = yield xe
            if fxe < fxr:
                sim[-1], fsim[-1] = xe, fxe
            else:
                sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:
                xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]  # outside contraction
                fxc = yield xc
                accept = fxc <= fxr
            else:
                xc = (1 - psi) * xbar + psi * sim[-1]  # inside contraction
                fxc = yield xc
                accept = fxc < fsim[-1]
            if accept:
                sim[-1], fsim[-1] = xc, fxc
            else:
                for j in range(1, n + 1):
                    sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                    fsim[j] = yield sim[j].copy()
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)
