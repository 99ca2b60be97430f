"""Receding-horizon planning against the tracking objective.

The planner scores a candidate control sequence by the accumulated trace
of the filter covariance along the planned vehicle path.  Two scorers are
provided: a nominal one (future noise replaced by its mean, so one target
future pinned to the noiseless prediction) and a sampled one (average over
target futures, one child stream each).  A budgeted Nelder-Mead search with
restarts minimizes the scorer over the flattened (acceleration, bank)
sequence.  The search is a generator that yields its candidates and takes
their scores through ``send``, so the caller, not the search, owns the
budget and the scoring; it replays scipy's Nelder-Mead point for point
without importing scipy.  Points the search fixes before scoring any of
them come as one batch: the initial simplex, and each shrink's new
vertices.  The scorer takes a list of candidates and returns one score
per candidate, so ``plan_step`` scores a batch in one call.

The covariance recursion of a future depends on the controls only through
the range-dependent sensor noise, and on the future only through the
target positions.  Measurements and belief means never reach the value, so
none are simulated: the target paths are fixed once per objective, and an
evaluation is the vehicle path, the noise variances, and H steps of the
Kalman covariance recursion.  A ``TargetBelief`` has no cross-axis
covariance, so with a position sensor of isotropic noise that recursion
splits into two independent per-axis recursions over (P_pp, P_pv, P_vv).
The first predict reads only the prior, so it is the filter's own
``kalman_predict``, done once per objective.  Axes whose predicted blocks
are equal bit for bit run the same recursion, which is then run once: an
isotropic prior under an isotropic sensor stays so.  The target model's
constants (the process covariance's Cholesky factor and its per-axis
block) are read from the ``ScenarioConfig``, which derives them once.

Two kernels run that recursion.  ``_trace_terms`` holds every future of
every candidate in numpy arrays, the candidates' futures stacked on one
lane axis, and serves several futures.  ``_one_future_totals`` runs on
Python floats, one candidate after another, and serves one future (the
nominal objective, or any planner with ``n_trajectories = 1``): there
every numpy call would work on a few lanes and cost its call overhead,
several times the float arithmetic.  ``_trace_objective`` picks the
kernel by the number of futures.  Both take the vehicle path from
``_planned_path``.  The float kernel does the numpy kernel's rounded
operations in its order, and elementwise numpy never fuses a multiply and
an add, so the two give the same bits.  Every operation is elementwise,
so a candidate's score does not depend on the other candidates of its
call.
"""
from __future__ import annotations

import enum
import math
import struct
from dataclasses import dataclass

import numpy as np

from .._checks import check_int, check_seed
from .._seeds import generators
from .dynamics import UavControl, target_transition_matrix, uav_step_floats
from .filtering import TargetBelief, kalman_predict
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


def _planned_path(uav, flat_controls, scenario) -> list:
    """Vehicle (x, y) float pairs after each of the H planned steps.

    The steps are ``uav_step_floats``, the episode's own kinematics, on
    Python floats since the path does not depend on the sampled futures and
    sits inside the optimizer's inner loop.
    """
    x, y = uav.position.tolist()
    heading, speed = uav.heading, uav.speed
    path = []
    for accel, bank in zip(flat_controls[0::2], flat_controls[1::2]):
        x, y, heading, speed = uav_step_floats(x, y, heading, speed, accel, bank, scenario)
        path.append((x, y))
    return path


def _target_paths(belief, scenario, process_raw) -> np.ndarray:
    """Target positions per axis, step and future, shape (2, H, n).

    ``process_raw`` holds the frozen standard-normal process draws, shaped
    (n, H, 4); all zeros gives the noiseless prediction of the belief mean.
    """
    n, horizon, _ = process_raw.shape
    f = target_transition_matrix(scenario.dt)
    truths = np.broadcast_to(belief.mean, (n, 4))
    paths = np.empty((2, horizon, n))
    for k in range(horizon):
        truths = truths @ f.T + process_raw[:, k] @ scenario.process_root.T
        paths[:, k] = truths[:, :2].T
    return paths


def _first_predicts(belief, scenario):
    """The distinct per-axis blocks after the first predict, and each axis's block index.

    Returns ([(P_pp, P_pv, P_vv), ...], (x index, y index)).  The first
    predict is ``kalman_predict``: it reads only the prior, so it is the
    same for every future and candidate, and the kernels' later predicts
    round as it does.  Axes whose predicted blocks are equal bit for bit
    (an isotropic prior under an isotropic sensor stays so) run the same
    recursion, so it is run once: one block and indices (0, 0).
    """
    blocks = [axis[2:] for axis in kalman_predict(belief, scenario).axes]
    if struct.pack("3d", *blocks[0]) == struct.pack("3d", *blocks[1]):
        return blocks[:1], (0, 0)
    return blocks, (0, 1)


def _trace_terms(uav, belief, scenario, process_raw):
    """Per-candidate, per-future accumulated covariance trace.

    Everything that does not depend on the controls is fixed here: the
    target paths, the first predict of each distinct axis block and the
    process noise.  The returned function maps a list of k flat control
    lists to (k, n) totals.  The recursion runs on one lane axis: per
    distinct axis block, the k candidates' n futures, candidate by
    candidate.  Every operation is elementwise, so a lane's bits do not
    depend on the other lanes.
    """
    targets = _target_paths(belief, scenario, process_raw)[:, :, None, :]
    horizon, n = targets.shape[1], targets.shape[3]
    predicted, (x_row, y_row) = _first_predicts(belief, scenario)
    blocks = len(predicted)
    # Rows P_pp, P_pv, P_vv by distinct axis block; each is spread over its
    # block's lanes per call.
    first = np.array(predicted).T
    q_entries = np.array(scenario.process_block)[:, None]
    dt = scenario.dt
    sigma0_sq = scenario.sigma0**2
    eta = scenario.eta

    def totals(candidates) -> np.ndarray:
        k = len(candidates)
        lanes = k * n
        paths = np.array([_planned_path(uav, flat, scenario) for flat in candidates])
        # (2, H, k, n): axis by step by candidate by future.
        delta = targets - paths.transpose(2, 1, 0)[:, :, :, None]
        np.square(delta, out=delta)
        # (H, k n): one isotropic variance per step and lane, shared by both axes.
        noise_vars = (sigma0_sq + eta * (delta[0] + delta[1])).reshape(horizon, lanes)
        if blocks > 1:
            noise_vars = np.tile(noise_vars, blocks)
        # Q is spread over the lanes too: numpy's same-shape loops cost less
        # per call than its broadcasting ones at these sizes.
        p = first.repeat(lanes, axis=1)
        q_lanes = q_entries.repeat(p.shape[1], axis=1)
        pp, pv, vv = p
        upper, lower = p[:2], p[1:]
        accumulated = np.zeros_like(p)
        for step, r in enumerate(noise_vars):
            if step:
                # Predict: F P F' + Q per axis, with F = [[1, dt], [0, 1]].
                upper += dt * lower
                pp += dt * pv
                p += q_lanes
            # Update with a scalar position measurement of variance r.
            s = pp + r
            vv -= pv / s * pv
            gain = r / s
            pp *= gain
            pv *= gain
            accumulated += p
        per_axis = (accumulated[0] + accumulated[2]).reshape(blocks, lanes)
        return (per_axis[x_row] + per_axis[y_row]).reshape(k, n)

    return totals


def _one_future_totals(uav, belief, scenario, process_raw):
    """The accumulated covariance trace of one future per candidate, on Python floats.

    The same recursion as ``_trace_terms`` for ``process_raw`` of shape
    (1, H, 4), doing each of its rounded operations in its order, so each
    float it returns is that kernel's total bit for bit.  The candidates
    are scored one after another.
    """
    targets = list(zip(*_target_paths(belief, scenario, process_raw)[:, :, 0].tolist()))
    predicted, (x_row, y_row) = _first_predicts(belief, scenario)
    q_pp, q_pv, q_vv = scenario.process_block
    dt = scenario.dt
    sigma0_sq = scenario.sigma0**2
    eta = scenario.eta

    def block_total(pp, pv, vv, noise_vars) -> float:
        acc_pp = acc_vv = 0.0
        for r in noise_vars:
            # Update with a scalar position measurement of variance r.
            s = pp + r
            vv -= pv / s * pv
            gain = r / s
            pp, pv = pp * gain, pv * gain
            acc_pp += pp
            acc_vv += vv
            # Predict the next step: (F P) first, then (F P) F', then + Q.
            # The last one is not used; it cannot raise.
            pp, pv = pp + dt * pv, pv + dt * vv
            pp, pv, vv = pp + dt * pv + q_pp, pv + q_pv, vv + q_vv
        return acc_pp + acc_vv

    def totals(candidates) -> list:
        out = []
        for flat in candidates:
            noise_vars = []
            for (target_x, target_y), (x, y) in zip(targets, _planned_path(uav, flat, scenario)):
                dx, dy = target_x - x, target_y - y
                noise_vars.append(sigma0_sq + eta * (dx * dx + dy * dy))
            try:
                per_axis = [block_total(*block, noise_vars) for block in predicted]
            except ZeroDivisionError:
                # A zero innovation variance, where numpy divides to inf or
                # NaN instead of raising: score it with numpy's kernel.
                out.append(float(_trace_terms(uav, belief, scenario, process_raw)([flat])[0, 0]))
                continue
            out.append(per_axis[x_row] + per_axis[y_row])
        return out

    return totals


def _trace_objective(uav, belief, scenario, process_raw):
    """The mean accumulated trace over the futures of ``process_raw``, per candidate.

    Returns ``score(candidates) -> list`` of one float per flat control
    list.  One future is scored by ``_one_future_totals`` on floats;
    several by the numpy kernel ``_trace_terms`` and ``_future_means``.
    The two kernels agree bit for bit on one future.
    """
    if process_raw.shape[0] == 1:
        return _one_future_totals(uav, belief, scenario, process_raw)
    totals = _trace_terms(uav, belief, scenario, process_raw)
    return lambda candidates: _future_means(totals(candidates)).tolist()


def _future_means(terms: np.ndarray) -> np.ndarray:
    """Average over futures of each row of a (k, n) array; exactly the common value of a row whose futures agree."""
    return terms[:, 0] + (terms - terms[:, :1]).sum(axis=1) / terms.shape[1]


def objective_nbo(uav, belief: TargetBelief, controls, scenario: ScenarioConfig) -> float:
    """Nominal tracking objective: one future, the noise-free target.

    The target follows the noiseless constant-velocity prediction of the
    belief mean, and only the covariance recursion (with range-dependent
    noise along the planned path) matters.
    """
    flat = _as_control_pairs(controls, len(controls))
    nominal = np.zeros((1, len(controls), 4))
    return _trace_objective(uav, belief, scenario, nominal)([flat])[0]


def _frozen_draws(config: PlannerConfig, horizon: int, rng: np.random.Generator):
    """Per-future frozen process standard normals (n, H, 4), one child stream per future.

    Future i draws what ``np.random.default_rng(seed_i)`` would, for the
    i-th child seed drawn off ``rng``; one ``generators`` pass builds the
    streams.  So the first future of an n_trajectories = 2 evaluation is
    draw-identical to an n_trajectories = 1 evaluation started from the same
    generator state.  Each child stream yields an (H, 6) block whose last two
    columns are not used: the objective simulates no measurements, and
    drawing them keeps every future's process draws at the same place in
    its stream.
    """
    seeds = rng.integers(np.iinfo(np.int64).max, size=config.n_trajectories)
    block = np.empty((horizon, 6))
    process_raw = np.empty((config.n_trajectories, horizon, 4))
    for i, stream in enumerate(generators(seeds, ())):
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
    return _trace_terms(uav, belief, scenario, process_raw)([flat])[0]


def objective_mhp(
    uav,
    belief: TargetBelief,
    controls,
    scenario: ScenarioConfig,
    config: PlannerConfig,
    rng: np.random.Generator,
) -> float:
    """Sampled tracking objective: average trace total over drawn futures."""
    terms = scenario_objective_terms(uav, belief, controls, scenario, config, rng)
    return float(_future_means(terms[None])[0])


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
    ``eval_budget`` candidates are counted: first the straight-flight guess,
    then Nelder-Mead searches, each started while the budget left covers a
    full initial simplex plus one step.  A batch the search yields is cut
    to the budget left and scored in one call.  The first simplex's vertex
    0 is the straight-flight guess again: it counts, but its score is
    reused.  After each search, the next one starts from the best point so
    far, perturbed by the supplied generator.  Returns the first control of
    the best sequence found, in scoring order (the initial straight-flight
    guess if nothing strictly improves on it).
    """
    horizon = config.horizon
    dim = 2 * horizon
    scales = np.tile([scenario.accel_max, scenario.bank_max], horizon)

    if config.objective is PlannerObjective.RSMHP:
        process_raw = _frozen_draws(config, horizon, rng)
    else:
        process_raw = np.zeros((1, horizon, 4))
    score = _trace_objective(uav, belief, scenario, process_raw)

    best_y = np.zeros(dim)
    (best_value,) = score([[0.0] * dim])
    evals = 1
    guess_value = best_value  # until the first simplex reuses it as vertex 0's
    start = best_y
    while config.eval_budget - evals >= dim + 2:
        search = _nelder_mead(_initial_simplex(start, 0.25), xatol=1e-3, fatol=1e-9)
        values = None
        while evals < config.eval_budget:
            try:
                points = search.send(values)
            except StopIteration:
                break
            batch = np.minimum(np.maximum(points, -1.0), 1.0).reshape(-1, dim)[: config.eval_budget - evals]
            if guess_value is None:
                values = score((batch * scales).tolist())
            else:
                values = [guess_value] + score((batch[1:] * scales).tolist())
                guess_value = None
            evals += len(batch)
            for i, value in enumerate(values):
                if value < best_value:
                    best_value, best_y = value, batch[i]
            if points.ndim == 1:
                (values,) = values
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

    Yields the initial simplex as one (n + 1, n) array and each shrink's n
    new vertices as one (n, n) array, and takes their values back through
    ``send`` as a sequence in row order; yields each reflection, expansion
    and contraction point as an (n,) array and takes its one value.  Every
    yielded array is new, and the caller may keep it but must not modify
    it.  Returns once the simplex has converged: every vertex within
    ``xatol`` of the best in each coordinate and every value within
    ``fatol``.  The caller owns the evaluation budget and simply stops
    sending.  The steps, their arithmetic and the ``np.argsort`` orderings
    (not stable past 16 vertices) are those of scipy's
    ``_minimize_neldermead`` without bounds and not adaptive (rho = 1,
    chi = 2, psi = sigma = 0.5), so the evaluated points match scipy's bit
    for bit (Nelder & Mead, "A simplex method for function minimization",
    1965).
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    sim = np.array(simplex, dtype=float)
    n = sim.shape[1]
    fsim = np.full((n + 1,), np.inf, dtype=float)
    fsim[:] = yield sim.copy()
    # scipy sorts the first simplex twice; with ties the passes can differ.
    for _ in range(2):
        ind = fsim.argsort()
        sim = sim.take(ind, 0)  # cheaper than fancy indexing on rows
        fsim = fsim[ind]

    # fsim is sorted with any NaN last, so fsim[-1] - fsim[0] is the largest
    # |fsim[0] - fsim[j]|, or NaN where that is NaN: the same test as scipy's.
    while not (fsim[-1] - fsim[0] <= fatol and np.abs(sim[1:] - sim[0]).max() <= xatol):
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
                sim[1:] = sim[0] + sigma * (sim[1:] - sim[0])
                fsim[1:] = yield sim[1:].copy()
        ind = fsim.argsort()
        sim = sim.take(ind, 0)
        fsim = fsim[ind]
