"""Receding-horizon planning against the tracking objective.

The planner scores a candidate control sequence by the accumulated trace
of the filter covariance along the planned vehicle path.  Two scorers are
provided: a nominal one (future noise replaced by its mean, so one target
future pinned to the noiseless prediction) and a sampled one (average over
target futures, one child stream each).  A budgeted Nelder-Mead search with
restarts minimizes the scorer over the flattened (acceleration, bank)
sequence.  The search, ``_search``, is a generator that owns the budget,
the straight-flight guess, the restarts and the incumbent; it yields
batches of candidates and takes their scores through ``send``, so
``plan_step`` only feeds it, and several searches could share one scoring
call per round.  Its simplex steps, ``_nelder_mead``, replay scipy's
Nelder-Mead point for point without importing scipy; the points a step
fixes before scoring any (the initial simplex, a shrink's) come as one batch.

The covariance recursion of a future depends on the controls only through
the range-dependent sensor noise, and on the future only through the
target positions.  Measurements and belief means never reach the value, so
none are simulated: the target paths are fixed once per objective, and an
evaluation is the vehicle path, the noise variances, and H steps of the
Kalman covariance recursion.  A ``TargetBelief`` holds one (P_pp, P_pv,
P_vv) block that both axes share, and a position sensor of isotropic noise
keeps it shared, so the recursion runs once over that block and the trace
is twice its P_pp + P_vv.  The first predict reads only the prior, so it
is the filter's own ``kalman_predict``, done once per objective.  The
target model's constants (the transition matrix, the process covariance's
Cholesky factor and its per-axis block) are read from the
``ScenarioConfig``, which derives them once.

Two kernels run that recursion.  ``_trace_terms`` holds every future of
every candidate in numpy arrays, the candidates' futures stacked on one
lane axis, and serves several futures.  ``_one_future_totals`` runs on
Python floats, one candidate after another, and serves one future (the
nominal objective, or any planner with ``n_trajectories = 1``): there
every numpy call would work on a few lanes and cost its call overhead,
several times the float arithmetic.  ``_trace_objective`` picks the
kernel by the number of futures, and ``objective_nbo``, ``objective_mhp``
and ``plan_step`` all score through it.  Both kernels take the vehicle
path from ``_planned_path``.  The float kernel does the numpy kernel's
rounded operations in its order, and elementwise numpy never fuses a
multiply and an add, so the two give the same bits.  Every operation is
elementwise, so a candidate's score does not depend on the other
candidates of its call.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .._checks import check_int, check_seed
from .._seeds import generators
from .dynamics import UavControl, uav_step_floats
from .filtering import TargetBelief, kalman_predict
from .scenario import ScenarioConfig

__all__ = [
    "PlannerObjective",
    "PlannerConfig",
    "objective_nbo",
    "objective_mhp",
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
    x, y = uav.position
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
    f = scenario.target_transition
    truths = np.broadcast_to(belief.mean, (n, 4))
    paths = np.empty((2, horizon, n))
    for k in range(horizon):
        truths = truths @ f.T + process_raw[:, k] @ scenario.process_root.T
        paths[:, k] = truths[:, :2].T
    return paths


def _trace_terms(uav, belief, scenario, process_raw):
    """Per-candidate, per-future accumulated covariance trace.

    Everything that does not depend on the controls is fixed here: the
    target paths, the first predict, which is ``kalman_predict`` since it
    reads only the prior, and the process noise.  The returned function
    maps a list of k flat control lists to (k, n) totals.  The recursion
    runs on one lane axis: the k candidates' n futures, candidate by
    candidate.  Every operation is elementwise, so a lane's bits do not
    depend on the other lanes.
    """
    targets = _target_paths(belief, scenario, process_raw)[:, :, None, :]
    horizon, n = targets.shape[1], targets.shape[3]
    # Rows P_pp, P_pv, P_vv of the predicted block, spread over the lanes per call.
    first = np.array(kalman_predict(belief, scenario).block)[:, None]
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
        # Q is spread over the lanes too: numpy's same-shape loops cost less
        # per call than its broadcasting ones at these sizes.
        p = first.repeat(lanes, axis=1)
        q_lanes = q_entries.repeat(lanes, axis=1)
        pp, pv, vv = p
        upper, lower = p[:2], p[1:]
        accumulated = np.zeros_like(p)
        for step, r in enumerate(noise_vars):
            if step:
                # Predict: F P F' + Q, with F = [[1, dt], [0, 1]].
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
        # Both axes run this recursion: the trace is twice one axis's.
        total = accumulated[0] + accumulated[2]
        return (total + total).reshape(k, n)

    return totals


def _one_future_totals(uav, belief, scenario, process_raw):
    """The accumulated covariance trace of one future per candidate, on Python floats.

    The same recursion as ``_trace_terms`` for ``process_raw`` of shape
    (1, H, 4), doing each of its rounded operations in its order, so each
    float it returns is that kernel's total bit for bit.  The candidates
    are scored one after another.
    """
    targets = list(zip(*_target_paths(belief, scenario, process_raw)[:, :, 0].tolist()))
    first = kalman_predict(belief, scenario).block
    q_pp, q_pv, q_vv = scenario.process_block
    dt = scenario.dt
    sigma0_sq = scenario.sigma0**2
    eta = scenario.eta

    def axis_total(pp, pv, vv, noise_vars) -> float:
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

    numpy_totals = None

    def totals(candidates) -> list:
        nonlocal numpy_totals
        out = []
        for flat in candidates:
            noise_vars = []
            for (target_x, target_y), (x, y) in zip(targets, _planned_path(uav, flat, scenario)):
                dx, dy = target_x - x, target_y - y
                noise_vars.append(sigma0_sq + eta * (dx * dx + dy * dy))
            try:
                total = axis_total(*first, noise_vars)
            except ZeroDivisionError:
                # A zero innovation variance, where numpy divides to inf or
                # NaN instead of raising: score it with numpy's kernel, built once.
                numpy_totals = numpy_totals or _trace_terms(uav, belief, scenario, process_raw)
                out.append(float(numpy_totals([flat])[0, 0]))
                continue
            out.append(total + total)
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


def _frozen_draws(config: PlannerConfig, rng: np.random.Generator):
    """Per-future frozen process standard normals (n, H, 4), one child stream per future.

    Future i draws what ``np.random.default_rng(seed_i)`` would, for the
    i-th child seed drawn off ``rng``; one ``generators`` pass builds the
    streams.  So the first future of an n_trajectories = 2 evaluation is
    draw-identical to an n_trajectories = 1 evaluation started from the same
    generator state.  Each child stream fills its future's (H, 6) block of
    one buffer, and only the process columns are returned, as one C-ordered
    copy: the objective simulates no measurements, and drawing them keeps
    every future's process draws at the same place in its stream.
    """
    seeds = rng.integers(np.iinfo(np.int64).max, size=config.n_trajectories)
    draws = np.empty((config.n_trajectories, config.horizon, 6))
    for stream, block in zip(generators(seeds, ()), draws):
        stream.standard_normal(out=block)
    return np.ascontiguousarray(draws[:, :, :4])


def objective_mhp(
    uav,
    belief: TargetBelief,
    controls,
    scenario: ScenarioConfig,
    config: PlannerConfig,
    rng: np.random.Generator,
) -> float:
    """Sampled tracking objective: average trace total over ``config.n_trajectories`` drawn futures."""
    flat = _as_control_pairs(controls, config.horizon)
    process_raw = _frozen_draws(config, rng)
    return _trace_objective(uav, belief, scenario, process_raw)([flat])[0]


def plan_step(
    uav,
    belief: TargetBelief,
    scenario: ScenarioConfig,
    config: PlannerConfig,
    rng: np.random.Generator,
):
    """Pick the next control by budgeted simplex descent over H (accel, bank) pairs.

    Sampled futures are drawn once and reused for every evaluation (common
    random numbers), so the objective is deterministic during the search.
    ``_search`` spends ``eval_budget`` in coordinates normalized to
    [-1, 1]; each batch it yields is scaled to the actuator limits and
    scored in one call.  Returns the first control of the point it returns.
    """
    horizon = config.horizon
    scales = np.array([scenario.accel_max, scenario.bank_max] * horizon)
    if config.objective is PlannerObjective.RSMHP:
        process_raw = _frozen_draws(config, rng)
    else:
        process_raw = np.zeros((1, horizon, 4))
    score = _trace_objective(uav, belief, scenario, process_raw)
    search = _search(2 * horizon, config.eval_budget, rng)
    try:
        batch = next(search)
        while True:
            batch = search.send(score((batch * scales).tolist()))
    except StopIteration as done:
        best = done.value * scales
    return UavControl(forward_acceleration=float(best[0]), bank_angle=float(best[1]))


def _search(dim: int, budget: int, rng: np.random.Generator):
    """Budgeted Nelder-Mead with restarts on [-1, 1]^dim, as a generator.

    Yields (m, dim) batches of candidates, clipped into bounds, takes one
    score per row through ``send``, and returns the best candidate in
    scoring order.  The straight-flight guess (the origin) is vertex 0 of
    the first simplex and the incumbent until a candidate scores strictly
    lower.  At most ``budget`` candidates are charged, the guess twice (up
    front and in the first simplex), which keeps the scored points those of
    a search that scores the guess alone first.  A search starts while the
    budget left covers a full simplex plus one step, so below ``dim + 3``
    nothing is yielded, and ends with one ``rng`` draw that perturbs the
    incumbent into the next start.  A batch is cut to the budget left.
    """
    best_y = start = np.zeros(dim)
    best_value, charged = None, 1
    while budget - charged >= dim + 2:
        search = _nelder_mead(_initial_simplex(start, 0.25), xatol=1e-3, fatol=1e-9)
        values = None
        while charged < budget:
            try:
                points = search.send(values)
            except StopIteration:
                break
            batch = np.minimum(np.maximum(points, -1.0), 1.0)[: budget - charged]
            values = yield batch
            charged += len(batch)
            for i, value in enumerate(values):
                if best_value is None or value < best_value:
                    best_value, best_y = value, batch[i]
        start = np.clip(best_y + rng.uniform(-0.2, 0.2, size=dim), -1.0, 1.0)
    return best_y


def _initial_simplex(center: np.ndarray, step: float) -> np.ndarray:
    dim = center.shape[0]
    simplex = np.repeat(center[None], dim + 1, axis=0)
    for i in range(dim):
        # Step toward the interior when already at the upper bound.
        simplex[i + 1, i] += step if center[i] <= 1.0 - step else -step
    return simplex


def _nelder_mead(simplex: np.ndarray, xatol: float, fatol: float):
    """Nelder-Mead from an initial simplex, as a generator of points to score.

    Yields every batch of points as a 2-D array and takes their values back
    through ``send`` as a sequence in row order: the initial simplex as one
    (n + 1, n) batch, each shrink's n new vertices as one (n, n) batch, and
    each reflection, expansion and contraction point as a (1, n) batch.
    Every yielded array is new, and the caller may keep it but must not
    modify it.  Returns once the simplex has converged: every vertex within
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
        (fxr,) = yield xr[None]
        if fxr < fsim[0]:
            xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
            (fxe,) = yield xe[None]
            if fxe < fxr:
                sim[-1], fsim[-1] = xe, fxe
            else:
                sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:
                xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]  # outside contraction
                (fxc,) = yield xc[None]
                accept = fxc <= fxr
            else:
                xc = (1 - psi) * xbar + psi * sim[-1]  # inside contraction
                (fxc,) = yield xc[None]
                accept = fxc < fsim[-1]
            if accept:
                sim[-1], fsim[-1] = xc, fxc
            else:
                sim[1:] = sim[0] + sigma * (sim[1:] - sim[0])
                fsim[1:] = yield sim[1:].copy()
        ind = fsim.argsort()
        sim = sim.take(ind, 0)
        fsim = fsim[ind]
