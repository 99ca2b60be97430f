"""The planner's simplex search: scipy as replay oracle, the budget rule, no scipy at runtime.

``planning._nelder_mead`` is a transcription of scipy's Nelder-Mead for the
options ``plan_step`` uses.  Driven to the same budget on the same
objective, it must evaluate the same points as
``scipy.optimize.minimize(method="Nelder-Mead")``, bit for bit, in the same
order and the same number.

``planning._search`` wraps it in the budget, the restarts and the
incumbent.  The loop ``plan_step`` ran before the search became a
generator, which scored the straight-flight guess alone first, is kept
here as its reference: both must score the same candidates, return the
same point and leave the planner stream in the same state.
"""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from rsmhp.uav import PlannerConfig, PlannerObjective, ScenarioConfig, TargetBelief, UavControl, UavState
from rsmhp.uav import planning
from rsmhp.uav.planning import _initial_simplex, _nelder_mead, plan_step

ROOT = Path(__file__).resolve().parent.parent
XATOL, FATOL = 1e-3, 1e-9


def _scipy_points(fun, simplex, budget):
    points = []

    def recorded(x):
        points.append(x.copy())
        return fun(x)

    minimize(
        recorded,
        simplex[0],
        method="Nelder-Mead",
        options={"initial_simplex": simplex, "maxfev": budget, "xatol": XATOL, "fatol": FATOL},
    )
    return points


def _generator_points(fun, simplex, budget):
    """Evaluated points, and whether the search returned before the budget ran out.

    Each yielded batch is cut to the budget left and answered with one
    value per scored row.
    """
    search = _nelder_mead(simplex, xatol=XATOL, fatol=FATOL)
    points, values = [], None
    while len(points) < budget:
        try:
            batch = search.send(values)
        except StopIteration:
            return points, True
        assert batch.ndim == 2
        batch = batch[: budget - len(points)]
        points.extend(row.copy() for row in batch)
        values = [fun(row) for row in batch]
    return points, False


def _objective(kind, center, weights, quantum):
    def fun(x):
        if kind == "quadratic":
            value = float(np.sum(weights * (x - center) ** 2))
        elif kind == "abs":
            value = float(np.sum(weights * np.abs(x - center)))
        elif kind == "nan_near_origin":
            # NaN where the straight-flight guess lies, and on a band around it.
            value = float(np.sum(weights * (x - center) ** 2)) if abs(x[0]) > 0.1 else float("nan")
        else:
            value = 1.5
        return value if quantum is None else float(np.floor(value / quantum) * quantum)

    return fun


def _assert_same_points(fun, simplex, budget):
    expected = _scipy_points(fun, simplex, budget)
    got, converged = _generator_points(fun, simplex, budget)
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.tobytes() == b.tobytes()
    return converged


@settings(max_examples=150, deadline=None)
@given(
    dim=st.integers(1, 24),
    budget=st.integers(1, 400),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["quadratic", "abs", "constant"]),
    quantum=st.sampled_from([None, 1e-3, 0.1, 1.0, 10.0]),
    planner_simplex=st.booleans(),
)
def test_search_replays_scipy_point_for_point(dim, budget, seed, kind, quantum, planner_simplex):
    rng = np.random.default_rng(seed)
    if planner_simplex:
        simplex = _initial_simplex(rng.uniform(-1.0, 1.0, dim), 0.25)
    else:
        simplex = rng.uniform(-1.0, 1.0, (dim + 1, dim))
    fun = _objective(kind, rng.uniform(-1.0, 1.0, dim), rng.uniform(0.1, 10.0, dim), quantum)
    _assert_same_points(fun, simplex, budget)


@pytest.mark.parametrize("kind", ["quadratic", "abs", "constant"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_search_replays_scipy_up_to_convergence(kind, dim):
    rng = np.random.default_rng(dim)
    simplex = _initial_simplex(rng.uniform(-1.0, 1.0, dim), 0.25)
    fun = _objective(kind, rng.uniform(-1.0, 1.0, dim), rng.uniform(0.1, 10.0, dim), None)
    assert _assert_same_points(fun, simplex, 2_000)


@pytest.mark.parametrize("dim", [17, 20, 24])
def test_search_replays_scipy_on_tied_values_past_sixteen_vertices(dim):
    # Coarse quantization ties most vertices, where numpy's default argsort
    # of more than 16 values is not stable, so both sorting passes matter.
    rng = np.random.default_rng(dim)
    simplex = _initial_simplex(rng.uniform(-1.0, 1.0, dim), 0.25)
    fun = _objective("quadratic", rng.uniform(-1.0, 1.0, dim), np.ones(dim), 2.0)
    values = [fun(x) for x in simplex]
    assert len(set(values)) < len(values)
    _assert_same_points(fun, simplex, 300)


# ------------------------------------------------- the search generator


def _reference_search(dim, budget, rng, score):
    """The search as ``plan_step`` ran it before ``_search``: the guess scored alone first.

    ``score`` maps an (m, dim) batch of normalized points to m values.  The
    straight-flight guess is scored in a call of its own and charged, then
    charged again as vertex 0 of the first simplex, whose score it reuses.
    (``_nelder_mead`` now yields only 2-D batches, so the loop's reshape and
    its unpacking of a single point's value are gone.)
    """
    best_y = np.zeros(dim)
    (best_value,) = score(best_y[None])
    evals = 1
    guess_value = best_value  # until the first simplex reuses it as vertex 0's
    start = best_y
    while budget - evals >= dim + 2:
        search = _nelder_mead(_initial_simplex(start, 0.25), xatol=1e-3, fatol=1e-9)
        values = None
        while evals < budget:
            try:
                points = search.send(values)
            except StopIteration:
                break
            batch = np.minimum(np.maximum(points, -1.0), 1.0)[: budget - evals]
            if guess_value is None:
                values = score(batch)
            else:
                values = [guess_value] + score(batch[1:])
                guess_value = None
            evals += len(batch)
            for i, value in enumerate(values):
                if value < best_value:
                    best_value, best_y = value, batch[i]
        start = np.clip(best_y + rng.uniform(-0.2, 0.2, size=dim), -1.0, 1.0)
    return best_y


def _drive(search, score):
    """Feed every batch a search generator yields to ``score``; its return value."""
    try:
        batch = next(search)
        while True:
            batch = search.send(score(batch))
    except StopIteration as done:
        return done.value


def _recording(fun):
    """A batch scorer applying ``fun`` per row, and the list of batches it was called with."""
    calls = []

    def score(batch):
        calls.append(np.array(batch))
        return [fun(row) for row in batch]

    return score, calls


def _assert_same_calls(new_calls, reference_calls, dim, budget):
    # The reference's first call is the guess alone; the new search scores it
    # inside its first batch, and below a full simplex not at all.
    guess, *reference_rest = reference_calls
    assert guess.tobytes() == np.zeros((1, dim)).tobytes()
    if budget < dim + 3:
        assert new_calls == [] and reference_rest == []
        return
    reference_rest[0] = np.concatenate([guess, reference_rest[0]])
    assert len(new_calls) == len(reference_rest)
    for a, b in zip(new_calls, reference_rest):
        assert a.tobytes() == b.tobytes()


@settings(max_examples=150, deadline=None)
@given(
    horizon=st.integers(1, 6),
    budget=st.integers(1, 200),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["quadratic", "abs", "constant", "nan_near_origin"]),
    quantum=st.sampled_from([None, 1e-3, 0.1, 1.0, 10.0]),
)
def test_search_replays_the_guess_first_loop(horizon, budget, seed, kind, quantum):
    dim = 2 * horizon
    setup = np.random.default_rng(seed)
    fun = _objective(kind, setup.uniform(-1.0, 1.0, dim), setup.uniform(0.1, 10.0, dim), quantum)
    new_score, new_calls = _recording(fun)
    reference_score, reference_calls = _recording(fun)
    new_rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _drive(planning._search(dim, budget, new_rng), new_score)
    expected = _reference_search(dim, budget, reference_rng, reference_score)
    _assert_same_calls(new_calls, reference_calls, dim, budget)
    assert got.tobytes() == expected.tobytes()
    assert new_rng.bit_generator.state == reference_rng.bit_generator.state


def _reference_plan_step(uav, belief, scenario, config, rng):
    scales = np.array([scenario.accel_max, scenario.bank_max] * config.horizon)
    if config.objective is PlannerObjective.RSMHP:
        process_raw = planning._frozen_draws(config, rng)
    else:
        process_raw = np.zeros((1, config.horizon, 4))
    score = planning._trace_objective(uav, belief, scenario, process_raw)
    best = _reference_search(2 * config.horizon, config.eval_budget, rng, lambda b: score((b * scales).tolist()))
    return UavControl(*(best * scales)[:2].tolist())


@settings(max_examples=30, deadline=None)
@given(
    horizon=st.integers(1, 6),
    budget=st.integers(1, 159),
    arm=st.sampled_from([(PlannerObjective.NBO, 50), (PlannerObjective.RSMHP, 1),
                         (PlannerObjective.RSMHP, 3), (PlannerObjective.RSMHP, 50)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_plan_step_replays_the_guess_first_loop(horizon, budget, arm, seed):
    setup = np.random.default_rng(seed)
    uav = UavState(setup.uniform(-500.0, 500.0, 2), setup.uniform(-np.pi, np.pi), setup.uniform(20.0, 40.0))
    mean = np.concatenate([setup.uniform(-800.0, 800.0, 2), setup.uniform(-10.0, 10.0, 2)])
    belief = TargetBelief(mean, np.diag(np.repeat(setup.uniform([50.0, 4.0], [900.0, 40.0]), 2)))
    objective, n = arm
    cfg = PlannerConfig(horizon=horizon, n_trajectories=n, objective=objective, eval_budget=budget)
    new_rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = plan_step(uav, belief, ScenarioConfig(), cfg, new_rng)
    assert got == _reference_plan_step(uav, belief, ScenarioConfig(), cfg, reference_rng)
    assert new_rng.bit_generator.state == reference_rng.bit_generator.state


def _lockstep(searches, score):
    """Advance the searches a round at a time, scoring each round's batches in one call."""
    results = [None] * len(searches)
    pending = {}
    for i, search in enumerate(searches):
        try:
            pending[i] = next(search)
        except StopIteration as done:
            results[i] = done.value
    while pending:
        values = score(np.concatenate(list(pending.values())))
        start = 0
        for i, batch in list(pending.items()):
            part, start = values[start : start + len(batch)], start + len(batch)
            try:
                pending[i] = searches[i].send(part)
            except StopIteration as done:
                del pending[i]
                results[i] = done.value
    return results


@settings(max_examples=60, deadline=None)
@given(
    horizon=st.integers(1, 6),
    budgets=st.lists(st.integers(1, 200), min_size=2, max_size=2, unique=True),
    seeds=st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=2, unique=True),
    kind=st.sampled_from(["quadratic", "abs", "constant"]),
    quantum=st.sampled_from([None, 0.1]),
)
def test_searches_run_in_lockstep_return_what_each_returns_alone(horizon, budgets, seeds, kind, quantum):
    dim = 2 * horizon
    setup = np.random.default_rng(seeds[0])
    fun = _objective(kind, setup.uniform(-1.0, 1.0, dim), setup.uniform(0.1, 10.0, dim), quantum)
    score, calls = _recording(fun)
    alone_rngs = [np.random.default_rng(seed) for seed in seeds]
    alone = [_drive(planning._search(dim, b, rng), score) for b, rng in zip(budgets, alone_rngs)]
    lockstep_rngs = [np.random.default_rng(seed) for seed in seeds]
    together = _lockstep([planning._search(dim, b, rng) for b, rng in zip(budgets, lockstep_rngs)], score)
    for a, b in zip(together, alone):
        assert a.tobytes() == b.tobytes()
    for a, b in zip(lockstep_rngs, alone_rngs):
        assert a.bit_generator.state == b.bit_generator.state


# ------------------------------------------------------------ budget rule


def _record_calls(monkeypatch):
    """Each scorer call ``plan_step`` makes, as its list of flat candidates."""
    calls = []
    trace_objective = planning._trace_objective

    def counted(*args):
        totals = trace_objective(*args)

        def wrapped(candidates):
            calls.append([list(flat) for flat in candidates])
            return totals(candidates)

        return wrapped

    monkeypatch.setattr(planning, "_trace_objective", counted)
    return calls


def _plan(horizon, budget, objective=PlannerObjective.NBO):
    uav = UavState(position=np.array([0.0, 0.0]), heading=0.0, speed=30.0)
    belief = TargetBelief(
        mean=np.array([600.0, 400.0, 5.0, 0.0]), covariance=np.diag([400.0, 400.0, 16.0, 16.0])
    )
    cfg = PlannerConfig(horizon=horizon, n_trajectories=5, objective=objective, eval_budget=budget)
    return plan_step(uav, belief, ScenarioConfig(), cfg, np.random.default_rng(4))


@pytest.mark.parametrize("objective", list(PlannerObjective))
@pytest.mark.parametrize("budget", [1, 7, 8, 9, 30, 95])
def test_plan_step_scores_at_most_its_budget(monkeypatch, objective, budget):
    # horizon 3 searches 6 coordinates.  The straight-flight guess is charged
    # twice and scored once, as vertex 0 of the first simplex, so a search
    # needs dim + 3 = 9 and scores between dim + 1 and budget - 1 candidates.
    calls = _record_calls(monkeypatch)
    _plan(3, budget, objective)
    scored = sum(len(call) for call in calls)
    if budget < 9:
        assert scored == 0
    else:
        assert 7 <= scored <= budget - 1


@pytest.mark.parametrize("budget", [1, 2, 5, 7, 8])
def test_plan_step_under_a_full_simplex_scores_only_straight_flight(monkeypatch, budget):
    # Below a full simplex nothing is scored, and straight flight is returned.
    calls = _record_calls(monkeypatch)
    control = _plan(3, budget)
    assert calls == []
    assert control.forward_acceleration == 0.0 and control.bank_angle == 0.0


@pytest.mark.parametrize("objective", list(PlannerObjective))
def test_plan_step_at_the_shipped_budget_makes_one_batch_then_single_points(monkeypatch, objective):
    # Horizon 6 and budget 90: the first simplex's 13 vertices in one call,
    # then 76 single points; the guess is charged twice, so 90 in all.
    calls = _record_calls(monkeypatch)
    _plan(6, 90, objective)
    assert [len(call) for call in calls] == [13] + [1] * 76
    assert calls[0][0] == [0.0] * 12
    assert 1 + sum(len(call) for call in calls) == 90


# ------------------------------------------------------- runtime imports


def test_runtime_loads_no_scipy():
    script = (
        "import sys\n"
        "import numpy as np\n"
        "import rsmhp, rsmhp.uav, rsmhp.experiments.cli\n"
        "from rsmhp.uav import PlannerConfig, ScenarioConfig, TargetBelief, UavState, plan_step\n"
        "belief = TargetBelief(np.array([600.0, 400.0, 5.0, 0.0]), np.diag([400.0, 400.0, 16.0, 16.0]))\n"
        "uav = UavState(position=np.array([0.0, 0.0]), heading=0.0, speed=30.0)\n"
        "plan_step(uav, belief, ScenarioConfig(), PlannerConfig(eval_budget=30), np.random.default_rng(0))\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
