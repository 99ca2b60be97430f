"""The planner's simplex search: scipy as replay oracle, the budget rule, no scipy at runtime.

``planning._nelder_mead`` is a transcription of scipy's Nelder-Mead for the
options ``plan_step`` uses.  Driven to the same budget on the same
objective, it must evaluate the same points as
``scipy.optimize.minimize(method="Nelder-Mead")``, bit for bit, in the same
order and the same number.
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

from rsmhp.uav import PlannerConfig, PlannerObjective, ScenarioConfig, TargetBelief, UavState
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

    A yielded 2-D array is a batch of points, cut to the budget left and
    answered with one value per scored row; a 1-D array is one point.
    """
    search = _nelder_mead(simplex, xatol=XATOL, fatol=FATOL)
    points, values = [], None
    while len(points) < budget:
        try:
            x = search.send(values)
        except StopIteration:
            return points, True
        batch = x.reshape(-1, x.shape[-1])[: budget - len(points)]
        points.extend(row.copy() for row in batch)
        values = [fun(row) for row in batch]
        if x.ndim == 1:
            (values,) = values
    return points, False


def _objective(kind, center, weights, quantum):
    def fun(x):
        if kind == "quadratic":
            value = float(np.sum(weights * (x - center) ** 2))
        elif kind == "abs":
            value = float(np.sum(weights * np.abs(x - center)))
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


# ------------------------------------------------------------ budget rule


def _count_evaluations(monkeypatch):
    calls = []
    trace_objective = planning._trace_objective

    def counted(*args):
        totals = trace_objective(*args)

        def wrapped(candidates):
            calls.extend(list(flat) for flat in candidates)
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
    calls = _count_evaluations(monkeypatch)
    _plan(3, budget, objective)
    assert 1 <= len(calls) <= budget


@pytest.mark.parametrize("budget", [1, 2, 5, 7])
def test_plan_step_under_a_full_simplex_scores_only_straight_flight(monkeypatch, budget):
    # horizon 3 searches 6 coordinates: a search needs dim + 2 = 8 evaluations left.
    calls = _count_evaluations(monkeypatch)
    control = _plan(3, budget)
    assert calls == [[0.0] * 6]
    assert control.forward_acceleration == 0.0 and control.bank_angle == 0.0


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
