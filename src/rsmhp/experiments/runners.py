"""Experiment runners: one deterministic study per kind.

Each runner maps a validated spec to CSV tables plus a summary dict.  All
randomness is derived from the spec's master seed through named spawn keys,
so results are a pure function of the spec.  The replicated studies derive
one seed per replication and cut the seeds into chunks of about
``_CHUNK_ROWS`` sampled rows (``_replicate``); each chunk is one stacked
sampler call, whose set holds one row per replication, and one estimator
call per estimate, which reduces every replication at once.  The
independent tasks of a study (chunks, grid points, tracking episodes) go
through ``_map``, the one place where ``workers`` acts: it spreads them over
forked worker processes and never changes a single value.  Neither the
chunk size nor the worker count changes a CSV byte.  ``run_experiment`` is
the dispatch point that also writes the artifacts.
"""
from __future__ import annotations

import multiprocessing
import time
from dataclasses import asdict
from pathlib import Path
from statistics import NormalDist

import numpy as np

from .. import __version__
from .._checks import check_int
from .._seeds import seed_states
from ..estimators import estimate_mean, estimate_nbo, estimate_weighted
from ..linear import (
    LinearModel,
    LqgParams,
    chebyshev_bound,
    linear_stochastic_model,
    lqg_exact_cost,
    lqg_stochastic_model,
    var_p,
)
from ..sampling import SamplerConfig, sample_independent, sample_tree, sample_tree_pruned
from ..uav import run_episode
from .io import json_text, write_csv, write_json
from .spec import ExperimentKind, ExperimentSpec, tracking_setup

__all__ = [
    "run_experiment",
    "run_lqg_convergence",
    "run_chebyshev_coverage",
    "run_variance_scaling",
    "run_pruning_study",
    "run_uav_monte_carlo",
    "run_covariance_decay",
]


_task = None


def _install_task(fn) -> None:
    global _task
    _task = fn


def _run_task(item):
    return _task(item)


def _map(fn, items, workers: int) -> list:
    """``[fn(item) for item in items]``, spread over up to ``workers`` processes.

    Results come back in item order whatever the process count.  A forked
    worker receives ``fn`` through the pool initializer without pickling,
    which the runners' closures would not survive, and calls it through the
    module-level ``_run_task``.  Without the ``fork`` start method the tasks
    run serially.
    """
    items = list(items)
    if workers == 1 or len(items) < 2 or "fork" not in multiprocessing.get_all_start_methods():
        return [fn(item) for item in items]
    context = multiprocessing.get_context("fork")
    with context.Pool(min(workers, len(items)), _install_task, (fn,)) as pool:
        return pool.map(_run_task, items)


def _derived_seeds(master_seed: int, index: int, count: int) -> list[int]:
    """Task seeds of ``master_seed`` with spawn keys ``(index, i)`` for i < ``count``.

    Each is the first 64-bit state word of numpy's ``SeedSequence`` of that
    seed and key, bit for bit; ``seed_states`` derives them in one pass.
    """
    keys = np.column_stack([np.full(count, index), np.arange(count)])
    return seed_states(master_seed, keys, 1)[:, 0].tolist()


# Rows one stacked sampler call may hold.  Larger chunks cut per-call
# overhead further but raise peak memory; at 2^14 rows the arrays of one
# covariance_decay call take about 1.6 MB.
_CHUNK_ROWS = 2**14


def _chunks(seeds: list[int], rows_each: int) -> list[tuple[int, ...]]:
    """Consecutive runs of ``seeds`` that differ in length by at most one.

    Each run holds at most ``_CHUNK_ROWS // rows_each`` seeds, and at least one.
    """
    per_chunk = max(1, _CHUNK_ROWS // rows_each)
    count = -(-len(seeds) // per_chunk)
    base, extra = divmod(len(seeds), count)
    bounds = [i * base + min(i, extra) for i in range(count + 1)]
    return [tuple(seeds[start:stop]) for start, stop in zip(bounds, bounds[1:])]


def _replicate(fn, master_seed: int, index: int, reps: int, rows_each: int, workers: int) -> np.ndarray:
    """Per-replication results of ``reps`` replications, stacked in replication order.

    Replication r runs on seed r of ``_derived_seeds(master_seed, index,
    reps)``, all derived in one pass.  ``fn`` takes a chunk of seeds, makes
    one stacked sampler call of about ``rows_each`` rows per seed, and
    returns an array with one leading row per seed.
    """
    seeds = _derived_seeds(master_seed, index, reps)
    return np.concatenate(_map(fn, _chunks(seeds, rows_each), workers))


def _scalar_benchmark(params):
    """The shared scalar linear test model and its exact expected cost.

    The stage and terminal costs are linear in the state and the noise has
    zero mean, so the exact expectation equals the nominal-path value.
    """
    model = LinearModel(
        a_matrix=params.a, b_matrix=0.0, cost_state=params.cost, cost_control=0.0,
        noise_cov=params.sigma, horizon=params.horizon,
    )
    stochastic = linear_stochastic_model(model, params.x0)
    controls = [0.0] * params.horizon
    exact = estimate_nbo(stochastic, controls).value
    return model, stochastic, controls, exact


def run_lqg_convergence(spec: ExperimentSpec, workers: int = 1):
    """Mean-estimator and nominal errors across a grid of path counts."""
    p = spec.params
    lqg = LqgParams(a=p.a, r=p.r, target=p.target, sigma=p.sigma, x0=p.x0, horizon=p.horizon)
    model = lqg_stochastic_model(lqg)
    controls = p.controls
    exact = lqg_exact_cost(lqg, controls)
    nominal = estimate_nbo(model, controls).value
    grid = list(range(p.p_min, p.p_max + 1, p.p_step))

    def one(item):
        count, seed = item
        config = SamplerConfig(branch_factor=count, master_seed=seed)
        sampled = estimate_mean(sample_independent(model, controls, config)).value
        return (
            count, sampled, nominal, exact,
            abs(sampled - exact), abs(nominal - exact),
        )

    rows = _map(one, list(zip(grid, _derived_seeds(spec.master_seed, 0, len(grid)))), workers)
    header = ["p", "j_mhp", "j_nbo", "j_exact", "abs_err_mhp", "abs_err_nbo"]
    summary = {
        "rows": len(rows),
        "abs_err_nbo_max": max(row[5] for row in rows),
        "abs_err_nbo_min": min(row[5] for row in rows),
        "abs_err_mhp_last": rows[-1][4],
    }
    return {"results.csv": (header, rows)}, summary


def run_chebyshev_coverage(spec: ExperimentSpec, workers: int = 1):
    """Empirical tail probabilities of the mean estimator versus the bound."""
    p = spec.params
    model, stochastic, controls, exact = _scalar_benchmark(p)
    spread = var_p(model)
    if p.epsilon_unit == "deviation":
        epsilons = [eps * float(np.sqrt(spread)) for eps in p.epsilons]
    else:
        epsilons = list(p.epsilons)

    rows = []
    for n_index, count in enumerate(p.n_values):
        def chunk(seeds, _count=count):
            config = SamplerConfig(branch_factor=_count, seeds=seeds)
            paths = sample_independent(stochastic, controls, config)
            return np.abs(estimate_mean(paths).value - exact)

        errors = _replicate(chunk, spec.master_seed, n_index, p.reps, count, workers)
        for epsilon in epsilons:
            exceed = float(np.mean(errors >= epsilon))
            bound = chebyshev_bound(model, count, epsilon)
            rows.append((count, epsilon, exceed, bound))

    header = ["n", "epsilon", "exceed_probability", "bound"]
    summary = {
        "rows": len(rows),
        "var_p": spread,
        "exact_cost": exact,
        "max_excess_over_bound": max(row[2] - row[3] for row in rows),
    }
    return {"results.csv": (header, rows)}, summary


def run_variance_scaling(spec: ExperimentSpec, workers: int = 1):
    """Inter-replication variance of the mean estimator versus path count."""
    p = spec.params
    _, stochastic, controls, _ = _scalar_benchmark(p)

    rows = []
    for n_index, count in enumerate(p.n_values):
        def chunk(seeds, _count=count):
            config = SamplerConfig(branch_factor=_count, seeds=seeds)
            paths = sample_independent(stochastic, controls, config)
            return estimate_mean(paths).value

        values = _replicate(chunk, spec.master_seed, n_index, p.reps, count, workers)
        rows.append((count, p.reps, float(np.var(values, ddof=1))))

    header = ["n", "reps", "variance"]
    counts = np.array([row[0] for row in rows], dtype=float)
    variances = np.array([row[2] for row in rows])
    slope = float(np.polyfit(np.log(counts), np.log(variances), 1)[0])
    summary = {"rows": len(rows), "log_log_slope": slope}
    return {"results.csv": (header, rows)}, summary


def run_pruning_study(spec: ExperimentSpec, workers: int = 1):
    """Error of pruned-tree estimators as the retained width varies."""
    p = spec.params
    _, stochastic, controls, exact = _scalar_benchmark(p)

    full = p.branch_factor ** (p.horizon - 1)
    rows = []
    for m_index, width in enumerate(p.m_values):
        def chunk(seeds, _width=width):
            config = SamplerConfig(branch_factor=p.branch_factor, prune_width=_width, seeds=seeds)
            paths = sample_tree_pruned(stochastic, controls, config)
            mean = estimate_mean(paths).value
            weighted = estimate_weighted(paths).value
            return np.column_stack([np.abs(mean - exact), np.abs(weighted - exact)])

        # Every replication keeps min(width, full) leaves, but holds up to
        # width * branch_factor candidates before each cut.
        leaves = min(width, full)
        rows_each = min(width * p.branch_factor, full)
        errors = _replicate(chunk, spec.master_seed, m_index, p.reps, rows_each, workers)
        rows.append(
            (
                width, leaves,
                float(np.median(errors[:, 0])),
                float(np.median(errors[:, 1])),
            )
        )

    header = ["m", "leaves", "median_abs_err_mean", "median_abs_err_weighted"]
    best = min(rows, key=lambda row: row[3])
    summary = {
        "rows": len(rows),
        "best_m_weighted": best[0],
        "best_median_abs_err_weighted": best[3],
    }
    return {"results.csv": (header, rows)}, summary


def run_uav_monte_carlo(spec: ExperimentSpec, workers: int = 1):
    """Paired tracking studies: nominal planner versus sampled planners.

    All planner arms share the scenario seed, so every arm faces the same
    target paths and the same raw measurement noise.  One CDF file is
    written per arm.
    """
    p = spec.params
    scenario, arms = tracking_setup(p, spec.master_seed)

    def one(item):
        arm, run = item
        return float(run_episode(scenario, arms[arm][1], run).mean())

    episodes = [(arm, run) for arm in range(len(arms)) for run in range(p.n_runs)]
    means = np.array(_map(one, episodes, workers)).reshape(len(arms), p.n_runs)
    tables = {}
    summary = {"arms": {}}
    for (name, _), errors in zip(arms, means):
        order = np.argsort(errors, kind="stable")
        ordered = errors[order]
        rows = [
            (int(run), float(err), float((rank + 1) / p.n_runs))
            for rank, (run, err) in enumerate(zip(order, ordered))
        ]
        tables[f"cdf_{name}.csv"] = (["run_index", "mean_error", "cdf"], rows)
        summary["arms"][name] = {
            "mean": float(ordered.mean()),
            "median": float(np.median(ordered)),
        }
    return tables, summary


def run_covariance_decay(spec: ExperimentSpec, workers: int = 1):
    """Cross-branch cost covariance z-tests on the fresh-noise tree.

    Leaves are indexed in branch-digit order, so two leaves whose indices
    differ by more than the branch factor sit in different first-level
    subtrees and share no noise draws; their covariances should pass a
    zero-mean test.
    """
    p = spec.params
    _, stochastic, controls, _ = _scalar_benchmark(p)
    branch = p.branch_factor
    reps = p.reps
    n_leaves = branch ** (p.horizon - 1)

    def chunk(seeds):
        config = SamplerConfig(branch_factor=branch, seeds=seeds)
        return sample_tree(stochastic, controls, config).costs

    costs = _replicate(chunk, spec.master_seed, 0, reps, n_leaves, workers)
    centered = costs - costs.mean(axis=0)

    rows = []
    for i in range(n_leaves):
        for j in range(i + 1, n_leaves):
            products = centered[:, i] * centered[:, j]
            covariance = float(products.sum() / (reps - 1))
            scale = float(products.std(ddof=1))
            z = float(products.mean() / (scale / np.sqrt(reps))) if scale > 0 else 0.0
            rows.append((i, j, j - i, covariance, z))

    header = ["i", "j", "lag", "covariance", "z"]
    critical = NormalDist().inv_cdf(0.995)
    far = [row for row in rows if row[2] > branch]
    summary = {
        "rows": len(rows),
        "critical_z_two_sided_1pct": critical,
        "max_abs_z_beyond_branch_factor": max(abs(row[4]) for row in far) if far else 0.0,
        "pairs_beyond_branch_factor": len(far),
    }
    return {"results.csv": (header, rows)}, summary


_RUNNERS = {
    ExperimentKind.LQG_CONVERGENCE: run_lqg_convergence,
    ExperimentKind.CHEBYSHEV_COVERAGE: run_chebyshev_coverage,
    ExperimentKind.VARIANCE_SCALING: run_variance_scaling,
    ExperimentKind.PRUNING_STUDY: run_pruning_study,
    ExperimentKind.UAV_MONTE_CARLO: run_uav_monte_carlo,
    ExperimentKind.COVARIANCE_DECAY: run_covariance_decay,
}


def run_experiment(spec: ExperimentSpec, workers: int = 1) -> dict:
    """Run ``spec``, which checked itself when built, and write its CSV tables plus metadata JSON.

    Returns the metadata dict.  Output lands only inside ``spec.output``;
    rerunning an identical spec overwrites the same files with identical
    bytes (the metadata's wall time aside).  Metadata that JSON cannot hold
    raises before the first file is written.
    """
    check_int("workers", workers, 1)
    runner = _RUNNERS[spec.kind]
    start = time.perf_counter()
    tables, summary = runner(spec, workers)
    files = sorted(tables)
    metadata = {
        "kind": spec.kind.value,
        "master_seed": spec.master_seed,
        "parameters": asdict(spec.params),
        "library_version": __version__,
        "wall_time_seconds": time.perf_counter() - start,
        "files": files,
        "summary": summary,
    }
    json_text(metadata)

    out_dir = Path(spec.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in files:
        header, rows = tables[name]
        write_csv(out_dir / name, header, rows)
    write_json(out_dir / "metadata.json", metadata)
    return metadata
