"""End-to-end acceptance gate: one test per published claim of the library.

Each test computes its measured quantities, prints a single PASS/FAIL line
with the numbers (visible with ``pytest -s`` or ``-rA``), and then asserts.
The heavy closed-loop tracking study runs off the shipped config file and
takes a few minutes; everything else is seconds.
"""
from __future__ import annotations

import math
import time
from pathlib import Path
from statistics import NormalDist

import numpy as np
from scipy.stats import chi2

from conftest import (
    CyclicNoise,
    accumulator_model,
    enumerate_expectation,
    likeliness_rank,
    set_arrays_equal,
    tracking_objective_oracle,
)
from rsmhp import (
    GaussianNoise,
    LinearModel,
    LqgParams,
    SamplerConfig,
    estimate_mean,
    estimate_nbo,
    estimate_weighted,
    linear_stochastic_model,
    lqg_cost_variance,
    lqg_exact_cost,
    lqg_stochastic_model,
    nbo_error,
    sample_independent,
    sample_tree,
    sample_tree_pruned,
    var_p,
)
from rsmhp.experiments import ExperimentSpec, load_spec, run_experiment
from rsmhp.experiments.io import read_csv
from rsmhp.experiments.runners import run_lqg_convergence, run_variance_scaling
from rsmhp.experiments.spec import ExperimentKind, LqgConvergenceParams, VarianceScalingParams, _PARAMS
from rsmhp.uav import (
    PlannerConfig,
    PlannerObjective,
    ScenarioConfig,
    TargetBelief,
    UavControl,
    UavState,
    objective_mhp,
    objective_nbo,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

TOY = LqgParams(a=0.5, r=10.0, target=1.0, sigma=1.0, x0=0.0, horizon=2)
TOY_CONTROLS = [0.55, 0.17]


def _report(ok: bool, text: str) -> str:
    line = f"{'PASS' if ok else 'FAIL'}: {text}"
    print(line)
    return line


def test_01_nominal_gap_identity():
    start = time.perf_counter()
    model = lqg_stochastic_model(TOY)
    gap = lqg_exact_cost(TOY, TOY_CONTROLS) - estimate_nbo(model, TOY_CONTROLS).value
    closed = nbo_error(TOY)
    elapsed = time.perf_counter() - start

    ok_value = abs(closed - 12.5) <= 1e-9 * 12.5
    ok_gap = abs(gap - closed) <= 1e-9 * abs(closed)
    ok_time = elapsed < 1.0
    ok = ok_value and ok_gap and ok_time
    line = _report(
        ok,
        f"nominal gap identity: closed form {closed!r} vs 12.5, "
        f"measured gap deviation {abs(gap - closed):.2e} (tol 1e-9 rel), "
        f"{elapsed:.3f}s < 1s",
    )
    assert ok, line


def test_02_sampled_mean_convergence_across_seeds():
    start = time.perf_counter()
    model = lqg_stochastic_model(TOY)
    exact = lqg_exact_cost(TOY, TOY_CONTROLS)
    variance = lqg_cost_variance(TOY, TOY_CONTROLS)

    # Grid sweep at one seed: the sampled error shrinks while the nominal
    # error stays pinned at the 12.5 gap, so every row's sampled error is
    # below its nominal error.
    spec = ExperimentSpec(
        kind=ExperimentKind.LQG_CONVERGENCE,
        master_seed=0,
        output="unused",
        params=LqgConvergenceParams(),
    )
    tables, summary = run_lqg_convergence(spec)
    _, rows = tables["results.csv"]
    ok_grid = len(rows) == 100 and all(
        abs(row[5] - 12.5) <= 1e-9 * 12.5 and row[4] < row[5] for row in rows
    )

    # Targets fixed before any estimate is drawn, from the analytic standard
    # error of the sample mean and a stated confidence.  At 99.9% two-sided
    # the threshold is z = 3.29 standard errors (~0.816 absolute), so an
    # unbiased estimator lands inside in 99.9% of seeds and reaches 99 of
    # 100 with probability 1 - 0.999^100 - 100 * 0.999^99 * 0.001 = 99.5%.
    # An absolute 0.5 would be only 2.02 standard errors: 95.6% of seeds
    # land inside and 99 of 100 comes up 6.4% of the time, so a correct
    # estimator would fail it.  The spread check tests the 1/sqrt(P) rate:
    # the sample SD of the errors over the analytic standard error must lie
    # in the 99.9% chi-square band for seeds - 1 degrees of freedom.
    seeds, path_count, needed = range(100), 10_000, 99
    confidence = 0.999
    stderr = math.sqrt(variance / path_count)
    z = NormalDist().inv_cdf(0.5 + confidence / 2)
    threshold = z * stderr
    dof = len(seeds) - 1
    sd_low, sd_high = (
        math.sqrt(chi2.ppf(q, dof) / dof)
        for q in ((1 - confidence) / 2, (1 + confidence) / 2)
    )

    # Fixed seeds 0..99, one estimate each at the largest path count.
    errors = np.array([
        estimate_mean(sample_independent(
            model, TOY_CONTROLS,
            SamplerConfig(branch_factor=path_count, master_seed=seed),
        )).value - exact
        for seed in seeds
    ])
    elapsed = time.perf_counter() - start

    hits = int(np.sum(np.abs(errors) < threshold))
    beats_nominal = int(np.sum(np.abs(errors) < 12.5))
    sd_ratio = float(np.std(errors, ddof=1)) / stderr
    # Reported context only: hits inside an absolute 0.5 (2.02 standard errors).
    hits_at_half = int(np.sum(np.abs(errors) < 0.5))
    rate_at_half = 2 * NormalDist().cdf(0.5 / stderr) - 1

    ok_order = beats_nominal >= needed
    ok_seeds = hits >= needed
    ok_spread = sd_low <= sd_ratio <= sd_high
    ok_time = elapsed < 60.0
    ok = ok_grid and ok_order and ok_seeds and ok_spread and ok_time
    line = _report(
        ok,
        f"sampled-mean convergence: grid sampled < nominal 12.5 on every row "
        f"ok={ok_grid}, sampled beats the nominal 12.5 in "
        f"{beats_nominal}/{len(seeds)} fixed seeds, "
        f"|est-J| < {z:.2f} standard errors ({threshold:.3f}, "
        f"{confidence:.1%} two-sided) at P={path_count} in "
        f"{hits}/{len(seeds)} fixed seeds (needed {needed}), "
        f"error SD / standard error {sd_ratio:.2f} in "
        f"[{sd_low:.2f}, {sd_high:.2f}]; context: {hits_at_half}/{len(seeds)} "
        f"within 0.5 (expected ~{rate_at_half:.1%}), {elapsed:.1f}s < 60s",
    )
    assert ok, line


def test_03_tail_probabilities_within_bound(tmp_path):
    start = time.perf_counter()
    spec = load_spec(CONFIG_DIR / "chebyshev_coverage.ini")
    meta = run_experiment(spec.with_overrides(output=tmp_path), workers=1)
    _, rows = read_csv(tmp_path / "results.csv")
    elapsed = time.perf_counter() - start

    reps = spec.params["reps"]
    spread = math.sqrt(3.25)
    seen = set()
    worst = -1.0
    ok_rows = True
    for raw in rows:
        n, eps, exceed, bound = (float(v) for v in raw)
        seen.add((int(n), round(eps / spread, 12)))
        prob = min(bound, 1.0)
        slack = 3.0 * math.sqrt(prob * (1.0 - prob) / reps)
        worst = max(worst, exceed - bound)
        ok_rows = ok_rows and exceed <= bound + slack
    ok_grid = seen == {(n, e) for n in (100, 1000) for e in (0.25, 0.5, 1.0)}
    ok_var = meta["summary"]["var_p"] == 3.25
    ok_time = elapsed < 60.0
    ok = ok_rows and ok_grid and ok_var and ok_time
    line = _report(
        ok,
        f"tail probabilities: {len(rows)} rows over N in (100, 1000) and "
        f"eps in (0.25, 0.5, 1.0) cost deviations, all within bound + 3 binomial "
        f"sigma at {reps} reps (worst excess {worst:+.4f}), var_p == 3.25, "
        f"{elapsed:.1f}s < 60s",
    )
    assert ok, line


def test_04_variance_scales_inversely_with_path_count():
    start = time.perf_counter()
    spec = ExperimentSpec(
        kind=ExperimentKind.VARIANCE_SCALING,
        master_seed=0,
        output="unused",
        params=VarianceScalingParams(),
    )
    _, summary = run_variance_scaling(spec)
    elapsed = time.perf_counter() - start

    slope = summary["log_log_slope"]
    ok_slope = -1.1 <= slope <= -0.9
    ok_time = elapsed < 120.0
    ok = ok_slope and ok_time
    line = _report(
        ok,
        f"variance scaling: log-log slope {slope:.4f} in [-1.1, -0.9] over "
        f"N in (100, 1000, 10000) at 200 reps, {elapsed:.1f}s < 120s",
    )
    assert ok, line


def test_05_path_variance_formula_matches_rollouts():
    start = time.perf_counter()
    linear = LinearModel(
        a_matrix=0.5, b_matrix=0.0, cost_state=1.0, cost_control=0.0,
        noise_cov=1.0, horizon=2,
    )
    analytic = var_p(linear)
    model = linear_stochastic_model(linear, 0.0)
    config = SamplerConfig(branch_factor=100_000, master_seed=0)
    costs = sample_independent(model, [0.0, 0.0], config).costs
    empirical = float(np.var(costs, ddof=1))
    elapsed = time.perf_counter() - start

    rel = abs(empirical - analytic) / analytic
    ok = analytic == 3.25 and rel <= 0.05 and elapsed < 10.0
    line = _report(
        ok,
        f"per-path variance: analytic {analytic} vs empirical {empirical:.4f} "
        f"over 100000 rollouts (rel {rel:.4f} <= 0.05), {elapsed:.1f}s < 10s",
    )
    assert ok, line


def test_06_pruned_tree_matches_enumerate_and_sort_oracle():
    noise = GaussianNoise([0.3], [[1.0]])
    model = accumulator_model(noise, horizon=3, with_terminal=True, x0=1.0)
    controls = np.zeros(3)

    full = sample_tree(model, controls, SamplerConfig(branch_factor=3, master_seed=11))
    pruned = sample_tree_pruned(
        model, controls, SamplerConfig(branch_factor=3, prune_width=4, master_seed=11)
    )
    # Brute-force oracle: enumerate all 9 leaves of the unpruned tree, sort
    # by likeliness (ties by branch digits), keep the top 4.
    keep = likeliness_rank(full)[:4]
    ok_exact = (
        len(full) == 9
        and len(pruned) == 4
        and np.array_equal(pruned.states, full.states[keep])
        and np.array_equal(pruned.costs, full.costs[keep])
        and np.array_equal(pruned.raw_likeliness, full.raw_likeliness[keep])
        and np.array_equal(pruned.branch_paths, full.branch_paths[keep])
    )

    # Keeping at least as many stubs as the tree is wide must be a no-op.
    wide = sample_tree_pruned(
        model, controls, SamplerConfig(branch_factor=3, prune_width=9, master_seed=11)
    )
    ok_noop = set_arrays_equal(wide, full) and np.array_equal(
        wide.branch_paths, full.branch_paths
    )
    ok = ok_exact and ok_noop
    line = _report(
        ok,
        f"pruned tree vs oracle: top-4 of 9 leaves identical={ok_exact}, "
        f"width >= leaf count reproduces the full tree bitwise={ok_noop}",
    )
    assert ok, line


def test_07_disjoint_branches_pass_zero_covariance_ztest(tmp_path):
    spec = load_spec(CONFIG_DIR / "covariance_decay.ini")
    meta = run_experiment(spec.with_overrides(output=tmp_path), workers=1)
    _, rows = read_csv(tmp_path / "results.csv")

    branch = spec.params["branch_factor"]
    critical = meta["summary"]["critical_z_two_sided_1pct"]
    far = [row for row in rows if float(row[2]) > branch]
    worst = max(abs(float(row[4])) for row in far)
    ok_count = len(far) == 15
    ok_z = all(abs(float(row[4])) < critical for row in far)
    ok_echo = (
        meta["summary"]["pairs_beyond_branch_factor"] == len(far)
        and meta["summary"]["max_abs_z_beyond_branch_factor"] == worst
    )
    ok = ok_count and ok_z and ok_echo
    line = _report(
        ok,
        f"cross-branch covariance: {len(far)} leaf pairs split wider than the "
        f"branch factor, max |z| = {worst:.3f} < {critical:.3f} at 10000 reps "
        f"(two-sided 1% test, fixed master seed {spec.master_seed})",
    )
    assert ok, line


def test_08_weighted_tree_matches_two_point_enumeration():
    values, probs = [-1.0, 2.0], [0.7, 0.3]
    model = accumulator_model(CyclicNoise(values, probs), horizon=3, with_terminal=True)
    tree = sample_tree(model, np.zeros(3), SamplerConfig(branch_factor=2, master_seed=0))
    weighted = estimate_weighted(tree).value

    oracle_model = accumulator_model(
        CyclicNoise(values, probs), horizon=3, with_terminal=True
    )
    exact = enumerate_expectation(oracle_model, np.zeros(3), values, probs)

    deviation = abs(weighted - exact)
    ok = deviation <= 1e-12
    line = _report(
        ok,
        f"weighted two-point tree: weighted estimate {weighted!r} vs "
        f"enumerated expectation {exact!r}, |diff| = {deviation:.2e} <= 1e-12",
    )
    assert ok, line


def test_09_sampled_planner_tracking_error_ordering(tmp_path):
    start = time.perf_counter()
    spec = load_spec(CONFIG_DIR / "uav_monte_carlo.ini")
    meta = run_experiment(spec.with_overrides(output=tmp_path), workers=1)
    elapsed = time.perf_counter() - start

    arms = meta["summary"]["arms"]
    med = {name: arms[name]["median"] for name in arms}
    mean = {name: arms[name]["mean"] for name in arms}
    n_runs = meta["parameters"]["n_runs"]

    ok_runs = n_runs >= 30
    ok_chain = (
        med["nt250"] <= 1.05 * med["nt100"] and med["nt100"] <= 1.05 * med["nt50"]
    )
    ok_mean = mean["nt250"] <= mean["nbo"]
    ok_time = elapsed < 600.0
    ok = ok_runs and ok_chain and ok_mean and ok_time
    line = _report(
        ok,
        f"tracking-error ordering over {n_runs} paired episodes: medians "
        f"250/100/50 = {med['nt250']:.3f}/{med['nt100']:.3f}/{med['nt50']:.3f} "
        f"chain within 5% band={ok_chain}; means 250 = {mean['nt250']:.3f} <= "
        f"nominal {mean['nbo']:.3f} = {ok_mean}; {elapsed:.0f}s < 600s",
    )
    assert ok, line


_TINY_OVERRIDES = {
    ExperimentKind.LQG_CONVERGENCE: dict(p_min=50, p_max=200, p_step=50),
    ExperimentKind.CHEBYSHEV_COVERAGE: dict(n_values=[20, 50], reps=60),
    ExperimentKind.VARIANCE_SCALING: dict(n_values=[20, 50], reps=30),
    ExperimentKind.PRUNING_STUDY: dict(m_values=[1, 2, 9], reps=30, horizon=3),
    ExperimentKind.UAV_MONTE_CARLO: dict(
        n_runs=2, n_steps=4, horizon=2, eval_budget=12, nt_values=[3]
    ),
    ExperimentKind.COVARIANCE_DECAY: dict(horizon=3, reps=200),
}


def test_10_byte_identical_outputs_across_workers_and_reruns(tmp_path):
    checked = []
    ok = True
    for kind in ExperimentKind:
        params = _PARAMS[kind](**_TINY_OVERRIDES[kind])
        outputs = {}
        for label, workers in (("w1", 1), ("w1_again", 1), ("w3", 3)):
            out = tmp_path / kind.value / label
            spec = ExperimentSpec(
                kind=kind, master_seed=5, output=str(out), params=params
            )
            meta = run_experiment(spec, workers=workers)
            outputs[label] = {
                name: (out / name).read_bytes()
                for name in meta["files"]
                if name.endswith(".csv")
            }
        same = outputs["w1"] == outputs["w1_again"] == outputs["w3"]
        ok = ok and same and len(outputs["w1"]) > 0
        checked.append(f"{kind.value}={'ok' if same else 'DIFFERS'}")
    line = _report(
        ok,
        "byte-identical tables across a rerun and across 1 vs 3 workers: "
        + ", ".join(checked),
    )
    assert ok, line


def test_11_sampled_tracking_objective_converges_to_its_oracle():
    # The second case study's estimator: objective_mhp averages the trace
    # total over n sampled target futures.  Its expectation is a Gaussian
    # integral of 2H dimensions, which a tensor Gauss-Hermite rule computes
    # to near machine precision at H <= 3 (tracking_objective_oracle).  The
    # gate is test_02's: at least 99 of 100 fixed planner seeds within 3.29
    # oracle standard errors (99.9% two-sided), and the error SD over the
    # standard error inside the 99.9% chi-square band for 99 degrees of
    # freedom.  The setting is the shipped study's noise, a vehicle near the
    # target, and a gentle turn at every step.
    start = time.perf_counter()
    scenario = ScenarioConfig(process_intensity=8.0, sigma0=3.0, eta=0.005)
    belief = TargetBelief(np.array([600.0, 400.0, 5.0, 0.0]), np.diag([900.0, 900.0, 64.0, 64.0]))
    uav = UavState(position=(560.0, 380.0), heading=0.3, speed=30.0)
    seeds, needed, confidence = range(100), 99, 0.999
    z = NormalDist().inv_cdf(0.5 + confidence / 2)
    dof = len(seeds) - 1
    sd_low, sd_high = (math.sqrt(chi2.ppf(q, dof) / dof) for q in ((1 - confidence) / 2, (1 + confidence) / 2))
    # Nodes per coordinate, and the oracle means measured with 16^4 and 12^6 nodes.
    known = {2: (12, 210.494481), 3: (8, 258.479187)}
    ok, parts = True, []
    for horizon, (nodes, reference) in known.items():
        controls = [UavControl(1.0, 0.1)] * horizon
        exact, variance = tracking_objective_oracle(uav, belief, [1.0, 0.1] * horizon, scenario, nodes)
        ok_reference = abs(exact - reference) <= 1e-6
        ok = ok and ok_reference
        parts.append(
            f"H={horizon} oracle {exact:.6f} (reference {reference}, ok={ok_reference}), sd {variance**0.5:.4f}"
        )
        for n in (50, 250):
            config = PlannerConfig(horizon=horizon, n_trajectories=n, objective=PlannerObjective.RSMHP)
            errors = np.array([
                objective_mhp(uav, belief, controls, scenario, config, np.random.default_rng(seed)) - exact
                for seed in seeds
            ])
            stderr = math.sqrt(variance / n)
            hits = int(np.sum(np.abs(errors) < z * stderr))
            sd_ratio = float(np.std(errors, ddof=1)) / stderr
            ok_n = hits >= needed and sd_low <= sd_ratio <= sd_high
            ok = ok and ok_n
            parts.append(
                f"n={n}: {hits}/{len(seeds)} within {z:.2f} SE (largest {np.abs(errors).max() / stderr:.2f}), "
                f"SD/SE {sd_ratio:.2f} ok={ok_n}"
            )
    # Without process noise every future is the noiseless prediction, and
    # the nominal objective is the oracle's one node exactly.
    quiet = ScenarioConfig(process_intensity=0.0, sigma0=3.0, eta=0.005)
    exact, variance = tracking_objective_oracle(uav, belief, [1.0, 0.1] * 3, quiet, 8)
    nominal = objective_nbo(uav, belief, [UavControl(1.0, 0.1)] * 3, quiet)
    ok_nominal = nominal == exact and variance == 0.0
    elapsed = time.perf_counter() - start
    ok_time = elapsed < 5.0
    ok = ok and ok_nominal and ok_time
    line = _report(
        ok,
        "sampled tracking objective against its Gauss-Hermite oracle over 100 fixed seeds: "
        + "; ".join(parts)
        + f"; SD/SE band [{sd_low:.2f}, {sd_high:.2f}]; nominal {nominal!r} == oracle at q = 0 {ok_nominal}; "
        f"{elapsed:.1f}s < 5s",
    )
    assert ok, line
