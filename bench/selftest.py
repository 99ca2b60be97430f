"""Self-tests of the benchmark's checks: each must reject a planted error.

    python3 bench/selftest.py

Planted errors are fed straight to the check functions; nothing under
src/ is modified.  Each case also confirms that the unplanted input
passes, so a check that rejects everything fails here too.  Exit code 0
when every case behaves.
"""
from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402

RESULTS: list = []


def case(name: str, clean: list, planted: list) -> None:
    ok = not clean and bool(planted)
    RESULTS.append(ok)
    print(f"{'ok  ' if ok else 'FAIL'} {name}" + ("" if ok else f"\n     clean: {clean}\n     planted: {planted}"))


def distributions() -> None:
    got = checks.chi2_quantile(0.95, 1)
    RESULTS.append(abs(got - 3.841458820694124) < 1e-9)
    print(f"{'ok  ' if RESULTS[-1] else 'FAIL'} chi2_quantile(0.95, 1) = {got!r}")
    n, p, alpha = 30, 0.2, 1e-3
    pmf = [math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(n + 1)]
    brute = next(k for k in range(n + 1) if sum(pmf[k + 1:]) <= alpha)
    RESULTS.append(checks.binomial_upper_limit(n, p, alpha) == brute)
    print(f"{'ok  ' if RESULTS[-1] else 'FAIL'} binomial_upper_limit({n}, {p}, {alpha}) = {brute}")


LQG = dict(a=0.5, r=10.0, target=1.0, sigma=1.0, x0=0.0, controls=[0.55, 0.17],
           horizon=2, p_min=100, p_max=1000, p_step=100)
SCALAR = dict(a=0.5, cost=1.0, sigma=1.0, x0=0.0, horizon=2)


def lqg_studies() -> None:
    z = checks.two_sided_z(1e-8)
    form = checks.lqg_closed_form(LQG["a"], LQG["r"], LQG["target"], LQG["sigma"], LQG["x0"], LQG["controls"])

    def rows(shift_se=0.0, exact_error=0.0):
        out = []
        for p in range(100, 1001, 100):
            j = form["j_exact"] + shift_se * math.sqrt(form["cost_variance"] / p)
            exact = form["j_exact"] * (1 + exact_error)
            out.append((p, j, form["j_nbo"], exact, abs(j - exact), abs(form["j_nbo"] - exact)))
        return out

    case("lqg_convergence: estimate shifted by z + 1 standard errors",
         checks.check_lqg_convergence(rows(), LQG, z), checks.check_lqg_convergence(rows(shift_se=z + 1), LQG, z))
    case("lqg_convergence: j_exact off by 1e-9 relative",
         checks.check_lqg_convergence(rows(), LQG, z), checks.check_lqg_convergence(rows(exact_error=1e-9), LQG, z))

    cheb = dict(SCALAR, n_values=[100, 1000], epsilons=[0.25, 0.5, 1.0], epsilon_unit="deviation", reps=1000)
    var_p = 3.25
    good = [(n, e * math.sqrt(var_p), 0.0, min(1.0, 1.0 / (n * e * e))) for n in (100, 1000) for e in (0.25, 0.5, 1.0)]
    wrong_bound = [good[0][:3] + (good[0][3] * 1.01,)] + good[1:]
    too_many = [good[0][:2] + (0.3, good[0][3])] + good[1:]
    case("chebyshev_coverage: bound column off by 1%", checks.check_chebyshev(good, cheb, 1e-8),
         checks.check_chebyshev(wrong_bound, cheb, 1e-8))
    case("chebyshev_coverage: 300/1000 exceedances against a 0.16 bound", checks.check_chebyshev(good, cheb, 1e-8),
         checks.check_chebyshev(too_many, cheb, 1e-8))

    scaling = dict(SCALAR, n_values=[100, 1000, 10000], reps=200)
    exact_rows = [(n, 200, var_p / n) for n in (100, 1000, 10000)]
    inflated = exact_rows[:2] + [(10000, 200, 2.5 * var_p / 10000)]
    case("variance_scaling: one variance 2.5x its expectation",
         checks.check_variance_scaling(exact_rows, -1.0, scaling, 1e-8),
         checks.check_variance_scaling(inflated, -1.0, scaling, 1e-8))

    pruning = dict(SCALAR, horizon=4, branch_factor=3, m_values=[1, 27, 40])
    case("pruning_study: leaves not min(M, N^(H-1))",
         checks.check_pruning([(1, 1, 0.1, 0.1), (27, 27, 0.1, 0.1), (40, 27, 0.1, 0.1)], pruning),
         checks.check_pruning([(1, 1, 0.1, 0.1), (27, 27, 0.1, 0.1), (40, 40, 0.1, 0.1)], pruning))

    decay = dict(SCALAR, horizon=3, branch_factor=3, reps=10000)
    pairs = [(i, j) for i in range(9) for j in range(i + 1, 9)]
    exact = [(i, j, j - i, checks.leaf_covariance(0.5, 1.0, 1.0, 3, 3, i, j), 0.0) for i, j in pairs]
    shared = [row[3] for row in exact if row[3] > 0]
    ok_values = len(shared) == 9 and all(abs(v - 1.75**2) < 1e-12 for v in shared)
    RESULTS.append(ok_values)
    print(f"{'ok  ' if ok_values else 'FAIL'} covariance closed form: 9 root-sharing pairs at 1.75^2, 27 at 0")
    se = math.sqrt((5.3125**2 + 3.0625**2) / 9999)
    shifted = [exact[1][:3] + (exact[1][3] + (z + 1) * se, 0.0)] + exact[:1] + exact[2:]
    shifted = sorted(shifted, key=lambda r: (r[0], r[1]))
    case("covariance_decay: one covariance shifted by z + 1 standard errors",
         checks.check_covariance_decay(exact, decay, z), checks.check_covariance_decay(shifted, decay, z))


def bulk_sampling() -> None:
    import rsmhp

    params = rsmhp.LqgParams(a=0.5, r=10.0, target=1.0, sigma=1.0, x0=0.0, horizon=2)
    controls = np.array([0.55, 0.17])
    paths = rsmhp.sample_independent(rsmhp.lqg_stochastic_model(params), controls,
                                     rsmhp.SamplerConfig(branch_factor=10_000, master_seed=7))
    states, costs = np.asarray(paths.states), np.asarray(paths.costs)
    own, scale = checks.lqg_costs(states, controls, 10.0, 1.0)
    changed = costs.copy()
    changed[17] += 1e-6 * scale[17]
    case("costs: one cost changed by 1e-6 relative (tolerance 1e-9)",
         checks.check_costs(costs, own, scale, "lqg"), checks.check_costs(changed, own, scale, "lqg"))
    case("set size: one path missing",
         checks.check_set_size(states, costs, 10_000, 2, "lqg"),
         checks.check_set_size(states[1:], costs[1:], 10_000, 2, "lqg"))

    form = checks.lqg_closed_form(0.5, 10.0, 1.0, 1.0, 0.0, controls)
    z = checks.two_sided_z(1e-6 / 5)
    value = rsmhp.estimate_mean(paths).value
    se = math.sqrt(form["cost_variance"] / 10_000)
    case("mean: estimate shifted by z + 1 standard errors",
         checks.check_mean_z(value, form["j_exact"], se**2, z, "lqg"),
         checks.check_mean_z(value + (z + 1) * se, form["j_exact"], se**2, z, "lqg"))

    log_lik, residual = checks.linear_log_likeliness(states, controls, [[0.5]], [[0.5]], [[1.0]], 2)
    direct = np.log(np.asarray(paths.raw_likeliness))
    RESULTS.append(bool(np.allclose(log_lik, direct, rtol=1e-12, atol=1e-10)) and residual == 0.0)
    print(f"{'ok  ' if RESULTS[-1] else 'FAIL'} log-likeliness from increments equals log(raw_likeliness)")
    weighted = rsmhp.estimate_weighted(paths).value
    case("weighted: estimate off by 1e-5 relative",
         checks.check_weighted(weighted, log_lik, own, "lqg"),
         checks.check_weighted(weighted * (1 + 1e-5), log_lik, own, "lqg"))


def tracking() -> None:
    controls = [(1.0, 0.1), (-4.9, -0.5), (5.0, 0.5235987755982988)]
    outside = controls + [(5.0001, 0.0)]
    case("controls: one control outside +-accel_max",
         checks.check_controls(controls, 5.0, np.pi / 6, "t"), checks.check_controls(outside, 5.0, np.pi / 6, "t"))
    bank = controls + [(0.0, 0.53)]
    case("controls: one bank angle outside +-bank_max",
         checks.check_controls(controls, 5.0, np.pi / 6, "t"), checks.check_controls(bank, 5.0, np.pi / 6, "t"))
    trace = np.linspace(1.0, 2.0, 50)
    bad = trace.copy()
    bad[3] = np.nan
    case("error trace: a NaN entry", checks.check_error_trace(trace, 50, "t"), checks.check_error_trace(bad, 50, "t"))
    case("error trace: one entry short", checks.check_error_trace(trace, 50, "t"),
         checks.check_error_trace(trace[:-1], 50, "t"))
    case("first errors: arms disagree", checks.check_first_errors({"nbo": 1.5, "nt50": 1.5}, "t"),
         checks.check_first_errors({"nbo": 1.5, "nt50": 1.5000000001}, "t"))

    from rsmhp.uav import ScenarioConfig, TargetBelief, UavControl, UavState, objective_nbo

    sc = ScenarioConfig(eta=0.005, sigma0=3.0, process_intensity=8.0)
    plan = [(2.0, 0.3), (-1.0, -0.2), (0.5, 0.1), (0.0, 0.0), (3.0, -0.4), (-5.0, 0.5)]
    value = objective_nbo(UavState(np.array(sc.uav_position), sc.uav_heading, sc.uav_speed),
                          TargetBelief(sc.target_mean, sc.target_cov), [UavControl(a, b) for a, b in plan], sc)
    own = checks.nominal_trace_objective(
        (sc.uav_position[0], sc.uav_position[1], sc.uav_heading, sc.uav_speed), sc.target_mean, sc.target_cov, plan,
        dict(dt=sc.dt, process_intensity=sc.process_intensity, v_min=sc.v_min, v_max=sc.v_max, gravity=sc.gravity,
             sigma0=sc.sigma0, eta=sc.eta))
    case("objective_nbo: value off by 1e-6 relative against the own Kalman recursion",
         checks.check_objective(value, own, "nbo", 1e-9), checks.check_objective(value * (1 + 1e-6), own, "nbo", 1e-9))


def main() -> int:
    distributions()
    lqg_studies()
    bulk_sampling()
    tracking()
    failed = RESULTS.count(False)
    print(f"{len(RESULTS) - failed}/{len(RESULTS)} self-tests passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
