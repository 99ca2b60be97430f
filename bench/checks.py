"""Output checks against closed forms computed here, apart from the program.

Nothing in this file imports rsmhp.  Every check function takes plain
numbers or arrays and returns a list of failure messages (empty when the
check holds), so the self-tests can feed planted errors straight in.

Checks on sampled quantities use a family-wise false-alarm probability of
FAMILY_ALPHA per workload run, split over the family by Bonferroni.  The
tail laws are exact where the sampled quantity is Gaussian (linear models
with linear cost), chi-square for sample variances and binomial for
exceedance counts; the quadratic LQG cost uses the normal approximation
of a mean over at least 100 paths.
"""
from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

FAMILY_ALPHA = 1e-6


def two_sided_z(alpha: float) -> float:
    """Critical |z| for a two-sided normal test at level alpha."""
    return NormalDist().inv_cdf(1.0 - alpha / 2.0)


def _close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


# ------------------------------------------------------------ distributions


def _lower_gamma_regularized(s: float, x: float) -> float:
    """P(s, x), the regularized lower incomplete gamma function."""
    if x <= 0.0:
        return 0.0
    log_front = s * math.log(x) - x - math.lgamma(s)
    if x < s + 1.0:
        term = 1.0 / s
        total = term
        k = 0
        while abs(term) > abs(total) * 1e-16 and k < 100000:
            k += 1
            term *= x / (s + k)
            total += term
        return math.exp(log_front) * total
    # Continued fraction for the upper tail (modified Lentz).
    tiny = 1e-300
    b = x + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 100000):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        d = tiny if abs(d) < tiny else d
        c = b + an / c
        c = tiny if abs(c) < tiny else c
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return 1.0 - math.exp(log_front) * h


def chi2_cdf(x: float, df: int) -> float:
    return _lower_gamma_regularized(df / 2.0, x / 2.0)


def chi2_quantile(p: float, df: int) -> float:
    """Inverse chi-square CDF by bisection (p may be as small as 1e-12)."""
    lo, hi = 0.0, float(df)
    while chi2_cdf(hi, df) < p:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if chi2_cdf(mid, df) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def binomial_upper_limit(n: int, p: float, alpha: float) -> int:
    """Smallest k with P(X > k) <= alpha for X ~ Binomial(n, p)."""
    if p >= 1.0:
        return n
    if p <= 0.0:
        return 0
    log_p, log_q = math.log(p), math.log1p(-p)
    tail = 0.0
    for k in range(n, -1, -1):
        log_pmf = (
            math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
            + k * log_p + (n - k) * log_q
        )
        if tail + math.exp(log_pmf) > alpha:
            return k
        tail += math.exp(log_pmf)
    return 0


# ------------------------------------------------------------- closed forms


def lqg_closed_form(a, r, target, sigma, x0, controls) -> dict:
    """Scalar tracking problem x' = (1-a) x + a u + w, cost r (x_H - T)^2 + sum u^2.

    x_H = m + v with v ~ N(0, V), V = sigma^2 sum_{n<H} (1-a)^{2n}; the
    cost variance is that of r (m - T + v)^2.
    """
    u = [float(v) for v in controls]
    horizon = len(u)
    m = float(x0)
    for uk in u:
        m = (1.0 - a) * m + a * uk
    spread = sigma**2 * math.fsum((1.0 - a) ** (2 * n) for n in range(horizon))
    mu = m - target
    nominal = r * mu**2 + math.fsum(uk * uk for uk in u)
    return {
        "j_nbo": nominal,
        "j_exact": nominal + r * spread,
        "nbo_gap": r * spread,
        "cost_variance": r**2 * (2.0 * spread**2 + 4.0 * mu**2 * spread),
    }


def power_sums(a_matrix, horizon: int) -> list:
    """[A_k for k in 0..H-1] with A_k = sum_{q=0}^{H-k-1} A^q."""
    a_matrix = np.atleast_2d(np.asarray(a_matrix, dtype=float))
    eye = np.eye(a_matrix.shape[0])
    sums = [eye]
    for _ in range(horizon - 1):
        sums.append(eye + a_matrix @ sums[-1])
    return sums[::-1]


def independent_cost_variance(a_matrix, cost_state, noise_cov, horizon: int) -> float:
    """Per-path cost variance c' [sum_{k<H} A_k Sigma A_k'] c for linear cost."""
    c = np.atleast_1d(np.asarray(cost_state, dtype=float))
    sigma = np.atleast_2d(np.asarray(noise_cov, dtype=float))
    return float(sum(c @ ak @ sigma @ ak.T @ c for ak in power_sums(a_matrix, horizon)))


def tree_mean_variance(a_matrix, cost_state, noise_cov, horizon: int, branch: int) -> float:
    """Variance of the full-tree mean: sum_{k<=H-2} c' A_k Sigma A_k' c / N^(k+1)."""
    c = np.atleast_1d(np.asarray(cost_state, dtype=float))
    sigma = np.atleast_2d(np.asarray(noise_cov, dtype=float))
    sums = power_sums(a_matrix, horizon)
    return float(sum(
        c @ sums[k] @ sigma @ sums[k].T @ c / branch ** (k + 1)
        for k in range(horizon - 1)
    ))


def linear_nominal_cost(a_matrix, b_matrix, cost_state, cost_control, x0, controls) -> float:
    """Cost sum_{k<H} (c'x_k + d'u_k) + c'x_H along the noise-free path."""
    a_matrix = np.atleast_2d(np.asarray(a_matrix, dtype=float))
    b_matrix = np.asarray(b_matrix, dtype=float).reshape(a_matrix.shape[0], -1)
    c = np.atleast_1d(np.asarray(cost_state, dtype=float))
    d = np.atleast_1d(np.asarray(cost_control, dtype=float))
    u = np.asarray(controls, dtype=float).reshape(-1, b_matrix.shape[1])
    x = np.atleast_1d(np.asarray(x0, dtype=float))
    total = 0.0
    for uk in u:
        total += float(c @ x + d @ uk)
        x = a_matrix @ x + b_matrix @ uk
    return total + float(c @ x)


def leaf_covariance(a, cost, sigma2, horizon: int, branch: int, i: int, j: int) -> float:
    """Covariance of two leaf costs of the fresh-noise scalar tree.

    Leaves share the draws of the depths where their leading branch digits
    agree; each shared depth k adds cost^2 A_k^2 sigma^2.
    """
    sums = power_sums([[a]], horizon)
    levels = horizon - 1
    total = 0.0
    for k in range(levels):
        digit_i = i // branch ** (levels - 1 - k) % branch
        digit_j = j // branch ** (levels - 1 - k) % branch
        if digit_i != digit_j:
            break
        total += cost**2 * float(sums[k][0, 0]) ** 2 * sigma2
    return total


# -------------------------------------------------------------- lqg_studies


def check_lqg_convergence(rows, params: dict, z: float) -> list:
    """rows: (p, j_mhp, j_nbo, j_exact, abs_err_mhp, abs_err_nbo) floats."""
    out = []
    form = lqg_closed_form(
        params["a"], params["r"], params["target"], params["sigma"],
        params["x0"], params["controls"],
    )
    grid = list(range(params["p_min"], params["p_max"] + 1, params["p_step"]))
    if [int(row[0]) for row in rows] != grid:
        out.append(f"lqg_convergence: p column {len(rows)} rows does not match the grid of {len(grid)}")
    for p, j_mhp, j_nbo, j_exact, err_mhp, err_nbo in rows:
        tag = f"lqg_convergence p={int(p)}"
        if not _close(j_exact, form["j_exact"], 1e-12):
            out.append(f"{tag}: j_exact {j_exact!r} != closed form {form['j_exact']!r}")
        if not _close(j_nbo, form["j_nbo"], 1e-12):
            out.append(f"{tag}: j_nbo {j_nbo!r} != closed form {form['j_nbo']!r}")
        if not _close(err_nbo, form["nbo_gap"], 1e-12):
            out.append(f"{tag}: abs_err_nbo {err_nbo!r} != closed form {form['nbo_gap']!r}")
        if not _close(err_mhp, abs(j_mhp - j_exact), 1e-12, 1e-15):
            out.append(f"{tag}: abs_err_mhp {err_mhp!r} != |j_mhp - j_exact|")
        se = math.sqrt(form["cost_variance"] / p)
        if not abs(j_mhp - form["j_exact"]) <= z * se:
            out.append(
                f"{tag}: |j_mhp - J| = {abs(j_mhp - form['j_exact']):.6g} exceeds "
                f"{z:.3f} standard errors ({z * se:.6g})"
            )
    return out


def _scalar_var_p(params: dict) -> float:
    return independent_cost_variance([[params["a"]]], [params["cost"]], [[params["sigma"]]], params["horizon"])


def check_chebyshev(rows, params: dict, alpha_each: float) -> list:
    """rows: (n, epsilon, exceed_probability, bound); exceed counts are binomial."""
    out = []
    spread = _scalar_var_p(params)
    if params["epsilon_unit"] == "deviation":
        epsilons = [e * math.sqrt(spread) for e in params["epsilons"]]
    else:
        epsilons = list(params["epsilons"])
    expected = [(n, e) for n in params["n_values"] for e in epsilons]
    if len(rows) != len(expected):
        return [f"chebyshev_coverage: {len(rows)} rows, expected {len(expected)}"]
    reps = params["reps"]
    for (n, eps, exceed, bound), (n_ref, eps_ref) in zip(rows, expected):
        tag = f"chebyshev_coverage n={int(n)} eps={eps:.4g}"
        if int(n) != n_ref or not _close(eps, eps_ref, 1e-12):
            out.append(f"{tag}: expected n={n_ref} epsilon={eps_ref!r}")
            continue
        ref = min(1.0, spread / (n_ref * eps_ref**2))
        if not _close(bound, ref, 1e-12):
            out.append(f"{tag}: bound {bound!r} != var_p/(N eps^2) clamped = {ref!r}")
        count = round(exceed * reps)
        if abs(count - exceed * reps) > 1e-6 * reps:
            out.append(f"{tag}: exceed_probability {exceed!r} is not a count over {reps} reps")
        limit = binomial_upper_limit(reps, ref, alpha_each)
        if count > limit:
            out.append(f"{tag}: {count}/{reps} exceedances, above bound plus binomial slack ({limit})")
    return out


def check_variance_scaling(rows, slope: float, params: dict, alpha_each: float) -> list:
    """rows: (n, reps, variance); (reps-1) s^2 / (var_p/n) is chi-square."""
    out = []
    spread = _scalar_var_p(params)
    if [int(row[0]) for row in rows] != list(params["n_values"]):
        return [f"variance_scaling: n column does not match {params['n_values']}"]
    df = params["reps"] - 1
    lo = chi2_quantile(alpha_each / 2.0, df) / df
    hi = chi2_quantile(1.0 - alpha_each / 2.0, df) / df
    logs_n, logs_v = [], []
    for n, reps, variance in rows:
        tag = f"variance_scaling n={int(n)}"
        if int(reps) != params["reps"]:
            out.append(f"{tag}: reps {reps} != {params['reps']}")
        ratio = variance / (spread / n)
        if not lo <= ratio <= hi:
            out.append(f"{tag}: variance / (var_p/N) = {ratio:.4f} outside the chi-square band [{lo:.4f}, {hi:.4f}]")
        logs_n.append(math.log(n))
        logs_v.append(math.log(max(variance, 1e-300)))
    # Given every ratio in its band, the least-squares slope lies in the
    # band below; its width follows from the same family, at no extra alpha.
    mean_x = sum(logs_n) / len(logs_n)
    sxx = sum((x - mean_x) ** 2 for x in logs_n)
    weights = [(x - mean_x) / sxx for x in logs_n]
    band_lo = -1.0 + sum(min(w * math.log(lo), w * math.log(hi)) for w in weights)
    band_hi = -1.0 + sum(max(w * math.log(lo), w * math.log(hi)) for w in weights)
    own = sum(w * y for w, y in zip(weights, logs_v))
    if not _close(slope, own, 1e-9, 1e-12):
        out.append(f"variance_scaling: log_log_slope {slope!r} != least-squares fit of the rows {own!r}")
    if not band_lo <= slope <= band_hi:
        out.append(f"variance_scaling: log-log slope {slope:.4f} outside [{band_lo:.4f}, {band_hi:.4f}]")
    return out


def check_pruning(rows, params: dict) -> list:
    """rows: (m, leaves, median_abs_err_mean, median_abs_err_weighted)."""
    out = []
    full = params["branch_factor"] ** (params["horizon"] - 1)
    if [int(row[0]) for row in rows] != list(params["m_values"]):
        return [f"pruning_study: m column does not match {params['m_values']}"]
    for m, leaves, err_mean, err_weighted in rows:
        if int(leaves) != min(int(m), full):
            out.append(f"pruning_study m={int(m)}: leaves {int(leaves)} != min(M, N^(H-1)) = {min(int(m), full)}")
        if not (math.isfinite(err_mean) and math.isfinite(err_weighted) and err_mean >= 0 and err_weighted >= 0):
            out.append(f"pruning_study m={int(m)}: median errors must be finite and non-negative")
    return out


def check_covariance_decay(rows, params: dict, z: float) -> list:
    """rows: (i, j, lag, covariance, z); leaf costs are jointly Gaussian."""
    out = []
    a, cost, sigma2 = params["a"], params["cost"], params["sigma"]
    horizon, branch, reps = params["horizon"], params["branch_factor"], params["reps"]
    n_leaves = branch ** (horizon - 1)
    pairs = [(i, j) for i in range(n_leaves) for j in range(i + 1, n_leaves)]
    if [(int(r[0]), int(r[1])) for r in rows] != pairs:
        return [f"covariance_decay: pairs do not enumerate all {len(pairs)} leaf pairs"]
    leaf_var = leaf_covariance(a, cost, sigma2, horizon, branch, 0, 0)
    for i, j, lag, cov, _ in rows:
        i, j = int(i), int(j)
        tag = f"covariance_decay ({i},{j})"
        if int(lag) != j - i:
            out.append(f"{tag}: lag {lag} != j - i")
        ref = leaf_covariance(a, cost, sigma2, horizon, branch, i, j)
        # Var of the unbiased sample covariance of Gaussian pairs (Wishart).
        se = math.sqrt((leaf_var * leaf_var + ref * ref) / (reps - 1))
        if not abs(cov - ref) <= z * se:
            out.append(f"{tag}: covariance {cov:.5g} vs closed form {ref:.5g}, beyond {z:.3f} standard errors ({z * se:.4g})")
    return out


# ------------------------------------------------------------ bulk_sampling


def check_mean_z(value: float, exact: float, variance_of_mean: float, z: float, label: str) -> list:
    se = math.sqrt(variance_of_mean)
    if not (math.isfinite(value) and abs(value - exact) <= z * se):
        return [f"{label}: mean {value!r} vs exact {exact!r} is {abs(value - exact) / se:.2f} standard errors (limit {z:.3f})"]
    return []


def check_set_size(states, costs, expected: int, horizon: int, label: str) -> list:
    if states.shape[0] != expected or costs.shape != (expected,) or states.shape[1] != horizon + 1:
        return [f"{label}: set has {states.shape[0]} paths of {states.shape[1]} states, expected {expected} of {horizon + 1}"]
    return []


def linear_costs(states, controls, cost_state, cost_control):
    """sum_{k<H} (c'x_k + d'u_k) + c'x_H per path; states (n, H+1, dim).

    Returns (costs, scale), scale being the sum of the terms' magnitudes.
    """
    c = np.atleast_1d(np.asarray(cost_state, dtype=float))
    d = np.atleast_1d(np.asarray(cost_control, dtype=float))
    u = np.asarray(controls, dtype=float).reshape(states.shape[1] - 1, -1)
    terms = states @ c
    control_total = float(np.sum(u @ d))
    return terms.sum(axis=1) + control_total, np.abs(terms).sum(axis=1) + abs(control_total)


def lqg_costs(states, controls, r, target):
    """Sum u^2 + r (x_H - T)^2 per path; returns (costs, scale) as above."""
    u = np.asarray(controls, dtype=float).ravel()
    effort = float(u @ u)
    return effort + r * (states[:, -1, 0] - target) ** 2, effort + r * (np.abs(states[:, -1, 0]) + abs(target)) ** 2


def check_costs(program_costs, recomputed, scale, label: str, rtol: float = 1e-9) -> list:
    """Program costs against costs recomputed from the returned states."""
    if program_costs.shape != recomputed.shape:
        return [f"{label}: {program_costs.shape[0]} costs for {recomputed.shape[0]} paths"]
    bad = np.abs(program_costs - recomputed) > rtol * np.maximum(scale, 1e-300)
    if bad.any():
        i = int(np.argmax(bad))
        return [f"{label}: {int(bad.sum())} costs differ from the recomputed ones, first at path {i}: {program_costs[i]!r} vs {recomputed[i]!r}"]
    return []


def linear_log_likeliness(states, controls, a_matrix, b_matrix, noise_cov, random_steps: int):
    """Log-likeliness from the increments x_{k+1} - A x_k - B u_k.

    Only the first ``random_steps`` increments carry a Gaussian density;
    later steps (the tree's mean completion) must be zero increments with
    neutral weight.  Returns (log_lik (n,), largest |later increment|).
    """
    a_matrix = np.atleast_2d(np.asarray(a_matrix, dtype=float))
    dim = a_matrix.shape[0]
    b_matrix = np.asarray(b_matrix, dtype=float).reshape(dim, -1)
    u = np.asarray(controls, dtype=float).reshape(states.shape[1] - 1, -1)
    sigma = np.atleast_2d(np.asarray(noise_cov, dtype=float))
    drift = states[:, :-1] @ a_matrix.T + u @ b_matrix.T
    increments = states[:, 1:] - drift
    noisy = increments[:, :random_steps]
    sign, log_det = np.linalg.slogdet(2.0 * math.pi * sigma)
    quad = np.einsum("nki,ij,nkj->nk", noisy, np.linalg.inv(sigma), noisy)
    log_lik = (-0.5 * quad - 0.5 * log_det).sum(axis=1)
    rest = increments[:, random_steps:]
    residual = float(np.abs(rest).max()) if rest.size else 0.0
    return log_lik, residual


def check_weighted(value: float, log_lik, costs, label: str, rtol: float = 1e-7) -> list:
    """estimate_weighted against sum l_i c_i / sum l_i, formed in log space."""
    shift = float(log_lik.max())
    weights = np.exp(log_lik - shift)
    ref = float(np.sum(weights * costs) / np.sum(weights))
    scale = float(np.sum(weights * np.abs(costs)) / np.sum(weights))
    if not (math.isfinite(value) and abs(value - ref) <= rtol * max(scale, 1e-300)):
        return [f"{label}: weighted estimate {value!r} vs log-space reference {ref!r}"]
    return []


def check_mean_arithmetic(value: float, costs, label: str) -> list:
    ref = math.fsum(costs.tolist()) / costs.shape[0]
    if not _close(value, ref, 1e-12, 1e-12 * float(np.abs(costs).mean())):
        return [f"{label}: estimate_mean {value!r} != mean of the recomputed costs {ref!r}"]
    return []


# ----------------------------------------------------------------- tracking


def check_controls(controls, accel_max: float, bank_max: float, label: str) -> list:
    """controls: (n, 2) of (forward acceleration, bank angle)."""
    controls = np.asarray(controls, dtype=float).reshape(-1, 2)
    slack = 1e-12
    bad = (
        ~np.isfinite(controls).all(axis=1)
        | (np.abs(controls[:, 0]) > accel_max * (1 + slack))
        | (np.abs(controls[:, 1]) > bank_max * (1 + slack))
    )
    if bad.any():
        i = int(np.argmax(bad))
        return [f"{label}: {int(bad.sum())} controls outside +-{accel_max} / +-{bank_max}, first {controls[i].tolist()}"]
    return []


def check_error_trace(errors, n_steps: int, label: str) -> list:
    errors = np.asarray(errors, dtype=float)
    if errors.shape != (n_steps,):
        return [f"{label}: error trace has shape {errors.shape}, expected ({n_steps},)"]
    if not (np.isfinite(errors).all() and (errors >= 0).all()):
        return [f"{label}: error trace has non-finite or negative entries"]
    return []


def check_first_errors(first_by_arm: dict, label: str) -> list:
    values = set(first_by_arm.values())
    if len(values) != 1:
        return [f"{label}: first errors differ across arms {first_by_arm}"]
    return []


def nominal_trace_objective(uav, belief_mean, belief_cov, controls, scenario: dict) -> float:
    """Accumulated covariance trace along the planned path (own recursion).

    uav = (x, y, heading, speed); controls = [(accel, bank)] per step.
    Constant-velocity target, white-acceleration process noise, position
    measurement with noise (sigma0^2 + eta range^2) I taken at the
    noise-free predicted target position, Joseph-form update.
    """
    dt = scenario["dt"]
    q = scenario["process_intensity"]
    f = np.eye(4)
    f[0, 2] = f[1, 3] = dt
    proc = np.zeros((4, 4))
    for p, v in ((0, 2), (1, 3)):
        proc[p, p] = q * dt**3 / 3.0
        proc[p, v] = proc[v, p] = q * dt**2 / 2.0
        proc[v, v] = q * dt
    h = np.zeros((2, 4))
    h[0, 0] = h[1, 1] = 1.0
    x, y, heading, speed = uav
    mean = np.asarray(belief_mean, dtype=float)
    cov = np.asarray(belief_cov, dtype=float)
    total = 0.0
    for accel, bank in controls:
        speed = min(max(speed + accel * dt, scenario["v_min"]), scenario["v_max"])
        heading += scenario["gravity"] * math.tan(bank) / speed * dt
        x += speed * math.cos(heading) * dt
        y += speed * math.sin(heading) * dt
        mean = f @ mean
        cov = f @ cov @ f.T + proc
        noise = (scenario["sigma0"] ** 2 + scenario["eta"] * ((mean[0] - x) ** 2 + (mean[1] - y) ** 2)) * np.eye(2)
        gain = cov @ h.T @ np.linalg.inv(h @ cov @ h.T + noise)
        closed = np.eye(4) - gain @ h
        cov = closed @ cov @ closed.T + gain @ noise @ gain.T
        total += float(np.trace(cov))
    return total


def check_objective(value: float, reference: float, label: str, rtol: float) -> list:
    if not (math.isfinite(value) and _close(value, reference, rtol)):
        return [f"{label}: {value!r} vs reference {reference!r} (rtol {rtol:g})"]
    return []
