"""The three benchmark workloads: inputs from the seed, one pass, checks.

Each workload builds its inputs in ``__init__`` (that is what ``setup_s``
times in a fresh interpreter), runs whole passes of the same operations in
``run_pass`` and checks the program's outputs in ``check``.  rsmhp is
imported inside ``__init__`` so a workload pays only for the modules it
uses.  Calls into the program go through module attributes looked up at
call time, so a Tracer can wrap them.
"""
from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks

LQG_STUDIES = ("lqg_convergence", "chebyshev_coverage", "variance_scaling", "pruning_study", "covariance_decay")


@dataclass
class PassStats:
    """Operation counts, and the fastest time and count of each kind of timed call."""

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    times: dict = field(default_factory=dict)  # kind -> [fastest seconds, calls]

    def record(self, kind: str, seconds: float) -> None:
        entry = self.times.setdefault(kind, [seconds, 0])
        entry[0] = min(entry[0], seconds)
        entry[1] += 1

    def run(self, kind: str | None, label: str, fn, *args):
        """One operation: returns its value, or None when it raised.

        Its wall time is recorded under ``kind`` unless ``kind`` is None.
        """
        self.attempted += 1
        start = time.perf_counter()
        try:
            return fn(*args)
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
            self.failed += 1
            self.errors.append(f"{label}: {type(exc).__name__}: {exc}")
            return None
        finally:
            if kind is not None:
                self.record(kind, time.perf_counter() - start)


def _seed_rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _derived(seed: int, *key: int) -> int:
    return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1, np.uint64)[0])


def _read_rows(path: Path) -> list:
    with path.open(newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    return [tuple(float(cell) for cell in row) for row in rows[1:]]


class LqgStudies:
    """The five scalar configs through run_experiment, master seed = workload seed."""

    name = "lqg_studies"
    setup_probes = 5

    def __init__(self, root: Path, seed: int, out_dir: Path) -> None:
        from rsmhp.experiments import cli  # noqa: F401 - the CLI's import cost is part of set-up
        from rsmhp.experiments import runners, spec

        self.runners = runners
        self.config_paths = [root / "configs" / f"{name}.ini" for name in LQG_STUDIES]
        self.specs = [
            spec.load_spec(path).with_overrides(master_seed=seed, output=out_dir / path.stem)
            for path in self.config_paths
        ]
        self.out_dir = out_dir
        self.digests: set = set()
        # The sampler and estimator calls the runners make are timed one by
        # one: a study takes up to 2 s, longer than the machine's quiet
        # moments, while one call takes 0.1 to 10 ms.
        self.calls: list = []  # (kind, seconds) of the current study
        for name in ("sample_independent", "sample_tree", "sample_tree_pruned", "estimate_mean", "estimate_weighted"):
            setattr(runners, name, self._timed(name, getattr(runners, name)))

    def _timed(self, name: str, fn):
        calls = self.calls

        def timed(*args):
            if len(args) == 3:  # a sampler: (model, controls, config)
                kind = f"{name} N={args[2].branch_factor} M={args[2].prune_width} H={args[0].horizon}"
            else:  # an estimator: (trajectories,)
                kind = f"{name} n={len(args[0])}"
            start = time.perf_counter()
            try:
                return fn(*args)
            finally:
                calls.append((kind, time.perf_counter() - start))

        return timed

    def trajectories_per_pass(self) -> int:
        """Paths requested from the samplers in one pass, counted from the params."""
        p = {s.kind.value: s.params for s in self.specs}
        lqg = p["lqg_convergence"]
        total = sum(range(lqg["p_min"], lqg["p_max"] + 1, lqg["p_step"]))
        for name in ("chebyshev_coverage", "variance_scaling"):
            total += p[name]["reps"] * sum(p[name]["n_values"])
        prune = p["pruning_study"]
        full = prune["branch_factor"] ** (prune["horizon"] - 1)
        total += prune["reps"] * sum(min(m, full) for m in prune["m_values"])
        cov = p["covariance_decay"]
        total += cov["reps"] * cov["branch_factor"] ** (cov["horizon"] - 1)
        return total

    def run_pass(self, stats: PassStats) -> None:
        for spec in self.specs:
            study = spec.kind.value
            self.calls.clear()
            start = time.perf_counter()
            stats.run(None, study, self.runners.run_experiment, spec)
            elapsed = time.perf_counter() - start
            for kind, seconds in self.calls:
                stats.record(f"{study} {kind}", seconds)
            stats.record(f"{study} outside those calls", elapsed - sum(seconds for _, seconds in self.calls))

    def record_outputs(self) -> None:
        """Digest of this pass's CSVs; every pass must write the same bytes."""
        digest = hashlib.sha256()
        for path in sorted(self.out_dir.rglob("*.csv")):
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
        self.digests.add(digest.hexdigest())

    def output_bytes(self) -> int:
        return sum(path.stat().st_size for path in self.out_dir.rglob("*") if path.is_file())

    def family_size(self) -> int:
        p = {s.kind.value: s.params for s in self.specs}
        lqg = p["lqg_convergence"]
        cov = p["covariance_decay"]
        leaves = cov["branch_factor"] ** (cov["horizon"] - 1)
        return (
            len(range(lqg["p_min"], lqg["p_max"] + 1, lqg["p_step"]))
            + len(p["chebyshev_coverage"]["n_values"]) * len(p["chebyshev_coverage"]["epsilons"])
            + len(p["variance_scaling"]["n_values"])
            + leaves * (leaves - 1) // 2
        )

    def check(self) -> list:
        alpha = checks.FAMILY_ALPHA / self.family_size()
        z = checks.two_sided_z(alpha)
        out = []
        if len(self.digests) != 1:
            out.append(f"lqg_studies: passes wrote {len(self.digests)} different sets of CSV bytes")
        for spec in self.specs:
            folder = self.out_dir / Path(spec.output).name
            try:
                rows = _read_rows(folder / "results.csv")
                meta = json.loads((folder / "metadata.json").read_text(encoding="utf-8"))
            except (OSError, ValueError) as exc:
                out.append(f"{spec.kind.value}: unreadable output ({exc})")
                continue
            params = spec.params
            kind = spec.kind.value
            if kind == "lqg_convergence":
                out += checks.check_lqg_convergence(rows, params, z)
            elif kind == "chebyshev_coverage":
                out += checks.check_chebyshev(rows, params, alpha)
            elif kind == "variance_scaling":
                out += checks.check_variance_scaling(rows, meta["summary"]["log_log_slope"], params, alpha)
            elif kind == "pruning_study":
                out += checks.check_pruning(rows, params)
            else:
                out += checks.check_covariance_decay(rows, params, z)
        return out


# The LQG benchmark of the paper's first case study.
LQG = dict(a=0.5, r=10.0, target=1.0, sigma=1.0, x0=0.0, horizon=2)
# A stable, coupled 2-state linear model for the tree sets.
TREE_A = [[0.9, 0.1], [-0.2, 0.8]]
TREE_B = [[0.0], [1.0]]
TREE_C = [1.0, 0.5]
TREE_D = [0.1]
TREE_COV = [[0.04, 0.01], [0.01, 0.09]]
TREE_X0 = [1.0, -1.0]
# Scalar model for the long-horizon sets, one per noise variance.
LONG_A, LONG_B, LONG_C, LONG_D = 0.9, 1.0, 1.0, 0.1
LONG_H, LONG_N = 200, 10_000
LONG_VARIANCES = (1e-4, 1.0, 100.0)


@dataclass
class BulkSet:
    label: str
    sampler: str
    model: object
    controls: np.ndarray
    config: object
    size: int
    # Closed forms for the checks.
    exact: float | None
    mean_variance: float | None
    costs_of: object  # states -> (costs, per-path scale)
    log_lik_of: object  # states -> (log-likeliness, residual of neutral steps)


class BulkSampling:
    """A few large sampler calls, each followed by both estimators."""

    name = "bulk_sampling"
    setup_probes = 15  # set-up is short and noisy here; probes are cheap

    def __init__(self, root: Path, seed: int, out_dir: Path) -> None:
        import rsmhp

        self.rsmhp = rsmhp
        rng = _seed_rng(seed, 0)
        self.sets: list[BulkSet] = []

        lqg = rsmhp.LqgParams(**LQG)
        u_lqg = rng.uniform(-1.0, 1.0, LQG["horizon"])
        form = checks.lqg_closed_form(controls=u_lqg, **{k: LQG[k] for k in ("a", "r", "target", "sigma", "x0")})
        a_lqg = 1.0 - LQG["a"]
        self.sets.append(BulkSet(
            "independent_lqg_1e6", "sample_independent", rsmhp.lqg_stochastic_model(lqg), u_lqg,
            rsmhp.SamplerConfig(branch_factor=10**6, master_seed=_derived(seed, 1)), 10**6,
            form["j_exact"], form["cost_variance"] / 10**6,
            lambda s, u=u_lqg: checks.lqg_costs(s, u, LQG["r"], LQG["target"]),
            lambda s, u=u_lqg: checks.linear_log_likeliness(s, u, [[a_lqg]], [[LQG["a"]]], [[LQG["sigma"] ** 2]], LQG["horizon"]),
        ))

        horizon = 8
        tree_model = rsmhp.LinearModel(TREE_A, TREE_B, TREE_C, TREE_D, TREE_COV, horizon)
        tree_stochastic = rsmhp.linear_stochastic_model(tree_model, TREE_X0)
        u_tree = rng.uniform(-1.0, 1.0, horizon)
        nominal = checks.linear_nominal_cost(TREE_A, TREE_B, TREE_C, TREE_D, TREE_X0, u_tree)
        tree_costs = lambda s, u=u_tree: checks.linear_costs(s, u, TREE_C, TREE_D)  # noqa: E731
        tree_lik = lambda s, u=u_tree: checks.linear_log_likeliness(s, u, TREE_A, TREE_B, TREE_COV, horizon - 1)  # noqa: E731
        self.sets.append(BulkSet(
            "tree_h8_n5", "sample_tree", tree_stochastic, u_tree,
            rsmhp.SamplerConfig(branch_factor=5, master_seed=_derived(seed, 2)), 5 ** (horizon - 1),
            nominal, checks.tree_mean_variance(TREE_A, TREE_C, TREE_COV, horizon, 5), tree_costs, tree_lik,
        ))
        self.prune = (10, 1000, horizon)
        self.sets.append(BulkSet(
            "pruned_h8_n10_m1000", "sample_tree_pruned", tree_stochastic, u_tree,
            rsmhp.SamplerConfig(branch_factor=10, prune_width=1000, master_seed=_derived(seed, 3)), 1000,
            None, None, tree_costs, tree_lik,
        ))

        u_long = rng.uniform(-1.0, 1.0, LONG_H)
        long_costs = lambda s, u=u_long: checks.linear_costs(s, u, [LONG_C], [LONG_D])  # noqa: E731
        long_nominal = checks.linear_nominal_cost([[LONG_A]], [[LONG_B]], [LONG_C], [LONG_D], [0.0], u_long)
        for index, variance in enumerate(LONG_VARIANCES):
            model = rsmhp.LinearModel(LONG_A, LONG_B, LONG_C, LONG_D, variance, LONG_H)
            self.sets.append(BulkSet(
                f"independent_h200_var{variance:g}", "sample_independent",
                rsmhp.linear_stochastic_model(model, [0.0]), u_long,
                rsmhp.SamplerConfig(branch_factor=LONG_N, master_seed=_derived(seed, 4, index)), LONG_N,
                long_nominal, checks.independent_cost_variance([[LONG_A]], [LONG_C], [[variance]], LONG_H) / LONG_N,
                long_costs,
                lambda s, u=u_long, v=variance: checks.linear_log_likeliness(s, u, [[LONG_A]], [[LONG_B]], [[v]], LONG_H),
            ))
        self.kept: list = []

    def trajectories_per_pass(self) -> int:
        return sum(s.size for s in self.sets)

    def run_pass(self, stats: PassStats, keep: bool = False) -> None:
        rsmhp = self.rsmhp
        for s in self.sets:
            key = f"{s.label} {s.sampler}"
            sampled = stats.run(key, key, getattr(rsmhp, s.sampler), s.model, s.controls, s.config)
            if sampled is None:
                stats.attempted += 2
                stats.failed += 2
                continue
            key = f"{s.label} estimate_mean"
            mean = stats.run(key, key, rsmhp.estimate_mean, sampled)
            key = f"{s.label} estimate_weighted"
            weighted = stats.run(key, key, rsmhp.estimate_weighted, sampled)
            if keep:
                self.kept.append((s, sampled, mean, weighted))
            # Free the set before the next call, so peak memory is one set's.
            del sampled

    def family_size(self) -> int:
        return sum(1 for s in self.sets if s.exact is not None)

    def check(self) -> list:
        z = checks.two_sided_z(checks.FAMILY_ALPHA / self.family_size())
        out = []
        if len(self.kept) != len(self.sets):
            out.append(f"bulk_sampling: {len(self.kept)} of {len(self.sets)} sets were returned")
        for s, sampled, mean, weighted in self.kept:
            states = np.asarray(sampled.states)
            costs = np.asarray(sampled.costs)
            size_errors = checks.check_set_size(states, costs, s.size, s.model.horizon, s.label)
            if size_errors:
                out += size_errors
                continue
            own, scale = s.costs_of(states)
            out += checks.check_costs(costs, own, scale, s.label)
            if mean is not None:
                out += checks.check_mean_arithmetic(mean.value, own, s.label)
                if s.exact is not None:
                    out += checks.check_mean_z(mean.value, s.exact, s.mean_variance, z, s.label)
            if weighted is not None:
                log_lik, residual = s.log_lik_of(states)
                if residual > 1e-9 * max(1.0, float(np.abs(states).max())):
                    out.append(f"{s.label}: the last step is not the noise-mean completion (residual {residual:.3g})")
                out += checks.check_weighted(weighted.value, log_lik, own, s.label)
        self.kept.clear()
        return out


class Tracking:
    """Paired closed-loop episodes, one per arm per pass, uav_monte_carlo settings."""

    name = "tracking"
    setup_probes = 5

    def __init__(self, root: Path, seed: int, out_dir: Path) -> None:
        from rsmhp.experiments import spec as spec_module
        from rsmhp.uav import planning, simulate
        from rsmhp.uav import PlannerConfig, PlannerObjective, ScenarioConfig, TargetBelief, UavControl, UavState

        self.simulate = simulate
        self.planning = planning
        spec = spec_module.load_spec(root / "configs" / "uav_monte_carlo.ini").with_overrides(master_seed=seed)
        p = spec.params
        self.scenario = ScenarioConfig(
            dt=p["dt"], n_steps=p["n_steps"], v_min=p["v_min"], v_max=p["v_max"],
            accel_max=p["accel_max"], bank_max=p["bank_max"],
            process_intensity=p["process_intensity"], sigma0=p["sigma0"], eta=p["eta"],
            uav_position=(p["uav_x"], p["uav_y"]), uav_heading=p["uav_heading"], uav_speed=p["uav_speed"],
            target_mean=np.array(p["target_mean"]),
            target_cov=np.diag([p["target_pos_var"]] * 2 + [p["target_vel_var"]] * 2),
            master_seed=seed,
        )

        def planner(count):
            return PlannerConfig(
                horizon=p["horizon"], n_trajectories=count,
                objective=PlannerObjective.NBO if count == 1 else PlannerObjective.RSMHP,
                eval_budget=p["eval_budget"], master_seed=seed,
            )

        self.arms = {"nbo": planner(1), "nt50": planner(50), "nt250": planner(250)}
        # Inputs of the direct objective calls: the scenario's start and a
        # control sequence drawn from the seed.
        rng = _seed_rng(seed, 5)
        pairs = rng.uniform(-1.0, 1.0, (p["horizon"], 2)) * [p["accel_max"], p["bank_max"]]
        self.probe_controls = [UavControl(float(a), float(b)) for a, b in pairs]
        self.probe_uav = UavState(position=np.array(self.scenario.uav_position), heading=self.scenario.uav_heading,
                                  speed=self.scenario.uav_speed)
        self.probe_belief = TargetBelief(self.scenario.target_mean, self.scenario.target_cov)
        self.probe_seed = _derived(seed, 6)
        self.controls: dict = {}  # (arm, run index) -> [(accel, bank)] per plan_step call
        self.step_times: list = []  # seconds per plan_step call of the current episode
        self.traces: dict = {}  # (arm, run index) -> error trace
        self._episode = None
        original = simulate.plan_step

        def recorded(uav, belief, scenario, config, rng):
            start = time.perf_counter()
            control = original(uav, belief, scenario, config, rng)
            self.step_times.append(time.perf_counter() - start)
            self.controls[self._episode].append((control.forward_acceleration, control.bank_angle))
            return control

        simulate.plan_step = recorded
        self.passes = 0
        self.rerun_mismatch: list = []

    def trajectories_per_pass(self) -> int:
        """Target futures the planners draw: n_trajectories per plan_step."""
        return self.scenario.n_steps * sum(config.n_trajectories for config in self.arms.values())

    def plan_steps_per_pass(self) -> int:
        return self.scenario.n_steps * len(self.arms)

    def run_pass(self, stats: PassStats, index: int | None = None) -> None:
        """One episode per arm at run ``index`` (default: the next unused one)."""
        if index is None:
            index = self.passes
            self.passes += 1
        for arm, config in self.arms.items():
            self._episode = (arm, index)
            self.controls[self._episode] = []
            self.step_times = []
            start = time.perf_counter()
            errors = stats.run(None, f"{arm} episode {index}", self.simulate.run_episode, self.scenario, config, index)
            elapsed = time.perf_counter() - start
            # Every plan_step of an arm makes the same number of objective
            # evaluations of the same size (the budget runs out every time),
            # so all of them are timed as one kind of operation.
            for seconds in self.step_times:
                stats.record(f"{arm} plan_step", seconds)
            stats.record(f"{arm} outside plan_step", elapsed - sum(self.step_times))
            if errors is None:
                continue
            errors = np.array(errors, copy=True)
            if (arm, index) in self.traces and not np.array_equal(self.traces[(arm, index)], errors):
                self.rerun_mismatch.append((arm, index))
            self.traces[(arm, index)] = errors

    def objective_probe(self, arm: str, scenario=None) -> float:
        scenario = scenario or self.scenario
        if arm == "nbo":
            return self.planning.objective_nbo(self.probe_uav, self.probe_belief, self.probe_controls, scenario)
        return self.planning.objective_mhp(
            self.probe_uav, self.probe_belief, self.probe_controls, scenario, self.arms[arm],
            np.random.default_rng(self.probe_seed),
        )

    def check_objectives(self) -> list:
        """Direct objective calls against the own recursion and each other."""
        sc = self.scenario
        own = checks.nominal_trace_objective(
            (sc.uav_position[0], sc.uav_position[1], sc.uav_heading, sc.uav_speed),
            sc.target_mean, sc.target_cov,
            [(c.forward_acceleration, c.bank_angle) for c in self.probe_controls],
            dict(dt=sc.dt, process_intensity=sc.process_intensity, v_min=sc.v_min, v_max=sc.v_max,
                 gravity=sc.gravity, sigma0=sc.sigma0, eta=sc.eta),
        )
        out = checks.check_objective(self.objective_probe("nbo"), own, "objective_nbo vs own Kalman recursion", 1e-9)
        flat = dataclasses.replace(sc, eta=0.0)
        out += checks.check_objective(
            self.objective_probe("nt50", flat), self.objective_probe("nbo", flat),
            "objective_mhp vs objective_nbo at eta = 0", 1e-12,
        )
        return out

    def check(self) -> list:
        sc = self.scenario
        out = [f"tracking {arm} run {index}: a rerun gave another error trace" for arm, index in self.rerun_mismatch]
        for (arm, index), errors in self.traces.items():
            label = f"tracking {arm} run {index}"
            out += checks.check_error_trace(errors, sc.n_steps, label)
            controls = self.controls.get((arm, index), [])
            if len(controls) != sc.n_steps:
                out.append(f"{label}: {len(controls)} plan_step calls, expected {sc.n_steps}")
            out += checks.check_controls(controls, sc.accel_max, sc.bank_max, label)
        for index in sorted({index for _, index in self.traces}):
            first = {arm: float(self.traces[(arm, index)][0]) for arm in self.arms if (arm, index) in self.traces}
            out += checks.check_first_errors(first, f"tracking run {index}")
        return out


WORKLOADS = {cls.name: cls for cls in (LqgStudies, BulkSampling, Tracking)}
