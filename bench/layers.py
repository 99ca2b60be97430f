"""The traced run: one traced pass of every workload, per-layer metrics.

Every workload is traced in every traced run, so each per-layer metric is
measured whatever ``--workload`` names; the named workload also runs one
untraced pass on the same inputs right before its traced one, and the
difference is ``trace.overhead_s``.  Spans are written to
``.bench_out/trace_<workload>_<seed>.csv`` at the end.
"""
from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import rsmhp
import rsmhp.model
from rsmhp.experiments import runners, spec
from rsmhp.uav import planning, simulate
from trace import Tracer, durations, layer_self
from workloads import LQG_STUDIES, PassStats, WORKLOADS

IMPORT_PROBES = 3
OBJECTIVE_CALLS = 20

SAMPLERS = ("sample_independent", "sample_tree", "sample_tree_pruned")
ESTIMATORS = ("estimate_mean", "estimate_nbo", "estimate_weighted")
LINEAR = ("LinearModel", "chebyshev_bound", "linear_stochastic_model", "lqg_exact_cost",
          "lqg_stochastic_model", "var_p")


def _sampler_size(args, kwargs):
    model, _, config = args
    return [config.branch_factor, model.horizon, config.prune_width]


def _set_size(args, kwargs):
    return len(args[0])


def _arm_of(position: int):
    """Span label naming the planner arm of the PlannerConfig at ``position``."""
    def arm(args, kwargs):
        config = args[position]
        return "nbo" if config.objective.value == "nbo" else f"nt{config.n_trajectories}"
    return arm


def _install(tracer: Tracer) -> None:
    """Wrap the public functions at the attributes their callers look up."""
    for owner in (rsmhp, runners):
        for name in SAMPLERS:
            tracer.patch(owner, name, f"sampling.{name}", _sampler_size)
        for name in ESTIMATORS:
            if hasattr(owner, name):
                tracer.patch(owner, name, f"estimators.{name}", None if name == "estimate_nbo" else _set_size)
    for name in LINEAR:
        tracer.patch(runners, name, f"linear.{name}")
    for name in ("write_csv", "write_json"):
        tracer.patch(runners, name, f"experiments.io.{name}")
    tracer.patch(runners, "run_experiment", "experiments.runners.run_experiment")
    for kind, fn in list(runners._RUNNERS.items()):
        tracer.patch_item(runners._RUNNERS, kind, f"experiments.runners.{fn.__name__}")
    tracer.patch(rsmhp.model.GaussianNoise, "sample_batch", "model.GaussianNoise.sample_batch",
                 lambda args, kwargs: args[2])
    tracer.patch(simulate, "run_episode", "simulate.run_episode", _arm_of(1))
    tracer.patch(simulate, "plan_step", "planning.plan_step", _arm_of(3))
    for name in ("kalman_update", "kalman_predict"):
        tracer.patch(simulate, name, f"filtering.{name}")
    for name in ("sensor_cov", "target_step", "uav_step"):
        tracer.patch(simulate, name, f"dynamics.{name}")
    tracer.patch(spec, "load_spec", "experiments.spec.load_spec")
    tracer.patch(planning, "objective_nbo", "planning.objective_nbo")
    tracer.patch(planning, "objective_mhp", "planning.objective_mhp", _arm_of(4))


def _mean(values) -> float:
    return sum(values) / len(values)


def _import_seconds(root: Path, module: str) -> float:
    """Median in-process time of ``import module`` in fresh interpreters."""
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    times = []
    for _ in range(IMPORT_PROBES):
        done = subprocess.run([sys.executable, "-c", code], check=True, cwd=root, env=env,
                              capture_output=True, text=True)
        times.append(float(done.stdout.strip()))
    return statistics.median(times)


def traced_run(root: Path, workload_name: str, seed: int, out_dir: Path):
    experiments_import = _import_seconds(root, "rsmhp.experiments.cli")
    package_import = _import_seconds(root, "rsmhp")
    workloads = {name: cls(root, seed, out_dir / name) for name, cls in WORKLOADS.items()}
    counts = {name: PassStats() for name in workloads}
    failures = []

    own = workloads[workload_name]
    # The untraced pass runs the same inputs as the traced one below.
    if workload_name == "tracking":
        same_inputs = {"index": 0}
    else:
        same_inputs = {}
        own.run_pass(counts[workload_name])  # warm-up
    t0 = time.perf_counter()
    own.run_pass(counts[workload_name], **same_inputs)
    untraced = time.perf_counter() - t0
    if workload_name == "lqg_studies":
        own.record_outputs()

    slices = {}
    traced_seconds = None
    with Tracer() as tracer:
        _install(tracer)
        order = [workload_name] + [name for name in workloads if name != workload_name]
        for name in order:
            start = tracer.mark()
            t0 = time.perf_counter()
            if name == "bulk_sampling":
                workloads[name].run_pass(counts[name], keep=True)
            elif name == "tracking":
                workloads[name].run_pass(counts[name], index=0)
            else:
                workloads[name].run_pass(counts[name])
            if name == workload_name:
                traced_seconds = time.perf_counter() - t0
            slices[name] = tracer.spans[start:tracer.mark()]
        lqg = workloads["lqg_studies"]
        lqg.record_outputs()
        io_bytes = lqg.output_bytes()

        start = tracer.mark()
        for _ in range(4):
            for path in lqg.config_paths:
                spec.load_spec(path)
        load_spans = tracer.spans[start:tracer.mark()]

        tracking = workloads["tracking"]
        start = tracer.mark()
        for arm in tracking.arms:
            for _ in range(OBJECTIVE_CALLS):
                tracking.objective_probe(arm)
        objective_spans = tracer.spans[start:tracer.mark()]
        tracer.write(root / ".bench_out" / f"trace_{workload_name}_{seed}.csv")

    failures += tracking.check_objectives()
    for workload in workloads.values():
        failures += workload.check()

    lqg_spans, bulk_spans, track_spans = slices["lqg_studies"], slices["bulk_sampling"], slices["tracking"]
    bulk = workloads["bulk_sampling"]
    metrics = {}

    def put(name, value, unit):
        metrics[name] = (float(value), unit)

    draws = durations(bulk_spans, "model.GaussianNoise.sample_batch")
    put("model.gaussian_draw_ns", 1e9 * sum(d for d, _ in draws) / sum(n for _, n in draws), "ns")
    put("sampling.calls", sum(1 for s in lqg_spans if s[1].startswith("sampling.")), "count")

    def sampler(spans, name, keep):
        return [(d, size) for d, size in durations(spans, f"sampling.{name}") if keep(size)]

    small = sampler(lqg_spans, "sample_independent", lambda s: s[0] <= 10**4 and s[1] == 2)
    put("sampling.independent_small.us_per_call", 1e6 * _mean([d for d, _ in small]), "us")
    big = sampler(bulk_spans, "sample_independent", lambda s: s[0] == 10**6)
    put("sampling.independent_bulk.ns_per_path", 1e9 * big[0][0] / 10**6, "ns")
    long = sampler(bulk_spans, "sample_independent", lambda s: s[1] == 200)
    put("sampling.independent_long.ms_per_call", 1e3 * _mean([d for d, _ in long]), "ms")
    tree_small = sampler(lqg_spans, "sample_tree", lambda s: True)
    put("sampling.tree_small.us_per_call", 1e6 * _mean([d for d, _ in tree_small]), "us")
    tree_big = sampler(bulk_spans, "sample_tree", lambda s: True)
    put("sampling.tree_bulk.ns_per_leaf", 1e9 * tree_big[0][0] / tree_big[0][1][0] ** (tree_big[0][1][1] - 1), "ns")
    pruned_small = sampler(lqg_spans, "sample_tree_pruned", lambda s: True)
    put("sampling.pruned_small.us_per_call", 1e6 * _mean([d for d, _ in pruned_small]), "us")
    branch, width, horizon = bulk.prune
    pruned_big = sampler(bulk_spans, "sample_tree_pruned", lambda s: True)
    put("sampling.pruned_bulk.ns_per_leaf", 1e9 * pruned_big[0][0] / width, "ns")
    generated = kept = 0
    alive = 1
    for _ in range(horizon - 1):
        generated += alive * branch
        alive = min(alive * branch, width)
        kept += alive
    put("sampling.pruned_bulk.kept_ratio", kept / generated, "ratio")
    put("sampling.self_s", layer_self(lqg_spans, "sampling") + layer_self(bulk_spans, "sampling"), "s")
    for name in ("mean", "weighted"):
        spans = [d for d, n in durations(bulk_spans, f"estimators.estimate_{name}") if n == 10**6]
        put(f"estimators.{name}.ns_per_path", 1e9 * spans[0] / 10**6, "ns")
    put("estimators.self_s", layer_self(lqg_spans, "estimators"), "s")
    put("linear.self_s", layer_self(lqg_spans, "linear"), "s")

    calls = [d for d, _ in durations(objective_spans, "planning.objective_nbo")]
    put("planning.objective_nbo.us", 1e6 * statistics.median(calls), "us")
    for arm in ("nt50", "nt250"):
        calls = [d for d, a in durations(objective_spans, "planning.objective_mhp") if a == arm]
        put(f"planning.objective_mhp_{arm}.us", 1e6 * statistics.median(calls), "us")
    for arm in tracking.arms:
        steps = [d for d, a in durations(track_spans, "planning.plan_step") if a == arm]
        put(f"planning.plan_step_{arm}.ms", 1e3 * statistics.median(steps), "ms")
    for layer in ("planning", "filtering", "dynamics"):
        put(f"{layer}.self_s", layer_self(track_spans, layer), "s")
    for arm in tracking.arms:
        episode = [d for d, a in durations(track_spans, "simulate.run_episode") if a == arm]
        put(f"simulate.episode_{arm}.s", episode[0], "s")

    for kind in LQG_STUDIES:
        runs = durations(lqg_spans, f"experiments.runners.run_{kind}")
        put(f"experiments.run_{kind}.s", runs[0][0], "s")
    put("experiments.runners.self_s", layer_self(lqg_spans, "experiments.runners"), "s")
    put("experiments.io.self_s", layer_self(lqg_spans, "experiments.io"), "s")
    put("experiments.io.bytes", io_bytes, "B")
    put("experiments.load_spec.ms", 1e3 * statistics.median(d for d, _ in durations(load_spans, "experiments.spec.load_spec")), "ms")
    put("experiments.import_s", experiments_import, "s")
    put("package.import_s", package_import, "s")
    put("trace.overhead_s", traced_seconds - untraced, "s")

    detail = {
        "workload": workload_name,
        "seed": seed,
        "traced": True,
        "untraced_pass_s": untraced,
        "traced_pass_s": traced_seconds,
        "spans": len(tracer.spans),
        "import_probes": IMPORT_PROBES,
    }
    return metrics, counts, failures, detail
