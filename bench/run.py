"""Benchmark entry point for rsmhp: one workload per process, one result line.

    python3 bench/run.py --workload lqg_studies --seed 0 --seconds 30 --trace 0

With ``--trace 0`` the run times whole passes of the workload for
``--seconds`` seconds and prints the end-to-end metrics.  With
``--trace 1`` it runs one traced pass of every workload (all layers, so
every per-layer metric exists whatever the workload) and prints the
per-layer metrics.  Both check the program's outputs against closed forms
(see checks.py).  The last stdout line is the JSON result; the line before
it gives the per-workload operation counts and pass statistics.  rsmhp is
imported from ``src/`` next to this directory and nowhere else.
"""
from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


def _use_checkout_source() -> None:
    """Import rsmhp from this checkout's src/ only; fail without it."""
    if not (SRC / "rsmhp" / "__init__.py").is_file():
        sys.exit(f"bench: {SRC / 'rsmhp'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))


def _setup_seconds(workload: str, seed: int, out_dir: Path) -> float:
    """Wall time of a fresh interpreter that imports and builds the workload."""
    command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
               "--setup-only", str(out_dir)]
    start = time.perf_counter()
    subprocess.run(command, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _quartiles(values: list) -> list:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def timed_run(workload_cls, seed: int, seconds: float, out_dir: Path):
    from workloads import PassStats

    workload = workload_cls(ROOT, seed, out_dir)
    stats = PassStats()
    failures = []
    if workload_cls.name == "tracking":
        # Direct objective calls warm the planner path; a whole warm-up
        # episode per arm would cost more than the timed passes.
        failures += workload.check_objectives()
    else:
        workload.run_pass(stats)
    stats.times.clear()
    pass_times = []
    setup = []
    probes = workload_cls.setup_probes
    start = time.perf_counter()
    while not pass_times or time.perf_counter() - start < seconds:
        # Set-up probes are spread over the run, between passes, so that
        # their median does not hinge on one moment of the machine's load.
        while len(setup) < probes and time.perf_counter() - start >= len(setup) * seconds / probes:
            setup.append(_setup_seconds(workload_cls.name, seed, out_dir))
        t0 = time.perf_counter()
        workload.run_pass(stats)
        pass_times.append(time.perf_counter() - t0)
        if workload_cls.name == "lqg_studies":
            workload.record_outputs()
    peak = _peak_rss_mb()
    kinds = {kind: tuple(entry) for kind, entry in stats.times.items()}
    while len(setup) < probes:
        setup.append(_setup_seconds(workload_cls.name, seed, out_dir))
    if workload_cls.name == "bulk_sampling":
        workload.run_pass(stats, keep=True)
    failures += workload.check()
    # Interference from other tenants of the machine only ever adds time,
    # and it comes in spells as long as a pass; so a pass is costed at the
    # fastest time each kind of timed call took in the run, times the number
    # of such calls in a pass.
    pass_s = sum(best * calls for best, calls in kinds.values()) / len(pass_times)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "pass_s": (pass_s, "s"),
        "trajectories_per_s": (workload.trajectories_per_pass() / pass_s, "1/s"),
        "peak_rss_mb": (peak, "MB"),
    }
    detail = {
        "workload": workload_cls.name,
        "seed": seed,
        "passes": len(pass_times),
        "pass_s_quartiles": _quartiles(pass_times),
        "timed_kinds": len(kinds),
        "best_s_of_largest_kinds": dict(sorted(kinds.items(), key=lambda kv: -kv[1][0] * kv[1][1])[:8]),
        "setup_s_samples": setup,
        "trajectories_per_pass": workload.trajectories_per_pass(),
    }
    if workload_cls.name == "tracking":
        detail["plan_steps_per_s"] = workload.plan_steps_per_pass() / pass_s
    return metrics, {workload_cls.name: stats}, failures, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="OUT_DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _use_checkout_source()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be a non-negative 64-bit integer")
    if args.setup_only is not None:
        WORKLOADS[args.workload](ROOT, args.seed, Path(args.setup_only))
        return 0

    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        if args.trace:
            import layers

            metrics, counts, failures, detail = layers.traced_run(ROOT, args.workload, args.seed, out_dir)
        else:
            metrics, counts, failures, detail = timed_run(WORKLOADS[args.workload], args.seed, args.seconds, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    own = counts[args.workload]
    detail["operations"] = {
        name: {"attempted": s.attempted, "failed": s.failed, "errors": sorted(set(s.errors))}
        for name, s in counts.items()
    }
    detail["check_failures"] = failures
    for message in failures:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not failures,
        "attempted": own.attempted,
        "failed": own.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
