"""A vehicle chasing an uncertain target: nominal vs sampled planning.

Runs one closed-loop tracking episode twice with identical randomness, the
only difference being the planner's objective: the nominal planner scores
a candidate path against the single mean-noise target future, while the
sampled planner averages the filter-covariance cost over many drawn
futures.  A short paired study at the end compares the two over a few
seeds and several sampled-future counts.
"""
import time

import numpy as np

from rsmhp.uav import (
    PlannerConfig,
    PlannerObjective,
    ScenarioConfig,
    run_episode,
)


def time_averaged_errors(scenario, config, n_runs):
    """One time-averaged position error per run index 0..n_runs-1."""
    return np.array([run_episode(scenario, config, i).mean() for i in range(n_runs)])


def main():
    scenario = ScenarioConfig(
        n_steps=25,
        process_intensity=8.0,
        sigma0=3.0,
        eta=5e-3,
        target_cov=np.diag([900.0, 900.0, 64.0, 64.0]),
        master_seed=0,
    )
    budget = 60

    nominal_cfg = PlannerConfig(
        horizon=6, objective=PlannerObjective.NBO, eval_budget=budget
    )
    sampled_cfg = PlannerConfig(
        horizon=6, n_trajectories=100,
        objective=PlannerObjective.RSMHP, eval_budget=budget,
    )

    print("one episode, shared randomness, 25 steps")
    nominal_errors = run_episode(scenario, nominal_cfg, run_index=0)
    sampled_errors = run_episode(scenario, sampled_cfg, run_index=0)
    print(f"{'step':>5} {'nominal err':>12} {'sampled err':>12}")
    for step in range(0, scenario.n_steps, 4):
        print(f"{step:>5d} {nominal_errors[step]:>12.2f} {sampled_errors[step]:>12.2f}")
    print(f"{'mean':>5} {nominal_errors.mean():>12.2f} {sampled_errors.mean():>12.2f}")
    print()

    n_runs = 6
    print(f"paired study over {n_runs} seeds (time-averaged error per run)")
    start = time.time()
    nominal = time_averaged_errors(scenario, nominal_cfg, n_runs)
    print(f"  nominal       mean {nominal.mean():6.2f}   median {np.median(nominal):6.2f}")
    for count in (50, 100, 250):
        config = PlannerConfig(
            horizon=6, n_trajectories=count,
            objective=PlannerObjective.RSMHP, eval_budget=budget,
        )
        errors = time_averaged_errors(scenario, config, n_runs)
        print(
            f"  sampled {count:>4d}  mean {errors.mean():6.2f}"
            f"   median {np.median(errors):6.2f}"
        )
    print(f"  ({time.time() - start:.0f}s; same seeds everywhere, so rows are paired)")
    print(
        "  (expect the arms within seed noise of each other here: what the\n"
        "   sampled objective buys is agreement across future counts, not a\n"
        "   large tracking-error gap)"
    )


if __name__ == "__main__":
    main()
