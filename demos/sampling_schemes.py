"""Three ways to draw futures: full tree, pruned tree, independent paths.

Uses a two-point noise so the exact expectation can be enumerated by hand
and every estimate has a known target.  The tree shares draw prefixes and
grows exponentially wide, pruning trims it to the likeliest stubs, and
independent paths trade shared prefixes for flat bookkeeping.
"""
import itertools

import numpy as np

from rsmhp import (
    DiscreteNoise,
    SamplerConfig,
    StochasticModel,
    estimate_mean,
    estimate_weighted,
    sample_independent,
    sample_tree,
    sample_tree_pruned,
)

VALUES = [-1.0, 2.0]
PROBS = [0.7, 0.3]


def build_model():
    # x' = x + w, stage cost x, w in {-1, +2} with probabilities 0.7 / 0.3.
    # With no terminal term the third draw never touches the cost, which is
    # also the step the tree samplers complete with the noise mean.
    return StochasticModel(
        state_dim=1,
        control_dim=1,
        transition=lambda xs, u, ws: xs + ws,
        stage_cost=lambda xs, u: xs[:, 0],
        noise=DiscreteNoise(VALUES, PROBS),
        horizon=3,
        initial_state=[1.0],
    )


def exhaustive_expectation():
    total = 0.0
    for picks in itertools.product(range(2), repeat=3):
        prob = float(np.prod([PROBS[p] for p in picks]))
        x, cost = 1.0, 0.0
        for p in picks:
            cost += x
            x += VALUES[p]
        total += prob * cost
    return total


def main():
    model = build_model()
    controls = np.zeros((3, 1))

    exact = exhaustive_expectation()
    print(f"exhaustive expectation over 8 outcomes: {exact:.10f}")

    for branch in (2, 6):
        tree = sample_tree(
            model, controls, SamplerConfig(branch_factor=branch, master_seed=0)
        )
        print(f"tree with branch factor {branch}: {len(tree)} leaves")
        print(f"  mean estimate     {estimate_mean(tree).value:.10f}")
        print(f"  weighted estimate {estimate_weighted(tree).value:.10f}")
    print("(branches are sampled, so duplicates occur; the mean is the")
    print(" consistent estimate here, while likeliness weighting tilts toward")
    print(" probable branches, the same ranking the pruner keeps)")

    pruned = sample_tree_pruned(
        model, controls, SamplerConfig(branch_factor=6, prune_width=4, master_seed=0)
    )
    print(f"pruned tree (branch 6, M=4): {len(pruned)} leaves kept of 36")
    print(f"  weighted estimate {estimate_weighted(pruned).value:.10f}"
          "   <- biased toward likely branches")

    flat = sample_independent(
        model, controls, SamplerConfig(branch_factor=64, master_seed=0)
    )
    print(f"independent paths (N=64): {len(flat)} trajectories")
    print(f"  mean estimate     {estimate_mean(flat).value:.10f}")

    # Prefix stability: the first 32 of 64 independent paths are the same
    # trajectories the 32-path batch would produce.
    small = sample_independent(
        model, controls, SamplerConfig(branch_factor=32, master_seed=0)
    )
    assert np.array_equal(small.costs, flat.costs[:32])
    print("  (first 32 paths identical to the 32-path batch: shared stream order)")


if __name__ == "__main__":
    main()
