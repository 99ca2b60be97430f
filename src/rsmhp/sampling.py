"""Trajectory samplers: branching tree, likeliness-pruned tree, independent paths.

Tree schemes branch N ways at each of the first H-1 steps, giving N^(H-1)
overlapping trajectories that share prefixes; the final step is completed
with the noise mean at neutral weight 1, so every trajectory carries a full
H+1 state path.  The independent scheme draws all H steps fresh per path.

Every scheme steps its whole population of paths at once through the
model's row-stacked callables, with the checked stepping code of
``model``.  Randomness comes from counter-based Philox streams derived from
the master seed with structured spawn keys (one stream per tree depth, one
per independent batch), with batch rows assigned positionally to nodes, so
output is a pure function of the model, controls and config.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import (
    Array,
    SamplingScheme,
    StochasticModel,
    TrajectorySet,
    _simulate_paths,
    _stage_costs,
    _terminal_costs,
    _transitions,
    as_controls,
)

__all__ = [
    "NoiseSharing",
    "SamplerConfig",
    "TreeSizeError",
    "PruneRecord",
    "sample_tree",
    "sample_tree_pruned",
    "sample_independent",
]

_TREE_DOMAIN = 0
_INDEPENDENT_DOMAIN = 1


class NoiseSharing(Enum):
    """How tree branches draw their noise at each depth.

    FRESH_PER_NODE gives every parent its own N draws, so costs of
    trajectories from different parents are independent.  SHARED_PER_DEPTH
    draws N values once per depth and reuses them across all parents.
    """

    FRESH_PER_NODE = "fresh_per_node"
    SHARED_PER_DEPTH = "shared_per_depth"


class TreeSizeError(ValueError):
    """Unpruned tree would exceed the configured trajectory cap."""


@dataclass(frozen=True)
class SamplerConfig:
    """Sampling parameters shared by all schemes.

    ``branch_factor`` is N (branches per node for trees, path count for the
    independent scheme).  ``prune_width`` caps the number of survivors per
    depth for the pruned tree and must be None otherwise.  ``tree_cap``
    bounds the width any sampler call may materialize.
    """

    branch_factor: int
    prune_width: int | None = None
    noise_sharing: NoiseSharing = NoiseSharing.FRESH_PER_NODE
    master_seed: int = 0
    tree_cap: int = 10**6

    def __post_init__(self) -> None:
        if self.branch_factor < 1:
            raise ValueError(f"branch_factor must be >= 1, got {self.branch_factor}")
        if self.prune_width is not None and self.prune_width < 1:
            raise ValueError(f"prune_width must be >= 1, got {self.prune_width}")
        if self.tree_cap < 1:
            raise ValueError("tree_cap must be >= 1")
        if self.master_seed < 0:
            raise ValueError("master_seed must be a nonnegative integer")


@dataclass(frozen=True)
class PruneRecord:
    """One pruning event: the candidate pool at a depth and who survived.

    ``likeliness`` and ``branch_paths`` describe all candidates in child
    order before the cut; ``kept`` indexes the survivors in rank order.
    """

    level: int
    likeliness: Array
    branch_paths: np.ndarray
    kept: np.ndarray


def _stream(master_seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(master_seed, spawn_key=key)))


def _grow_tree(
    model: StochasticModel,
    controls,
    config: SamplerConfig,
    prune_to: int | None,
    log: list[PruneRecord] | None,
) -> TrajectorySet:
    u = as_controls(model, controls)
    horizon = model.horizon
    n_branch = config.branch_factor
    law = model.noise

    if prune_to is None and n_branch ** max(horizon - 1, 0) > config.tree_cap:
        raise TreeSizeError(
            f"unpruned tree has {n_branch}^{horizon - 1} trajectories, over the cap "
            f"{config.tree_cap}; use sample_tree_pruned or sample_independent, or raise tree_cap"
        )

    states = model.initial_state[None, :].copy()
    history = np.empty((1, horizon + 1, model.state_dim))
    history[:, 0] = states
    weights_hist = np.ones((1, horizon))
    likeliness = np.ones(1)
    costs = np.zeros(1)
    paths = np.zeros((1, max(horizon - 1, 0)), dtype=np.intp)

    for level in range(horizon - 1):
        count = states.shape[0]
        n_children = count * n_branch
        if n_children > config.tree_cap:
            raise TreeSizeError(
                f"tree width {n_children} at depth {level + 1} exceeds the cap "
                f"{config.tree_cap}; lower prune_width or raise tree_cap"
            )
        stream = _stream(config.master_seed, _TREE_DOMAIN, level)
        if config.noise_sharing is NoiseSharing.SHARED_PER_DEPTH:
            shared_draws, shared_w = law.sample_batch(stream, n_branch)
            draws = np.tile(shared_draws, (count, 1))
            draw_w = np.tile(shared_w, count)
        else:
            draws, draw_w = law.sample_batch(stream, n_children)

        stage = _stage_costs(model, states, u[level], level)
        parents = np.repeat(states, n_branch, axis=0)
        children = _transitions(model, parents, u[level], draws, level)

        history = np.repeat(history, n_branch, axis=0)
        history[:, level + 1] = children
        weights_hist = np.repeat(weights_hist, n_branch, axis=0)
        weights_hist[:, level] = draw_w
        likeliness = np.repeat(likeliness, n_branch) * draw_w
        costs = np.repeat(costs + stage, n_branch)
        paths = np.repeat(paths, n_branch, axis=0)
        paths[:, level] = np.tile(np.arange(n_branch, dtype=np.intp), count)
        states = children

        if prune_to is not None and states.shape[0] > prune_to:
            # Rank by likeliness descending, ties by branch digits
            # (most significant first); lexsort keys go least to most
            # significant with the primary key last.
            keys = tuple(paths[:, col] for col in range(level, -1, -1)) + (-likeliness,)
            order = np.lexsort(keys)
            kept = order[:prune_to]
            if log is not None:
                log.append(
                    PruneRecord(
                        level=level,
                        likeliness=likeliness.copy(),
                        branch_paths=paths.copy(),
                        kept=kept.copy(),
                    )
                )
            states = states[kept]
            history = history[kept]
            weights_hist = weights_hist[kept]
            likeliness = likeliness[kept]
            costs = costs[kept]
            paths = paths[kept]

    # Final step: nominal completion with the noise mean at neutral weight 1.
    last = horizon - 1
    costs = costs + _stage_costs(model, states, u[last], last)
    terminal_draws = np.broadcast_to(law.mean, (states.shape[0], law.dim))
    final_states = _transitions(model, states, u[last], terminal_draws, last)
    history[:, horizon] = final_states
    costs = costs + _terminal_costs(model, final_states)

    scheme = SamplingScheme.TREE if prune_to is None else SamplingScheme.TREE_PRUNED
    return TrajectorySet(
        history, weights_hist, likeliness, costs, scheme, branch_paths=paths
    )


def sample_tree(model: StochasticModel, controls, config: SamplerConfig) -> TrajectorySet:
    """Grow the full branching tree: N^(H-1) trajectories in branch order.

    Trajectory i's branch digits are the base-N representation of i, most
    significant digit at the earliest depth.
    """
    if config.prune_width is not None:
        raise ValueError("sample_tree requires prune_width=None; use sample_tree_pruned")
    return _grow_tree(model, controls, config, prune_to=None, log=None)


def sample_tree_pruned(model: StochasticModel, controls, config: SamplerConfig) -> TrajectorySet:
    """Branching tree that keeps only the prune_width most likely partial paths.

    After each expansion with more than prune_width children, candidates are
    ranked by raw likeliness (ties broken by lexicographic branch index) and
    the top prune_width survive; depths at or under the width are untouched.
    When no pruning ever triggers the output is bit-identical to
    ``sample_tree`` with the same config, in the same order; otherwise
    trajectories appear in final rank order.
    """
    if config.prune_width is None:
        raise ValueError("sample_tree_pruned requires prune_width to be set")
    return _grow_tree(model, controls, config, prune_to=config.prune_width, log=None)


def _sample_tree_pruned_logged(
    model: StochasticModel, controls, config: SamplerConfig
) -> tuple[TrajectorySet, list[PruneRecord]]:
    """Pruned sampling that also reports every pruning event (for diagnostics)."""
    if config.prune_width is None:
        raise ValueError("prune_width must be set")
    log: list[PruneRecord] = []
    out = _grow_tree(model, controls, config, prune_to=config.prune_width, log=log)
    return out, log


def sample_independent(model: StochasticModel, controls, config: SamplerConfig) -> TrajectorySet:
    """Draw branch_factor non-overlapping paths, each with H fresh noise draws.

    All draws come from one derived stream in C order (path-major), so the
    first paths of a larger batch coincide with a smaller one, and each
    path equals the ``rollout`` of its own draws.
    """
    u = as_controls(model, controls)
    horizon = model.horizon
    count = config.branch_factor
    if count > config.tree_cap:
        raise TreeSizeError(
            f"independent batch of {count} paths exceeds the cap {config.tree_cap}"
        )
    law = model.noise
    stream = _stream(config.master_seed, _INDEPENDENT_DOMAIN)
    flat_draws, flat_w = law.sample_batch(stream, count * horizon)
    draws = np.ascontiguousarray(flat_draws).reshape(count, horizon, law.dim)
    weights = np.ascontiguousarray(flat_w).reshape(count, horizon)
    history, likeliness, costs = _simulate_paths(model, u, draws, weights)
    return TrajectorySet(history, weights, likeliness, costs, SamplingScheme.INDEPENDENT)
