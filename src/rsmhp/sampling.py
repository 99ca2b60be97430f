"""Trajectory samplers: branching tree, likeliness-pruned tree, independent paths.

Tree schemes branch N ways at each of the first H-1 steps, giving N^(H-1)
overlapping trajectories that share prefixes; every parent draws its own N
children.  The final step is completed with the noise mean at neutral
weight 1, so every trajectory carries a full H+1 state path.  The
independent scheme draws all H steps fresh per path.  A trajectory keeps
one weight, its raw likeliness: the running product of its step weights.

One call can also grow many independent replications side by side: with
``SamplerConfig.seeds`` set, each seed is one replication, its rows come out
as one contiguous block (replication-major), and block r equals the
single-replication call with ``master_seed = seeds[r]`` bit for bit.  Pruning
ranks within each replication.  The estimators take the replication count as
``blocks`` and reduce every block in one call.

Every scheme steps its whole population of paths, all replications at once,
through the model's row-stacked callables, with the checked stepping code of
``model``.  Randomness comes from counter-based Philox streams derived from
each replication's seed with structured spawn keys (one stream per tree
depth, one per independent batch), with batch rows assigned positionally to
nodes, so output is a pure function of the model, controls and config.  At
each depth one ``sample_batch`` call takes every replication's stream and
transforms all their draws at once.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ._checks import check_int, check_seed, check_seeds
from ._seeds import seed_states
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
    "SamplerConfig",
    "TreeSizeError",
    "PruneRecord",
    "sample_tree",
    "sample_tree_pruned",
    "sample_tree_pruned_logged",
    "sample_independent",
]

_TREE_DOMAIN = 0
_INDEPENDENT_DOMAIN = 1


class TreeSizeError(ValueError):
    """Unpruned tree would exceed the configured trajectory cap."""


@dataclass(frozen=True)
class SamplerConfig:
    """Sampling parameters shared by all schemes.

    ``branch_factor`` is N (branches per node for trees, path count for the
    independent scheme).  ``prune_width`` caps the number of survivors per
    depth for the pruned tree and must be None otherwise.  ``seeds`` holds
    one seed per replication; empty means a single replication at
    ``master_seed``, which must then be left at 0 when ``seeds`` is given.
    Every seed lies in [0, 2^64).
    ``tree_cap`` bounds the total width, over all replications, that a tree
    sampler call may materialize; an independent batch holds exactly the
    ``branch_factor`` paths per replication it asks for, so it is not capped.
    """

    branch_factor: int
    prune_width: int | None = None
    master_seed: int = 0
    tree_cap: int = 10**6
    seeds: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        check_int("branch_factor", self.branch_factor, 1)
        if self.prune_width is not None:
            check_int("prune_width", self.prune_width, 1)
        check_seed("master_seed", self.master_seed)
        check_int("tree_cap", self.tree_cap, 1)
        seeds = tuple(self.seeds)
        check_seeds("seeds", seeds)
        if seeds and self.master_seed != 0:
            raise ValueError("give either seeds or a nonzero master_seed, not both")
        object.__setattr__(self, "seeds", seeds)

    @property
    def replication_seeds(self) -> tuple[int, ...]:
        """One seed per replication the config grows."""
        return self.seeds or (self.master_seed,)


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


def _streams(seeds, *key: int) -> _Rekeyed:
    """Each seed's stream ``Generator(Philox(SeedSequence(seed, spawn_key=key)))`` in turn."""
    return _Rekeyed(seed_states(seeds, key, 2))


class _Rekeyed:
    """A Philox stream per row of ``philox_keys`` (n, 2), in turn: a noise law's ``streams``.

    A row is the key a ``SeedSequence`` gives Philox, ``generate_state(2,
    np.uint64)``; ``seed_states`` derives the rows of many seeds and keys in
    one pass.  Each pass over the streams re-keys one Philox generator per
    row, with its counter and buffer reset, which draws the same values as a
    fresh one at about a tenth of the set-up cost.  The re-key stays per
    replication, since each replication's values must come from its own key
    in sequence; only the transform of the draws is shared.  So a yielded
    stream is one-shot: it is valid only until the next one is taken.
    """

    def __init__(self, philox_keys: np.ndarray) -> None:
        self.philox_keys = philox_keys

    def __len__(self) -> int:
        return len(self.philox_keys)

    def __iter__(self) -> Iterator[np.random.Generator]:
        bit_generator = np.random.Philox(0)
        stream = np.random.Generator(bit_generator)
        state = bit_generator.state
        for key in self.philox_keys:
            state["state"]["key"] = key
            bit_generator.state = state
            yield stream


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
    seeds = config.replication_seeds
    n_reps = len(seeds)

    if prune_to is None and n_reps * n_branch ** max(horizon - 1, 0) > config.tree_cap:
        raise TreeSizeError(
            f"unpruned tree has {n_reps} x {n_branch}^{horizon - 1} trajectories, over the cap "
            f"{config.tree_cap}; use sample_tree_pruned or sample_independent, or raise tree_cap"
        )

    # The Philox keys of every depth and replication, depth-major, in one pass.
    depths = horizon - 1
    levels = np.repeat(np.arange(depths), n_reps)
    philox_keys = seed_states(
        np.tile(np.asarray(seeds, dtype=np.uint64), depths),
        np.column_stack([np.full_like(levels, _TREE_DOMAIN), levels]),
        2,
    ).reshape(depths, n_reps, 2)

    # Every replication holds the same number of rows at every depth, in one
    # contiguous block per replication.
    states = np.repeat(model.initial_state[None, :], n_reps, axis=0)
    history = np.empty((n_reps, horizon + 1, model.state_dim))
    history[:, 0] = states
    likeliness = np.ones(n_reps)
    costs = np.zeros(n_reps)
    paths = np.zeros((n_reps, max(horizon - 1, 0)), dtype=np.intp)

    for level in range(horizon - 1):
        count = states.shape[0]
        per_rep = count // n_reps * n_branch
        if count * n_branch > config.tree_cap:
            raise TreeSizeError(
                f"tree width {count * n_branch} at depth {level + 1} exceeds the cap "
                f"{config.tree_cap}; lower prune_width or raise tree_cap"
            )
        draws, draw_w = law.sample_batch(_Rekeyed(philox_keys[level]), per_rep)

        stage = _stage_costs(model, states, u[level], level)
        parents = np.repeat(states, n_branch, axis=0)
        children = _transitions(model, parents, u[level], draws, level)

        history = np.repeat(history, n_branch, axis=0)
        history[:, level + 1] = children
        likeliness = np.repeat(likeliness, n_branch) * draw_w
        costs = np.repeat(costs + stage, n_branch)
        paths = np.repeat(paths, n_branch, axis=0)
        paths[:, level] = np.tile(np.arange(n_branch, dtype=np.intp), count)
        states = children

        if prune_to is not None and per_rep > prune_to:
            # Within each replication, rank by likeliness descending, ties
            # by branch digits (most significant first); lexsort keys go
            # least to most significant, so the replication index comes last.
            keys = tuple(paths[:, col] for col in range(level, -1, -1))
            replication = np.repeat(np.arange(n_reps, dtype=np.intp), per_rep)
            order = np.lexsort(keys + (-likeliness, replication))
            kept = order.reshape(n_reps, per_rep)[:, :prune_to].ravel()
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
    return TrajectorySet(history, likeliness, costs, scheme, branch_paths=paths)


def sample_tree(model: StochasticModel, controls, config: SamplerConfig) -> TrajectorySet:
    """Grow the full branching tree: N^(H-1) trajectories in branch order.

    Trajectory i's branch digits are the base-N representation of i, most
    significant digit at the earliest depth.  With several seeds, each
    replication's tree is one block of N^(H-1) rows.
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
    trajectories appear in final rank order.  With several seeds, ranking
    and the cut act within each replication's block.
    """
    if config.prune_width is None:
        raise ValueError("sample_tree_pruned requires prune_width to be set")
    return _grow_tree(model, controls, config, prune_to=config.prune_width, log=None)


def sample_tree_pruned_logged(
    model: StochasticModel, controls, config: SamplerConfig
) -> tuple[TrajectorySet, list[PruneRecord]]:
    """``sample_tree_pruned`` that also returns every pruning event, in depth order.

    Diagnostics for a single replication: a config with more than one seed
    is rejected, since the record indexes refer to one candidate pool.
    """
    if config.prune_width is None:
        raise ValueError("sample_tree_pruned_logged requires prune_width to be set")
    if len(config.replication_seeds) > 1:
        raise ValueError("sample_tree_pruned_logged takes a single replication, got "
                         f"{len(config.seeds)} seeds")
    log: list[PruneRecord] = []
    out = _grow_tree(model, controls, config, prune_to=config.prune_width, log=log)
    return out, log


def sample_independent(model: StochasticModel, controls, config: SamplerConfig) -> TrajectorySet:
    """Draw branch_factor non-overlapping paths, each with H fresh noise draws.

    Each replication's draws come from one derived stream in C order
    (path-major), so the first paths of a larger batch coincide with a
    smaller one, and each path equals the ``rollout`` of its own draws.  One
    ``sample_batch`` call draws every replication's H * branch_factor values,
    stream by stream, and transforms them together.
    """
    u = as_controls(model, controls)
    horizon = model.horizon
    count = config.branch_factor
    seeds = config.replication_seeds
    total = len(seeds) * count
    law = model.noise
    flat_draws, flat_w = law.sample_batch(_streams(seeds, _INDEPENDENT_DOMAIN), count * horizon)
    draws = flat_draws.reshape(total, horizon, law.dim)
    weights = flat_w.reshape(total, horizon)
    history, likeliness, costs = _simulate_paths(model, u, draws, weights)
    return TrajectorySet(history, likeliness, costs, SamplingScheme.INDEPENDENT)
