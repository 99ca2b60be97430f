"""Trajectory samplers: branching tree, likeliness-pruned tree, independent paths.

Tree schemes branch N ways at each of the first H-1 steps, giving N^(H-1)
overlapping trajectories that share prefixes; every parent draws its own N
children.  The final step is completed with the noise mean at neutral
weight 1, so every trajectory carries a full H+1 state path.  The
independent scheme draws all H steps fresh per path.  A trajectory keeps
one weight, its raw likeliness: the running product of its step weights.

A tree stores each depth once: its survivors' states and, where it was
cut, ``kept``, their rows in its pool in rank order; pool row p is digit
p - N * (p // N) of survivor row p // N.  One walk back from the leaves
fills every path's history and branch digits.  Cuts break likeliness ties
by one digit rank per row, its parent's rank times N plus its digit,
re-ranked densely after each cut to stay below the pool width.

One call can also grow many independent replications side by side: with
``SamplerConfig.seeds`` set, each seed is one replication, the returned set
carries them on a leading axis (``costs`` is (R, n)), and replication r
equals the single-replication call with ``master_seed = seeds[r]`` bit for
bit.  Pruning ranks within each replication.  The estimators reduce along
the last axis, so one call estimates every replication.

Every scheme steps its whole population of paths, all replications at once,
through the model's row-stacked callables, with the checked stepping code of
``model``.  Randomness comes from counter-based Philox streams that ``_seeds``
derives from each replication's seed with structured spawn keys (one stream
per tree depth, one per independent batch), with batch rows assigned
positionally to nodes, so output is a pure function of the model, controls
and config.  At each depth one ``sample_batch`` call takes every
replication's stream and transforms all their draws at once.

The independent scheme draws, weighs and steps its paths in blocks of at
most ``_BLOCK_ROWS`` paths and at most ``_BLOCK_DRAWS`` draws (paths x H x
noise dim), writing each block into output arrays allocated once, so a
call holds its outputs plus two blocks' draws and weights and one block's
stepping temporaries, however many paths it asks for and however long its
horizon.  Replications of at most a block's rows are grouped whole into
blocks; a larger one is drawn from its one stream in consecutive
sub-blocks.  A call of several blocks, given more than one usable CPU,
steps block i on a one-worker thread pool, which drops it before block
i+2 is drawn, while the calling thread draws block i+1; the caller takes
every stream and makes every draw, in order.  The blocks and the thread
change no bit: a stream's values come out in sequence however its draws
are split (the ``NoiseLaw`` split-call contract), the noise transform and
the model callables are row-invariant, so a row's values do not depend on
the rows stepped beside it, and each block writes its own rows.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from ._checks import check_int, check_seed, check_seeds
from ._seeds import _Rekeyed, seed_states
from .model import (
    Array,
    StochasticModel,
    Streams,
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

# Total width, over all replications, that a tree sampler call may
# materialize.  An independent batch holds exactly the paths it asks for, so
# it is not capped.
_TREE_CAP = 10**6

# Paths, and draws (paths x H x noise_dim), per block of sample_independent.
# A block's draws and weights take at most 2^19 * (1 + 1 / noise_dim)
# doubles (8 MiB at noise_dim = 1), and the per-block Python overhead is
# small next to its arithmetic.
_BLOCK_ROWS = 2**14
_BLOCK_DRAWS = 2**19


class TreeSizeError(ValueError):
    """A tree sampler call would hold more than 10^6 trajectories."""


@dataclass(frozen=True)
class SamplerConfig:
    """Sampling parameters shared by all schemes.

    ``branch_factor`` is N (branches per node for trees, path count for the
    independent scheme).  ``prune_width`` caps the number of survivors per
    depth for the pruned tree and must be None otherwise.  ``seeds`` holds
    one seed per replication; empty means a single replication at
    ``master_seed``, which must then be left at 0 when ``seeds`` is given.
    Every seed lies in [0, 2^64).  A tree sampler call holds at most 10^6
    trajectories over all its replications; an independent batch is not
    capped.
    """

    branch_factor: int
    prune_width: int | None = None
    master_seed: int = 0
    seeds: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        check_int("branch_factor", self.branch_factor, 1)
        if self.prune_width is not None:
            check_int("prune_width", self.prune_width, 1)
        check_seed("master_seed", self.master_seed)
        seeds = tuple(self.seeds)
        check_seeds("seeds", seeds)
        if seeds and self.master_seed != 0:
            raise ValueError("give either seeds or a nonzero master_seed, not both")
        object.__setattr__(self, "seeds", seeds)

    @property
    def replication_seeds(self) -> tuple[int, ...]:
        """One seed per replication the config grows."""
        return self.seeds or (self.master_seed,)


@dataclass(frozen=True, eq=False)
class PruneRecord:
    """One pruning event: the candidate pool at a depth and who survived.

    ``likeliness`` and ``branch_paths`` describe all candidates in child
    order before the cut; ``kept`` indexes the survivors in rank order.  A
    record holds diagnostic arrays, so it compares and hashes by identity.
    """

    level: int
    likeliness: Array
    branch_paths: np.ndarray
    kept: np.ndarray


def _as_set(config: SamplerConfig, *arrays: np.ndarray) -> TrajectorySet:
    """The sampled arrays, one row per path in replication-major order, as a set.

    With ``config.seeds`` given, each array gains a leading replication axis.
    """
    if config.seeds:
        reps = len(config.seeds)
        arrays = tuple(a.reshape(reps, a.shape[0] // reps, *a.shape[1:]) for a in arrays)
    return TrajectorySet(*arrays)


def _walk_back(tree: list, rows: np.ndarray, n_branch: int, depths: int, history=None) -> np.ndarray:
    """The branch digits of ``rows`` of the last depth, zero-padded; fills ``history`` if given."""
    digits = np.zeros((depths, rows.size), dtype=np.intp)
    for level in range(len(tree) - 1, -1, -1):
        states, kept = tree[level]
        if history is not None:
            history[level + 1] = np.take(states, rows, axis=0)
        pool = rows if kept is None else np.take(kept, rows)
        rows = pool // n_branch
        np.subtract(pool, rows * n_branch, out=digits[level])
    return digits.T


def _grow_tree(
    model: StochasticModel, controls, config: SamplerConfig, log: list[PruneRecord] | None
) -> TrajectorySet:
    """Grow the tree of every tree sampler, pruned to ``config.prune_width`` per depth when it is set."""
    u = as_controls(model, controls)
    horizon = model.horizon
    n_branch = config.branch_factor
    law = model.noise
    seeds = config.replication_seeds
    n_reps = len(seeds)

    if config.prune_width is None and n_reps * n_branch ** max(horizon - 1, 0) > _TREE_CAP:
        raise TreeSizeError(
            f"unpruned tree has {n_reps} x {n_branch}^{horizon - 1} trajectories, over the cap "
            f"{_TREE_CAP}; use sample_tree_pruned or sample_independent"
        )

    # The Philox keys of every depth and replication, depth-major, in one pass.
    depths = horizon - 1
    levels = np.repeat(np.arange(depths), n_reps)
    philox_keys = seed_states(
        np.tile(np.asarray(seeds, dtype=np.uint64), depths),
        np.column_stack([np.full_like(levels, _TREE_DOMAIN), levels]),
        2,
    ).reshape(depths, n_reps, 2)

    # Rows are replication-major, the same number per replication at every depth.
    states = np.repeat(model.initial_state[None, :], n_reps, axis=0)
    likeliness = np.ones(n_reps)
    costs = np.zeros(n_reps)
    rank = np.arange(n_reps)
    tree = []

    for level in range(depths):
        count = states.shape[0]
        per_rep = count // n_reps * n_branch
        if count * n_branch > _TREE_CAP:
            raise TreeSizeError(
                f"tree width {count * n_branch} at depth {level + 1} exceeds the cap "
                f"{_TREE_CAP}; lower prune_width"
            )
        draws, draw_w = law.sample_batch(_Rekeyed(philox_keys[level]), per_rep)
        stage = _stage_costs(model, states, u[level], level)
        states = _transitions(model, np.repeat(states, n_branch, axis=0), u[level], draws, level)
        likeliness = np.repeat(likeliness, n_branch) * draw_w
        costs = np.repeat(costs + stage, n_branch)
        kept = None
        if config.prune_width is not None:
            rank = (rank[:, None] * n_branch + np.arange(n_branch)).ravel()
        if config.prune_width is not None and per_rep > config.prune_width:
            # lexsort's last key is its most significant.
            replication = np.repeat(np.arange(n_reps), per_rep)
            order = np.lexsort((rank, -likeliness, replication))
            kept = order.reshape(n_reps, per_rep)[:, :config.prune_width].flatten()  # copy; order is freed
            if log is not None:
                paths = _walk_back(tree + [(states, None)], np.arange(len(states)), n_branch, depths)
                log.append(PruneRecord(level, likeliness, paths, kept))
            states = np.take(states, kept, axis=0)
            likeliness, costs, rank = np.take(likeliness, kept), np.take(costs, kept), np.take(rank, kept)
            rank[np.argsort(rank)] = np.arange(rank.size)  # dense: rank * N + digit cannot overflow
        tree.append((states, kept))

    # Final step: nominal completion with the noise mean at neutral weight 1.
    costs = costs + _stage_costs(model, states, u[depths], depths)
    terminal_draws = np.broadcast_to(law.mean, (states.shape[0], law.dim))
    final_states = _transitions(model, states, u[depths], terminal_draws, depths)
    costs = costs + _terminal_costs(model, final_states)
    history = np.empty((horizon + 1, *final_states.shape))
    history[0] = model.initial_state
    history[horizon] = final_states
    paths = _walk_back(tree, np.arange(len(states)), n_branch, depths, history)
    return _as_set(config, history.transpose(1, 0, 2), likeliness, costs, paths)


def sample_tree(model: StochasticModel, controls, config: SamplerConfig) -> TrajectorySet:
    """Grow the full branching tree: N^(H-1) trajectories in branch order.

    Trajectory i's branch digits are the base-N representation of i, most
    significant digit at the earliest depth.  With several seeds, each
    replication's tree is one row of N^(H-1) paths along the leading axis.
    """
    if config.prune_width is not None:
        raise ValueError("sample_tree requires prune_width=None; use sample_tree_pruned")
    return _grow_tree(model, controls, config, log=None)


def sample_tree_pruned(model: StochasticModel, controls, config: SamplerConfig) -> TrajectorySet:
    """Branching tree that keeps only the prune_width most likely partial paths.

    After each expansion with more than prune_width children, candidates are
    ranked by raw likeliness (ties broken by lexicographic branch index) and
    the top prune_width survive; depths at or under the width are untouched.
    When no pruning ever triggers the output is bit-identical to
    ``sample_tree`` with the same config, in the same order; otherwise
    trajectories appear in final rank order.  With several seeds, ranking
    and the cut act within each replication.
    """
    if config.prune_width is None:
        raise ValueError("sample_tree_pruned requires prune_width to be set")
    return _grow_tree(model, controls, config, log=None)


def sample_tree_pruned_logged(
    model: StochasticModel, controls, config: SamplerConfig
) -> tuple[TrajectorySet, list[PruneRecord]]:
    """``sample_tree_pruned`` that also returns every pruning event, in depth order.

    Diagnostics for a single replication: a config with more than one seed
    is rejected, since the record indexes refer to one candidate pool.  A
    config with ``seeds=(s,)`` returns the (1, n) set.
    """
    if config.prune_width is None:
        raise ValueError("sample_tree_pruned_logged requires prune_width to be set")
    if len(config.replication_seeds) > 1:
        raise ValueError("sample_tree_pruned_logged takes a single replication, got "
                         f"{len(config.seeds)} seeds")
    log: list[PruneRecord] = []
    return _grow_tree(model, controls, config, log=log), log


def _independent_blocks(philox_keys: np.ndarray, count: int, rows: int) -> Iterator[tuple[Streams, int]]:
    """The (streams, paths per stream) of each block of at most ``rows`` paths, in output row order.

    Replications of ``count <= rows`` paths are grouped whole; a larger one
    takes its one live stream in consecutive sub-blocks, all of them before
    the next replication's stream is taken.
    """
    per_block = rows // count
    if per_block:
        for start in range(0, len(philox_keys), per_block):
            yield _Rekeyed(philox_keys[start:start + per_block]), count
    else:
        for stream in _Rekeyed(philox_keys):
            for start in range(0, count, rows):
                yield [stream], min(rows, count - start)


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _step_behind(blocks: Iterator[tuple], step: Callable[..., None]) -> None:
    """``step(*block)`` for each of ``blocks`` in order, on one worker thread.

    The caller makes block i+1 while the worker steps block i, then submits
    it once that step is done.  The worker drops each block before it
    completes the block's future, so block i is gone before block i+2 is
    made.  A step's exception re-raises here, after the block being made;
    the pool's shutdown joins the worker on return or raise.
    """
    from concurrent.futures import ThreadPoolExecutor  # here, not at import: loading it costs ~10 ms

    def run(box: list[tuple]) -> None:
        step(*box.pop())

    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="rsmhp-step-behind") as worker:
        stepping = worker.submit(run, [next(blocks)])
        for args in blocks:
            stepping.result()
            stepping = worker.submit(run, [args])
        stepping.result()


def sample_independent(model: StochasticModel, controls, config: SamplerConfig) -> TrajectorySet:
    """Draw branch_factor non-overlapping paths, each with H fresh noise draws.

    Each replication's draws come from one derived stream in C order
    (path-major), so the first paths of a larger batch coincide with a
    smaller one, and each path equals the ``rollout`` of its own draws.  The
    paths are drawn and stepped in blocks of at most ``_BLOCK_ROWS`` paths
    and ``_BLOCK_DRAWS`` draws, each written in place into the returned
    set's arrays.  With several blocks and more than one usable CPU, one
    worker thread steps each block while this thread draws the next; with
    one CPU every block steps here.  Neither changes the values.
    """
    if config.prune_width is not None:
        raise ValueError("sample_independent requires prune_width=None; use sample_tree_pruned")
    u = as_controls(model, controls)
    horizon = model.horizon
    count = config.branch_factor
    seeds = config.replication_seeds
    total = len(seeds) * count
    law = model.noise
    rows = max(1, min(_BLOCK_ROWS, _BLOCK_DRAWS // (horizon * law.dim)))
    history = np.empty((total, horizon + 1, model.state_dim))
    likeliness = np.empty(total)
    costs = np.empty(total)
    philox_keys = seed_states(seeds, (_INDEPENDENT_DOMAIN,), 2)

    def drawn() -> Iterator[tuple]:
        start = 0
        for streams, per_stream in _independent_blocks(philox_keys, count, rows):
            block = slice(start, start + len(streams) * per_stream)
            draws, weights = law.sample_batch(streams, per_stream * horizon)
            yield (
                model,
                u,
                draws.reshape(-1, horizon, law.dim),
                weights.reshape(-1, horizon),
                (history[block], likeliness[block], costs[block]),
            )
            start = block.stop

    if total > rows and _usable_cpus() > 1:
        _step_behind(drawn(), _simulate_paths)
    else:
        for args in drawn():
            _simulate_paths(*args)
    return _as_set(config, history, likeliness, costs)
