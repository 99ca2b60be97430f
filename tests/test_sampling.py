"""Samplers: tree growth, likeliness pruning, independent paths, determinism."""
from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import CyclicNoise, accumulator_model, likeliness_rank, set_arrays_equal

from rsmhp import (
    DimensionError,
    DiscreteNoise,
    GaussianNoise,
    LinearModel,
    LqgParams,
    SamplerConfig,
    StochasticModel,
    TrajectorySet,
    TreeSizeError,
    estimate_nbo,
    linear_stochastic_model,
    lqg_stochastic_model,
    rollout,
    sample_independent,
    sample_tree,
    sample_tree_pruned,
    sample_tree_pruned_logged,
)
from rsmhp import sampling
from rsmhp._seeds import _Rekeyed, seed_states
from rsmhp.sampling import _INDEPENDENT_DOMAIN, _TREE_DOMAIN, _independent_blocks


def _lqg(horizon=2, sigma=1.0):
    return lqg_stochastic_model(
        LqgParams(a=0.5, r=10.0, target=1.0, sigma=sigma, x0=0.0, horizon=horizon)
    )


def _streams(seeds, *key):
    """Each seed's stream for ``key`` in turn, re-keyed as the samplers draw them."""
    return _Rekeyed(seed_states(seeds, key, 2))


def _fresh_stream(seed, *key):
    """A replication's stream as documented: a new Philox generator per seed and key."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))


def _loop_only_model(horizon=2):
    """The LQG benchmark written out by hand, not by the library builder."""
    return StochasticModel(
        state_dim=1,
        control_dim=1,
        transition=lambda xs, u, ws: 0.5 * xs + 0.5 * u + ws,
        stage_cost=lambda xs, u: np.full(len(xs), u[0] ** 2),
        noise=GaussianNoise([0.0], [[1.0]]),
        horizon=horizon,
        initial_state=[0.0],
        terminal_cost=lambda xs: 10.0 * (xs[:, 0] - 1.0) ** 2,
    )


def test_tree_count_is_branching_power():
    assert len(sample_tree(_lqg(2), [0.5, 0.2], SamplerConfig(branch_factor=3))) == 3
    out = sample_tree(_lqg(3), [0.5, 0.2, 0.1], SamplerConfig(branch_factor=3))
    assert len(out) == 9


def test_tree_count_small_grid():
    for n in (1, 2, 4):
        for horizon in (1, 2, 3, 4):
            model = _lqg(horizon)
            out = sample_tree(model, np.zeros(horizon), SamplerConfig(branch_factor=n))
            assert len(out) == n ** (horizon - 1)


def test_tree_branch_order_is_left_to_right_digits():
    out = sample_tree(_lqg(3), [0.5, 0.2, 0.1], SamplerConfig(branch_factor=3))
    expected = [[i, j] for i in range(3) for j in range(3)]
    assert out.branch_paths.tolist() == expected


def test_tree_enumerates_sign_sequences_with_shared_draws():
    # The cyclic law hands every parent the same two draws, -1 then +1.
    noise = CyclicNoise([-1.0, 1.0], [0.5, 0.5])
    model = accumulator_model(noise, horizon=3)
    out = sample_tree(model, np.zeros(3), SamplerConfig(branch_factor=2))
    assert len(out) == 4
    steps = np.diff(out.states[:, :, 0], axis=1)
    np.testing.assert_array_equal(
        steps[:, :2], [[-1, -1], [-1, 1], [1, -1], [1, 1]]
    )
    # Final step is completed with the mean (0) at neutral weight 1, so each
    # path matches the rollout of its two drawn steps and a unit-weight mean.
    np.testing.assert_array_equal(steps[:, 2], np.zeros(4))
    np.testing.assert_allclose(out.raw_likeliness, np.full(4, 0.25), rtol=1e-12)
    for i, signs in enumerate(steps[:, :2]):
        path = rollout(model, np.zeros(3), [(s, 0.5) for s in signs] + [(0.0, 1.0)])
        assert np.array_equal(path.states[0], out.states[i])
        assert path.raw_likeliness[0] == out.raw_likeliness[i]


def test_tree_single_step_horizon_has_one_nominal_path():
    model = _lqg(1)
    out = sample_tree(model, [0.3], SamplerConfig(branch_factor=5))
    assert len(out) == 1
    assert out.raw_likeliness[0] == 1.0
    assert out.costs[0] == estimate_nbo(model, [0.3]).value


def test_sampled_likeliness_is_positive():
    for scheme_fn in (sample_tree, sample_independent):
        out = scheme_fn(_lqg(3), [0.5, 0.2, 0.1], SamplerConfig(branch_factor=4, master_seed=3))
        assert np.all(out.raw_likeliness > 0)


def test_tree_cap_error_suggests_alternatives():
    with pytest.raises(TreeSizeError, match="prune|independent"):
        sample_tree(_lqg(8), np.zeros(8), SamplerConfig(branch_factor=10))
    # Same size is fine when pruned.
    out = sample_tree_pruned(
        _lqg(8), np.zeros(8), SamplerConfig(branch_factor=10, prune_width=16)
    )
    assert len(out) == 16


def test_sample_tree_rejects_prune_width():
    with pytest.raises(ValueError):
        sample_tree(_lqg(2), [0.1, 0.2], SamplerConfig(branch_factor=2, prune_width=3))
    with pytest.raises(ValueError):
        sample_tree_pruned(_lqg(2), [0.1, 0.2], SamplerConfig(branch_factor=2))


def test_pruned_is_bit_identical_when_width_is_enough():
    controls = [0.5, 0.2, 0.1]
    for width in (9, 50):
        full = sample_tree(_lqg(3), controls, SamplerConfig(branch_factor=3, master_seed=21))
        pruned = sample_tree_pruned(
            _lqg(3),
            controls,
            SamplerConfig(branch_factor=3, prune_width=width, master_seed=21),
        )
        assert set_arrays_equal(full, pruned)
        assert np.array_equal(full.branch_paths, pruned.branch_paths)


def test_pruned_count_is_min_of_width_and_tree_size():
    for width in (1, 2, 4, 9, 20):
        out = sample_tree_pruned(
            _lqg(3),
            [0.5, 0.2, 0.1],
            SamplerConfig(branch_factor=3, prune_width=width, master_seed=2),
        )
        assert len(out) == min(width, 9)


def test_pruned_survivors_match_rank_oracle():
    controls = [0.5, 0.2, 0.1, 0.3]
    # The H = 3 tree from the same seed draws the same first two depths, and
    # its last step has weight 1, so its likeliness is the depth-2 partial
    # likeliness of the H = 4 tree.
    partial = sample_tree(_lqg(3), controls[:3], SamplerConfig(branch_factor=2, master_seed=77)).raw_likeliness
    pruned, log = sample_tree_pruned_logged(
        _lqg(4), controls, SamplerConfig(branch_factor=2, prune_width=3, master_seed=77)
    )
    assert len(pruned) == 3
    # Pruning happened at every depth whose pool exceeded the width.
    assert [rec.level for rec in log] == [1, 2]
    # At the first cut no earlier pruning has occurred, so the pool matches
    # the unpruned tree's partial likeliness and the survivors are its top 3.
    first = log[0]
    pool = np.sort(first.likeliness)[::-1]
    np.testing.assert_allclose(np.sort(partial)[::-1][:4], pool[:4], rtol=1e-12)
    survivors = first.likeliness[first.kept]
    excluded = np.delete(first.likeliness, first.kept)
    assert survivors.min() >= excluded.max()


def test_pruning_dominance_at_every_cut():
    rng = np.random.default_rng(4)
    for seed in rng.integers(0, 2**32, size=8):
        _, log = sample_tree_pruned_logged(
            _lqg(4),
            [0.5, 0.2, 0.1, 0.3],
            SamplerConfig(branch_factor=3, prune_width=5, master_seed=int(seed)),
        )
        assert log, "expected pruning to trigger"
        for rec in log:
            survivors = rec.likeliness[rec.kept]
            excluded = np.delete(rec.likeliness, rec.kept)
            assert survivors.min() >= excluded.max()


def test_pruned_single_path_follows_highest_weight_at_each_depth():
    out, log = sample_tree_pruned_logged(
        _lqg(4),
        [0.5, 0.2, 0.1, 0.3],
        SamplerConfig(branch_factor=4, prune_width=1, master_seed=13),
    )
    assert len(out) == 1
    for rec in log:
        assert rec.kept[0] == int(np.argmax(rec.likeliness))


def _pruned_digits_reference(probs, n_branch, width, horizon):
    """The survivors' branch digits by the pruning rule, in plain Python, when child d weighs ``probs[d]``.

    Each depth's pool, once wider than ``width``, is sorted by (-likeliness,
    digit tuple) and cut to its first ``width``.
    """
    survivors = [(1.0, ())]
    for _ in range(horizon - 1):
        pool = [(lik * probs[d], digits + (d,)) for lik, digits in survivors for d in range(n_branch)]
        survivors = sorted(pool, key=lambda c: (-c[0], c[1]))[:width] if len(pool) > width else pool
    return [list(digits) for _, digits in survivors]


def test_pruned_ties_break_by_branch_digits():
    cases = [
        # All four candidates tie at 0.25; lexicographic branch order wins.
        ([0.5, 0.5], 2, 3),
        # Digits 1 and 2 tie and both beat 0, at every one of 47 cuts: ties
        # after earlier cuts, and past the 40 depths at which a base-3 digit
        # key would pass 2^63.
        ([0.2, 0.4, 0.4], 3, 48),
    ]
    for probs, width, horizon in cases:
        # With as many support points as branches, the cyclic law hands
        # every parent the same draws, so child d weighs probs[d].
        n_branch = len(probs)
        noise = CyclicNoise(np.arange(n_branch, dtype=float), probs)
        out = sample_tree_pruned(
            accumulator_model(noise, horizon=horizon),
            np.zeros(horizon),
            SamplerConfig(branch_factor=n_branch, prune_width=width),
        )
        assert out.branch_paths.tolist() == _pruned_digits_reference(probs, n_branch, width, horizon)
    # The reference itself, on the two cases.
    assert _pruned_digits_reference([0.5, 0.5], 2, 2, 3) == [[0, 0], [0, 1]]
    assert _pruned_digits_reference([0.2, 0.4, 0.4], 3, 3, 48) == [[1] * 47, [1] * 46 + [2], [1] * 45 + [2, 1]]


def test_independent_single_path():
    out = sample_independent(_lqg(2), [0.5, 0.2], SamplerConfig(branch_factor=1))
    assert len(out) == 1


def test_independent_zero_variance_collapses_to_nominal_path():
    model = lqg_stochastic_model(
        LqgParams(a=0.5, r=10.0, target=1.0, sigma=0.0, x0=0.0, horizon=2)
    )
    out = sample_independent(model, [0.55, 0.17], SamplerConfig(branch_factor=1000))
    nominal = estimate_nbo(model, [0.55, 0.17])
    assert np.all(out.costs == nominal.value)
    assert np.all(out.states == out.states[0])


def test_independent_draws_every_step_fresh():
    config = SamplerConfig(branch_factor=5, master_seed=8)
    controls = [0.5, 0.2, 0.1]
    out = sample_independent(_lqg(3), controls, config)
    # No nominal completion here: each path is the rollout of its own H
    # drawn steps, and all of their weights are genuine, distinct densities.
    stream = _fresh_stream(config.master_seed, _INDEPENDENT_DOMAIN)
    draws, weights = _lqg(3).noise.sample_batch([stream], 15)
    assert np.all(weights < 1.0)
    assert len(np.unique(weights)) == 15
    for i in range(5):
        path = rollout(_lqg(3), controls, list(zip(draws[3 * i : 3 * i + 3], weights[3 * i : 3 * i + 3])))
        assert np.array_equal(path.states[0], out.states[i])
        assert path.raw_likeliness[0] == out.raw_likeliness[i]


def test_independent_prefix_stability():
    small = sample_independent(_lqg(2), [0.5, 0.2], SamplerConfig(branch_factor=10, master_seed=6))
    large = sample_independent(_lqg(2), [0.5, 0.2], SamplerConfig(branch_factor=40, master_seed=6))
    assert np.array_equal(small.costs, large.costs[:10])
    assert np.array_equal(small.states, large.states[:10])


def test_independent_peak_memory_is_outputs_plus_a_few_blocks():
    # The call holds its outputs and one block's draws, weights and stepping
    # temporaries, not a full-width copy of each (numpy reports its buffers
    # to tracemalloc).
    model = _lqg(2)
    controls = [0.5, 0.2]
    sample_independent(model, controls, SamplerConfig(branch_factor=16))
    tracemalloc.start()
    try:
        out = sample_independent(model, controls, SamplerConfig(branch_factor=2**18, master_seed=3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    outputs = out.states.nbytes + out.raw_likeliness.nbytes + out.costs.nbytes
    assert peak < outputs + 4 * 2**20, (peak, outputs)


def test_long_pruned_tree_peak_memory_is_a_few_times_its_outputs():
    # A pruned tree keeps each depth's survivors' states and pool rows once,
    # about the size of its outputs, and walks back to fill its paths; it
    # copies no history or digit string per depth (numpy reports its
    # buffers to tracemalloc).
    horizon = 200
    model = linear_stochastic_model(LinearModel([[0.9]], [[1.0]], [0.0], [1.0], [[1.0]], horizon=horizon), [0.3])
    controls = np.linspace(-1.0, 1.0, horizon)
    sample_tree_pruned(model, controls, SamplerConfig(branch_factor=10, prune_width=100))
    tracemalloc.start()
    try:
        out = sample_tree_pruned(model, controls, SamplerConfig(branch_factor=10, prune_width=100, master_seed=3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    outputs = out.states.nbytes + out.raw_likeliness.nbytes + out.costs.nbytes + out.branch_paths.nbytes
    assert peak < 4 * outputs, (peak, outputs)


@pytest.mark.parametrize("cpus", [1, 2])
def test_long_horizon_peak_memory_is_bounded_by_the_block_caps(monkeypatch, cpus):
    # A block holds at most _BLOCK_DRAWS draws and as many weights, however
    # long the horizon, and at most two blocks are alive at once (one
    # stepping, one being drawn); the stepping temporaries are a few columns.
    monkeypatch.setattr(sampling, "_usable_cpus", lambda: cpus)
    horizon = 200
    model = linear_stochastic_model(LinearModel([[0.9]], [[1.0]], [0.0], [1.0], [[1.0]], horizon=horizon), [0.3])
    controls = np.linspace(-1.0, 1.0, horizon)
    sample_independent(model, controls, SamplerConfig(branch_factor=16))
    tracemalloc.start()
    try:
        out = sample_independent(model, controls, SamplerConfig(branch_factor=10**4, master_seed=3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    outputs = out.states.nbytes + out.raw_likeliness.nbytes + out.costs.nbytes
    blocks = 2 * 2 * sampling._BLOCK_DRAWS * 8
    assert peak < outputs + blocks + 2**20, (peak, outputs, blocks)


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_block_is_freed_before_the_block_two_after_it_is_drawn(monkeypatch, cpus):
    # At most two blocks are alive: one stepping and one being drawn.  As the
    # law is asked for each block, it records whether the draws and weights
    # of the block two before are still referenced (weakly held, so the
    # record keeps nothing alive).  A draw that is a view records its base,
    # the array that owns the memory.  A slow done-callback keeps the worker
    # busy after each step's future has woken the caller, as a loaded machine
    # might, so a block the worker frees only after completing would be seen.
    monkeypatch.setattr(sampling, "_BLOCK_ROWS", 4)
    monkeypatch.setattr(sampling, "_usable_cpus", lambda: cpus)
    submit = ThreadPoolExecutor.submit

    def lingering_submit(self, fn, *args):
        future = submit(self, fn, *args)
        future.add_done_callback(lambda _: time.sleep(0.02))
        return future

    monkeypatch.setattr(ThreadPoolExecutor, "submit", lingering_submit)
    made, alive = [], []

    def owner(array):
        return array if array.base is None else array.base

    class Watched(GaussianNoise):
        def sample_batch(self, streams, count):
            if len(made) >= 2:
                alive.append([ref() is not None for ref in made[-2]])
            draws, weights = super().sample_batch(streams, count)
            made.append((weakref.ref(owner(draws)), weakref.ref(owner(weights))))
            return draws, weights

    model = dataclasses.replace(_lqg(3), noise=Watched([0.0], [[1.0]]))
    sample_independent(model, [0.5, 0.2, 0.1], SamplerConfig(branch_factor=40))
    assert len(made) == 10
    assert alive == [[False, False]] * 8


def test_importing_the_package_and_its_cli_loads_no_thread_pool():
    # concurrent.futures takes about 10 ms to load, which every run's start
    # would pay; sample_independent loads it on its first threaded call.
    script = "import sys\nimport rsmhp, rsmhp.experiments.cli\nprint('concurrent.futures' in sys.modules)\n"
    path = os.pathsep.join(filter(None, [str(Path(__file__).resolve().parent.parent / "src"),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_loop_and_batch_paths_agree():
    loop = sample_independent(
        _loop_only_model(), [0.55, 0.17], SamplerConfig(branch_factor=64, master_seed=12)
    )
    fast = sample_independent(
        _lqg(2), [0.55, 0.17], SamplerConfig(branch_factor=64, master_seed=12)
    )
    np.testing.assert_allclose(loop.costs, fast.costs, rtol=1e-12)
    np.testing.assert_allclose(loop.states, fast.states, rtol=1e-12)


@given(
    dim=st.integers(min_value=1, max_value=3),
    horizon=st.integers(min_value=1, max_value=6),
    count=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_rollout_is_a_batch_of_one(dim, horizon, count, seed):
    rng = np.random.default_rng(seed)
    root = rng.normal(size=(dim, dim))
    lin = LinearModel(
        rng.normal(scale=0.5, size=(dim, dim)),
        rng.normal(size=(dim, 2)),
        rng.normal(size=dim),
        rng.normal(size=2),
        root @ root.T + 0.1 * np.eye(dim),
        horizon=horizon,
    )
    model = linear_stochastic_model(lin, rng.normal(size=dim))
    controls = rng.normal(size=(horizon, 2))
    config = SamplerConfig(branch_factor=count, master_seed=seed)
    batch = sample_independent(model, controls, config)
    # The same draws the sampler takes: one sample_batch call, path-major.
    stream = _fresh_stream(config.master_seed, _INDEPENDENT_DOMAIN)
    draws, weights = model.noise.sample_batch([stream], count * horizon)
    draws = draws.reshape(count, horizon, dim)
    weights = weights.reshape(count, horizon)
    for i in range(count):
        path = rollout(model, controls, list(zip(draws[i], weights[i])))
        assert np.array_equal(path.states[0], batch.states[i])
        assert path.costs[0] == batch.costs[i]
        assert path.raw_likeliness[0] == batch.raw_likeliness[i]


@pytest.mark.parametrize(
    "name, step, tree_step", [("stage_cost", 0, 1), ("terminal_cost", 3, 3)]
)
def test_wrong_shaped_cost_names_the_callable_and_step(name, step, tree_step):
    model = accumulator_model(GaussianNoise([0.0], [[1.0]]), horizon=3, with_terminal=True)
    controls = np.zeros(3)
    # One cost for the whole batch, shape (1,), would broadcast over it.  The
    # tree has a single root, so its first wrong stage cost comes at step 1.
    first_row = {"stage_cost": lambda xs, u: xs[:1, 0], "terminal_cost": lambda xs: xs[:1, 0]}
    bad = dataclasses.replace(model, **{name: first_row[name]})
    with pytest.raises(DimensionError, match=rf"{name} returned shape \(1,\) at step {step}"):
        sample_independent(bad, controls, SamplerConfig(branch_factor=4))
    with pytest.raises(DimensionError, match=rf"{name} returned shape \(1,\) at step {tree_step}"):
        sample_tree(bad, controls, SamplerConfig(branch_factor=4))
    # A rollout is a batch of one, where a scalar cost is the wrong shape.
    scalar = {"stage_cost": lambda xs, u: float(xs[0, 0]), "terminal_cost": lambda xs: float(xs[0, 0])}
    bad = dataclasses.replace(model, **{name: scalar[name]})
    with pytest.raises(DimensionError, match=rf"{name} returned shape \(\) at step {step}"):
        rollout(bad, controls, [(np.zeros(1), 1.0)] * 3)


def test_samplers_are_deterministic_given_config():
    controls = [0.5, 0.2, 0.1]
    cfg = SamplerConfig(branch_factor=3, master_seed=99)
    cfg_pruned = SamplerConfig(branch_factor=3, prune_width=4, master_seed=99)
    for fn, config in (
        (sample_tree, cfg),
        (sample_tree_pruned, cfg_pruned),
        (sample_independent, cfg),
    ):
        first = fn(_lqg(3), controls, config)
        second = fn(_lqg(3), controls, config)
        assert set_arrays_equal(first, second)


def test_tree_and_pruned_share_streams_by_construction():
    # The unpruned tree and a never-triggered pruned tree must consume the
    # same draws; a triggered prune must still agree on the surviving rows.
    controls = [0.5, 0.2, 0.1]
    full = sample_tree(_lqg(3), controls, SamplerConfig(branch_factor=3, master_seed=31))
    pruned = sample_tree_pruned(
        _lqg(3), controls, SamplerConfig(branch_factor=3, prune_width=4, master_seed=31)
    )
    rank = likeliness_rank(full)[:4]
    np.testing.assert_array_equal(full.branch_paths[rank], pruned.branch_paths)
    np.testing.assert_array_equal(full.costs[rank], pruned.costs)


def test_independent_costs_are_uncorrelated():
    # Rank correlation between path slots over replications.  Ranks give a
    # statistic with a calibrated normal null (raw cost products are far too
    # heavy-tailed at this replication count), while any accidental draw
    # sharing between slots would push |z| into the tens.
    model = _lqg(2)
    reps = 4000
    n_paths = 6
    costs = np.empty((reps, n_paths))
    for rep in range(reps):
        out = sample_independent(
            model, [0.55, 0.17], SamplerConfig(branch_factor=n_paths, master_seed=rep)
        )
        costs[rep] = out.costs
    ranks = costs.argsort(axis=0).argsort(axis=0).astype(float)
    ranks -= ranks.mean(axis=0)
    ranks /= np.sqrt((ranks**2).sum(axis=0))
    worst = 0.0
    for i in range(n_paths):
        for j in range(i + 1, n_paths):
            z = abs(float(ranks[:, i] @ ranks[:, j])) * np.sqrt(reps - 1)
            worst = max(worst, z)
    assert worst < 3.5


@pytest.mark.parametrize(
    "field, value",
    [
        ("branch_factor", 2.5),
        ("branch_factor", 2.0),
        ("branch_factor", True),
        ("prune_width", 2.5),
        ("prune_width", False),
        ("master_seed", 1.5),
        ("master_seed", "3"),
        ("master_seed", True),
    ],
)
def test_config_rejects_non_integers_naming_the_field(field, value):
    with pytest.raises(TypeError, match=rf"^{field} must be an integer, got {value!r}"):
        SamplerConfig(**{"branch_factor": 2, field: value})


@pytest.mark.parametrize(
    "seeds, error, message",
    [
        ((4, 2.5), TypeError, r"seeds\[1\] must be an integer, got 2\.5"),
        (("7",), TypeError, r"seeds\[0\] must be an integer, got '7'"),
        ((True, 3), TypeError, r"seeds\[0\] must be an integer, got True"),
        ((1, -2), ValueError, r"seeds\[1\] must be >= 0, got -2"),
        ((1, 2**64), ValueError, r"seeds\[1\] must be below 2\*\*64, got 18446744073709551616"),
    ],
)
def test_config_rejects_bad_seeds_naming_the_entry(seeds, error, message):
    with pytest.raises(error, match=message):
        SamplerConfig(branch_factor=2, seeds=seeds)


def test_config_rejects_seeds_with_a_master_seed():
    with pytest.raises(ValueError, match="seeds or a nonzero master_seed"):
        SamplerConfig(branch_factor=2, master_seed=3, seeds=(1, 2))
    config = SamplerConfig(branch_factor=2, seeds=[np.uint64(5), 6])
    assert config.seeds == (5, 6)
    assert config.replication_seeds == (5, 6)
    assert SamplerConfig(branch_factor=2, master_seed=3).replication_seeds == (3,)


def test_tree_cap_bounds_the_rows_of_all_replications(monkeypatch):
    seeds = (1, 2, 3, 4)
    monkeypatch.setattr(sampling, "_TREE_CAP", 35)
    with pytest.raises(TreeSizeError, match="over the cap 35; use sample_tree_pruned or sample_independent$"):
        sample_tree(_lqg(3), np.zeros(3), SamplerConfig(branch_factor=3, seeds=seeds))
    monkeypatch.setattr(sampling, "_TREE_CAP", 36)
    assert len(sample_tree(_lqg(3), np.zeros(3), SamplerConfig(branch_factor=3, seeds=seeds))) == 36
    monkeypatch.setattr(sampling, "_TREE_CAP", 23)
    with pytest.raises(TreeSizeError, match="tree width 24 at depth 2 exceeds the cap 23; lower prune_width$"):
        sample_tree_pruned(_lqg(3), np.zeros(3), SamplerConfig(branch_factor=3, prune_width=2, seeds=seeds))


def test_independent_batch_is_not_capped(monkeypatch):
    # The cap bounds a tree's N^(H-1) growth; an independent batch holds
    # exactly the paths its config names.
    monkeypatch.setattr(sampling, "_TREE_CAP", 10)
    assert len(sample_independent(_lqg(2), np.zeros(2), SamplerConfig(branch_factor=50))) == 50


def test_independent_rejects_a_prune_width():
    with pytest.raises(ValueError, match="sample_independent requires prune_width=None"):
        sample_independent(_lqg(2), np.zeros(2), SamplerConfig(branch_factor=10, prune_width=3))


def test_logged_pruning_takes_one_replication():
    controls = [0.5, 0.2, 0.1]
    with pytest.raises(ValueError, match="single replication"):
        sample_tree_pruned_logged(
            _lqg(3), controls, SamplerConfig(branch_factor=3, prune_width=2, seeds=(1, 2))
        )
    one_seed, log = sample_tree_pruned_logged(
        _lqg(3), controls, SamplerConfig(branch_factor=3, prune_width=2, seeds=(8,))
    )
    plain = sample_tree_pruned(_lqg(3), controls, SamplerConfig(branch_factor=3, prune_width=2, master_seed=8))
    assert one_seed.costs.shape == (1, len(plain))
    assert set_arrays_equal(_replication(one_seed, 0), plain)
    assert np.array_equal(one_seed.branch_paths[0], plain.branch_paths)
    assert [rec.level for rec in log] == [0, 1]


def _replication(stacked, r):
    """Replication ``r`` of a stacked set, as a set of its own."""
    return TrajectorySet(stacked.states[r], stacked.raw_likeliness[r], stacked.costs[r])


_STACKED = [
    (sample_tree, None),
    (sample_tree_pruned, "prunes"),
    (sample_tree_pruned, "never"),
    (sample_independent, None),
]


@pytest.mark.parametrize("sampler, width_mode", _STACKED)
@given(
    dim=st.integers(min_value=1, max_value=6),
    horizon=st.integers(min_value=1, max_value=4),
    branch=st.integers(min_value=1, max_value=3),
    seeds=st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=4),
    kind=st.sampled_from(["gaussian", "discrete", "degenerate"]),
    model_seed=st.integers(min_value=0, max_value=2**32 - 1),
    block_rows=st.sampled_from([1, 2, 3, 7]),
)
@settings(max_examples=25, deadline=None)
def test_stacked_block_equals_its_single_seed_call(
    sampler, width_mode, dim, horizon, branch, seeds, kind, model_seed, block_rows
):
    rng = np.random.default_rng(model_seed)
    root = rng.normal(size=(dim, dim))
    lin = LinearModel(
        rng.normal(scale=0.5, size=(dim, dim)),
        rng.normal(size=(dim, 2)),
        rng.normal(size=dim),
        rng.normal(size=2),
        root @ root.T + 0.1 * np.eye(dim),
        horizon=horizon,
    )
    model = linear_stochastic_model(lin, rng.normal(size=dim))
    if kind != "gaussian":
        # Two of three discrete outcomes share a mass, so pruning meets
        # likeliness ties; one-point (degenerate) draws tie everywhere.
        model = dataclasses.replace(model, noise=_law(kind, dim, rng))
    controls = rng.normal(size=(horizon, 2))
    full = branch ** (horizon - 1)
    width = None
    if width_mode == "prunes":
        assume(full > 1)
        width = max(1, full // 2)
    elif width_mode == "never":
        width = full + int(rng.integers(0, 3))

    def sample(**seed):
        config = SamplerConfig(branch_factor=branch, prune_width=width, **seed)
        out = sampler(model, controls, config)
        # Any block size gives the bits of the one-block call, read-only.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sampling, "_BLOCK_ROWS", block_rows)
            blocked = sampler(model, controls, config)
        assert set_arrays_equal(blocked, out)
        assert not any(a.flags.writeable for a in (blocked.states, blocked.raw_likeliness, blocked.costs))
        return out

    whole = sample(seeds=tuple(seeds))
    assert whole.costs.shape[0] == len(seeds)
    for r, seed in enumerate(seeds):
        alone = sample(master_seed=seed)
        assert set_arrays_equal(_replication(whole, r), alone)
        if alone.branch_paths is None:
            assert whole.branch_paths is None
        else:
            assert np.array_equal(whole.branch_paths[r], alone.branch_paths)
    assert len(whole) == len(seeds) * len(alone)


def _law(kind, dim, rng):
    if kind == "gaussian":
        root = rng.normal(size=(dim, dim))
        return GaussianNoise(rng.normal(size=dim), root @ root.T + 0.1 * np.eye(dim))
    if kind == "discrete":
        return DiscreteNoise(rng.normal(size=(3, dim)), [0.25, 0.25, 0.5])
    return DiscreteNoise(rng.normal(size=(1, dim)), [1.0])


@pytest.mark.parametrize("kind", ["gaussian", "discrete", "degenerate"])
@given(
    dim=st.integers(min_value=1, max_value=6),
    count=st.integers(min_value=1, max_value=40),
    seeds=st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=6),
    law_seed=st.integers(min_value=0, max_value=2**32 - 1),
    block_rows=st.sampled_from([1, 2, 3, 7]),
)
@settings(max_examples=60, deadline=None)
def test_stacked_streams_draw_like_one_stream_calls(kind, dim, count, seeds, law_seed, block_rows):
    # The law transforms every stream's rows in one pass; each block must
    # keep the bits of its own one-stream call however many rows surround it.
    law = _law(kind, dim, np.random.default_rng(law_seed))
    draws, weights = law.sample_batch(_streams(seeds, _TREE_DOMAIN, 3), count)
    assert draws.shape == (len(seeds) * count, dim)
    assert weights.shape == (len(seeds) * count,)
    for r, seed in enumerate(seeds):
        alone_draws, alone_weights = law.sample_batch([_fresh_stream(seed, _TREE_DOMAIN, 3)], count)
        rows = slice(r * count, (r + 1) * count)
        assert np.array_equal(draws[rows], alone_draws)
        assert np.array_equal(weights[rows], alone_weights)
    # sample_independent's blocks, in row order: whole streams grouped, or
    # one stream's values taken in consecutive calls, which must return
    # what one call does.
    keys = _streams(seeds, _TREE_DOMAIN, 3).philox_keys
    pieces = [law.sample_batch(streams, rows) for streams, rows in _independent_blocks(keys, count, block_rows)]
    assert np.array_equal(np.concatenate([d for d, _ in pieces]), draws)
    assert np.array_equal(np.concatenate([w for _, w in pieces]), weights)


@given(
    seeds=st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=5),
    key=st.lists(st.integers(min_value=0, max_value=2**32 - 1), min_size=1, max_size=2),
    odd=st.integers(min_value=1, max_value=5),
)
@settings(max_examples=60, deadline=None)
def test_rekeyed_streams_draw_like_fresh_generators(seeds, key, odd):
    def draws(stream):
        # An odd count of 32-bit draws leaves half a word buffered, which
        # must not leak into the next seed's stream.
        return (
            stream.integers(0, 2**32, size=odd, dtype=np.uint32),
            stream.standard_normal(odd + 2),
            stream.choice(3, size=odd, p=[0.25, 0.25, 0.5]),
        )

    got = [draws(stream) for stream in _streams(seeds, *key)]
    for seed, values in zip(seeds, got, strict=True):
        for ours, fresh in zip(values, draws(_fresh_stream(seed, *key))):
            assert np.array_equal(ours, fresh)


def _spy(calls, fn):
    """``fn``, appending its positional arguments to ``calls`` on each call."""

    def spied(*args):
        calls.append(args)
        return fn(*args)

    return spied


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("kind", ["gaussian", "discrete", "degenerate"])
@given(
    dim=st.integers(min_value=1, max_value=3),
    horizon=st.integers(min_value=1, max_value=5),
    count=st.integers(min_value=1, max_value=12),
    seeds=st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=4),
    block_rows=st.integers(min_value=1, max_value=8),
    block_draws=st.integers(min_value=1, max_value=60),
    model_seed=st.integers(min_value=0, max_value=2**32 - 1),
)
# Several whole streams stacked per block, and one stream cut into sub-blocks.
@example(dim=1, horizon=2, count=3, seeds=[1, 2, 3, 4], block_rows=7, block_draws=60, model_seed=0)
@example(dim=2, horizon=3, count=12, seeds=[5, 6], block_rows=8, block_draws=20, model_seed=1)
@settings(max_examples=25, deadline=None)
def test_blocks_and_the_stepping_thread_change_no_bit(
    cpus, kind, dim, horizon, count, seeds, block_rows, block_draws, model_seed
):
    rng = np.random.default_rng(model_seed)
    lin = LinearModel(
        rng.normal(scale=0.5, size=(dim, dim)),
        rng.normal(size=(dim, 2)),
        rng.normal(size=dim),
        rng.normal(size=2),
        np.eye(dim),
        horizon=horizon,
    )
    model = dataclasses.replace(linear_stochastic_model(lin, rng.normal(size=dim)), noise=_law(kind, dim, rng))
    controls = rng.normal(size=(horizon, 2))
    config = SamplerConfig(branch_factor=count, seeds=tuple(seeds))
    whole = sample_independent(model, controls, config)

    steps, threads = [], []
    before = threading.active_count()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sampling, "_BLOCK_ROWS", block_rows)
        patch.setattr(sampling, "_BLOCK_DRAWS", block_draws)
        patch.setattr(sampling, "_usable_cpus", lambda: cpus)
        patch.setattr(sampling, "_simulate_paths", _spy(steps, sampling._simulate_paths))
        patch.setattr(sampling, "_step_behind", _spy(threads, sampling._step_behind))
        blocked = sample_independent(model, controls, config)
    assert set_arrays_equal(blocked, whole)

    # Each block is within both caps (a single path may exceed the draw cap
    # alone), the blocks cover every row once, and only a call of several
    # blocks on more than one CPU steps them on the worker thread.
    sizes = [len(args[2]) for args in steps]
    assert sum(sizes) == len(seeds) * count
    assert all(size <= block_rows and (size == 1 or size * horizon * dim <= block_draws) for size in sizes)
    assert len(threads) == int(cpus > 1 and len(sizes) > 1)
    assert threading.active_count() == before


class _Boom(Exception):
    pass


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_failing_step_or_draw_re_raises_and_leaves_no_thread(monkeypatch, cpus):
    monkeypatch.setattr(sampling, "_BLOCK_ROWS", 4)
    monkeypatch.setattr(sampling, "_usable_cpus", lambda: cpus)
    boom = _Boom("step 2")
    base = _lqg(3)

    def transition(xs, u, ws):
        # Step 2's control is the only 7.0, so every block raises there.
        if u[0] == 7.0:
            raise boom
        return base.transition(xs, u, ws)

    before = threading.active_count()
    with pytest.raises(_Boom) as raised:
        sample_independent(
            dataclasses.replace(base, transition=transition), [0.5, 0.2, 7.0], SamplerConfig(branch_factor=10)
        )
    assert raised.value is boom
    assert threading.active_count() == before

    class LaterBlockFails(GaussianNoise):
        calls = 0

        def sample_batch(self, streams, count):
            LaterBlockFails.calls += 1
            if LaterBlockFails.calls == 3:
                raise boom
            return super().sample_batch(streams, count)

    noisy = dataclasses.replace(base, noise=LaterBlockFails([0.0], [[1.0]]))
    with pytest.raises(_Boom) as raised:
        sample_independent(noisy, [0.5, 0.2, 0.1], SamplerConfig(branch_factor=10))
    assert raised.value is boom
    assert LaterBlockFails.calls == 3
    assert threading.active_count() == before
