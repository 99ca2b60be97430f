"""Estimators: nominal path, plain and weighted averages, convergence behavior."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CyclicNoise, accumulator_model, enumerate_expectation

from rsmhp import (
    GaussianNoise,
    LinearModel,
    LqgParams,
    SamplerConfig,
    StochasticModel,
    TrajectorySet,
    estimate_mean,
    estimate_nbo,
    estimate_weighted,
    linear_stochastic_model,
    lqg_stochastic_model,
    normalize_weights,
    sample_independent,
    sample_tree,
    sample_tree_pruned,
    var_p,
)


def _manual_set(costs, likeliness):
    costs = np.asarray(costs, dtype=float)
    n = costs.shape[0]
    return TrajectorySet(
        states=np.zeros((n, 2, 1)),
        raw_likeliness=np.asarray(likeliness, dtype=float),
        costs=costs,
    )


def test_nbo_matches_hand_value_for_tracking_benchmark():
    model = lqg_stochastic_model(
        LqgParams(a=0.5, r=10.0, target=1.0, sigma=1.0, x0=0.0, horizon=2)
    )
    est = estimate_nbo(model, [0.55, 0.17])
    assert est.value == pytest.approx(6.3764625, abs=1e-9)
    assert est.terms.shape[-1] == 1
    assert est.empirical_variance == 0.0


def test_nbo_equals_mean_for_zero_variance_noise():
    model = lqg_stochastic_model(
        LqgParams(a=0.5, r=10.0, target=1.0, sigma=0.0, x0=0.0, horizon=2)
    )
    nbo = estimate_nbo(model, [0.55, 0.17])
    for sampler in (sample_tree, sample_independent):
        out = sampler(model, [0.55, 0.17], SamplerConfig(branch_factor=7, master_seed=1))
        assert np.all(out.costs == nbo.value)
        assert estimate_mean(out).value == pytest.approx(nbo.value, rel=1e-14)


def test_nbo_of_zero_cost_model_is_zero():
    model = StochasticModel(
        state_dim=1,
        control_dim=1,
        transition=lambda xs, u, ws: xs + ws,
        stage_cost=lambda xs, u: np.zeros(len(xs)),
        noise=GaussianNoise([0.0], [[1.0]]),
        horizon=3,
        initial_state=[0.0],
    )
    assert estimate_nbo(model, np.zeros(3)).value == 0.0


def test_mean_of_single_trajectory():
    est = estimate_mean(_manual_set([7.0], [1.0]))
    assert est.value == 7.0
    assert est.terms.shape[-1] == 1
    assert est.empirical_variance == 0.0


def test_mean_of_three_costs():
    est = estimate_mean(_manual_set([1.0, 2.0, 3.0], [1.0, 1.0, 1.0]))
    assert est.value == pytest.approx(2.0)
    assert est.empirical_variance == pytest.approx(1.0)
    assert est.terms.shape[-1] == 3


def test_mean_on_empty_set_is_an_error():
    empty = TrajectorySet(
        np.zeros((0, 3, 1)),
        np.zeros(0),
        np.zeros(0),
    )
    with pytest.raises(ValueError):
        estimate_mean(empty)
    with pytest.raises(ValueError):
        estimate_weighted(empty)


def test_tree_mean_equals_exhaustive_enumeration_for_fair_two_point_noise():
    # Fair masses so the unweighted average is consistent; asymmetric support
    # and a nonzero start keep the expected value away from zero.
    values = [-1.0, 2.0]
    probs = [0.5, 0.5]
    model = accumulator_model(CyclicNoise(values, probs), horizon=3, with_terminal=True, x0=1.0)
    # The cyclic law hands every parent the same draws, one per support point.
    out = sample_tree(model, np.zeros(3), SamplerConfig(branch_factor=2))
    oracle_model = accumulator_model(
        CyclicNoise(values, probs), horizon=3, with_terminal=True, x0=1.0
    )
    exact = enumerate_expectation(oracle_model, np.zeros(3), values, probs)
    assert exact != 0.0
    assert estimate_mean(out).value == pytest.approx(exact, abs=1e-12)


def test_normalize_equal_likeliness_gives_unit_weights():
    q = normalize_weights(_manual_set([1.0, 2.0, 3.0], [0.4, 0.4, 0.4]))
    np.testing.assert_allclose(q, np.ones(3), rtol=1e-12)


def test_normalize_hand_case():
    q = normalize_weights(_manual_set([0.0, 0.0, 0.0], [0.2, 0.1, 0.1]))
    np.testing.assert_allclose(q, [1.5, 0.75, 0.75], rtol=1e-12)


def test_normalize_does_not_mutate_input():
    ts = _manual_set([1.0, 2.0], [0.3, 0.6])
    q = normalize_weights(ts)
    np.testing.assert_array_equal(ts.raw_likeliness, [0.3, 0.6])
    assert not np.shares_memory(q, ts.raw_likeliness)
    assert q.shape == (2,)


@pytest.mark.filterwarnings("error")
def test_normalize_rejects_weights_that_miss_the_set_size():
    # Subnormal likeliness: n / total overflows, so the weights come out inf,
    # or NaN where a likeliness is 0.
    with pytest.raises(ValueError, match="normalized weights must sum to the set size 2, got inf"):
        normalize_weights(_manual_set([1.0, 2.0], [1e-310, 1e-310]))
    with pytest.raises(ValueError, match="normalized weights must sum to the set size 2, got nan"):
        normalize_weights(_manual_set([1.0, 2.0], [1e-310, 0.0]))
    np.testing.assert_array_equal(normalize_weights(_manual_set([1.0, 2.0], [1.5, 0.5])), [1.5, 0.5])


@pytest.mark.filterwarnings("error")
def test_weighted_raises_on_an_underflowed_independent_set():
    # The long-horizon bulk set: 200 Gaussian densities at variance 100
    # multiply to 0 or a subnormal.  Two paths are the fewest that give NaN
    # weights: one likeliness is 0, so 0 * (n / total) = 0 * inf.  The
    # estimate must raise, not return NaN.
    model = linear_stochastic_model(LinearModel(0.9, 1.0, 1.0, 0.1, 100.0, horizon=200), [0.0])
    paths = sample_independent(model, np.zeros(200), SamplerConfig(branch_factor=2, master_seed=3))
    assert paths.raw_likeliness.min() == 0.0
    assert 0.0 < paths.raw_likeliness.sum() < np.finfo(float).tiny
    with pytest.raises(ValueError, match="normalized weights must sum to the set size 2, got nan"):
        estimate_weighted(paths)


def test_normalize_rejects_degenerate_likeliness():
    with pytest.raises(ValueError):
        normalize_weights(_manual_set([1.0, 2.0], [0.0, 0.0]))
    with pytest.raises(ValueError):
        normalize_weights(_manual_set([1.0, 2.0], [-0.1, 0.2]))


@given(
    st.lists(
        st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=40,
    )
)
@settings(max_examples=200, deadline=None)
def test_normalized_weights_sum_to_set_size(likeliness):
    ts = _manual_set(np.zeros(len(likeliness)), likeliness)
    total = normalize_weights(ts).sum()
    assert total == pytest.approx(len(likeliness), rel=1e-9)


def test_weighted_with_uniform_weights_is_plain_mean():
    ts = _manual_set([4.0, 8.0, 3.0], [0.2, 0.2, 0.2])
    assert estimate_weighted(ts).value == pytest.approx(estimate_mean(ts).value, rel=1e-12)


def test_weighted_degenerate_weight_concentrates():
    ts = _manual_set([10.0, 0.0], [1.0, 0.0])
    est = estimate_weighted(ts)
    assert est.value == 10.0
    assert est.terms.shape[-1] == 2


def test_weighted_tree_equals_exhaustive_enumeration_for_biased_noise():
    values = [-1.0, 1.0]
    probs = [0.7, 0.3]
    model = accumulator_model(CyclicNoise(values, probs), horizon=3, with_terminal=True)
    # The cyclic law hands every parent the same draws, one per support point.
    out = sample_tree(model, np.zeros(3), SamplerConfig(branch_factor=2))
    oracle_model = accumulator_model(CyclicNoise(values, probs), horizon=3, with_terminal=True)
    exact = enumerate_expectation(oracle_model, np.zeros(3), values, probs)
    assert estimate_weighted(out).value == pytest.approx(exact, abs=1e-12)


@given(st.integers(min_value=-30, max_value=30))
@settings(max_examples=61, deadline=None)
def test_weighted_estimate_invariant_to_power_of_two_rescaling(exponent):
    scale = 2.0**exponent
    base = _manual_set([5.0, -2.0, 9.0], [0.5, 0.25, 1.5])
    scaled = _manual_set([5.0, -2.0, 9.0], np.array([0.5, 0.25, 1.5]) * scale)
    assert estimate_weighted(base).value == estimate_weighted(scaled).value


def test_weighted_estimate_invariant_to_general_rescaling():
    rng = np.random.default_rng(3)
    lik = rng.uniform(0.1, 2.0, size=12)
    costs = rng.normal(size=12)
    base = estimate_weighted(_manual_set(costs, lik)).value
    for scale in (0.3, 7.9, 1234.5):
        scaled = estimate_weighted(_manual_set(costs, lik * scale)).value
        assert scaled == pytest.approx(base, rel=1e-12)


def test_pruned_mean_equals_unpruned_mean_when_width_is_enough():
    model = lqg_stochastic_model(
        LqgParams(a=0.5, r=10.0, target=1.0, sigma=1.0, x0=0.0, horizon=3)
    )
    u = [0.5, 0.2, 0.1]
    full = sample_tree(model, u, SamplerConfig(branch_factor=3, master_seed=17))
    pruned = sample_tree_pruned(
        model, u, SamplerConfig(branch_factor=3, prune_width=9, master_seed=17)
    )
    assert estimate_mean(pruned).value == estimate_mean(full).value


def _coverage_linear_model():
    lin = LinearModel(0.5, 1.0, 1.0, 0.0, 1.0, horizon=2)
    return lin, linear_stochastic_model(lin, [0.0])


def test_error_medians_shrink_with_sample_count():
    lin, model = _coverage_linear_model()
    controls = np.zeros(2)
    exact = estimate_nbo(model, controls).value
    reps = 200
    errors = {
        ("tree", "mean"): {100: [], 10_000: []},
        ("tree", "weighted"): {100: [], 10_000: []},
        ("independent", "mean"): {100: [], 10_000: []},
        ("independent", "weighted"): {100: [], 10_000: []},
    }
    for rep in range(reps):
        for n in (100, 10_000):
            cfg = SamplerConfig(branch_factor=n, master_seed=rep)
            tree = sample_tree(model, controls, cfg)
            ind = sample_independent(model, controls, cfg)
            errors[("tree", "mean")][n].append(abs(estimate_mean(tree).value - exact))
            errors[("tree", "weighted")][n].append(abs(estimate_weighted(tree).value - exact))
            errors[("independent", "mean")][n].append(abs(estimate_mean(ind).value - exact))
            errors[("independent", "weighted")][n].append(
                abs(estimate_weighted(ind).value - exact)
            )
    for key, by_n in errors.items():
        assert np.median(by_n[10_000]) < np.median(by_n[100]), key


def test_running_mean_stays_inside_three_sigma_envelope():
    # One growing independent sample path per seed (prefixes are stable);
    # the running mean must stay within 3*sqrt(var_p/N) of the exact value
    # at every decade checkpoint for at least 99 of 100 seeds.
    lin, model = _coverage_linear_model()
    controls = np.zeros(2)
    exact = estimate_nbo(model, controls).value
    variance = var_p(lin)
    checkpoints = np.array([100, 1_000, 10_000])
    envelopes = 3.0 * np.sqrt(variance / checkpoints)
    passes = 0
    for seed in range(100):
        out = sample_independent(
            model, controls, SamplerConfig(branch_factor=10_000, master_seed=seed)
        )
        prefix_means = np.cumsum(out.costs)[checkpoints - 1] / checkpoints
        if np.all(np.abs(prefix_means - exact) <= envelopes):
            passes += 1
    assert passes >= 99


def _stacked_set(block_size, blocks, rng):
    shape = (blocks, block_size)
    return TrajectorySet(
        states=np.zeros((*shape, 1, 1)),
        raw_likeliness=np.exp(rng.normal(scale=3.0, size=shape)),
        costs=rng.normal(size=shape) * rng.uniform(0.0, 1e3, size=shape),
    )


def _block(paths, r):
    return TrajectorySet(paths.states[r], paths.raw_likeliness[r], paths.costs[r])


@pytest.mark.parametrize("blocks", [1, 7, 163])
@pytest.mark.parametrize("block_size", [1, 2, 27, 100, 1000, 10000])
def test_stacked_estimates_equal_each_blocks_own_estimate(block_size, blocks):
    paths = _stacked_set(block_size, blocks, np.random.default_rng(block_size * 1000 + blocks))
    mean = estimate_mean(paths)
    weighted = estimate_weighted(paths)
    assert normalize_weights(paths).shape == (blocks, block_size)
    for est in (mean, weighted):
        assert est.value.shape == (blocks,)
        assert est.terms.shape[-1] == block_size
        # The variance is left for whoever reads it.
        assert "empirical_variance" not in vars(est)
    for r in range(blocks):
        block = _block(paths, r)
        own_mean = estimate_mean(block)
        own_weighted = estimate_weighted(block)
        assert type(own_mean.value) is float and type(own_weighted.value) is float
        assert mean.value[r] == own_mean.value
        assert weighted.value[r] == own_weighted.value
        assert np.array_equal(normalize_weights(paths)[r], normalize_weights(block))
        for stacked, own, terms in (
            (mean, own_mean, block.costs),
            (weighted, own_weighted, normalize_weights(block) * block.costs),
        ):
            want = 0.0 if block_size == 1 else float(np.var(terms, ddof=1))
            assert own.empirical_variance == want
            assert stacked.empirical_variance[r] == want


def test_stacked_estimates_compare_by_identity():
    # Field-wise equality would compare the value arrays and raise numpy's
    # ambiguous-truth error.
    paths = _stacked_set(3, 4, np.random.default_rng(2))
    first, second = estimate_mean(paths), estimate_mean(paths)
    assert (first == second) is False
    assert (first == first) is True


@pytest.mark.filterwarnings("error")
def test_stacked_weighted_rejects_an_underflowed_block():
    paths = _stacked_set(3, 4, np.random.default_rng(5))
    lik = paths.raw_likeliness.copy()
    lik[2] = [1e-310, 0.0, 1e-310]
    bad = TrajectorySet(paths.states, lik, paths.costs)
    with pytest.raises(ValueError, match="normalized weights must sum to the set size 3, got nan"):
        estimate_weighted(bad)
    with pytest.raises(ValueError, match="normalized weights must sum to the set size 3, got nan"):
        normalize_weights(bad)
    # The plain mean needs no weights.
    assert estimate_mean(bad).value[2] == estimate_mean(_block(bad, 2)).value


def test_stacked_set_of_empty_replications_is_an_error():
    empty = TrajectorySet(np.zeros((3, 0, 2, 1)), np.zeros((3, 0)), np.zeros((3, 0)))
    assert len(empty) == 0
    for estimator in (estimate_mean, estimate_weighted):
        with pytest.raises(ValueError, match="cannot estimate from an empty trajectory set"):
            estimator(empty)
