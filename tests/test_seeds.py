"""Vectorized ``SeedSequence`` state words against numpy's ``SeedSequence``."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsmhp._seeds import seed_states

# Seeds at the edges of their uint32 words, and key ints at the edges of
# their one word.
_SEED_EDGES = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
_KEY_EDGES = [0, 1, 2**32 - 1]

seeds_st = st.one_of(st.sampled_from(_SEED_EDGES), st.integers(0, 2**64 - 1))
key_int_st = st.one_of(st.sampled_from(_KEY_EDGES), st.integers(0, 2**32 - 1))


def _numpy_states(seeds, keys, n_words):
    return np.array(
        [
            np.random.SeedSequence(seed, spawn_key=tuple(key)).generate_state(n_words, np.uint64)
            for seed, key in zip(seeds, keys)
        ],
        dtype=np.uint64,
    ).reshape(len(seeds), n_words)


@given(
    data=st.data(),
    rows=st.integers(1, 6),
    width=st.integers(0, 3),
    n_words=st.integers(1, 4),
)
@settings(max_examples=200, deadline=None)
def test_rows_equal_numpy_seed_sequence(data, rows, width, n_words):
    seeds = data.draw(st.lists(seeds_st, min_size=rows, max_size=rows))
    keys = data.draw(
        st.lists(st.lists(key_int_st, min_size=width, max_size=width), min_size=rows, max_size=rows)
    )
    got = seed_states(seeds, np.array(keys, dtype=np.uint64).reshape(rows, width), n_words)
    assert got.dtype == np.uint64
    assert np.array_equal(got, _numpy_states(seeds, keys, n_words))


@given(
    seeds=st.lists(seeds_st, min_size=1, max_size=5),
    key=st.lists(key_int_st, max_size=3),
    n_words=st.integers(1, 4),
)
@settings(max_examples=100, deadline=None)
def test_one_key_is_shared_by_every_seed(seeds, key, n_words):
    got = seed_states(seeds, tuple(key), n_words)
    assert np.array_equal(got, _numpy_states(seeds, [key] * len(seeds), n_words))


@pytest.mark.parametrize("seed", _SEED_EDGES)
@pytest.mark.parametrize("key", [(), (0,), (5, 2**32 - 2), (2**32 - 2, 7, 0)])
def test_word_edges_with_one_seed_per_key(seed, key):
    # The second row adds one to every key int, which reaches 2**32 - 1.
    keys = [key, tuple(k + 1 for k in key)]
    got = seed_states(seed, np.array(keys, dtype=np.uint64).reshape(2, len(key)), 2)
    assert np.array_equal(got, _numpy_states([seed, seed], keys, 2))


def test_no_rows_give_an_empty_block():
    assert seed_states([], (1,), 2).shape == (0, 2)


@pytest.mark.parametrize("wide", [2**32, 2**40, 2**64 - 1])
def test_key_ints_of_two_words_are_rejected(wide):
    with pytest.raises(ValueError, match="below 2\\*\\*32"):
        seed_states(3, (1, wide), 2)
    with pytest.raises(ValueError, match="below 2\\*\\*32"):
        seed_states([3, 4], np.array([[1, 2], [wide, 0]], dtype=np.uint64), 2)
