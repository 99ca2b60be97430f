"""``SeedSequence`` state words for many seeds in one pass.

``np.random.SeedSequence`` is O'Neill's seed_seq hash (``hashmix``,
``mix_entropy`` and ``generate_state`` in numpy's ``bit_generator.pyx``):
wrapping uint32 multiplies, xors and shifts with fixed constants.
``seed_states`` runs that arithmetic over an array of seeds with numpy
uint32 ops, vectorized over the pool words too, so one call makes the same
few dozen ufunc calls however many seeds it derives, where numpy builds one
``SeedSequence`` object per seed.
"""
from __future__ import annotations

from functools import cache

import numpy as np

_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF

# Pool words each source word of the mixing rounds updates, in numpy's order.
_OTHERS = [[dst for dst in range(_POOL_SIZE) if dst != src] for src in range(_POOL_SIZE)]


@cache
def _hash_consts(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The (xor, multiply) constants of ``count`` successive hashes, as (count, 1) columns.

    Hash i xors its value with the running constant, advances the constant
    by ``mult``, and multiplies by the advanced one.
    """
    xors = [init]
    for _ in range(count):
        xors.append(xors[-1] * mult & _MASK32)
    column = np.array(xors, dtype=np.uint32)[:, None]
    column.flags.writeable = False
    return column[:-1], column[1:]


def _hashmix(values: np.ndarray, xors: np.ndarray, mults: np.ndarray) -> np.ndarray:
    values = values ^ xors
    values *= mults
    values ^= values >> _XSHIFT
    return values


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_MULT_L
    result -= y * _MIX_MULT_R
    result ^= result >> _XSHIFT
    return result


def seed_states(seeds, keys, n_words: int) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=key).generate_state(n_words, np.uint64)`` per row.

    ``seeds`` is one seed or one per row and ``keys`` one spawn key (a
    sequence of ints) or one per row, an (n, k) array.  Seeds lie in
    [0, 2^64) and key ints in [0, 2^32), one hash word each; a wider key
    int raises ``ValueError``.  Returns an (n, n_words) uint64 array whose
    row i equals numpy's words for row i's seed and key bit for bit.

    With a spawn key numpy pads the seed's words to the pool size of 4, and
    without one the pool runs the hash out on zeros, so every seed below
    2^64 enters as the words [low, high, 0, 0], followed by the key words.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    keys = np.asarray(keys, dtype=np.uint64)
    if keys.ndim == 1:
        keys = keys[None, :]
    (n,) = np.broadcast_shapes(seeds.shape, keys.shape[:-1])
    seeds = np.broadcast_to(seeds, (n,))
    keys = np.broadcast_to(keys, (n, keys.shape[1]))

    if (keys >> 32).any():
        raise ValueError(f"spawn key ints must be below 2**32, got {keys.max()}")
    words = keys.T.astype(np.uint32)
    n_hashes = _POOL_SIZE * (_POOL_SIZE + len(words))
    xors, mults = _hash_consts(_INIT_A, _MULT_A, n_hashes)

    pool = np.zeros((_POOL_SIZE, n), dtype=np.uint32)
    pool[0] = seeds & _MASK32
    pool[1] = seeds >> 32
    pool = _hashmix(pool, xors[:_POOL_SIZE], mults[:_POOL_SIZE])
    at = _POOL_SIZE
    for src, dsts in enumerate(_OTHERS):
        hashed = _hashmix(pool[src], xors[at:at + len(dsts)], mults[at:at + len(dsts)])
        pool[dsts] = _mix(pool[dsts], hashed)
        at += len(dsts)
    for word in words:
        pool = _mix(pool, _hashmix(word, xors[at:at + _POOL_SIZE], mults[at:at + _POOL_SIZE]))
        at += _POOL_SIZE

    xors, mults = _hash_consts(_INIT_B, _MULT_B, 2 * n_words)
    state = _hashmix(pool[np.arange(2 * n_words) % _POOL_SIZE], xors, mults)
    out = state[1::2].astype(np.uint64)
    out <<= 32
    out |= state[0::2]
    return np.ascontiguousarray(out.T)
