"""Bulk Philox keys: numpy's SeedSequence is the oracle.

philox_keys reimplements SeedSequence's hash arithmetic on arrays, and every
random stream of a run is keyed through it, so its keys and the draws they
start must equal SeedSequence's for any seed a config can hold.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedsgm import fedsim, sketch
from fedsgm._philox import new_generator, philox_keys, reseed
from fedsgm.sketch import BLOCK_ROWS, block_keys

# one-word, two-word and three-word ints, at the word boundaries
EDGES = (0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**64 - 1, 2**64, 2**64 + 12345, 2**96 + 7)
INTS = st.one_of(st.sampled_from(EDGES), st.integers(min_value=0, max_value=2**130))
WORDS = st.integers(min_value=0, max_value=2**32 - 1)


def seed_sequence_stream(entropy, spawn_key):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy, spawn_key=spawn_key)))


@settings(max_examples=300, deadline=None)
@given(entropy=st.lists(INTS, min_size=1, max_size=6), spawn_key=st.lists(INTS, max_size=3))
def test_keys_and_draws_are_seed_sequences(entropy, spawn_key):
    key = philox_keys(tuple(entropy), tuple(spawn_key))
    expected = np.random.SeedSequence(entropy, spawn_key=spawn_key).generate_state(2, np.uint64)
    assert np.array_equal(key, expected)
    drawn = reseed(new_generator(), key).standard_normal(64)
    assert np.array_equal(drawn, seed_sequence_stream(entropy, spawn_key).standard_normal(64))


@settings(max_examples=100, deadline=None)
@given(seed=INTS, pairs=st.lists(st.tuples(WORDS, WORDS), min_size=1, max_size=12))
def test_array_rows_are_one_seed_sequence_each(seed, pairs):
    # one pass over (client, round) pairs gives each pair its own stream's key
    clients, rounds = np.array(pairs, dtype=np.uint64).T
    keys = philox_keys((seed, fedsim._NOISE_TAG), (clients, rounds))
    assert keys.shape == (len(pairs), 2)
    for (c, r), key in zip(pairs, keys):
        ss = np.random.SeedSequence((seed, fedsim._NOISE_TAG), spawn_key=(c, r))
        assert np.array_equal(key, ss.generate_state(2, np.uint64)), (c, r)


@settings(max_examples=50, deadline=None)
@given(seed=INTS, rounds=st.lists(WORDS, min_size=1, max_size=6))
def test_sketch_keys_use_the_three_word_entropy(seed, rounds):
    # (seed, round, tag) entropy with a block spawn key, for a column of rounds
    b = 2 * BLOCK_ROWS + 1
    keys = block_keys((seed, np.array(rounds)[:, None]), b)
    assert keys.shape == (len(rounds), 3, 2)
    for i, r in enumerate(rounds):
        assert np.array_equal(keys[i], block_keys((seed, r), b))
        for k in range(3):
            ss = np.random.SeedSequence((seed, r, sketch._SKETCH_TAG), spawn_key=(k,))
            assert np.array_equal(keys[i, k], ss.generate_state(2, np.uint64))


def test_reseed_empties_the_buffers():
    # a 32-bit draw leaves half a word buffered; the reset stream starts clean
    key = philox_keys((3, 4), (5,))
    rng = reseed(new_generator(), philox_keys((9,), (1,)))
    rng.integers(0, 2**32, dtype=np.uint32)
    rng.standard_normal(3)
    reseed(rng, key)
    fresh = seed_sequence_stream((3, 4), (5,))
    assert rng.integers(0, 2**32, size=3, dtype=np.uint32).tolist() == fresh.integers(
        0, 2**32, size=3, dtype=np.uint32
    ).tolist()
    assert np.array_equal(rng.standard_normal(5), fresh.standard_normal(5))


def test_negative_entropy_is_rejected_as_seed_sequence_rejects_it():
    with pytest.raises(ValueError, match="non-negative"):
        philox_keys((-1, 2), (0,))
    with pytest.raises(ValueError, match="non-negative"):
        philox_keys((1,), (-2,))
    with pytest.raises(ValueError):
        philox_keys((1, fedsim._NOISE_TAG), (np.array([0, -1]), 0))
    with pytest.raises(ValueError):
        np.random.SeedSequence((-1, 2), spawn_key=(0,))
