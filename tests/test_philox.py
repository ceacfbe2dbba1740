"""Random streams addressed by Philox's counter: numpy is the oracle.

A run keys each role once, SeedSequence((seed, tag)).generate_state(2,
uint64), and draws the stream of index i (client, sketch row block, or 0 for
the sampler) in round t at the counter [0, 0, i, t].  So every draw must
equal numpy's own Philox(key=..., counter=[0, 0, i, t]) for any seed a config
can hold, which is also Philox(key=...).jumped(i + t * 2**64).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedsgm import fedsim, sketch
from fedsgm._philox import new_generator, reseed, role_key
from fedsgm.mechanism import MechanismConfig
from fedsgm.sketch import BLOCK_ROWS, IdentityCompressor, SketchMatrix, SketchSpec
from fedsgm.tasks import make_logreg

# one-word, two-word and three-word seeds, at the word boundaries
EDGES = (0, 2**32 - 1, 2**32, 2**64, 2**96 + 7)
SEEDS = st.one_of(st.sampled_from(EDGES), st.integers(min_value=0, max_value=2**130))
WORDS = st.integers(min_value=0, max_value=2**32 - 1)


def numpy_key(seed, tag):
    return np.random.SeedSequence((seed, tag)).generate_state(2, np.uint64)


def numpy_stream(seed, tag, i, t):
    """The oracle: numpy's Philox at the role key and the counter [0, 0, i, t]."""
    return np.random.Generator(np.random.Philox(key=numpy_key(seed, tag), counter=[0, 0, i, t]))


@settings(max_examples=100, deadline=None)
@given(seed=SEEDS, i=WORDS, t=WORDS)
def test_a_counter_is_a_jump_of_the_role_key(seed, i, t):
    key = numpy_key(seed, fedsim._NOISE_TAG)
    assert role_key(seed, fedsim._NOISE_TAG) == key.tolist()
    jumped = np.random.Generator(np.random.Philox(key=key).jumped(i + t * 2**64))
    drawn = reseed(new_generator(), role_key(seed, fedsim._NOISE_TAG), [0, 0, i, t])
    assert np.array_equal(drawn.standard_normal(8), jumped.standard_normal(8))


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, noise_seed=SEEDS, t=WORDS,
       clients=st.lists(st.integers(0, 9), min_size=1, max_size=4, unique=True))
def test_sampler_minibatch_and_noise_draws_are_numpys(seed, noise_seed, t, clients):
    clients, rng = sorted(clients), new_generator()
    counters = [[0, 0, c, t] for c in clients]
    # sampler: the round's clients from the stream at [0, 0, 0, t]
    chosen = fedsim.client_sampler(rng, role_key(seed, fedsim._SAMPLER_TAG), [0, 0, 0, t], 10, 4)
    expected = numpy_stream(seed, fedsim._SAMPLER_TAG, 0, t).choice(10, size=4, replace=False)
    assert np.array_equal(chosen, np.sort(expected))
    # minibatch: client c's K batches from the stream at [0, 0, c, t]
    task, part = make_logreg(n=40, d=3, clients=10, seed=1)  # shards of 4
    shards = [part.client_indices(c) for c in clients]
    batches, grad = [], task.grad

    def recorded_grad(theta, idx=None):
        batches.append(idx)
        return grad(theta, idx)

    task.grad = recorded_grad
    fedsim.client_local_update(np.zeros(3), task, shards, 2, 0.1,
                               role_key(seed, fedsim._LOCAL_TAG), counters, rng, batch_size=3)
    for i, (c, shard) in enumerate(zip(clients, shards)):
        stream = numpy_stream(seed, fedsim._LOCAL_TAG, c, t)
        for step in batches:
            assert np.array_equal(step[i], stream.choice(shard, size=3, replace=False))
    # noise: a zero delta at eta_local = sigma_g = 1 leaves exactly the draws
    mech = MechanismConfig(tau=1.0, sigma_g=1.0, noise_seed=noise_seed)
    payloads, _ = fedsim.client_privatize(
        np.zeros((len(clients), 5)), 1.0, mech, IdentityCompressor(5),
        role_key(noise_seed, fedsim._NOISE_TAG), counters, rng)
    for c, payload in zip(clients, payloads):
        xi = numpy_stream(noise_seed, fedsim._NOISE_TAG, c, t).standard_normal(5)
        assert np.array_equal(payload, xi)


def _sketch_oracle(seed, t, b, d):
    return np.concatenate([
        numpy_stream(seed, sketch._SKETCH_TAG, k, t).standard_normal((rows, d)) * b**-0.5
        for k, rows in enumerate((BLOCK_ROWS, b - BLOCK_ROWS))
    ])


@settings(max_examples=30, deadline=None)
@given(seed=SEEDS, t=WORDS, regenerated=st.booleans())
def test_sketch_blocks_are_numpys(seed, t, regenerated):
    # block k of round t's sketch is the stream at [0, 0, k, t], kept or regenerated
    b, d = BLOCK_ROWS + 3, 2
    with pytest.MonkeyPatch.context() as m:
        if regenerated:
            m.setattr(sketch, "DENSE_MAX_ENTRIES", 0)
        R = SketchMatrix(SketchSpec(b=b, d=d, seed=seed, round=t))
    assert (R._kept is None) == regenerated
    assert np.array_equal(np.concatenate(list(R._blocks())), _sketch_oracle(seed, t, b, d))


@settings(max_examples=20, deadline=None)
@given(seed=SEEDS)
def test_a_runs_sketches_and_clients_are_numpys(seed):
    # the run's own sequences: round t's sketch and clients, for t = 0, 1, 2
    cfg = fedsim.FedConfig(clients=10, clients_per_round=4, local_steps=1, rounds=3, eta_local=0.1,
                           eta_global=0.1, batch_size=1, mechanism=MechanismConfig(1.0, 1.0),
                           delta=1e-5, sketch_b=BLOCK_ROWS + 1, master_seed=seed)
    rng = new_generator()
    for t, (R, (round_, clients, counters)) in enumerate(
            zip(fedsim._sketches(cfg, 2, rng), fedsim._rounds(cfg, rng))):
        assert round_ == t and R.spec.round == t
        assert np.array_equal(np.concatenate(R._kept), _sketch_oracle(seed, t, cfg.sketch_b, 2))
        expected = numpy_stream(seed, fedsim._SAMPLER_TAG, 0, t).choice(10, size=4, replace=False)
        assert clients == sorted(expected.tolist())
        assert counters == [[0, 0, c, t] for c in clients]


def test_reseed_empties_the_buffers():
    # a 32-bit draw leaves half a word buffered; the reset stream starts clean
    rng = reseed(new_generator(), role_key(9, 1), [0, 0, 1, 0])
    rng.integers(0, 2**32, dtype=np.uint32)
    rng.standard_normal(3)
    reseed(rng, role_key(3, 4), [0, 0, 5, 2])
    fresh = numpy_stream(3, 4, 5, 2)
    assert rng.integers(0, 2**32, size=3, dtype=np.uint32).tolist() == fresh.integers(
        0, 2**32, size=3, dtype=np.uint32
    ).tolist()
    assert np.array_equal(rng.standard_normal(5), fresh.standard_normal(5))
