"""Philox streams addressed by counter: one key per role per run, and one
reused generator set to each stream's key and counter in turn.  The stream at
counter [0, 0, i, t] is numpy's Philox(key=key, counter=[0, 0, i, t]), that is
Philox(key=key).jumped(i + t * 2**64), so no two overlap before 2**128 draws."""

from __future__ import annotations

import numpy as np


def role_key(seed: int, tag: int) -> list:
    """The Philox key of one role's streams in a run seeded by `seed`:
    SeedSequence((seed, tag)).generate_state(2, np.uint64), as two ints."""
    return np.random.SeedSequence((seed, tag)).generate_state(2, np.uint64).tolist()


def new_generator() -> np.random.Generator:
    """A Philox generator for `reseed` to set to streams."""
    return np.random.Generator(np.random.Philox(key=0))


def reseed(gen: np.random.Generator, key, counter) -> np.random.Generator:
    """gen where a fresh Philox(key=key, counter=counter) starts: empty buffers."""
    gen.bit_generator.state = {"bit_generator": "Philox", "state": {"counter": counter, "key": key},
                               "buffer": (0,) * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return gen
