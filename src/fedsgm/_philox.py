"""Philox streams keyed in bulk: SeedSequence's keys, without a SeedSequence
per stream, and one reused generator reset to each key in turn."""

from __future__ import annotations

import numpy as np

_MASK = 0xFFFFFFFF
_ZEROS = np.zeros(4, dtype=np.uint64)


def _words(item) -> list:
    """An int as SeedSequence's 32-bit words; an integer array, one word each."""
    if np.ndim(item):
        item = np.asarray(item)
        if item.size and not 0 <= item.min() <= item.max() <= _MASK:
            raise ValueError("array entropy must lie in [0, 2**32)")
        return [item.astype(np.uint32)]
    value, words = int(item), []
    if value < 0:
        raise ValueError("expected non-negative integer")
    while not words or value:
        words.append(value & _MASK)
        value >>= 32
    return words


def philox_keys(entropy, spawn_key=()) -> np.ndarray:
    """SeedSequence(entropy, spawn_key).generate_state(2, np.uint64), the key
    of Philox(SeedSequence(entropy, spawn_key)), for many streams at once.

    entropy and spawn_key are tuples of non-negative ints and integer arrays;
    the arrays broadcast, one stream per element, and the keys have their
    shape plus an axis of 2.  This is SeedSequence's uint32 hash (hashmix,
    mix, generate_state in numpy's bit_generator.pyx) on Python ints and uint32
    arrays, every product and difference masked to 32 bits.
    """
    words = [w for item in entropy for w in _words(item)]
    if spawn_key:  # SeedSequence pads spawned entropy to its 4-word pool
        words += [0] * (4 - len(words)) + [w for item in spawn_key for w in _words(item)]
    h = 0x43B0D7E5

    def hashmix(v):
        nonlocal h
        v, h = v ^ h, h * 0x931E8875 & _MASK
        v = v * h & _MASK
        return v ^ v >> 16

    def mix(x, y):
        v = (0xCA01F9DD * x & _MASK) - (0x4973F715 * y & _MASK) & _MASK
        return v ^ v >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        pool = [mix(p, hashmix(word)) for p in pool]
    h, out = 0x8B51F9DD, []
    for v in pool:
        v, h = v ^ h, h * 0x58F38DED & _MASK
        v = v * h & _MASK
        out.append(np.asarray(v ^ v >> 16, dtype=np.uint64))
    return np.stack(np.broadcast_arrays(out[0] | out[1] << 32, out[2] | out[3] << 32), axis=-1)


def new_generator() -> np.random.Generator:
    """A Philox generator for `reseed` to start on keys."""
    return np.random.Generator(np.random.Philox(key=0))


def reseed(gen: np.random.Generator, key) -> np.random.Generator:
    """gen where a fresh Philox(key=key) starts: counter 0, empty buffers."""
    gen.bit_generator.state = {"bit_generator": "Philox", "state": {"counter": _ZEROS, "key": key},
                               "buffer": _ZEROS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return gen
