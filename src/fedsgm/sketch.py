"""Gaussian sketching operators.

A sketch is a b x d random matrix R with iid N(0, 1/b) entries.  Applying R
compresses a d-dimensional vector, or each column of a d x N matrix in one
pass, to b dimensions; applying R^T lifts a b-vector back.
R^T R has identity expectation, so desketch(sketch(x)) is an unbiased (noisy)
estimate of x.

Matrices are generated from a counter-based PRNG (Philox) in fixed-size row
blocks, each block keyed by (seed, block_index).  Generation is therefore
deterministic, re-entrant, and streamable: any block can be (re)produced on
the fly without materializing the full matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence, Union

import numpy as np

from ._philox import new_generator, philox_keys, reseed
from .errors import DimensionMismatchError

# Rows per generation block.  Fixed constant: changing it changes the bit
# layout of every sketch, so it is part of the on-disk/replay contract.
BLOCK_ROWS = 512

# R @ x is summed over SKETCH_DEPTH-column pieces in order: one whole product
# rounds differently at 1 and 2 BLAS threads, a 256-column piece does not
# (test_simulate_rerun_bytes_do_not_depend_on_blas_threads pins this).
SKETCH_DEPTH = 256

# Sketches with at most this many entries keep their row blocks in memory;
# larger ones regenerate them on every pass.
DENSE_MAX_ENTRIES = 10**8

# Domain-separation tag so sketch streams never collide with noise streams
# derived from the same user seed elsewhere in the package.
_SKETCH_TAG = 0x5E7C

SeedLike = Union[int, Sequence[int]]


@dataclass(frozen=True)
class SketchSpec:
    """Immutable description of a sketch matrix: shape plus PRNG seed."""

    b: int
    d: int
    seed: SeedLike = 0

    def __post_init__(self):
        if self.b < 1 or self.d < 1:
            raise DimensionMismatchError(
                f"sketch dims must be positive, got b={self.b}, d={self.d}"
            )


def block_keys(seed: SeedLike, b: int) -> np.ndarray:
    """Philox keys of the row blocks of the b-row sketch seeded by `seed`,
    shape (blocks, 2); a seed entry that is a column of values (say rounds)
    gives one sketch's keys per value, shape (values, blocks, 2)."""
    seed = (seed,) if isinstance(seed, (int, np.integer)) else tuple(seed)
    return philox_keys(seed + (_SKETCH_TAG,), (np.arange(-(-b // BLOCK_ROWS)),))


def keeps_blocks(b: int, d: int) -> bool:
    """Whether a b x d sketch keeps its row blocks (b * d <= DENSE_MAX_ENTRIES)."""
    return b * d <= DENSE_MAX_ENTRIES


def _gen_block(spec: SketchSpec, rng: np.random.Generator, key, block: int) -> np.ndarray:
    """Rows [block*BLOCK_ROWS, ...) of the matrix, drawn from rng reset to the
    block's key; identical bits on every call."""
    rows = min(BLOCK_ROWS, spec.b - block * BLOCK_ROWS)
    out = reseed(rng, key).standard_normal((rows, spec.d))
    return np.multiply(out, spec.b ** -0.5, out=out)


def _columns(x: np.ndarray, d: int) -> np.ndarray:
    """x as float64, checked to be a d-vector or a (d, N) matrix of column vectors."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[0] != d:
        raise DimensionMismatchError(f"expected shape ({d},) or ({d}, N), got {x.shape}")
    return x


class SketchMatrix:
    """A realized Gaussian sketch, applied one row block at a time.

    When b * d <= DENSE_MAX_ENTRIES the blocks generated at construction are
    kept; above it they are regenerated on every pass, so only one block is
    alive at a time.  Kept and regenerated blocks hold the same bits (each
    comes from its own PRNG stream) and go through the same code, so both
    give bit-identical results.
    """

    def __init__(self, spec: SketchSpec, keys=None, rng=None):
        """keys: the blocks' Philox keys (block_keys(spec.seed, spec.b) by
        default); rng: the generator that draws them.  A run passes its own."""
        self.spec = spec
        self._keys = block_keys(spec.seed, spec.b) if keys is None else keys
        self._rng = new_generator() if rng is None else rng
        self._kept = list(self.iter_blocks()) if keeps_blocks(spec.b, spec.d) else None

    @property
    def b(self) -> int:
        return self.spec.b

    @property
    def d(self) -> int:
        return self.spec.d

    def iter_blocks(self) -> Iterator[np.ndarray]:
        """Generate the row blocks in order; re-entrant (same bits every pass)."""
        for k, key in enumerate(self._keys):
            yield _gen_block(self.spec, self._rng, key, k)

    def _blocks(self):
        # kept blocks bypass iter_blocks, so every block it yields is a generated one
        return self.iter_blocks() if self._kept is None else self._kept

    def sketch(self, x: np.ndarray) -> np.ndarray:
        """R @ x: compress a d-vector, or each column of a (d, N) matrix, to b dimensions."""
        x = _columns(x, self.spec.d)
        parts = []
        for block in self._blocks():
            acc = block[:, :SKETCH_DEPTH] @ x[:SKETCH_DEPTH]
            for lo in range(SKETCH_DEPTH, self.spec.d, SKETCH_DEPTH):
                acc += block[:, lo : lo + SKETCH_DEPTH] @ x[lo : lo + SKETCH_DEPTH]
            parts.append(acc)
            del block  # free a regenerated block before the next one is made
        return np.concatenate(parts)

    def desketch(self, y: np.ndarray) -> np.ndarray:
        """R^T @ y: lift a b-vector back to d dimensions."""
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (self.spec.b,):
            raise DimensionMismatchError(
                f"expected shape ({self.spec.b},), got {y.shape}"
            )
        out = np.zeros(self.spec.d)
        lo = 0
        for block in self._blocks():
            out += block.T @ y[lo : lo + block.shape[0]]
            lo += block.shape[0]
            del block  # free a regenerated block before the next one is made
        return out


class IdentityCompressor:
    """No-op stand-in for a sketch: b == d, sketch and desketch are identity."""

    def __init__(self, d: int):
        if d < 1:
            raise DimensionMismatchError(f"dimension must be positive, got d={d}")
        self.b = d
        self.d = d

    def sketch(self, x: np.ndarray) -> np.ndarray:
        return _columns(x, self.d).copy()

    def desketch(self, y: np.ndarray) -> np.ndarray:
        return self.sketch(y)


Compressor = Union[SketchMatrix, IdentityCompressor]
