"""Tests for the random-projection sketch operators.

Statistical checks use fixed seeds and tolerances wide enough (3-4 standard
errors) that they are deterministic in practice.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedsgm import sketch as sketch_module
from fedsgm.errors import DimensionMismatchError
from fedsgm.sketch import (
    BLOCK_ROWS,
    IdentityCompressor,
    SketchMatrix,
    SketchSpec,
)


def materialize(R):
    """The full (b, d) matrix of a sketch, from its kept blocks if it keeps them."""
    return np.concatenate(list(R._blocks()))


def test_sample_sketch_deterministic():
    spec = SketchSpec(b=2, d=3, seed=7)
    R1 = materialize(SketchMatrix(spec))
    R2 = materialize(SketchMatrix(spec))
    assert R1.shape == (2, 3)
    assert np.array_equal(R1, R2)


def test_sample_sketch_seed_sensitivity():
    R1 = materialize(SketchMatrix(SketchSpec(b=2, d=3, seed=7)))
    R2 = materialize(SketchMatrix(SketchSpec(b=2, d=3, seed=8)))
    assert not np.array_equal(R1, R2)


def regenerated(monkeypatch, spec):
    """The sketch of `spec` with its row blocks regenerated on every pass."""
    with monkeypatch.context() as m:
        m.setattr(sketch_module, "DENSE_MAX_ENTRIES", 0)
        return SketchMatrix(spec)


def test_dense_and_streamed_agree(monkeypatch):
    spec = SketchSpec(b=16, d=700, seed=3)
    dense = SketchMatrix(spec)
    streamed = regenerated(monkeypatch, spec)
    x = np.random.default_rng(0).standard_normal(700)
    assert np.array_equal(materialize(dense), np.concatenate(list(streamed.iter_blocks())))
    assert np.allclose(dense.sketch(x), streamed.sketch(x), rtol=1e-12, atol=0)


def test_streamed_blocks_match_reference_bits(monkeypatch):
    # b spans two generation blocks; every block must hold exactly the bits of
    # N(0, 1) draws from its own Philox stream times b^-1/2, kept or regenerated.
    # Block k of round 2's sketch is numpy's Philox at the sketch key and counter [0, 0, k, 2].
    spec = SketchSpec(b=BLOCK_ROWS + 40, d=9, seed=4, round=2)
    key = np.random.SeedSequence((4, sketch_module._SKETCH_TAG)).generate_state(2, np.uint64)
    reference = np.concatenate([
        np.random.Generator(np.random.Philox(key=key, counter=[0, 0, k, 2])).standard_normal(
            (rows, spec.d)
        ) * spec.b ** -0.5
        for k, rows in enumerate((BLOCK_ROWS, 40))
    ])
    streamed = regenerated(monkeypatch, spec)
    assert np.array_equal(np.concatenate(list(streamed.iter_blocks())), reference)
    assert np.array_equal(materialize(SketchMatrix(spec)), reference)


def test_kept_and_regenerated_blocks_give_the_same_bits(monkeypatch):
    # b spans three blocks; kept and regenerated blocks go through one code path
    spec = SketchSpec(b=BLOCK_ROWS + 588, d=50, seed=6)
    kept, streamed = SketchMatrix(spec), regenerated(monkeypatch, spec)
    rng = np.random.default_rng(8)
    X, y = rng.standard_normal((spec.d, 5)), rng.standard_normal(spec.b)
    assert np.array_equal(kept.sketch(X), streamed.sketch(X))
    assert np.array_equal(kept.sketch(X[:, 0]), streamed.sketch(X[:, 0]))
    assert np.array_equal(kept.desketch(y), streamed.desketch(y))


def test_kept_sketch_construction_holds_one_copy():
    # the kept blocks are the generated arrays themselves, not a copy of them
    spec = SketchSpec(b=BLOCK_ROWS + 588, d=1000, seed=2)
    tracemalloc.start()
    try:
        SketchMatrix(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * spec.b * spec.d * 8


def test_streamed_apply_holds_one_block_at_a_time(monkeypatch):
    spec = SketchSpec(b=3 * BLOCK_ROWS, d=2000, seed=5)
    R = regenerated(monkeypatch, spec)
    block_bytes = BLOCK_ROWS * spec.d * 8
    for apply, arg in ((R.sketch, np.ones(spec.d)), (R.desketch, np.ones(spec.b))):
        tracemalloc.start()
        try:
            apply(arg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * block_bytes


def test_entry_moments():
    # Entries are i.i.d. N(0, 1/b); with b*d = 2^25 samples the empirical
    # mean and variance concentrate tightly.
    b, d = 4096, 8192
    R = materialize(SketchMatrix(SketchSpec(b=b, d=d, seed=7)))
    assert abs(R.mean()) < 4.0 / np.sqrt(b * d)
    assert abs(R.var() * b - 1.0) < 0.05


def test_isometry_in_expectation():
    # E ||R e_1||^2 = 1: average over independent sketches.
    b, d = 1024, 256
    x = np.zeros(d)
    x[0] = 1.0
    norms = []
    for seed in range(200):
        R = SketchMatrix(SketchSpec(b=b, d=d, seed=seed))
        norms.append(np.dot(R.sketch(x), R.sketch(x)))
    se = np.sqrt(2.0 / b) / np.sqrt(200)
    assert abs(np.mean(norms) - 1.0) < 3 * se


@pytest.mark.parametrize("mode", ["dense", "stream"])
def test_sketch_columns_match_vector_sketches(monkeypatch, mode):
    # a (d, N) matrix is sketched column by column, in one pass over R, with
    # the row blocks kept ("dense") or regenerated on each pass ("stream")
    if mode == "stream":
        monkeypatch.setattr(sketch_module, "DENSE_MAX_ENTRIES", 0)
    R = SketchMatrix(SketchSpec(b=600, d=30, seed=5))
    X = np.random.default_rng(2).standard_normal((30, 4))
    Y = R.sketch(X)
    assert Y.shape == (600, 4)
    for j in range(4):
        ref = R.sketch(X[:, j])
        assert np.linalg.norm(Y[:, j] - ref) <= 1e-12 * np.linalg.norm(ref)
    assert np.array_equal(IdentityCompressor(30).sketch(X), X)


def test_sketch_zero_vector():
    R = SketchMatrix(SketchSpec(b=8, d=32, seed=1))
    assert np.array_equal(R.sketch(np.zeros(32)), np.zeros(8))


def test_sketch_norm_preservation_unit_vectors():
    b, d = 256, 512
    rng = np.random.default_rng(11)
    vals = []
    for seed in range(500):
        x = rng.standard_normal(d)
        x /= np.linalg.norm(x)
        R = SketchMatrix(SketchSpec(b=b, d=d, seed=seed))
        y = R.sketch(x)
        vals.append(y @ y)
    tol = 3 * np.sqrt(2.0 / b) / np.sqrt(500)
    assert abs(np.mean(vals) - 1.0) < tol


def test_sketch_linearity():
    for d in (17, 1000, 10_000):
        R = SketchMatrix(SketchSpec(b=32, d=d, seed=5))
        rng = np.random.default_rng(d)
        x = rng.standard_normal(d)
        z = rng.standard_normal(d)
        a, c = 2.5, -0.75
        lhs = R.sketch(a * x + c * z)
        rhs = a * R.sketch(x) + c * R.sketch(z)
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(np.linalg.norm(rhs), 1.0)


def test_sketch_dimension_mismatch():
    R = SketchMatrix(SketchSpec(b=4, d=10, seed=0))
    with pytest.raises(DimensionMismatchError):
        R.sketch(np.zeros(11))
    with pytest.raises(DimensionMismatchError):
        R.desketch(np.zeros(5))
    for bad in (np.zeros((11, 3)), np.zeros((10, 3, 2)), np.zeros(())):
        with pytest.raises(DimensionMismatchError):
            R.sketch(bad)


def test_desketch_zero():
    R = SketchMatrix(SketchSpec(b=4, d=10, seed=0))
    assert np.array_equal(R.desketch(np.zeros(4)), np.zeros(10))


def test_desketch_unbiased():
    # E[R^T R x] = x coordinate-wise.  Var of each coordinate of R^T R x is
    # O(||x||^2 / b); use 3 standard errors of the seed-averaged estimate.
    b, d = 64, 24
    rng = np.random.default_rng(21)
    x = rng.standard_normal(d)
    n_seeds = 1000
    acc = np.zeros(d)
    samples = np.empty((n_seeds, d))
    for seed in range(n_seeds):
        R = SketchMatrix(SketchSpec(b=b, d=d, seed=seed))
        samples[seed] = R.desketch(R.sketch(x))
    mean = samples.mean(axis=0)
    se = samples.std(axis=0, ddof=1) / np.sqrt(n_seeds)
    assert np.all(np.abs(mean - x) <= 3 * se)


def test_inner_product_concentration():
    # Johnson-Lindenstrauss style check: |g^T R^T R h - g^T h| should fall
    # within log(d/delta)^{3/2}/sqrt(b) * ||g|| ||h|| for most sketch draws.
    b, d, delta = 128, 2048, 0.05
    rng = np.random.default_rng(33)
    g = rng.standard_normal(d)
    h = rng.standard_normal(d)
    bound = np.log(d / delta) ** 1.5 / np.sqrt(b) * np.linalg.norm(g) * np.linalg.norm(h)
    exact = g @ h
    violations = 0
    trials = 200
    for seed in range(trials):
        R = SketchMatrix(SketchSpec(b=b, d=d, seed=seed))
        approx = R.sketch(g) @ R.sketch(h)
        if abs(approx - exact) > bound:
            violations += 1
    assert violations / trials <= 0.25


def test_identity_compressor_roundtrip():
    comp = IdentityCompressor(6)
    x = np.arange(6.0)
    assert np.array_equal(comp.sketch(x), x)
    assert np.array_equal(comp.desketch(comp.sketch(x)), x)
    assert comp.b == comp.d == 6
    with pytest.raises(DimensionMismatchError):
        comp.sketch(np.zeros(7))


@settings(max_examples=25, deadline=None)
@given(
    b=st.integers(min_value=1, max_value=64),
    d=st.integers(min_value=1, max_value=300),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_shapes_property(b, d, seed):
    R = SketchMatrix(SketchSpec(b=b, d=d, seed=seed))
    y = R.sketch(np.ones(d))
    assert y.shape == (b,)
    assert R.desketch(y).shape == (d,)


@settings(max_examples=20, deadline=None)
@given(scale=st.floats(min_value=-1e3, max_value=1e3, allow_nan=False))
def test_homogeneity_property(scale):
    R = SketchMatrix(SketchSpec(b=8, d=40, seed=9))
    x = np.random.default_rng(4).standard_normal(40)
    assert np.allclose(R.sketch(scale * x), scale * R.sketch(x), rtol=1e-12, atol=1e-12)
