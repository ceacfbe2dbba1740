"""Clipping and sketched-Gaussian-mechanism tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from fedsgm import fedsim
from fedsgm._philox import role_key
from fedsgm.errors import ConfigurationError, ParameterRegimeError
from fedsgm.mechanism import MechanismConfig, clip, sensitivity_ratio
from fedsgm.sketch import IdentityCompressor, SketchMatrix, SketchSpec


def fresh_noise_stream(noise_seed, client_id, round_idx):
    """A client's noise stream in a round, from numpy alone: the noise key at
    the counter [0, 0, client_id, round_idx]."""
    key = np.random.SeedSequence((noise_seed, fedsim._NOISE_TAG)).generate_state(2, np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=[0, 0, client_id, round_idx]))


def sgm_apply(x, R, sigma_g, rng=None):
    """The sketched Gaussian mechanism on one vector, R @ x + N(0, sigma_g^2 I_b):
    the reference for fedsim.client_privatize's one pass over a round's
    clients.  With sigma_g = 0 no noise is drawn, so the output is R @ x bit
    for bit."""
    y = R.sketch(x)
    if sigma_g == 0.0:
        return y
    if rng is None:
        raise ConfigurationError("sigma_g > 0 requires a noise stream")
    return y + sigma_g * rng.standard_normal(y.shape[0])


def ratio_sensitivity_bounds(tau, b, sigma_g):
    """[sqrt(1 - r), sqrt(1 + r)], r = 2 tau^2/(b sigma_g^2): the range of the
    noise-scale ratio between adjacent datasets for aggregated statistics
    with per-term norm at most tau, independent of the aggregation count m.
    Needs r < 1; otherwise the accounting regime is violated."""
    r = sensitivity_ratio(tau, b, sigma_g)
    if r >= 1.0:
        raise ParameterRegimeError(f"2*tau^2/(b*sigma_g^2) = {r:.6g} >= 1; increase sigma_g or b")
    return (math.sqrt(1.0 - r), math.sqrt(1.0 + r))


# ---------------------------------------------------------------------------
# config


def test_config_validation():
    cfg = MechanismConfig(tau=1.0, sigma_g=0.5, noise_seed=3)
    assert cfg.tau == 1.0 and cfg.sigma_g == 0.5
    # the record checks nothing: the config schema refuses a bad tau, sigma_g
    # or noise_seed by key (tests/test_config_cli.py)


def test_config_accepts_numpy_ints_and_zero_noise():
    cfg = MechanismConfig(tau=1.0, sigma_g=0.0, noise_seed=np.int64(16))
    assert cfg.sigma_g == 0.0  # non-private ablation mode is legal here
    # a numpy-int seed keys the same noise streams as the Python int
    assert role_key(cfg.noise_seed, fedsim._NOISE_TAG) == role_key(16, fedsim._NOISE_TAG)


# ---------------------------------------------------------------------------
# clip


def test_clip_inside_ball_is_identity():
    v = np.array([0.3, 0.4])
    out, clipped = clip(v, 1.0)
    assert np.array_equal(out, v)
    assert clipped is False


def test_clip_rescales_to_boundary():
    out, clipped = clip(np.array([3.0, 4.0]), 1.0)
    assert clipped is True
    assert np.allclose(out, [0.6, 0.8], rtol=0, atol=1e-15)
    assert np.linalg.norm(out) == pytest.approx(1.0)


def test_clip_zero_vector():
    out, clipped = clip(np.zeros(5), 1.0)
    assert np.array_equal(out, np.zeros(5))
    assert clipped is False


@settings(max_examples=100, deadline=None)
@given(
    v=hnp.arrays(
        np.float64,
        st.integers(min_value=1, max_value=20),
        elements=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    ),
    tau=st.floats(min_value=1e-6, max_value=1e3, allow_nan=False),
)
def test_clip_idempotent_and_bounded(v, tau):
    once, clipped = clip(v, tau)
    assert clipped == (np.linalg.norm(v) > tau)
    assert np.linalg.norm(once) <= tau * (1 + 1e-12)
    twice, clipped_again = clip(once, tau)
    assert np.array_equal(twice, once)
    assert clipped_again is False


@settings(max_examples=50, deadline=None)
@given(c=st.floats(min_value=1e-3, max_value=1e3, allow_nan=False))
def test_clip_homogeneous(c):
    v = np.array([2.0, -3.0, 6.0])  # norm 7
    lhs = clip(c * v, c * 2.0)[0]
    rhs = c * clip(v, 2.0)[0]
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# sgm_apply


def test_sgm_apply_noiseless_is_sketch():
    R = SketchMatrix(SketchSpec(b=8, d=20, seed=1))
    x = np.random.default_rng(0).standard_normal(20)
    assert np.array_equal(sgm_apply(x, R, 0.0), R.sketch(x))


def test_sgm_apply_requires_stream_when_noisy():
    R = SketchMatrix(SketchSpec(b=8, d=20, seed=1))
    with pytest.raises(ConfigurationError):
        sgm_apply(np.zeros(20), R, 0.5, None)


def test_sgm_apply_noise_variance():
    # x = 0, sigma_g = 1: output is pure noise with unit per-coordinate
    # variance; 1e5 scalar draws pin it to within 2%.
    R = IdentityCompressor(1)
    rng = fresh_noise_stream(42, client_id=0, round_idx=0)
    draws = np.array([sgm_apply(np.zeros(1), R, 1.0, rng)[0] for _ in range(1000)])
    # speed: pull the remaining draws in one vectorized call from the stream
    more = sgm_apply(np.zeros(1), R, 1.0, rng)  # keep the scalar path exercised
    bulk = rng.standard_normal(99_000)
    sample = np.concatenate([draws, more, bulk])
    assert sample.size >= 100_000
    assert abs(sample.var() - 1.0) < 0.02


def test_sgm_output_covariance():
    # ||x|| = 1, fresh (R, xi) each draw: covariance should be
    # (1/b + sigma_g^2) I within 5% on the diagonal, |corr| <= 0.05 off it.
    b, d, sigma_g = 64, 128, 0.25
    rng = np.random.default_rng(7)
    x = rng.standard_normal(d)
    x /= np.linalg.norm(x)
    n = 10_000
    outs = np.empty((n, b))
    noise = np.random.default_rng(8)
    for i in range(n):
        R = SketchMatrix(SketchSpec(b=b, d=d, seed=i))
        outs[i] = sgm_apply(x, R, sigma_g, noise)
    cov = np.cov(outs, rowvar=False)
    target = 1.0 / b + sigma_g**2
    diag = np.diag(cov)
    assert np.all(np.abs(diag / target - 1.0) < 0.05)
    corr = cov / np.sqrt(np.outer(diag, diag))
    off = corr[~np.eye(b, dtype=bool)]
    assert np.max(np.abs(off)) <= 0.05


def test_noise_streams_reproducible_and_disjoint():
    a1 = fresh_noise_stream(5, client_id=3, round_idx=9).standard_normal(4)
    a2 = fresh_noise_stream(5, client_id=3, round_idx=9).standard_normal(4)
    b1 = fresh_noise_stream(5, client_id=4, round_idx=9).standard_normal(4)
    c1 = fresh_noise_stream(5, client_id=3, round_idx=10).standard_normal(4)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b1)
    assert not np.array_equal(a1, c1)


def test_aggregation_linearity():
    # mean_c SG(x_c) == (1/N) (R sum_c x_c + sum_c xi_c) with the same noise,
    # up to floating-point associativity.
    b, d, sigma_g, N = 16, 40, 0.3, 5
    R = SketchMatrix(SketchSpec(b=b, d=d, seed=2))
    rng = np.random.default_rng(3)
    xs = [rng.standard_normal(d) for _ in range(N)]
    outs = [
        sgm_apply(xs[c], R, sigma_g, fresh_noise_stream(9, client_id=c, round_idx=0))
        for c in range(N)
    ]
    mean_out = np.mean(outs, axis=0)
    xis = [
        sigma_g * fresh_noise_stream(9, client_id=c, round_idx=0).standard_normal(b)
        for c in range(N)
    ]
    reference = (R.sketch(np.sum(xs, axis=0)) + np.sum(xis, axis=0)) / N
    assert np.allclose(mean_out, reference, rtol=1e-12, atol=1e-14)


# ---------------------------------------------------------------------------
# ratio sensitivity


def test_ratio_bounds_closed_form():
    lo, hi = ratio_sensitivity_bounds(1.0, 8, 1.0)
    assert lo == pytest.approx(math.sqrt(0.75))
    assert hi == pytest.approx(math.sqrt(1.25))


def test_ratio_bounds_zero_tau():
    assert ratio_sensitivity_bounds(0.0, 8, 1.0) == (1.0, 1.0)


def test_ratio_bounds_regime_violation():
    # 2 tau^2 / (b sigma^2) = 2 >= 1: lower endpoint undefined.
    with pytest.raises(ParameterRegimeError):
        ratio_sensitivity_bounds(1.0, 1, 1.0)
    with pytest.raises(ParameterRegimeError):
        sensitivity_ratio(1.0, 8, 0.0)


def test_ratio_bounds_dominate_achievable_ratios():
    # For aggregated norms g = ||gamma(D)|| in [0, m*tau] and g' within tau
    # of g (both clamped to [0, m*tau]), the achievable std ratio
    # sqrt((g'^2 + m b s^2) / (g^2 + m b s^2)) must stay inside the bounds.
    tau, b, sigma_g = 1.0, 64, 0.8
    lo, hi = ratio_sensitivity_bounds(tau, b, sigma_g)
    for m in (1, 4, 16):
        for g in np.linspace(0.0, m * tau, 200):
            for gp in (max(0.0, g - tau), g, min(m * tau, g + tau)):
                ratio = math.sqrt(
                    (gp**2 + m * b * sigma_g**2) / (g**2 + m * b * sigma_g**2)
                )
                assert lo - 1e-12 <= ratio <= hi + 1e-12


@settings(max_examples=100, deadline=None)
@given(
    tau=st.floats(min_value=1e-3, max_value=10.0),
    sigma_g=st.floats(min_value=1e-2, max_value=10.0),
    b=st.integers(min_value=1, max_value=4096),
)
def test_ratio_bounds_bracket_one(tau, sigma_g, b):
    r = 2 * tau * tau / (b * sigma_g * sigma_g)
    if r >= 1.0:
        with pytest.raises(ParameterRegimeError):
            ratio_sensitivity_bounds(tau, b, sigma_g)
    else:
        lo, hi = ratio_sensitivity_bounds(tau, b, sigma_g)
        assert lo <= 1.0 <= hi
        assert hi == pytest.approx(math.sqrt(1.0 + r))
