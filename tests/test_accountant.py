"""Privacy-accounting tests.

Every numeric target here was computed with an independent oracle before the
implementation was written (closed-form evaluation in high precision, scipy
quadrature, or a dense grid search) and then frozen.
"""

import itertools
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy import integrate, optimize, stats
from scipy.special import gammaln, logsumexp

from fedsgm import accountant
from fedsgm.accountant import (
    _ALPHA_MINUS_K,
    _ALPHAS,
    _K,
    _LOG_BINOM,
    _ROW_START,
    _q_table,
    CALIBRATION_REL_TOL,
    AccountantParams,
    DpPoint,
    baseline_gm_epsilon,
    calibrate_baseline_sigma,
    calibrate_sgm_sigma,
    f_alpha,
    sgm_epsilon,
    sgm_pipeline,
    sgm_rdp_bound,
    rdp_bound_validity,
)
from fedsgm.errors import CalibrationError, ConfigurationError, ParameterRegimeError

SRC = str(Path(__file__).resolve().parent.parent / "src")

# Parameters of the reference image-classification run used throughout:
# 4 of 625 clients per round, 500 rounds, clip 1.0, sketch dimension 4e5.
Q_VISION = 4 / 625
T_VISION = 500
B_VISION = 400_000


def vision_params(sigma_g):
    return AccountantParams(q=Q_VISION, T=T_VISION, tau=1.0, b=B_VISION, sigma_g=sigma_g)


# ---------------------------------------------------------------------------
# domain types


def test_point_validation():
    with pytest.raises(ConfigurationError):
        DpPoint(epsilon=0.5, delta=0.0)
    with pytest.raises(ConfigurationError):
        DpPoint(epsilon=-1.0, delta=1e-5)
    with pytest.raises(ConfigurationError):
        AccountantParams(q=0.0, T=10, tau=1.0, b=10, sigma_g=1.0)
    with pytest.raises(ConfigurationError):
        AccountantParams(q=0.5, T=10, tau=1.0, b=10, sigma_g=0.0)


# ---------------------------------------------------------------------------
# f_alpha


def test_f_alpha_zero_at_one():
    assert f_alpha(2.0, 1.0) == 0.0


def test_f_alpha_pinned_value():
    # log(sqrt 2) + 0.5 * log(2/3)
    assert f_alpha(2.0, math.sqrt(2.0)) == pytest.approx(0.14384103622589042, rel=1e-12)


def test_f_alpha_domain_error():
    # alpha x^2 + 1 - alpha = -0.5 at (2, 0.5): the divergence is infinite
    assert f_alpha(2.0, 0.5) == math.inf


def test_f_alpha_monotone_both_branches():
    # strictly decreasing below x = 1, strictly increasing above
    for alpha in (1.5, 2.0, 4.0, 8.0, 16.0):
        x_lo = math.sqrt(1.0 - 1.0 / alpha) + 1e-6  # domain floor for x < 1
        xs = np.linspace(x_lo, 1.0, 500)
        vals = np.array([f_alpha(alpha, float(x)) for x in xs])
        assert np.all(np.diff(vals) < 0)
        xs = np.linspace(1.0, 3.0, 500)
        vals = np.array([f_alpha(alpha, float(x)) for x in xs])
        assert np.all(np.diff(vals) > 0)
        assert all(v >= 0 for v in vals)


# ---------------------------------------------------------------------------
# exact divergence


def release_divergence(alpha, norm_D, norm_Dp, m, b, sigma_g):
    """Order-alpha divergence between the releases on two datasets.

    A release whose aggregated statistic has norm g is N(0, (g^2/b + m sigma_g^2) I_b)
    once the sketch is marginalized, so the divergence is b * f_alpha(x) at the
    std ratio x; m counts the noise terms summed into the release.
    """
    v_p = norm_D * norm_D + m * b * sigma_g * sigma_g
    v_q = norm_Dp * norm_Dp + m * b * sigma_g * sigma_g
    return b * f_alpha(alpha, math.sqrt(v_q / v_p))


def test_divergence_zero_for_equal_norms():
    assert release_divergence(2.0, 1.3, 1.3, 2, 64, 0.5) == 0.0


def test_divergence_pinned_value():
    # x = sqrt((1 + 1) / (0 + 1)) = sqrt 2, times b = 4
    got = release_divergence(2.0, 0.0, 1.0, 1, 4, 0.5)
    assert got == pytest.approx(0.5753641449035617, rel=1e-12)


def test_divergence_matches_gaussian_quadrature():
    # Same case as an honest integral: D_alpha(P || Q) for P = N(0, 0.25 I_4),
    # Q = N(0, 0.5 I_4), via (1/(a-1)) log int p^a q^(1-a) per coordinate.
    alpha = 2.0
    p = stats.norm(scale=0.5)
    q = stats.norm(scale=math.sqrt(0.5))

    def integrand(t):
        # evaluated in log space so deep tails underflow to 0, never nan
        return np.exp(alpha * p.logpdf(t) + (1.0 - alpha) * q.logpdf(t))

    # finite window: the integrand is ~e^-800 beyond 30 reference stds
    val, err = integrate.quad(integrand, -30 * 0.71, 30 * 0.71, epsabs=1e-14, epsrel=1e-12)
    oracle = 4 * math.log(val) / (alpha - 1.0)
    assert err < 1e-10
    got = release_divergence(alpha, 0.0, 1.0, 1, 4, 0.5)
    assert got == pytest.approx(oracle, rel=1e-6)
    assert oracle == pytest.approx(0.5753641449035617, rel=1e-9)


def test_divergence_quadrature_grid():
    # Broader quadrature cross-check across orders and variance ratios.
    for alpha in (1.5, 3.0, 6.0):
        for norm_d, norm_dp, m, b, sigma in [
            (0.5, 1.0, 1, 8, 0.7),
            (2.0, 1.5, 4, 32, 0.9),
            (0.0, 0.3, 2, 16, 1.1),
        ]:
            vp = (norm_d**2 + m * b * sigma**2) / b
            vq = (norm_dp**2 + m * b * sigma**2) / b
            p = stats.norm(scale=math.sqrt(vp))
            q = stats.norm(scale=math.sqrt(vq))
            lim = 30 * math.sqrt(max(vp, vq))
            val, _ = integrate.quad(
                lambda t: np.exp(alpha * p.logpdf(t) + (1.0 - alpha) * q.logpdf(t)),
                -lim,
                lim,
                epsabs=1e-14,
                epsrel=1e-12,
            )
            oracle = b * math.log(val) / (alpha - 1.0)
            got = release_divergence(alpha, norm_d, norm_dp, m, b, sigma)
            assert got == pytest.approx(oracle, rel=1e-6)


def test_divergence_not_symmetric():
    a = release_divergence(4.0, 0.0, 1.0, 1, 16, 0.8)
    b = release_divergence(4.0, 1.0, 0.0, 1, 16, 0.8)
    assert a != b


# ---------------------------------------------------------------------------
# closed-form RDP bound


def test_rdp_bound_formula():
    assert sgm_rdp_bound(2.0, 1.0, 100, 1.0) == pytest.approx(0.04, rel=1e-12)
    assert sgm_rdp_bound(2.0, 0.0, 100, 1.0) == 0.0


def test_rdp_bound_regime_error():
    with pytest.raises(ParameterRegimeError):
        sgm_rdp_bound(2.0, 1.0, 1, 1.0)


def test_rdp_bound_dominates_exact_divergence_in_validity_region():
    # Exact divergence <= alpha^2 tau^4 / ((alpha-1) b sigma^4) wherever
    # rdp_bound_validity holds, across the admissible norm range (norms <= m tau,
    # differing by <= tau), whose variance ratios lie in [1 - r, 1 + r].
    b = 4096
    tau = 1.0
    for alpha in (1.5, 2.0, 4.0, 8.0, 16.0):
        for u in np.linspace(0.01, 0.7, 24):
            sigma = tau / (u * math.sqrt(b))
            if not rdp_bound_validity(alpha, tau, b, sigma):
                continue
            bound = sgm_rdp_bound(alpha, tau, b, sigma)
            for m in (1, 2, 8):
                for g in np.linspace(0.0, m * tau, 9):
                    for gp in (max(0.0, g - tau), g, min(m * tau, g + tau)):
                        exact = release_divergence(alpha, g, gp, m, b, sigma)
                        assert exact <= bound * (1 + 1e-12) + 1e-15


def test_rdp_bound_counterexample_outside_validity_region():
    # The closed-form bound does NOT dominate the exact divergence once
    # r = 2 tau^2/(b sigma^2) grows past ~1.5/(alpha^2-1), even with
    # alpha * r < 1.  Pinned instance: alpha=16, u = tau/(sigma sqrt b) =
    # 0.176, m=4, worst admissible norm pair (4, 3).  The exact divergence
    # exceeds the bound by ~1.4x, so the accountant must refuse to use the
    # closed form there -- rdp_bound_validity is that guard.
    alpha, m, tau, b = 16.0, 4, 1.0, 100
    sigma = tau / (0.176 * math.sqrt(b))
    r = 2 * tau**2 / (b * sigma**2)
    assert alpha * r < 1.0  # still inside the naive "alpha r < 1" heuristic
    assert not rdp_bound_validity(alpha, tau, b, sigma)
    exact = release_divergence(alpha, m * tau, (m - 1) * tau, m, b, sigma)
    bound = sgm_rdp_bound(alpha, tau, b, sigma)
    assert exact == pytest.approx(2.2873240623392537, rel=1e-12)
    assert bound == pytest.approx(1.637568129706666, rel=1e-12)
    assert exact > 1.39 * bound


def test_validity_region_scales_with_alpha():
    assert rdp_bound_validity(2.0, 1.0, 100, 1.0)
    assert not rdp_bound_validity(200.0, 1.0, 100, 1.0)


def _quad_divergence(alpha, v):
    """D_alpha(N(0, 1) || N(0, v)) by quadrature of p^alpha q^(1-alpha).

    The integrand is a centred Gaussian of precision c = alpha + (1-alpha)/v;
    where c <= 0 it does not decay, and the divergence is infinite."""
    c = alpha + (1.0 - alpha) / v
    if c <= 0.0:
        return math.inf
    half_log_2pi = 0.5 * math.log(2.0 * math.pi)

    def integrand(t):
        log_p = -0.5 * t * t - half_log_2pi
        log_q = -0.5 * t * t / v - half_log_2pi - 0.5 * math.log(v)
        return math.exp(alpha * log_p + (1.0 - alpha) * log_q)

    lim = 40.0 / math.sqrt(c)  # 40 of the integrand's own stds
    val, _ = integrate.quad(
        integrand,
        -lim,
        lim,
        epsabs=1e-14,
        epsrel=1e-12,
    )
    return math.log(val) / (alpha - 1.0)


def test_bound_validity_refutes_the_series_predicates_edge():
    # alpha* of `diagnose configs/quadratic.json` at b = 1000, sigma_g = 0.15.
    # The series predicate r <= 1.5/(alpha^2 - 1) called the closed form valid
    # here, but the release divergence at ratio 1 - r is above it.
    alpha, tau, b, sigma = 3.967975768623992, 1.0, 1000, 0.15
    r = 2 * tau**2 / (b * sigma**2)
    assert r <= 1.5 / (alpha**2 - 1)
    bound = alpha**2 * tau**4 / ((alpha - 1) * b * sigma**4)
    exact = b * _quad_divergence(alpha, 1 - r)
    assert bound == pytest.approx(10.478826159231248, rel=1e-12)
    assert exact == pytest.approx(11.047716259605663, rel=1e-9)
    assert not rdp_bound_validity(alpha, tau, b, sigma)


@settings(max_examples=200, deadline=None)
@given(
    alpha=st.floats(-2.0, math.log10(63.0)).map(lambda e: 1.0 + 10.0**e),
    b=st.floats(0.0, 6.0).map(lambda e: int(10.0**e)),
    r=st.floats(-3.0, math.log10(0.9)).map(lambda e: 10.0**e),
)
@example(alpha=3.967975768623992, b=1000, r=2 / (1000 * 0.15**2))
def test_bound_validity_is_the_quadrature_comparison(alpha, b, r):
    # tau = 1; the closed form against the largest release divergence at the
    # ends of the variance-ratio interval [1 - r, 1 + r], in both orders
    sigma = math.sqrt(2.0 / (b * r))
    r = 2.0 / (b * sigma**2)
    bound = alpha**2 / ((alpha - 1) * b * sigma**4)
    worst = b * max(_quad_divergence(alpha, v) for v in (1 - r, 1 + r, 1 / (1 - r), 1 / (1 + r)))
    assume(abs(worst - bound) > 1e-6 * bound)  # no verdict rests on quadrature error
    assert rdp_bound_validity(alpha, 1.0, b, sigma) == (bound >= worst)


# (target eps or None, sigma_g or None, q, T, tau, b, delta, verdict): the
# vision and language gates, the b grid at eps = 1.6, both shipped configs,
# the convergence script and the fed_dense benchmark; sigma_g is calibrated
# where a target is given
VISION = (4 / 625, 500, 1.0, 400_000, 1e-5)
LANGUAGE = (4 / 625, 200, 1.0, 200_000, 1e-5)
ACCOUNTING_POINTS = [
    *[(eps, None, *VISION, True) for eps in (2.75, 1.60, 0.42, 0.18)],
    *[(eps, None, *LANGUAGE, True) for eps in (2.45, 1.44, 0.35)],
    (0.12, None, *LANGUAGE, False),
    (1.60, None, 4 / 625, 500, 1.0, 4000, 1e-5, False),
    (1.60, None, 4 / 625, 500, 1.0, 40_000, 1e-5, True),
    (1.60, None, 4 / 625, 500, 1.0, 4_000_000, 1e-5, True),
    (4.0, None, 4 / 16, 100, 1.0, 16, 1e-5, False),  # configs/quadratic.json
    (None, 0.7, 5 / 20, 60, 0.5, 10, 1e-4, False),  # configs/logreg.json
    (8.0, None, 8 / 64, 300, 1.0, 50, 1e-5, False),  # scripts/convergence_experiment.py
    (None, 0.5, 20 / 200, 20, 1.0, 500, 1e-5, False),  # fed_dense
]


@pytest.mark.parametrize("eps, sigma, q, T, tau, b, delta, verdict", ACCOUNTING_POINTS)
def test_bound_validity_at_the_accounting_points(eps, sigma, q, T, tau, b, delta, verdict):
    if sigma is None:
        sigma = calibrate_sgm_sigma(DpPoint(eps, delta), q=q, T=T, tau=tau, b=b)
    alpha = sgm_pipeline(AccountantParams(q=q, T=T, tau=tau, b=b, sigma_g=sigma), delta).alpha_star
    assert rdp_bound_validity(alpha, tau, b, sigma) is verdict


# ---------------------------------------------------------------------------
# release at the optimal order (the first stage of sgm_pipeline)

# delta = 1e-5 at the vision point gives delta0 = delta/(2 q T) = 1.5625e-6
DELTA0_VISION = 1.5625e-6


def release(params, delta=1e-5):
    """(alpha*, release stage) of the pipeline trace."""
    trace = sgm_pipeline(params, delta)
    return trace.alpha_star, trace.stages[0]


def test_optimal_alpha_pinned():
    alpha, stage = release(vision_params(0.1013))
    assert stage.delta == DELTA0_VISION
    assert alpha == pytest.approx(24.751292460134582, rel=1e-12)


def test_optimal_alpha_refuses_outside_regime():
    # r = 2 tau^2/(b sigma^2) >= 1 has no licensed order; tau = inf used to
    # collapse the closed form to alpha* = 2.  q = T = 1 and delta = 2e-6 put
    # delta0 at 1e-6.
    for tau, b, sigma in ((math.inf, 10, 0.7), (1.0, 2, 1.0), (1.0, 6, 0.3)):
        params = AccountantParams(q=1.0, T=1, tau=tau, b=b, sigma_g=sigma)
        with pytest.raises(ParameterRegimeError, match="accounting regime violated"):
            sgm_pipeline(params, 2e-6)
    r_two_thirds = AccountantParams(q=1.0, T=1, tau=1.0, b=3, sigma_g=1.0)
    assert math.isfinite(sgm_pipeline(r_two_thirds, 2e-6).alpha_star)


def test_step_dp_pinned():
    _, stage = release(vision_params(0.1013))
    assert stage.name == "release"
    assert stage.eps == pytest.approx(1.175249580107307, rel=1e-12)
    assert stage.delta == DELTA0_VISION
    _, stage2 = release(vision_params(0.2265))
    assert stage2.eps == pytest.approx(0.22728843627035022, rel=1e-12)


def converted_bound_min(tau, b, sigma, delta0, alphas):
    """min over alphas of sgm_rdp_bound(alpha) + log(1/delta0)/(alpha - 1)."""
    log_term = math.log(1.0 / delta0)
    return min(sgm_rdp_bound(float(a), tau, b, sigma) + log_term / (float(a) - 1.0) for a in alphas)


def test_step_dp_matches_dense_grid_search():
    # Closed-form alpha* must hit the minimum of
    # eps(alpha) = bound(alpha) + log(1/delta0)/(alpha - 1)
    # over a dense alpha grid.
    tau, b, sigma = 1.0, B_VISION, 0.1013
    _, stage = release(vision_params(sigma))
    grid = np.arange(1.01, 200.0 + 1e-9, 0.01)
    assert stage.eps <= converted_bound_min(tau, b, sigma, DELTA0_VISION, grid) + 1e-6


def test_step_dp_regime_error_and_zero_tau():
    with pytest.raises(ParameterRegimeError):
        sgm_pipeline(AccountantParams(q=1.0, T=1, tau=1.0, b=1, sigma_g=1.0), 2e-6)
    # tau = 0 (a release that carries no data) never reaches the chain
    with pytest.raises(ConfigurationError, match="tau must be positive"):
        AccountantParams(q=1.0, T=1, tau=0.0, b=100, sigma_g=1.0)


@settings(max_examples=60, deadline=None)
@given(
    q=st.floats(min_value=0.01, max_value=1.0),
    T=st.integers(min_value=1, max_value=5000),
    tau=st.floats(min_value=1e-3, max_value=1e3),
    b=st.integers(min_value=1, max_value=1_000_000),
    r=st.floats(min_value=1e-6, max_value=0.99),
    delta=st.floats(min_value=1e-10, max_value=1e-2),
)
def test_release_stage_is_the_bound_at_its_optimal_order(q, T, tau, b, r, delta):
    # sigma_g from the drawn sensitivity ratio r = 2 tau^2/(b sigma_g^2) < 1
    sigma = tau * math.sqrt(2.0 / (b * r))
    params = AccountantParams(q=q, T=T, tau=tau, b=b, sigma_g=sigma)
    trace = sgm_pipeline(params, delta)
    stage, alpha = trace.stages[0], trace.alpha_star
    assert stage.eps == 2.0 * (tau**4 / (b * sigma**4)) * alpha
    # alpha* is where the bound's DP conversion is smallest: no order on a
    # dense grid spanning alpha* - 1 by a factor of 100 either side beats it
    alphas = 1.0 + (alpha - 1.0) * np.geomspace(0.01, 100.0, 2001)
    assert stage.eps <= converted_bound_min(tau, b, sigma, stage.delta, alphas) * (1 + 1e-12)
    at_alpha = converted_bound_min(tau, b, sigma, stage.delta, [alpha])
    assert at_alpha == pytest.approx(stage.eps, rel=1e-12)
    assert sgm_epsilon(params, delta) == trace.stages[-1].eps


# ---------------------------------------------------------------------------
# subsampling and composition (the later stages of sgm_pipeline)


def ref_release(q, T, tau, b, sigma, delta):
    """The release stage as the closed form: (alpha*, eps0, delta0)."""
    delta0 = 0.5 * delta / (q * T)
    A = tau**4 / (b * sigma**4)
    alpha = 1.0 + math.sqrt(1.0 + math.log(1.0 / delta0) / A)
    return alpha, 2.0 * A * alpha, delta0


def ref_subsample(eps, delta, p):
    """Amplification by sampling at rate p: (log(1 + p (e^eps - 1)), p delta)."""
    if p == 1.0 or math.isinf(eps):
        return eps, p * delta
    return max(0.0, float(np.logaddexp(math.log1p(-p), math.log(p) + eps))), p * delta


def ref_compose(eps, delta, k, delta_prime):
    """k-fold strong composition: (sqrt(2 k log(1/delta')) eps + k eps (e^eps - 1),
    k delta + delta'), inf past eps = 700 where e^eps would overflow."""
    delta_total = k * delta + delta_prime
    if eps > 700.0 or math.isinf(eps):
        return math.inf, delta_total
    return math.sqrt(2.0 * k * math.log(1.0 / delta_prime)) * eps + k * eps * math.expm1(eps), delta_total


@settings(max_examples=200, deadline=None)
@given(
    q=st.one_of(st.just(1.0), st.floats(min_value=1e-4, max_value=1.0)),
    T=st.integers(min_value=1, max_value=5000),
    tau=st.floats(min_value=1e-3, max_value=1e3),
    b=st.integers(min_value=1, max_value=1_000_000),
    r=st.floats(min_value=1e-6, max_value=0.99),
    delta=st.floats(min_value=1e-10, max_value=1e-2),
)
@example(q=1.0, T=500, tau=1.0, b=400_000, r=0.05, delta=1e-5)
@example(q=0.0064, T=500, tau=1.0, b=400_000, r=0.9, delta=1e-5)  # past the overflow cut
def test_pipeline_stages_equal_the_reference(q, T, tau, b, r, delta):
    assume(delta < 2.0 * q * T)  # delta0 = delta/(2 q T) below 1
    sigma = tau * math.sqrt(2.0 / (b * r))
    trace = sgm_pipeline(AccountantParams(q=q, T=T, tau=tau, b=b, sigma_g=sigma), delta)
    alpha, eps0, delta0 = ref_release(q, T, tau, b, sigma, delta)
    sampled = ref_subsample(eps0, delta0, q)
    composed = ref_compose(*sampled, T, 0.5 * delta)
    assert trace.alpha_star == alpha
    assert [(s.eps, s.delta) for s in trace.stages] == [(eps0, delta0), sampled, composed]
    if b == 400_000 and r == 0.9:
        assert sampled[0] > 700.0 and composed[0] == math.inf


def stages(sigma, q=Q_VISION, T=T_VISION, b=B_VISION, delta=1e-5):
    """(release, subsampled, composed) stages of the pipeline trace."""
    return sgm_pipeline(AccountantParams(q=q, T=T, tau=1.0, b=b, sigma_g=sigma), delta).stages


def test_subsample_pinned():
    # oracle values from 50-digit evaluation of the formulas
    eps, delta = ref_subsample(1.176, 1e-6, 0.0064)
    assert eps == pytest.approx(0.014242935439834, rel=1e-10)
    assert delta == pytest.approx(0.0064 * 1e-6, rel=1e-15)
    _, sampled, _ = stages(0.1013)
    assert sampled.name == "subsampled"
    assert sampled.eps == pytest.approx(0.014227593884722856, rel=1e-10)
    assert sampled.delta == pytest.approx(Q_VISION * DELTA0_VISION, rel=1e-15)
    assert stages(0.2265)[1].eps == pytest.approx(0.0016318956286992557, rel=1e-10)


def test_subsample_identity_and_zero():
    release, sampled, _ = stages(0.2265, q=1.0)
    assert (sampled.eps, sampled.delta) == (release.eps, release.delta)
    # a release below an ulp of log(1) subsamples to exactly 0
    release, sampled, _ = stages(1e75, q=0.3)
    assert 0.0 < release.eps < 1e-150 and sampled.eps == 0.0


def test_subsample_shrinks_epsilon():
    release, sampled, _ = stages(0.5, q=0.1, b=1000)
    assert release.eps > 1.0 and sampled.eps < release.eps


def test_strong_compose_pinned():
    eps, delta = ref_compose(0.01425, 1e-8, 500, 5e-6)
    assert eps == pytest.approx(1.6766137312851446, rel=1e-10)
    assert delta == pytest.approx(500 * 1e-8 + 5e-6, rel=1e-15)
    assert ref_compose(0.001633, 1e-8, 500, 5e-6)[0] == pytest.approx(0.18175006406998653, rel=1e-10)
    _, sampled, composed = stages(0.2265)
    assert composed.name == "composed"
    assert composed.eps == pytest.approx(0.18162624688054262, rel=1e-10)
    assert composed.delta == pytest.approx(T_VISION * sampled.delta + 5e-6, rel=1e-15)


def test_strong_compose_zero_and_monotone():
    assert stages(1e80)[2].eps == 0.0
    # grows with the rounds and with the subsampled epsilon (less noise)
    e1 = stages(0.5, q=0.1, T=100, b=1000)[2].eps
    e2 = stages(0.5, q=0.1, T=200, b=1000)[2].eps
    e3 = stages(0.4, q=0.1, T=100, b=1000)[2].eps
    assert e1 < e2 and e1 < e3


@settings(max_examples=60, deadline=None)
@given(
    q=st.floats(min_value=1e-4, max_value=1.0),
    r=st.floats(min_value=1e-6, max_value=0.99),
    b=st.integers(min_value=1, max_value=1_000_000),
)
def test_subsample_never_amplifies(q, r, b):
    release, sampled, _ = stages(math.sqrt(2.0 / (b * r)), q=q, T=10, b=b)
    assert sampled.eps <= release.eps + 1e-12
    assert sampled.delta <= release.delta


def test_chain_depends_on_tau_over_sigma_past_the_float_range():
    # tau^2 and sigma_g^2 underflow at 1e-170 and overflow at 1e200
    ref = sgm_epsilon(vision_params(1.0), 1e-5)
    for s in (1e-170, 1e200):
        params = AccountantParams(q=Q_VISION, T=T_VISION, tau=s, b=B_VISION, sigma_g=s)
        assert sgm_epsilon(params, 1e-5) == pytest.approx(ref, rel=1e-12)
    # r = 2 at b = 1, which inf/inf used to turn into a nan that passed the check
    with pytest.raises(ParameterRegimeError):
        sgm_pipeline(AccountantParams(q=1.0, T=1, tau=1e200, b=1, sigma_g=1e200), 2e-6)


@pytest.mark.parametrize(
    "q, T, tau, b",
    [(4 / 16, 100, 1.0, 16), (Q_VISION, T_VISION, 1.0, B_VISION), (Q_VISION, T_VISION, 1e-160, B_VISION)],
)
def test_composed_epsilon_answers_up_to_the_largest_sigma(q, T, tau, b):
    # A = tau^4/(b sigma^4) underflows to 0, or sigma^4 or 1/A overflows, long
    # before sigma = 1e300; the chain takes the limit eps0 -> 0 there
    floor = math.sqrt(2.0 / b) * tau
    sigmas = np.geomspace(1.01 * floor, 1e300, 1500)
    traces = [sgm_pipeline(AccountantParams(q=q, T=T, tau=tau, b=b, sigma_g=float(s)), 1e-5)
              for s in sigmas]
    eps = [t.epsilon for t in traces]
    for t in traces:
        # inf only past the overflow cut of the composition, never nan
        assert math.isfinite(t.epsilon) == (t.stages[1].eps <= 700.0)
    assert all(e2 <= e1 for e1, e2 in zip(eps, eps[1:]))
    # eps0 = 0 subsamples to log((1-q) + q), which may round an ulp above 0
    assert traces[-1].stages[0].eps == 0.0 and eps[-1] < 1e-12
    if b == 16:
        assert all(math.isfinite(e) for e in eps)


# ---------------------------------------------------------------------------
# end-to-end pipeline


def test_pipeline_pinned_vision_values():
    assert sgm_epsilon(vision_params(0.1013), 1e-5) == pytest.approx(
        1.6738158143034478, rel=1e-10
    )
    assert sgm_epsilon(vision_params(0.1588), 1e-5) == pytest.approx(
        0.4266497428812838, rel=1e-10
    )


def test_pipeline_delta_bookkeeping_exact():
    trace = sgm_pipeline(vision_params(0.1013), 1e-5)
    release, sampled, composed = trace.stages
    assert release.name == "release" and composed.name == "composed"
    delta0 = release.delta
    # delta0 = delta/(2 q T); total = q T delta0 + delta/2 == delta exactly
    assert delta0 == pytest.approx(1e-5 / (2 * Q_VISION * T_VISION), rel=1e-15)
    assert sampled.delta == Q_VISION * delta0
    total = T_VISION * sampled.delta + 0.5 * 1e-5
    assert total == pytest.approx(1e-5, rel=1e-12)
    assert composed.delta <= 1e-5 * (1 + 1e-12)
    assert trace.delta == composed.delta
    assert trace.alpha_star == pytest.approx(24.751292460134582, rel=1e-10)


def test_pipeline_monotonicity():
    base = sgm_epsilon(vision_params(0.15), 1e-5)
    assert sgm_epsilon(vision_params(0.20), 1e-5) < base
    bigger_b = AccountantParams(q=Q_VISION, T=T_VISION, tau=1.0, b=2 * B_VISION, sigma_g=0.15)
    assert sgm_epsilon(bigger_b, 1e-5) < base
    more_rounds = AccountantParams(q=Q_VISION, T=2 * T_VISION, tau=1.0, b=B_VISION, sigma_g=0.15)
    assert sgm_epsilon(more_rounds, 1e-5) > base
    more_sampling = AccountantParams(q=2 * Q_VISION, T=T_VISION, tau=1.0, b=B_VISION, sigma_g=0.15)
    assert sgm_epsilon(more_sampling, 1e-5) > base
    bigger_tau = AccountantParams(q=Q_VISION, T=T_VISION, tau=1.5, b=B_VISION, sigma_g=0.15)
    assert sgm_epsilon(bigger_tau, 1e-5) > base


def test_pipeline_epsilon_vanishes_with_noise():
    assert sgm_epsilon(vision_params(100.0), 1e-5) < 1e-4


def _chi2_pair_delta(eps, x, n):
    """delta(eps) of N(0, I_n) against N(0, x I_n), from two chi^2_n tails.

    The privacy loss is (n/2) log x - S (1 - 1/x)/2 with S = ||y||^2, which is
    chi^2_n under the first and x chi^2_n under the second; it exceeds eps
    where S < s (x > 1) or S > s (x < 1), s = (n log x - 2 eps)/(1 - 1/x)."""
    s = (n * math.log(x) - 2.0 * eps) / (1.0 - 1.0 / x)
    if s <= 0.0:  # only for x > 1: no y has a loss above eps
        return 0.0
    tail = stats.chi2.logcdf if x > 1.0 else stats.chi2.logsf
    log_p = tail(s, n)
    if log_p == -math.inf:
        return 0.0
    return max(0.0, -math.exp(log_p) * math.expm1(eps + tail(s / x, n) - log_p))


def _chi2_pair_epsilon(x, n, delta):
    """Exact epsilon at delta of N(0, I_n) and N(0, x I_n), in both orders."""
    def excess(eps):
        return max(_chi2_pair_delta(eps, x, n), _chi2_pair_delta(eps, 1.0 / x, n)) - delta

    if excess(0.0) <= 0.0:
        return 0.0
    hi = 1.0
    while excess(hi) > 0.0:
        hi *= 2.0
    return optimize.brentq(excess, 0.0, hi, xtol=1e-12)


@settings(max_examples=150, deadline=None)
@given(
    b=st.integers(1, 1000),
    T=st.integers(1, 100),
    N=st.integers(1, 64),
    r=st.floats(-4.0, math.log10(0.95)).map(lambda e: 10.0**e),
    delta=st.floats(-10.0, math.log10(0.3)).map(lambda e: 10.0**e),
)
def test_full_participation_epsilon_is_at_least_a_realizable_pairs(b, T, N, r, delta):
    # At q = 1 all N clients send every round. Client i sends u, ||u|| = tau,
    # or 0, while the other N - 1 send (N-1) tau aligned with u; with R_t
    # marginalized each round's release is N(0, (||sum||^2/b + N sigma^2) I_b),
    # so the run is N(0, I_bT) against N(0, x I_bT) with
    # x = 1 + (2N-1) tau^2 / ((N-1)^2 tau^2 + b N sigma^2), and that pair's
    # exact epsilon is a lower bound every sound accountant must stay above.
    tau = 1.0
    sigma = math.sqrt(2.0 / (b * r))
    reported = sgm_epsilon(AccountantParams(q=1.0, T=T, tau=tau, b=b, sigma_g=sigma), delta)
    assume(math.isfinite(reported))
    x = 1.0 + (2 * N - 1) * tau**2 / ((N - 1) ** 2 * tau**2 + b * N * sigma**2)
    assert reported >= _chi2_pair_epsilon(x, b * T, delta)


# ---------------------------------------------------------------------------
# calibration


def test_calibrate_vision_pinned():
    sigma = calibrate_sgm_sigma(DpPoint(1.60, 1e-5), q=Q_VISION, T=T_VISION, tau=1.0, b=B_VISION)
    assert sigma == pytest.approx(0.10254222328800336, rel=1e-6)
    # reference noise level for this table row is 0.1013
    assert abs(sigma - 0.1013) / 0.1013 < 0.15


def test_calibrate_language_pinned():
    sigma = calibrate_sgm_sigma(DpPoint(1.44, 1e-5), q=Q_VISION, T=200, tau=1.0, b=200_000)
    assert sigma == pytest.approx(0.10883560299944318, rel=1e-6)
    assert abs(sigma - 0.1071) / 0.1071 < 0.15


def test_calibration_consistency():
    target = DpPoint(1.60, 1e-5)
    sigma = calibrate_sgm_sigma(target, q=Q_VISION, T=T_VISION, tau=1.0, b=B_VISION)
    achieved = sgm_epsilon(vision_params(sigma), 1e-5)
    slightly_less = sgm_epsilon(vision_params(0.9999 * sigma), 1e-5)
    assert achieved <= target.epsilon
    assert slightly_less >= target.epsilon


def test_calibrated_sigma_decreases_with_b():
    target = DpPoint(1.0, 1e-5)
    sigmas = [
        calibrate_sgm_sigma(target, q=Q_VISION, T=T_VISION, tau=1.0, b=b)
        for b in (50_000, 100_000, 200_000, 400_000)
    ]
    assert all(s2 < s1 for s1, s2 in zip(sigmas, sigmas[1:]))


def test_calibrate_infeasible_target():
    with pytest.raises(CalibrationError):
        calibrate_sgm_sigma(DpPoint(0.0, 1e-5), q=Q_VISION, T=T_VISION, tau=1.0, b=B_VISION)


@pytest.mark.parametrize(
    "over, message",
    [({"b": 0}, "b must be >= 1"), ({"b": -5}, "b must be >= 1"),
     ({"tau": 0.0}, "tau must be positive")],
)
def test_calibrate_rejects_bad_accounting_inputs(over, message):
    # checked through AccountantParams up front, not by a crash in the regime
    # floor sqrt(2/b) tau; tau = 0 used to return sigma_g = 0
    args = dict(q=Q_VISION, T=T_VISION, tau=1.0, b=B_VISION) | over
    with pytest.raises(ConfigurationError, match=message):
        calibrate_sgm_sigma(DpPoint(1.6, 1e-5), **args)


def test_calibrate_infinite_tau_violates_the_regime():
    with pytest.raises(ParameterRegimeError, match="tau = inf"):
        calibrate_sgm_sigma(DpPoint(1.6, 1e-5), q=Q_VISION, T=T_VISION, tau=math.inf, b=B_VISION)


def test_calibrate_scales_with_tau_up_to_the_float_range():
    # sigma_g is tau times the tau = 1 answer; the doubling's cap used to
    # overflow math.ldexp at tau = 1e300, and at tau = 5e307 the bisection's
    # midpoint 0.5 * (lo + hi) would overflow to inf
    target = DpPoint(4.0, 1e-5)
    unit = calibrate_sgm_sigma(target, q=0.25, T=100, tau=1.0, b=16)
    sigma = calibrate_sgm_sigma(target, q=0.25, T=100, tau=1e300, b=16)
    assert sigma == 2.7788813126855115e300
    assert sigma / 1e300 == pytest.approx(unit, rel=1e-15)
    sigma = calibrate_sgm_sigma(target, q=0.25, T=100, tau=5e307, b=16)
    assert math.isfinite(sigma)
    assert sigma / 5e307 == pytest.approx(unit, rel=1e-15)


def test_calibrate_refuses_a_sigma_past_the_float_range():
    # the answer would be 2.78e308, above the largest float
    with pytest.raises(CalibrationError, match="no sigma_g up to inf"):
        calibrate_sgm_sigma(DpPoint(4.0, 1e-5), q=0.25, T=100, tau=1e308, b=16)


@pytest.mark.parametrize("solve", ["sgm", "baseline"])
def test_calibration_rejects_an_infinite_target(solve):
    # DpPoint accepts eps = inf, which every sigma meets; the solve refuses it
    target = DpPoint(math.inf, 1e-5)
    with pytest.raises(CalibrationError, match="positive and finite, got inf"):
        if solve == "sgm":
            calibrate_sgm_sigma(target, q=0.25, T=100, tau=1.0, b=16)
        else:
            calibrate_baseline_sigma(target, q=0.25, T=100)


# ---------------------------------------------------------------------------
# the sigma solver against the plain double-then-bisect loop


def _bisect_sigma(target, eps_at, lo, hi, cap, too_high):
    """Reference solver: double hi until it is feasible, then bisect [lo, hi],
    evaluating every mid; `_solve_sigma` must return its float."""
    target_eps = target.epsilon
    if not 0.0 < target_eps < math.inf:
        raise CalibrationError(f"target epsilon must be positive and finite, got {target_eps}")
    while not eps_at(hi) <= target_eps:
        hi *= 2.0
        if hi > cap:
            raise CalibrationError(too_high(hi))
    while (hi - lo) > CALIBRATION_REL_TOL * hi:
        mid = 0.5 * lo + 0.5 * hi
        if eps_at(mid) <= target_eps:
            hi = mid
        else:
            lo = mid
    return hi


_SOLVE_SIGMA = accountant._solve_sigma


def _solve_counted(solver, calibrate, *args):
    """calibrate(*args) with `solver` in place of `_solve_sigma`.

    Returns the sigma (or the raised error's type and message), the number of
    eps_at calls, and whether every call met the target.
    """
    met = []

    def counted_solver(target, eps_at, **bracket):
        def counted(sigma):
            eps = eps_at(sigma)
            met.append(eps <= target.epsilon)
            return eps

        return solver(target, counted, **bracket)

    with mock.patch.object(accountant, "_solve_sigma", counted_solver):
        try:
            result = calibrate(*args)
        except (CalibrationError, ConfigurationError, ParameterRegimeError) as exc:
            result = (type(exc), str(exc))
    return result, len(met), all(met)


def _assert_bisections_sigma(calibrate, *args):
    """The solver returns the reference's float or error, in no more
    evaluations; where every reference evaluation met the target, its answer
    rested on the unevaluated lower end, which the solver evaluates once."""
    got, evals, _ = _solve_counted(_SOLVE_SIGMA, calibrate, *args)
    want, ref_evals, ref_all_met = _solve_counted(_bisect_sigma, calibrate, *args)
    assert got == want
    assert evals <= ref_evals + ref_all_met


# perfbench's calib workload, (eps, q, T, b) at delta = 1e-5 and tau = 1
CALIB_POINTS = (
    [(eps, 4 / 625, 500, 400_000) for eps in (2.75, 1.60, 0.42, 0.18)]
    + [(1.60, 4 / 625, 500, b) for b in (4_000, 40_000, 400_000, 4_000_000)]
    + [(4.0, 4 / 16, 100, 16), (8.0, 8 / 64, 300, 50)]
)
# the vision and language gates of test_acceptance.py, (eps, T, b) at q = 4/625
GATE_POINTS = (
    [(eps, 500, 400_000) for eps in (2.75, 1.60, 0.42, 0.18)]
    + [(eps, 200, 200_000) for eps in (2.45, 1.44, 0.35, 0.12)]
)
_EXPLICIT_SOLVES = {
    **{f"sgm-{eps}-{q:.4g}-{T}-{b}": (calibrate_sgm_sigma, (DpPoint(eps, 1e-5), q, T, 1.0, b))
       for eps, q, T, b in CALIB_POINTS},
    **{f"baseline-{eps}-{q:.4g}-{T}": (calibrate_baseline_sigma, (DpPoint(eps, 1e-5), q, T))
       for eps, q, T, _ in CALIB_POINTS},
    **{f"sgm-{eps}-{4 / 625:.4g}-{T}-{b}": (calibrate_sgm_sigma, (DpPoint(eps, 1e-5), 4 / 625, T, 1.0, b))
       for eps, T, b in GATE_POINTS},
}


@pytest.mark.parametrize("calibrate, args", list(_EXPLICIT_SOLVES.values()), ids=list(_EXPLICIT_SOLVES))
def test_solver_keeps_the_bisections_sigma_at_the_calib_and_gate_points(calibrate, args):
    _assert_bisections_sigma(calibrate, *args)


def _log_uniform(lo_exp, hi_exp):
    return st.floats(min_value=lo_exp, max_value=hi_exp).map(lambda e: 10.0**e)


@settings(max_examples=200, deadline=None)
@given(
    eps=_log_uniform(-3, 3),
    delta=_log_uniform(-12, -1),
    q=st.one_of(st.just(1.0), _log_uniform(-4, 0)),
    T=st.integers(min_value=1, max_value=10_000),
    tau=_log_uniform(-3, 3),
    b=st.integers(min_value=1, max_value=10_000_000),
)
@example(eps=5.111509258230097, delta=2.703459223918948e-05, q=0.010206779454343284, T=8,
         tau=1.2808816467495892, b=1)  # r rounds below 1 at the floor, where eps is finite and low
@example(eps=0.985, delta=0.019360462541643805, q=0.000304229182303971, T=348, tau=1.0, b=16)
def test_solver_returns_the_bisections_sigma(eps, delta, q, T, tau, b):
    target = DpPoint(eps, delta)
    _assert_bisections_sigma(calibrate_sgm_sigma, target, q, T, tau, b)
    if baseline_gm_epsilon(1e-3, q, T, delta) > eps:  # the baseline's lower end is infeasible
        # the same float; the count is not bounded here: the baseline's eps is a
        # minimum over integer orders, and at q below about 5e-3 it falls in
        # near-flat steps, on which regula falsi creeps
        got, _, _ = _solve_counted(_SOLVE_SIGMA, calibrate_baseline_sigma, target, q, T)
        assert got == _solve_counted(_bisect_sigma, calibrate_baseline_sigma, target, q, T)[0]


def test_solver_evaluations_at_the_calib_points():
    # the bisection took 19.5 sketched and 16.8 baseline evaluations per solve
    sgm, baseline = [], []
    for eps, q, T, b in CALIB_POINTS:
        target = DpPoint(eps, 1e-5)
        sgm.append(_solve_counted(_SOLVE_SIGMA, calibrate_sgm_sigma, target, q, T, 1.0, b)[1])
        baseline.append(_solve_counted(_SOLVE_SIGMA, calibrate_baseline_sigma, target, q, T)[1])
    assert max(sgm) <= 13 and max(baseline) <= 9
    assert sum(sgm) <= 12 * len(CALIB_POINTS) and sum(baseline) <= 7 * len(CALIB_POINTS)


# ---------------------------------------------------------------------------
# baseline subsampled-Gaussian accountant


def test_baseline_pinned_values():
    eps1 = baseline_gm_epsilon(1.0, Q_VISION, T_VISION, 1e-5)
    assert eps1 == pytest.approx(1.6320274630619949, rel=1e-10)
    assert abs(eps1 - 1.60) / 1.60 < 0.20
    eps4 = baseline_gm_epsilon(4.0, Q_VISION, T_VISION, 1e-5)
    assert eps4 == pytest.approx(0.17996937528680718, rel=1e-10)
    assert abs(eps4 - 0.18) / 0.18 < 0.20


def _baseline_epsilon_per_order(sigma, q, T, delta):
    """Reference: one sampled-Gaussian RDP sum per integer order, via scipy."""
    best = math.inf
    for alpha in range(2, 257):
        if q == 1.0:
            rdp = (alpha * alpha - alpha) / (2.0 * sigma * sigma) / (alpha - 1)
        else:
            k = np.arange(alpha + 1)
            log_binom = gammaln(alpha + 1) - gammaln(k + 1) - gammaln(alpha - k + 1)
            terms = (
                log_binom
                + k * math.log(q)
                + (alpha - k) * math.log1p(-q)
                + (k * k - k) / (2.0 * sigma * sigma)
            )
            rdp = float(logsumexp(terms)) / (alpha - 1)
        best = min(best, T * rdp + math.log(1.0 / delta) / (alpha - 1))
    return best


def test_baseline_table_packs_each_pair_once():
    # row alpha - 2 holds k = 0..alpha, rows one after another
    sizes = np.arange(3, 258)
    assert _K.size == _ALPHA_MINUS_K.size == _LOG_BINOM.size == sizes.sum() == 33_150
    assert np.array_equal(_ROW_START, np.concatenate(([0], np.cumsum(sizes)[:-1])))
    alphas = _ALPHAS[np.repeat(np.arange(255), sizes)]
    assert np.array_equal(_ALPHA_MINUS_K, alphas - _K)
    pairs = set(zip(alphas.astype(int).tolist(), _K.astype(int).tolist()))
    assert len(pairs) == _K.size
    assert pairs == {(a, k) for a in range(2, 257) for k in range(a + 1)}
    assert np.allclose(_LOG_BINOM, gammaln(alphas + 1) - gammaln(_K + 1) - gammaln(alphas - _K + 1))


def _baseline_rows_uncached(sigma, q, T, delta):
    """Reference: every order's epsilon over the whole packed table, its q table rebuilt."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if q == 1.0:
            rdp = _ALPHAS / (2.0 * sigma * sigma)
        else:
            terms = _LOG_BINOM + _K * math.log(q) + _ALPHA_MINUS_K * math.log1p(-q)
            terms += (_K * _K - _K) / (2.0 * sigma * sigma)
            peak = np.maximum.reduceat(terms, _ROW_START)
            terms -= np.repeat(peak, np.arange(3, 258))
            np.exp(np.maximum(terms, -700.0, out=terms), out=terms)
            rdp = (peak + np.log(np.add.reduceat(terms, _ROW_START))) / (_ALPHAS - 1.0)
            rdp[np.isnan(rdp)] = np.inf
        return T * rdp + math.log(1.0 / delta) / (_ALPHAS - 1.0)


def _baseline_epsilon_uncached(sigma, q, T, delta):
    """Reference: the packed evaluation of every order, with no cache and no skipped row."""
    return float(np.min(_baseline_rows_uncached(sigma, q, T, delta)))


_BASELINE_Q = st.one_of(
    st.just(1.0), st.floats(min_value=1e-8, max_value=1.0, exclude_min=True), _log_uniform(-8.0, 0.0)
)
# the outer ranges overflow the noise term (sigma^2 near or under the float
# floor) or send sigma^2 past the largest float
_BASELINE_SIGMA = st.one_of(
    _log_uniform(-2.0, 2.0),
    st.floats(min_value=0.05, max_value=100.0),
    st.floats(min_value=1e-200, max_value=1e-150),
    st.floats(min_value=1e150, max_value=1e200),
)


@settings(max_examples=300, deadline=None)
@given(
    q_pair=st.lists(_BASELINE_Q, min_size=2, max_size=2, unique=True),
    sigmas=st.lists(_BASELINE_SIGMA, min_size=2, max_size=6),
    T=st.integers(min_value=1, max_value=1_000_000),
    delta=st.floats(min_value=1e-12, max_value=0.5),
)
@example(q_pair=[4 / 625, 0.25], sigmas=[1.0, 1e-160, 4.0, 1.0], T=500, delta=1e-5)
@example(q_pair=[1.0, 0.5], sigmas=[1e-200, 1.0, 1e-153], T=10_000, delta=1e-5)
# the calib points at their solved baseline sigma (test_baseline_calibration_pinned);
# at eps = 0.18 the minimizing order, 126, lies past the first pass
@example(q_pair=[4 / 625, 4 / 625], T=500, delta=1e-5,
         sigmas=[0.8004926757812499, 1.0103217468261718, 2.015022735595703, 3.9995118408203125])
@example(q_pair=[4 / 16, 4 / 16], sigmas=[3.4547261962890627], T=100, delta=1e-5)
@example(q_pair=[8 / 64, 8 / 64], sigmas=[1.7198666992187497], T=300, delta=1e-5)
# every row inf at sigma = 1e-200; no row skipped at sigma = 20, T = 1, delta = 0.5
@example(q_pair=[4 / 625, 0.01], sigmas=[1e-200, 1e-200], T=500, delta=1e-5)
@example(q_pair=[0.01, 4 / 625], sigmas=[20.0, 20.0, 1e200], T=1, delta=0.5)
def test_baseline_keeps_every_bit_of_the_full_table(q_pair, sigmas, T, delta):
    # consecutive calls alternate between two q, so a stale one-q table fails
    for i, sigma in enumerate(sigmas):
        q = q_pair[i % 2]
        assert baseline_gm_epsilon(sigma, q, T, delta) == _baseline_epsilon_uncached(sigma, q, T, delta)


@settings(max_examples=200, deadline=None)
@given(
    sigma=_BASELINE_SIGMA,
    q=st.one_of(st.floats(min_value=1e-8, max_value=1.0, exclude_min=True, exclude_max=True),
                _log_uniform(-8.0, -1e-9)),
    T=st.integers(min_value=1, max_value=1_000_000),
    delta=st.floats(min_value=1e-12, max_value=0.5),
)
@example(sigma=1e-200, q=0.5, T=1, delta=1e-5)
@example(sigma=1e200, q=0.5, T=1, delta=1e-5)
@example(sigma=3.9995118408203125, q=4 / 625, T=500, delta=1e-5)
def test_baseline_row_epsilon_is_at_least_its_top_term_bound(sigma, q, T, delta):
    # the rows that baseline_gm_epsilon skips rest on this inequality between
    # floats, with peak + log(sum) replaced by the row's k = alpha term
    rows = _baseline_rows_uncached(sigma, q, T, delta)
    top_idx = _ROW_START + np.arange(2, 257)
    with np.errstate(over="ignore", divide="ignore"):
        top = (_K * _K - _K)[top_idx] / (2.0 * sigma * sigma)
        top += (_LOG_BINOM + _K * math.log(q) + _ALPHA_MINUS_K * math.log1p(-q))[top_idx]
        bound = T * (top / (_ALPHAS - 1.0)) + math.log(1.0 / delta) / (_ALPHAS - 1.0)
    assert not np.isnan(rows).any() and not np.isnan(bound).any()
    assert (rows >= bound).all()


@pytest.mark.parametrize("first_pass_rows", [1, 255])
def test_baseline_first_pass_size_changes_no_bit(monkeypatch, first_pass_rows):
    grid = list(itertools.product(
        [1e-200, 0.05, 0.3, 1.0, 3.9995118408203125, 20.0, 1e200],
        [1e-8, 1e-4, 4 / 625, 0.25, 0.999, 1.0],
        [1, 500, 1_000_000],
        [1e-12, 1e-5, 0.5],
    ))
    expected = [baseline_gm_epsilon(*point) for point in grid]
    monkeypatch.setattr(accountant, "_FIRST_PASS_ROWS", first_pass_rows)
    assert [baseline_gm_epsilon(*point) for point in grid] == expected


def test_baseline_skips_the_rows_that_cannot_hold_the_minimum():
    # (first, stop) of each evaluated span of rows, and the entries it covers
    spans = []
    rows_epsilon = accountant._rows_epsilon

    def recorded(*args):  # (table, two_s2, T, log_inv_delta, first, stop)
        spans.append(args[-2:])
        return rows_epsilon(*args)

    def entries():
        ends = np.append(_ROW_START, _K.size)
        return sum(int(ends[stop] - ends[first]) for first, stop in spans)

    with mock.patch.object(accountant, "_rows_epsilon", recorded):
        # eps = 0.18 at its solved sigma: the minimizing order 126 is row 124
        baseline_gm_epsilon(3.9995118408203125, 4 / 625, 500, 1e-5)
        assert spans == [(0, 31), (31, 161)] and entries() == 13_363
        assert np.argmin(_baseline_rows_uncached(3.9995118408203125, 4 / 625, 500, 1e-5)) == 124
        spans.clear()
        baseline_gm_epsilon(1.0103217468261718, 4 / 625, 500, 1e-5)  # eps = 1.6: order 10
        assert spans == [(0, 31)] and entries() == 558
        spans.clear()
        baseline_gm_epsilon(20.0, 0.01, 1, 0.3)  # no row can be skipped
        assert spans == [(0, 31), (31, 255)] and entries() == 33_150


def test_baseline_q_table_is_shared_and_read_only():
    table = _q_table(0.25)
    assert _q_table(0.25) is table
    with pytest.raises(ValueError, match="read-only"):
        table[0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        table += 1.0
    assert baseline_gm_epsilon(1.0, 0.25, 100, 1e-5) == _baseline_epsilon_uncached(1.0, 0.25, 100, 1e-5)


def _baseline_epsilon_fsum(sigma, q, T, delta):
    """Reference: a log-sum-exp per integer order, summed with math.fsum."""
    best = math.inf
    for alpha in range(2, 257):
        if q == 1.0:
            rdp = alpha / (2.0 * sigma * sigma)
        else:
            terms = [
                math.lgamma(alpha + 1) - math.lgamma(k + 1) - math.lgamma(alpha - k + 1)
                + k * math.log(q) + (alpha - k) * math.log1p(-q) + (k * k - k) / (2.0 * sigma * sigma)
                for k in range(alpha + 1)
            ]
            peak = max(terms)
            rdp = (peak + math.log(math.fsum(math.exp(t - peak) for t in terms))) / (alpha - 1)
        best = min(best, T * rdp + math.log(1.0 / delta) / (alpha - 1))
    return best


@settings(max_examples=25, deadline=None)
@given(
    sigma=st.floats(min_value=0.1, max_value=20.0),
    q=st.one_of(st.just(1.0), st.floats(min_value=1e-4, max_value=1.0, exclude_min=True)),
    T=st.integers(min_value=1, max_value=5000),
)
@example(sigma=1.0, q=4 / 625, T=500)
@example(sigma=1.0, q=1.0, T=500)
def test_baseline_matches_fsum_reference(sigma, q, T):
    assert baseline_gm_epsilon(sigma, q, T, 1e-5) == pytest.approx(
        _baseline_epsilon_fsum(sigma, q, T, 1e-5), rel=1e-12
    )


# calibrate_baseline_sigma at the benchmark's ten calibration solves (delta = 1e-5);
# the baseline ignores b, so the four solves of the b grid at eps = 1.6 share one row
@pytest.mark.parametrize(
    "eps, q, T, sigma",
    [
        (2.75, 4 / 625, 500, 0.8004926757812499),
        (1.60, 4 / 625, 500, 1.0103217468261718),
        (0.42, 4 / 625, 500, 2.015022735595703),
        (0.18, 4 / 625, 500, 3.9995118408203125),
        (4.0, 4 / 16, 100, 3.4547261962890627),
        (8.0, 8 / 64, 300, 1.7198666992187497),
    ],
)
def test_baseline_calibration_pinned(eps, q, T, sigma):
    assert calibrate_baseline_sigma(DpPoint(eps, 1e-5), q=q, T=T) == sigma


@settings(max_examples=40, deadline=None)
@given(
    sigma=st.floats(min_value=0.3, max_value=50.0),
    q=st.one_of(st.just(1.0), st.floats(min_value=1e-4, max_value=1.0)),
    T=st.integers(min_value=1, max_value=5000),
    delta=st.floats(min_value=1e-10, max_value=1e-2),
)
@example(sigma=1.0, q=1.0, T=500, delta=1e-5)
def test_baseline_matches_per_order_reference(sigma, q, T, delta):
    assert baseline_gm_epsilon(sigma, q, T, delta) == pytest.approx(
        _baseline_epsilon_per_order(sigma, q, T, delta), rel=1e-9
    )


def test_cli_import_leaves_scipy_out():
    code = "import sys, fedsgm.cli; sys.exit('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0


def test_baseline_infinite_when_noise_term_overflows():
    assert baseline_gm_epsilon(1e-160, 0.5, 1, 1e-5) == math.inf


@pytest.mark.parametrize("sigma, q", [(1e-160, 0.5), (1e-200, 1.0)])
def test_baseline_overflow_is_silent(sigma, q):
    # the noise term overflows (q < 1) or divides by sigma^2 = 0 (q = 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert baseline_gm_epsilon(sigma, q, 1, 1e-5) == math.inf
    argv = ["accountant", "--mechanism", "baseline", "--sigma", str(sigma), "--q", str(q),
            "--T", "1", "--delta", "1e-5", "--tau", "1", "--b", "10"]
    proc = subprocess.run([sys.executable, "-m", "fedsgm.cli", *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout == "baseline subsampled Gaussian: eps = inf at delta = 1e-05\n"


def test_baseline_vanishes_with_noise():
    # integer-order conversion floor: log(1/delta)/(alpha_max - 1)
    floor = math.log(1e5) / 255.0
    assert baseline_gm_epsilon(500.0, Q_VISION, T_VISION, 1e-5) <= floor * 1.001


def test_baseline_calibration_roundtrip():
    target = DpPoint(1.60, 1e-5)
    sigma = calibrate_baseline_sigma(target, q=Q_VISION, T=T_VISION)
    assert baseline_gm_epsilon(sigma, Q_VISION, T_VISION, 1e-5) <= target.epsilon
    assert baseline_gm_epsilon(0.999 * sigma, Q_VISION, T_VISION, 1e-5) > target.epsilon


def test_baseline_calibration_below_the_conversion_floor():
    # eps = 1e-6 sits far below log(1/delta)/255, which no noise level reaches
    with pytest.raises(CalibrationError, match="below the integer-order conversion floor"):
        calibrate_baseline_sigma(DpPoint(1e-6, 1e-5), q=Q_VISION, T=T_VISION)


@pytest.mark.parametrize("eps, q, T", [(2e6, 1.0, 1), (2e8, 0.25, 100)])
def test_baseline_calibration_refuses_a_target_met_at_its_lower_end(eps, q, T):
    # the baseline meets eps at its lower end sigma = 1e-3 and below it; the
    # solve used to return about 1.00006e-3 as the smallest sigma
    assert baseline_gm_epsilon(7.1e-4, q, T, 1e-5) <= eps
    message = rf"met at sigma = 0\.001, the lower end of the searched range \[0\.001, 1e\+09\]"
    with pytest.raises(CalibrationError, match=message):
        calibrate_baseline_sigma(DpPoint(eps, 1e-5), q=q, T=T)


@pytest.mark.parametrize("eps", [0.0, -1.0, math.nan])
def test_baseline_calibration_rejects_non_positive_target(eps):
    # DpPoint itself refuses a negative epsilon, so pass a bare record
    target = SimpleNamespace(epsilon=eps, delta=1e-5)
    with pytest.raises(CalibrationError, match="target epsilon must be positive"):
        calibrate_baseline_sigma(target, q=Q_VISION, T=T_VISION)


def test_sgm_needs_less_noise_than_baseline_per_coordinate():
    # The headline comparison: for the same (eps, delta) target the
    # sketched mechanism's calibrated sigma_g sits well below the baseline
    # noise multiplier (times tau) at these dimensions.
    target = DpPoint(1.60, 1e-5)
    sgm_sigma = calibrate_sgm_sigma(target, q=Q_VISION, T=T_VISION, tau=1.0, b=B_VISION)
    gm_sigma = calibrate_baseline_sigma(target, q=Q_VISION, T=T_VISION)
    assert sgm_sigma < gm_sigma
