"""End-to-end acceptance gates for the sketched-Gaussian federated stack.

One test per gate, in a fixed order: noise-calibration tables for the two
reference workloads, the unsketched-baseline accountant, exactness of the
divergence computation against numerical integration, shape of the
order-alpha rate function, distributional checks on the mechanism output,
sketch unbiasedness and concentration, equivalence with plain federated
averaging when privacy is disabled, a private convergence run at a
realistic budget, the AMSGrad second-moment invariant, and bytewise run
determinism.  Every tolerance is stated inline next to its assertion, and
all statistical checks use fixed seeds so a pass is exactly reproducible.
"""

import json
import math
import time
import warnings

import numpy as np
import pytest
from scipy import integrate, stats

from fedsgm.accountant import (
    DpPoint,
    baseline_gm_epsilon,
    calibrate_baseline_sigma,
    calibrate_sgm_sigma,
    f_alpha,
    rdp_bound_validity,
    renyi_divergence_sgm,
    sgm_rdp_bound,
)
from fedsgm.cli import main
from fedsgm.fedsim import FedConfig, run_federation
from fedsgm.mechanism import MechanismConfig
from fedsgm.optim import MomentState, amsgrad_step
from fedsgm.sketch import SketchMatrix, SketchSpec
from fedsgm.tasks import intrinsic_dimension, make_federated_quadratic, power_law_spectrum


# ---------------------------------------------------------------------------
# 1-4: privacy accounting against the reference workload tables
# ---------------------------------------------------------------------------

# image workload: q = 4/625 participation, T = 500 rounds, tau = 1, b = 4e5
VISION_TABLE = [(2.75, 0.0883), (1.60, 0.1013), (0.42, 0.1588), (0.18, 0.2265)]
# text workload: same q/delta/tau, T = 200 rounds, b = 2e5
LANGUAGE_TABLE = [(2.45, 0.0948), (1.44, 0.1071), (0.35, 0.1664), (0.12, 0.2580)]
# unsketched subsampled Gaussian at the image workload's schedule
BASELINE_TABLE = [(0.8, 2.75), (1.0, 1.60), (2.0, 0.42), (4.0, 0.18)]

Q_REF = 4 / 625
DELTA_REF = 1e-5


def test_vision_noise_calibration_table():
    start = time.perf_counter()
    for eps, sigma_ref in VISION_TABLE:
        sigma = calibrate_sgm_sigma(DpPoint(eps, DELTA_REF), q=Q_REF, T=500, tau=1.0, b=400_000)
        assert abs(sigma - sigma_ref) / sigma_ref <= 0.15, (eps, sigma, sigma_ref)
    assert time.perf_counter() - start < 1.0


def test_language_noise_calibration_table():
    start = time.perf_counter()
    for eps, sigma_ref in LANGUAGE_TABLE:
        sigma = calibrate_sgm_sigma(DpPoint(eps, DELTA_REF), q=Q_REF, T=200, tau=1.0, b=200_000)
        assert abs(sigma - sigma_ref) / sigma_ref <= 0.15, (eps, sigma, sigma_ref)
    assert time.perf_counter() - start < 1.0


def test_baseline_epsilon_table():
    # +-20%: the reference table does not pin down the accountant variant, so
    # any sound integer-order RDP accountant lands within this band.
    for sigma, eps_ref in BASELINE_TABLE:
        eps = baseline_gm_epsilon(sigma, q=Q_REF, T=500, delta=DELTA_REF)
        assert abs(eps - eps_ref) / eps_ref <= 0.20, (sigma, eps, eps_ref)


def test_sketched_noise_beats_baseline_at_matched_budget():
    target = DpPoint(1.60, DELTA_REF)
    sigma_sgm = calibrate_sgm_sigma(target, q=Q_REF, T=500, tau=1.0, b=400_000)
    baseline_std = calibrate_baseline_sigma(target, q=Q_REF, T=500) * 1.0  # tau = 1
    assert sigma_sgm < baseline_std


# ---------------------------------------------------------------------------
# 5-6: divergence exactness and rate-function shape
# ---------------------------------------------------------------------------


def _gauss_renyi_oracle(alpha, norm_d, norm_dp, m, b, sigma):
    """Order-alpha divergence via 1-D quadrature, in log space for the tails."""
    vp = (norm_d**2 + m * b * sigma**2) / b
    vq = (norm_dp**2 + m * b * sigma**2) / b
    p = stats.norm(scale=math.sqrt(vp))
    q = stats.norm(scale=math.sqrt(vq))
    lim = 30 * math.sqrt(max(vp, vq))
    val, err = integrate.quad(
        lambda t: np.exp(alpha * p.logpdf(t) + (1.0 - alpha) * q.logpdf(t)),
        -lim,
        lim,
        epsabs=1e-14,
        epsrel=1e-12,
    )
    assert err < 1e-8 * max(val, 1.0)
    return b * math.log(val) / (alpha - 1.0)


def test_divergence_quadrature_and_bound_domination():
    rng = np.random.default_rng(20260825)
    tau = 1.0
    checked = 0
    dominated = 0
    while checked < 120:
        alpha = float(rng.uniform(1.2, 6.0))
        m = int(rng.integers(1, 9))
        b = int(rng.integers(16, 257))
        sigma = float(rng.uniform(0.5, 1.5))
        g = float(rng.uniform(0.0, m * tau))
        gp = min(max(g + float(rng.uniform(-tau, tau)), 0.0), m * tau)
        x2 = (gp**2 + m * b * sigma**2) / (g**2 + m * b * sigma**2)
        if alpha * x2 + 1.0 - alpha <= 1e-6:
            continue  # outside the order-alpha domain; resample
        exact = renyi_divergence_sgm(alpha, g, gp, m=m, b=b, sigma_g=sigma)
        oracle = _gauss_renyi_oracle(alpha, g, gp, m, b, sigma)
        assert exact == pytest.approx(oracle, rel=1e-6, abs=1e-12)
        checked += 1
        if rdp_bound_validity(alpha, tau, b, sigma):
            bound = sgm_rdp_bound(alpha, tau, b, sigma)
            assert exact <= bound * (1.0 + 1e-9), (alpha, g, gp, m, b, sigma)
            dominated += 1
    assert checked >= 100
    assert dominated >= 40  # the domination clause must not be vacuous


def test_rate_function_monotone_shape():
    for alpha in (1.1, 2.0, 8.0, 64.0):
        floor = math.sqrt(1.0 - 1.0 / alpha)
        below = np.linspace(floor + 1e-6, 1.0 - 1e-9, 10_000)
        above = np.linspace(1.0 + 1e-9, 6.0, 10_000)
        f_below = np.array([f_alpha(alpha, x) for x in below])
        f_above = np.array([f_alpha(alpha, x) for x in above])
        assert np.all(np.diff(f_below) < 0.0), alpha
        assert np.all(np.diff(f_above) > 0.0), alpha
        assert f_alpha(alpha, 1.0) == 0.0


# ---------------------------------------------------------------------------
# 7-8: mechanism output distribution and sketch geometry
# ---------------------------------------------------------------------------


def test_mechanism_output_covariance():
    # ||x|| = 1, fresh (R, xi) per draw: covariance (1/b + sigma_g^2) I with
    # diagonal within 5% and off-diagonal correlations |rho| <= 0.05.
    start = time.perf_counter()
    b, d, sigma_g = 64, 128, 0.25
    rng = np.random.default_rng(7)
    x = rng.standard_normal(d)
    x /= np.linalg.norm(x)
    n = 10_000
    outs = np.empty((n, b))
    noise = np.random.default_rng(8)
    for i in range(n):
        R = SketchMatrix(SketchSpec(b=b, d=d, seed=i))
        outs[i] = R.sketch(x) + sigma_g * noise.standard_normal(b)
    cov = np.cov(outs, rowvar=False)
    target = 1.0 / b + sigma_g**2
    diag = np.diag(cov)
    assert np.all(np.abs(diag / target - 1.0) < 0.05)
    corr = cov / np.sqrt(np.outer(diag, diag))
    assert np.max(np.abs(corr[~np.eye(b, dtype=bool)])) <= 0.05
    assert time.perf_counter() - start < 30.0


def test_desketch_unbiased_and_inner_products_concentrate():
    # unbiasedness: seed-averaged R^T R x within 3 standard errors of x
    b, d = 64, 24
    rng = np.random.default_rng(21)
    x = rng.standard_normal(d)
    n_seeds = 1000
    samples = np.empty((n_seeds, d))
    for seed in range(n_seeds):
        R = SketchMatrix(SketchSpec(b=b, d=d, seed=seed))
        samples[seed] = R.desketch(R.sketch(x))
    se = samples.std(axis=0, ddof=1) / np.sqrt(n_seeds)
    assert np.all(np.abs(samples.mean(axis=0) - x) <= 3 * se)

    # inner-product concentration at delta = 0.05; allow a 25% violation rate
    b, d, delta = 128, 2048, 0.05
    rng = np.random.default_rng(33)
    g = rng.standard_normal(d)
    h = rng.standard_normal(d)
    bound = np.log(d / delta) ** 1.5 / np.sqrt(b) * np.linalg.norm(g) * np.linalg.norm(h)
    exact = g @ h
    trials = 200
    violations = 0
    for seed in range(trials):
        R = SketchMatrix(SketchSpec(b=b, d=d, seed=seed))
        if abs(R.sketch(g) @ R.sketch(h) - exact) > bound:
            violations += 1
    assert violations / trials <= 0.25


# ---------------------------------------------------------------------------
# 9-10: federation against a plain reference and at a real privacy budget
# ---------------------------------------------------------------------------


def test_matches_plain_fedavg_when_privacy_disabled():
    # identity compressor, sigma_g = 0, tau = inf, full participation, full
    # batches: the run must match a textbook FedAvg loop to 1e-12 relative.
    rng = np.random.default_rng(99)
    for _ in range(3):
        d = int(rng.integers(3, 7))
        clients = int(rng.integers(2, 5))
        local_steps = int(rng.integers(1, 4))
        eta_l = float(rng.uniform(0.05, 0.2))
        eta_g = float(rng.uniform(0.3, 1.0))
        seed = int(rng.integers(0, 2**31))
        task, part = make_federated_quadratic(
            power_law_spectrum(d, 1.5),
            seed=seed,
            clients=clients,
            heterogeneity=0.4,
            center_scale=1.0,
        )
        cfg = FedConfig(
            clients=clients,
            clients_per_round=clients,
            local_steps=local_steps,
            rounds=100,
            eta_local=eta_l,
            eta_global=eta_g,
            batch_size=1,
            mechanism=MechanismConfig(tau=math.inf, sigma_g=0.0),
            delta=DELTA_REF,
            sketch_b=None,
            optimizer="gd",
            master_seed=seed % 1000,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # eps = inf ablation warning
            result = run_federation(cfg, task, part)

        theta = task.theta0.copy()
        for _ in range(cfg.rounds):
            deltas = []
            for c in range(clients):
                local = theta.copy()
                for _ in range(local_steps):
                    local = local - eta_l * task.grad(local, part.client_indices(c))
                deltas.append(theta - local)
            theta = theta - eta_g * np.mean(deltas, axis=0)
        assert np.allclose(result.theta, theta, rtol=1e-12, atol=1e-14)


def test_private_convergence_gd_and_amsgrad():
    # Power-law quadratic in d = 200 with intrinsic dimension ~1.6, b = d/4,
    # sigma_g calibrated at eps = 8: gradient-descent aggregation must cut
    # ||grad L||^2 by >= 100x in 300 rounds, and AMSGrad aggregation at the
    # identical privacy budget must reach <= 1.1x the GD final train loss.
    start = time.perf_counter()
    sigma = calibrate_sgm_sigma(DpPoint(8.0, DELTA_REF), q=8 / 64, T=300, tau=1.0, b=50)
    task, part = make_federated_quadratic(
        power_law_spectrum(200, 2.0), seed=7, clients=64, heterogeneity=0.5, center_scale=5.0
    )
    assert 1.4 < intrinsic_dimension(task) < 2.0
    base = dict(
        clients=64,
        clients_per_round=8,
        local_steps=10,
        rounds=300,
        eta_local=0.04,
        batch_size=1,
        mechanism=MechanismConfig(tau=1.0, sigma_g=sigma, noise_seed=5),
        delta=DELTA_REF,
        sketch_b=50,
        master_seed=17,
    )
    gd = run_federation(FedConfig(eta_global=0.2, optimizer="gd", **base), task, part)
    ams = run_federation(FedConfig(eta_global=0.005, optimizer="amsgrad", **base), task, part)

    g0 = task.grad(task.theta0)
    reduction = float(g0 @ g0) / gd.records[-1].grad_norm_sq
    assert reduction >= 100.0, reduction
    loss_ratio = ams.records[-1].train_loss / gd.records[-1].train_loss
    assert loss_ratio <= 1.1, loss_ratio
    assert time.perf_counter() - start < 120.0


# ---------------------------------------------------------------------------
# 11-12: optimizer invariant and bytewise determinism
# ---------------------------------------------------------------------------


def test_amsgrad_second_moment_never_decreases():
    # 1e5 fuzzed updates across 500 random sequences, with occasional
    # heavy-tailed spikes; v must be elementwise non-decreasing at every step.
    rng = np.random.default_rng(1234)
    steps = 0
    for _ in range(500):
        d = int(rng.integers(1, 9))
        state = MomentState.init(d)
        theta = rng.standard_normal(d)
        for _ in range(200):
            u = rng.standard_normal(d)
            if rng.random() < 0.05:
                u = u * 100.0
            theta, new_state = amsgrad_step(theta, u, state, eta=0.1)
            assert np.all(new_state.v >= state.v)
            state = new_state
            steps += 1
    assert steps == 100_000

    # two-step hand trace (d = 1, updates {1, 1}, defaults, eta = 1)
    state = MomentState.init(1)
    theta, state = amsgrad_step(np.zeros(1), np.ones(1), state, eta=1.0)
    theta, state = amsgrad_step(theta, np.ones(1), state, eta=1.0)
    assert theta[0] == pytest.approx(-2.3468740940384683, rel=1e-12)


def test_repeated_run_byte_identical(tmp_path, capsys):
    cfg = {
        "task": {"kind": "quadratic", "d": 12, "seed": 4, "heterogeneity": 0.4},
        "federation": {
            "clients": 6,
            "clients_per_round": 3,
            "local_steps": 2,
            "rounds": 5,
            "eta_local": 0.1,
            "eta_global": 0.5,
            "master_seed": 20,
        },
        "mechanism": {"tau": 1.0, "sigma_g": 0.9, "noise_seed": 2},
        "sketch": {"mode": "gaussian", "b": 6},
        "accountant": {"delta": 1e-5},
        "output": {"dir": str(tmp_path), "prefix": "accept"},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))

    assert main(["simulate", str(path)]) == 0
    csv_bytes = (tmp_path / "accept.csv").read_bytes()
    manifest_bytes = (tmp_path / "accept-manifest.json").read_bytes()
    assert main(["simulate", str(path)]) == 0
    capsys.readouterr()
    assert (tmp_path / "accept.csv").read_bytes() == csv_bytes
    assert (tmp_path / "accept-manifest.json").read_bytes() == manifest_bytes
