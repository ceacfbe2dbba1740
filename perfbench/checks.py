"""Correctness checks on a workload's outputs.

Each check uses either a computation written here, apart from the program
(an integer-order RDP sum with math.lgamma, the exact worst-case Renyi
divergence of the sketched mechanism), or a property the method must have
(reruns are byte-identical, epsilon never decreases, a calibrated sigma
brackets its target).  None compares against stored output of the program.

check_simulate and check_calibrate return (errors, unsound): errors make the
run incorrect; unsound counts calibration solves whose reported epsilon is
below the exact-RDP chain epsilon, the soundness fault ROADMAP item 1 names.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

# calibrate_sgm_sigma and calibrate_baseline_sigma stop bisecting once the
# bracket is narrower than this share of sigma (their default rel_tol).
REL_TOL = 1e-4
# Integer Renyi orders of the baseline accountant.
BASELINE_ORDERS = range(2, 257)
# Relative agreement required between two computations of one epsilon.
AGREE = 1e-9


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _identical(paths, errors):
    """Every process wrote the same bytes to each output file."""
    first = [_read(p) for p in paths[0]]
    for i, others in enumerate(paths[1:], start=1):
        for p0, p, data in zip(paths[0], others, first):
            if _read(p) != data:
                errors.append(f"rerun {i} wrote {p}, which differs from {p0}")
    return first


# ---------------------------------------------------------------------------
# fed_* workloads
# ---------------------------------------------------------------------------


def _csv_rows(text, rounds, errors):
    lines = text.decode().splitlines()
    if lines[:2] != ["# fed-sgm csv v1",
                     "round,train_loss,grad_norm_sq,test_metric,clip_rate,epsilon_spent"]:
        errors.append(f"unexpected CSV header {lines[:2]}")
        return []
    rows = [line.split(",") for line in lines[2:]]
    if [r[0] for r in rows] != [str(t) for t in range(rounds)]:
        errors.append(f"CSV has rounds {[r[0] for r in rows][:5]}..., expected 0..{rounds - 1}")
    return [[float(v) for v in r[1:]] for r in rows]


def _epsilon(fedsgm, q, T, tau, b, sigma, delta):
    params = fedsgm.AccountantParams(q=q, T=T, tau=tau, b=b, sigma_g=sigma)
    try:
        return fedsgm.sgm_epsilon(params, delta)
    except fedsgm.ParameterRegimeError:
        return math.inf


def check_simulate(fedsgm, spec, out_dirs):
    errors = []
    cfg = json.loads(_read(spec["config"]))
    prefix = cfg["output"]["prefix"]
    names = (f"{prefix}.csv", f"{prefix}-manifest.json")
    csv_text, manifest_text = _identical(
        [[os.path.join(d, n) for n in names] for d in out_dirs], errors
    )
    rows = _csv_rows(csv_text, spec["rounds"], errors)
    if not rows:
        return errors + ["CSV has no rows"], 0
    values = np.array(rows)
    if np.isnan(values).any():
        errors.append("CSV holds NaN values")
    eps = values[:, 4]
    if not np.isfinite(eps).all():
        errors.append("epsilon_spent is not finite")
    if (np.diff(eps) < 0).any():
        errors.append("epsilon_spent decreases")
    clip = values[:, 3]
    if ((clip < 0) | (clip > 1)).any():
        errors.append("clip_rate leaves [0, 1]")

    acct = json.loads(manifest_text)["accountant"]
    target = cfg["accountant"].get("target_epsilon")
    if target is not None:
        # the final epsilon meets the calibration target from below
        args = (acct["q"], acct["rounds"], acct["tau"], acct["b_effective"])
        below = _epsilon(fedsgm, *args, acct["sigma_g"] * (1 - 2 * REL_TOL), acct["delta"])
        if not eps[-1] <= target < below:
            errors.append(
                f"final epsilon {eps[-1]!r} does not meet target {target} from below "
                f"(epsilon at sigma*(1-2*rel_tol) is {below!r})"
            )
    return errors, 0


# ---------------------------------------------------------------------------
# calib
# ---------------------------------------------------------------------------


def _logsumexp(terms):
    top = max(terms)
    return top + math.log(math.fsum(math.exp(t - top) for t in terms))


def baseline_epsilon(sigma, q, T, delta):
    """Subsampled Gaussian over integer orders: sum_k C(a,k) (1-q)^(a-k) q^k e^((k^2-k)/(2 sigma^2))."""
    best = math.inf
    log_q, log_1q = math.log(q), math.log1p(-q)
    for a in BASELINE_ORDERS:
        if q == 1.0:
            log_moment = (a * a - a) / (2.0 * sigma * sigma)
        else:
            log_moment = _logsumexp([
                math.lgamma(a + 1) - math.lgamma(k + 1) - math.lgamma(a - k + 1)
                + k * log_q + (a - k) * log_1q + (k * k - k) / (2.0 * sigma * sigma)
                for k in range(a + 1)
            ])
        best = min(best, (T * log_moment + math.log(1.0 / delta)) / (a - 1))
    return best


def _release_objective(alpha, r, b, delta0):
    """b * max(f_a(sqrt(1-r)), f_a(sqrt(1+r))) + log(1/delta0)/(a-1), vectorized over a."""
    alpha = np.asarray(alpha, dtype=np.float64)[..., None]
    x2 = np.array([1.0 - r, 1.0 + r])
    dom = alpha * x2 + 1.0 - alpha
    with np.errstate(divide="ignore", invalid="ignore"):
        f = 0.5 * np.log(x2) + np.log(x2 / dom) / (2.0 * (alpha - 1.0))
    f = np.where(dom > 0, f, np.inf)
    return b * f.max(axis=-1) + math.log(1.0 / delta0) / (alpha[..., 0] - 1.0)


def exact_chain_epsilon(q, T, tau, b, sigma, delta):
    """Exact worst-case RDP per release, then subsampling and strong composition.

    The per-release order is minimized over 1 < alpha < 1/r, where the
    divergence at the lower ratio endpoint sqrt(1 - r) is finite: a log grid
    locates the minimum and golden-section search refines it.  The delta
    split is the accountant's: delta0 = delta/(2 q T), slack delta/2.
    """
    r = 2.0 * tau * tau / (b * sigma * sigma)
    if r >= 1.0:
        return math.inf
    delta0, slack = delta / (2.0 * q * T), delta / 2.0
    grid = 1.0 + np.geomspace(1e-9, (1.0 / r - 1.0) * (1.0 - 1e-12), 4001)
    values = _release_objective(grid, r, b, delta0)
    i = int(np.argmin(values))
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]
    g = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(100):
        a1, a2 = hi - g * (hi - lo), lo + g * (hi - lo)
        if _release_objective(a1, r, b, delta0) < _release_objective(a2, r, b, delta0):
            hi = a2
        else:
            lo = a1
    eps0 = min(float(values[i]), float(_release_objective(0.5 * (lo + hi), r, b, delta0)))
    eps1 = eps0 if q == 1.0 else math.log1p(q * math.expm1(eps0))
    if eps1 > 700.0:
        return math.inf
    return math.sqrt(2.0 * T * math.log(1.0 / slack)) * eps1 + T * eps1 * math.expm1(eps1)


def _check_solve(fedsgm, solve, rec, errors):
    """Returns whether the reported epsilon is sound; appends other failures."""
    q, T, tau, b, delta, target = (solve[k] for k in ("q", "T", "tau", "b", "delta", "eps"))
    where = f"solve eps={target} b={b} q={q} T={T}"
    if [rec[k] for k in ("q", "T", "tau", "b", "delta", "target_epsilon")] != [q, T, tau, b, delta, target]:
        errors.append(f"{where}: record {rec} answers another solve")
        return True
    sigma, reported = rec["sigma_g"], rec["achieved_epsilon"]
    below = _epsilon(fedsgm, q, T, tau, b, sigma * (1 - 2 * REL_TOL), delta)
    if not reported <= target < below:
        errors.append(f"{where}: eps(sigma) = {reported!r}, eps(sigma*(1-2*rel_tol)) = {below!r}")
    base_std = rec["baseline_noise_std"]
    if not sigma < base_std:
        errors.append(f"{where}: sketched sigma {sigma!r} is not below baseline std {base_std!r}")
    program = fedsgm.baseline_gm_epsilon(base_std / tau, q, T, delta)
    independent = baseline_epsilon(base_std / tau, q, T, delta)
    if abs(program - independent) > AGREE * independent or not independent <= target:
        errors.append(f"{where}: baseline eps {program!r}, independent RDP sum {independent!r}")
    exact = exact_chain_epsilon(q, T, tau, b, sigma, delta)
    return reported >= exact * (1 - AGREE)


def check_calibrate(fedsgm, spec, out_dirs):
    errors = []
    (text,) = _identical([[os.path.join(d, "solves.json")] for d in out_dirs], errors)
    records = json.loads(text)
    if len(records) != len(spec["solves"]):
        return errors + [f"{len(records)} records for {len(spec['solves'])} solves"], 0
    unsound = sum(
        not _check_solve(fedsgm, solve, rec, errors)
        for solve, rec in zip(spec["solves"], records)
    )
    return errors, unsound * len(out_dirs)
