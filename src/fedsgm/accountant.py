"""Renyi-DP accounting and noise calibration for the sketched Gaussian mechanism.

The chain, for one federated round observed through the mechanism:

  1. One mechanism release is (alpha, eps_rdp)-RDP with
         eps_rdp = alpha^2 tau^4 / ((alpha-1) b sigma_g^4),
     valid in the regime 2 tau^2 / (b sigma_g^2) < 1.
  2. RDP converts to (eps0, delta0)-DP at the optimal order, which has a
     closed form.
  3. Each round `client_sampler` draws N of the C clients, a fixed-size
     sample without replacement; the chain amplifies at q = N/C to
     eps1 = log(1 + q (e^eps0 - 1)), delta1 = q delta0.
  4. T-fold strong composition with slack delta' gives the total budget.

`sgm_pipeline` runs steps 2-4 in one function with the delta split
delta0 = delta/(2 q T), delta' = delta/2, so the reported guarantee is exactly
(eps_total, delta); `sgm_epsilon` is its last line.

A non-sketched baseline (`baseline_gm_epsilon`) accounts the subsampled
Gaussian mechanism through integer-order RDP for noise comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    CalibrationError,
    ConfigurationError,
    ParameterRegimeError,
    RenyiOrderDomainError,
)
from .mechanism import sensitivity_ratio

# Above this subsampled per-round epsilon the composed budget is astronomically
# large; short-circuit to inf instead of overflowing exp().
_EPS_OVERFLOW = 700.0

# Both calibrations bisect until the bracket on sigma is narrower than this
# share of its upper end, which they return.
CALIBRATION_REL_TOL = 1e-4


@dataclass(frozen=True)
class DpPoint:
    """An (epsilon, delta)-DP guarantee: the target that the calibrations meet."""

    epsilon: float
    delta: float

    def __post_init__(self):
        if not self.epsilon >= 0.0:
            raise ConfigurationError(f"epsilon must be >= 0, got {self.epsilon}")
        if not 0.0 < self.delta < 1.0:
            raise ConfigurationError(f"delta must be in (0,1), got {self.delta}")


# ---------------------------------------------------------------------------
# Order-alpha divergence of scaled Gaussians
# ---------------------------------------------------------------------------


def f_alpha(alpha: float, x: float) -> float:
    """Per-coordinate Renyi divergence shape function.

    f_alpha(x) = log x + log(x^2 / (alpha x^2 + 1 - alpha)) / (2 (alpha - 1))
    is the order-alpha divergence D_alpha(N(0,1) || N(0, 1/x^2)) — equivalently
    the divergence between zero-mean Gaussians whose std ratio (second over
    first) is x.  Finite only when alpha x^2 + 1 - alpha > 0; decreasing in x
    on (0, 1), zero at x = 1, increasing on (1, inf).
    """
    if not alpha > 1.0:
        raise ConfigurationError(f"alpha must be > 1, got {alpha}")
    if not x > 0.0:
        raise ConfigurationError(f"x must be > 0, got {x}")
    dom = alpha * x * x + 1.0 - alpha
    if dom <= 0.0:
        raise RenyiOrderDomainError(
            f"alpha = {alpha:.6g} too large for variance ratio x^2 = {x * x:.6g}: "
            f"alpha*x^2 + 1 - alpha = {dom:.3g} <= 0"
        )
    return math.log(x) + math.log(x * x / dom) / (2.0 * (alpha - 1.0))


def renyi_divergence_sgm(
    alpha: float,
    norm_D: float,
    norm_Dp: float,
    m: int,
    b: int,
    sigma_g: float,
) -> float:
    """Exact order-alpha divergence between mechanism outputs on two datasets.

    The release on a dataset with aggregated statistic gamma is
    N(0, (||gamma||^2/b + m sigma_g^2) I_b) after marginalizing the sketch, so
    the divergence is b * f_alpha(x) with
    x = sqrt((norm_Dp^2 + m b sigma_g^2) / (norm_D^2 + m b sigma_g^2)).
    `m` counts independent noise terms summed into the release (e.g. clients
    per round).  Raises RenyiOrderDomainError where the divergence is infinite.
    """
    if norm_D < 0 or norm_Dp < 0:
        raise ConfigurationError("norms must be nonnegative")
    if m < 1 or b < 1:
        raise ConfigurationError(f"m and b must be >= 1, got m={m}, b={b}")
    if sigma_g < 0:
        raise ConfigurationError(f"sigma_g must be >= 0, got {sigma_g}")
    v_p = norm_D * norm_D + m * b * sigma_g * sigma_g
    v_q = norm_Dp * norm_Dp + m * b * sigma_g * sigma_g
    if v_p == 0.0 or v_q == 0.0:
        raise ConfigurationError("degenerate release: zero variance on one side")
    return b * f_alpha(alpha, math.sqrt(v_q / v_p))


def sgm_rdp_bound(alpha: float, tau: float, b: int, sigma_g: float) -> float:
    """Closed-form RDP bound for one mechanism release under tau-clipped inputs.

    eps_rdp(alpha) = alpha^2 tau^4 / ((alpha - 1) b sigma_g^4), requiring the
    regime 2 tau^2/(b sigma_g^2) < 1.  The quadratic form is a valid upper
    bound on the exact worst-case divergence when the sensitivity ratio
    r = 2 tau^2/(b sigma_g^2) satisfies r <~ 3/(2 (alpha^2 - 1)); see
    `rdp_bound_validity` for the sufficient condition used by the tests.
    """
    if not alpha > 1.0:
        raise ConfigurationError(f"alpha must be > 1, got {alpha}")
    if tau == 0.0:
        return 0.0
    r = sensitivity_ratio(tau, b, sigma_g)
    if r >= 1.0:
        raise ParameterRegimeError(
            f"2*tau^2/(b*sigma_g^2) = {r:.6g} >= 1; bound does not apply"
        )
    t2 = tau * tau
    s2 = sigma_g * sigma_g
    return alpha * alpha * t2 * t2 / ((alpha - 1.0) * b * s2 * s2)


def rdp_bound_validity(alpha: float, tau: float, b: int, sigma_g: float) -> bool:
    """Whether the quadratic RDP bound provably dominates the exact divergence.

    Sufficient condition: r = 2 tau^2/(b sigma_g^2) <= 3/(2 (alpha^2 - 1)).
    Comparing the series of alpha*log(1-r) - log(1-alpha*r) with alpha^2 r^2 / 2
    term by term shows the cubic term flips the inequality once
    r > 3/(2 (alpha^2 - 1)) (up to higher-order corrections); inside this
    region every term is dominated.  `sgm_pipeline` does not check the region
    at its alpha*, so its epsilon is proven only where this holds.
    """
    r = sensitivity_ratio(tau, b, sigma_g)
    return r <= 1.5 / (alpha * alpha - 1.0)


# ---------------------------------------------------------------------------
# End-to-end pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AccountantParams:
    """Inputs to the end-to-end budget computation.

    q: per-round participation probability (N/C in the federated setting).
    T: number of composed rounds.
    tau: clip threshold entering the sensitivity analysis.
    b: sketch dimension.
    sigma_g: per-client mechanism noise std.
    """

    q: float
    T: int
    tau: float
    b: int
    sigma_g: float

    def __post_init__(self):
        if not 0.0 < self.q <= 1.0:
            raise ConfigurationError(f"q must be in (0,1], got {self.q}")
        if self.T < 1:
            raise ConfigurationError(f"T must be >= 1, got {self.T}")
        if not self.tau > 0.0:
            raise ConfigurationError(f"tau must be positive, got {self.tau}")
        if self.b < 1:
            raise ConfigurationError(f"b must be >= 1, got {self.b}")
        if not self.sigma_g > 0.0:
            raise ConfigurationError(f"sigma_g must be positive, got {self.sigma_g}")


@dataclass(frozen=True)
class PipelineStage:
    name: str
    eps: float
    delta: float


@dataclass(frozen=True)
class PipelineTrace:
    """Per-stage (eps, delta) ledger for one budget computation."""

    alpha_star: float
    stages: tuple[PipelineStage, ...] = field(default_factory=tuple)

    @property
    def epsilon(self) -> float:
        return self.stages[-1].eps

    @property
    def delta(self) -> float:
        return self.stages[-1].delta


def delta_split(delta: float, q: float, T: int) -> tuple[float, float]:
    """The per-release delta0 = delta/(2 q T) and the composition slack delta/2."""
    return 0.5 * delta / (q * T), 0.5 * delta


def sgm_pipeline(params: AccountantParams, delta: float) -> PipelineTrace:
    """The whole chain, steps 2-4, with the delta split baked in.

    The total delta is split evenly into a composition slack delta' = delta/2
    and a per-release delta0 = delta/(2 q T), so the final ledger line lands
    on (eps_total, delta) exactly: q T delta0 + delta' = delta.  The release
    is the RDP bound converted at the order minimizing
    A alpha^2/(alpha-1) + log(1/delta0)/(alpha-1), A = tau^4/(b sigma_g^4):
    alpha* = 1 + sqrt(1 + log(1/delta0)/A) and eps0 = 2 A alpha*.  Where A is
    so small that alpha* overflows, eps0 = 2 A + 2 sqrt(A^2 + A log(1/delta0)),
    the same value written without alpha*, which tends to 0 with A.  Raises
    ParameterRegimeError outside the regime r = 2 tau^2/(b sigma_g^2) < 1.
    """
    if not 0.0 < delta < 1.0:
        raise ConfigurationError(f"delta must be in (0,1), got {delta}")
    q, T = params.q, params.T
    delta0, delta_slack = delta_split(delta, q, T)
    if not 0.0 < delta0 < 1.0:
        raise ConfigurationError(
            f"per-release delta0 = {delta0:.3g} is outside (0,1); delta does not fit (q, T)"
        )
    r = sensitivity_ratio(params.tau, params.b, params.sigma_g)
    if not r < 1.0:
        raise ParameterRegimeError(
            f"2*tau^2/(b*sigma_g^2) = {r:.6g} >= 1; accounting regime violated"
        )
    try:
        A = params.tau**4 / (params.b * params.sigma_g**4)
    except (OverflowError, ZeroDivisionError):  # tau^4 or sigma_g^4 leaves the float range
        A = 0.0
    if A == 0.0:  # the same A from r, which is below 1: A = r^2 b / 4
        A = r * r * params.b / 4.0
    log_inv_delta0 = math.log(1.0 / delta0)
    order_term = log_inv_delta0 / A if A > 0.0 else math.inf
    alpha_star = 1.0 + math.sqrt(1.0 + order_term)
    if order_term < math.inf:
        eps0 = 2.0 * A * alpha_star
    else:
        eps0 = 2.0 * A + 2.0 * math.sqrt(A * A + A * log_inv_delta0)
    # amplification at rate q (Balle, Barthe and Gaboardi 2018) in log space,
    # log((1-q) + q e^eps0), which can land an ulp below zero at eps0 == 0
    if q == 1.0:
        eps1 = eps0
    else:
        eps1 = max(0.0, float(np.logaddexp(math.log1p(-q), math.log(q) + eps0)))
    delta1 = q * delta0
    # T-fold strong composition with slack delta'
    if eps1 > _EPS_OVERFLOW:
        eps = math.inf
    else:
        eps = math.sqrt(2.0 * T * math.log(1.0 / delta_slack)) * eps1 + T * eps1 * math.expm1(eps1)
    return PipelineTrace(
        alpha_star=alpha_star,
        stages=(
            PipelineStage("release", eps0, delta0),
            PipelineStage("subsampled", eps1, delta1),
            PipelineStage("composed", eps, T * delta1 + delta_slack),
        ),
    )


def sgm_epsilon(params: AccountantParams, delta: float) -> float:
    """Total (eps, delta)-DP epsilon of T subsampled mechanism rounds."""
    return sgm_pipeline(params, delta).epsilon


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------


def _solve_sigma(target: DpPoint, eps_at, lo: float, hi: float, cap: float, too_high) -> float:
    """Smallest sigma with eps_at(sigma) <= the target epsilon, to CALIBRATION_REL_TOL.

    eps_at must be non-increasing in sigma and lo infeasible.  hi doubles
    until it is feasible, raising CalibrationError(too_high(hi)) once it
    passes cap; then [lo, hi] is halved until it is narrower than
    CALIBRATION_REL_TOL * hi, and the feasible end hi is returned.
    """
    target_eps = target.epsilon
    if not target_eps > 0.0 or math.isnan(target_eps):
        raise CalibrationError(f"target epsilon must be positive, got {target_eps}")
    while not eps_at(hi) <= target_eps:
        hi *= 2.0
        if hi > cap:
            raise CalibrationError(too_high(hi))
    while (hi - lo) > CALIBRATION_REL_TOL * hi:
        mid = 0.5 * (lo + hi)
        if eps_at(mid) <= target_eps:
            hi = mid
        else:
            lo = mid
    return hi


def calibrate_sgm_sigma(
    target: DpPoint,
    q: float,
    T: int,
    tau: float,
    b: int,
) -> float:
    """Smallest sigma_g whose end-to-end budget meets the target guarantee.

    sgm_epsilon is continuous and strictly decreasing in sigma_g on the valid
    regime (sqrt(2/b) tau, inf), diverging at the left end and vanishing at
    the right, so bisection against the regime floor converges to the unique
    crossing.  The returned sigma satisfies sgm_epsilon(sigma) <= target
    epsilon and the regime constraint strictly.  tau = inf violates the
    regime at every sigma_g.
    """
    # sigma_g is what the solve sets; the placeholder only passes the check
    params = AccountantParams(q=q, T=T, tau=tau, b=b, sigma_g=math.inf)
    if math.isinf(tau):
        raise ParameterRegimeError(
            "2*tau^2/(b*sigma_g^2) = inf >= 1 at tau = inf for every sigma_g; "
            "accounting regime violated"
        )

    def eps_at(sigma: float) -> float:
        try:
            return sgm_epsilon(replace(params, sigma_g=sigma), target.delta)
        except ParameterRegimeError:
            return math.inf

    floor = math.sqrt(2.0 / b) * tau  # infeasible by construction (regime boundary)
    return _solve_sigma(
        target, eps_at, lo=floor, hi=2.0 * floor, cap=math.ldexp(2.0 * floor, 199),
        too_high=lambda hi: f"no sigma_g up to {hi:.3g} meets eps={target.epsilon} (q={q}, T={T})",
    )


# ---------------------------------------------------------------------------
# Non-sketched subsampled Gaussian baseline
# ---------------------------------------------------------------------------


# log C(alpha, k) for the integer orders alpha = 2..256 (rows) and k = 0..256
# (columns), masked to -inf where k > alpha.
_ALPHAS = np.arange(2.0, 257.0)
_K = np.arange(257.0)
_ALPHA_MINUS_K = _ALPHAS[:, None] - _K
_LOG_FACT = np.array([math.lgamma(n + 1.0) for n in range(257)])
_LOG_BINOM = np.where(
    _ALPHA_MINUS_K >= 0,
    _LOG_FACT[2:, None] - _LOG_FACT - _LOG_FACT[np.maximum(_ALPHA_MINUS_K, 0).astype(int)],
    -np.inf,
)


def baseline_gm_epsilon(sigma: float, q: float, T: int, delta: float) -> float:
    """Total epsilon of T rounds of the (non-sketched) subsampled Gaussian.

    sigma is the noise multiplier relative to the clip threshold (noise std =
    sigma * tau on sensitivity-tau sums).  One round of the sampled Gaussian
    (Mironov, Talwar and Zhang 2019) is (alpha, RDP(alpha))-RDP with

      RDP(alpha) = log( sum_{k=0}^{alpha} C(alpha,k) (1-q)^(alpha-k) q^k
                        * exp((k^2 - k) / (2 sigma^2)) ) / (alpha - 1);

    all integer orders 2..256 are evaluated at once in log space, and the
    T-round composition is converted to (eps, delta)-DP at the best order.
    """
    if sigma <= 0.0:
        raise ConfigurationError(f"sigma must be positive, got {sigma}")
    if not 0.0 < q <= 1.0:
        raise ConfigurationError(f"q must be in (0,1], got {q}")
    if T < 1:
        raise ConfigurationError(f"T must be >= 1, got {T}")
    if not 0.0 < delta < 1.0:
        raise ConfigurationError(f"delta must be in (0,1), got {delta}")
    if q == 1.0:
        # only the k = alpha term survives
        rdp = _ALPHAS / (2.0 * sigma * sigma)
    else:
        terms = (
            _LOG_BINOM
            + _K * math.log(q)
            + _ALPHA_MINUS_K * math.log1p(-q)
            + (_K * _K - _K) / (2.0 * sigma * sigma)
        )
        peak = terms.max(axis=1, keepdims=True)
        rdp = (peak[:, 0] + np.log(np.exp(terms - peak).sum(axis=1))) / (_ALPHAS - 1.0)
        # a term that overflows (sigma^2 near underflow) leaves inf - inf = nan
        rdp[np.isnan(rdp)] = np.inf
    return float(np.min(T * rdp + math.log(1.0 / delta) / (_ALPHAS - 1.0)))


def calibrate_baseline_sigma(target: DpPoint, q: float, T: int) -> float:
    """Smallest baseline noise multiplier meeting the target guarantee.

    Note the integer-order conversion has an epsilon floor of about
    log(1/delta)/255; targets below it are reported as infeasible.
    """
    return _solve_sigma(
        target, lambda sigma: baseline_gm_epsilon(sigma, q, T, target.delta),
        lo=1e-3, hi=1.0, cap=1e9,
        too_high=lambda hi: f"target eps={target.epsilon} below the integer-order conversion floor",
    )
