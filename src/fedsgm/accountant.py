"""Renyi-DP accounting and noise calibration for the sketched Gaussian mechanism.

The chain, for one federated round observed through the mechanism:

  1. One mechanism release is (alpha, eps_rdp)-RDP with
         eps_rdp = alpha^2 tau^4 / ((alpha-1) b sigma_g^4)
     wherever `rdp_bound_validity` holds at alpha.
  2. RDP converts to (eps0, delta0)-DP at the optimal order, which has a
     closed form.
  3. Each round `client_sampler` draws N of the C clients, a fixed-size
     sample without replacement; the chain amplifies at q = N/C to
     eps1 = log(1 + q (e^eps0 - 1)), delta1 = q delta0.
  4. T-fold strong composition with slack delta' gives the total budget.

`sgm_pipeline` runs steps 2-4 in one function with the delta split
delta0 = delta/(2 q T), delta' = delta/2, so the reported guarantee is exactly
(eps_total, delta); `sgm_epsilon` is its last line.

A non-sketched baseline (`baseline_gm_epsilon`) sums the subsampled Gaussian's
integer-order RDP over a packed (alpha, k <= alpha) table, for noise comparisons;
the sigma-free part of that table is built once per q and kept for the next call.
It sums only the orders that can still hold the minimum: one term of each
other order bounds that order's epsilon from below, so the result is the
float of the whole table.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import CalibrationError, ConfigurationError, ParameterRegimeError
from .mechanism import sensitivity_ratio

# Above this subsampled per-round epsilon the composed budget is astronomically
# large; short-circuit to inf instead of overflowing exp().
_EPS_OVERFLOW = 700.0

# Both calibrations return the upper end of a bisection's bracket on sigma once
# it is narrower than this share of that end; `_solve_sigma` narrows its own
# bracket to the same share before it replays the bisection.
CALIBRATION_REL_TOL = 1e-4


@dataclass(frozen=True)
class DpPoint:
    """An (epsilon, delta)-DP guarantee: the target that the calibrations meet."""

    epsilon: float
    delta: float

    def __post_init__(self):
        if self.epsilon < 0.0:  # NaN, 0 and inf are the solves' to refuse
            raise ConfigurationError(f"epsilon must be >= 0, got {self.epsilon}")
        if not 0.0 < self.delta < 1.0:
            raise ConfigurationError(f"delta must be in (0,1), got {self.delta}")


# ---------------------------------------------------------------------------
# Order-alpha divergence of scaled Gaussians
# ---------------------------------------------------------------------------


def f_alpha(alpha: float, x: float) -> float:
    """Per-coordinate Renyi divergence shape function.

    f_alpha(x) = log x + log(x^2 / (alpha x^2 + 1 - alpha)) / (2 (alpha - 1))
    is the order-alpha divergence D_alpha(N(0,1) || N(0, x^2)) — equivalently
    the divergence between zero-mean Gaussians whose std ratio (second over
    first) is x.  Infinite where alpha x^2 + 1 - alpha <= 0; decreasing in x
    on (0, 1), zero at x = 1, increasing on (1, inf).
    """
    if not alpha > 1.0:
        raise ConfigurationError(f"alpha must be > 1, got {alpha}")
    if not x > 0.0:
        raise ConfigurationError(f"x must be > 0, got {x}")
    dom = alpha * x * x + 1.0 - alpha
    if dom <= 0.0:
        return math.inf
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
    per round).
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
    regime 2 tau^2/(b sigma_g^2) < 1.  Whether it bounds the exact worst-case
    divergence at a given alpha is `rdp_bound_validity`'s question.
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
    """Whether the closed-form RDP bound dominates the exact worst-case divergence.

    A release's variance ratio lies in [1 - r, 1 + r], r = 2 tau^2/(b sigma_g^2),
    in either order.  `f_alpha` falls on (0, 1) and rises on (1, inf), so the
    worst case sits at the four ratios 1 - r, 1 + r, 1/(1 - r) and 1/(1 + r),
    and comparing the bound with b f_alpha there is exact in this model.
    `sgm_pipeline` does not check it at its alpha*, so its epsilon is proven
    only where this holds.
    """
    bound = sgm_rdp_bound(alpha, tau, b, sigma_g)
    r = sensitivity_ratio(tau, b, sigma_g)
    ends = (1.0 - r, 1.0 + r, 1.0 / (1.0 - r), 1.0 / (1.0 + r))
    return all(bound >= b * f_alpha(alpha, math.sqrt(v)) for v in ends)


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

    The answer is a bisection's: hi doubles until it is feasible, raising
    CalibrationError(too_high(hi)) once it passes cap; then [lo, hi] is halved
    until it is narrower than CALIBRATION_REL_TOL * hi, and the feasible end
    hi is returned.  The solve reaches the same float, and at the calibration
    tables' points in about half the evaluations:

      1. the doubling keeps L, the largest sigma known to be infeasible (lo,
         then each hi that fails), and U, the smallest known to be feasible;
      2. Illinois steps (regula falsi on log eps against log sigma, Dowell and
         Jarratt 1971) narrow [L, U] to the tolerance, with a midpoint in
         log sigma wherever an end's log eps is not finite, and in no more
         steps than the bisection could take;
      3. the bisection is replayed from the same (lo, hi): a mid >= U is
         feasible and a mid <= L infeasible without an evaluation, and any
         other mid is evaluated and tightens L or U.

    eps_at must be non-increasing in sigma, which the bisection assumes too;
    then every replayed decision, and so the result, is the bisection's.  lo
    must be infeasible.  Where no evaluation was infeasible the result rests
    on that alone, so lo is evaluated once, and a feasible lo raises
    CalibrationError.

    The count of evaluations is not bounded by the bisection's.  Where eps
    is a staircase of flat steps, as the baseline's minimum over integer
    orders is at q below about 5e-3, regula falsi can creep along a step,
    and the solve can take a few more evaluations than the bisection would.
    """
    target_eps = target.epsilon
    if not 0.0 < target_eps < math.inf:  # also rejects NaN
        raise CalibrationError(f"target epsilon must be positive and finite, got {target_eps}")
    log_target = math.log(target_eps)

    def excess(eps):  # log(eps / target); nan where log eps is not finite
        return math.log(eps) - log_target if 0.0 < eps < math.inf else math.nan

    start, L, f_L = lo, lo, math.nan  # lo is not evaluated
    while not (eps := eps_at(hi)) <= target_eps:
        L, f_L = hi, excess(eps)
        hi *= 2.0
        if hi > cap:
            raise CalibrationError(too_high(hi))
    U, f_U = hi, excess(eps)

    # the bisection's bracket halves and its hi stays above lo, so it has
    # stopped by the time its width is down to CALIBRATION_REL_TOL * lo
    width, kept = hi - lo, None  # kept: the end that the last step left in place
    while U - L > CALIBRATION_REL_TOL * U and width > CALIBRATION_REL_TOL * lo:
        width *= 0.5
        log_L, log_U = math.log(L), math.log(U)
        if f_U < f_L:  # f_L >= 0 >= f_U; false at a nan end and where both are 0
            x = (log_L * f_U - log_U * f_L) / (f_U - f_L)
        else:
            x = 0.5 * log_L + 0.5 * log_U
        sigma = math.exp(x)
        if not L < sigma < U:
            sigma = 0.5 * L + 0.5 * U
        eps = eps_at(sigma)
        if eps <= target_eps:
            U, f_U = sigma, excess(eps)
            if kept == "L":
                f_L *= 0.5
            kept = "L"
        else:
            L, f_L = sigma, excess(eps)
            if kept == "U":
                f_U *= 0.5
            kept = "U"

    while (hi - lo) > CALIBRATION_REL_TOL * hi:
        mid = 0.5 * lo + 0.5 * hi  # the bits of 0.5 * (lo + hi) on normal floats; lo + hi may overflow
        if mid >= U:
            hi = mid
        elif mid <= L:
            lo = mid
        elif eps_at(mid) <= target_eps:
            hi = U = mid
        else:
            lo = L = mid
    if L == start and eps_at(start) <= target_eps:
        raise CalibrationError(
            f"target eps={target_eps} is already met at sigma = {start:.3g}, the lower end "
            f"of the searched range [{start:.3g}, {cap:.3g}]"
        )
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
    regime (sqrt(2/b) tau, inf) and vanishes at the right end; at the regime
    floor sqrt(2/b) tau itself r = 1, so the floor is infeasible however r
    rounds there.  `_solve_sigma` therefore returns the bisection's sigma
    above the floor, which satisfies sgm_epsilon(sigma) <= target epsilon and
    the regime constraint strictly.  tau = inf violates the regime at every
    sigma_g, and a sigma_g past the largest float is infeasible.
    """
    # sigma_g is what the solve sets; the placeholder only passes the check
    params = AccountantParams(q=q, T=T, tau=tau, b=b, sigma_g=math.inf)
    if math.isinf(tau):
        raise ParameterRegimeError(
            "2*tau^2/(b*sigma_g^2) = inf >= 1 at tau = inf for every sigma_g; "
            "accounting regime violated"
        )
    floor = math.sqrt(2.0 / b) * tau

    def eps_at(sigma: float) -> float:
        at = replace(params, sigma_g=sigma)  # refuses sigma_g <= 0
        if sigma <= floor:  # r >= 1, though r may round below 1 at the floor
            return math.inf
        try:
            return sgm_epsilon(at, target.delta)
        except ParameterRegimeError:
            return math.inf

    return _solve_sigma(
        target, eps_at, lo=floor, hi=2.0 * floor,
        cap=min(2.0 * floor * 2.0**199, sys.float_info.max),  # sigma_g stays a finite float
        too_high=lambda hi: f"no sigma_g up to {hi:.3g} meets eps={target.epsilon} (q={q}, T={T})",
    )


# ---------------------------------------------------------------------------
# Non-sketched subsampled Gaussian baseline
# ---------------------------------------------------------------------------


# The (alpha, k) pairs, 0 <= k <= alpha, of the orders alpha = 2..256 packed row
# after row (33,150 entries): row i (alpha = i + 2) starts at _ROW_START[i].
_ALPHAS = np.arange(2.0, 257.0)
_ROW_SIZE = np.arange(3, 258)
_K = np.concatenate([np.arange(size, dtype=float) for size in _ROW_SIZE])
_ROW_START = np.flatnonzero(_K == 0.0)
_ALPHA_MINUS_K = np.repeat(_ALPHAS, _ROW_SIZE) - _K
_LOG_FACT = np.array([math.lgamma(n + 1.0) for n in range(257)])
_LOG_BINOM = np.concatenate([_LOG_FACT[a] - _LOG_FACT[: a + 1] - _LOG_FACT[a::-1] for a in range(2, 257)])
_K_SQ_MINUS_K = _K * _K - _K
_ALPHA_M1 = _ALPHAS - 1.0
# Row i's k = alpha entry, whose term bounds the row's epsilon from below.
_TOP = _ROW_START + _ROW_SIZE - 1
# Rows evaluated before any is skipped, alpha = 2..32 (558 entries). This sets
# only how much work a call does; the result is the same float at any value
# from 1 to 255.
_FIRST_PASS_ROWS = 31


@functools.lru_cache(maxsize=1)
def _q_table(q: float) -> np.ndarray:
    """The sigma-free part of the packed terms at q, log C(alpha,k) q^k (1-q)^(alpha-k).

    A calibration evaluates one q many times, so the last table is kept; it
    is read-only, since every later call at q shares it.
    """
    table = _LOG_BINOM + _K * math.log(q) + _ALPHA_MINUS_K * math.log1p(-q)
    table.flags.writeable = False
    return table


def _rows_epsilon(table, two_s2, T, log_inv_delta, first, stop) -> float:
    """The smallest epsilon of the packed rows first..stop-1 (orders first+2..stop+1).

    The rows are evaluated on one contiguous slice of the packed arrays, and a
    row's bits do not depend on the slice it is in.  Called under the caller's
    np.errstate.
    """
    start, end = _ROW_START[first], _TOP[stop - 1] + 1
    offsets = _ROW_START[first:stop] - start
    terms = _K_SQ_MINUS_K[start:end] / two_s2
    terms += table[start:end]  # the same bits as table + noise: addition commutes
    peak = np.maximum.reduceat(terms, offsets)
    terms -= np.repeat(peak, _ROW_SIZE[first:stop])
    # exp is slow on subnormals; terms under e^-700 of the peak vanish in the sum
    np.exp(np.maximum(terms, -700.0, out=terms), out=terms)
    alpha_m1 = _ALPHA_M1[first:stop]
    rdp = (peak + np.log(np.add.reduceat(terms, offsets))) / alpha_m1
    # a term that overflows (sigma^2 near underflow) leaves inf - inf = nan
    rdp[np.isnan(rdp)] = np.inf
    return float((T * rdp + log_inv_delta / alpha_m1).min())


def baseline_gm_epsilon(sigma: float, q: float, T: int, delta: float) -> float:
    """Total epsilon of T rounds of the (non-sketched) subsampled Gaussian.

    sigma is the noise multiplier relative to the clip threshold (noise std =
    sigma * tau on sensitivity-tau sums).  One round of the sampled Gaussian
    (Mironov, Talwar and Zhang 2019) is (alpha, RDP(alpha))-RDP with

      RDP(alpha) = log( sum_{k=0}^{alpha} C(alpha,k) (1-q)^(alpha-k) q^k
                        * exp((k^2 - k) / (2 sigma^2)) ) / (alpha - 1);

    the T-round composition is converted to (eps, delta)-DP at the best
    integer order 2..256, inf where a noise term overflows.  The sums run in
    log space over slices of the packed (alpha, k <= alpha) table, whose
    sigma-free part comes from the one-q cache `_q_table`.

    At q < 1 the orders 2..32 are evaluated first, then the later orders
    from 33 up to the last one whose lower bound is below the smallest eps
    so far.  The bound is the order's eps with peak + log S, its largest log
    term plus the log of its sum S of exp(term - peak), replaced by its
    k = alpha term.  That term has the same bits as in the table, so it is
    at most the peak, and S >= 1, since the peak's own exp(0) = 1 is in it;
    rounding is monotone and a nan eps counts as inf, so a skipped order's
    computed eps is at least its bound and cannot be the minimum.  An
    order's bits do not depend on the slice it is evaluated in, so the
    result is the float of the whole table.  At the calibration tables'
    solved sigma few orders past 32 are evaluated; where none can be skipped
    (T = 1 and a large delta, say) a call costs a whole pass and about a
    fifth more.
    """
    if not sigma > 0.0:  # also rejects NaN
        raise ConfigurationError(f"sigma must be positive, got {sigma}")
    if not 0.0 < q <= 1.0:
        raise ConfigurationError(f"q must be in (0,1], got {q}")
    if T < 1:
        raise ConfigurationError(f"T must be >= 1, got {T}")
    if not 0.0 < delta < 1.0:
        raise ConfigurationError(f"delta must be in (0,1), got {delta}")
    two_s2 = 2.0 * sigma * sigma
    log_inv_delta = math.log(1.0 / delta)
    # an overflowing noise term is inf (see the nan rule), and so is T * rdp past the float range
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if q == 1.0:
            rdp = _ALPHAS / two_s2  # only the k = alpha term survives
            return float(np.min(T * rdp + log_inv_delta / _ALPHA_M1))
        table = _q_table(q)
        eps = _rows_epsilon(table, two_s2, T, log_inv_delta, 0, _FIRST_PASS_ROWS)
        # each later row's eps with peak + log S replaced by its k = alpha term: a lower bound
        top = _K_SQ_MINUS_K[_TOP[_FIRST_PASS_ROWS:]] / two_s2
        top += table[_TOP[_FIRST_PASS_ROWS:]]
        alpha_m1 = _ALPHA_M1[_FIRST_PASS_ROWS:]
        below = (T * (top / alpha_m1) + log_inv_delta / alpha_m1 < eps).nonzero()[0]
        if below.size:
            stop = _FIRST_PASS_ROWS + int(below[-1]) + 1
            eps = min(eps, _rows_epsilon(table, two_s2, T, log_inv_delta, _FIRST_PASS_ROWS, stop))
        return eps


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
