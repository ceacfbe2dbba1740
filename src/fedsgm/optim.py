"""Server-side optimizers: plain gradient step, AMSGrad, and Adam.

All three consume a descent direction `update` (for the federated loop this
is the desketched average client delta, which already points along the
gradient) and apply it functionally: step(theta, update, state) returns the
new iterate and new state without mutating either input.

The adaptive variants share one moment state and one update, which uses the
current first/second moments and applies no bias correction; AMSGrad
additionally enforces the elementwise running maximum on the second moment,
which is what makes its effective step sizes non-increasing.  Both use the
fixed hyperparameters BETA1, BETA2 and EPS below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError

# AMSGrad's (Reddi, Kale and Kumar, 2018) moment decay rates and denominator floor
BETA1 = 0.9
BETA2 = 0.99
EPS = 1e-8


def gd_step(theta: np.ndarray, update: np.ndarray, eta: float) -> np.ndarray:
    """theta - eta * update."""
    theta = np.asarray(theta, dtype=np.float64)
    update = np.asarray(update, dtype=np.float64)
    if theta.shape != update.shape:
        raise DimensionMismatchError(
            f"theta shape {theta.shape} != update shape {update.shape}"
        )
    return theta - eta * update


@dataclass(frozen=True)
class MomentState:
    """First and second moment estimates of AMSGrad and Adam, EMAs at decay
    rates BETA1 and BETA2.  Under AMSGrad v is the running elementwise
    maximum of the second-moment EMA, which is what the step divides by."""

    m: np.ndarray
    v: np.ndarray

    @classmethod
    def init(cls, d: int) -> "MomentState":
        return cls(m=np.zeros(d), v=np.zeros(d))


def _moment_step(
    theta: np.ndarray, update: np.ndarray, state: MomentState, eta: float, running_max: bool
) -> tuple[np.ndarray, MomentState]:
    theta = np.asarray(theta, dtype=np.float64)
    update = np.asarray(update, dtype=np.float64)
    if theta.shape != update.shape or theta.shape != state.m.shape:
        raise DimensionMismatchError(
            f"shape mismatch: theta {theta.shape}, update {update.shape}, "
            f"state {state.m.shape}"
        )
    m_t = BETA1 * state.m + (1.0 - BETA1) * update
    v_t = BETA2 * state.v + (1.0 - BETA2) * update * update
    if running_max:
        v_t = np.maximum(v_t, state.v)
    theta_t = theta - eta * m_t / (np.sqrt(v_t) + EPS)
    return theta_t, MomentState(m_t, v_t)


def amsgrad_step(
    theta: np.ndarray, update: np.ndarray, state: MomentState, eta: float
) -> tuple[np.ndarray, MomentState]:
    """One AMSGrad step.

    m_t = BETA1 m + (1-BETA1) u
    v_t = max(BETA2 v + (1-BETA2) u^2, v)   (elementwise, never decreases)
    theta_t = theta - eta * m_t / (sqrt(v_t) + EPS)
    """
    return _moment_step(theta, update, state, eta, running_max=True)


def adam_step(
    theta: np.ndarray, update: np.ndarray, state: MomentState, eta: float
) -> tuple[np.ndarray, MomentState]:
    """One Adam step: AMSGrad's without the max on the second moment (and,
    like it, without bias correction)."""
    return _moment_step(theta, update, state, eta, running_max=False)
