"""Server-side optimizers: plain gradient step, AMSGrad, and Adam.

All three consume a descent direction `update` (for the federated loop this
is the desketched average client delta, which already points along the
gradient) and apply it functionally: step(theta, update, state) returns the
new iterate and new state without mutating either input.

The adaptive variants share one moment state and one update, which uses the
current first/second moments and applies no bias correction; AMSGrad
additionally enforces the elementwise running maximum on the second moment,
which is what makes its effective step sizes non-increasing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, DimensionMismatchError


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
    """First and second moment estimates of AMSGrad and Adam.  Under AMSGrad
    v is the running elementwise maximum of the second-moment EMA, which is
    what the step divides by."""

    m: np.ndarray
    v: np.ndarray
    beta1: float = 0.9
    beta2: float = 0.99
    eps: float = 1e-8

    def __post_init__(self):
        if not 0.0 <= self.beta1 < 1.0:
            raise ConfigurationError(f"beta1 must be in [0,1), got {self.beta1}")
        if not 0.0 <= self.beta2 < 1.0:
            raise ConfigurationError(f"beta2 must be in [0,1), got {self.beta2}")
        if self.eps <= 0.0:
            raise ConfigurationError(f"eps must be positive, got {self.eps}")

    @classmethod
    def init(cls, d: int, **hyper) -> "MomentState":
        return cls(m=np.zeros(d), v=np.zeros(d), **hyper)


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
    m_t = state.beta1 * state.m + (1.0 - state.beta1) * update
    v_t = state.beta2 * state.v + (1.0 - state.beta2) * update * update
    if running_max:
        v_t = np.maximum(v_t, state.v)
    theta_t = theta - eta * m_t / (np.sqrt(v_t) + state.eps)
    return theta_t, replace(state, m=m_t, v=v_t)


def amsgrad_step(
    theta: np.ndarray, update: np.ndarray, state: MomentState, eta: float
) -> tuple[np.ndarray, MomentState]:
    """One AMSGrad step.

    m_t = beta1 m + (1-beta1) u
    v_t = max(beta2 v + (1-beta2) u^2, v)   (elementwise, never decreases)
    theta_t = theta - eta * m_t / (sqrt(v_t) + eps)
    """
    return _moment_step(theta, update, state, eta, running_max=True)


def adam_step(
    theta: np.ndarray, update: np.ndarray, state: MomentState, eta: float
) -> tuple[np.ndarray, MomentState]:
    """One Adam step: AMSGrad's without the max on the second moment (and,
    like it, without bias correction)."""
    return _moment_step(theta, update, state, eta, running_max=False)
