"""Clipping and the sketched Gaussian mechanism.

The mechanism maps a d-dimensional statistic x to R @ x + xi where R is a
Gaussian sketch (see `sketch`) and xi ~ N(0, sigma_g^2 I_b).  Privacy comes
from the combination of norm clipping of the inputs and the additive noise;
the accounting lives in `accountant`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterRegimeError


@dataclass(frozen=True)
class MechanismConfig:
    """Per-update privatization parameters, an unchecked record whose fields
    are the config schema's `mechanism` keys (sigma_g resolved to a number).

    tau: clip threshold on the update norm (math.inf disables clipping).
    sigma_g: std of the additive Gaussian noise in sketched space (its
       dimension b is the compressor's).
    noise_seed: root seed for all noise substreams.
    """

    tau: float
    sigma_g: float
    noise_seed: int = 0


def clip(v: np.ndarray, tau: float) -> tuple[np.ndarray, bool]:
    """Scale v onto the L2 ball of radius tau > 0: v * min(1, tau/||v||).

    Returns the clipped copy and whether ||v|| > tau (False for a NaN norm).
    The copy is idempotent, positively homogeneous (c*v at c*tau gives c times
    the copy for c > 0), and the zero vector is a fixed point.  tau = inf is a no-op.
    """
    v = np.asarray(v, dtype=np.float64)
    norm = float(np.linalg.norm(v))
    if norm == 0.0 or norm <= tau:
        return v.copy(), False
    scale = tau / norm
    out = v * scale
    # Guarantee the post-condition ||out|| <= tau exactly: the rescaled norm
    # can overshoot tau by an ulp, which would also break idempotence.
    while float(np.linalg.norm(out)) > tau:
        scale = np.nextafter(scale, 0.0)
        out = v * scale
    return out, norm > tau


def sensitivity_ratio(tau: float, b: int, sigma_g: float) -> float:
    """r = 2*tau^2 / (b*sigma_g^2), the knob controlling the variance-ratio range."""
    if tau == 0.0:
        return 0.0
    if sigma_g <= 0.0:
        raise ParameterRegimeError("sigma_g must be positive when tau > 0")
    den = b * sigma_g * sigma_g
    if den == 0.0 or den == math.inf:  # sigma_g^2 under- or overflows; tau/sigma_g does not
        u = tau / sigma_g
        return 2.0 * u * u / b
    return 2.0 * tau * tau / den

