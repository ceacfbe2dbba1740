"""Sketched Gaussian mechanism: privacy accounting and federated training.

The package namespace holds the accountant's entry points; everything else
is imported from its submodule (fedsgm.sketch, fedsgm.fedsim, ...).
"""

__version__ = "0.1.0"

from .accountant import AccountantParams, baseline_gm_epsilon, sgm_epsilon  # noqa: F401
from .errors import ParameterRegimeError  # noqa: F401
