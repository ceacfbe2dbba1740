"""Exception types shared across the package."""


class FedSgmError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatchError(FedSgmError, ValueError):
    """Vector or matrix shapes do not line up."""


class ParameterRegimeError(FedSgmError, ValueError):
    """Privacy parameters fall outside the regime where the analysis holds.

    Raised e.g. when 2*tau^2 / (b*sigma_g^2) >= 1, where the ratio-sensitivity
    interval degenerates.
    """


class CalibrationError(FedSgmError, RuntimeError):
    """Noise calibration cannot meet the requested privacy target."""


class ConfigurationError(FedSgmError, ValueError):
    """A config file or config object is malformed or inconsistent."""

