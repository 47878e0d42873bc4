"""Exception hierarchy shared across the simulator."""


class GencommError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(GencommError):
    """Invalid configuration value or combination (maps to CLI exit code 1)."""


class ContractError(GencommError):
    """Caller violated an operation precondition (shape/dimension mismatch)."""


class DomainError(GencommError):
    """Math-domain failure, e.g. division by a structurally zero quantity."""


class NormalizationError(GencommError):
    """Power normalization requested on an all-zero signal."""


class RankError(GencommError):
    """A conditioning/covariance computation was numerically rank-deficient."""


class TrainingError(GencommError):
    """Training diverged (non-finite loss)."""


class FrameError(GencommError):
    """Side-channel frame too large or malformed at construction."""


class DecodeError(GencommError):
    """A compressed bitstream could not be decoded."""


class ConstructionError(GencommError):
    """Randomized code construction failed after bounded retries."""
