"""Exception taxonomy shared by every module.

Each class maps to a distinct CLI exit code (see ``cli.EXIT_CODES``) so
scripted callers can tell config mistakes from capacity overruns or
numerical failures.
"""

from __future__ import annotations


class CommonKVError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(CommonKVError):
    """Invalid or mutually inconsistent configuration values."""


class UnreachableRatioError(ConfigurationError):
    """A compression ratio out of reach for the given rank and group layout.

    Carries ``max_achievable``, the best ratio the layout can reach.
    """

    def __init__(self, message: str, max_achievable: float):
        super().__init__(message)
        self.max_achievable = max_achievable


class InputError(CommonKVError):
    """Malformed runtime input (empty corpus, too-short sequence, ...)."""


class CapacityError(CommonKVError):
    """Sequence position outside the configured maximum."""


class NumericError(CommonKVError):
    """Numerical failure: factorization non-convergence, audit mismatch, non-finite values."""
