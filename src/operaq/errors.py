"""Exception types shared across the package."""

from __future__ import annotations


class OperaqError(Exception):
    """Base class for package errors."""


class DimensionMismatchError(OperaqError, ValueError):
    """Shapes or dimension profiles do not line up."""


class IllPosedFeedbackError(OperaqError):
    """The feedback loop map (I - L) is numerically singular."""


class NotCompletelyPositiveError(OperaqError):
    """A completely positive map was required but the Choi matrix has a
    negative eigenvalue beyond tolerance."""

    def __init__(self, message: str, min_eigenvalue: float | None = None):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue


class InconsistentDilationsError(OperaqError):
    """Two dilations claimed to present the same map reconstruct different
    maps beyond tolerance."""


class NonLinearGeneratorError(OperaqError):
    """A formal generator (cloning or broadcasting) reached numeric
    interpretation; such generators have no linear realization."""


class UnassignedSymbolError(OperaqError, KeyError):
    """A term mentions a symbol the interpretation does not assign."""


class SchemaError(OperaqError, ValueError):
    """A JSON artifact failed schema validation; the message names the
    offending field."""
