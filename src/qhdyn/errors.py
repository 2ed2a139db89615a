"""Exception types shared across the library."""

from __future__ import annotations


class QhdynError(Exception):
    """Base class for all library-specific errors."""


class DomainError(QhdynError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class PreconditionError(DomainError):
    """A declared precondition (unit norm, tangency, ...) is violated."""


class GeometryError(DomainError):
    """A matrix fails the orthogonality or properness requirements."""


class ChartError(DomainError):
    """Unknown chart tag, or a chart mismatch between variables and a point."""


class IntegrationAborted(QhdynError, RuntimeError):
    """The integrator hit a non-finite state component or monitor value."""

    def __init__(self, step: int, message: str = ""):
        self.step = step
        super().__init__(message or f"non-finite state encountered at step {step}")


class ConfigError(QhdynError, ValueError):
    """Invalid run configuration; carries the offending field path."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")
