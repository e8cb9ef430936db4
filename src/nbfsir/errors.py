"""Exception taxonomy shared across the package.

Two broad families matter for the CLI exit code: configuration/usage
problems (exit code 2) and everything that means the model or the
numerics failed (exit code 1).
"""

from __future__ import annotations


class NBFSIRError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(NBFSIRError):
    """Invalid configuration, dimensions, or arguments."""


class UsageError(ConfigurationError):
    """An operation was invoked on inputs outside its contract."""


class ExpressionSyntaxError(ConfigurationError):
    """Parse failure in a feedback expression; carries the byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.reason = message
        self.offset = offset

    def __reduce__(self):
        # args hold the formatted message; a worker's error crosses to the
        # caller by pickle, which calls the class with these instead
        return type(self), (self.reason, self.offset), self.__dict__


class ModelValidityError(NBFSIRError):
    """The model violates a mathematical requirement (e.g. a negative
    interaction entry on the feasible set)."""


class EvaluationError(ModelValidityError):
    """A feedback expression failed to evaluate at a state (division by
    zero, log of a nonpositive value, or a similar domain fault)."""


class IntegrationFailureError(NBFSIRError):
    """The integrator produced a state outside the feasible set beyond
    the clamping tolerance."""


class StiffnessError(IntegrationFailureError):
    """Step size underflowed; carries the last accepted time and state."""

    def __init__(self, message: str, t: float | None = None, state=None):
        super().__init__(message)
        self.t = t
        self.state = state


class NumericalError(NBFSIRError):
    """A numerical routine got input it cannot work on, such as a matrix
    with non-finite entries after an overflow."""
