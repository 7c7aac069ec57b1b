"""Exception types shared across the package, and the two scalar checks
that every entry point applies to a value from outside the program."""
import math
from numbers import Integral, Real


class InvalidInputError(ValueError):
    """Raised when an argument violates a documented precondition."""


class ConvexityError(InvalidInputError):
    """Raised when a construction would break convexity-by-construction."""


class ExpressionError(InvalidInputError):
    """Raised on malformed or out-of-vocabulary expression text.

    ``position`` is the 0-based column in the offending string when known.
    """

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (column {position})"
        super().__init__(message)
        self.position = position


class NumericalError(RuntimeError):
    """Raised when a computation produces non-finite or unusable values.

    A failure of a run carries the last finite state as ``state`` and the
    time of the failed step as ``t``; both are None elsewhere.
    """

    def __init__(self, message, state=None, t=None):
        super().__init__(message)
        self.state = state
        self.t = t


class DivergenceError(NumericalError):
    """Raised when a trajectory leaves the trusted region.

    Carries the last finite state and its time so callers can inspect
    where the run went wrong.
    """


class ProtocolError(RuntimeError):
    """Raised when the synchronous message protocol is violated."""


def _positive(value, what) -> float:
    """``value`` as a float; it must be a finite positive real, not a bool."""
    if isinstance(value, bool) or not isinstance(value, Real) or not 0.0 < value < math.inf:
        raise InvalidInputError(f"{what} must be finite and positive, got {value!r}")
    return float(value)


def _integer(value, what, least, error=InvalidInputError) -> int:
    """``value`` as an int; it must be an integer of at least ``least``, not
    a bool or a float such as 2.0.  Raises ``error``, which a problem file
    sets to ``ExpressionError``."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
        raise error(f"{what} must be an integer >= {least} (a whole number), got {value!r}")
    return int(value)
