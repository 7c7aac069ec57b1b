"""Exception types shared across the package."""


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
