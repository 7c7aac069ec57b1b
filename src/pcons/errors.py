"""Exception types shared across the package, and the checks that every
entry point applies to a value from outside the program."""
import math
from itertools import chain
from numbers import Integral, Real

import numpy as np


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


def _all_real(value) -> bool:
    """True when ``value`` is a real number other than a bool, an integer or
    float ndarray, or lists and tuples of these at any depth."""
    if type(value) is np.ndarray:  # the common case, decided by the dtype alone
        return value.dtype.kind in "iuf"
    level = [value]
    while level:
        rows = []
        for t in set(map(type, level)):
            if issubclass(t, np.ndarray):
                if any(v.dtype.kind not in "iuf" for v in level if type(v) is t):
                    return False
            elif issubclass(t, (list, tuple)):
                rows.extend(v for v in level if type(v) is t)
            elif issubclass(t, bool) or not issubclass(t, Real):
                return False
        level = list(chain.from_iterable(rows))
    return True


def _reals(value, what, ndim=None, error=InvalidInputError) -> np.ndarray:
    """``value`` as a float array of ``ndim`` dimensions (any when None).

    Every entry must be a real number, not a bool: Python and numpy ints
    and floats pass, and an integer or float ndarray passes by its dtype
    alone.  Bools, complex numbers, strings, None, object arrays and
    ragged rows raise ``error``, which a problem file sets to
    ``ExpressionError``.  NaN and infinity pass, for the checks that know
    what they mean.
    """
    try:
        arr = np.asarray(value, dtype=float) if _all_real(value) else None
    except (ValueError, TypeError, OverflowError):  # ragged rows, or too large
        arr = None
    if arr is not None and ndim in (None, arr.ndim):
        return arr
    kind = ("real numbers" if ndim is None else "a number" if ndim == 0
            else f"a {ndim}-d array of numbers")
    raise error(f"{what} must be {kind}" + (f", got {value!r}" if ndim == 0 else ""))
