"""Exception types shared across the package, and the checks that every
entry point applies to a value from outside the program: ``_positive``
and ``_integer`` read one number, ``_rng`` a numpy random generator, and
``_reals`` is the one reader of an array or a real number, its shape and,
where asked, its finiteness.
Nothing else converts an argument, so nothing is silently converted.
"""
import math
import reprlib
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


def _positive(value, what, zero=False, error=InvalidInputError) -> float:
    """``value`` as a float; it must be a finite positive real, not a bool,
    else ``error`` is raised.  With ``zero`` it may also be 0, as a
    tolerance may."""
    if (isinstance(value, bool) or not isinstance(value, Real)
            or not (0.0 <= value if zero else 0.0 < value) or not value < math.inf):
        sign = "nonnegative" if zero else "positive"
        raise error(f"{what} must be finite and {sign}, got {value!r}")
    return float(value)


def _integer(value, what, least, error=InvalidInputError) -> int:
    """``value`` as an int; it must be an integer of at least ``least``, not
    a bool or a float such as 2.0.  Raises ``error``, which a problem file
    sets to ``ExpressionError``."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
        raise error(f"{what} must be an integer >= {least} (a whole number), got {value!r}")
    return int(value)


def _rng(value):
    """``value``; it must be a numpy ``Generator`` or ``RandomState``."""
    if not isinstance(value, (np.random.Generator, np.random.RandomState)):
        raise InvalidInputError(f"rng must be a numpy Generator or RandomState, got "
                                f"{type(value).__name__}")
    return value


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


def _reals(value, what, shape=None, error=InvalidInputError, finite=False) -> np.ndarray:
    """``value`` as a float array of ``shape``: any shape when None, that
    many dimensions when an int, that shape when a tuple, n by n when
    ``"square"``.

    Every entry must be a real number, not a bool: Python and numpy ints
    and floats pass, and an integer or float ndarray passes by its dtype
    alone.  Bools, complex numbers, strings, None, object arrays, ragged
    rows and a wrong shape raise ``error`` (a problem file's is
    ``ExpressionError``), and so do NaN and infinity when ``finite``, with
    the message "<what> must <be or have what is expected>, got <what>".
    """
    try:
        arr = np.asarray(value, dtype=float) if _all_real(value) else None
    except (ValueError, TypeError, OverflowError):  # ragged rows, or too large
        arr = None
    if arr is None:
        kind = "a real number" if shape == 0 else "real numbers"
        raise error(f"{what} must be {kind}, got {reprlib.repr(value)}")
    if shape is not None and not (
            arr.ndim == shape if type(shape) is int else arr.shape == shape if shape != "square"
            else arr.ndim == 2 and arr.shape[0] == arr.shape[1]):
        want = ("be a single number" if shape == 0 else f"be a {shape}-d array"
                if type(shape) is int else "be a square matrix" if shape == "square"
                else f"have length {shape[0]}" if len(shape) == 1 else f"have shape {shape}")
        raise error(f"{what} must {want}, got shape {arr.shape}")
    if finite and not np.isfinite(arr).all():
        raise error(f"{what} must be finite, got non-finite entries")
    return arr
