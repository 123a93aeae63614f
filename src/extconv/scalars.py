"""Scalar backends.

Two backends run through the whole package: ``"exact"`` holds arbitrary
precision rationals (Python ``int`` or ``fractions.Fraction``; integer values
stay integers so the hot integer campaigns never pay Fraction overhead) and
``"float"`` holds IEEE doubles.  Every identity-class computation runs exact;
sampled convexity work runs float.

JSON carries exact scalars as rational strings ("3/2", "-1") and float
scalars as plain numbers, so exact results never round-trip through floats.
No backend reads a bool, and the float backend reads and writes finite
numbers only.

Forms, shape matrices and minor tables each store one read-only array built
by ``array``, float64 or object (never a fixed-width integer type), and read
their backend off its dtype.  An object array holds ints, Fractions or
polynomials (``polyform.Poly``), which the exact backend carries as they are.
Float array work runs under ``float_guard``: a value that leaves the float
range is a domain error, never a silent inf or nan in a verdict.
"""

from __future__ import annotations

import contextlib
import numbers
from fractions import Fraction
from typing import Callable

import numpy as np

from .errors import DomainError

EXACT = "exact"
FLOAT = "float"

BACKENDS = (EXACT, FLOAT)


def coerce(value):
    """Coerce ``value`` into an exact scalar: an int, or a Fraction that is not one.

    It refuses non-integral floats: silently rationalizing a float would
    corrupt exactness guarantees downstream.
    """
    if isinstance(value, bool):
        raise DomainError("bool is not a scalar")
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else value
    if isinstance(value, float):
        if value.is_integer():
            return int(value)
        raise DomainError(f"refusing to coerce non-integral float {value!r} to exact")
    if isinstance(value, numbers.Rational):
        return coerce(Fraction(value))
    raise DomainError(f"cannot coerce {type(value).__name__} to an exact scalar")


@contextlib.contextmanager
def float_guard(what: str):
    """Raise float overflow, invalid operations and division by zero as DomainError.

    Underflow stays silent: it rounds toward zero, below every tolerance.
    """
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise", under="ignore"):
            yield
    except FloatingPointError as exc:
        raise DomainError(f"{what} left the float range ({exc})") from None


def require_finite(values: np.ndarray, what: str) -> np.ndarray:
    if not np.isfinite(values).all():
        raise DomainError(f"{what} is not finite")
    return values


def finite_float(value) -> float:
    """``float(value)``, which must be finite; anything else is a DomainError."""
    try:
        return require_finite(float(value), "float scalar")
    except OverflowError:
        raise DomainError("a scalar lies beyond the float range") from None


def array(values, shape: tuple[int, ...], backend: str, what: str,
          element: Callable | None = None) -> np.ndarray:
    """``values`` (nested sequences or an array) as one read-only array of ``shape``.

    Float is one vectorized conversion to a float64 copy, which must be
    finite.  Exact keeps a polynomial as it is and coerces every other
    element, so an int stays a Python int (never int64), ``Fraction(n, 1)``
    becomes ``n`` and a non-integral float is refused; ``element`` replaces
    all of that with a check or conversion of its own.
    Ragged input never has ``shape``, so it is refused too.
    """
    if backend not in BACKENDS:
        raise DomainError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
    try:
        out = np.array(values, dtype=float if backend == FLOAT else object)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"cannot read {what} as {backend} scalars: {exc}") from None
    if out.shape != shape:
        raise DomainError(f"expected {what} of shape {shape}, got shape {out.shape}")
    if backend == FLOAT:
        require_finite(out, what)
    else:
        from .polyform import Poly    # polyform builds on this module
        flat = out.reshape(-1)    # a view: np.array made out a fresh copy
        flat[:] = [element(value) for value in flat.tolist()] if element else \
            [value if isinstance(value, Poly) else coerce(value) for value in flat.tolist()]
    out.flags.writeable = False
    return out


def backend_of(values: np.ndarray) -> str:
    """The backend of an array that ``array`` built."""
    return EXACT if values.dtype == object else FLOAT


def checked_rows(rows, width: int, what: str) -> np.ndarray:
    """``rows`` as an (m × width) stack: an object array as it is (exact),
    anything else as float64, which must be finite."""
    exact = isinstance(rows, np.ndarray) and rows.dtype == object
    rows = rows if exact else np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != width:
        raise DomainError(f"expected an (m × {width}) array of {what}, got shape {rows.shape}")
    return rows if exact else require_finite(rows, f"a stack of {what}")


def parse_rational(text: str):
    """Parse "p/q" or "p" into an int or Fraction; anything else is a DomainError."""
    try:
        value = Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise DomainError(f"bad rational {text!r}") from None
    return int(value) if value.denominator == 1 else value


def format_rational(value) -> str:
    """"p/q" or "p"; a part longer than Python prints an int is a DomainError."""
    value = Fraction(value)
    try:
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    except ValueError as exc:
        raise DomainError(f"an exact result is too long to print: {exc}") from None


def scalar_from_json(obj, backend: str):
    """Decode a JSON scalar (string rational or number) for ``backend``."""
    if isinstance(obj, bool):
        raise DomainError("bool is not a scalar")
    if isinstance(obj, str):
        value = parse_rational(obj)
        return finite_float(value) if backend == FLOAT else value
    return finite_float(obj) if backend == FLOAT else coerce(obj)


def scalar_to_json(value, backend: str):
    """A float as a number, a rational as its "p/q" text, a polynomial as its text."""
    if backend == FLOAT:
        return finite_float(value)
    return format_rational(value) if isinstance(value, (int, Fraction)) else str(value)
