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
by ``array``, float64 or object, and read their backend off its dtype.  A
stored array is never of a fixed-width integer type: an object array holds
Python ints, Fractions or polynomials (``polyform.Poly``), which the exact
backend carries as they are.  A kernel may still take ints in int64, but only
under a bound it proves before the arithmetic (``narrow``, ``proved``), so
that no result can wrap; ``array`` widens the result back to Python ints
where it is stored.  An int64 stack a kernel is handed (such as
``sampling.random_integer_rows``' draws) gets the same proof as Python ints:
it stays int64 under the bound and is widened to Python ints otherwise.
Exact rationals may also be taken as integer numerators over one
denominator (``integers``), summed and multiplied as integers, and divided
once at the end (``over``): no gcd is taken on each step, as it is on every
``Fraction`` add and multiply.  A polynomial is never split so; its caller
keeps its values.
Float array work runs under ``float_guard``: a value that leaves the float
range is a domain error, never a silent inf or nan in a verdict.
"""

from __future__ import annotations

import contextlib
import math
import numbers
import operator
from fractions import Fraction
from typing import Callable

import numpy as np

from .errors import DomainError

EXACT = "exact"
FLOAT = "float"

BACKENDS = (EXACT, FLOAT)

# every int64 that ``narrow`` lets a kernel compute lies below this in size,
# a bit of headroom under the 2^63 where int64 wraps
INT64_LIMIT = 1 << 62


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

    numpy's are caught as it raises them; Python float arithmetic raises its
    own overflow (``10.0 ** 400``, or an int too large for a float), caught
    here too.  Underflow stays silent: it rounds toward zero, below every
    tolerance.
    """
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise", under="ignore"):
            yield
    except (FloatingPointError, OverflowError) as exc:
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


def real(value, what: str) -> float:
    """``value`` as a Python float: any real number but a bool; ``what`` names
    it in the error."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise DomainError(f"{what} {value!r} is not a real number")
    try:
        return float(value)
    except OverflowError:
        raise DomainError(f"{what} lies beyond the float range") from None


def largest(values: np.ndarray) -> int:
    """The largest absolute value of an int64 array (0 when it is empty), as a
    Python int, so that −2^63 reads as 2^63."""
    return max(-int(values.min(initial=0)), int(values.max(initial=0)))


def narrow(values: np.ndarray, bound: Callable[[int], int]) -> np.ndarray | None:
    """``values`` in int64, if they are integers that provably fit.

    ``bound(B)``, for B the largest absolute value, must bound every value
    the caller computes from the result, which is made only when that bound
    lies below ``INT64_LIMIT``.  An int64 array is returned as it is; an
    object array is copied to int64 when every element is an ``int`` (not a
    bool, Fraction or polynomial).  Otherwise the answer is None and the
    caller keeps its values.  B is read off the int64 values; an element
    beyond int64 lies past every bound (each is at least B).
    """
    if values.dtype != np.int64:
        if values.dtype != object or not set(map(type, values.ravel().tolist())) <= {int}:
            return None
        try:
            values = values.astype(np.int64)
        except OverflowError:
            return None
    return values if bound(largest(values)) < INT64_LIMIT else None


_NUMERATOR, _DENOMINATOR = operator.attrgetter("numerator"), operator.attrgetter("denominator")

# the most bits of a common denominator ``integers`` takes: the lcm of many
# distinct denominators grows as their product, and past ~2 000 bits products
# of numerators over it cost more than the gcd of each Fraction step
# (table_inner over 4 900 cells, 21-bit prime denominators)
_LCM_BITS = 1 << 10


def integers(values: np.ndarray) -> tuple[np.ndarray, int] | None:
    """Exact rationals as integer numerators over one denominator.

    For an object array of ints and Fractions, the pair (numerators, L): L the
    lcm of the denominators, and numerators an object array of Python ints of
    ``values``' shape with each value equal to its numerator / L.  An array of
    ints alone is its own numerators, over 1.  None when an element is not an
    int or Fraction (a polynomial), or when L has more than ``_LCM_BITS``
    bits: the caller then keeps its values, as after ``narrow``.  Sums and
    products of numerators are exact integer arithmetic, with one division at
    the end (``over``) in place of a gcd on every step.
    """
    flat = values.ravel().tolist()
    if operator.countOf(map(type, flat), int) == len(flat):
        return values, 1
    if not set(map(type, flat)) <= {int, Fraction}:
        return None
    denominators = list(map(_DENOMINATOR, flat))
    distinct = set(denominators)
    L = math.lcm(*distinct)
    if L.bit_length() > _LCM_BITS:
        return None
    scale = {d: L // d for d in distinct}
    numerators = map(operator.mul, map(_NUMERATOR, flat), map(scale.__getitem__, denominators))
    # fromiter stores each value as it is; assigning a list would inspect
    # every element for a nested sequence, a cost that is large on Fractions
    return np.fromiter(numerators, dtype=object, count=len(flat)).reshape(values.shape), L


def over(numerators: np.ndarray, L: int) -> np.ndarray:
    """Each numerator / L as an exact scalar, in an object array of the same
    shape: an int where L divides it, else a normalised Fraction, as
    ``coerce`` would give.  Numerators may be Python ints or int64."""
    if L == 1:
        return numerators.astype(object)
    flat = numerators.ravel().tolist()
    return np.fromiter([q if not r else Fraction(p, L) for p in flat for q, r in (divmod(p, L),)],
                       dtype=object, count=len(flat)).reshape(numerators.shape)


def proved(values: np.ndarray, bound: Callable[[int], int]) -> np.ndarray:
    """``values`` in int64 where ``narrow`` proves ``bound`` on them; otherwise
    an int64 array widened to Python ints, and any other array as it is."""
    narrowed = narrow(values, bound)
    if narrowed is not None:
        return narrowed
    return values.astype(object) if values.dtype == np.int64 else values


def array(values, shape: tuple[int, ...], backend: str, what: str,
          element: Callable | None = None) -> np.ndarray:
    """``values`` (nested sequences or an array) as one read-only array of ``shape``.

    Float is one vectorized conversion to a float64 copy, which must be
    finite and hold no bool (``refuse_bools``).  Exact keeps a polynomial as
    it is and coerces every other element, so an int stays a Python int
    (never int64), ``Fraction(n, 1)`` becomes ``n`` and a non-integral float
    is refused; ``element`` replaces all of that with a check or conversion
    of its own.  An integer array, such as a kernel's int64 result, needs no
    check: one conversion turns it into Python ints, and neither does a
    Python int among objects.
    Ragged input never has ``shape``, so it is refused too.
    """
    if backend not in BACKENDS:
        raise DomainError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
    if backend == FLOAT:
        refuse_bools(values)
    try:
        out = np.array(values, dtype=float if backend == FLOAT else object)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"cannot read {what} as {backend} scalars: {exc}") from None
    if out.shape != shape:
        raise DomainError(f"expected {what} of shape {shape}, got shape {out.shape}")
    if backend == FLOAT:
        require_finite(out, what)
    elif element or not (isinstance(values, np.ndarray) and values.dtype.kind in "iu"):
        from .polyform import Poly    # polyform builds on this module
        flat = out.reshape(-1)    # a view: np.array made out a fresh copy
        flat[:] = np.fromiter([element(value) for value in flat.tolist()] if element else
                              [value if type(value) is int or isinstance(value, Poly)
                               else coerce(value) for value in flat.tolist()],
                              dtype=object, count=flat.size)
    out.flags.writeable = False
    return out


def refuse_bools(values) -> None:
    """Refuse a bool anywhere in ``values``: a scalar, an array or nested sequences.

    numpy would read True as 1.0.  A float or integer array is one dtype test;
    only sequences and object arrays are walked.
    """
    if isinstance(values, np.ndarray):
        if values.dtype == bool:
            raise DomainError("bool is not a scalar")
        if values.dtype == object:
            refuse_bools(values.tolist())
    elif isinstance(values, (list, tuple)):
        for value in values:
            refuse_bools(value)
    elif isinstance(values, (bool, np.bool_)):
        raise DomainError("bool is not a scalar")


def backend_of(values: np.ndarray) -> str:
    """The backend of an array that ``array`` built."""
    return EXACT if values.dtype == object else FLOAT


def checked_rows(rows, width: int, what: str) -> np.ndarray:
    """``rows`` as an (m × width) stack: an object array as it is (exact),
    anything else as float64, which must be finite and hold no bool."""
    exact = isinstance(rows, np.ndarray) and rows.dtype == object
    if not exact:
        refuse_bools(rows)
        rows = np.asarray(rows, dtype=float)
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
