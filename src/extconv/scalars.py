"""Scalar backends.

Two backends run through the whole package: ``"exact"`` holds arbitrary
precision rationals (Python ``int`` or ``fractions.Fraction``; integer values
stay integers so the hot integer campaigns never pay Fraction overhead) and
``"float"`` holds IEEE doubles.  Every identity-class computation runs exact;
sampled convexity work runs float.

JSON carries exact scalars as rational strings ("3/2", "-1") and float
scalars as plain numbers, so exact results never round-trip through floats.

Float array work runs under ``float_guard``: a value that leaves the float
range is a domain error, never a silent inf or nan in a verdict.
"""

from __future__ import annotations

import contextlib
import numbers
from fractions import Fraction

import numpy as np

from .errors import DomainError

EXACT = "exact"
FLOAT = "float"

BACKENDS = (EXACT, FLOAT)


def check_backend(backend: str) -> str:
    if backend not in BACKENDS:
        raise DomainError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
    return backend


def coerce(value, backend: str):
    """Coerce ``value`` into the backend's scalar type.

    Exact refuses non-integral floats: silently rationalizing a float would
    corrupt exactness guarantees downstream.
    """
    if backend == FLOAT:
        return float(value)
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
        return coerce(Fraction(value), EXACT)
    raise DomainError(f"cannot coerce {type(value).__name__} to {backend} scalar")


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


def zero(backend: str):
    return 0.0 if backend == FLOAT else 0


def one(backend: str):
    return 1.0 if backend == FLOAT else 1


def parse_rational(text: str):
    """Parse "p/q" or "p" into an int or Fraction."""
    value = Fraction(text.strip())
    return int(value) if value.denominator == 1 else value


def format_rational(value) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def scalar_from_json(obj, backend: str):
    """Decode a JSON scalar (string rational or number) for ``backend``."""
    if isinstance(obj, str):
        value = parse_rational(obj)
        return float(value) if backend == FLOAT else value
    return coerce(obj, backend)


def scalar_to_json(value, backend: str):
    if backend == FLOAT:
        return float(value)
    return format_rational(value)
