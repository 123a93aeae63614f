"""Deterministic random generators shared by checkers, campaigns and the CLI.

Every trial draws from its own stream derived from (seed, trial index), so
results do not depend on scheduling and any witness can be replayed from the
numbers stored in the report.

Float coefficients are ``random.uniform(−scale, scale)`` draws, computed from
each stream's ``random()`` values by uniform's own formula a + (b − a)·u in
one numpy step, bit for bit the same.  ``random_form_rows`` draws a whole
stack of forms that way, one row per stream, without a form per row.

Integer entries are ``random.randint(low, high)`` draws, taken by
``integer_draws``: the rejection loop on ``getrandbits`` that ``randint``
runs, without its per-call argument checks, so every value and the stream's
final state equal ``randint``'s.  ``random_integer_matrix`` draws one matrix
that way, and ``random_integer_rows`` a stack of them, one row per stream.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from . import scalars
from .errors import DomainError
from .exterior import KForm, wedge_rows
from .multiindex import integer
from .shapespace import ShapeMatrix

_STRIDE = 1_000_003  # coprime spacing keeps per-trial streams disjoint


def derive_rng(seed: int, index: int) -> random.Random:
    return random.Random(seed * _STRIDE + index)


def _uniform_rows(rngs: Sequence[random.Random], width: int, scale: float) -> np.ndarray:
    """Row j holds ``width`` successive draws rngs[j].uniform(−scale, scale).

    Each stream gives its ``width`` values u of ``random()`` in order, and one
    vectorized step maps them all by ``random.uniform``'s own formula
    a + (b − a)·u, so every entry equals that draw bit for bit.
    """
    u = np.array([rng.random() for rng in rngs for _ in range(width)], dtype=float)
    low = -scale
    return (low + (scale - low) * u).reshape(len(rngs), width)


def random_form(n: int, k: int, rng: random.Random, scale: float) -> KForm:
    return KForm(n, k, _uniform_rows([rng], math.comb(n, k), scale)[0], scalars.FLOAT)


def random_form_rows(n: int, k: int, seed: int, indices: Iterable[int],
                     scale: float) -> np.ndarray:
    """A stack of float forms: for each j of ``indices``, the coefficients of
    ``random_form(n, k, derive_rng(seed, j), scale)``, which must be finite."""
    rows = _uniform_rows([derive_rng(seed, j) for j in indices], math.comb(n, k), scale)
    return scalars.require_finite(rows, f"({n},{k}) coefficients")


def random_exact_form(n: int, k: int, rng: random.Random,
                      numerator: int = 8, denominator: int = 4) -> KForm:
    coeffs = [Fraction(rng.randint(-numerator, numerator), rng.randint(1, denominator))
              for _ in range(math.comb(n, k))]
    return KForm(n, k, coeffs, scalars.EXACT)


def random_matrix(n: int, k: int, rng: random.Random, scale: float) -> ShapeMatrix:
    entries = _uniform_rows([rng], math.comb(n, k - 1) * n, scale)
    return ShapeMatrix(n, k, entries.reshape(-1, n), scalars.FLOAT)


def integer_draws(rng: random.Random, low: int, high: int, count: int) -> list[int]:
    """``[rng.randint(low, high) for _ in range(count)]``, draw for draw.

    ``randint`` takes each value as low + r, r drawn by ``getrandbits`` of
    the span's bit length until it falls below the span; this is that loop,
    so the values and the stream's final state are ``randint``'s.
    """
    low, high = integer(low, "low bound"), integer(high, "high bound")
    span = high - low + 1
    if span < 1:
        raise DomainError(f"empty integer range {low}..{high}")
    bits, getrandbits = span.bit_length(), rng.getrandbits
    out = []
    for _ in range(count):
        r = getrandbits(bits)
        while r >= span:
            r = getrandbits(bits)
        out.append(low + r)
    return out


def random_integer_matrix(n: int, k: int, rng: random.Random,
                          low: int = -5, high: int = 5) -> ShapeMatrix:
    """Exact-backend matrix with integer entries, the campaign default."""
    entries = np.array(integer_draws(rng, low, high, math.comb(n, k - 1) * n), dtype=object)
    return ShapeMatrix(n, k, entries.reshape(-1, n), scalars.EXACT)


def random_integer_rows(n: int, k: int, seed: int, indices: Iterable[int],
                        low: int, high: int) -> np.ndarray:
    """A stack of exact matrices: for each j of ``indices``, the entries of
    ``random_integer_matrix(n, k, derive_rng(seed, j), low, high)`` as one
    flat row of Python ints in a read-only object array."""
    width = math.comb(n, k - 1) * n
    rows = [integer_draws(derive_rng(seed, j), low, high, width) for j in indices]
    return scalars.array(np.array(rows, dtype=object).reshape(len(rows), width),
                         (len(rows), width), scalars.EXACT, f"(n={n}, k={k}) matrix entries")


def random_line(n: int, k: int, rng: random.Random, scale: float,
                exact: bool = False) -> tuple[KForm, KForm]:
    """A direction pair (alpha, beta) with alpha ∧ beta ≠ 0.

    Degenerate draws carry no information for line tests, so they are
    redrawn; with continuous coefficients this effectively never loops.
    """
    for _ in range(100):
        if exact:
            alpha = random_exact_form(n, k - 1, rng)
            beta = random_exact_form(n, 1, rng)
        else:
            alpha = random_form(n, k - 1, rng, scale)
            beta = random_form(n, 1, rng, scale)
        with scalars.float_guard("wedge"):
            product = wedge_rows(alpha.coeffs[None], beta.coeffs[None], n, k - 1, 1)
        if product.any():
            return alpha, beta
    raise DomainError(f"no nondegenerate direction for (n={n}, k={k}) at range {scale!r}")
