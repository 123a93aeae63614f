"""Deterministic random generators shared by checkers, campaigns and the CLI.

Every trial draws from its own stream derived from (seed, trial index), so
results do not depend on scheduling and any witness can be replayed from the
numbers stored in the report.  Every draw is a stack, one row per stream.

Float coefficients are ``random.uniform(−scale, scale)`` draws, computed from
each stream's ``random()`` values by uniform's own formula a + (b − a)·u in
one numpy step, bit for bit the same.  ``random()`` comes from two words: a
stream's w values take one ``getrandbits(64·w)``, whose 2w 32-bit words, least
significant first, are the words w calls of ``random()`` would take, in their
order.  Each pair (x, y) maps by ``random()``'s own formula
((x >> 5)·2²⁶ + (y >> 6))/2⁵³, which is exact in floats, so the values and
the stream's final state are those of the calls.  A line takes each stream's
blocks in one such pass: ξ, α, β (or X, a, b), then α and β again, from the
streams of the rows one ``wedge_rows`` call finds with α∧β = 0, then t.

Integer entries are ``random.randint(low, high)`` draws, taken by
``integer_draws``: the rejection loop on ``getrandbits`` that ``randint``
runs, without its per-call argument checks, so every value and the stream's
final state equal ``randint``'s.  A stack of them is int64 when its bounds
fit int64, and Python ints otherwise.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import partial
from typing import Callable, Iterable, Sequence

import numpy as np

from . import scalars
from .errors import DomainError
from .exterior import wedge_rows
from .multiindex import integer

# streams of two seeds are disjoint only below index _STRIDE: the fitter's
# offsets are not, so seed s's validation stream is seed s + 76's trial 999 772
_STRIDE = 1_000_003
_ATTEMPTS = 100             # direction pairs a line draws before it is given up


def derive_rng(seed: int, index: int) -> random.Random:
    """Trial ``index``'s stream.  ``random.Random`` seeds an int by its absolute
    value, so a negative seed or index would replay another one's streams."""
    if seed < 0 or index < 0:
        raise DomainError(f"seed and trial index must be nonnegative, got {seed} and {index}")
    return random.Random(seed * _STRIDE + index)


def _uniform_rows(rngs: Sequence[random.Random], width: int, scale: float,
                  what: str) -> np.ndarray:
    """Row j holds ``width`` successive draws rngs[j].uniform(−scale, scale),
    which must be finite (``what`` names them).

    Each stream gives the words of its ``width`` values u of ``random()`` in
    one ``getrandbits``, and vectorized steps map them by ``random()``'s and
    ``random.uniform``'s own formulas, a + (b − a)·u, so every entry equals
    that draw bit for bit.
    """
    words = np.frombuffer(b"".join(rng.getrandbits(64 * width).to_bytes(8 * width, "little")
                                   for rng in rngs), dtype="<u4")
    u = ((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)) * (1.0 / 9007199254740992.0)
    low = -scale
    return scalars.require_finite((low + (scale - low) * u).reshape(len(rngs), width), what)


def _fraction_rows(rngs: Sequence[random.Random], width: int) -> np.ndarray:
    """Row j holds ``width`` successive exact draws randint(−8, 8)/randint(1, 4) of rngs[j]."""
    rows = [scalars.coerce(Fraction(rng.randint(-8, 8), rng.randint(1, 4)))
            for rng in rngs for _ in range(width)]
    return np.array(rows, dtype=object).reshape(len(rngs), width)


def _blocks(draw: Callable, rngs: Sequence, widths: Sequence[int]) -> list[np.ndarray]:
    """Each stream's blocks of ``widths``, drawn in one pass of their summed widths."""
    return np.split(draw(rngs, sum(widths)), np.cumsum(widths)[:-1], axis=1)


def random_form_rows(n: int, k: int, seed: int, indices: Iterable[int],
                     scale: float) -> np.ndarray:
    """A stack of float (n, k) forms, one per stream ``derive_rng(seed, j)`` of
    ``indices``, uniform in ±``scale`` and finite."""
    return _uniform_rows([derive_rng(seed, j) for j in indices], math.comb(n, k), scale,
                         f"({n},{k}) coefficients")


def random_line_rows(n: int, k: int, seed: int, indices: Iterable[int], scale: float,
                     points: int = 1, backend: str = scalars.FLOAT) -> list[np.ndarray]:
    """Stacks (ξ, α, β, t) of wedge lines ξ + t·(α∧β), one per stream
    ``derive_rng(seed, j)`` of ``indices``, and ``points`` values of t.
    Float entries are uniform in ±``scale`` and finite, and t in ±1; exact
    entries and t are randint(−8, 8)/randint(1, 4), whatever the scale.  A
    degenerate direction α∧β = 0 tells a line test nothing, so it is redrawn."""
    rngs, exact = [derive_rng(seed, j) for j in indices], backend == scalars.EXACT
    draw = _fraction_rows if exact else partial(_uniform_rows, scale=scale,
                                                 what=f"({n},{k}) coefficients")
    widths = (math.comb(n, k), math.comb(n, k - 1), n)
    xi, alpha, beta = _blocks(draw, rngs, widths)
    bad = np.arange(len(rngs))
    for attempt in range(_ATTEMPTS):
        if attempt:
            alpha[bad], beta[bad] = _blocks(draw, [rngs[i] for i in bad], widths[1:])
        with scalars.float_guard("wedge"):
            bad = bad[(wedge_rows(alpha[bad], beta[bad], n, k - 1, 1) == 0).all(axis=1)]
        if not bad.size:
            break
    else:
        raise DomainError(f"no nondegenerate direction for (n={n}, k={k}) at range {scale!r}")
    t = _fraction_rows(rngs, points) if exact else _uniform_rows(rngs, points, 1.0, "t")
    return [xi, alpha, beta, scalars.array(t, t.shape, backend, "line parameters")]


def random_rank_one_rows(n: int, k: int, seed: int, indices: Iterable[int],
                         scale: float) -> list[np.ndarray]:
    """Stacks (X, a, b, t) of float rank-one lines X + t·(a⊗b), one per stream
    ``derive_rng(seed, j)`` of ``indices``: X's entries row by row, a and b
    uniform in ±``scale`` and finite, and t in ±1."""
    if not 2 <= k <= n:
        raise DomainError(f"shape matrices need 2 ≤ k ≤ n, got k={k}, n={n}")
    rngs, width = [derive_rng(seed, j) for j in indices], math.comb(n, k - 1)
    draw = partial(_uniform_rows, scale=scale, what=f"(n={n}, k={k}) matrix entries")
    return [*_blocks(draw, rngs, (width * n, width, n)), _uniform_rows(rngs, 1, 1.0, "t")]


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


def random_integer_rows(n: int, k: int, seed: int, indices: Iterable[int],
                        low: int, high: int) -> np.ndarray:
    """A stack of exact (n, k) matrices, one per stream ``derive_rng(seed, j)``
    of ``indices``: ``randint(low, high)`` entries row by row, one flat row
    per matrix, in a read-only array.  When ``low`` and ``high`` lie within
    int64 the array is int64, the form the row kernels prove their bounds on;
    otherwise it holds Python ints as objects."""
    width = math.comb(n, k - 1) * n
    rows = [integer_draws(derive_rng(seed, j), low, high, width) for j in indices]
    bounds = np.iinfo(np.int64)
    if not bounds.min <= low <= high <= bounds.max:
        return scalars.array(np.array(rows, dtype=object).reshape(len(rows), width),
                             (len(rows), width), scalars.EXACT,
                             f"(n={n}, k={k}) matrix entries")
    stack = np.array(rows, dtype=np.int64).reshape(len(rows), width)
    stack.flags.writeable = False
    return stack
