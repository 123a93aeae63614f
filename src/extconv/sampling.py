"""Deterministic sample streams shared by checkers, campaigns and the CLI.

Every drawn number is a function of (seed, kind, index, attempt, block) and of
nothing else: a word of Philox4x32-10 (Salmon, Moraes, Dror & Shaw, "Parallel
random numbers: as easy as 1, 2, 3", SC 2011), a keyed bijection on 128-bit
counters.  The key is the seed as two 32-bit words, low word first, so a seed
lies in [0, 2⁶⁴).  The counter is the four words (block, index, attempt,
kind): ``kind`` names the draw site (the constants below), ``index`` the trial
or sample, ``attempt`` how often that stream has been drawn again, and
``block`` the place of four words in the stream.  A stream is the words of one
(seed, kind, index, attempt), block by block.  Each tuple is its own input to
the bijection, so no two streams read the same counter under the same key,
and no offset or stride keeps them apart; an index, attempt or block at 2³²
or past it is refused before any draw.  Results do not depend on scheduling, and any witness replays from the
numbers stored in its report.

Every draw is a stack, one row per stream, and one vectorized pass computes
all of its blocks: ``_philox`` runs the ten rounds on numpy arrays, three
ufuncs a round.  Its counters are built by broadcasting, and the round keys of
a seed are cached.

* Floats take two words (x, y), first word first, by ``random()``'s own
  formula u = ((x >> 5)·2²⁶ + (y >> 6))·2⁻⁵³, which is exact, and a draw in
  ±scale is a + (b − a)·u with a = −scale, b = scale, the formula of
  ``random.uniform``.
* An integer in a span S of values takes m = ⌈log₂ S / 32⌉ words (at least
  one), read as one number w, first word most significant.  It is accepted
  when w < 2^(32m) − (2^(32m) mod S) and is then low + (w mod S).  A rejected
  entry is drawn again from the same words of the stream at the next attempt.
  A stack of integers is int64 when its bounds fit int64, and Python ints
  otherwise.
* An exact line entry is randint(−8, 8)/randint(1, 4) by that integer rule,
  its numerator and denominator two successive words.
* A row that draws again (an integer rejected, or a direction α∧β = 0 that
  tells a line test nothing) takes the attempt after the last one it read, so
  every redraw reads fresh words.
"""

from __future__ import annotations

import functools
import math
import sys
from fractions import Fraction
from typing import Iterable

import numpy as np

from . import scalars
from .errors import DomainError
from .exterior import wedge_rows
from .multiindex import integer

# draw sites: the fourth counter word
SUPPORT = 0                 # support LP samples η
FIT = 1                     # fitter samples; the attempt is the widened retry
VALIDATION = 2              # fitter's held-out samples
LINE_BASE = 3               # ξ of a wedge line
LINE_DIRECTION = 4          # α, β of a wedge line; a degenerate pair draws again
LINE_T = 5                  # t of a wedge line
RANK_ONE = 6                # X, a, b of a rank-one line
RANK_ONE_T = 7              # t of a rank-one line
MATRICES = 8                # verify-formula's integer matrices

SEED_LIMIT = 1 << 64
WORD_LIMIT = 1 << 32        # an index, attempt or block lies below this

_ATTEMPTS = 100             # direction pairs a line draws before it is given up
_MULTIPLIERS = np.array([[0xD2511F53], [0xCD9E8D57]], dtype=np.uint64)
_WEYL = (0x9E3779B9, 0xBB67AE85)
_LOW, _HIGH = (0, 1) if sys.byteorder == "little" else (1, 0)   # 32-bit halves of a uint64


@functools.lru_cache(maxsize=64)
def _round_keys(seed: int) -> tuple[np.ndarray, ...]:
    """The key (k1, k0) of each round as a read-only uint32 column pair, then zeros."""
    k0, k1 = seed & 0xFFFFFFFF, seed >> 32
    keys = []
    for _ in range(10):
        keys.append(np.array([[k1], [k0]], dtype=np.uint32))
        k0, k1 = (k0 + _WEYL[0]) & 0xFFFFFFFF, (k1 + _WEYL[1]) & 0xFFFFFFFF
    keys.append(np.zeros((2, 1), dtype=np.uint32))
    for key in keys:
        key.flags.writeable = False
    return tuple(keys)


def _philox(seed: int, A: np.ndarray, L: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Philox4x32-10 under the key ``seed`` on counters (c0, c1, c2, c3) held as
    A = (c0, c2) in uint64 rows and L = (c3, c1) in uint32 rows; it returns the
    output words in the same places, A = (x0, x2) and L = (x3, x1).

    A round multiplies A by its multipliers into 64-bit products P = (P0, P1),
    writes x0, x2 = hi(P1) ⊕ c1 ⊕ k0, hi(P0) ⊕ c3 ⊕ k1 back into A, and the low
    halves into L.  L is kept xored with the key of the round that reads it,
    so a round is three ufuncs (their outputs passed by position, which numpy
    parses faster than a keyword).
    """
    keys, xor = _round_keys(seed), np.bitwise_xor
    xor(L, keys[0], L)
    P = np.empty_like(A)
    halves = P.view(np.uint32)
    high, low, swapped = halves[:, _HIGH::2], halves[:, _LOW::2], A[::-1]
    for key in keys[1:]:
        np.multiply(A, _MULTIPLIERS, P)
        xor(high, L, swapped)
        xor(low, key, L)
    return A, L


def check_streams(seed, stop: int = 0) -> int:
    """``seed`` as an int, refused unless it lies in [0, 2⁶⁴) and trial indices
    below ``stop`` lie below 2³², by arithmetic alone."""
    seed = integer(seed, "seed")
    if not 0 <= seed < SEED_LIMIT:
        raise DomainError(f"seed must lie in [0, 2^64), got {seed}")
    if stop > WORD_LIMIT:
        raise DomainError(f"trial indices must lie below 2^32, got {stop - 1}")
    return seed


def _indices(seed, indices: Iterable[int]) -> np.ndarray:
    """The trial indices as an int64 array, checked (with the seed) before any draw."""
    check_streams(seed)
    span = isinstance(indices, range)
    if not span:
        indices = [integer(j, "trial index") for j in indices]
    if len(indices):
        ends = (indices[0], indices[-1]) if span else indices
        if min(ends) < 0 or max(ends) >= WORD_LIMIT:
            raise DomainError(f"trial indices must lie in [0, 2^32), got "
                              f"{min(ends)}..{max(ends)}")
    if span:
        return np.arange(indices.start, indices.stop, indices.step, dtype=np.int64)
    return np.array(indices, dtype=np.int64)


def _counters(kind: int, indices: np.ndarray, attempts: np.ndarray,
              blocks: int) -> tuple[np.ndarray, np.ndarray]:
    """The counters (block, indices[j], attempts[j], kind) of ``blocks`` blocks
    a row, row by row, as ``_philox`` takes them: A = (c0, c2), L = (c3, c1)."""
    if blocks > WORD_LIMIT:
        raise DomainError(f"a stream of {blocks} blocks has block indices past 2^32")
    if attempts.size and attempts.max() >= WORD_LIMIT:
        raise DomainError(f"attempt {attempts.max()} is past 2^32")
    A = np.empty((2, len(indices), blocks), dtype=np.uint64)
    A[0] = np.arange(blocks, dtype=np.uint64)
    A[1] = attempts[:, None]
    L = np.empty((2, len(indices), blocks), dtype=np.uint32)
    L[0] = kind
    L[1] = indices[:, None]
    return A.reshape(2, -1), L.reshape(2, -1)


def _words(seed: int, kind: int, indices: np.ndarray, attempts: np.ndarray,
           count: int) -> np.ndarray:
    """Row j holds the first ``count`` words of stream (seed, kind, indices[j],
    attempts[j]) as uint64, block by block and x0 … x3 within a block."""
    blocks = -(-count // 4)
    A, L = _philox(seed, *_counters(kind, indices, attempts, blocks))
    return np.stack((A[0], L[1], A[1], L[0]), axis=-1).reshape(len(indices), 4 * blocks)[:, :count]


def _uniform_rows(seed: int, kind: int, indices: np.ndarray, attempts: np.ndarray,
                  width: int, scale: float, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Row j holds ``width`` draws in ±``scale`` of its stream, which must be
    finite (``what`` names them); with each row's next attempt."""
    words = _words(seed, kind, indices, attempts, 2 * width)
    u = ((words[:, 0::2] >> 5) * 67108864.0 + (words[:, 1::2] >> 6)) * (1.0 / 9007199254740992.0)
    low = -scale
    return scalars.require_finite(low + (scale - low) * u, what), attempts + 1


def _integer_rows(seed: int, kind: int, indices: np.ndarray, attempts: np.ndarray,
                  width: int, low, span) -> tuple[np.ndarray, np.ndarray]:
    """Row j holds ``width`` integers low + (w mod span) of its stream, each
    entry drawn again at the next attempt while w is rejected; with each
    row's next attempt.  ``low`` and ``span`` are ints or int64 arrays of one
    entry per column, and an array's spans take one word each.  The values
    are int64 when one word holds a candidate and every value fits int64,
    and Python ints otherwise."""
    widest = int(span.max()) if isinstance(span, np.ndarray) else span
    words = -(-max(widest - 1, 1).bit_length() // 32)
    limit = (1 << 32 * words) - (1 << 32 * words) % span

    def candidates(rows):
        w = _words(seed, kind, indices[rows], attempts[rows], words * width)
        if words == 1:
            return w.astype(np.int64)
        out = w[:, 0::words].astype(object)
        for i in range(1, words):
            out = (out << 32) | w[:, i::words].astype(object)
        return out

    attempts = attempts.copy()
    values = candidates(slice(None))
    rejected = values >= limit
    rows = np.flatnonzero(rejected.any(axis=1))
    while rows.size:
        attempts[rows] += 1
        fresh, pending = candidates(rows), rejected[rows]
        values[rows] = np.where(pending, fresh, values[rows])
        rejected[rows] = pending & (fresh >= limit)
        rows = rows[rejected[rows].any(axis=1)]
    if not isinstance(low, np.ndarray) and not -(1 << 63) <= low <= low + span - 1 < 1 << 63:
        values = values.astype(object)
    return values % span + low, attempts + 1


_FRACTION_LOW = np.array([-8, 1])
_FRACTION_SPAN = np.array([17, 4])


def _fraction_rows(seed: int, kind: int, indices: np.ndarray, attempts: np.ndarray,
                   width: int) -> tuple[np.ndarray, np.ndarray]:
    """Row j holds ``width`` exact draws randint(−8, 8)/randint(1, 4) of its
    stream, numerator and denominator from successive words; with each row's
    next attempt."""
    values, attempts = _integer_rows(seed, kind, indices, attempts, 2 * width,
                                     np.tile(_FRACTION_LOW, width), np.tile(_FRACTION_SPAN, width))
    rows = [scalars.coerce(Fraction(p, q)) for p, q in values.reshape(-1, 2).tolist()]
    return np.array(rows, dtype=object).reshape(len(indices), width), attempts


def random_form_rows(n: int, k: int, seed: int, indices: Iterable[int], scale: float,
                     kind: int, attempt: int = 0) -> np.ndarray:
    """A stack of float (n, k) forms, one per stream (seed, ``kind``, j,
    ``attempt``) of ``indices``, uniform in ±``scale`` and finite."""
    idx = _indices(seed, indices)
    return _uniform_rows(seed, kind, idx, np.full(len(idx), attempt, dtype=np.int64),
                         math.comb(n, k), scale, f"({n},{k}) coefficients")[0]


def random_line_rows(n: int, k: int, seed: int, indices: Iterable[int], scale: float,
                     points: int = 1, backend: str = scalars.FLOAT) -> list[np.ndarray]:
    """Stacks (ξ, α, β, t) of wedge lines ξ + t·(α∧β), one line per index j
    of ``indices``, and ``points`` values of t: ξ from stream ``LINE_BASE``,
    α then β from ``LINE_DIRECTION`` and t from ``LINE_T``.  Float entries
    are uniform in ±``scale`` and finite, and t in ±1; exact entries and t are
    randint(−8, 8)/randint(1, 4), whatever the scale.  A degenerate direction
    α∧β = 0 tells a line test nothing, so its row draws α and β again, at the
    next attempt, up to ``_ATTEMPTS`` pairs in all."""
    idx, exact = _indices(seed, indices), backend == scalars.EXACT
    width, first = math.comb(n, k - 1), np.zeros(len(idx), dtype=np.int64)

    def draw(kind, rows, attempts, count, scale=scale, what=f"({n},{k}) coefficients"):
        if exact:
            return _fraction_rows(seed, kind, idx[rows], attempts, count)
        return _uniform_rows(seed, kind, idx[rows], attempts, count, scale, what)

    xi = draw(LINE_BASE, slice(None), first, math.comb(n, k))[0]
    pairs, attempts = draw(LINE_DIRECTION, slice(None), first, width + n)
    bad = np.arange(len(idx))
    for attempt in range(_ATTEMPTS):
        if attempt:
            pairs[bad], attempts[bad] = draw(LINE_DIRECTION, bad, attempts[bad], width + n)
        with scalars.float_guard("wedge"):
            product = wedge_rows(pairs[bad, :width], pairs[bad, width:], n, k - 1, 1)
        bad = bad[(product == 0).all(axis=1)]
        if not bad.size:
            break
    else:
        raise DomainError(f"no nondegenerate direction for (n={n}, k={k}) at range {scale!r}")
    alpha, beta = np.split(pairs, [width], axis=1)
    t = draw(LINE_T, slice(None), first, points, 1.0, "t")[0]
    return [xi, alpha, beta, scalars.array(t, t.shape, backend, "line parameters")]


def random_rank_one_rows(n: int, k: int, seed: int, indices: Iterable[int],
                         scale: float) -> list[np.ndarray]:
    """Stacks (X, a, b, t) of float rank-one lines X + t·(a⊗b), one per index
    j of ``indices``: X's entries row by row, then a and b, from stream
    ``RANK_ONE``, uniform in ±``scale`` and finite, and t in ±1 from
    ``RANK_ONE_T``."""
    if not 2 <= k <= n:
        raise DomainError(f"shape matrices need 2 ≤ k ≤ n, got k={k}, n={n}")
    idx, width = _indices(seed, indices), math.comb(n, k - 1)
    first = np.zeros(len(idx), dtype=np.int64)
    entries = _uniform_rows(seed, RANK_ONE, idx, first, width * n + width + n, scale,
                            f"(n={n}, k={k}) matrix entries")[0]
    t = _uniform_rows(seed, RANK_ONE_T, idx, first, 1, 1.0, "t")[0]
    return [*np.split(entries, [width * n, width * n + width], axis=1), t]


def random_integer_rows(n: int, k: int, seed: int, indices: Iterable[int],
                        low: int, high: int) -> np.ndarray:
    """A stack of exact (n, k) matrices, one per stream (seed, ``MATRICES``,
    j) of ``indices``: entries in ``low`` … ``high`` by the integer rule, row
    by row, one flat row per matrix, in a read-only array.  When ``low`` and
    ``high`` lie within int64 the array is int64, the form the row kernels
    prove their bounds on; otherwise it holds Python ints as objects."""
    low, high = integer(low, "low bound"), integer(high, "high bound")
    if low > high:
        raise DomainError(f"empty integer range {low}..{high}")
    idx, width = _indices(seed, indices), math.comb(n, k - 1) * n
    values = _integer_rows(seed, MATRICES, idx, np.zeros(len(idx), dtype=np.int64), width,
                           low, high - low + 1)[0]
    fits = -(1 << 63) <= low <= high < 1 << 63
    stack = values.astype(np.int64 if fits else object).reshape(len(idx), width)
    stack.flags.writeable = False
    return stack
