"""Shape matrices and their minor tables.

A shape matrix for degree k on R^n has one row per length-(k−1) multiindex
(alphabetical order) and one column per coordinate direction, stored, like a
minor table, as one read-only numpy array typed by its backend.  Its order-s
minor table collects every s×s minor, with both the row selection and the
column selection taken in increasing order: plain determinants, no cofactor
sign layer — all signs in the wedge-power expansion are carried explicitly by
the interlace sign, keeping a single canonical sign location.  The layout of
those selections is enumerated once per (n, k, s), by ``minor_layout``, and
shared by every minor table, by ``adjugate`` and by the projection's power
maps.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from . import scalars
from .errors import DomainError
from .exterior import KForm, json_fields, ordered_sum
from .multiindex import MultiIndex, enumerate_multiindices, rank


class ShapeMatrix:
    """Dense C(n,k−1) × n matrix over an exact or float backend."""

    __slots__ = ("n", "k", "entries")

    def __init__(self, n: int, k: int, entries: Sequence[Sequence] | None = None,
                 backend: str = scalars.EXACT):
        if not 2 <= k <= n:
            raise DomainError(f"shape matrices need 2 ≤ k ≤ n, got k={k}, n={n}")
        shape = (math.comb(n, k - 1), n)
        self.n = n
        self.k = k
        self.entries = scalars.array(np.zeros(shape, dtype=int) if entries is None else entries,
                                     shape, backend, f"(n={n}, k={k}) matrix entries")

    @property
    def backend(self) -> str:
        return scalars.backend_of(self.entries)

    @property
    def row_labels(self) -> list[MultiIndex]:
        return enumerate_multiindices(self.n, self.k - 1)

    def entry(self, row_label: MultiIndex | Sequence[int], col: int):
        """Entry at a multiindex row and 1-based column."""
        mi = row_label if isinstance(row_label, MultiIndex) \
            else MultiIndex(tuple(row_label), self.n)
        if mi.k != self.k - 1:
            raise DomainError(f"row label length {mi.k} does not match k - 1 = {self.k - 1}")
        if not 1 <= col <= self.n:
            raise DomainError(f"column {col} out of range 1..{self.n}")
        return self.entries.item(rank(mi), col - 1)

    def _apply(self, ufunc, *operands) -> "ShapeMatrix":
        """The matrix whose entries are ``ufunc(self.entries, *operands)``."""
        with scalars.float_guard("matrix arithmetic"):
            return ShapeMatrix(self.n, self.k, ufunc(self.entries, *operands), self.backend)

    def __add__(self, other: "ShapeMatrix") -> "ShapeMatrix":
        self._check_compatible(other)
        return self._apply(np.add, other.entries)

    def __sub__(self, other: "ShapeMatrix") -> "ShapeMatrix":
        self._check_compatible(other)
        return self._apply(np.subtract, other.entries)

    def scale(self, factor) -> "ShapeMatrix":
        return self._apply(np.multiply, scalars.array(factor, (), self.backend, "a scale factor"))

    def _check_compatible(self, other: "ShapeMatrix") -> None:
        if (self.n, self.k, self.backend) != (other.n, other.k, other.backend):
            raise DomainError("mismatched shape matrices")

    def __eq__(self, other) -> bool:
        if not isinstance(other, ShapeMatrix):
            return NotImplemented
        return (self.n, self.k, self.backend) == (other.n, other.k, other.backend) \
            and self.entries.tolist() == other.entries.tolist()

    def __repr__(self) -> str:
        return f"ShapeMatrix(n={self.n}, k={self.k}, backend={self.backend!r}, {self.entries.tolist()!r})"

    def to_json(self) -> dict:
        return {"n": self.n, "k": self.k,
                "rows": [mi.text for mi in self.row_labels],
                "data": [[scalars.scalar_to_json(v, self.backend) for v in row]
                         for row in self.entries.tolist()]}

    @classmethod
    def from_json(cls, obj: Mapping, backend: str | None = None) -> "ShapeMatrix":
        n, k, rows, data = json_fields(obj, ("n", "k", "rows", "data"), "shape matrix")
        if backend is None:
            flat = [v for row in data for v in row]
            backend = scalars.FLOAT if any(isinstance(v, float) for v in flat) else scalars.EXACT
        if rows != [mi.text for mi in enumerate_multiindices(n, k - 1)]:
            raise DomainError("row labels must be the alphabetical (k−1)-multiindices")
        entries = [[scalars.scalar_from_json(v, backend) for v in row] for row in data]
        return cls(n, k, entries, backend)


def tensor(a: KForm, b) -> ShapeMatrix:
    """Outer product of a degree-(k−1) form with a vector: entry (I,i) = a_I·b_i."""
    if isinstance(b, KForm):
        if b.n != a.n or b.backend != a.backend:
            raise DomainError("mismatched tensor factors")
        if b.k != 1:
            raise DomainError(f"second factor must be degree 1, got {b.k}")
        b = b.coeffs
    b = scalars.array(b, (a.n,), a.backend, "vector entries")
    with scalars.float_guard("tensor"):
        return ShapeMatrix(a.n, a.k + 1, np.multiply.outer(a.coeffs, b), a.backend)


@lru_cache(maxsize=None)
def minor_layout(n: int, k: int, s: int) -> tuple[tuple[tuple[int, ...], ...],
                                                 tuple[tuple[int, ...], ...]]:
    """The order-s minor layout (row sets, column sets), built once per (n, k, s).

    Row sets are the s-subsets of the C(n, k−1) row positions, column sets the
    s-subsets of the n column positions, both 0-based and lexicographic.  Cell
    c of a table in this layout is row set c // len(col_sets), column set
    c % len(col_sets).
    """
    nrows = math.comb(n, k - 1)
    if not 1 <= s <= min(n, nrows):
        raise DomainError(f"minor order {s} out of range 1..{min(n, nrows)}")
    return (tuple(itertools.combinations(range(nrows), s)),
            tuple(itertools.combinations(range(n), s)))


class MinorTable:
    """All order-s minors of a shape matrix (or any table in that layout).

    Rows are the row sets and columns the column sets of ``minor_layout``,
    which every table of one (n, k, s) shares.
    """

    __slots__ = ("n", "k", "s", "row_sets", "col_sets", "values")

    def __init__(self, n: int, k: int, s: int, values: Sequence[Sequence],
                 backend: str = scalars.EXACT):
        self.row_sets, self.col_sets = minor_layout(n, k, s)
        self.n, self.k, self.s = n, k, s
        self.values = scalars.array(values, (len(self.row_sets), len(self.col_sets)), backend,
                                    f"order-{s} minors for (n={n}, k={k})")

    @property
    def backend(self) -> str:
        return scalars.backend_of(self.values)

    def value(self, row_set: Sequence[int], col_set: Sequence[int]):
        """Value at 0-based row-position and column-position subsets."""
        try:
            ri, ci = self.row_sets.index(tuple(row_set)), self.col_sets.index(tuple(col_set))
        except ValueError as exc:
            raise DomainError(f"no cell for rows {tuple(row_set)}, cols {tuple(col_set)}") from exc
        return self.values.item(ri, ci)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MinorTable):
            return NotImplemented
        return (self.n, self.k, self.s, self.backend) == (other.n, other.k, other.s, other.backend) \
            and self.values.tolist() == other.values.tolist()

    def to_json(self) -> dict:
        labels = enumerate_multiindices(self.n, self.k - 1)
        return {
            "n": self.n, "k": self.k, "s": self.s,
            "rows": [[labels[i].text for i in rs] for rs in self.row_sets],
            "cols": [[c + 1 for c in cs] for cs in self.col_sets],
            "values": [[scalars.scalar_to_json(v, self.backend) for v in row]
                       for row in self.values.tolist()],
        }


def table_inner(a: MinorTable, b: MinorTable):
    """Entrywise inner product of two tables in the same minor space, summed
    row-major."""
    if (a.n, a.k, a.s) != (b.n, b.k, b.s) or a.backend != b.backend:
        raise DomainError("mismatched minor tables")
    with scalars.float_guard("table inner product"):
        return ordered_sum((a.values * b.values).reshape(1, -1)).item()


def det(rows: Sequence[Sequence]):
    """Determinant of a small square matrix.

    Direct expansion up to 3×3; Bareiss fraction-free elimination above (exact
    division, valid for rational entries; for floats it degrades to ordinary
    elimination with the same pivoting).
    """
    m = len(rows)
    if any(len(r) != m for r in rows):
        raise DomainError("determinant of a non-square matrix")
    if m == 0:
        return 1
    if m == 1:
        return rows[0][0]
    if m == 2:
        (a, b), (c, d) = rows
        return a * d - b * c
    if m == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    return _det_bareiss([list(r) for r in rows])


def _det_bareiss(m: list[list]) -> object:
    size = len(m)
    sign = 1
    prev = 1
    for step in range(size - 1):
        if m[step][step] == 0:
            for r in range(step + 1, size):
                if m[r][step] != 0:
                    m[step], m[r] = m[r], m[step]
                    sign = -sign
                    break
            else:
                return 0 * m[0][0]
        pivot = m[step][step]
        for i in range(step + 1, size):
            row_i = m[i]
            row_k = m[step]
            lead = row_i[step]
            for j in range(step + 1, size):
                num = pivot * row_i[j] - lead * row_k[j]
                row_i[j] = _exact_div(num, prev)
            row_i[step] = 0
        prev = pivot
    return sign * m[-1][-1] if sign > 0 else -m[-1][-1]


def _exact_div(num, den):
    if den == 1:
        return num
    if isinstance(num, int) and isinstance(den, int):
        q, r = divmod(num, den)
        if r:  # Bareiss guarantees divisibility for exact inputs
            raise ArithmeticError("fraction-free elimination produced a non-divisible entry")
        return q
    if isinstance(num, float) or isinstance(den, float):
        return num / den
    return Fraction(num, den) if isinstance(num, int) else num / den


def adjugate(X: ShapeMatrix, s: int) -> MinorTable:
    """The order-s minor table of X; order 1 is X itself."""
    row_sets, col_sets = minor_layout(X.n, X.k, s)
    if s == 1:
        return MinorTable(X.n, X.k, s, X.entries, X.backend)
    entries = X.entries.tolist()
    values = []
    if s == 2:
        for r0, r1 in row_sets:
            top, bot = entries[r0], entries[r1]
            values.append([top[c0] * bot[c1] - top[c1] * bot[c0] for c0, c1 in col_sets])
    else:
        for row_set in row_sets:
            picked = [entries[r] for r in row_set]
            values.append([det([[row[c] for c in col_set] for row in picked])
                           for col_set in col_sets])
    return MinorTable(X.n, X.k, s, values, X.backend)

