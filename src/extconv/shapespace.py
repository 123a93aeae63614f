"""Shape matrices and their minor tables.

A shape matrix for degree k on R^n has one row per length-(k−1) multiindex
(alphabetical order) and one column per coordinate direction, stored, like a
minor table, as one read-only numpy array typed by its backend; its row labels
are read by ``multiindex.key_rank`` and written by ``multiindex.labels``.  Its
order-s minor table collects every s×s minor, with both the row selection and
the column selection taken in increasing order: plain determinants, no cofactor
sign layer — all signs in the wedge-power expansion are carried explicitly by
the interlace sign, keeping a single canonical sign location.  ``minor_layout``
lists those selections once per (n, k, s) for every minor table and
``adjugate``; the projection's power maps rank their cells in its order by
arithmetic.  Every minor is taken by one batched, division-free kernel,
``det_rows``: Laplace expansion along rows over shared sub-minors, one
``_laplace_table`` per order in the structure-table format of
``exterior.sign_table``, fed by ``minors_at`` in chunks.  When every entry is
a Python int and s!·B^s (B the largest entry in size) bounds every partial
sum below ``scalars.INT64_LIMIT``, ``minors_at`` expands in int64, which is
still exact integer arithmetic; a minor table widens the result back to
Python ints as it stores it.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from . import scalars
from .errors import DomainError
from .exterior import (_GATHER_BUDGET, KForm, json_fields, ordered_sum, sign_table, signed_sum,
                       subset_ranks, subsets)
from .multiindex import integer, key_rank, labels


class ShapeMatrix:
    """Dense C(n,k−1) × n matrix over an exact or float backend."""

    __slots__ = ("n", "k", "entries")

    def __init__(self, n: int, k: int, entries: Sequence[Sequence] | None = None,
                 backend: str = scalars.EXACT):
        n, k = integer(n, "dimension"), integer(k, "degree")
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

    def entry(self, row_label: Sequence[int] | str, col: int):
        """Entry at a row label (read by ``multiindex.key_rank``) and 1-based column."""
        row = key_rank(row_label, self.n, self.k - 1, "row label")
        col = integer(col, "column")
        if not 1 <= col <= self.n:
            raise DomainError(f"column {col} out of range 1..{self.n}")
        return self.entries.item(row, col - 1)

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
                "rows": labels(self.n, self.k - 1),
                "data": [[scalars.scalar_to_json(v, self.backend) for v in row]
                         for row in self.entries.tolist()]}

    @classmethod
    def from_json(cls, obj: Mapping, backend: str | None = None) -> "ShapeMatrix":
        n, k, rows, data = json_fields(obj, ("n", "k", "rows", "data"), "shape matrix")
        if backend is None:
            flat = [v for row in data for v in row]
            backend = scalars.FLOAT if any(isinstance(v, float) for v in flat) else scalars.EXACT
        if rows != labels(n, k - 1):
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
def minor_layout(n: int, k: int, s: int) -> tuple[np.ndarray, np.ndarray]:
    """The order-s minor layout (row sets, column sets), built once per (n, k, s).

    Row sets are the s-subsets of the C(n, k−1) row positions, column sets the
    s-subsets of the n column positions, both 0-based and lexicographic, one
    per row of a read-only array.  Cell c of a table in this layout is row set
    c // len(col_sets), column set c % len(col_sets).  Like a shape matrix,
    the layout needs 2 ≤ k ≤ n.
    """
    n, k, s = integer(n, "dimension"), integer(k, "degree"), integer(s, "minor order")
    if not 2 <= k <= n:
        raise DomainError(f"minor tables need 2 ≤ k ≤ n, got k={k}, n={n}")
    nrows = math.comb(n, k - 1)
    if not 1 <= s <= min(n, nrows):
        raise DomainError(f"minor order {s} out of range 1..{min(n, nrows)}")
    return subsets(nrows, s), subsets(n, s)


class MinorTable:
    """All order-s minors of a shape matrix (or any table in that layout).

    Rows are the row sets and columns the column sets of ``minor_layout``,
    which every table of one (n, k, s) shares.
    """

    __slots__ = ("n", "k", "s", "row_sets", "col_sets", "values")

    def __init__(self, n: int, k: int, s: int, values: Sequence[Sequence],
                 backend: str = scalars.EXACT):
        n, k, s = integer(n, "dimension"), integer(k, "degree"), integer(s, "minor order")
        self.row_sets, self.col_sets = minor_layout(n, k, s)
        self.n, self.k, self.s = n, k, s
        self.values = scalars.array(values, (len(self.row_sets), len(self.col_sets)), backend,
                                    f"order-{s} minors for (n={n}, k={k})")

    @property
    def backend(self) -> str:
        return scalars.backend_of(self.values)

    def value(self, row_set: Sequence[int], col_set: Sequence[int]):
        """Value at the increasing 0-based row and column positions, ranked by arithmetic."""
        sets = np.asarray(row_set), np.asarray(col_set)
        sizes = math.comb(self.n, self.k - 1), self.n
        if not all(p.shape == (self.s,) and p.dtype.kind in "iu" and 0 <= p[0] and p[-1] < size
                   and (p[:-1] < p[1:]).all() for p, size in zip(sets, sizes)):
            raise DomainError(f"no cell for rows {tuple(row_set)}, cols {tuple(col_set)}")
        return self.values.item(*map(subset_ranks, sets, sizes))

    def __eq__(self, other) -> bool:
        if not isinstance(other, MinorTable):
            return NotImplemented
        return (self.n, self.k, self.s, self.backend) == (other.n, other.k, other.s, other.backend) \
            and self.values.tolist() == other.values.tolist()

    def to_json(self) -> dict:
        row_labels = labels(self.n, self.k - 1)
        return {
            "n": self.n, "k": self.k, "s": self.s,
            "rows": [[row_labels[i] for i in rs] for rs in self.row_sets.tolist()],
            "cols": [[c + 1 for c in cs] for cs in self.col_sets.tolist()],
            "values": [[scalars.scalar_to_json(v, self.backend) for v in row]
                       for row in self.values.tolist()],
        }


def table_inner(a: MinorTable, b: MinorTable):
    """Entrywise inner product of two tables in the same minor space, summed
    row-major.

    Only the live cells, nonzero in both tables, are multiplied and summed:
    a skipped product is zero, so an exact result is equal.  A float result
    is bit for bit the sum over every cell: ``ordered_sum`` starts at +0.0,
    both tables are finite, so a skipped product is ±0.0, and adding ±0.0
    to a running sum never changes it (a running sum is never −0.0, since
    +0.0 + −0.0 and x + −x are +0.0).
    """
    if (a.n, a.k, a.s) != (b.n, b.k, b.s) or a.backend != b.backend:
        raise DomainError("mismatched minor tables")
    live = np.flatnonzero((a.values != 0) & (b.values != 0))
    with scalars.float_guard("table inner product"):
        return ordered_sum((a.values.flat[live] * b.values.flat[live]).reshape(1, -1)).item()


@lru_cache(maxsize=None)
def _laplace_table(s: int, j: int) -> tuple[np.ndarray, ...]:
    """Laplace expansion of the order-j minors on the last j of s rows by their
    first row: for each j-subset C of the s columns, in lex order, its j slots
    p give the column C[p] and the rank of C∖C[p] among the (j−1)-subsets, with
    sign (−1)^p."""
    below = {C: r for r, C in enumerate(itertools.combinations(range(s), j - 1))}
    col_sets = list(itertools.combinations(range(s), j))
    cols = np.array(col_sets, dtype=np.intp).reshape(len(col_sets), j)
    subs = np.array([[below[C[:p] + C[p + 1:]] for p in range(j)] for C in col_sets],
                    dtype=np.intp).reshape(len(col_sets), j)
    return sign_table(cols, subs, signs=[(-1) ** p for p in range(j)])


def det_rows(M: np.ndarray) -> np.ndarray:
    """Determinants of an (…, s, s) stack, float64, int64 or object (ints,
    Fractions), in the stack's dtype.

    Row by row from the bottom, every minor on the last j rows is expanded
    along its first row over the minors on the last j − 1, which all of them
    share: s·2^(s−1) products per determinant, with no pivot and no division,
    so exact input gives exact output.  A float determinant sums its slots
    left to right, whatever batch it sits in.  An int64 stack is exact when
    s!·B^s fits, B its largest entry in size, since that bounds every partial
    sum at every level j (by j!·B^j); ``minors_at`` narrows to int64 only then.
    """
    if M.ndim < 2 or M.shape[-2] != M.shape[-1]:
        raise DomainError("determinant of a non-square matrix")
    s = M.shape[-1]
    acc = np.ones(M.shape[:-2] + (1,), dtype=M.dtype)
    for j in range(1, s + 1):
        cols, subs, *signs = _laplace_table(s, j)
        acc = signed_sum(lambda q: M[..., s - j, cols[:, q]] * acc[..., subs[:, q]], M.dtype,
                         *signs)
    return acc[..., 0]


def minors_at(entries: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The minors of a stack of matrices' entries, (…, R, n), on the row and
    column positions of ``rows`` and ``cols``, which broadcast to (I, …, s):
    for each matrix of the stack, the (I, …) minors, gathered and expanded
    ``_GATHER_BUDGET`` entries a chunk over the matrices and the first axis of
    the positions (or one item of that axis, when it holds more).

    When every entry of the whole stack is a Python int and their minors
    provably fit (s!·B^s below ``scalars.INT64_LIMIT``), the stack is
    expanded in int64, and so are the minors returned; any other entries keep
    their dtype.
    """
    rows, cols = np.broadcast_arrays(rows, cols)
    s = rows.shape[-1]
    if entries.dtype == object:
        narrowed = scalars.narrow(entries, lambda B: math.factorial(s) * B ** s)
        entries = entries if narrowed is None else narrowed
    stack = entries.reshape(-1, *entries.shape[-2:])
    per_item = math.prod(rows.shape[1:]) * s or 1
    # as many matrices as the budget holds at one item each, then as many items
    matrices = min(len(stack), max(1, _GATHER_BUDGET // per_item)) or 1
    step = max(1, _GATHER_BUDGET // (per_item * matrices))
    out = np.empty((len(stack), *rows.shape[:-1]), dtype=entries.dtype)
    for first in range(0, len(stack), matrices):
        at = slice(first, first + matrices)
        for start in range(0, len(rows), step):
            r, c = rows[start:start + step], cols[start:start + step]
            out[at, start:start + step] = det_rows(stack[at, r[..., :, None], c[..., None, :]])
    return out.reshape(*entries.shape[:-2], *rows.shape[:-1])


def adjugate(X: ShapeMatrix, s: int) -> MinorTable:
    """The order-s minor table of X; order 1 is X itself."""
    rows, cols = minor_layout(X.n, X.k, s)
    with scalars.float_guard("minors"):
        return MinorTable(X.n, X.k, s, minors_at(X.entries, rows[:, None], cols[None]), X.backend)
