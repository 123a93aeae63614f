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
arithmetic.

Every minor is taken by one division-free kernel over a ``MinorPlan``: Laplace
expansion along rows, one level per order j = 2..s in the structure-table
format of ``exterior.sign_table``, each level holding every distinct j×j
sub-minor once, so a sub-minor that many minors expand onto is taken once and
read by all of them.  ``minors_at`` runs a plan on a stack of matrices, a
budgeted gather at a time.  A full layout's plan (``_full_plan``, cached per
shape and order) ranks its children by arithmetic: ``adjugate`` reads it, and
``det_rows`` is the plan of one cell.  ``minor_plan`` builds the plan of any
list of cells by ranking their children and keeping each once; the
projection builds its power maps' plans with it.  When every entry is a
Python int or the stack is int64, and s!·B^s (B the largest entry in size)
bounds every partial sum below ``scalars.INT64_LIMIT``, ``minors_at`` and
``det_rows`` expand in int64, which is still exact integer arithmetic; an
int64 stack past that bound is widened to Python ints first.  A minor
table widens the result back to Python ints as it stores it.  ``adjugate``
refuses, before listing any layout, a table whose cells and sub-minors
together exceed ``ADJUGATE_CELLS``.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Mapping, NamedTuple, Sequence

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
    which every table of one (n, k, s) shares.  ``values`` is the dense,
    read-only table.  ``ranks`` is a sorted, read-only array of flat cell
    ranks (row-set rank·C(n, s) + column-set rank, the order of
    ``values.ravel()`` and of ``projection.minor_power_map``'s cells) that
    holds every nonzero cell, and perhaps some zero ones: every cell outside
    it is zero.  Built from a dense table, ``ranks`` is its nonzero cells, read
    off an int or float array by one vectorised pass and off object values by
    their truth.  Given ``ranks`` (increasing flat ranks), ``values`` holds
    the table's values at those cells alone, and only they are read and
    coerced; every other cell is zero.
    """

    __slots__ = ("n", "k", "s", "row_sets", "col_sets", "values", "ranks")

    def __init__(self, n: int, k: int, s: int, values: Sequence[Sequence],
                 backend: str = scalars.EXACT, ranks: Sequence[int] | None = None):
        n, k, s = integer(n, "dimension"), integer(k, "degree"), integer(s, "minor order")
        self.row_sets, self.col_sets = minor_layout(n, k, s)
        self.n, self.k, self.s = n, k, s
        shape = len(self.row_sets), len(self.col_sets)
        what = f"order-{s} minors for (n={n}, k={k})"
        if ranks is None:
            self.values = scalars.array(values, shape, backend, what)
            # an integer array (such as adjugate's int64 minors) is read
            # before it is widened to objects; a bool mask is the faster pass
            source = values if isinstance(values, np.ndarray) and values.dtype.kind in "iu" \
                else self.values
            ranks = np.flatnonzero(source if source.dtype == object else source != 0)
        else:
            ranks = np.asarray(ranks)
            if ranks.ndim != 1 or len(ranks) and (ranks.dtype.kind not in "iu"
                                                  or (ranks[1:] <= ranks[:-1]).any()
                                                  or not 0 <= ranks[0] < shape[0] * shape[1]
                                                  or ranks[-1] >= shape[0] * shape[1]):
                raise DomainError(f"cell ranks of {what} must increase within the table")
            ranks = ranks.astype(np.intp)    # a copy of the caller's
            live = scalars.array(values, ranks.shape, backend, what)
            self.values = np.zeros(shape, dtype=live.dtype)
            self.values.ravel()[ranks] = live
            self.values.flags.writeable = False
        ranks.flags.writeable = False
        self.ranks = ranks

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

    Only the cells in both tables' ``ranks`` are read, found by searching the
    shorter rank array in the longer one, and no cell value is compared: a
    cell outside either holds a zero, so its product is zero.  Exact values
    of ints and Fractions are paired as integer numerators over one
    denominator each (``scalars.integers``): their products are summed in
    Python ints, and the sum is divided once by both denominators
    (``scalars.over``), so int tables pair to an int.  Polynomials are
    multiplied as they are.
    A float result is bit for bit the sum over every cell: ``ordered_sum``
    starts at +0.0 and adds in rank order, both tables are finite, so a
    skipped product, and a read product with a zero factor, is ±0.0, and
    adding ±0.0 to a running sum never changes it (a running sum is never
    −0.0, since +0.0 + −0.0 and x + −x are +0.0).
    """
    if (a.n, a.k, a.s) != (b.n, b.k, b.s) or a.backend != b.backend:
        raise DomainError("mismatched minor tables")
    short, long = sorted((a.ranks, b.ranks), key=len)
    live = short[long[np.minimum(np.searchsorted(long, short), len(long) - 1)] == short]
    left, right = a.values.take(live), b.values.take(live)
    if a.backend == scalars.EXACT:
        split = scalars.integers(left), scalars.integers(right)
        if None not in split:
            (left, L), (right, R) = split
            return scalars.over(ordered_sum((left * right).reshape(1, -1)), L * R).item()
    with scalars.float_guard("table inner product"):
        return ordered_sum((left * right).reshape(1, -1)).item()


class MinorPlan(NamedTuple):
    """Laplace expansion of a set of order-s minors, every sub-minor taken once.

    Level j's cells are pairs (R, C) of increasing j-sets of row and column
    positions, each held once.  Level 1 is ``first``, the flat entry position
    r·n + c of each 1×1 cell (n the matrix width).  ``levels`` holds levels
    2..s in the structure-table format of ``exterior.sign_table``: slot p of a
    level-j cell names the flat position of the entry (R[0], C[p]) and the
    index of the level-(j−1) cell (R[1:], C∖C[p]), with sign (−1)^p, the order
    in which a determinant expands along its first row.  The last level's
    cells are the minors the plan serves, in the order it was built for.
    Every index array is in the smallest unsigned type that holds it.
    """

    first: np.ndarray
    levels: tuple[tuple[np.ndarray, ...], ...]


def _level(entries: np.ndarray, children: np.ndarray) -> tuple[np.ndarray, ...]:
    """A level of cells × j slots in the format of ``exterior.sign_table``."""
    j = entries.shape[-1]
    return sign_table(entries.reshape(-1, j), children.reshape(-1, j),
                      signs=[(-1) ** p for p in range(j)])


@lru_cache(maxsize=None)
def _full_plan(nrows: int, ncols: int, s: int) -> MinorPlan:
    """The plan of every order-s minor of an nrows × ncols matrix, built once
    per shape and order: cell c is row set c // C(ncols, s) and column set
    c % C(ncols, s), both lexicographic, as in ``minor_layout``.

    Level j holds every j-set of rows from s − j on (the last j rows of some
    s-set) against every j-set of columns, in the same order, so each child
    index is ranked by arithmetic and no level needs a search.
    """
    at = np.min_scalar_type(nrows * ncols)
    first = (np.arange(s - 1, nrows, dtype=at)[:, None] * at.type(ncols)
             + np.arange(ncols, dtype=at)).ravel()
    levels = []
    for j in range(2, s + 1):
        row_sets, col_sets = subsets(nrows - s + j, j), subsets(ncols, j)    # rows less s − j
        below = math.comb(ncols, j - 1)
        to = np.min_scalar_type(math.comb(nrows - s + j - 1, j - 1) * below)
        entries = ((row_sets[:, 0] + s - j) * ncols).astype(at)[:, None, None] + col_sets.astype(at)
        # R[1:] less s − j + 1 among level j − 1's row sets, C∖C[p] among its
        # column sets: the slots other than p are the (j−1)-sets of range(j)
        # in reverse lex order
        children = (subset_ranks(row_sets[:, 1:] - 1, nrows - s + j - 1) * below) \
            .astype(to)[:, None, None] \
            + subset_ranks(col_sets[:, subsets(j, j - 1)[::-1]], ncols).astype(to)
        levels.append(_level(entries, children))
    first.flags.writeable = False
    return MinorPlan(first, tuple(levels))


def minor_plan(rows: np.ndarray, cols: np.ndarray, shape: tuple[int, int]) -> MinorPlan:
    """The plan of the minors on cells (rows[i], cols[i]) of a ``shape`` matrix,
    each cell given by its s increasing row and column positions (cells × s).

    The cells are the last level, in their order.  Below it, each level's
    sub-minors are found by ranking every child (row-set rank × C(n, j−1) +
    column-set rank), ``_GATHER_BUDGET`` ranks at a time, and keeping each
    rank once, in the order first met.
    """
    nrows, ncols = shape
    at = np.min_scalar_type(nrows * ncols)
    levels = []
    for j in range(rows.shape[-1], 1, -1):
        others, width = subsets(j, j - 1)[::-1], math.comb(ncols, j - 1)    # others[p]: not p
        index: dict[int, int] = {}    # child rank -> its cell on the level below
        children = np.empty((len(rows), j), dtype=np.min_scalar_type(len(rows) * j))
        chunks = [slice(start, start + _GATHER_BUDGET // j)
                  for start in range(0, len(rows), _GATHER_BUDGET // j)]
        for part in chunks:
            ranks = subset_ranks(rows[part, 1:], nrows)[:, None] * width \
                + subset_ranks(cols[part][:, others], ncols)
            children[part] = np.reshape([index.setdefault(rank, len(index))
                                         for rank in ranks.ravel().tolist()], ranks.shape)
        where = np.empty(len(index), dtype=np.intp)    # some slot that names each child
        for part in chunks:
            where[children[part].ravel()] = np.arange(part.start * j, part.start * j
                                                      + children[part].size)
        levels.append(_level(rows[:, :1].astype(at) * at.type(ncols) + cols.astype(at),
                             children.astype(np.min_scalar_type(len(index)), copy=False)))
        cell, slot = where // j, where % j
        rows, cols = rows[cell, 1:], cols[cell[:, None], others[slot]]
    first = rows[:, 0].astype(at) * at.type(ncols) + cols[:, 0].astype(at)
    first.flags.writeable = False
    return MinorPlan(first, tuple(reversed(levels)))


def _expand(plan: MinorPlan, flat: np.ndarray) -> np.ndarray:
    """The minors a plan names, (m, cells), of a stack of flat matrix entries,
    (m, R·n), in its dtype.

    Level by level from level 1, every cell is expanded along its first row
    over the cells of the level below, with no pivot and no division, so exact
    input gives exact output; a float minor sums its slots left to right from
    0.0, whatever batch it sits in.  Each level gathers at most
    ``_GATHER_BUDGET`` entries at once over matrices × cells × slots (or one
    cell of one matrix, when it holds more).  An int64 stack is exact when
    s!·B^s fits, B its largest entry in size: that bounds every partial sum at
    every level j (by j!·B^j).
    """
    values = flat[:, plan.first]
    if not plan.levels and flat.dtype.kind == "f":
        return values + 0.0    # the loop's step from 0.0: a 1×1 minor of −0.0 is +0.0
    for entries, children, *signs in plan.levels:
        slots = entries.shape[1]
        out = np.empty((len(flat), len(entries)), dtype=flat.dtype)
        matrices = min(len(flat), max(1, _GATHER_BUDGET // (slots * len(entries) or 1))) or 1
        step = max(1, _GATHER_BUDGET // (slots * matrices))
        for start in range(0, len(flat), matrices):
            at = slice(start, start + matrices)
            here, below = flat[at], values[at]
            for cell in range(0, len(entries), step):
                e, c = entries[cell:cell + step], children[cell:cell + step]
                out[at, cell:cell + step] = signed_sum(
                    lambda q: here[:, e[:, q]] * below[:, c[:, q]], flat.dtype, *signs)
        values = out
    return values


def minors_at(entries: np.ndarray, plan: MinorPlan) -> np.ndarray:
    """The minors a plan names of each matrix of a stack, (…, R, n) entries:
    (…, cells).

    When every entry of the whole stack is a Python int, or the stack is
    int64, and their minors provably fit (s!·B^s below
    ``scalars.INT64_LIMIT``), the stack is expanded in int64, and so are the
    minors returned; an int64 stack past the bound is expanded in Python
    ints, and any other entries keep their dtype.
    """
    entries = _proved(entries, len(plan.levels) + 1)
    flat = entries.reshape(-1, entries.shape[-2] * entries.shape[-1])
    return _expand(plan, flat).reshape(*entries.shape[:-2], -1)


def _proved(entries: np.ndarray, s: int) -> np.ndarray:
    """A stack whose order-s minors ``_expand`` takes exactly: in int64 under
    the bound s!·B^s (``scalars.proved``), floats and other objects as they are."""
    return scalars.proved(entries, lambda B: math.factorial(s) * B ** s)


def det_rows(M: np.ndarray) -> np.ndarray:
    """Determinants of an (…, s, s) stack, float64, int64 or object (ints,
    Fractions), in the stack's dtype: the plan of the one order-s minor,
    s·2^(s−1) products per determinant.  An int64 stack past s!·B^s is taken
    in Python ints, and its determinants are objects."""
    if M.ndim < 2 or M.shape[-2] != M.shape[-1]:
        raise DomainError("determinant of a non-square matrix")
    s = M.shape[-1]
    if not s:
        return np.ones(M.shape[:-2], dtype=M.dtype)
    if M.dtype == np.int64:
        M = _proved(M, s)
    return _expand(_full_plan(s, s, s), M.reshape(-1, s * s)).reshape(M.shape[:-2])


# the most cells adjugate takes, over a table and the sub-minors of its plan:
# above it a table is refused before any is listed
ADJUGATE_CELLS = 1 << 20


def adjugate(X: ShapeMatrix, s: int) -> MinorTable:
    """The order-s minor table of X; order 1 is X itself."""
    s = integer(s, "minor order")
    nrows = math.comb(X.n, X.k - 1)
    if 1 <= s <= min(X.n, nrows):
        cells = sum(math.comb(nrows - s + j, j) * math.comb(X.n, j) for j in range(1, s + 1))
        if cells > ADJUGATE_CELLS:
            raise DomainError(f"order-{s} minors of an (n={X.n}, k={X.k}) matrix take {cells} "
                              f"cells, more than {ADJUGATE_CELLS}")
    rows, cols = minor_layout(X.n, X.k, s)
    with scalars.float_guard("minors"):
        minors = minors_at(X.entries, _full_plan(nrows, X.n, s))
        return MinorTable(X.n, X.k, s, minors.reshape(len(rows), len(cols)), X.backend)
