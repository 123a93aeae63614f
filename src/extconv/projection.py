"""The projection from shape matrices to forms and its wedge-power machinery.

``project`` sends a shape matrix to the form obtained by wedging each column
(read as a (k−1)-form) with its coordinate direction on the right.  It sends
outer products to wedge products and gradients to exterior derivatives, and it
is onto, with ``right_inverse`` as a sign-free section.  Its coefficient rule
is one cached table per (n, k), which ``project_rows`` sums for ``project``
and ``polyform.project_polynomial`` and whose last slots ``right_inverse_rows``
fills; the order-1 power map reaches the same map by its own route.

For even k the s-th wedge power of a projected matrix is a signed sum of
order-s minors.  ``minor_power_map`` applies one pattern per (k, s), the
block partitions and interlace signs of the positions 0..ks−1, walked as
plain tuples with no multiindex built, to every degree-k·s target, and
ranks the cells it names in the order of ``shapespace.minor_layout`` by
arithmetic, without listing that layout.  It stores only those cells, with
no dense view.  ``MinorPowerMap.apply`` reads them from a
minor table.  ``wedge_power_from_minors_rows`` takes them for a stack of
matrices by the map's minor plan (``map_plan``, built once per (n, k, s) from
the row and column positions the map stores, each sub-minor below the cells
taken once) through ``shapespace.minors_at``, and returns zero at once for
odd k or s > n/k; ``wedge_power_from_minors`` is that kernel on a stack of
one.  On a stack of Python ints or of int64 it keeps the minors in int64
through the map's signed sum when s!·(slots per target)·s!·B^s fits (B the
largest entry of the whole stack in size), and widens them to Python ints
before the sum otherwise.  The direct route
``wedge_power_rows(project_rows(X))`` proves bounds of its own on an int64
stack: k·B for the projection, then one per wedge step (see ``exterior``).
The two routes never share a bound, so a skipped bound on either one wraps
that route alone, and the residual between them shows it.
``pullback_support`` is the map's transpose, built on arrays by its own
enumeration (membership masks over ``minor_layout``) and its own signs (the
inversion parity of each appended string), so that the adjointness check
keeps an independent route; it hands each table only the live cells its
masks find, with their ranks.  Exact images of ints and Fractions are summed
as integer numerators over one denominator (``scalars.integers``).  Every
table here is in ``exterior.sign_table``'s format and summed by
``exterior.signed_sum``.

All interlace signs here use the append convention (index written after its
block); see the multiindex module for why the expansion needs that variant.
"""

from __future__ import annotations

import math
from functools import lru_cache, wraps
from typing import NamedTuple, Sequence

import numpy as np

from . import scalars
from .errors import DomainError
from .exterior import _GATHER_BUDGET, KForm, sign_table, signed_sum, subset_ranks, subsets
from .multiindex import block_partitions, enumerate_multiindices, integer, sign_interlace_append
from .shapespace import MinorPlan, MinorTable, ShapeMatrix, minor_layout, minor_plan, minors_at


@lru_cache(maxsize=None)
def _projection_table(n: int, k: int) -> tuple[np.ndarray, ...]:
    """The projection coefficient rule, the only place it is written down.

    For each degree-k target K, in rank order, its k slots (K∖K_p, K_p) for
    p = 1..k: ``cells`` holds the flat entry r·n + c of row r = the rank of K∖K_p
    and column c = K_p − 1, and the sign row the append sign (−1)^(k−p),
    which depends on p alone; the last slot's sign is +1.
    """
    row_rank = {mi: r for r, mi in enumerate(enumerate_multiindices(n, k - 1))}
    cells = np.array([[row_rank[K[:p] + K[p + 1:]] * n + K[p] - 1 for p in range(k)]
                      for K in enumerate_multiindices(n, k)],
                     dtype=np.intp)
    return sign_table(cells, signs=[(-1) ** (k - 1 - p) for p in range(k)])


def project_rows(X: np.ndarray, n: int, k: int) -> np.ndarray:
    """``project`` of each row of a flat (m × C(n,k−1)·n) stack of matrix entries.

    The stack's dtype is the scalar type, which the result keeps: float64,
    object (ints, Fractions or polynomials), summed exactly, or int64, which
    stays int64 when k·B fits below ``scalars.INT64_LIMIT`` (B the largest
    entry in size; each coefficient sums k signed entries) and is widened to
    Python ints otherwise.  A float row sums its slots left to right,
    whatever batch it sits in.
    """
    cells, *signs = _projection_table(n, k)
    if X.dtype == np.int64:
        X = scalars.proved(X, lambda B: k * B)
    return signed_sum(lambda q: X[:, cells[:, q]], X.dtype, *signs)


def project(X: ShapeMatrix) -> KForm:
    """Project a shape matrix to its degree-k form.

    Coefficient of e^K is Σ_p (−1)^(k−p) · X[K∖K_p, K_p]; for k = 2 this is
    the antisymmetrization X − Xᵀ read into coefficients.
    """
    with scalars.float_guard("projection"):
        row = project_rows(X.entries.reshape(1, -1), X.n, X.k)[0]
    return KForm(X.n, X.k, row, X.backend)


def right_inverse_rows(x: np.ndarray, n: int, k: int) -> np.ndarray:
    """``right_inverse`` of each row of a coefficient stack, as flat matrix entries
    in its dtype: each coefficient is parked in its target's last slot
    (K∖max K, max K), whose sign is +1, so the construction is sign-free."""
    if not 2 <= k <= n:
        raise DomainError(f"right inverse needs 2 ≤ k ≤ n, got k={k}, n={n}")
    entries = np.zeros((x.shape[0], math.comb(n, k - 1) * n), dtype=x.dtype)
    entries[:, _projection_table(n, k)[0][:, -1]] = x
    return entries


def right_inverse(x: KForm) -> ShapeMatrix:
    """A section of the projection: project(right_inverse(x)) == x exactly."""
    entries = right_inverse_rows(x.coeffs[None], x.n, x.k)
    return ShapeMatrix(x.n, x.k, entries.reshape(-1, x.n), x.backend)


class MinorPowerMap(NamedTuple):
    """Linear map from order-s minor space to degree-k·s forms, stored sparsely.

    Rows follow the degree-k·s basis, columns the cells of
    ``minor_layout(n, k, s)``; row t of ``cells`` lists the cells target t
    reads, one per block partition, each with coefficient s!·sign.  ``rows``
    and ``cols`` hold each cell's s row and column positions (targets × slots
    × s).
    """

    n: int
    k: int
    s: int
    cells: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    signs: np.ndarray
    plus: np.ndarray
    minus: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.cells), \
            math.comb(math.comb(self.n, self.k - 1), self.s) * math.comb(self.n, self.s)

    def apply(self, table: MinorTable) -> KForm:
        """The image of a minor table in this map's space.

        The minors at ``cells`` are gathered from the table's dense values and
        summed by ``_image``: ints and Fractions as integer numerators over
        one denominator, divided once per target, so an int table gives ints
        and no gcd is taken on each add.
        """
        if (table.n, table.k, table.s) != (self.n, self.k, self.s):
            raise DomainError(f"table space ({table.n},{table.k},{table.s}) does not match "
                              f"map space ({self.n},{self.k},{self.s})")
        row = self._image(table.values.ravel()[self.cells])
        return KForm(self.n, self.k * self.s, row, table.backend)

    def _image(self, minors: np.ndarray) -> np.ndarray:
        """s! · Σ sign·minor along each target's slots of the minors read at
        ``cells``, for a stack (…, targets, slots) of them, in their dtype.

        Object minors of ints and Fractions are summed as integer numerators
        in Python ints over one denominator L (``scalars.integers``), and
        each sum is divided by L once (``scalars.over``); polynomials are
        summed as they are.
        """
        factor = math.factorial(self.s)
        split = scalars.integers(minors) if minors.dtype == object else None
        if split is not None:
            numerators, L = split
            return scalars.over(factor * signed_sum(lambda q: numerators[..., q], minors.dtype,
                                                    self.signs, self.plus, self.minus), L)
        with scalars.float_guard("minor expansion"):
            return factor * signed_sum(lambda q: minors[..., q], minors.dtype,
                                       self.signs, self.plus, self.minus)


def _cached_on_integers(build):
    """``build`` cached per (n, k, s), each read by the integer rule before the
    lookup: True == 1 and hashes alike, so a bool would find 1's entry.
    ``__wrapped__`` is ``build`` itself, uncached."""
    cached = lru_cache(maxsize=None)(build)

    @wraps(build)
    def checked(n: int, k: int, s: int):
        return cached(integer(n, "dimension"), integer(k, "degree"), integer(s, "minor order"))

    return checked


@_cached_on_integers
def minor_power_map(n: int, k: int, s: int) -> MinorPowerMap:
    """The order-s power map, built once per (n, k, s); order 1 is the projection.

    A block partition of the positions 0..ks−1, read on a target K, names the
    cell (row set of its blocks' label ranks, column set of its subscripts).
    """
    nrows = math.comb(n, k - 1)
    if not 1 <= s <= min(n, nrows):
        raise DomainError(f"minor order {s} out of range 1..{min(n, nrows)}")
    ks = k * s
    parts = [] if ks > n or (s >= 2 and k % 2 == 1) else block_partitions(range(ks), s, k)
    subscripts, blocks, signs = [], [], []
    for J, part_blocks in parts:
        subscripts.append(J)
        blocks.append(part_blocks)
        signs.append(sign_interlace_append(J, part_blocks))
    subscripts = np.array(subscripts, dtype=np.intp).reshape(len(signs), s)
    blocks = np.array(blocks, dtype=np.intp).reshape(len(signs), s, k - 1)
    targets = subsets(n, ks)
    # in the smallest unsigned type that holds every position, the stored
    # positions take less memory than the cells they decode
    rows, cols = np.empty((2, len(targets), *subscripts.shape), np.min_scalar_type(max(n, nrows)))
    cells = np.empty((len(targets), len(signs)), dtype=np.intp)
    step = max(1, _GATHER_BUDGET // (blocks.size or 1))
    for at in (slice(start, start + step) for start in range(0, len(targets), step)):
        # each target's label ranks, s per partition; blocks come in alphabetical
        # order, so a partition's label ranks increase and form its row set
        rows[at], cols[at] = subset_ranks(targets[at][:, blocks], n), targets[at][:, subscripts]
        cells[at] = subset_ranks(rows[at], nrows) * math.comb(n, s) + subset_ranks(cols[at], n)
    return MinorPowerMap(n, k, s, *sign_table(cells, rows, cols, signs=signs))


@_cached_on_integers
def map_plan(n: int, k: int, s: int) -> MinorPlan:
    """The minor plan of the order-s power map's cells, built once per (n, k, s)
    from the row and column positions the map stores, targets × slots in
    order (the map looked up by name in this module)."""
    power_map = minor_power_map(n, k, s)
    return minor_plan(power_map.rows.reshape(-1, s), power_map.cols.reshape(-1, s),
                      (math.comb(n, k - 1), n))


def wedge_power_from_minors_rows(X: np.ndarray, n: int, k: int, s: int) -> np.ndarray:
    """``wedge_power_from_minors`` of each row of a flat (m × C(n,k−1)·n) stack
    of matrix entries: row i of the result is the s-th wedge power of
    project(X[i]), in the stack's dtype (float64, or object summed exactly).

    The cached power map (looked up by name in this module on every call)
    names the submatrices whose determinants it reads, each once (a cell fixes
    its target, so no minor recurs); ``minors_at`` takes them for the whole
    stack by the map's cached plan (``map_plan``), which takes each of their
    sub-minors once, instead of building any minor table.  Zero
    without building the map when k is odd or s exceeds n/k.  When every
    entry of the stack is a Python int, or the stack is int64, and
    s!·(slots per target)·s!·B^s fits (B the largest entry in size), the
    minors stay in int64 through the map's signed sum and the s!; an object
    stack's result is then widened to Python ints, and an int64 stack's stays
    int64.  Otherwise int64 minors are widened before the sum, and the result
    is objects.  This bound is the minor route's own: the direct route
    ``wedge_power_rows(project_rows(X))`` proves its bounds step by step in
    ``exterior``, so a skipped bound on one route shows as a nonzero
    residual against the other.
    """
    s = integer(s, "power order")
    limit = min(n, math.comb(n, k - 1))
    if not 2 <= s <= limit:
        raise DomainError(f"power order {s} out of range 2..{limit}")
    if k % 2 == 1 or s > n // k:
        return np.zeros((len(X), math.comb(n, k * s)), dtype=X.dtype)
    power_map = minor_power_map(n, k, s)
    stack = X.reshape(len(X), math.comb(n, k - 1), n)
    factor, slots = math.factorial(s), power_map.cells.shape[1]
    narrowed = scalars.narrow(stack, lambda B: factor * slots * factor * B ** s)
    with scalars.float_guard("minors"):
        minors = minors_at(stack if narrowed is None else narrowed, map_plan(n, k, s))
    if narrowed is None and minors.dtype == np.int64:
        minors = minors.astype(object)
    image = power_map._image(minors.reshape(len(X), *power_map.cells.shape))
    return image.astype(object) if X.dtype == object and narrowed is not None else image


def wedge_power_from_minors(X: ShapeMatrix, s: int) -> KForm:
    """Evaluate the s-th wedge power of project(X) from its order-s minors,
    by ``wedge_power_from_minors_rows`` on a stack of one."""
    row = wedge_power_from_minors_rows(X.entries.reshape(1, -1), X.n, X.k, s)[0]
    return KForm(X.n, X.k * s, row, X.backend)


def pullback_support(forms: Sequence[KForm]) -> list[MinorTable]:
    """Transpose of the power maps: forms D_s ↦ minor-space tables d_s.

    Input holds D_s of degree k·s for s = 1..n//k (k read off the first form).
    Each output table pairs with every minor table M exactly as D_s pairs with
    the power map's image of M; on a live cell, whose s row labels I^1..I^s
    and columns j_1..j_s are pairwise disjoint, the entry is
    s!·sign·(D_s coefficient at their union), and every other cell is zero.
    The sign is the append convention's, the parity of the inversions of
    (I^1, j_1, ..., I^s, j_s), counted on arrays here rather than by
    ``sign_interlace_append``, so the adjointness check compares two sign
    computations.  For odd k and s ≥ 2 the table is zero, as ξ^s is.
    Each table is handed its live cells alone, with their ranks (the cells
    the masks find, in row-major order): only those values are coerced, and
    every other cell of the dense table is zero.
    """
    if not forms:
        raise DomainError("need at least one support form")
    n, k, backend = forms[0].n, forms[0].k, forms[0].backend
    if not 2 <= k <= n:
        raise DomainError(f"support pullback needs 2 ≤ k ≤ n, got k={k}, n={n}")
    if len(forms) != n // k:
        raise DomainError(f"expected {n // k} support forms for (n={n}, k={k}), got {len(forms)}")
    for s, form in enumerate(forms, start=1):
        if form.n != n or form.backend != backend:
            raise DomainError("support forms disagree on dimension or backend")
        if form.k != k * s:
            raise DomainError(f"form {s} has degree {form.k}, expected {k * s}")
    labels = subsets(n, k - 1)
    out = []
    for s, form in enumerate(forms, start=1):
        row_sets, col_sets = minor_layout(n, k, s)
        ranks, values = np.empty(0, dtype=np.intp), form.coeffs[:0]
        if s == 1 or k % 2 == 0:
            blocks = labels[row_sets]    # rows × s × (k−1) members
            # mark each row set's members; a member marked twice kills the row
            taken = np.zeros((len(row_sets), n), dtype=bool)
            disjoint = np.ones(len(row_sets), dtype=bool)
            at = np.arange(len(row_sets))
            for members in blocks.reshape(len(row_sets), -1).T:
                disjoint &= ~taken[at, members]
                taken[at, members] = True
            # a live cell's columns miss its rows' members
            r, c = np.nonzero(disjoint[:, None] & ~taken[:, col_sets].any(axis=-1))
            # its appended string (I^1, j_1, ..., I^s, j_s), signed by the
            # parity of its out-of-order pairs
            string = np.concatenate([blocks[r], col_sets[c][..., None]], axis=-1) \
                .reshape(len(r), k * s)
            pairs = np.triu(np.ones((k * s, k * s), dtype=bool), 1)
            odd = ((string[:, :, None] > string[:, None, :]) & pairs).sum(axis=(1, 2)) % 2 == 1
            # each coefficient scaled by s! and negated once, then gathered
            scaled = math.factorial(s) * form.coeffs
            values = np.concatenate([scaled, -scaled])[
                subset_ranks(np.sort(string, axis=1), n) + odd * len(scaled)]
            ranks = r * len(col_sets) + c    # increasing: np.nonzero runs row-major
        out.append(MinorTable(n, k, s, values, backend, ranks))
    return out
