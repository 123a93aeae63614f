"""The projection from shape matrices to forms and its wedge-power machinery.

``project`` sends a shape matrix to the form obtained by wedging each column
(read as a (k−1)-form) with its coordinate direction on the right.  It sends
outer products to wedge products and gradients to exterior derivatives, and it
is onto, with ``right_inverse`` as a sign-free section.  Its coefficient rule
is one cached table per (n, k), and one kernel sums it: ``project_rows``,
typed by its stack's dtype (float64, or object holding ints, Fractions or
polynomials).  ``project`` and ``polyform.project_polynomial`` run it on one
row, and ``right_inverse`` reads the table's last slots.  The order-1 power
map reaches the same map by its own route.

For even k the s-th wedge power of a projected matrix is a signed sum of
order-s minors.  The block partitions and interlace signs of that sum are
enumerated once per (n, k, s) into one cached sparse linear map,
``minor_power_map``: for each degree-k·s target, a flat run of (minor cell,
sign) pairs in the shared minor-table layout (``shapespace.minor_layout``).
``MinorPowerMap.apply`` and ``wedge_power_from_minors`` walk it the same way,
the first reading a minor table, the second taking each minor it names as a
determinant on demand; and ``pullback_support`` is the map's transpose, built
by its own enumeration so that the adjointness check keeps an independent
route.  For odd k (any power ≥ 2) and for powers beyond n/k the maps are
identically zero and the fast paths return zero without touching minors.

All interlace signs here use the append convention (index written after its
block); see the multiindex module for why the expansion needs that variant.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from . import scalars
from .errors import DomainError
from .exterior import KForm, ordered_sum
from .multiindex import (MultiIndex, block_partitions, enumerate_multiindices,
                         sign_interlace_append)
from .shapespace import MinorTable, ShapeMatrix, det, minor_layout


@lru_cache(maxsize=None)
def _projection_table(n: int, k: int) -> tuple[np.ndarray, ...]:
    """The projection coefficient rule, the only place it is written down.

    For each degree-k target K, in rank order, its k slots (K∖K_p, K_p) for
    p = 1..k: ``cells`` holds the flat entry r·n + c of row r = rank(K∖K_p)
    and column c = K_p − 1, and ``signs`` the append sign (−1)^(k−p), which
    depends on p alone, so one row serves every target.  The last slot's sign
    is +1.  The last two arrays list the +1 and the −1 slots, which exact
    stacks sum apart.  All four are read-only.
    """
    row_rank = {mi.indices: r for r, mi in enumerate(enumerate_multiindices(n, k - 1))}
    cells = np.array([[row_rank[K[:p] + K[p + 1:]] * n + K[p] - 1 for p in range(k)]
                      for K in (mi.indices for mi in enumerate_multiindices(n, k))],
                     dtype=np.intp)
    signs = np.array([(-1.0) ** (k - 1 - p) for p in range(k)])
    arrays = (cells, signs, np.flatnonzero(signs > 0), np.flatnonzero(signs < 0))
    for array in arrays:
        array.flags.writeable = False
    return arrays


def project_rows(X: np.ndarray, n: int, k: int) -> np.ndarray:
    """``project`` of each row of a flat (m × C(n,k−1)·n) stack of matrix entries.

    The stack's dtype is the scalar type, which the result keeps: float64, or
    object (ints, Fractions or polynomials), summed exactly.  A float row sums
    its slots left to right, whatever batch it sits in.
    """
    cells, signs, plus, minus = _projection_table(n, k)
    terms = X[:, cells]
    if terms.dtype == object:    # a product with a sign costs as much as a product
        return ordered_sum(terms[..., plus]) - ordered_sum(terms[..., minus])
    return ordered_sum(terms * signs)


def project(X: ShapeMatrix) -> KForm:
    """Project a shape matrix to its degree-k form.

    Coefficient of e^K is Σ_p (−1)^(k−p) · X[K∖K_p, K_p]; for k = 2 this is
    the antisymmetrization X − Xᵀ read into coefficients.
    """
    with scalars.float_guard("projection"):
        row = project_rows(X.entries.reshape(1, -1), X.n, X.k)[0]
    return KForm(X.n, X.k, row, X.backend)


def right_inverse(x: KForm) -> ShapeMatrix:
    """A section of the projection: project(right_inverse(x)) == x exactly.

    Each coefficient is parked in its target's last slot (K∖max K, max K),
    whose sign is +1, so the construction is sign-free.
    """
    n, k = x.n, x.k
    if not 2 <= k <= n:
        raise DomainError(f"right inverse needs 2 ≤ k ≤ n, got k={k}, n={n}")
    entries = np.zeros(math.comb(n, k - 1) * n, dtype=x.coeffs.dtype)
    entries[_projection_table(n, k)[0][:, -1]] = x.coeffs
    return ShapeMatrix(n, k, entries.reshape(-1, n), x.backend)


class MinorPowerMap(NamedTuple):
    """Linear map from order-s minor space to degree-k·s forms, stored sparsely.

    Matrix rows follow the degree-k·s basis; columns are the cells of
    ``minor_layout(n, k, s)``, row-set-major.  Each of ``rows`` is a flat tuple
    (cell, sign, cell, sign, …) in increasing cell order, the signs being the
    append interlace signs of the target's block partitions; the coefficient
    of a cell is s!·sign.  Rows are empty for odd k with s ≥ 2, and there are
    none beyond degree n.  ``entries`` is a dense view, built on each access.
    """

    n: int
    k: int
    s: int
    rows: tuple[tuple[int, ...], ...]

    @property
    def shape(self) -> tuple[int, int]:
        row_sets, col_sets = minor_layout(self.n, self.k, self.s)
        return len(self.rows), len(row_sets) * len(col_sets)

    @property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        """The dense matrix, rebuilt on each access."""
        factor = math.factorial(self.s)
        ncells = self.shape[1]
        dense = []
        for row in self.rows:
            full = [0] * ncells
            for cell, sign in zip(row[::2], row[1::2]):
                full[cell] = factor * sign
            dense.append(tuple(full))
        return tuple(dense)

    def apply(self, table: MinorTable) -> KForm:
        """The image of a minor table in this map's space."""
        if (table.n, table.k, table.s) != (self.n, self.k, self.s):
            raise DomainError(f"table space ({table.n},{table.k},{table.s}) does not match "
                              f"map space ({self.n},{self.k},{self.s})")
        return _expand(self, table.values.ravel().tolist().__getitem__, table.backend)


def _expand(power_map: MinorPowerMap, minor, backend: str) -> KForm:
    """Σ sign·minor(cell) along each row of the map, in cell order, times s! once."""
    factor = math.factorial(power_map.s)
    out = []
    for row in power_map.rows:
        acc = 0    # 0 + x is 0.0 + x for a float x
        for cell, sign in zip(row[::2], row[1::2]):
            value = minor(cell)
            acc = acc + value if sign > 0 else acc - value
        out.append(factor * acc)
    return KForm(power_map.n, power_map.k * power_map.s, out, backend)


@lru_cache(maxsize=None)
def minor_power_map(n: int, k: int, s: int) -> MinorPowerMap:
    """The order-s power map, built once per (n, k, s); order 1 is the projection."""
    row_sets, col_sets = minor_layout(n, k, s)
    multiindices = enumerate_multiindices(n, k * s) if k * s <= n else []
    if s >= 2 and k % 2 == 1:
        return MinorPowerMap(n, k, s, ((),) * len(multiindices))
    row_index = {rs: i for i, rs in enumerate(row_sets)}
    col_index = {cs: i for i, cs in enumerate(col_sets)}
    ncols = len(col_sets)
    label_rank = {mi.indices: i for i, mi in enumerate(enumerate_multiindices(n, k - 1))}
    rows = []
    for K in multiindices:
        terms = []
        for part in block_partitions(K, s, k):
            # blocks come in alphabetical order, so their ranks increase
            rs = tuple(label_rank[b.indices] for b in part.blocks)
            cs = tuple(j - 1 for j in part.J.indices)
            terms.append((row_index[rs] * ncols + col_index[cs],
                          sign_interlace_append(part.J.indices, part.blocks)))
        rows.append(tuple(v for term in sorted(terms) for v in term))
    return MinorPowerMap(n, k, s, tuple(rows))


def wedge_power_from_minors(X: ShapeMatrix, s: int) -> KForm:
    """Evaluate the s-th wedge power of project(X) from its order-s minors.

    Applies the cached power map, taking the determinant of exactly the
    submatrices its rows name, each once (a cell fixes its target, so no minor
    recurs), instead of building the full minor table.  Zero without
    computing minors when k is odd or s exceeds n/k.
    """
    n, k = X.n, X.k
    limit = min(n, math.comb(n, k - 1))
    if not 2 <= s <= limit:
        raise DomainError(f"power order {s} out of range 2..{limit}")
    if k % 2 == 1 or s > n // k:
        return KForm.zero(n, k * s, X.backend)
    row_sets, col_sets = minor_layout(n, k, s)
    ncols = len(col_sets)
    entries = X.entries.tolist()

    def minor(cell):
        ri, ci = divmod(cell, ncols)
        cols = col_sets[ci]
        return det([[entries[r][c] for c in cols] for r in row_sets[ri]])

    return _expand(minor_power_map(n, k, s), minor, X.backend)


def pullback_support(forms: Sequence[KForm]) -> list[MinorTable]:
    """Transpose of the power maps: forms D_s ↦ minor-space tables d_s.

    Input holds D_s of degree k·s for s = 1..n//k (k read off the first form).
    Each output table pairs with every minor table M exactly as D_s pairs with
    the power map's image of M; on a partition cell the entry is
    s!·(append interlace sign)·(D_s coefficient at the joint multiindex).
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
    labels = enumerate_multiindices(n, k - 1)
    out = []
    for s, form in enumerate(forms, start=1):
        factor = math.factorial(s)
        values = []
        for row_set in itertools.combinations(range(len(labels)), s):
            blocks = [labels[r] for r in row_set]
            members = [i for b in blocks for i in b.indices]
            block_members = set(members)
            degenerate = len(block_members) != len(members)
            row_vals = []
            for col_set in itertools.combinations(range(n), s):
                cols = tuple(c + 1 for c in col_set)
                if degenerate or block_members & set(cols):
                    row_vals.append(0)
                    continue
                joint = tuple(sorted(block_members | set(cols)))
                sign = sign_interlace_append(cols, blocks)
                value = factor * form.coefficient(MultiIndex(joint, n))
                row_vals.append(value if sign > 0 else -value)
            values.append(row_vals)
        out.append(MinorTable(n, k, s, values, backend))
    return out
