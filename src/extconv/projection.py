"""The projection from shape matrices to forms and its wedge-power machinery.

``project`` sends a shape matrix to the form obtained by wedging each column
(read as a (k−1)-form) with its coordinate direction on the right.  It sends
outer products to wedge products and gradients to exterior derivatives, and it
is onto, with ``right_inverse`` as a sign-free section.  Its coefficient rule
is one cached table per (n, k), read by ``project``, ``project_rows``,
``right_inverse`` and ``polyform.project_polynomial``; the order-1 power map
reaches the same map by its own route.

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
def _projection_table(n: int, k: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The projection coefficient rule, the only place it is written down.

    For each degree-k target K, in rank order, its k slots (K∖K_p, K_p) for
    p = 1..k: the flat entry r·n + c of row r = rank(K∖K_p) and column
    c = K_p − 1, with the append sign (−1)^(k−p).  The last slot's sign is +1.
    """
    row_rank = {mi.indices: r for r, mi in enumerate(enumerate_multiindices(n, k - 1))}
    return tuple(tuple((row_rank[K[:p] + K[p + 1:]] * n + K[p] - 1, (-1) ** (k - 1 - p))
                       for p in range(k))
                 for K in (mi.indices for mi in enumerate_multiindices(n, k)))


def project_entries(rows: Sequence[Sequence], n: int, k: int, zero) -> list:
    """Project matrix rows over any ring.

    Each coefficient sums its slots from ``zero``, left to right, skipping zeros.
    """
    entries = list(itertools.chain.from_iterable(rows))
    out = []
    for slots in _projection_table(n, k):
        acc = zero
        for cell, sign in slots:
            value = entries[cell]
            if value != 0:
                acc = acc + value if sign > 0 else acc - value
        out.append(acc)
    return out


def project(X: ShapeMatrix) -> KForm:
    """Project a shape matrix to its degree-k form.

    Coefficient of e^K is Σ_p (−1)^(k−p) · X[K∖K_p, K_p]; for k = 2 this is
    the antisymmetrization X − Xᵀ read into coefficients.
    """
    return KForm(X.n, X.k, project_entries(X.entries, X.n, X.k, scalars.zero(X.backend)),
                 X.backend)


def project_rows(X: np.ndarray, n: int, k: int) -> np.ndarray:
    """Float ``project`` of each row of a flat (m × C(n,k−1)·n) stack, bit for bit.

    The sums run left to right, and a zero entry adds nothing to a finite sum.
    """
    table = np.array(_projection_table(n, k), dtype=np.intp)
    return ordered_sum(X[:, table[..., 0]] * table[..., 1])


def right_inverse(x: KForm) -> ShapeMatrix:
    """A section of the projection: project(right_inverse(x)) == x exactly.

    Each coefficient is parked in its target's last slot (K∖max K, max K),
    whose sign is +1, so the construction is sign-free.
    """
    n, k = x.n, x.k
    if not 2 <= k <= n:
        raise DomainError(f"right inverse needs 2 ≤ k ≤ n, got k={k}, n={n}")
    entries = [scalars.zero(x.backend)] * (math.comb(n, k - 1) * n)
    for slots, value in zip(_projection_table(n, k), x.coeffs):
        if value != 0:
            entries[slots[-1][0]] = value
    return ShapeMatrix(n, k, [entries[r:r + n] for r in range(0, len(entries), n)], x.backend)


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
        values, ncols = table.values, len(table.col_sets)
        return _expand(self, lambda cell: values[cell // ncols][cell % ncols], table.backend)


def _expand(power_map: MinorPowerMap, minor, backend: str) -> KForm:
    """Σ sign·minor(cell) along each row of the map, in cell order, times s! once."""
    zero = scalars.zero(backend)
    factor = math.factorial(power_map.s)
    out = []
    for row in power_map.rows:
        acc = zero
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
    entries = X.entries

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
    k = forms[0].k
    n = forms[0].n
    backend = forms[0].backend
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
    nrows_matrix = math.comb(n, k - 1)
    for s, form in enumerate(forms, start=1):
        factor = math.factorial(s)
        values = []
        for row_set in itertools.combinations(range(nrows_matrix), s):
            blocks = [labels[r] for r in row_set]
            block_members = set()
            degenerate = False
            for b in blocks:
                for i in b.indices:
                    if i in block_members:
                        degenerate = True
                        break
                    block_members.add(i)
                if degenerate:
                    break
            row_vals = []
            for col_set in itertools.combinations(range(n), s):
                cols = tuple(c + 1 for c in col_set)
                if degenerate or block_members & set(cols):
                    row_vals.append(scalars.zero(backend))
                    continue
                joint = tuple(sorted(block_members | set(cols)))
                sign = sign_interlace_append(cols, blocks)
                coeff = form.coefficient(MultiIndex(joint, n))
                value = factor * coeff
                row_vals.append(value if sign > 0 else -value)
            values.append(row_vals)
        out.append(MinorTable(n, k, s, values, backend))
    return out
