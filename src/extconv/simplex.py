"""Dense two-phase simplex with Bland anti-cycling.

Solves   minimize c·x  subject to  A x ≥ b,  x ≥ 0.

Desk-scale constraint counts need no external solver.  There is one tableau
algorithm, and its scalar type is the dtype of the numpy array that holds the
tableau: ``float64`` with pivot tolerance 1e-9 (a phase-one objective above
1e-7 reads as infeasible) by default, and an ``object`` array of ``Fraction``
with tolerance 0 for ``exact=True`` (meant for small certificate-style
instances).  Pivoting enters the most negative reduced cost while the
objective makes progress and switches permanently to Bland's rule (lowest
eligible index in, lowest basis index out on ties) once it stalls, so cycling
is impossible and the iteration cap only ever fires on genuinely huge
instances; hitting it is reported as its own status rather than raised.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DomainError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ITERATION_LIMIT = "iteration_limit"


@dataclass
class LPResult:
    status: str
    x: list | None
    objective: object | None
    iterations: int


class _Scalars(NamedTuple):
    """What the algorithm needs to know about a tableau's scalar type."""

    dtype: object
    make: type           # converts a number to the scalar type
    eps: object          # pivot, ratio-tie and stall tolerance
    phase_one: object    # largest phase-one objective still read as feasible


_EPS = 1e-9
_FLOAT = _Scalars(np.float64, float, _EPS, 1e-7)
_EXACT = _Scalars(object, Fraction, 0, 0)
_to_fraction = np.frompyfunc(Fraction, 1, 1)


def _scalars(T) -> _Scalars:
    return _EXACT if T.dtype == object else _FLOAT


def _zeros(shape, sc: _Scalars):
    return np.full(shape, sc.make(0), dtype=sc.dtype)


def _diagonal(m, values, sc: _Scalars):
    """The m×m matrix with ``values`` on its diagonal and zeros elsewhere."""
    D = _zeros((m, m), sc)
    np.fill_diagonal(D, values)
    return D


def minimize(c: Sequence, A: Sequence[Sequence], b: Sequence, *,
             exact: bool = False, max_iter: int | None = None,
             all_ones_var: int | None = None) -> LPResult:
    """Minimize c·x over {A x ≥ b, x ≥ 0}.

    ``all_ones_var`` names a variable whose constraint column is all ones
    (a uniform slack): raising it alone reaches feasibility, so the solve
    starts from that basis and phase one is skipped.
    """
    m = len(A)
    nv = len(c)
    if len(b) != m or any(len(row) != nv for row in A):
        raise DomainError(f"inconsistent LP dimensions: c has {nv}, A is {m} rows")
    sc = _EXACT if exact else _FLOAT
    if m == 0:
        return LPResult(OPTIMAL, [sc.make(0)] * nv, sc.make(0), 0)
    if max_iter is None:
        max_iter = 200 + 25 * (m + nv)
    if all_ones_var is not None and not (
            0 <= all_ones_var < nv and all(row[all_ones_var] == 1 for row in A)):
        raise DomainError(f"variable {all_ones_var} is not an all-ones column")
    warm = all_ones_var is not None and max(b) > 0
    if exact:
        A, b, c = (_to_fraction(np.asarray(v, dtype=object)) for v in (A, b, c))
    else:
        A, b, c = (np.asarray(v, dtype=float) for v in (A, b, c))

    if warm:
        T, basis = _warm_start(A, b, all_ones_var, sc)
        status, iterations = OPTIMAL, 0
    else:
        status, T, basis, iterations = _cold_start(A, b, max_iter, sc)
    if status == OPTIMAL:
        cost = _zeros(T.shape[1] - 1, sc)
        cost[:nv] = c
        status, extra = _run(T, basis, cost, max_iter - iterations, nv + m)
        iterations += extra
    if status != OPTIMAL:
        return LPResult(status, None, None, iterations)
    x = _zeros(T.shape[1] - 1, sc)
    x[basis] = T[:, -1]
    x = x[:nv]
    return LPResult(OPTIMAL, x.tolist(), sc.make(c @ x), iterations)


def _cold_start(A, b, max_iter, sc: _Scalars):
    """Two-phase start: (status, tableau, basis, phase-one pivots).

    Rows with nonpositive rhs are negated so every rhs is nonnegative; the
    surplus then enters with +1 and serves as the initial basic variable.  The
    other rows get an artificial, which phase one drives out.
    """
    m, nv = A.shape
    one = sc.make(1)
    need_art = b > 0
    art_rows = np.flatnonzero(need_art)
    na = art_rows.size
    art = _zeros((m, na), sc)
    art[art_rows, np.arange(na)] = one
    T = np.hstack([np.where(need_art[:, None], A, -A),
                   _diagonal(m, np.where(need_art, -one, one), sc), art,
                   np.where(need_art, b, -b)[:, None]])
    basis = nv + np.arange(m)               # surplus where feasible
    basis[art_rows] = nv + m + np.arange(na)   # artificial elsewhere
    if not na:
        return OPTIMAL, T, basis, 0

    cost = _zeros(T.shape[1] - 1, sc)
    cost[nv + m:] = one
    status, iterations = _run(T, basis, cost, max_iter, nv + m + na)
    if status == OPTIMAL and cost[basis] @ T[:, -1] > sc.phase_one:
        status = INFEASIBLE
    if status != OPTIMAL:
        return (status if status == ITERATION_LIMIT else INFEASIBLE), T, basis, iterations
    _evict_artificials(T, basis, nv + m)
    return OPTIMAL, T, basis, iterations


def _warm_start(A, b, ones_var, sc: _Scalars):
    """Tableau and basis {ones_var at the largest rhs, surplus elsewhere}: feasible."""
    m, nv = A.shape
    T = np.hstack([A, -_diagonal(m, sc.make(1), sc), b[:, None]])
    pivot_row = int(np.argmax(b))
    # subtracting the pivot row clears the all-ones column, negating restores
    # +1 surplus signs
    keep = T[pivot_row].copy()
    T = keep[None, :] - T
    T[pivot_row] = keep
    basis = nv + np.arange(m)
    basis[pivot_row] = ones_var
    return T, basis


_STALL_LIMIT = 40  # degenerate pivots tolerated before switching to Bland


def _run(T, basis, cost, max_iter, phase_cols) -> tuple[str, int]:
    """Pivot until optimal/unbounded; columns ≥ phase_cols stay out.

    Entering variable: most negative reduced cost (fast) until the objective
    stalls, then permanently Bland's lowest-index rule, which cannot cycle.
    """
    eps = _scalars(T).eps
    bland = False
    stall = 0
    last_objective = None
    for it in range(max(0, max_iter)):
        reduced = cost[:phase_cols] - cost[basis] @ T[:, :phase_cols]
        reduced[basis[basis < phase_cols]] = 0
        candidates = np.flatnonzero(reduced < -eps)
        if candidates.size == 0:
            return OPTIMAL, it
        col = int(candidates[0]) if bland else int(candidates[np.argmin(reduced[candidates])])
        column = T[:, col]
        eligible = np.flatnonzero(column > eps)
        if eligible.size == 0:
            return UNBOUNDED, it
        ratios = T[eligible, -1] / column[eligible]
        best = ratios.min()
        tied = eligible[ratios <= best + eps]
        row = int(tied[np.argmin(basis[tied])])
        _pivot(T, row, col)
        basis[row] = col
        if not bland:
            objective = cost[basis] @ T[:, -1]
            if last_objective is not None and objective >= last_objective - eps:
                stall += 1
                if stall > _STALL_LIMIT:
                    bland = True
            else:
                stall = 0
            last_objective = objective
    return ITERATION_LIMIT, max(0, max_iter)


# Rows per elimination block: a full-tableau outer product is a temporary the
# size of the tableau (3 MB for a 500-sample support LP) on every pivot, whose
# cost then depends on the allocator's state; a block's stays small, in cache.
_BLOCK = 32


def _pivot(T, row, col) -> None:
    """Make column ``col`` the unit vector at ``row``; the entry there is nonzero."""
    sc = _scalars(T)
    T[row, :] /= T[row, col]
    pivot_row = T[row].copy()   # the row's own block updates it (by a zero factor)
    factors = T[:, col].copy()
    factors[row] = sc.make(0)
    for start in range(0, T.shape[0], _BLOCK):
        T[start:start + _BLOCK] -= np.outer(factors[start:start + _BLOCK], pivot_row)
    T[:, col] = sc.make(0)
    T[row, col] = sc.make(1)


def _evict_artificials(T, basis, real_cols) -> None:
    """Pivot zero-value basic artificials onto real columns where possible."""
    eps = _scalars(T).eps
    for i in range(T.shape[0]):
        if basis[i] < real_cols:
            continue
        nz = np.flatnonzero(np.abs(T[i, :real_cols]) > eps)
        if nz.size:
            _pivot(T, i, int(nz[0]))
            basis[i] = int(nz[0])
        # an all-zero row is a redundant constraint; leaving the artificial
        # basic at value 0 is harmless because its column never re-enters
