"""Dense simplex with Bland anti-cycling, started from a basis the data shows feasible.

Solves   minimize c·x  subject to  A x ≥ b,  x ≥ 0.

Desk-scale constraint counts need no external solver.  There is one tableau
algorithm, and its scalar type comes from the data: an ``object`` array among
c, A and b makes the tableau an ``object`` array of ``Fraction`` with
tolerance 0 (meant for small certificate-style instances); otherwise it is
``float64`` with pivot tolerance 1e-9.

There is no phase one.  The start basis is every surplus variable, which is
feasible when no entry of b is positive.  Otherwise A must have an all-ones
column (a uniform slack, like the support LP's t): the last such column enters
at the row of the largest b, and raising it alone satisfies every row.
Without one the LP is refused with ``DomainError``.

Pivoting enters the most negative reduced cost while the objective makes
progress and switches permanently to Bland's rule (lowest eligible index in,
lowest basis index out on ties) once it stalls, so cycling is impossible and
the iteration cap only ever fires on genuinely huge instances; hitting it is
reported as its own status rather than raised.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DomainError

OPTIMAL = "optimal"
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


_EPS = 1e-9
_FLOAT = _Scalars(np.float64, float, _EPS)
_EXACT = _Scalars(object, Fraction, 0)
_to_fraction = np.frompyfunc(Fraction, 1, 1)


def _scalars(T) -> _Scalars:
    return _EXACT if T.dtype == object else _FLOAT


def _zeros(shape, sc: _Scalars):
    return np.full(shape, sc.make(0), dtype=sc.dtype)


def minimize(c: Sequence, A: Sequence[Sequence], b: Sequence, *,
             max_iter: int | None = None) -> LPResult:
    """Minimize c·x over {A x ≥ b, x ≥ 0}; exact if c, A or b is an object array.

    A positive entry of b needs an all-ones column in A (see the module
    docstring); without one this raises ``DomainError``.
    """
    m = len(A)
    nv = len(c)
    if len(b) != m or any(len(row) != nv for row in A):
        raise DomainError(f"inconsistent LP dimensions: c has {nv}, A is {m} rows")
    c, A, b = (np.asarray(v) for v in (c, A, b))
    sc = _EXACT if any(v.dtype == object for v in (c, A, b)) else _FLOAT
    if m == 0:
        return LPResult(OPTIMAL, [sc.make(0)] * nv, sc.make(0), 0)
    if max_iter is None:
        max_iter = 200 + 25 * (m + nv)
    if sc is _EXACT:
        c, A, b = (_to_fraction(v.astype(object)) for v in (c, A, b))
    else:
        c, A, b = (v.astype(float, copy=False) for v in (c, A, b))

    T, basis = _start(A, b, sc)
    cost = _zeros(T.shape[1] - 1, sc)
    cost[:nv] = c
    status, iterations = _run(T, basis, cost, max_iter)
    if status != OPTIMAL:
        return LPResult(status, None, None, iterations)
    x = _zeros(T.shape[1] - 1, sc)
    x[basis] = T[:, -1]
    x = x[:nv]
    return LPResult(OPTIMAL, x.tolist(), sc.make(c @ x), iterations)


def _start(A, b, sc: _Scalars):
    """Tableau [−A | I | −b] with every surplus basic, and the slack entered if some b > 0.

    Either way the basis is feasible: the surpluses alone when b ≤ 0, and the
    all-ones column at the largest b covers every other row.
    """
    m, nv = A.shape
    identity = _zeros((m, m), sc)
    np.fill_diagonal(identity, sc.make(1))
    T = np.hstack([-A, identity, -b[:, None]])
    basis = nv + np.arange(m)
    if (b > 0).any():
        ones = np.flatnonzero((A == 1).all(axis=0))
        if not ones.size:
            raise DomainError("a positive right-hand side needs an all-ones column "
                              "to start from a feasible basis")
        row, col = int(np.argmax(b)), int(ones[-1])
        _pivot(T, row, col)
        basis[row] = col
    return T, basis


_STALL_LIMIT = 40  # degenerate pivots tolerated before switching to Bland


def _run(T, basis, cost, max_iter) -> tuple[str, int]:
    """Pivot until optimal or unbounded, at most ``max_iter`` times.

    Entering variable: most negative reduced cost (fast) until the objective
    stalls, then permanently Bland's lowest-index rule, which cannot cycle.
    """
    eps = _scalars(T).eps
    bland = False
    stall = 0
    last_objective = None
    for it in range(max(0, max_iter)):
        reduced = cost - cost[basis] @ T[:, :-1]
        reduced[basis] = 0
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
