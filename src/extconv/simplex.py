"""Condensed-tableau simplex with free variables and Bland anti-cycling.

Solves   minimize c·x  subject to  A x ≥ b,  x_j ≥ 0 for j ≥ free:

the first ``free`` variables are sign-free; that is part of the LP statement
(the support LP's coefficients c_s are free).  Desk-scale constraint counts
need no external solver.  There is one tableau algorithm, and its scalar type
comes from the data: an ``object`` array among c, A and b makes the tableau an
``object`` array of ``Fraction`` with tolerance 0 (meant for small
certificate-style instances); otherwise it is ``float64`` with pivot tolerance
1e-9.

The tableau is Tucker's condensed (dictionary) form: one row per basic
variable, one column per nonbasic one, then the right-hand side; a last row
holds the reduced costs and the negated objective, and the same pivot updates
it.  Variable x_j has id j and the surplus A_i x − b_i has id nv + i.  A pivot
swaps the ids of its row and column.

There is no phase one.  The start basis is every surplus variable, which is
feasible when no entry of b is positive.  Otherwise A must have an all-ones
column (a uniform slack, like the support LP's t): the last such column enters
at the row of the largest b, and raising it alone satisfies every row.
Without one the LP is refused with ``DomainError``.

A nonbasic free variable enters in whichever direction improves the
objective; once basic it never leaves (the ratio test skips its row).
Among tied ratios the lowest variable id always leaves.  Pivoting enters the
largest improving reduced cost while the objective makes progress and switches
permanently to Bland's rule once it stalls: the lowest eligible variable id
enters.  Ids, not positions, since columns change identity.  So cycling is
impossible and the iteration cap only ever fires on genuinely huge instances;
hitting it is reported as its own status rather than raised.  ``LPResult.x``
lists x_0 … x_{nv−1}; its free coordinates may be negative.
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


def minimize(c: Sequence, A: Sequence[Sequence], b: Sequence, free: int = 0, *,
             max_iter: int | None = None) -> LPResult:
    """Minimize c·x over {A x ≥ b, x_j ≥ 0 for j ≥ free}; exact if c, A or b is an object array.

    The first ``free`` variables are sign-free.  A positive entry of b needs an
    all-ones column in A (see the module docstring); without one this raises
    ``DomainError``.
    """
    m = len(A)
    nv = len(c)
    if len(b) != m or any(len(row) != nv for row in A) or not 0 <= free <= nv:
        raise DomainError(f"inconsistent LP dimensions: c has {nv}, A is {m} rows, "
                          f"{free} free")
    c, A, b = np.asarray(c), np.asarray(A).reshape(m, nv), np.asarray(b)
    sc = _EXACT if any(v.dtype == object for v in (c, A, b)) else _FLOAT
    if max_iter is None:
        max_iter = 200 + 25 * (m + nv)
    if sc is _EXACT:
        c, A, b = (_to_fraction(v.astype(object)) for v in (c, A, b))
    else:
        c, A, b = (v.astype(float, copy=False) for v in (c, A, b))

    T, basis, nonbasic = _start(c, A, b, sc)
    status, iterations = _run(T, basis, nonbasic, free, sc.eps, max_iter)
    if status != OPTIMAL:
        return LPResult(status, None, None, iterations)
    x = np.full(nv + m, sc.make(0), dtype=sc.dtype)
    x[basis] = T[:-1, -1]
    x = x[:nv]
    return LPResult(OPTIMAL, x.tolist(), sc.make(c @ x), iterations)


def _start(c, A, b, sc: _Scalars):
    """Tableau [−A | −b] over the cost row [c | 0], at a basis the data shows feasible.

    Every surplus is basic, and the all-ones column enters at the row of the
    largest b if some b > 0.  Either way the basis is feasible: the surpluses
    alone when b ≤ 0, and the all-ones column at the largest b covers every
    other row.
    """
    m, nv = A.shape
    T = np.vstack([np.hstack([-A, -b[:, None]]), np.append(c, sc.make(0))])
    basis, nonbasic = nv + np.arange(m), np.arange(nv)
    if (b > 0).any():
        ones = np.flatnonzero((A == 1).all(axis=0))
        if not ones.size:
            raise DomainError("a positive right-hand side needs an all-ones column "
                              "to start from a feasible basis")
        _pivot(T, basis, nonbasic, int(np.argmax(b)), int(ones[-1]))
    return T, basis, nonbasic


_STALL_LIMIT = 40  # degenerate pivots tolerated before switching to Bland


def _run(T, basis, nonbasic, free, eps, max_iter) -> tuple[str, int]:
    """Pivot until optimal or unbounded, at most ``max_iter`` times.

    Entering variable: the largest improving reduced cost (fast) until the
    objective stalls, then permanently Bland's lowest-id rule, which cannot cycle.
    """
    bland = False
    stall = 0
    last_objective = None
    for it in range(max(0, max_iter)):
        reduced = T[-1, :-1]
        # a free variable improves the objective in either direction
        gain = np.where(nonbasic < free, -abs(reduced), reduced)
        candidates = np.flatnonzero(gain < -eps)
        if candidates.size == 0:
            return OPTIMAL, it
        col = int(candidates[np.argmin(nonbasic[candidates] if bland else gain[candidates])])
        column = T[:-1, col] if reduced[col] < 0 else -T[:-1, col]
        eligible = np.flatnonzero((column > eps) & (basis >= free))   # free ones never leave
        if eligible.size == 0:
            return UNBOUNDED, it
        ratios = T[eligible, -1] / column[eligible]
        best = ratios.min()
        tied = eligible[ratios <= best + eps]
        _pivot(T, basis, nonbasic, int(tied[np.argmin(basis[tied])]), col)
        if not bland:
            objective = -T[-1, -1]
            if last_objective is not None and objective >= last_objective - eps:
                stall += 1
                if stall > _STALL_LIMIT:
                    bland = True
            else:
                stall = 0
            last_objective = objective
    return ITERATION_LIMIT, max(0, max_iter)


def _pivot(T, basis, nonbasic, row, col) -> None:
    """Tucker pivot on the nonzero T[row, col]: the row's and the column's variables swap."""
    basis[row], nonbasic[col] = nonbasic[col], basis[row]
    p = T[row, col]
    T[row] /= p
    factors = T[:, col].copy()
    factors[row] = 0
    T -= np.outer(factors, T[row])
    T[:, col] = -factors / p
    T[row, col] = 1 / p
