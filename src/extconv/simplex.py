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

Pivots delay their rank-one updates (the blocked right-looking scheme of Golub
& Van Loan, *Matrix Computations*, §3.2.11).  The tableau is held as
T = T0 − U·V, with the updates of up to ``_BLOCK`` pivots pending as the
columns of U and the rows of V.  A pivot reads the cost row, its column, the
right-hand side and its row through small products against U and V, writes
its new row and column straight into T0, and appends one pair; a full block,
and the last one before x is read, is applied by one ``T0 −= U V``.  Object
``matmul`` is exact, so an exact LP takes the pivots and reaches the x the
one-update-a-pivot loop did.  A float LP rounds differently in its last bits,
and the block product runs in BLAS, so those bits may differ between BLAS
builds (as ``lstsq``'s do).

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

    tab = _start(c, A, b, sc)
    status, iterations = _run(tab, free, sc.eps, max_iter)
    if status != OPTIMAL:
        return LPResult(status, None, None, iterations)
    tab.flush()
    x = np.full(nv + m, sc.make(0), dtype=sc.dtype)
    x[tab.basis] = tab.T0[:-1, -1]
    x = x[:nv]
    return LPResult(OPTIMAL, x.tolist(), sc.make(c @ x), iterations)


_BLOCK = 32  # pivots whose rank-one updates wait for one T0 −= U V


class _Tableau:
    """The tableau T = T0 − U[:, :k] V[:k], with the updates of k < ``_BLOCK`` pivots pending.

    Column j of U and row j of V are pivot j's rank-one update since the last
    flush.  Every pivot writes its row and its column of T whole into T0 and
    zeroes them in U and V, so no pending update touches them.
    """

    def __init__(self, T0, basis, nonbasic):
        self.T0, self.basis, self.nonbasic = T0, basis, nonbasic
        rows, cols = T0.shape
        self.U = np.zeros((rows, _BLOCK), dtype=T0.dtype, order="F")
        self.V = np.zeros((_BLOCK, cols), dtype=T0.dtype)
        self.k = 0

    def row(self, i):
        """T[i], a new array."""
        return self.T0[i] - self.U[i, :self.k] @ self.V[:self.k]

    def column(self, j):
        """T[:, j], a new array."""
        return self.T0[:, j] - self.U[:, :self.k] @ self.V[:self.k, j]

    def flush(self) -> None:
        """Apply every pending update to T0 with one product."""
        if self.k:
            self.T0 -= self.U[:, :self.k] @ self.V[:self.k]
            self.k = 0


def _start(c, A, b, sc: _Scalars) -> _Tableau:
    """Tableau [−A | −b] over the cost row [c | 0], at a basis the data shows feasible.

    Every surplus is basic, and the all-ones column enters at the row of the
    largest b if some b > 0.  Either way the basis is feasible: the surpluses
    alone when b ≤ 0, and the all-ones column at the largest b covers every
    other row.
    """
    m, nv = A.shape
    tab = _Tableau(np.vstack([np.hstack([-A, -b[:, None]]), np.append(c, sc.make(0))]),
                   nv + np.arange(m), np.arange(nv))
    if (b > 0).any():
        ones = np.flatnonzero((A == 1).all(axis=0))
        if not ones.size:
            raise DomainError("a positive right-hand side needs an all-ones column "
                              "to start from a feasible basis")
        col = int(ones[-1])
        _pivot(tab, int(np.argmax(b)), col, tab.column(col))
    return tab


_STALL_LIMIT = 40  # degenerate pivots tolerated before switching to Bland


def _run(tab: _Tableau, free, eps, max_iter) -> tuple[str, int]:
    """Pivot until optimal or unbounded, at most ``max_iter`` times.

    Entering variable: the largest improving reduced cost (fast) until the
    objective stalls, then permanently Bland's lowest-id rule, which cannot cycle.
    """
    basis, nonbasic = tab.basis, tab.nonbasic
    bland = False
    stall = 0
    last_objective = None
    for it in range(max(0, max_iter)):
        costs = tab.row(-1)
        if it and not bland:      # the objective the last pivot reached
            objective = -costs[-1]
            if last_objective is not None and objective >= last_objective - eps:
                stall += 1
                if stall > _STALL_LIMIT:
                    bland = True
            else:
                stall = 0
            last_objective = objective
        reduced = costs[:-1]
        # a free variable improves the objective in either direction
        gain = np.where(nonbasic < free, -abs(reduced), reduced)
        candidates = np.flatnonzero(gain < -eps)
        if candidates.size == 0:
            return OPTIMAL, it
        col = int(candidates[np.argmin(nonbasic[candidates] if bland else gain[candidates])])
        column, rhs = tab.column(col), tab.column(-1)
        direction = column[:-1] if reduced[col] < 0 else -column[:-1]
        eligible = np.flatnonzero((direction > eps) & (basis >= free))   # free ones never leave
        if eligible.size == 0:
            return UNBOUNDED, it
        ratios = rhs[eligible] / direction[eligible]
        best = ratios.min()
        tied = eligible[ratios <= best + eps]
        _pivot(tab, int(tied[np.argmin(basis[tied])]), col, column)
    return ITERATION_LIMIT, max(0, max_iter)


def _pivot(tab: _Tableau, row, col, column) -> None:
    """Tucker pivot on the nonzero T[row, col], given ``column`` = T[:, col]: the
    row's and the column's variables swap.

    The new row T[row]/p and the new column −T[:, col]/p, with 1/p at the
    pivot, go straight into T0.  Every other entry owes −T[i, col]·T[row, j]/p:
    that rank-one update joins the pending ones, and a full block is flushed.
    """
    tab.basis[row], tab.nonbasic[col] = tab.nonbasic[col], tab.basis[row]
    p = column[row]
    new_row = tab.row(row) / p
    k = tab.k
    tab.U[:, k], tab.V[k] = column, new_row
    tab.U[row, :k + 1] = 0
    tab.V[:k + 1, col] = 0
    tab.T0[row] = new_row
    tab.T0[:, col] = -column / p
    tab.T0[row, col] = 1 / p
    tab.k = k + 1
    if tab.k == _BLOCK:
        tab.flush()
