import math
from fractions import Fraction

import numpy as np
import pytest

from extconv import exterior, polyform, projection, sampling, scalars, shapespace


@pytest.fixture
def sign_fault(monkeypatch):
    """Negate one interlace sign of the minor expansion.

    Every power map handed out while the fixture is active has the sign of
    its first pattern slot flipped, in every row, and its +1 / −1 slots
    follow, so a checker that compares the expansion against an independent
    route must report a mismatch.  The cached map itself is left untouched.
    """
    real = projection.minor_power_map

    def faulty(n, k, s):
        power_map = real(n, k, s)
        signs = power_map.signs.copy()
        signs[0] = -signs[0]
        return power_map._replace(signs=signs, plus=np.flatnonzero(signs > 0),
                                  minus=np.flatnonzero(signs < 0))

    monkeypatch.setattr(projection, "minor_power_map", faulty)


@pytest.fixture
def denominator_fault(monkeypatch):
    """Drop the largest denominator from the lcm of every numerator split.

    While the fixture is active ``scalars.integers`` takes L as the lcm of
    every denominator but the largest, and scales each numerator by L // d,
    rounded down, so a value whose denominator does not divide L is read
    wrong.  Both sides of the pullback adjointness identity split their
    rationals (``table_inner`` and ``MinorPowerMap.apply``), so the identity
    catches this only because its sides drop different denominators; the
    Fraction-only oracles (``dense_inner``, the dense power map in object
    arithmetic) never split, so a check against either must report a
    mismatch.
    """
    def faulty(values):
        flat = values.ravel().tolist()
        if not set(map(type, flat)) <= {int, Fraction}:
            return None
        L = math.lcm(*sorted({value.denominator for value in flat})[:-1])
        numerators = [value.numerator * (L // value.denominator) for value in flat]
        return np.array(numerators, dtype=object).reshape(values.shape), L

    monkeypatch.setattr(scalars, "integers", faulty)


@pytest.fixture
def step_bound_fault(monkeypatch):
    """Let every int64 wedge step skip its bound.

    While the fixture is active ``exterior._step_fits`` passes every step, so
    the direct route's chain stays in int64 past 2^63 and wraps instead of
    widening to Python ints.  The minor route proves bounds of its own, so a
    check that compares the two routes, or the chain with an object oracle,
    must report a mismatch once the values pass int64.
    """
    monkeypatch.setattr(exterior, "_step_fits", lambda slots, a, b: True)


@pytest.fixture
def projection_sign_fault(monkeypatch):
    """Negate the sign of the first slot of the projection rule.

    Every table handed out while the fixture is active has slot 1's sign
    flipped (a non-last slot, so ``right_inverse``'s sign-free section is
    untouched), and its +1 / −1 columns follow.  A check whose other side
    never reads the table must then report a mismatch.  The cached table
    itself is left untouched.
    """
    real = projection._projection_table

    def faulty(n, k):
        cells, signs, _, _ = real(n, k)
        signs = signs.copy()
        signs[0] = -signs[0]
        return cells, signs, np.flatnonzero(signs > 0), np.flatnonzero(signs < 0)

    monkeypatch.setattr(projection, "_projection_table", faulty)


@pytest.fixture
def minor_plan_fault(monkeypatch):
    """Swap the children of slots 0 and 1 on the top level of every minor plan.

    Every plan ``minors_at`` runs while the fixture is active (the full
    layout's plan that ``adjugate`` reads and the power map's plan that
    ``wedge_power_from_minors_rows`` reads) expands each of its minors onto
    the wrong pair of sub-minors, so a check whose other side never runs a
    plan must report a mismatch.  The cached plans are left untouched.
    """
    real = shapespace.minors_at

    def faulty(entries, plan):
        entries_at, children, *signs = plan.levels[-1]
        swapped = children[:, [1, 0, *range(2, children.shape[1])]]
        return real(entries, plan._replace(levels=(*plan.levels[:-1],
                                                   (entries_at, swapped, *signs))))

    for module in (shapespace, projection):
        monkeypatch.setattr(module, "minors_at", faulty)


@pytest.fixture
def partials_fault(monkeypatch):
    """Drop the factor e from the one-pass derivative stack.

    Every stack ``polyform._partials`` hands out while the fixture is active
    reads ∂(c·x_i^e)/∂x_i as c·x_i^(e−1): each term of column i is divided by
    its own x_i exponent plus one.  ``Poly.diff`` is left untouched, so a
    check whose other side takes its partials there must report a mismatch.
    """
    real = polyform._partials

    def faulty(w):
        stack = real(w).copy()
        for (row, i), partial in np.ndenumerate(stack):
            stack[row, i] = polyform.Poly(w.n, {e: Fraction(c, e[i] + 1)
                                                for e, c in partial.terms.items()})
        return stack

    monkeypatch.setattr(polyform, "_partials", faulty)


@pytest.fixture
def philox_fault(monkeypatch):
    """Change the first round multiplier of the sampling kernel.

    While the fixture is active ``sampling._philox`` multiplies by 0xD2511F55
    where Philox4x32-10 multiplies by 0xD2511F53, so every stream it draws
    differs from the published generator's.  The known-answer vectors and the
    pure-Python streams of ``oracles.reference_words`` share no code with the
    kernel, so a check against either must report a mismatch.
    """
    monkeypatch.setattr(sampling, "_MULTIPLIERS",
                        np.array([[0xD2511F55], [0xCD9E8D57]], dtype=np.uint64))
