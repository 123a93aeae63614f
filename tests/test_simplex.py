import random
from fractions import Fraction

import numpy as np
import pytest

from extconv.errors import DomainError
from extconv.simplex import ITERATION_LIMIT, OPTIMAL, UNBOUNDED, minimize


def exact(*values):
    """The LP data as object arrays, which makes ``minimize`` solve exactly."""
    return tuple(np.array(v, dtype=object) for v in values)


def with_slack(A):
    """A with an all-ones column appended: the uniform slack a positive rhs needs."""
    return [list(row) + [1] for row in A]


class TestFloatPath:
    def test_bounded_box(self):
        # max x1+x2 st x1+x2 <= 4, x1 <= 3  (as a min of the negation)
        r = minimize([-1, -1], [[-1, -1], [-1, 0]], [-4, -3])
        assert r.status == OPTIMAL
        assert abs(r.objective + 4) < 1e-9

    def test_mixed_signs_rhs(self):
        # min t st t >= 3, t >= 5, t >= -2
        r = minimize([1], [[1], [1], [1]], [3, 5, -2])
        assert r.status == OPTIMAL
        assert abs(r.objective - 5) < 1e-9

    def test_unbounded(self):
        r = minimize([-1], [[1]], [0])
        assert r.status == UNBOUNDED

    def test_beale_degenerate_instance_terminates(self):
        # a classic cycling trap for non-Bland pivoting
        A = [[-0.25, 60, 0.04, -9], [-0.5, 90, 0.02, -3], [0, 0, -1, 0]]
        b = [0, 0, -1]
        r = minimize([-0.75, 150, -0.02, 6], A, b)
        assert r.status == OPTIMAL
        assert abs(r.objective + 0.05) < 1e-9

    def test_solution_satisfies_constraints(self):
        A = with_slack([[2, 1], [1, 3], [-1, -1]])
        b = [4, 6, -10]
        r = minimize([3, 2, 10], A, b)
        assert r.status == OPTIMAL
        for row, rhs in zip(A, b):
            assert sum(a * x for a, x in zip(row, r.x)) >= rhs - 1e-9
        assert all(x >= -1e-9 for x in r.x)

    def test_iteration_cap_reported(self):
        r = minimize([1, 1, 2], with_slack([[1, 0], [0, 1], [1, 1]]), [1, 1, 3], max_iter=1)
        assert r.status == ITERATION_LIMIT

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            minimize([1, 2], [[1]], [0])


def assert_exact_optimum(r, c, A, b):
    """An exact optimum is rational, nonnegative, feasible and priced exactly."""
    assert r.status == OPTIMAL
    assert all(type(v) is Fraction for v in r.x) and type(r.objective) is Fraction
    assert all(v >= 0 for v in r.x)
    for row, rhs in zip(A, b):
        assert sum(a * v for a, v in zip(row, r.x)) >= rhs
    assert sum(ci * v for ci, v in zip(c, r.x)) == r.objective


class TestExactPath:
    def test_matches_float(self):
        A = with_slack([[1, 2], [3, 1]])
        b = [3, 4]
        c = [1, 1, 1]
        rf = minimize(c, A, b)
        rx = minimize(*exact(c, A, b))
        assert rx.status == OPTIMAL
        assert rx.objective == 2
        assert abs(rf.objective - 2) < 1e-9
        assert_exact_optimum(rx, c, A, b)

    def test_exact_beale(self):
        A = [[Fraction(-1, 4), 60, Fraction(1, 25), -9],
             [Fraction(-1, 2), 90, Fraction(1, 50), -3],
             [0, 0, -1, 0]]
        b = [0, 0, -1]
        c = [Fraction(-3, 4), 150, Fraction(-1, 50), 6]
        r = minimize(*exact(c, A, b))
        assert r.status == OPTIMAL
        assert r.objective == Fraction(-1, 20)
        assert_exact_optimum(r, c, A, b)

    def test_exact_unbounded(self):
        r = minimize(*exact([-1, 0], [[0, 1]], [0]))
        assert r.status == UNBOUNDED

    def test_negative_rhs_only_needs_no_phase_one(self):
        r = minimize(*exact([2, 1], [[-1, -1]], [-5]))
        assert r.status == OPTIMAL
        assert r.objective == 0
        assert_exact_optimum(r, [2, 1], [[-1, -1]], [-5])


EXACT = pytest.mark.parametrize("exact_data", [False, True])


def solve(exact_data, c, A, b):
    """``minimize`` on float data, or exactly on the same data as object arrays."""
    return minimize(*(exact(c, A, b) if exact_data else (c, A, b)))


class TestWarmStart:
    # min t + x1 + x2  st  x1 + 2·x2 + t >= 3,  3·x1 + x2 + t >= 4,  -x1 + t >= -1
    A = with_slack([[1, 2], [3, 1], [-1, 0]])
    b = [3, 4, -1]
    c = [1, 1, 1]

    @EXACT
    def test_warm_equals_cold(self, exact_data):
        # the optimum 2 sits at x1 = x2 = 1, t = 0, where the slack has left the basis
        warm = solve(exact_data, self.c, self.A, self.b)
        assert warm.status == OPTIMAL
        assert abs(warm.objective - 2) < 1e-9
        if exact_data:
            assert warm.objective == 2
            assert_exact_optimum(warm, self.c, self.A, self.b)

    def test_exact_warm_fractional_optimum(self):
        # min t  st  t >= 1 - x,  t >= 2x: the optimum x = 1/3, t = 2/3 is not integral
        A = with_slack([[1], [-2]])
        b = [1, 0]
        c = [0, 1]
        warm = minimize(*exact(c, A, b))
        assert warm.x == [Fraction(1, 3), Fraction(2, 3)]
        assert warm.objective == Fraction(2, 3)
        assert_exact_optimum(warm, c, A, b)

    @EXACT
    def test_warm_detects_unbounded(self, exact_data):
        r = solve(exact_data, [-1, 0], with_slack([[1]]), [2])
        assert r.status == UNBOUNDED

    def test_detected_column_gives_exact_optimum(self):
        # column 1 is the only all-ones column; it enters at the row of b = 2
        c, A, b = [0, 1], [[1, 1], [2, 1]], [1, 2]
        r = minimize(*exact(c, A, b))
        assert r.objective == 0
        assert_exact_optimum(r, c, A, b)

    @EXACT
    def test_last_all_ones_column_enters(self, exact_data):
        # both columns are all ones; the start x = (0, 2) is already optimal
        r = solve(exact_data, [0, 0], [[1, 1]], [2])
        assert (r.status, r.x, r.iterations) == (OPTIMAL, [0, 2], 0)

    @EXACT
    @pytest.mark.parametrize("lp", [
        ([1, 1], [[1, 2], [3, 1]], [3, 4]),   # feasible, optimum 2
        ([1], [[1], [-1]], [2, -1]),          # infeasible
    ], ids=["feasible", "infeasible"])
    def test_positive_rhs_without_all_ones_column_is_rejected(self, exact_data, lp):
        with pytest.raises(DomainError, match="all-ones column"):
            solve(exact_data, *lp)


def random_lps(count, seed=20071):
    """Small integer LPs min c·x st A x ≥ b, x ≥ 0 that ``minimize`` accepts.

    Half of them have b ≤ 0 and no all-ones column; the other half are the
    same A with a uniform slack appended and any b.
    """
    rng = random.Random(seed)
    for _ in range(count):
        m, nv = rng.randint(1, 6), rng.randint(1, 6)
        A = [[rng.randint(-4, 4) for _ in range(nv)] for _ in range(m)]
        A[0] = [2 if v == 1 else v for v in A[0]]   # so no column of A is all ones
        c = [rng.randint(-3, 3) for _ in range(nv)]
        yield c, A, [rng.randint(-5, 0) for _ in range(m)]
        yield c + [rng.randint(0, 3)], with_slack(A), [rng.randint(-5, 5) for _ in range(m)]


class TestAgainstHiGHS:
    """Statuses and optimal objectives agree with scipy's HiGHS on random LPs."""

    @staticmethod
    def highs_reference(c, A, b):
        linprog = pytest.importorskip("scipy.optimize").linprog
        A_ub = [[-a for a in row] for row in A]
        b_ub = [-v for v in b]

        def highs(cost):
            return linprog(cost, A_ub=A_ub, b_ub=b_ub, bounds=(0, None), method="highs")

        # every instance is feasible; HiGHS's presolve can still report an
        # unbounded model as infeasible
        assert highs([0] * len(c)).status == 0, (c, A, b)
        result = highs(c)
        if result.status in (2, 3):
            return UNBOUNDED, None
        assert result.status == 0, result.message
        return OPTIMAL, result.fun

    def test_known_presolve_case_is_unbounded(self):
        A = with_slack([[1, -4, -1, -4, -1, 1], [2, 3, 3, -1, 3, -1],
                        [0, 2, 3, 0, -3, 3], [-1, 0, -3, 0, -4, 1]])
        b = [-5, -2, 0, 4]
        c = [0, -3, -2, -2, 3, -1, 1]
        assert self.highs_reference(c, A, b) == (UNBOUNDED, None)
        for exact_data in (False, True):
            assert solve(exact_data, c, A, b).status == UNBOUNDED

    def test_random_instances_agree(self):
        solves = 0
        for c, A, b in random_lps(300):
            status, objective = self.highs_reference(c, A, b)
            for exact_data in (False, True):
                r = solve(exact_data, c, A, b)
                assert r.status == status, (c, A, b, exact_data)
                if status == OPTIMAL:
                    assert float(r.objective) == pytest.approx(objective, rel=1e-9, abs=1e-9)
                    if exact_data:
                        assert_exact_optimum(r, c, A, b)
                solves += 1
        assert solves == 1200
