import random
from fractions import Fraction

import pytest

from extconv.errors import DomainError
from extconv.simplex import (INFEASIBLE, ITERATION_LIMIT, OPTIMAL, UNBOUNDED,
                             minimize)


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

    def test_infeasible(self):
        r = minimize([1], [[1], [-1]], [2, -1])
        assert r.status == INFEASIBLE

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
        A = [[2, 1], [1, 3], [-1, -1]]
        b = [4, 6, -10]
        r = minimize([3, 2], A, b)
        assert r.status == OPTIMAL
        for row, rhs in zip(A, b):
            assert sum(a * x for a, x in zip(row, r.x)) >= rhs - 1e-9
        assert all(x >= -1e-9 for x in r.x)

    def test_iteration_cap_reported(self):
        r = minimize([1, 1], [[1, 0], [0, 1], [1, 1]], [1, 1, 3], max_iter=1)
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
        A = [[1, 2], [3, 1]]
        b = [3, 4]
        rf = minimize([1, 1], A, b)
        rx = minimize([1, 1], A, b, exact=True)
        assert rx.status == OPTIMAL
        assert rx.objective == 2
        assert abs(rf.objective - 2) < 1e-9
        assert_exact_optimum(rx, [1, 1], A, b)

    def test_exact_beale(self):
        A = [[Fraction(-1, 4), 60, Fraction(1, 25), -9],
             [Fraction(-1, 2), 90, Fraction(1, 50), -3],
             [0, 0, -1, 0]]
        b = [0, 0, -1]
        c = [Fraction(-3, 4), 150, Fraction(-1, 50), 6]
        r = minimize(c, A, b, exact=True)
        assert r.status == OPTIMAL
        assert r.objective == Fraction(-1, 20)
        assert_exact_optimum(r, c, A, b)

    def test_exact_infeasible(self):
        r = minimize([0], [[1], [-1]], [3, -2], exact=True)
        assert r.status == INFEASIBLE

    def test_exact_unbounded(self):
        r = minimize([-1, 0], [[0, 1]], [0], exact=True)
        assert r.status == UNBOUNDED

    def test_negative_rhs_only_needs_no_phase_one(self):
        r = minimize([2, 1], [[-1, -1]], [-5], exact=True)
        assert r.status == OPTIMAL
        assert r.objective == 0
        assert_exact_optimum(r, [2, 1], [[-1, -1]], [-5])


def with_slack(A):
    """A with an all-ones column appended: the uniform slack of a warm start."""
    return [list(row) + [1] for row in A]


class TestWarmStart:
    # min t + x1 + x2  st  x1 + 2·x2 + t >= 3,  3·x1 + x2 + t >= 4,  -x1 + t >= -1
    A = with_slack([[1, 2], [3, 1], [-1, 0]])
    b = [3, 4, -1]
    c = [1, 1, 1]

    @pytest.mark.parametrize("exact", [False, True])
    def test_warm_equals_cold(self, exact):
        cold = minimize(self.c, self.A, self.b, exact=exact)
        warm = minimize(self.c, self.A, self.b, exact=exact, all_ones_var=2)
        assert warm.status == cold.status == OPTIMAL
        assert warm.objective == cold.objective
        if exact:
            assert warm.objective == 2
            assert_exact_optimum(warm, self.c, self.A, self.b)

    def test_exact_warm_fractional_optimum(self):
        # min t  st  t >= 1 - x,  t >= 2x: the optimum x = 1/3, t = 2/3 is not integral
        A = with_slack([[1], [-2]])
        b = [1, 0]
        c = [0, 1]
        warm = minimize(c, A, b, exact=True, all_ones_var=1)
        assert warm.x == [Fraction(1, 3), Fraction(2, 3)]
        assert warm.objective == Fraction(2, 3)
        assert_exact_optimum(warm, c, A, b)
        cold = minimize(c, A, b, exact=True)
        assert (cold.status, cold.x, cold.objective) == (warm.status, warm.x, warm.objective)

    @pytest.mark.parametrize("exact", [False, True])
    def test_warm_detects_unbounded(self, exact):
        r = minimize([-1, 0], with_slack([[1]]), [2], exact=exact, all_ones_var=1)
        assert r.status == UNBOUNDED

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("ones", [1, 2])
    def test_column_that_is_not_all_ones_is_rejected(self, exact, ones):
        with pytest.raises(DomainError):
            minimize([0, 1], [[1, 1], [1, 2]], [1, 1], exact=exact, all_ones_var=ones)

    def test_negative_index_is_not_a_column(self):
        # column -1 is all ones, but a warm start from it reported x = 0 as optimal
        with pytest.raises(DomainError):
            minimize([0, 1], [[1, 1], [2, 1]], [1, 2], all_ones_var=-1)


def random_lps(count, seed=20071):
    """Small integer LPs min c·x st A x ≥ b, x ≥ 0, half of them with a uniform slack."""
    rng = random.Random(seed)
    for _ in range(count):
        m, nv = rng.randint(1, 6), rng.randint(1, 6)
        A = [[rng.randint(-4, 4) for _ in range(nv)] for _ in range(m)]
        b = [rng.randint(-5, 5) for _ in range(m)]
        c = [rng.randint(-3, 3) for _ in range(nv)]
        yield c, A, b, None
        yield c + [rng.randint(0, 3)], with_slack(A), b, nv


class TestAgainstHiGHS:
    """Statuses and optimal objectives agree with scipy's HiGHS on random LPs."""

    @staticmethod
    def highs_reference(c, A, b):
        linprog = pytest.importorskip("scipy.optimize").linprog
        A_ub = [[-a for a in row] for row in A]
        b_ub = [-v for v in b]

        def solve(cost):
            return linprog(cost, A_ub=A_ub, b_ub=b_ub, bounds=(0, None), method="highs")

        # HiGHS's presolve can report an unbounded model as infeasible, so
        # feasibility is decided by a solve with zero cost first
        if solve([0] * len(c)).status == 2:
            return INFEASIBLE, None
        result = solve(c)
        if result.status in (2, 3):
            return UNBOUNDED, None
        assert result.status == 0, result.message
        return OPTIMAL, result.fun

    def test_known_presolve_case_is_unbounded(self):
        A = [[1, -4, -1, -4, -1, 1], [2, 3, 3, -1, 3, -1],
             [0, 2, 3, 0, -3, 3], [-1, 0, -3, 0, -4, 1]]
        b = [-5, -2, 0, 4]
        c = [0, -3, -2, -2, 3, -1]
        assert self.highs_reference(c, A, b) == (UNBOUNDED, None)
        for exact in (False, True):
            assert minimize(c, A, b, exact=exact).status == UNBOUNDED

    def test_random_instances_agree(self):
        solves = 0
        for c, A, b, ones in random_lps(300):
            status, objective = self.highs_reference(c, A, b)
            for exact in (False, True):
                r = minimize(c, A, b, exact=exact, all_ones_var=ones)
                assert r.status == status, (c, A, b, ones, exact)
                if status == OPTIMAL:
                    assert float(r.objective) == pytest.approx(objective, rel=1e-9, abs=1e-9)
                    if exact:
                        assert_exact_optimum(r, c, A, b)
                solves += 1
        assert solves == 1200
