import random
from fractions import Fraction

import numpy as np
import pytest

from extconv import scalars, simplex
from extconv.convexity import SamplerConfig, polyconvex_support_lp
from extconv.errors import DomainError
from extconv.exterior import KForm
from extconv.functions import FormFunction
from extconv.simplex import ITERATION_LIMIT, OPTIMAL, UNBOUNDED, minimize
from oracles import random_exact_form, reference_minimize


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

    @pytest.mark.parametrize("free", [-1, 3])
    def test_free_count_outside_the_variables(self, free):
        with pytest.raises(DomainError, match="free"):
            minimize([1, 2], [[1, 1]], [0], free)

    @pytest.mark.parametrize("c,free,status", [
        ([1], 0, OPTIMAL), ([-1], 0, UNBOUNDED), ([1], 1, UNBOUNDED), ([0, 2], 1, OPTIMAL),
    ])
    def test_no_constraints(self, c, free, status):
        # with no rows, any improving direction is unbounded
        r = minimize(c, [], [], free)
        assert r.status == status
        if status == OPTIMAL:
            assert r.x == [0] * len(c) and r.objective == 0


def assert_exact_optimum(r, c, A, b, free=0):
    """An exact optimum is rational, nonnegative past its free coordinates, feasible
    and priced exactly."""
    assert r.status == OPTIMAL
    assert all(type(v) is Fraction for v in r.x) and type(r.objective) is Fraction
    assert all(v >= 0 for v in r.x[free:])
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


def solve(exact_data, c, A, b, free=0):
    """``minimize`` on float data, or exactly on the same data as object arrays."""
    return minimize(*(exact(c, A, b) if exact_data else (c, A, b)), free)


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


def random_lps(count, seed=20071, free=False):
    """Small integer LPs (c, A, b, f): min c·x st A x ≥ b, x_j ≥ 0 for j ≥ f.

    Half of them have b ≤ 0 and no all-ones column; the other half are the
    same A with a uniform slack appended and any b.  With ``free`` the first
    1 ≤ f ≤ width(A) columns of A are sign-free; otherwise f = 0.
    """
    rng = random.Random(seed)
    for _ in range(count):
        m, nv = rng.randint(1, 6), rng.randint(1, 6)
        A = [[rng.randint(-4, 4) for _ in range(nv)] for _ in range(m)]
        A[0] = [2 if v == 1 else v for v in A[0]]   # so no column of A is all ones
        c = [rng.randint(-3, 3) for _ in range(nv)]
        f = rng.randint(1, nv) if free else 0
        yield c, A, [rng.randint(-5, 0) for _ in range(m)], f
        yield c + [rng.randint(0, 3)], with_slack(A), [rng.randint(-5, 5) for _ in range(m)], f


class TestAgainstHiGHS:
    """Statuses and optimal objectives agree with scipy's HiGHS on random LPs."""

    @staticmethod
    def highs_reference(c, A, b, free=0):
        linprog = pytest.importorskip("scipy.optimize").linprog
        A_ub = [[-a for a in row] for row in A]
        b_ub = [-v for v in b]
        bounds = [(None, None)] * free + [(0, None)] * (len(c) - free)

        def highs(cost):
            return linprog(cost, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs")

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
        self.assert_agree(random_lps(300))

    def test_random_free_instances_agree(self):
        self.assert_agree(random_lps(300, seed=1983, free=True))

    def assert_agree(self, lps):
        solves = 0
        for c, A, b, f in lps:
            status, objective = self.highs_reference(c, A, b, f)
            for exact_data in (False, True):
                r = solve(exact_data, c, A, b, f)
                assert r.status == status, (c, A, b, f, exact_data)
                if status == OPTIMAL:
                    assert float(r.objective) == pytest.approx(objective, rel=1e-9, abs=1e-9)
                    if exact_data:
                        assert_exact_optimum(r, c, A, b, f)
                solves += 1
        assert solves == 1200


class TestFreeVariables:
    """The first ``free`` variables are sign-free: they enter either way and never leave."""

    @EXACT
    def test_optimum_needs_a_negative_free_coordinate(self, exact_data):
        # min t  st  y + t ≥ −2,  −y + t ≥ 2: t ≥ |y + 2| is 0 only at y = −2
        c, A, b = [0, 1], [[1, 1], [-1, 1]], [-2, 2]
        r = solve(exact_data, c, A, b, 1)
        assert r.status == OPTIMAL and r.x == [-2, 0] and r.objective == 0
        if exact_data:
            assert_exact_optimum(r, c, A, b, 1)
        # with y ≥ 0 the best is y = 0, t = 2
        assert solve(exact_data, c, A, b).objective == 2

    @EXACT
    def test_degenerate_free_variable_stays_basic_under_bland(self, exact_data, monkeypatch):
        # y (id 0) enters at value 0 on the second pivot; that pivot is
        # degenerate, so with a stall limit of 0 Bland's rule takes over.  On
        # the third pivot y's row has the lowest ratio, 0, and the lowest id:
        # a free row that were not skipped would leave there.  The optimum
        # needs y = −1/2.
        c = [0, -2, 0]
        A = [[2, 0, 1], [-1, 0, 0], [-1, 1, -2], [-1, -1, 0]]
        b = [0, 0, -1, 0]
        bases = []
        pivot = simplex._pivot

        def spy(tab, *args):
            pivot(tab, *args)
            bases.append(tab.basis.tolist())

        monkeypatch.setattr(simplex, "_STALL_LIMIT", 0)
        monkeypatch.setattr(simplex, "_pivot", spy)
        r = solve(exact_data, c, A, b, 1)
        assert r.status == OPTIMAL and r.objective == -1
        assert r.x == [Fraction(-1, 2), Fraction(1, 2), 1]
        if exact_data:
            assert_exact_optimum(r, c, A, b, 1)
        assert [0 in basis for basis in bases] == [False, True, True]
        assert len(bases) == r.iterations     # b ≤ 0: no start pivot

    @EXACT
    @pytest.mark.parametrize("c,A,free", [
        ([-3, -3, 3, -3, 0],
         [[3, -1, 2, -1, 1], [2, -1, 3, 0, 2], [-2, 0, 3, -3, -1], [1, -2, 3, -3, -3]], 1),
        ([1, 3, -3, -2, 1, -3],
         [[3, -3, 2, -2, 3, 2], [-3, 3, 1, 3, 1, -3], [0, 3, -3, -2, 2, 1],
          [2, -3, -2, -1, 0, 0], [2, 3, 3, -3, -1, 2]], 0),
    ], ids=["entering", "leaving"])
    def test_bland_orders_by_variable_id(self, exact_data, c, A, free, monkeypatch):
        # columns and rows change identity on every pivot; from the first stall
        # on, Bland's rule must enter the lowest variable id (not the leftmost
        # column) and break ratio ties by the lowest basic id (not the topmost
        # row), or these degenerate instances cycle until the cap
        monkeypatch.setattr(simplex, "_STALL_LIMIT", 0)
        assert solve(exact_data, c, A, [0] * len(A), free).status == UNBOUNDED


def support_shaped_lp(width, seed, shift=0.0):
    """The support LP's shape on Gaussian data: min t over ``width`` free c and t ≥ 0
    subject to w_i·c + t ≥ b_i − shift on 3·width + 5 rows."""
    rng = np.random.default_rng(seed)
    rows = 3 * width + 5
    A = np.hstack([rng.standard_normal((rows, width)), np.ones((rows, 1))])
    return [0.0] * width + [1.0], A, rng.standard_normal(rows) - shift, width


def integer_support_shaped_lp(width, seed):
    """``support_shaped_lp(width, seed)`` with A and b rounded to integers, as
    object arrays: the same shape (free columns, t's all-ones column, a
    positive b and so the start pivot) solved exactly."""
    c, A, b, free = support_shaped_lp(width, seed)
    return (*exact(c, np.round(A).astype(int).tolist(), np.round(b).astype(int).tolist()),
            free)


def support_lp_8_2(name, seed):
    """(c, A, b, free) of ``polyconvex_support_lp`` at (8,2), base 0, with the
    benchmark's 500 samples; the function is a planted pairing or −|ξ|²."""
    if name == "planted":
        rng = random.Random(12)
        f = FormFunction.affine_combination(8, 2, [Fraction(rng.randint(-5, 5), 3)] + [
            random_exact_form(8, 2 * s, rng) for s in range(1, 5)])
    else:
        f = FormFunction.neg_norm_squared(8, 2)
    lps = []

    def record(c, A, b, free):
        lps.append((c, A, b, free))
        return simplex.LPResult(ITERATION_LIMIT, None, None, 0)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simplex, "minimize", record)
        polyconvex_support_lp(f, KForm.zero(8, 2, scalars.FLOAT),
                              SamplerConfig(seed=seed, trials=500))
    [lp] = lps
    return lp


def gaussian_lps(count, seed):
    """Small LPs (c, A, b, f) on Gaussian data, with ties only by accident: as
    ``random_lps``, half with b ≤ 0 and half with a uniform slack, and f free."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m, nv = rng.integers(1, 9, 2)
        A, c = rng.standard_normal((m, nv)), rng.standard_normal(nv)
        f = int(rng.integers(0, nv + 1))
        yield c, A, -abs(rng.standard_normal(m)), f
        yield np.append(c, abs(rng.standard_normal())), np.hstack([A, np.ones((m, 1))]), \
            rng.standard_normal(m), f


def solve_spied(monkeypatch, c, A, b, free=0, **options):
    """``minimize`` and the basis after each pivot, the start pivot's first."""
    bases = []
    pivot = simplex._pivot

    def spy(tab, *args):
        pivot(tab, *args)
        bases.append(tab.basis.tolist())

    monkeypatch.setattr(simplex, "_pivot", spy)
    return minimize(c, A, b, free, **options), bases


def assert_float_agrees(got, want):
    """Same status and iterations; x within 1e-9 of the reference's, relative to
    its largest entry."""
    assert (got.status, got.iterations) == (want.status, want.iterations)
    if want.status == OPTIMAL:
        x, x_ref = np.array(got.x), np.array(want.x)
        assert np.abs(x - x_ref).max(initial=0) <= 1e-9 * max(1.0, np.abs(x_ref).max(initial=0))


class TestBlockedUpdatesAgainstTheRankOneLoop:
    """The loop holds T = T0 − U·V and applies ``simplex._BLOCK`` pending updates
    at a time; ``oracles.reference_minimize`` applies each at its own pivot."""

    BLOCKS = [1, 2, 3, simplex._BLOCK]

    @pytest.mark.parametrize("stall_limit", [simplex._STALL_LIMIT, 0])
    @pytest.mark.parametrize("block", BLOCKS)
    def test_exact_lps_pivot_for_pivot(self, block, stall_limit, monkeypatch):
        monkeypatch.setattr(simplex, "_BLOCK", block)
        monkeypatch.setattr(simplex, "_STALL_LIMIT", stall_limit)
        solves = 0
        for free in (False, True):
            for c, A, b, f in random_lps(60, seed=4099 + block, free=free):
                got, bases = solve_spied(monkeypatch, *exact(c, A, b), f)
                want, want_bases = reference_minimize(*exact(c, A, b), f)
                assert got == want and bases == want_bases, (c, A, b, f)
                solves += got.status == OPTIMAL
        assert solves > 60

    @pytest.mark.parametrize("block", BLOCKS)
    def test_float_lps_reach_the_same_basis(self, block, monkeypatch):
        monkeypatch.setattr(simplex, "_BLOCK", block)
        for c, A, b, f in gaussian_lps(150, seed=block):
            got, bases = solve_spied(monkeypatch, c, A, b, f)
            want, want_bases = reference_minimize(c, A, b, f)
            assert_float_agrees(got, want)
            assert bases[-1:] == want_bases[-1:]

    # (width, seed, shift) of support-shaped LPs and their pivots, the start
    # pivot included: none, the start pivot alone, and both sides of one and
    # of two full blocks
    COUNTS = {(5, 0, 10.0): 0, (0, 0, 0.0): 1, (19, 7, 0.0): simplex._BLOCK - 1,
              (20, 7, 0.0): simplex._BLOCK, (21, 4, 0.0): simplex._BLOCK + 1,
              (38, 0, 0.0): 71}

    @pytest.mark.parametrize("instance", sorted(COUNTS))
    def test_pivot_counts_around_the_block(self, instance, monkeypatch):
        assert simplex._BLOCK == 32    # the counts were chosen for this block
        got, bases = solve_spied(monkeypatch, *support_shaped_lp(*instance))
        want, want_bases = reference_minimize(*support_shaped_lp(*instance))
        assert len(want_bases) == self.COUNTS[instance]
        assert_float_agrees(got, want)
        assert bases == want_bases

    @pytest.mark.parametrize("max_iter", [0, 1, 40, 45])
    def test_iteration_cap_inside_a_block(self, max_iter, monkeypatch):
        # 41 and 46 pivots with the start pivot: 9 and 14 updates into the second block
        lp = support_shaped_lp(38, 0)
        got, bases = solve_spied(monkeypatch, *lp, max_iter=max_iter)
        want, want_bases = reference_minimize(*lp, max_iter=max_iter)
        assert got == want == simplex.LPResult(ITERATION_LIMIT, None, None, max_iter)
        assert bases == want_bases and len(bases) == max_iter + 1

    @pytest.mark.parametrize("name,seed", [("planted", 1), ("planted", 3),
                                           ("neg_norm_sq", 1), ("neg_norm_sq", 3)])
    def test_full_size_support_lps_pivot_for_pivot(self, name, seed, monkeypatch):
        # the (8,2) LPs of a float-sampled round: 501 × 129 tableaux, free
        # columns and the start pivot, over several blocks
        lp = support_lp_8_2(name, seed)
        got, bases = solve_spied(monkeypatch, *lp)
        want, want_bases = reference_minimize(*lp)
        assert len(want_bases) > 3 * simplex._BLOCK
        assert_float_agrees(got, want)
        assert bases == want_bases

    @pytest.mark.parametrize("block,width,seed,pivots", [(1, 14, 0, 26), (3, 14, 0, 26),
                                                         (simplex._BLOCK, 16, 49, 37)])
    def test_exact_support_shaped_lp_pivot_for_pivot(self, block, width, seed, pivots,
                                                     monkeypatch):
        # free columns, t's all-ones column and the start pivot, solved exactly;
        # the full block takes its flush and fills part of a second one
        monkeypatch.setattr(simplex, "_BLOCK", block)
        lp = integer_support_shaped_lp(width, seed)
        got, bases = solve_spied(monkeypatch, *lp)
        want, want_bases = reference_minimize(*lp)
        assert len(want_bases) == pivots
        assert got == want and bases == want_bases

    def test_cost_row_and_masks_are_current_at_every_pivot(self, monkeypatch):
        # the cost row owes no pending update, and the row and column masks
        # follow the basis, after every pivot of exact LPs with free variables
        pivot, seen = simplex._pivot, []

        def spy(tab, *args):
            pivot(tab, *args)
            seen.append(tab)
            assert not tab.U[-1].any()
            assert tab.may_leave.tolist() == (tab.basis >= tab.free).tolist()
            assert tab.flip.tolist() == [-1 if j < tab.free else 1 for j in tab.nonbasic]

        monkeypatch.setattr(simplex, "_pivot", spy)
        monkeypatch.setattr(simplex, "_BLOCK", 3)
        for c, A, b, f in random_lps(40, seed=977, free=True):
            assert minimize(*exact(c, A, b), f) == reference_minimize(*exact(c, A, b), f)[0]
        assert len(seen) > 40

    @pytest.mark.parametrize("block", [2, 3])
    def test_exact_iteration_cap_inside_a_block(self, block, monkeypatch):
        monkeypatch.setattr(simplex, "_BLOCK", block)
        c, A, b = [-1, -1, -1, -1], [[-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0],
                                     [0, 0, 0, -1], [-1, -1, -1, -2]], [-1, -1, -1, -1, -4]
        for max_iter in range(5):
            got, bases = solve_spied(monkeypatch, *exact(c, A, b), max_iter=max_iter)
            want, want_bases = reference_minimize(*exact(c, A, b), max_iter=max_iter)
            assert got == want and bases == want_bases
        assert got.status == ITERATION_LIMIT and len(bases) == 4
        assert minimize(*exact(c, A, b)).objective == -Fraction(7, 2)
