import hashlib
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extconv import exterior, multiindex, projection, scalars, shapespace
from extconv.errors import DomainError
from extconv.exterior import KForm, scalar_product, wedge, wedge_power
from extconv.polyform import Poly, PolyKForm, d_right, gradient, project_polynomial
from extconv.projection import (minor_power_map, project, project_rows,
                                pullback_support, right_inverse,
                                wedge_power_from_minors, wedge_power_from_minors_rows)
from extconv.shapespace import (MinorTable, ShapeMatrix, adjugate, minor_layout, table_inner,
                                tensor)

from oracles import (checked_ranks, dense_inner, dense_power_map, drawn_table, plan_cells,
                     rand_exact, reference_pullback)


def rand_int_matrix(n, k, rng, lo=-5, hi=5):
    return ShapeMatrix(n, k, [[rng.randint(lo, hi) for _ in range(n)]
                              for _ in range(math.comb(n, k - 1))])


def rand_exact_form(n, k, rng):
    return KForm(n, k, [rand_exact(rng) for _ in range(math.comb(n, k))])


def forbid_minor_layout(monkeypatch, forbidden):
    """Replace the minor layout under its name in shapespace and, where it is
    imported, in projection."""
    monkeypatch.setattr(shapespace, "minor_layout", forbidden)
    monkeypatch.setattr(projection, "minor_layout", forbidden, raising=False)


def project_by_wedge_sum(X):
    """Oracle: the wedge-sum definition Σ_i (column i as a form) ∧ e^i."""
    n, k = X.n, X.k
    total = KForm.zero(n, k, X.backend)
    for i in range(1, n + 1):
        column = KForm(n, k - 1, [row[i - 1] for row in X.entries], X.backend)
        total = total + wedge(column, KForm.basis(n, (i,), X.backend))
    return total


class TestProject:
    def test_identity_matrix_projects_to_zero(self):
        X = ShapeMatrix(2, 2, [[1, 0], [0, 1]])
        assert project(X).is_zero()

    def test_antisymmetrization_example(self):
        X = ShapeMatrix(2, 2, [[0, 5], [3, 0]])
        assert project(X) == KForm.basis(2, (1, 2)).scale(2)

    def test_k2_matches_skew_part(self):
        rng = random.Random(0)
        n = 5
        M = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        out = project(ShapeMatrix(n, 2, M))
        for i, j in itertools.combinations(range(1, n + 1), 2):
            assert out.coefficient((i, j)) == M[i - 1][j - 1] - M[j - 1][i - 1]

    def test_tensor_projects_to_wedge(self):
        rng = random.Random(1)
        for n in range(2, 7):
            for k in range(2, n + 1):
                a = rand_exact_form(n, k - 1, rng)
                b = rand_exact_form(n, 1, rng)
                assert project(tensor(a, b)) == wedge(a, b)

    def test_agrees_with_wedge_sum_definition(self):
        rng = random.Random(2)
        for n in range(2, 8):
            for k in range(2, n + 1):
                X = rand_int_matrix(n, k, rng)
                assert project(X) == project_by_wedge_sum(X)
                Y = ShapeMatrix(n, k, [[rng.uniform(-2, 2) for _ in row] for row in X.entries],
                                scalars.FLOAT)
                assert project(Y).coeffs.tolist() == project_by_wedge_sum(Y).coeffs.tolist()

    @pytest.mark.parametrize("m", [1, 7, 517])
    def test_rows_match_each_row_and_wedge_sum(self, m):
        # project is a one-row call of project_rows, so the independent route
        # is the wedge-sum definition, which never reads the projection table
        rng = random.Random(m)
        for n, k in [(2, 2), (4, 2), (5, 3), (6, 4), (8, 2)]:
            width = math.comb(n, k - 1) * n
            # zeros of both signs exercise the sign of a zero sum
            floats = np.array([[rng.choice([0.0, -0.0, rng.uniform(-2, 2), rng.uniform(-2, 2)])
                                for _ in range(width)] for _ in range(m)])
            exact = np.array([[rand_exact(rng) for _ in range(width)] for _ in range(m)],
                             dtype=object)
            for stack, backend in [(floats, scalars.FLOAT), (exact, scalars.EXACT)]:
                rows = project_rows(stack, n, k)
                assert rows.dtype == stack.dtype
                for i in range(m):
                    alone = project_rows(stack[i:i + 1], n, k)[0]
                    X = ShapeMatrix(n, k, stack[i].reshape(-1, n).tolist(), backend)
                    oracle = np.array(project_by_wedge_sum(X).coeffs, dtype=stack.dtype)
                    if backend == scalars.FLOAT:
                        assert rows[i].tobytes() == alone.tobytes() == oracle.tobytes()
                    else:
                        assert list(rows[i]) == list(alone) == list(oracle)

    def test_table_is_built_once_and_read_only(self):
        projection._projection_table.cache_clear()
        table = projection._projection_table(5, 3)
        assert projection._projection_table(5, 3) is table
        assert projection._projection_table.cache_info().misses == 1
        assert not any(array.flags.writeable for array in table)

    def test_every_projection_route_reads_the_table(self, projection_sign_fault):
        # the fault reaches project and project_polynomial, so both run the
        # one kernel; the wedge-sum and d_right routes never read the table
        rng = random.Random(8)
        X = rand_int_matrix(4, 2, rng)
        assert project(X) != project_by_wedge_sum(X)
        w = PolyKForm(4, 1, {(2,): Poly.parse("x1*x3", 4), (3,): Poly.parse("x4^3", 4)})
        assert project_polynomial(gradient(w)) != d_right(w)

    def test_linearity(self):
        rng = random.Random(3)
        X, Y = rand_int_matrix(5, 3, rng), rand_int_matrix(5, 3, rng)
        assert project(X + Y) == project(X) + project(Y)
        assert project(X.scale(7)) == project(X).scale(7)


class TestInt64Input:
    """Exact storage holds Python ints, so int64 input scaled to ~2**40 cannot wrap."""

    SCALE = 2 ** 40

    def test_form_from_int64_stays_python_int(self):
        rng = np.random.default_rng(3)
        small = rng.integers(-5, 6, size=math.comb(6, 2))
        x = KForm(6, 2, small.astype(np.int64) * self.SCALE)
        assert x.coeffs.dtype == object
        assert all(type(v) is int for v in x.coeffs.tolist())
        assert wedge_power(x, 3) == wedge_power(KForm(6, 2, small.tolist()), 3).scale(
            self.SCALE ** 3)

    @pytest.mark.parametrize("n,k,s", [(6, 2, 3), (8, 2, 4), (8, 4, 2)])
    def test_matrix_from_int64_routes_agree(self, n, k, s):
        rng = np.random.default_rng(n + k + s)
        small = rng.integers(-5, 6, size=(math.comb(n, k - 1), n))
        X = ShapeMatrix(n, k, small.astype(np.int64) * self.SCALE)
        assert X.entries.dtype == object
        assert all(type(v) is int for v in X.entries.ravel().tolist())
        direct = wedge_power(project(X), s)
        assert direct == wedge_power_from_minors(X, s)
        assert direct == wedge_power(project(ShapeMatrix(n, k, small.tolist())), s).scale(
            self.SCALE ** s)
        assert not direct.is_zero()


class TestRightInverse:
    def test_basis_slot(self):
        X = right_inverse(KForm.basis(3, (1, 2)))
        assert X.entry((1,), 2) == 1
        assert sum(1 for row in X.entries for v in row if v != 0) == 1

    def test_zero(self):
        assert all(v == 0 for row in right_inverse(KForm.zero(4, 2)).entries for v in row)

    def test_section_everywhere(self):
        rng = random.Random(4)
        for n in range(2, 7):
            for k in range(2, n + 1):
                x = rand_exact_form(n, k, rng)
                assert project(right_inverse(x)) == x

    def test_float_backend_is_exact_section(self):
        rng = random.Random(5)
        coeffs = [rng.uniform(-2, 2) for _ in range(math.comb(5, 2))]
        x = KForm(5, 2, coeffs, scalars.FLOAT)
        assert project(right_inverse(x)).coeffs.tolist() == x.coeffs.tolist()


class TestWedgePowerFromMinors:
    @pytest.mark.parametrize("n,k,s", [(4, 2, 2), (6, 2, 2), (6, 2, 3), (8, 4, 2)])
    def test_matches_direct_wedge_power(self, n, k, s):
        rng = random.Random(6)
        for _ in range(5):
            X = rand_int_matrix(n, k, rng)
            assert wedge_power_from_minors(X, s) == wedge_power(project(X), s)

    def test_fraction_entries(self):
        rng = random.Random(7)
        X = ShapeMatrix(4, 2, [[rand_exact(rng) for _ in range(4)] for _ in range(4)])
        assert wedge_power_from_minors(X, 2) == wedge_power(project(X), 2)

    def test_odd_degree_shortcut(self):
        rng = random.Random(8)
        X = rand_int_matrix(6, 3, rng)
        out = wedge_power_from_minors(X, 2)
        assert out.is_zero() and out.k == 6

    def test_power_beyond_dimension_shortcut(self):
        rng = random.Random(9)
        X = rand_int_matrix(4, 2, rng)
        out = wedge_power_from_minors(X, 3)
        assert out.is_zero() and out.k == 6
        assert wedge_power(project(X), 3).is_zero()

    def test_order_out_of_range(self):
        rng = random.Random(10)
        X = rand_int_matrix(4, 2, rng)
        with pytest.raises(DomainError):
            wedge_power_from_minors(X, 1)
        with pytest.raises(DomainError):
            wedge_power_from_minors(X, 5)

    def test_fault_hook_breaks_equality(self, sign_fault):
        rng = random.Random(11)
        X = rand_int_matrix(4, 2, rng)
        assert wedge_power_from_minors(X, 2) != wedge_power(project(X), 2)

    @pytest.mark.parametrize("n,k,s", [(4, 2, 2), (6, 2, 3), (8, 4, 2)])
    def test_minor_plan_fault_breaks_the_power_map_identity(self, minor_plan_fault, n, k, s):
        # the power map applied to adjugate's table reads the full layout's
        # plan; the wedge route runs no plan
        X = rand_int_matrix(n, k, random.Random(12))
        assert minor_power_map(n, k, s).apply(adjugate(X, s)) != wedge_power(project(X), s)
        assert wedge_power_from_minors(X, s) != wedge_power(project(X), s)

    @staticmethod
    def summed_dtypes(monkeypatch, *modules):
        """Record the dtype of every stack ``signed_sum`` reads where ``modules`` call it."""
        dtypes = []
        real_signed_sum = exterior.signed_sum

        def recording(gather, dtype, *signs):
            dtypes.append(gather(slice(0, 0)).dtype)    # the terms' own dtype
            return real_signed_sum(gather, dtype, *signs)

        for module in modules:
            monkeypatch.setattr(module, "signed_sum", recording)
        return dtypes

    @pytest.mark.parametrize("n,k,s,summed", [(8, 2, 4, np.int64), (10, 2, 5, np.int64),
                                              (16, 2, 8, object)])
    def test_int64_sum_only_under_its_bound(self, monkeypatch, n, k, s, summed):
        # minors of entries in −5..5 fit int64 at every order here; at (16,2,8)
        # s!·(12 870 slots)·s!·5^8 does not, so the sum widens to Python ints
        X = rand_int_matrix(n, k, random.Random(16))
        X = ShapeMatrix(n, k, [[5] + row[1:] if r == 0 else row
                               for r, row in enumerate(X.entries.tolist())])
        dtypes = self.summed_dtypes(monkeypatch, projection)
        out = wedge_power_from_minors(X, s)
        assert dtypes == [summed]
        assert out.coeffs.dtype == object
        assert all(type(v) is int for v in out.coeffs.tolist())
        monkeypatch.undo()
        assert out == wedge_power(project(X), s) and not out.is_zero()


class TestStackedMinorKernel:
    """``wedge_power_from_minors_rows`` is ``wedge_power_from_minors`` row by row."""

    @staticmethod
    def row_by_row(stack, n, k, s, backend):
        got = wedge_power_from_minors_rows(stack, n, k, s)
        rows = [wedge_power_from_minors(ShapeMatrix(n, k, row.reshape(-1, n), backend), s).coeffs
                for row in stack]
        assert got.shape == (len(stack), math.comb(n, k * s))
        return got, rows

    @pytest.mark.parametrize("n,k,s", [(4, 2, 2), (6, 2, 3), (8, 4, 2), (8, 2, 4), (6, 3, 2),
                                       (4, 2, 3)])
    @pytest.mark.parametrize("bound", [5, 10 ** 6])
    def test_int_stack(self, n, k, s, bound):
        rng = random.Random(n * 100 + k * 10 + s + bound)
        width = math.comb(n, k - 1) * n
        stack = np.array([[rng.randint(-bound, bound) for _ in range(width)] for _ in range(6)],
                         dtype=object)
        got, rows = self.row_by_row(stack, n, k, s, scalars.EXACT)
        assert got.dtype == object and all(type(v) is int for v in got.ravel().tolist())
        assert got.tolist() == [row.tolist() for row in rows]

    @pytest.mark.parametrize("n,k,s", [(4, 2, 2), (6, 2, 3), (8, 4, 2)])
    def test_mixed_int_and_fraction_stack(self, n, k, s):
        rng = random.Random(n + k + s)
        width = math.comb(n, k - 1) * n
        stack = np.array([[rand_exact(rng) if rng.random() < 0.3 else rng.randint(-5, 5)
                           for _ in range(width)] for _ in range(4)], dtype=object)
        got, rows = self.row_by_row(stack, n, k, s, scalars.EXACT)
        assert got.tolist() == [row.tolist() for row in rows]

    @pytest.mark.parametrize("n,k,s", [(4, 2, 2), (6, 2, 3), (8, 4, 2), (8, 2, 4), (6, 3, 2)])
    def test_float_stack_bit_for_bit(self, n, k, s):
        stack = np.random.default_rng(n * k * s).uniform(-3, 3, (5, math.comb(n, k - 1) * n))
        got, rows = self.row_by_row(stack, n, k, s, scalars.FLOAT)
        assert got.dtype == np.float64
        assert [row.tobytes() for row in got] == [row.tobytes() for row in rows]

    def test_narrowing_is_decided_over_the_stack(self, monkeypatch):
        # one entry of 10^6 in the last row keeps the whole stack's minors as objects
        rng = random.Random(3)
        stack = np.array([[rng.randint(-5, 5) for _ in range(64)] for _ in range(3)], dtype=object)
        stack[2, 5] = 10 ** 6
        narrowed = []
        real = scalars.narrow
        monkeypatch.setattr(scalars, "narrow", lambda values, bound:
                            narrowed.append(real(values, bound)) or narrowed[-1])
        got = wedge_power_from_minors_rows(stack, 8, 2, 4)
        assert narrowed and all(result is None for result in narrowed)
        monkeypatch.undo()
        assert got.tolist() == [wedge_power(project(ShapeMatrix(8, 2, row.reshape(8, 8))), 4)
                                .coeffs.tolist() for row in stack]

    def test_fault_reaches_the_stacked_kernel(self, sign_fault):
        stack = np.array([rand_int_matrix(4, 2, random.Random(t)).entries.ravel()
                          for t in range(3)], dtype=object)
        direct = exterior.wedge_power_rows(project_rows(stack, 4, 2), 4, 2, 2)
        assert wedge_power_from_minors_rows(stack, 4, 2, 2).tolist() != direct.tolist()

    def test_order_checked_before_any_work(self):
        stack = np.zeros((2, 16), dtype=object)
        for s in (0, 1, 5, True):
            with pytest.raises(DomainError):
                wedge_power_from_minors_rows(stack, 4, 2, s)


class TestLazyMinors:
    @staticmethod
    def run_plans(monkeypatch):
        """Record every minor plan the expansion runs; forbid full minor tables."""
        plans = []
        real_minors_at = projection.minors_at

        def recording_minors_at(entries, plan):
            plans.append(plan)
            return real_minors_at(entries, plan)

        def forbidden(*args, **kwargs):
            raise AssertionError("the expansion built a full minor table")

        monkeypatch.setattr(projection, "minors_at", recording_minors_at)
        monkeypatch.setattr(shapespace, "adjugate", forbidden)
        return plans

    @pytest.mark.parametrize("n,k,s,used", [(8, 2, 4, 70), (8, 4, 2, 280), (10, 2, 5, 252)])
    def test_top_degree_reads_only_used_minors(self, monkeypatch, n, k, s, used):
        X = rand_int_matrix(n, k, random.Random(20))
        plans = self.run_plans(monkeypatch)
        out = wedge_power_from_minors(X, s)
        assert "adjugate" not in vars(projection)
        monkeypatch.undo()
        assert out == wedge_power(project(X), s)
        # one plan, whose top level holds exactly the used cells, the map's,
        # and whose lower levels hold each sub-minor once
        (plan,) = plans
        pm = minor_power_map(n, k, s)
        levels = plan_cells(plan, n)
        assert len(levels) == s and len(levels[-1]) == used
        assert levels[-1] == [(tuple(R), tuple(C)) for R, C in
                              zip(pm.rows.reshape(-1, s).tolist(), pm.cols.reshape(-1, s).tolist())]
        for cells in levels:
            assert len(set(cells)) == len(cells)

    @pytest.mark.parametrize("n,k,s", [(4, 2, 3), (7, 2, 4), (6, 3, 2), (9, 3, 3)])
    def test_zero_paths_take_no_determinant(self, monkeypatch, n, k, s):
        X = rand_int_matrix(n, k, random.Random(21))
        plans = self.run_plans(monkeypatch)
        out = wedge_power_from_minors(X, s)
        assert plans == []
        assert out.is_zero() and out.k == k * s

    @pytest.mark.parametrize("n,k,s", [(6, 3, 2), (16, 3, 5), (4, 2, 3), (14, 2, 14)])
    def test_zero_paths_build_no_map(self, monkeypatch, n, k, s):
        # odd k, or s > n/k: zero at once, with no minor layout, power map or
        # partition walk (the layout alone has C(120, 5) row sets at (16,3,5))
        def forbidden(*args, **kwargs):
            raise AssertionError("the zero path built a power map")

        forbid_minor_layout(monkeypatch, forbidden)
        for name in ("minor_power_map", "block_partitions"):
            monkeypatch.setattr(projection, name, forbidden)
        out = wedge_power_from_minors(rand_int_matrix(n, k, random.Random(25)), s)
        assert out.is_zero() and out.k == k * s

    def test_map_build_lists_no_minor_layout(self, monkeypatch):
        # cells are ranked in the layout's order by arithmetic, so a map names
        # cells of a layout it never lists
        def forbidden(*args, **kwargs):
            raise AssertionError("the power map listed the minor layout")

        forbid_minor_layout(monkeypatch, forbidden)
        pm = minor_power_map.__wrapped__(10, 2, 3)    # uncached build
        monkeypatch.undo()
        row_sets, col_sets = minor_layout(10, 2, 3)
        assert pm.shape == (210, len(row_sets) * len(col_sets))
        assert pm.rows.tolist() == row_sets[pm.cells // len(col_sets)].tolist()
        assert pm.cols.tolist() == col_sets[pm.cells % len(col_sets)].tolist()

    @pytest.mark.parametrize("n,k,s", [(6, 2, 4), (5, 3, 2), (7, 3, 3)])
    def test_maps_without_slots_walk_no_partitions(self, monkeypatch, n, k, s):
        def forbidden(*args, **kwargs):
            raise AssertionError("a map without slots walked the block partitions")

        monkeypatch.setattr(projection, "block_partitions", forbidden)
        pm = minor_power_map.__wrapped__(n, k, s)    # uncached build
        assert pm.cells.size == 0
        assert len(pm.cells) == (math.comb(n, k * s) if k * s <= n else 0)

    @pytest.mark.parametrize("n,k,s", [(6, 2, 2), (8, 2, 3), (8, 4, 2), (10, 2, 5)])
    def test_plan_cells_are_distinct(self, n, k, s):
        # a cell fixes its blocks and subscripts, hence its target, so no
        # minor is read twice in one expansion
        pm = minor_power_map(n, k, s)
        cells = pm.cells.ravel().tolist()
        assert len(cells) == len(set(cells))
        assert set(pm.signs.tolist()) <= {-1, 1}
        assert pm.plus.tolist() == [i for i, v in enumerate(pm.signs) if v > 0]
        assert pm.minus.tolist() == [i for i, v in enumerate(pm.signs) if v < 0]
        assert len(pm.cells) == math.comb(n, k * s)

    def test_plan_is_cached(self):
        assert minor_power_map(8, 2, 4) is minor_power_map(8, 2, 4)

    def test_cached_map_cannot_be_mutated(self):
        pm = minor_power_map(4, 2, 2)
        for name in ("n", "k", "s", "cells", "signs", "plus", "minus"):
            with pytest.raises(AttributeError):
                setattr(pm, name, None)
        assert not any(array.flags.writeable for array in pm[3:])
        with pytest.raises(ValueError):
            pm.cells[0, 0] = 1
        with pytest.raises(ValueError):
            pm.signs[0] = 1

    @pytest.mark.parametrize("n,k,s", [(4, 2, 2), (6, 2, 3), (8, 4, 2), (9, 2, 3)])
    def test_float_routes_bit_identical(self, n, k, s):
        # both routes run one walk over the same cells with the same minors
        rng = random.Random(24)
        pm = minor_power_map(n, k, s)
        for _ in range(5):
            X = ShapeMatrix(n, k, [[rng.uniform(-2.0, 2.0) for _ in range(n)]
                                   for _ in range(math.comb(n, k - 1))], scalars.FLOAT)
            lazy, full = wedge_power_from_minors(X, s), pm.apply(adjugate(X, s))
            assert [v.hex() for v in lazy.coeffs] == [v.hex() for v in full.coeffs]


def stored_cells(power_map):
    return power_map.cells.size


class TestMinorPowerMap:
    def test_order_zero_rejected(self):
        # order 0 is out of range like any other order outside 1..min(n, C(n,k−1))
        for s in (0, -1, 5):
            with pytest.raises(DomainError):
                minor_power_map(4, 2, s)

    def test_order_one_is_projection(self):
        rng = random.Random(12)
        for n, k in [(4, 2), (5, 3), (6, 4)]:
            pm = minor_power_map(n, k, 1)
            X = rand_int_matrix(n, k, rng)
            assert pm.apply(adjugate(X, 1)) == project(X)

    def test_odd_degree_zero_map(self):
        pm = minor_power_map(6, 3, 2)
        assert all(v == 0 for row in dense_power_map(pm) for v in row)
        rng = random.Random(13)
        X = rand_int_matrix(6, 3, rng)
        assert pm.apply(adjugate(X, 2)).is_zero()

    def test_known_entry_value(self):
        # target {1,2,3,4}, cells at rows {rank({3}),rank({4})} x cols {0,1}: 2!·(−1)
        pm = minor_power_map(4, 2, 2)
        row_sets = list(itertools.combinations(range(4), 2))
        col_sets = list(itertools.combinations(range(4), 2))
        cell = row_sets.index((2, 3)) * len(col_sets) + col_sets.index((0, 1))
        assert dense_power_map(pm)[0][cell] == -2

    def test_defining_condition_on_adjugates(self):
        rng = random.Random(14)
        for n, k, s in [(4, 2, 2), (6, 2, 2), (6, 2, 3), (8, 4, 2)]:
            pm = minor_power_map(n, k, s)
            X = rand_int_matrix(n, k, rng)
            assert pm.apply(adjugate(X, s)) == wedge_power(project(X), s)

    def test_beyond_ratio_zero_map(self):
        pm = minor_power_map(4, 2, 3)
        assert pm.shape[0] == 0  # no degree-6 forms on R^4
        rng = random.Random(15)
        X = rand_int_matrix(4, 2, rng)
        assert pm.apply(adjugate(X, 3)).is_zero()

    def test_sparse_storage_matches_dense_view(self):
        pm = minor_power_map(10, 2, 3)
        assert pm.shape == (210, 14400)
        assert stored_cells(pm) == 4200  # 210 targets x 20 partitions each
        dense = dense_power_map(pm)
        assert sum(1 for row in dense for v in row if v) == 4200
        M = rand_minor_table(10, 2, 3, random.Random(22))
        flat = [v for row in M.values for v in row]
        expected = [sum(c * v for c, v in zip(row, flat) if c) for row in dense]
        assert pm.apply(M) == KForm(10, 6, expected)

    @pytest.mark.parametrize("n,k,s", [(4, 2, 1), (8, 2, 4), (8, 4, 2), (10, 2, 3),
                                       (9, 3, 1), (6, 3, 2), (4, 2, 3)])
    def test_stored_positions_name_the_cells(self, n, k, s):
        # apply reads cells, wedge_power_from_minors the stored positions: they
        # must name the same submatrices, in the layout's order
        pm = minor_power_map(n, k, s)
        row_sets, col_sets = minor_layout(n, k, s)
        assert pm.rows.shape == pm.cols.shape == pm.cells.shape + (s,)
        assert pm.rows.tolist() == [[list(row_sets[c // len(col_sets)]) for c in row]
                                    for row in pm.cells.tolist()]
        assert pm.cols.tolist() == [[list(col_sets[c % len(col_sets)]) for c in row]
                                    for row in pm.cells.tolist()]

    def test_low_orders_are_sparse(self):
        pm = minor_power_map(5, 3, 1)
        assert stored_cells(pm) == 3 * math.comb(5, 3)
        assert pm.shape == (math.comb(5, 3), math.comb(5, 2) * 5)

    # sha256 over the dtype, shape and bytes of cells, rows, cols and signs, in
    # that order, recorded before the partition walk moved to plain tuples
    MAP_DIGESTS = {
        (6, 2, 3): "6d4492e502bc8a7c519a18947df38deb929bc40723d991fa577b0477bfba0fa1",
        (8, 4, 2): "cd69ddba2f305f997186622d978634921446dacff3698da991db149680c42313",
        (10, 2, 5): "29f481605d14fa597d1c5cfc083bcc04292be95bbfbf859f5b3088234558994d",
        (12, 2, 3): "9a680a77762f9cd20a2008d9fa2ad9a16ec10baf1dfb1311405b62f9f1ac382c",
    }

    @pytest.mark.parametrize("n,k,s", sorted(MAP_DIGESTS))
    def test_map_bytes_are_pinned(self, n, k, s):
        # a float expansion sums a target's slots left to right, so the slot
        # order is behaviour, which a per-row multiset comparison would miss
        pm = minor_power_map.__wrapped__(n, k, s)    # uncached build
        digest = hashlib.sha256()
        for array in (pm.cells, pm.rows, pm.cols, pm.signs):
            digest.update(array.dtype.str.encode())
            digest.update(str(array.shape).encode())
            digest.update(array.tobytes())
        assert digest.hexdigest() == self.MAP_DIGESTS[n, k, s]

    def test_map_build_makes_no_multiindex(self):
        # the pattern is walked on plain position tuples
        pm = minor_power_map.__wrapped__(8, 4, 2)    # uncached build
        assert "MultiIndex" not in vars(projection) and "MultiIndex" not in vars(multiindex)
        assert pm.cells.tolist() == minor_power_map(8, 4, 2).cells.tolist()
        assert pm.cells.shape == (1, 280)

    def test_space_mismatch_rejected(self):
        rng = random.Random(16)
        pm = minor_power_map(4, 2, 2)
        with pytest.raises(DomainError):
            pm.apply(adjugate(rand_int_matrix(4, 2, rng), 1))


# the first 40 primes: a table whose denominators take each of them has an
# lcm past 2^200
PRIMES = [p for p in range(2, 174) if all(p % q for q in range(2, p))]

CELLS = {
    "ints": st.integers(-9, 9),
    "small denominators": st.one_of(st.integers(-9, 9), st.fractions(-4, 4, max_denominator=6)),
    "primes": st.builds(Fraction, st.integers(-9, 9), st.sampled_from(PRIMES)),
    "polynomials": st.one_of(st.integers(-3, 3),
                             st.builds(lambda c, i: c * Poly.variable(3, i),
                                       st.fractions(-2, 2, max_denominator=3).filter(bool),
                                       st.integers(1, 3))),
}


class TestApplyOracle:
    """``MinorPowerMap.apply`` sums integer numerators over one denominator;
    the dense map times the flat table, in object arithmetic (Fractions and
    polynomials as they are), is the reference, in values and in the types
    ``scalars.coerce`` gives."""

    def check(self, table):
        pm = minor_power_map(table.n, table.k, table.s)
        got = pm.apply(table).coeffs.tolist()
        want = [v if isinstance(v, Poly) else scalars.coerce(v)
                for v in (dense_power_map(pm) @ table.values.ravel()).tolist()]
        assert got == want
        # a zero polynomial of the dense sum may read as the int 0
        assert all(type(g) is type(w) for g, w in zip(got, want) if not isinstance(w, Poly))

    @settings(max_examples=40, deadline=None)
    @given(st.data(), st.sampled_from([(4, 2, 1), (4, 2, 2), (5, 2, 2), (5, 3, 1), (6, 2, 3)]),
           st.sampled_from(sorted(CELLS)))
    def test_apply_equals_the_dense_map(self, data, space, kind):
        self.check(drawn_table(data.draw, space, CELLS[kind]))

    @settings(max_examples=10, deadline=None)
    @given(st.data())
    def test_forty_prime_denominators(self, data):
        signs = data.draw(st.lists(st.sampled_from([-1, 1]), min_size=40, max_size=40))
        table = drawn_table(data.draw, (5, 2, 2), CELLS["primes"],
                            first=[Fraction(sign, p) for sign, p in zip(signs, PRIMES)])
        assert math.lcm(*(Fraction(v).denominator for v in table.values.ravel().tolist())) \
            > 2 ** 200
        self.check(table)

    def test_an_lcm_past_the_bound_keeps_fractions(self):
        # 100 distinct primes past 2^20: their lcm has ~2 000 bits, past
        # scalars._LCM_BITS, so both pairings keep their Fractions
        primes = [p for p in range(1 << 20, (1 << 20) + 3000)
                  if all(p % q for q in range(2, int(p ** 0.5) + 1))][:100]
        table = MinorTable(5, 2, 2, [[Fraction(r - c + 10, primes[10 * r + c]) for c in range(10)]
                                     for r in range(10)])
        assert scalars.integers(table.values) is None
        self.check(table)
        assert table_inner(table, table) == dense_inner(table, table)

    def test_denominator_fault_breaks_the_oracle(self, denominator_fault):
        # denominators 2, 3 and 4: the fault takes L = 6, and reads every
        # quarter wrong
        table = MinorTable(4, 2, 2, [[Fraction(r - c + 1, 2 + (r + 2 * c) % 3) for c in range(6)]
                                     for r in range(6)])
        with pytest.raises(AssertionError):
            self.check(table)


def rand_minor_table(n, k, s, rng):
    rows = list(itertools.combinations(range(math.comb(n, k - 1)), s))
    cols = list(itertools.combinations(range(n), s))
    return MinorTable(n, k, s, [[rand_exact(rng) for _ in cols] for _ in rows])


class TestPullbackSupport:
    def test_zero_forms_give_zero_tables(self):
        tables = pullback_support([KForm.zero(4, 2), KForm.zero(4, 4)])
        assert all(v == 0 for t in tables for row in t.values for v in row)

    def test_known_entries_n2(self):
        # D_1 = e^{12} on R^2: pairing with project(Y) = Y[{1},2]·1 + Y[{2},1]·(−1)
        (d1,) = pullback_support([KForm.basis(2, (1, 2))])
        assert d1.value((0,), (1,)) == 1
        assert d1.value((1,), (0,)) == -1
        assert d1.value((0,), (0,)) == 0
        rng = random.Random(17)
        Y = rand_int_matrix(2, 2, rng)
        assert table_inner(d1, adjugate(Y, 1)) \
            == scalar_product(KForm.basis(2, (1, 2)), project(Y))

    def test_adjoint_identity_on_arbitrary_tables(self):
        rng = random.Random(18)
        for _ in range(10):
            D1 = rand_exact_form(4, 2, rng)
            D2 = rand_exact_form(4, 4, rng)
            d1, d2 = pullback_support([D1, D2])
            for s, D, d in [(1, D1, d1), (2, D2, d2)]:
                M = rand_minor_table(4, 2, s, rng)
                pm = minor_power_map(4, 2, s)
                assert table_inner(d, M) == scalar_product(D, pm.apply(M))

    def test_denominator_fault_breaks_the_identity(self, denominator_fault):
        with pytest.raises(AssertionError):
            self.test_adjoint_identity_on_arbitrary_tables()

    def test_pairing_on_adjugates(self):
        rng = random.Random(19)
        D1, D2 = rand_exact_form(4, 2, rng), rand_exact_form(4, 4, rng)
        d1, d2 = pullback_support([D1, D2])
        for _ in range(5):
            Y = rand_int_matrix(4, 2, rng)
            xi = project(Y)
            assert table_inner(d1, adjugate(Y, 1)) == scalar_product(D1, xi)
            assert table_inner(d2, adjugate(Y, 2)) == scalar_product(D2, wedge_power(xi, 2))

    @pytest.mark.parametrize("n,k", [(2, 2), (4, 2), (6, 2), (6, 3), (7, 3), (8, 4)])
    def test_matches_reference_loop(self, n, k):
        rng = random.Random(20 + n * k)
        forms = [rand_exact_form(n, k * s, rng) for s in range(1, n // k + 1)]
        tables, reference = pullback_support(forms), reference_pullback(forms)
        assert tables == reference
        assert [t.to_json() for t in tables] == [t.to_json() for t in reference]
        for table in tables:
            checked_ranks(table)

    def test_float_tables_match_reference_bit_for_bit(self):
        # every zero sign included: a −0.0 coefficient, or a +0.0 one on an
        # odd cell, gives −0.0, and a dead cell +0.0
        rng = random.Random(21)
        forms = [KForm(6, 2 * s, [rng.choice([0.0, -0.0, rng.uniform(-2, 2)])
                                  for _ in range(math.comb(6, 2 * s))], scalars.FLOAT)
                 for s in (1, 2, 3)]
        tables, reference = pullback_support(forms), reference_pullback(forms)
        assert [t.to_json() for t in tables] == [t.to_json() for t in reference]
        for t, u in zip(tables, reference):
            assert t.values.dtype == np.float64
            assert t.values.tobytes() == u.values.tobytes()
            checked_ranks(t)
        assert any(np.signbit(t.values[t.values == 0]).any() for t in tables)

    def test_ranks_are_the_live_cells(self):
        # at (8,2), 1 106 of the 8 884 cells have row labels and columns that
        # are pairwise disjoint; only they are handed to the tables
        rng = random.Random(25)
        forms = [rand_exact_form(8, 2 * s, rng) for s in range(1, 5)]
        assert [len(t.ranks) for t in pullback_support(forms)] == [56, 420, 560, 70]
        assert [t.values.size for t in pullback_support(forms)] == [64, 784, 3136, 4900]

    @pytest.mark.parametrize("n,k", [(8, 4), (10, 4)])
    def test_overlapping_labels_give_zero_rows(self, n, k):
        rng = random.Random(22)
        forms = [rand_exact_form(n, k * s, rng) for s in range(1, n // k + 1)]
        d = pullback_support(forms)[1]
        labels = [set(mi) for mi in multiindex.enumerate_multiindices(n, k - 1)]
        overlapping = [bool(labels[a] & labels[b]) for a, b in d.row_sets.tolist()]
        assert any(overlapping) and not all(overlapping)
        for row, overlaps in zip(d.values.tolist(), overlapping):
            if overlaps:
                assert row == [0] * len(row)
        assert any(any(row) for row in d.values.tolist())

    @pytest.mark.parametrize("n,k", [(6, 3), (8, 4)])
    def test_adjoint_identity_beyond_k2(self, n, k):
        rng = random.Random(24)
        forms = [rand_exact_form(n, k * s, rng) for s in range(1, n // k + 1)]
        for s, D, d in zip(range(1, n // k + 1), forms, pullback_support(forms)):
            M = rand_minor_table(n, k, s, rng)
            assert table_inner(d, M) == scalar_product(D, minor_power_map(n, k, s).apply(M))

    @pytest.mark.parametrize("n,k", [(6, 3), (7, 3)])
    def test_odd_k_pairs_with_vanishing_powers(self, n, k):
        # an odd-degree ξ has ξ^2 = 0, so d_2 pairs to zero with every adjugate
        rng = random.Random(26)
        forms = [rand_exact_form(n, k * s, rng) for s in range(1, n // k + 1)]
        d1, d2 = pullback_support(forms)
        assert all(v == 0 for row in d2.values.tolist() for v in row)
        for _ in range(3):
            X = rand_int_matrix(n, k, rng)
            assert table_inner(d1, adjugate(X, 1)) == scalar_product(forms[0], project(X))
            assert table_inner(d2, adjugate(X, 2)) \
                == scalar_product(forms[1], wedge_power(project(X), 2)) == 0

    def test_routes_independent_of_partition_plan(self, monkeypatch):
        # the adjointness and wedge-power checks compare against these routes,
        # so they must run neither the power map under test, nor its partitions,
        # nor its interlace signs
        def forbidden(*args):
            raise AssertionError("partition plan used")

        monkeypatch.setattr(projection, "minor_power_map", forbidden)
        for module in (projection, multiindex):
            monkeypatch.setattr(module, "block_partitions", forbidden)
            monkeypatch.setattr(module, "sign_interlace_append", forbidden)
        rng = random.Random(23)
        for n, k in [(6, 2), (8, 4)]:
            tables = pullback_support([rand_exact_form(n, k * s, rng)
                                       for s in range(1, n // k + 1)])
            assert [t.s for t in tables] == list(range(1, n // k + 1))
            assert all(any(v != 0 for row in t.values.tolist() for v in row) for t in tables)
        # the projection's own table reads neither the partitions nor their signs,
        # so the s = 1 plan stays a second route to it
        projection._projection_table.cache_clear()
        assert not wedge_power(project(rand_int_matrix(6, 2, rng)), 3).is_zero()
        x = rand_exact_form(6, 3, rng)
        assert project(right_inverse(x)) == x
        w = PolyKForm(4, 1, {(1,): Poly.parse("x1*x2^2 - x3", 4), (3,): Poly.parse("x4^3", 4)})
        assert project_polynomial(gradient(w)) == d_right(w)

    def test_degree_mismatch_rejected(self):
        with pytest.raises(DomainError):
            pullback_support([KForm.zero(4, 2)])  # needs both s=1 and s=2 on R^4
        with pytest.raises(DomainError):
            pullback_support([KForm.zero(4, 2), KForm.zero(4, 3)])
