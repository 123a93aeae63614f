import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extconv import scalars, shapespace
from extconv.errors import DomainError
from extconv.exterior import KForm, subsets, wedge_rows
from extconv.polyform import Poly
from extconv.projection import map_plan, minor_power_map
from extconv.shapespace import (MinorTable, ShapeMatrix, adjugate, det_rows, minor_layout,
                                minor_plan, minors_at, table_inner, tensor)

from oracles import (checked_ranks, dense_inner, drawn_table, laplace_residual, perm_det,
                     plan_cells, rand_exact, reference_minors_at)


def rand_int_matrix(n, k, rng, lo=-5, hi=5):
    return ShapeMatrix(n, k, [[rng.randint(lo, hi) for _ in range(n)]
                              for _ in range(math.comb(n, k - 1))])


class TestShapeMatrix:
    def test_shape_validation(self):
        with pytest.raises(DomainError):
            ShapeMatrix(4, 2, [[1, 2, 3, 4]])
        with pytest.raises(DomainError):
            ShapeMatrix(3, 1)

    def test_entry_by_label(self):
        X = ShapeMatrix(3, 2, [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        assert X.entry((2,), 3) == 6
        with pytest.raises(DomainError):
            X.entry((2,), 4)

    @pytest.mark.parametrize("label", [(1, 2), (), (1, 2, 3)])
    def test_entry_rejects_row_label_of_wrong_length(self, label):
        # a (4,2) matrix has rows labelled by 1-index sets; a rank alone would
        # read some other row for a label of another length
        X = ShapeMatrix(4, 2, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        with pytest.raises(DomainError, match="row label length"):
            X.entry(label, 1)

    def test_json_roundtrip(self):
        X = ShapeMatrix(3, 2, [[1, Fraction(1, 2), 0], [0, -2, 3], [1, 1, 1]])
        blob = X.to_json()
        assert blob["rows"] == ["1", "2", "3"]
        assert ShapeMatrix.from_json(blob) == X

    def test_json_rejects_reordered_rows(self):
        blob = {"n": 3, "k": 2, "rows": ["2", "1", "3"],
                "data": [[0] * 3 for _ in range(3)]}
        with pytest.raises(DomainError):
            ShapeMatrix.from_json(blob)


class TestTensor:
    def test_single_slot(self):
        out = tensor(KForm.basis(3, (1,)), KForm.basis(3, (2,)))
        assert out.entry((1,), 2) == 1
        assert sum(1 for row in out.entries for v in row if v != 0) == 1

    def test_zero_factor(self):
        z = tensor(KForm.zero(3, 1), KForm.basis(3, (2,)))
        assert all(v == 0 for row in z.entries for v in row)

    def test_plain_vector_second_factor(self):
        a = KForm.basis(3, (1,)) + KForm.basis(3, (3,)).scale(2)
        assert tensor(a, [1, 0, -1]) == tensor(a, KForm.basis(3, (1,)) - KForm.basis(3, (3,)))

    def test_rank_one(self):
        rng = random.Random(0)
        a = KForm(4, 1, [rand_exact(rng) for _ in range(4)])
        b = KForm(4, 1, [rand_exact(rng) for _ in range(4)])
        X = tensor(a, b)
        for r0, r1 in itertools.combinations(range(4), 2):
            for c0, c1 in itertools.combinations(range(4), 2):
                assert X.entries[r0][c0] * X.entries[r1][c1] \
                    == X.entries[r0][c1] * X.entries[r1][c0]

    def test_wrong_degree_rejected(self):
        with pytest.raises(DomainError):
            tensor(KForm.basis(3, (1,)), KForm.basis(3, (1, 2)))


def det_of_one(rows, backend=scalars.EXACT):
    """``det_rows`` on a stack of one matrix, its entries read as ``backend`` scalars."""
    m = len(rows)
    stack = scalars.array(np.array(rows, dtype=object).reshape(1, m, m), (1, m, m), backend,
                          "determinant entries")
    return det_rows(stack).item()


class TestDet:
    """``det_rows`` on stacks of one, against the permutation expansion."""

    def test_small_sizes_against_permutation_expansion(self):
        rng = random.Random(1)
        for size in range(1, 6):
            for _ in range(10):
                rows = [[rng.randint(-6, 6) for _ in range(size)] for _ in range(size)]
                assert det_of_one(rows) == perm_det(rows)

    def test_fraction_entries(self):
        rng = random.Random(2)
        for size in (4, 5):
            rows = [[rand_exact(rng) for _ in range(size)] for _ in range(size)]
            assert det_of_one(rows) == perm_det(rows)

    def test_singular(self):
        rows = [[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 0, 1], [1, 0, 1, 0]]
        assert det_of_one(rows) == 0

    def test_float_path(self):
        rows = [[1.0, 2.0, 0.5, 0.0], [0.0, 1.0, 2.0, 1.0],
                [3.0, 0.0, 1.0, 2.0], [1.0, 1.0, 0.0, 1.0]]
        assert abs(det_of_one(rows, scalars.FLOAT) - perm_det(rows)) < 1e-9

    def test_numpy_integers_do_not_wrap(self):
        big = np.int64(2 ** 40)
        got = det_of_one([[big, 0], [0, big]])
        assert got == 2 ** 80 and type(got) is int
        assert det_of_one(np.array([[big, 1], [-1, big]])) == 2 ** 80 + 1

    def test_empty_matrix(self):
        assert det_of_one([]) == 1


def singular(rng, size, entry):
    """A random matrix whose last row is a combination of the others."""
    rows = [[entry(rng) for _ in range(size)] for _ in range(size - 1)]
    weights = [entry(rng) for _ in rows]
    return rows + [[sum(w * row[c] for w, row in zip(weights, rows)) for c in range(size)]]


class TestDetRows:
    KINDS = {
        "int": lambda rng: rng.randint(-6, 6),
        "fraction": lambda rng: Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
        "mixed": lambda rng: rng.choice([rng.randint(-6, 6),
                                         Fraction(rng.randint(-9, 9), rng.randint(1, 7))]),
    }

    @pytest.mark.parametrize("kind", sorted(KINDS))
    @pytest.mark.parametrize("size", range(7))
    def test_against_permutation_expansion(self, size, kind):
        rng, entry = random.Random(30 + size), self.KINDS[kind]
        mats = [[[entry(rng) for _ in range(size)] for _ in range(size)] for _ in range(6)]
        if size:
            mats += [singular(rng, size, entry) for _ in range(3)]
        got = det_rows(np.array(mats, dtype=object).reshape(len(mats), size, size))
        assert got.tolist() == [perm_det(mat) for mat in mats]
        if size:
            assert got.tolist()[-3:] == [0, 0, 0]

    @pytest.mark.parametrize("size", range(1, 7))
    def test_floats_near_exact_value_of_same_floats(self, size):
        rng = random.Random(40 + size)
        stack = np.array([[[rng.uniform(-2.0, 2.0) for _ in range(size)] for _ in range(size)]
                          for _ in range(20)])
        exact = [perm_det([[Fraction(v) for v in row] for row in mat]) for mat in stack.tolist()]
        assert det_rows(stack).dtype == float
        for got, want in zip(det_rows(stack).tolist(), exact):
            assert abs(Fraction(got) - want) < 1e-9

    @pytest.mark.parametrize("dtype", [object, float])
    def test_batch_across_chunk_seams(self, dtype):
        # a plan's level gathers _GATHER_BUDGET entries per chunk, s per cell;
        # 2.5 chunks of order-3 minors must equal one unchunked stack, bit for
        # bit for floats
        rng = random.Random(50)
        size, s = 7, 3
        entries = np.array([[rng.randint(-5, 5) if dtype is object else rng.uniform(-2, 2)
                             for _ in range(size)] for _ in range(size)], dtype=dtype)
        count = 5 * (shapespace._GATHER_BUDGET // s) // 2
        rows = np.array([sorted(rng.sample(range(size), s)) for _ in range(count)])
        cols = np.array([sorted(rng.sample(range(size), s)) for _ in range(count)])
        got = minors_at(entries, minor_plan(rows, cols, entries.shape))
        whole = det_rows(entries[rows[:, :, None], cols[:, None, :]])
        assert got.shape == (count,) and got.tolist() == whole.tolist()
        for i in range(0, count, 97):
            sub = [[entries[r, c] for c in cols[i]] for r in rows[i]]
            assert abs(got[i] - perm_det(sub)) < 1e-9

    @pytest.mark.parametrize("dtype", [object, float])
    def test_empty_batch(self, dtype):
        assert det_rows(np.empty((0, 3, 3), dtype=dtype)).shape == (0,)
        positions = np.empty((0, 2), dtype=np.intp)
        plan = minor_plan(positions, positions, (4, 4))
        assert minors_at(np.ones((4, 4), dtype=dtype), plan).shape == (0,)

    def test_non_square_rejected(self):
        for bad in (np.zeros((2, 3)), np.zeros((4, 3, 2), dtype=object), np.zeros(3)):
            with pytest.raises(DomainError):
                det_rows(bad)
        with pytest.raises(DomainError):
            det_rows(np.array([[[1, 2]]], dtype=object))

    @pytest.mark.parametrize("size", range(1, 6))
    def test_wedge_of_rows_is_the_determinant(self, size):
        # a third route: the rows of M read as 1-forms on R^s wedge to det(M)·e^{1…s}
        rng = random.Random(60 + size)
        stack = np.array([[[rand_exact(rng) for _ in range(size)] for _ in range(size)]
                          for _ in range(8)], dtype=object)
        acc = stack[:, 0, :]
        for i in range(1, size):
            acc = wedge_rows(acc, stack[:, i, :], size, i, 1)
        assert acc.shape == (8, 1)
        assert det_rows(stack).tolist() == acc[:, 0].tolist()


def largest_narrowed(s):
    """The largest B with s!·B^s below ``scalars.INT64_LIMIT``."""
    B = round((scalars.INT64_LIMIT / math.factorial(s)) ** (1 / s))
    while math.factorial(s) * B ** s >= scalars.INT64_LIMIT:
        B -= 1
    while math.factorial(s) * (B + 1) ** s < scalars.INT64_LIMIT:
        B += 1
    return B


def all_minors(entries, s):
    """Every order-s minor of ``entries``, by ``minors_at`` on the plan of every
    cell and by ``det_rows`` on the gathered submatrices, which never narrows."""
    rows, cols = subsets(entries.shape[0], s), subsets(entries.shape[1], s)
    cells = np.repeat(rows, len(cols), axis=0), np.tile(cols, (len(rows), 1))
    return minors_at(entries, minor_plan(*cells, entries.shape)).reshape(len(rows), len(cols)), \
        det_rows(entries[rows[:, None, :, None], cols[None, :, None, :]])


class TestNarrowedMinors:
    """Python int entries whose minors provably fit are expanded in int64."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 2), st.booleans(), st.data())
    def test_equal_object_minors_on_each_side_of_the_cutoff(self, s, extra, above, data):
        size = s + extra
        B = largest_narrowed(s) + above
        values = data.draw(st.lists(st.integers(-B, B), min_size=size * size,
                                    max_size=size * size))
        values[data.draw(st.integers(0, size * size - 1))] = data.draw(st.sampled_from([B, -B]))
        entries = np.array(values, dtype=object).reshape(size, size)
        got, want = all_minors(entries, s)
        assert got.dtype == (object if above else np.int64)
        assert want.dtype == object and got.tolist() == want.tolist()

    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_extreme_minor_at_the_cutoff_is_exact(self, s):
        # every entry ±B with the sign pattern of a Hadamard-like matrix: the
        # largest minors the bound lets through, computed in int64
        B = largest_narrowed(s)
        signs = np.array([[(-1) ** bin(r & c).count("1") for c in range(s)] for r in range(s)])
        entries = np.array((signs * B).tolist(), dtype=object)
        got, _ = all_minors(entries, s)
        assert got.dtype == np.int64
        assert got.tolist() == [[perm_det((signs * B).tolist())]]
        got, _ = all_minors(np.array((signs * (B + 1)).tolist(), dtype=object), s)
        assert got.dtype == object

    @pytest.mark.parametrize("other", [Fraction(1, 2), Poly.variable(3, 1)])
    def test_fractions_and_polynomials_stay_object(self, other):
        entries = np.array([[1, 2, 3], [4, 5, 6], [7, 8, 9]], dtype=object)
        entries[1, 1] = other
        got, want = all_minors(entries, 2)
        assert got.dtype == object and got.tolist() == want.tolist()

    def test_float_entries_stay_float(self):
        assert all_minors(np.eye(3), 2)[0].dtype == np.float64

    def test_stored_table_holds_python_ints(self):
        rng = random.Random(15)
        X = rand_int_matrix(6, 2, rng)
        table = adjugate(X, 3)
        assert table.values.dtype == object and not table.values.flags.writeable
        assert all(type(v) is int for v in table.values.ravel().tolist())
        for cell in range(0, table.values.size, 37):
            r, c = divmod(cell, len(table.col_sets))
            sub = [[X.entries[i, j] for j in table.col_sets[c]] for i in table.row_sets[r]]
            assert table.values.item(r, c) == perm_det(sub)


def recording_sums(monkeypatch):
    """Record (slots, shape) of every stack a plan's levels gather through
    ``signed_sum`` while the fixture is active."""
    gathered = []
    real = shapespace.signed_sum

    def recording(gather, dtype, signs, plus, minus):
        def recorded(q):
            terms = gather(q)
            gathered.append((len(signs), terms.shape))
            return terms

        return real(recorded, dtype, signs, plus, minus)

    monkeypatch.setattr(shapespace, "signed_sum", recording)
    return gathered


class TestStackedMinors:
    """``minors_at`` on a stack of matrices, (…, R, n) entries."""

    @pytest.mark.parametrize("budget", [24, 50, 100, 1 << 13])    # a 2×2 minor holds 2 slots
    @pytest.mark.parametrize("stack", [(1,), (5,), (2, 3)])
    def test_gathers_stay_in_budget(self, monkeypatch, budget, stack):
        rng = random.Random(budget + len(stack))
        entries = np.array([rng.randint(-9, 9) for _ in range(math.prod(stack) * 6 * 4)],
                           dtype=object).reshape(*stack, 6, 4)
        plan = shapespace._full_plan(6, 4, 2)
        gathered = recording_sums(monkeypatch)
        monkeypatch.setattr(shapespace, "_GATHER_BUDGET", budget)
        got = minors_at(entries, plan)
        monkeypatch.undo()
        # every level's gathers (matrices × cells × slots) stay in the budget,
        # and together take each slot of each cell once per matrix
        assert max(math.prod(shape) for _, shape in gathered) <= budget
        assert sum(math.prod(shape) for _, shape in gathered) == \
            math.prod(stack) * sum(entries_.size for entries_, *_ in plan.levels)
        assert got.shape == (*stack, 15 * 6) and got.dtype == np.int64
        for at in np.ndindex(*stack):
            assert got[at].tolist() == minors_at(entries[at], plan).tolist()

    def test_one_item_above_the_budget_is_gathered_alone(self, monkeypatch):
        entries = np.arange(3 * 16, dtype=float).reshape(3, 4, 4)
        rows = subsets(4, 3)
        plan = minor_plan(rows, rows, (4, 4))
        gathered = recording_sums(monkeypatch)
        monkeypatch.setattr(shapespace, "_GATHER_BUDGET", 4)
        got = minors_at(entries, plan)
        # a 3×3 minor's 3 slots are above the budget of 4 over 2: each level-3
        # gather holds one cell of one matrix, its first slot, then the others
        top = [shape for slots, shape in gathered if slots == 3]
        assert top == [(1, 1), (1, 1, 2)] * 12 and got.shape == (3, 4)
        assert got.tobytes() == reference_minors_at(entries, rows, rows).tobytes()

    def test_narrowing_is_decided_over_the_stack(self):
        small = np.array([[1, 2], [3, 4]], dtype=object)
        big = np.array([[1, 2], [3, 10 ** 10]], dtype=object)
        both = np.stack([small, big])
        rows = np.array([[0, 1]])
        plan = minor_plan(rows, rows, (2, 2))
        assert minors_at(small, plan).dtype == np.int64
        got = minors_at(both, plan)
        assert got.dtype == object and got.tolist() == [[-2], [10 ** 10 - 6]]


def draw_entries(kind, shape, rng):
    """Entries of one kind: ints within ±5 or ±10⁶ (whose order-3 and higher
    minors int64 declines), floats with signed zeros, Fractions or polynomials."""
    draw = {"int": lambda: rng.randint(-5, 5),
            "big": lambda: rng.randint(-10 ** 6, 10 ** 6),
            "float": lambda: rng.choice([0.0, -0.0, rng.uniform(-2, 2), rng.uniform(-2, 2)]),
            "fraction": lambda: rand_exact(rng),
            "poly": lambda: rng.randint(-2, 2) * Poly.variable(3, rng.randint(1, 3))
            + rng.randint(-2, 2)}[kind]
    values = [draw() for _ in range(math.prod(shape))]
    return np.array(values, dtype=float if kind == "float" else object).reshape(shape)


def same_minors(got, want):
    """Equal minors: floats bit for bit, exact values by value, in one dtype."""
    assert got.dtype == want.dtype and got.shape == want.shape
    if got.dtype == float:
        assert got.tobytes() == want.tobytes()
    else:
        assert got.tolist() == want.tolist()


class TestMinorPlan:
    """Minor plans against the kernel they replaced, ``reference_minors_at``:
    every submatrix gathered whole and expanded on its own."""

    FULL = [(6, 2, 3), (8, 4, 2), (10, 2, 5), (12, 2, 3), (6, 2, 1), (6, 2, 6)]
    MAPS = [(6, 2, 3), (8, 4, 2), (10, 2, 5), (12, 2, 3)]

    @pytest.mark.parametrize("kind", ["int", "big", "float"])
    @pytest.mark.parametrize("n,k,s", FULL)
    def test_full_layouts_equal_the_reference(self, n, k, s, kind):
        rows, cols = minor_layout(n, k, s)
        entries = draw_entries(kind, (2, math.comb(n, k - 1), n), random.Random(n * k * s))
        got = minors_at(entries, shapespace._full_plan(math.comb(n, k - 1), n, s))
        same_minors(got, reference_minors_at(entries, rows[:, None], cols[None]).reshape(2, -1))
        if kind == "big" and s >= 3:
            assert got.dtype == object

    @pytest.mark.parametrize("stack", [(1,), (5,), (2, 3)])
    @pytest.mark.parametrize("kind", ["int", "big", "float"])
    @pytest.mark.parametrize("n,k,s", MAPS)
    def test_map_cells_equal_the_reference(self, n, k, s, kind, stack):
        pm = minor_power_map(n, k, s)
        rng = random.Random(len(stack) + s)
        entries = draw_entries(kind, (*stack, math.comb(n, k - 1), n), rng)
        got = minors_at(entries, map_plan(n, k, s))
        same_minors(got, reference_minors_at(entries, pm.rows.reshape(-1, s),
                                             pm.cols.reshape(-1, s)))

    @pytest.mark.parametrize("kind", ["fraction", "poly"])
    def test_exact_kinds_equal_the_reference(self, kind):
        entries = draw_entries(kind, (2, 6, 6), random.Random(7))
        rows, cols = minor_layout(6, 2, 3)
        same_minors(minors_at(entries, shapespace._full_plan(6, 6, 3)),
                    reference_minors_at(entries, rows[:, None], cols[None]).reshape(2, -1))
        pm = minor_power_map(6, 2, 3)
        same_minors(minors_at(entries, map_plan(6, 2, 3)),
                    reference_minors_at(entries, pm.rows.reshape(-1, 3), pm.cols.reshape(-1, 3)))

    @pytest.mark.parametrize("n,k,s", MAPS + [(8, 2, 4)])
    def test_each_level_holds_each_sub_minor_once(self, n, k, s):
        pm = minor_power_map(n, k, s)
        layout = map(np.ndarray.tolist, minor_layout(n, k, s))
        for plan, top in ((map_plan(n, k, s), list(zip(pm.rows.reshape(-1, s).tolist(),
                                                        pm.cols.reshape(-1, s).tolist()))),
                          (shapespace._full_plan(math.comb(n, k - 1), n, s),
                           list(itertools.product(*layout)))):
            levels = plan_cells(plan, n)
            assert levels[-1] == [(tuple(R), tuple(C)) for R, C in top]
            for cells in levels[:-1]:
                assert len(set(cells)) == len(cells)

    @pytest.mark.parametrize("shape,s", [((6, 6), 3), ((56, 8), 2), ((10, 10), 5), ((5, 3), 1)])
    def test_full_plan_is_the_searched_plan(self, shape, s):
        # ranked by arithmetic or found by searching every cell's children,
        # the same cells on every level: the top in layout order, and below it
        # every sub-minor on the last rows, once
        rows, cols = subsets(shape[0], s), subsets(shape[1], s)
        searched = minor_plan(np.repeat(rows, len(cols), axis=0), np.tile(cols, (len(rows), 1)),
                              shape)
        ranked = plan_cells(shapespace._full_plan(*shape, s), shape[1])
        assert plan_cells(searched, shape[1])[-1] == ranked[-1]
        for j, (a, b) in enumerate(zip(plan_cells(searched, shape[1]), ranked), start=1):
            assert sorted(a) == b
            assert len(b) == math.comb(shape[0] - s + j, j) * math.comb(shape[1], j)

    def test_index_arrays_take_the_smallest_unsigned_type(self):
        plan = map_plan(12, 2, 3)
        assert plan.first.dtype == np.uint8
        assert [(e.dtype, c.dtype) for e, c, *_ in plan.levels] == \
            [(np.uint8, np.uint8), (np.uint8, np.uint16)]


class TestAdjugate:
    def test_order_one_is_matrix(self):
        rng = random.Random(3)
        X = rand_int_matrix(4, 2, rng)
        table = adjugate(X, 1)
        for r in range(4):
            for c in range(4):
                assert table.value((r,), (c,)) == X.entries[r][c]

    def test_two_by_two_full_order(self):
        X = ShapeMatrix(2, 2, [[3, 7], [2, 5]])
        assert adjugate(X, 2).value((0, 1), (0, 1)) == 1

    @pytest.mark.parametrize("n,k,s,refused", [(16, 2, 8, True), (12, 2, 6, True),
                                                (24, 2, 24, True), (10, 3, 3, True),
                                                (12, 2, 5, False), (12, 2, 3, False),
                                                (10, 2, 5, False)])
    def test_size_budget_is_checked_before_the_layout(self, monkeypatch, n, k, s, refused):
        # table cells plus the sub-minors of the plan, by arithmetic alone:
        # (24,2,24) is a one-cell table whose plan takes 2^24 − 1 cells
        class Listed(Exception):
            pass

        def listed(*args, **kwargs):
            raise Listed

        monkeypatch.setattr(shapespace, "minor_layout", listed)
        with pytest.raises(DomainError if refused else Listed):
            adjugate(ShapeMatrix(n, k), s)
        nrows = math.comb(n, k - 1)
        cells = sum(math.comb(nrows - s + j, j) * math.comb(n, j) for j in range(1, s + 1))
        assert (cells > shapespace.ADJUGATE_CELLS) == refused

    def test_three_by_three_cell(self):
        X = ShapeMatrix(3, 2, [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        assert adjugate(X, 2).value((0, 1), (0, 1)) == 1 * 5 - 2 * 4

    def test_against_permutation_oracle(self):
        rng = random.Random(4)
        for n, k, s in [(4, 2, 2), (5, 2, 3), (6, 2, 3), (6, 4, 2), (5, 3, 3)]:
            X = rand_int_matrix(n, k, rng)
            table = adjugate(X, s)
            for row_set in table.row_sets:
                for col_set in table.col_sets:
                    sub = [[X.entries[r][c] for c in col_set] for r in row_set]
                    assert table.value(row_set, col_set) == perm_det(sub)

    def test_order_four_vs_oracle(self):
        rng = random.Random(5)
        X = ShapeMatrix(5, 2, [[rand_exact(rng) for _ in range(5)] for _ in range(5)])
        table = adjugate(X, 4)
        for row_set in table.row_sets:
            for col_set in table.col_sets:
                sub = [[X.entries[r][c] for c in col_set] for r in row_set]
                assert table.value(row_set, col_set) == perm_det(sub)

    def test_rank_one_higher_minors_vanish(self):
        rng = random.Random(6)
        for n, k in [(4, 2), (5, 3)]:
            a = KForm(n, k - 1, [rand_exact(rng) for _ in range(math.comb(n, k - 1))])
            b = KForm(n, 1, [rand_exact(rng) for _ in range(n)])
            X = tensor(a, b)
            for s in (2, 3):
                if s <= min(n, math.comb(n, k - 1)):
                    assert all(v == 0 for row in adjugate(X, s).values for v in row)

    def test_order_out_of_range(self):
        rng = random.Random(7)
        X = rand_int_matrix(4, 2, rng)
        with pytest.raises(DomainError):
            adjugate(X, 0)
        with pytest.raises(DomainError):
            adjugate(X, 5)


class TestLaplaceResidual:
    def test_cofactor_expansion_order_one(self):
        rng = random.Random(8)
        X = rand_int_matrix(4, 2, rng)
        assert laplace_residual(adjugate(X, 2), adjugate(X, 1), X, 1) == 0

    def test_zero_for_every_position(self):
        rng = random.Random(9)
        for n, k, s in [(6, 2, 2), (5, 3, 2), (5, 2, 3)]:
            X = rand_int_matrix(n, k, rng)
            t_next, t = adjugate(X, s), adjugate(X, s - 1) if s > 1 else None
            if t is None:
                continue
            for pos in range(1, s + 1):
                assert laplace_residual(t_next, t, X, pos) == 0

    def test_perturbation_detected(self):
        rng = random.Random(10)
        X = rand_int_matrix(4, 2, rng)
        t1, t2 = adjugate(X, 1), adjugate(X, 2)
        values = [list(row) for row in t2.values]
        values[t2.row_sets.tolist().index([0, 2])][t2.col_sets.tolist().index([1, 3])] += 1
        bad = MinorTable(4, 2, 2, values)
        assert laplace_residual(bad, t1, X, 1) == 1
        assert laplace_residual(bad, t1, X, 2) == 1

    def test_provenance_mismatch_rejected(self):
        rng = random.Random(11)
        X = rand_int_matrix(4, 2, rng)
        Y = rand_int_matrix(5, 2, rng)
        with pytest.raises(DomainError):
            laplace_residual(adjugate(X, 2), adjugate(Y, 1), X, 1)
        with pytest.raises(DomainError):
            laplace_residual(adjugate(X, 2), adjugate(X, 2), X, 1)
        with pytest.raises(DomainError):
            laplace_residual(adjugate(X, 2), adjugate(X, 1), X, 3)


class TestMinorTable:
    def test_inner_product(self):
        rng = random.Random(12)
        X = rand_int_matrix(4, 2, rng)
        Y = rand_int_matrix(4, 2, rng)
        a, b = adjugate(X, 2), adjugate(Y, 2)
        expected = sum(a.value(rs, cs) * b.value(rs, cs)
                       for rs in a.row_sets for cs in a.col_sets)
        assert table_inner(a, b) == expected

    @pytest.mark.parametrize("k", [0, 1, 4])
    def test_degree_out_of_range_refused(self, k):
        # 2 ≤ k ≤ n, as for a shape matrix: k = 1 has no shape matrix (its row
        # label would be ""), and k = 0 has no row positions at all
        with pytest.raises(DomainError, match="2 ≤ k ≤ n"):
            MinorTable(3, k, 1, [[1, 2, 3]])
        with pytest.raises(DomainError, match="2 ≤ k ≤ n"):
            minor_layout(3, k, 1)

    def test_tables_of_one_space_share_one_layout(self):
        rng = random.Random(15)
        a = adjugate(rand_int_matrix(5, 2, rng), 3)
        b = MinorTable(5, 2, 3, [[0] * len(a.col_sets) for _ in a.row_sets])
        row_sets, col_sets = minor_layout(5, 2, 3)
        assert a.row_sets is b.row_sets is row_sets and a.col_sets is b.col_sets is col_sets

    def test_unknown_cell_rejected(self):
        rng = random.Random(13)
        table = adjugate(rand_int_matrix(4, 2, rng), 2)
        with pytest.raises(DomainError):
            table.value((0,), (1,))

    @pytest.mark.parametrize("row_set,col_set", [
        ((1, 0), (0, 1)), ((0, 1), (1, 0)),      # not increasing
        ((0, 0), (0, 1)), ((0, 1), (2, 2)),      # repeated
        ((0, 4), (0, 1)), ((0, 1), (0, 4)), ((-1, 2), (0, 1)),    # out of range
        ((0, 1, 2), (0, 1)), ((0, 1), (3,)),     # wrong length
    ])
    def test_malformed_cell_rejected(self, row_set, col_set):
        # ranking a malformed set would read some other cell without an error
        table = adjugate(rand_int_matrix(4, 2, random.Random(16)), 2)
        with pytest.raises(DomainError):
            table.value(row_set, col_set)

    def test_positions_of_any_integer_dtype(self):
        # a power map stores positions in its smallest unsigned type
        table = adjugate(rand_int_matrix(4, 2, random.Random(17)), 2)
        rows, cols = np.array([0, 2], dtype=np.uint8), np.array([1, 3], dtype=np.int32)
        assert table.value(rows, cols) == table.value((0, 2), (1, 3))

    def test_layout_is_read_only(self):
        row_sets, col_sets = minor_layout(5, 2, 3)
        assert row_sets.tolist() == [list(c) for c in itertools.combinations(range(5), 3)]
        assert col_sets.tolist() == [list(c) for c in itertools.combinations(range(5), 3)]
        assert not (row_sets.flags.writeable or col_sets.flags.writeable)

    def test_json_shape(self):
        rng = random.Random(14)
        table = adjugate(rand_int_matrix(3, 2, rng), 2)
        blob = table.to_json()
        assert blob["rows"][0] == ["1", "2"]
        assert blob["cols"][0] == [1, 2]
        assert len(blob["values"]) == len(blob["rows"])


# a float cell: zeros of both signs, values whose products underflow, and
# ordinary values whose products and sums stay far inside the float range
FLOAT_CELLS = st.one_of(st.sampled_from([0.0, -0.0, 1e-200, -1e-200, 5e-324]),
                        st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))


def float_table(draw, space):
    table = drawn_table(draw, space, FLOAT_CELLS, scalars.FLOAT)
    values = table.values.tolist()
    for r in draw(st.sets(st.integers(0, len(values) - 1))):    # whole rows of zeros
        values[r] = draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=len(values[r]),
                                  max_size=len(values[r])))
    return MinorTable(*space, values, scalars.FLOAT)


class TestTableInner:
    """``table_inner`` multiplies only the cells nonzero in both tables; the
    dense loop over every cell is the reference."""

    @settings(max_examples=40, deadline=None)
    @given(st.data(), st.sampled_from([(4, 2, 1), (4, 2, 2), (5, 3, 2)]))
    def test_float_bits_equal_the_dense_loop(self, data, space):
        a, b = (float_table(data.draw, space) for _ in range(2))
        assert table_inner(a, b).hex() == dense_inner(a, b).hex()

    def test_all_zero_float_tables_give_positive_zero(self):
        rows, cols = minor_layout(4, 2, 2)
        signs = [[(-0.0, 0.0)[(r + c) % 2] for c in range(len(cols))] for r in range(len(rows))]
        tables = [MinorTable(4, 2, 2, values, scalars.FLOAT)
                  for values in (signs, [[-0.0] * len(cols)] * len(rows))]
        for a in tables:
            for b in tables:
                assert table_inner(a, b).hex() == (0.0).hex() == dense_inner(a, b).hex()

    def test_products_that_underflow_are_summed(self):
        rows, cols = minor_layout(4, 2, 1)
        a = MinorTable(4, 2, 1, [[1e-200, -1e-200, 5e-324, 2.0]] * len(rows), scalars.FLOAT)
        b = MinorTable(4, 2, 1, [[1e-200, 1e-200, -0.5, 0.0]] * len(rows), scalars.FLOAT)
        assert table_inner(a, b).hex() == dense_inner(a, b).hex() == (0.0).hex()

    @settings(max_examples=30, deadline=None)
    @given(st.data(), st.sampled_from([(4, 2, 2), (5, 2, 3), (4, 3, 2)]))
    def test_exact_tables_equal_the_dense_loop(self, data, space):
        cells = st.one_of(st.just(0), st.integers(-9, 9),
                          st.fractions(-4, 4, max_denominator=5))
        a, b = (drawn_table(data.draw, space, cells) for _ in range(2))
        assert table_inner(a, b) == dense_inner(a, b)
        ints = drawn_table(data.draw, space, st.integers(-9, 9))
        assert type(table_inner(ints, ints)) is int
        assert table_inner(ints, ints) == dense_inner(ints, ints)

    def test_denominator_fault_breaks_the_dense_loop_oracle(self, denominator_fault):
        # denominators 2, 3 and 4: the fault takes L = 6, and reads every
        # quarter wrong
        rows, cols = minor_layout(4, 2, 2)
        a = MinorTable(4, 2, 2, [[Fraction(r - c + 1, 2 + (r + 2 * c) % 3) for c in range(6)]
                                 for r in range(6)])
        b = MinorTable(4, 2, 2, [[r + c for c in range(6)] for r in range(6)])
        assert table_inner(a, b) != dense_inner(a, b)

    def test_mismatched_tables_refused(self):
        rng = random.Random(18)
        X = rand_int_matrix(4, 2, rng)
        exact = adjugate(X, 2)
        floats = MinorTable(4, 2, 2, exact.values.astype(float), scalars.FLOAT)
        for a, b in [(exact, adjugate(X, 1)), (exact, floats),
                     (exact, adjugate(rand_int_matrix(5, 2, rng), 2)),
                     (adjugate(rand_int_matrix(4, 3, rng), 2), exact)]:
            with pytest.raises(DomainError, match="mismatched minor tables"):
                table_inner(a, b)


class TestRanks:
    """Every construction gives ``ranks`` sorted, unique and read-only, with
    every cell outside it zero."""

    check = staticmethod(checked_ranks)

    def test_nested_values(self):
        values = {"ints": [[0, 3, 0, -1], [0, 0, 0, 0], [2, 0, 0, 0], [0, 0, 0, 5]],
                  "fractions": [[Fraction(1, 2), 0, 0, Fraction(-3, 4)], [Fraction(4, 2), 0, 0, 0],
                                [0, 0, 0, 0], [0, Fraction(0, 7), 0, 1]],
                  "floats": [[0.0, -0.0, 1.5, 0.0], [-2.0, 0.0, -0.0, 0.0], [0.0] * 4,
                             [5e-324, 0.0, 0.0, -0.0]]}
        live = {"ints": [1, 3, 8, 15], "fractions": [0, 3, 4, 15], "floats": [2, 4, 12]}
        for kind, rows in values.items():
            backend = scalars.FLOAT if kind == "floats" else scalars.EXACT
            assert self.check(MinorTable(4, 2, 1, rows, backend)).tolist() == live[kind]

    def test_adjugates(self):
        rng = random.Random(31)
        X = rand_int_matrix(5, 2, rng)
        for s in (1, 2, 3):
            table = adjugate(X, s)
            assert table.values.dtype == object
            assert self.check(table).tolist() == [i for i, v in enumerate(table.values.flat) if v]
        # entries past the int64 bound take their minors in Python ints, and
        # Fraction entries stay Fractions: both reach the table as objects
        for entries in ([[rng.randint(-10 ** 12, 10 ** 12) for _ in range(5)] for _ in range(5)],
                        [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(5)]
                         for _ in range(5)]):
            table = adjugate(ShapeMatrix(5, 2, entries), 3)
            assert self.check(table).tolist() == [i for i, v in enumerate(table.values.flat) if v]

    def test_given_ranks(self):
        table = MinorTable(4, 2, 1, [Fraction(1, 2), 0, -3], ranks=[2, 7, 15])
        assert self.check(table).tolist() == [2, 7, 15]
        assert table.values.ravel().tolist() == [0, 0, Fraction(1, 2)] + [0] * 12 + [-3]
        assert not table.values.flags.writeable
        for ranks in ([7, 2, 15], [2, 2, 15], [2, 7, 16], [-1, 7, 15], [2.0, 7.0, 15.0]):
            with pytest.raises(DomainError, match="cell ranks"):
                MinorTable(4, 2, 1, [1, 2, 3], ranks=ranks)
        with pytest.raises(DomainError):
            MinorTable(4, 2, 1, [1, 2], ranks=[2, 7, 15])
        assert self.check(MinorTable(4, 2, 1, [], ranks=[])).tolist() == []

    def test_caller_ranks_are_copied(self):
        ranks = np.array([1, 4])
        table = MinorTable(4, 2, 1, [1, 2], ranks=ranks)
        ranks[0] = 0
        assert table.ranks.tolist() == [1, 4] and ranks.flags.writeable
