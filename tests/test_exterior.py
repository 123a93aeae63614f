import itertools
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extconv import exterior, scalars
from extconv.errors import DomainError
from extconv.exterior import (KForm, _wedge_table, hodge_star, norm_squared, ordered_sum,
                              scalar_product, sign_table, signed_sum, subset_ranks, wedge,
                              wedge_power, wedge_power_rows, wedge_rows)
from extconv.functions import FormFunction
from extconv.multiindex import key_rank, labels
from extconv.polyform import Poly
from extconv.projection import (_projection_table, minor_power_map, project_rows,
                                wedge_power_from_minors_rows)
from extconv.shapespace import MinorTable, ShapeMatrix, adjugate, det_rows

from oracles import (coeffs_to_dict, dict_to_coeff_list, lex_ranks, rand_exact,
                     reference_power_chain, shuffle_wedge, wedge_many)


def rand_form(n, k, rng):
    return KForm(n, k, [rand_exact(rng) for _ in range(math.comb(n, k))])


class TestConstruction:
    def test_two_keys_naming_one_multiindex_rejected(self):
        with pytest.raises(DomainError):
            KForm.from_dict(3, 2, {(1, 2): 1, "1,2": 3})

    def test_coefficient_lookup(self):
        x = KForm.from_dict(4, 2, {(1, 2): 3, (3, 4): Fraction(-1, 2)})
        assert x.coefficient((1, 2)) == 3
        assert x.coefficient((3, 4)) == Fraction(-1, 2)
        assert x.coefficient((1, 3)) == 0

    def test_wrong_length_rejected(self):
        with pytest.raises(DomainError):
            KForm(4, 2, [1, 2, 3])

    def test_float_into_exact_rejected(self):
        with pytest.raises(DomainError):
            KForm(3, 1, [0.5, 0, 0])

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_float_is_refused_at_construction(self, value):
        with pytest.raises(DomainError):
            KForm(2, 1, [value, 0.0], scalars.FLOAT)
        with pytest.raises(DomainError):
            ShapeMatrix(2, 2, [[0.0, value], [0.0, 0.0]], scalars.FLOAT)
        with pytest.raises(DomainError):
            MinorTable(2, 2, 1, [[0.0, 0.0], [value, 0.0]], scalars.FLOAT)

    def test_degree_above_dimension_is_canonical_zero(self):
        z = KForm.zero(3, 5)
        assert z.coeffs.tolist() == []
        assert z.is_zero()

    def test_degree_above_dimension_prints_and_serializes(self):
        x = KForm.from_dict(4, 2, {(1, 2): 1, (3, 4): 1})
        for s in (3, 10 ** 8):
            z = wedge_power(x, s)
            assert z == KForm.zero(4, 2 * s)
            assert z.to_json() == {"n": 4, "k": 2 * s, "coeffs": {}}
            assert KForm.from_json(z.to_json()) == z
            assert repr(z) == f"KForm(n=4, k={2 * s}, {{}}, backend='exact')"
        assert wedge_power_rows(np.ones((3, 6)), 4, 2, 10 ** 8).shape == (3, 0)

    def test_json_roundtrip_exact(self):
        x = KForm.from_dict(4, 2, {(1, 2): Fraction(3, 2), (3, 4): -1})
        blob = x.to_json()
        assert blob == {"n": 4, "k": 2, "coeffs": {"1,2": "3/2", "3,4": "-1"}}
        assert KForm.from_json(blob) == x

    def test_json_roundtrip_float(self):
        x = KForm(3, 1, [0.5, -1.25, 0.0], scalars.FLOAT)
        back = KForm.from_json(x.to_json())
        assert back.backend == scalars.FLOAT
        assert back == x

    def test_json_roundtrip_degree_zero(self):
        x = KForm(5, 0, [Fraction(7, 2)])
        blob = x.to_json()
        assert blob["coeffs"] == {"": "7/2"}
        assert KForm.from_json(blob) == x


class TestWedge:
    def test_ordered_basis_product(self):
        assert wedge(KForm.basis(3, (1,)), KForm.basis(3, (2,))) == KForm.basis(3, (1, 2))

    def test_repeated_index_vanishes(self):
        e12 = KForm.basis(4, (1, 2))
        assert wedge(e12, e12).is_zero()

    def test_cross_terms_only(self):
        x = KForm.basis(4, (1, 2)) + KForm.basis(4, (3, 4))
        assert wedge(x, x) == KForm.basis(4, (1, 2, 3, 4)).scale(2)

    def test_degree_overflow_returns_zero_object(self):
        a = KForm.basis(3, (1, 2))
        out = wedge(a, a)
        assert out.k == 4 and out.n == 3 and out.is_zero()

    def test_scalar_factors(self):
        c = KForm(4, 0, [Fraction(3, 2)])
        x = KForm.basis(4, (1, 3))
        assert wedge(c, x) == x.scale(Fraction(3, 2))
        assert wedge(x, c) == x.scale(Fraction(3, 2))

    def test_mismatched_dimension_rejected(self):
        with pytest.raises(DomainError):
            wedge(KForm.basis(3, (1,)), KForm.basis(4, (2,)))

    def test_mismatched_backend_rejected(self):
        with pytest.raises(DomainError):
            wedge(KForm.basis(3, (1,)), KForm(3, 1, [0.0, 1.0, 0.0], scalars.FLOAT))

    def test_against_shuffle_oracle(self):
        rng = random.Random(5)
        for n, k, l in [(4, 1, 2), (5, 2, 2), (6, 2, 3), (6, 3, 3), (7, 1, 1)]:
            for _ in range(10):
                a, b = rand_form(n, k, rng), rand_form(n, l, rng)
                assert wedge(a, b).as_dict() == shuffle_wedge(a.as_dict(), b.as_dict())

    def test_graded_commutativity(self):
        rng = random.Random(6)
        for n in range(2, 7):
            for k in range(0, n + 1):
                for l in range(0, n - k + 1):
                    a, b = rand_form(n, k, rng), rand_form(n, l, rng)
                    ab, ba = wedge(a, b), wedge(b, a)
                    assert ab == (ba if (k * l) % 2 == 0 else -ba)

    def test_associativity(self):
        rng = random.Random(7)
        for n, degs in [(5, (1, 1, 2)), (6, (2, 2, 2)), (6, (1, 2, 3)), (4, (1, 1, 1))]:
            for _ in range(5):
                a, b, c = (rand_form(n, d, rng) for d in degs)
                assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


class TestWedgePower:
    def test_zeroth_power_is_unit(self):
        x = KForm.basis(5, (1, 2))
        assert wedge_power(x, 0) == KForm(5, 0, [1])

    def test_odd_degree_square_vanishes(self):
        rng = random.Random(8)
        for n, k in [(5, 1), (6, 3), (7, 3)]:
            x = rand_form(n, k, rng)
            assert wedge_power(x, 2).is_zero()

    def test_simple_square(self):
        x = KForm.basis(4, (1, 2)) + KForm.basis(4, (3, 4))
        assert wedge_power(x, 2) == KForm.basis(4, (1, 2, 3, 4)).scale(2)

    def test_power_splits_as_product(self):
        rng = random.Random(9)
        x = rand_form(6, 2, rng)
        for s, t in [(1, 1), (1, 2), (2, 1)]:
            assert wedge_power(x, s + t) == wedge(wedge_power(x, s), wedge_power(x, t))

    def test_negative_exponent_rejected(self):
        with pytest.raises(DomainError):
            wedge_power(KForm.basis(3, (1,)), -1)


class TestScalarProduct:
    def test_orthonormal_basis(self):
        e12, e13 = KForm.basis(4, (1, 2)), KForm.basis(4, (1, 3))
        assert scalar_product(e12, e12) == 1
        assert scalar_product(e12, e13) == 0

    def test_linearity(self):
        x = KForm.basis(4, (1, 2)).scale(2) + KForm.basis(4, (3, 4)).scale(3)
        assert scalar_product(x, KForm.basis(4, (3, 4))) == 3

    def test_degree_mismatch_rejected(self):
        with pytest.raises(DomainError):
            scalar_product(KForm.basis(4, (1,)), KForm.basis(4, (1, 2)))


class TestHodgeStar:
    def test_e12_in_r4(self):
        assert hodge_star(KForm.basis(4, (1, 2))) == KForm.basis(4, (3, 4))

    def test_e13_in_r4(self):
        assert hodge_star(KForm.basis(4, (1, 3))) == -KForm.basis(4, (2, 4))

    def test_double_dual(self):
        rng = random.Random(10)
        for n in range(2, 7):
            for k in range(0, n + 1):
                x = rand_form(n, k, rng)
                expected = x if (k * (n - k)) % 2 == 0 else -x
                assert hodge_star(hodge_star(x)) == expected

    def test_ties_to_scalar_product(self):
        rng = random.Random(11)
        for n, k in [(4, 2), (5, 2), (6, 3)]:
            a, b = rand_form(n, k, rng), rand_form(n, k, rng)
            volume = KForm.basis(n, tuple(range(1, n + 1)))
            assert wedge(a, hodge_star(b)) == volume.scale(scalar_product(a, b))
            assert wedge(a, hodge_star(a)) == volume.scale(norm_squared(a))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-9, 9), min_size=10, max_size=10),
       st.lists(st.integers(-9, 9), min_size=10, max_size=10))
def test_wedge_bilinearity_property(raw_a, raw_b):
    a = KForm(5, 2, raw_a)
    b = KForm(5, 2, raw_b)
    c = KForm.basis(5, (1, 2)) + KForm.basis(5, (4, 5)).scale(3)
    assert wedge(a + b, c) == wedge(a, c) + wedge(b, c)
    assert wedge(c, a + b) == wedge(c, a) + wedge(c, b)


class TestStorage:
    def test_storage_is_read_only(self):
        x = KForm(3, 1, [1, Fraction(1, 2), 3])
        X = ShapeMatrix(3, 2, [[1.0, 2.0, 3.0]] * 3, scalars.FLOAT)
        for array in (x.coeffs, X.entries, adjugate(X, 2).values):
            with pytest.raises(ValueError):
                array[0] = 7
        with pytest.raises(AttributeError):
            x.backend = scalars.FLOAT

    def test_equal_forms_hash_equal(self):
        ints = KForm(3, 1, [1, 0, -2])
        fractions = KForm(3, 1, [Fraction(2, 2), Fraction(0), Fraction(-4, 2)])
        zeros = KForm(3, 1, [0.0, 1.5, 0.0], scalars.FLOAT)
        negative_zeros = KForm(3, 1, [-0.0, 1.5, -0.0], scalars.FLOAT)
        assert ints == fractions and hash(ints) == hash(fractions)
        assert zeros == negative_zeros and hash(zeros) == hash(negative_zeros)
        assert hash(ints) == hash((3, 1, scalars.EXACT, (1, 0, -2)))
        assert (ints == fractions) is True and (ints == KForm(3, 1, [1, 0, 2])) is False
        table = {ints: "exact", zeros: "float"}
        assert table[fractions] == "exact" and table[negative_zeros] == "float"
        assert KForm(3, 1, [1.0, 0.0, -2.0], scalars.FLOAT) != ints


class TestArray:
    def test_typed_by_backend(self):
        floats = scalars.array([(1, 2.0), (3.0, 4.0)], (2, 2), scalars.FLOAT, "entries")
        exact = scalars.array([(1, Fraction(1, 3), Fraction(4, 2), 6.0)], (1, 4), scalars.EXACT,
                              "entries")
        assert floats.dtype == np.float64 and floats.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert exact.dtype == object and exact.tolist() == [[1, Fraction(1, 3), 2, 6]]
        assert [type(v) for v in exact.ravel().tolist()] == [int, Fraction, int, int]
        assert not floats.flags.writeable and not exact.flags.writeable
        assert scalars.backend_of(floats) == scalars.FLOAT
        assert scalars.backend_of(exact) == scalars.EXACT

    def test_shape_is_checked_on_the_array(self):
        for backend in scalars.BACKENDS:
            assert scalars.array((), (0,), backend, "coefficients").shape == (0,)
            for bad in ([[1, 2], [3]], [[1, 2], 3], [1, 2, 3], [[1, 2, 3]]):
                with pytest.raises(DomainError):
                    scalars.array(bad, (2, 2), backend, "entries")


    @pytest.mark.parametrize("dtype", [np.int64, np.int8, np.uint8])
    def test_integer_array_becomes_python_ints(self, dtype):
        values = np.array([[0, 1, 127], [5, 7, 9]], dtype=dtype)
        exact = scalars.array(values, (2, 3), scalars.EXACT, "entries")
        assert exact.dtype == object and not exact.flags.writeable
        assert exact.tolist() == values.tolist()
        assert all(type(v) is int for v in exact.ravel().tolist())
        big = scalars.array(np.array([2 ** 62, -2 ** 63]), (2,), scalars.EXACT, "entries")
        assert big.tolist() == [2 ** 62, -2 ** 63]
        with pytest.raises(DomainError):
            scalars.array(values, (3, 2), scalars.EXACT, "entries")

    def test_bool_array_refused(self):
        with pytest.raises(DomainError):
            scalars.array(np.array([True, False]), (2,), scalars.EXACT, "entries")

    @pytest.mark.parametrize("values", [[True, False], np.array([True, False]), [1.5, np.True_],
                                        np.array([1.5, True], dtype=object)],
                             ids=["list", "array", "numpy-bool", "object-array"])
    def test_float_backend_refuses_bools(self, values):
        with pytest.raises(DomainError, match="bool is not a scalar"):
            KForm(2, 1, values, scalars.FLOAT)
        with pytest.raises(DomainError, match="bool is not a scalar"):
            ShapeMatrix(2, 2, [values, [0.0, 0.0]], scalars.FLOAT)

    def test_float_rows_refuse_bools(self):
        for rows in ([[True, 0.0]], [np.array([0.0, 1.0]), [0.5, False]], np.ones((3, 2), bool)):
            with pytest.raises(DomainError, match="bool is not a scalar"):
                scalars.checked_rows(rows, 2, "coefficients")
        with pytest.raises(DomainError, match="bool is not a scalar"):
            FormFunction.norm_squared(4, 2).evaluate_rows(np.ones((2, 6), dtype=bool))
        assert scalars.checked_rows([[1, 2.5]], 2, "coefficients").tolist() == [[1.0, 2.5]]


class TestNarrow:
    @staticmethod
    def objects(values):
        out = np.empty(len(values), dtype=object)
        out[:] = values
        return out

    def test_python_ints_under_the_bound_narrow(self):
        values = self.objects([3, -7, 0])
        narrowed = scalars.narrow(values, lambda B: B)
        assert narrowed.dtype == np.int64 and narrowed.tolist() == [3, -7, 0]
        assert values.dtype == object    # a copy: the input is left alone
        assert scalars.narrow(self.objects([]), lambda B: B).dtype == np.int64

    def test_bound_is_read_at_the_largest_size(self):
        seen = []
        scalars.narrow(self.objects([3, -7, 5]), lambda B: seen.append(B) or 0)
        assert seen == [7]
        limit = scalars.INT64_LIMIT
        assert scalars.narrow(self.objects([limit - 1]), lambda B: B) is not None
        assert scalars.narrow(self.objects([limit]), lambda B: B) is None
        assert scalars.narrow(self.objects([-limit]), lambda B: B) is None
        assert scalars.narrow(self.objects([1, 2]), lambda B: limit * B) is None

    @pytest.mark.parametrize("other", [Fraction(1, 2), Poly.variable(2, 1), True, np.int64(3),
                                       2.0])
    def test_anything_but_python_ints_stays_object(self, other):
        assert scalars.narrow(self.objects([1, other]), lambda B: 0) is None

    def test_int64_stacks_keep_or_widen(self):
        # an int64 stack is kept as it is under the bound and widened past it;
        # −2^63 reads as 2^63
        values = np.array([3, -2 ** 63, 5])
        assert scalars.largest(values) == 2 ** 63
        kept = np.array([3, -7])
        assert scalars.narrow(kept, lambda B: B) is kept
        assert scalars.proved(kept, lambda B: B) is kept
        assert scalars.narrow(values, lambda B: B) is None
        widened = scalars.proved(values, lambda B: B)
        assert widened.dtype == object and widened.tolist() == [3, -2 ** 63, 5]
        floats = np.array([1.5])
        assert scalars.narrow(floats, lambda B: 0) is None
        assert scalars.proved(floats, lambda B: 0) is floats


class TestIntegerStacks:
    """The row kernels keep an integer stack's dtype and sum it exactly."""

    def test_project_rows(self):
        X = np.zeros((1, 9), dtype=np.int64)
        X[0, 1] = 2 ** 60 + 1    # row {1}, column 2: the coefficient of e^{1,2}
        rows = project_rows(X, 3, 2)
        assert rows.dtype == np.int64
        assert rows.tolist() == project_rows(X.astype(object), 3, 2).tolist() \
            == [[2 ** 60 + 1, 0, 0]]
        rng = np.random.default_rng(13)
        X = rng.integers(-2 ** 40, 2 ** 40, size=(6, math.comb(6, 2) * 6))
        rows = project_rows(X, 6, 3)
        assert rows.dtype == np.int64
        assert rows.tolist() == project_rows(X.astype(object), 6, 3).tolist()

    @pytest.mark.parametrize("n,k,l", [(4, 1, 1), (6, 2, 2), (8, 2, 4), (3, 0, 2), (4, 3, 2)])
    @pytest.mark.parametrize("signed", [True, False])
    def test_wedge_rows(self, n, k, l, signed):
        rng = np.random.default_rng(n * 100 + k * 10 + l)
        a = rng.integers(-2 ** 20, 2 ** 20, size=(5, math.comb(n, k)))
        b = rng.integers(-2 ** 20, 2 ** 20, size=(5, math.comb(n, l)))
        rows = wedge_rows(a, b, n, k, l, signed)
        assert rows.dtype == np.int64
        assert rows.tolist() == wedge_rows(a.astype(object), b.astype(object), n, k, l,
                                           signed).tolist()

    @pytest.mark.parametrize("size", range(6))
    def test_det_rows(self, size):
        rng = np.random.default_rng(14 + size)
        stack = rng.integers(-1000, 1000, size=(7, size, size))
        dets = det_rows(stack)
        assert dets.dtype == np.int64
        assert dets.tolist() == det_rows(stack.astype(object)).tolist()

    def test_int64_stack_past_its_bound_is_exact(self):
        # int64 entries up to 2^40 put the (4,2,2) power past 2^63: every
        # kernel widens to Python ints instead of wrapping, and both routes
        # give the value an object stack gives
        X = np.random.default_rng(1).integers(-2 ** 40, 2 ** 40, (1, 16))
        want = [[4753651800811246436761870]]
        assert wedge_power_from_minors_rows(X.astype(object), 4, 2, 2).tolist() == want
        assert wedge_power_from_minors_rows(X, 4, 2, 2).tolist() == want
        assert wedge_power_rows(project_rows(X, 4, 2), 4, 2, 2).tolist() == want
        # each factor fits 2^62 and their product does too; the six slots of
        # the (2,2) step do not, so the step widens
        a, b = np.full((1, 6), 2 ** 30), np.full((1, 6), 2 ** 31)
        assert wedge_rows(a, b, 4, 2, 2, signed=False).tolist() == [[3 * 2 ** 62]]
        M = np.array([[[2 ** 62, 1], [-3, 2 ** 62]]])
        assert det_rows(M).tolist() == [2 ** 124 + 3]
        assert project_rows(np.full((1, 9), 2 ** 61), 3, 2).dtype == object
        assert wedge_power_rows(np.array([[3 ** 39]]), 4, 0, 2).tolist() == [[3 ** 78]]
        assert wedge_power_rows(np.array([[2]]), 4, 0, 10 ** 6).dtype == object

    @settings(max_examples=50, deadline=None)
    @given(st.sampled_from([(3, 2, 1), (4, 2, 2), (5, 2, 2), (6, 2, 3), (8, 2, 4), (7, 2, 3),
                            (6, 3, 2), (7, 3, 2), (8, 4, 2), (4, 2, 3), (9, 3, 3)]),
           st.sampled_from([5, 2 ** 10, 2 ** 20, 10 ** 5, 10 ** 6, 2 ** 40]),
           st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
    def test_stepped_kernels_equal_the_object_chain(self, space, bound, m, seed):
        # every int64 result is proved below 2^62, every other one is objects,
        # and all equal the Python-int chain coefficient for coefficient; the
        # chain stays int64 up to its first step past the bound and takes that
        # step and every later one in Python ints
        n, k, s = space
        X = np.random.default_rng(seed).integers(-bound, bound + 1, (m, math.comb(n, k - 1) * n))
        xi, power, xi_fits, step_fits = reference_power_chain(X.tolist(), n, k, s)
        got_xi = project_rows(X, n, k)
        assert got_xi.dtype == (np.int64 if xi_fits else object) and got_xi.tolist() == xi
        seen, real = [], exterior.wedge_rows
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(exterior, "wedge_rows",
                          lambda *args: seen.append(real(*args)) or seen[-1])
            got = wedge_power_rows(got_xi, n, k, s)
        assert [step.dtype for step in seen] == [np.int64 if fits else object for fits in step_fits]
        power_fits = xi_fits and all(step_fits)
        assert got.dtype == (np.int64 if power_fits else object) and got.tolist() == power
        if 2 <= s <= min(n, math.comb(n, k - 1)):
            via_minors = wedge_power_from_minors_rows(X, n, k, s)
            fits = k % 2 == 1 or s > n // k or math.factorial(s) ** 2 * bound ** s \
                * minor_power_map(n, k, s).cells.shape[1] < scalars.INT64_LIMIT
            assert via_minors.tolist() == power
            assert via_minors.dtype == np.int64 or not fits

    def test_step_bound_fault_breaks_the_object_chain(self, step_bound_fault):
        # with its bound skipped the chain stays in int64 past 2^63 and wraps
        X = np.random.default_rng(1).integers(-2 ** 40, 2 ** 40, (1, 16))
        power = reference_power_chain(X.tolist(), 4, 2, 2)[1]
        assert wedge_power_rows(project_rows(X, 4, 2), 4, 2, 2).tolist() != power


class TestWedgeRows:
    SPACES = [(4, 1, 1), (4, 2, 2), (5, 2, 1), (6, 2, 2), (8, 4, 2), (8, 6, 2), (8, 2, 4),
              (3, 0, 2), (3, 2, 0), (4, 3, 2)]

    @pytest.mark.parametrize("n,k,l", SPACES)
    def test_rows_equal_scalar_float_wedge_bit_for_bit(self, n, k, l):
        rng = random.Random(n * 100 + k * 10 + l)
        lefts = [KForm(n, k, [rng.uniform(-2, 2) for _ in range(math.comb(n, k))],
                       scalars.FLOAT) for _ in range(9)]
        rights = [KForm(n, l, [rng.uniform(-2, 2) for _ in range(math.comb(n, l))],
                        scalars.FLOAT) for _ in range(9)]
        a = np.array([x.coeffs for x in lefts])
        b = np.array([x.coeffs for x in rights])
        batch = wedge_rows(a, b, n, k, l)
        scalar = np.array([wedge(x, y).coeffs for x, y in zip(lefts, rights)]) \
            .reshape(batch.shape)
        assert batch.tobytes() == scalar.tobytes()
        for i in range(9):
            assert wedge_rows(a[i:i + 1], b[i:i + 1], n, k, l).tobytes() == batch[i].tobytes()
        exact = [np.array([[rand_exact(rng) for _ in range(x.shape[1])] for _ in range(9)],
                          dtype=object) for x in (a, b)]
        integral = [np.array([[float(rng.randint(-9, 9)) for _ in range(x.shape[1])]
                              for _ in range(9)]) for x in (a, b)]
        for left, right in (exact, integral):
            rows = wedge_rows(left, right, n, k, l)
            assert rows.dtype == left.dtype
            assert rows.tolist() == [dict_to_coeff_list(n, k + l, shuffle_wedge(
                coeffs_to_dict(n, k, x), coeffs_to_dict(n, l, y))) for x, y in zip(left, right)]

    @pytest.mark.parametrize("n,k,l", SPACES)
    def test_object_rows_equal_each_row_alone(self, n, k, l):
        rng = random.Random(n * 100 + k * 10 + l + 1)
        a = np.array([[rand_exact(rng) for _ in range(math.comb(n, k))] for _ in range(7)],
                     dtype=object)
        b = np.array([[rand_exact(rng) for _ in range(math.comb(n, l))] for _ in range(7)],
                     dtype=object)
        batch = wedge_rows(a, b, n, k, l)
        assert batch.dtype == object
        assert batch.tolist() == [wedge_rows(a[i:i + 1], b[i:i + 1], n, k, l)[0].tolist()
                                  for i in range(7)]
        for s in range(4):
            powers = wedge_power_rows(a, n, k, s)
            assert powers.dtype == object
            assert powers.tolist() == [wedge_power_rows(a[i:i + 1], n, k, s)[0].tolist()
                                       for i in range(7)]

    def test_exact_power_rows_match_the_oracle(self):
        rng = random.Random(9)
        for n, k in [(4, 1), (6, 2), (8, 2), (9, 3), (4, 0)]:
            stack = np.array([[rand_exact(rng) for _ in range(math.comb(n, k))]
                              for _ in range(3)], dtype=object)
            for s in range(1, 5):
                expected = [dict_to_coeff_list(n, k * s, wedge_many([coeffs_to_dict(n, k, row)]
                                                                    * s)) for row in stack]
                assert wedge_power_rows(stack, n, k, s).tolist() == expected

    def test_power_rows_match_wedge_power(self):
        rng = random.Random(4)
        xs = [KForm(8, 2, [rng.uniform(-2, 2) for _ in range(28)], scalars.FLOAT)
              for _ in range(5)]
        stack = np.array([x.coeffs for x in xs])
        for s in range(6):
            rows = wedge_power_rows(stack, 8, 2, s)
            assert rows.tolist() == [list(wedge_power(x, s).coeffs) for x in xs]

    def test_unsigned_rows_bound_the_signed(self):
        rng = random.Random(5)
        a = np.array([[rng.uniform(-2, 2) for _ in range(28)] for _ in range(6)])
        signed = wedge_power_rows(a, 8, 2, 3)
        unsigned = wedge_power_rows(np.abs(a), 8, 2, 3, signed=False)
        assert (unsigned >= np.abs(signed)).all()

    def test_exact_wedge_keeps_exact_scalars(self):
        rng = random.Random(6)
        for n, k, l in [(4, 2, 2), (6, 2, 3), (8, 4, 2)]:
            a = KForm(n, k, [rng.randint(-9, 9) for _ in range(math.comb(n, k))])
            b = KForm(n, l, [Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                             for _ in range(math.comb(n, l))])
            exact = wedge(a, b)
            assert exact.as_dict() == {key: c for key, c in
                                       shuffle_wedge(a.as_dict(), b.as_dict()).items() if c}
            assert all(isinstance(c, (int, Fraction)) for c in exact.coeffs)
            integral = KForm(n, l, [c * 6 for c in b.coeffs])
            floats = wedge_rows(np.array([a.coeffs], dtype=float),
                                np.array([integral.coeffs], dtype=float), n, k, l)
            assert floats[0].tolist() == list(wedge(a, integral).coeffs)

    def test_zero_form_power_is_one_scalar_power(self):
        assert wedge_power(KForm(4, 0, [Fraction(-3, 2)]), 41) == \
            KForm(4, 0, [Fraction(-3, 2) ** 41])
        assert wedge_power(KForm(4, 0, [1.5], scalars.FLOAT), 7).coeffs.tolist() == [1.5 ** 7]
        rows = wedge_power_rows(np.array([[2], [Fraction(1, 3)]], dtype=object), 4, 0, 65)
        assert rows.tolist() == [[2 ** 65], [Fraction(1, 3 ** 65)]]

    def test_float_overflow_is_a_domain_error(self):
        a = KForm(2, 1, [1e200, 0.0], scalars.FLOAT)
        b = KForm(2, 1, [0.0, 1e200], scalars.FLOAT)
        with pytest.raises(DomainError):
            wedge(a, b)
        with pytest.raises(DomainError):
            wedge_power(KForm.from_json({"n": 4, "k": 2, "coeffs": {"1,2": 1e200,
                                                                     "3,4": 1e200}}), 2)
        with pytest.raises(DomainError):
            wedge_power(KForm(4, 0, [1e10], scalars.FLOAT), 40)

    def test_ordered_sum_is_the_loop_sum(self):
        rng = random.Random(7)
        rows = np.array([[rng.choice([1e16, -1e16, 1.0, -3.5e-3]) * rng.random()
                          for _ in range(40)] for _ in range(30)])
        expected = []
        for row in rows:
            total = 0.0
            for v in row:
                total += v
            expected.append(total)
        assert ordered_sum(rows).tolist() == expected
        assert ordered_sum(np.full((2, 3), -0.0)).tolist() == [0.0, 0.0]
        assert math.copysign(1.0, ordered_sum(np.full((1, 3), -0.0))[0]) == 1.0
        assert ordered_sum(np.zeros((4, 0))).tolist() == [0.0] * 4


# signed zeros, values whose sums round and cancel, and ±1; no product of two
# of them leaves the float range
SUMMANDS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e16, -1e16, 3.5e-3, -2.0 ** -60]),
                     st.floats(-1e8, 1e8, allow_nan=False, allow_infinity=False))


def loop_sum(terms, signs):
    """Σ sign·term as one scalar loop: from 0.0, left to right, one float at a time."""
    total = 0.0
    for term, sign in zip(terms, signs):
        total += sign * term
    return total


def same_bits(got, expected):
    """Equal bit for bit, the sign of every zero included."""
    expected = np.asarray(expected, dtype=float).reshape(got.shape)
    assert got.dtype == np.float64 and got.tobytes() == expected.tobytes()
    assert [math.copysign(1.0, v) for v in got.ravel().tolist()] == \
        [math.copysign(1.0, v) for v in expected.ravel().tolist()]


class TestSlotMajorSums:
    """The float sums stream over their slots; each result must be the scalar
    loop's, bit for bit, whatever batch it sits in."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 4), st.integers(0, 5), st.integers(0, 9), st.data())
    def test_ordered_and_signed_sums_are_the_loop(self, m, targets, slots, data):
        values = data.draw(st.lists(SUMMANDS, min_size=m * targets * slots,
                                    max_size=m * targets * slots))
        terms = np.array(values, dtype=float).reshape(m, targets, slots)
        signs = data.draw(st.lists(st.sampled_from([1, -1]), min_size=slots, max_size=slots))
        table = sign_table(signs=signs)
        same_bits(ordered_sum(terms), [[loop_sum(t, [1] * slots) for t in row] for row in terms])
        summed = signed_sum(lambda q: terms[..., q], terms.dtype, *table)
        same_bits(summed, [[loop_sum(t, signs) for t in row] for row in terms])
        for i in range(m):
            same_bits(signed_sum(lambda q: terms[i:i + 1, :, q], terms.dtype, *table),
                      summed[i:i + 1])
        exact = np.array([Fraction(v) for v in values], dtype=object).reshape(terms.shape)
        assert signed_sum(lambda q: exact[..., q], exact.dtype, *table).tolist() == \
            [[sum(Fraction(v) * sign for v, sign in zip(t, signs)) for t in row] for row in terms]

    @staticmethod
    def draw_rows(data, m, width):
        values = data.draw(st.lists(SUMMANDS, min_size=m * width, max_size=m * width))
        return np.array(values, dtype=float).reshape(m, width)

    # (6,2) at n = 8 is one target of 28 slots; (8,1,1) is 28 targets of 2
    @pytest.mark.parametrize("n,k,l", [(8, 6, 2), (8, 1, 1), (6, 2, 2), (5, 3, 1), (4, 3, 2)])
    @settings(max_examples=15, deadline=None)
    @given(st.integers(1, 4), st.data())
    def test_wedge_rows_are_the_loop(self, n, k, l, m, data):
        a, b = self.draw_rows(data, m, math.comb(n, k)), self.draw_rows(data, m, math.comb(n, l))
        rows = wedge_rows(a, b, n, k, l)
        if k + l > n:
            assert rows.shape == (m, 0)
            return
        left, right, signs, _, _ = _wedge_table(n, k, l)
        for signed in (True, False):
            slot_signs = signs.tolist() if signed else [1.0] * len(signs)
            expected = [[loop_sum((x[i] * y[j] for i, j in zip(I, J)), slot_signs)
                         for I, J in zip(left.tolist(), right.tolist())] for x, y in zip(a, b)]
            batch = wedge_rows(a, b, n, k, l, signed)
            same_bits(batch, expected)
            for i in range(m):
                same_bits(wedge_rows(a[i:i + 1], b[i:i + 1], n, k, l, signed), batch[i:i + 1])

    # k = 1 is n targets of one slot each
    @pytest.mark.parametrize("n,k", [(4, 1), (4, 2), (5, 3), (6, 6)])
    @settings(max_examples=15, deadline=None)
    @given(st.integers(1, 4), st.data())
    def test_project_rows_are_the_loop(self, n, k, m, data):
        X = self.draw_rows(data, m, math.comb(n, k - 1) * n)
        cells, signs, _, _ = _projection_table(n, k)
        batch = project_rows(X, n, k)
        same_bits(batch, [[loop_sum((x[c] for c in slots), signs.tolist())
                           for slots in cells.tolist()] for x in X])
        for i in range(m):
            same_bits(project_rows(X[i:i + 1], n, k), batch[i:i + 1])

    @staticmethod
    def loop_det(M):
        """``det_rows``' expansion of one matrix, every level a scalar loop: the
        minor on the last j rows and columns C is Σ (−1)^p M[s−j][C[p]]·(the
        minor on the last j − 1 rows and C∖C[p]), summed left to right."""
        s = len(M)
        acc = {(): 1.0}
        for j in range(1, s + 1):
            acc = {C: loop_sum((M[s - j][C[p]] * acc[C[:p] + C[p + 1:]] for p in range(j)),
                               [(-1) ** p for p in range(j)])
                   for C in itertools.combinations(range(s), j)}
        return acc[tuple(range(s))]

    @pytest.mark.parametrize("s", [0, 1, 2, 3, 4])
    @settings(max_examples=15, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 3), st.data())
    def test_det_rows_of_a_3_axis_stack_are_the_loop(self, s, p, q, data):
        M = self.draw_rows(data, p * q, s * s).reshape(p, q, s, s)
        batch = det_rows(M)
        same_bits(batch, [[self.loop_det(matrix.tolist()) for matrix in row] for row in M])
        for i, j in itertools.product(range(p), range(q)):
            same_bits(det_rows(M[i, j]), batch[i, j])

    @pytest.mark.parametrize("budget", [1, 5, 13, 1 << 13])
    def test_blocks_of_slots_keep_the_loop(self, monkeypatch, budget):
        # a float sum gathers as many slots at once as the budget's entries hold
        monkeypatch.setattr(exterior, "_GATHER_BUDGET", budget)
        rng = random.Random(budget)
        terms = np.array([rng.choice([1e16, -1e16, 1.0, -0.0]) * rng.random()
                          for _ in range(2 * 3 * 17)]).reshape(2, 3, 17)
        signs = [rng.choice([1, -1]) for _ in range(17)]
        same_bits(signed_sum(lambda q: terms[..., q], terms.dtype, *sign_table(signs=signs)),
                  [[loop_sum(t, signs) for t in row] for row in terms])
        a, b = (np.array([[rng.uniform(-2, 2) for _ in range(width)] for _ in range(3)])
                for width in (28, 28))
        left, right, table_signs, _, _ = _wedge_table(8, 6, 2)
        same_bits(wedge_rows(a, b, 8, 6, 2),
                  [[loop_sum((x[i] * y[j] for i, j in zip(left[0], right[0])),
                             table_signs.tolist())] for x, y in zip(a, b)])

    def test_negative_zeros_sum_to_positive_zero(self):
        zeros = np.full((2, 3, 4), -0.0)
        table = sign_table(signs=[1, -1, -1, 1])
        for total in (ordered_sum(zeros), signed_sum(lambda q: zeros[..., q], zeros.dtype, *table),
                      wedge_rows(np.full((2, 4), -0.0), np.full((2, 4), 0.0), 4, 1, 1)):
            same_bits(total, np.zeros(total.shape))


def lex_basis(size, k):
    """The k-subsets of range(size) in itertools.combinations order, one per row."""
    return np.array(list(itertools.combinations(range(size), k)),
                    dtype=np.intp).reshape(math.comb(size, k), k)


class TestSubsetRanks:
    @pytest.mark.parametrize("size", range(11))
    def test_ranks_every_basis_in_lex_order(self, size):
        for k in range(size + 1):
            basis = lex_basis(size, k)
            ranks = list(range(math.comb(size, k)))
            assert subset_ranks(basis, size).tolist() == ranks
            if size:    # the oracle's binomial table needs a row
                assert lex_ranks(basis, size).tolist() == ranks

    def test_stacks_of_one_two_and_three_axes(self):
        basis = lex_basis(9, 3)    # 84 sets
        ranks = np.arange(84)
        assert [subset_ranks(row, 9).item() for row in basis] == ranks.tolist()
        order = np.random.default_rng(1).permutation(84)
        assert subset_ranks(basis[order], 9).tolist() == order.tolist()
        assert subset_ranks(basis.reshape(7, 12, 3), 9).tolist() == ranks.reshape(7, 12).tolist()

    @pytest.mark.parametrize("shape", [(0, 3), (4, 0, 3), (0, 0)])
    def test_empty_stacks(self, shape):
        assert subset_ranks(np.zeros(shape, dtype=np.intp), 9).shape == shape[:-1]


class TestStrictJson:
    @pytest.mark.parametrize("obj", [
        {"n": 4, "k": 2},
        {"k": 2, "coeffs": {}},
        {"n": 4, "coeffs": {}},
        {"n": 4, "k": 2, "coeffs": {}, "expr": "xi"},
        {"n": 4.0, "k": 2, "coeffs": {}},
        {"n": 4, "k": 2, "coeffs": [["1,2", "1"]]},
        "e12",
    ])
    def test_form_format_enforced(self, obj):
        with pytest.raises(DomainError):
            KForm.from_json(obj)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, True, "1" + "0" * 400,
                                       10 ** 400],
                             ids=["nan", "inf", "-inf", "true", "long-string", "long-int"])
    def test_float_scalars_are_finite_numbers(self, value):
        with pytest.raises(DomainError):
            KForm.from_json({"n": 2, "k": 1, "coeffs": {"1": value}}, scalars.FLOAT)

    def test_bool_is_no_exact_scalar(self):
        with pytest.raises(DomainError):
            KForm.from_json({"n": 2, "k": 1, "coeffs": {"1": False}}, scalars.EXACT)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_float_is_not_written(self, value):
        with pytest.raises(DomainError):
            KForm(2, 1, [value, 0.0], scalars.FLOAT).to_json()

    @pytest.mark.parametrize("keys", [("1,2", "1, 2"), ("1,2", "01,2"), ("1,2", "+1,2"),
                                      ("2,3", " 2,3 ")])
    def test_two_keys_naming_one_multiindex_rejected(self, keys):
        # the second coefficient would silently replace the first
        with pytest.raises(DomainError):
            KForm.from_json({"n": 3, "k": 2, "coeffs": dict(zip(keys, ("1", "3")))})

    def test_empty_coeffs_is_the_zero_form(self):
        assert KForm.from_json({"n": 4, "k": 2, "coeffs": {}}) == KForm.zero(4, 2)


class TestKeyReading:
    """Label keys are read off one table per (n, k); every other key, and every
    error, still goes through ``key_rank``, with the messages it gives."""

    @pytest.mark.parametrize("coeffs,message", [
        ({"1,2": "1", "01,2": "3"}, "keys '1,2' and '01,2' both name 1,2"),
        ({"01,2": "1", "1,2": "3"}, "keys '01,2' and '1,2' both name 1,2"),
        ({"1,2": "1", " 1,2": "3"}, "keys '1,2' and ' 1,2' both name 1,2"),
        ({" 1,2": "1", "1,2": "3"}, "keys ' 1,2' and '1,2' both name 1,2"),
        ({"2,1": "1"}, "indices must be strictly increasing, got (2, 1)"),
        ({"1,9": "1"}, "index 9 exceeds ambient dimension 8"),
        ({"1": "1"}, "key length 1 does not match 2: (1,)"),
        ({"1,2,3": "1"}, "key length 3 does not match 2: (1, 2, 3)"),
        ({"": "1"}, "key length 0 does not match 2: ()"),
        ({"a,b": "1"}, "bad multiindex 'a,b'"),
        ({"1,2": "1", "x": "2"}, "bad multiindex 'x'"),
        ({"1;2": "1"}, "bad multiindex '1;2'"),
    ])
    def test_errors_are_the_rankers(self, coeffs, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            KForm.from_json({"n": 8, "k": 2, "coeffs": coeffs})

    @pytest.mark.parametrize("n,k", [(1, 0), (4, 0), (4, 1), (5, 2), (8, 4), (9, 3), (10, 10)])
    def test_labels_read_as_the_ranker_reads_them(self, n, k, monkeypatch):
        values = [Fraction(r + 1, 3) for r in range(math.comb(n, k))]
        blob = {"n": n, "k": k, "coeffs": {label: str(v) for label, v in
                                           zip(labels(n, k), values)}}
        ranked = [key_rank(label, n, k, "key") for label in labels(n, k)]
        assert ranked == list(range(math.comb(n, k)))
        monkeypatch.setattr(exterior, "key_rank", lambda *args: pytest.fail("key_rank called"))
        assert KForm.from_json(blob).coeffs.tolist() == values

    def test_a_basis_past_the_table_size_reads_by_the_ranker(self, monkeypatch):
        blob = {"n": 6, "k": 3, "coeffs": {"1,2,3": "1", "2,4,6": "-2", "4,5,6": "3"}}
        want = KForm.from_json(blob)
        calls = []
        monkeypatch.setattr(exterior, "_LABEL_TABLE_SIZE", 19)
        monkeypatch.setattr(exterior, "key_rank", lambda *args: calls.append(args[0]) or
                            key_rank(*args))
        assert KForm.from_json(blob) == want
        assert calls == ["1,2,3", "2,4,6", "4,5,6"]

    def test_other_keys_still_go_through_the_ranker(self):
        tuples = KForm.from_dict(5, 2, {(1, 3): 2, (4, 5): -1})
        texts = KForm.from_json({"n": 5, "k": 2, "coeffs": {" 1,3": "2", "4, 5": "-1"}})
        assert tuples == texts == KForm.from_json({"n": 5, "k": 2,
                                                   "coeffs": {"1,3": "2", "4,5": "-1"}})

    def test_degree_above_dimension_has_no_labels(self):
        with pytest.raises(DomainError, match=r"^key length 0 does not match 3: \(\)$"):
            KForm.from_json({"n": 2, "k": 3, "coeffs": {"": "1"}})
