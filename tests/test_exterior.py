import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extconv import scalars
from extconv.errors import DomainError
from extconv.exterior import (KForm, hodge_star, norm_squared, ordered_sum,
                              scalar_product, wedge, wedge_power, wedge_power_rows,
                              wedge_rows)

from oracles import rand_exact, shuffle_wedge


def rand_form(n, k, rng):
    return KForm(n, k, [rand_exact(rng) for _ in range(math.comb(n, k))])


class TestConstruction:
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

    def test_degree_above_dimension_is_canonical_zero(self):
        z = KForm.zero(3, 5)
        assert z.coeffs == ()
        assert z.is_zero()

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

    def test_empty_coeffs_is_the_zero_form(self):
        assert KForm.from_json({"n": 4, "k": 2, "coeffs": {}}) == KForm.zero(4, 2)
