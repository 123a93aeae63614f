import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extconv.errors import DomainError
from extconv.polyform import (Poly, PolyKForm, PolynomialMatrix, d_classical, d_right,
                              gradient, project_polynomial)
from extconv.projection import project


def x(i, nvars):
    return Poly.variable(nvars, i)


class TestPoly:
    def test_parse_standard_form(self):
        p = Poly.parse("3/2*x1^2*x3 - x2", 3)
        expected = Poly(3, {(2, 0, 1): Fraction(3, 2), (0, 1, 0): -1})
        assert p == expected

    def test_parse_constant_and_signs(self):
        assert Poly.parse("-4", 2) == Poly.const(2, -4)
        assert Poly.parse("x1 + x1", 2) == x(1, 2) * 2
        assert Poly.parse("-x2^3", 2) == Poly(2, {(0, 3): -1})

    def test_str_roundtrip(self):
        p = Poly(3, {(2, 0, 1): Fraction(3, 2), (0, 1, 0): -1, (0, 0, 0): 7})
        assert Poly.parse(str(p), 3) == p

    def test_diff(self):
        p = Poly.parse("x1^2*x2 + 5*x2", 2)
        assert p.diff(1) == Poly.parse("2*x1*x2", 2)
        assert p.diff(2) == Poly.parse("x1^2 + 5", 2)
        assert p.diff(1).diff(2) == p.diff(2).diff(1)

    def test_evaluate(self):
        p = Poly.parse("x1*x3 - 2", 3)
        assert p.evaluate((2, 99, 5)) == 8
        assert p.evaluate((Fraction(1, 2), 0, Fraction(1, 3))) == Fraction(-11, 6)

    def test_bad_variable_rejected(self):
        with pytest.raises(DomainError):
            Poly.parse("x4", 3)
        with pytest.raises(DomainError):
            Poly.variable(3, 0)

    def test_scalar_on_the_left(self):
        assert 1 - x(1, 2) == Poly.parse("1 - x1", 2)
        assert Fraction(1, 2) - x(2, 2) == -(x(2, 2) - Fraction(1, 2))
        assert 3 + x(1, 2) == x(1, 2) + 3 and 3 * x(1, 2) == x(1, 2) * 3

    def test_constants_hash_as_their_value(self):
        for nvars, value in [(2, 3), (3, Fraction(-5, 7)), (1, 0)]:
            const = Poly.const(nvars, value)
            assert const == value and hash(const) == hash(value)
        assert {Poly.const(2, 3): "a"}[3] == "a"
        assert hash(Poly.parse("x1 + 1", 2)) == hash(Poly.parse("1 + x1", 2))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(-5, 5)),
                    max_size=4),
           st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(-5, 5)),
                    max_size=4))
    def test_ring_laws(self, terms_a, terms_b):
        a = sum((Poly(2, {(e1, e2): c}) for e1, e2, c in terms_a), Poly.zero(2))
        b = sum((Poly(2, {(e1, e2): c}) for e1, e2, c in terms_b), Poly.zero(2))
        c = Poly.parse("x1 - 3*x2", 2)
        assert (a + b) * c == a * c + b * c
        assert (a * b).diff(1) == a.diff(1) * b + a * b.diff(1)


def random_polyform(n, k, rng, degree=2):
    coeffs = {}
    from extconv.multiindex import enumerate_multiindices
    for mi in enumerate_multiindices(n, k):
        terms = {}
        for _ in range(rng.randint(0, 3)):
            expo = [0] * n
            for _ in range(rng.randint(0, degree)):
                expo[rng.randrange(n)] += 1
            terms[tuple(expo)] = terms.get(tuple(expo), 0) + Fraction(
                rng.randint(-4, 4), rng.randint(1, 3))
        coeffs[mi.indices] = Poly(n, terms)
    return PolyKForm(n, k, coeffs)


class TestPolyKForm:
    def test_coefficient_key_length_checked(self):
        w = PolyKForm.monomial(3, (2,), x(1, 3))
        assert w.coefficient((2,)) == x(1, 3) and w.coefficient((3,)).is_zero()
        for key in [(1, 2), ()]:
            with pytest.raises(DomainError):
                w.coefficient(key)
        with pytest.raises(DomainError):
            w.coefficient((4,))


class TestGradient:
    def test_single_monomial(self):
        w = PolyKForm.monomial(2, (1,), x(2, 2))
        mat = gradient(w)
        # rows over {1},{2}; only entry (row {1}, col 2) is nonzero
        assert mat.entries[0][1] == Poly.const(2, 1)
        assert mat.entries[0][0].is_zero()
        assert all(p.is_zero() for p in mat.entries[1])

    def test_constant_form(self):
        w = PolyKForm.monomial(3, (2,), Poly.const(3, 5))
        assert all(p.is_zero() for row in gradient(w).entries for p in row)

    def test_product_rule_entries(self):
        w = PolyKForm.monomial(3, (2,), x(1, 3) * x(3, 3))
        mat = gradient(w)
        from extconv.multiindex import rank, MultiIndex
        row = rank(MultiIndex((2,), 3))
        assert mat.entries[row][0] == x(3, 3)
        assert mat.entries[row][2] == x(1, 3)
        assert mat.entries[row][1].is_zero()

    def test_evaluate_matches_pointwise_derivatives(self):
        rng = random.Random(0)
        w = random_polyform(3, 1, rng)
        mat = gradient(w)
        point = (Fraction(1, 2), 2, Fraction(-1, 3))
        X = mat.evaluate(point)
        for r, label in enumerate(X.row_labels):
            for i in range(1, 4):
                assert X.entries[r][i - 1] == w.coefficient(label.indices).diff(i).evaluate(point)


class TestExteriorDerivatives:
    def test_d_right_monomial(self):
        w = PolyKForm.monomial(2, (1,), x(2, 2))
        out = d_right(w)
        assert out == PolyKForm.monomial(2, (1, 2), Poly.const(2, 1))

    def test_d_right_kills_own_direction(self):
        w = PolyKForm.monomial(2, (1,), x(1, 2))
        assert d_right(w).is_zero()

    def test_d_classical_component_formula(self):
        # dω coefficients (n=2, r=1): ∂ω_2/∂x_1 − ∂ω_1/∂x_2, with ω = x_2 e^1
        w = PolyKForm.monomial(2, (1,), x(2, 2))
        out = d_classical(w)
        assert out == PolyKForm.monomial(2, (1, 2), Poly.const(2, -1))

    def test_d_agree_on_zero_forms(self):
        rng = random.Random(1)
        for n in (2, 3, 4):
            w = random_polyform(n, 0, rng)
            assert d_classical(w) == d_right(w)

    def test_dd_zero_both_conventions(self):
        rng = random.Random(2)
        for n, k in [(3, 1), (4, 1), (4, 2), (5, 2)]:
            w = random_polyform(n, k, rng)
            assert d_right(d_right(w)).is_zero()
            assert d_classical(d_classical(w)).is_zero()

    def test_parity_relation(self):
        rng = random.Random(3)
        for n, r in [(3, 1), (4, 2), (5, 2), (5, 3)]:
            w = random_polyform(n, r, rng)
            dr, dc = d_right(w), d_classical(w)
            flipped = PolyKForm(n, dr.k, {key: -p for key, p in dr.coeffs.items()})
            assert dc == (dr if r % 2 == 0 else flipped)

    def test_top_degree_is_zero(self):
        rng = random.Random(4)
        w = random_polyform(3, 3, rng)
        assert d_right(w).is_zero()
        assert d_classical(w).is_zero()


class TestPolynomialMatrixShape:
    """A matrix off the (n, k) shape, or with entries other than polynomials in
    n variables, is a DomainError before anything projects it."""

    @pytest.mark.parametrize("k,rows,width", [
        (2, 3, 4),      # rows too wide
        (2, 3, 2),      # rows too narrow
        (2, 2, 3),      # too few rows
        (3, 2, 3),      # C(3, 2) = 3 rows needed
    ])
    def test_wrong_shape_rejected(self, k, rows, width):
        with pytest.raises(DomainError):
            project_polynomial(PolynomialMatrix(3, k, [[x(1, 3)] * width] * rows))

    @pytest.mark.parametrize("k", [1, 4])
    def test_degree_outside_2_to_n_rejected(self, k):
        with pytest.raises(DomainError):
            PolynomialMatrix(3, k, [[x(1, 3)] * 3] * 3)

    @pytest.mark.parametrize("entry", [1, Fraction(1, 2), x(1, 2), x(1, 4)])
    def test_entries_must_be_polynomials_in_n_variables(self, entry):
        with pytest.raises(DomainError):
            project_polynomial(PolynomialMatrix(3, 2, [[entry] * 3] * 3))


class TestGradientProjection:
    def test_polynomial_identity(self):
        rng = random.Random(5)
        for n in range(2, 6):
            for k in (2, 3):
                if k > n:
                    continue
                for _ in range(5):
                    w = random_polyform(n, k - 1, rng)
                    assert project_polynomial(gradient(w)) == d_right(w)

    def test_pointwise_through_shape_matrices(self):
        rng = random.Random(6)
        w = random_polyform(4, 1, rng)
        for _ in range(5):
            point = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4))
            X = gradient(w).evaluate(point)
            assert project(X) == d_right(w).evaluate(point)

    def test_json_roundtrip(self):
        rng = random.Random(7)
        w = random_polyform(3, 2, rng)
        assert PolyKForm.from_json(w.to_json()) == w

    @pytest.mark.parametrize("obj", [
        {"n": 4.7, "k": 1},
        {"n": 4.7, "k": 1, "coeffs": {}},
        {"n": "4", "k": 1, "coeffs": {}},
        {"n": 4, "coeffs": {}},
        {"n": 4, "k": 1},
        {"n": 4, "k": 1, "coeffs": {}, "extra": 0},
        {"n": 4, "k": 1, "coeffs": ["1"]},
        {"n": 4, "k": 1, "coeffs": {"1": 3}},
        {"n": 4, "k": 1, "coeffs": {"1": "1/0*x1"}},
    ])
    def test_malformed_json_rejected(self, obj):
        with pytest.raises(DomainError):
            PolyKForm.from_json(obj)
