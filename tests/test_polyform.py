import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extconv.errors import DomainError
from extconv.exterior import KForm, scalar_product, wedge
from extconv.polyform import (Poly, PolyKForm, d_classical, d_right, evaluate, form_from_json,
                              gradient, project_polynomial)
from extconv.projection import project
from extconv.shapespace import ShapeMatrix


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

    def test_whitespace_only_around_operators(self):
        assert Poly.parse(" 3/2 * x1^2*x3 -  x2 ", 3) == Poly.parse("3/2*x1^2*x3-x2", 3)
        for text in ["2 3", "x1 2", "x1 ^2", "3 /2*x1", "", " "]:
            with pytest.raises(DomainError):
                Poly.parse(text, 3)

    def test_truth_value_is_nonzero(self):
        assert not Poly.zero(2) and Poly.const(2, 1) and x(1, 2)
        assert not np.array([Poly.zero(2)], dtype=object).any()

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
        w = PolyKForm(3, 1, {(2,): x(1, 3)})
        assert w.coefficient((2,)) == x(1, 3) and not w.coefficient((3,))
        for key in [(1, 2), ()]:
            with pytest.raises(DomainError):
                w.coefficient(key)
        with pytest.raises(DomainError):
            w.coefficient((4,))

    def test_is_a_form_of_polynomials(self):
        w = PolyKForm(3, 1, {(2,): x(1, 3)})
        assert isinstance(w, KForm) and w.coeffs.tolist() == [Poly.zero(3), x(1, 3), Poly.zero(3)]
        assert all(isinstance(p, Poly) for p in w.coeffs.tolist())
        assert w.to_json() == {"n": 3, "k": 1, "coeffs": {"2": "x1"}}

    @pytest.mark.parametrize("coeff", [3, Fraction(1, 2), None, x(1, 3), x(1, 1)])
    def test_coefficients_must_be_polynomials_in_n_variables(self, coeff):
        with pytest.raises(DomainError):
            PolyKForm(2, 1, {(1,): coeff})

    @pytest.mark.parametrize("n,k,key", [(2, -1, ()), (2, 1, (3,)), (2, 1, (1, 2))])
    def test_bad_shape_or_key_rejected(self, n, k, key):
        with pytest.raises(DomainError):
            PolyKForm(n, k, {key: Poly.zero(n)})


class TestGradient:
    def test_single_monomial(self):
        w = PolyKForm(2, 1, {(1,): x(2, 2)})
        mat = gradient(w)
        # rows over {1},{2}; only entry (row {1}, col 2) is nonzero
        assert mat.entries[0][1] == Poly.const(2, 1)
        assert not mat.entries[0][0]
        assert not any(mat.entries[1])

    def test_constant_form(self):
        w = PolyKForm(3, 1, {(2,): Poly.const(3, 5)})
        assert not gradient(w).entries.any()

    def test_product_rule_entries(self):
        w = PolyKForm(3, 1, {(2,): x(1, 3) * x(3, 3)})
        mat = gradient(w)
        from extconv.multiindex import rank, MultiIndex
        row = rank(MultiIndex((2,), 3))
        assert mat.entries[row][0] == x(3, 3)
        assert mat.entries[row][2] == x(1, 3)
        assert not mat.entries[row][1]

    def test_evaluate_matches_pointwise_derivatives(self):
        rng = random.Random(0)
        w = random_polyform(3, 1, rng)
        mat = gradient(w)
        point = (Fraction(1, 2), 2, Fraction(-1, 3))
        X = evaluate(mat, point)
        for r, label in enumerate(X.row_labels):
            for i in range(1, 4):
                assert X.entries[r][i - 1] == w.coefficient(label.indices).diff(i).evaluate(point)


class TestExteriorDerivatives:
    def test_d_right_monomial(self):
        w = PolyKForm(2, 1, {(1,): x(2, 2)})
        out = d_right(w)
        assert out == PolyKForm(2, 2, {(1, 2): Poly.const(2, 1)})

    def test_d_right_kills_own_direction(self):
        w = PolyKForm(2, 1, {(1,): x(1, 2)})
        assert d_right(w).is_zero()

    def test_d_classical_component_formula(self):
        # dω coefficients (n=2, r=1): ∂ω_2/∂x_1 − ∂ω_1/∂x_2, with ω = x_2 e^1
        w = PolyKForm(2, 1, {(1,): x(2, 2)})
        out = d_classical(w)
        assert out == PolyKForm(2, 2, {(1, 2): Poly.const(2, -1)})

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
            assert dc == (dr if r % 2 == 0 else -dr)

    def test_top_degree_is_zero(self):
        rng = random.Random(4)
        w = random_polyform(3, 3, rng)
        assert d_right(w).is_zero()
        assert d_classical(w).is_zero()


class TestRingGeneric:
    """The form kernels run on polynomial coefficients unchanged: evaluating
    after a wedge or scalar product equals the product of the evaluations."""

    @pytest.mark.parametrize("n,k,l", [(4, 1, 1), (4, 1, 2), (5, 2, 2), (4, 0, 2), (3, 2, 2)])
    def test_wedge_and_scalar_product_commute_with_evaluation(self, n, k, l):
        rng = random.Random(n * 100 + k * 10 + l)
        a, b, c = random_polyform(n, k, rng), random_polyform(n, l, rng), random_polyform(n, k, rng)
        for _ in range(3):
            point = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n))
            assert evaluate(wedge(a, b), point) == wedge(evaluate(a, point), evaluate(b, point))
            assert scalar_product(a, c).evaluate(point) \
                == scalar_product(evaluate(a, point), evaluate(c, point))


class TestPolynomialMatrixShape:
    """A polynomial shape matrix off the (n, k) shape, or with entries other
    than polynomials in n variables, is a DomainError before anything
    projects it."""

    @pytest.mark.parametrize("k,rows,width", [
        (2, 3, 4),      # rows too wide
        (2, 3, 2),      # rows too narrow
        (2, 2, 3),      # too few rows
        (3, 2, 3),      # C(3, 2) = 3 rows needed
    ])
    def test_wrong_shape_rejected(self, k, rows, width):
        with pytest.raises(DomainError):
            project_polynomial(ShapeMatrix(3, k, [[x(1, 3)] * width] * rows))

    @pytest.mark.parametrize("k", [1, 4])
    def test_degree_outside_2_to_n_rejected(self, k):
        with pytest.raises(DomainError):
            ShapeMatrix(3, k, [[x(1, 3)] * 3] * 3)

    @pytest.mark.parametrize("entry", [1, Fraction(1, 2), x(1, 2), x(1, 4)])
    def test_entries_must_be_polynomials_in_n_variables(self, entry):
        with pytest.raises(DomainError):
            project_polynomial(ShapeMatrix(3, 2, [[entry] * 3] * 3))


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
            X = evaluate(gradient(w), point)
            assert project(X) == evaluate(d_right(w), point)

    def test_json_roundtrip(self):
        rng = random.Random(7)
        w = random_polyform(3, 2, rng)
        assert form_from_json(w.to_json()) == w

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
        {"n": 4, "k": 1, "coeffs": {"1": "2 3"}},       # whitespace between digits
        {"n": 12, "k": 1, "coeffs": {"1": "x1 2"}},     # whitespace between factor and digit
        {"n": 4, "k": 1, "coeffs": {"1": ""}},
        {"n": 4, "k": 1, "coeffs": {"1": "  "}},
    ])
    def test_malformed_json_rejected(self, obj):
        with pytest.raises(DomainError):
            form_from_json(obj)
