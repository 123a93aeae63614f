import itertools
import operator
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extconv import polyform
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

    def test_evaluate_reads_the_point_by_the_scalar_rules(self):
        p = Poly.parse("x1*x2 + 1/2", 2)
        assert p.evaluate((np.int64(3), Fraction(1, 3))) == Fraction(3, 2)
        assert type(Poly.parse("x1*x2 + 1", 2).evaluate((np.int64(2), 3))) is int
        assert type(Poly.parse("1/2*x1 + 1/2*x2", 2).evaluate((1, 1))) is int    # not Fraction(1)
        value = p.evaluate((np.float64(0.5), 2))
        assert value == 1.5 and type(value) is float
        for point in [(True, 1), (1, False), ("1", 1), (1j, 1), (None, 1), (Fraction(1), "x"),
                      (float("inf"), 1), (float("nan"), 1), (np.bool_(True), 1)]:
            with pytest.raises(DomainError):
                p.evaluate(point)
        with pytest.raises(DomainError):
            p.evaluate((1,))

    def test_evaluate_refuses_a_value_beyond_the_float_range(self):
        with pytest.raises(DomainError, match="float range"):
            Poly.parse("x1^400", 1).evaluate([10.0])            # a power that overflows
        with pytest.raises(DomainError):
            Poly.parse("x1^200*x2^200", 2).evaluate([10.0, 10.0])    # a product that reads inf
        with pytest.raises(DomainError):
            Poly.parse("x1^300 - x2^300", 2).evaluate([11.0, 11.0])  # inf − inf
        with pytest.raises(DomainError):
            Poly(1, {(1,): 10 ** 400}).evaluate([0.5])        # an int too large for a float
        assert Poly.parse("x1^400", 1).evaluate([10]) == 10 ** 400    # exact points stay exact

    def test_module_evaluate_reads_the_point_once_by_the_same_rules(self):
        w = PolyKForm(2, 1, {(1,): Poly.parse("x1^400", 2), (2,): x(2, 2)})
        assert evaluate(w, (1, Fraction(1, 2))) == KForm(2, 1, [1, Fraction(1, 2)])
        for point in [(True, 1), (1, "2"), (10.0, 1)]:
            with pytest.raises(DomainError):
                evaluate(w, point)

    def test_bad_variable_rejected(self):
        with pytest.raises(DomainError):
            Poly.parse("x4", 3)
        with pytest.raises(DomainError):
            Poly.variable(3, 0)
        with pytest.raises(DomainError, match="variable count must be nonnegative"):
            Poly(-1)

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


def assert_checked(p: Poly) -> None:
    """``p`` keeps every rule the public constructor checks, and equals its
    re-checked copy term for term, in value and in type."""
    for expo, coeff in p.terms.items():
        assert type(expo) is tuple and len(expo) == p.nvars
        assert all(type(e) is int and e >= 0 for e in expo)
        assert type(coeff) is int or (type(coeff) is Fraction and coeff.denominator != 1)
        assert coeff != 0
    again = Poly(p.nvars, p.terms)
    assert p == again and str(p) == str(again) and hash(p) == hash(again)
    assert [(e, type(c)) for e, c in p.terms.items()] == \
        [(e, type(c)) for e, c in again.terms.items()]


# polynomials in two variables whose halves and thirds often sum to integers
# and cancel
POLYS = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                        st.fractions(-2, 2, max_denominator=3), max_size=4
                        ).map(lambda terms: Poly(2, terms))


class TestTrustedArithmetic:
    """``+``, ``−``, ``*`` and ``diff`` build their results unchecked; every
    result must still keep the rules the public constructor enforces."""

    @settings(max_examples=80, deadline=None)
    @given(POLYS, POLYS, st.sampled_from([0, 1, -1, Fraction(1, 2), Fraction(-3, 2)]))
    def test_results_keep_the_invariant(self, a, b, scalar):
        results = [a + b, a - b, b - a, a * b, (a + b) - b, a - a, a + (-a), a * b - b * a,
                   a + scalar, scalar - a, a * scalar, scalar * a, -a,
                   a.diff(1), a.diff(2), (a * b).diff(1), (a - b).diff(2)]
        for result in results:
            assert_checked(result)
        assert (a + b) - b == a and not (a - a) and not (a + (-a)) and not (a * b - b * a)

    def test_halves_sum_to_an_int(self):
        half = Poly.parse("1/2*x1", 2)
        total = half + half
        assert total.terms == {(1, 0): 1} and type(total.terms[(1, 0)]) is int
        assert str(total) == "x1" and not (half - half)
        square = Poly.parse("3/2*x1^2", 2).diff(1) * Fraction(2, 3)
        assert square.terms == {(1, 0): 2} and type(square.terms[(1, 0)]) is int
        assert type((Poly.parse("2/3*x2^3", 2).diff(2)).terms[(0, 2)]) is int

    @pytest.mark.parametrize("terms", [
        {(-1, 0): 1}, {(1,): 1}, {(1, 0, 0): 1},       # negative or wrong-length exponent
        {(1.5, 0): 1}, {(True, 0): 1},                  # an exponent that is no integer
        {(1, 0): True}, {(1, 0): 0.5}, {(1, 0): "1"},   # a bool, a non-integral float, text
    ])
    def test_public_constructor_checks_every_term(self, terms):
        with pytest.raises(DomainError):
            Poly(2, terms)

    def test_public_constructor_normalizes(self):
        p = Poly(2, {(np.int64(1), 0): Fraction(4, 2), (0, 1): 3.0, (0, 0): 0})
        assert p.terms == {(1, 0): 2, (0, 1): 3}
        assert_checked(p)

    def test_outside_scalars_are_checked_when_lifted(self):
        for bad in (True, 0.5, "1"):
            with pytest.raises(DomainError):
                Poly.variable(2, 1) + bad
        with pytest.raises(DomainError):
            Poly.variable(2, 1) - Poly.variable(3, 1)


class TestLiftFreeRingOperations:
    """``+``, ``−`` and ``*`` take a polynomial of their own ring as it is;
    every other operand is still lifted and checked."""

    OPS = [operator.add, operator.sub, operator.mul]

    @pytest.mark.parametrize("op", OPS)
    def test_mixed_variable_counts_refused_both_ways(self, op):
        two, three = Poly.parse("x1 + 1", 2), Poly.parse("x3 - 1/2", 3)
        for a, b in [(two, three), (three, two), (Poly.zero(2), Poly.zero(3)),
                     (Poly.zero(3), two)]:
            with pytest.raises(DomainError, match="mixed variable counts"):
                op(a, b)

    @pytest.mark.parametrize("op", OPS)
    @pytest.mark.parametrize("bad", [True, False, 0.5, -1.25, "1", None, 1j])
    def test_scalars_on_either_side_still_checked(self, op, bad):
        p = Poly.parse("x1 - x2", 2)
        with pytest.raises(DomainError):
            op(p, bad)
        with pytest.raises(DomainError):
            op(bad, p)

    @pytest.mark.parametrize("op", OPS)
    @pytest.mark.parametrize("good", [3, -2.0, Fraction(4, 2), Fraction(-1, 3), np.int64(5)])
    def test_scalars_are_lifted_as_constants(self, op, good):
        p = Poly.parse("x1 - 1/2*x2", 2)
        const = Poly.const(2, good)
        assert op(p, good) == op(p, const) and op(const, p) == op(good, p)
        assert_checked(op(p, good))


# polynomials in up to 8 variables with exponents 0–3 and Fraction
# coefficients; zero and constant polynomials come with them
def _polys_in(n):
    return st.dictionaries(st.tuples(*[st.integers(0, 3)] * n),
                           st.fractions(-3, 3, max_denominator=4), max_size=5
                           ).map(lambda terms: Poly(n, terms))


FORMS_OF_POLYS = st.integers(1, 8).flatmap(
    lambda n: st.lists(_polys_in(n), min_size=n, max_size=n).map(
        lambda ps: PolyKForm(n, 1, {(i + 1,): p for i, p in enumerate(ps)})))


class TestOnePassPartials:
    """The derivative stack that ``gradient`` and ``d_right`` read is built in
    one pass; every entry must be what the one-variable route, ``Poly.diff``,
    gives, and keep the class invariant."""

    @settings(max_examples=60, deadline=None)
    @given(FORMS_OF_POLYS)
    def test_every_entry_is_diff(self, w):
        stack = polyform._partials(w)
        assert stack.shape == (w.n, w.n) and stack.dtype == object
        for p, row in zip(w.coeffs.tolist(), stack.tolist()):
            for i, partial in enumerate(row, start=1):
                assert type(partial) is Poly and partial.nvars == w.n
                assert partial == p.diff(i)
                assert_checked(partial)

    def test_zero_and_constant_polynomials(self):
        w = PolyKForm(3, 1, {(1,): Poly.zero(3), (2,): Poly.const(3, Fraction(5, 2))})
        assert not any(polyform._partials(w).ravel().tolist())

    def test_integral_results_are_ints(self):
        w = PolyKForm(2, 1, {(1,): Poly.parse("1/2*x1^2 + 2/3*x1^3*x2 + 1/3*x2", 2)})
        row = polyform._partials(w)[0]
        assert row[0].terms == {(1, 0): 1, (2, 1): 2} and row[1].terms == {(3, 0): Fraction(2, 3),
                                                                          (0, 0): Fraction(1, 3)}
        assert type(row[0].terms[(1, 0)]) is int and type(row[0].terms[(2, 1)]) is int

    def test_a_dropped_factor_is_caught_by_the_parity_check_only(self, partials_fault):
        """With ∂(c·x^e)/∂x read as c·x^(e−1) in the one-pass stack, the
        d_classical = (−1)^r d_right check fails, since ``d_classical`` reads
        ``Poly.diff``.  The gradient identity cannot see the fault: both of
        its sides read the stack (ROADMAP item 19, independence)."""
        w = PolyKForm(2, 1, {(1,): Poly.parse("x1^2*x2", 2)})
        assert gradient(w).entries[0, 0] == Poly.parse("x1*x2", 2)    # the fault is live
        with pytest.raises(AssertionError):
            TestExteriorDerivatives().test_parity_relation()
        TestGradientProjection().test_polynomial_identity()


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
        coeffs[mi] = Poly(n, terms)
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

    def test_two_keys_naming_one_multiindex_rejected(self):
        with pytest.raises(DomainError):
            PolyKForm(3, 2, {(1, 2): x(1, 3), "1,2": x(2, 3)})

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
        from extconv.multiindex import key_rank
        row = key_rank((2,), 3, 1, "row")
        assert mat.entries[row][0] == x(3, 3)
        assert mat.entries[row][2] == x(1, 3)
        assert not mat.entries[row][1]

    def test_evaluate_matches_pointwise_derivatives(self):
        rng = random.Random(0)
        w = random_polyform(3, 1, rng)
        mat = gradient(w)
        point = (Fraction(1, 2), 2, Fraction(-1, 3))
        X = evaluate(mat, point)
        for r, label in enumerate(itertools.combinations(range(1, 4), 1)):
            for i in range(1, 4):
                assert X.entries[r][i - 1] == w.coefficient(label).diff(i).evaluate(point)


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
        {"n": 4, "k": 1, "coeffs": {"1": "x1*"}},       # a dangling "*"
        {"n": 4, "k": 1, "coeffs": {"1": "2*"}},
        {"n": 4, "k": 1, "coeffs": {"1": "*x1"}},
        {"n": 4, "k": 1, "coeffs": {"1": "x1 * + x2"}},
        {"n": 4, "k": 1, "coeffs": {"1": "x1x2"}},      # factors with no "*" between
        {"n": 4, "k": 1, "coeffs": {"1": "2x1"}},
        {"n": 4, "k": 2, "coeffs": {"1,2": "x1", "1, 2": "x2"}},    # two keys name e^12
        {"n": 4, "k": 2, "coeffs": {"1,2": "x1", "01,2": "x2"}},
    ])
    def test_malformed_json_rejected(self, obj):
        with pytest.raises(DomainError):
            form_from_json(obj)
