import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from extconv import scalars
from extconv.errors import DomainError
from extconv.exterior import KForm, wedge_power
from extconv.functions import FormFunction

from oracles import coeffs_to_dict, evaluate_expression, rand_exact, reference_rows


def exact_form(n, k, entries):
    return KForm.from_dict(n, k, entries)


class TestParsing:
    def test_pairing_with_wedge_power_tree(self):
        f = FormFunction.from_json(
            {"n": 4, "k": 2,
             "expr": {"op": "inner", "form": "e1234",
                      "arg": {"op": "wedge_pow", "s": 2, "arg": "xi"}}})
        xi = exact_form(4, 2, {(1, 2): 3, (3, 4): 5})
        # <e1234, xi^2> = 2·3·5
        assert f(xi) == 30

    def test_roundtrip(self):
        f = FormFunction.norm_squared(4, 2)
        again = FormFunction.from_json(f.to_json())
        xi = exact_form(4, 2, {(1, 3): Fraction(1, 2)})
        assert f(xi) == again(xi) == Fraction(1, 4)

    def test_rational_string_constant(self):
        f = FormFunction(3, 1, {"op": "const", "value": "7/3"})
        assert f(KForm.zero(3, 1)) == Fraction(7, 3)

    def test_top_level_form_rejected(self):
        with pytest.raises(DomainError):
            FormFunction(3, 1, "xi")

    def test_inner_degree_mismatch_rejected(self):
        with pytest.raises(DomainError):
            FormFunction(4, 2, {"op": "inner", "form": "e123", "arg": "xi"})

    def test_unknown_op_rejected(self):
        with pytest.raises(DomainError):
            FormFunction(3, 1, {"op": "det", "arg": "xi"})

    def test_bad_form_literal_rejected(self):
        with pytest.raises(DomainError):
            FormFunction(3, 1, {"op": "inner", "form": "q12", "arg": "xi"})

    def test_scalar_in_form_slot_rejected(self):
        with pytest.raises(DomainError):
            FormFunction(3, 1, {"op": "norm_sq", "arg": {"op": "const", "value": 1}})


class TestEvaluation:
    def test_polynomial_combination(self):
        f = FormFunction(3, 1, {"op": "add", "args": [
            {"op": "mul", "args": [2, {"op": "norm_sq", "arg": "xi"}]},
            {"op": "pow", "base": {"op": "inner", "form": "e2", "arg": "xi"}, "exp": 3},
            {"op": "abs", "arg": {"op": "const", "value": -4}},
        ]})
        xi = exact_form(3, 1, {(1,): 1, (2,): 2})
        assert f(xi) == 2 * 5 + 8 + 4

    def test_backend_follows_argument(self):
        f = FormFunction.norm_squared(3, 1)
        exact = f(exact_form(3, 1, {(2,): Fraction(1, 3)}))
        assert exact == Fraction(1, 9)
        floaty = f(KForm(3, 1, [0.0, 1.5, 0.0], scalars.FLOAT))
        assert isinstance(floaty, float) and abs(floaty - 2.25) < 1e-14

    def test_argument_space_checked(self):
        f = FormFunction.norm_squared(3, 1)
        with pytest.raises(DomainError):
            f(KForm.zero(4, 1))

    def test_affine_combination_constructor(self):
        c1 = exact_form(4, 2, {(1, 2): 2})
        c2 = exact_form(4, 4, {(1, 2, 3, 4): Fraction(1, 2)})
        f = FormFunction.affine_combination(4, 2, [Fraction(3), c1, c2])
        xi = exact_form(4, 2, {(1, 2): 1, (3, 4): 4})
        expected = 3 + 2 * 1 + Fraction(1, 2) * wedge_power(xi, 2).coefficient((1, 2, 3, 4))
        assert f(xi) == expected

    def test_linear_constructor(self):
        c = exact_form(4, 2, {(1, 4): -3})
        f = FormFunction.linear(c)
        xi = exact_form(4, 2, {(1, 4): Fraction(2, 3)})
        assert f(xi) == -2


def planted_pairing(n, k, seed, integral=False):
    """ξ ↦ c_0 + Σ_s ⟨c_s, ξ^s⟩ with random exact coefficients."""
    rng = random.Random(seed)
    den = 1 if integral else 4
    coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, den))]
    for s in range(1, n // k + 1):
        coeffs.append(KForm(n, k * s, [Fraction(rng.randint(-8, 8), rng.randint(1, den))
                                       for _ in range(math.comb(n, k * s))]))
    return FormFunction.affine_combination(n, k, coeffs)


def kernel_corpus():
    return [("norm_sq", FormFunction.norm_squared(8, 2)),
            ("neg_norm_sq", FormFunction.neg_norm_squared(8, 2)),
            ("planted", planted_pairing(8, 2, seed=3)),
            ("top_power", FormFunction(4, 2, {"op": "inner", "form": "e1234",
                                              "arg": {"op": "wedge_pow", "s": 2,
                                                      "arg": "xi"}}))]


def integral_corpus():
    return [FormFunction.norm_squared(8, 2),
            FormFunction.neg_norm_squared(6, 3),
            planted_pairing(8, 2, seed=5, integral=True),
            planted_pairing(6, 2, seed=6, integral=True),
            FormFunction(4, 2, {"op": "add", "args": [
                {"op": "mul", "args": [-3, {"op": "norm_sq",
                                            "arg": {"op": "wedge_pow", "s": 2, "arg": "xi"}}]},
                {"op": "pow", "base": {"op": "inner", "form": "e13", "arg": "xi"}, "exp": 5},
                {"op": "abs", "arg": {"op": "inner", "form": "e24", "arg": "xi"}},
                {"op": "norm_sq", "arg": "e12"}, 7]})]


def exact_corpus():
    return [f for _, f in kernel_corpus()] + integral_corpus()


def random_rows(f, m, seed):
    rng = random.Random(seed)
    return np.array([[rng.uniform(-2.0, 2.0) for _ in range(math.comb(f.n, f.k))]
                     for _ in range(m)])


class TestFloatKernel:
    @pytest.mark.parametrize("name,f", kernel_corpus())
    @pytest.mark.parametrize("m", [1, 7, 517])
    def test_batch_equals_each_row_alone(self, name, f, m):
        rows = random_rows(f, m, seed=m)
        batch = f.evaluate_rows(rows)
        alone = np.concatenate([f.evaluate_rows(rows[i:i + 1]) for i in range(m)])
        assert batch.shape == (m,)
        assert batch.tobytes() == alone.tobytes()
        calls = np.array([f(KForm(f.n, f.k, list(row), scalars.FLOAT)) for row in rows])
        assert calls.tobytes() == batch.tobytes()

    @pytest.mark.parametrize("name,f", kernel_corpus()[:2])
    def test_norm_square_sums_in_loop_order(self, name, f):
        row = random_rows(f, 1, seed=11)[0]
        total = 0.0
        for v in row:
            total += v * v
        value = f(KForm(f.n, f.k, list(row), scalars.FLOAT))
        assert value == (total if name == "norm_sq" else -total)

    @pytest.mark.parametrize("f", integral_corpus())
    def test_float_agrees_with_exact_on_integers(self, f):
        rng = random.Random(f.n * 10 + f.k)
        rows = [[rng.randint(-4, 4) for _ in range(math.comb(f.n, f.k))] for _ in range(40)]
        exact = [f(KForm(f.n, f.k, row)) for row in rows]
        assert all(isinstance(v, int) for v in exact)
        assert f.evaluate_rows(np.array(rows, dtype=float)).tolist() == exact

    def test_magnitude_bounds_the_value(self):
        for _, f in kernel_corpus():
            rows = random_rows(f, 50, seed=2)
            assert (f.magnitude_rows(rows) >= np.abs(f.evaluate_rows(rows))).all()

    def test_evaluation_parses_nothing(self, monkeypatch):
        from extconv import exterior, functions
        corpus = [f for _, f in kernel_corpus()]
        counts = {"parses": 0}

        def counting(owner, name):
            real = getattr(owner, name)

            def wrapper(*args, **kwargs):
                counts["parses"] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        counting(functions, "_parse_form_literal")
        counting(scalars, "parse_rational")
        counting(scalars, "scalar_from_json")
        counting(exterior, "key_rank")
        for owner, name in ((exterior.KForm, "from_json"), (exterior.KForm, "basis")):
            monkeypatch.setattr(owner, name, classmethod(
                lambda cls, *a, **kw: counts.__setitem__("parses", counts["parses"] + 1)))
        for f in corpus:
            rows = random_rows(f, 5, seed=1)
            f.evaluate_rows(rows)
            f.magnitude_rows(rows)
            f(KForm(f.n, f.k, list(rows[0]), scalars.FLOAT))
            f(KForm(f.n, f.k, [1] * math.comb(f.n, f.k)))
        assert counts["parses"] == 0

    def test_overflow_is_a_domain_error(self):
        f = FormFunction(4, 2, {"op": "pow", "exp": 400,
                                "base": {"op": "norm_sq", "arg": "xi"}})
        xi = KForm(4, 2, [1.0, 2.0, 0.0, 0.0, 0.0, 1.0], scalars.FLOAT)
        with pytest.raises(DomainError):
            f(xi)
        with pytest.raises(DomainError):
            f.evaluate_rows(np.ones((3, 6)))
        assert f(KForm(4, 2, [1, 2, 0, 0, 0, 1])) == 6 ** 400   # exact has no range

    def test_hidden_overflow_is_a_domain_error(self):
        # x^0 is 1 whatever x is, but x itself overflowed on the way
        f = FormFunction(3, 1, {"op": "pow", "exp": 0, "base": {
            "op": "pow", "exp": 300, "base": {"op": "norm_sq", "arg": "xi"}}})
        with pytest.raises(DomainError):
            f.evaluate_rows(np.full((1, 3), 100.0))

    def test_non_finite_argument_rejected(self):
        f = FormFunction.norm_squared(3, 1)
        with pytest.raises(DomainError):
            f.evaluate_rows(np.array([[1.0, np.inf, 0.0]]))
        with pytest.raises(DomainError):
            f.evaluate_rows(np.ones((2, 4)))

    def test_non_integral_literal_fails_only_on_the_exact_backend(self):
        f = FormFunction.linear(KForm(3, 1, [0.5, 0.0, 1.0], scalars.FLOAT))
        assert f(KForm(3, 1, [2.0, 1.0, 4.0], scalars.FLOAT)) == 5.0
        with pytest.raises(DomainError):
            f(KForm(3, 1, [2, 1, 4]))


class TestExactKernel:
    @pytest.mark.parametrize("f", exact_corpus())
    def test_values_match_the_oracle(self, f):
        rng = random.Random(f.n * 10 + f.k)
        for _ in range(8):
            coeffs = [rand_exact(rng) for _ in range(math.comb(f.n, f.k))]
            expected = evaluate_expression(f.expr, coeffs_to_dict(f.n, f.k, coeffs))
            assert f(KForm(f.n, f.k, coeffs)) == expected

    @pytest.mark.parametrize("f", exact_corpus())
    def test_object_batch_equals_each_row_alone(self, f):
        rng = random.Random(f.n + f.k)
        rows = np.array([[rand_exact(rng) for _ in range(math.comb(f.n, f.k))]
                         for _ in range(6)], dtype=object)
        batch = f.evaluate_rows(rows)
        assert batch.dtype == object and batch.shape == (6,)
        assert all(isinstance(v, (int, Fraction)) for v in batch)
        assert batch.tolist() == [f.evaluate_rows(rows[i:i + 1])[0] for i in range(6)]
        assert batch.tolist() == [f(KForm(f.n, f.k, list(row))) for row in rows]


def rational_form_json(n, k, rng):
    """A dense (n, k) form literal with rational coefficients."""
    return {"n": n, "k": k, "coeffs": {",".join(map(str, key)): str(rand_exact(rng))
                                       for key in itertools.combinations(range(1, n + 1), k)}}


def pairing(form, arg):
    return {"op": "inner", "form": form, "arg": arg}


def power(arg, s):
    return {"op": "wedge_pow", "s": s, "arg": arg}


def chain_corpus():
    """(8,2) expressions whose wedge powers share chains: repeated, out of
    order, nested, on ξ and on literals, and under every scalar op.  A basis
    literal's powers from s = 2 on vanish, so a chain that read ξ's powers
    for it would show."""
    rng = random.Random(17)
    c = {d: [rational_form_json(8, d, rng) for _ in range(3)] for d in (2, 4, 6, 8)}
    return {
        "repeated": [pairing(c[4][0], power("xi", 2)), pairing(c[4][1], power("xi", 2)),
                     {"op": "norm_sq", "arg": power("xi", 2)}],
        "out_of_order": [pairing(c[8][0], power("xi", 4)), pairing(c[4][0], power("xi", 2)),
                         pairing(c[6][0], power("xi", 3))],
        "nested": [pairing(c[8][0], power(power("xi", 2), 2)), pairing(c[4][0], power("xi", 2)),
                   pairing(c[8][1], power("xi", 4)),
                   pairing(c[6][0], power(power("xi", 1), 3))],
        "two_arguments": [pairing(c[6][0], power("xi", 3)), pairing(c[4][0], power("e12", 2)),
                          pairing(c[6][1], power("e12", 3)), pairing(c[4][1], power("xi", 2)),
                          pairing(c[2][0], power("e12", 1)), pairing(c[2][1], power("e34", 1)),
                          pairing(c[2][2], power("xi", 1))],
        "under_ops": [{"op": "neg", "arg": pairing(c[4][0], power("xi", 2))},
                      {"op": "abs", "arg": pairing(c[6][0], power("xi", 3))},
                      {"op": "mul", "args": [pairing(c[8][0], power("xi", 4)),
                                             pairing(c[4][1], power("xi", 2)),
                                             {"op": "const", "value": "-3/2"}]},
                      {"op": "pow", "exp": 3, "base": pairing(c[6][1], power("xi", 3))}],
        "off_the_chain": [{"op": "norm_sq", "arg": power("xi", 0)},
                          {"op": "norm_sq", "arg": power("xi", 5)},
                          pairing(c[4][0], power("xi", 2)),
                          {"op": "norm_sq", "arg": power(power("xi", 0), 3)}],
    }


class TestSharedPowerChain:
    """Every ``wedge_pow`` node on one argument reads one power chain per
    evaluation, with the bits of each power taken alone."""

    @pytest.mark.parametrize("name", list(chain_corpus()))
    def test_float_stacks_equal_each_power_alone(self, name):
        f = FormFunction(8, 2, {"op": "add", "args": chain_corpus()[name]})
        rows = random_rows(f, 23, seed=5)
        assert f.evaluate_rows(rows).tobytes() == reference_rows(f, rows).tobytes()
        assert f.magnitude_rows(rows).tobytes() == reference_rows(f, rows, False).tobytes()
        for i in (0, 22):
            alone = reference_rows(f, rows[i:i + 1])
            assert f(KForm(8, 2, list(rows[i]), scalars.FLOAT)) == alone[0]

    @pytest.mark.parametrize("name", list(chain_corpus()))
    def test_object_stacks_equal_each_power_alone(self, name):
        f = FormFunction(8, 2, {"op": "add", "args": chain_corpus()[name]})
        rng = random.Random(3)
        rows = np.array([[rand_exact(rng) for _ in range(28)] for _ in range(4)], dtype=object)
        values = f.evaluate_rows(rows)
        assert values.dtype == object
        assert values.tolist() == reference_rows(f, rows).tolist()

    def test_planted_pairing_takes_one_chain(self, monkeypatch):
        # ξ², ξ³ and ξ⁴ for the s = 2, 3, 4 pairings: one wedge each
        from extconv import exterior, functions
        calls = []

        def spy(owner):
            real = owner.wedge_rows
            monkeypatch.setattr(owner, "wedge_rows",
                                lambda *args: calls.append(args[2:5]) or real(*args))

        spy(functions)
        spy(exterior)
        f = planted_pairing(8, 2, seed=3)
        rows = random_rows(f, 9, seed=4)
        f.evaluate_rows(rows)
        assert calls == [(8, 2, 2), (8, 4, 2), (8, 6, 2)]
        calls.clear()
        f.magnitude_rows(rows)
        assert len(calls) == 3

    def test_each_evaluation_builds_its_own_chain(self):
        f = FormFunction(8, 2, {"op": "add", "args": chain_corpus()["out_of_order"]})
        first, second = random_rows(f, 6, seed=1), random_rows(f, 6, seed=2)
        f.evaluate_rows(first)
        assert f.evaluate_rows(second).tobytes() == reference_rows(f, second).tobytes()


class TestStrictJson:
    @pytest.mark.parametrize("obj", [
        {"n": 4, "k": 2},
        {"k": 2, "expr": {"op": "norm_sq", "arg": "xi"}},
        {"n": 4, "expr": {"op": "norm_sq", "arg": "xi"}},
        {"n": 4, "k": 2, "expr": {"op": "norm_sq", "arg": "xi"}, "coeffs": {}},
        {"n": "4", "k": 2, "expr": {"op": "norm_sq", "arg": "xi"}},
        {"n": 4, "k": True, "expr": {"op": "norm_sq", "arg": "xi"}},
        ["n", 4],
    ])
    def test_function_format_enforced(self, obj):
        with pytest.raises(DomainError):
            FormFunction.from_json(obj)

    @pytest.mark.parametrize("node", [
        {"op": "pow", "exp": 2},
        {"op": "const", "value": "1/0"},
        {"op": "const", "value": "three"},
        {"op": "inner", "form": {"n": 4, "k": 2}, "arg": "xi"},
        {"op": "inner", "form": {"n": 4, "k": 2, "coeffs": {"1,2": "1", "+1,2": "3"}},
         "arg": "xi"},
        {"op": "add", "args": "xi"},
    ])
    def test_malformed_nodes_are_domain_errors(self, node):
        with pytest.raises(DomainError):
            FormFunction(4, 2, node)
