"""Scalar functions on forms as sandboxed expression trees.

A function f on degree-k forms is described by a JSON-able tree so the CLI can
accept user-defined functions without executing arbitrary code.  Scalar nodes:
constants, add, mul, neg, abs, pow, inner (pairing with a fixed form) and
norm_sq (pairing the argument with itself); form nodes: the argument "xi",
fixed-form literals and wedge powers.  Form literals are either a full form
JSON object or the shorthand "e" + digits ("e1234" for the basis form on
indices 1,2,3,4 — single digits, which covers every desk-scale dimension).

The tree is compiled once, at construction, in one walk that validates every
node and parses every literal and constant once.  The walk yields one kernel,
``FormFunction.evaluate_rows``, that maps an (m × C(n,k)) numpy array of
argument coefficients to the m values of f.  The array's dtype is the scalar
type: float64, or object holding ints and Fractions, which evaluates exactly.
A form argument runs the kernel on its coefficient array as a one-row stack.

Within one evaluation, every ``wedge_pow`` node on the same argument reads
one power chain: ξ¹, ξ² = ξ¹ ∧ ξ, ξ³ = ξ² ∧ ξ, … grown as far as the highest
power asked for, the left fold ``exterior.wedge_power_rows`` runs, so each
power has the bits that function gives it.  The argument is "xi" or a literal
named by its text, or else the node's own subtree.  The chains live in a memo
made by each call and dropped at its end; nothing is cached across calls.

A float value computed alone and the same value computed inside a batch are
the same float: every sum runs left to right in the order of the scalar loops
(``exterior.ordered_sum``), powers are repeated squarings, and no row ever
meets another.  A float value that leaves the float range raises
``DomainError``.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping, NamedTuple

import numpy as np

from . import scalars
from .errors import DomainError
from .exterior import (KForm, json_fields, ordered_sum, power_by_squaring, wedge_power_rows,
                       wedge_rows)
from .multiindex import integer


class FormFunction:
    """Deterministic scalar-valued function on degree-k forms."""

    __slots__ = ("n", "k", "expr", "_rows")

    def __init__(self, n: int, k: int, expr):
        # every convexity campaign samples a function, so this one check
        # keeps them all off spaces with no nonzero forms
        n, k = integer(n, "dimension"), integer(k, "degree")
        if not 1 <= k <= n:
            raise DomainError(f"functions on degree-k forms need 1 ≤ k ≤ n, got k={k}, n={n}")
        self.n = n
        self.k = k
        self.expr = expr
        try:
            compiled = _compile(expr, n, k)
        except RecursionError:
            raise DomainError("function expression nests too deep to compile") from None
        if compiled.degree is not None:
            raise DomainError("function expression must be scalar-valued, "
                              f"got a degree-{compiled.degree} form")
        self._rows = compiled.rows

    def __call__(self, xi: KForm):
        if xi.n != self.n or xi.k != self.k:
            raise DomainError(f"argument lives in ({xi.n},{xi.k}), function expects "
                              f"({self.n},{self.k})")
        return self.evaluate_rows(xi.coeffs[None]).item()

    def evaluate_rows(self, rows: np.ndarray) -> np.ndarray:
        """f on each row of an (m × C(n,k)) array of argument coefficients: exact
        for an object array of ints and Fractions, float for anything else."""
        rows = self._checked(rows)
        with scalars.float_guard("function value"):
            values = self._rows(rows, True, {})
        return values if values.dtype == object else \
            scalars.require_finite(values, "function value")

    def magnitude_rows(self, rows: np.ndarray) -> np.ndarray:
        """The running-error magnitude of ``evaluate_rows`` on each row.

        It is f with every sign dropped, evaluated on |rows|: the sum of the
        absolute values of the terms the float evaluation adds.  The rounding
        error of a float value of f is a small multiple of machine epsilon
        times this magnitude, even where the terms cancel and f is near 0.
        It bounds float rounding only, so an exact (object) stack is refused.
        """
        rows = self._checked(rows)
        if rows.dtype == object:
            raise DomainError("a magnitude bounds float rounding, so it takes float rows only")
        with scalars.float_guard("function magnitude"):
            values = self._rows(np.abs(rows), False, {})
        return scalars.require_finite(values, "function magnitude")

    def _checked(self, rows) -> np.ndarray:
        return scalars.checked_rows(rows, math.comb(self.n, self.k),
                                    f"({self.n},{self.k}) coefficients")

    def to_json(self) -> dict:
        return {"n": self.n, "k": self.k, "expr": self.expr}

    @classmethod
    def from_json(cls, obj: Mapping) -> "FormFunction":
        return cls(*json_fields(obj, ("n", "k", "expr"), "function"))

    # convenience constructors for the test/report corpus -------------------

    @classmethod
    def constant(cls, n: int, k: int, value) -> "FormFunction":
        return cls(n, k, {"op": "const", "value": _json_scalar(value)})

    @classmethod
    def norm_squared(cls, n: int, k: int) -> "FormFunction":
        return cls(n, k, {"op": "norm_sq", "arg": "xi"})

    @classmethod
    def neg_norm_squared(cls, n: int, k: int) -> "FormFunction":
        return cls(n, k, {"op": "neg", "arg": {"op": "norm_sq", "arg": "xi"}})

    @classmethod
    def linear(cls, c: KForm) -> "FormFunction":
        return cls(c.n, c.k, {"op": "inner", "form": c.to_json(), "arg": "xi"})

    @classmethod
    def affine_combination(cls, n: int, k: int, coefficients) -> "FormFunction":
        """ξ ↦ c_0 + Σ_s ⟨c_s, ξ^s⟩ from [c_0 scalar, c_1, c_2, ...]."""
        parts = [{"op": "const", "value": _json_scalar(coefficients[0])}]
        for s, form in enumerate(coefficients[1:], start=1):
            parts.append({"op": "inner", "form": form.to_json(),
                          "arg": {"op": "wedge_pow", "s": s, "arg": "xi"}})
        return cls(n, k, {"op": "add", "args": parts})


def _json_scalar(value):
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return value
    return scalars.format_rational(value)


class _Compiled(NamedTuple):
    degree: int | None    # form degree, None for a scalar node
    # (array (m × C(n,k)), signed, memo) -> (m,) values or (m × C(n,degree)); the
    # memo is one evaluation's power chains, keyed by argument
    rows: Callable


def _exact_copy(convert: Callable) -> Callable:
    """A getter for a literal's exact copy, made once; a non-integral float has
    none, and its getter raises, so only exact evaluation fails on it."""
    try:
        value = convert()
    except DomainError as exc:
        reason = exc

        def fail():
            raise reason
        return fail
    return lambda: value


def _compile_constant(value) -> _Compiled:
    if isinstance(value, str):
        value = scalars.parse_rational(value)
    elif not isinstance(value, (int, float)) or isinstance(value, bool):
        raise DomainError(f"bad constant {value!r}")
    exact = _exact_copy(lambda: scalars.coerce(value))
    as_float = scalars.finite_float(value)

    def constant_rows(X, signed, memo):
        if X.dtype == object:
            return np.full(X.shape[0], exact(), dtype=object)
        return np.full(X.shape[0], as_float if signed else abs(as_float))

    return _Compiled(None, constant_rows)


def _parse_form_literal(node, n: int) -> KForm:
    if isinstance(node, str):
        if not node.startswith("e") or not node[1:].isdigit():
            raise DomainError(f"unknown form literal {node!r}")
        indices = tuple(int(ch) for ch in node[1:])
        return KForm.basis(n, indices)
    if isinstance(node, Mapping) and "coeffs" in node:
        form = KForm.from_json(node)
        if form.n != n:
            raise DomainError(f"form literal lives on R^{form.n}, expected R^{n}")
        return form
    raise DomainError(f"cannot read a form from {node!r}")


def _compile_literal(node, n: int) -> tuple[_Compiled, np.ndarray, Callable]:
    """A form literal's node, float coefficients and exact-copy getter, each made once."""
    form = _parse_form_literal(node, n)
    shape, what = form.coeffs.shape, "form literal coefficients"
    exact = _exact_copy(lambda: scalars.array(form.coeffs, shape, scalars.EXACT, what))
    coeffs = scalars.array(form.coeffs, shape, scalars.FLOAT, what)
    magnitudes = np.abs(coeffs)

    def literal_rows(X, signed, memo):
        values = exact() if X.dtype == object else coeffs if signed else magnitudes
        return np.broadcast_to(values, (X.shape[0], values.size))

    return _Compiled(form.k, literal_rows), coeffs, exact


def _field(node: Mapping, name: str):
    if name not in node:
        raise DomainError(f"{node['op']} node lacks {name!r}")
    return node[name]


def _compile_scalar(node, n: int, k: int, what: str) -> _Compiled:
    compiled = _compile(node, n, k)
    if compiled.degree is not None:
        raise DomainError(what)
    return compiled


def _compile_form(node, n: int, k: int, what: str) -> _Compiled:
    compiled = _compile(node, n, k)
    if compiled.degree is None:
        raise DomainError(what)
    return compiled


def _compile(node, n: int, k: int) -> _Compiled:
    """Validate ``node`` and build its kernel.

    The kernel takes a flag ``signed`` and the evaluation's memo.  Unsigned,
    it evaluates the node's magnitude instead: every sign dropped (constants,
    literal coefficients, negations, wedge signs), applied to |ξ|.
    """
    if node == "xi":
        return _Compiled(k, lambda X, signed, memo: X)
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        return _compile_constant(node)
    if isinstance(node, str):
        return _compile_literal(node, n)[0]
    if not isinstance(node, Mapping) or "op" not in node:
        raise DomainError(f"malformed expression node {node!r}")
    op = node["op"]
    if op == "const":
        return _compile_constant(node.get("value"))
    if op in ("add", "mul"):
        args = node.get("args", [])
        if not isinstance(args, list) or not args:
            raise DomainError(f"{op} needs at least one argument")
        kernels = [_compile_scalar(arg, n, k, f"{op} arguments must be scalars").rows
                   for arg in args]
        if op == "add":
            def add_rows(X, signed, memo):
                total = np.zeros(X.shape[0], dtype=X.dtype)
                for part in kernels:
                    total = total + part(X, signed, memo)
                return total

            return _Compiled(None, add_rows)

        def mul_rows(X, signed, memo):
            total = kernels[0](X, signed, memo)
            for part in kernels[1:]:
                total = total * part(X, signed, memo)
            return total

        return _Compiled(None, mul_rows)
    if op in ("neg", "abs"):
        kernel = _compile_scalar(_field(node, "arg"), n, k,
                                 f"{op} argument must be a scalar").rows
        if op == "neg":
            return _Compiled(None, lambda X, signed, memo: -kernel(X, signed, memo) if signed
                             else kernel(X, signed, memo))
        return _Compiled(None, lambda X, signed, memo: np.abs(kernel(X, signed, memo)))
    if op == "pow":
        exp = integer(node.get("exp"), "pow exponent")
        if exp < 0:
            raise DomainError(f"pow exponent must be a nonnegative integer, got {exp!r}")
        kernel = _compile_scalar(_field(node, "base"), n, k, "pow base must be a scalar").rows
        return _Compiled(None, lambda X, signed, memo:
                         power_by_squaring(kernel(X, signed, memo), exp))
    if op == "inner":
        literal, coeffs, exact = _compile_literal(_field(node, "form"), n)
        arg = _compile_form(_field(node, "arg"), n, k, "inner needs a form-valued argument")
        if arg.degree != literal.degree:
            raise DomainError(f"inner pairs degree {literal.degree} with degree {arg.degree}")
        kernel = arg.rows
        # a zero coefficient's product adds nothing to a finite float sum
        live = np.flatnonzero(coeffs)
        weights = {True: coeffs[live], False: np.abs(coeffs[live])}

        def inner_rows(X, signed, memo):
            value = kernel(X, signed, memo)
            if value.dtype == object:    # every coefficient: a tiny rational reads 0.0
                return ordered_sum(value * exact())
            return ordered_sum(value[:, live] * weights[signed])

        return _Compiled(None, inner_rows)
    if op == "norm_sq":
        kernel = _compile_form(_field(node, "arg"), n, k,
                               "norm_sq needs a form-valued argument").rows

        def norm_sq_rows(X, signed, memo):
            value = kernel(X, signed, memo)
            return ordered_sum(value * value)

        return _Compiled(None, norm_sq_rows)
    if op == "wedge_pow":
        s = integer(node.get("s"), "wedge_pow exponent")
        if s < 0:
            raise DomainError(f"wedge_pow exponent must be a nonnegative integer, got {s!r}")
        arg_node = _field(node, "arg")
        arg = _compile_form(arg_node, n, k, "wedge_pow needs a form-valued argument")
        kernel, degree = arg.rows, arg.degree
        if s == 0 or degree == 0 or degree * s > n:
            return _Compiled(degree * s, lambda X, signed, memo: wedge_power_rows(
                kernel(X, signed, memo), n, degree, s, signed))
        # "xi" and a literal's text name their value; any other argument is its own
        key = arg_node if isinstance(arg_node, str) else kernel

        def wedge_pow_rows(X, signed, memo):
            chain = memo.get(key)
            if chain is None:
                chain = memo[key] = [kernel(X, signed, memo)]
            base = chain[0]
            while len(chain) < s:
                chain.append(wedge_rows(chain[-1], base, n, degree * len(chain), degree, signed))
            return chain[s - 1]

        return _Compiled(degree * s, wedge_pow_rows)
    raise DomainError(f"unknown expression op {op!r}")
