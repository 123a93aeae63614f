"""Scalar functions on forms as sandboxed expression trees.

A function f on degree-k forms is described by a JSON-able tree so the CLI can
accept user-defined functions without executing arbitrary code.  Scalar nodes:
constants, add, mul, neg, abs, pow, inner (pairing with a fixed form) and
norm_sq (pairing the argument with itself); form nodes: the argument "xi",
fixed-form literals and wedge powers.  Form literals are either a full form
JSON object or the shorthand "e" + digits ("e1234" for the basis form on
indices 1,2,3,4 — single digits, which covers every desk-scale dimension).

The tree is compiled once, at construction, in one walk that validates every
node and parses every literal and constant once per backend.  The walk yields
two evaluators:

* an exact walker on ``KForm`` arguments, in ints and Fractions;
* a float kernel, ``FormFunction.evaluate_rows``, that maps an
  (m × C(n,k)) numpy array of argument coefficients to the m values of f.

A float argument runs the kernel on one row, so a value computed alone and the
same value computed inside a batch are the same float: every sum runs left to
right in the order of the scalar loops (``exterior.ordered_sum``), powers are
repeated squarings, and no row ever meets another.  A value that leaves the
float range raises ``DomainError``.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping, NamedTuple

import numpy as np

from . import scalars
from .errors import DomainError
from .exterior import (KForm, json_fields, ordered_sum, scalar_product, wedge_power,
                       wedge_power_rows)


class FormFunction:
    """Deterministic scalar-valued function on degree-k forms."""

    __slots__ = ("n", "k", "expr", "_exact", "_rows")

    def __init__(self, n: int, k: int, expr):
        self.n = n
        self.k = k
        self.expr = expr
        compiled = _compile(expr, n, k)
        if compiled.degree is not None:
            raise DomainError("function expression must be scalar-valued, "
                              f"got a degree-{compiled.degree} form")
        self._exact = compiled.exact
        self._rows = compiled.rows

    def __call__(self, xi: KForm):
        if xi.n != self.n or xi.k != self.k:
            raise DomainError(f"argument lives in ({xi.n},{xi.k}), function expects "
                              f"({self.n},{self.k})")
        if xi.backend == scalars.FLOAT:
            return float(self.evaluate_rows(np.array([xi.coeffs]))[0])
        return self._exact(xi)

    def evaluate_rows(self, rows: np.ndarray) -> np.ndarray:
        """f on each row of an (m × C(n,k)) float array of argument coefficients."""
        rows = self._checked(rows)
        with scalars.float_guard("function value"):
            values = self._rows(rows, True)
        return scalars.require_finite(values, "function value")

    def magnitude_rows(self, rows: np.ndarray) -> np.ndarray:
        """The running-error magnitude of ``evaluate_rows`` on each row.

        It is f with every sign dropped, evaluated on |rows|: the sum of the
        absolute values of the terms the float evaluation adds.  The rounding
        error of a float value of f is a small multiple of machine epsilon
        times this magnitude, even where the terms cancel and f is near 0.
        """
        rows = self._checked(rows)
        with scalars.float_guard("function magnitude"):
            values = self._rows(np.abs(rows), False)
        return scalars.require_finite(values, "function magnitude")

    def _checked(self, rows) -> np.ndarray:
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != math.comb(self.n, self.k):
            raise DomainError(f"expected an (m × {math.comb(self.n, self.k)}) array of "
                              f"({self.n},{self.k}) coefficients, got shape {rows.shape}")
        return scalars.require_finite(rows, "function argument")

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
    def inner_power(cls, c: KForm, k: int, s: int) -> "FormFunction":
        """ξ ↦ ⟨c, ξ^s⟩ for c of degree k·s."""
        if c.k != k * s:
            raise DomainError(f"pairing form has degree {c.k}, expected {k * s}")
        return cls(c.n, k, {"op": "inner", "form": c.to_json(),
                            "arg": {"op": "wedge_pow", "s": s, "arg": "xi"}})

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
    exact: Callable       # KForm -> exact scalar or KForm
    rows: Callable        # (array (m × C(n,k)), signed) -> (m,) values or (m × C(n,degree))


def _identity(value, signed=True):
    return value


def _exact_walker(convert: Callable) -> Callable:
    """A walker returning the exact backend's copy of a literal, made once.

    A non-integral float has no exact copy; that is an error only when the
    exact backend evaluates it.
    """
    try:
        value = convert()
    except DomainError as exc:
        reason = exc

        def fail(xi):
            raise reason
        return fail
    return lambda xi: value


def _compile_constant(value) -> _Compiled:
    if isinstance(value, str):
        try:
            value = scalars.parse_rational(value)
        except (ValueError, ZeroDivisionError):
            raise DomainError(f"bad constant {value!r}") from None
    elif not isinstance(value, (int, float)) or isinstance(value, bool):
        raise DomainError(f"bad constant {value!r}")
    exact = _exact_walker(lambda: scalars.coerce(value, scalars.EXACT))
    as_float = float(value)
    return _Compiled(None, exact,
                     lambda X, signed: np.full(X.shape[0], as_float if signed else abs(as_float)))


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


def _compile_literal(node, n: int) -> tuple[_Compiled, np.ndarray]:
    """A form literal's node and its float coefficients, each parsed once."""
    form = _parse_form_literal(node, n)
    exact = _exact_walker(lambda: form if form.backend == scalars.EXACT
                          else KForm(form.n, form.k, form.coeffs, scalars.EXACT))
    coeffs = np.array([float(c) for c in form.coeffs])
    magnitudes = np.abs(coeffs)
    for array in (coeffs, magnitudes):
        array.flags.writeable = False

    def literal_rows(X, signed):
        return np.broadcast_to(coeffs if signed else magnitudes, (X.shape[0], coeffs.size))

    return _Compiled(form.k, exact, literal_rows), coeffs


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
    """Validate ``node`` and build its exact walker and float kernel.

    The float kernel takes a flag ``signed``.  Unsigned, it evaluates the
    node's magnitude instead: every sign dropped (constants, literal
    coefficients, negations, wedge signs), applied to |ξ|.
    """
    if node == "xi":
        return _Compiled(k, _identity, _identity)
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
        parts = [_compile_scalar(arg, n, k, f"{op} arguments must be scalars")
                 for arg in args]
        exacts = [part.exact for part in parts]
        kernels = [part.rows for part in parts]
        if op == "add":
            def add_exact(xi):
                total = 0
                for part in exacts:
                    total += part(xi)
                return total

            def add_rows(X, signed):
                total = np.zeros(X.shape[0])
                for part in kernels:
                    total = total + part(X, signed)
                return total

            return _Compiled(None, add_exact, add_rows)

        def mul_exact(xi):
            total = 1
            for part in exacts:
                total *= part(xi)
            return total

        def mul_rows(X, signed):
            total = kernels[0](X, signed)
            for part in kernels[1:]:
                total = total * part(X, signed)
            return total

        return _Compiled(None, mul_exact, mul_rows)
    if op in ("neg", "abs"):
        arg = _compile_scalar(_field(node, "arg"), n, k, f"{op} argument must be a scalar")
        exact, kernel = arg.exact, arg.rows
        if op == "neg":
            return _Compiled(None, lambda xi: -exact(xi),
                             lambda X, signed: -kernel(X, signed) if signed else kernel(X, signed))
        return _Compiled(None, lambda xi: abs(exact(xi)),
                         lambda X, signed: np.abs(kernel(X, signed)))
    if op == "pow":
        exp = node.get("exp")
        if not isinstance(exp, int) or exp < 0:
            raise DomainError(f"pow exponent must be a nonnegative integer, got {exp!r}")
        base = _compile_scalar(_field(node, "base"), n, k, "pow base must be a scalar")
        exact, kernel = base.exact, base.rows
        return _Compiled(None, lambda xi: exact(xi) ** exp,
                         lambda X, signed: _power_by_squaring(kernel(X, signed), exp))
    if op == "inner":
        literal, coeffs = _compile_literal(_field(node, "form"), n)
        arg = _compile_form(_field(node, "arg"), n, k, "inner needs a form-valued argument")
        if arg.degree != literal.degree:
            raise DomainError(f"inner pairs degree {literal.degree} with degree {arg.degree}")
        fixed, exact, kernel = literal.exact, arg.exact, arg.rows
        # a zero coefficient's product adds nothing to a finite sum
        live = np.flatnonzero(coeffs)
        weights = {True: coeffs[live], False: np.abs(coeffs[live])}
        return _Compiled(None, lambda xi: scalar_product(fixed(xi), exact(xi)),
                         lambda X, signed: ordered_sum(kernel(X, signed)[:, live]
                                                       * weights[signed]))
    if op == "norm_sq":
        arg = _compile_form(_field(node, "arg"), n, k, "norm_sq needs a form-valued argument")
        exact, kernel = arg.exact, arg.rows

        def norm_sq_exact(xi):
            value = exact(xi)
            return scalar_product(value, value)

        def norm_sq_rows(X, signed):
            value = kernel(X, signed)
            return ordered_sum(value * value)

        return _Compiled(None, norm_sq_exact, norm_sq_rows)
    if op == "wedge_pow":
        s = node.get("s")
        if not isinstance(s, int) or s < 0:
            raise DomainError(f"wedge_pow exponent must be a nonnegative integer, got {s!r}")
        arg = _compile_form(_field(node, "arg"), n, k, "wedge_pow needs a form-valued argument")
        exact, kernel, degree = arg.exact, arg.rows, arg.degree
        return _Compiled(degree * s, lambda xi: wedge_power(exact(xi), s),
                         lambda X, signed: wedge_power_rows(kernel(X, signed), n, degree, s,
                                                            signed))
    raise DomainError(f"unknown expression op {op!r}")


def _power_by_squaring(base: np.ndarray, exp: int) -> np.ndarray:
    """base ** exp by repeated squaring: the same rounding for every row on every build."""
    result = np.ones(base.shape[0])
    while exp:
        if exp & 1:
            result = result * base
        exp >>= 1
        if exp:
            base = base * base
    return result
