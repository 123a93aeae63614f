"""Differential forms with exact polynomial coefficients.

This is the desk-scale stand-in for smooth (k−1)-fields: coefficients are
multivariate polynomials (``Poly``) in x_1..x_n over the rationals,
derivatives are formal, and the gradient / exterior-derivative identities can
be checked coefficientwise as exact polynomial identities.  There is no
polynomial form or matrix class: a polynomial field is a ``KForm`` and its
gradient a ``ShapeMatrix`` whose object array holds ``Poly`` entries, so
wedges, scalar products and the projection run their one kernel on them
unchanged.  ``PolyKForm`` builds such a form from a dict, and ``evaluate``
takes either at a point.

Two exterior derivatives are provided because the right-wedge convention
(d w = Σ ∂w_I/∂x_i · e^I ∧ e^i, matching the projection of the gradient) and
the classical componentwise formula differ by (−1)^deg(w); both are exposed
and the relation is tested, nothing is silently rescaled.  ``d_right``
sums the derivative stack ∂_i w_I over the (r, 1) wedge table, not the
projection's; ``project_polynomial`` is ``project`` on a matrix of
polynomials.
"""

from __future__ import annotations

import re
from typing import Mapping, Sequence

import numpy as np

from . import scalars
from .errors import DomainError
from .exterior import KForm, _wedge_table, json_fields, signed_sum
from .multiindex import MultiIndex, enumerate_multiindices
from .projection import project
from .shapespace import ShapeMatrix


class Poly:
    """Sparse multivariate polynomial with exact rational coefficients.

    Terms map an exponent tuple (one slot per variable) to a nonzero scalar.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], object] | None = None):
        self.nvars = nvars
        clean: dict[tuple[int, ...], object] = {}
        for expo, coeff in (terms or {}).items():
            expo = tuple(int(e) for e in expo)
            if len(expo) != nvars or any(e < 0 for e in expo):
                raise DomainError(f"bad exponent tuple {expo} for {nvars} variables")
            coeff = scalars.coerce(coeff)
            if coeff != 0:
                clean[expo] = coeff
        self.terms = clean

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls(nvars)

    @classmethod
    def const(cls, nvars: int, value) -> "Poly":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "Poly":
        """The coordinate polynomial x_i (1-based)."""
        if not 1 <= i <= nvars:
            raise DomainError(f"variable index {i} out of range 1..{nvars}")
        expo = [0] * nvars
        expo[i - 1] = 1
        return cls(nvars, {tuple(expo): 1})

    def __bool__(self) -> bool:
        """False for the zero polynomial only."""
        return bool(self.terms)

    def __add__(self, other):
        other = self._lift(other)
        if not (self.terms and other.terms):    # a zero summand: the other one
            return self if self.terms else other
        out = dict(self.terms)
        for expo, coeff in other.terms.items():
            out[expo] = out.get(expo, 0) + coeff
        return Poly(self.nvars, out)    # which drops the terms that cancel

    def __neg__(self):
        return Poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        other = self._lift(other)
        out: dict[tuple[int, ...], object] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                expo = tuple(a + b for a, b in zip(e1, e2))
                out[expo] = out.get(expo, 0) + c1 * c2
        return Poly(self.nvars, out)

    __radd__ = __add__
    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            try:
                other = self._lift(other)
            except DomainError:
                return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        constant = (0,) * self.nvars
        if self.terms.keys() <= {constant}:    # equal to its value, so hashed as it
            return hash(self.terms.get(constant, 0))
        return hash((self.nvars, frozenset(self.terms.items())))

    def _lift(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.nvars != self.nvars:
                raise DomainError("mixed variable counts")
            return other
        return Poly.const(self.nvars, other)

    def diff(self, i: int) -> "Poly":
        """Formal partial derivative with respect to x_i (1-based)."""
        if not 1 <= i <= self.nvars:
            raise DomainError(f"variable index {i} out of range 1..{self.nvars}")
        out: dict[tuple[int, ...], object] = {}
        pos = i - 1
        for expo, coeff in self.terms.items():
            e = expo[pos]
            if e == 0:
                continue
            new = list(expo)
            new[pos] = e - 1
            out[tuple(new)] = coeff * e
        return Poly(self.nvars, out)

    def evaluate(self, point: Sequence):
        """Evaluate at a point; exact for rational points, float otherwise."""
        if len(point) != self.nvars:
            raise DomainError(f"expected {self.nvars} coordinates, got {len(point)}")
        total = 0
        for expo, coeff in self.terms.items():
            term = coeff
            for x, e in zip(point, expo):
                if e:
                    term = term * x ** e
            total = total + term
        return total

    def _sorted_terms(self):
        # display order: total degree descending, then lexicographic exponents
        return sorted(self.terms.items(), key=lambda item: (-sum(item[0]), tuple(-e for e in item[0])))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for expo, coeff in self._sorted_terms():
            factors = [f"x{i + 1}" + (f"^{e}" if e > 1 else "")
                       for i, e in enumerate(expo) if e]
            coeff_txt = scalars.format_rational(coeff)
            if factors:
                if coeff_txt == "1":
                    body = "*".join(factors)
                elif coeff_txt == "-1":
                    body = "-" + "*".join(factors)
                else:
                    body = coeff_txt + "*" + "*".join(factors)
            else:
                body = coeff_txt
            parts.append(body)
        text = parts[0]
        for body in parts[1:]:
            text += " - " + body[1:] if body.startswith("-") else " + " + body
        return text

    __repr__ = __str__

    _TERM_RE = re.compile(r"^(?P<sign>[+-])?(?P<coeff>\d+(?:/\d+)?)?\*?(?P<vars>(?:x\d+(?:\^\d+)?\*?)*)$")
    _VAR_RE = re.compile(r"x(\d+)(?:\^(\d+))?")
    _OPERATOR_RE = re.compile(r"\s*([+*-])\s*")

    @classmethod
    def parse(cls, text: str, nvars: int) -> "Poly":
        """Parse the text form, e.g. "3/2*x1^2*x3 - x2".

        Whitespace may surround "+", "-" and "*", and nothing else inside the
        text; empty text is no polynomial (the zero polynomial is "0").
        """
        compact = cls._OPERATOR_RE.sub(r"\1", text.strip())
        if not compact or any(c.isspace() for c in compact):
            raise DomainError(f"cannot parse polynomial {text!r}")
        chunks = re.split(r"(?=[+-])", compact)
        result = cls.zero(nvars)
        for chunk in chunks:
            if not chunk:
                continue
            m = cls._TERM_RE.match(chunk)
            if not m or (m.group("coeff") is None and not m.group("vars")):
                raise DomainError(f"cannot parse polynomial term {chunk!r}")
            coeff = scalars.parse_rational(m.group("coeff") or "1")
            if m.group("sign") == "-":
                coeff = -coeff
            expo = [0] * nvars
            for var, power in cls._VAR_RE.findall(m.group("vars") or ""):
                i = int(var)
                if not 1 <= i <= nvars:
                    raise DomainError(f"variable x{i} out of range for {nvars} variables")
                expo[i - 1] += int(power) if power else 1
            result = result + cls(nvars, {tuple(expo): coeff})
        return result


def _polynomials(values, n: int, what: str) -> np.ndarray:
    """``values`` as a read-only array, every entry of which must be a
    polynomial in n variables."""
    def polynomial(p):
        if not isinstance(p, Poly) or p.nvars != n:
            raise DomainError(f"{what} must be polynomials in {n} variables, got {p!r}")
        return p

    return scalars.array(values, np.shape(values), scalars.EXACT, what, polynomial)


def PolyKForm(n: int, k: int, coeffs: Mapping[Sequence[int] | MultiIndex, Poly] | None = None
              ) -> KForm:
    """The degree-k form on R^n whose coefficients are the polynomials ``coeffs``
    in x_1..x_n, keyed by index tuple; a missing key is the zero polynomial.

    A function named like a class, because callers (the benchmark among them)
    build polynomial forms as ``PolyKForm(n, k, coeffs)``.
    """
    coeffs = coeffs or {}
    _polynomials(list(coeffs.values()), n, "polynomial form coefficients")
    zero = Poly.zero(n)
    return KForm(n, k, [c or zero for c in KForm.from_dict(n, k, coeffs).coeffs.tolist()])


def form_from_json(obj: Mapping) -> KForm:
    """The polynomial form of a JSON object with "n", "k" and "coeffs", which
    maps index text to polynomial text."""
    n, k, raw = json_fields(obj, ("n", "k", "coeffs"), "polynomial form")
    if not isinstance(raw, Mapping) or not all(isinstance(t, str) for t in raw.values()):
        raise DomainError(f"polynomial form coeffs must map keys to strings, got {raw!r}")
    return PolyKForm(n, k, {MultiIndex.from_text(key, n): Poly.parse(text, n)
                            for key, text in raw.items()})


def evaluate(obj: KForm | ShapeMatrix, point: Sequence, backend: str = scalars.EXACT):
    """The form or shape matrix of the values of ``obj``'s polynomials at ``point``."""
    values = _polynomials(obj.coeffs if isinstance(obj, KForm) else obj.entries, obj.n,
                          "evaluated entries")
    at = np.array([p.evaluate(point) for p in values.flat], dtype=object)
    return type(obj)(obj.n, obj.k, at.reshape(values.shape), backend)


def _partials(w: KForm) -> np.ndarray:
    """The derivative stack: row I, column i holds the formal partial ∂w_I/∂x_i."""
    coeffs = _polynomials(w.coeffs, w.n, "form coefficients")
    return np.array([[p.diff(i) for i in range(1, w.n + 1)] for p in coeffs.tolist()],
                    dtype=object)


def gradient(w: KForm) -> ShapeMatrix:
    """Row I, column i holds the formal partial ∂w_I/∂x_i."""
    return ShapeMatrix(w.n, w.k + 1, _partials(w))


def d_right(w: KForm) -> KForm:
    """Exterior derivative in the right-wedge convention Σ ∂w_I/∂x_i e^I ∧ e^i.

    Its signs come from the (r, 1) wedge table (inversion counts), not the
    projection's, so the gradient-projection identity is a two-route check.
    """
    n, r = w.n, w.k
    partials = _partials(w)
    if r >= n:
        return KForm(n, r + 1)
    left, right, *signs = _wedge_table(n, r, 1)
    return KForm(n, r + 1, signed_sum(partials[left, right], *signs))


def project_polynomial(mat: ShapeMatrix) -> KForm:
    """Project a shape-matrix-valued polynomial coefficientwise.

    The projection kernel, run on the matrix's object array of polynomials;
    composing with :func:`gradient` yields the exterior derivative in the
    right-wedge convention as an exact polynomial identity.
    """
    _polynomials(mat.entries, mat.n, "polynomial matrix entries")
    return project(mat)


def d_classical(w: KForm) -> KForm:
    """Componentwise exterior derivative: (dw)_I = Σ_j (−1)^(j+1) ∂w_(I∖i_j)/∂x_(i_j).

    Equals (−1)^deg(w) · d_right(w) on every input.
    """
    n, r = w.n, w.k
    _polynomials(w.coeffs, n, "form coefficients")
    if r >= n:
        return KForm(n, r + 1)
    out = []
    for target in enumerate_multiindices(n, r + 1):
        acc = Poly.zero(n)
        for j, idx in enumerate(target.indices, start=1):
            term = w.coefficient(target.without(idx)).diff(idx)
            acc = acc + (term if j % 2 == 1 else -term)
        out.append(acc)
    return KForm(n, r + 1, out)
