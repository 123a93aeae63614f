"""Differential forms with exact polynomial coefficients.

This is the desk-scale stand-in for smooth (k−1)-fields: coefficients are
multivariate polynomials (``Poly``) in x_1..x_n over the rationals,
derivatives are formal, and the gradient / exterior-derivative identities can
be checked coefficientwise as exact polynomial identities.  There is no
polynomial form or matrix class: a polynomial field is a ``KForm`` and its
gradient a ``ShapeMatrix`` whose object array holds ``Poly`` entries, so
wedges, scalar products and the projection run their one kernel on them
unchanged.  ``PolyKForm`` builds such a form from a dict, and ``evaluate``
takes either at a point.  A polynomial is checked once, where it enters: the
public ``Poly`` constructor, ``Poly.parse``, a scalar lifted into the ring and
``PolyKForm`` check every term, and ring arithmetic builds its results
trusted.  A form or matrix entry is checked to be a polynomial where it lies,
with no copy of the array.

The derivative stack ∂_i w_I, which ``gradient`` and ``d_right`` both build, is
taken in one pass (``_partials``): each polynomial's terms are walked once, and
every term scattered into the partial of each variable it contains.
``Poly.diff`` takes one partial by the same rule; it is the route
``d_classical`` reads, so the d_classical = (−1)^r d_right check compares two
derivative implementations, while ``project_polynomial(gradient(w)) ==
d_right(w)`` reads the stack on both sides.

Two exterior derivatives are provided because the right-wedge convention
(d w = Σ ∂w_I/∂x_i · e^I ∧ e^i, matching the projection of the gradient) and
the classical componentwise formula differ by (−1)^deg(w); both are exposed
and the relation is tested, nothing is silently rescaled.  ``d_right``
sums the derivative stack over the (r, 1) wedge table, not the projection's;
``project_polynomial`` is ``project`` on a matrix of polynomials.
"""

from __future__ import annotations

import itertools
import numbers
import re
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from . import scalars
from .errors import DomainError
from .exterior import KForm, _wedge_table, json_fields, signed_sum
from .multiindex import integer
from .projection import project
from .shapespace import ShapeMatrix


def _integral(value):
    """An exact arithmetic result as ``scalars.coerce`` holds it: a Fraction
    that is an integer becomes that int."""
    return value.numerator if type(value) is Fraction and value.denominator == 1 else value


def _coordinates(point: Sequence, nvars: int) -> tuple:
    """``point`` read by the package's scalar rules: a rational coordinate as
    ``scalars.coerce`` holds it, any other real number as a finite float.  A
    bool, or anything that is not a real number, is a DomainError."""
    if len(point) != nvars:
        raise DomainError(f"expected {nvars} coordinates, got {len(point)}")
    return tuple(scalars.coerce(x) if isinstance(x, numbers.Rational)
                 else scalars.require_finite(scalars.real(x, "coordinate"), "coordinate")
                 for x in point)


class Poly:
    """Sparse multivariate polynomial with exact rational coefficients.

    Terms map an exponent tuple (one slot per variable) to a nonzero scalar:
    every exponent is a tuple of ``nvars`` non-negative ints, and every
    coefficient a nonzero int, or a Fraction that is not one, as
    ``scalars.coerce`` gives it.  A polynomial is checked once, where it
    enters: this constructor, ``parse`` and a scalar lifted into the ring
    check every term.  ``+``, ``−``, ``*`` and ``diff`` build their results
    with ``_trusted``, which checks nothing, since exact arithmetic on checked
    terms keeps every rule but two, which they restore themselves: a sum can
    cancel to zero, and a Fraction result can be an integer.  No operation
    mutates a polynomial's terms once it is built, so results may share them.
    ``+``, ``−`` and ``*`` take a polynomial in as many variables as it is;
    every other operand is lifted into the ring by ``_lift``, which checks it.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], object] | None = None):
        nvars = integer(nvars, "variable count")
        if nvars < 0:
            raise DomainError(f"variable count must be nonnegative, got {nvars}")
        self.nvars = nvars
        clean: dict[tuple[int, ...], object] = {}
        for expo, coeff in (terms or {}).items():
            expo = tuple(integer(e, "exponent") for e in expo)
            if len(expo) != nvars or any(e < 0 for e in expo):
                raise DomainError(f"bad exponent tuple {expo} for {nvars} variables")
            coeff = scalars.coerce(coeff)
            if coeff != 0:
                clean[expo] = coeff
        self.terms = clean

    @classmethod
    def _trusted(cls, nvars: int, terms: dict[tuple[int, ...], object]) -> "Poly":
        """The polynomial of ``terms``, taken as they are: they must already
        keep every rule of the class."""
        poly = object.__new__(cls)
        poly.nvars = nvars
        poly.terms = terms
        return poly

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls(nvars)

    @classmethod
    def const(cls, nvars: int, value) -> "Poly":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "Poly":
        """The coordinate polynomial x_i (1-based)."""
        i = integer(i, "variable index")
        if not 1 <= i <= nvars:
            raise DomainError(f"variable index {i} out of range 1..{nvars}")
        expo = [0] * nvars
        expo[i - 1] = 1
        return cls(nvars, {tuple(expo): 1})

    def __bool__(self) -> bool:
        """False for the zero polynomial only."""
        return bool(self.terms)

    def _plus(self, other, sign: int) -> "Poly":
        """self + sign·other for sign ±1, dropping the terms that cancel."""
        if type(other) is not Poly or other.nvars != self.nvars:
            other = self._lift(other)
        if not other.terms:
            return self
        if not self.terms and sign == 1:
            return other
        out = dict(self.terms)
        for expo, coeff in other.terms.items():
            if sign == -1:
                coeff = -coeff
            if expo not in out:
                out[expo] = coeff
            elif total := out[expo] + coeff:
                out[expo] = _integral(total)
            else:
                del out[expo]
        return Poly._trusted(self.nvars, out)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        return Poly._trusted(self.nvars, {e: -c for e, c in self.terms.items()})

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        if type(other) is not Poly or other.nvars != self.nvars:
            other = self._lift(other)
        out: dict[tuple[int, ...], object] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                expo = tuple(a + b for a, b in zip(e1, e2))
                out[expo] = out[expo] + c1 * c2 if expo in out else c1 * c2
        return Poly._trusted(self.nvars, {e: _integral(c) for e, c in out.items() if c})

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
        """Formal partial derivative with respect to x_i (1-based).

        The one-variable route: ``d_classical`` reads it.  The derivative
        stack of ``gradient`` and ``d_right`` takes every partial at once in
        ``_partials``, by the same rule.
        """
        if type(i) is not int:    # d_classical passes ints, and skips the call
            i = integer(i, "variable index")
        if not 1 <= i <= self.nvars:
            raise DomainError(f"variable index {i} out of range 1..{self.nvars}")
        out: dict[tuple[int, ...], object] = {}
        pos = i - 1
        for expo, coeff in self.terms.items():
            e = expo[pos]
            if e:    # distinct exponents stay distinct, and coeff·e ≠ 0
                out[expo[:pos] + (e - 1,) + expo[i:]] = _integral(coeff * e)
        return Poly._trusted(self.nvars, out)

    def evaluate(self, point: Sequence):
        """Evaluate at a point: exact for rational coordinates, float otherwise.

        The point is read by ``_coordinates``, and a float value that leaves
        the float range is a DomainError.
        """
        return self._at(_coordinates(point, self.nvars))

    def _at(self, point: tuple):
        """The value at a point that ``_coordinates`` has read; an exact value
        as ``scalars.coerce`` holds it."""
        with scalars.float_guard("polynomial value"):
            total = 0
            for expo, coeff in self.terms.items():
                term = coeff
                for x, e in zip(point, expo):
                    if e:
                        term = term * x ** e
                total = total + term
        return scalars.require_finite(total, "polynomial value") if type(total) is float \
            else _integral(total)

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

    _TERM_RE = re.compile(r"^(?P<sign>[+-])?(?:(?P<coeff>\d+(?:/\d+)?)(?:\*(?=x)|$))?"
                          r"(?P<vars>x\d+(?:\^\d+)?(?:\*x\d+(?:\^\d+)?)*)?$")
    _VAR_RE = re.compile(r"x(\d+)(?:\^(\d+))?")
    _OPERATOR_RE = re.compile(r"\s*([+*-])\s*")

    @classmethod
    def parse(cls, text: str, nvars: int) -> "Poly":
        """Parse the text form, e.g. "3/2*x1^2*x3 - x2": terms of factors joined
        by single "*", a coefficient first, if any.

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


def _polynomials(values: np.ndarray | list, n: int, what: str) -> list:
    """The entries of ``values``, a stored array or a list, in a flat list;
    each must be a polynomial in n variables.  They are checked where they
    lie, not copied into a new array."""
    entries = values.ravel().tolist() if isinstance(values, np.ndarray) else values
    for p in entries:
        if not isinstance(p, Poly) or p.nvars != n:
            raise DomainError(f"{what} must be polynomials in {n} variables, got {p!r}")
    return entries


def PolyKForm(n: int, k: int, coeffs: Mapping[Sequence[int] | str, Poly] | None = None
              ) -> KForm:
    """The degree-k form on R^n whose coefficients are the polynomials ``coeffs``
    in x_1..x_n, keyed as ``KForm.from_dict`` reads keys; a missing key is zero.

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
    return PolyKForm(n, k, {key: Poly.parse(text, n) for key, text in raw.items()})


def evaluate(obj: KForm | ShapeMatrix, point: Sequence, backend: str = scalars.EXACT):
    """The form or shape matrix of the values of ``obj``'s polynomials at ``point``."""
    stored = obj.coeffs if isinstance(obj, KForm) else obj.entries
    point = _coordinates(point, obj.n)
    at = [p._at(point) for p in _polynomials(stored, obj.n, "evaluated entries")]
    return type(obj)(obj.n, obj.k, np.array(at, dtype=object).reshape(stored.shape), backend)


def _partials(w: KForm) -> np.ndarray:
    """The derivative stack: row I, column i holds the formal partial ∂w_I/∂x_i.

    One walk of each polynomial's terms: a term scatters into the partial of
    every variable it contains (exponent e − 1 in that slot, coefficient·e),
    so a partial no term reaches is never built; those all share one zero.
    The rule is ``Poly.diff``'s, which stays the one-variable route.
    """
    n = w.n
    zero = Poly._trusted(n, {})
    flat = []
    for p in _polynomials(w.coeffs, n, "form coefficients"):
        row = [zero] * n
        for expo, coeff in p.terms.items():
            for pos, e in enumerate(expo):
                if e:    # distinct exponents stay distinct, and coeff·e ≠ 0
                    partial = row[pos]
                    if partial is zero:
                        row[pos] = partial = Poly._trusted(n, {})
                    key = list(expo)
                    key[pos] = e - 1
                    partial.terms[tuple(key)] = coeff if e == 1 else _integral(coeff * e)
        flat += row
    return np.fromiter(flat, dtype=object, count=len(flat)).reshape(-1, n)


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
    return KForm(n, r + 1, signed_sum(lambda q: partials[left[:, q], right[:, q]],
                                      partials.dtype, *signs))


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
    for target in itertools.combinations(range(1, n + 1), r + 1):
        acc = Poly.zero(n)
        for j, idx in enumerate(target, start=1):
            term = w.coefficient(target[:j - 1] + target[j:]).diff(idx)
            acc = acc + (term if j % 2 == 1 else -term)
        out.append(acc)
    return KForm(n, r + 1, out)
