"""Differential forms with exact polynomial coefficients.

This is the desk-scale stand-in for smooth (k−1)-fields: coefficients are
multivariate polynomials in x_1..x_n over the rationals, derivatives are
formal, and the gradient / exterior-derivative identities can be checked
coefficientwise as exact polynomial identities.

Two exterior derivatives are provided because the right-wedge convention
(d w = Σ ∂w_I/∂x_i · e^I ∧ e^i, matching the projection of the gradient) and
the classical componentwise formula differ by (−1)^deg(w); both are exposed
and the relation is tested, nothing is silently rescaled.  ``d_right``
sums the derivative stack ∂_i w_I over the (r, 1) wedge table, not the
projection's; ``project_polynomial`` runs the projection kernel
(``project_rows``) on a one-row object stack of polynomials.
"""

from __future__ import annotations

import itertools
import math
import re
from typing import Mapping, Sequence

import numpy as np

from . import scalars
from .errors import DomainError
from .exterior import KForm, _wedge_table, json_fields, signed_sum
from .multiindex import MultiIndex, enumerate_multiindices
from .projection import project_rows


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

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        other = self._lift(other)
        if not (self.terms and other.terms):    # a zero summand: the other one
            return other if self.is_zero() else self
        out = dict(self.terms)
        for expo, coeff in other.terms.items():
            acc = out.get(expo, 0) + coeff
            if acc == 0:
                out.pop(expo, None)
            else:
                out[expo] = acc
        return Poly(self.nvars, out)

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
                acc = out.get(expo, 0) + c1 * c2
                if acc == 0:
                    out.pop(expo, None)
                else:
                    out[expo] = acc
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

    @classmethod
    def parse(cls, text: str, nvars: int) -> "Poly":
        """Parse the text form, e.g. "3/2*x1^2*x3 - x2"."""
        chunks = re.split(r"(?=[+-])", text.replace(" ", ""))
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


class PolyKForm:
    """Degree-r form whose coefficients are polynomials in x_1..x_n."""

    __slots__ = ("n", "k", "coeffs")

    def __init__(self, n: int, k: int, coeffs: Mapping[Sequence[int] | MultiIndex, Poly] | None = None):
        if k < 0:
            raise DomainError(f"degree must be nonnegative, got {k}")
        self.n = n
        self.k = k
        clean: dict[tuple[int, ...], Poly] = {}
        for key, poly in (coeffs or {}).items():
            mi = key if isinstance(key, MultiIndex) else MultiIndex(tuple(key), n)
            if mi.k != k:
                raise DomainError(f"key {mi.indices} has length {mi.k}, expected {k}")
            if poly.nvars != n:
                raise DomainError(f"coefficient polynomial has {poly.nvars} variables, expected {n}")
            if not poly.is_zero():
                clean[mi.indices] = poly
        self.coeffs = clean

    @classmethod
    def monomial(cls, n: int, indices: Sequence[int], poly: Poly) -> "PolyKForm":
        return cls(n, len(tuple(indices)), {tuple(indices): poly})

    def coefficient(self, indices: Sequence[int] | MultiIndex) -> Poly:
        mi = indices if isinstance(indices, MultiIndex) else MultiIndex(tuple(indices), self.n)
        if mi.k != self.k:
            raise DomainError(f"index length {mi.k} does not match degree {self.k}")
        return self.coeffs.get(mi.indices, Poly.zero(self.n))

    def __add__(self, other: "PolyKForm") -> "PolyKForm":
        if (self.n, self.k) != (other.n, other.k):
            raise DomainError("mismatched polynomial forms")
        out = dict(self.coeffs)
        for key, poly in other.coeffs.items():
            out[key] = out.get(key, Poly.zero(self.n)) + poly
        return PolyKForm(self.n, self.k, out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyKForm):
            return NotImplemented
        return (self.n, self.k) == (other.n, other.k) and self.coeffs == other.coeffs

    def is_zero(self) -> bool:
        return not self.coeffs

    def evaluate(self, point: Sequence, backend: str = scalars.EXACT) -> KForm:
        entries = {key: poly.evaluate(point) for key, poly in self.coeffs.items()}
        return KForm.from_dict(self.n, self.k, entries, backend)

    def to_json(self) -> dict:
        return {"n": self.n, "k": self.k,
                "coeffs": {MultiIndex(key, self.n).text: str(poly)
                           for key, poly in sorted(self.coeffs.items())}}

    @classmethod
    def from_json(cls, obj: Mapping) -> "PolyKForm":
        n, k, raw = json_fields(obj, ("n", "k", "coeffs"), "polynomial form")
        if not isinstance(raw, Mapping) or not all(isinstance(t, str) for t in raw.values()):
            raise DomainError(f"polynomial form coeffs must map keys to strings, got {raw!r}")
        coeffs = {MultiIndex.from_text(key, n).indices: Poly.parse(text, n)
                  for key, text in raw.items()}
        return cls(n, k, coeffs)

    def __repr__(self) -> str:
        return f"PolyKForm(n={self.n}, k={self.k}, {{"\
               + ", ".join(f"{key}: {poly}" for key, poly in sorted(self.coeffs.items())) + "})"


class PolynomialMatrix:
    """Shape-matrix-valued polynomial: rows over 𝒯^(k−1), one column per x_i."""

    __slots__ = ("n", "k", "entries")

    def __init__(self, n: int, k: int, entries: Sequence[Sequence[Poly]]):
        if not 2 <= k <= n:
            raise DomainError(f"polynomial matrices need 2 ≤ k ≤ n, got k={k}, n={n}")
        def polynomial(p):
            if not isinstance(p, Poly) or p.nvars != n:
                raise DomainError(f"polynomial matrix entries must be polynomials in {n} variables")
            return p

        self.n, self.k = n, k
        self.entries = scalars.array(entries, (math.comb(n, k - 1), n), scalars.EXACT,
                                     f"(n={n}, k={k}) polynomial matrix entries", polynomial)

    def evaluate(self, point: Sequence, backend: str = scalars.EXACT):
        from .shapespace import ShapeMatrix
        rows = [[p.evaluate(point) for p in row] for row in self.entries.tolist()]
        return ShapeMatrix(self.n, self.k, rows, backend)


def _partials(w: PolyKForm) -> np.ndarray:
    """The derivative stack: row I, column i holds the formal partial ∂w_I/∂x_i."""
    n, zero = w.n, Poly.zero(w.n)
    return np.array([[poly.diff(i) for i in range(1, n + 1)] if poly is not None else [zero] * n
                     for poly in map(w.coeffs.get, itertools.combinations(range(1, n + 1), w.k))],
                    dtype=object)


def gradient(w: PolyKForm) -> PolynomialMatrix:
    """Row I, column i holds the formal partial ∂w_I/∂x_i."""
    return PolynomialMatrix(w.n, w.k + 1, _partials(w))


def d_right(w: PolyKForm) -> PolyKForm:
    """Exterior derivative in the right-wedge convention Σ ∂w_I/∂x_i e^I ∧ e^i.

    Its signs come from the (r, 1) wedge table (inversion counts), not the
    projection's, so the gradient-projection identity is a two-route check.
    """
    n, r = w.n, w.k
    if r >= n:
        return PolyKForm(n, r + 1, {})
    left, right, *signs = _wedge_table(n, r, 1)
    coeffs = signed_sum(_partials(w)[left, right], *signs)
    return PolyKForm(n, r + 1, dict(zip(itertools.combinations(range(1, n + 1), r + 1), coeffs)))


def project_polynomial(mat: PolynomialMatrix) -> PolyKForm:
    """Project a shape-matrix-valued polynomial coefficientwise.

    The projection kernel, run on a one-row object stack of polynomials;
    composing with :func:`gradient` yields the exterior derivative in the
    right-wedge convention as an exact polynomial identity.
    """
    n, k = mat.n, mat.k
    coeffs = project_rows(mat.entries.reshape(1, -1), n, k)[0]
    return PolyKForm(n, k, dict(zip(enumerate_multiindices(n, k), coeffs)))


def d_classical(w: PolyKForm) -> PolyKForm:
    """Componentwise exterior derivative: (dw)_I = Σ_j (−1)^(j+1) ∂w_(I∖i_j)/∂x_(i_j).

    Equals (−1)^deg(w) · d_right(w) on every input.
    """
    n, r = w.n, w.k
    if r >= n:
        return PolyKForm(n, r + 1, {})
    out: dict[tuple[int, ...], Poly] = {}
    for target in enumerate_multiindices(n, r + 1):
        acc = Poly.zero(n)
        for j, idx in enumerate(target.indices, start=1):
            source = w.coeffs.get(target.without(idx).indices)
            if source is None:
                continue
            term = source.diff(idx)
            acc = acc + (term if j % 2 == 1 else -term)
        if not acc.is_zero():
            out[target.indices] = acc
    return PolyKForm(n, r + 1, out)
