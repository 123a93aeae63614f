"""Alternating forms with exact-rational or float coefficients.

A degree-k form on R^n is stored densely: one coefficient per length-k
multiindex, in alphabetical rank order.  Degrees above n are legal and carry
an empty coefficient vector (the canonical zero object), so wedge chains never
branch on overflow.

The float samplers work on stacks of forms: an (m × C(n,k)) numpy array holds
one form per row.  ``wedge_rows`` and ``wedge_power_rows`` are the row-batched
float wedge.  Each target coefficient sums its products left to right in the
order the scalar ``wedge`` loop visits them (``ordered_sum``), so a row's
result does not depend on the batch it sits in and equals, bit for bit, the
scalar ``wedge`` of the same float forms.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from . import scalars
from .errors import DomainError
from .multiindex import MultiIndex, enumerate_multiindices, rank, sign_of_string


class KForm:
    """Element of the degree-k exterior power over R^n."""

    __slots__ = ("n", "k", "coeffs", "backend")

    def __init__(self, n: int, k: int, coeffs: Sequence | None = None,
                 backend: str = scalars.EXACT):
        if n < 1:
            raise DomainError(f"dimension must be positive, got {n}")
        if k < 0:
            raise DomainError(f"degree must be nonnegative, got {k}")
        scalars.check_backend(backend)
        size = math.comb(n, k)
        if coeffs is None:
            coeffs = (scalars.zero(backend),) * size
        else:
            coeffs = tuple(scalars.coerce(c, backend) for c in coeffs)
            if len(coeffs) != size:
                raise DomainError(f"expected {size} coefficients for ({n},{k}), got {len(coeffs)}")
        self.n = n
        self.k = k
        self.coeffs = coeffs
        self.backend = backend

    @classmethod
    def zero(cls, n: int, k: int, backend: str = scalars.EXACT) -> "KForm":
        return cls(n, k, None, backend)

    @classmethod
    def basis(cls, n: int, indices: Sequence[int], backend: str = scalars.EXACT) -> "KForm":
        """The basis form e^I for the (sorted, distinct) index tuple I."""
        mi = MultiIndex(tuple(indices), n)
        coeffs = [scalars.zero(backend)] * math.comb(n, mi.k)
        coeffs[rank(mi)] = scalars.one(backend)
        return cls(n, mi.k, coeffs, backend)

    @classmethod
    def from_dict(cls, n: int, k: int, entries: Mapping[Sequence[int], object],
                  backend: str = scalars.EXACT) -> "KForm":
        coeffs = [scalars.zero(backend)] * math.comb(n, k)
        for key, value in entries.items():
            mi = key if isinstance(key, MultiIndex) else MultiIndex(tuple(key), n)
            if mi.k != k:
                raise DomainError(f"key {mi.indices} has length {mi.k}, expected {k}")
            coeffs[rank(mi)] = scalars.coerce(value, backend)
        return cls(n, k, coeffs, backend)

    def coefficient(self, indices: Sequence[int] | MultiIndex):
        mi = indices if isinstance(indices, MultiIndex) else MultiIndex(tuple(indices), self.n)
        if mi.k != self.k:
            raise DomainError(f"index length {mi.k} does not match degree {self.k}")
        return self.coeffs[rank(mi)]

    def as_dict(self) -> dict[tuple[int, ...], object]:
        """Nonzero coefficients keyed by index tuple."""
        basis = enumerate_multiindices(self.n, self.k)
        return {mi.indices: c for mi, c in zip(basis, self.coeffs) if c != 0}

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def scale(self, factor) -> "KForm":
        factor = scalars.coerce(factor, self.backend)
        return KForm(self.n, self.k, [factor * c for c in self.coeffs], self.backend)

    def __add__(self, other: "KForm") -> "KForm":
        _check_same_space(self, other)
        return KForm(self.n, self.k, [a + b for a, b in zip(self.coeffs, other.coeffs)],
                     self.backend)

    def __sub__(self, other: "KForm") -> "KForm":
        _check_same_space(self, other)
        return KForm(self.n, self.k, [a - b for a, b in zip(self.coeffs, other.coeffs)],
                     self.backend)

    def __neg__(self) -> "KForm":
        return KForm(self.n, self.k, [-c for c in self.coeffs], self.backend)

    def __eq__(self, other) -> bool:
        if not isinstance(other, KForm):
            return NotImplemented
        return (self.n, self.k, self.backend) == (other.n, other.k, other.backend) \
            and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.n, self.k, self.backend, self.coeffs))

    def __repr__(self) -> str:
        return f"KForm(n={self.n}, k={self.k}, {self.as_dict()!r}, backend={self.backend!r})"

    def to_json(self) -> dict:
        basis = enumerate_multiindices(self.n, self.k)
        coeffs = {mi.text: scalars.scalar_to_json(c, self.backend)
                  for mi, c in zip(basis, self.coeffs) if c != 0}
        return {"n": self.n, "k": self.k, "coeffs": coeffs}

    @classmethod
    def from_json(cls, obj: Mapping, backend: str | None = None) -> "KForm":
        n, k, raw = json_fields(obj, ("n", "k", "coeffs"), "form")
        if not isinstance(raw, Mapping):
            raise DomainError(f"form coeffs must be a JSON object, got {raw!r}")
        if backend is None:
            backend = scalars.FLOAT if any(isinstance(v, float) for v in raw.values()) \
                else scalars.EXACT
        entries = {MultiIndex.from_text(key, n): scalars.scalar_from_json(value, backend)
                   for key, value in raw.items()}
        return cls.from_dict(n, k, entries, backend)


def json_fields(obj, fields: tuple[str, ...], what: str) -> tuple:
    """The values of ``fields`` in the JSON object ``obj``, which must hold no others.

    A missing field is an error, not a default, and "n" and "k" must be
    integers.
    """
    if not isinstance(obj, Mapping):
        raise DomainError(f"a {what} must be a JSON object, got {type(obj).__name__}")
    missing = [name for name in fields if name not in obj]
    if missing:
        raise DomainError(f"{what} JSON lacks {', '.join(map(repr, missing))}")
    unknown = sorted(set(obj) - set(fields))
    if unknown:
        raise DomainError(f"{what} JSON has unknown field(s) {', '.join(map(repr, unknown))}")
    for name in ("n", "k"):
        value = obj.get(name)
        if name in fields and (not isinstance(value, int) or isinstance(value, bool)):
            raise DomainError(f"{what} field {name!r} must be an integer, got {value!r}")
    return tuple(obj[name] for name in fields)


def _check_same_space(a: KForm, b: KForm) -> None:
    if a.n != b.n or a.backend != b.backend:
        raise DomainError(f"mismatched forms: ({a.n},{a.backend}) vs ({b.n},{b.backend})")
    if a.k != b.k:
        raise DomainError(f"mismatched degrees: {a.k} vs {b.k}")


@lru_cache(maxsize=None)
def _wedge_pairs(n: int, k: int, l: int) -> tuple[tuple[int, int, int, int], ...]:
    """Structure table for degree (k,l) -> k+l: (rank_a, rank_b, sign, rank_out)."""
    left = enumerate_multiindices(n, k)
    right = enumerate_multiindices(n, l)
    out: list[tuple[int, int, int, int]] = []
    for ra, I in enumerate(left):
        I_set = set(I.indices)
        for rb, J in enumerate(right):
            if I_set & set(J.indices):
                continue
            sign = sign_of_string(I.indices + J.indices)
            target = MultiIndex(tuple(sorted(I.indices + J.indices)), n)
            out.append((ra, rb, sign, rank(target)))
    return tuple(out)


@lru_cache(maxsize=None)
def _wedge_table(n: int, k: int, l: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_wedge_pairs`` grouped by target: (left ranks, right ranks, signs).

    Each array has one row per degree-(k+l) target in rank order.  A target
    splits into C(k+l, k) ordered pairs, so the rows have equal length; within
    a row the pairs keep the order in which ``_wedge_pairs`` lists them.
    """
    per_target: list[list[tuple[int, int, int]]] = [[] for _ in range(math.comb(n, k + l))]
    for ra, rb, sign, rt in _wedge_pairs(n, k, l):
        per_target[rt].append((ra, rb, sign))
    table = np.array(per_target, dtype=np.intp)
    left, right, sign = table[..., 0], table[..., 1], table[..., 2].astype(float)
    for array in (left, right, sign):
        array.flags.writeable = False
    return left, right, sign


def ordered_sum(terms: np.ndarray) -> np.ndarray:
    """Sum the last axis strictly left to right, starting from 0.0.

    This is the order of the scalar accumulation loops, and no term of one row
    ever meets a term of another, unlike numpy's pairwise ``sum`` or a BLAS
    product.  The trailing ``+ 0.0`` matches a loop started at 0.0, which
    turns an all-negative-zero sum into +0.0.
    """
    if terms.shape[-1] == 0:
        return np.zeros(terms.shape[:-1])
    return np.add.accumulate(terms, axis=-1)[..., -1] + 0.0


def wedge_rows(a: np.ndarray, b: np.ndarray, n: int, k: int, l: int,
               signed: bool = True) -> np.ndarray:
    """Row-batched float wedge: row i of the result is the coefficients of a[i] ∧ b[i].

    ``a`` is (m × C(n,k)) and ``b`` is (m × C(n,l)).  The result equals the
    scalar ``wedge`` of the same float forms bit for bit: its products are
    summed per target in the same order, and products with a zero factor,
    which the scalar loop skips, add nothing to a finite sum.  With
    ``signed=False`` every sign of the structure table counts as +1.
    """
    m = a.shape[0]
    if k + l > n:
        return np.zeros((m, 0))
    if k == 0:
        return a[:, :1] * b
    if l == 0:
        return a * b[:, :1]
    left, right, sign = _wedge_table(n, k, l)
    terms = a[:, left] * b[:, right]
    return ordered_sum(terms * sign if signed else terms)


def wedge_power_rows(x: np.ndarray, n: int, k: int, s: int,
                     signed: bool = True) -> np.ndarray:
    """Row-batched ``wedge_power`` of an (m × C(n,k)) stack of float forms."""
    if s < 0:
        raise DomainError(f"exponent must be nonnegative, got {s}")
    if s == 0:
        return np.ones((x.shape[0], 1))
    acc = x
    for i in range(1, s):
        acc = wedge_rows(acc, x, n, k * i, k, signed)
    return acc


def wedge(a: KForm, b: KForm) -> KForm:
    """Exterior product; bilinear, e^I ∧ e^J = ±e^[I∪J] on disjoint strings."""
    if a.n != b.n or a.backend != b.backend:
        raise DomainError(f"mismatched forms: ({a.n},{a.backend}) vs ({b.n},{b.backend})")
    n, out_deg = a.n, a.k + b.k
    if out_deg > n:
        return KForm.zero(n, out_deg, a.backend)
    if a.k == 0:
        return b.scale(a.coeffs[0])
    if b.k == 0:
        return a.scale(b.coeffs[0])
    out = [scalars.zero(a.backend)] * math.comb(n, out_deg)
    ca, cb = a.coeffs, b.coeffs
    for ra, rb, sign, rt in _wedge_pairs(n, a.k, b.k):
        va = ca[ra]
        if va == 0:
            continue
        vb = cb[rb]
        if vb == 0:
            continue
        out[rt] += sign * va * vb if sign > 0 else -(va * vb)
    return KForm(n, out_deg, out, a.backend)


def wedge_power(x: KForm, s: int) -> KForm:
    """s-fold exterior power x ∧ ... ∧ x; x^0 is the unit 0-form."""
    if s < 0:
        raise DomainError(f"exponent must be nonnegative, got {s}")
    if s == 0:
        return KForm(x.n, 0, [scalars.one(x.backend)], x.backend)
    acc = x
    for _ in range(s - 1):
        acc = wedge(acc, x)
    return acc


def scalar_product(a: KForm, b: KForm):
    """Coefficientwise inner product (orthonormal basis convention)."""
    _check_same_space(a, b)
    total = scalars.zero(a.backend)
    for va, vb in zip(a.coeffs, b.coeffs):
        total += va * vb
    return total


def norm_squared(x: KForm):
    return scalar_product(x, x)


def hodge_star(x: KForm) -> KForm:
    """Hodge dual: on basis forms, *e^I = sign(I·I^c) e^(I^c)."""
    if x.k > x.n:
        raise DomainError(f"degree {x.k} exceeds dimension {x.n}")
    n = x.n
    out = [scalars.zero(x.backend)] * math.comb(n, n - x.k)
    for mi, c in zip(enumerate_multiindices(n, x.k), x.coeffs):
        if c == 0:
            continue
        comp = mi.complement()
        sign = sign_of_string(mi.indices + comp.indices)
        out[rank(comp)] += sign * c if sign > 0 else -c
    return KForm(n, n - x.k, out, x.backend)
