"""Alternating forms with exact-rational or float coefficients.

A degree-k form on R^n is stored densely in one read-only numpy array: one
coefficient per length-k multiindex, in alphabetical rank order, of dtype
float64 or object (ints, Fractions or polynomials, exact), which gives the
backend.  A zero test reads a coefficient's truth value, so a polynomial is
never compared with a scalar 0.
Degrees above n are legal and carry an empty coefficient vector (the canonical
zero object), so wedge chains never branch on overflow; such a form serializes
with empty ``coeffs``, and a wedge power of a form of degree k ≥ 1 is that zero
object as soon as k·s > n.

There is one wedge kernel.  ``wedge_rows`` and ``wedge_power_rows`` work on
stacks of forms of those dtypes, one form per row of an (m × C(n,k)) array;
``wedge`` and ``wedge_power`` run it on a one-row view, floats under
``scalars.float_guard``.  Every structure table is in ``sign_table``'s format
and summed by ``signed_sum``: exactly for objects, strictly left to right for
floats, so a float row's result does not depend on its batch.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import scalars
from .errors import DomainError
from .multiindex import MultiIndex, enumerate_multiindices, rank, sign_of_string


class KForm:
    """Element of the degree-k exterior power over R^n."""

    __slots__ = ("n", "k", "coeffs")

    def __init__(self, n: int, k: int, coeffs: Sequence | None = None,
                 backend: str = scalars.EXACT):
        if n < 1:
            raise DomainError(f"dimension must be positive, got {n}")
        if k < 0:
            raise DomainError(f"degree must be nonnegative, got {k}")
        size = math.comb(n, k)
        self.n = n
        self.k = k
        self.coeffs = scalars.array([0] * size if coeffs is None else coeffs, (size,), backend,
                                    f"({n},{k}) coefficients")

    @property
    def backend(self) -> str:
        return scalars.backend_of(self.coeffs)

    @classmethod
    def zero(cls, n: int, k: int, backend: str = scalars.EXACT) -> "KForm":
        return cls(n, k, None, backend)

    @classmethod
    def basis(cls, n: int, indices: Sequence[int], backend: str = scalars.EXACT) -> "KForm":
        """The basis form e^I for the (sorted, distinct) index tuple I."""
        mi = MultiIndex(tuple(indices), n)
        return cls.from_dict(n, mi.k, {mi: 1}, backend)

    @classmethod
    def from_dict(cls, n: int, k: int, entries: Mapping[Sequence[int], object],
                  backend: str = scalars.EXACT) -> "KForm":
        coeffs = cls.zero(n, k, backend).coeffs.tolist()    # checks n and k
        for key, value in entries.items():
            mi = key if isinstance(key, MultiIndex) else MultiIndex(tuple(key), n)
            if mi.k != k:
                raise DomainError(f"key {mi.indices} has length {mi.k}, expected {k}")
            coeffs[rank(mi)] = value
        return cls(n, k, coeffs, backend)

    def coefficient(self, indices: Sequence[int] | MultiIndex):
        mi = indices if isinstance(indices, MultiIndex) else MultiIndex(tuple(indices), self.n)
        if mi.k != self.k:
            raise DomainError(f"index length {mi.k} does not match degree {self.k}")
        return self.coeffs.item(rank(mi))

    def _basis(self) -> list[MultiIndex]:
        # a form above degree n has no coefficients, so its basis is empty
        return enumerate_multiindices(self.n, self.k) if self.k <= self.n else []

    def as_dict(self) -> dict[tuple[int, ...], object]:
        """Nonzero coefficients keyed by index tuple."""
        return {mi.indices: c for mi, c in zip(self._basis(), self.coeffs.tolist()) if c}

    def is_zero(self) -> bool:
        return not self.coeffs.any()

    def _apply(self, ufunc, *operands) -> "KForm":
        """The form whose coefficients are ``ufunc(self.coeffs, *operands)``."""
        with scalars.float_guard("form arithmetic"):
            return KForm(self.n, self.k, ufunc(self.coeffs, *operands), self.backend)

    def scale(self, factor) -> "KForm":
        return self._apply(np.multiply, scalars.array(factor, (), self.backend, "a scale factor"))

    def __add__(self, other: "KForm") -> "KForm":
        _check_same_space(self, other)
        return self._apply(np.add, other.coeffs)

    def __sub__(self, other: "KForm") -> "KForm":
        _check_same_space(self, other)
        return self._apply(np.subtract, other.coeffs)

    def __neg__(self) -> "KForm":
        return self._apply(np.negative)

    def __eq__(self, other) -> bool:
        if not isinstance(other, KForm):
            return NotImplemented
        return (self.n, self.k, self.backend) == (other.n, other.k, other.backend) \
            and self.coeffs.tolist() == other.coeffs.tolist()

    def __hash__(self):
        return hash((self.n, self.k, self.backend, tuple(self.coeffs.tolist())))

    def __repr__(self) -> str:
        return f"KForm(n={self.n}, k={self.k}, {self.as_dict()!r}, backend={self.backend!r})"

    def to_json(self) -> dict:
        coeffs = {mi.text: scalars.scalar_to_json(c, self.backend)
                  for mi, c in zip(self._basis(), self.coeffs.tolist()) if c}
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


def subsets(size: int, length: int) -> np.ndarray:
    """The increasing ``length``-tuples over range(size), in lex order, one per row."""
    return np.array(list(itertools.combinations(range(size), length)),
                    dtype=np.intp).reshape(math.comb(size, length), length)


def subset_ranks(basis: Iterable[tuple[int, ...]], rows: np.ndarray,
                 patterns: np.ndarray) -> np.ndarray:
    """Entry (t, j): the rank in ``basis`` of row t of ``rows`` read at the
    positions ``patterns[j]``, by lookup."""
    index = {key: r for r, key in enumerate(basis)}
    ranks = np.empty((len(rows), len(patterns)), dtype=np.intp)
    for j, positions in enumerate(patterns):
        ranks[:, j] = [index[key] for key in map(tuple, rows[:, positions].tolist())]
    return ranks


def sign_table(*arrays: np.ndarray, signs: Sequence[int]) -> tuple[np.ndarray, ...]:
    """The format of every structure table: index arrays of targets × slots,
    one sign row (floats) that serves every target, and its +1 and −1 slots,
    all read-only."""
    row = np.array(signs, dtype=float)
    out = (*arrays, row, np.flatnonzero(row > 0), np.flatnonzero(row < 0))
    for array in out:
        array.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def _wedge_table(n: int, k: int, l: int) -> tuple[np.ndarray, ...]:
    """Structure table for degree (k,l) -> k+l: left ranks, right ranks, signs.

    For each k-subset P of the positions 0..k+l−1, in lex order, target T's
    slot pairs I = T[P] with J = T[∁P]; the sign, that of the position string
    P + ∁P, depends on P alone.
    """
    m = k + l
    patterns, rests = subsets(m, k), subsets(m, l)[::-1]    # complements: reverse lex order
    targets = subsets(n, m)
    return sign_table(subset_ranks(itertools.combinations(range(n), k), targets, patterns),
                      subset_ranks(itertools.combinations(range(n), l), targets, rests),
                      signs=[sign_of_string(P + Q)
                             for P, Q in zip(patterns.tolist(), rests.tolist())])


def ordered_sum(terms: np.ndarray) -> np.ndarray:
    """Sum the last axis: exactly for objects, strictly left to right for floats.

    A float sum runs in the order of a scalar loop started at 0.0 (hence the
    trailing ``+ 0.0``), and no term of one row ever meets another's, unlike
    numpy's pairwise ``sum`` or a BLAS product.
    """
    if terms.dtype == object:
        return terms.sum(axis=-1)
    if terms.shape[-1] == 0:
        return np.zeros(terms.shape[:-1])
    return np.add.accumulate(terms, axis=-1)[..., -1] + 0.0


def signed_sum(terms: np.ndarray, signs: np.ndarray, plus: np.ndarray,
               minus: np.ndarray) -> np.ndarray:
    """Σ sign·term along the last axis, for a sign row of a structure table.

    Floats sum ``terms * signs`` in slot order; objects sum the +1 and the −1
    slots apart, since a product with a sign costs as much as a product.
    """
    if terms.dtype == object:
        return ordered_sum(terms[..., plus]) - ordered_sum(terms[..., minus])
    return ordered_sum(terms * signs)


def power_by_squaring(base: np.ndarray, exp: int) -> np.ndarray:
    """base ** exp elementwise by repeated squaring: one rounding on every build."""
    result = np.ones_like(base)
    while exp:
        if exp & 1:
            result = result * base
        exp >>= 1
        if exp:
            base = base * base
    return result


def wedge_rows(a: np.ndarray, b: np.ndarray, n: int, k: int, l: int,
               signed: bool = True) -> np.ndarray:
    """Row-batched wedge: row i of the result is the coefficients of a[i] ∧ b[i].

    ``a`` is (m × C(n,k)) and ``b`` is (m × C(n,l)), of one dtype, which the
    result keeps.  With ``signed=False`` every sign of the table counts as +1.
    """
    if k + l > n:
        return np.zeros((a.shape[0], 0), dtype=a.dtype)
    if k == 0:
        return a[:, :1] * b
    if l == 0:
        return a * b[:, :1]
    left, right, *signs = _wedge_table(n, k, l)
    terms = a[:, left] * b[:, right]
    return signed_sum(terms, *signs) if signed else ordered_sum(terms)


def wedge_power_rows(x: np.ndarray, n: int, k: int, s: int,
                     signed: bool = True) -> np.ndarray:
    """Row-batched ``wedge_power``; a 0-form's power is one scalar power."""
    if s < 0:
        raise DomainError(f"exponent must be nonnegative, got {s}")
    if s == 0:
        return np.ones((x.shape[0], 1), dtype=x.dtype)
    if k == 0:
        return power_by_squaring(x, s)
    if k * s > n:
        return np.zeros((x.shape[0], 0), dtype=x.dtype)
    acc = x
    for i in range(1, s):
        acc = wedge_rows(acc, x, n, k * i, k, signed)
    return acc


def wedge(a: KForm, b: KForm) -> KForm:
    """Exterior product; bilinear, e^I ∧ e^J = ±e^[I∪J] on disjoint strings."""
    if a.n != b.n or a.backend != b.backend:
        raise DomainError(f"mismatched forms: ({a.n},{a.backend}) vs ({b.n},{b.backend})")
    with scalars.float_guard("wedge"):
        row = wedge_rows(a.coeffs[None], b.coeffs[None], a.n, a.k, b.k)[0]
    return KForm(a.n, a.k + b.k, row, a.backend)


def wedge_power(x: KForm, s: int) -> KForm:
    """s-fold exterior power x ∧ ... ∧ x; x^0 is the unit 0-form."""
    with scalars.float_guard("wedge power"):
        row = wedge_power_rows(x.coeffs[None], x.n, x.k, s)[0]
    return KForm(x.n, x.k * s, row, x.backend)


def scalar_product(a: KForm, b: KForm):
    """Coefficientwise inner product (orthonormal basis convention), summed in
    coefficient order."""
    _check_same_space(a, b)
    with scalars.float_guard("scalar product"):
        return ordered_sum(a.coeffs[None] * b.coeffs).item()


def norm_squared(x: KForm):
    return scalar_product(x, x)


def hodge_star(x: KForm) -> KForm:
    """Hodge dual *e^I = sign(I·I^c) e^(I^c), read off the one target row of
    the (k, n−k) wedge table."""
    if x.k > x.n:
        raise DomainError(f"degree {x.k} exceeds dimension {x.n}")
    left, right, _, _, minus = _wedge_table(x.n, x.k, x.n - x.k)
    values = x.coeffs[left[0]]
    values[minus] = -values[minus]
    out = np.empty_like(values)
    out[right[0]] = values
    return KForm(x.n, x.n - x.k, out, x.backend)
