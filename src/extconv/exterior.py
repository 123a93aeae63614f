"""Alternating forms with exact-rational or float coefficients.

A degree-k form on R^n is stored densely in one read-only numpy array: one
coefficient per length-k multiindex, in alphabetical rank order, of dtype
float64 or object (ints, Fractions or polynomials, exact), which gives the
backend.  A zero test reads a coefficient's truth value, so a polynomial is
never compared with a scalar 0.  Keys are read by ``multiindex.key_rank``
(a label key by a table of ``multiindex.labels``) and JSON labels written by
``multiindex.labels``; no multiindex is stored.
Degrees above n are legal and carry an empty coefficient vector (the canonical
zero object), so wedge chains never branch on overflow; such a form serializes
with empty ``coeffs``, and a wedge power of a form of degree k ≥ 1 is that zero
object as soon as k·s > n.

There is one wedge kernel.  ``wedge_rows`` and ``wedge_power_rows`` work on
stacks of forms of those dtypes, or of int64, one form per row of an
(m × C(n,k)) array; ``wedge`` and ``wedge_power`` run it on a one-row view,
floats under ``scalars.float_guard``.  An int64 wedge step runs in int64 only
under a bound proved on the values it is handed (``_step_fits``), and is
widened to Python ints otherwise, so a power chain stays in int64 for as many
steps as the bound holds.  Every structure table is in ``sign_table``'s format
and summed by ``signed_sum``: exactly for objects (and for the int64 stacks a
kernel proves a bound on), and for floats by a loop over the table's
slots that adds one slot of every row at a time, left to right from 0.0.  That
keeps each float row the scalar loop's sum, whatever its batch, without a
stack of every slot's terms or a prefix-sum array.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Callable, Mapping, Sequence

import numpy as np

from . import scalars
from .errors import DomainError
from .multiindex import integer, key_rank, labels, sign_of_string


class KForm:
    """Element of the degree-k exterior power over R^n."""

    __slots__ = ("n", "k", "coeffs")

    def __init__(self, n: int, k: int, coeffs: Sequence | None = None,
                 backend: str = scalars.EXACT):
        n, k = integer(n, "dimension"), integer(k, "degree")
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
        return cls.from_dict(n, len(indices), {tuple(indices): 1}, backend)

    @classmethod
    def from_dict(cls, n: int, k: int, entries: Mapping,
                  backend: str = scalars.EXACT) -> "KForm":
        """The form of ``entries``, keyed as ``multiindex.key_rank`` reads keys.

        A key that is a label as ``multiindex.labels`` writes it is read off
        one table per (n, k) of at most ``_LABEL_TABLE_SIZE`` labels; any
        other key goes through ``key_rank``.
        """
        coeffs = cls.zero(n, k, backend).coeffs.tolist()    # checks n and k
        keys, ranks = {}, None
        for key, value in entries.items():
            r = None
            if isinstance(key, str) and len(coeffs) <= _LABEL_TABLE_SIZE:
                if ranks is None:
                    ranks = _label_ranks(n, k)
                r = ranks.get(key)
            if r is None:
                r = key_rank(key, n, k, "key")
            if keys.setdefault(r, key) is not key:
                raise DomainError(f"keys {keys[r]!r} and {key!r} both name {labels(n, k)[r]}")
            coeffs[r] = value
        return cls(n, k, coeffs, backend)

    def coefficient(self, indices: Sequence[int] | str):
        """The coefficient at a key read by ``multiindex.key_rank`` on this R^n."""
        return self.coeffs.item(key_rank(indices, self.n, self.k, "index"))

    def as_dict(self) -> dict[tuple[int, ...], object]:
        """Nonzero coefficients keyed by index tuple."""
        return {combo: c for combo, c in zip(itertools.combinations(range(1, self.n + 1), self.k),
                                             self.coeffs.tolist()) if c}

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
        coeffs = {label: scalars.scalar_to_json(c, self.backend)
                  for label, c in zip(labels(self.n, self.k), self.coeffs.tolist()) if c}
        return {"n": self.n, "k": self.k, "coeffs": coeffs}

    @classmethod
    def from_json(cls, obj: Mapping, backend: str | None = None) -> "KForm":
        n, k, raw = json_fields(obj, ("n", "k", "coeffs"), "form")
        if not isinstance(raw, Mapping):
            raise DomainError(f"form coeffs must be a JSON object, got {raw!r}")
        if backend is None:
            backend = scalars.FLOAT if any(isinstance(v, float) for v in raw.values()) \
                else scalars.EXACT
        entries = {key: scalars.scalar_from_json(value, backend) for key, value in raw.items()}
        return cls.from_dict(n, k, entries, backend)


# a label costs its table ~140 bytes against the 8 of the coefficient slot it
# ranks, so a larger basis, such as a sparse form at (24,12), reads its keys
# by key_rank
_LABEL_TABLE_SIZE = 1 << 16


@lru_cache(maxsize=None)
def _label_ranks(n: int, k: int) -> dict[str, int]:
    """The rank of each label ``multiindex.labels`` writes for (n, k)."""
    return {label: r for r, label in enumerate(labels(n, k))}


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
        if name in fields:
            integer(obj[name], f"{what} field {name!r}")
    return tuple(obj[name] for name in fields)


def _check_same_space(a: KForm, b: KForm) -> None:
    if a.n != b.n or a.backend != b.backend:
        raise DomainError(f"mismatched forms: ({a.n},{a.backend}) vs ({b.n},{b.backend})")
    if a.k != b.k:
        raise DomainError(f"mismatched degrees: {a.k} vs {b.k}")


def subsets(size: int, length: int) -> np.ndarray:
    """The increasing ``length``-tuples over range(size), in lex order, one per
    row of a read-only array."""
    sets = np.array(list(itertools.combinations(range(size), length)),
                    dtype=np.intp).reshape(math.comb(size, length), length)
    sets.flags.writeable = False
    return sets


def subset_ranks(sets: np.ndarray, size: int) -> np.ndarray:
    """The lex ranks of the increasing 0-based positions along the last axis of
    ``sets`` among the k-subsets of range(size), by the combinatorial number
    system: C(size, k) − 1 − Σ_t C(size − 1 − v_t, k − t) over t = 0..k−1."""
    k = sets.shape[-1]
    binomials = np.array([[math.comb(size - 1 - v, k - t) for t in range(k)] for v in range(size)],
                         dtype=np.intp).reshape(size, k)
    return math.comb(size, k) - 1 - binomials[sets, np.arange(k)].sum(axis=-1)


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
    patterns, rests = subsets(k + l, k), subsets(k + l, l)[::-1]    # complements: reverse lex order
    targets = subsets(n, k + l)
    return sign_table(subset_ranks(targets[:, patterns], n), subset_ranks(targets[:, rests], n),
                      signs=[sign_of_string(PQ) for PQ in np.hstack([patterns, rests]).tolist()])


# entries a kernel gathers at once, which bounds its transient stacks
_GATHER_BUDGET = 1 << 13


def ordered_sum(terms: np.ndarray) -> np.ndarray:
    """Sum the last axis: exactly for objects and integers, strictly left to
    right for floats.

    An integer stack is exact because its caller has bounded every partial
    sum (``scalars.narrow``).  A float sum is a loop over the slots of the
    last axis that starts at 0.0, so each result runs in the order of a scalar
    loop, bit for bit and with the sign of a zero, and no term of one row ever
    meets another's, unlike numpy's pairwise ``sum`` or a BLAS product.
    """
    if terms.dtype.kind in "Oiu":
        return terms.sum(axis=-1)
    total = np.zeros(terms.shape[:-1])
    for slot in range(terms.shape[-1]):
        total += terms[..., slot]
    return total


def signed_sum(gather: Callable[[int | slice], np.ndarray], dtype: np.dtype,
               signs: np.ndarray, plus: np.ndarray, minus: np.ndarray) -> np.ndarray:
    """Σ sign·term over the slots of a structure table's sign row, for terms of ``dtype``.

    ``gather(q)`` gives the terms of slot q: one slot for an int, and a stack
    with the slots on its last axis for a slice (numpy indexing gives both
    from one expression).  Floats add or subtract one slot at a time, left to
    right from 0.0; they are gathered a block of slots at a time, as many as
    ``_GATHER_BUDGET`` entries hold (at least one), so no stack of every slot
    is built.  Objects and integers gather every slot at once and sum the +1
    and the −1 slots apart, since a product with a sign costs as much as a
    product, and keep their dtype.
    """
    if dtype.kind in "Oiu" or not len(signs):
        terms = gather(slice(None))
        return ordered_sum(terms[..., plus]) - ordered_sum(terms[..., minus])
    order = signs.tolist()
    first = gather(0)
    total = first + 0.0 if order[0] > 0 else 0.0 - first    # the loop's step from 0.0
    step = max(1, _GATHER_BUDGET // (first.size or 1))
    for start in range(1, len(order), step):
        block = gather(slice(start, start + step))
        for slot, sign in enumerate(order[start:start + step]):
            if sign > 0:
                total += block[..., slot]
            else:
                total -= block[..., slot]
    return total


@lru_cache(maxsize=None)
def _plus_signs(slots: int) -> tuple[np.ndarray, ...]:
    """A sign row of ``slots`` +1s, for a table summed without its signs."""
    return sign_table(signs=[1] * slots)


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


def _step_fits(slots: int, a: int, b: int) -> bool:
    """Whether a wedge step whose every coefficient sums ``slots`` products of
    factors at most ``a`` and ``b`` in size stays below ``scalars.INT64_LIMIT``:
    each product, each partial sum of the +1 or the −1 slots, and their
    difference are then below slots·a·b."""
    return slots * a * b < scalars.INT64_LIMIT


def wedge_rows(a: np.ndarray, b: np.ndarray, n: int, k: int, l: int,
               signed: bool = True) -> np.ndarray:
    """Row-batched wedge: row i of the result is the coefficients of a[i] ∧ b[i].

    ``a`` is (m × C(n,k)) and ``b`` is (m × C(n,l)), of one dtype, which the
    result keeps; with ``signed=False`` every sign of the table counts as +1.
    Two int64 stacks stay int64 when C(k+l, k)·max|a|·max|b| fits
    (``_step_fits``), both maxima read off the stacks; otherwise, or beside
    objects, an int64 stack is widened to Python ints and the result is
    objects.
    """
    if k + l > n:
        return np.zeros((a.shape[0], 0), dtype=a.dtype)
    if np.int64 in (a.dtype, b.dtype) and not (
            a.dtype == b.dtype and _step_fits(math.comb(k + l, k), scalars.largest(a),
                                              scalars.largest(b))):
        a, b = (v.astype(object) if v.dtype == np.int64 else v for v in (a, b))
    if k == 0:
        return a[:, :1] * b
    if l == 0:
        return a * b[:, :1]
    left, right, *signs = _wedge_table(n, k, l)
    return signed_sum(lambda q: a[:, left[:, q]] * b[:, right[:, q]], np.result_type(a, b),
                      *(signs if signed else _plus_signs(left.shape[1])))


def wedge_power_rows(x: np.ndarray, n: int, k: int, s: int,
                     signed: bool = True) -> np.ndarray:
    """Row-batched ``wedge_power``; a 0-form's power is one scalar power.

    The power is the left fold acc ∧ x, one ``wedge_rows`` step at a time, in
    the stack's dtype.  An int64 stack takes step i in int64 while
    C(k(i+1), k)·max|acc|·max|x| fits, both maxima read off the values just
    computed, and in Python ints from the first step where it does not; the
    result is int64 when every step fit and objects otherwise.  A 0-form's
    int64 power stays int64 when B^s fits (B its largest entry in size).
    """
    if s < 0:
        raise DomainError(f"exponent must be nonnegative, got {s}")
    if s == 0:
        return np.ones((x.shape[0], 1), dtype=x.dtype)
    if k == 0:
        if x.dtype == np.int64:
            # every square and product by squaring takes is at most B^s, and
            # B ≥ 2 puts B^63 past the limit, so s is capped before the power
            x = scalars.proved(x, lambda B: B ** min(s, 63))
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
    s = integer(s, "exponent")
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
