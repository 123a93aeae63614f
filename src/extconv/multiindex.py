"""Ordered multiindices, their text form, and the sign calculus built on them.

A multiindex is a strictly increasing tuple of indices in 1..n, held as a
plain tuple of Python ints; there is no index type.  The set of all length-k
multiindices, ordered alphabetically (= tuple-lexicographically), is the basis
of every form and shape matrix, which store positions in that rank order
(0-based; 1-based in all I/O) and no multiindex.  ``key_rank`` is the one
scalar ranker: it reads index text such as "1,3,4" or a sequence of ints on
the caller's R^n; ``labels`` writes the text, and
``exterior.subset_ranks`` ranks whole arrays of increasing tuples.
Each index, dimension and degree is an integer (a Python or numpy int, not a
bool, read by ``integer``); anything else is refused, not truncated.

``block_partitions`` splits any increasing sequence of ints into subscripts
and blocks and yields them as plain tuples; the power map walks it on the
positions 0..ks−1, with no multiindex in between.

Sign conventions
----------------
``sign_of_string`` is the parity of the permutation sorting a duplicate-free
index string of length L, found by one sort and its cycles in O(L log L).
``sign_interlace_append(J, blocks)`` is the parity of the interlaced string
(I^1, j_1, ..., I^s, j_s), each index written *after* its block; the
wedge-power/minor expansion is sign-correct with it.  Writing each index
*before* its block instead changes the sign by (−1)^(s·(k−1)) for blocks of
length k−1; that index-first variant is a test oracle (``tests/oracles.py``),
not package code.  The projection's own sign,
the coefficient (−1)^(k−p) of e^[I∪i] in e^I ∧ e^i, is stated once, in
``projection._projection_table``.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Iterable, Iterator, Sequence

from .errors import DomainError


def integer(value, what: str) -> int:
    """``value`` as a Python int: any integer but a bool, never a truncation."""
    if isinstance(value, bool):
        raise DomainError(f"{what} {value!r} is a bool, not an integer")
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{what} {value!r} is not an integer") from None


def key_rank(key: str | Sequence[int], n: int, k: int, what: str) -> int:
    """0-based rank of ``key`` (index text such as "1,3,4" or a sequence of ints)
    among the degree-k multiindices on R^n: C(n, k) − 1 − Σ_t C(n − i_t, k − t)
    over its indices i_0 < … < i_(k−1), the scalar form of
    ``exterior.subset_ranks``; ``what`` names the key in an error."""
    if isinstance(key, str):
        try:
            key = [int(part) for part in key.split(",")] if key.strip() else ()
        except ValueError:
            raise DomainError(f"bad multiindex {key!r}") from None
    indices = tuple(integer(i, "index") for i in key)
    if any(a >= b for a, b in zip((0,) + indices, indices)):
        raise DomainError(f"indices must be strictly increasing, got {indices}")
    if indices and indices[-1] > n:
        raise DomainError(f"index {indices[-1]} exceeds ambient dimension {n}")
    if len(indices) != k:
        raise DomainError(f"{what} length {len(indices)} does not match {k}: {indices}")
    return math.comb(n, k) - 1 - sum(math.comb(n - i, k - t) for t, i in enumerate(indices))


def labels(n: int, k: int) -> list[str]:
    """The index texts of the degree-k basis on R^n in rank order; none if k > n."""
    if k < 0:
        raise DomainError(f"degree {k} out of range for dimension {n}")
    return [",".join(map(str, combo)) for combo in itertools.combinations(range(1, n + 1), k)]


def enumerate_multiindices(n: int, k: int) -> list[tuple[int, ...]]:
    """All C(n,k) members of the degree-k index set, alphabetically ordered."""
    if k < 0 or k > n:
        raise DomainError(f"degree {k} out of range for dimension {n}")
    return list(itertools.combinations(range(1, n + 1), k))


def sign_of_string(entries: Sequence[int]) -> int:
    """Parity (±1) of the permutation sorting a duplicate-free index string."""
    entries = tuple(entries)
    if len(set(entries)) != len(entries):
        raise DomainError(f"index string has duplicate entries: {entries}")
    # the sorting permutation, put in place by transpositions: each swap
    # settles one position, so a cycle of length c takes c − 1 of them
    order = sorted(range(len(entries)), key=entries.__getitem__)
    swaps = 0
    for i in range(len(order)):
        while order[i] != i:
            j = order[i]
            order[i], order[j] = order[j], j
            swaps += 1
    return -1 if swaps & 1 else 1


def sign_interlace_append(J: Iterable[int], blocks: Sequence[Sequence[int]]) -> int:
    """Sign of the interlaced string (I^1, j_1, ..., I^s, j_s).

    This is the variant carried by the wedge-power/minor expansion.
    """
    J = tuple(J)
    if len(J) != len(blocks):
        raise DomainError(f"{len(J)} indices against {len(blocks)} blocks")
    out: list[int] = []
    for j, block in zip(J, blocks):
        out.extend(block)
        out.append(j)
    return sign_of_string(out)


def block_partitions(members: Sequence[int], s: int, k: int
                     ) -> Iterator[tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]]:
    """All splits of the increasing ints ``members`` into s subscripts and s
    disjoint blocks of length k−1, as plain tuples (J, blocks).

    Yields in deterministic order: J ascending alphabetically, blocks in
    canonical (alphabetical) order within each J.  The number of splits is
    C(ks, s) · (s(k−1))! / ((k−1)!^s · s!).
    """
    if k < 2:
        raise DomainError(f"block partitions need block length k−1 ≥ 1, got k={k}")
    if s < 1:
        raise DomainError(f"partition count s must be positive, got {s}")
    members = tuple(members)
    if len(members) != k * s:
        raise DomainError(f"{len(members)} members != k·s = {k * s}")
    if any(a >= b for a, b in zip(members, members[1:])):
        raise DomainError(f"members must be strictly increasing, got {members}")
    for J in itertools.combinations(members, s):
        rest = tuple(i for i in members if i not in J)
        for blocks in _equal_blocks(rest, s, k - 1):
            yield J, blocks


def _equal_blocks(items: tuple[int, ...], count: int, size: int
                  ) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Unordered partitions of ``items`` into ``count`` blocks of ``size``.

    Canonical form: each block is increasing and blocks are emitted anchored on
    the smallest remaining element, so the block tuple comes out alphabetical
    (disjoint blocks sort by their minima).
    """
    if count == 0:
        yield ()
        return
    anchor, rest = items[0], items[1:]
    for companions in itertools.combinations(rest, size - 1):
        block = (anchor,) + companions
        remaining = tuple(i for i in rest if i not in companions)
        for tail in _equal_blocks(remaining, count - 1, size):
            yield (block,) + tail
