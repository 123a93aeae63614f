"""Every structure table, row by row, against the brute-force oracles.

A wedge table row must list exactly the (I, J) pairs whose concatenation sorts
to its target, with the shuffle sign; a power-map row must hold exactly the
(cell, sign) multiset of its target's block partitions.  The oracles share no
code with the pattern builds: pairs and partitions are enumerated by brute
force, ranks by ``list.index`` over ``itertools.combinations``, and signs by
shuffle position sums and cycle parity.
"""

import itertools
import math
from collections import Counter

import pytest

from extconv import exterior
from extconv.projection import minor_power_map
from oracles import brute_partitions, parity_by_cycles, shuffle_wedge, sign_interlace

WEDGE_SPACES = [(n, k, l) for n in range(1, 7) for k in range(n + 1) for l in range(n + 1 - k)] \
    + [(5, 3, 3), (6, 4, 3), (8, 3, 2), (8, 3, 3), (9, 2, 4), (5, 0, 3), (6, 5, 0)]

# every order up to one past the top degree, where k·s > n leaves no targets
MAP_SPACES = [(n, k, s) for n in range(2, 8) for k in range(2, n + 1)
              for s in range(1, min(n // k + 1, math.comb(n, k - 1)) + 1)] \
    + [(8, 2, 4), (8, 4, 2), (9, 3, 1), (9, 3, 3), (10, 2, 5)]


def basis(n, k):
    return list(itertools.combinations(range(1, n + 1), k))


def check_sign_row(signs, plus, minus):
    assert set(signs.tolist()) <= {-1.0, 1.0}
    assert plus.tolist() == [j for j, v in enumerate(signs) if v > 0]
    assert minus.tolist() == [j for j, v in enumerate(signs) if v < 0]


@pytest.mark.parametrize("n,k,l", WEDGE_SPACES)
def test_wedge_table_rows_match_shuffle_oracle(n, k, l):
    left, right, signs, plus, minus = exterior._wedge_table(n, k, l)
    assert not any(array.flags.writeable for array in (left, right, signs, plus, minus))
    check_sign_row(signs, plus, minus)
    targets = basis(n, k + l) if k + l <= n else []
    assert left.shape == right.shape == (len(targets), math.comb(k + l, k))
    lefts, rights = basis(n, k), basis(n, l)
    for t, target in enumerate(targets):
        listed = Counter((lefts[a], rights[b], int(sign))
                         for a, b, sign in zip(left[t], right[t], signs))
        expected = Counter()
        for I in lefts:
            for J in rights:
                if set(I).isdisjoint(J) and tuple(sorted(I + J)) == target:
                    (key, sign), = shuffle_wedge({I: 1}, {J: 1}).items()
                    assert key == target and sign == parity_by_cycles(I + J)
                    expected[I, J, sign] += 1
        assert listed == expected


@pytest.mark.parametrize("n,k,s", MAP_SPACES)
def test_power_map_rows_match_partition_oracle(n, k, s):
    pm = minor_power_map(n, k, s)
    assert not any(array.flags.writeable for array in pm[3:])
    check_sign_row(pm.signs, pm.plus, pm.minus)
    labels = basis(n, k - 1)
    row_sets = list(itertools.combinations(range(len(labels)), s))
    col_sets = list(itertools.combinations(range(n), s))
    targets = basis(n, k * s) if k * s <= n else []
    assert pm.shape == (len(targets), len(row_sets) * len(col_sets))
    for t, target in enumerate(targets):
        held = Counter(zip(pm.cells[t].tolist(), pm.signs.tolist()))
        expected = Counter()
        if k % 2 == 0 or s == 1:    # an odd form's powers ≥ 2 vanish: no slots
            for J, block_set in brute_partitions(target, s, k):
                blocks = sorted(block_set)
                row_set = tuple(labels.index(block) for block in blocks)
                cell = row_sets.index(row_set) * len(col_sets) \
                    + col_sets.index(tuple(j - 1 for j in J))
                expected[cell, sign_interlace(J, blocks) * (-1) ** (s * (k - 1))] += 1
        assert held == expected
