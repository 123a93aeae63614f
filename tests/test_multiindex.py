import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extconv.convexity import SamplerConfig
from extconv.errors import DomainError
from extconv.exterior import KForm, subset_ranks, subsets, wedge_power
from extconv.functions import FormFunction
from extconv.multiindex import (block_partitions, enumerate_multiindices, key_rank, labels,
                                sign_interlace_append, sign_of_string)
from extconv.polyform import Poly, PolyKForm, d_classical
from extconv.projection import minor_power_map, wedge_power_from_minors
from extconv.shapespace import MinorTable, ShapeMatrix, adjugate

from oracles import (brute_partitions, interlace, parity_by_cycles, parity_by_inversions,
                     shuffle_wedge, sign_interlace)


def sign_append(i, I):
    """Coefficient (±1) of e^[I∪i] in e^I ∧ e^i: (−1)^(k−p), p the 1-based
    position of i in the sorted length-k union."""
    if i in I:
        raise DomainError(f"index {i} already in {I}")
    union = sorted(I + (i,))
    return -1 if (len(union) - union.index(i) - 1) & 1 else 1


def k_flip(J, blocks, p, m, q):
    """Exchange subscript j_p with entry q of block m (1-based), re-sorting both sides.

    The flipped pair is again increasing/alphabetical, and flipping the same
    two values back restores the original pair.
    """
    blocks = tuple(blocks)
    members = J + sum(blocks, ())
    if len(set(members)) != len(members):
        raise DomainError("subscripts and blocks must be pairwise disjoint")
    if not (1 <= p <= len(J) and 1 <= m <= len(blocks) and 1 <= q <= len(blocks[m - 1])):
        raise DomainError(f"flip position ({p}, {m}, {q}) out of range")
    j_val, b_val = J[p - 1], blocks[m - 1][q - 1]
    new_J = tuple(sorted(set(J) - {j_val} | {b_val}))
    new_block = tuple(sorted(set(blocks[m - 1]) - {b_val} | {j_val}))
    return new_J, tuple(sorted(blocks[:m - 1] + (new_block,) + blocks[m:]))


def rank(key, n):
    return key_rank(key, n, len(key), "key")


class TestEnumeration:
    def test_n3_k2(self):
        got = enumerate_multiindices(3, 2)
        assert got == [(1, 2), (1, 3), (2, 3)]
        assert all(type(i) is int for K in got for i in K)

    def test_degree_zero_is_single_empty(self):
        assert enumerate_multiindices(5, 0) == [()]

    def test_n4_k2_position_of_23(self):
        # brute-force lexicographic sort as the oracle
        expected = sorted(itertools.combinations(range(1, 5), 2))
        got = enumerate_multiindices(4, 2)
        assert got == expected
        assert len(got) == 6
        assert got.index((2, 3)) + 1 == 4  # 1-based position

    def test_out_of_range_degree(self):
        with pytest.raises(DomainError):
            enumerate_multiindices(3, 4)
        with pytest.raises(DomainError):
            enumerate_multiindices(3, -1)

    def test_rank_unrank_roundtrip_exhaustive(self):
        # ranking is key_rank; unranking is a row of ``subsets``, shifted to 1-based
        for n in range(1, 9):
            for k in range(0, n + 1):
                unranked = subsets(n, k) + 1
                for r, K in enumerate(enumerate_multiindices(n, k)):
                    assert rank(K, n) == r
                    assert key_rank(",".join(map(str, K)), n, k, "key") == r
                    assert tuple(unranked[r].tolist()) == K

    def test_rank_is_the_subset_ranker_and_unrank_inverts_both(self):
        for n in range(1, 11):
            for k in range(0, n + 1):
                basis = enumerate_multiindices(n, k)
                positions = np.array(basis, dtype=np.intp).reshape(len(basis), k) - 1
                ranks = subset_ranks(positions, n).tolist()
                assert [rank(K, n) for K in basis] == ranks
                assert [tuple(row) for row in (subsets(n, k)[ranks] + 1).tolist()] == basis


class TestMultiIndexValidation:
    def test_rejects_unsorted(self):
        with pytest.raises(DomainError):
            rank((2, 1), 4)

    def test_rejects_duplicates(self):
        with pytest.raises(DomainError):
            rank((1, 1), 4)

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            rank((1, 5), 4)

    def test_text_roundtrip(self):
        assert labels(5, 3)[key_rank("1,3,4", 5, 3, "key")] == "1,3,4"
        assert key_rank("1,3,4", 5, 3, "key") == rank((1, 3, 4), 5)
        assert labels(5, 0) == [""] and key_rank("", 5, 0, "key") == 0

    @pytest.mark.parametrize("indices", [(1.7, 2), (1.0, 2), (True, 2), (np.True_, 2),
                                         ("1", 2), (Fraction(1), 2)])
    def test_non_integer_index_is_refused_not_truncated(self, indices):
        with pytest.raises(DomainError):
            rank(indices, 3)

    def test_numpy_ints_are_indices(self):
        assert rank((np.int64(1), np.uint8(3)), 4) == rank((1, 3), 4) == 1

    def test_non_integer_index_is_refused_at_every_entry_point(self):
        with pytest.raises(DomainError):
            KForm.basis(3, (1.5, 2))
        with pytest.raises(DomainError):
            ShapeMatrix(3, 2, [[1, 2, 3], [4, 5, 6], [7, 8, 9]]).entry((2.9,), 1)
        with pytest.raises(DomainError):
            KForm(3, 1, [1, 2, 3]).coefficient((1.2,))
        with pytest.raises(DomainError):
            KForm(3, 1, [1, 2, 3]).coefficient((True,))
        with pytest.raises(DomainError):
            PolyKForm(3, 1, {(1.5,): Poly.variable(3, 1)})

    def test_a_multiindex_key_is_read_on_the_callers_space(self):
        # a tuple or text key names a basis element of the caller's R^n
        form = KForm(5, 2, range(1, 11))
        assert form.coefficient((2, 3)) == form.coefficient("2,3") == 5
        assert form.coefficient([np.int64(4), 5]) == 10
        assert KForm.from_dict(5, 2, {"2,3": 7}).as_dict() == {(2, 3): 7}
        X = ShapeMatrix(4, 3, np.arange(24).reshape(6, 4))
        assert X.entry((2, 3), 1) == X.entry("2,3", 1) == 12
        x1 = Poly.variable(5, 1)
        assert PolyKForm(5, 2, {"2,3": x1}).as_dict() == {(2, 3): x1}

    def test_a_multiindex_key_beyond_the_callers_space_is_refused(self):
        with pytest.raises(DomainError, match="exceeds ambient dimension 5"):
            KForm(5, 2, range(1, 11)).coefficient((4, 6))
        with pytest.raises(DomainError, match="exceeds ambient dimension 5"):
            KForm(5, 2, range(1, 11)).coefficient("4,6")
        with pytest.raises(DomainError, match="exceeds ambient dimension 5"):
            KForm.from_dict(5, 2, {(1, 6): 7})
        with pytest.raises(DomainError, match="exceeds ambient dimension 4"):
            ShapeMatrix(4, 3, np.arange(24).reshape(6, 4)).entry("2,5", 1)
        with pytest.raises(DomainError, match="exceeds ambient dimension 5"):
            PolyKForm(5, 2, {(1, 6): Poly.variable(5, 1)})

    @pytest.mark.parametrize("col", [True, 2.5, np.float64(2.0), "2"])
    def test_entry_column_is_an_integer(self, col):
        X = ShapeMatrix(3, 2, [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        with pytest.raises(DomainError):
            X.entry((2,), col)

    def test_numpy_int_column(self):
        X = ShapeMatrix(3, 2, [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        assert X.entry((2,), np.int64(1)) == 4

    @pytest.mark.parametrize("build", [
        lambda: KForm.zero(3.5, 1),
        lambda: KForm(True, 1, [1]),
        lambda: KForm(3, True, [1, 2, 3]),
        lambda: KForm(3, 1.0, [1, 2, 3]),
        lambda: ShapeMatrix(4.0, 2),
        lambda: ShapeMatrix(4, True),
        lambda: MinorTable(3, 2, True, [[1, 2, 3]] * 3),
        lambda: MinorTable(3, 2, 1.0, [[1, 2, 3]] * 3),
        lambda: adjugate(ShapeMatrix(3, 2), True),
        lambda: wedge_power(KForm(4, 2, range(6)), True),
        lambda: wedge_power(KForm(4, 2, range(6)), 2.0),
        lambda: minor_power_map(4, 2, 1.0),
        lambda: (minor_power_map(4, 2, 1), minor_power_map(4, 2, True)),    # 1's map cached
        lambda: wedge_power_from_minors(ShapeMatrix(4, 2), 2.0),
        lambda: Poly(2.0),
        lambda: Poly.variable(2, 1.5),
        lambda: Poly.variable(2, True),
        lambda: Poly.variable(2, 1).diff(1.0),
        lambda: Poly.parse("x1", 1.5),
        lambda: SamplerConfig(trials=2.5),
        lambda: SamplerConfig(trials=True),
        lambda: SamplerConfig(seed=1.5),
        lambda: FormFunction(4, True, {"op": "norm_sq", "arg": "xi"}),
        lambda: FormFunction(4.0, 2, {"op": "norm_sq", "arg": "xi"}),
    ], ids=["zero-n-float", "form-n-bool", "form-k-bool", "form-k-float", "matrix-n-float",
            "matrix-k-bool", "table-s-bool", "table-s-float", "adjugate-s-bool",
            "wedge-power-s-bool", "wedge-power-s-float", "power-map-s-float", "power-map-s-bool",
            "from-minors-s-float", "poly-nvars-float", "variable-i-float", "variable-i-bool",
            "diff-i-float", "parse-nvars-float", "trials-float", "trials-bool", "seed-float",
            "function-k-bool", "function-n-float"])
    def test_dimension_degree_and_order_are_integers(self, build):
        with pytest.raises(DomainError, match="not an integer"):
            build()

    def test_numpy_int_dimensions_become_python_ints(self):
        form = KForm(np.int64(3), np.uint8(1), [1, 2, 3])
        X = ShapeMatrix(np.int32(3), np.int64(2))
        assert all(type(v) is int for v in (form.n, form.k, X.n, X.k))
        assert repr(form) == "KForm(n=3, k=1, {(1,): 1, (2,): 2, (3,): 3}, backend='exact')"

    @pytest.mark.parametrize("text", ["a,b", "1,,2", "x", "1;2", "1,"])
    def test_malformed_text_is_a_domain_error(self, text):
        with pytest.raises(DomainError, match="bad multiindex"):
            key_rank(text, 5, 2, "key")


class TestKeysAndLabels:
    def test_labels_are_the_multiindex_texts_in_rank_order(self):
        for n in range(1, 7):
            for k in range(0, n + 1):
                texts = labels(n, k)
                assert texts == [",".join(map(str, K)) for K in enumerate_multiindices(n, k)]
                assert [key_rank(t, n, k, "key") for t in texts] == list(range(len(texts)))

    def test_labels_above_the_dimension_are_empty(self):
        assert labels(3, 4) == []
        with pytest.raises(DomainError):
            labels(3, -1)

    def test_key_rank_reads_every_key_form_alike(self):
        for key in ["2,4", (2, 4), [np.int64(2), 4], np.array([2, 4]), (np.uint8(2), 4)]:
            assert key_rank(key, 5, 2, "key") == 5

    @pytest.mark.parametrize("key", ["2,2", "4,2", "1,6", "1", "1,2,3", "a", "1,", (1, 2.0)])
    def test_key_rank_refuses_keys_that_name_no_basis_element(self, key):
        with pytest.raises(DomainError):
            key_rank(key, 5, 2, "key")


class TestIOEdgeBuildsNoMultiIndex:
    def test_writers_readers_and_d_classical(self):
        form = KForm(5, 3, [Fraction(i - 4, 3) for i in range(10)])
        X = ShapeMatrix(4, 3, np.arange(24).reshape(6, 4) - 11)
        table = adjugate(X, 2)
        x = [Poly.variable(4, i) for i in range(1, 5)]
        w = PolyKForm(4, 2, {(1, 2): x[2] * x[3], (2, 4): x[0] * x[0], (3, 4): x[1]})
        assert form.to_json()["coeffs"]["1,2,3"] == "-4/3"
        assert form.as_dict()[(3, 4, 5)] == Fraction(5, 3) and "(1, 2, 4): " in repr(form)
        assert ShapeMatrix.from_json(X.to_json()) == X
        assert table.to_json()["rows"][0] == ["1,2", "1,3"]
        assert d_classical(w).coefficient((1, 2, 4)) == x[0] + x[0] + x[2]
        assert form.coefficient("1,2,4") == KForm.from_dict(5, 3, {(1, 2, 4): -1}).coeffs[1]
        assert all(type(K) is tuple for K in form.as_dict())


class TestSignOfString:
    def test_identity(self):
        assert sign_of_string((1, 2, 3)) == 1

    def test_transposition(self):
        assert sign_of_string((2, 1)) == -1

    def test_single_inversion(self):
        assert sign_of_string((1, 3, 2, 4)) == -1

    def test_duplicates_rejected(self):
        with pytest.raises(DomainError):
            sign_of_string((1, 2, 1))

    @settings(max_examples=100, deadline=None)
    @given(st.permutations(list(range(1, 8))))
    def test_matches_cycle_parity(self, perm):
        assert sign_of_string(tuple(perm)) == parity_by_cycles(tuple(perm))

    def test_every_short_permutation_matches_inversion_count(self):
        for length in range(8):
            for perm in itertools.permutations(range(1, length + 1)):
                assert sign_of_string(perm) == parity_by_inversions(perm), perm

    def test_random_long_strings_match_inversion_count(self):
        rng = random.Random(12)
        for _ in range(500):
            string = tuple(rng.sample(range(-50, 50), 12))
            assert sign_of_string(string) == parity_by_inversions(string), string

    @settings(max_examples=50, deadline=None)
    @given(st.permutations([1, 4, 5, 8, 9]), st.permutations([2, 3, 6, 7]))
    def test_block_sort_factorization(self, left, right):
        # sort each half first, then merge the sorted halves
        merged_sign = sign_of_string(tuple(left) + tuple(right))
        assert merged_sign == sign_of_string(tuple(left)) * sign_of_string(tuple(right)) \
            * sign_of_string(tuple(sorted(left)) + tuple(sorted(right)))


class TestSignInterlace:
    def test_trivial(self):
        assert sign_interlace((1,), ((2,),)) == 1

    def test_two_singleton_blocks(self):
        # string (1,3,2,4), one inversion
        assert sign_interlace((1, 2), ((3,), (4,))) == -1

    def test_block_of_two(self):
        # string (2,1,3), one inversion
        assert sign_interlace((2,), ((1, 3),)) == -1

    def test_append_variant_parity_relation(self):
        rng = random.Random(7)
        n = 9
        for _ in range(200):
            s = rng.randint(1, 3)
            block_len = rng.randint(1, 2)
            pool = rng.sample(range(1, n + 1), s + s * block_len)
            J = tuple(sorted(pool[:s]))
            rest = pool[s:]
            blocks = tuple(sorted(
                tuple(sorted(rest[i * block_len:(i + 1) * block_len])) for i in range(s)))
            lit = sign_interlace(J, blocks)
            app = sign_interlace_append(J, blocks)
            assert app == lit * (-1) ** (s * block_len)

    def test_overlap_rejected(self):
        with pytest.raises(DomainError):
            sign_interlace((1,), ((1, 2),))


class TestSignAppend:
    def test_already_ordered(self):
        assert sign_append(2, (1,)) == 1

    def test_one_transposition(self):
        assert sign_append(1, (2,)) == -1

    def test_interior_insertion(self):
        # e^13 ∧ e^2 = −e^123: frozen from the shuffle-wedge oracle below
        assert sign_append(2, (1, 3)) == -1

    def test_member_rejected(self):
        with pytest.raises(DomainError):
            sign_append(2, (1, 2))

    def test_against_shuffle_wedge_oracle(self):
        n = 7
        for k in range(1, 5):
            for I in itertools.combinations(range(1, n + 1), k):
                for i in range(1, n + 1):
                    if i in I:
                        continue
                    product = shuffle_wedge({I: 1}, {(i,): 1})
                    merged = tuple(sorted(I + (i,)))
                    assert product == {merged: sign_append(i, I)}


class TestKFlip:
    def test_direct_substitution(self):
        J, blocks = k_flip((1,), ((2, 3),), 1, 1, 1)
        assert J == (2,)
        assert list(blocks) == [(1, 3)]

    def test_sorted_after_swap(self):
        J, blocks = k_flip((1, 4), ((2, 3), (5, 6)), 2, 1, 2)
        assert J == (1, 3)
        assert list(blocks) == [(2, 4), (5, 6)]

    def test_involution_by_values(self):
        rng = random.Random(3)
        n = 9
        for _ in range(100):
            s, blen = rng.randint(1, 3), rng.randint(1, 2)
            pool = rng.sample(range(1, n + 1), s + s * blen)
            J = tuple(sorted(pool[:s]))
            rest = pool[s:]
            blocks = tuple(sorted(
                tuple(sorted(rest[i * blen:(i + 1) * blen])) for i in range(s)))
            p, m = rng.randint(1, s), rng.randint(1, s)
            q = rng.randint(1, blen)
            j_val = J[p - 1]
            b_val = blocks[m - 1][q - 1]
            J2, blocks2 = k_flip(J, blocks, p, m, q)
            # locate the swapped values and flip them back
            p2 = J2.index(b_val) + 1
            m2 = next(i for i, b in enumerate(blocks2, start=1) if j_val in b)
            q2 = blocks2[m2 - 1].index(j_val) + 1
            J3, blocks3 = k_flip(J2, blocks2, p2, m2, q2)
            assert (J3, blocks3) == (J, blocks)

    def test_position_out_of_range(self):
        with pytest.raises(DomainError):
            k_flip((1,), ((2, 3),), 2, 1, 1)
        with pytest.raises(DomainError):
            k_flip((1,), ((2, 3),), 1, 1, 3)

    def test_overlap_rejected(self):
        with pytest.raises(DomainError):
            k_flip((1,), ((1, 3),), 1, 1, 1)


class TestBlockPartitions:
    def test_four_choose_two_singletons(self):
        parts = list(block_partitions((1, 2, 3, 4), 2, 2))
        assert len(parts) == 6
        got = set(parts)
        assert ((1, 2), ((3,), (4,))) in got
        assert ((3, 4), ((1,), (2,))) in got

    def test_single_power_two_choices(self):
        parts = list(block_partitions((1, 2), 1, 2))
        got = [(J, blocks[0]) for J, blocks in parts]
        assert got == [((1,), (2,)), ((2,), (1,))]

    def test_s1_gives_k_partitions(self):
        for k in (3, 4, 2):
            assert len(list(block_partitions(tuple(range(1, k + 1)), 1, k))) == k

    def test_complete_and_duplicate_free_vs_bruteforce(self):
        cases = [((1, 2, 3, 4), 2, 2), ((1, 2, 3, 4, 5, 6), 2, 3),
                 ((1, 2, 3, 4, 5, 6), 3, 2), ((2, 3, 5, 7, 8, 9), 2, 3)]
        for members, s, k in cases:
            parts = list(block_partitions(members, s, k))
            canon = [(J, frozenset(blocks)) for J, blocks in parts]
            assert len(canon) == len(set(canon))
            assert set(canon) == brute_partitions(members, s, k)
            expected = (math.comb(k * s, s) * math.factorial(s * (k - 1))
                        // (math.factorial(k - 1) ** s * math.factorial(s)))
            assert len(parts) == expected

    def test_blocks_sorted_and_deterministic(self):
        parts = list(block_partitions((1, 2, 3, 4, 5, 6), 2, 3))
        for _, blocks in parts:
            assert list(blocks) == sorted(blocks)
        assert parts == list(block_partitions((1, 2, 3, 4, 5, 6), 2, 3))

    @pytest.mark.parametrize("s,k", [(2, 2), (2, 3), (3, 2), (1, 4), (2, 4)])
    def test_zero_based_positions(self, s, k):
        # the power map walks the positions 0..ks−1; a shift by one maps the
        # walk on 1..ks onto it split by split, in the same order
        parts = list(block_partitions(range(k * s), s, k))
        assert {(J, frozenset(blocks)) for J, blocks in parts} \
            == brute_partitions(tuple(range(k * s)), s, k)
        shifted = [(tuple(j + 1 for j in J), tuple(tuple(i + 1 for i in b) for b in blocks))
                   for J, blocks in parts]
        assert shifted == list(block_partitions(range(1, k * s + 1), s, k))
        assert all(type(i) is int for J, blocks in parts for i in J + sum(blocks, ()))

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            list(block_partitions((1, 2, 3), 2, 2))

    @pytest.mark.parametrize("members", [(2, 1, 3, 4), (1, 1, 2, 3)])
    def test_members_must_increase(self, members):
        with pytest.raises(DomainError):
            list(block_partitions(members, 2, 2))


class TestSignFactorizationIdentities:
    def test_group_extraction_factorization_even_k(self):
        # sgn(j_1,I^1,...,j_g,I^g) = (−1)^((l−1)+(m−1)(k−1)) sgn(j_l, I^m, rest-interlace)
        # exhaustively for k = 2 and 2..3 groups within n ≤ 6
        k = 2
        for groups in (2, 3):
            n = k * groups
            for I in itertools.combinations(range(1, 7), k * groups):
                for part in brute_partitions(I, groups, k):
                    J, blocks = part[0], sorted(part[1])
                    full = interlace(J, blocks)
                    for l in range(1, groups + 1):
                        for m in range(1, groups + 1):
                            rest_J = J[:l - 1] + J[l:]
                            rest_blocks = blocks[:m - 1] + blocks[m:]
                            string = (J[l - 1],) + tuple(blocks[m - 1]) \
                                + interlace(rest_J, rest_blocks)
                            expect = (-1) ** ((l - 1) + (m - 1) * (k - 1)) \
                                * sign_of_string(string)
                            assert sign_of_string(full) == expect

    @pytest.mark.parametrize("k,s", [(3, 1), (3, 2)])
    def test_flip_sign_relation_odd_k(self, k, s):
        # pure-sign content of the odd-k flipped-minor relation: the two
        # interlace signs of a k-flipped pair agree once the literal per-pair
        # sign and the subscript-position parity are factored out
        n = 7
        checked = 0
        for members in itertools.combinations(range(1, n + 1), s * k):
            for part in brute_partitions(members, s, k):
                J, blocks = part[0], sorted(part[1])
                for l in range(1, s + 1):
                    for m in range(1, s + 1):
                        for q in range(1, k):
                            j_l = J[l - 1]
                            flipped_out = blocks[m - 1][q - 1]
                            new_pair = tuple(sorted(
                                set(blocks[m - 1]) - {flipped_out} | {j_l}))
                            bare_J = J[:l - 1] + J[l:]
                            bare_blocks = blocks[:m - 1] + blocks[m:]

                            def sign_with(j, block):
                                full_J = tuple(sorted(bare_J + (j,)))
                                full_blocks = sorted(bare_blocks + [tuple(block)])
                                a = full_J.index(j) + 1
                                return sign_of_string(
                                    interlace(full_J, full_blocks)), a

                            lhs_sign, a1 = sign_with(j_l, blocks[m - 1])
                            rhs_sign, a2 = sign_with(flipped_out, new_pair)
                            lhs = lhs_sign * (-1) ** a2 \
                                * sign_of_string((flipped_out,) + new_pair)
                            rhs = rhs_sign * (-1) ** a1 \
                                * sign_of_string((j_l,) + tuple(blocks[m - 1]))
                            assert lhs == rhs
                            checked += 1
        assert checked > 0
