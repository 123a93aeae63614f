import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extconv import sampling, scalars
from extconv.errors import DomainError
from extconv.sampling import (FIT, SUPPORT, VALIDATION, random_form_rows, random_integer_rows,
                              random_line_rows, random_rank_one_rows)

import oracles
from oracles import (MATRICES, ReferenceStream, line_draws, philox4x32,
                     random_form, random_integer_matrix, rank_one_draws, reference_words)

# Random123's known-answer vectors for Philox4x32-10: (counter, key, output)
KNOWN_ANSWERS = [
    ((0, 0, 0, 0), (0, 0), (0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8)),
    ((0xFFFFFFFF,) * 4, (0xFFFFFFFF,) * 2, (0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD)),
    ((0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344), (0xA4093822, 0x299F31D0),
     (0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1)),
]


def kernel_block(counter, key) -> tuple:
    """The kernel's four words for one counter (c0, c1, c2, c3) and key (k0, k1)."""
    (c0, c1, c2, c3), seed = counter, key[0] | key[1] << 32
    A = np.array([[c0], [c2]], dtype=np.uint64)
    L = np.array([[c3], [c1]], dtype=np.uint32)
    A, L = sampling._philox(seed, A, L)
    return int(A[0, 0]), int(L[1, 0]), int(A[1, 0]), int(L[0, 0])


class TestKnownAnswers:
    """The numpy kernel and the pure-Python oracle each give the published words."""

    @pytest.mark.parametrize("counter,key,words", KNOWN_ANSWERS)
    def test_kernel(self, counter, key, words):
        assert kernel_block(counter, key) == words

    @pytest.mark.parametrize("counter,key,words", KNOWN_ANSWERS)
    def test_oracle(self, counter, key, words):
        assert tuple(philox4x32(counter, key)) == words

    def test_stream_words_are_the_oracle_words(self):
        indices, attempts = np.array([0, 5, 2 ** 32 - 1]), np.array([0, 3, 2 ** 32 - 1])
        for seed in (0, 7, 2 ** 64 - 12345):
            for count in (0, 1, 4, 13):
                got = sampling._words(seed, 4, indices, attempts, count)
                assert got.shape == (3, count)
                for row, j, a in zip(got.tolist(), indices.tolist(), attempts.tolist()):
                    assert row == reference_words(seed, 4, j, a, count)

    @pytest.mark.parametrize("counter,key,words", KNOWN_ANSWERS)
    def test_philox_fault_breaks_the_known_answers(self, philox_fault, counter, key, words):
        assert kernel_block(counter, key) != words
        assert tuple(philox4x32(counter, key)) == words

    def test_philox_fault_breaks_the_oracle_streams(self, philox_fault):
        rows = random_form_rows(4, 2, 3, range(4), 2.0, SUPPORT)
        for j, row in enumerate(rows):
            assert row.tobytes() != random_form(4, 2, ReferenceStream(3, SUPPORT, j),
                                                2.0).coeffs.tobytes()


seeds = st.one_of(st.integers(0, 2 ** 64 - 1), st.sampled_from([0, 1, 2 ** 32, 2 ** 64 - 1]))
index_lists = st.lists(st.one_of(st.integers(0, 2 ** 32 - 1), st.integers(0, 40)),
                       max_size=4)
shapes = st.sampled_from([(4, 2), (3, 1), (5, 3), (3, 3), (2, 0), (3, 2)])


def same_floats(got: np.ndarray, want) -> bool:
    return got.tobytes() == np.array(want, dtype=float).reshape(got.shape).tobytes()


class TestStacksAgainstTheOracle:
    """Every stacked sampler, stream by stream, against ``oracles.ReferenceStream``:
    floats bit for bit, integers and fractions exactly."""

    @settings(max_examples=40, deadline=None)
    @given(seeds, index_lists, shapes, st.sampled_from([SUPPORT, FIT, VALIDATION]),
           st.integers(0, 3), st.sampled_from([1e-300, 1.0, 2.5, 1e300]))
    def test_forms(self, seed, indices, shape, kind, attempt, scale):
        n, k = shape
        rows = random_form_rows(n, k, seed, indices, scale, kind, attempt)
        assert rows.shape == (len(indices), math.comb(n, k))
        for row, j in zip(rows, indices):
            want = random_form(n, k, ReferenceStream(seed, kind, j, attempt), scale)
            assert row.tobytes() == want.coeffs.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(seeds, index_lists, st.sampled_from([(4, 2), (3, 2), (5, 3), (2, 2), (4, 1)]),
           st.integers(1, 3), st.booleans())
    def test_wedge_lines(self, seed, indices, shape, points, exact):
        n, k = shape
        backend = scalars.EXACT if exact else scalars.FLOAT
        got = random_line_rows(n, k, seed, indices, 1.5, points, backend)
        for i, j in enumerate(indices):
            xi, alpha, beta, t = line_draws(n, k, seed, j, 1.5, points, exact)
            if exact:
                assert [got[0][i].tolist(), got[1][i].tolist(), got[2][i].tolist(),
                        got[3][i].tolist()] == [xi.coeffs.tolist(), alpha.coeffs.tolist(),
                                                beta.coeffs.tolist(), t]
            else:
                for stack, form in zip(got, (xi, alpha, beta)):
                    assert stack[i].tobytes() == form.coeffs.tobytes()
                assert same_floats(got[3][i], t)

    @settings(max_examples=30, deadline=None)
    @given(seeds, index_lists, st.sampled_from([(4, 2), (3, 2), (3, 3), (5, 2)]))
    def test_rank_one_lines(self, seed, indices, shape):
        n, k = shape
        X, a, b, t = random_rank_one_rows(n, k, seed, indices, 0.75)
        for i, j in enumerate(indices):
            want = rank_one_draws(n, k, seed, j, 0.75)
            assert X[i].tobytes() == want[0].entries.ravel().tobytes()
            assert a[i].tobytes() == want[1].coeffs.tobytes()
            assert b[i].tobytes() == want[2].coeffs.tobytes()
            assert same_floats(t[i], [want[3]])

    @settings(max_examples=60, deadline=None)
    @given(seeds, index_lists, st.one_of(st.integers(-(2 ** 70), 2 ** 70),
                                         st.sampled_from([0, -7, -(2 ** 63), 2 ** 63 - 1])),
           st.one_of(st.integers(1, 2 ** 70),
                     st.sampled_from([1, 2, 17, 2 ** 31 + 1, 2 ** 32, 2 ** 32 + 1,
                                      2 ** 64, 2 ** 64 + 1])))
    def test_integer_matrices(self, seed, indices, low, span):
        high = low + span - 1
        rows = random_integer_rows(3, 2, seed, indices, low, high)
        fits = -(2 ** 63) <= low and high < 2 ** 63
        assert rows.dtype == (np.int64 if fits else object) and not rows.flags.writeable
        for row, j in zip(rows.tolist(), indices):
            want = random_integer_matrix(3, 2, ReferenceStream(seed, MATRICES, j), low, high)
            assert row == want.entries.ravel().tolist()
            assert all(type(v) is int for v in row)


class TestIntegerRule:
    """Rejection as the rule states it: the same words at the next attempt."""

    @pytest.mark.parametrize("span", [1, 2, 11, 2 ** 31 + 1, 2 ** 32, 2 ** 32 + 1, 2 ** 40 + 3,
                                      2 ** 64, 2 ** 64 + 1, 2 ** 96 + 7])
    @pytest.mark.parametrize("low", [0, -7, -(2 ** 35)])
    def test_spans_equal_the_oracle(self, span, low):
        rows = random_integer_rows(4, 2, 11, range(6), low, low + span - 1)
        for j, row in enumerate(rows.tolist()):
            rng = ReferenceStream(11, MATRICES, j)
            assert row == [rng.randint(low, low + span - 1) for _ in range(16)]

    def test_half_rejected_words_redraw(self):
        # 2^32 mod (2^31 + 1) = 2^31 − 1: words at or past 2^31 + 1 are refused,
        # so most rows read several attempts, each entry taking the first it may
        span = 2 ** 31 + 1
        rows = random_integer_rows(4, 2, 5, range(8), 0, span - 1)
        last = []
        for j, row in enumerate(rows.tolist()):
            rng = ReferenceStream(5, MATRICES, j)
            assert row == [rng.randint(0, span - 1) for _ in range(16)]
            last.append(rng.next_attempt)
            first = reference_words(5, MATRICES, j, 0, 16)
            kept = [w for w in first if w < span]
            assert [v for v, w in zip(row, first) if w < span] == kept
        assert max(last) > 2

    def test_rows_follow_their_own_attempts(self):
        # one call with per-row attempts equals separate calls at each attempt
        indices, attempts = np.array([3, 3, 9]), np.array([0, 2, 5])
        kind = sampling.LINE_DIRECTION
        values, after = sampling._integer_rows(4, kind, indices, attempts, 10, -8, 17)
        for row, j, a, n in zip(values.tolist(), indices.tolist(), attempts.tolist(),
                                after.tolist()):
            rng = ReferenceStream(4, kind, j, a)
            assert row == [rng.randint(-8, 8) for _ in range(10)]
            assert n == rng.next_attempt

    def test_empty_and_single_value_ranges(self):
        assert random_integer_rows(5, 2, 3, [], 0, 1).shape == (0, 25)
        assert np.array_equal(random_integer_rows(4, 2, 0, [7], 2, 2), np.full((1, 16), 2))
        for low, high in [(1, 0), (0.5, 2), (True, 3), (0, "5")]:
            with pytest.raises(DomainError):
                random_integer_rows(4, 2, 0, [0], low, high)


class TestLineRedraws:
    """A degenerate direction draws α and β again at its stream's next attempt;
    ξ and t never move."""

    def test_forced_redraw_takes_the_next_attempt(self, monkeypatch):
        # the first wedge test calls every even row degenerate: only those rows
        # read attempt 1 of their direction streams
        real, calls = sampling.wedge_rows, []

        def first_test_degenerate(a, b, *args):
            out = real(a, b, *args)
            if not calls:
                out[::2] = 0
            calls.append(len(a))
            return out

        monkeypatch.setattr(sampling, "wedge_rows", first_test_degenerate)
        xi, alpha, beta, t = random_line_rows(5, 2, 3, range(7), 2.0)
        assert calls == [7, 4]
        monkeypatch.undo()
        for j in range(7):
            want_xi, _, _, (want_t,) = line_draws(5, 2, 3, j, 2.0)
            rng = ReferenceStream(3, oracles.LINE_DIRECTION, j, 1 if j % 2 == 0 else 0)
            want_alpha, want_beta = random_form(5, 1, rng, 2.0), random_form(5, 1, rng, 2.0)
            assert [xi[j].tobytes(), alpha[j].tobytes(), beta[j].tobytes()] == \
                [want_xi.coeffs.tobytes(), want_alpha.coeffs.tobytes(), want_beta.coeffs.tobytes()]
            assert t[j, 0] == want_t

    def test_exact_redraw_takes_the_next_attempt(self, monkeypatch):
        # an exact row whose first pair read attempts 0 … a draws again at a + 1
        real, calls = sampling.wedge_rows, []

        def first_test_degenerate(a, b, *args):
            out = real(a, b, *args)
            if not calls:
                out[:] = 0
            calls.append(len(a))
            return out

        monkeypatch.setattr(sampling, "wedge_rows", first_test_degenerate)
        got = random_line_rows(3, 2, 8, range(40), 2.0, 1, scalars.EXACT)
        monkeypatch.undo()
        for j in range(40):
            first = ReferenceStream(8, oracles.LINE_DIRECTION, j)
            [oracles.rand_exact(first) for _ in range(6)]
            rng = ReferenceStream(8, oracles.LINE_DIRECTION, j, first.next_attempt)
            assert got[1][j].tolist() + got[2][j].tolist() == \
                [oracles.rand_exact(rng) for _ in range(6)]

    def test_a_hundred_degenerate_draws_fail(self):
        # every wedge underflows to zero at range 1e-200
        message = "no nondegenerate direction for (n=4, k=2) at range 1e-200"
        with pytest.raises(DomainError, match=rf"^{re.escape(message)}$"):
            random_line_rows(4, 2, 1, range(5), 1e-200)
        with pytest.raises(DomainError, match=rf"^{re.escape(message)}$"):
            line_draws(4, 2, 1, 0, 1e-200)

    def test_one_stream_that_stays_degenerate_fails_the_stack(self, monkeypatch):
        # row 1 is degenerate at its first draw and at each of its 99 redraws
        real, calls = sampling.wedge_rows, []

        def row_one_degenerate(a, b, *args):
            out = real(a, b, *args)
            out[1 if len(a) == 6 else slice(None)] = 0
            calls.append(len(a))
            return out

        monkeypatch.setattr(sampling, "wedge_rows", row_one_degenerate)
        with pytest.raises(DomainError, match=r"^no nondegenerate direction for \(n=4, k=2\) "
                                              r"at range 2\.0$"):
            random_line_rows(4, 2, 0, range(6), 2.0)
        assert calls == [6] + [1] * 99


class TestDisjointStreams:
    """Streams are disjoint by construction: no seed, kind or attempt reaches
    another's words through an offset."""

    def test_fit_validation_is_not_another_seeds_trials(self):
        # with one sequence per seed·1 000 003 + index, seed s's validation
        # indices from 77 000 000 were seed s + 76's trials from 999 772 on
        assert 76 * 1_000_003 + 999_772 == 77_000_000
        for s in range(3):
            held_out = random_form_rows(4, 2, s, range(50), 2.0, VALIDATION)
            for kind in (SUPPORT, FIT, VALIDATION):
                trials = random_form_rows(4, 2, s + 76, range(999_772, 999_822), 2.0, kind)
                assert not (held_out == trials).any()

    def test_fit_retry_is_not_another_seeds_trials(self):
        # ... and the widened retry (indices from 10 000 000) seed s + 9's from 999 973 on
        assert 9 * 1_000_003 + 999_973 == 10_000_000
        retry = random_form_rows(4, 2, 0, range(50), 2.0, FIT, 1)
        trials = random_form_rows(4, 2, 9, range(999_973, 1_000_023), 2.0, FIT)
        assert not (retry == trials).any()

    def test_key_and_counter_are_injective_on_a_grid(self):
        edges = [0, 1, 2, 2 ** 31, 2 ** 32 - 2, 2 ** 32 - 1]
        seen = set()
        for seed in [0, 1, 2 ** 32, 2 ** 32 + 1, 2 ** 64 - 1]:
            key = tuple(int(v) for v in sampling._round_keys(seed)[0].ravel()[::-1])
            assert key == (seed & 0xFFFFFFFF, seed >> 32)
            for kind in range(9):
                for attempt in edges:
                    indices = np.array(edges)
                    A, L = sampling._counters(kind, indices, np.full(len(edges), attempt), 3)
                    counters = list(zip(A[0].tolist(), L[1].tolist(), A[1].tolist(),
                                        L[0].tolist()))
                    assert counters == [(block, index, attempt, kind)
                                        for index in edges for block in range(3)]
                    seen.update((key, c) for c in counters)
        assert len(seen) == 5 * 9 * 6 * 6 * 3


class TestStreamBounds:
    """Seeds lie in [0, 2^64) and indices, attempts and blocks below 2^32; all
    are checked by arithmetic before any word is drawn."""

    @pytest.fixture
    def no_draws(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("a word was drawn before the check")

        monkeypatch.setattr(sampling, "_philox", forbidden)

    @pytest.mark.parametrize("draw", [
        lambda: random_line_rows(4, 2, -1, range(3), 2.0),
        lambda: random_rank_one_rows(4, 2, 2 ** 64, range(3), 2.0),
        lambda: random_form_rows(4, 2, -1, range(3), 2.0, SUPPORT),
        lambda: random_integer_rows(4, 2, 2 ** 64, range(3), -5, 5),
        lambda: random_line_rows(4, 2, 0, [-1], 2.0),
        lambda: random_form_rows(4, 2, 0, range(2 ** 32 - 1, 2 ** 32 + 1), 2.0, SUPPORT),
        lambda: random_form_rows(4, 2, 0, range(10 ** 12), 2.0, SUPPORT),
        lambda: random_integer_rows(4, 2, 0, [2 ** 32], -5, 5),
        lambda: random_form_rows(4, 2, 0, range(3), 2.0, FIT, 2 ** 32),
        lambda: random_form_rows(40, 20, 0, range(1), 2.0, SUPPORT),
        lambda: random_integer_rows(140_000, 2, 0, range(1), -5, 5),
    ], ids=["negative-seed", "seed-2^64", "form-seed", "integer-seed", "negative-index",
            "index-2^32", "a-trillion-indices", "integer-index", "attempt-2^32",
            "form-blocks", "matrix-blocks"])
    def test_refused_before_any_draw(self, no_draws, draw):
        with pytest.raises(DomainError, match=r"2\^(32|64)"):
            draw()

    def test_the_bounds_themselves_draw(self):
        for seed in (0, 2 ** 64 - 1):
            rows = random_form_rows(4, 2, seed, [0, 2 ** 32 - 1], 1.0, FIT, 2 ** 32 - 1)
            for row, j in zip(rows, [0, 2 ** 32 - 1]):
                want = random_form(4, 2, ReferenceStream(seed, FIT, j, 2 ** 32 - 1), 1.0)
                assert row.tobytes() == want.coeffs.tobytes()

    def test_exact_line_entries_are_stored_scalars(self):
        xi, alpha, beta, t = random_line_rows(4, 2, 7, range(30), 2.0, 3, scalars.EXACT)
        assert all(x.dtype == object for x in (xi, alpha, beta, t))
        # an integral value is an int, as a form stores it
        values = xi.ravel().tolist() + t.ravel().tolist()
        assert all(type(v) is int or v.denominator > 1 for v in values)
        assert all(isinstance(v, (int, Fraction)) for v in values)
