import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extconv import sampling, scalars
from extconv.errors import DomainError
from extconv.sampling import (derive_rng, integer_draws, random_integer_rows, random_line_rows,
                              random_rank_one_rows)

from oracles import (random_exact_form, random_form, random_integer_matrix, random_line,
                     random_matrix)


def assert_draws_are_randints(seed, low, high, count):
    ours, theirs = random.Random(seed), random.Random(seed)
    assert integer_draws(ours, low, high, count) == \
        [theirs.randint(low, high) for _ in range(count)]
    assert ours.getstate() == theirs.getstate()


class TestIntegerDraws:
    """``integer_draws`` is ``randint`` draw for draw, final stream state included."""

    @pytest.mark.parametrize("span", [1, 2, 11, 2 ** 5, 2 ** 5 + 1, 2 ** 32, 2 ** 32 + 1,
                                      2 ** 40 + 3])
    @pytest.mark.parametrize("low", [0, -7, -(2 ** 35)])
    def test_spans_equal_randint(self, span, low):
        for seed in range(20):
            assert_draws_are_randints(seed, low, low + span - 1, 50)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(-(2 ** 70), 2 ** 70), st.integers(0, 2 ** 70),
           st.integers(0, 2 ** 32), st.integers(0, 40))
    def test_drawn_bounds_equal_randint(self, low, width, seed, count):
        assert_draws_are_randints(seed, low, low + width, count)

    def test_empty_and_non_integer_ranges_are_refused(self):
        rng = random.Random(0)
        for low, high in [(1, 0), (0.5, 2), (True, 3), (0, "5")]:
            with pytest.raises(DomainError):
                integer_draws(rng, low, high, 3)

    def test_matrix_is_randint_row_by_row(self, streams):
        # the matrix the campaign drew before: one randint per entry, row by row
        for trial in range(10):
            ref = derive_rng(5, trial)
            X = random_integer_rows(6, 3, 5, [trial], -4, 9)[0].reshape(-1, 6)
            assert X.tolist() == [[ref.randint(-4, 9) for _ in range(6)]
                                  for _ in range(math.comb(6, 2))]
            assert streams[-1].getstate() == ref.getstate()

    @pytest.mark.parametrize("low,high", [(-5, 5), (0, 0), (-2 ** 63, 2 ** 63 - 1),
                                          (-10 ** 30, 10 ** 30), (-3, 2 ** 63), (-2 ** 63 - 1, 0)])
    def test_entries_are_python_ints_at_any_bounds(self, low, high):
        # int64 bounds give an int64 stack and others objects: the same Python ints
        rows = random_integer_rows(8, 4, 2, range(3), low, high)
        fits = -2 ** 63 <= low and high < 2 ** 63
        assert rows.dtype == (np.int64 if fits else object) and not rows.flags.writeable
        values = rows.ravel().tolist()
        assert all(type(v) is int for v in values)
        for row, trial in zip(rows.tolist(), range(3)):
            ref = derive_rng(2, trial)
            assert row == [ref.randint(low, high) for _ in range(8 * math.comb(8, 3))]

    def test_rows_stack_the_matrices(self):
        rows = random_integer_rows(5, 2, 3, range(4, 9), -1000, 1000)
        assert rows.shape == (5, 25) and rows.dtype == np.int64 and not rows.flags.writeable
        for row, trial in zip(rows.tolist(), range(4, 9)):
            X = random_integer_matrix(5, 2, derive_rng(3, trial), -1000, 1000)
            assert row == X.entries.ravel().tolist()
        assert random_integer_rows(5, 2, 3, [], 0, 1).shape == (0, 25)
        assert np.array_equal(random_integer_rows(4, 2, 0, [7], 2, 2), np.full((1, 16), 2))


def uniform_loop(rngs, width, scale):
    """The stacked draw as one ``random()`` call per entry: uniform's formula on each."""
    u = np.array([rng.random() for rng in rngs for _ in range(width)], dtype=float)
    return (-scale + (scale - -scale) * u).reshape(len(rngs), width)


class TestUniformRows:
    """``_uniform_rows`` takes each stream's words in one ``getrandbits``: every
    value and every stream's final state are those of the ``random()`` calls."""

    @pytest.mark.parametrize("width", [0, 1, 28, 70])
    @pytest.mark.parametrize("scale", [1.0, 1e-5, 3.7])
    def test_bulk_words_are_the_random_calls(self, width, scale):
        indices = [0, 1, 5, 999_999, 77_000_001]
        ours, theirs = ([derive_rng(9, j) for j in indices] for _ in range(2))
        got = sampling._uniform_rows(ours, width, scale, "entries")
        assert got.shape == (len(indices), width) and got.dtype == np.float64
        assert got.tobytes() == uniform_loop(theirs, width, scale).tobytes()
        assert [rng.getstate() for rng in ours] == [rng.getstate() for rng in theirs]

    @pytest.mark.parametrize("width", [0, 28])
    def test_no_streams(self, width):
        got = sampling._uniform_rows([], width, 2.0, "entries")
        assert got.shape == (0, width)
        assert got.tobytes() == uniform_loop([], width, 2.0).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 40), st.integers(0, 40))
    def test_drawn_seeds_equal_the_calls(self, seed, width):
        ours, theirs = [random.Random(seed)], [random.Random(seed)]
        assert sampling._uniform_rows(ours, width, 1.0, "entries").tobytes() == \
            uniform_loop(theirs, width, 1.0).tobytes()
        assert ours[0].getstate() == theirs[0].getstate()


class TestLineRows:
    """Stacked line draws against the one-trial draws of tests/oracles.py:
    float stacks by bytes, exact ones by value, and every stream's final state."""

    @pytest.mark.parametrize("n,k", [(4, 2), (8, 2), (6, 3), (5, 1), (3, 3), (2, 2)])
    @pytest.mark.parametrize("scale", [1e-3, 2.0, 1e100])
    @pytest.mark.parametrize("points", [1, 3])
    def test_float_lines_are_the_one_trial_draws(self, streams, n, k, scale, points):
        indices = [0, 4, 2, 999_999, 77_000_001]
        xi, alpha, beta, t = random_line_rows(n, k, 6, indices, scale, points)
        assert [x.dtype for x in (xi, alpha, beta, t)] == [np.float64] * 4
        assert t.shape == (len(indices), points)
        for i, j in enumerate(indices):
            twin = derive_rng(6, j)
            want = [random_form(n, k, twin, scale), *random_line(n, k, twin, scale)]
            for got, form in zip((xi, alpha, beta), want):
                assert got[i].tobytes() == form.coeffs.tobytes()
            assert t[i].tobytes() == np.array([twin.uniform(-1.0, 1.0)
                                               for _ in range(points)]).tobytes()
            assert streams[i].getstate() == twin.getstate()

    @pytest.mark.parametrize("n,k", [(2, 2), (3, 2), (4, 2), (5, 3)])
    def test_exact_lines_are_the_one_trial_draws(self, streams, n, k):
        xi, alpha, beta, t = random_line_rows(n, k, 7, range(30), 2.0, 3, scalars.EXACT)
        assert all(x.dtype == object for x in (xi, alpha, beta, t))
        for j in range(30):
            twin = derive_rng(7, j)
            want = [random_exact_form(n, k, twin), *random_line(n, k, twin, 2.0, exact=True)]
            for got, form in zip((xi, alpha, beta), want):
                assert got[j].tolist() == form.coeffs.tolist()
            assert t[j].tolist() == [Fraction(twin.randint(-8, 8), twin.randint(1, 4))
                                     for _ in range(3)]
            assert streams[j].getstate() == twin.getstate()
        # exact scalars as a form stores them: an integral value is an int
        assert all(type(v) is int or v.denominator > 1 for v in xi.ravel().tolist())

    @pytest.mark.parametrize("n,k", [(4, 2), (6, 3), (3, 2)])
    def test_rank_one_lines_are_the_one_trial_draws(self, streams, n, k):
        X, a, b, t = random_rank_one_rows(n, k, 2, range(8), 1.5)
        for j in range(8):
            twin = derive_rng(2, j)
            want = [random_matrix(n, k, twin, 1.5).entries.ravel(),
                    random_form(n, k - 1, twin, 1.5).coeffs, random_form(n, 1, twin, 1.5).coeffs]
            for got, row in zip((X, a, b), want):
                assert got[j].tobytes() == row.tobytes()
            assert t[j].tobytes() == np.array([twin.uniform(-1.0, 1.0)]).tobytes()
            assert streams[j].getstate() == twin.getstate()

    def test_forced_redraw_takes_the_pair_again(self, streams, monkeypatch):
        # the first wedge test calls every even row degenerate; those streams
        # draw a second pair after the first and before t, and only they redraw
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
        for j in range(7):
            twin = derive_rng(3, j)
            want_xi = random_form(5, 2, twin, 2.0)
            if j % 2 == 0:
                random_form(5, 1, twin, 2.0), random_form(5, 1, twin, 2.0)   # the pair redrawn
            want_alpha, want_beta = random_line(5, 2, twin, 2.0)
            assert [xi[j].tobytes(), alpha[j].tobytes(), beta[j].tobytes()] == \
                [want_xi.coeffs.tobytes(), want_alpha.coeffs.tobytes(), want_beta.coeffs.tobytes()]
            assert t[j, 0] == twin.uniform(-1.0, 1.0)
            assert streams[j].getstate() == twin.getstate()

    def test_a_hundred_degenerate_draws_fail(self, streams, monkeypatch):
        # every wedge underflows to zero at range 1e-200: each stream draws ξ
        # and 100 pairs, and the message is the one-trial draw's
        message = "no nondegenerate direction for (n=4, k=2) at range 1e-200"
        with pytest.raises(DomainError, match=rf"^{re.escape(message)}$"):
            random_line_rows(4, 2, 1, range(5), 1e-200)
        for j in range(5):
            twin = derive_rng(1, j)
            random_form(4, 2, twin, 1e-200)
            with pytest.raises(DomainError, match=rf"^{re.escape(message)}$"):
                random_line(4, 2, twin, 1e-200)
            assert streams[j].getstate() == twin.getstate()

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


class TestSeeds:
    """``random.Random`` seeds an int by its absolute value, so a negative seed
    or trial index would replay another seed's streams: both are refused."""

    @pytest.mark.parametrize("seed,index", [(-1, 0), (0, -1), (-1, -1), (-7, 1_000_003)])
    def test_negative_seed_or_index_refused(self, seed, index):
        with pytest.raises(DomainError, match="must be nonnegative"):
            derive_rng(seed, index)

    @pytest.mark.parametrize("draw", [
        lambda: random_line_rows(4, 2, -1, range(3), 2.0),
        lambda: random_rank_one_rows(4, 2, -1, range(3), 2.0),
        lambda: sampling.random_form_rows(4, 2, -1, range(3), 2.0),
        lambda: random_integer_rows(4, 2, -1, range(3), -5, 5),
        lambda: random_line_rows(4, 2, 0, [-1], 2.0),
    ], ids=["line", "rank-one", "form", "integer", "index"])
    def test_every_stacked_draw_refuses_them(self, draw):
        with pytest.raises(DomainError, match="must be nonnegative"):
            draw()

    def test_zero_and_large_seeds_still_draw(self):
        assert derive_rng(0, 0).random() == random.Random(0).random()
        assert derive_rng(2 ** 70, 3).random() == random.Random(2 ** 70 * 1_000_003 + 3).random()
