import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extconv.errors import DomainError
from extconv.sampling import (derive_rng, integer_draws, random_integer_matrix,
                              random_integer_rows)


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

    def test_matrix_is_randint_row_by_row(self):
        # the matrix the campaign drew before: one randint per entry, row by row
        for trial in range(10):
            rng, ref = derive_rng(5, trial), derive_rng(5, trial)
            X = random_integer_matrix(6, 3, rng, -4, 9)
            assert X.entries.tolist() == [[ref.randint(-4, 9) for _ in range(6)]
                                          for _ in range(math.comb(6, 2))]
            assert rng.getstate() == ref.getstate()

    def test_rows_stack_the_matrices(self):
        rows = random_integer_rows(5, 2, 3, range(4, 9), -1000, 1000)
        assert rows.shape == (5, 25) and rows.dtype == object and not rows.flags.writeable
        assert all(type(v) is int for v in rows.ravel().tolist())
        for row, trial in zip(rows.tolist(), range(4, 9)):
            X = random_integer_matrix(5, 2, derive_rng(3, trial), -1000, 1000)
            assert row == X.entries.ravel().tolist()
        assert random_integer_rows(5, 2, 3, [], 0, 1).shape == (0, 25)
        assert np.array_equal(random_integer_rows(4, 2, 0, [7], 2, 2), np.full((1, 16), 2))
