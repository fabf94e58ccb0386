import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kolmoreduce import (
    BadMError,
    TooLargeError,
    brute_force_reduce,
    kolmogorov_distance,
    make_distribution,
    naive_distance,
    reduce,
)
from kolmoreduce.oracle import BRUTE_FORCE_LIMIT

from generators import distributions, random_distribution

UNIFORM4 = make_distribution([(1, 0.25), (2, 0.25), (3, 0.25), (4, 0.25)])


class TestNaiveDistance:
    def test_point_masses(self):
        assert naive_distance(make_distribution([(0, 1.0)]), make_distribution([(1, 1.0)])) == 1.0

    def test_half_overlap(self):
        u2 = make_distribution([(1, 0.5), (2, 0.5)])
        assert naive_distance(u2, make_distribution([(1, 1.0)])) == 0.5

    @given(distributions(), distributions())
    @settings(max_examples=150, deadline=None)
    def test_matches_fast_path(self, a, b):
        assert abs(naive_distance(a, b) - kolmogorov_distance(a, b)) <= 1e-12


class TestBruteForceReduce:
    def test_uniform4_budget2(self):
        result = brute_force_reduce(UNIFORM4, 2)
        assert result.distance == 0.25
        assert result.selection.indices.tolist() == [0, 2]

    def test_generous_budget(self):
        assert brute_force_reduce(UNIFORM4, 7).distance == 0.0

    def test_skewed_two_points(self):
        x = make_distribution([(1, 0.1), (2, 0.9)])
        result = brute_force_reduce(x, 1)
        assert result.selection.indices.tolist() == [1]
        assert abs(result.distance - 0.1) <= 1e-15

    def test_guard_and_bad_m(self):
        rng = np.random.default_rng(0)
        big = random_distribution(rng, n=BRUTE_FORCE_LIMIT + 1)
        with pytest.raises(TooLargeError):
            brute_force_reduce(big, 2)
        with pytest.raises(BadMError):
            brute_force_reduce(UNIFORM4, 0)

    def test_dyadic_tie_breaks_lexicographically(self):
        # All four optimal pairs tie at 0.25; the smallest index tuple wins
        # and the fast path agrees because the masses are dyadic.
        slow = brute_force_reduce(UNIFORM4, 2)
        fast = reduce(UNIFORM4, 2)
        assert slow.selection.indices.tolist() == [0, 2]
        assert fast.selection.indices.tolist() == [0, 2]


class TestOracleEquivalence:
    @given(distributions(max_n=9), st.integers(1, 9))
    @settings(max_examples=100, deadline=None)
    def test_distance_agrees_exactly(self, x, m):
        slow = brute_force_reduce(x, m)
        fast = reduce(x, m)
        assert abs(slow.distance - fast.distance) <= 1e-12

    def test_supports_agree_on_generic_data(self):
        rng = np.random.default_rng(424242)
        for _ in range(40):
            x = random_distribution(rng, max_n=10)
            for m in range(1, x.n + 1):
                slow = brute_force_reduce(x, m)
                fast = reduce(x, m)
                assert abs(slow.distance - fast.distance) <= 1e-12
                assert np.array_equal(slow.selection.indices, fast.selection.indices)

    @given(distributions(max_n=8), st.integers(1, 8))
    @settings(max_examples=75, deadline=None)
    def test_constructed_output_matches_certificate(self, x, m):
        slow = brute_force_reduce(x, m)
        assert abs(kolmogorov_distance(x, slow.approx) - slow.distance) <= 1e-12
