import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kolmoreduce import (
    BadEpsError,
    BadMError,
    DiscreteDistribution,
    kolmogorov_distance,
    make_distribution,
    one_sided_distance,
    opt_trim,
    reduce,
    sample_reduce,
    trim_epsilon,
)

from kolmoreduce.baselines import _assess

from generators import distributions, random_distribution

UNIFORM4 = make_distribution([(1, 0.25), (2, 0.25), (3, 0.25), (4, 0.25)])


def one_sided_brute(x, m):
    """Exhaustive one-sided oracle: keep the first point, move each
    segment's mass down to its left kept endpoint, minimize the largest
    upward CDF gap."""
    probs = x.probs.tolist()
    n = x.n
    best = None
    for size in range(1, min(m, n) + 1):
        for rest in itertools.combinations(range(1, n), size - 1):
            combo = (0,) + rest
            worst = 0.0
            for t, i in enumerate(combo):
                stop = combo[t + 1] if t + 1 < len(combo) else n
                worst = max(worst, math.fsum(probs[i + 1 : stop]))
            candidate = (worst, combo)
            if best is None or candidate < best:
                best = candidate
    return best


class TestTrim:
    def test_eps_below_smallest_mass_is_identity(self):
        result = trim_epsilon(UNIFORM4, 0.2)
        assert result.approx == UNIFORM4
        assert result.one_sided_error == 0.0
        assert result.two_sided_error == 0.0

    def test_pairwise_grouping(self):
        result = trim_epsilon(UNIFORM4, 0.25)
        assert result.approx == make_distribution([(1, 0.5), (3, 0.5)])
        assert result.one_sided_error == 0.25
        assert result.one_sided_valid

    def test_absorbs_everything(self):
        result = trim_epsilon(UNIFORM4, 0.76)
        assert result.approx == make_distribution([(1, 1.0)])

    def test_bad_eps(self):
        for eps in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(BadEpsError):
                trim_epsilon(UNIFORM4, eps)

    @given(distributions(), st.floats(0.01, 0.99))
    @settings(max_examples=100, deadline=None)
    def test_one_sided_and_within_eps(self, x, eps):
        result = trim_epsilon(x, eps)
        assert result.one_sided_valid
        assert result.one_sided_error <= eps + 1e-12
        assert result.two_sided_error == result.one_sided_error

    @given(distributions(), st.integers(2, 12))
    @settings(max_examples=100, deadline=None)
    def test_budget_mapping_bounds_group_count(self, x, m):
        # One closed group plus its successor's leader always exceed 1/m,
        # so eps = 1/m can produce at most m groups.
        result = trim_epsilon(x, 1.0 / m)
        assert result.approx.n <= m


def trim_reference(x, eps):
    """trim_epsilon's grouping loop over numpy scalars, as first written."""
    keep_vals, keep_mass, absorbed = [float(x.values[0])], [float(x.probs[0])], 0.0
    for j in range(1, x.n):
        p = float(x.probs[j])
        if absorbed + p <= eps:
            absorbed += p
            keep_mass[-1] += p
        else:
            keep_vals.append(float(x.values[j]))
            keep_mass.append(p)
            absorbed = 0.0
    return DiscreteDistribution(np.asarray(keep_vals), np.asarray(keep_mass))


def test_trim_and_assess_match_reference():
    rng = np.random.default_rng(31)
    for _ in range(40):
        n = int(rng.integers(1, 3000))
        x = random_distribution(rng, n=n, values=np.sort(rng.standard_normal(n)) + np.arange(n))
        eps = float(rng.choice([1e-4, 1e-3, 1.5 / n, 0.1, 0.5]))
        result = trim_epsilon(x, eps)
        ref = trim_reference(x, eps)
        assert result.approx.values.tobytes() == ref.values.tobytes()
        assert result.approx.probs.tobytes() == ref.probs.tobytes()
        for approx in (ref, UNIFORM4, x):
            one_sided, valid = one_sided_distance(x, approx)
            expected = (kolmogorov_distance(x, approx), one_sided, valid)
            got = _assess(x, approx)
            assert (got.two_sided_error, got.one_sided_error, got.one_sided_valid) == expected


class TestOptTrim:
    def test_generous_budget_is_identity(self):
        result = opt_trim(UNIFORM4, 4)
        assert result.approx == UNIFORM4
        assert result.one_sided_error == 0.0

    def test_uniform4_budget2(self):
        result = opt_trim(UNIFORM4, 2)
        assert result.approx == make_distribution([(1, 0.5), (3, 0.5)])
        assert result.one_sided_error == 0.25
        assert result.one_sided_valid

    def test_single_point_pins_minimum(self):
        result = opt_trim(UNIFORM4, 1)
        assert result.approx == make_distribution([(1, 1.0)])
        assert result.one_sided_error == 0.75

    def test_bad_budget(self):
        with pytest.raises(BadMError):
            opt_trim(UNIFORM4, 0)

    @given(distributions(), st.integers(1, 12))
    @settings(max_examples=100, deadline=None)
    def test_always_one_sided(self, x, m):
        result = opt_trim(x, m)
        assert result.one_sided_valid
        assert result.approx.n <= min(m, x.n)
        assert float(result.approx.values[0]) == float(x.values[0])

    def test_matches_exhaustive_one_sided_search(self):
        rng = np.random.default_rng(31337)
        for _ in range(60):
            x = random_distribution(rng, max_n=9)
            for m in range(1, x.n + 1):
                result = opt_trim(x, m)
                best_err, best_combo = one_sided_brute(x, m)
                assert abs(result.one_sided_error - best_err) <= 1e-12
                assert result.one_sided_error <= best_err + 1e-12

    @given(distributions(), st.integers(2, 12))
    @settings(max_examples=100, deadline=None)
    def test_optimal_beats_greedy_at_same_budget(self, x, m):
        greedy = trim_epsilon(x, 1.0 / m)
        if greedy.approx.n <= m:
            optimal = opt_trim(x, m)
            assert optimal.one_sided_error <= greedy.one_sided_error + 1e-12


class TestSampleReduce:
    def test_point_mass(self):
        dc = make_distribution([(3.5, 1.0)])
        result = sample_reduce(dc, 100, 3, seed=7)
        assert result.approx == dc
        assert result.two_sided_error == 0.0

    def test_deterministic(self):
        a = sample_reduce(UNIFORM4, 1000, 2, seed=42)
        b = sample_reduce(UNIFORM4, 1000, 2, seed=42)
        assert a.approx == b.approx
        assert a.two_sided_error == b.two_sided_error

    def test_respects_budget(self):
        rng = np.random.default_rng(17)
        x = random_distribution(rng, n=40)
        result = sample_reduce(x, 5000, 6, seed=1)
        assert result.approx.n <= 6

    def test_bad_budget(self):
        with pytest.raises(BadMError):
            sample_reduce(UNIFORM4, 100, 0, seed=1)


class TestOptimalityDominance:
    @given(distributions(), st.integers(1, 10))
    @settings(max_examples=100, deadline=None)
    def test_two_sided_optimum_dominates_baselines(self, x, m):
        best = reduce(x, m).distance
        assert best <= opt_trim(x, m).two_sided_error + 1e-12
        result = sample_reduce(x, 200, m, seed=5)
        assert best <= result.two_sided_error + 1e-12

    def test_full_chain_on_generic_instances(self):
        rng = np.random.default_rng(2718)
        for _ in range(25):
            x = random_distribution(rng, n=int(rng.integers(5, 80)))
            for m in (2, 3, 5, 8):
                klm = reduce(x, m).distance
                opt = opt_trim(x, m).two_sided_error
                greedy = trim_epsilon(x, 1.0 / m).two_sided_error
                assert klm <= opt + 1e-12
                assert opt <= greedy + 1e-12
