import math

import numpy as np
import pytest
from hypothesis import example, given, settings

from kolmoreduce import (
    BadMassError,
    CumulativeView,
    DiscreteDistribution,
    EmptyDistributionError,
    NonFiniteValueError,
    convolve,
    kolmogorov_distance,
    make_distribution,
    max_of,
    min_of,
    one_sided_distance,
    project_to_support,
    sample_empirical,
)
from kolmoreduce.distribution import MASS_TOL, _compensated_cumsum

from generators import binomial, distributions, masses, random_distribution


def dist(*pairs):
    return make_distribution(pairs)


def delta(v):
    return dist((v, 1.0))


UNIFORM4 = dist((1, 0.25), (2, 0.25), (3, 0.25), (4, 0.25))
COIN = dist((0, 0.5), (1, 0.5))
# Total mass 1 + 9e-10: inside MASS_TOL, but its square is not.
DRIFTED = dist((0, 0.5), (1, 0.5 + 9e-10))


class TestMakeDistribution:
    def test_sorts_input(self):
        d = make_distribution([(2, 0.5), (1, 0.5)])
        assert d.values.tolist() == [1, 2]
        assert d.probs.tolist() == [0.5, 0.5]

    def test_merges_duplicates(self):
        d = make_distribution([(1, 0.5), (1, 0.5)])
        assert d.values.tolist() == [1]
        assert d.probs.tolist() == [1.0]

    def test_drops_zero_mass(self):
        d = make_distribution([(1, 0.3), (2, 0.0), (3, 0.7)])
        assert d.values.tolist() == [1, 3]
        assert d.probs.tolist() == [0.3, 0.7]

    def test_empty_inputs_rejected(self):
        with pytest.raises(EmptyDistributionError):
            make_distribution([])
        with pytest.raises(EmptyDistributionError):
            make_distribution([(1, 0.0), (2, 0.0)])
        with pytest.raises(EmptyDistributionError):
            DiscreteDistribution([], [])

    @pytest.mark.parametrize("rows", [[(1, 0.5, 9), (2, 0.5, 9)], [1, 2], [[[1, 1.0]]]])
    def test_rows_must_be_pairs(self, rows):
        with pytest.raises(ValueError, match="pairs"):
            make_distribution(rows)

    def test_bad_mass_rejected(self):
        with pytest.raises(BadMassError):
            make_distribution([(1, 0.5), (2, 0.4)])
        with pytest.raises(BadMassError):
            make_distribution([(1, -0.25), (2, 1.25)])
        # A NaN or negative mass beside a full unit of mass must not be
        # dropped as zero.
        with pytest.raises(BadMassError, match="finite"):
            make_distribution([(1, 0.5), (2, 0.5), (3, float("nan"))])
        with pytest.raises(BadMassError, match="non-negative"):
            make_distribution([(1, 1.0), (2, -0.25)])
        with pytest.raises(BadMassError, match="finite"):
            make_distribution([(1, 1.0), (2, float("inf"))], renormalize=True)

    def test_renormalize(self):
        d = make_distribution([(1, 2.0), (2, 6.0)], renormalize=True)
        assert d.probs.tolist() == [0.25, 0.75]

    def test_renormalize_rejects_underflowed_mass(self):
        with pytest.raises(BadMassError, match="strictly positive"):
            make_distribution([(1, 5e-324), (2, 2.0)], renormalize=True)

    def test_matches_strict_constructor(self):
        rng = np.random.default_rng(4)
        values = rng.integers(0, 50, 200).astype(float)
        d = make_distribution(zip(values.tolist(), rng.random(200).tolist()), renormalize=True)
        assert d == DiscreteDistribution(d.values.copy(), d.probs.copy())
        assert not d.values.flags.writeable and not d.probs.flags.writeable

    def test_non_finite_values_rejected(self):
        with pytest.raises(NonFiniteValueError):
            make_distribution([(float("nan"), 1.0)])
        with pytest.raises(NonFiniteValueError):
            make_distribution([(float("inf"), 1.0)])
        with pytest.raises(NonFiniteValueError):
            DiscreteDistribution([0.0, float("inf")], [0.5, 0.5])

    @pytest.mark.parametrize("values, probs, message", [
        ([1.0, 2.0], [1.0], "equal length"),
        ([[1.0, 2.0]], [[0.5, 0.5]], "1-D"),
        ([2.0, 1.0], [0.5, 0.5], "strictly increasing"),
        ([1.0, 1.0], [0.5, 0.5], "strictly increasing"),
    ])
    def test_strict_constructor_checks_shape_and_order(self, values, probs, message):
        with pytest.raises(ValueError, match=message):
            DiscreteDistribution(values, probs)

    def test_repr_and_comparison_with_other_types(self):
        assert repr(COIN) == "DiscreteDistribution({0: 0.5, 1: 0.5})"
        assert repr(dist(*[(v, 0.1) for v in range(10)])) == "DiscreteDistribution(n=10)"
        assert COIN.__eq__((0, 1)) is NotImplemented
        assert COIN != (0, 1)

    def test_stored_arrays_immutable(self):
        with pytest.raises(ValueError):
            UNIFORM4.values[0] = 99.0


class TestOwnsItsArrays:
    def test_caller_arrays_stay_writeable(self):
        values, probs = np.array([1.0, 2.0, 3.0]), np.array([0.2, 0.3, 0.5])
        d = DiscreteDistribution(values, probs)
        assert values.flags.writeable and probs.flags.writeable
        values[0] = 0.0
        assert d.values.tolist() == [1.0, 2.0, 3.0]

    def test_later_change_to_a_table_does_not_reach_it(self):
        table = np.array([[1.0, 2.0, 3.0], [0.2, 0.3, 0.5]])
        d = DiscreteDistribution(table[0], table[1])
        d.cdf  # cached before the table changes
        table[0, 2] = -5.0
        table[1, 0] = 0.85
        assert d.values.tolist() == [1.0, 2.0, 3.0]
        assert d.probs.tolist() == [0.2, 0.3, 0.5]
        assert np.array_equal(d.cdf.cum, _compensated_cumsum(d.probs)[1:])


def _slow_compensated_cumsum(probs, block=4096):
    """Reference prefix sum: every block's ``fsum`` over numpy scalars,
    the last one included, and an offset branch inside the loop."""
    prefix = np.zeros(probs.size + 1)
    out = prefix[1:]
    block_totals = []
    offset = 0.0
    for start in range(0, probs.size, block):
        seg = probs[start:start + block]
        dst = out[start:start + seg.size]
        np.cumsum(seg, out=dst)
        if offset:
            dst += offset
            np.maximum(dst, out[start - 1], out=dst)
        block_totals.append(math.fsum(seg))
        offset = math.fsum(block_totals)
    return prefix


class TestCumulativeView:
    def test_prefix_sums(self):
        view = CumulativeView(UNIFORM4)
        assert view.cum.tolist() == [0.25, 0.5, 0.75, 1.0]
        assert view.cum_left.tolist() == [0.0, 0.25, 0.5, 0.75]
        assert view.total == 1.0

    def test_at_is_right_continuous(self):
        view = CumulativeView(UNIFORM4)
        ts = np.array([0.5, 1.0, 1.5, 4.0, 9.0])
        assert view.at(ts).tolist() == [0.0, 0.25, 0.25, 1.0, 1.0]

    def test_large_support_total_stays_tight(self):
        n = 200_000
        probs = np.full(n, 1.0 / n)
        d = DiscreteDistribution(np.arange(n, dtype=float), probs)
        view = CumulativeView(d)
        assert abs(view.total - math.fsum(probs.tolist())) <= 1e-12
        assert np.all(np.diff(view.cum) > 0)

    def test_prefix_sums_never_step_down_at_a_block_start(self):
        # Spiky masses on which the per-block sums used to end an ULP above
        # the next block's fsum offset, so cum dropped at index 4096.
        rng = np.random.default_rng(3)
        n = int(rng.integers(4100, 20000))
        probs = rng.random(n) ** 12 + 1e-12
        probs[rng.integers(0, n, 3)] += 1.0
        d = DiscreteDistribution(np.arange(n, dtype=float), probs / probs.sum())
        assert np.all(np.diff(d.cdf.cum) >= 0)
        assert np.all(np.diff(d.cdf.at(d.values)) >= 0)

    @pytest.mark.parametrize("kind", ["uniform", "pareto", "spiky", "tied"])
    def test_prefix_sums_match_block_loop_reference(self, kind):
        rng = np.random.default_rng(20 + ["uniform", "pareto", "spiky", "tied"].index(kind))
        for n in (1, 2, 4095, 4096, 4097, 8192, 8193, 100_003):
            probs = masses(rng, kind, n)
            assert _compensated_cumsum(probs).tobytes() == _slow_compensated_cumsum(probs).tobytes(), n

    def test_prefix_sums_match_reference_on_a_spiky_draw(self):
        # The draw of the step-down test above.
        rng = np.random.default_rng(3)
        n = int(rng.integers(4100, 20000))
        probs = rng.random(n) ** 12 + 1e-12
        probs[rng.integers(0, n, 3)] += 1.0
        probs /= probs.sum()
        assert _compensated_cumsum(probs).tobytes() == _slow_compensated_cumsum(probs).tobytes()

    def test_cached_on_distribution(self):
        d = make_distribution([(1, 0.2), (2, 0.3), (5, 0.5)])
        assert d.cdf is d.cdf
        fresh = CumulativeView(d)
        assert np.array_equal(d.cdf.cum, fresh.cum)
        assert np.array_equal(d.cdf.cum_left, fresh.cum_left)
        assert d.cdf.total == fresh.total

    def test_cached_view_is_read_only(self):
        d = make_distribution([(1, 0.2), (2, 0.3), (5, 0.5)])
        with pytest.raises(ValueError):
            d.cdf.cum[0] = 0.0
        with pytest.raises(ValueError):
            d.cdf.cum_left[1] = 0.0
        with pytest.raises(AttributeError):
            d.cdf = CumulativeView(d)


class TestKolmogorovDistance:
    def test_identity(self):
        assert kolmogorov_distance(UNIFORM4, UNIFORM4) == 0.0

    def test_disjoint_point_masses(self):
        assert kolmogorov_distance(delta(0), delta(1)) == 1.0

    def test_half_overlap(self):
        assert kolmogorov_distance(dist((1, 0.5), (2, 0.5)), delta(1)) == 0.5

    # Running sum of these masses ends at 1.0000000000000002.
    @example(
        DiscreteDistribution(np.arange(6.0), np.array([6, 7, 10, 3, 10, 1]) / 37.0),
        DiscreteDistribution(np.array([100.0]), np.array([1.0])),
    )
    @given(distributions(), distributions())
    @settings(max_examples=100, deadline=None)
    def test_metric_symmetry_and_bounds(self, a, b):
        d = kolmogorov_distance(a, b)
        assert 0.0 <= d <= 1.0
        assert d == kolmogorov_distance(b, a)

    @given(distributions(), distributions(), distributions())
    @settings(max_examples=100, deadline=None)
    def test_triangle_inequality(self, a, b, c):
        assert kolmogorov_distance(a, c) <= (
            kolmogorov_distance(a, b) + kolmogorov_distance(b, c) + 1e-12
        )

    @given(distributions(), distributions())
    @settings(max_examples=100, deadline=None)
    def test_zero_iff_equal(self, a, b):
        d = kolmogorov_distance(a, b)
        if a == b:
            assert d == 0.0
        else:
            assert d > 1e-12


class TestOneSided:
    def test_self_gap_is_zero(self):
        assert one_sided_distance(UNIFORM4, UNIFORM4) == (0.0, True)

    def test_early_jump_dominates(self):
        assert one_sided_distance(delta(1), delta(0)) == (1.0, True)

    def test_late_jump_invalid(self):
        assert one_sided_distance(delta(0), delta(1)) == (0.0, False)


class TestProjectToSupport:
    def test_mass_moves_up_to_next_point(self):
        target = dist((1, 1 / 3), (2, 1 / 3), (3, 1 / 3))
        assert project_to_support(delta(2.5), target) == delta(3)

    def test_already_on_support_unchanged(self):
        sub = dist((1, 0.5), (3, 0.5))
        assert project_to_support(sub, UNIFORM4) == sub

    def test_mass_below_support_goes_to_first_point(self):
        target = dist((1, 0.5), (2, 0.5))
        projected = project_to_support(delta(0), target)
        assert projected == delta(1)
        assert kolmogorov_distance(target, projected) == 0.5
        assert kolmogorov_distance(target, delta(0)) == 1.0

    @given(distributions(), distributions())
    @settings(max_examples=150, deadline=None)
    def test_never_increases_distance(self, xpp, target):
        projected = project_to_support(xpp, target)
        assert set(projected.values.tolist()) <= set(target.values.tolist())
        assert kolmogorov_distance(target, projected) <= (
            kolmogorov_distance(target, xpp) + 1e-12
        )


class TestCombinators:
    def test_convolve_deltas(self):
        assert convolve(delta(2), delta(3)) == delta(5)

    def test_convolve_coins(self):
        assert convolve(COIN, COIN) == dist((0, 0.25), (1, 0.5), (2, 0.25))

    def test_convolve_uniform_pair(self):
        u2 = dist((1, 0.5), (2, 0.5))
        assert convolve(u2, u2) == dist((2, 0.25), (3, 0.5), (4, 0.25))

    @given(distributions(max_n=6), distributions(max_n=6))
    @settings(max_examples=75, deadline=None)
    def test_convolve_commutes_and_preserves_mass(self, a, b):
        ab = convolve(a, b)
        ba = convolve(b, a)
        assert np.array_equal(ab.values, ba.values)
        assert np.allclose(ab.probs, ba.probs, rtol=0, atol=1e-12)
        assert abs(math.fsum(ab.probs.tolist()) - 1.0) <= 1e-9

    @given(distributions(max_n=4), distributions(max_n=4), distributions(max_n=4))
    @settings(max_examples=50, deadline=None)
    def test_convolve_associates(self, a, b, c):
        left = convolve(convolve(a, b), c)
        right = convolve(a, convolve(b, c))
        assert np.array_equal(left.values, right.values)
        assert np.allclose(left.probs, right.probs, rtol=0, atol=1e-12)

    def test_max_of_deltas(self):
        assert max_of(delta(1), delta(2)) == delta(2)

    def test_max_of_coins(self):
        assert max_of(COIN, COIN) == dist((0, 0.25), (1, 0.75))

    def test_min_of_coins(self):
        assert min_of(COIN, COIN) == dist((0, 0.75), (1, 0.25))

    @given(distributions(), distributions())
    @settings(max_examples=100, deadline=None)
    def test_max_cdf_is_product(self, a, b):
        combined = max_of(a, b)
        ts = np.union1d(a.values, b.values)
        fa = CumulativeView(a).at(ts)
        fb = CumulativeView(b).at(ts)
        fc = CumulativeView(combined).at(ts)
        assert np.allclose(fc, fa * fb, rtol=0, atol=1e-12)

    @given(distributions(), distributions())
    @settings(max_examples=100, deadline=None)
    def test_min_survival_is_product(self, a, b):
        combined = min_of(a, b)
        ts = np.union1d(a.values, b.values)
        sa = 1.0 - CumulativeView(a).at(ts)
        sb = 1.0 - CumulativeView(b).at(ts)
        sc = 1.0 - CumulativeView(combined).at(ts)
        assert np.allclose(sc, sa * sb, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("combine", [convolve, max_of, min_of])
    def test_accepts_inputs_with_drifted_total(self, combine):
        out = combine(DRIFTED, DRIFTED)
        assert abs(math.fsum(out.probs.tolist()) - 1.0) <= MASS_TOL
        assert np.allclose(out.probs, combine(COIN, COIN).probs, rtol=0, atol=1e-8)

    def test_convolve_drops_sums_whose_mass_underflows(self):
        b = binomial(600)
        out = convolve(b, b)
        assert out.n < 1201
        assert set(out.values.tolist()) <= set(range(1201))
        assert abs(math.fsum(out.probs.tolist()) - 1.0) <= MASS_TOL
        assert abs(out.probs[out.values == 600.0][0] - math.comb(1200, 600) / 2**1200) <= 1e-15

    @pytest.mark.filterwarnings("error")
    def test_convolve_names_sums_that_overflow(self):
        big = dist((0, 0.5), (1e308, 0.5))
        with pytest.raises(NonFiniteValueError, match="overflow"):
            convolve(big, big)
        with pytest.raises(NonFiniteValueError, match="overflow"):
            convolve(dist((-1e308, 0.5), (0, 0.5)), delta(-1e308))
        # Sums at the edge of the range are still finite.
        assert convolve(big, delta(-1e308)) == dist((-1e308, 0.5), (0, 0.5))
        assert convolve(dist((1e308, 1.0)), delta(7e307)).values.tolist() == [1e308 + 7e307]

    def test_accepted_outputs_are_not_rescaled(self):
        # min_of's total stays inside MASS_TOL, so its masses are the plain
        # differences of 1 - (1 - F)^2.
        f = DRIFTED.cdf.at(DRIFTED.values)
        pmf = np.diff(np.concatenate(([0.0], 1.0 - (1.0 - f) * (1.0 - f))))
        assert np.array_equal(min_of(DRIFTED, DRIFTED).probs, pmf)
        # A total of 1 + 9e-10 is kept too: the masses are the plain sums of
        # products, not divided by the total.
        products = np.multiply.outer(DRIFTED.probs, COIN.probs).ravel()
        assert np.array_equal(convolve(DRIFTED, COIN).probs, np.bincount([0, 1, 1, 2], weights=products))


class TestSampling:
    def test_point_mass_samples_to_itself(self):
        assert sample_empirical(delta(7), 25, seed=3) == delta(7)
        assert sample_empirical(delta(7), 1, seed=3) == delta(7)

    def test_draws_above_the_realised_total_land_on_the_last_point(self):
        # The masses sum to 1 - 9e-10, and one of seed 2722's 10**6 draws
        # lies above that: it belongs to the last point.
        x = dist((0, 0.5), (1, 0.5 - 9e-10))
        u = np.random.Generator(np.random.PCG64(2722)).random(10**6)
        assert u.max() >= x.cdf.total
        emp = sample_empirical(x, 10**6, seed=2722)
        assert emp.values.tolist() == [0.0, 1.0]
        assert emp.probs.tolist() == [np.count_nonzero(u < 0.5) / 10**6, np.count_nonzero(u >= 0.5) / 10**6]

    def test_deterministic_given_seed(self):
        a = sample_empirical(UNIFORM4, 500, seed=11)
        b = sample_empirical(UNIFORM4, 500, seed=11)
        assert a == b

    def test_different_seeds_differ(self):
        a = sample_empirical(UNIFORM4, 500, seed=1)
        b = sample_empirical(UNIFORM4, 500, seed=2)
        assert a != b

    def test_large_sample_concentrates(self):
        rng = np.random.default_rng(99)
        x = random_distribution(rng, n=100)
        emp = sample_empirical(x, 10_000, seed=5)
        assert kolmogorov_distance(emp, x) < 0.05

    def test_bad_sample_size(self):
        with pytest.raises(ValueError):
            sample_empirical(UNIFORM4, 0, seed=1)
