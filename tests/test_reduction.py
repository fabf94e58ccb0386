import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kolmoreduce import (
    BadMError,
    CumulativeView,
    DiscreteDistribution,
    construct_on_support,
    epsilon_for_support,
    kolmogorov_distance,
    make_distribution,
    min_bottleneck_support,
    reduce,
    segment_weight,
)

from kolmoreduce.reduction import (
    _DP_BLOCK,
    _bottleneck_epsilon,
    _lex_min_support,
    _quantile_support,
    _segment_weights,
)

from generators import distributions, masses, random_distribution

UNIFORM3 = make_distribution([(1, 1 / 3), (2, 1 / 3), (3, 1 / 3)])
UNIFORM4 = make_distribution([(1, 0.25), (2, 0.25), (3, 0.25), (4, 0.25)])


def check_balance(x, result, tol=1e-12):
    """Per-segment CDF gap bound of the constructed approximation.

    A kept point belongs to the segment on its right, matching the bound's
    sign pattern at kept points.
    """
    view = CumulativeView(x)
    fx = view.cum
    fa = CumulativeView(result.approx).at(x.values)
    sel = result.selection.indices.tolist()
    for lo, hi in zip([None] + sel, sel + [None]):
        w = segment_weight(view, lo, hi)
        start = 0 if lo is None else lo
        stop = x.n if hi is None else hi
        if start < stop:
            gap = float(np.max(np.abs(fx[start:stop] - fa[start:stop])))
            assert gap <= w + tol, (lo, hi, gap, w)


class TestSegmentWeight:
    def test_boundary_segment_counts_in_full(self):
        view = CumulativeView(UNIFORM4)
        assert segment_weight(view, None, 1) == 0.25

    def test_empty_interior_segment(self):
        view = CumulativeView(UNIFORM4)
        assert segment_weight(view, 1, 2) == 0.0

    def test_interior_segment_is_halved(self):
        view = CumulativeView(UNIFORM4)
        assert segment_weight(view, 0, 3) == 0.25

    def test_rejects_bad_order(self):
        view = CumulativeView(UNIFORM4)
        with pytest.raises(ValueError):
            segment_weight(view, 2, 2)
        with pytest.raises(ValueError):
            segment_weight(view, 3, 1)
        with pytest.raises(ValueError):
            segment_weight(view, None, 7)

    @given(distributions(), st.data())
    @settings(max_examples=75, deadline=None)
    def test_weights_are_nonnegative_masses(self, x, data):
        view = CumulativeView(x)
        lo = data.draw(st.one_of(st.none(), st.integers(0, x.n - 1)))
        if lo is None:
            hi = data.draw(st.integers(0, x.n - 1))
        elif lo == x.n - 1:
            hi = None
        else:
            hi = data.draw(st.one_of(st.none(), st.integers(lo + 1, x.n - 1)))
        w = segment_weight(view, lo, hi)
        assert 0.0 <= w <= 1.0 + 1e-12


class TestEpsilonForSupport:
    def test_hand_enumerated_segments(self):
        assert epsilon_for_support(UNIFORM4, [0, 2]) == 0.25

    def test_full_support_is_free(self):
        assert epsilon_for_support(UNIFORM4, [0, 1, 2, 3]) == 0.0

    def test_single_middle_point(self):
        assert epsilon_for_support(UNIFORM3, [1]) == pytest.approx(1 / 3, abs=1e-15)

    def test_rejects_empty_or_unsorted(self):
        with pytest.raises(ValueError):
            epsilon_for_support(UNIFORM4, [])
        with pytest.raises(ValueError):
            epsilon_for_support(UNIFORM4, [2, 1])


class TestConstructOnSupport:
    def test_collapses_to_middle_point(self):
        approx = construct_on_support(UNIFORM3, [1])
        assert approx == make_distribution([(2, 1.0)])
        assert kolmogorov_distance(UNIFORM3, approx) == pytest.approx(1 / 3, abs=1e-15)

    def test_full_support_reproduces_input(self):
        assert construct_on_support(UNIFORM4, [0, 1, 2, 3]) == UNIFORM4

    def test_outer_pair(self):
        approx = construct_on_support(UNIFORM4, [0, 3])
        assert approx == make_distribution([(1, 0.5), (4, 0.5)])
        assert kolmogorov_distance(UNIFORM4, approx) == 0.25

    @given(distributions(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_distance_equals_epsilon(self, x, data):
        size = data.draw(st.integers(1, x.n))
        idx = sorted(data.draw(st.permutations(range(x.n)))[:size])
        approx = construct_on_support(x, idx)
        eps = epsilon_for_support(x, idx)
        assert abs(kolmogorov_distance(x, approx) - eps) <= 1e-12


class TestMinBottleneckSupport:
    def test_uniform4_budget2(self):
        sel = min_bottleneck_support(UNIFORM4, 2)
        assert sel.indices.tolist() == [0, 2]
        assert sel.epsilon == 0.25

    def test_budget_covers_support(self):
        sel = min_bottleneck_support(UNIFORM4, 4)
        assert sel.indices.tolist() == [0, 1, 2, 3]
        assert sel.epsilon == 0.0

    def test_uniform3_budget1(self):
        sel = min_bottleneck_support(UNIFORM3, 1)
        assert sel.indices.tolist() == [1]
        assert sel.epsilon == pytest.approx(1 / 3, abs=1e-15)

    def test_bad_budget(self):
        with pytest.raises(BadMError):
            min_bottleneck_support(UNIFORM4, 0)
        with pytest.raises(BadMError):
            min_bottleneck_support(UNIFORM4, 1.5)

    @given(distributions(), st.integers(1, 12))
    @settings(max_examples=100, deadline=None)
    def test_epsilon_matches_recomputation(self, x, m):
        sel = min_bottleneck_support(x, m)
        assert 1 <= sel.indices.size <= min(m, x.n)
        assert sel.epsilon == epsilon_for_support(x, sel.indices)


class TestReduce:
    def test_uniform4_budget2(self):
        result = reduce(UNIFORM4, 2)
        assert result.distance == 0.25
        assert result.approx == make_distribution([(1, 0.375), (3, 0.625)])

    def test_generous_budget_is_identity(self):
        rng = np.random.default_rng(7)
        x = random_distribution(rng, n=9)
        result = reduce(x, 9)
        assert result.approx is x
        assert result.distance == 0.0

    def test_bad_budget(self):
        with pytest.raises(BadMError):
            reduce(UNIFORM4, -3)

    @given(distributions(), st.integers(1, 12))
    @settings(max_examples=100, deadline=None)
    def test_certificate_identity(self, x, m):
        result = reduce(x, m)
        assert result.approx.n <= min(m, x.n)
        assert abs(kolmogorov_distance(x, result.approx) - result.distance) <= 1e-12
        assert result.distance == result.selection.epsilon

    @given(distributions(), st.integers(1, 12))
    @settings(max_examples=75, deadline=None)
    def test_balance_bounds(self, x, m):
        check_balance(x, reduce(x, m))

    @given(distributions())
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_budget(self, x):
        distances = [reduce(x, m).distance for m in range(1, x.n + 1)]
        for tighter, looser in zip(distances[1:], distances[:-1]):
            assert tighter <= looser + 1e-12

    @given(distributions(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_lower_bound_certificate(self, x, data):
        # Any variable living on a chosen support is at least epsilon away.
        size = data.draw(st.integers(1, x.n))
        idx = sorted(data.draw(st.permutations(range(x.n)))[:size])
        eps = epsilon_for_support(x, idx)
        weights = data.draw(
            st.lists(st.integers(1, 9), min_size=len(idx), max_size=len(idx))
        )
        probs = np.asarray(weights, dtype=float) / sum(weights)
        y = DiscreteDistribution(x.values[list(idx)], probs)
        assert kolmogorov_distance(x, y) >= eps - 1e-12

    @given(distributions(), distributions())
    @settings(max_examples=100, deadline=None)
    def test_universality_of_optimum(self, x, y):
        # No variable with as small a support can beat the reduction.
        result = reduce(x, y.n)
        assert result.distance <= kolmogorov_distance(x, y) + 1e-12


def _slow_farthest_feasible(view, j, eps, scale):
    """Reference: the farthest index one edge of weight <= eps reaches from
    ``j``, found point by point with a scalar searchsorted and +-1 steps."""
    n = view.cum.size
    limit = view.cum[j] + eps / scale
    g = int(np.searchsorted(view.cum_left, limit, side="right")) - 1
    g = min(max(g, j), n - 1)
    while g + 1 < n and (view.cum_left[g + 1] - view.cum[j]) * scale <= eps:
        g += 1
    while g > j and (view.cum_left[g] - view.cum[j]) * scale > eps:
        g -= 1
    return g


def _slow_lex_min_support(view, m, eps, *, halve, pinned_first):
    """Reference extraction: one farthest-jump search per point, backward
    hop counts and the forward pick over numpy scalars."""
    n = view.cum.size
    scale = 0.5 if halve else 1.0
    exit_w = view.total - view.cum
    unreachable = n + 2
    hops = np.full(n, unreachable, dtype=np.int64)
    for j in range(n - 1, -1, -1):
        if exit_w[j] <= eps:
            hops[j] = 1
        else:
            g = _slow_farthest_feasible(view, j, eps, scale)
            if g > j and hops[g] < unreachable:
                hops[j] = 1 + hops[g]
    chosen = [0] if pinned_first else []
    cur = 0 if pinned_first else -1
    while not (chosen and exit_w[chosen[-1]] <= eps):
        rem = m - len(chosen)
        assert rem > 0
        j = cur + 1
        while j < n and hops[j] > rem:
            j += 1
        assert j < n
        edge = view.cum_left[j] if cur < 0 else (view.cum_left[j] - view.cum[cur]) * scale
        assert edge <= eps
        chosen.append(j)
        cur = j
    return np.asarray(chosen, dtype=np.int64)


@pytest.mark.parametrize("kind", ["uniform", "pareto", "spiky", "tied"])
def test_lex_min_support_matches_slow_reference(kind):
    rng = np.random.default_rng(["uniform", "pareto", "spiky", "tied"].index(kind))
    cases = [(int(rng.integers(2, 300)), int(rng.integers(1, 71))) for _ in range(90)]
    cases += [(int(rng.integers(1000, 4001)), int(rng.integers(1, 9))) for _ in range(6)]
    for n, m in cases:
        view = DiscreteDistribution(np.arange(n, dtype=np.float64), masses(rng, kind, n)).cdf
        for one_sided in (False, True):
            eps, _ = _bottleneck_epsilon(view, m, one_sided=one_sided)
            fast = _lex_min_support(view, m, eps, one_sided=one_sided)
            slow = _slow_lex_min_support(view, m, eps, halve=not one_sided, pinned_first=one_sided)
            assert fast.tolist() == slow.tolist(), (kind, n, m, one_sided)


def _dense_bottleneck_layers(entry, cum, cum_left, rounds, scale):
    """Reference: the bottleneck DP without a bound, every row of every
    column block evaluated."""
    n = cum.size
    b = entry.copy()
    if rounds <= 0 or n == 1:
        return b
    block = _DP_BLOCK
    corner_mask = np.tri(min(block, n), min(block, n), 0, dtype=bool)
    for _ in range(rounds):
        prev = b
        b = prev.copy()
        for a in range(0, n, block):
            e = min(a + block, n)
            width = e - a
            target_left = cum_left[a:e]
            if a:
                w = (target_left[None, :] - cum[:a, None]) * scale
                np.maximum(w, prev[:a, None], out=w)
                best = w.min(axis=0)
            else:
                best = np.full(width, np.inf)
            w = (target_left[None, :] - cum[a:e, None]) * scale
            np.maximum(w, prev[a:e, None], out=w)
            w[corner_mask[:width, :width]] = np.inf
            np.minimum(best, w.min(axis=0), out=best)
            np.minimum(b[a:e], best, out=b[a:e])
    return b


def _dense_bottleneck_epsilon(view, m, *, halve, pinned_first):
    n = view.cum.size
    scale = 0.5 if halve else 1.0
    if pinned_first:
        entry = np.full(n, np.inf)
        entry[0] = 0.0
    else:
        entry = view.cum_left.astype(np.float64, copy=True)
    b = _dense_bottleneck_layers(entry, view.cum, view.cum_left, m - 1, scale)
    return float(np.min(np.maximum(b, view.total - view.cum)))


def _check_against_dense(view, m, modes=(False, True)):
    n = view.cum.size
    for one_sided in modes:
        eps, cells = _bottleneck_epsilon(view, m, one_sided=one_sided)
        dense = _dense_bottleneck_epsilon(view, m, halve=not one_sided, pinned_first=one_sided)
        assert eps == dense, (n, m, one_sided)
        blocks = [(a, min(a + _DP_BLOCK, n)) for a in range(0, n, _DP_BLOCK)]
        assert 0 < cells <= (m - 1) * sum((e - a) * e for a, e in blocks)


@pytest.mark.parametrize("kind", ["uniform", "pareto", "spiky", "tied"])
def test_bottleneck_epsilon_matches_dense_reference(kind):
    rng = np.random.default_rng(10 + ["uniform", "pareto", "spiky", "tied"].index(kind))
    cases = [(int(rng.integers(257, 1000)), int(rng.integers(2, 71))) for _ in range(6)]
    cases += [(int(rng.integers(1000, 4001)), int(rng.integers(2, 7))) for _ in range(2)]
    for n, m in cases:
        _check_against_dense(
            DiscreteDistribution(np.arange(n, dtype=np.float64), masses(rng, kind, n)).cdf, m
        )


@pytest.mark.parametrize(
    "n, m, two_sided",
    [(768, 25, True), (1024, 16, True), (2048, 8, True), (4000, 5, True),
     (768, 66, False), (1025, 44, False), (2047, 2, False), (3072, 2, False)],
)
def test_bottleneck_epsilon_matches_dense_reference_at_tight_bound(n, m, two_sided):
    # Equal masses where the quantile support is already optimal: the DP's
    # bound starts at the optimum, so rows whose edge weighs exactly the
    # bound are needed and the row rule's "<=" decides.
    view = DiscreteDistribution(np.arange(n, dtype=np.float64), np.full(n, 1.0 / n)).cdf
    one_sided = not two_sided
    support = _quantile_support(view, m, one_sided=one_sided)
    bound = float(np.max(_segment_weights(view, support, 1.0 if one_sided else 0.5)))
    assert bound == _dense_bottleneck_epsilon(view, m, halve=not one_sided, pinned_first=one_sided)
    _check_against_dense(view, m, [one_sided])


@pytest.mark.parametrize(
    "weights, two_sided",
    [
        # Entry 100, a heavy point at 100, edge 300 / 2 into the block start
        # 256 past a heavy point there, tail 100: only {100, 256} reaches 150.
        ([1] * 100 + [300] + [300 / 155] * 155 + [400] + [100 / 255] * 255, True),
        # Pinned at 0, edge 255 * 7 into 256 past a heavy point there, tail
        # 255 * 6: only {0, 256} reaches 255 * 7.
        ([7] * 256 + [1000] + [6] * 255, False),
    ],
)
def test_bottleneck_epsilon_keeps_the_row_whose_edge_equals_the_bound(weights, two_sided):
    # The optimal path's only edge into the second column block weighs
    # exactly the bound, so the row rule must keep a row at equality.
    p = np.asarray(weights, dtype=np.float64)
    view = DiscreteDistribution(np.arange(p.size, dtype=np.float64), p / p.sum()).cdf
    one_sided = not two_sided
    support = _quantile_support(view, 2, one_sided=one_sided)
    assert support.tolist() == ([0, 256] if one_sided else [100, 256])
    _check_against_dense(view, 2, [one_sided])
