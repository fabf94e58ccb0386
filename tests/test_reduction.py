import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kolmoreduce import (
    BadMError,
    CumulativeView,
    DiscreteDistribution,
    SupportSelection,
    construct_on_support,
    convolve,
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
    _first_source,
    _horizons,
    _last_target,
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
        assert segment_weight(view, None, None) == view.total

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


def test_segment_weight_checks_endpoints_as_selection_indices():
    view = CumulativeView(UNIFORM4)
    for lo, hi in [(None, True), (True, None), (0, 1.0), (1.5, None)]:
        with pytest.raises(ValueError, match="selection indices must be a 1-D integer array"):
            segment_weight(view, lo, hi)
    with pytest.raises(ValueError, match="selection indices must be strictly increasing"):
        segment_weight(view, 3, 1)
    with pytest.raises(ValueError, match="selection indices out of range"):
        segment_weight(view, None, 7)


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

    def test_rejects_fractional_indices(self):
        five = DiscreteDistribution(np.arange(5.0), np.full(5, 0.2))
        fractional = "selection indices must be a 1-D integer array, got float64"
        with pytest.raises(ValueError, match=fractional):
            epsilon_for_support(five, [0.5, 2.7])
        with pytest.raises(ValueError, match=fractional):
            SupportSelection(np.array([0.9, 2.2]), 0.1)

    def test_rejects_boolean_indices(self):
        with pytest.raises(ValueError, match="selection indices must be a 1-D integer array, got bool"):
            epsilon_for_support(UNIFORM4, [False, True])

    def test_rejects_a_bool_beside_integers(self):
        # numpy reads [0, True] as the int64 array [0, 1].
        bool_type = "selection indices must be a 1-D integer array"
        with pytest.raises(ValueError, match=bool_type):
            SupportSelection([0, True], 0.1)
        with pytest.raises(ValueError, match=bool_type):
            segment_weight(CumulativeView(UNIFORM4), 0, True)
        with pytest.raises(ValueError, match=bool_type):
            epsilon_for_support(UNIFORM4, (np.bool_(False), 2))
        with pytest.raises(ValueError, match=bool_type):
            construct_on_support(UNIFORM4, [0, 1, False])
        assert SupportSelection([0, np.int64(2)], 0.1).indices.tolist() == [0, 2]

    def test_rejects_unsigned_indices_past_int64(self):
        with pytest.raises(ValueError, match="selection indices must fit in int64"):
            SupportSelection(np.array([2**63 + 1], dtype=np.uint64), 0.1)
        with pytest.raises(ValueError, match="selection indices must fit in int64"):
            epsilon_for_support(UNIFORM4, np.array([1, 2**64 - 1], dtype=np.uint64))

    def test_accepts_unsigned_indices_in_range(self):
        idx = np.array([0, 2], dtype=np.uint64)
        assert SupportSelection(idx, 0.25).indices.tolist() == [0, 2]
        assert epsilon_for_support(UNIFORM4, idx) == 0.25
        assert construct_on_support(UNIFORM4, idx) == construct_on_support(UNIFORM4, [0, 2])
        top = SupportSelection(np.array([2**63 - 1], dtype=np.uint64), 0.1)
        assert top.indices.tolist() == [2**63 - 1]

    def test_selection_keeps_its_own_indices(self):
        idx = np.array([0, 2])
        SupportSelection(idx, 0.25)
        assert idx.flags.writeable
        table = np.array([[0, 2], [1, 3]])
        sel = SupportSelection(table[0], 0.25)
        table[0] = 0
        assert sel.indices.tolist() == [0, 2]

    def test_rejects_nested_indices_by_shape(self):
        shape = r"selection indices must be a 1-D integer array, got int64 of shape \(1, 2\)"
        with pytest.raises(ValueError, match=shape):
            epsilon_for_support(UNIFORM4, [[1, 2]])


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

    @pytest.mark.parametrize("kind", ["uniform", "pareto"])
    def test_result_passes_the_full_check(self, kind):
        # The result skips the constructor's checks; building it again with
        # them must accept it unchanged, at every size of support kept, on
        # random positions and on the reducer's own.
        rng = np.random.default_rng(90 + (kind == "pareto"))
        for n in (2, 3, 50, 1000, 100000):
            x = DiscreteDistribution(np.sort(rng.normal(0.0, 10.0, n)), masses(rng, kind, n))
            for m in {1, 2, max(1, n // 2), n - 1}:
                picks = [np.sort(rng.choice(n, size=m, replace=False))]
                if m <= 64:
                    picks.append(reduce(x, m).selection.indices)
                for positions in picks:
                    a = construct_on_support(x, positions)
                    assert DiscreteDistribution(a.values.copy(), a.probs.copy()) == a, (kind, n, m)

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
        # In the second input the last mass vanishes in the prefix sums, so
        # a search at epsilon 0 would drop that point; the budget check
        # keeps it.
        tiny_tail = DiscreteDistribution(np.arange(2.0), np.array([1.0, 1e-20]))
        for x in (random_distribution(rng, n=9), tiny_tail):
            result = reduce(x, x.n)
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


def _vectorised_lex_min_support(view, m, eps, *, one_sided):
    """Second reference extraction: every point's farthest feasible jump from
    one ``searchsorted`` with whole-array +1/-1 fix-ups, backward hop counts
    over lists, and the forward pick of the smallest point within budget."""
    cum, cum_left = view.cum, view.cum_left
    n = cum.size
    scale = 1.0 if one_sided else 0.5
    start = np.arange(n)
    far = np.searchsorted(cum_left, cum + eps / scale, side="right") - 1
    np.clip(far, start, n - 1, out=far)
    moving = start
    while True:
        moving = moving[far[moving] + 1 < n]
        moving = moving[(cum_left[far[moving] + 1] - cum[moving]) * scale <= eps]
        if not moving.size:
            break
        far[moving] += 1
    moving = start
    while True:
        moving = moving[far[moving] > moving]
        moving = moving[(cum_left[far[moving]] - cum[moving]) * scale > eps]
        if not moving.size:
            break
        far[moving] -= 1
    exits = ((view.total - cum) <= eps).tolist()
    unreachable = n + 2
    hops = [unreachable] * n
    for j, g in zip(range(n - 1, -1, -1), far[::-1].tolist()):
        if exits[j]:
            hops[j] = 1
        elif g > j and hops[g] < unreachable:
            hops[j] = 1 + hops[g]
    chosen = [0] if one_sided else []
    cur = 0 if one_sided else -1
    while not (chosen and exits[chosen[-1]]):
        rem = m - len(chosen)
        assert rem > 0
        j = cur + 1
        while j < n and hops[j] > rem:
            j += 1
        assert j < n
        edge = float(cum_left[j]) if cur < 0 else (cum_left[j] - cum[cur]) * scale
        assert edge <= eps
        chosen.append(j)
        cur = j
    return np.asarray(chosen, dtype=np.int64)


KINDS = ["uniform", "pareto", "spiky", "tied"]


def _instance(rng, kind, n):
    return DiscreteDistribution(np.arange(n, dtype=np.float64), masses(rng, kind, n))


@pytest.mark.parametrize("kind", KINDS)
def test_lex_min_support_matches_slow_reference(kind):
    rng = np.random.default_rng(KINDS.index(kind))
    cases = [(int(rng.integers(2, 300)), int(rng.integers(1, 71))) for _ in range(90)]
    cases += [(int(rng.integers(1000, 4001)), int(rng.integers(1, 9))) for _ in range(6)]
    for n, m in cases:
        view = _instance(rng, kind, n).cdf
        for one_sided in (False, True):
            eps, _ = _bottleneck_epsilon(view, view.prefix.tolist(), m, one_sided=one_sided)
            fast = _lex_min_support(view.prefix.tolist(), m, eps, one_sided=one_sided)
            slow = _slow_lex_min_support(view, m, eps, halve=not one_sided, pinned_first=one_sided)
            assert fast.tolist() == slow.tolist(), (kind, n, m, one_sided)


@pytest.mark.parametrize("kind", KINDS)
def test_lex_min_support_matches_vectorised_reference_at_large_n(kind):
    # At the optimum where the windowed DP finds it quickly, and at the
    # quantile support's weight, a feasible epsilon no search produced.
    rng = np.random.default_rng(20 + KINDS.index(kind))
    for n, m in [(5000, 64), (20000, 16), (100000, 64)]:
        view = _instance(rng, kind, n).cdf
        for one_sided in (False, True):
            scale = 1.0 if one_sided else 0.5
            support = _quantile_support(view, m, one_sided=one_sided)
            thresholds = [float(np.max(_segment_weights(view, support, scale)))]
            if n <= 20000 and not one_sided:
                thresholds.append(_bottleneck_epsilon(view, view.prefix.tolist(), m, one_sided=one_sided)[0])
            for eps in thresholds:
                fast = _lex_min_support(view.prefix.tolist(), m, eps, one_sided=one_sided)
                ref = _vectorised_lex_min_support(view, m, eps, one_sided=one_sided)
                assert fast.tolist() == ref.tolist(), (kind, n, m, one_sided, eps)


@pytest.mark.parametrize("kind", KINDS)
def test_lex_min_support_rejects_epsilon_below_the_optimum(kind):
    # One float below the optimum no support of m points fits, so an edge
    # check fails; a pinned single point fails the budget check instead.
    rng = np.random.default_rng(30 + KINDS.index(kind))
    for case in range(40):
        n = int(rng.integers(3, 600))
        m = 1 if case % 10 == 0 else int(rng.integers(2, min(n, 40)))
        view = _instance(rng, kind, n).cdf
        for one_sided in (False, True):
            eps, _ = _bottleneck_epsilon(view, view.prefix.tolist(), m, one_sided=one_sided)
            assert eps > 0.0
            below = np.nextafter(eps, 0.0)
            if one_sided and m == 1:
                message = "bottleneck extraction exhausted its hop budget"
            else:
                message = "bottleneck extraction hit an infeasible edge"
            with pytest.raises(AssertionError, match=message):
                _lex_min_support(view.prefix.tolist(), m, below, one_sided=one_sided)


def _prefix(view):
    return view.cum_left.tolist() + [view.total]


def _edge_weights(prefix, scale):
    """Every entry, interior and exit weight of the support, as the program
    writes them, for thresholds that sit exactly on an edge."""
    n = len(prefix) - 1
    out = set(prefix[:n])
    out.update(prefix[n] - prefix[i + 1] for i in range(n))
    out.update((prefix[j] - prefix[i + 1]) * scale for i in range(n) for j in range(i + 1, n))
    return sorted(out)


@pytest.mark.parametrize("kind", KINDS)
def test_horizon_searches_match_linear_scans_at_exact_weights(kind):
    # Thresholds equal to an edge weight, and one float either side of it:
    # the "<=" decides at the weight itself, and the bisect guess on the
    # rounded sum or difference is off by a point often enough to need the
    # scalar steps.
    rng = np.random.default_rng(40 + KINDS.index(kind))
    for _ in range(6):
        n = int(rng.integers(2, 40))
        prefix = _prefix(_instance(rng, kind, n).cdf)
        for scale in (0.5, 1.0):
            weights = _edge_weights(prefix, scale)
            picks = rng.choice(len(weights), size=min(len(weights), 25), replace=False)
            for w in (weights[k] for k in picks):
                for tau in (np.nextafter(w, 0.0), w, np.nextafter(w, 2.0)):
                    for v in prefix:
                        first = next(i for i in range(n) if (v - prefix[i + 1]) * scale <= tau)
                        assert _first_source(prefix, v, tau, scale) == first
                    for c in prefix[1:] + [0.0]:
                        last = max(j for j in range(n) if (prefix[j] - c) * scale <= tau)
                        assert _last_target(prefix, c, tau, scale) == last


def _reach_horizons(prefix, tau, count, scale, one_sided):
    """Reference horizons from explicit reachable sets, hop by hop."""
    n = len(prefix) - 1
    reach = {0} if one_sided else {j for j in range(n) if prefix[j] <= tau}
    exits = {i for i in range(n) if prefix[n] - prefix[i + 1] <= tau}
    back, fwd = [], []
    for _ in range(count):
        back.append(min(exits))
        fwd.append(max(reach))
        exits |= {i for i in range(n) for j in exits if i < j and (prefix[j] - prefix[i + 1]) * scale <= tau}
        reach |= {j for j in range(n) for i in reach if i < j and (prefix[j] - prefix[i + 1]) * scale <= tau}
    return back, fwd


@pytest.mark.parametrize("kind", KINDS)
def test_horizons_match_reachable_sets(kind):
    rng = np.random.default_rng(50 + KINDS.index(kind))
    for _ in range(25):
        n = int(rng.integers(2, 30))
        prefix = _prefix(_instance(rng, kind, n).cdf)
        for one_sided in (False, True):
            scale = 1.0 if one_sided else 0.5
            weights = _edge_weights(prefix, scale)
            for tau in rng.choice(weights, size=min(len(weights), 6), replace=False):
                count = int(rng.integers(1, n + 1))
                assert _horizons(prefix, float(tau), count, scale, one_sided=one_sided) == (
                    _reach_horizons(prefix, float(tau), count, scale, one_sided)
                )


def _greedy_points(view, eps, *, one_sided):
    """Witness written from the definition: the fewest support points whose
    every segment weighs at most ``eps``, by farthest jumps over the prefix
    sums (one-sided: first point pinned to 0, interior masses in full)."""
    cum, left, total = view.cum.tolist(), view.cum_left.tolist(), view.total
    n = len(cum)
    scale = 1.0 if one_sided else 0.5
    cur = 0
    if not one_sided:
        while cur + 1 < n and left[cur + 1] <= eps:
            cur += 1
    points = 1
    while total - cum[cur] > eps:
        nxt = cur + 1
        while nxt + 1 < n and (left[nxt + 1] - cum[cur]) * scale <= eps:
            nxt += 1
        cur = nxt
        points += 1
    return points


@pytest.mark.parametrize("kind", KINDS)
def test_epsilon_is_optimal_by_greedy_witness(kind):
    # At epsilon m points suffice; one float below, no m points do.
    rng = np.random.default_rng(60 + KINDS.index(kind))
    cases = [(int(rng.integers(2, 300)), int(rng.integers(1, 71))) for _ in range(20)]
    cases += [(int(rng.integers(300, 5001)), int(rng.integers(2, 71))) for _ in range(6)]
    cases += [(int(rng.integers(15000, 20001)), int(rng.integers(8, 71))) for _ in range(2)]
    for n, m in cases:
        view = _instance(rng, kind, n).cdf
        for one_sided in (False, True):
            if m >= n:
                continue
            eps, _ = _bottleneck_epsilon(view, view.prefix.tolist(), m, one_sided=one_sided)
            assert _greedy_points(view, eps, one_sided=one_sided) <= m, (kind, n, m, one_sided)
            if eps > 0.0:
                below = np.nextafter(eps, 0.0)
                assert _greedy_points(view, below, one_sided=one_sided) > m, (kind, n, m, one_sided)


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
        eps, cells = _bottleneck_epsilon(view, view.prefix.tolist(), m, one_sided=one_sided)
        dense = _dense_bottleneck_epsilon(view, m, halve=not one_sided, pinned_first=one_sided)
        assert eps == dense, (n, m, one_sided)
        blocks = [(a, min(a + _DP_BLOCK, n)) for a in range(0, n, _DP_BLOCK)]
        assert 0 < cells <= (m - 1) * sum((e - a) * e for a, e in blocks)


@pytest.mark.parametrize("kind", KINDS)
def test_bottleneck_epsilon_matches_dense_reference(kind):
    rng = np.random.default_rng(10 + KINDS.index(kind))
    cases = [(int(rng.integers(257, 1000)), int(rng.integers(2, 71))) for _ in range(6)]
    cases += [(int(rng.integers(1000, 4001)), int(rng.integers(2, 71))) for _ in range(2)]
    for n, m in cases:
        _check_against_dense(_instance(rng, kind, n).cdf, m)


@pytest.mark.parametrize("kind", KINDS)
def test_bottleneck_epsilon_matches_dense_reference_within_one_block(kind):
    # Supports of at most one block are windowed like any other: the chunk
    # starts at the window, and its first row comes from the bound.
    rng = np.random.default_rng(70 + KINDS.index(kind))
    sizes = [2, 3, _DP_BLOCK - 1, _DP_BLOCK] + [int(n) for n in rng.integers(4, _DP_BLOCK, 40)]
    for n in sizes:
        view = _instance(rng, kind, n).cdf
        for m in {1, 2, min(n - 1, 70), int(rng.integers(1, min(n - 1, 70) + 1))}:
            if m > 1:
                _check_against_dense(view, m)
                continue
            for one_sided in (False, True):
                dense = _dense_bottleneck_epsilon(view, 1, halve=not one_sided, pinned_first=one_sided)
                assert _bottleneck_epsilon(view, view.prefix.tolist(), 1, one_sided=one_sided) == (dense, 0)


def test_bottleneck_epsilon_matches_dense_reference_on_convolved_grids():
    # Sums of 30-point leaves on an integer grid, as the pipeline builds
    # them.  Each layer's window sits right of the one before, so a layer
    # reads entries that the layer before it did not write; they come from
    # the buffer two layers back, which only ever holds real path values.
    rng = np.random.default_rng(85)

    def leaf():
        p = rng.random(30)
        return DiscreteDistribution(np.sort(rng.choice(60, 30, replace=False)).astype(np.float64), p / p.sum())

    x = leaf()
    for _ in range(12):
        budgets = {16, 48} | ({x.n - 1, x.n - 4} if x.n <= 300 else set())
        for m in sorted(b for b in budgets if 2 <= b < x.n):
            _check_against_dense(x.cdf, m)
        x = convolve(x, leaf())
    assert x.n > _DP_BLOCK * 2
    _check_against_dense(x.cdf, x.n - 1)


@pytest.mark.parametrize("kind", ["uniform", "tied"])
def test_one_sided_bound_cuts_the_mass_at_whole_shares(kind):
    # One-sided, the optimum is near total / m, and so is the weight of the
    # quantile support that cuts the mass at i / m after the pinned point:
    # the windows then hold a handful of edge weights, not tens of millions.
    rng = np.random.default_rng(80 + KINDS.index(kind))
    view = _instance(rng, kind, 20000).cdf
    eps, cells = _bottleneck_epsilon(view, view.prefix.tolist(), 3, one_sided=True)
    assert eps == _dense_bottleneck_epsilon(view, 3, halve=False, pinned_first=True)
    assert cells <= 1000, cells


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
