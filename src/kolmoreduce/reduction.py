"""Optimal support-size reduction under the Kolmogorov distance.

Selecting a support set S = {x_(1) < ... < x_(m)} splits the real line into
segments.  Each segment is weighted with the source mass strictly inside it,
halved for interior segments because mass there can be split between the two
neighbouring kept points; segments touching an infinite sentinel count in
full.  The best achievable distance using S is the maximum segment weight,
and the best S is a minimax (bottleneck) path with a hop budget through the
support.  A layered dynamic program finds the optimal weight, evaluating edge
weights on demand instead of materializing the quadratic edge set.

Threshold horizons serve the search and the extraction.  At a threshold tau
they give, for every hop budget, the first point from which the exit is
reachable (backward horizons) and the last point reachable from the entry
(forward horizons) with every weight at most tau: weights grow with the
target and shrink with the source, so these are suffixes and prefixes, each
one edge past the one before, found by ``bisect`` on the prefix sums and
settled by scalar steps with the edge weights' own float expressions.  The
search uses both chains, the extraction only the backward one.

At every support size, the maximum segment weight of the support at the mass
quantiles is an upper bound T on the optimum, and the horizons at T window
every DP layer: the t-th point of a path at or below T lies between the
backward horizon for the points still to come and the forward horizon for t
points.  A layer evaluates its window in chunks of columns, each in one
masked pass over the rows that can reach it, and writes into the older of
two buffers of n values, which swap roles each layer.  Every skipped entry
could only raise values, so the optimum comes out bit for bit as from the
dense O(n^2 m) sweep, at a cost that follows how far T sits above the
optimum instead of n^2 m: at n = 2000, m = 40 with uniform random masses the
layers evaluate 18,068 edge weights, 0.02 % of the dense sweep's 88 million.
Heavy-tailed masses leave T further above the optimum, so their windows are
wider.  The same search serves the one-sided reduction (``one_sided``):
interior segments count in full and the first support point is pinned to the
smallest source point, so its quantile support cuts the mass evenly at i/m.
The lexicographically smallest support reaching the optimum comes from the
backward horizons at tau = optimum, in O(m log n): each pick is the next
point or the backward horizon for the remaining budget, whichever is later.
``_select`` runs both, over one O(n) list of the prefix sums, for ``reduce``
and the one-sided ``baselines.opt_trim`` alike.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .distribution import CumulativeView, DiscreteDistribution
from .errors import BadMError

# Column width of the blocked DP sweep; bounds scratch memory at rows*block floats.
_DP_BLOCK = 256
# Floor for a block's own edge weights: +inf removes the edges into a target
# at or before the source, -inf leaves every other weight as it is.
_CORNER_FLOOR = np.where(np.tri(_DP_BLOCK, _DP_BLOCK, 0, dtype=bool), np.inf, -np.inf)
_CORNER_FLOOR.flags.writeable = False


@dataclass(frozen=True, eq=False)
class SupportSelection:
    """A chosen support set (positions into the source support) and its
    certified maximum segment weight."""

    indices: np.ndarray
    epsilon: float

    def __post_init__(self) -> None:
        idx = _check_indices(self.indices)
        idx.flags.writeable = False
        object.__setattr__(self, "indices", idx)


@dataclass(frozen=True, eq=False)
class ReductionResult:
    """Reduced distribution, the support selection behind it, and the
    certified Kolmogorov distance to the source (equal to the selection's
    epsilon)."""

    approx: DiscreteDistribution
    selection: SupportSelection
    distance: float


def _check_m(m: int) -> int:
    if isinstance(m, bool) or not isinstance(m, (int, np.integer)) or m < 1:
        raise BadMError(f"support budget must be an integer >= 1, got {m!r}")
    return int(m)


def _check_indices(indices, n: int | None = None) -> np.ndarray:
    """Integer indices as a new 1-D int64 array, non-empty and strictly
    increasing, and within ``range(n)`` when ``n`` is given."""
    idx = np.asarray(indices)
    if idx.size == 0:
        raise ValueError("a selection needs at least one index")
    # An array of bools is kind "b"; numpy reads a bool beside integers as
    # 0 or 1, so a sequence is searched for one.
    if idx.ndim != 1 or idx.dtype.kind not in "iu" or (
        not isinstance(indices, np.ndarray) and any(isinstance(k, (bool, np.bool_)) for k in indices)
    ):
        raise ValueError(
            f"selection indices must be a 1-D integer array, got {idx.dtype} of shape {idx.shape}"
        )
    if idx.dtype.kind == "u" and idx.max() > np.iinfo(np.int64).max:
        raise ValueError("selection indices must fit in int64")
    idx = np.array(idx, dtype=np.int64)
    if idx.size > 1 and not np.all(np.diff(idx) > 0):
        raise ValueError("selection indices must be strictly increasing")
    if n is not None and (idx[0] < 0 or idx[-1] >= n):
        raise ValueError("selection indices out of range")
    return idx


def segment_weight(cdf: CumulativeView, lo: int | None, hi: int | None) -> float:
    """Weight of the open segment between adjacent kept points.

    ``lo=None`` / ``hi=None`` stand for the -inf / +inf sentinels.  The
    weight is the source mass strictly between the endpoints, halved for
    interior segments (both endpoints real), in full when either end is a
    sentinel.  It is the entry of ``_segment_weights`` on the real
    endpoints that lies between them, and the real endpoints are checked
    as a selection's indices are: integers, increasing, within the support.
    """
    if lo is None and hi is None:
        return cdf.total
    ends = _check_indices([k for k in (lo, hi) if k is not None], cdf.values.size)
    return float(_segment_weights(cdf, ends)[0 if lo is None else 1])


def _segment_weights(view: CumulativeView, idx: np.ndarray, scale: float = 0.5) -> np.ndarray:
    """Weights of the ``idx.size + 1`` segments that keeping ``idx`` induces,
    left to right, with interior masses multiplied by ``scale`` (0.5 for the
    two-sided reduction, 1.0 for the one-sided one).  Same float expressions
    as the DP sweep, so their maximum matches the DP value of that support
    bit for bit; ``segment_weight`` reads its single weight from here."""
    w = np.empty(idx.size + 1)
    w[0] = view.cum_left[idx[0]]
    w[1:-1] = (view.cum_left[idx[1:]] - view.cum[idx[:-1]]) * scale
    w[-1] = view.total - view.cum[idx[-1]]
    return w


def epsilon_for_support(x: DiscreteDistribution, indices) -> float:
    """Maximum segment weight induced by keeping ``indices`` of ``x``'s
    support: the best Kolmogorov distance achievable on that support."""
    return float(np.max(_segment_weights(x.cdf, _check_indices(indices, x.n))))


def construct_on_support(x: DiscreteDistribution, indices) -> DiscreteDistribution:
    """The closest distribution to ``x`` among those supported on the given
    positions: each kept point absorbs its own mass plus the weight of the
    segments on both sides.

    The result meets every invariant of a distribution without a second
    check.  Its values are ``x``'s at strictly increasing positions, so
    they are strictly increasing and finite.  Each mass is a positive
    source mass plus segment weights that are >= 0 because the prefix sums
    never decrease.  The masses telescope to ``x``'s prefix total, which
    lies within ``MASS_TOL`` of one, up to a few roundings per kept point.
    """
    idx = _check_indices(indices, x.n)
    w = _segment_weights(x.cdf, idx)
    return DiscreteDistribution._checked(x.values[idx], w[:-1] + w[1:] + x.probs[idx])


def _quantile_support(view: CumulativeView, m: int, *, one_sided: bool) -> np.ndarray:
    """A cheap feasible support of at most ``m`` points: the first points
    reaching the mass quantiles ``(i + 0.5) / m`` for i < m, each near the
    middle of its share of the mass, or in one-sided mode index 0 plus the
    quantiles ``i / m`` for 0 < i < m, which cut the mass after the pinned
    point into m nearly equal full-weight segments.  The positions come in
    increasing order and may repeat; a repeat adds only a segment weighing
    at most 0 to ``_segment_weights``, so the maximum weight is that of the
    distinct points."""
    q = np.arange(1, m) / m if one_sided else (np.arange(m) + 0.5) / m
    idx = np.searchsorted(view.cum, q * view.total)  # q < 1, so idx < n
    return np.concatenate(([0], idx)) if one_sided else idx


def _first_source(prefix: list[float], v: float, tau: float, scale: float) -> int:
    """Smallest i with ``(v - prefix[i + 1]) * scale <= tau``.

    With ``v = prefix[j]`` this is the first source whose edge into target
    j weighs at most ``tau``; with ``v`` the total and ``scale = 1`` it is
    the first point whose exit weighs at most ``tau``.  The weight shrinks
    as i grows, so a ``bisect`` on ``v - tau / scale`` lands next to the
    answer and scalar steps with the weight's own float expression settle
    it.  Point n - 1 always qualifies, since ``v <= prefix[n]`` and
    ``tau >= 0``.
    """
    i = bisect_left(prefix, v - tau / scale, 1) - 1
    while i > 0 and (v - prefix[i]) * scale <= tau:
        i -= 1
    while (v - prefix[i + 1]) * scale > tau:
        i += 1
    return i


def _last_target(prefix: list[float], c: float, tau: float, scale: float) -> int:
    """Largest j < n with ``(prefix[j] - c) * scale <= tau``.

    With ``c = prefix[i + 1]`` this is the farthest target of an edge from
    source i weighing at most ``tau``; with ``c = 0`` and ``scale = 1`` it
    is the last point whose entry weighs at most ``tau``.  Found as in
    ``_first_source``.  Some j always qualifies: the point after the source
    (or every point, after the last one) and the entry at point 0 weigh 0.
    """
    n = len(prefix) - 1
    j = bisect_right(prefix, c + tau / scale, 0, n) - 1
    while j + 1 < n and (prefix[j + 1] - c) * scale <= tau:
        j += 1
    while (prefix[j] - c) * scale > tau:
        j -= 1
    return j


def _back_horizons(prefix: list[float], tau: float, count: int, scale: float) -> list[int]:
    """Backward horizons, for 1 to ``count`` points, of paths whose every
    weight is at most ``tau``: ``back[r - 1]`` is the first point from which
    the exit can be reached with at most r points.  Weights shrink with the
    source, so the set is a suffix of the points, and each horizon is the
    first source of an edge into the one before.  Cost: O(count log n).
    """
    back = [_first_source(prefix, prefix[-1], tau, 1.0)]
    for _ in range(count - 1):
        back.append(_first_source(prefix, prefix[back[-1]], tau, scale))
    return back


def _horizons(
    prefix: list[float], tau: float, count: int, scale: float, *, one_sided: bool
) -> tuple[list[int], list[int]]:
    """Backward and forward horizons, for 1 to ``count`` points, of paths
    whose every weight is at most ``tau``.

    ``back`` is ``_back_horizons``, and ``fwd[k - 1]`` is the last point the
    entry reaches with at most k points.  Weights grow with the target, so
    that set is a prefix of the points, and each horizon is the farthest
    target of an edge out of the one before.  The one-sided entry is pinned
    to point 0.  Cost: O(count log n).
    """
    fwd = [0 if one_sided else _last_target(prefix, 0.0, tau, 1.0)]
    for _ in range(count - 1):
        fwd.append(_last_target(prefix, prefix[fwd[-1] + 1], tau, scale))
    return _back_horizons(prefix, tau, count, scale), fwd


def _bottleneck_epsilon(
    view: CumulativeView, prefix: list[float], m: int, *, one_sided: bool
) -> tuple[float, int]:
    """Optimal bottleneck value over supports of size at most ``m``, and the
    number of edge weights the DP evaluated to find it.

    Two-sided mode halves interior segments and enters at any point with
    the mass before it; one-sided mode (``one_sided``) counts interior
    masses in full and pins the first support point to the smallest source
    point.  Each of the m - 1 layers allows one more point ("at most k"
    semantics, so values only improve).  Two buffers of n values hold the
    last two layers and swap roles: a layer writes only the columns of its
    window, each the minimum of the layer before and its best edge.  Edges
    are evaluated on demand in column chunks of at most ``_DP_BLOCK``, each
    in one pass over the rows that can reach the chunk, with a floor that
    removes the edges into columns at or before the row; so scratch memory
    is those rows times the chunk width.  ``prefix`` is
    ``view.prefix.tolist()``.

    The quantile support's maximum segment weight T is an upper bound on
    the optimum, fixed for the call, and the horizons at T window each
    layer at every n and m.  A path whose every weight is at most T has its
    t-th point in ``[back[m - t], fwd[t - 1]]``: the entry reaches it with t
    points and it reaches the exit with the m - t + 1 left.  So the layer
    making t-point paths evaluates only those columns, and only the rows in
    the (t - 1)-th point's window from the first one whose edge into the
    chunk's first column weighs at most T.  A column that a layer reads but
    the layer before did not write still holds a value from an earlier
    layer: a real path's weight, at or above the one the layer before would
    have carried.  Skipping entries and reading such values only raise
    values, and an optimal path keeps all its edges, with its t-th point in
    layer t's window and its last point in every later one, so the result is
    the dense DP's float bit for bit.  The windows narrow as T nears the
    optimum: at n = 2000 with T within a few percent of it, the layers
    evaluate well under 1 % of the dense DP's edge weights; heavy-tailed
    masses leave T, and so the windows, wider.
    """
    cum, cum_left = view.cum, view.cum_left
    n = cum.size
    scale = 1.0 if one_sided else 0.5
    if one_sided:
        b = np.full(n, np.inf)
        b[0] = 0.0
    else:
        b = cum_left.copy()
    prev = b.copy()
    support = _quantile_support(view, m, one_sided=one_sided)
    bound = float(np.max(_segment_weights(view, support, scale)))
    back, fwd = _horizons(prefix, bound, m, scale, one_sided=one_sided)
    # A support narrower than a block reads its own contiguous copy, which
    # is faster than a strided view of the full floor.
    width = min(_DP_BLOCK, n)
    corner_floor = np.ascontiguousarray(_CORNER_FLOOR[:width, :width])
    cells = 0
    for t in range(2, m + 1):
        prev, b = b, prev
        row_lo, row_hi = back[m - t + 1], fwd[t - 2] + 1
        col_lo, col_hi = back[m - t], fwd[t - 1] + 1
        for a in range(col_lo, col_hi, _DP_BLOCK):
            e = min(a + _DP_BLOCK, col_hi)
            # By the definition of back, row_lo is the first row of the
            # first chunk.
            lo = row_lo if a == col_lo else _first_source(prefix, prefix[a], bound, scale)
            hi = min(row_hi, e - 1)
            w = cum_left[a:e] - cum[lo:hi, None]
            w *= scale
            np.maximum(w, prev[lo:hi, None], out=w)
            # Rows before the chunk reach all of its columns; rows inside it
            # only later ones, and the floor removes the rest.
            if a < hi:
                split = max(lo, a)
                np.maximum(w[split - lo:], corner_floor[split - a:hi - a, :e - a], out=w[split - lo:])
            np.minimum(prev[a:e], np.minimum.reduce(w, axis=0, initial=np.inf), out=b[a:e])
            cells += max(hi - lo, 0) * (e - a)
            # Free the chunk before the next one is allocated, so that the
            # allocator reuses its memory: with both alive, the heap is
            # trimmed and the next chunk faults in fresh pages (at n = 2000,
            # m = 1000, 140 k page faults and 1.5 times the time per call).
            del w
    return float(np.min(np.maximum(b, view.total - cum))), cells


def _lex_min_support(prefix: list[float], m: int, eps: float, *, one_sided: bool) -> np.ndarray:
    """Lexicographically smallest support set achieving bottleneck <= eps,
    over the n + 1 prefix sums ``prefix``, as Python floats.

    The backward horizons at ``eps`` say, for each remaining budget r, the
    first point from which the exit is still reachable with r points.  The
    forward pick stops as soon as the tail mass fits (a proper prefix is
    lexicographically smaller than any extension), else takes the smallest
    next point at or past that horizon, ``max(cur + 1, back[rem - 1])``: the
    edge into it is the lightest into any admissible point, so it fits
    whenever any does.  An ``eps`` below the optimum ends in an edge check
    or the budget check failing.  Cost: O(m log n).
    """
    total = prefix[-1]
    scale = 1.0 if one_sided else 0.5
    back = _back_horizons(prefix, eps, m, scale)
    chosen: list[int] = [0] if one_sided else []
    cur = 0 if one_sided else -1
    while not chosen or total - prefix[cur + 1] > eps:
        rem = m - len(chosen)
        if rem <= 0:
            raise AssertionError("bottleneck extraction exhausted its hop budget")
        j = max(cur + 1, back[rem - 1])
        edge = prefix[j] if cur < 0 else (prefix[j] - prefix[cur + 1]) * scale
        if edge > eps:
            raise AssertionError("bottleneck extraction hit an infeasible edge")
        chosen.append(j)
        cur = j
    return np.asarray(chosen, dtype=np.int64)


def _select(x: DiscreteDistribution, m: int, *, one_sided: bool) -> tuple[np.ndarray, float]:
    """The lexicographically smallest support of at most ``m`` points with
    the least maximum segment weight, and that weight: every point when the
    budget allows, else the windowed search and the extraction at its
    optimum over one list of the prefix sums."""
    m = _check_m(m)
    if m >= x.n:
        return np.arange(x.n, dtype=np.int64), 0.0
    view = x.cdf
    prefix = view.prefix.tolist()
    eps, _ = _bottleneck_epsilon(view, prefix, m, one_sided=one_sided)
    # The extraction keeps every segment weight <= eps, and no support of
    # size m does better, so eps is the selection's maximum segment weight.
    return _lex_min_support(prefix, m, eps, one_sided=one_sided), eps


def min_bottleneck_support(x: DiscreteDistribution, m: int) -> SupportSelection:
    """Support set of size at most ``m`` minimizing the maximum segment
    weight, i.e. the best achievable Kolmogorov distance.

    Ties are broken toward the lexicographically smallest index set, so the
    output is deterministic and matches the exhaustive oracle.
    """
    return SupportSelection(*_select(x, m, one_sided=False))


def reduce(x: DiscreteDistribution, m: int) -> ReductionResult:
    """Optimal m-approximation of ``x``: among all random variables with at
    most ``m`` support points, the one closest to ``x`` in Kolmogorov
    distance (with the documented lexicographic tie-break).  When the
    budget keeps every point, the result is ``x`` itself at distance 0."""
    selection = min_bottleneck_support(x, m)
    if selection.indices.size == x.n:
        return ReductionResult(x, selection, selection.epsilon)
    approx = construct_on_support(x, selection.indices)
    return ReductionResult(approx, selection, selection.epsilon)
