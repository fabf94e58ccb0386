"""Optimal support-size reduction under the Kolmogorov distance.

Selecting a support set S = {x_(1) < ... < x_(m)} splits the real line into
segments.  Each segment is weighted with the source mass strictly inside it,
halved for interior segments because mass there can be split between the two
neighbouring kept points; segments touching an infinite sentinel count in
full.  The best achievable distance using S is the maximum segment weight,
and the best S is a minimax (bottleneck) path with a hop budget through the
support.  A layered dynamic program finds the optimal weight, evaluating edge
weights on demand instead of materializing the quadratic edge set.  An
upper bound on the optimum, the maximum segment weight of the support at
the mass quantiles, is fixed once per call, and each column block
evaluates only the rows from the first one whose edge into it can weigh at
most the bound.  Edge weights grow with the target and shrink with the
source, so every skipped edge is heavier than the optimum, the optimal path
keeps all of its edges, and the optimum comes out bit for bit as from the
dense O(n^2 m) sweep.  With evenly spread masses the bound is near 1 / 2m,
about n / m rows remain before each block, and the cost falls to about
O(n (n / m + block) m).  The same search serves the one-sided reduction
(``one_sided``): interior segments count in full and the first support
point is pinned to the smallest source point.  The lexicographically
smallest support reaching the optimum is then extracted in O(n) numpy work
plus an O(n) list loop: every point's farthest feasible jump from one
``searchsorted`` with exact fix-ups, hop counts to the exit computed
backwards, and a forward pick of the smallest reachable next point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distribution import CumulativeView, DiscreteDistribution
from .errors import BadMError

# Column width of the blocked DP sweep; bounds scratch memory at n*block floats.
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
    """Indices as a 1-D int64 array, non-empty and strictly increasing, and
    within ``range(n)`` when ``n`` is given."""
    idx = np.ascontiguousarray(indices, dtype=np.int64)
    if idx.ndim != 1 or idx.size == 0:
        raise ValueError("a selection needs at least one index")
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
    sentinel.
    """
    n = cdf.values.size
    if lo is not None and not 0 <= lo < n:
        raise ValueError(f"lo index {lo} out of range")
    if hi is not None and not 0 <= hi < n:
        raise ValueError(f"hi index {hi} out of range")
    if lo is not None and hi is not None and lo >= hi:
        raise ValueError("need lo < hi in the extended order")
    left = cdf.total if hi is None else float(cdf.cum_left[hi])
    right = 0.0 if lo is None else float(cdf.cum[lo])
    mass = left - right
    if lo is None or hi is None:
        return mass
    return mass * 0.5


def _segment_weights(view: CumulativeView, idx: np.ndarray, scale: float = 0.5) -> np.ndarray:
    """Weights of the ``idx.size + 1`` segments that keeping ``idx`` induces,
    left to right, with interior masses multiplied by ``scale`` (0.5 for the
    two-sided reduction, 1.0 for the one-sided one).  Same float expressions
    as segment_weight and the DP sweep, so their maximum matches the DP
    value of that support bit for bit."""
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
    segments on both sides."""
    idx = _check_indices(indices, x.n)
    w = _segment_weights(x.cdf, idx)
    return DiscreteDistribution(x.values[idx], w[:-1] + w[1:] + x.probs[idx])


def _quantile_support(view: CumulativeView, m: int, *, one_sided: bool) -> np.ndarray:
    """A cheap feasible support of at most ``m`` points: the first points
    reaching the mass quantiles ``(i + 0.5) / k``, with k = m, or index 0
    plus m - 1 quantiles in one-sided mode, whose first point is pinned."""
    k = m - 1 if one_sided else m
    q = (np.arange(k) + 0.5) / k * view.total
    idx = np.searchsorted(view.cum, q)  # q <= total == cum[-1], so idx < n
    if one_sided:
        idx = np.concatenate(([0], idx))
    return np.unique(idx)


def _bottleneck_epsilon(view: CumulativeView, m: int, *, one_sided: bool) -> tuple[float, int]:
    """Optimal bottleneck value over supports of size at most ``m``, and the
    number of edge weights the DP evaluated to find it.

    Two-sided mode halves interior segments and enters at any point with
    the mass before it; one-sided mode (``one_sided``) counts interior
    masses in full and pins the first support point to the smallest source
    point.  Each of the m - 1 layers allows one more edge ("at most k"
    semantics, so values only improve).  Edges are evaluated on demand in
    column blocks, so scratch memory stays at O(n * block).

    With more than one column block, the quantile support's maximum segment
    weight is an upper bound on the optimum, fixed for the call.  Block
    ``[a, e)`` evaluates only the rows from the first one whose edge into
    ``a`` weighs at most the bound, by the edges' own float expression.
    Edge weights grow with the target and shrink with the source, so every
    skipped edge is heavier than the optimum; skipping only raises values
    and the optimal path keeps all its edges, so the result is the dense
    DP's float bit for bit.
    """
    cum, cum_left = view.cum, view.cum_left
    n = cum.size
    scale = 1.0 if one_sided else 0.5
    if one_sided:
        b = np.full(n, np.inf)
        b[0] = 0.0
    else:
        b = cum_left
    bound = np.inf
    if n > _DP_BLOCK and m > 1:
        support = _quantile_support(view, m, one_sided=one_sided)
        bound = float(np.max(_segment_weights(view, support, scale)))
    # The prefix sums are non-decreasing, so the kept rows before a block
    # are a suffix of them and their count locates the first one.
    blocks = []
    for a in range(0, n, _DP_BLOCK):
        kept = np.count_nonzero((cum_left[a] - cum[:a]) * scale <= bound)
        blocks.append((a, min(a + _DP_BLOCK, n), a - kept))
    # A support narrower than a block reads its own contiguous copy, which
    # is faster than a strided view of the full floor.
    width = min(_DP_BLOCK, n)
    corner_floor = np.ascontiguousarray(_CORNER_FLOOR[:width, :width])
    for _ in range(m - 1):
        prev = b
        b = prev.copy()
        for a, e, lo in blocks:
            target_left = cum_left[a:e]
            w = (target_left - cum[lo:a, None]) * scale
            np.maximum(w, prev[lo:a, None], out=w)
            best = w.min(axis=0, initial=np.inf)
            w = (target_left - cum[a:e, None]) * scale
            np.maximum(w, prev[a:e, None], out=w)
            np.maximum(w, corner_floor[: e - a, : e - a], out=w)
            np.minimum(best, w.min(axis=0), out=best)
            np.minimum(b[a:e], best, out=b[a:e])
    cells = (m - 1) * sum((e - lo) * (e - a) for a, e, lo in blocks)
    return float(np.min(np.maximum(b, view.total - cum))), cells


def _lex_min_support(view: CumulativeView, m: int, eps: float, *, one_sided: bool) -> np.ndarray:
    """Lexicographically smallest support set achieving bottleneck <= eps.

    Every start point's farthest feasible jump comes from one vectorised
    ``searchsorted`` on ``cum + eps / scale``, corrected by whole-array +1
    and -1 passes that repeat until no jump moves: the passes apply the
    edge-weight expression itself, so the jumps agree with it bit for bit.
    Minimal hop counts to the exit are then computed backwards over plain
    lists, one step per point, valid because the feasible-jump horizon is
    monotone in the start point.  The forward pick stops as soon as the
    tail mass fits (a proper prefix is lexicographically smaller than any
    extension), else takes the smallest next point from which the exit
    stays reachable within the remaining hop budget.  Cost: O(n) numpy work
    plus an O(n) list loop.
    """
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

    chosen: list[int] = [0] if one_sided else []
    cur = 0 if one_sided else -1
    while True:
        if chosen and exits[chosen[-1]]:
            break
        rem = m - len(chosen)
        if rem <= 0:
            raise AssertionError("bottleneck extraction exhausted its hop budget")
        j = cur + 1
        while j < n and hops[j] > rem:
            j += 1
        if j >= n:
            raise AssertionError("bottleneck extraction found no reachable next point")
        if cur < 0:
            edge = float(cum_left[j])
        else:
            edge = (cum_left[j] - cum[cur]) * scale
        if edge > eps:
            raise AssertionError("bottleneck extraction hit an infeasible edge")
        chosen.append(j)
        cur = j
    return np.asarray(chosen, dtype=np.int64)


def min_bottleneck_support(x: DiscreteDistribution, m: int) -> SupportSelection:
    """Support set of size at most ``m`` minimizing the maximum segment
    weight, i.e. the best achievable Kolmogorov distance.

    Ties are broken toward the lexicographically smallest index set, so the
    output is deterministic and matches the exhaustive oracle.
    """
    m = _check_m(m)
    n = x.n
    if m >= n:
        return SupportSelection(np.arange(n, dtype=np.int64), 0.0)
    view = x.cdf
    eps, _ = _bottleneck_epsilon(view, m, one_sided=False)
    # The extraction keeps every segment weight <= eps, and no support of
    # size m does better, so eps is the selection's maximum segment weight.
    return SupportSelection(_lex_min_support(view, m, eps, one_sided=False), eps)


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
