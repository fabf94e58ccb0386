"""Optimal support-size reduction under the Kolmogorov distance.

Selecting a support set S = {x_(1) < ... < x_(m)} splits the real line into
segments.  Each segment is weighted with the source mass strictly inside it,
halved for interior segments because mass there can be split between the two
neighbouring kept points; segments touching an infinite sentinel count in
full.  The best achievable distance using S is the maximum segment weight,
and the best S is a minimax (bottleneck) path with a hop budget through the
support, found here by a layered dynamic program that evaluates edge weights
on demand instead of materializing the quadratic edge set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distribution import CumulativeView, DiscreteDistribution
from .errors import BadMError

# Column width of the blocked DP sweep; bounds scratch memory at n*block floats.
_DP_BLOCK = 256


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


def _segment_weights(view: CumulativeView, idx: np.ndarray) -> np.ndarray:
    """Weights of the ``idx.size + 1`` segments that keeping ``idx`` induces,
    left to right.  Same float expressions as segment_weight and the DP
    sweep, so their maximum matches the DP optimum bit for bit."""
    w = np.empty(idx.size + 1)
    w[0] = view.cum_left[idx[0]]
    w[1:-1] = (view.cum_left[idx[1:]] - view.cum[idx[:-1]]) * 0.5
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


def _bottleneck_layers(
    entry: np.ndarray,
    cum: np.ndarray,
    cum_left: np.ndarray,
    rounds: int,
    scale: float,
) -> np.ndarray:
    """Run ``rounds`` relaxation layers of the hop-bounded bottleneck DP.

    ``entry`` holds the best bottleneck value per support point before any
    relaxation; each layer allows one more edge ("at most k" semantics, so
    values only improve).  Edges are evaluated on demand in column blocks:
    scratch memory stays at O(n * block) regardless of n.
    """
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


def _bottleneck_epsilon(
    view: CumulativeView, m: int, *, halve: bool, pinned_first: bool
) -> float:
    """Optimal bottleneck value over supports of size at most ``m``.

    ``halve`` selects interior-segment halving (two-sided reduction) or full
    interior masses (one-sided).  With ``pinned_first`` the first support
    point is forced to be the smallest source point and only entry-free
    paths from it are considered.
    """
    n = view.cum.size
    scale = 0.5 if halve else 1.0
    if pinned_first:
        entry = np.full(n, np.inf)
        entry[0] = 0.0
    else:
        entry = view.cum_left.astype(np.float64, copy=True)
    b = _bottleneck_layers(entry, view.cum, view.cum_left, m - 1, scale)
    return float(np.min(np.maximum(b, view.total - view.cum)))


def _farthest_feasible(
    view: CumulativeView, j: int, eps: float, scale: float
) -> int:
    """Largest support index reachable from ``j`` by one edge of weight
    <= eps; may return ``j`` itself when no such index exists."""
    n = view.cum.size
    limit = view.cum[j] + eps / scale
    g = int(np.searchsorted(view.cum_left, limit, side="right")) - 1
    g = min(max(g, j), n - 1)
    while g + 1 < n and (view.cum_left[g + 1] - view.cum[j]) * scale <= eps:
        g += 1
    while g > j and (view.cum_left[g] - view.cum[j]) * scale > eps:
        g -= 1
    return g


def _lex_min_support(
    view: CumulativeView, m: int, eps: float, *, halve: bool, pinned_first: bool
) -> np.ndarray:
    """Lexicographically smallest support set achieving bottleneck <= eps.

    Greedy front-to-back construction: stop as soon as the tail mass fits
    (a proper prefix is lexicographically smaller than any extension), else
    take the smallest next point from which the target stays reachable
    within the remaining hop budget.  Reachability uses minimal hop counts
    computed backwards with farthest feasible jumps, valid because the
    feasible-jump horizon is monotone in the start point.
    """
    n = view.cum.size
    scale = 0.5 if halve else 1.0
    exit_w = view.total - view.cum
    unreachable = n + 2

    hops = np.full(n, unreachable, dtype=np.int64)
    for j in range(n - 1, -1, -1):
        if exit_w[j] <= eps:
            hops[j] = 1
        else:
            g = _farthest_feasible(view, j, eps, scale)
            if g > j and hops[g] < unreachable:
                hops[j] = 1 + hops[g]

    chosen: list[int] = [0] if pinned_first else []
    cur = 0 if pinned_first else -1
    while True:
        if chosen and exit_w[chosen[-1]] <= eps:
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
            edge = float(view.cum_left[j])
        else:
            edge = (view.cum_left[j] - view.cum[cur]) * scale
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
    eps = _bottleneck_epsilon(view, m, halve=True, pinned_first=False)
    idx = _lex_min_support(view, m, eps, halve=True, pinned_first=False)
    return SupportSelection(idx, float(np.max(_segment_weights(view, idx))))


def reduce(x: DiscreteDistribution, m: int) -> ReductionResult:
    """Optimal m-approximation of ``x``: among all random variables with at
    most ``m`` support points, the one closest to ``x`` in Kolmogorov
    distance (with the documented lexicographic tie-break)."""
    m = _check_m(m)
    if m >= x.n:
        selection = SupportSelection(np.arange(x.n, dtype=np.int64), 0.0)
        return ReductionResult(x, selection, 0.0)
    selection = min_bottleneck_support(x, m)
    approx = construct_on_support(x, selection.indices)
    return ReductionResult(approx, selection, selection.epsilon)
