"""Slow reference implementations used to validate the fast path.

Everything here is written directly from the definitions, shares no
algorithmic code with the optimized modules (only the value and result
types and the budget check), and is deliberately exhaustive rather than
clever.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .distribution import DiscreteDistribution
from .errors import TooLargeError
from .reduction import ReductionResult, SupportSelection, _check_m

# Exhaustive search over subsets explodes combinatorially; refuse beyond this.
BRUTE_FORCE_LIMIT = 22


def naive_distance(a: DiscreteDistribution, b: DiscreteDistribution) -> float:
    """sup_t |F_a(t) - F_b(t)| by direct summation at every jump point of
    either CDF; quadratic on purpose."""
    av, ap = a.values.tolist(), a.probs.tolist()
    bv, bp = b.values.tolist(), b.probs.tolist()
    best = 0.0
    for t in sorted(set(av) | set(bv)):
        fa = math.fsum(p for v, p in zip(av, ap) if v <= t)
        fb = math.fsum(p for v, p in zip(bv, bp) if v <= t)
        best = max(best, abs(fa - fb))
    return best


def _segment_mass(probs: list[float], lo: int | None, hi: int | None) -> float:
    start = 0 if lo is None else lo + 1
    stop = len(probs) if hi is None else hi
    return math.fsum(probs[start:stop])


def _epsilon_literal(probs: list[float], combo: tuple[int, ...]) -> float:
    worst = _segment_mass(probs, None, combo[0])
    for lo, hi in zip(combo, combo[1:]):
        worst = max(worst, _segment_mass(probs, lo, hi) / 2.0)
    return max(worst, _segment_mass(probs, combo[-1], None))


def _construct_literal(
    values: np.ndarray, probs: list[float], combo: tuple[int, ...]
) -> DiscreteDistribution:
    out = []
    for t, i in enumerate(combo):
        prev = combo[t - 1] if t > 0 else None
        nxt = combo[t + 1] if t + 1 < len(combo) else None
        w_prev = _segment_mass(probs, prev, i)
        if prev is not None:
            w_prev /= 2.0
        w_next = _segment_mass(probs, i, nxt)
        if nxt is not None:
            w_next /= 2.0
        out.append(w_prev + w_next + probs[i])
    return DiscreteDistribution(values[list(combo)], np.asarray(out))


def brute_force_reduce(x: DiscreteDistribution, m: int) -> ReductionResult:
    """Exhaustive search over every support subset of size 1..m.

    Ties between equally good subsets resolve to the lexicographically
    smallest index tuple, the same rule the fast path documents.
    """
    m = _check_m(m)
    n = x.n
    if n > BRUTE_FORCE_LIMIT:
        raise TooLargeError(f"support size {n} exceeds the exhaustive guard {BRUTE_FORCE_LIMIT}")
    probs = x.probs.tolist()
    best: tuple[float, tuple[int, ...]] | None = None
    for size in range(1, min(m, n) + 1):
        for combo in itertools.combinations(range(n), size):
            candidate = (_epsilon_literal(probs, combo), combo)
            if best is None or candidate < best:
                best = candidate
    assert best is not None
    eps, combo = best
    approx = _construct_literal(x.values, probs, combo)
    selection = SupportSelection(np.asarray(combo, dtype=np.int64), eps)
    return ReductionResult(approx, selection, eps)
