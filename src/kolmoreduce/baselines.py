"""Comparison baselines: one-sided reductions and sampling.

The one-sided methods only ever move mass downwards, so their CDFs dominate
the source CDF everywhere.  They are reimplemented here from their contract
(valid one-sided approximation, small one-sided gap); bit-faithful parity
with the original tooling is out of scope.  Because the first source point
has nothing below it to absorb it, every valid one-sided approximation on
the source support must keep that point, which is why ``opt_trim`` pins it.
``METHODS`` and ``approximator`` name every reducer, the optimal one too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .distribution import (
    DiscreteDistribution,
    kolmogorov_distance,
    one_sided_distance,
    sample_empirical,
)
from .errors import BadEpsError
from .reduction import (
    _bottleneck_epsilon,
    _check_m,
    _lex_min_support,
    reduce,
)


@dataclass(frozen=True, eq=False)
class BaselineResult:
    """A baseline approximation with its errors recomputed from the source."""

    approx: DiscreteDistribution
    two_sided_error: float
    one_sided_error: float
    one_sided_valid: bool


def _assess(x: DiscreteDistribution, approx: DiscreteDistribution) -> BaselineResult:
    one_sided, valid = one_sided_distance(x, approx)
    return BaselineResult(approx, kolmogorov_distance(x, approx), one_sided, valid)


def trim_epsilon(x: DiscreteDistribution, eps: float) -> BaselineResult:
    """Greedy one-sided grouping.

    Scans left to right; each group's smallest point becomes its leader and
    receives the whole group mass, and a group keeps absorbing points while
    the absorbed (non-leader) mass stays within ``eps``.  The one-sided gap
    therefore never exceeds ``eps``.
    """
    if not 0.0 < eps < 1.0:
        raise BadEpsError(f"trim tolerance must lie in (0, 1), got {eps!r}")
    values = x.values
    probs = x.probs
    keep_vals = [float(values[0])]
    keep_mass = [float(probs[0])]
    absorbed = 0.0
    for j in range(1, x.n):
        p = float(probs[j])
        if absorbed + p <= eps:
            absorbed += p
            keep_mass[-1] += p
        else:
            keep_vals.append(float(values[j]))
            keep_mass.append(p)
            absorbed = 0.0
    return _assess(x, DiscreteDistribution(np.asarray(keep_vals), np.asarray(keep_mass)))


def opt_trim(x: DiscreteDistribution, m: int) -> BaselineResult:
    """Optimal one-sided reduction to at most ``m`` support points.

    Keeps the smallest source point (forced by one-sided validity), moves
    each segment's mass down to the segment's left endpoint, and picks the
    remaining points with the same hop-bounded bottleneck search as the
    two-sided reducer, except that segment weights are full interval masses
    (no halving: mass may only move one way).
    """
    m = _check_m(m)
    if m >= x.n:
        return _assess(x, x)
    view = x.cdf
    eps = _bottleneck_epsilon(view, m, halve=False, pinned_first=True)
    idx = _lex_min_support(view, m, eps, halve=False, pinned_first=True)
    bounds = np.concatenate((view.cum_left[idx], [view.total]))
    return _assess(x, DiscreteDistribution(x.values[idx], np.diff(bounds)))


def sample_reduce(
    x: DiscreteDistribution, s: int, m: int, seed: int
) -> BaselineResult:
    """Sampling baseline: empirical distribution of ``s`` draws, reduced with
    the optimal reducer if its support still exceeds ``m``."""
    m = _check_m(m)
    empirical = sample_empirical(x, s, seed)
    approx = empirical if empirical.n <= m else reduce(empirical, m).approx
    return _assess(x, approx)


# Reduction methods by name: the optimal reducer and the three baselines.
METHODS = ("klm", "trim", "opttrim", "sample")


def approximator(
    method: str, m: int | None, *, eps: float | None = None, samples: int | None = None, seed: int = 0
) -> Callable[[DiscreteDistribution], tuple[DiscreteDistribution, float]]:
    """The reducer named ``method`` as ``x -> (approx, distance)``: the
    certified distance for ``klm``, the two-sided error for the baselines.
    ``trim`` uses ``eps`` and ignores ``m``.  Unknown methods and missing
    parameters raise ``ValueError`` here, before any input is seen."""
    if method not in METHODS:
        raise ValueError(f"unknown reduction method {method!r}")
    if method == "trim" and eps is None:
        raise ValueError("method 'trim' needs an eps parameter")
    if method == "sample" and samples is None:
        raise ValueError("method 'sample' needs a samples parameter")
    if method != "trim":
        m = _check_m(m)

    def run(x: DiscreteDistribution) -> tuple[DiscreteDistribution, float]:
        if method == "klm":
            r = reduce(x, m)
            return r.approx, r.distance
        if method == "trim":
            b = trim_epsilon(x, eps)
        elif method == "opttrim":
            b = opt_trim(x, m)
        else:
            b = sample_reduce(x, samples, m, seed)
        return b.approx, b.two_sided_error

    return run
