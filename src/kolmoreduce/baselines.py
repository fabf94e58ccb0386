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
    DOMINANCE_SLACK,
    DiscreteDistribution,
    _cdf_gaps,
    _combined,
    sample_empirical,
)
from .errors import BadEpsError
from .reduction import _check_m, _select, reduce


@dataclass(frozen=True, eq=False)
class BaselineResult:
    """A baseline approximation with its errors recomputed from the source."""

    approx: DiscreteDistribution
    two_sided_error: float
    one_sided_error: float
    one_sided_valid: bool


def _assess(x: DiscreteDistribution, approx: DiscreteDistribution) -> BaselineResult:
    """Both errors and the dominance flag from one F_approx - F_x array, as
    ``kolmogorov_distance`` and ``one_sided_distance`` compute them."""
    gaps = _cdf_gaps(approx, x)
    return BaselineResult(
        approx,
        float(np.max(np.abs(gaps))),
        max(0.0, float(np.max(gaps))),
        bool(np.min(gaps) >= -DOMINANCE_SLACK),
    )


def trim_epsilon(x: DiscreteDistribution, eps: float) -> BaselineResult:
    """Greedy one-sided grouping.

    Scans left to right; each group's smallest point becomes its leader and
    receives the whole group mass, and a group keeps absorbing points while
    the absorbed (non-leader) mass stays within ``eps``.  The one-sided gap
    therefore never exceeds ``eps``.
    """
    if not 0.0 < eps < 1.0:
        raise BadEpsError(f"trim tolerance must lie in (0, 1), got {eps!r}")
    values = x.values.tolist()
    probs = x.probs.tolist()
    keep_vals = [values[0]]
    keep_mass = [probs[0]]
    absorbed = 0.0
    for v, p in zip(values[1:], probs[1:]):
        if absorbed + p <= eps:
            absorbed += p
            keep_mass[-1] += p
        else:
            keep_vals.append(v)
            keep_mass.append(p)
            absorbed = 0.0
    # The kept values are x's, in order.  The masses are x's regrouped, so
    # they are positive and their total is x's up to one rounding per
    # absorbed point: checking that total against MASS_TOL again could
    # reject a valid x whose total sits at the tolerance's edge.
    return _assess(x, DiscreteDistribution._checked(np.asarray(keep_vals), np.asarray(keep_mass)))


def opt_trim(x: DiscreteDistribution, m: int) -> BaselineResult:
    """Optimal one-sided reduction to at most ``m`` support points.

    Keeps the smallest source point (forced by one-sided validity), moves
    each segment's mass down to the segment's left endpoint, and picks the
    remaining points with the same hop-bounded bottleneck search as the
    two-sided reducer, except that segment weights are full interval masses
    (no halving: mass may only move one way).  A kept point whose segment
    mass rounds to 0 is dropped, so the result can hold fewer points than
    the search kept.
    """
    idx, _ = _select(x, m, one_sided=True)
    if idx.size == x.n:
        return _assess(x, x)
    bounds = x.cdf.prefix[np.append(idx, x.n)]
    return _assess(x, _combined(x.values[idx], np.diff(bounds)))


def sample_reduce(
    x: DiscreteDistribution, s: int, m: int, seed: int
) -> BaselineResult:
    """Sampling baseline: empirical distribution of ``s`` draws, reduced with
    the optimal reducer if its support still exceeds ``m``."""
    return _assess(x, reduce(sample_empirical(x, s, seed), m).approx)


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
