"""Finite discrete random variables and exact distances between them.

A distribution is stored as a sorted support with strictly positive masses.
Everything here is immutable and pure: operations return new objects and
never mutate their inputs, so values can be shared freely between threads.

A distribution is built in one of four ways:

- the public constructor ``DiscreteDistribution(values, probs)`` is for
  arrays from outside the package: it checks every invariant and stores
  its own read-only copies of the arrays;
- ``_from_columns`` (behind ``make_distribution``, the file readers and
  inline tree leaves) cleans raw input: it drops zero masses, merges duplicate values, sorts
  and, on request, renormalizes;
- ``_combined`` finishes masses the package computes (combinators,
  projection, ``baselines.opt_trim``): it drops points whose mass came out
  as exactly 0 and rescales a total that drifted past ``MASS_TOL``;
- ``_checked`` wraps fresh arrays that are known to meet every invariant,
  without copying or checking them again.  Every other distribution the
  package computes (``construct_on_support``, ``sample_empirical``,
  ``baselines.trim_epsilon``) finishes here, so the public constructor
  never re-checks the package's own output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import BadMassError, EmptyDistributionError, NonFiniteValueError

# Total mass must sit within this of 1 for every distribution read from
# outside.  Masses the package regroups (``construct_on_support``,
# ``baselines.trim_epsilon``) keep that total up to a few roundings.
MASS_TOL = 1e-9

# Slack used when checking one-sided CDF domination.
DOMINANCE_SLACK = 1e-12


# Points per block of the prefix sum.
_CUMSUM_BLOCK = 4096


def _compensated_cumsum(probs: np.ndarray) -> np.ndarray:
    """The ``n + 1`` prefix sums (0.0 first) of ``probs``, with error tracking.

    Plain ``np.cumsum`` drifts by O(n*eps), too loose for supports around
    1e6 points.  The sums run in blocks of ``_CUMSUM_BLOCK`` points, and
    each block after the first is offset by the ``math.fsum`` of the block
    totals before it, which keeps every prefix within a few ULP of the
    correctly rounded value.  Only blocks that a later block needs as an
    offset are summed exactly, so a support of at most one block pays no
    ``fsum`` at all.  A block's naive sums can end an ULP above the next
    block's exact offset, so each block is clamped from below by the sum
    before it, which keeps the sums non-decreasing.
    """
    prefix = np.zeros(probs.size + 1)
    out = prefix[1:]
    np.cumsum(probs[:_CUMSUM_BLOCK], out=out[:_CUMSUM_BLOCK])
    block_totals: list[float] = []
    for start in range(_CUMSUM_BLOCK, probs.size, _CUMSUM_BLOCK):
        block_totals.append(math.fsum(probs[start - _CUMSUM_BLOCK:start].tolist()))
        dst = out[start:start + _CUMSUM_BLOCK]
        np.cumsum(probs[start:start + _CUMSUM_BLOCK], out=dst)
        dst += math.fsum(block_totals)
        np.maximum(dst, out[start - 1], out=dst)
    return prefix


def _check_masses(probs: np.ndarray) -> None:
    if not np.all(probs > 0):
        raise BadMassError("every stored probability must be strictly positive")
    total = math.fsum(probs.tolist())
    if abs(total - 1.0) > MASS_TOL:
        raise BadMassError(f"total mass {total!r} is outside 1 +/- {MASS_TOL}")


@dataclass(frozen=True, eq=False)
class DiscreteDistribution:
    """A finite random variable: sorted support values with positive masses.

    Invariants enforced on construction: values strictly increasing and
    finite, every probability strictly positive, total mass within
    ``MASS_TOL`` of one.  The stored arrays are read-only copies, so a
    later change to the caller's arrays does not reach the distribution.
    """

    values: np.ndarray
    probs: np.ndarray

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=np.float64)
        probs = np.array(self.probs, dtype=np.float64)
        if values.ndim != 1 or probs.ndim != 1 or values.shape != probs.shape:
            raise ValueError("values and probs must be 1-D arrays of equal length")
        if values.size == 0:
            raise EmptyDistributionError("a distribution needs at least one support point")
        if not np.all(np.isfinite(values)):
            raise NonFiniteValueError("support values must be finite")
        if values.size > 1 and not np.all(np.diff(values) > 0):
            raise ValueError("support values must be strictly increasing")
        _check_masses(probs)
        self._freeze(values, probs)

    @classmethod
    def _checked(cls, values: np.ndarray, probs: np.ndarray) -> "DiscreteDistribution":
        """Wrap fresh float64 1-D arrays, held by no one else, that already
        meet every invariant, without copying or checking them again."""
        self = object.__new__(cls)
        self._freeze(values, probs)
        return self

    def _freeze(self, values: np.ndarray, probs: np.ndarray) -> None:
        values.flags.writeable = False
        probs.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "probs", probs)

    @property
    def n(self) -> int:
        """Support size."""
        return int(self.values.size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiscreteDistribution):
            return NotImplemented
        return np.array_equal(self.values, other.values) and np.array_equal(
            self.probs, other.probs
        )

    def __repr__(self) -> str:
        if self.n <= 8:
            pairs = ", ".join(f"{v:g}: {p:g}" for v, p in zip(self.values, self.probs))
            return f"DiscreteDistribution({{{pairs}}})"
        return f"DiscreteDistribution(n={self.n})"

    @cached_property
    def cdf(self) -> "CumulativeView":
        """The prefix-sum CDF, computed on first use and kept."""
        return CumulativeView(self)


class CumulativeView:
    """Prefix-sum CDF over a distribution, for O(1) interval-mass queries.

    ``prefix`` is the read-only array of the ``n + 1`` prefix sums, 0.0
    first: ``prefix[k]`` is the mass of the first k points.  ``cum[i]`` is
    F(values[i]) and ``cum_left[i]`` the left limit F(values[i]^-); both
    are views of ``prefix``.  ``total`` is ``prefix[n]``, the realized
    overall mass, used as the value of F just below +inf so that
    complementary masses cancel exactly.  Obtain it as ``dist.cdf``, which
    builds it once per distribution.
    """

    __slots__ = ("values", "prefix", "cum", "cum_left", "total")

    def __init__(self, dist: DiscreteDistribution) -> None:
        self.values = dist.values
        self.prefix = _compensated_cumsum(dist.probs)
        self.prefix.flags.writeable = False
        self.cum = self.prefix[1:]
        self.cum_left = self.prefix[:-1]
        self.total = float(self.prefix[-1])

    def at(self, t) -> np.ndarray:
        """CDF evaluated (right-continuously) at the points of ``t``, as an
        array of ``t``'s shape (0-d for a scalar)."""
        idx = np.searchsorted(self.values, np.asarray(t, dtype=np.float64), side="right")
        return np.asarray(self.prefix[idx])


def make_distribution(
    pairs: Iterable[tuple[float, float]] | Sequence[Sequence[float]],
    *,
    renormalize: bool = False,
) -> DiscreteDistribution:
    """Build a distribution from (value, probability) pairs.

    Duplicate values are merged by summing their masses, zero-mass entries
    are dropped, and the support is sorted.  With ``renormalize`` the masses
    are divided by their actual sum; otherwise the sum must already be
    within ``MASS_TOL`` of one.
    """
    table = np.asarray(list(pairs), dtype=np.float64)
    if table.size and (table.ndim != 2 or table.shape[1] != 2):
        raise ValueError("expected a sequence of (value, probability) pairs")
    table = table.reshape(-1, 2)
    return _from_columns(table[:, 0], table[:, 1], renormalize=renormalize)


def _from_columns(values, probs, *, renormalize: bool) -> DiscreteDistribution:
    """``make_distribution`` on a column of values and one of probabilities.

    Every check runs here once: the result's invariants follow from them,
    so it is wrapped without ``__post_init__``'s second pass.
    """
    values = np.asarray(values, dtype=np.float64)
    probs = np.asarray(probs, dtype=np.float64)
    if values.ndim != 1 or probs.shape != values.shape:
        raise ValueError("values and probs must be flat sequences of equal length")
    if values.size == 0:
        raise EmptyDistributionError("no (value, probability) pairs given")
    if not np.all(np.isfinite(values)):
        raise NonFiniteValueError("support values must be finite")
    if np.any(probs < 0) or not np.all(np.isfinite(probs)):
        raise BadMassError("probabilities must be finite and non-negative")

    keep = probs > 0
    values, probs = values[keep], probs[keep]
    if values.size == 0:
        raise EmptyDistributionError("no support point carries positive mass")
    uniq, inverse = np.unique(values, return_inverse=True)
    merged = np.bincount(inverse, weights=probs, minlength=uniq.size)

    total = math.fsum(merged.tolist())
    if renormalize:
        # Division can underflow a mass to zero, so the result is checked.
        merged = merged / total
        _check_masses(merged)
    elif abs(total - 1.0) > MASS_TOL:
        raise BadMassError(
            f"total mass {total!r} is outside 1 +/- {MASS_TOL}; pass renormalize=True to rescale"
        )
    return DiscreteDistribution._checked(uniq, merged)


def _cdfs_on_union(a: DiscreteDistribution, b: DiscreteDistribution) -> tuple[np.ndarray, ...]:
    """Every jump point of either CDF, and both CDFs evaluated there."""
    ts = np.union1d(a.values, b.values)
    return ts, a.cdf.at(ts), b.cdf.at(ts)


def _cdf_gaps(a: DiscreteDistribution, b: DiscreteDistribution) -> np.ndarray:
    """F_a - F_b at every jump of either, clipped to [-1, 1]: a running sum
    of masses can end one ULP above 1."""
    _, fa, fb = _cdfs_on_union(a, b)
    return np.clip(fa - fb, -1.0, 1.0)


def kolmogorov_distance(a: DiscreteDistribution, b: DiscreteDistribution) -> float:
    """sup over t of |F_a(t) - F_b(t)|.

    Both CDFs are step functions, so the supremum is attained at a jump of
    one of them; between consecutive merged jumps the difference is the one
    already seen at the previous jump (and zero below the first).
    """
    return float(np.max(np.abs(_cdf_gaps(a, b))))


def one_sided_distance(
    x: DiscreteDistribution, approx: DiscreteDistribution
) -> tuple[float, bool]:
    """One-sided gap sup_t (F_approx(t) - F_x(t)).

    Returns the gap together with a flag telling whether the approximation's
    CDF dominates the source CDF everywhere (within ``DOMINANCE_SLACK``).
    The supremum includes t below both supports, hence it is never negative.
    """
    gaps = _cdf_gaps(approx, x)
    return max(0.0, float(np.max(gaps))), bool(np.min(gaps) >= -DOMINANCE_SLACK)


def project_to_support(
    xpp: DiscreteDistribution, target: DiscreteDistribution
) -> DiscreteDistribution:
    """Snap ``xpp`` onto the support of ``target`` without increasing the
    Kolmogorov distance to ``target``.

    Mass in (t_{i-1}, t_i] moves to t_i, and everything above the
    second-largest target point moves to the largest one.  The result
    matches ``xpp``'s CDF at every target point except possibly the last,
    which pins the distance at or below the original one.  A target point
    that receives no mass, or mass that rounds to 0, is dropped, so the
    result can hold fewer points than the target.
    """
    tv = target.values
    cuts = np.searchsorted(xpp.values, tv[:-1], side="right")
    bounds = xpp.cdf.prefix[np.concatenate(([0], cuts, [xpp.n]))]
    return _combined(tv, np.diff(bounds))


def _combined(values: np.ndarray, probs: np.ndarray) -> DiscreteDistribution:
    """The distribution of masses the package computed on ``values``.

    Every caller's ``values`` are float64, strictly increasing and finite
    (``np.unique``, ``np.union1d``, a target's values, or ``x.values[idx]``
    at increasing ``idx``), so they are not checked again.  A point whose
    mass came out as exactly 0 (nothing landed there, or a product or
    difference of masses rounded to 0) carries no probability, so it is
    dropped; the rest are positive.  Each input's total may sit up to
    ``MASS_TOL`` from one, so a product of totals can land outside it; only
    such an output is changed: it is divided by its realised total and its
    masses are checked again.  Every other output is kept bit for bit."""
    keep = probs > 0
    values, probs = values[keep], probs[keep]
    total = math.fsum(probs.tolist())
    if abs(total - 1.0) > MASS_TOL:
        probs = probs / total
        _check_masses(probs)
    return DiscreteDistribution._checked(values, probs)


def convolve(a: DiscreteDistribution, b: DiscreteDistribution) -> DiscreteDistribution:
    """Distribution of the sum of two independent variables.

    Support points that collide (exact float equality) are merged.  A sum
    whose mass rounds to 0 (a product of two tiny masses) is dropped.  Sums
    beyond the float range raise ``NonFiniteValueError``.
    """
    # Both supports are sorted and float addition is monotone, so every sum
    # lies between the sums of the end points.
    low = float(a.values[0]) + float(b.values[0])
    high = float(a.values[-1]) + float(b.values[-1])
    if math.isinf(low) or math.isinf(high):
        raise NonFiniteValueError(f"support sums overflow the float range ({low!r} to {high!r})")
    sums = np.add.outer(a.values, b.values).ravel()
    masses = np.multiply.outer(a.probs, b.probs).ravel()
    uniq, inverse = np.unique(sums, return_inverse=True)
    return _combined(uniq, np.bincount(inverse, weights=masses, minlength=uniq.size))


def _combine_cdf(
    a: DiscreteDistribution, b: DiscreteDistribution, minimum: bool
) -> DiscreteDistribution:
    ts, fa, fb = _cdfs_on_union(a, b)
    if minimum:
        f = 1.0 - (1.0 - fa) * (1.0 - fb)
    else:
        f = fa * fb
    return _combined(ts, np.diff(np.concatenate(([0.0], f))))


def max_of(a: DiscreteDistribution, b: DiscreteDistribution) -> DiscreteDistribution:
    """Distribution of max(A, B) for independent A, B: F = F_a * F_b.
    A point whose computed mass rounds to 0 is dropped."""
    return _combine_cdf(a, b, minimum=False)


def min_of(a: DiscreteDistribution, b: DiscreteDistribution) -> DiscreteDistribution:
    """Distribution of min(A, B) for independent A, B: 1-F = (1-F_a)(1-F_b).
    A point whose computed mass rounds to 0 is dropped."""
    return _combine_cdf(a, b, minimum=True)


def sample_empirical(
    x: DiscreteDistribution, s: int, seed: int
) -> DiscreteDistribution:
    """Empirical distribution of ``s`` i.i.d. draws from ``x``.

    Draws invert uniform variates through the CDF using numpy's PCG64
    generator, so identical (x, s, seed) triples give identical output on
    every platform.
    """
    if s < 1:
        raise ValueError("sample size must be at least 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    u = rng.random(int(s))
    idx = np.searchsorted(x.cdf.cum, u, side="right")
    idx = np.minimum(idx, x.n - 1)
    uniq, counts = np.unique(idx, return_counts=True)
    # The values are x's at increasing positions.  Each count / s is
    # positive and correctly rounded, so the masses' exact sum lies within
    # 2**-53 of 1, far inside MASS_TOL.
    return DiscreteDistribution._checked(x.values[uniq], counts / float(s))
