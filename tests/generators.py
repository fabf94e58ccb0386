"""Random distributions shared by the test modules."""

import math

import numpy as np
from hypothesis import strategies as st

from kolmoreduce import DiscreteDistribution


def random_distribution(rng, n=None, max_n=12, values=None):
    """Generic random variable: distinct integer-ish support, normalized
    uniform masses."""
    if n is None:
        n = int(rng.integers(1, max_n + 1))
    if values is None:
        values = np.arange(n, dtype=np.float64)
    probs = rng.random(n)
    return DiscreteDistribution(values, probs / probs.sum())


def masses(rng, kind, n):
    """``n`` normalized masses of one of four kinds: "uniform", "pareto",
    "spiky" (three points carry nearly all the mass) or "tied" (integer
    weights, so many sums and edge weights tie exactly)."""
    if kind == "uniform":
        p = rng.random(n)
    elif kind == "pareto":
        p = rng.pareto(1.1, n) + 1e-6
    elif kind == "spiky":
        p = rng.random(n) ** 12 + 1e-12
        p[rng.integers(0, n, 3)] += 1.0
    else:  # tied integer masses: many edge weights equal epsilon exactly
        p = rng.integers(1, 4, n).astype(np.float64)
    return p / p.sum()


def binomial(n):
    """Binomial(n, 1/2) on 0..n with correctly rounded masses.  At n = 600
    the outer masses lie near 2**-600, so a product of two rounds to 0."""
    probs = [math.comb(n, k) / 2**n for k in range(n + 1)]
    return DiscreteDistribution(np.arange(n + 1.0), np.array(probs))


@st.composite
def distributions(draw, max_n=10):
    """Hypothesis strategy: integer weights over a sorted integer support.

    Integer weights keep masses well separated, so near-tie float artifacts
    cannot blur property assertions.
    """
    n = draw(st.integers(min_value=1, max_value=max_n))
    values = draw(
        st.lists(
            st.integers(min_value=-50, max_value=50),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    weights = draw(st.lists(st.integers(min_value=1, max_value=20), min_size=n, max_size=n))
    total = float(sum(weights))
    order = np.argsort(values)
    return DiscreteDistribution(
        np.asarray(values, dtype=np.float64)[order],
        np.asarray(weights, dtype=np.float64)[order] / total,
    )
