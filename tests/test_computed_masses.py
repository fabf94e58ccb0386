"""Every producer of a distribution on inputs whose masses reach down to
1e-320: each output must pass the strict constructor, whatever the
products and differences of such masses round to."""

import numpy as np

from kolmoreduce import (
    DiscreteDistribution,
    convolve,
    eval_exact,
    eval_reduced,
    kolmogorov_distance,
    leaf,
    max_node,
    max_of,
    min_node,
    min_of,
    opt_trim,
    project_to_support,
    reduce,
    run_pipeline,
    sample_reduce,
    seq,
    trim_epsilon,
)

PIPELINE_METHODS = {"klm": {}, "opttrim": {}, "trim": {"eps": 0.1}, "sample": {"samples": 300}}


def tiny_mass_distribution(rng, n):
    """Uniform masses on ``n`` points, a random share of them replaced by
    masses between 1e-320 and 1e-15."""
    probs = rng.random(n) + 0.05
    tiny = rng.random(n) < 0.4
    tiny[rng.integers(0, n)] = False
    probs[tiny] = 0.0
    probs /= probs.sum()
    probs[tiny] = 10.0 ** rng.uniform(-320, -15, int(tiny.sum()))
    values = np.cumsum(rng.integers(1, 4, n)).astype(np.float64)
    return DiscreteDistribution(values, probs)


def rebuilt(d):
    """``d`` through the strict constructor, from copies of its arrays."""
    return DiscreteDistribution(d.values.copy(), d.probs.copy())


def test_every_producer_returns_a_valid_distribution():
    rng = np.random.default_rng(1017)
    for _ in range(100):
        x = tiny_mass_distribution(rng, int(rng.integers(2, 40)))
        y = tiny_mass_distribution(rng, int(rng.integers(2, 40)))
        m = int(rng.integers(1, x.n + 1))

        r = reduce(x, m)
        rebuilt(r.approx)
        assert abs(kolmogorov_distance(x, r.approx) - r.distance) <= 1e-12
        one_sided = opt_trim(x, m)
        rebuilt(one_sided.approx)
        assert one_sided.one_sided_valid
        rebuilt(trim_epsilon(x, float(rng.uniform(0.01, 0.5))).approx)
        rebuilt(sample_reduce(x, 200, m, int(rng.integers(0, 1000))).approx)
        for combine in (convolve, max_of, min_of, project_to_support):
            rebuilt(combine(x, y))
            rebuilt(combine(y, x))

        tree = seq(leaf(x), max_node(leaf(y), leaf(x)), min_node(leaf(x), leaf(y)))
        rebuilt(eval_exact(tree))
        for method, params in PIPELINE_METHODS.items():
            rebuilt(eval_reduced(tree, 6, method, **params))
            report = run_pipeline(tree, [10.0, 60.0], 6, method, **params)
            assert 0.0 <= report.d_k <= 1.0
