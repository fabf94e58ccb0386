"""Acceptance suite: one test per criterion, each printing a pass line with
the measured numbers.  Run with ``pytest tests/test_acceptance.py -v`` (add
``-s`` to see the detail lines)."""

import time

import numpy as np

from kolmoreduce import (
    CumulativeView,
    DiscreteDistribution,
    brute_force_reduce,
    eval_exact,
    eval_reduced,
    fixture_path,
    kolmogorov_distance,
    load_tree,
    reduce,
    sample_empirical,
    segment_weight,
)
from kolmoreduce.cli import bench_errors, bench_instance, main

TOL = 1e-12

# Reference curve points: (budget m, mean error over fifty 100-point
# instances) for the optimal reducer, and the one-sided-optimal mean at m=2.
REFERENCE_CURVE = {2: 0.246, 4: 0.121, 8: 0.0591, 10: 0.046, 20: 0.0215, 50: 0.0068}


def _generic(rng, n):
    probs = rng.random(n)
    return DiscreteDistribution(np.arange(n, dtype=np.float64), probs / probs.sum())


def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(101)
    checked = 0
    start = time.perf_counter()
    for _ in range(200):
        x = _generic(rng, int(rng.integers(2, 13)))
        for m in range(1, x.n + 1):
            fast = reduce(x, m)
            slow = brute_force_reduce(x, m)
            assert abs(fast.distance - slow.distance) <= TOL
            assert np.array_equal(fast.selection.indices, slow.selection.indices)
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"PASS criterion 1: oracle equivalence on {checked} (x, m) cases in {elapsed:.1f}s")


def _criterion_2_cases():
    rng = np.random.default_rng(202)
    for _ in range(1000):
        x = _generic(rng, int(rng.integers(1, 201)))
        yield x, int(rng.integers(1, x.n + 1))


def test_criterion_2_certificate_identity():
    start = time.perf_counter()
    worst = 0.0
    for x, m in _criterion_2_cases():
        result = reduce(x, m)
        gap = abs(kolmogorov_distance(x, result.approx) - result.distance)
        worst = max(worst, gap)
        assert gap <= TOL
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"PASS criterion 2: certificate identity on 1000 cases, worst gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_balance_bounds():
    worst = -1.0
    for x, m in _criterion_2_cases():
        result = reduce(x, m)
        view = CumulativeView(x)
        fx = view.cum
        fa = CumulativeView(result.approx).at(x.values)
        sel = result.selection.indices.tolist()
        for lo, hi in zip([None] + sel, sel + [None]):
            start_i = 0 if lo is None else lo
            stop_i = x.n if hi is None else hi
            if start_i < stop_i:
                gap = float(np.max(np.abs(fx[start_i:stop_i] - fa[start_i:stop_i])))
                w = segment_weight(view, lo, hi)
                assert gap <= w + TOL, (lo, hi, gap, w)
                worst = max(worst, gap - w)
    print(f"PASS criterion 3: balance bounds hold, worst slack use {worst:.2e}")


def test_criterion_4_reference_curve_reproduction(tmp_path):
    out = str(tmp_path / "bench.csv")
    start = time.perf_counter()
    code = main([
        "bench", "--n", "100", "--instances", "50",
        "--m", ",".join(str(m) for m in REFERENCE_CURVE),
        "--methods", "klm,opttrim", "--seed", "0", "--out", out,
    ])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert elapsed < 120.0
    means: dict[tuple[str, int], float] = {}
    with open(out) as fh:
        next(fh)
        for line in fh:
            method, m, mean = line.split(",")[:3]
            means[(method, int(m))] = float(mean)
    for m, ref in REFERENCE_CURVE.items():
        rel = abs(means[("klm", m)] - ref) / ref
        assert rel <= 0.20, (m, means[("klm", m)], ref)
        assert means[("opttrim", m)] > means[("klm", m)], m
    ratio = means[("opttrim", 2)] / means[("klm", 2)]
    assert 1.7 <= ratio <= 2.3
    detail = " ".join(f"m={m}:{means[('klm', m)]:.4f}" for m in REFERENCE_CURVE)
    print(f"PASS criterion 4: curve reproduced ({detail}), opttrim/klm@2 = {ratio:.2f}, {elapsed:.1f}s")


def test_criterion_5_optimality_dominance():
    m_list = list(REFERENCE_CURVE)
    errors = bench_errors(100, 50, m_list, ["klm", "opttrim", "trim"], seed=0)
    for m in m_list:
        klm = errors[("klm", m)]
        opt = errors[("opttrim", m)]
        trim = errors[("trim", m)]
        assert np.all(klm <= opt + TOL), m
        assert np.all(opt <= trim + TOL), m
    print(f"PASS criterion 5: klm <= opttrim <= trim on all 50 instances x {len(m_list)} budgets")


def test_criterion_6_sampling_order_of_magnitude():
    distances = []
    for i in range(50):
        x = bench_instance(100, seed=0, index=i)
        empirical = sample_empirical(x, 10**4, seed=6000 + i)
        distances.append(kolmogorov_distance(empirical, x))
    mean = float(np.mean(distances))
    assert 0.004 <= mean <= 0.015
    print(f"PASS criterion 6: mean empirical d_K {mean:.4f} within [0.004, 0.015]")


def test_criterion_7_pipeline_ordering():
    tree = load_tree(fixture_path("seq10"))
    exact = eval_exact(tree)
    m = 10
    d_klm = kolmogorov_distance(exact, eval_reduced(tree, m, "klm"))
    d_opt = kolmogorov_distance(exact, eval_reduced(tree, m, "opttrim"))
    d_trim = kolmogorov_distance(exact, eval_reduced(tree, m, "trim", eps=1.0 / m))
    assert d_klm < d_opt < d_trim
    print(
        "PASS criterion 7: pipeline ordering "
        f"klm {d_klm:.4f} < opttrim {d_opt:.4f} < trim {d_trim:.4f} (magnitudes reported only)"
    )


def test_criterion_8_complexity_smoke():
    rng = np.random.default_rng(808)
    x1000 = _generic(rng, 1000)
    x2000 = _generic(rng, 2000)

    # The three cases are timed round by round, so a slow spell of a
    # shared host hits all of them alike; each keeps its best of 5.
    cases = [(x2000, 20), (x2000, 40), (x1000, 20)]
    best = [float("inf")] * len(cases)
    for _ in range(5):
        for k, (x, m) in enumerate(cases):
            t0 = time.perf_counter()
            reduce(x, m)
            best[k] = min(best[k], time.perf_counter() - t0)
    t_m20, t_m40, t_n1000 = best
    m_ratio = t_m40 / t_m20
    n_ratio = t_m20 / t_n1000
    assert 1.5 <= m_ratio <= 2.5, m_ratio
    assert 3.0 <= n_ratio <= 5.0, n_ratio
    print(
        f"PASS criterion 8: time scaling m40/m20 = {m_ratio:.2f} (linear in m), "
        f"n2000/n1000 = {n_ratio:.2f} (quadratic in n)"
    )
