import json
import math

import numpy as np
import pytest

from kolmoreduce import (
    METHODS,
    BadMError,
    CumulativeView,
    SupportExplosionError,
    approximator,
    eval_exact,
    eval_reduced,
    fixture_path,
    kolmogorov_distance,
    leaf,
    load_tree,
    make_distribution,
    max_node,
    min_node,
    reduce,
    run_pipeline,
    seq,
    tree_from_json,
)
from kolmoreduce.distribution import MASS_TOL

from generators import binomial, random_distribution

COIN = make_distribution([(0, 0.5), (1, 0.5)])
UNIFORM10 = make_distribution([(v, 0.1) for v in range(10)])


def delta(v):
    return make_distribution([(v, 1.0)])


# Total mass 1 + 9e-10: inside MASS_TOL, but a combine of two is not.
DRIFTED = make_distribution([(0, 0.5), (1, 0.5 + 9e-10)])


class TestTreeConstruction:
    def test_leaf_needs_distribution(self):
        with pytest.raises(ValueError):
            tree_from_json({"kind": "leaf"})

    def test_internal_needs_children(self):
        with pytest.raises(ValueError):
            seq()

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            tree_from_json({"kind": "sum", "children": []})

    def test_inline_leaf(self):
        tree = tree_from_json(
            {"kind": "leaf", "inline": {"values": [1, 2], "probs": [0.5, 0.5]}}
        )
        assert tree.dist == make_distribution([(1, 0.5), (2, 0.5)])

    @pytest.mark.parametrize("inline", [
        {"values": [1, 2, 3], "probs": [0.5, 0.5]},
        {"values": [{}], "probs": [1]},
        {"values": {}, "probs": {}},
        {"values": 1, "probs": 1},
    ])
    def test_bad_inline_leaf_raises_value_error(self, inline):
        with pytest.raises(ValueError):
            tree_from_json({"kind": "leaf", "inline": inline})

    def test_file_leaf_resolves_relative_to_tree(self, tmp_path):
        (tmp_path / "inner").mkdir()
        (tmp_path / "inner" / "d.csv").write_text("value,probability\n1,0.5\n2,0.5\n")
        tree_file = tmp_path / "inner" / "tree.json"
        tree_file.write_text(json.dumps({"kind": "leaf", "file": "d.csv"}))
        tree = load_tree(str(tree_file))
        assert tree.dist == make_distribution([(1, 0.5), (2, 0.5)])


class TestEvalExact:
    def test_leaf_passthrough(self):
        assert eval_exact(leaf(COIN)) == COIN

    def test_seq_of_deltas(self):
        assert eval_exact(seq(leaf(delta(1)), leaf(delta(2)))) == delta(3)

    def test_seq_of_coins(self):
        expected = make_distribution([(0, 0.25), (1, 0.5), (2, 0.25)])
        assert eval_exact(seq(leaf(COIN), leaf(COIN))) == expected

    def test_max_and_min_nodes(self):
        assert eval_exact(max_node(leaf(delta(1)), leaf(delta(2)))) == delta(2)
        assert eval_exact(min_node(leaf(COIN), leaf(COIN))) == make_distribution(
            [(0, 0.75), (1, 0.25)]
        )

    def test_cap_explosion(self):
        tree = seq(*[leaf(UNIFORM10) for _ in range(4)])
        with pytest.raises(SupportExplosionError):
            eval_exact(tree, cap=20)


class TestEvalReduced:
    def test_no_trigger_means_exact(self):
        tree = seq(leaf(COIN), leaf(COIN), leaf(COIN))
        assert eval_reduced(tree, 10, "klm") == eval_exact(tree)

    def test_bad_budget(self):
        with pytest.raises(BadMError):
            eval_reduced(leaf(COIN), 0, "klm")

    def test_trim_needs_eps_and_sample_needs_samples(self):
        with pytest.raises(ValueError):
            eval_reduced(leaf(COIN), 1, "trim")
        with pytest.raises(ValueError):
            eval_reduced(leaf(COIN), 1, "sample")
        with pytest.raises(ValueError, match="unknown"):
            approximator("magic", 4)
        with pytest.raises(ValueError, match="eps"):
            approximator("trim", 4)
        with pytest.raises(ValueError, match="samples"):
            approximator("sample", 4)
        for method in ("klm", "opttrim", "sample"):
            with pytest.raises(ValueError, match="budget"):
                approximator(method, None, samples=100)

    def test_every_method_reports_its_distance(self):
        for method in METHODS:
            approx, d = approximator(method, 4, eps=0.25, samples=500, seed=1)(UNIFORM10)
            assert abs(d - kolmogorov_distance(UNIFORM10, approx)) <= 1e-12

    def test_wide_leaf_reduced_on_entry(self):
        out = eval_reduced(leaf(UNIFORM10), 4, "klm")
        assert out.n <= 4

    def test_error_below_sum_of_step_optima(self):
        tree = seq(*[leaf(UNIFORM10) for _ in range(10)])
        exact = eval_exact(tree)
        assert exact.n == 91
        steps = []
        reduced = eval_reduced(
            tree, 10, "klm", on_reduce=lambda before, after: steps.append((before, after))
        )
        per_step = [kolmogorov_distance(b, a) for b, a in steps]
        assert steps
        assert kolmogorov_distance(exact, reduced) <= sum(per_step) + 1e-12

    def test_each_step_carries_the_optimality_certificate(self):
        tree = seq(*[leaf(UNIFORM10) for _ in range(5)])
        observed = []
        eval_reduced(tree, 8, "klm", on_reduce=lambda b, a: observed.append((b, a)))
        for before, after in observed:
            again = reduce(before, 8)
            assert abs(kolmogorov_distance(before, after) - again.distance) <= 1e-12

    def test_deadline_cdfs_are_monotone(self):
        tree = seq(*[leaf(UNIFORM10) for _ in range(6)])
        ts = np.linspace(-5, 60, 40)
        for d in (eval_exact(tree), eval_reduced(tree, 7, "klm")):
            f = CumulativeView(d).at(ts)
            assert np.all(np.diff(f) >= 0)

    @pytest.mark.parametrize("node", [seq, max_node, min_node])
    def test_deep_chains_of_drifted_leaves(self, node):
        tree = node(*[leaf(DRIFTED) for _ in range(12)])
        exact = eval_exact(tree)
        assert abs(exact.cdf.total - 1.0) <= MASS_TOL
        assert eval_reduced(tree, 13, "klm") == exact
        for m in (1, 2, 4):
            reduced = eval_reduced(tree, m, "klm")
            assert reduced.n <= m
            assert abs(reduced.cdf.total - 1.0) <= MASS_TOL


class TestShippedFixture:
    def test_seq10_method_ordering(self):
        tree = load_tree(fixture_path("seq10"))
        exact = eval_exact(tree)
        assert exact.n == 91
        m = 10
        d_klm = kolmogorov_distance(exact, eval_reduced(tree, m, "klm"))
        d_opt = kolmogorov_distance(exact, eval_reduced(tree, m, "opttrim"))
        d_trim = kolmogorov_distance(exact, eval_reduced(tree, m, "trim", eps=1.0 / m))
        assert d_klm < d_opt < d_trim

    def test_maxtree_evaluates(self):
        tree = load_tree(fixture_path("maxtree3x3"))
        exact = eval_exact(tree)
        reduced = eval_reduced(tree, 8, "klm")
        assert reduced.n <= 8
        assert kolmogorov_distance(exact, reduced) < 0.2


class TestRunPipeline:
    def test_single_leaf_generous_budget(self):
        report = run_pipeline(leaf(UNIFORM10), [2.0, 5.0, 20.0], m=10)
        assert report.d_k == 0.0
        assert all(row[3] == 0.0 for row in report.rows)

    def test_deadline_below_support(self):
        report = run_pipeline(leaf(COIN), [-1.0], m=5)
        assert report.rows[0][1] == 0.0
        assert report.rows[0][2] == 0.0

    def test_dk_bounds_deadline_gaps(self):
        rng = np.random.default_rng(3)
        tree = seq(*[leaf(random_distribution(rng, n=12)) for _ in range(5)])
        report = run_pipeline(tree, np.linspace(0, 60, 25), m=6)
        assert report.d_k >= max(row[3] for row in report.rows) - 1e-12

    def test_sum_of_binomials_whose_outer_masses_underflow(self):
        b = binomial(600)
        report = run_pipeline(seq(leaf(b), leaf(b)), [600.0], 64)
        assert report.exact_support_size < 1201
        assert report.approx_support_size <= 64
        _, f_exact, _, delta = report.rows[0]
        assert abs(f_exact - 0.5 - math.comb(1200, 600) / 2**1201) <= 1e-12
        assert delta <= report.d_k < 0.05

    def test_reduced_matches_exact_under_huge_budget(self):
        tree = seq(leaf(UNIFORM10), leaf(UNIFORM10))
        report = run_pipeline(tree, [5.0], m=10**6)
        assert report.d_k == 0.0
        assert report.exact_support_size == report.approx_support_size
