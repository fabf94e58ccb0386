#!/usr/bin/env python3
"""Deadline probabilities for task trees, exact versus reduced.

Summing task durations convolves their distributions, so supports grow
multiplicatively and exact evaluation stops scaling.  Reducing every
intermediate result back to m points keeps the fold cheap; each individual
reduction is optimal, the composed result is merely good.  This demo runs
the two shipped fixtures: a chain of ten sequential tasks and a parallel
plan taking the max of three three-task chains.
"""

import numpy as np

from kolmoreduce import (
    eval_exact,
    eval_reduced,
    fixture_path,
    kolmogorov_distance,
    load_tree,
    run_pipeline,
)

for name, deadlines in [("seq10", (25.0, 35.0, 45.0, 55.0)),
                        ("maxtree3x3", (8.0, 12.0, 16.0, 20.0))]:
    tree = load_tree(fixture_path(name))
    exact = eval_exact(tree)
    print(f"=== fixture {name}: exact support {exact.n} points ===")

    for method, kwargs in [("klm", {}), ("opttrim", {}), ("trim", {"eps": 0.1})]:
        reduced = eval_reduced(tree, 10, method, **kwargs)
        d = kolmogorov_distance(exact, reduced)
        print(f"  {method:8s} m=10 -> support {reduced.n:3d}, d_K to exact = {d:.5f}")

    report = run_pipeline(tree, deadlines, m=10, method="klm")
    print(f"  deadline table (klm, m=10, overall d_K = {report.d_k:.5f}):")
    print("    t      F_exact   F_reduced    |gap|")
    for t, fe, fa, gap in report.rows:
        print(f"    {t:5.1f}  {fe:8.5f}  {fa:10.5f}  {gap:8.5f}")
    print()

# The reducer only fires when an intermediate support exceeds the budget, so
# a generous budget reproduces the exact fold bit for bit.
tree = load_tree(fixture_path("seq10"))
assert eval_reduced(tree, 10**6, "klm") == eval_exact(tree)
print("sanity: infinite-budget reduced fold equals the exact fold")

# Per-step optimality does not compose, but the end-to-end error stays below
# the sum of the per-step certificates.
steps = []
reduced = eval_reduced(tree, 10, "klm",
                       on_reduce=lambda before, after: steps.append((before, after)))
per_step = [kolmogorov_distance(b, a) for b, a in steps]
total = kolmogorov_distance(eval_exact(tree), reduced)
print(f"per-step errors sum to {sum(per_step):.5f}; composed error is {total:.5f}")
