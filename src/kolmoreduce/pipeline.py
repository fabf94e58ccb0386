"""Repetitive reduction over task trees for deadline-probability estimation.

A task tree combines leaf distributions with sequential composition (sum of
durations), parallel-max, or parallel-min.  Exact evaluation folds the
combinators directly; reduced evaluation interleaves a support-size reducer
so intermediate supports never blow up.  The composed result is no longer
globally optimal, only each individual reduction step is.

Trees are read from JSON: ``io`` parses the tree file and reads each leaf's
table, inline or from its own file, so a tree's input faults are those of
the distribution files.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from importlib import resources
from typing import Callable

import numpy as np

from .baselines import approximator
from .distribution import (
    DiscreteDistribution,
    convolve,
    kolmogorov_distance,
    max_of,
    min_of,
)
from .errors import SupportExplosionError
from .io import _load_json, _table_from_object, read_distribution_file
# perfbench's tracer test reads pipeline.reduce, so the name stays bound here.
from .reduction import _check_m, reduce  # noqa: F401

# Exact evaluation refuses to grow an intermediate support beyond this.
DEFAULT_CAP = 10**6

_COMBINE: dict[str, Callable[[DiscreteDistribution, DiscreteDistribution], DiscreteDistribution]] = {
    "seq": convolve,
    "max": max_of,
    "min": min_of,
}


@dataclass(frozen=True)
class TaskTree:
    """Expression tree node: a leaf distribution or a combinator over
    non-empty children, folded left to right in listed order."""

    kind: str
    children: tuple["TaskTree", ...] = ()
    dist: DiscreteDistribution | None = None

    def __post_init__(self) -> None:
        if self.kind == "leaf":
            if self.dist is None or self.children:
                raise ValueError("a leaf node carries exactly one distribution")
        elif self.kind in _COMBINE:
            if not self.children or self.dist is not None:
                raise ValueError(f"a {self.kind!r} node needs children and no distribution")
        else:
            raise ValueError(f"unknown node kind {self.kind!r}")


def leaf(dist: DiscreteDistribution) -> TaskTree:
    return TaskTree("leaf", dist=dist)


def seq(*children: TaskTree) -> TaskTree:
    return TaskTree("seq", children=tuple(children))


def max_node(*children: TaskTree) -> TaskTree:
    return TaskTree("max", children=tuple(children))


def min_node(*children: TaskTree) -> TaskTree:
    return TaskTree("min", children=tuple(children))


def tree_from_json(obj: dict, base_dir: str | None = None) -> TaskTree:
    """Build a tree from its JSON object form.

    Internal nodes are ``{"kind": "seq"|"max"|"min", "children": [...]}``;
    leaves are ``{"kind": "leaf", "inline": {"values": [...], "probs": [...]}}``
    or ``{"kind": "leaf", "file": "path"}`` with the path resolved against
    ``base_dir`` (the tree file's directory when loaded from disk).  A
    malformed node raises ``ValueError``.
    """
    if not isinstance(obj, dict) or not isinstance(obj.get("kind"), str):
        raise ValueError("tree node must be an object with a 'kind' field naming its kind")
    kind = obj["kind"]
    if kind == "leaf":
        if "inline" in obj:
            dist = _table_from_object(obj["inline"], "inline leaf")
        elif "file" in obj:
            path = obj["file"]
            if not isinstance(path, str):
                raise ValueError(f"leaf 'file' must be a path string, got {type(path).__name__}")
            if base_dir is not None and not os.path.isabs(path):
                path = os.path.join(base_dir, path)
            dist, _ = read_distribution_file(path)
        else:
            raise ValueError("leaf node needs an 'inline' table or a 'file' path")
        return leaf(dist)
    children = obj.get("children") or []
    if not isinstance(children, list):
        raise ValueError(f"a {kind!r} node's 'children' must be a list, got {type(children).__name__}")
    return TaskTree(kind, children=tuple(tree_from_json(c, base_dir) for c in children))


def load_tree(path: str) -> TaskTree:
    """Read a task tree from a JSON file; leaf file paths resolve relative
    to the tree file's directory."""
    return tree_from_json(_load_json(path), base_dir=os.path.dirname(os.path.abspath(path)))


def fixture_path(name: str) -> str:
    """Filesystem path of a benchmark tree shipped with the package."""
    return str(resources.files("kolmoreduce").joinpath("fixtures", f"{name}.json"))


def _fold(
    tree: TaskTree, after: Callable[[DiscreteDistribution], DiscreteDistribution]
) -> DiscreteDistribution:
    """Fold the tree left to right, passing every leaf's distribution and
    every combine's output through ``after``."""
    if tree.kind == "leaf":
        return after(tree.dist)
    combine = _COMBINE[tree.kind]
    acc = _fold(tree.children[0], after)
    for child in tree.children[1:]:
        acc = after(combine(acc, _fold(child, after)))
    return acc


def eval_exact(tree: TaskTree, cap: int = DEFAULT_CAP) -> DiscreteDistribution:
    """Fold the tree without any reduction.

    Raises ``SupportExplosionError`` as soon as an intermediate support
    exceeds ``cap`` points.
    """

    def guard(d: DiscreteDistribution) -> DiscreteDistribution:
        if d.n > cap:
            raise SupportExplosionError(
                f"intermediate support of {d.n} points exceeds the cap of {cap}"
            )
        return d

    return _fold(tree, guard)


def eval_reduced(
    tree: TaskTree,
    m: int,
    method: str = "klm",
    *,
    eps: float | None = None,
    samples: int | None = None,
    seed: int = 0,
    on_reduce: Callable[[DiscreteDistribution, DiscreteDistribution], None] | None = None,
) -> DiscreteDistribution:
    """Fold the tree, reducing whenever a support grows beyond ``m``.

    Leaves wider than ``m`` are reduced on entry; every combine whose output
    exceeds ``m`` points is reduced right after.  ``on_reduce(before, after)``
    is invoked at each reduction step, for instrumentation.
    """
    m = _check_m(m)
    reducer = approximator(method, m, eps=eps, samples=samples, seed=seed)

    def shrink(d: DiscreteDistribution) -> DiscreteDistribution:
        if d.n <= m:
            return d
        reduced, _ = reducer(d)
        if on_reduce is not None:
            on_reduce(d, reduced)
        return reduced

    return _fold(tree, shrink)


@dataclass(frozen=True)
class PipelineReport:
    """Exact-versus-reduced comparison: support sizes, overall Kolmogorov
    distance, and one row (t, F_exact(t), F_approx(t), |delta|) per
    requested deadline."""

    exact_support_size: int
    approx_support_size: int
    d_k: float
    rows: tuple[tuple[float, float, float, float], ...] = field(default_factory=tuple)


def run_pipeline(
    tree: TaskTree,
    deadlines,
    m: int,
    method: str = "klm",
    *,
    eps: float | None = None,
    samples: int | None = None,
    seed: int = 0,
    cap: int = DEFAULT_CAP,
) -> PipelineReport:
    """Evaluate a tree exactly and with interleaved reduction, and report
    deadline-probability errors."""
    exact = eval_exact(tree, cap)
    approx = eval_reduced(tree, m, method, eps=eps, samples=samples, seed=seed)
    ts = np.asarray(deadlines, dtype=np.float64)
    fe = exact.cdf.at(ts)
    fa = approx.cdf.at(ts)
    rows = zip(ts.tolist(), fe.tolist(), fa.tolist(), np.abs(fe - fa).tolist())
    return PipelineReport(
        exact_support_size=exact.n,
        approx_support_size=approx.n,
        d_k=kolmogorov_distance(exact, approx),
        rows=tuple(rows),
    )
