"""Spans at the public-function boundaries of kolmoreduce's layer modules.

A traced run wraps every public function of each layer module for the
duration of the traced block only.  Each call made inside an op records a
span (name, start, end, parent span, op id) plus a few counts taken at the
boundary.  Spans stay in memory and are written out when the run ends.

Self time of a span is its duration minus the durations of its children.
``nesting_faults`` checks that the spans form a call tree; when they do,
the self times of all spans of an op sum to the op's root span, which is
the op's measured duration.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Callable

LAYERS = ("reduction", "baselines", "distribution", "pipeline", "io", "cli", "oracle")
ROOT = "op"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: int
    counts: dict | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans.  Only calls made inside ``run_op`` are recorded, so
    set-up and output checks leave no spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op: int | None = None

    @property
    def active(self) -> bool:
        return self._op is not None

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self._op))
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def run_op(self, op_id: int, fn: Callable[[], object]) -> tuple[object, float]:
        """Run ``fn()`` as op ``op_id`` under a root span; returns the output
        and the op's duration.  Exceptions propagate after the span closes."""
        self._op = op_id
        idx = self.open(ROOT)
        try:
            out = fn()
        finally:
            self.close(idx)
            self._op = None
        return out, self.spans[idx].duration

    def write_jsonl(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def _arg(args: tuple, kwargs: dict, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


def dp_cells(n: int, m: int) -> int:
    """Edge evaluations of the layered bottleneck DP: m-1 relaxation layers
    over the n(n-1)/2 ordered pairs.  Computed from (n, m), not measured."""
    return (m - 1) * n * (n - 1) // 2 if m < n else 0


# Counts taken at a boundary, after the span closed: fn(args, kwargs, result).
COUNTERS: dict[str, Callable[[tuple, dict, object], dict]] = {
    "reduction.reduce": lambda a, k, r: {"n_in": _arg(a, k, 0, "x").n, "n_out": r.approx.n},
    "reduction.min_bottleneck_support": lambda a, k, r: {
        "dp_cells": dp_cells(_arg(a, k, 0, "x").n, int(_arg(a, k, 1, "m")))
    },
    "distribution.convolve": lambda a, k, r: {"points_out": r.n},
    "distribution.max_of": lambda a, k, r: {"points_out": r.n},
    "distribution.min_of": lambda a, k, r: {"points_out": r.n},
    "io.read_distribution_file": lambda a, k, r: {
        "bytes": os.path.getsize(_arg(a, k, 0, "path")),
        "rows": r[0].n,
    },
    "io.write_distribution_file": lambda a, k, r: {
        "bytes": os.path.getsize(_arg(a, k, 1, "path")),
        "rows": _arg(a, k, 0, "dist").n,
    },
    "cli.main": lambda a, k, r: {"exit": r},
}


def _traced(recorder: Recorder, name: str, fn: Callable, count) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not recorder.active:
            return fn(*args, **kwargs)
        idx = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(idx)
        if count is not None:
            recorder.spans[idx].counts = count(args, kwargs, result)
        return result

    return wrapper


@contextmanager
def traced_layers(package, recorder: Recorder):
    """Wrap every public function of each layer module of ``package`` for
    the block's duration.  Every module attribute, and every value of a
    module-level dict, bound to a wrapped function is replaced, so calls
    between modules (``from .x import f``) and through dispatch tables are
    traced too; all bindings are restored on exit."""
    prefix = package.__name__
    modules = [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == prefix or name.startswith(prefix + "."))
    ]
    # Attributes, and values of module-level dicts (dispatch tables).
    bindings = [(vars(mod), list(vars(mod).items())) for mod in modules]
    bindings += [
        (table, list(table.items()))
        for mod in modules for key, table in list(vars(mod).items())
        if type(table) is dict and not key.startswith("__")
    ]
    replaced: list[tuple[dict, str, Callable]] = []
    try:
        for layer in LAYERS:
            mod = sys.modules[f"{prefix}.{layer}"]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapper = _traced(recorder, name, fn, COUNTERS.get(name))
                for namespace, items in bindings:
                    for key, value in items:
                        if value is fn:
                            namespace[key] = wrapper
                            replaced.append((namespace, key, fn))
        yield
    finally:
        for namespace, key, fn in reversed(replaced):
            namespace[key] = fn


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.duration
    return own


def nesting_faults(spans: list[Span]) -> list[str]:
    """Spans that break the call tree: a span that ends before it starts,
    a child outside its parent's interval or of another op, or a span that
    starts before its previous sibling ended.  With none, every self time
    is non-negative and the self times of an op's spans sum to its root
    span, which is the op's measured duration."""
    faults = []
    last_end: dict[int, float] = {}
    for i, s in enumerate(spans):
        if s.end < s.start:
            faults.append(f"span {i} {s.name} ends before it starts")
        if s.parent >= 0:
            p = spans[s.parent]
            if s.parent >= i or s.op != p.op or not p.start <= s.start <= s.end <= p.end:
                faults.append(f"span {i} {s.name} lies outside its parent {s.parent} {p.name}")
        if s.start < last_end.get(s.parent, s.start):
            faults.append(f"span {i} {s.name} overlaps an earlier sibling")
        last_end[s.parent] = s.end
    return faults


def _outermost(spans: list[Span], match: Callable[[Span], bool]) -> list[Span]:
    """Matching spans with no matching ancestor, so nested calls (recursion,
    a layer calling itself) are counted once."""
    hit = [match(s) for s in spans]
    out = []
    for i, s in enumerate(spans):
        if not hit[i]:
            continue
        p = s.parent
        while p >= 0 and not hit[p]:
            p = spans[p].parent
        if p < 0:
            out.append(s)
    return out


def _under(spans: list[Span], s: Span, name: str) -> bool:
    p = s.parent
    while p >= 0:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and busy times over every recorded op.

    ``<layer>.calls`` counts calls into the layer from outside it and
    ``<layer>.busy_s`` sums their durations; ``*.self_s`` sums self times
    of the layer's spans; the other ``*_s`` sum the outermost spans of the
    named functions.
    """
    own = self_times(spans)

    def names(*fns: str) -> Callable[[Span], bool]:
        return lambda s: s.name in fns

    def layer(name: str) -> Callable[[Span], bool]:
        return lambda s: s.layer == name

    def busy(match) -> float:
        return sum(s.duration for s in _outermost(spans, match))

    def calls(match) -> int:
        return len(_outermost(spans, match))

    def count(name: str, key: str, match=None) -> int:
        return sum(
            s.counts[key] for s in spans
            if s.name == name and s.counts is not None and (match is None or match(s))
        )

    def self_s(name: str) -> float:
        return sum(t for s, t in zip(spans, own) if s.layer == name)

    support_s = busy(names("reduction.min_bottleneck_support"))
    cells = count("reduction.min_bottleneck_support", "dp_cells")
    in_pipeline = lambda s: _under(spans, s, "pipeline.eval_reduced")  # noqa: E731
    kept_in = count("reduction.reduce", "n_in", in_pipeline)
    kept_out = count("reduction.reduce", "n_out", in_pipeline)
    read_s = busy(names("io.read_distribution_file"))
    read_bytes = count("io.read_distribution_file", "bytes")
    return {
        "reduction.calls": calls(layer("reduction")),
        "reduction.busy_s": busy(layer("reduction")),
        "reduction.support_s": support_s,
        "reduction.construct_s": busy(names("reduction.construct_on_support")),
        "reduction.points_in": count("reduction.reduce", "n_in"),
        "reduction.dp_cells": cells,
        "reduction.cells_per_s": cells / support_s if support_s > 0 else 0.0,
        "baselines.calls": calls(layer("baselines")),
        "baselines.opt_trim_s": busy(names("baselines.opt_trim")),
        "baselines.trim_s": busy(names("baselines.trim_epsilon")),
        "baselines.sample_s": busy(names("baselines.sample_reduce")),
        "distribution.combine_calls": calls(names(
            "distribution.convolve", "distribution.max_of", "distribution.min_of")),
        "distribution.combine_s": busy(names(
            "distribution.convolve", "distribution.max_of", "distribution.min_of")),
        "distribution.combine_points_out": sum(
            count(f"distribution.{fn}", "points_out") for fn in ("convolve", "max_of", "min_of")
        ),
        "distribution.distance_s": busy(names(
            "distribution.kolmogorov_distance", "distribution.one_sided_distance")),
        "distribution.build_s": busy(names("distribution.make_distribution")),
        "distribution.sample_s": busy(names("distribution.sample_empirical")),
        "pipeline.trees": calls(names("pipeline.run_pipeline")),
        "pipeline.exact_s": busy(names("pipeline.eval_exact")),
        "pipeline.reduced_s": busy(names("pipeline.eval_reduced")),
        "pipeline.self_s": self_s("pipeline"),
        "pipeline.kept_ratio": kept_out / kept_in if kept_in else 0.0,
        "io.read_s": read_s,
        "io.read_bytes": read_bytes,
        "io.read_rows": count("io.read_distribution_file", "rows"),
        "io.write_s": busy(names("io.write_distribution_file")),
        "io.write_bytes": count("io.write_distribution_file", "bytes"),
        "io.write_rows": count("io.write_distribution_file", "rows"),
        "io.read_mb_per_s": read_bytes / 1e6 / read_s if read_s > 0 else 0.0,
        "cli.calls": calls(names("cli.main")),
        "cli.self_s": self_s("cli"),
        "cli.nonzero_exits": sum(
            1 for s in spans if s.name == "cli.main" and s.counts and s.counts["exit"] != 0
        ),
    }
