"""Tests of the benchmark itself: seeded inputs, span arithmetic, checks."""

import os

import numpy as np
import pytest

import run
import spans
from spans import Span
from workloads import DeadlineTree, Files, LargeN, Sweep, read_table


class SmallFiles(Files):
    """The files workload on small tables, so tests stay fast."""

    pair_rows = 3000
    min_rows = 500
    max_rows = 2500
    reduce_rows = 1500


def _inputs(wl, i):
    """Everything op i hands to the program, as comparable arrays/bytes."""
    op = wl.make(i)
    spec = op.spec
    try:
        if isinstance(wl, (Sweep, LargeN)):
            return [spec["x"].values, spec["x"].probs, spec["m"]]
        if isinstance(wl, DeadlineTree):
            return [spec["cdf"], spec["m"]]
        contents = []
        for path in spec["files"]:
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    contents.append(fh.read())
        return contents
    finally:
        wl.finish(op)


@pytest.mark.parametrize("cls", [Sweep, LargeN, DeadlineTree, SmallFiles])
def test_inputs_identical_for_same_seed(kr, tmp_path, cls):
    ops = range(0, 2 * cls.round_ops, max(1, cls.round_ops // 3))
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    first = [_inputs(cls(kr, 7, str(dirs[0])), i) for i in ops]
    again = [_inputs(cls(kr, 7, str(dirs[1])), i) for i in ops]
    other = [_inputs(cls(kr, 8, str(dirs[2])), i) for i in ops]

    def same(a, b):
        return all(
            np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
            for x, y in zip(a, b)
        )

    assert all(same(a, b) for a, b in zip(first, again))
    assert not all(same(a, b) for a, b in zip(first, other))


def test_self_times_on_hand_built_tree():
    # op [0, 10] -> a [1, 4], b [5, 9] -> c [6, 7]; a second op [20, 22].
    tree = [
        Span("op", 0.0, 10.0, -1, 0),
        Span("pipeline.run_pipeline", 1.0, 4.0, 0, 0),
        Span("pipeline.eval_reduced", 5.0, 9.0, 0, 0),
        Span("reduction.reduce", 6.0, 7.0, 2, 0, {"n_in": 40, "n_out": 10}),
        Span("op", 20.0, 22.0, -1, 1),
    ]
    assert spans.self_times(tree) == [3.0, 3.0, 3.0, 1.0, 2.0]
    assert spans.nesting_faults(tree) == []
    metrics = spans.layer_metrics(tree)
    assert metrics["pipeline.self_s"] == 6.0
    assert metrics["pipeline.trees"] == 1
    assert metrics["pipeline.reduced_s"] == 4.0
    assert metrics["reduction.busy_s"] == 1.0
    assert metrics["pipeline.kept_ratio"] == 0.25


def test_broken_nesting_is_reported():
    tree = [
        Span("op", 0.0, 10.0, -1, 0),
        Span("pipeline.run_pipeline", 1.0, 4.0, 0, 0),
        Span("pipeline.eval_reduced", 3.0, 9.0, 0, 0),  # overlaps its sibling
        Span("reduction.reduce", 8.0, 11.0, 2, 0),  # ends after its parent
        Span("op", 20.0, 22.0, -1, 1),
        Span("reduction.reduce", 21.0, 21.5, 4, 0),  # parent is another op's
    ]
    faults = spans.nesting_faults(tree)
    assert len(faults) == 3
    assert "overlaps" in faults[0] and "span 3" in faults[1] and "span 5" in faults[2]


def test_nested_calls_of_one_function_count_once():
    tree = [
        Span("op", 0.0, 10.0, -1, 0),
        Span("pipeline.eval_exact", 1.0, 9.0, 0, 0),
        Span("pipeline.eval_exact", 2.0, 4.0, 1, 0),
        Span("distribution.convolve", 5.0, 6.0, 1, 0, {"points_out": 7}),
    ]
    metrics = spans.layer_metrics(tree)
    assert metrics["pipeline.exact_s"] == 8.0
    assert metrics["pipeline.self_s"] == 7.0
    assert metrics["distribution.combine_calls"] == 1
    assert metrics["distribution.combine_points_out"] == 7


def test_traced_run_records_layers_and_restores_bindings(kr, tmp_path):
    original = (kr.reduce, kr.pipeline.reduce, kr.cli.main, kr.pipeline._COMBINE["seq"])
    recorder = spans.Recorder()
    files = SmallFiles(kr, 3, str(tmp_path))
    tree = DeadlineTree(kr, 3, str(tmp_path))
    with spans.traced_layers(kr, recorder):
        for i, wl in enumerate((files, files, tree)):
            op = wl.make(i)
            out, seconds = recorder.run_op(i, op.run)
            assert wl.verify(op, out) == []
            wl.finish(op)
    assert (kr.reduce, kr.pipeline.reduce, kr.cli.main, kr.pipeline._COMBINE["seq"]) == original
    assert spans.nesting_faults(recorder.spans) == []
    metrics = spans.layer_metrics(recorder.spans)
    assert metrics["cli.calls"] == 2
    assert metrics["io.read_rows"] == SmallFiles.pair_rows + SmallFiles.reduce_rows
    assert metrics["io.write_rows"] > 0
    assert metrics["pipeline.trees"] == 1
    assert metrics["distribution.combine_calls"] > 0
    cli_ops = {s.op for s in recorder.spans if s.name == "cli.main"}
    assert not any(s.layer == "reduction" and s.op in cli_ops for s in recorder.spans)


def _shift(kr, dist, delta=1e-6):
    probs = dist.probs.copy()
    probs[0] += delta
    probs[-1] -= delta
    return kr.DiscreteDistribution(dist.values, probs)


@pytest.mark.parametrize("cls", [Sweep, LargeN])
def test_tampered_reduction_counts_as_failed(kr, tmp_path, cls):
    wl = cls(kr, 5, str(tmp_path))
    assert run.run_one(wl, 0, run.untraced).problems == []

    def tampered(op):
        out, seconds = run.untraced(op)
        return kr.ReductionResult(_shift(kr, out.approx), out.selection, out.distance), seconds

    record = run.run_one(wl, 0, tampered)
    assert record.problems and record.dk is None


def test_tampered_pipeline_report_counts_as_failed(kr, tmp_path):
    wl = DeadlineTree(kr, 5, str(tmp_path))

    def tampered(op):
        out, seconds = run.untraced(op)
        return kr.PipelineReport(out.exact_support_size, out.approx_support_size,
                                 out.d_k + 1e-6, out.rows), seconds

    assert run.run_one(wl, 0, tampered).problems


def test_tampered_written_file_counts_as_failed(kr, tmp_path):
    wl = SmallFiles(kr, 5, str(tmp_path))
    assert run.run_one(wl, 1, run.untraced).problems == []

    def tampered(op):
        out, seconds = run.untraced(op)
        values, probs = read_table(op.spec["out"])
        probs[0] += 1e-6
        probs[-1] -= 1e-6
        kr.write_distribution_file(kr.DiscreteDistribution(values, probs), op.spec["out"])
        return out, seconds

    assert run.run_one(wl, 1, tampered).problems


def test_raising_op_counts_as_failed(kr, tmp_path):
    wl = LargeN(kr, 5, str(tmp_path))

    def broken(op):
        raise RuntimeError("boom")

    record = run.run_one(wl, 0, broken)
    assert record.problems == ["raised RuntimeError: boom"]


def test_tail_has_ten_samples_above():
    value, pct = run.tail([float(v) for v in range(1, 101)])
    assert value == 90.0 and pct == 90.0
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_setup_is_timed_in_fresh_interpreters(tmp_path):
    times = run.time_setup("large-n", str(tmp_path))
    assert len(times) == run.SETUP_REPS
    assert all(0.0 < t < 60.0 for t in times)
