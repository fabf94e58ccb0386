"""kolmoreduce benchmark: one workload per run, closed loop, one caller.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  The run times set-up (first import of ``kolmoreduce``
plus warm-up calls) in several fresh interpreters, sets up once in its own
process, runs ops back to back for ``--seconds`` seconds, checks every op's
output, and prints a summary followed by one JSON line with the end-to-end
metrics (``--trace 0``) or, after a traced replay of the workload's
reference ops, the per-layer metrics (``--trace 1``).  Exit code 0 means
every output passed its check; 1 means some failed; 2 means the run could
not start.  See NOTES.md.
"""

from __future__ import annotations

import os

# One process and no worker threads: numpy's thread pools are sized at
# import, so these must be set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

CHECKOUT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(CHECKOUT, "src")
PROBE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "setup_probe.py")
SETUP_REPS = 5
TRACE_DIR = os.path.join(CHECKOUT, ".perfbench-traces")


@dataclass
class Record:
    index: int
    seconds: float
    problems: list
    dk: float | None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def time_setup(workload: str, workdir: str) -> list[float]:
    """``setup_s`` samples: SETUP_REPS fresh interpreters, one after the
    other, each timing its first import of the program plus the warm-up."""
    times = []
    for _ in range(SETUP_REPS):
        proc = subprocess.run(
            [sys.executable, PROBE, workload, workdir],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return times


def set_up(cls: type[Workload], seed: int, workdir: str) -> Workload:
    """Import the program into this process and make the warm-up calls."""
    raw = cls.warm_up_inputs(workdir)
    kr = importlib.import_module("kolmoreduce")
    importlib.import_module("kolmoreduce.cli")
    if not os.path.realpath(kr.__file__).startswith(os.path.realpath(SRC) + os.sep):
        raise RuntimeError(f"kolmoreduce imported from {kr.__file__}, not from {SRC}")
    wl = cls(kr, seed, workdir)
    wl.warm_up(raw)
    return wl


def run_one(wl: Workload, i: int, runner) -> Record:
    op = wl.make(i)
    t0 = time.perf_counter()
    try:
        out, seconds = runner(op)
        problems = wl.verify(op, out)
    except Exception as exc:  # an op that raises counts as failed, the run goes on
        out, seconds = None, time.perf_counter() - t0
        problems = [f"raised {type(exc).__name__}: {exc}"]
    finally:
        wl.finish(op)
    dk = wl.dk(op, out) if not problems else None
    return Record(i, seconds, problems, dk)


def untraced(op) -> tuple[object, float]:
    t0 = time.perf_counter()
    out = op.run()
    return out, time.perf_counter() - t0


def traced(kr, recorder: spans.Recorder):
    """Runner that wraps the layers for one op only and times the op by its
    root span; wrapping and unwrapping fall outside that span."""
    def runner(op) -> tuple[object, float]:
        with spans.traced_layers(kr, recorder):
            return recorder.run_op(op.index, op.run)
    return runner


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten samples above it,
    and that percentile."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "kolmoreduce", "__init__.py")):
        print(f"error: no kolmoreduce sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(CHECKOUT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, SRC)

    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=CHECKOUT)
    try:
        return measure(args, spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, spec: dict, workdir: str) -> int:
    setup_times = time_setup(args.workload, workdir)
    wl = set_up(WORKLOADS[args.workload], args.seed, workdir)

    records: list[Record] = []
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline:
        for _ in range(wl.round_ops):
            records.append(run_one(wl, len(records), untraced))
    timed = len(records)
    # Reference ops not reached in time are still run, untimed, so mean_dk
    # and the traced replay cover the same ops on every run.
    while len(records) < wl.reference_ops:
        records.append(run_one(wl, len(records), untraced))
    reference = records[: wl.reference_ops]

    # Each reference op runs once traced and once untraced, back to back in
    # alternating order, so a drift of the machine's speed during the run
    # does not show up as tracing overhead.  The layers are wrapped only
    # while the traced run of an op lasts, so the untraced twin runs the
    # program's own functions.
    replay: list[Record] = []
    twins: list[Record] = []
    recorder = spans.Recorder()
    if args.trace:
        runner = traced(wl.kr, recorder)
        for i in range(wl.reference_ops):
            if i % 2:
                replay.append(run_one(wl, i, runner))
            twins.append(run_one(wl, i, untraced))
            if not i % 2:
                replay.append(run_one(wl, i, runner))
    oracle_checks, oracle_mismatches = wl.oracle_checks()

    failures = [r for r in records + replay + twins if r.problems]
    for r in failures[:5]:
        print(f"FAILED op {r.index}: {'; '.join(r.problems)}", file=sys.stderr)
    nesting = spans.nesting_faults(recorder.spans)
    for fault in nesting[:5]:
        print(f"TRACE: {fault}", file=sys.stderr)
    correct = not failures and oracle_mismatches == 0 and not nesting
    attempted = len(records) + len(replay) + len(twins)

    dks = [r.dk for r in reference if r.dk is not None]
    latencies = [r.seconds for r in records[:timed]]
    tail_ms, tail_pct = tail(latencies)
    e2e = {
        "ops_per_s": timed / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail_ms * 1e3,
        "mean_dk": statistics.fmean(dks) if dks else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup_times),
    }

    print(
        f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
        f"nproc={os.cpu_count()} cpu={cpu_model()!r} python={platform.python_version()} "
        f"numpy={np.__version__}"
    )
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    notes = {
        "ops_per_s": f"{timed} ops in {sum(latencies):.3f} s of op time",
        "op_tail_ms": f"p{tail_pct:.2f} of {timed} samples, {min(10, timed - 1)} above",
        "mean_dk": f"over the {wl.reference_ops} reference ops",
        "setup_s": f"median of {SETUP_REPS} fresh interpreters: " + " ".join(f"{t:.4f}" for t in setup_times),
    }
    for name, value in e2e.items():
        print(f"  {name:<14} {value:.6g} {units[name]}  {notes.get(name, '')}".rstrip())
    print(f"  {'failed_frac':<14} {len(failures) / attempted:.6g}  ({len(failures)} of {attempted})")
    print(f"  {'oracle':<14} {oracle_checks} checks, {oracle_mismatches} mismatches")

    if args.trace:
        untraced_s = sum(r.seconds for r in twins)
        traced_s = sum(r.seconds for r in replay)
        per_layer = spans.layer_metrics(recorder.spans)
        per_layer["oracle.checks"] = oracle_checks
        per_layer["oracle.mismatches"] = oracle_mismatches
        per_layer["trace.overhead_frac"] = traced_s / untraced_s - 1.0 if untraced_s > 0 else 0.0
        trace_path = os.path.join(TRACE_DIR, f"{args.workload}-seed{args.seed}.jsonl")
        recorder.write_jsonl(trace_path)
        print(f"  traced replay of {len(replay)} reference ops, {len(recorder.spans)} spans "
              f"in {os.path.relpath(trace_path, CHECKOUT)}, {len(nesting)} nesting faults")
        for name, value in per_layer.items():
            print(f"  {name:<32} {value:.6g} {units[name]}")
        names = [m["name"] for m in spec["per_layer"]]
        values = per_layer
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        values = e2e

    metrics = {name: {"value": values[name], "unit": units[name]} for name in names}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
