"""One fresh set-up, timed in a new interpreter.

    python3 perfbench/setup_probe.py <workload> <workdir>

Times the first import of ``kolmoreduce`` and ``kolmoreduce.cli`` (numpy
and every other dependency included, since the script imports none of
them first) plus the workload's warm-up calls, and prints
``{"setup_s": ...}``.  Making the warm-up inputs is the benchmark's own
work and is not timed.  run.py starts this several times and reports the
median as ``setup_s``.
"""

import importlib
import os
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")


def main(workload: str, workdir: str) -> None:
    # numpy's thread pools are pinned to one thread through the environment,
    # which run.py sets before it starts this script.
    sys.path[:0] = [SRC, BENCH]

    t0 = time.perf_counter()
    kr = importlib.import_module("kolmoreduce")
    importlib.import_module("kolmoreduce.cli")
    setup_s = time.perf_counter() - t0

    if not os.path.realpath(kr.__file__).startswith(os.path.realpath(SRC) + os.sep):
        sys.exit(f"kolmoreduce imported from {kr.__file__}, not from {SRC}")
    cls = importlib.import_module("workloads").WORKLOADS[workload]
    raw = cls.warm_up_inputs(workdir)
    t1 = time.perf_counter()
    cls(kr, 0, workdir).warm_up(raw)
    setup_s += time.perf_counter() - t1
    import json  # only now, so the program pays for json if it imports it

    print(json.dumps({"setup_s": setup_s}))


if __name__ == "__main__":
    main(*sys.argv[1:])
