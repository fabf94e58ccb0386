"""Mutation check of the bottleneck search's horizon kernel, bound, DP
windows, extraction and selection.

Each mutant changes one spot in ``src/kolmoreduce/reduction.py``, inside
``_first_source``, ``_last_target``, ``_back_horizons``, ``_horizons``,
``_quantile_support``, ``_bottleneck_epsilon``, ``_lex_min_support`` or
``_select``:

- a comparison ``<=`` <-> ``<`` or ``>=`` <-> ``>``;
- an offset ``x + k`` / ``x - k``, or an integer bound passed to ``bisect``,
  moved by -1 or +1;
- ``bisect_left`` <-> ``bisect_right``, or a ``searchsorted`` side flipped;
- a fix-up loop of the kernel dropped (its condition made false).

Every mutant runs ``tests/test_reduction.py``, ``tests/test_acceptance.py``
and ``tests/test_baselines.py`` on its own copy of the package, the kernel's
own tests first, and the mutants that no test kills are listed at the end.
A target that is missing from ``reduction.py``, or has nothing to mutate,
stops the script with a non-zero exit.  A run that overruns
three times the unmutated run counts as killed.  The file name keeps it
out of pytest's collection.  From the repository root:

    python tests/mutate_reduction.py            # run every mutant
    python tests/mutate_reduction.py --list     # only list them
"""

from __future__ import annotations

import argparse
import ast
import copy
import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "kolmoreduce"
TESTS = [str(ROOT / "tests" / f"test_{name}.py") for name in ("reduction", "acceptance", "baselines")]
TARGETS = ("_first_source", "_last_target", "_back_horizons", "_horizons", "_quantile_support",
           "_bottleneck_epsilon", "_lex_min_support", "_select")
FIXUP_LOOPS = ("_first_source", "_last_target")
SWAP_CMP = {ast.LtE: ast.Lt, ast.Lt: ast.LtE, ast.GtE: ast.Gt, ast.Gt: ast.GtE}
SWAP_BISECT = {"bisect_left": "bisect_right", "bisect_right": "bisect_left"}
SWAP_SIDE = {"left": "right", "right": "left"}
# The tests that exercise the kernel and the windows run first, so that
# most mutants die within seconds; the rest of the files runs after them.
FIRST = "horizon or lex_min or bottleneck_epsilon or greedy or criterion_8"
STAGES = [(TESTS[:1], FIRST), (TESTS, f"not ({FIRST})")]
JOBS = 2  # mutants run at once, each one pytest process


def _sites(tree: ast.Module):
    """Every node inside a target function, in a fixed order."""
    for fn in tree.body:
        if isinstance(fn, ast.FunctionDef) and fn.name in TARGETS:
            for node in ast.walk(fn):
                yield fn.name, node


def _int_const(node) -> bool:
    return isinstance(node, ast.Constant) and type(node.value) is int


def _variants(fn: str, node: ast.AST) -> list[tuple]:
    if isinstance(node, ast.Compare):
        return [("cmp", i) for i, op in enumerate(node.ops) if type(op) in SWAP_CMP]
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)) and _int_const(node.right):
        return [("offset", -1), ("offset", 1)]
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in SWAP_BISECT:
        bounds = [i for i, arg in enumerate(node.args) if i >= 2 and _int_const(arg)]
        return [("bisect",)] + [("bound", i, d) for i in bounds for d in (-1, 1)]
    if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "searchsorted":
        return [("side",)]
    if isinstance(node, ast.While) and fn in FIXUP_LOOPS:
        return [("drop",)]
    return []


def _apply(node: ast.AST, variant: tuple) -> None:
    kind = variant[0]
    if kind == "cmp":
        node.ops[variant[1]] = SWAP_CMP[type(node.ops[variant[1]])]()
    elif kind == "offset":
        node.right = ast.Constant(node.right.value + variant[1])
    elif kind == "bisect":
        node.func = ast.Name(SWAP_BISECT[node.func.id], ast.Load())
    elif kind == "bound":
        node.args[variant[1]] = ast.Constant(node.args[variant[1]].value + variant[2])
    elif kind == "side":
        side = next((k.value.value for k in node.keywords if k.arg == "side"), "left")
        node.keywords = [k for k in node.keywords if k.arg != "side"]
        node.keywords.append(ast.keyword("side", ast.Constant(SWAP_SIDE[side])))
    else:  # drop
        node.test = ast.Constant(False)


def mutants(source: str) -> list[tuple[str, str]]:
    """(description, mutated source) for every mutant of ``source``; exits
    non-zero when some target yields none."""
    tree = ast.parse(source)
    out = []
    for k, (fn, node) in enumerate(_sites(tree)):
        for variant in _variants(fn, node):
            mutated = copy.deepcopy(tree)
            sites = list(_sites(mutated))
            target = sites[k][1]
            # An offset is shown with the expression around it, so that two
            # equal offsets on one line can be told apart.
            shown = target.test if variant[0] == "drop" else target
            if variant[0] == "offset":
                shown = next((n for _, n in sites if any(c is target for c in ast.iter_child_nodes(n))
                              and not isinstance(n, ast.stmt)), target)
            before = ast.unparse(shown)
            _apply(target, variant)
            if variant[0] == "drop":
                change = f"drop `while {before}`"
            else:
                change = f"`{before}` -> `{ast.unparse(shown)}`"
            out.append((f"{fn}:{node.lineno}: {change}", ast.unparse(mutated)))
    missing = [t for t in TARGETS if not any(desc.startswith(f"{t}:") for desc, _ in out)]
    if missing:
        sys.exit(f"no mutant in {', '.join(missing)}: missing from reduction.py or nothing to mutate")
    return out


def _run(source: str | None, timeouts: list[float] | None) -> tuple[str, list[float]]:
    """Run the stages on a copy of the package with ``reduction.py``
    replaced by ``source`` (unchanged when None): "survived", "killed" or
    "timeout", and the time each stage took."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        shutil.copytree(PACKAGE, Path(tmp) / "kolmoreduce", ignore=shutil.ignore_patterns("__pycache__"))
        if source is not None:
            (Path(tmp) / "kolmoreduce" / "reduction.py").write_text(source)
        took = []
        for s, (files, expr) in enumerate(STAGES):
            cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                   "-o", f"pythonpath={tmp}", *files, "-k", expr]
            start = time.perf_counter()
            try:
                proc = subprocess.run(cmd, cwd=tmp, env=env, capture_output=True, text=True,
                                      timeout=None if timeouts is None else timeouts[s])
            except subprocess.TimeoutExpired:
                return "timeout", took
            took.append(time.perf_counter() - start)
            if proc.returncode != 0:
                if source is None:
                    sys.exit(f"unmutated tests fail:\n{proc.stdout[-3000:]}")
                return "killed", took
        return "survived", took


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--list", action="store_true", help="list the mutants and exit")
    args = parser.parse_args(argv)
    found = mutants((PACKAGE / "reduction.py").read_text())
    if args.list:
        for desc, _ in found:
            print(desc)
        return 0
    start = time.perf_counter()
    _, took = _run(None, None)
    timeouts = [3 * t + 10 for t in took]
    print(f"{len(found)} mutants; unmutated stages took " + ", ".join(f"{t:.0f}s" for t in took), flush=True)

    def one(item):
        desc, source = item
        verdict, _ = _run(source, timeouts)
        print(f"{verdict:9s} {desc}", flush=True)
        return verdict, desc

    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        results = list(pool.map(one, found))
    survivors = [desc for verdict, desc in results if verdict == "survived"]
    print(f"\n{len(found) - len(survivors)} of {len(found)} killed in {time.perf_counter() - start:.0f}s; "
          f"{len(survivors)} survived:")
    for desc in survivors:
        print(f"  {desc}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
