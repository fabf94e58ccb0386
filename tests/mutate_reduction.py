"""Mutation check of the bottleneck search and of the producers that build
distributions from computed masses.

Each mutant changes one spot inside one target function of one module:

- ``src/kolmoreduce/reduction.py``: ``_first_source``, ``_last_target``,
  ``_back_horizons``, ``_horizons``, ``_quantile_support``,
  ``_bottleneck_epsilon``, ``_lex_min_support``, ``_select`` and
  ``_segment_weights``;
- ``src/kolmoreduce/distribution.py``: ``_combined``,
  ``project_to_support`` and ``sample_empirical``;
- ``src/kolmoreduce/baselines.py``: ``trim_epsilon`` and ``opt_trim``.

The changes are:

- a comparison ``<=`` <-> ``<``, ``>=`` <-> ``>`` or ``==`` <-> ``!=``;
- an offset ``x + k`` / ``x - k``, or an integer bound passed to ``bisect``,
  moved by -1 or +1;
- ``bisect_left`` <-> ``bisect_right``, or a ``searchsorted`` side flipped;
- a fix-up loop of the horizon kernel dropped (its condition made false);
- a float constant ``0.5`` <-> ``1.0``: the two-sided and one-sided scales,
  the scale of the entry and exit weights, a default argument included,
  and the unit total of a mass check.

Every mutant runs its module's test files on its own copy of the package,
the tests closest to the targets first, and the mutants that no test kills
are listed at the end.  A target that is missing from its module, or has
nothing to mutate, stops the script with a non-zero exit.  A run that
overruns three times the unmutated run counts as killed.  The file name
keeps it out of pytest's collection.  From the repository root:

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
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "kolmoreduce"


@dataclass(frozen=True)
class Module:
    """A module's target functions, the test files run against its mutants,
    and a ``-k`` expression for the tests of the first file that run
    first, so that most mutants die within seconds; the rest of the files
    runs after them."""

    targets: tuple[str, ...]
    tests: tuple[str, ...]
    first: str

    def stages(self) -> list[tuple[list[str], str]]:
        files = [str(ROOT / "tests" / f"test_{name}.py") for name in self.tests]
        return [(files[:1], self.first), (files, f"not ({self.first})")]


MODULES = {
    "reduction": Module(
        ("_first_source", "_last_target", "_back_horizons", "_horizons", "_quantile_support",
         "_bottleneck_epsilon", "_lex_min_support", "_select", "_segment_weights"),
        ("reduction", "acceptance", "baselines"),
        "horizon or lex_min or bottleneck_epsilon or greedy or criterion_8"),
    "distribution": Module(
        ("_combined", "project_to_support", "sample_empirical"),
        ("distribution", "computed_masses", "baselines", "pipeline"),
        "Project or Combinators or Sampling"),
    "baselines": Module(
        ("trim_epsilon", "opt_trim"),
        ("baselines", "computed_masses", "io_cli"),
        "trim"),
}
FIXUP_LOOPS = ("_first_source", "_last_target")
SWAP_CMP = {ast.LtE: ast.Lt, ast.Lt: ast.LtE, ast.GtE: ast.Gt, ast.Gt: ast.GtE,
            ast.Eq: ast.NotEq, ast.NotEq: ast.Eq}
SWAP_BISECT = {"bisect_left": "bisect_right", "bisect_right": "bisect_left"}
SWAP_SIDE = {"left": "right", "right": "left"}
SWAP_SCALE = {0.5: 1.0, 1.0: 0.5}
JOBS = 2  # mutants run at once, each one pytest process


def _sites(tree: ast.Module, targets: tuple[str, ...]):
    """Every node inside a target function, in a fixed order."""
    for fn in tree.body:
        if isinstance(fn, ast.FunctionDef) and fn.name in targets:
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
    if isinstance(node, ast.Constant) and type(node.value) is float and node.value in SWAP_SCALE:
        return [("scale",)]
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
    elif kind == "scale":
        node.value = SWAP_SCALE[node.value]
    else:  # drop
        node.test = ast.Constant(False)


def mutants(source: str, targets: tuple[str, ...]) -> list[tuple[str, str]]:
    """(description, mutated source) for every mutant of the ``targets`` in
    ``source``; exits non-zero when some target yields none."""
    tree = ast.parse(source)
    out = []
    for k, (fn, node) in enumerate(_sites(tree, targets)):
        for variant in _variants(fn, node):
            mutated = copy.deepcopy(tree)
            sites = list(_sites(mutated, targets))
            target = sites[k][1]
            # An offset or a constant is shown with the expression around it,
            # so that two equal ones on one line can be told apart.
            shown = target.test if variant[0] == "drop" else target
            if variant[0] in ("offset", "scale"):
                shown = next((n for _, n in sites if any(c is target for c in ast.iter_child_nodes(n))
                              and not isinstance(n, ast.stmt)), target)
            before = ast.unparse(shown)
            _apply(target, variant)
            if variant[0] == "drop":
                change = f"drop `while {before}`"
            else:
                change = f"`{before}` -> `{ast.unparse(shown)}`"
            out.append((f"{fn}:{node.lineno}: {change}", ast.unparse(mutated)))
    missing = [t for t in targets if not any(desc.startswith(f"{t}:") for desc, _ in out)]
    if missing:
        sys.exit(f"no mutant in {', '.join(missing)}: missing from its module or nothing to mutate")
    return out


def _run(name: str, source: str | None, timeouts: list[float] | None) -> tuple[str, list[float]]:
    """Run the module's stages on a copy of the package with the module
    ``name`` replaced by ``source`` (unchanged when None): "survived",
    "killed" or "timeout", and the time each stage took."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        shutil.copytree(PACKAGE, Path(tmp) / "kolmoreduce", ignore=shutil.ignore_patterns("__pycache__"))
        if source is not None:
            (Path(tmp) / "kolmoreduce" / f"{name}.py").write_text(source)
        took = []
        for s, (files, expr) in enumerate(MODULES[name].stages()):
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
    found = {name: mutants((PACKAGE / f"{name}.py").read_text(), module.targets)
             for name, module in MODULES.items()}
    if args.list:
        for name, items in found.items():
            for desc, _ in items:
                print(f"{name}.{desc}")
        return 0
    start = time.perf_counter()
    survivors = []
    total = 0
    for name, items in found.items():
        _, took = _run(name, None, None)
        timeouts = [3 * t + 10 for t in took]
        print(f"{name}: {len(items)} mutants; unmutated stages took "
              + ", ".join(f"{t:.0f}s" for t in took), flush=True)

        def one(item):
            desc, source = item
            verdict, _ = _run(name, source, timeouts)
            print(f"{verdict:9s} {name}.{desc}", flush=True)
            return verdict, f"{name}.{desc}"

        with ThreadPoolExecutor(max_workers=JOBS) as pool:
            results = list(pool.map(one, items))
        survivors += [desc for verdict, desc in results if verdict == "survived"]
        total += len(items)
    print(f"\n{total - len(survivors)} of {total} killed in {time.perf_counter() - start:.0f}s; "
          f"{len(survivors)} survived:")
    for desc in survivors:
        print(f"  {desc}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
