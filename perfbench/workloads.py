"""The benchmark's workloads: seeded inputs, ops and output checks.

Every input is generated here from ``(seed, workload tag, op index)``, so op
``i`` of a workload can be regenerated on its own.  Sizes depend on the
op's position in its round, not on the seed: the seed changes the data,
never the mix of work.

A workload builds op ``i`` with ``make(i)`` (untimed), the caller times
``op.run()``, then ``verify(op, out)`` (untimed) returns the list of
problems with the output; an empty list means the op passed.  The program
is seen only through the public functions of its modules, looked up on
each call so that a traced run sees its wrappers.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# Certificate tolerance.  Kept here rather than read from the program, so a
# change to the program cannot loosen the benchmark's checks.
TOL = 1e-12

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

SHAPES = ("uniform", "pareto", "spiky")

# Tags keep the random streams of different workloads apart.
_TAG = {"sweep": 1, "large-n": 2, "deadline-tree": 3, "files": 4, "oracle": 5, "warmup": 6}


def spread(k: int) -> float:
    """k-th point of an additive-recurrence sequence in [0, 1): every
    prefix covers the interval about evenly."""
    return (0.5 + k * GOLDEN) % 1.0


def rng_for(seed: int, workload: str, index: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence((seed, _TAG[workload], index)))
    )


def support(rng: np.random.Generator, n: int) -> np.ndarray:
    """n strictly increasing real values."""
    return float(rng.normal(0.0, 10.0)) + np.cumsum(rng.exponential(1.0, n) + 1e-3)


def masses(rng: np.random.Generator, n: int, shape: str) -> np.ndarray:
    """n positive masses summing to one, in one of three shapes."""
    if shape == "uniform":
        w = rng.random(n) + 1e-3
    elif shape == "pareto":
        w = rng.pareto(1.1, n) + 1e-3
    elif shape == "spiky":
        w = rng.random(n) * 1e-2 + 1e-4
        spikes = rng.choice(n, size=max(1, n // 40), replace=False)
        w[spikes] += rng.random(spikes.size) + 0.5
    else:
        raise ValueError(f"unknown mass shape {shape!r}")
    return w / w.sum()


@dataclass
class Op:
    index: int
    run: Callable[[], object]
    spec: dict = field(default_factory=dict)


def certificate_problems(kr, x, approx, distance: float, m: int) -> list[str]:
    """The reduction's claimed distance must be the recomputed d_K, and its
    support must fit the budget."""
    problems = []
    if approx.n > m:
        problems.append(f"support {approx.n} exceeds budget {m}")
    actual = kr.kolmogorov_distance(x, approx)
    if not abs(actual - distance) <= TOL:
        problems.append(f"certified distance {distance!r} but d_K(x, approx) = {actual!r}")
    return problems


def construction_problems(x, indices, approx) -> list[str]:
    """The reduced distribution must be the documented construction on the
    selected support: each kept point takes its own mass plus the mass of
    the segments beside it, halved for interior segments.  Recomputed here
    with exact segment sums, independently of the program."""
    idx = [int(i) for i in indices]
    if not np.array_equal(approx.values, x.values[idx]):
        return ["approx support is not the input's values at the selected indices"]
    p = x.probs.tolist()
    cuts = [-1] + idx + [len(p)]
    seg = [math.fsum(p[a + 1:b]) for a, b in zip(cuts, cuts[1:])]
    w = [seg[0]] + [s * 0.5 for s in seg[1:-1]] + [seg[-1]]
    expected = [w[j] + w[j + 1] + p[i] for j, i in enumerate(idx)]
    worst = max(abs(e - a) for e, a in zip(expected, approx.probs.tolist()))
    return [] if worst <= TOL else [f"approx masses differ from the construction by {worst:.3g}"]


class Workload:
    """Base: subclasses define ``name``, ``reference_ops``, ``make``,
    ``verify`` and ``dk``."""

    name = ""
    # Ops are timed in whole rounds, each holding the same mix of sizes and
    # kinds, so every run measures the same mix.
    round_ops = 1
    # Ops 0..reference_ops-1 are run on every run; mean_dk and the traced
    # replay use exactly these, so both are fixed work per seed.
    reference_ops = 1

    def __init__(self, kr, seed: int, workdir: str) -> None:
        self.kr = kr
        self.seed = seed
        self.workdir = workdir

    @staticmethod
    def warm_up_inputs(workdir: str) -> dict:
        """Inputs for the set-up warm-up, made before set-up is timed."""
        rng = rng_for(0, "warmup", 0)
        return {"values": support(rng, 120), "probs": masses(rng, 120, "uniform")}

    def warm_up(self, raw: dict) -> None:
        x = self.kr.DiscreteDistribution(raw["values"], raw["probs"])
        self.kr.reduce(x, 8)

    def make(self, i: int) -> Op:
        raise NotImplementedError

    def verify(self, op: Op, out) -> list[str]:
        raise NotImplementedError

    def dk(self, op: Op, out) -> float:
        raise NotImplementedError

    def finish(self, op: Op) -> None:
        """Release what ``make`` created for the op."""

    def oracle_checks(self) -> tuple[int, int]:
        """(checks, mismatches) of cross-checks against the exhaustive oracle."""
        return 0, 0


class Sweep(Workload):
    """Every method at every budget on small real-valued instances."""

    name = "sweep"
    methods = ("reduce", "opt_trim", "trim_epsilon", "sample_reduce")
    budgets = (2, 4, 8, 16, 32, 64)
    draws = 10_000
    # A round is 12 instances: each mass shape at each of 4 size levels.
    levels = 4
    round_ops = 3 * levels * 24
    reference_ops = 2 * round_ops
    oracle_cases = 48

    def __init__(self, kr, seed: int, workdir: str) -> None:
        super().__init__(kr, seed, workdir)
        self._instances: dict[int, object] = {}
        self._errors: dict[tuple[int, int, str], float] = {}

    def instance(self, k: int):
        x = self._instances.get(k)
        if x is None:
            rng = rng_for(self.seed, self.name, k)
            level = (k // 3) % self.levels
            n = 50 + round(350 * (level + 0.5) / self.levels) + int(rng.integers(-5, 6))
            x = self.kr.DiscreteDistribution(support(rng, n), masses(rng, n, SHAPES[k % 3]))
            self._instances[k] = x
        return x

    def warm_up(self, raw: dict) -> None:
        kr = self.kr
        x = kr.DiscreteDistribution(raw["values"], raw["probs"])
        kr.reduce(x, 8)
        kr.opt_trim(x, 8)
        kr.trim_epsilon(x, 1.0 / 8)
        kr.sample_reduce(x, self.draws, 8, 0)

    def make(self, i: int) -> Op:
        k, rest = divmod(i, len(self.methods) * len(self.budgets))
        method = self.methods[rest // len(self.budgets)]
        m = self.budgets[rest % len(self.budgets)]
        x = self.instance(k)
        kr = self.kr
        if method == "reduce":
            run = lambda: kr.reduce(x, m)  # noqa: E731
        elif method == "opt_trim":
            run = lambda: kr.opt_trim(x, m)  # noqa: E731
        elif method == "trim_epsilon":
            run = lambda: kr.trim_epsilon(x, 1.0 / m)  # noqa: E731
        else:
            draw_seed = self.seed * 1_000_003 + k
            run = lambda: kr.sample_reduce(x, self.draws, m, draw_seed)  # noqa: E731
        return Op(i, run, {"k": k, "x": x, "m": m, "method": method})

    @staticmethod
    def _result(out) -> tuple[object, float]:
        if hasattr(out, "distance"):
            return out.approx, out.distance
        return out.approx, out.two_sided_error

    def verify(self, op: Op, out) -> list[str]:
        k, x, m, method = op.spec["k"], op.spec["x"], op.spec["m"], op.spec["method"]
        approx, err = self._result(out)
        if method == "reduce":
            problems = certificate_problems(self.kr, x, approx, err, m)
            problems += construction_problems(x, out.selection.indices, approx)
        else:
            problems = [] if approx.n <= m else [f"support {approx.n} exceeds budget {m}"]
        self._errors[(k, m, method)] = err
        best = self._errors.get((k, m, "reduce"))
        if method != "reduce" and best is not None and not best <= err + TOL:
            problems.append(f"{method} error {err!r} beats the optimum {best!r}")
        if method == "trim_epsilon":
            one_sided = self._errors.get((k, m, "opt_trim"))
            if one_sided is not None and not one_sided <= err + TOL:
                problems.append(f"trim error {err!r} beats opt_trim {one_sided!r}")
        return problems

    def dk(self, op: Op, out) -> float:
        return self._result(out)[1]

    def oracle_checks(self) -> tuple[int, int]:
        kr = self.kr
        mismatches = 0
        for c in range(self.oracle_cases):
            rng = rng_for(self.seed, "oracle", c)
            n = int(rng.integers(4, 13))
            m = int(rng.integers(1, n))
            x = kr.DiscreteDistribution(support(rng, n), masses(rng, n, SHAPES[c % 3]))
            slow = kr.brute_force_reduce(x, m)
            fast = kr.reduce(x, m)
            if not (
                abs(slow.distance - fast.distance) <= TOL
                and np.array_equal(slow.selection.indices, fast.selection.indices)
            ):
                mismatches += 1
        return self.oracle_cases, mismatches


class LargeN(Workload):
    """One reduction per op on a distinct large instance."""

    name = "large-n"
    round_ops = 8
    reference_ops = 8
    # A Latin hypercube over (n, m): op r of every round takes the r-th
    # eighth of the n range and the m_slot[r]-th eighth of the m range, so
    # every round holds the same sizes.
    m_slot = (6, 1, 4, 7, 2, 5, 0, 3)

    def make(self, i: int) -> Op:
        rng = rng_for(self.seed, self.name, i)
        r = i % self.round_ops
        n = 1500 + round(2500 * (r + 0.5) / self.round_ops)
        m = 16 + round(48 * (self.m_slot[r] + 0.5) / self.round_ops)
        # Uniform masses only: the DP's cost does not depend on the shape,
        # and mean_dk then varies little from seed to seed.
        x = self.kr.DiscreteDistribution(support(rng, n), masses(rng, n, "uniform"))
        kr = self.kr
        return Op(i, lambda: kr.reduce(x, m), {"x": x, "m": m})

    def verify(self, op: Op, out) -> list[str]:
        x, m = op.spec["x"], op.spec["m"]
        problems = certificate_problems(self.kr, x, out.approx, out.distance, m)
        problems += construction_problems(x, out.selection.indices, out.approx)
        eps = self.kr.epsilon_for_support(x, out.selection.indices)
        if eps != out.distance:
            problems.append(f"epsilon_for_support gives {eps!r}, reduce claims {out.distance!r}")
        return problems

    def dk(self, op: Op, out) -> float:
        return out.distance


# Dense integer-grid folds, independent of the program, used to check the
# exact half of every pipeline report.

def _dense_cdf(pmf: np.ndarray, size: int) -> np.ndarray:
    c = np.cumsum(pmf)
    out = np.full(size, c[-1])
    out[: c.size] = c
    return out


def dense_fold(node) -> np.ndarray:
    """pmf over 0..T of a tree given as ("leaf", pmf) or (kind, [children])."""
    kind, body = node
    if kind == "leaf":
        return body
    acc = dense_fold(body[0])
    for child in body[1:]:
        other = dense_fold(child)
        if kind == "seq":
            acc = np.convolve(acc, other)
            continue
        size = max(acc.size, other.size)
        fa, fb = _dense_cdf(acc, size), _dense_cdf(other, size)
        f = fa * fb if kind == "max" else 1.0 - (1.0 - fa) * (1.0 - fb)
        acc = np.diff(np.concatenate(([0.0], f)))
    return acc


class DeadlineTree(Workload):
    """run_pipeline on seeded task trees with integer-minute leaves."""

    name = "deadline-tree"
    leaf_points = 30
    leaf_range = 60
    # A round is each tree shape at m=16 twice and at m=48 once.  The
    # shapes' sizes are chosen so that their m=16 ops cost about the same
    # (within a tenth), so two thirds of the ops form one cost cluster and
    # the median latency falls inside it, not in a gap between shapes.
    budgets = (16, 16, 48)
    round_ops = 3 * len(budgets)
    reference_ops = 4 * round_ops

    @staticmethod
    def warm_up_inputs(workdir: str) -> dict:
        rng = rng_for(0, "warmup", 1)
        return {"leaves": [DeadlineTree._leaf_pmf(rng) for _ in range(3)]}

    def warm_up(self, raw: dict) -> None:
        tree, _ = self._build([("leaf", p) for p in raw["leaves"]], "seq")
        self.kr.run_pipeline(tree, [90.0], 16)

    @classmethod
    def _leaf_pmf(cls, rng: np.random.Generator) -> np.ndarray:
        pmf = np.zeros(cls.leaf_range + 1)
        points = rng.choice(cls.leaf_range, size=cls.leaf_points, replace=False) + 1
        w = rng.random(cls.leaf_points) + 0.05
        pmf[points] = w / w.sum()
        return pmf

    def _build(self, children: list, kind: str):
        """Program tree and dense description of a node over ``children``."""
        kr = self.kr
        built = []
        for child in children:
            if child[0] == "leaf":
                pmf = child[1]
                pts = np.flatnonzero(pmf)
                built.append(kr.leaf(kr.DiscreteDistribution(pts.astype(np.float64), pmf[pts])))
            else:
                built.append(self._build(child[1], child[0])[0])
        node = {"seq": kr.seq, "max": kr.max_node, "min": kr.min_node}[kind](*built)
        return node, (kind, children)

    def make(self, i: int) -> Op:
        rng = rng_for(self.seed, self.name, i)
        m = self.budgets[(i % self.round_ops) // 3]

        def chain(length: int):
            return ("seq", [("leaf", self._leaf_pmf(rng)) for _ in range(length)])

        if i % 3 == 0:
            kind, children = "seq", chain(11)[1]
        elif i % 3 == 1:
            kind, children = "max", [chain(5) for _ in range(3)]
        else:
            kind, children = "seq", [chain(3), ("min", [chain(3), chain(3)]), chain(3)]
        tree, dense = self._build(children, kind)
        cdf = np.cumsum(dense_fold(dense))
        # Deadlines at the exact median, 90% and 99% points.
        deadlines = [float(np.searchsorted(cdf, q)) for q in (0.5, 0.9, 0.99)]
        kr = self.kr
        return Op(
            i,
            lambda: kr.run_pipeline(tree, deadlines, m),
            {"tree": tree, "m": m, "cdf": cdf},
        )

    def verify(self, op: Op, out) -> list[str]:
        m, cdf = op.spec["m"], op.spec["cdf"]
        problems = []
        if out.approx_support_size > m:
            problems.append(f"reduced support {out.approx_support_size} exceeds budget {m}")
        for t, fe, fa, delta in out.rows:
            ref = float(cdf[min(int(math.floor(t)), cdf.size - 1)])
            if not abs(fe - ref) <= TOL:
                problems.append(f"F_exact({t}) = {fe!r}, dense fold gives {ref!r}")
            if delta != abs(fe - fa) or not delta <= out.d_k:
                problems.append(f"deadline row {t} inconsistent with d_k {out.d_k!r}")
        if op.index < self.reference_ops:
            kr = self.kr
            exact = kr.eval_exact(op.spec["tree"])
            approx = kr.eval_reduced(op.spec["tree"], m)
            d = kr.kolmogorov_distance(exact, approx)
            if out.d_k != d:
                problems.append(f"d_k {out.d_k!r}, recomputed kolmogorov_distance {d!r}")
            if out.approx_support_size != approx.n:
                problems.append(f"reduced support {out.approx_support_size}, recomputed {approx.n}")
        return problems

    def dk(self, op: Op, out) -> float:
        return out.d_k


# The benchmark's own table maker, writer and reader, independent of
# kolmoreduce.io.

def decimal_table(rng: np.random.Generator, n: int, shift: int):
    """About n rows: values are distinct integers times 1e-7 (plus ``shift``
    units), masses integers times 1e-15 summing to exactly 10**15.  numpy
    formats the integers in bulk, so a 100k-row table takes milliseconds,
    and float() of the same text gives the in-process arrays exactly as the
    program parses them.  Returns (values, probs, value text, mass text)."""
    ints = np.unique(rng.integers(0, 10**7, n)) + shift
    w = rng.random(ints.size) + 0.5
    k = np.floor(w / w.sum() * 1e15).astype(np.int64)
    k[-1] += 10**15 - int(k.sum())
    vs = np.char.add(ints.astype(str), "e-7").tolist()
    ps = np.char.add(k.astype(str), "e-15").tolist()
    return np.array([float(t) for t in vs]), np.array([float(t) for t in ps]), vs, ps


def write_table(path: str, vs: list[str], ps: list[str], fmt: str) -> None:
    if fmt == "json":
        text = f'{{"values": [{", ".join(vs)}], "probs": [{", ".join(ps)}]}}'
    else:
        text = "value,probability\n" + "\n".join(map(",".join, zip(vs, ps)))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def read_table(path: str) -> tuple[np.ndarray, np.ndarray]:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        obj = json.loads(text)
        return np.asarray(obj["values"], dtype=np.float64), np.asarray(obj["probs"], dtype=np.float64)
    cells = text.split("\n", 1)[1].replace("\n", ",").split(",")
    table = np.asarray([float(c) for c in cells if c], dtype=np.float64).reshape(-1, 2)
    return table[:, 0].copy(), table[:, 1].copy()


class Files(Workload):
    """kolmoreduce.cli.main in process: `distance` on large file pairs
    alternating with `reduce --method trim`, which writes large outputs."""

    name = "files"
    # A round is distance and reduce three times on CSV, then once on JSON.
    # reduce_rows is chosen so that a CSV reduce costs about what a CSV
    # distance costs (within a tenth): the CSV ops, three quarters of all,
    # then form one cost cluster and the median latency falls inside it.
    formats = ("csv", "csv", "csv", "json")
    round_ops = 2 * len(formats)
    reference_ops = round_ops
    # A distance op reads two tables whose sizes sum to this many rows, so
    # every distance op does the same work; a reduce op reads reduce_rows.
    pair_rows = 120_000
    min_rows = 20_000
    max_rows = 100_000
    reduce_rows = 68_000

    @staticmethod
    def warm_up_inputs(workdir: str) -> dict:
        rng = rng_for(0, "warmup", 2)
        paths = {}
        for fmt in ("csv", "json"):
            path = os.path.join(workdir, f"warmup.{fmt}")
            write_table(path, *decimal_table(rng, 200, 0)[2:], fmt)
            paths[fmt] = path
        return paths

    def warm_up(self, raw: dict) -> None:
        out = os.path.join(self.workdir, "warmup-out.csv")
        self._cli(["distance", raw["csv"], raw["json"]])
        self._cli(["reduce", raw["csv"], "--method", "trim", "--eps", "0.01", "--out", out])

    def _cli(self, argv: list[str]) -> tuple[int, str]:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = self.kr.cli.main(argv)
        return code, stdout.getvalue() + stderr.getvalue()

    def make(self, i: int) -> Op:
        rng = rng_for(self.seed, self.name, i)
        fmt = self.formats[(i % self.round_ops) // 2]
        u = spread(i // 2)
        base = os.path.join(self.workdir, f"op{i}")
        if i % 2 == 0:
            n_a = self.min_rows + round((self.max_rows - self.min_rows) * u)
            a = decimal_table(rng, n_a, 0)
            # B is A's shape shifted by 0.3, so d_K(A, B) sits near 0.3.
            b = decimal_table(rng, self.pair_rows - n_a, 3 * 10**6)
            write_table(f"{base}-a.{fmt}", *a[2:], fmt)
            write_table(f"{base}-b.{fmt}", *b[2:], fmt)
            argv = ["distance", f"{base}-a.{fmt}", f"{base}-b.{fmt}"]
            spec = {"kind": "distance", "a": a[:2], "b": b[:2]}
        else:
            x = decimal_table(rng, self.reduce_rows, 0)
            eps = 1.5 / self.reduce_rows
            write_table(f"{base}-x.{fmt}", *x[2:], fmt)
            argv = ["reduce", f"{base}-x.{fmt}", "--method", "trim", "--eps", repr(eps),
                    "--out", f"{base}-y.{fmt}"]
            spec = {"kind": "reduce", "x": x[:2], "eps": eps, "out": f"{base}-y.{fmt}"}
        spec["files"] = [p for p in argv if p.startswith(base)]
        return Op(i, lambda: self._cli(argv), spec)

    def verify(self, op: Op, out) -> list[str]:
        kr = self.kr
        code, text = out
        if code != 0:
            return [f"exit code {code}: {text.strip()[:200]}"]
        spec = op.spec
        if spec["kind"] == "distance":
            a = kr.DiscreteDistribution(*spec["a"])
            b = kr.DiscreteDistribution(*spec["b"])
            expected = format(kr.kolmogorov_distance(a, b), ".12g")
            return [] if text.strip() == expected else [f"printed {text.strip()!r}, expected {expected}"]
        x = kr.DiscreteDistribution(*spec["x"])
        ref = kr.trim_epsilon(x, spec["eps"])
        problems = []
        expected = f"trim,{ref.approx.n},{ref.two_sided_error:.12g}"
        if text.strip() != expected:
            problems.append(f"printed {text.strip()!r}, expected {expected!r}")
        values, probs = read_table(spec["out"])
        if values.tobytes() != ref.approx.values.tobytes() or probs.tobytes() != ref.approx.probs.tobytes():
            problems.append("written table differs from trim_epsilon's output")
        return problems

    def dk(self, op: Op, out) -> float:
        return float(out[1].strip().split(",")[-1])

    def finish(self, op: Op) -> None:
        for path in op.spec["files"]:
            if os.path.exists(path):
                os.unlink(path)


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (Sweep, LargeN, DeadlineTree, Files)
}
