"""Command-line front end.

Subcommands: ``distance``, ``reduce``, ``bench``, ``pipeline``, ``oracle``.
Exit codes: 0 success, 2 bad flags or unparseable input, 3 internal
invariant violation or oracle mismatch, 4 support-cap explosion.  Every
command is deterministic given its flags; seeds default to 0.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .baselines import METHODS, approximator
from .distribution import DiscreteDistribution, kolmogorov_distance
from .errors import KolmoreduceError, SupportExplosionError
from .io import DistributionParseError, _atomic_write, read_distribution_file, write_distribution_file
from .oracle import BRUTE_FORCE_LIMIT, brute_force_reduce
from .pipeline import DEFAULT_CAP, load_tree, run_pipeline
from .reduction import _check_m, reduce

CERTIFICATE_TOL = 1e-12

BENCH_HEADER = "method,m,mean_error,std_error,instances,n,seed"
PIPELINE_HEADER = "deadline,f_exact,f_approx,abs_delta,d_k,exact_support,approx_support"


def bench_instance(n: int, seed: int, index: int) -> DiscreteDistribution:
    """Random benchmark variable: support 1..n, probabilities drawn
    uniformly and normalized.  Instance ``index`` under master ``seed`` uses
    the mixed seed ``SeedSequence((seed, index))`` so single instances can
    be regenerated independently."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, index))))
    probs = rng.random(n)
    return DiscreteDistribution(np.arange(1, n + 1, dtype=np.float64), probs / probs.sum())


def bench_errors(
    n: int,
    instances: int,
    m_list: list[int],
    methods: list[str],
    seed: int,
    samples: int = 10000,
) -> dict[tuple[str, int], np.ndarray]:
    """Per-instance error matrix: (method, m) -> array of d_K values, one
    per benchmark instance.

    Trim at budget m runs with eps = 1/m: a closed group plus the next
    leader always carry more than eps, so at most m groups can form.
    """
    m_list = [_check_m(m) for m in m_list]
    out: dict[tuple[str, int], list[float]] = {(meth, m): [] for meth in methods for m in m_list}
    for i in range(instances):
        x = bench_instance(n, seed, i)
        # Independent draw seed per instance; keeps sampling errors
        # uncorrelated across instances while staying reproducible.
        draw_seed = int(np.random.SeedSequence((seed, i, 1)).generate_state(1, np.uint64)[0])
        for meth in methods:
            for m in m_list:
                run = approximator(meth, m, eps=1.0 / m, samples=samples, seed=draw_seed)
                out[(meth, m)].append(run(x)[1])
    return {key: np.asarray(vals) for key, vals in out.items()}


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        _atomic_write(out, text)


def _cmd_distance(args) -> int:
    a, _ = read_distribution_file(args.file_a)
    b, _ = read_distribution_file(args.file_b)
    print(format(kolmogorov_distance(a, b), ".12g"))
    return 0


def _cmd_reduce(args) -> int:
    method = args.method
    run = approximator(method, args.m, eps=args.eps, samples=args.samples, seed=args.seed)
    x, fmt = read_distribution_file(args.file, renormalize=args.renormalize)
    approx, distance = run(x)
    if method == "klm" and abs(kolmogorov_distance(x, approx) - distance) > CERTIFICATE_TOL:
        print("error: certified distance does not match the constructed output", file=sys.stderr)
        return 3
    write_distribution_file(approx, args.out, fmt)
    print(f"{method},{approx.n},{distance:.12g}")
    return 0


def _cmd_bench(args) -> int:
    if args.n < 2 or args.instances < 1:
        print("error: need --n >= 2 and --instances >= 1", file=sys.stderr)
        return 2
    m_list = [int(tok) for tok in args.m.split(",") if tok]
    methods = [tok.strip() for tok in args.methods.split(",") if tok.strip()]
    if not m_list or not methods:
        print("error: empty --m or --methods list", file=sys.stderr)
        return 2
    errors = bench_errors(args.n, args.instances, m_list, methods, args.seed, args.samples)
    lines = [BENCH_HEADER]
    for method in methods:
        for m in m_list:
            errs = errors[(method, m)]
            std = float(np.std(errs, ddof=1)) if errs.size > 1 else 0.0
            lines.append(
                f"{method},{m},{float(np.mean(errs)):.17g},{std:.17g},"
                f"{args.instances},{args.n},{args.seed}"
            )
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_pipeline(args) -> int:
    tree = load_tree(args.tree)
    deadlines = [float(tok) for tok in args.deadlines.split(",") if tok]
    cap = int(os.environ.get("KLM_CAP", DEFAULT_CAP))
    report = run_pipeline(
        tree,
        deadlines,
        args.m,
        args.method,
        eps=args.eps,
        samples=args.samples,
        seed=args.seed,
        cap=cap,
    )
    lines = [PIPELINE_HEADER]
    for t, fe, fa, delta in report.rows:
        lines.append(
            f"{t:.17g},{fe:.17g},{fa:.17g},{delta:.17g},{report.d_k:.17g},"
            f"{report.exact_support_size},{report.approx_support_size}"
        )
    _emit("\n".join(lines) + "\n", args.out)
    print(
        f"d_k={report.d_k:.12g} exact_support={report.exact_support_size} "
        f"approx_support={report.approx_support_size}"
    )
    return 0


def _cmd_oracle(args) -> int:
    x, _ = read_distribution_file(args.file)
    if x.n > BRUTE_FORCE_LIMIT:
        print(f"error: support size {x.n} exceeds the oracle guard {BRUTE_FORCE_LIMIT}", file=sys.stderr)
        return 2
    slow = brute_force_reduce(x, args.m)
    fast = reduce(x, args.m)
    agree = (
        abs(slow.distance - fast.distance) <= CERTIFICATE_TOL
        and np.array_equal(slow.selection.indices, fast.selection.indices)
    )
    verdict = "MATCH" if agree else "MISMATCH"
    print(f"oracle={slow.distance:.12g} fast={fast.distance:.12g} {verdict}")
    return 0 if agree else 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kolmoreduce",
        description="Optimal support-size reduction of discrete distributions "
        "under the Kolmogorov distance.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("distance", help="Kolmogorov distance between two distribution files")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.set_defaults(func=_cmd_distance)

    p = sub.add_parser("reduce", help="reduce a distribution's support size")
    p.add_argument("file")
    p.add_argument("--m", type=int, default=None, help="support budget")
    p.add_argument("--method", choices=METHODS, default="klm")
    p.add_argument("--out", required=True, help="output file (input's format)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--renormalize", action="store_true", help="rescale input mass to 1")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("bench", help="error-versus-budget benchmark on random variables")
    p.add_argument("--n", type=int, required=True, help="support size of each instance")
    p.add_argument("--instances", type=int, required=True)
    p.add_argument("--m", default="2,4,8,10,20,50", help="comma-separated budgets")
    p.add_argument("--methods", default="klm,opttrim,trim", help="comma-separated methods")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=10000, help="draws for the sample method")
    p.add_argument("--out", default=None, help="CSV output path (stdout if omitted)")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("pipeline", help="exact vs reduced task-tree evaluation")
    p.add_argument("tree", help="task tree JSON file")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--method", choices=METHODS, default="klm")
    p.add_argument("--deadlines", required=True, help="comma-separated deadline values")
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="CSV output path (stdout if omitted)")
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("oracle", help="compare the fast reducer against exhaustive search")
    p.add_argument("file")
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DistributionParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SupportExplosionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except (KolmoreduceError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
