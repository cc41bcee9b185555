"""Command-line frontend: compute, decide, gen, and bench subcommands.

Exit codes: 0 success (or YES), 1 file/parse problems, 2 validation or
precondition failures (including a violated separation assumption) and
solves that run out of memory, 3 NO from the decision procedure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np

from .approx import cdut_approx_v1, cdut_approx_v2
from .core import ChamferReport, Metric, PointSet
from .decision import SeparationError, decide_cdut
from .gadgets import combine_gadgets, ov_pair
from .instances import (
    clustered_instance,
    noisy_copy_instance,
    separated_planted_instance,
    translated_copy_instance,
    uniform_instance,
)
from .io import InstanceParseError, read_instance, write_instance
from .localnet import LocalNetConfig, cdut_localnet
from .oracle import default_grid_spec, oracle_cdut_1d, oracle_cdut_grid
from .sweep1d import cdut_exact_1d, cdut_exact_l1_linf

GENERATORS = ("uniform", "clustered", "translated-copy", "ov-gadget", "combined-gadget", "separated-planted")

EXIT_OK = 0
EXIT_FILE = 1
EXIT_INVALID = 2
EXIT_NO = 3


def _record(report: ChamferReport, metric: Metric, wall_ms: float) -> dict:
    """One reproducible run: inputs, result, and cost counters."""
    return {
        "algorithm": report.algorithm,
        "value": float(report.value),
        "translation": [float(v) for v in np.atleast_1d(report.translation)],
        "metric": metric.name,
        "seed": report.seed,
        "epsilon": report.epsilon,
        "c": report.c,
        "wall_ms": wall_ms,
        "evaluations": report.evaluations,
        "extras": report.extras,
    }


def _kv(record: dict) -> str:
    parts = [f"algorithm={record['algorithm']}", f"value={record['value']!r}"]
    parts.append("translation=" + ",".join(repr(v) for v in record["translation"]))
    parts.append(f"metric={record['metric']}")
    parts += [f"{key}={record[key]}" for key in ("seed", "epsilon", "c", "evaluations") if record[key] is not None]
    parts.append(f"wall_ms={record['wall_ms']:.3f}")
    return " ".join(parts)


def _load_pair(args) -> tuple[PointSet, PointSet, Metric]:
    a, tag_a = read_instance(args.file_a)
    b, tag_b = read_instance(args.file_b)
    if args.metric is not None:
        return a, b, Metric.from_name(args.metric)
    tagged = {Metric.from_name(tag) for tag in (tag_a, tag_b) if tag is not None}
    if len(tagged) > 1:
        raise ValueError(
            f"{args.file_a} is tagged metric={tag_a} but {args.file_b} metric={tag_b}; pass --metric"
        )
    return a, b, tagged.pop() if tagged else Metric()


class SolveOptions(NamedTuple):
    """The algorithm options ``compute`` and ``bench`` pass to a solver."""

    epsilon: float
    c: float
    delta: Optional[float]
    seed: int
    union_net: bool = False
    resolution: Optional[float] = None


def _given_delta(opts: SolveOptions) -> dict:
    # a solver keeps its own default delta unless --delta is given
    return {} if opts.delta is None else {"delta": opts.delta}


def _localnet(a: PointSet, b: PointSet, metric: Metric, opts: SolveOptions) -> ChamferReport:
    config = LocalNetConfig(epsilon=opts.epsilon, union_mode=opts.union_net, **_given_delta(opts))
    return cdut_localnet(a, b, config, seed=opts.seed, metric=metric)


def _oracle_grid(a: PointSet, b: PointSet, metric: Metric, opts: SolveOptions) -> ChamferReport:
    spec = None if opts.resolution is None else default_grid_spec(a, b, resolution=opts.resolution)
    return oracle_cdut_grid(a, b, spec=spec, metric=metric)


# algorithm name -> solver; ``compute`` and ``bench`` both run algorithms from here
SOLVERS: dict[str, Callable[[PointSet, PointSet, Metric, SolveOptions], ChamferReport]] = {
    "exact1d": lambda a, b, metric, opts: cdut_exact_1d(a, b),
    "exact-l1linf": lambda a, b, metric, opts: cdut_exact_l1_linf(a, b, metric),
    "approx-v1": lambda a, b, metric, opts: cdut_approx_v1(
        a, b, opts.epsilon, seed=opts.seed, metric=metric, **_given_delta(opts)
    ),
    "approx-v2": lambda a, b, metric, opts: cdut_approx_v2(
        a, b, opts.epsilon, opts.c, seed=opts.seed, metric=metric, **_given_delta(opts)
    ),
    "localnet": _localnet,
    "oracle-1d": lambda a, b, metric, opts: oracle_cdut_1d(a, b),
    "oracle-grid": _oracle_grid,
}
ALGORITHMS = tuple(SOLVERS)


def _solve(algorithm: str, a: PointSet, b: PointSet, metric: Metric, opts: SolveOptions) -> dict:
    """Run one registry algorithm and return its timed record."""
    start = time.perf_counter()
    report = SOLVERS[algorithm](a, b, metric, opts)
    return _record(report, metric, (time.perf_counter() - start) * 1000.0)


def cmd_compute(args) -> int:
    a, b, metric = _load_pair(args)
    opts = SolveOptions(args.epsilon, args.c, args.delta, args.seed, args.union_net, args.resolution)
    record = _solve(args.algorithm, a, b, metric, opts)
    print(json.dumps(record, sort_keys=True) if args.json else _kv(record))
    return EXIT_OK


def cmd_decide(args) -> int:
    a, b, metric = _load_pair(args)
    try:
        result = decide_cdut(a, b, args.radius, args.epsilon, args.c, seed=args.seed, metric=metric)
    except SeparationError as exc:
        cert = exc.certificate
        print(
            f"SEPARATION-VIOLATED min_pairwise_b={cert.min_pairwise_b!r} "
            f"threshold={cert.threshold!r} c={cert.c} radius={cert.radius}"
        )
        return EXIT_INVALID
    cert = result.certificate
    witness = ",".join(repr(float(v)) for v in result.evidence.translation)
    payload = {
        "answer": result.answer,
        "radius": args.radius,
        "epsilon": args.epsilon,
        "c": args.c,
        "seed": args.seed,
        "total_distance": result.evidence.value,
        "witness": [float(v) for v in result.evidence.translation],
        "min_pairwise_b": cert.min_pairwise_b,
        "separation_threshold": cert.threshold,
        "translations_tested": result.translations_tested,
        "median_iterations": result.median_iterations,
        "medians_nonconverged": result.medians_nonconverged,
    }
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(
            f"{result.answer} total_distance={result.evidence.value!r} witness={witness} "
            f"min_pairwise_b={cert.min_pairwise_b!r} threshold={cert.threshold!r}"
        )
    return EXIT_OK if result.yes else EXIT_NO


def _parse_bits(text: str) -> list[int]:
    return [int(ch) for ch in text.strip()]


def cmd_gen(args) -> int:
    out = Path(args.out)
    seed = args.seed
    metric = Metric.from_name(args.metric) if args.metric else Metric()
    meta: dict = {"generator": args.generator, "seed": seed}
    if args.generator == "uniform":
        a, b = uniform_instance(args.m, args.n, args.dim, seed)
    elif args.generator == "clustered":
        a, b = clustered_instance(args.m, args.n, args.dim, seed)
    elif args.generator == "translated-copy":
        planted = translated_copy_instance(args.m, args.dim, seed, shift=args.shift)
        a, b = planted.a, planted.b
        meta.update(planted.meta, shift=[float(v) for v in planted.shift])
    elif args.generator == "ov-gadget":
        inst = ov_pair(_parse_bits(args.x), _parse_bits(args.y))
        a, b = inst.points_a, inst.points_b
        meta.update(x=list(inst.x), y=list(inst.y), width=inst.width)
    elif args.generator == "combined-gadget":
        xs = [_parse_bits(tok) for tok in args.x.split(",")]
        ys = [_parse_bits(tok) for tok in args.y.split(",")]
        if len(xs) != len(ys):
            raise ValueError("need the same number of x and y vectors")
        gadgets = [ov_pair(x, y) for x, y in zip(xs, ys)]
        a, b = combine_gadgets([(g.points_a, g.points_b) for g in gadgets])
        meta.update(pairs=len(gadgets))
    elif args.generator == "separated-planted":
        planted = separated_planted_instance(
            args.m, args.n, args.dim, args.radius, args.c, args.epsilon, args.mode, seed
        )
        a, b = planted.a, planted.b
        meta.update(planted.meta, shift=[float(v) for v in planted.shift])
    else:
        raise ValueError(f"unknown generator {args.generator!r}")
    path_a = out.with_name(out.name + "_a.txt")
    path_b = out.with_name(out.name + "_b.txt")
    write_instance(path_a, a, metric)
    write_instance(path_b, b, metric)
    sidecar = out.with_name(out.name + "_meta.json")
    sidecar.write_text(json.dumps(meta, sort_keys=True) + "\n")
    print(f"wrote {path_a} {path_b} {sidecar}")
    return EXIT_OK


def _noisy_copy(size: int, dim: int, seed: int) -> tuple[PointSet, PointSet]:
    planted = noisy_copy_instance(size, dim, seed, noise=0.25)
    return planted.a, planted.b


# bench family -> (size, dim, seed) -> (A, B), both of ``size`` points
_BENCH_FAMILIES = {
    "uniform": lambda size, dim, seed: uniform_instance(size, size, dim, seed),
    "clustered": lambda size, dim, seed: clustered_instance(size, size, dim, seed),
    "noisy-copy": _noisy_copy,
}


def cmd_bench(args) -> int:
    algos = [tok.strip() for tok in args.algos.split(",") if tok.strip()]
    unknown = [tok for tok in algos if tok not in ALGORITHMS]
    if unknown:
        raise ValueError(f"unknown algorithms: {unknown}")
    sizes = [int(tok) for tok in args.sizes.split(",")]
    metric = Metric()
    rows = []
    for size in sizes:
        for rep in range(args.reps):
            seed = args.seed + 1000 * rep + size
            a, b = _BENCH_FAMILIES[args.family](size, args.dim, seed)
            baseline = None
            if args.dim == 1 and size * size <= 10_000:
                baseline = oracle_cdut_1d(a, b).value
            opts = SolveOptions(args.epsilon, args.c, args.delta, seed=seed)
            for algo in algos:
                # bench's own keys; they win over the record's where both have one
                keys = dict(family=args.family, size=size, rep=rep, seed=seed, oracle=baseline, ratio=None, error=None)
                try:
                    record = _solve(algo, a, b, metric, opts)
                except ValueError as exc:
                    rows.append({"algorithm": algo, **keys, "error": str(exc)})
                    continue
                value = record["value"]
                if baseline is not None:
                    keys["ratio"] = value / baseline if baseline > 0 else (1.0 if value == 0 else float("inf"))
                rows.append({**record, **keys})
    if args.json:
        for row in rows:
            print(json.dumps(row, sort_keys=True))
    else:
        print(f"{'algorithm':<14}{'size':>6}{'rep':>5}{'value':>16}{'ratio':>10}{'wall_ms':>12}")
        for row in rows:
            if row["error"] is not None:
                print(f"{row['algorithm']:<14}{row['size']:>6}{row['rep']:>5}  error: {row['error']}")
                continue
            ratio = f"{row['ratio']:.4f}" if row["ratio"] is not None else "-"
            print(
                f"{row['algorithm']:<14}{row['size']:>6}{row['rep']:>5}"
                f"{row['value']:>16.6g}{ratio:>10}{row['wall_ms']:>12.2f}"
            )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cdut", description="Chamfer distance under translation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="run one algorithm on two instance files")
    compute.add_argument("algorithm", choices=ALGORITHMS)
    compute.add_argument("file_a")
    compute.add_argument("file_b")
    compute.add_argument("--metric", choices=("l1", "l2", "linf"), default=None)
    compute.add_argument("--epsilon", type=float, default=0.5)
    compute.add_argument("--c", type=float, default=2.0)
    compute.add_argument("--delta", type=float, default=None)
    compute.add_argument("--seed", type=int, default=0)
    compute.add_argument("--resolution", type=float, default=None, help="grid oracle step")
    compute.add_argument("--union-net", action="store_true")
    compute.add_argument("--json", action="store_true")
    compute.set_defaults(func=cmd_compute)

    decide = sub.add_parser("decide", help="decide CDuT(A,B) <= R under the separation assumption")
    decide.add_argument("file_a")
    decide.add_argument("file_b")
    decide.add_argument("--radius", type=float, required=True)
    decide.add_argument("--epsilon", type=float, default=0.25)
    decide.add_argument("--c", type=float, default=2.0)
    decide.add_argument("--seed", type=int, default=0)
    decide.add_argument("--metric", choices=("l1", "l2", "linf"), default=None)
    decide.add_argument("--json", action="store_true")
    decide.set_defaults(func=cmd_decide)

    gen = sub.add_parser("gen", help="generate instance files")
    gen.add_argument("generator", choices=GENERATORS)
    gen.add_argument("--out", required=True, help="output path prefix")
    gen.add_argument("--m", type=int, default=20)
    gen.add_argument("--n", type=int, default=20)
    gen.add_argument("--dim", type=int, default=1)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--metric", choices=("l1", "l2", "linf"), default=None)
    gen.add_argument("--shift", type=float, nargs="+", default=None)
    gen.add_argument("--x", default="10", help="bit string, or comma-separated list for combined")
    gen.add_argument("--y", default="01")
    gen.add_argument("--radius", type=float, default=1.0)
    gen.add_argument("--c", type=float, default=2.0)
    gen.add_argument("--epsilon", type=float, default=0.25)
    gen.add_argument("--mode", choices=("yes", "no"), default="yes")
    gen.set_defaults(func=cmd_gen)

    bench = sub.add_parser("bench", help="time algorithms against the 1D oracle")
    bench.add_argument("--algos", default="exact1d,oracle-1d")
    bench.add_argument("--family", choices=tuple(_BENCH_FAMILIES), default="uniform")
    bench.add_argument("--sizes", default="50,100")
    bench.add_argument("--reps", type=int, default=1)
    bench.add_argument("--dim", type=int, default=1)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--epsilon", type=float, default=0.5)
    bench.add_argument("--c", type=float, default=2.0)
    bench.add_argument("--delta", type=float, default=None)
    bench.add_argument("--json", action="store_true")
    bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InstanceParseError, FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FILE
    except ValueError as exc:  # SeparationError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except MemoryError:
        print("error: out of memory; try smaller inputs or a coarser setting", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
