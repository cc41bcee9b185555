"""Re-run the README's large cases, one fresh process per case.

    PYTHONPATH=src python tools/large_cases.py [--timeout S] [CASE ...]

Run it from the repository root; with no CASE it runs them all, and
``--list`` names them.  The cases run one after another, never two at
once.  Each runs in its own child interpreter, which caps its own address
space at 3 GB (``RLIMIT_AS``) before it imports ``cdut``, draws the
case's instance and solves it once with a solver of the CLI registry
(``cli.SOLVERS``).  As ``cdut`` does, the child exits 2 on a
``ValueError`` or ``MemoryError``; ``--timeout`` ends a child after S
seconds with ``SIGALRM``.  The children inherit the environment, so
``CDUT_THREADS=2`` before the command runs every case on two threads.

One JSON line per case goes to standard output: the case and its
``CDUT_THREADS`` setting, the exit status, the child's wall time (start-up
included) and solve time, its peak RSS from ``wait4``, the value and its
bits (``float.hex``), and a sha256 over the translation's and the
assignment's bytes, so two trees' lines can be compared for bit-identical
outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import signal
import subprocess
import sys
import time

# the address-space limit that each child sets on itself
LIMIT_BYTES = 3 << 30

# name -> (algorithm, family, size, dim, seed, metric); m = n = size,
# eps 0.5, c 2, the solver's default delta, and the solver's seed is the
# instance's
CASES = {
    # the README's "approx-v1 against approx-v2" table
    "v1-d16-100": ("approx-v1", "uniform", 100, 16, 7, "l2"),
    "v2-d16-100": ("approx-v2", "uniform", 100, 16, 7, "l2"),
    "v1-d64-100": ("approx-v1", "uniform", 100, 64, 7, "l2"),
    "v2-d64-100": ("approx-v2", "uniform", 100, 64, 7, "l2"),
    "v1-d16-400": ("approx-v1", "uniform", 400, 16, 7, "l2"),
    "v2-d16-400": ("approx-v2", "uniform", 400, 16, 7, "l2"),
    "v1-d64-400": ("approx-v1", "uniform", 400, 64, 7, "l2"),
    "v2-d64-400": ("approx-v2", "uniform", 400, 64, 7, "l2"),
    "v2-d64-1500": ("approx-v2", "uniform", 1500, 64, 7, "l2"),
    # ``cdut bench --algos approx-v2 --family noisy-copy --dim 1 --sizes 100,200``
    # draws these: its seed is the size at rep 0
    "v2-d1-noisy-100": ("approx-v2", "noisy-copy", 100, 1, 100, "l2"),
    "v2-d1-noisy-200": ("approx-v2", "noisy-copy", 200, 1, 200, "l2"),
    # the README's large low-dimensional cases; each sends 2-12 evaluations
    # of 4,096 query rows or more to threads under ``CDUT_THREADS=2``
    "l1linf-l1-d2-60": ("exact-l1linf", "uniform", 60, 2, 7, "l1"),
    "localnet-d2-200": ("localnet", "uniform", 200, 2, 7, "l2"),
    "grid-d2-150": ("oracle-grid", "uniform", 150, 2, 7, "l2"),
}


def _child(name: str) -> int:
    resource.setrlimit(resource.RLIMIT_AS, (LIMIT_BYTES, LIMIT_BYTES))
    import numpy as np

    from cdut import cli
    from cdut.core import Metric

    algorithm, family, size, dim, seed, metric = CASES[name]
    a, b = cli._BENCH_FAMILIES[family](size, dim, seed)
    opts = cli.SolveOptions(epsilon=0.5, c=2.0, delta=None, seed=seed)
    start = time.perf_counter()
    try:
        report = cli.SOLVERS[algorithm](a, b, Metric.from_name(metric), opts)
    except (ValueError, MemoryError) as exc:
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}))
        return cli.EXIT_INVALID
    answer = hashlib.sha256(np.asarray(report.translation, dtype=np.float64).tobytes())
    if report.assignment is not None:
        answer.update(np.asarray(report.assignment, dtype=np.int64).tobytes())
    print(
        json.dumps(
            {
                "solve_s": round(time.perf_counter() - start, 3),
                "value": float(report.value),
                "value_bits": float(report.value).hex(),
                "answer_sha256": answer.hexdigest(),
            }
        )
    )
    return cli.EXIT_OK


def _run(name: str, timeout: int) -> dict:
    """Run one case in a fresh child and return its JSON line's fields."""
    command = [sys.executable, os.path.abspath(__file__), "--child", name]
    if timeout:
        command += ["--timeout", str(timeout)]
    start = time.perf_counter()
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    out = child.stdout.read()
    child.stdout.close()
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    algorithm, family, size, dim, seed, metric = CASES[name]
    line = {
        "case": name,
        "algorithm": algorithm,
        "family": family,
        "metric": metric,
        "m": size,
        "n": size,
        "d": dim,
        "seed": seed,
        "cdut_threads": os.environ.get("CDUT_THREADS", ""),
        "exit": child.returncode,
        "wall_s": round(time.perf_counter() - start, 3),
        "peak_rss_mb": round(usage.ru_maxrss / 1024.0, 1),  # KiB on Linux
    }
    lines = out.strip().splitlines()
    if lines:
        line.update(json.loads(lines[-1]))
    return line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("cases", nargs="*", metavar="CASE", help="cases to run (default: all)")
    parser.add_argument("--list", action="store_true", help="name the cases and exit")
    parser.add_argument("--timeout", type=int, default=0, help="seconds a child may run (0: no limit)")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        if args.timeout:
            signal.alarm(args.timeout)
        return _child(args.child)
    if args.list:
        print("\n".join(CASES))
        return 0
    unknown = [name for name in args.cases if name not in CASES]
    if unknown:
        parser.error(f"unknown cases {unknown}; --list names them")
    for name in args.cases or CASES:
        print(json.dumps(_run(name, args.timeout)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
