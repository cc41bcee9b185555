"""Benchmark entry point: one workload, one seed, one line of JSON.

    python3 perfbench/run.py --workload sweep-1d --seed 1 --seconds 20 --trace 0

Run it from the repository root.  It uses the package from ``src/`` as it
stands, with no install step, and starts every measured process as a fresh
interpreter with a pinned environment:

- ``PYTHONPATH=src``, no bytecode written into the tree;
- BLAS and OpenMP thread pools capped at ``nproc``;
- ``CDUT_THREADS=nproc`` for ``engine-lowd`` only, unset otherwise.

With ``--trace 0`` it prints the end-to-end metrics.  Their timings are
scaled to a reference host speed (see ``worker.CAL_REF_MS``); the
unscaled figures go to standard error.  ``setup_s`` is the median over
three fresh interpreters (the measured one and two that only set up).
With ``--trace 1`` it prints the per-layer metrics of a traced run
instead.  The last line of standard output is the result; the exit
code is 1 when any solve failed its output check, and 2 when the run could
not be made at all (no ``src/cdut`` here, or a worker crashed).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = HERE.parent / "BENCHMARK.json"
# set-up samples per untraced run, the measured interpreter included
SETUP_SAMPLES = 3
# a worker is killed after this long, keeping the whole run inside 180 s
MEASURE_TIMEOUT_S = 120
SETUP_TIMEOUT_S = 20


def worker_env(workload: str) -> dict:
    env = dict(os.environ)
    nproc = str(len(os.sched_getaffinity(0)))
    src = str(Path.cwd() / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = nproc
    env.pop("CDUT_THREADS", None)
    if workload == "engine-lowd":
        env["CDUT_THREADS"] = nproc
    return env


def run_worker(args, mode: str, timeout: float) -> dict:
    """Run worker.py in a fresh interpreter and parse its last stdout line."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode,
    ]
    proc = subprocess.run(
        cmd, env=worker_env(args.workload), capture_output=True, text=True, timeout=timeout
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker ({mode}) exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_ms(setup: dict) -> dict:
    return {
        "setup.import_ms": setup["import_s"] * 1e3,
        "setup.instances_ms": setup["instances_s"] * 1e3,
        "setup.warmup_ms": setup["warmup_s"] * 1e3,
    }


def main(argv=None) -> int:
    spec = json.loads(SPEC.read_text())
    parser = argparse.ArgumentParser(description="cdut benchmark: one workload, one seed")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (Path.cwd() / "src" / "cdut" / "__init__.py").is_file():
        print("perfbench: no src/cdut under the current directory; run from the repository root",
              file=sys.stderr)
        return 2
    try:
        main_run = run_worker(args, "trace" if args.trace else "measure", MEASURE_TIMEOUT_S)
        if args.trace:
            metrics = dict(setup_ms(main_run["setup"]), **main_run["metrics"])
        else:
            setups = [main_run["setup"]] + [
                run_worker(args, "setup", SETUP_TIMEOUT_S)["setup"]
                for _ in range(SETUP_SAMPLES - 1)
            ]
            metrics = dict(main_run["metrics"])
            metrics["setup_s"] = statistics.median(s["scaled_s"] for s in setups)
            raw = dict(main_run["raw"], setup_s=statistics.median(s["raw_s"] for s in setups))
            print("perfbench: wall-clock figures before scaling: " + json.dumps(raw), file=sys.stderr)
        # names and units are the ones BENCHMARK.json declares for this mode
        units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
        if set(metrics) != set(units):
            raise ValueError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    except (OSError, RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    for reason in main_run["failures"]:
        print(f"perfbench: check failed: {reason}", file=sys.stderr)
    result = {
        "correct": main_run["failed"] == 0,
        "attempted": main_run["attempted"],
        "failed": main_run["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
