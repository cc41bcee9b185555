"""One workload in one fresh interpreter: set up, run the client, check.

    PYTHONPATH=src python3 perfbench/worker.py --workload W --seed N \
        --seconds S --mode measure|trace|setup

``run.py`` starts this with the environment pinned; run that instead.
The last line of standard output is one JSON object.

- ``setup``: import ``cdut``, build the seeded case pool, and make one
  warm-up solve per algorithm kind; report the three phase times and
  their sum, unscaled and scaled to the reference host speed.
- ``measure``: after set-up, one closed-loop client solves the pool's cases
  in order, cycle after cycle, until ``--seconds`` have passed; the next
  solve starts when the previous one returns.  Between solves, every
  ``CAL_EVERY_S``, a fixed calibration loop gauges the host's speed, and
  the timings are scaled by it.  Then peak RSS is read, the references are
  computed and every output is checked.
- ``trace``: as ``measure``, but cycles alternate between untraced and
  traced; per-layer metrics come from the traced cycles and the tracing
  overhead from comparing the two kinds of cycle.
"""

import time

_start = time.perf_counter()
import cdut  # noqa: E402  (timed: the import a fresh user process pays)

_IMPORT_S = time.perf_counter() - _start

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

# how many distinct failure reasons to echo
_SHOWN_FAILURES = 5

# Host speed calibration.  The shared host's speed moves in phases of
# seconds to minutes: a fixed loop runs up to 1.8x slower, in process CPU
# time as much as in wall time, with no steal time shown.  So every
# end-to-end timing is scaled to a reference speed: multiplied by
# CAL_REF_MS over the calibration loop's time around that solve.  The loop
# calls nothing of cdut, so a change to the program cannot move it.
CAL_REF_MS = 0.4
# calibrate after a solve once this many seconds have passed since the last
CAL_EVERY_S = 0.05
# a solve's host speed is the median calibration within this many seconds
CAL_WINDOW_S = 0.5
# calibrations taken after set-up
CAL_SETUP_SAMPLES = 9
_CAL_RNG = np.random.default_rng(0)
_CAL_X = _CAL_RNG.random((48, 3))
_CAL_TABLE = _CAL_RNG.random(1 << 19)  # 4 MiB, larger than a core's own caches
_CAL_INDEX = _CAL_RNG.integers(0, len(_CAL_TABLE), 48000)


def _calibration_loop() -> None:
    acc = 0
    for i in range(1500):
        acc += i * i
    np.sort(_CAL_X[:, 0])
    np.abs(_CAL_X[:, None, :] - _CAL_X[None, :, :]).sum(axis=-1).min(axis=1)
    _CAL_TABLE[_CAL_INDEX].sum()


def _calibrate_here() -> float:
    _calibration_loop()
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter_ns()
        _calibration_loop()
        best = min(best, time.perf_counter_ns() - start)
    return best / 1e6


def calibration_ms(cpus=()) -> float:
    """Time of a fixed loop: Python bytecode, small numpy calls and a random
    gather from a 4 MiB table, so that it slows with a shared cache as well
    as with a shared core.

    The loop runs once untimed, then three times timed, and the fastest of
    the three counts: a single run right after a solve reads up to 1.5x
    slower, by how the solve left the caches, which would let the program
    move its own scale.

    With ``cpus``, the calling thread runs the loop pinned to each CPU in
    turn and the slowest CPU counts; its affinity is restored after.
    """
    if not cpus:
        return _calibrate_here()
    home = os.sched_getaffinity(0)
    try:
        speeds = []
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            speeds.append(_calibrate_here())
        return max(speeds)
    finally:
        os.sched_setaffinity(0, home)


def solve_cpus() -> tuple:
    """The CPUs whose speed a solve waits on, for ``calibration_ms``.

    With worker threads (``CDUT_THREADS`` above 1) a solve waits for its
    slowest chunk, and the CPUs of a shared host do not always slow
    together, so every CPU is gauged.  A serial solve runs on the CPU the
    calibration runs on.
    """
    threads = os.environ.get("CDUT_THREADS", "").strip()
    if threads.isdigit() and int(threads) != 1:
        return tuple(sorted(os.sched_getaffinity(0)))
    return ()


class HostSpeed:
    """Calibrations taken between solves, and the start of every solve."""

    def __init__(self):
        self.starts: list = []  # each solve's start, in perf_counter seconds
        self.taken: list = []  # (time, calibration ms)
        self._cpus = solve_cpus()
        self._last = float("-inf")

    def after_solve(self, start_s: float) -> None:
        self.starts.append(start_s)
        now = time.perf_counter()
        if now - self._last >= CAL_EVERY_S:
            self.taken.append((now, calibration_ms(self._cpus)))
            self._last = time.perf_counter()

    def median_ms(self) -> float:
        return statistics.median(c for _, c in self.taken)

    def scale(self, times_ns) -> np.ndarray:
        """Each solve's wall time in ms, scaled to the reference host speed.

        A solve's speed is the median calibration within CAL_WINDOW_S of
        its start (or the nearest one), which smooths a single reading.
        """
        at = np.array([t for t, _ in self.taken])
        cal = np.array([c for _, c in self.taken])
        starts = np.array(self.starts)
        lo = np.minimum(np.searchsorted(at, starts - CAL_WINDOW_S), len(at) - 1)
        hi = np.maximum(np.searchsorted(at, starts + CAL_WINDOW_S, side="right"), lo + 1)
        local = np.array([np.median(cal[i:j]) for i, j in zip(lo, hi)])
        return np.asarray(times_ns, dtype=np.float64) / 1e6 * (CAL_REF_MS / local)


def set_up(workload: str, seed: int):
    """Build the pool and warm up once per kind; returns (rounds, phase times in s)."""
    start = time.perf_counter()
    rounds = workloads.build_cases(workload, seed)
    built = time.perf_counter()
    seen = set()
    for case in rounds[0]:
        if case.kind not in seen:
            seen.add(case.kind)
            case.call()
    warm = time.perf_counter()
    raw_s = _IMPORT_S + warm - start
    cpus = solve_cpus()
    cal_ms = statistics.median(calibration_ms(cpus) for _ in range(CAL_SETUP_SAMPLES))
    return rounds, {"import_s": _IMPORT_S, "instances_s": built - start, "warmup_s": warm - built,
                    "raw_s": raw_s, "scaled_s": raw_s * CAL_REF_MS / cal_ms}


def solve_cycle(cases, times_ns: list, outputs: list, speed=None) -> None:
    """One pass over a round; a solve that raises is recorded as failed.

    With a ``HostSpeed``, it is told of every solve once the solve returns.
    """
    for case in cases:
        start = time.perf_counter_ns()
        try:
            result = case.call()
        except Exception as exc:  # a failing solve is counted, not fatal
            times_ns.append(time.perf_counter_ns() - start)
            outputs.append((case, None, f"{case.kind} raised {exc!r}"))
        else:
            times_ns.append(time.perf_counter_ns() - start)
            outputs.append((case, workloads.summarize(result), None))
        if speed is not None:
            speed.after_solve(start / 1e9)


def run_cycles(rounds, seconds: float, tracer=None):
    """Closed loop for ``seconds``, one round per cycle, in whole cycles.

    Rounds are taken in order and repeat when the run outlasts them.  With
    a tracer, each round runs twice, untraced and traced, in alternating
    order, and no calibration is taken.  Returns the solve times, outputs,
    the ``HostSpeed`` (None when traced) and, per kind of cycle (False:
    untraced, True: traced), each cycle's wall time.
    """
    times_ns: list = []
    outputs: list = []
    speed = None if tracer else HostSpeed()
    cycle_s = {False: [], True: []}
    gc.collect()
    begin = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - begin < seconds:
        cases = rounds[k % len(rounds)]
        order = (False,) if tracer is None else ((False, True) if k % 2 == 0 else (True, False))
        for traced in order:
            if traced:
                tracer.install()
            start = time.perf_counter()
            try:
                solve_cycle(cases, times_ns, outputs, speed)
            finally:
                if traced:
                    tracer.uninstall()
            cycle_s[traced].append(time.perf_counter() - start)
        k += 1
    return times_ns, outputs, speed, cycle_s


def check_outputs(outputs):
    """Reference ratios and check failures over every (case, output, error) solve.

    Identical outputs of one case share one verdict; each case's reference
    is computed once.
    """
    exact = {}
    for case, out, _ in outputs:
        if out is not None and case.kind == "exact1d":
            exact.setdefault(id(case), out["value"])
    references = {}
    verdicts = {}
    ratios = []
    failures = []
    for case, out, error in outputs:
        if out is None:
            failures.append(error)
            continue
        key = (id(case), out["answer"], out["value"], out["translation"].tobytes())
        if key not in verdicts:
            verdicts[key] = workloads.check(case, out)
        if verdicts[key] is not None:
            failures.append(f"{case.kind} [{case.label}]: {verdicts[key]}")
            continue
        if id(case) not in references:
            references[id(case)] = workloads.reference_value(case, exact.get(id(case)))
        ref = references[id(case)]
        if ref is not None:
            ratios.append(out["value"] / ref if ref > 0 else (1.0 if out["value"] == 0 else float("inf")))
    return ratios, failures


def percentile(values, q: float) -> float:
    """The q-th percentile by linear interpolation between order statistics."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("measure", "trace", "setup"), default="measure")
    args = parser.parse_args(argv)

    rounds, setup = set_up(args.workload, args.seed)
    report = {"setup": setup}
    if args.mode == "setup":
        print(json.dumps(report))
        return 0

    tracer = Tracer() if args.mode == "trace" else None
    times_ns, outputs, speed, cycle_s = run_cycles(rounds, args.seconds, tracer)
    rss = peak_rss_mb()
    ratios, failures = check_outputs(outputs)
    attempted = len(outputs)
    report.update(
        attempted=attempted,
        failed=len(failures),
        failures=sorted(set(failures))[:_SHOWN_FAILURES],
    )
    if tracer is None:
        solve_ms = speed.scale(times_ns)
        report["raw"] = {
            "solve_ms.p50": percentile(np.asarray(times_ns) / 1e6, 50),
            "solve_ms.p90": percentile(np.asarray(times_ns) / 1e6, 90),
            "host_slowdown": speed.median_ms() / CAL_REF_MS,
        }
        report["metrics"] = {
            "solve_ms.p50": percentile(solve_ms, 50),
            "solve_ms.p90": percentile(solve_ms, 90),
            "solves_per_s": attempted / (float(solve_ms.sum()) / 1e3),
            "peak_rss_mb": rss,
            "value_ratio.max": max(ratios) if ratios else 1.0,
            "ok_frac": (attempted - len(failures)) / attempted,
        }
    else:
        # every round ran once untraced and once traced
        traced_solves = attempted // 2
        traced_s = sum(cycle_s[True])
        metrics = tracer.summary(traced_solves, traced_s)
        metrics["trace.solves_per_s"] = traced_solves / traced_s
        pairs = [t / u for u, t in zip(cycle_s[False], cycle_s[True])]
        metrics["trace.overhead_pct"] = 100.0 * (statistics.median(pairs) - 1.0)
        report["metrics"] = metrics
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
