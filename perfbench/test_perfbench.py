"""Self-tests of the benchmark.

    PYTHONPATH=src python3 -m pytest perfbench -q

Run from the repository root.  They use tiny instance sizes and runs of a
fraction of a second, so they take a few seconds.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import _FUNCTIONS, _METHODS, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = 0.25


def _outputs(cases, tracer=None):
    times, outputs = [], []
    if tracer is not None:
        tracer.install()
    try:
        worker.solve_cycle(cases, times, outputs)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return outputs


def _pool(workload, seed):
    return workloads.build_cases(workload, seed, scale=TINY, rounds=1)[0]


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_smoke_run_passes_every_check(workload):
    cases = _pool(workload, 3)
    outputs = _outputs(cases)
    assert all(error is None for _, _, error in outputs)
    ratios, failures = worker.check_outputs(outputs)
    assert failures == []
    assert ratios and all(np.isfinite(ratios))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_and_untraced_outputs_are_bit_identical(workload):
    cases = _pool(workload, 5)
    plain = _outputs(cases)
    traced = _outputs(cases, Tracer())
    assert len(plain) == len(traced)
    for (i, a, _), (j, b, _) in zip(plain, traced):
        assert i is j
        assert a["answer"] == b["answer"]
        assert a["value"] == b["value"]
        assert a["translation"].tobytes() == b["translation"].tobytes()
        assert a["assignment"].tobytes() == b["assignment"].tobytes()


def test_tracer_restores_every_binding():
    before = {
        (mod.__name__, name): getattr(mod, name.split(".")[1])
        for name, (mods, _) in _FUNCTIONS.items()
        for mod in mods
    }
    methods = {name: cls.__dict__[attr] for name, (cls, attr, _) in _METHODS.items()}
    tracer = Tracer()
    tracer.install()
    assert getattr(workloads.cdut.core, "chamfer_many") is not before["cdut.core", "core.chamfer_many"]
    tracer.uninstall()
    for (module, name), original in before.items():
        assert getattr(sys.modules[module], name.split(".")[1]) is original
    for name, (cls, attr, _) in _METHODS.items():
        assert cls.__dict__[attr] is methods[name]


def test_traced_layers_report_work_where_they_run():
    expect = {
        "sweep-1d": ("sweep1d.sweep_curve.calls", "sweep1d.events"),
        "engine-lowd": ("parallel.run_chunked.calls", "localnet.net_points", "core.chamfer_many.rows"),
        "ann-decide": ("ann.build_ladder.tables", "ann.query_batch.rows", "decision.median_iterations"),
        "small-batch": ("core.build_index.calls", "ann.build_ladder.calls"),
    }
    for workload, names in expect.items():
        cases = _pool(workload, 2)
        tracer = Tracer()
        _outputs(cases, tracer)
        summary = tracer.summary(len(cases), 1.0)
        for name in names:
            assert summary[name] > 0, (workload, name)


def test_summary_names_match_spec():
    declared = {m["name"] for m in SPEC["per_layer"]}
    produced = set(Tracer().summary(1, 1.0)) | {"setup.import_ms", "setup.instances_ms", "setup.warmup_ms",
                                          "trace.solves_per_s", "trace.overhead_pct"}
    assert produced == declared


def _corrupt(out, case):
    bad = dict(out)
    if case.kind == "decide":
        bad["answer"] = "NO" if out["answer"] == "YES" else "YES"
    elif case.kind in workloads.EXACT_VALUE_KINDS:
        bad["value"] = out["value"] * 1.01
    else:  # upper-bound kinds may overestimate, so corrupt them into an underestimate
        bad["value"] = workloads.chamfer_at(case.a, out["translation"], case.b, case.metric) * 0.99
    return bad


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_corrupted_outputs_count_as_failed(workload):
    cases = _pool(workload, 4)
    outputs = _outputs(cases)
    corrupted = [(case, _corrupt(out, case), err) for case, out, err in outputs]
    _, failures = worker.check_outputs(corrupted)
    assert len(failures) == len(outputs)


def test_host_speed_scales_each_solve_by_the_calibrations_around_it():
    speed = worker.HostSpeed()
    speed.starts = [0.0, 0.1, 5.0, 5.1]
    ref = worker.CAL_REF_MS
    speed.taken = [(0.05, 2 * ref), (0.15, 2 * ref), (5.05, ref), (5.15, ref)]
    scaled = speed.scale([4e6, 4e6, 4e6, 4e6])
    assert scaled.tolist() == [2.0, 2.0, 4.0, 4.0]
    # a solve with no calibration inside the window takes the nearest later one
    speed.starts = [0.0]
    speed.taken = [(3.0, 4 * ref)]
    assert speed.scale([4e6]).tolist() == [1.0]


def test_threaded_solves_gauge_every_cpu_and_restore_affinity(monkeypatch):
    home = os.sched_getaffinity(0)
    monkeypatch.setenv("CDUT_THREADS", "2")
    assert worker.solve_cpus() == tuple(sorted(home))
    assert worker.calibration_ms(worker.solve_cpus()) > 0
    assert os.sched_getaffinity(0) == home
    monkeypatch.delenv("CDUT_THREADS")
    assert worker.solve_cpus() == ()


def test_exact_value_scaled_up_fails_its_check():
    case = _pool("small-batch", 1)[0]
    out = workloads.summarize(case.call())
    assert workloads.check(case, out) is None
    assert workloads.check(case, dict(out, value=out["value"] * 1.01)) is not None


def _run(args, cwd):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_metrics_match_spec(trace):
    proc = _run(["--workload", "small-batch", "--seed", "1", "--seconds", "0.2", "--trace", trace], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace == "1" else "end_to_end"
    declared = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())


def test_failed_check_gives_exit_code_1(monkeypatch, capsys):
    fake = {"setup": {"import_s": 0.4, "instances_s": 0.01, "warmup_s": 0.1, "raw_s": 0.51, "scaled_s": 0.5},
            "attempted": 10, "raw": {"host_slowdown": 1.0},
            "failed": 1, "failures": ["exact1d: value 1.01 != re-evaluation 1.0"],
            "metrics": {m["name"]: 1.0 for m in SPEC["end_to_end"] if m["name"] != "setup_s"}}
    monkeypatch.setattr(run, "run_worker", lambda *a, **k: fake)
    monkeypatch.chdir(ROOT)
    assert run.main(["--workload", "sweep-1d", "--seed", "1", "--seconds", "1", "--trace", "0"]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] == 1


def test_refuses_to_run_without_the_program():
    # the benchmark's own directory holds no src/cdut, like a tree with
    # only BENCHMARK.json and perfbench/ in it
    proc = subprocess.run(
        [sys.executable, "run.py", "--workload", "sweep-1d", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT / "perfbench", capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
