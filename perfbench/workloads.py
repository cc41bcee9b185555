"""Seeded solve workloads, their reference values and their output checks.

A workload is a fixed pool of cases built from the workload seed, split
into balanced rounds.  Each case is one call into the public ``cdut`` API
on in-memory ``PointSet``s.
The client looks every algorithm up through its module attribute at call
time, so the tracer's wrapped bindings are the ones that run.

Instances come only from ``cdut.instances`` and ``cdut.gadgets``.  The
checks and references below use plain numpy and ``scipy.spatial`` so that
they share no code path with the solvers they check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import cdut
from cdut import gadgets, instances
from cdut.core import L1, L2, Metric, PointSet

WORKLOADS = ("sweep-1d", "engine-lowd", "ann-decide", "small-batch")

# value checks compare floats summed in the same order; the tolerance only
# absorbs a last-ulp difference in the distance arithmetic
REL_TOL = 1e-9


@dataclass
class Case:
    """One solve: an algorithm kind, its inputs and how to check its output."""

    kind: str
    a: PointSet
    b: PointSet
    metric: Metric
    call: Callable[[], object]
    expect: Optional[str] = None  # planted decide answer
    label: str = ""


def _exact1d(a, b):
    return lambda: cdut.sweep1d.cdut_exact_1d(a, b)


def _l1linf(a, b):
    return lambda: cdut.sweep1d.cdut_exact_l1_linf(a, b, L1)


def _v1(a, b, eps, seed):
    return lambda: cdut.approx.cdut_approx_v1(a, b, eps, seed=seed, metric=L2)


def _v2(a, b, eps, c, seed):
    return lambda: cdut.approx.cdut_approx_v2(a, b, eps, c, seed=seed, metric=L2)


def _localnet(a, b, eps, delta, union, seed):
    config = cdut.localnet.LocalNetConfig(epsilon=eps, delta=delta, union_mode=union)
    return lambda: cdut.localnet.cdut_localnet(a, b, config, seed=seed, metric=L2)


def _decide(a, b, radius, eps, c, seed):
    return lambda: cdut.decision.decide_cdut(a, b, radius, eps, c, seed=seed, metric=L2)


def _gadget_pair(rng, pairs: int, bits: int):
    blocks = []
    for _ in range(pairs):
        g = gadgets.ov_pair(rng.integers(0, 2, bits), rng.integers(0, 2, bits))
        blocks.append((g.points_a, g.points_b))
    return gadgets.combine_gadgets(blocks)


def _decide_cases(m, n, dims, reps: dict, seeds, label):
    radius, eps, c = 1.0, 0.25, 2.0
    cases = []
    for d in dims:
        for answer in ("yes", "no"):
            for _ in range(reps[answer]):
                s = next(seeds)
                p = instances.separated_planted_instance(m, n, d, radius, c, eps, answer, s)
                cases.append(
                    Case("decide", p.a, p.b, L2, _decide(p.a, p.b, radius, eps, c, s),
                         expect=answer.upper(), label=f"{label} m={m} n={n} d={d} {answer}")
                )
    return cases


# balanced rounds per pool: the client runs one round per cycle, so a run
# meets rounds x (cases per round) distinct instances.  ann-decide and
# small-batch use many, because their per-instance times vary most; the
# other two keep one round to hold their reference cost down.
ROUNDS = {"sweep-1d": 1, "engine-lowd": 1, "ann-decide": 16, "small-batch": 30}


def build_cases(workload: str, seed: int, scale: float = 1.0, rounds: int = 0) -> list[list[Case]]:
    """The case pool of ``workload`` for ``seed``, as a list of rounds.

    Every round holds a few instances of each kind, so that the median and
    90th-percentile solve fall inside a group of like cases rather than on
    the edge between two kinds.  ``rounds`` defaults to ``ROUNDS``;
    ``scale`` shrinks every size.  The self-tests use both for a tiny
    smoke run; the benchmark runs at the defaults.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = np.random.default_rng(seed)
    return [_round(workload, rng, scale) for _ in range(rounds or ROUNDS[workload])]


def _round(workload: str, rng, scale: float) -> list[Case]:
    seeds = iter(rng.integers(0, 2**31 - 1, size=64).tolist())

    def size(k: int, floor: int = 2) -> int:
        return max(floor, int(round(k * scale)))

    def uniform(kind, k, d, metric, make, reps=1):
        for _ in range(reps):
            s = next(seeds)
            a, b = instances.uniform_instance(k, k, d, s)
            cases.append(Case(kind, a, b, metric, make(a, b, s), label=f"uniform d={d} m=n={k}"))

    cases: list[Case] = []
    if workload == "sweep-1d":
        for k, reps in ((size(400), 1), (size(600), 2), (size(800), 1)):
            for _ in range(reps):
                for family in (instances.uniform_instance, instances.clustered_instance):
                    a, b = family(k, k, 1, next(seeds))
                    cases.append(Case("exact1d", a, b, L2, _exact1d(a, b), label=f"{family.__name__} m=n={k}"))
        a, b = _gadget_pair(np.random.default_rng(next(seeds)), size(40, 1), 8)
        cases.append(Case("exact1d", a, b, L2, _exact1d(a, b), label=f"ov-gadgets m={len(a)} n={len(b)}"))
    elif workload == "engine-lowd":
        for d in (2, 3):
            uniform("approx-v1", size(120), d, L2, lambda a, b, s: _v1(a, b, 0.5, s), reps=2)
        k = size(16)
        for _ in range(2):
            s = next(seeds)
            p = instances.noisy_copy_instance(k, 2, s)
            for union in (False, True):
                kind = "localnet-union" if union else "localnet"
                cases.append(Case(kind, p.a, p.b, L2, _localnet(p.a, p.b, 0.5, 0.4, union, s),
                                  label=f"noisy-copy d=2 m=n={k}"))
        uniform("exact-l1linf", size(10), 2, L1, lambda a, b, s: _l1linf(a, b), reps=2)
    elif workload == "ann-decide":
        uniform("approx-v2", size(24), 16, L2, lambda a, b, s: _v2(a, b, 0.5, 2.0, s), reps=6)
        m = size(16)
        m += m % 2  # NO instances pair their offsets
        cases += _decide_cases(m, size(32), (2, 16), {"yes": 1, "no": 2}, seeds, "separated")
    else:  # small-batch: sizes are already tiny and do not scale
        uniform("exact1d", 12, 1, L2, lambda a, b, s: _exact1d(a, b), reps=4)
        uniform("approx-v1", 12, 2, L2, lambda a, b, s: _v1(a, b, 0.5, s), reps=4)
        uniform("exact-l1linf", 6, 2, L1, lambda a, b, s: _l1linf(a, b), reps=6)
        uniform("approx-v2", 12, 16, L2, lambda a, b, s: _v2(a, b, 0.5, 2.0, s), reps=4)
        cases += _decide_cases(6, 12, (2,), {"yes": 2, "no": 4}, seeds, "separated")
    return cases


# -- independent evaluation ---------------------------------------------------


def _norms(v: np.ndarray, p: float) -> np.ndarray:
    if p == 2.0:
        return np.sqrt(np.sum(v * v, axis=-1))
    if p == 1.0:
        return np.sum(np.abs(v), axis=-1)
    return np.max(np.abs(v), axis=-1)


def chamfer_at(a: PointSet, t, b: PointSet, metric: Metric) -> float:
    """Exact CD(A + t, B) by a brute-force distance scan."""
    q = a.points + np.asarray(t, dtype=np.float64).reshape(1, -1)
    pts = b.points
    rows = max(1, (1 << 21) // (len(b) * b.dim))
    best = np.empty(len(q))
    for lo in range(0, len(q), rows):
        best[lo : lo + rows] = _norms(q[lo : lo + rows, None, :] - pts[None, :, :], metric.p).min(axis=1)
    return float(np.sum(best))


def _min_over(a: PointSet, ts: np.ndarray, b: PointSet, metric: Metric) -> float:
    """min over translations ``ts`` of CD(A + t, B).

    d = 1 uses a binary search into sorted B; higher d a k-d tree (k=1).
    """
    from scipy.spatial import cKDTree

    m = len(a)
    if a.dim == 1:
        bs = np.sort(b.points[:, 0])
        av = a.points[:, 0]

        def sums(block):
            q = block[:, :1] + av[None, :]
            i = np.searchsorted(bs, q)
            left = np.abs(q - bs[np.maximum(i - 1, 0)])
            right = np.abs(q - bs[np.minimum(i, len(bs) - 1)])
            return np.minimum(left, right).sum(axis=1)

    else:
        tree = cKDTree(b.points)

        def sums(block):
            q = (block[:, None, :] + a.points[None, :, :]).reshape(-1, a.dim)
            dist, _ = tree.query(q, k=1, p=metric.p, workers=-1)
            return dist.reshape(len(block), m).sum(axis=1)

    per = max(1, (1 << 20) // m)
    return min(float(sums(ts[lo : lo + per]).min()) for lo in range(0, len(ts), per))


def _differences(a: PointSet, b: PointSet) -> np.ndarray:
    return np.unique((b.points[None, :, :] - a.points[:, None, :]).reshape(-1, a.dim), axis=0)


# evaluate at most this many query rows when building a 1D reference
_REF_ROWS_1D = 1 << 20


def reference_value(case: Case, exact_value: Optional[float]) -> Optional[float]:
    """The value a solve is compared against for ``value_ratio``.

    - l1 d=2 (exact solver exists): the minimum over the full per-axis
      alignment grid, which contains an optimum.
    - d=1 (exact solver exists): the minimum over the match translations
      b - a, which contain an optimum.  Where that is too many rows, only
      an evenly spaced subset is scanned, and the exact solver's own value
      (already checked against a re-evaluation) is taken when it is lower.
    - otherwise: the minimum over all m*n differences b - a, evaluated
      exactly, which lies within a factor 2 of OPT.
    ``decide`` has no value reference; its answer is checked instead.
    """
    a, b, metric = case.a, case.b, case.metric
    if case.kind == "decide":
        return None
    if a.dim == 1:
        ts = _differences(a, b)
        limit = max(1, _REF_ROWS_1D // len(a))
        if len(ts) > limit:
            ts = ts[np.linspace(0, len(ts) - 1, limit).astype(np.int64)]
            ref = _min_over(a, ts, b, metric)
            return ref if exact_value is None else min(ref, exact_value)
        return _min_over(a, ts, b, metric)
    if case.kind == "exact-l1linf":
        axes = [np.unique(b.points[:, k][None, :] - a.points[:, k][:, None]) for k in range(a.dim)]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, a.dim)
        return _min_over(a, grid, b, metric)
    return _min_over(a, _differences(a, b), b, metric)


# -- output checks ------------------------------------------------------------


def summarize(result) -> dict:
    """The parts of a solve's output that the checks and the bit-identity test read."""
    if isinstance(result, cdut.decision.DecisionResult):
        ev = result.evidence
        return {
            "answer": result.answer,
            "value": float(ev.value),
            "translation": np.asarray(ev.translation, dtype=np.float64).copy(),
            "assignment": np.asarray(ev.assignment).copy(),
            "tested": int(result.translations_tested),
        }
    return {
        "answer": None,
        "value": float(result.value),
        "translation": np.asarray(result.translation, dtype=np.float64).copy(),
        "assignment": None if result.assignment is None else np.asarray(result.assignment).copy(),
        "tested": result.evaluations,
    }


# kinds whose value must equal an exact re-evaluation at their translation,
# and kinds that must never report below it
EXACT_VALUE_KINDS = ("exact1d", "exact-l1linf", "approx-v1")
UPPER_VALUE_KINDS = ("approx-v2", "localnet", "localnet-union")


def check(case: Case, out: dict) -> Optional[str]:
    """None when the output passes its check, else the reason it failed."""
    if case.kind == "decide":
        if out["answer"] != case.expect:
            return f"decide answered {out['answer']}, planted {case.expect}"
        return None
    value = out["value"]
    if not math.isfinite(value):
        return f"non-finite value {value}"
    again = chamfer_at(case.a, out["translation"], case.b, case.metric)
    slack = REL_TOL * max(1.0, abs(again))
    if case.kind in EXACT_VALUE_KINDS and abs(value - again) > slack:
        return f"value {value!r} != re-evaluation {again!r}"
    if case.kind in UPPER_VALUE_KINDS and value < again - slack:
        return f"value {value!r} below re-evaluation {again!r}"
    return None
