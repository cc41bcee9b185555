"""Outside-in span tracer over the public functions of each ``cdut`` module.

The modules import each other by name (``from .core import chamfer_many``),
so patching the defining module alone would miss most calls.  ``install``
replaces every consumer's binding with a wrapper that records a span, and
``uninstall`` puts each original object back.  Nothing under ``src/`` is
changed.

A span is named ``<module>.<function>`` and records its duration, the time
covered by its child spans on the same thread, and counts read from its
arguments and return value only.  Each thread keeps its own span stack,
because ``NearestIndex.query_many`` runs in ``run_chunked`` worker threads;
a span that opens on an empty worker-thread stack is attributed to the
``run_chunked`` call that is open at that moment.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

import cdut.ann
import cdut.approx
import cdut.core
import cdut.decision
import cdut.localnet
import cdut.oracle
import cdut.sweep1d

Counter = Callable[[tuple, dict, object], dict]


def _rows_chamfer_many(args, kwargs, result):
    a, translations = args[0], np.asarray(args[1])
    if translations.ndim == 1:
        t = len(translations) if a.dim == 1 else 1
    else:
        t = translations.shape[0]
    rows = t * len(a)
    return {"rows": rows, "query_bytes": rows * a.dim * 8}


def _rows_query(args, kwargs, result):
    return {"rows": len(args[1])}


def _chunked(args, kwargs, result):
    return {"blocks": len(result), "workers": int(args[2])}


def _sweep(args, kwargs, result):
    m, n = len(args[0]), len(args[1])
    raw = 2 * m * n - m  # m*n match events plus m*(n-1) midpoint events
    return {"events": len(result[0]), "raw_events": raw, "event_bytes": raw * 16}


def _ladder(args, kwargs, result):
    return {"scales": len(result.scales), "tables": sum(len(s.tables) for s in result.scales)}


def _evaluations(args, kwargs, result):
    return {"candidates": int(result.evaluations or 0)}


def _localnet(args, kwargs, result):
    extras = result.extras or {}
    return {"net_points": int(result.evaluations or 0), "candidates": int(extras.get("candidates", 0))}


def _median(args, kwargs, result):
    return {"iterations": int(result.iterations), "nonconverged": int(not result.converged)}


def _decide(args, kwargs, result):
    return {"translations_tested": int(result.translations_tested)}


# span name -> (bindings that carry it, counter)
_FUNCTIONS: dict[str, tuple[tuple, Optional[Counter]]] = {
    "core.chamfer_many": (
        (cdut.core, cdut.sweep1d, cdut.approx, cdut.localnet, cdut.oracle),
        _rows_chamfer_many,
    ),
    "core.chamfer_translated": (
        (cdut.core, cdut.sweep1d, cdut.approx, cdut.localnet, cdut.oracle),
        None,
    ),
    "core.build_index": (
        (cdut.core, cdut.ann, cdut.localnet, cdut.decision, cdut.oracle),
        None,
    ),
    "parallel.run_chunked": ((cdut.core,), _chunked),
    "sweep1d.sweep_curve": ((cdut.sweep1d,), _sweep),
    "sweep1d.cdut_exact_1d": ((cdut.sweep1d,), None),
    "sweep1d.cdut_exact_l1_linf": ((cdut.sweep1d,), _evaluations),
    "ann.build_ladder": ((cdut.ann, cdut.approx, cdut.decision), _ladder),
    "approx.cdut_approx_v1": ((cdut.approx,), _evaluations),
    "approx.cdut_approx_v2": ((cdut.approx,), _evaluations),
    "localnet.cdut_localnet": ((cdut.localnet,), _localnet),
    "decision.check_separation": ((cdut.decision,), None),
    "decision.geometric_median": ((cdut.decision,), _median),
    "decision.decide_cdut": ((cdut.decision,), _decide),
}

_METHODS: dict[str, tuple[type, str, Optional[Counter]]] = {
    "core.query_many": (cdut.core.NearestIndex, "query_many", _rows_query),
    "ann.query_batch": (cdut.ann.ScaleLadder, "query_batch", _rows_query),
}

_CHUNKED = "parallel.run_chunked"
_MODULES = ("core", "parallel", "sweep1d", "ann", "approx", "localnet", "decision")


@dataclass
class Span:
    name: str
    parent: Optional["Span"]
    duration_ns: int = 0
    child_ns: int = 0
    counts: dict = field(default_factory=dict)
    on_main: bool = True


class Tracer:
    """Records spans while installed; ``summary`` aggregates them per name."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._open_chunked: Optional[Span] = None
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn, counter: Optional[Counter]):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            # a worker thread's first span belongs to the open run_chunked call
            parent = stack[-1] if stack else tracer._open_chunked
            span = Span(name, parent, on_main=threading.current_thread() is threading.main_thread())
            stack.append(span)
            if name == _CHUNKED:
                tracer._open_chunked = span
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.duration_ns = time.perf_counter_ns() - start
                stack.pop()
                if name == _CHUNKED:
                    tracer._open_chunked = None
                if stack:
                    stack[-1].child_ns += span.duration_ns
                tracer.spans.append(span)
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every listed binding; absent bindings are skipped and read 0."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        wrapped: dict[int, object] = {}
        for name, (modules, counter) in _FUNCTIONS.items():
            attr = name.split(".")[1]
            for module in modules:
                original = getattr(module, attr, None)
                if original is None:
                    continue
                if id(original) not in wrapped:
                    wrapped[id(original)] = self._wrap(name, original, counter)
                self._saved.append((module, attr, original))
                setattr(module, attr, wrapped[id(original)])
        for name, (cls, attr, counter) in _METHODS.items():
            original = cls.__dict__.get(attr)
            if original is None:
                continue
            self._saved.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original, counter))

    def uninstall(self) -> None:
        """Put every original binding back, in reverse order."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def summary(self, solves: int, solve_s: float) -> dict:
        """Per-layer metrics over ``solves`` traced solves taking ``solve_s``.

        Counts and times are per solve; see README.md for each name.  A
        module's ``share`` is the main thread's self time in its spans over
        ``solve_s``; worker-thread time sits inside ``run_chunked``'s.
        """
        per = max(1, solves)
        calls: dict = defaultdict(int)
        total: dict = defaultdict(int)
        self_ns: dict = defaultdict(int)
        counts: dict = defaultdict(int)
        busy_in_chunked = 0
        fallback_rows = 0
        module_self: dict = defaultdict(int)
        for s in self.spans:
            if s.on_main:
                module_self[s.name.split(".")[0]] += s.duration_ns - s.child_ns
            calls[s.name] += 1
            total[s.name] += s.duration_ns
            self_ns[s.name] += s.duration_ns - s.child_ns
            for key, value in s.counts.items():
                counts[s.name, key] += value
            if s.name == "core.query_many" and s.parent is not None:
                if s.parent.name == _CHUNKED:
                    busy_in_chunked += s.duration_ns
                elif s.parent.name == "ann.query_batch":
                    fallback_rows += s.counts.get("rows", 0)
        chunked_capacity = sum(
            s.duration_ns * s.counts.get("workers", 1) for s in self.spans if s.name == _CHUNKED
        )

        def ms(values, key):
            return values[key] / 1e6 / per

        def n(key, count=None):
            return (counts[key, count] if count else calls[key]) / per

        def ratio(num, den):
            return num / den if den else 0.0

        qm_rows, qm_s = counts["core.query_many", "rows"], total["core.query_many"] / 1e9
        qb_rows, qb_s = counts["ann.query_batch", "rows"], self_ns["ann.query_batch"] / 1e9
        shares = {f"{module}.share": ratio(module_self[module] / 1e9, solve_s) for module in _MODULES}
        return shares | {
            "core.chamfer_many.calls": n("core.chamfer_many"),
            "core.chamfer_many.self_ms": ms(self_ns, "core.chamfer_many"),
            "core.chamfer_many.rows": n("core.chamfer_many", "rows"),
            "core.chamfer_many.query_mb": n("core.chamfer_many", "query_bytes") / 1e6,
            "core.query_many.calls": n("core.query_many"),
            "core.query_many.busy_ms": ms(total, "core.query_many"),
            "core.query_many.rows": n("core.query_many", "rows"),
            "core.query_many.rows_per_s": ratio(qm_rows, qm_s),
            "core.build_index.calls": n("core.build_index"),
            "core.build_index.ms": ms(total, "core.build_index"),
            "core.chamfer_translated.calls": n("core.chamfer_translated"),
            "core.chamfer_translated.ms": ms(total, "core.chamfer_translated"),
            "parallel.run_chunked.calls": n(_CHUNKED),
            "parallel.run_chunked.wall_ms": ms(total, _CHUNKED),
            "parallel.run_chunked.blocks": n(_CHUNKED, "blocks"),
            "parallel.busy_ratio": ratio(busy_in_chunked, chunked_capacity),
            "sweep1d.sweep_curve.calls": n("sweep1d.sweep_curve"),
            "sweep1d.sweep_curve.self_ms": ms(self_ns, "sweep1d.sweep_curve"),
            "sweep1d.events": n("sweep1d.sweep_curve", "events"),
            "sweep1d.event_dedup_ratio": ratio(
                counts["sweep1d.sweep_curve", "events"], counts["sweep1d.sweep_curve", "raw_events"]
            ),
            "sweep1d.event_mb": n("sweep1d.sweep_curve", "event_bytes") / 1e6,
            "sweep1d.cdut_exact_1d.self_ms": ms(self_ns, "sweep1d.cdut_exact_1d"),
            "sweep1d.cdut_exact_l1_linf.self_ms": ms(self_ns, "sweep1d.cdut_exact_l1_linf"),
            "sweep1d.cdut_exact_l1_linf.candidates": n("sweep1d.cdut_exact_l1_linf", "candidates"),
            "ann.build_ladder.calls": n("ann.build_ladder"),
            "ann.build_ladder.ms": ms(total, "ann.build_ladder"),
            "ann.build_ladder.scales": n("ann.build_ladder", "scales"),
            "ann.build_ladder.tables": n("ann.build_ladder", "tables"),
            "ann.query_batch.calls": n("ann.query_batch"),
            "ann.query_batch.self_ms": ms(self_ns, "ann.query_batch"),
            "ann.query_batch.rows": n("ann.query_batch", "rows"),
            "ann.query_batch.rows_per_s": ratio(qb_rows, qb_s),
            "ann.fallback_rows": fallback_rows / per,
            "ann.fallback_frac": ratio(fallback_rows, qb_rows),
            "approx.cdut_approx_v1.self_ms": ms(self_ns, "approx.cdut_approx_v1"),
            "approx.cdut_approx_v2.self_ms": ms(self_ns, "approx.cdut_approx_v2"),
            "approx.candidates": n("approx.cdut_approx_v1", "candidates")
            + n("approx.cdut_approx_v2", "candidates"),
            "localnet.cdut_localnet.self_ms": ms(self_ns, "localnet.cdut_localnet"),
            "localnet.net_points": n("localnet.cdut_localnet", "net_points"),
            "localnet.candidates": n("localnet.cdut_localnet", "candidates"),
            "decision.check_separation.ms": ms(total, "decision.check_separation"),
            "decision.geometric_median.calls": n("decision.geometric_median"),
            "decision.geometric_median.ms": ms(total, "decision.geometric_median"),
            "decision.median_iterations": n("decision.geometric_median", "iterations"),
            "decision.median_nonconverged": n("decision.geometric_median", "nonconverged"),
            "decision.decide_cdut.self_ms": ms(self_ns, "decision.decide_cdut"),
            "decision.translations_tested": n("decision.decide_cdut", "translations_tested"),
        }
