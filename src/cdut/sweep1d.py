"""Exact Chamfer distance under translation in one dimension.

In 1D the objective t -> CD(A+t, B) is piecewise linear.  Its kinks occur
only at "match" translations b - a and at "midpoint" translations
(b_i + b_{i+1})/2 - a, and a global minimum is always attained at a match
translation.  The sweep sorts all kinks, seeds the exact value at the
leftmost one, and then walks the event list updating a running slope:
crossing an event changes the slope by +2 per match pair and -2 per
midpoint pair.  Total cost O(mn log(mn)).

For the l1 metric the same kink structure holds per coordinate, so in d
dimensions the optimum lies on the grid of per-dimension alignments
b_i - a_i; ``cdut_exact_l1_linf`` enumerates that grid for small d.  The
linf objective is different: its per-coordinate kinks sit at dominance
corners |a_i + t_i - b_i| = max_j |a_j + t_j - b_j| rather than at
alignments, and random 2D instances exist where every alignment candidate
is strictly worse than the optimum.  In 2D this is repaired exactly by a
45-degree change of coordinates (max(|x|, |y|) = (|x + y| + |x - y|) / 2),
which turns the linf problem into an l1 problem; beyond 2D no such
reduction exists and linf requests are refused.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    L1,
    ChamferReport,
    Metric,
    PointSet,
    chamfer_argmin,
    chamfer_many,
    chamfer_translated,
)

__all__ = [
    "SweepEvent",
    "build_events",
    "sweep_curve",
    "cdut_exact_1d",
    "cdut_exact_l1_linf",
]


@dataclass(frozen=True)
class SweepEvent:
    """A critical translation with its match/midpoint pair multiplicities."""

    t: float
    n_match: int
    n_mid: int


def _require_1d(a: PointSet, b: PointSet) -> None:
    if a.dim != 1 or b.dim != 1:
        raise ValueError(f"expected one-dimensional sets, got dims {a.dim} and {b.dim}")


def _event_arrays(a: PointSet, b: PointSet):
    """Sorted unique event positions plus match/midpoint multiplicities."""
    av = a.points[:, 0]
    bv = np.sort(b.points[:, 0])
    t_match = (bv[None, :] - av[:, None]).ravel()
    mids = (bv[:-1] + bv[1:]) / 2.0
    t_mid = (mids[None, :] - av[:, None]).ravel()
    ts = np.concatenate([t_match, t_mid])
    uniq, inverse = np.unique(ts, return_inverse=True)
    n_match = np.bincount(inverse[: t_match.size], minlength=uniq.size)
    n_mid = np.bincount(inverse[t_match.size :], minlength=uniq.size)
    return uniq, n_match.astype(np.int64), n_mid.astype(np.int64)


def build_events(a: PointSet, b: PointSet) -> list[SweepEvent]:
    """All critical translations, merged on exact equality, sorted ascending."""
    _require_1d(a, b)
    ts, n_match, n_mid = _event_arrays(a, b)
    return [SweepEvent(float(t), int(nb), int(nm)) for t, nb, nm in zip(ts, n_match, n_mid)]


def sweep_curve(a: PointSet, b: PointSet):
    """Event positions and the exact objective value at each of them.

    Returns (ts, values, n_match, n_mid).  values[i] is CD(A + ts[i], B),
    obtained by seeding an exact evaluation at ts[0] and integrating the
    piecewise-constant slope across the event list.
    """
    _require_1d(a, b)
    ts, n_match, n_mid = _event_arrays(a, b)
    m = len(a)
    cd0 = float(chamfer_many(a, ts[:1].reshape(-1, 1), b)[0])
    # slope to the right of event i; left of the first event it is -m
    slope_after = -m + 2 * np.cumsum(n_match - n_mid)
    values = np.empty_like(ts)
    values[0] = cd0
    if ts.size > 1:
        values[1:] = cd0 + np.cumsum(slope_after[:-1] * np.diff(ts))
    return ts, values, n_match, n_mid


def cdut_exact_1d(a: PointSet, b: PointSet) -> ChamferReport:
    """Global minimum of CD(A+t, B) over all real t, for 1D sets.

    The returned translation is the smallest match translation b - a
    attaining the minimum; value and assignment are re-evaluated exactly
    there.
    """
    ts, values, n_match, _ = sweep_curve(a, b)
    match_pos = np.flatnonzero(n_match > 0)
    best = match_pos[np.argmin(values[match_pos])]
    t_best = ts[best]
    report = chamfer_translated(a, t_best, b)
    return ChamferReport(
        value=report.value,
        translation=report.translation,
        assignment=report.assignment,
        algorithm="exact1d",
        evaluations=int(ts.size),
    )


def _alignment_values(points_a: np.ndarray, points_b: np.ndarray, axis: int) -> np.ndarray:
    return np.unique(points_b[:, axis][None, :] - points_a[:, axis][:, None])


def _alignment_grid(points_a: np.ndarray, points_b: np.ndarray, budget: int) -> np.ndarray:
    per_dim = [_alignment_values(points_a, points_b, axis) for axis in range(points_a.shape[1])]
    total = 1
    for vals in per_dim:
        total *= vals.size
    if total > budget:
        raise ValueError(f"candidate grid has {total} points, over budget {budget}")
    return np.array(list(itertools.product(*per_dim)), dtype=np.float64)


def cdut_exact_l1_linf(
    a: PointSet,
    b: PointSet,
    metric: Metric,
    max_dim: int = 3,
    candidate_budget: int = 2_000_000,
) -> ChamferReport:
    """Exact CDuT for the l1 metric in low dimension, and for linf up to 2D.

    l1: enumerates every translation aligning some pair of coordinates in
    each dimension (the per-dimension difference grids) and evaluates each
    exactly.  The grid has up to (mn)^d points, so the dimension is capped.

    linf: in 2D, rotating coordinates by 45 degrees turns the problem into
    an l1 instance, which is then solved the same way; in 1D the metrics
    coincide.  For d >= 3 the alignment grid can strictly miss the optimum
    (the objective's kinks sit at dominance corners, not alignments) and no
    rotation repairs it, so those requests are rejected.
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if metric.p == 2.0:
        raise ValueError("alignment-candidate enumeration is only valid for l1/linf metrics")
    if a.dim > max_dim:
        raise ValueError(f"dimension {a.dim} exceeds the enumeration cap {max_dim}")
    if metric.p == math.inf and a.dim > 2:
        raise ValueError(
            "exact linf search is limited to d <= 2; alignment candidates are "
            "not optimal for linf in higher dimension"
        )
    if metric.p == math.inf and a.dim == 2:
        # max(|x|, |y|) = (|x+y| + |x-y|) / 2: solve as l1 in rotated coords
        rot = np.array([[1.0, 1.0], [1.0, -1.0]])
        ra, rb = a.points @ rot.T, b.points @ rot.T
        candidates = _alignment_grid(ra, rb, candidate_budget)
        best, _, rows = chamfer_argmin(PointSet(ra), candidates, PointSet(rb), L1)
        t = candidates[best] @ np.array([[0.5, 0.5], [0.5, -0.5]]).T
    else:
        candidates = _alignment_grid(a.points, b.points, candidate_budget)
        # first minimum = lexicographically smallest t
        best, _, rows = chamfer_argmin(a, candidates, b, metric)
        t = candidates[best]
    report = chamfer_translated(a, t, b, metric)
    return ChamferReport(
        value=report.value,
        translation=report.translation,
        assignment=report.assignment,
        algorithm="exact-l1linf",
        evaluations=int(len(candidates)),
        extras={"engine_rows": rows, "engine_rows_full": len(candidates) * len(a)},
    )
