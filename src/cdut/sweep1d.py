"""Exact Chamfer distance under translation in one dimension.

In 1D the objective t -> CD(A+t, B) is piecewise linear.  Its kinks occur
only at "match" translations b - a and at "midpoint" translations
(b_i + b_{i+1})/2 - a, and a global minimum is always attained at a match
translation.  The sweep sorts all kinks, seeds the exact value at the
leftmost one, and then walks the event list updating a running slope:
crossing an event changes the slope by +2 per match pair and -2 per
midpoint pair.  Total cost O(mn log(mn)).

The events are built as two sorted runs: the m*n match translations and
the m*(n-1) midpoint translations are written into the two halves of one
buffer and each half is sorted in place.  A stable argsort then merges the
two runs in one linear pass, and an index below m*n marks a match.  Equal
positions form one group, and only a group's counts enter the sweep, so the
order of ties inside a group does not matter.  All 2mn - m events are held
at once, about 40 bytes each at peak, so memory is quadratic like the time;
``_EVENT_BUDGET`` caps the event count.

For the l1 metric the same kink structure holds per coordinate, so in d
dimensions the optimum lies on the grid of per-dimension alignments
b_i - a_i; ``cdut_exact_l1_linf`` enumerates that grid for small d.  The
argument: the hyperplanes t_k = b_jk - a_ik cut R^d into boxes of the
grid.  Inside one box every |a_ik + t_k - b_jk| is affine in t, so each
point's nearest-neighbour distance, a minimum of affine functions, is
concave, and so is their sum.  A concave function bounded below attains
its minimum over a box at a vertex, a grid point.  The grid is scanned by
``core.lattice_argmin``, the same Lipschitz-pruned scan as the local net,
with each axis's rank as the lattice key.  Since the grid holds a global
optimum, no grid point beats any real translation, so the lowest cell
centre value (plus rounding slack) is a safe upper bound from the start;
the scan stays exact and returns the same first minimum as a full scan.  The
linf objective is different: its per-coordinate kinks sit at dominance
corners |a_i + t_i - b_i| = max_j |a_j + t_j - b_j| rather than at
alignments, and random 2D instances exist where every alignment candidate
is strictly worse than the optimum.  In 2D this is repaired exactly by a
45-degree change of coordinates (max(|x|, |y|) = (|x + y| + |x - y|) / 2),
which turns the linf problem into an l1 problem; beyond 2D no such
reduction exists and linf requests are refused.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Optional

import numpy as np

from .core import (
    L1,
    ChamferReport,
    Metric,
    NearestIndex,
    PointSet,
    _check_same_dim,
    build_index,
    chamfer_many,
    chamfer_translated,
    lattice_argmin,
)

__all__ = ["sweep_curve", "cdut_exact_1d", "cdut_exact_l1_linf"]

# the alignment grid has up to (mn)^d points
_MAX_DIM = 3
_CANDIDATE_BUDGET = 2_000_000
# events of the 1D sweep (2mn - m)
_EVENT_BUDGET = 1 << 25


def _require_1d(a: PointSet, b: PointSet) -> None:
    if a.dim != 1 or b.dim != 1:
        raise ValueError(f"expected one-dimensional sets, got dims {a.dim} and {b.dim}")


def _event_arrays(a: PointSet, b: PointSet):
    """Sorted unique event positions, match/midpoint multiplicities, and the
    slope of the objective to the right of each position."""
    av = a.points[:, 0]
    bv = np.sort(b.points[:, 0])
    m, n = av.size, bv.size
    k = m * n
    total = 2 * k - m
    ev = np.empty(total)
    np.subtract(bv, av[:, None], out=ev[:k].reshape(m, n))
    np.subtract((bv[:-1] + bv[1:]) / 2.0, av[:, None], out=ev[k:].reshape(m, n - 1))
    ev[:k].sort()
    ev[k:].sort()
    perm = ev.argsort(kind="stable")  # merges the two sorted runs
    is_match = perm < k
    ev = ev[perm]
    del perm
    last = np.empty(total, dtype=bool)
    np.not_equal(ev[1:], ev[:-1], out=last[:-1])
    last[-1] = True
    ends = np.flatnonzero(last)
    del last
    ts = ev[ends]
    del ev
    # matches up to each group's end; an int32 count runs about twice as fast
    cm = np.cumsum(is_match, dtype=np.int32 if total < 2**31 else np.int64)[ends]
    del is_match
    seen = ends
    seen += 1
    n_match = np.empty(ts.size, dtype=np.int64)
    n_match[0] = cm[0]
    np.subtract(cm[1:], cm[:-1], out=n_match[1:])
    n_mid = np.empty_like(n_match)
    n_mid[0] = seen[0]
    np.subtract(seen[1:], seen[:-1], out=n_mid[1:])
    n_mid -= n_match
    # -m + 2 * (matches - midpoints so far) = -m + 2 * (2 * cm - seen)
    slope = seen
    np.subtract(cm, slope, out=slope)
    slope += cm
    slope *= 2
    slope -= m
    return ts, n_match, n_mid, slope


def sweep_curve(a: PointSet, b: PointSet, index: Optional[NearestIndex] = None):
    """Event positions and the exact objective value at each of them.

    Returns (ts, values, n_match, n_mid).  values[i] is CD(A + ts[i], B),
    obtained by seeding an exact evaluation at ts[0] and integrating the
    piecewise-constant slope across the event list.  ``index``, an l2
    index over ``b``, seeds that evaluation when given.  Raises
    ``ValueError`` when the 2mn - m events exceed ``_EVENT_BUDGET``.
    """
    _require_1d(a, b)
    m = len(a)
    events = 2 * m * len(b) - m
    if events > _EVENT_BUDGET:
        raise ValueError(f"1D sweep has {events} events, over budget {_EVENT_BUDGET}")
    ts, n_match, n_mid, slope = _event_arrays(a, b)
    cd0 = float(chamfer_many(a, ts[:1].reshape(-1, 1), b, index=index)[0])
    values = np.empty_like(ts)
    values[0] = cd0
    if ts.size > 1:
        # the same float operations, in the same order, as
        # cd0 + cumsum(slope[:-1] * diff(ts))
        np.subtract(ts[1:], ts[:-1], out=values[1:])
        values[1:] *= slope[:-1]
        np.cumsum(values[1:], out=values[1:])
        values[1:] += cd0
    return ts, values, n_match, n_mid


def cdut_exact_1d(a: PointSet, b: PointSet) -> ChamferReport:
    """Global minimum of CD(A+t, B) over all real t, for 1D sets.

    The returned translation is the smallest match translation b - a
    attaining the minimum; value and assignment are re-evaluated exactly
    there.
    """
    index = build_index(b)
    ts, values, n_match, _ = sweep_curve(a, b, index)
    match_pos = np.flatnonzero(n_match > 0)
    best = match_pos[np.argmin(values[match_pos])]
    return replace(
        chamfer_translated(a, ts[best], b, index=index), algorithm="exact1d", evaluations=int(ts.size)
    )


def _alignment_values(points_a: np.ndarray, points_b: np.ndarray, axis: int) -> np.ndarray:
    return np.unique(points_b[:, axis][None, :] - points_a[:, axis][:, None])


def _alignment_grid(points_a: np.ndarray, points_b: np.ndarray):
    """Every combination of per-dimension alignments, last dimension fastest.

    Returns the grid's translations and their lattice keys: each axis's
    rank among that axis's sorted alignment values.
    """
    per_dim = [_alignment_values(points_a, points_b, axis) for axis in range(points_a.shape[1])]
    shape = tuple(vals.size for vals in per_dim)
    total = math.prod(shape)
    if total > _CANDIDATE_BUDGET:
        raise ValueError(f"candidate grid has {total} points, over budget {_CANDIDATE_BUDGET}")
    mesh = np.meshgrid(*per_dim, indexing="ij")
    keys = np.indices(shape).reshape(len(shape), -1).T
    return np.stack([m.ravel() for m in mesh], axis=1), keys


def cdut_exact_l1_linf(a: PointSet, b: PointSet, metric: Metric) -> ChamferReport:
    """Exact CDuT for the l1 metric in low dimension, and for linf up to 2D.

    l1: enumerates every translation aligning some pair of coordinates in
    each dimension (the per-dimension difference grids) and finds their
    first minimum exactly, skipping grid cells whose Lipschitz floor cannot
    win.  ``evaluations`` counts the whole grid; the extras count the query
    rows scored at grid points (``engine_rows``) and at cell centres
    (``bound_rows``).  The grid has up to (mn)^d points, so the dimension
    is capped.

    linf: in 2D, rotating coordinates by 45 degrees turns the problem into
    an l1 instance, which is then solved the same way; in 1D the metrics
    coincide.  For d >= 3 the alignment grid can strictly miss the optimum
    (the objective's kinks sit at dominance corners, not alignments) and no
    rotation repairs it, so those requests are rejected.
    """
    _check_same_dim(a, b)
    if metric.p == 2.0:
        raise ValueError("alignment-candidate enumeration is only valid for l1/linf metrics")
    if a.dim > _MAX_DIM:
        raise ValueError(f"dimension {a.dim} exceeds the enumeration cap {_MAX_DIM}")
    if metric.p == math.inf and a.dim > 2:
        raise ValueError(
            "exact linf search is limited to d <= 2; alignment candidates are "
            "not optimal for linf in higher dimension"
        )
    index = None
    if metric.p == math.inf and a.dim == 2:
        # max(|x|, |y|) = (|x+y| + |x-y|) / 2: solve as l1 in rotated coords
        rot = np.array([[1.0, 1.0], [1.0, -1.0]])
        ra, rb = a.points @ rot.T, b.points @ rot.T
        candidates, keys = _alignment_grid(ra, rb)
        best, _, rows, bound_rows = lattice_argmin(
            PointSet(ra), candidates, keys, PointSet(rb), L1, holds_optimum=True
        )
        t = candidates[best] @ np.array([[0.5, 0.5], [0.5, -0.5]]).T
    else:
        candidates, keys = _alignment_grid(a.points, b.points)
        index = build_index(b, metric)
        # first minimum = lexicographically smallest t
        best, _, rows, bound_rows = lattice_argmin(a, candidates, keys, b, metric, index, holds_optimum=True)
        t = candidates[best]
    return replace(
        chamfer_translated(a, t, b, metric, index=index),
        algorithm="exact-l1linf",
        evaluations=int(len(candidates)),
        extras={
            "engine_rows": rows,
            "engine_rows_full": len(candidates) * len(a),
            "bound_rows": bound_rows,
        },
    )
