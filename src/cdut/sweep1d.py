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
order of ties inside a group does not matter.  An event takes about 40
bytes at peak; ``_EVENT_BUDGET`` caps the 2mn - m events.

``cdut_exact_1d`` sweeps in one pass when the events number at most
``_WINDOW_EVENTS``, and the exact near-tie step below picks the winner
among the swept matches.  Above that it cuts the t axis into windows of
about that many events, at quantiles of a strided sample of the match
translations.  Over a window [lo, hi] each term of CD(A + t, B) is at least
the distance from the interval [a + lo, a + hi] to B, so one
``searchsorted`` per point of A bounds every window from below.  The window
of lowest bound is swept first, and its best match value drops every
window whose bound, less the rounding slack of ``core._rounding``, exceeds
it by more than ``core._PRUNE_SLACK``.  Each run of consecutive surviving
windows is swept in one pass: for each a its events are a range of sorted
B and of the midpoints, its first value is one exact evaluation, and its
starting slope comes from the events left of the run.  A reseeded run's
values can differ from the one-shot sweep's in the last bits, so the
winner is picked exactly: every match whose swept value lies within the
rounding slack of the lowest goes, in ascending t, to
``core.chamfer_argmin``, which returns the smallest t of lowest exact
value.  Far from the origin that slack can admit most matches; when their
exact scan would take more query rows than there are events (and more
than ``core._QUERY_ROWS``), the match of lowest swept value over the runs
already swept wins, the smallest on ties, so no event is swept twice.
Memory is bounded by the runs swept, which can still hold all events, as
at m = 1, where every window bounds to 0.  The one-pass sweep settles its
near ties by the same step: at m = 1 every match is an exact zero, yet the
swept values can rank one of them above 0 by rounding.

For the l1 metric the same kink structure holds per coordinate, so in d
dimensions the optimum lies on the grid of per-dimension alignments
b_i - a_i; ``cdut_exact_l1_linf`` enumerates that grid for small d.  The
argument: the hyperplanes t_k = b_jk - a_ik cut R^d into boxes of the
grid.  Inside one box every |a_ik + t_k - b_jk| is affine in t, so each
point's nearest-neighbour distance, a minimum of affine functions, is
concave, and so is their sum.  A concave function bounded below attains
its minimum over a box at a vertex, a grid point.  The grid is never
built whole: ``_alignment_lattice`` holds it as the sorted alignment
values of each axis and one full interval of last-axis ranks per row, and
``core.lattice_argmin``, the same Lipschitz-pruned scan as the local net,
reads each cell's box from the per-axis values and builds only the grid
points of the cells that survive.  Since the grid holds a global optimum,
no grid point beats any real translation, so the lowest cell centre value
(plus rounding slack) is a safe upper bound from the start; the scan stays
exact and returns the same first minimum as a full scan.  The
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
from typing import Optional

import numpy as np

from .core import (
    L1,
    ChamferReport,
    Lattice,
    Metric,
    NearestIndex,
    PointSet,
    _check_budget,
    _check_same_dim,
    _PRUNE_SLACK,
    _QUERY_ROWS,
    _rounding,
    _tile_rows,
    build_index,
    chamfer_argmin,
    chamfer_many,
    chamfer_translated,
    lattice_argmin,
)

__all__ = ["sweep_curve", "cdut_exact_1d", "cdut_exact_l1_linf"]

# the alignment grid has up to (mn)^d points
_MAX_DIM = 3
# events of the 1D sweep (2mn - m)
_EVENT_BUDGET = 1 << 25
# events per window of the windowed sweep; a sweep of no more events runs in
# one pass, with no windows
_WINDOW_EVENTS = 1 << 14


def _event_count(a: PointSet, b: PointSet) -> int:
    """The sweep's 2mn - m events; raises ``ValueError`` for sets that are
    not 1D or when the count exceeds ``_EVENT_BUDGET``."""
    if a.dim != 1 or b.dim != 1:
        raise ValueError(f"expected one-dimensional sets, got dims {a.dim} and {b.dim}")
    events = 2 * len(a) * len(b) - len(a)
    if events > _EVENT_BUDGET:
        raise ValueError(f"1D sweep has {events} events, over budget {_EVENT_BUDGET}")
    return events


def _ranks(values: np.ndarray, av: np.ndarray, t: float) -> np.ndarray:
    """For each a of ``av``, how many of the sorted ``values`` v give a
    computed difference v - a below ``t``.

    A rounded difference is monotone in v, so these are the ranks that
    ``searchsorted`` finds for a + t, except where rounding puts a + t and
    some v - a on different sides of t; such a row is counted directly.
    """
    rank = np.searchsorted(values, av + t)
    if values.size == 0:
        return rank
    before = values[np.maximum(rank - 1, 0)] - av
    at = values[np.minimum(rank, values.size - 1)] - av
    for i in np.flatnonzero(((rank > 0) & (before >= t)) | ((rank < values.size) & (at < t))):
        rank[i] = np.searchsorted(values - av[i], t)
    return rank


def _gather(values: np.ndarray, av: np.ndarray, first: np.ndarray, stop: np.ndarray, out: np.ndarray) -> None:
    """Write values[j] - a for every a of ``av`` and j in [first, stop) into ``out``."""
    counts = stop - first
    rows = np.repeat(np.arange(av.size), counts)
    cols = np.arange(out.size) + np.repeat(first - (np.cumsum(counts) - counts), counts)
    np.subtract(values[cols], av[rows], out=out)


def _event_arrays(a: PointSet, b: PointSet, window=None):
    """Sorted unique event positions, match/midpoint multiplicities, and the
    slope of the objective to the right of each position.

    ``window``, a pair (lo, hi), keeps only the events at lo <= t < hi; the
    slope still counts every event to the left of each position.
    """
    av = a.points[:, 0]
    bv = np.sort(b.points[:, 0])
    mids = (bv[:-1] + bv[1:]) / 2.0
    m, n = av.size, bv.size
    if window is None:
        k = m * n
        total = 2 * k - m
        ev = np.empty(total)
        np.subtract(bv, av[:, None], out=ev[:k].reshape(m, n))
        np.subtract(mids, av[:, None], out=ev[k:].reshape(m, n - 1))
        base = -m
    else:
        lo, hi = window
        match_lo, mid_lo = _ranks(bv, av, lo), _ranks(mids, av, lo)
        match_hi, mid_hi = _ranks(bv, av, hi), _ranks(mids, av, hi)
        k = int((match_hi - match_lo).sum())
        total = k + int((mid_hi - mid_lo).sum())
        if total == 0:
            empty = np.zeros(0, dtype=np.int64)
            return np.zeros(0), empty, empty, empty
        ev = np.empty(total)
        _gather(bv, av, match_lo, match_hi, ev[:k])
        _gather(mids, av, mid_lo, mid_hi, ev[k:])
        # the slope left of lo: -m + 2 * (matches - midpoints below lo)
        base = -m + 2 * (int(match_lo.sum()) - int(mid_lo.sum()))
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
    # base + 2 * (matches - midpoints so far) = base + 2 * (2 * cm - seen)
    slope = seen
    np.subtract(cm, slope, out=slope)
    slope += cm
    slope *= 2
    slope += base
    return ts, n_match, n_mid, slope


def sweep_curve(a: PointSet, b: PointSet, index: Optional[NearestIndex] = None, window=None):
    """Event positions and the exact objective value at each of them.

    Returns (ts, values, n_match, n_mid).  values[i] is CD(A + ts[i], B),
    obtained by seeding an exact evaluation at ts[0] and integrating the
    piecewise-constant slope across the event list.  ``index``, an l2
    index over ``b``, seeds that evaluation when given.  ``window``, a
    pair (lo, hi), keeps only the events at lo <= t < hi (either end may
    be infinite); the seed is then taken at the window's first event.
    Raises ``ValueError`` when the 2mn - m events exceed ``_EVENT_BUDGET``.
    """
    _event_count(a, b)
    ts, n_match, n_mid, slope = _event_arrays(a, b, window)
    values = np.empty_like(ts)
    if ts.size == 0:
        return ts, values, n_match, n_mid
    cd0 = float(chamfer_many(a, ts[:1].reshape(-1, 1), b, index=index)[0])
    values[0] = cd0
    if ts.size > 1:
        # the same float operations, in the same order, as
        # cd0 + cumsum(slope[:-1] * diff(ts))
        np.subtract(ts[1:], ts[:-1], out=values[1:])
        values[1:] *= slope[:-1]
        np.cumsum(values[1:], out=values[1:])
        values[1:] += cd0
    return ts, values, n_match, n_mid


def _windows(av: np.ndarray, bv: np.ndarray, events: int):
    """Edges (lo, hi) of windows of about ``_WINDOW_EVENTS`` of the
    ``events`` each, or None when the edges leave one window.

    The inner edges are quantiles of a strided sample of the match
    translations, each one a match itself, so every window holds at least
    one match.  The outer edges are infinite.
    """
    count = -(-events // _WINDOW_EVENTS)
    m, n = av.size, bv.size
    # a grid of about 32 samples per window, shaped like the m x n matches
    size = 32 * count
    rows = min(m, max(1, round(math.sqrt(size * m / n))))
    cols = min(n, -(-size // rows))
    sample = np.sort((bv[np.arange(cols) * n // cols][None, :] - av[np.arange(rows) * m // rows][:, None]).ravel())
    cuts = np.unique(sample[np.arange(1, count) * sample.size // count])
    cuts = cuts[cuts > bv[0] - av.max()]
    if cuts.size == 0:
        return None
    return np.concatenate([[-math.inf], cuts]), np.concatenate([cuts, [math.inf]])


def _window_bounds(av: np.ndarray, bv: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """A lower bound on the computed CD(A + t, B) over each window [lo, hi].

    Each term is at least the distance from the interval [a + lo, a + hi]
    to B: zero when a point of B lies inside, else the gap to the nearer
    side.  Rounding is monotone, so each computed gap is at most the
    computed term at any t of the window, and the row sums, taken in A's
    order like ``chamfer_many``'s, keep that order.
    """
    lo = np.maximum(lo, bv[0] - av.max())
    hi = np.minimum(hi, bv[-1] - av.min())
    padded = np.concatenate([[-math.inf], bv, [math.inf]])
    # A sorted, so that each row of keys ascends, which ``searchsorted``
    # runs fastest on
    order = np.argsort(av, kind="stable")
    sorted_a = av[order]
    bounds = np.empty(lo.size)
    step = _tile_rows(av.size)
    for s in range(0, lo.size, step):
        q_lo = lo[s : s + step, None] + sorted_a
        q_hi = hi[s : s + step, None] + sorted_a
        right = np.searchsorted(padded, q_lo)  # the first point of B at or above a + lo
        above = padded[right]
        gap = np.minimum(q_lo - padded[right - 1], above - q_hi)
        gap[above <= q_hi] = 0.0
        q_lo[:, order] = gap  # back in A's order, in a buffer no longer needed
        bounds[s : s + step] = q_lo.sum(axis=1)
    return bounds


def _exact_near_ties(a: PointSet, b: PointSet, index: NearestIndex, runs, rounding: float, events: int):
    """The smallest match translation of lowest exact value among the
    matches of swept ``runs``, each a ``sweep_curve`` result, in ascending t.

    Swept values drift from exact ones within the rounding slack, so every
    match whose swept value lies that close to the lowest goes, in
    ascending t, to ``chamfer_argmin``, which returns the first minimum; a
    lone near tie wins without a query.  When that scan would take more
    query rows than the larger of ``events`` and ``_QUERY_ROWS``, the
    match of lowest swept value wins instead, the smallest on ties.
    """
    is_match = [n_match > 0 for _, _, n_match, _ in runs]
    low = min(float(values.min(where=match, initial=math.inf)) for (_, values, _, _), match in zip(runs, is_match))
    bar = low * (1.0 + 2.0 * _PRUNE_SLACK) + 2.0 * rounding
    near = np.concatenate([ts[match & (values <= bar)] for (ts, values, _, _), match in zip(runs, is_match)])
    if near.size * len(a) > max(events, _QUERY_ROWS):
        # the slack grows with the coordinates' magnitude; far from the
        # origin it can admit most matches
        return np.concatenate([ts[match & (values == low)] for (ts, values, _, _), match in zip(runs, is_match)])[0]
    if near.size == 1:
        return near[0]
    return near[chamfer_argmin(a, near, b, index=index).pos]


def _windowed_runs(a: PointSet, b: PointSet, index: NearestIndex, rounding: float, lo: np.ndarray, hi: np.ndarray):
    """``sweep_curve`` runs, in ascending t, over the windows [lo, hi)
    whose lower bound can still win, and the number of windows swept."""
    av = a.points[:, 0]
    bv = np.sort(b.points[:, 0])
    bounds = _window_bounds(av, bv, lo, hi)
    first = int(np.argmin(bounds))
    pieces = {first: sweep_curve(a, b, index, (lo[first], hi[first]))}
    _, values, n_match, _ = pieces[first]
    best = float(values[n_match > 0].min())
    live = bounds - rounding <= best * (1.0 + _PRUNE_SLACK)
    live[first] = False
    # each run of consecutive live windows is swept in one pass
    flips = np.flatnonzero(np.diff(np.concatenate([[False], live, [False]]).astype(np.int8)))
    for start, stop in zip(flips[::2], flips[1::2]):
        pieces[start] = sweep_curve(a, b, index, (lo[start], hi[stop - 1]))
    return [pieces[key] for key in sorted(pieces)], 1 + int(live.sum())


def cdut_exact_1d(a: PointSet, b: PointSet) -> ChamferReport:
    """Global minimum of CD(A+t, B) over all real t, for 1D sets.

    The returned translation is the smallest match translation b - a of
    lowest exact value; value and assignment are re-evaluated exactly
    there.  Only when the exact scan of the near ties declines (coordinates
    far from the origin) does the match of lowest swept value win, the
    smallest on ties.  ``evaluations`` counts the distinct event positions
    swept; the extras give all 2mn - m events (``events_full``), the
    windows, and the windows swept.
    """
    events = _event_count(a, b)
    index = build_index(b)
    av, bv = a.points[:, 0], np.sort(b.points[:, 0])
    rounding = _rounding(a, np.array([bv[0] - av.max(), bv[-1] - av.min()]))
    edges = _windows(av, bv, events) if events > _WINDOW_EVENTS else None
    if edges is None:
        runs, windows, windows_swept = [sweep_curve(a, b, index)], 1, 1
    else:
        runs, windows_swept = _windowed_runs(a, b, index, rounding, *edges)
        windows = len(edges[0])
    t = _exact_near_ties(a, b, index, runs, rounding, events)
    return chamfer_translated(
        a, t, b, index=index, algorithm="exact1d",
        evaluations=sum(ts.size for ts, _, _, _ in runs),
        extras={"events_full": events, "windows": windows, "windows_swept": windows_swept},
    )


def _alignment_values(points_a: np.ndarray, points_b: np.ndarray, axis: int) -> np.ndarray:
    return np.unique(points_b[:, axis][None, :] - points_a[:, axis][:, None])


def _alignment_lattice(points_a: np.ndarray, points_b: np.ndarray) -> Lattice:
    """Every combination of per-dimension alignments, as a lattice of each
    axis's rank among that axis's sorted alignment values.

    Each combination of the leading axes' ranks is one row, holding every
    rank of the last axis, so the scan meets the grid in key order.  The
    rows are held to the lattice budget.
    """
    axes = tuple(_alignment_values(points_a, points_b, axis) for axis in range(points_a.shape[1]))
    shape = tuple(vals.size for vals in axes)
    rows = math.prod(shape[:-1])
    _check_budget("alignment grid rows", rows)
    prefix = np.indices(shape[:-1]).reshape(len(shape) - 1, rows).T
    return Lattice(prefix, np.zeros(rows, dtype=np.int64), np.full(rows, shape[-1] - 1), axes=axes)


def cdut_exact_l1_linf(a: PointSet, b: PointSet, metric: Metric) -> ChamferReport:
    """Exact CDuT for the l1 metric in low dimension, and for linf up to 2D.

    l1: enumerates every translation aligning some pair of coordinates in
    each dimension (the per-dimension difference grids) and finds their
    first minimum exactly, skipping grid cells whose Lipschitz floor cannot
    win.  ``evaluations`` counts the whole grid; the extras count the query
    rows scored at grid points (``engine_rows``) and at cell centres
    (``bound_rows``).  The grid has up to (mn)^d points, so the dimension
    is capped, and its rows, cell pieces and built points, counted
    together while held at once, are held to the lattice budget
    (``ValueError`` beyond it).

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
    rotated = metric.p == math.inf and a.dim == 2
    if rotated:
        # max(|x|, |y|) = (|x+y| + |x-y|) / 2: solve as l1 in rotated coords,
        # then turn the winner back (rot @ rot = 2 I)
        rot = np.array([[1.0, 1.0], [1.0, -1.0]])
        fa, fb, frame_metric = PointSet(a.points @ rot.T), PointSet(b.points @ rot.T), L1
    else:
        fa, fb, frame_metric = a, b, metric
    grid = _alignment_lattice(fa.points, fb.points)
    index = build_index(fb, frame_metric)
    # first minimum = lexicographically smallest t
    found = lattice_argmin(fa, grid, fb, frame_metric, index, holds_optimum=True)
    t = found.translation @ (rot / 2.0).T if rotated else found.translation
    return chamfer_translated(
        a, t, b, metric, None if rotated else index, "exact-l1linf",
        evaluations=grid.size,
        extras={
            "engine_rows": found.rows,
            "engine_rows_full": grid.size * len(a),
            "bound_rows": found.bound_rows,
        },
    )
