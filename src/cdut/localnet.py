"""Local-net search: a (1 + eps)-approximation of CDuT.

Sampled difference candidates give a coarse estimate u of the optimum.
Some candidate provably lies within (1 + gamma) * u / m of an optimal
translation, so covering a ball of that radius around every candidate with
a net of spacing rho = eps * u / (3m) guarantees a net point whose Chamfer
cost is within (1 + eps) of the optimum.  The reported value is an exact
evaluation at a real translation, so it can never fall below the true
optimum.

The net is never built whole.  ``_net_lattice`` holds it as a lattice:
one key interval per row of each ball's key box, because along a row only
the last key moves and every float operation of the ball test is monotone
in it on either side of the centre.  ``core.lattice_argmin``, the scan that
``exact-l1linf`` also runs over its alignment grid, then builds only the
net points that can win.  Each term of CD(A + t, B) is 1-Lipschitz in t,
so the whole sum is m-Lipschitz: one exact value at the centre of a block
of lattice points bounds every point of the block from below.  Blocks of
16^d lattice keys are bounded first, their boxes read off the rows'
intervals, then blocks of 4^d inside the survivors.  Only the points of
the surviving blocks are built, and their floors ride along into the
early-abandoning scan, in the net's order, under the bound u.  A point
that plain mode repeats is scanned once, at its first position.  Centres
only bound and never win, so the winner is the first minimum of a full
scan, bit for bit, and ``evaluations`` still counts the whole net.

Net points are drawn from a single global lattice (spacing chosen per
metric so any ball point is within rho of a kept lattice point).  The
union mode merges the intervals that overlapping balls share; plain mode
keeps each ball's rows.  Both modes therefore scan exactly the same set
of translations and agree on the minimum value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    L2,
    ChamferReport,
    Lattice,
    Metric,
    PointSet,
    _check_budget,
    _check_same_dim,
    _row_order,
    _runs,
    anchor_count,
    build_index,
    chamfer_argmin,
    chamfer_many,  # noqa: F401  still importable here; perfbench's tracer patches it per module
    chamfer_translated,
    difference_candidates,
    lattice_argmin,
    sample_anchors,
)

__all__ = ["LocalNetConfig", "cdut_localnet"]

_MAX_NET_DIM = 6


@dataclass(frozen=True)
class LocalNetConfig:
    epsilon: float
    gamma: Optional[float] = None  # defaults to epsilon
    delta: float = 0.1
    h: float = 3.0
    union_mode: bool = False

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        gamma = self.epsilon if self.gamma is None else self.gamma
        if not 0.0 < gamma <= 1.0:
            raise ValueError("gamma must lie in (0, 1]")
        if self.h < 2.0 + gamma:
            raise ValueError(f"h must be at least 2 + gamma = {2.0 + gamma}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        object.__setattr__(self, "gamma", gamma)


def _ball_lattice_ranges(center: np.ndarray, radius: float, step: float):
    lo = np.ceil((center - radius) / step - 1e-12).astype(np.int64)
    hi = np.floor((center + radius) / step + 1e-12).astype(np.int64)
    return lo, hi


def _first_true(pred, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per row, the least x in [lo, hi] where ``pred`` holds, or hi + 1 where
    it holds nowhere; along each row ``pred`` is false, then true."""
    hi = hi + 1
    while True:
        open_ = lo < hi
        if not open_.any():
            return lo
        mid = (lo + hi) // 2
        ok = pred(mid)
        hi = np.where(open_ & ok, mid, hi)
        lo = np.where(open_ & ~ok, mid + 1, lo)


def _merged_rows(prefix: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Rows holding the same keys, each prefix's intervals merged: disjoint,
    and sorted by key."""
    if lo.size == 0:
        return prefix, lo, hi
    order, _ = _row_order(np.column_stack([prefix, lo]))
    prefix, lo, hi = prefix[order], lo[order], hi[order]
    new = np.ones(lo.size, dtype=bool)
    new[1:] = np.any(prefix[1:] != prefix[:-1], axis=1)
    # the running maximum of hi within each prefix, taken over ranks of hi,
    # each prefix offset past every rank of the one before
    values, rank = np.unique(hi, return_inverse=True)
    offset = (np.cumsum(new) - 1) * values.size
    reach = values[np.maximum.accumulate(offset + rank) - offset]
    start = new.copy()
    start[1:] |= lo[1:] > reach[:-1] + 1
    starts = np.flatnonzero(start)
    return prefix[starts], lo[starts], reach[np.append(starts[1:], lo.size) - 1]


def _net_lattice(
    dim: int,
    metric: Metric,
    candidates: np.ndarray,
    radius: float,
    rho: float,
    union: bool,
) -> Lattice:
    """The lattice points within ``radius`` of the candidates, as a lattice.

    Each point is its lattice key times the lattice step.  A ball keeps the
    points of its key box whose computed distance from the centre,
    ``norms(key * step - centre)``, is at most ``radius * (1 + 1e-9) +
    1e-12``.  Along a row of the box only the last key moves, and every
    float operation of that test is monotone in it on either side of the
    centre, so a row keeps one interval of keys, whose ends one bisection
    finds.  Plain mode keeps each ball's rows, in ball order and each
    ball's rows in key order, so the scan meets the points as a
    ball-by-ball listing would; union mode merges the rows of each prefix,
    so it holds each point once, in key order.  The rows built are held to
    the lattice budget.
    """
    d = dim
    if d > _MAX_NET_DIM:
        raise ValueError(f"net search capped at dimension {_MAX_NET_DIM}, got {d}")
    # spacing such that half a grid cell is within rho/2 in the metric
    step = rho / float(metric.norms(np.ones(d)))
    centres = np.asarray(candidates, dtype=np.float64).reshape(-1, d)
    lo, hi = _ball_lattice_ranges(centres, radius, step)
    widths = np.maximum(hi - lo + 1, 0)
    per_ball = np.prod(widths[:, :-1].astype(np.float64), axis=1) * (widths[:, -1] > 0)
    _check_budget("local net rows", int(per_ball.sum()))
    # one row per ball and prefix of its box, the last prefix axis fastest
    ball, rank = _runs(per_ball.astype(np.int64))
    prefix = np.empty((ball.size, d - 1), dtype=np.int64)
    for k in range(d - 2, -1, -1):
        prefix[:, k] = lo[ball, k] + rank % widths[ball, k]
        rank //= widths[ball, k]
    # each row twice: the first copy finds the row's first key in the ball,
    # the second the first key past it
    rows = ball.size
    diff = np.empty((2 * rows, d))
    diff[:rows, :-1] = prefix.astype(np.float64) * step - centres[ball, :-1]
    diff[rows:, :-1] = diff[:rows, :-1]
    centre, reach = np.tile(centres[ball, -1], 2), radius * (1.0 + 1e-9) + 1e-12
    second = np.arange(2 * rows) >= rows

    def found(x):
        # on the near side of the centre a key enters the ball and stays in,
        # on the far side it stays in until it leaves: so the first copy
        # looks for in the ball or at or past the centre, the second for out
        # of the ball and at or past the centre
        diff[:, -1] = x.astype(np.float64) * step - centre
        inside, ahead = metric.norms(diff) <= reach, diff[:, -1] >= 0.0
        return np.where(second, ahead & ~inside, ahead | inside)

    ends = _first_true(found, np.tile(lo[ball, -1], 2), np.tile(hi[ball, -1], 2))
    start, stop = ends[:rows], ends[rows:]
    keep = start < stop
    kept = prefix[keep], start[keep], stop[keep] - 1
    return Lattice(*(_merged_rows(*kept) if union else kept), step=step)


def cdut_localnet(
    a: PointSet, b: PointSet, config: LocalNetConfig, seed: int = 0, metric: Metric = L2
) -> ChamferReport:
    """(1 + eps)-approximation by exact evaluation over sampled local nets."""
    _check_same_dim(a, b)
    index = build_index(b, metric)
    m = len(a)
    candidates = difference_candidates(a, b, sample_anchors(m, anchor_count(config.gamma, config.delta), seed))
    u_pos, u, rows = chamfer_argmin(a, candidates, b, metric, index=index)
    radius = (1.0 + config.gamma) * u / m
    rho = config.epsilon * u / (config.h * m)
    best_t, net_size, net_rows, bound_rows = candidates[u_pos], 0, 0, 0
    # a zero-cost candidate is globally optimal and the net radii degenerate,
    # so no net is built and the candidate wins
    if u > 0.0:
        net = _net_lattice(a.dim, metric, candidates, radius, rho, config.union_mode)
        found = lattice_argmin(a, net, b, metric, index=index, upper=u)
        if found.value < u:
            best_t = found.translation
        net_size, net_rows, bound_rows = net.size, found.rows, found.bound_rows
    return chamfer_translated(
        a, best_t, b, metric, index, "localnet-union" if config.union_mode else "localnet",
        epsilon=config.epsilon,
        seed=seed,
        evaluations=net_size,
        extras={
            "u": u,
            "radius": radius,
            "rho": rho,
            "candidates": int(len(candidates)),
            "engine_rows": rows + net_rows,
            "engine_rows_full": (len(candidates) + net_size) * m,
            "bound_rows": bound_rows,
        },
    )
