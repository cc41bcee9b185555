"""Local-net search: a (1 + eps)-approximation of CDuT.

Sampled difference candidates give a coarse estimate u of the optimum.
Some candidate provably lies within (1 + gamma) * u / m of an optimal
translation, so covering a ball of that radius around every candidate with
a net of spacing rho = eps * u / (3m) guarantees a net point whose Chamfer
cost is within (1 + eps) of the optimum.  The reported value is an exact
evaluation at a real translation, so it can never fall below the true
optimum.

The search skips net points that provably cannot win.  Each term of
CD(A + t, B) is 1-Lipschitz in t, so the whole sum is m-Lipschitz: one
exact value at the centre of a block of lattice points bounds every point
of the block from below.  A block whose bound exceeds a net value already
found is never evaluated; the rest are scanned in their original order.
Centres only bound and never win, so the winner is the first minimum of
a full scan, bit for bit.

Net points are drawn from a single global lattice (spacing chosen per
metric so any ball point is within rho of a kept lattice point).  The
union mode deduplicates lattice points shared by overlapping balls; plain
mode evaluates each ball separately.  Both modes therefore scan exactly
the same set of translations and agree on the minimum value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .core import (
    _PRUNE_SLACK,
    L2,
    ChamferReport,
    Metric,
    PointSet,
    anchor_count,
    build_index,
    chamfer_argmin,
    chamfer_many,
    chamfer_translated,
    difference_candidates,
    sample_anchors,
)

__all__ = ["LocalNetConfig", "cdut_localnet"]

_MAX_NET_DIM = 6
_NET_BUDGET = 2_000_000
# lattice points per side of a pruning cell
_CELL = 4


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


def _grid_step(metric: Metric, rho: float, d: int) -> float:
    # spacing such that half a grid cell is within rho/2 in the metric
    if metric.p == 2.0:
        return rho / math.sqrt(d)
    if metric.p == 1.0:
        return rho / d
    return rho


def _ball_lattice_ranges(center: np.ndarray, radius: float, step: float):
    lo = np.ceil((center - radius) / step - 1e-12).astype(np.int64)
    hi = np.floor((center + radius) / step + 1e-12).astype(np.int64)
    return lo, hi


def _lattice_points(lo: np.ndarray, hi: np.ndarray, step: float) -> np.ndarray:
    axes = [np.arange(l, h + 1, dtype=np.int64) for l, h in zip(lo, hi)]
    mesh = np.meshgrid(*axes, indexing="ij")
    idx = np.stack([m.ravel() for m in mesh], axis=1)
    return idx, idx.astype(np.float64) * step


def _unique_rows(idx: np.ndarray):
    """Distinct rows of an integer array, sorted, and each row's rank among them."""
    order = np.lexsort(idx.T[::-1])
    rows = idx[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = np.any(rows[1:] != rows[:-1], axis=1)
    rank = np.empty(len(rows), dtype=np.int64)
    rank[order] = np.cumsum(new) - 1
    return rows[new], rank


def _net_phase(
    dim: int,
    metric: Metric,
    candidates: np.ndarray,
    radius: float,
    rho: float,
    union: bool,
):
    """Lattice translations to evaluate, per ball or as a deduplicated union.

    Returns the net points and their lattice indices; each point is its
    index times the lattice step.
    """
    d = dim
    if d > _MAX_NET_DIM:
        raise ValueError(f"net search capped at dimension {_MAX_NET_DIM}, got {d}")
    step = _grid_step(metric, rho, d)
    blocks = []
    total = 0
    for center in candidates:
        lo, hi = _ball_lattice_ranges(center, radius, step)
        count = int(np.prod(hi - lo + 1))
        total += count
        if total > _NET_BUDGET:
            raise ValueError("net search exceeds the evaluation budget")
        idx, pts = _lattice_points(lo, hi, step)
        keep = metric.norms(pts - center) <= radius * (1.0 + 1e-9) + 1e-12
        blocks.append(idx[keep])
    if not blocks:
        return np.empty((0, d)), np.empty((0, d), dtype=np.int64)
    idx = np.concatenate(blocks, axis=0)
    if union:
        idx = _unique_rows(idx)[0]
    return idx.astype(np.float64) * step, idx


def _cells(idx: np.ndarray, step: float, metric: Metric):
    """Group lattice points into cells of ``_CELL``^d.

    Returns each point's cell, the cell centres, and r, the metric distance
    from a centre to the farthest lattice point its cell can hold.
    """
    cells, which = _unique_rows(idx // _CELL)
    half = (_CELL - 1) / 2.0
    centres = (cells * _CELL + half) * step
    r = float(metric.norms(np.full(idx.shape[1], half * step)))
    return which, centres, r


def _cell_floor(values: np.ndarray, a: PointSet, centres: np.ndarray, r: float) -> np.ndarray:
    """Lowest computed Chamfer value a member of each cell can have.

    ``values`` are the centres' values.  A member lies within ``r`` of its
    centre, so its exact value is at least ``value - m * r``.  The computed
    values round each query's coordinates, which stay below ``magnitude``
    (A's largest coordinate plus a member's), and each sum; ``_PRUNE_SLACK``
    is millions of unit roundoffs, which covers the few roundings per term
    with room to spare.
    """
    m = len(a)
    magnitude = float(np.abs(a.points).max() + np.abs(centres).max() + r)
    return values - m * r - _PRUNE_SLACK * (values + m * (r + magnitude))


def _net_argmin(a, b, metric, index, net, idx, step, u):
    """First minimum of the net's values that is at most u, skipping cells that cannot win.

    Position and value equal ``chamfer_argmin(a, net, b, metric, upper=u)``.
    The cell with the lowest floor is evaluated first; every cell whose
    floor exceeds the best value then found is dropped, and the rest are
    scanned in their original order.  Returns (position, value, query rows
    at net points, query rows at cell centres).
    """
    if len(net) == 0:
        return -1, math.inf, 0, 0
    m = len(a)
    which, centres, r = _cells(idx, step, metric)
    floors = _cell_floor(chamfer_many(a, centres, b, metric, index), a, centres, r)
    first = int(np.argmin(floors))
    head = np.flatnonzero(which == first)
    pos, value, rows = chamfer_argmin(a, net[head], b, metric, index=index, upper=u)
    # len(net) stands for "no winner yet": it sorts after every real position
    best = (value, int(head[pos])) if pos >= 0 else (math.inf, len(net))
    bound = min(u, value)
    rest = np.flatnonzero((floors[which] <= bound) & (which != first))
    pos, value, more = chamfer_argmin(a, net[rest], b, metric, index=index, upper=bound)
    if pos >= 0:
        best = min(best, (value, int(rest[pos])))
    value, pos = best
    return (-1 if pos == len(net) else pos), value, rows + more, len(centres) * m


def cdut_localnet(
    a: PointSet, b: PointSet, config: LocalNetConfig, seed: int = 0, metric: Metric = L2
) -> ChamferReport:
    """(1 + eps)-approximation by exact evaluation over sampled local nets."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    index = build_index(b, metric)
    m = len(a)
    candidates = difference_candidates(a, b, sample_anchors(m, anchor_count(config.gamma, config.delta), seed))
    u_pos, u, rows = chamfer_argmin(a, candidates, b, metric, index=index)
    radius = (1.0 + config.gamma) * u / m
    rho = config.epsilon * u / (config.h * m)
    # a zero-cost candidate is globally optimal and the net radii degenerate,
    # so no net is built and the candidate wins
    if u == 0.0:
        net, idx = np.empty((0, a.dim)), np.empty((0, a.dim), dtype=np.int64)
    else:
        net, idx = _net_phase(a.dim, metric, candidates, radius, rho, config.union_mode)
    step = _grid_step(metric, rho, a.dim)
    best, value, net_rows, bound_rows = _net_argmin(a, b, metric, index, net, idx, step, u)
    best_t = net[best] if value < u else candidates[u_pos]
    return replace(
        chamfer_translated(a, best_t, b, metric),
        algorithm="localnet-union" if config.union_mode else "localnet",
        epsilon=config.epsilon,
        seed=seed,
        evaluations=int(len(net)),
        extras={
            "u": u,
            "radius": radius,
            "rho": rho,
            "candidates": int(len(candidates)),
            "engine_rows": rows + net_rows,
            "engine_rows_full": (len(candidates) + len(net)) * m,
            "bound_rows": bound_rows,
        },
    )
