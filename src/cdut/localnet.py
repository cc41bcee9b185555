"""Local-net search: a (1 + eps)-approximation of CDuT.

Sampled difference candidates give a coarse estimate u of the optimum.
Some candidate provably lies within (1 + gamma) * u / m of an optimal
translation, so covering a ball of that radius around every candidate with
a net of spacing rho = eps * u / (3m) guarantees a net point whose Chamfer
cost is within (1 + eps) of the optimum.  The reported value is an exact
evaluation at a real translation, so it can never fall below the true
optimum.

The search skips net points that provably cannot win, through
``core.lattice_argmin``, the pruned scan that ``exact-l1linf`` also runs
over its alignment grid.  Each term of CD(A + t, B) is 1-Lipschitz in t,
so the whole sum is m-Lipschitz: one exact value at the centre of a block
of lattice points bounds every point of the block from below.  Blocks of
16^d lattice indices are bounded first, then blocks of 4^d inside the
survivors, and the floors that remain ride along into the early-abandoning
scan of the net, in its original order, under the bound u.  A point that
plain mode repeats is scanned once, at its first position.  Centres only
bound and never win, so the winner is the first minimum of a full scan,
bit for bit, and ``evaluations`` still counts the whole net.

Net points are drawn from a single global lattice (spacing chosen per
metric so any ball point is within rho of a kept lattice point).  The
union mode deduplicates lattice points shared by overlapping balls; plain
mode evaluates each ball separately.  Both modes therefore scan exactly
the same set of translations and agree on the minimum value.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .core import (
    L2,
    ChamferReport,
    Metric,
    PointSet,
    _check_same_dim,
    _unique_rows,
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
_NET_BUDGET = 2_000_000
# rows of the shared offset box that _net_phase masks at once, over its balls
_NET_ROWS = 1 << 18


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
    index times the lattice step.  Plain mode lists each ball's lattice
    points in ball order, each ball in the order of its own lattice box
    (last axis fastest); union mode lists the distinct indices, sorted.
    """
    d = dim
    if d > _MAX_NET_DIM:
        raise ValueError(f"net search capped at dimension {_MAX_NET_DIM}, got {d}")
    # spacing such that half a grid cell is within rho/2 in the metric
    step = rho / float(metric.norms(np.ones(d)))
    centres = np.asarray(candidates, dtype=np.float64).reshape(-1, d)
    lo, hi = _ball_lattice_ranges(centres, radius, step)
    widths = np.maximum(hi - lo + 1, 0)
    if np.prod(widths.astype(np.float64), axis=1).sum() > _NET_BUDGET:
        raise ValueError("net search exceeds the evaluation budget")
    if len(centres) == 0:
        return np.empty((0, d)), np.empty((0, d), dtype=np.int64)
    # one box of offsets wide enough for every ball, last axis fastest; the
    # offsets inside a ball's own box keep that box's order
    offsets = np.indices(widths.max(axis=0)).reshape(d, -1).T
    per = max(1, _NET_ROWS // max(1, len(offsets)))
    blocks = []
    for start in range(0, len(centres), per):
        stop = start + per
        idx = lo[start:stop, None, :] + offsets[None, :, :]
        keep = np.all(offsets[None, :, :] < widths[start:stop, None, :], axis=2)
        pts = idx.astype(np.float64) * step
        keep &= metric.norms(pts - centres[start:stop, None, :]) <= radius * (1.0 + 1e-9) + 1e-12
        blocks.append(idx[keep])
    idx = np.concatenate(blocks, axis=0)
    if union:
        idx = _unique_rows(idx)[0]
    return idx.astype(np.float64) * step, idx


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
    # a zero-cost candidate is globally optimal and the net radii degenerate,
    # so no net is built and the candidate wins
    if u == 0.0:
        net, idx = np.empty((0, a.dim)), np.empty((0, a.dim), dtype=np.int64)
    else:
        net, idx = _net_phase(a.dim, metric, candidates, radius, rho, config.union_mode)
    best, value, net_rows, bound_rows = lattice_argmin(a, net, idx, b, metric, index=index, upper=u)
    best_t = net[best] if value < u else candidates[u_pos]
    return replace(
        chamfer_translated(a, best_t, b, metric, index=index),
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
