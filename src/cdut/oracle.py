"""Brute-force reference computations for small instances.

``oracle_cdut_1d`` evaluates the exact objective at every difference
translation b - a, which contains a global optimum in 1D, so it certifies
the sweep without sharing any of its event bookkeeping.  ``oracle_cdut_grid``
scans a dense translation grid in any dimension and reports an explicit
additive slack in ``extras["slack"]``, bracketing the optimum for the
approximation algorithms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    L2,
    ChamferReport,
    Metric,
    PointSet,
    _check_same_dim,
    build_index,
    chamfer_many,
    chamfer_translated,
    difference_candidates,
)

__all__ = ["GridSearchSpec", "oracle_cdut_1d", "oracle_cdut_grid", "default_grid_spec"]

_PAIR_BUDGET = 10_000
_GRID_BUDGET = 10_000_000


@dataclass(frozen=True)
class GridSearchSpec:
    """A translation box [lo, hi] per dimension scanned at step ``resolution``."""

    lo: np.ndarray
    hi: np.ndarray
    resolution: float

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, dtype=np.float64))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=np.float64))
        if lo.shape != hi.shape or np.any(hi < lo):
            raise ValueError("grid box must satisfy lo <= hi per dimension")
        if not self.resolution > 0:
            raise ValueError("grid resolution must be positive")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)


def oracle_cdut_1d(a: PointSet, b: PointSet) -> ChamferReport:
    """Exact 1D CDuT by direct evaluation of every difference candidate."""
    if a.dim != 1 or b.dim != 1:
        raise ValueError("oracle_cdut_1d requires one-dimensional sets")
    m, n = len(a), len(b)
    if m * n > _PAIR_BUDGET:
        raise ValueError(f"instance has {m * n} candidate pairs, over the oracle budget {_PAIR_BUDGET}")
    cands = np.unique(b.points[:, 0][None, :] - a.points[:, 0][:, None])
    index = build_index(b)
    values = chamfer_many(a, cands.reshape(-1, 1), b, index=index)
    best = int(np.argmin(values))  # first minimum = smallest t
    return chamfer_translated(a, cands[best], b, index=index, algorithm="oracle-1d", evaluations=int(cands.size))


def default_grid_spec(a: PointSet, b: PointSet, resolution: Optional[float] = None) -> GridSearchSpec:
    """Box around all difference vectors b - a, padded by a coarse OPT/m estimate."""
    diffs = difference_candidates(a, b, np.arange(len(a)))
    estimate = float(np.min(chamfer_many(a, np.unique(diffs, axis=0), b)))
    pad = estimate / len(a) if estimate > 0 else 1e-9
    lo = diffs.min(axis=0) - pad
    hi = diffs.max(axis=0) + pad
    if resolution is None:
        resolution = float(max(np.max(hi - lo) / 64.0, 1e-9))
    return GridSearchSpec(lo=lo, hi=hi, resolution=resolution)


def oracle_cdut_grid(
    a: PointSet,
    b: PointSet,
    spec: Optional[GridSearchSpec] = None,
    metric: Metric = L2,
) -> ChamferReport:
    """Dense grid scan of the translation box.

    The returned value is an exact Chamfer cost at a real translation, hence
    never below OPT; ``extras["slack"]``, m * (half cell diagonal), bounds
    how far above OPT it can be.  ``evaluations`` counts the grid points.
    """
    _check_same_dim(a, b)
    if spec is None:
        spec = default_grid_spec(a, b)
    if spec.lo.shape[0] != a.dim:
        raise ValueError(f"grid box has dimension {spec.lo.shape[0]}, expected {a.dim}")
    g = spec.resolution
    axes = [np.arange(lo, hi + g * 0.5, g) for lo, hi in zip(spec.lo, spec.hi)]
    total = 1
    for ax in axes:
        total *= ax.size
    if total > _GRID_BUDGET:
        raise ValueError(f"grid has {total} points, over budget {_GRID_BUDGET}")
    mesh = np.meshgrid(*axes, indexing="ij")
    grid = np.stack([m.ravel() for m in mesh], axis=1)
    index = build_index(b, metric)
    values = chamfer_many(a, grid, b, metric, index=index)
    best = int(np.argmin(values))
    return chamfer_translated(
        a, grid[best], b, metric, index, "oracle-grid",
        evaluations=int(total),
        # m times the farthest a box point can be from the nearest grid node
        extras={"slack": len(a) * (g * float(metric.norms(np.ones(a.dim))) / 2.0)},
    )
