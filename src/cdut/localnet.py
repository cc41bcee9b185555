"""Local-net search: a (1 + eps)-approximation of CDuT.

Sampled difference candidates give a coarse estimate u of the optimum.
Some candidate provably lies within (1 + gamma) * u / m of an optimal
translation, so covering a ball of that radius around every candidate with
a net of spacing rho = eps * u / (3m) guarantees a net point whose Chamfer
cost is within (1 + eps) of the optimum.  Every net point is evaluated
exactly, so the reported value can never fall below the true optimum.

Net points are drawn from a single global lattice (spacing chosen per
metric so any ball point is within rho of a kept lattice point).  The
union mode deduplicates lattice points shared by overlapping balls; plain
mode evaluates each ball separately.  Both modes therefore scan exactly
the same set of translations and agree on the minimum value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    L2,
    ChamferReport,
    Metric,
    PointSet,
    build_index,
    chamfer_argmin,
    chamfer_many,  # noqa: F401  still importable here; perfbench's tracer patches it per module
    chamfer_translated,
)

__all__ = ["NetSpec", "LocalNetConfig", "build_net", "cdut_localnet", "cdut_localnet_union", "covering_audit"]

_MAX_NET_DIM = 6
_NET_BUDGET = 2_000_000


@dataclass(frozen=True)
class NetSpec:
    """A covering request: ball of radius ``radius`` around ``center``,
    covering radius at most ``rho``."""

    center: np.ndarray
    radius: float
    rho: float

    def __post_init__(self):
        center = np.atleast_1d(np.asarray(self.center, dtype=np.float64))
        if not self.rho > 0:
            raise ValueError("net spacing rho must be positive")
        if self.rho > self.radius:
            raise ValueError("rho must not exceed the ball radius")
        object.__setattr__(self, "center", center)


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


def build_net(spec: NetSpec, d: int, metric: Metric = L2) -> np.ndarray:
    """Grid covering the ball: every ball point is within rho of a net point.

    Built as an axis-aligned grid around the origin and shifted by the
    center, so nets at different centers are exact translates.
    """
    if d > _MAX_NET_DIM:
        raise ValueError(f"net construction capped at dimension {_MAX_NET_DIM}, got {d}")
    if spec.center.shape[0] != d:
        raise ValueError(f"center has dimension {spec.center.shape[0]}, expected {d}")
    step = _grid_step(metric, spec.rho, d)
    reach = int(math.ceil(spec.radius / step + 1e-12))
    if (2 * reach + 1) ** d > _NET_BUDGET:
        raise ValueError("net size exceeds budget; loosen rho or shrink the radius")
    _, pts = _lattice_points(np.full(d, -reach), np.full(d, reach), step)
    keep = metric.norms(pts) <= spec.radius * (1.0 + 1e-9) + 1e-12
    return pts[keep] + spec.center


def covering_audit(
    net: np.ndarray, spec: NetSpec, metric: Metric = L2, samples: int = 1000, seed: int = 0
) -> float:
    """Worst observed distance from random ball points to the net."""
    rng = np.random.default_rng(seed)
    d = spec.center.shape[0]
    raw = rng.normal(size=(samples, d)) if metric.p == 2.0 else rng.uniform(-1, 1, (samples, d))
    norms = metric.norms(raw)
    norms[norms == 0] = 1.0
    radii = spec.radius * rng.uniform(0, 1, samples) ** (1.0 / d)
    pts = spec.center + raw / norms[:, None] * radii[:, None]
    net_set = PointSet(net)
    dists, _ = build_index(net_set, metric).query_many(pts)
    return float(dists.max())


def _sample_candidates(a: PointSet, b: PointSet, config: LocalNetConfig, seed: int) -> np.ndarray:
    k = math.ceil((2.0 / config.gamma) * math.log(1.0 / config.delta))
    rng = np.random.default_rng(seed)
    if k >= len(a):
        anchors = np.arange(len(a))
    else:
        anchors = rng.choice(len(a), size=k, replace=False)
    return (b.points[None, :, :] - a.points[anchors][:, None, :]).reshape(-1, a.dim)


def _net_phase(
    dim: int,
    metric: Metric,
    candidates: np.ndarray,
    radius: float,
    rho: float,
    union: bool,
):
    """Lattice translations to evaluate: per ball, or deduplicated union."""
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
        blocks.append(idx[keep] if union else pts[keep])
    if not blocks:
        return np.empty((0, d))
    if union:
        merged = np.unique(np.concatenate(blocks, axis=0), axis=0)
        return merged.astype(np.float64) * step
    return np.concatenate(blocks, axis=0)


def cdut_localnet(
    a: PointSet, b: PointSet, config: LocalNetConfig, seed: int = 0, metric: Metric = L2
) -> ChamferReport:
    """(1 + eps)-approximation by exact evaluation over sampled local nets."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    index = build_index(b, metric)
    candidates = _sample_candidates(a, b, config, seed)
    u_pos, u, rows = chamfer_argmin(a, candidates, b, metric, index=index)
    m = len(a)
    if u == 0.0:
        # a zero-cost candidate is globally optimal; the net radii degenerate
        report = chamfer_translated(a, candidates[u_pos], b, metric)
        return ChamferReport(
            value=report.value,
            translation=report.translation,
            assignment=report.assignment,
            algorithm="localnet-union" if config.union_mode else "localnet",
            epsilon=config.epsilon,
            seed=seed,
            evaluations=0,
            extras={
                "u": u,
                "radius": 0.0,
                "rho": 0.0,
                "candidates": int(len(candidates)),
                "engine_rows": rows,
                "engine_rows_full": len(candidates) * m,
            },
        )
    radius = (1.0 + config.gamma) * u / m
    rho = config.epsilon * u / (config.h * m)
    net = _net_phase(a.dim, metric, candidates, radius, rho, config.union_mode)
    best, value, net_rows = chamfer_argmin(a, net, b, metric, index=index, upper=u)
    best_t = net[best] if value < u else candidates[u_pos]
    report = chamfer_translated(a, best_t, b, metric)
    return ChamferReport(
        value=report.value,
        translation=report.translation,
        assignment=report.assignment,
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
        },
    )


def cdut_localnet_union(
    a: PointSet, b: PointSet, config: LocalNetConfig, seed: int = 0, metric: Metric = L2
) -> ChamferReport:
    """Union-net variant: overlapping balls share lattice points."""
    merged = LocalNetConfig(
        epsilon=config.epsilon, gamma=config.gamma, delta=config.delta, h=config.h, union_mode=True
    )
    return cdut_localnet(a, b, merged, seed, metric)
