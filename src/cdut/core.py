"""Point sets, lp metrics, and exact Chamfer evaluation.

The Chamfer distance from A to B sums, over every point of A, the distance
to its nearest neighbor in B.  Everything downstream (the 1D sweep, the
candidate-translation approximations, the decision procedure) is built on
the exact evaluators in this module, so determinism matters here: nearest
neighbors break ties toward the lowest index in B, and both index backends
are required to produce bit-identical assignments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
from scipy.spatial import cKDTree

from .parallel import concurrency, run_chunked, worker_count

__all__ = [
    "PointSet",
    "Metric",
    "ChamferReport",
    "NearestIndex",
    "L1",
    "L2",
    "LINF",
    "build_index",
    "chamfer",
    "chamfer_translated",
    "chamfer_many",
    "chamfer_argmin",
    "ArgminResult",
    "bbox_diameter",
]

_VALID_P = (1.0, 2.0, math.inf)


@dataclass(frozen=True)
class Metric:
    """An lp metric with p in {1, 2, inf}."""

    p: float = 2.0

    def __post_init__(self):
        if float(self.p) not in _VALID_P:
            raise ValueError(f"unsupported metric p={self.p}; expected 1, 2 or inf")
        object.__setattr__(self, "p", float(self.p))

    @classmethod
    def from_name(cls, name: str) -> "Metric":
        table = {"l1": 1.0, "l2": 2.0, "linf": math.inf}
        key = name.strip().lower()
        if key not in table:
            raise ValueError(f"unknown metric name {name!r}; expected one of {sorted(table)}")
        return cls(table[key])

    @property
    def name(self) -> str:
        return {1.0: "l1", 2.0: "l2", math.inf: "linf"}[self.p]

    def norms(self, vectors: np.ndarray) -> np.ndarray:
        """lp norms along the last axis."""
        v = np.asarray(vectors, dtype=np.float64)
        if self.p == 2.0:
            return np.sqrt(np.sum(v * v, axis=-1))
        if self.p == 1.0:
            return np.sum(np.abs(v), axis=-1)
        return np.max(np.abs(v), axis=-1)

    def distance(self, x, y) -> float:
        return float(self.norms(np.asarray(x, dtype=np.float64) - np.asarray(y, dtype=np.float64)))


L1 = Metric(1.0)
L2 = Metric(2.0)
LINF = Metric(math.inf)


@dataclass(frozen=True)
class PointSet:
    """An ordered, possibly repeating collection of d-dimensional points.

    Duplicates are allowed (multiset semantics).  The coordinate array is
    frozen after construction, so a PointSet can be shared freely between
    concurrent workers.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.ascontiguousarray(np.asarray(self.points, dtype=np.float64))
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        if pts.ndim != 2:
            raise ValueError(f"points must be a 2D array, got shape {pts.shape}")
        if pts.shape[0] == 0:
            raise ValueError("point set must be nonempty")
        if pts.shape[1] == 0:
            raise ValueError("ambient dimension must be >= 1")
        if not np.all(np.isfinite(pts)):
            raise ValueError("point coordinates must be finite")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @classmethod
    def from_rows(cls, rows) -> "PointSet":
        return cls(np.asarray(rows, dtype=np.float64))

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]

    def translated(self, t) -> "PointSet":
        t = as_translation(t, self.dim)
        return PointSet(self.points + t)


def as_translation(t, dim: int) -> np.ndarray:
    """Validate and broadcast a translation vector to shape (dim,)."""
    vec = np.atleast_1d(np.asarray(t, dtype=np.float64))
    if vec.ndim != 1 or vec.shape[0] != dim:
        raise ValueError(f"translation has length {vec.shape}, expected ({dim},)")
    if not np.all(np.isfinite(vec)):
        raise ValueError("translation must be finite")
    return vec


def _check_same_dim(a: PointSet, b: PointSet) -> None:
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")


@dataclass(frozen=True)
class ChamferReport:
    """Result of a Chamfer computation.

    ``value`` is the (possibly approximate) Chamfer sum, ``translation`` the
    translation it was achieved at, and ``assignment`` the per-point nearest
    neighbor indices into B.  For exact algorithms the value equals the
    recomputed sum of assignment distances.
    """

    value: float
    translation: np.ndarray
    assignment: Optional[np.ndarray]
    algorithm: str
    epsilon: Optional[float] = None
    c: Optional[float] = None
    seed: Optional[int] = None
    evaluations: Optional[int] = None
    extras: Optional[dict] = None


class NearestIndex:
    """Exact nearest-neighbor index over a point set.

    backend 'brute' scans all points, 'kdtree' wraps a k-d tree; both return
    identical (distance, index) answers: distances are recomputed with the
    metric's own arithmetic and ties resolve to the lowest index in B.
    """

    def __init__(self, source: PointSet, metric: Metric = L2, backend: str = "auto"):
        if backend not in ("auto", "brute", "kdtree"):
            raise ValueError(f"unknown backend {backend!r}")
        if backend == "auto":
            backend = "kdtree" if len(source) >= 16 else "brute"
        self.source = source
        self.metric = metric
        self.backend = backend
        self._tree = cKDTree(source.points) if backend == "kdtree" else None

    def query(self, q) -> tuple[float, int]:
        q = np.asarray(q, dtype=np.float64).reshape(1, -1)
        d, i = self.query_many(q)
        return float(d[0]), int(i[0])

    def query_many(
        self, queries: np.ndarray, normalize_ties: bool = True
    ) -> tuple[np.ndarray, np.ndarray]:
        """Exact NN distance and index for each query row."""
        q = np.ascontiguousarray(np.asarray(queries, dtype=np.float64))
        if q.ndim != 2 or q.shape[1] != self.source.dim:
            raise ValueError(f"queries must have shape (*, {self.source.dim})")
        if self.backend == "brute":
            return self._brute(q)
        return self._kdtree(q, normalize_ties)

    def query_two(self, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Distances and indices of the two nearest points (runner-up unordered ties)."""
        q = np.ascontiguousarray(np.asarray(queries, dtype=np.float64))
        pts = self.source.points
        if len(self.source) < 2:
            d, i = self.query_many(q)
            return np.stack([d, np.full_like(d, np.inf)], axis=1), np.stack(
                [i, np.full_like(i, -1)], axis=1
            )
        if self._tree is not None:
            _, idx = self._tree.query(q, k=2, p=self.metric.p)
            d0 = self.metric.norms(q - pts[idx[:, 0]])
            d1 = self.metric.norms(q - pts[idx[:, 1]])
            swap = d1 < d0
            idx[swap] = idx[swap][:, ::-1]
            return np.stack([np.minimum(d0, d1), np.maximum(d0, d1)], axis=1), idx
        dmat = self._distance_matrix(q)
        idx = np.argpartition(dmat, 1, axis=1)[:, :2]
        rows = np.arange(len(q))[:, None]
        pair = dmat[rows, idx]
        order = np.argsort(pair, axis=1, kind="stable")
        return pair[rows, order], idx[rows, order]

    # -- internals ----------------------------------------------------------

    def _distance_matrix(self, q: np.ndarray) -> np.ndarray:
        return self.metric.norms(q[:, None, :] - self.source.points[None, :, :])

    def _brute(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n = len(self.source)
        out_d = np.empty(len(q), dtype=np.float64)
        out_i = np.empty(len(q), dtype=np.int64)
        # cap the temporary distance matrix at ~4M entries
        chunk = max(1, (1 << 22) // max(n, 1))
        for start in range(0, len(q), chunk):
            stop = min(len(q), start + chunk)
            dmat = self._distance_matrix(q[start:stop])
            idx = np.argmin(dmat, axis=1)  # first minimum = lowest index
            out_i[start:stop] = idx
            out_d[start:stop] = dmat[np.arange(stop - start), idx]
        return out_d, out_i

    def _kdtree(self, q: np.ndarray, normalize_ties: bool) -> tuple[np.ndarray, np.ndarray]:
        pts = self.source.points
        if len(self.source) == 1:
            idx = np.zeros(len(q), dtype=np.int64)
            return self.metric.norms(q - pts[0]), idx
        _, pair_idx = self._tree.query(q, k=2, p=self.metric.p)
        d0 = self.metric.norms(q - pts[pair_idx[:, 0]])
        d1 = self.metric.norms(q - pts[pair_idx[:, 1]])
        idx = pair_idx[:, 0].astype(np.int64)
        dist = d0
        # the tree ranks by its own arithmetic; re-ranking with ours can flip
        # the order at the last ulp
        swap = d1 < d0
        if np.any(swap):
            idx[swap] = pair_idx[swap, 1]
            dist = np.minimum(d0, d1)
        if normalize_ties:
            tied = np.flatnonzero(d0 == d1)
            for row in tied:
                cand = self._tree.query_ball_point(
                    q[row], r=dist[row] * (1.0 + 1e-12) + 1e-300, p=self.metric.p
                )
                cand = np.asarray(cand, dtype=np.int64)
                cd = self.metric.norms(q[row] - pts[cand])
                best = cd.min()
                idx[row] = cand[cd == best].min()
                dist[row] = best
        return dist, idx


def build_index(source: PointSet, metric: Metric = L2, backend: str = "auto") -> NearestIndex:
    """Build an exact nearest-neighbor index over ``source``."""
    return NearestIndex(source, metric, backend)


def chamfer(a: PointSet, b: PointSet, metric: Metric = L2, backend: str = "auto") -> ChamferReport:
    """Exact Chamfer distance from ``a`` to ``b`` with the minimizing assignment."""
    _check_same_dim(a, b)
    index = build_index(b, metric, backend)
    dists, idx = index.query_many(a.points)
    return ChamferReport(
        value=float(np.sum(dists)),
        translation=np.zeros(a.dim),
        assignment=idx,
        algorithm="exact",
    )


def chamfer_translated(
    a: PointSet, t, b: PointSet, metric: Metric = L2, backend: str = "auto"
) -> ChamferReport:
    """Exact Chamfer distance of ``a`` shifted by ``t`` against ``b``."""
    _check_same_dim(a, b)
    t = as_translation(t, a.dim)
    report = chamfer(a.translated(t), b, metric, backend)
    return ChamferReport(
        value=report.value,
        translation=t,
        assignment=report.assignment,
        algorithm="exact",
    )


# query rows built at once by one evaluation, summed over its workers
_QUERY_ROWS = 1 << 20
# column stages of A in chamfer_argmin
_ARGMIN_STAGES = 8
# a partial sum and the full sum it bounds are rounded in different orders;
# a candidate is dropped only when its partial sum clears the bound by more
_PRUNE_SLACK = 1e-9


class ArgminResult(NamedTuple):
    """Winner of ``chamfer_argmin``: position, exact value, query rows evaluated."""

    pos: int
    value: float
    rows: int


def _as_translations(a: PointSet, translations) -> np.ndarray:
    ts = np.asarray(translations, dtype=np.float64)
    if ts.ndim == 1:
        ts = ts.reshape(-1, 1) if a.dim == 1 else ts.reshape(1, -1)
    if ts.ndim != 2 or ts.shape[1] != a.dim:
        raise ValueError(f"translations must have shape (*, {a.dim})")
    return ts


def _distances(cols: np.ndarray, ts: np.ndarray, index: NearestIndex, want_assignments: bool):
    """NN distances (and indices when asked) of ``cols + t``, one row per translation.

    Translations are split between workers by ``run_chunked``.  Each block
    builds its queries in tiles, so the blocks that run at once together hold
    at most ``_QUERY_ROWS`` query rows.  A distance does not depend on which
    block or tile computed it.
    """
    c, d = cols.shape
    workers = worker_count()
    tile = max(1, _QUERY_ROWS // concurrency(len(ts), workers))
    t_step, c_step = max(1, tile // c), min(c, tile)

    def eval_block(block: np.ndarray):
        k = len(block)
        dist = np.empty((k, c))
        idx = np.empty((k, c), dtype=np.int64) if want_assignments else None
        for t0 in range(0, k, t_step):
            tb = block[t0 : t0 + t_step]
            for c0 in range(0, c, c_step):
                cb = cols[c0 : c0 + c_step]
                queries = (tb[:, None, :] + cb[None, :, :]).reshape(-1, d)
                dd, ii = index.query_many(queries, normalize_ties=want_assignments)
                at = (slice(t0, t0 + len(tb)), slice(c0, c0 + len(cb)))
                dist[at] = dd.reshape(len(tb), len(cb))
                if idx is not None:
                    idx[at] = ii.reshape(len(tb), len(cb))
        return dist, idx

    results = run_chunked(eval_block, ts, workers)
    if len(results) == 1:
        return results[0]
    dist = np.concatenate([r[0] for r in results])
    return dist, (np.concatenate([r[1] for r in results]) if want_assignments else None)


def chamfer_many(
    a: PointSet,
    translations: np.ndarray,
    b: PointSet,
    metric: Metric = L2,
    index: Optional[NearestIndex] = None,
    want_assignments: bool = False,
    want_distances: bool = False,
):
    """Exact Chamfer values of ``a`` under many translations at once.

    Scans every translation in full: the oracles rely on that, and
    ``chamfer_argmin`` evaluates its stages with it.  Each value is one
    contiguous ``sum`` over the translation's m distances.  Queries are
    built and looked up in batches of at most 2^20 rows.  Returns the (T,)
    value array; when requested, the (T, m) nearest indices and then the
    (T, m) distances follow it in a tuple.
    """
    _check_same_dim(a, b)
    ts = _as_translations(a, translations)
    if index is None:
        index = build_index(b, metric)
    dist, assigns = _distances(a.points, ts, index, want_assignments)
    values = dist.sum(axis=1)
    if not (want_assignments or want_distances):
        return values
    return (values,) + ((assigns,) if want_assignments else ()) + ((dist,) if want_distances else ())


def chamfer_argmin(
    a: PointSet,
    translations: np.ndarray,
    b: PointSet,
    metric: Metric = L2,
    index: Optional[NearestIndex] = None,
    upper: float = math.inf,
) -> ArgminResult:
    """First minimum of ``chamfer_many(a, translations, b, metric)``, found early.

    Position and value are bit-identical to ``argmin`` over ``chamfer_many``,
    but a candidate is abandoned once it cannot win.  A's points are
    evaluated in column stages, each one a ``chamfer_many`` call over a
    slice of A, and each candidate keeps its distances.
    After each stage but the last, the candidate with the smallest partial
    sum is completed, and the best complete value bounds the rest: before
    the next stage, every candidate whose partial sum exceeds the bound is
    dropped.  Complete values are the same contiguous row sums that
    ``chamfer_many`` takes, so ties still go to the first position.

    ``upper`` pre-seeds the bound: only a value <= ``upper`` can win, and if
    none does the result is ``(-1, inf)``.  ``rows`` counts the query rows
    evaluated, at most ``len(translations) * len(a)``.
    """
    _check_same_dim(a, b)
    ts = _as_translations(a, translations)
    if index is None:
        index = build_index(b, metric)
    total, m = len(ts), len(a)
    cuts = np.linspace(0, m, min(m, _ARGMIN_STAGES) + 1).astype(int)
    # ``total`` stands for "no winner yet": it sorts after every real position
    best_val, best_pos = float(upper), total
    alive, partial = np.arange(total), np.zeros(total)
    stored = []  # distances of the alive candidates, one array per stage
    rows = 0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        keep = partial <= best_val * (1.0 + _PRUNE_SLACK)
        if not keep.all():
            alive, partial = alive[keep], partial[keep]
            stored = [dist[keep] for dist in stored]
        if alive.size == 0:
            break
        stage = PointSet(a.points[lo:hi])
        sums, dist = chamfer_many(stage, ts[alive], b, metric, index, want_distances=True)
        rows += dist.size
        stored.append(dist)
        partial += sums
        lead = int(np.argmin(partial))
        if hi < m and partial[lead] <= best_val * (1.0 + _PRUNE_SLACK):
            # complete the leader; it leaves the pool at the next prune
            tail = PointSet(a.points[hi:])
            rest = chamfer_many(tail, ts[alive[lead]][None], b, metric, index, want_distances=True)[1]
            rows += rest.size
            row = np.concatenate([d[lead] for d in stored] + [rest[0]])
            best_val, best_pos = min((best_val, best_pos), (float(row.sum()), int(alive[lead])))
            partial[lead] = math.inf
    if alive.size:
        values = np.hstack(stored).sum(axis=1)
        first = int(np.argmin(values))
        best_val, best_pos = min((best_val, best_pos), (float(values[first]), int(alive[first])))
    if best_pos == total:
        return ArgminResult(-1, math.inf, rows)
    return ArgminResult(best_pos, best_val, rows)


def bbox_diameter(ps: PointSet, metric: Metric = L2) -> float:
    """Diameter of the bounding box; an upper bound on the set diameter."""
    span = ps.points.max(axis=0) - ps.points.min(axis=0)
    return float(metric.norms(span))
