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
from dataclasses import dataclass, replace
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
    "lattice_argmin",
    "LatticeArgmin",
    "difference_candidates",
    "anchor_count",
    "sample_anchors",
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


# entries in the brute backend's query-minus-point tensor, per chunk
_BRUTE_ENTRIES = 1 << 22


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

    # -- internals ----------------------------------------------------------

    def _distance_matrix(self, q: np.ndarray) -> np.ndarray:
        return self.metric.norms(q[:, None, :] - self.source.points[None, :, :])

    def _brute(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n = len(self.source)
        out_d = np.empty(len(q), dtype=np.float64)
        out_i = np.empty(len(q), dtype=np.int64)
        # the (rows, n, d) difference tensor is the largest temporary
        chunk = max(1, _BRUTE_ENTRIES // (n * self.source.dim))
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


def chamfer(
    a: PointSet,
    b: PointSet,
    metric: Metric = L2,
    backend: str = "auto",
    index: Optional[NearestIndex] = None,
) -> ChamferReport:
    """Exact Chamfer distance from ``a`` to ``b`` with the minimizing assignment.

    ``index``, when given, is an index over ``b`` in ``metric`` and is used
    instead of building one.
    """
    _check_same_dim(a, b)
    if index is None:
        index = build_index(b, metric, backend)
    dists, idx = index.query_many(a.points)
    return ChamferReport(
        value=float(np.sum(dists)),
        translation=np.zeros(a.dim),
        assignment=idx,
        algorithm="exact",
    )


def chamfer_translated(
    a: PointSet,
    t,
    b: PointSet,
    metric: Metric = L2,
    backend: str = "auto",
    index: Optional[NearestIndex] = None,
) -> ChamferReport:
    """Exact Chamfer distance of ``a`` shifted by ``t`` against ``b``."""
    _check_same_dim(a, b)
    t = as_translation(t, a.dim)
    return replace(chamfer(a.translated(t), b, metric, backend, index), translation=t)


def difference_candidates(a: PointSet, b: PointSet, anchors: np.ndarray) -> np.ndarray:
    """Translations ``b - a`` for every anchor ``a`` of A and every ``b`` of B.

    Rows are ordered by (anchor position, index in B), so a first minimum
    over them goes to the lexicographically first pair.
    """
    return (b.points[None, :, :] - a.points[anchors][:, None, :]).reshape(-1, a.dim)


def anchor_count(epsilon: float, delta: float) -> int:
    """ceil((2/eps) ln(1/delta)) anchor draws.

    At least eps*m/2 points of A match within (1 + eps) OPT/m at an optimal
    translation, so with probability 1 - delta some draw lands on one.
    """
    if not 0.0 < epsilon <= 1.0:
        raise ValueError("epsilon must lie in (0, 1]")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    return math.ceil((2.0 / epsilon) * math.log(1.0 / delta))


def sample_anchors(m: int, k: int, seed: int = 0) -> np.ndarray:
    """The distinct indices among k uniform draws from range(m), in first-draw order.

    A repeated anchor repeats its candidates, so dropping it loses nothing:
    the first minimum over the distinct anchors' candidates is the first
    minimum over the draws'.
    """
    draws = np.random.default_rng(seed).integers(0, m, size=k)
    _, first = np.unique(draws, return_index=True)
    return draws[np.sort(first)]


# query rows built at once by one evaluation, summed over its workers
_QUERY_ROWS = 1 << 20
# and their coordinates (rows x d); below d = 5 the row cap is the tighter
_QUERY_ENTRIES = 1 << 22
# column stages of A in chamfer_argmin
_ARGMIN_STAGES = 8
# a partial sum and the full sum it bounds are rounded in different orders;
# a candidate is dropped only when its partial sum clears the bound by more
_PRUNE_SLACK = 1e-9
# query rows one evaluation must hold before its blocks go to the thread
# pool; below this the handoff costs more than the second thread saves
_POOL_ROWS = 1 << 12
# lattice keys per side of lattice_argmin's pruning cells, coarse to fine;
# each side divides the one before, so every fine cell nests in a coarse one
_CELL_SIDES = (16, 4)
# a coarse level runs only when the keys' bounding box spans this many of
# its cells; below that its call costs more than the fine centres it saves
_MIN_COARSE_CELLS = 64


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


def _distances(cols: np.ndarray, ts: np.ndarray, index: NearestIndex) -> np.ndarray:
    """NN distances of ``cols + t``, one row per translation.

    Translations are split between workers by ``run_chunked``.  Each block
    builds its queries in tiles, so the blocks that run at once together hold
    at most ``_QUERY_ROWS`` query rows and ``_QUERY_ENTRIES`` coordinates.
    A distance does not depend on which block or tile computed it.  A call
    of fewer than ``_POOL_ROWS`` query rows runs serially.
    """
    c, d = cols.shape
    workers = worker_count() if len(ts) * c >= _POOL_ROWS else 1
    rows = min(_QUERY_ROWS, _QUERY_ENTRIES // d)
    tile = max(1, rows // concurrency(len(ts), workers))
    t_step, c_step = max(1, tile // c), min(c, tile)

    def eval_block(block: np.ndarray):
        k = len(block)
        dist = np.empty((k, c))
        for t0 in range(0, k, t_step):
            tb = block[t0 : t0 + t_step]
            for c0 in range(0, c, c_step):
                cb = cols[c0 : c0 + c_step]
                queries = (tb[:, None, :] + cb[None, :, :]).reshape(-1, d)
                dd, _ = index.query_many(queries, normalize_ties=False)
                dist[t0 : t0 + len(tb), c0 : c0 + len(cb)] = dd.reshape(len(tb), len(cb))
        return dist

    results = run_chunked(eval_block, ts, workers)
    return results[0] if len(results) == 1 else np.concatenate(results)


def chamfer_many(
    a: PointSet,
    translations: np.ndarray,
    b: PointSet,
    metric: Metric = L2,
    index: Optional[NearestIndex] = None,
    want_distances: bool = False,
):
    """Exact Chamfer values of ``a`` under many translations at once.

    Scans every translation in full: the oracles rely on that, and
    ``chamfer_argmin`` evaluates its stages with it.  Each value is one
    contiguous ``sum`` over the translation's m distances.  Queries are
    built and looked up in batches of at most 2^20 rows.  Returns the (T,)
    value array, or ``(values, distances)`` with the (T, m) distances when
    ``want_distances`` is set.
    """
    _check_same_dim(a, b)
    ts = _as_translations(a, translations)
    if index is None:
        index = build_index(b, metric)
    dist = _distances(a.points, ts, index)
    values = dist.sum(axis=1)
    return (values, dist) if want_distances else values


def chamfer_argmin(
    a: PointSet,
    translations: np.ndarray,
    b: PointSet,
    metric: Metric = L2,
    index: Optional[NearestIndex] = None,
    upper: float = math.inf,
    floors: Optional[np.ndarray] = None,
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
    none does the result is ``(-1, inf)``.  ``floors``, when given, holds a
    lower bound on each candidate's computed value, and a candidate is also
    dropped once its floor exceeds the bound.  ``rows`` counts the query
    rows evaluated, at most ``len(translations) * len(a)``.
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
    floor = None if floors is None else np.asarray(floors, dtype=np.float64)
    stored = []  # distances of the alive candidates, one array per stage
    rows = 0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        keep = partial <= best_val * (1.0 + _PRUNE_SLACK)
        if floor is not None:
            keep &= floor <= best_val
        if not keep.all():
            alive, partial = alive[keep], partial[keep]
            floor = None if floor is None else floor[keep]
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


def _packed_rows(idx: np.ndarray) -> Optional[np.ndarray]:
    """One int64 per row of an integer array that sorts like the rows.

    Each column is shifted to start at 0 and the columns are combined in
    mixed radix, first column most significant.  Returns None when the
    product of the column spans does not fit.
    """
    if len(idx) == 0:
        return np.zeros(0, dtype=np.int64)
    lo = idx.min(axis=0)
    spans = [int(h) - int(l) + 1 for l, h in zip(lo, idx.max(axis=0))]
    if math.prod(spans) >= 2**62:
        return None
    key = np.zeros(len(idx), dtype=np.int64)
    for col, (low, span) in enumerate(zip(lo, spans)):
        key *= span
        key += idx[:, col] - low
    return key


def _row_order(idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A stable order that sorts the rows of an integer array, and a mask
    of the sorted positions where a new distinct row starts."""
    key = _packed_rows(idx)
    new = np.ones(len(idx), dtype=bool)
    if key is not None:
        order = np.argsort(key, kind="stable")
        key = key[order]
        np.not_equal(key[1:], key[:-1], out=new[1:])
    else:
        order = np.lexsort(idx.T[::-1])
        rows = idx[order]
        new[1:] = np.any(rows[1:] != rows[:-1], axis=1)
    return order, new


def _unique_rows(idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of an integer array, sorted, and each row's rank among them."""
    order, new = _row_order(idx)
    rank = np.empty(len(idx), dtype=np.int64)
    rank[order] = np.cumsum(new) - 1
    return idx[order[new]], rank


def _lattice_cells(ts: np.ndarray, keys: np.ndarray, side: int, metric: Metric):
    """Group translations into cells of ``side``^d lattice keys.

    Returns each translation's cell, and each cell's centre and radius: the
    centre of the bounding box of the cell's translations, and the metric
    length of half the box's diagonal.  Every member lies within its
    cell's radius of the centre, however unevenly the lattice is spaced.
    """
    order, new = _row_order(keys // side)
    which = np.empty(len(ts), dtype=np.int64)
    which[order] = np.cumsum(new) - 1
    starts = np.flatnonzero(new)
    members = ts[order]
    lo = np.minimum.reduceat(members, starts, axis=0)
    hi = np.maximum.reduceat(members, starts, axis=0)
    return which, (lo + hi) / 2.0, metric.norms((hi - lo) / 2.0)


def _rounding(a: PointSet, ts: np.ndarray) -> float:
    """How far rounding can move a Chamfer value computed at ``ts``, beyond
    ``_PRUNE_SLACK`` times the value itself.

    The computed values round each query's coordinates, which stay below
    A's largest coordinate plus the largest of ``ts``, and each sum.
    ``_PRUNE_SLACK`` is millions of unit roundoffs, which covers the few
    roundings per term with room to spare.
    """
    return _PRUNE_SLACK * len(a) * float(np.abs(a.points).max() + np.abs(ts).max())


def _cell_floor(values: np.ndarray, r: np.ndarray, m: int, rounding: float) -> np.ndarray:
    """Lowest computed Chamfer value a member of each cell can have.

    ``values`` are the cells' centre values and ``r`` their radii, ``m`` is
    |A|, and ``rounding`` is ``_rounding`` over the members.  Each of the m
    terms of CD(A + t, B) is 1-Lipschitz in t, so a member's exact value is
    at least ``value - m * r``.
    """
    return values - m * r - _PRUNE_SLACK * (values + m * r) - rounding


class LatticeArgmin(NamedTuple):
    """Winner of ``lattice_argmin``: position, exact value, query rows at the
    translations, and query rows at the cell centres that bounded them."""

    pos: int
    value: float
    rows: int
    bound_rows: int


def lattice_argmin(
    a: PointSet,
    translations: np.ndarray,
    keys: np.ndarray,
    b: PointSet,
    metric: Metric = L2,
    index: Optional[NearestIndex] = None,
    upper: float = math.inf,
    holds_optimum: bool = False,
) -> LatticeArgmin:
    """``chamfer_argmin`` over translations that carry integer lattice keys,
    skipping the cells of the lattice that cannot win.

    ``keys[i]`` is the lattice index of ``translations[i]`` (a local net's
    index, or each axis's rank in an alignment grid), and equal keys must
    mean equal translations.  A repeated key is scanned once, at its first
    position: it would only repeat the same value later.

    The keys are grouped into cells of 16^d keys, and each cell's centre is
    scored once with ``chamfer_many``.  CD(A + t, B) is m-Lipschitz, so a
    cell of radius r whose centre has value v holds no translation below
    its floor v - m*r (less a rounding slack).  Cells whose floor exceeds
    the bound are dropped, and the survivors are split into cells of 4^d
    keys and bounded again.  The coarse level is skipped when the keys span
    fewer than ``_MIN_COARSE_CELLS`` of its cells.  The surviving cell with
    the lowest floor is then scored in full, and its best value tightens
    the bound.  The rest go to ``chamfer_argmin`` with their floors as
    per-candidate lower bounds, so a translation leaves the scan as soon as
    its floor or its partial sum rules it out.  Centres only bound and never
    win: position and value are bit-identical to ``chamfer_argmin(a,
    translations, b, metric, upper=upper)``, ties included.

    The bound starts at ``upper``.  With ``holds_optimum`` the translations
    are known to hold a global minimiser of CD(A + t, B) over all t, so none
    can beat the lowest centre value, which, plus twice the rounding that
    the floors allow for, then tightens the bound by itself.  ``rows``
    counts the query rows at the translations and ``bound_rows`` those at
    the centres.
    """
    _check_same_dim(a, b)
    ts = _as_translations(a, translations)
    if len(ts) == 0:
        return LatticeArgmin(-1, math.inf, 0, 0)
    keys = np.asarray(keys, dtype=np.int64).reshape(len(ts), -1)
    if index is None:
        index = build_index(b, metric)
    m = len(a)
    order, new = _row_order(keys)
    live = np.sort(order[new])  # each distinct key at its first position
    rounding = _rounding(a, ts)
    floors = np.full(len(ts), -math.inf)
    cell = np.empty(len(ts), dtype=np.int64)  # finest cell scored so far
    bound, bound_rows = float(upper), 0
    lo, hi = keys.min(axis=0), keys.max(axis=0)
    for side in _CELL_SIDES:
        if side != _CELL_SIDES[-1] and math.prod((hi // side - lo // side + 1).tolist()) < _MIN_COARSE_CELLS:
            continue  # too few coarse cells to repay scoring them
        if live.size == 0:
            break
        which, centres, r = _lattice_cells(ts[live], keys[live], side, metric)
        values = chamfer_many(a, centres, b, metric, index)
        bound_rows += len(centres) * m
        if holds_optimum:
            # no translation beats the optimum, whose exact value is at most
            # any centre's; each computed value is off by at most its rounding
            low = float(values.min())
            bound = min(bound, low * (1.0 + 2.0 * _PRUNE_SLACK) + 2.0 * rounding)
        floor = np.maximum(floors[live], _cell_floor(values, r, m, rounding)[which])
        floors[live], cell[live] = floor, which
        live = live[floor <= bound]
    # the live cell with the lowest floor is scored in full first, and its
    # best member bounds the scan of the rest
    best, rows = (math.inf, len(ts)), 0
    if live.size:
        in_head = cell[live] == cell[live[int(np.argmin(floors[live]))]]
        head, live = live[in_head], live[~in_head]
        values = chamfer_many(a, ts[head], b, metric, index)
        rows += values.size * m
        lead = int(np.argmin(values))
        if values[lead] <= bound:
            best = (float(values[lead]), int(head[lead]))
            bound = best[0]
            live = live[floors[live] <= bound]
    pos, value, more = chamfer_argmin(a, ts[live], b, metric, index, upper=bound, floors=floors[live])
    rows += more
    if pos >= 0:
        best = min(best, (value, int(live[pos])))
    value, pos = best
    return LatticeArgmin(-1 if pos == len(ts) else pos, value, rows, bound_rows)


def bbox_diameter(ps: PointSet, metric: Metric = L2) -> float:
    """Diameter of the bounding box; an upper bound on the set diameter."""
    span = ps.points.max(axis=0) - ps.points.min(axis=0)
    return float(metric.norms(span))
