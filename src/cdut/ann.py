"""Multi-scale locality-sensitive hashing for approximate nearest neighbors.

The ladder keeps one LSH structure per radius R_i = U / c^i, grown down
from U until no two distinct points share a bucket within c * R_i.  Each
query of a batch walks the scales for the smallest radius at which some
point of B lands in its bucket within c * R_i, recomputing every candidate
distance exactly, so the reported distance is the true distance to a real
point of B and can never underestimate the nearest-neighbor distance.  If
every scale misses, the query falls back to the exact index, which the
ladder builds on the first such miss.  There is
no separate exact table: a query equal to points of B shares every bucket
with them, so the smallest scale answers it with distance 0 and the lowest
such index, as the exact scan does when there are no scales.

Building a ladder draws every table's random projection, offsets and
combiner, scale by scale, but hashes and buckets B in a table only when
the build's close-pair check or a query first reaches it.  Most queries
retire at a low scale, so many of the upper scales' tables are never
bucketed.

Hash families: quantized Gaussian projections for l2, Cauchy projections
for l1, and quantized coordinate sampling for linf.  Widths, concatenation
depth and table counts are sized from the family's collision probabilities
so a single scale answers its (R, cR) near-neighbor question with
probability at least 1 - ``_MISS_PROB`` = 0.9.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .core import L2, Metric, PointSet, _nearest_in_runs, _runs, _tile_rows, bbox_diameter, build_index

__all__ = ["ScaleLadder", "build_ladder"]

_MAX_SCALES = 80
_MAX_HASHES = 40
_MAX_TABLES = 160
# bucket width as a multiple of the scale's radius
_WIDTH_FACTOR = 4.0
# the chance that one scale misses a query's (R, cR) near neighbor
_MISS_PROB = 0.1
# a table's presence screen has 2^(bit length of its bucket count + this) slots
_SCREEN_BITS = 4


def _phi(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def _collision_prob(family: str, s: float) -> float:
    """Single-hash collision probability at bucket-width-to-distance ratio s."""
    if family == "gaussian":
        return max(
            1e-9,
            1.0 - 2.0 * _phi(-s) - (2.0 / (math.sqrt(2.0 * math.pi) * s)) * (1.0 - math.exp(-s * s / 2.0)),
        )
    if family == "cauchy":
        return max(1e-9, 2.0 * math.atan(s) / math.pi - math.log(1.0 + s * s) / (math.pi * s))
    # coordinate sampling: a pair within distance r collides on one
    # quantized coordinate with probability at least 1 - r/w
    return max(1e-9, 1.0 - 1.0 / s)


def _family_for(metric: Metric) -> str:
    return {1.0: "cauchy", 2.0: "gaussian", math.inf: "coord"}[metric.p]


class _Buckets:
    """B grouped by one table's bucket ids.

    ``order`` sorts B's ids stably, ``ids`` holds the distinct ids in
    ascending order, and ``start`` and ``size`` give each one's first
    position in ``order`` and its member count: the arrays that
    ``np.unique(ids[order], return_index=True, return_counts=True)`` returns.
    """

    def __init__(self, ids: np.ndarray):
        self.order = np.argsort(ids, kind="stable")
        ids = ids[self.order]
        # a bucket starts where a sorted id differs from the one before it
        edges = np.flatnonzero(np.concatenate(([True], ids[1:] != ids[:-1], [True])))
        self.start, self.size = edges[:-1], edges[1:] - edges[:-1]
        self.ids = ids[self.start]
        # a presence screen over the top bits of the bucket ids, 16 to 32
        # slots per bucket: a query id whose slot is clear is in no bucket
        bits = self.ids.size.bit_length() + _SCREEN_BITS
        self._shift = np.uint64(64 - bits)
        self._screen = np.zeros(1 << bits, dtype=bool)
        self._screen[self._slots(self.ids)] = True

    def _slots(self, ids: np.ndarray) -> np.ndarray:
        # the shift clears the sign bit, so the int64 view is the slot number
        return (ids >> self._shift).view(np.int64)

    def lookup(self, qids: np.ndarray):
        """Positions of the query ids that some point of B shares, and their buckets.

        Only the ids whose screen slot is set are searched for.
        """
        maybe = np.flatnonzero(self._screen[self._slots(qids)])
        ids = qids[maybe]
        pos = np.minimum(np.searchsorted(self.ids, ids), self.ids.size - 1)
        found = self.ids[pos] == ids
        return maybe[found], pos[found]

    def members(self, bucket: np.ndarray) -> np.ndarray:
        """Ragged bucket expansion: the indices into B of each bucket's members, bucket by bucket."""
        c = self.size[bucket]
        ends = np.cumsum(c)
        flat = np.arange(ends[-1]) - np.repeat(ends - c, c) + np.repeat(self.start[bucket], c)
        return self.order[flat]


class _Table:
    """One hash table: K concatenated quantized projections over B.

    The projection, offsets and combiner are drawn when the table is made,
    so a ladder's draws do not depend on which tables it uses.  B is hashed
    and bucketed when ``buckets`` is first called.
    """

    def __init__(self, points: np.ndarray, width: float, family: str, k: int, rng):
        d = points.shape[1]
        if family == "gaussian":
            proj = rng.standard_normal((d, k))
        elif family == "cauchy":
            proj = rng.standard_cauchy((d, k))
        else:
            proj = np.zeros((d, k))
            proj[rng.integers(0, d, size=k), np.arange(k)] = 1.0
        self.proj = proj
        self.offsets = rng.uniform(0.0, width, size=k)
        self.width = width
        self.combiner = (rng.integers(1, 2**62, size=k, dtype=np.uint64) << np.uint64(1)) | np.uint64(1)
        self._points = points
        self._buckets = None  # built on first use, by ``buckets``

    def hash_points(self, pts: np.ndarray) -> np.ndarray:
        # floor((pts @ proj + offsets) / width), each step in place
        x = pts @ self.proj
        x += self.offsets
        x /= self.width
        codes = np.floor(x, out=x).astype(np.int64)
        # uint64 arithmetic wraps mod 2^64, so the ids do not depend on the summation order
        return codes.view(np.uint64) @ self.combiner

    def buckets(self) -> _Buckets:
        """B's buckets, built on the first call.

        They are published by one assignment, so a concurrent caller sees
        all of them or none; two callers that race build equal copies.
        """
        built = self._buckets
        if built is None:
            built = self._buckets = _Buckets(self.hash_points(self._points))
        return built


class _Scale:
    def __init__(self, radius: float, tables: list[_Table]):
        self.radius = radius
        self.tables = tables


class ScaleLadder:
    """Multi-scale near-neighbor structure over one point set.

    Its tables bucket B when a query or the build first needs them, and
    its exact fallback is built on the first query that misses every
    scale.  Each is published whole and comes out the same whenever it is
    built, so answers do not depend on the order of queries.
    """

    def __init__(self, source: PointSet, metric: Metric, c: float, scales: list[_Scale]):
        self.source = source
        self.metric = metric
        self.c = c
        self.scales = scales
        self._fallback = None  # the exact index, built when a query first misses every scale

    # -- queries -------------------------------------------------------------

    def _probe_table(self, table: _Table, q: np.ndarray, rows: np.ndarray, best_d, best_i) -> None:
        """Fold one table's bucket members into each query row's best (distance, index).

        Every row is hashed at once, so the projection keeps one call shape
        and its bucket ids their bits.  The members are then gathered over
        tiles of query rows holding at most ``_TILE_ENTRIES`` coordinates;
        a row whose bucket alone is larger has its members split.  Each
        row's members lie in one contiguous run of a tile, so
        ``_nearest_in_runs`` gives its nearest distance and the lowest index
        at it.  Each tile keeps the smallest (distance, index) pair per
        row, so the result is the one an untiled probe gives.
        """
        buckets = table.buckets()
        # ``rows`` increase, so while none has retired they are all of q; the
        # gathered rows are freed before the folds
        hit, bucket = buckets.lookup(
            table.hash_points(q if rows.size == len(q) else np.take(q, rows, axis=0))
        )
        if hit.size == 0:
            return
        limit = _tile_rows(q.shape[1])
        sizes = buckets.size[bucket]
        ends = np.cumsum(sizes)
        lo = 0
        while lo < hit.size:
            start = int(ends[lo - 1]) if lo else 0
            hi = max(lo + 1, int(np.searchsorted(ends, start + limit, side="right")))
            cand = buckets.members(bucket[lo:hi])
            qrows = rows[hit[lo:hi]]
            if cand.size <= limit:
                self._fold_runs(q, qrows, sizes[lo:hi], cand, best_d, best_i)
            else:
                # one row's bucket, folded in pieces
                for s in range(0, cand.size, limit):
                    piece = cand[s : s + limit]
                    self._fold_runs(q, qrows, [piece.size], piece, best_d, best_i)
            lo = hi

    def _fold_runs(self, q, qrows, counts, cand, best_d, best_i) -> None:
        """Lower each query row's best (distance, index) to its nearest member in one block.

        ``cand`` holds the members of ``qrows`` in order, as runs of
        ``counts`` members, none empty.
        """
        dd, ii = _nearest_in_runs(self.metric, q, qrows, counts, self.source.points, cand)
        better = (dd < best_d[qrows]) | ((dd == best_d[qrows]) & (ii < best_i[qrows]))
        qrows, dd, ii = qrows[better], dd[better], ii[better]
        best_d[qrows] = dd
        best_i[qrows] = ii

    def query_batch(self, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Reported (distance, index) per query row; exact-scan fallback on miss.

        Walks the scales in increasing radius, retiring a query as soon as a
        verified candidate lies within c * R_i.  Earlier candidates carry
        forward, so the success predicate is monotone in the scale.
        """
        q = np.ascontiguousarray(np.asarray(queries, dtype=np.float64))
        if q.ndim != 2 or q.shape[1] != self.source.dim:
            raise ValueError(f"queries must have shape (*, {self.source.dim})")
        best_d = np.full(len(q), np.inf)
        best_i = np.full(len(q), -1, dtype=np.int64)
        active = np.arange(len(q))
        for scale in self.scales:
            if active.size == 0:
                break
            cutoff = self.c * scale.radius
            for table in scale.tables:
                self._probe_table(table, q, active, best_d, best_i)
                active = active[best_d[active] > cutoff]
                if active.size == 0:
                    break
        # queries that never met a scale's cutoff missed every scale: exact scan
        if active.size:
            if self._fallback is None:
                self._fallback = build_index(self.source, self.metric)
            d, i = self._fallback.query_many(q[active])
            best_d[active] = d
            best_i[active] = i
        return best_d, best_i


def _scale_parameters(family: str, n: int, c: float):
    p1 = _collision_prob(family, _WIDTH_FACTOR)
    p2 = _collision_prob(family, _WIDTH_FACTOR / c)
    k = max(1, min(_MAX_HASHES, math.ceil(math.log(max(n, 2)) / math.log(1.0 / p2))))
    hit = p1**k
    tables = max(1, min(_MAX_TABLES, math.ceil(math.log(1.0 / _MISS_PROB) / -math.log1p(-hit))))
    return k, tables


def _build_scale(points, radius, family, n, c, rng) -> _Scale:
    k, tables = _scale_parameters(family, n, c)
    width = _WIDTH_FACTOR * radius
    return _Scale(radius, [_Table(points, width, family, k, rng) for _ in range(tables)])


def _has_close_bucket_pair(scale: _Scale, points: np.ndarray, metric: Metric, cutoff: float) -> bool:
    """Whether any table puts two distinct points in one bucket within cutoff.

    Tables are bucketed as the scan reaches them, and it stops at the first
    close pair, so the tables after it stay unbuilt until a query needs
    them.  In a table, each position of ``order`` pairs with the later
    positions of its bucket.  The pairs are measured in tiles, one
    ``norms`` call each, whose two gathered blocks and squares hold at
    most ``_TILE_ENTRIES`` coordinates together (one position's pairs may
    hold more).
    """
    step = _tile_rows(3 * points.shape[1])
    for table in scale.tables:
        buckets = table.buckets()
        if buckets.ids.size == buckets.order.size:
            continue  # every bucket holds one point
        # the later positions in its bucket of each position that has some
        later = np.repeat(buckets.start + buckets.size, buckets.size) - np.arange(1, buckets.order.size + 1)
        pos = np.flatnonzero(later)
        counts = later[pos]
        ends = np.cumsum(counts)
        lo = 0
        while lo < pos.size:
            done = int(ends[lo - 1]) if lo else 0
            hi = max(lo + 1, int(np.searchsorted(ends, done + step, side="right")))
            run, rank = _runs(counts[lo:hi])
            first = pos[lo:hi][run]
            diffs = points[buckets.order[first]]
            diffs -= points[buckets.order[first + rank + 1]]
            dist = metric.norms(diffs)
            if np.any((dist > 0.0) & (dist <= cutoff)):
                return True
            lo = hi
    return False


def build_ladder(
    b: PointSet,
    c: float,
    U: Optional[float] = None,
    seed: int = 0,
    metric: Metric = L2,
) -> ScaleLadder:
    """Build the multi-scale structure over ``b``.

    ``U`` defaults to the bounding-box diameter of ``b``; callers comparing
    against a second set should pass diam(A) + diam(B).  Scales are grown
    downward from U and construction stops at the first scale where no two
    distinct points share a bucket within c * R, below which any query has
    at most one candidate anyway.  Each scale holds enough tables to miss a
    query's (R, cR) near neighbor with probability at most ``_MISS_PROB``.
    """
    if not 1.0 < c < math.inf:
        raise ValueError("approximation factor c must exceed 1 and be finite")
    if U is None:
        U = bbox_diameter(b, metric)
    if not math.isfinite(U):
        raise ValueError("U must be finite")
    family = _family_for(metric)
    pts = b.points
    n = len(b)
    # whether B holds two distinct points (-0.0 == 0.0; a PointSet holds no NaN)
    if not np.any(pts != pts[0]) or U <= 0.0:
        return ScaleLadder(b, metric, c, [])
    rng = np.random.default_rng(seed)
    scales: list[_Scale] = []
    radius = float(U)
    for _ in range(_MAX_SCALES):
        scale = _build_scale(pts, radius, family, n, c, rng)
        scales.append(scale)
        if not _has_close_bucket_pair(scale, pts, metric, c * radius):
            break
        radius /= c
    scales.reverse()
    return ScaleLadder(b, metric, c, scales)
