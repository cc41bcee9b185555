"""Point sets, lp metrics, and exact Chamfer evaluation.

The Chamfer distance from A to B sums, over every point of A, the distance
to its nearest neighbor in B.  Everything downstream (the 1D sweep, the
candidate-translation approximations, the decision procedure) is built on
the exact evaluators in this module, so determinism matters here: nearest
neighbors break ties toward the lowest index in B, and every index backend
is required to produce bit-identical assignments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

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
    "Lattice",
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
        """lp norms along the last axis.

        With one axis every lp norm is |x|, which l2 takes as it is:
        squaring would round any |x| below about 1.5e-162 to 0.
        """
        v = np.asarray(vectors, dtype=np.float64)
        if self.p == 2.0 and v.shape[-1] > 1:
            return np.sqrt(np.sum(v * v, axis=-1))
        if self.p == 1.0:
            return np.sum(np.abs(v), axis=-1)
        return np.max(np.abs(v), axis=-1)


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


# float64 entries in the largest temporary of one tile of any phase
_TILE_ENTRIES = 1 << 22
# the same for a brute scan's live tables together, which it re-reads for
# every group of axes, and for a screen's product table, which it re-reads:
# tiles this small stay in a core's cache
_BRUTE_ENTRIES = 1 << 16
# a screened row whose (|q'| + max |p'|)^2 reaches this goes to brute: the
# product's partial sums stay below a few times that, so none overflows
_SCREEN_LIMIT = np.finfo(np.float64).max / 16
# l2 sets of this many points or more take the kd-tree at d <= 3
_TREE_POINTS = 100


def _tile_rows(width: int) -> int:
    """Rows of ``width`` entries that one tile holds: at least one."""
    return max(1, _TILE_ENTRIES // width)


# numpy's pairwise summation, which ``Metric.norms`` runs along each row:
# fewer terms than _LANES add in sequence, up to _BLOCK terms add into
# _LANES interleaved accumulators, and longer runs split in two
_LANES = 8
_BLOCK = 128


def _split(terms: int) -> int:
    """Terms in the first half of a run that numpy's pairwise sum splits."""
    half = terms // 2
    return half - half % _LANES


def _held_tables(d: int) -> int:
    """(rows, n) tables that ``_cross_norms`` holds at once at dimension d.

    A run of fewer than ``_LANES`` terms holds its terms and their sum.  A
    longer one holds its lanes and the next group of terms, or, with no
    second group, its lanes and their first pair sums.  A split keeps its
    first half's sum while the second, never shorter, half runs.
    """
    held = 0
    while d > _BLOCK:
        d -= _split(d)
        held += 1
    if d < _LANES:
        return held + d + (d > 1)
    return held + _LANES + (_LANES if d >= 2 * _LANES else _LANES // 2)


def _cross_norms(metric: Metric, q: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """``metric.norms(q[:, None, :] - pts[None, :, :])``, bit for bit.

    No (rows, n, d) tensor is made.  The differences come in (rows, n)
    tables, one per axis and up to ``_LANES`` axes per call, squared or
    made absolute in place, and fold into the result in numpy's pairwise
    order, so every row sum rounds as ``norms``'s does.  linf folds them by
    ``maximum``, which is exact in any order.  At most ``_held_tables(d)``
    tables are alive at once.  No call writes to one view of an array
    while reading another view of it: on small tables numpy's overlap
    check for that costs more than the arithmetic.
    """
    q_axes, p_axes = np.ascontiguousarray(q.T), np.ascontiguousarray(pts.T)
    fold = np.maximum if metric.p == math.inf else np.add
    # one axis is |x| in every metric, as in ``norms``
    square = metric.p == 2.0 and q.shape[1] > 1

    def terms(lo: int, hi: int) -> np.ndarray:
        diff = np.subtract(q_axes[lo:hi, :, None], p_axes[lo:hi, None, :])
        return np.multiply(diff, diff, out=diff) if square else np.abs(diff, out=diff)

    def fold_in(total: np.ndarray, tables) -> np.ndarray:
        for table in tables:
            fold(total, table, out=total)
        return total

    def pairwise(lo: int, hi: int) -> np.ndarray:
        count = hi - lo
        if count > _BLOCK:
            mid = lo + _split(count)
            total = pairwise(lo, mid)
            return fold(total, pairwise(mid, hi), out=total)
        if count < _LANES:
            block = terms(lo, hi)
            return block[0] if count == 1 else fold_in(fold(block[0], block[1]), block[2:])
        lanes = terms(lo, lo + _LANES)
        tail = hi - count % _LANES
        for start in range(lo + _LANES, tail, _LANES):
            fold(lanes, terms(start, start + _LANES), out=lanes)
        # ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the rest in turn
        while len(lanes) > 2:
            lanes = fold(lanes[0::2], lanes[1::2])
        return fold_in(fold(lanes[0], lanes[1]), terms(tail, hi) if tail < hi else ())

    out = pairwise(0, q.shape[1])
    return np.sqrt(out, out=out) if square else out


# the index of a candidate that is not at its run's nearest distance
_NO_INDEX = np.iinfo(np.int64).max


def _nearest_in_runs(metric: Metric, q, rows, counts, points: np.ndarray, cand: np.ndarray):
    """Each run's nearest candidate: its least distance, then the lowest index at it.

    Run r pairs query row ``q[rows[r]]`` with the next ``counts[r]``
    indices of ``cand`` into ``points``; no run is empty.  The differences
    are squared or made absolute in place, so each distance has the bits
    of ``metric.norms`` of the same difference.
    """
    v = np.take(q, np.repeat(rows, counts), axis=0)
    v -= points[cand]
    if metric.p == 2.0 and v.shape[-1] > 1:
        v *= v
        d = np.sqrt(np.sum(v, axis=-1))
    else:
        np.abs(v, out=v)
        d = np.sum(v, axis=-1) if metric.p == 1.0 else np.max(v, axis=-1)
    if d.size == len(counts):  # every run has one member
        return d, cand
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    dist = np.minimum.reduceat(d, starts)
    return dist, np.minimum.reduceat(np.where(d == np.repeat(dist, counts), cand, _NO_INDEX), starts)


def _auto_backend(n: int, d: int, metric: Metric) -> str:
    """The backend that 'auto' takes for n points in d dimensions.

    Measured (README): brute wins below 32 points while d < 8 and below 16
    from d = 8 on, and at d = 1 the sorted index wins above that.  For l2
    the screen wins above it, serially and on two threads, but a second
    thread speeds it by a median 1.02x and the tree by 1.32x: at d <= 3
    the two are level on two threads from about 100 points, and the tree
    wins from 256.  l1 and linf take the tree.
    """
    if n < (32 if d < 8 else 16):
        return "brute"
    if d == 1:
        return "sorted"
    if metric.p == 2.0 and (d > 3 or n < _TREE_POINTS):
        return "screen"
    return "kdtree"


class NearestIndex:
    """Exact nearest-neighbor index over a point set.

    backend 'brute' scans all points, 'screen' selects them by one matrix
    product (l2, d >= 2), 'kdtree' wraps a k-d tree and 'sorted' searches
    the sorted coordinates of a one-dimensional set.  All return identical
    (distance, index) answers on every query: distances are recomputed with
    the metric's own arithmetic and ties resolve to the lowest index in B.
    'auto' takes the backend that ``_auto_backend`` names.  scipy is loaded
    on the first kd-tree build.
    """

    def __init__(self, source: PointSet, metric: Metric = L2, backend: str = "auto"):
        if backend not in ("auto", "brute", "screen", "kdtree", "sorted"):
            raise ValueError(f"unknown backend {backend!r}")
        if backend == "auto":
            backend = _auto_backend(len(source), source.dim, metric)
        if backend == "sorted" and source.dim != 1:
            raise ValueError(f"backend 'sorted' needs d = 1, got d = {source.dim}")
        if backend == "screen" and (metric.p != 2.0 or source.dim < 2):
            raise ValueError(f"backend 'screen' needs l2 at d >= 2, got {metric.name} at d = {source.dim}")
        self.source = source
        self.metric = metric
        self.backend = backend
        self._tree = self._runs = self._lift = None
        if backend == "kdtree":
            from scipy.spatial import cKDTree

            self._tree = cKDTree(source.points)
        elif backend == "screen":
            # B centred on its mean, as the columns of one product: -2 p'
            # above |p'|^2, so a centred query row with a 1 appended gives
            # |p'|^2 - 2 q'.p' for every point at once
            centre = source.points.mean(axis=0)
            shifted = source.points - centre
            lift = np.empty((source.dim + 1, len(source)))
            np.multiply(shifted.T, -2.0, out=lift[:-1])
            lift[-1] = np.einsum("ij,ij->i", shifted, shifted)
            self._lift = centre, lift, math.sqrt(lift[-1].max())
        elif backend == "sorted":
            # the distinct values in order, each with the lowest index holding
            # it, padded by two infinite values on either side
            _, lowest = np.unique(source.points[:, 0], return_index=True)
            pad = np.full((2, 1), np.inf)
            values = np.concatenate([-pad, source.points[lowest], pad])
            self._runs = values, np.concatenate([[0, 0], lowest, [0, 0]])

    def query_many(self, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Exact NN distance for each query row, and the lowest index in B
        at that distance."""
        q = np.ascontiguousarray(np.asarray(queries, dtype=np.float64))
        if q.ndim != 2 or q.shape[1] != self.source.dim:
            raise ValueError(f"queries must have shape (*, {self.source.dim})")
        if self.backend == "brute":
            return self._brute(q)
        if self.backend == "sorted":
            return self._sorted(q)
        if self.backend == "screen":
            return self._screen(q)
        return self._kdtree(q)

    # -- internals ----------------------------------------------------------

    def _brute(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n = len(self.source)
        out_d = np.empty(len(q), dtype=np.float64)
        out_i = np.empty(len(q), dtype=np.int64)
        # the kernel's live tables are the largest temporaries
        chunk = max(1, min(_TILE_ENTRIES, _BRUTE_ENTRIES) // (n * _held_tables(self.source.dim)))
        for start in range(0, len(q), chunk):
            stop = min(len(q), start + chunk)
            dmat = _cross_norms(self.metric, q[start:stop], self.source.points)
            idx = np.argmin(dmat, axis=1)  # first minimum = lowest index
            out_i[start:stop] = idx
            out_d[start:stop] = dmat[np.arange(stop - start), idx]
        return out_d, out_i

    def _sorted(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        values, lowest = self._runs
        # two distinct values below each query and two at or above it; a
        # padding value is infinitely far
        near = np.searchsorted(values[:, 0], q[:, 0])[:, None] + np.arange(-2, 2)
        dists = self.metric.norms(q[:, None, :] - values[near])
        dist = dists.min(axis=1)
        hit = dists == dist[:, None]
        idx = np.where(hit, lowest[near], len(self.source)).min(axis=1)
        # a rounded difference is monotone in the value, so the two middle
        # values hold the minimum; an outer one ties it only when rounding
        # merges two differences, and then a farther value may tie too: one
        # brute pass over those rows settles the lowest index
        far = hit[:, 0] | hit[:, 3]
        if np.any(far):
            dist[far], idx[far] = self._brute(q[far])
        return dist, idx

    def _screen(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        centre, lift, reach = self._lift
        n, d = len(self.source), self.source.dim
        # Each row's screened values s_j = |p'_j|^2 - 2 q'.p'_j only select.
        # Let u = eps / 2, eta = half the smallest subnormal (the most that
        # a product rounded into the subnormals loses) and
        # W = (|q'| + max |p'|)^2.  Three errors, each in the squared
        # distance D_j = |q - p_j|^2:
        # - the product: a dot product of k terms is off by k u times the
        #   sum of its terms' magnitudes, plus k eta, in any order, blocked
        #   or fused as BLAS likes; with |p'|^2's own error, s_j + |q'|^2 is
        #   within (2d + 1) u W + 2d eta of |q' - p'_j|^2;
        # - the centring: q' and p'_j round q - mu and p_j - mu by a
        #   relative u per coordinate (a subtraction that underflows is
        #   exact), moving |q' - p'_j| by u (|q - mu| + |p_j - mu|) at
        #   most and its square by 2 u W;
        # - brute's distance c_j: its differences, squares, sum and root put
        #   c_j^2 within (d + 4) u D_j + d eta of D_j, and D_j <= W.
        # Brute's answer k and any point tied with it have c_k <= c_j at
        # the screen's minimum j, so chaining the three bounds from s_k to
        # s_j gives s_k <= s_j + (6d + 14) u W + 6d eta, plus 2 u W for
        # the threshold's roundings.  The band, (8d + 16) eps W + 16d eta, is
        # over twice that; rounding W itself, with or without underflow,
        # moves it by far less.  So the band holds brute's answer and every
        # point tied with it.  Its points are re-scored with ``norms``'s
        # arithmetic, and each row takes the least distance and the lowest
        # index at it, as brute does; rows whose W nears overflow keep no
        # band and go to one brute pass.  Centring on B's mean cancels an
        # offset shared by A and B, such as 1e12.
        slope = 8.0 * (d + 2) * np.finfo(np.float64).eps
        floor = 8.0 * d * np.finfo(np.float64).smallest_subnormal
        near = np.zeros(len(q), dtype=np.int64)
        far = np.zeros(len(q), dtype=bool)
        # a tile's band holds at most chunk * n points, and their
        # coordinates one tile's worth
        chunk = max(1, min(_BRUTE_ENTRIES, _tile_rows(d)) // n)
        lifted = np.ones((min(chunk, len(q)), d + 1))
        for start in range(0, len(q), chunk):
            stop = min(len(q), start + chunk)
            rows = lifted[: stop - start]
            centred = np.subtract(q[start:stop], centre, out=rows[:, :d])
            screened = rows @ lift
            w = np.sqrt(np.einsum("ij,ij->i", centred, centred)) + reach
            w *= w
            low = screened[np.arange(stop - start), np.argmin(screened, axis=1)]
            band = screened <= (low + (slope * w + floor))[:, None]
            wide = w >= _SCREEN_LIMIT
            if wide.any():
                band[wide] = False
            # rows ascend, and each row's points ascend
            row, point = np.divmod(np.flatnonzero(band), n)
            if point.size == stop - start and not wide.any():
                near[start:stop] = point  # each band holds one point
                continue
            counts = np.bincount(row, minlength=stop - start)
            held = np.flatnonzero(counts)
            far[start:stop] = counts == 0
            near[start + held] = _nearest_in_runs(
                self.metric, q[start:stop], held, counts[held], self.source.points, point
            )[1]
        # the least distance in a band is its lowest index's, in the same arithmetic
        dist = self.metric.norms(q - self.source.points[near])
        if far.any():
            dist[far], near[far] = self._brute(q[far])
        return dist, near

    def _kdtree(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        pts = self.source.points
        if len(self.source) == 1:
            idx = np.zeros(len(q), dtype=np.int64)
            return self.metric.norms(q - pts[0]), idx
        _, pair_idx = self._tree.query(q, k=2, p=self.metric.p)
        dist = self.metric.norms(q - pts[pair_idx[:, 0]])
        runner_up = self.metric.norms(q - pts[pair_idx[:, 1]])
        idx = pair_idx[:, 0].astype(np.int64)
        # The tree ranks by its own arithmetic, so in ours its two nearest
        # can swap or tie, and a point past them can tie or beat them.  In
        # either arithmetic a sum of d squared terms is off by a relative
        # e = (d + 2) eps / 2 at most: one rounding for each difference,
        # doubled by squaring, one for each square and d - 1 for the sum, in
        # any order (l1 and linf round less, and a square root halves it
        # and adds eps / 2).  A point past the two is then, in our
        # arithmetic, at least the runner-up times (1 - e)^2 / (1 + e)^2,
        # about 1 - 4e.  Every row whose runner-up does not clear the
        # nearest by 4 times that band goes to one brute pass, which also
        # settles the lowest index among tied points; on every other row the
        # tree's nearest wins alone.  Squares that underflow are not covered.
        band = 8.0 * (self.source.dim + 2) * np.finfo(np.float64).eps
        near = runner_up <= dist * (1.0 + band)
        if np.any(near):
            dist[near], idx[near] = self._brute(q[near])
        return dist, idx


def build_index(source: PointSet, metric: Metric = L2, backend: str = "auto") -> NearestIndex:
    """Build an exact nearest-neighbor index over ``source``."""
    return NearestIndex(source, metric, backend)


def chamfer(
    a: PointSet,
    b: PointSet,
    metric: Metric = L2,
    index: Optional[NearestIndex] = None,
) -> ChamferReport:
    """Exact Chamfer distance from ``a`` to ``b`` with the minimizing assignment.

    ``index``, when given, is an index over ``b`` in ``metric`` and is used
    instead of building one; ``build_index`` chooses its backend.
    """
    return chamfer_translated(a, np.zeros(a.dim), b, metric, index)


def chamfer_translated(
    a: PointSet,
    t,
    b: PointSet,
    metric: Metric = L2,
    index: Optional[NearestIndex] = None,
    algorithm: str = "exact",
    **fields,
) -> ChamferReport:
    """Exact Chamfer distance of ``a`` shifted by ``t`` against ``b``.

    Every solver whose value is an exact Chamfer sum finishes here: the
    report carries ``algorithm`` and ``fields`` (``epsilon``, ``seed``,
    ``evaluations``, ``extras``) as given.
    """
    _check_same_dim(a, b)
    t = as_translation(t, a.dim)
    if index is None:
        index = build_index(b, metric)
    dists, idx = index.query_many(a.translated(t).points)
    return ChamferReport(float(np.sum(dists)), t, idx, algorithm, **fields)


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


# query rows built at once by one evaluation, summed over its workers; their
# coordinates are held to _TILE_ENTRIES, so below d = 5 this cap is the tighter
_QUERY_ROWS = 1 << 20
# column stages of A in chamfer_argmin
_ARGMIN_STAGES = 8
# a chamfer_argmin scan of fewer query rows than this is one call: on
# 2 CPUs one chamfer_many call beat the stages' calls on every measured scan
# below it (1.2-7.8x at d = 1-3), while above it the stages' pruning wins.
# Re-measured with cell floors on uniform approx-v1 sets of 4.1k-12.3k rows
# (m = n = 32-64, medians of 41 calls, 2 CPUs, three runs): at d = 2 the
# stages were level at 4.1k-4.6k rows, which build no cell table, and
# 1.1-1.6x faster from 7.2k rows, which do; at d = 3 no such set builds
# one, and one call was 1.2-1.6x faster on a 4.6k-row set while the stages
# were up to 1.3x faster from 7.2k rows in most runs, not all.  Single
# calls cannot settle it, so the constant stays until BENCH pairs move it
_STAGED_ROWS = 4096
# a partial sum and the full sum it bounds are rounded in different orders;
# a candidate is dropped only when its partial sum clears the bound by more
_PRUNE_SLACK = 1e-9
# query rows one evaluation must hold before its blocks go to the thread
# pool; below this the handoff costs more than the second thread saves
_POOL_ROWS = 1 << 12
# cells per axis of the table over B's box that bounds a staged scan's terms,
# by dimension; no other dimension has been measured, so none builds one
_FLOOR_SIDES = {2: 32, 3: 16}
# B's points below which no table is built: ``auto`` scans such sets by
# brute, whose queries cost too little to repay it
_FLOOR_POINTS = 32
# a table of more entries, its cells times |B|, than this many times the
# scan's query rows costs more than its floors save: uniform approx-v1
# scans at d = 2-3 gained 1.3-2.1x with tables of up to 3.1x their rows,
# and from 8.5x on (one anchor, |B| = 1000-20000) lost up to 13x or
# gained at most 6%
_FLOOR_WORK = 8
# per-term cell floors computed at once
_FLOOR_TILE = 1 << 13
# lattice keys per side of lattice_argmin's pruning cells, coarse to fine;
# each side divides the one before, so every fine cell nests in a coarse one
_CELL_SIDES = (16, 4)
# a coarse level runs only when the keys' bounding box spans this many of
# its cells; below that its call costs more than the fine centres it saves
_MIN_COARSE_CELLS = 64
# the most that a lattice scan holds at once: a builder's interval rows,
# plus the pieces of the current cell level and what it cuts them into, or
# plus the surviving pieces and the members built from them
_LATTICE_BUDGET = 2_000_000


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
    at most ``_QUERY_ROWS`` query rows and ``_TILE_ENTRIES`` coordinates.
    A distance does not depend on which block or tile computed it.  A call
    of fewer than ``_POOL_ROWS`` query rows runs serially.
    """
    c, d = cols.shape
    workers = worker_count() if len(ts) * c >= _POOL_ROWS else 1
    rows = min(_QUERY_ROWS, _tile_rows(d))
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
                dd, _ = index.query_many(queries)
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


def _fold_scanned(points: np.ndarray, seen: int, lo: int, near: np.ndarray, gap: np.ndarray, metric: Metric):
    """Fold A's columns ``seen:lo``, now scanned, into ``near`` and ``gap``.

    For each column from ``lo`` on, ``near`` holds its nearest scanned
    column (the lowest on equal distance) and ``gap`` their distance.
    """
    dist, idx = NearestIndex(PointSet(points[seen:lo]), metric, "brute").query_many(points[lo:])
    nearer = dist < gap[lo:]
    near[lo:][nearer] = idx[nearer] + seen
    gap[lo:][nearer] = dist[nearer]


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
    ``chamfer_many`` takes, so ties still go to the first position.  A scan
    of fewer than ``_STAGED_ROWS`` query rows in all is one ``chamfer_many``
    call instead, which costs less than the stages' calls would.

    Before a stage of at least ``_POOL_ROWS`` query rows (counted before
    the prune), the unscanned columns are bounded too, by a column floor
    that costs no query.  Each term d(a_k + t, B) is 1-Lipschitz in a_k,
    so it is at least d(a_l + t, B) - |a_k - a_l| for the scanned column l
    nearest to a_k, whose distance the candidate already holds.  A
    candidate is dropped when its partial sum plus these floors (each
    clipped at 0), less twice ``_rounding`` over the translations, exceeds
    the bound by more than ``_PRUNE_SLACK``: the same rounding slack that
    ``lattice_argmin``'s cell floors allow for.

    A staged scan that is given no ``floors`` makes its own, ``_box_floor``:
    every point of B lies in B's bounding box, so no term is below the
    distance from its query to the box.  Before the first stage, the
    candidate with the lowest box floor is scored in full and seeds the
    bound, so every candidate whose floor clears it leaves before any query.
    When every box floor is the same, as when A + t stays inside the box for
    every t, none can clear the bound and no candidate is seeded.

    A staged scan at d = 2 or 3 (``_FLOOR_SIDES``) on B of at least
    ``_FLOOR_POINTS`` points, given ``floors`` or not, also cuts B's box
    into cells (``_cell_table``), unless the table's entries exceed
    ``_FLOOR_WORK`` times the scan's query rows.  Each candidate that its
    box floor or given floor keeps gets a floor per term from the table,
    summed over each stage's columns and those after it (``_cell_floors``).
    Before every stage, a candidate is dropped when its partial sum plus
    the floor of its unscanned columns, less ``_PRUNE_SLACK`` of that floor
    and the same rounding slack, exceeds the bound; before the first stage
    that floor is its whole value's.

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
    if total == 0:
        return ArgminResult(-1, math.inf, 0)
    if total * m < _STAGED_ROWS:
        values = chamfer_many(a, ts, b, metric, index)
        first = int(np.argmin(values))
        if values[first] > upper:
            return ArgminResult(-1, math.inf, total * m)
        return ArgminResult(first, float(values[first]), total * m)
    cuts = np.linspace(0, m, min(m, _ARGMIN_STAGES) + 1).astype(int)
    # ``total`` stands for "no winner yet": it sorts after every real position
    best_val, best_pos = float(upper), total
    alive, partial = np.arange(total), np.zeros(total)
    slack = 2.0 * _rounding(a, ts)
    rows = 0
    if floors is None:
        floor = _box_floor(a, ts, b, metric, slack)
        seed = int(np.argmin(floor))
        # the bound that a seed sets is at least the seed's floor, so only a
        # higher floor can clear it
        if floor[seed] < floor.max():
            value = float(chamfer_many(a, ts[seed][None], b, metric, index)[0])
            rows += m
            best_val, best_pos = min((best_val, best_pos), (value, seed))
            floor[seed] = math.inf  # it leaves the pool at the first prune
    else:
        floor = np.asarray(floors, dtype=np.float64)
    side = _FLOOR_SIDES.get(a.dim)
    cells = None
    if side and len(b) >= _FLOOR_POINTS and side**a.dim * len(b) <= _FLOOR_WORK * total * m:
        cells = _cell_table(b, metric, side)
    if cells is not None:
        keep = floor <= best_val
        alive, partial, floor = alive[keep], partial[keep], floor[keep]
        suffix = _cell_floors(a, ts[alive], cells, metric, cuts)
        suffix -= _PRUNE_SLACK * suffix + slack
    stored = []  # distances of the alive candidates, one array per stage
    seen = 0  # columns of A folded into the column floor's ``near`` and ``gap``
    for s, (lo, hi) in enumerate(zip(cuts[:-1], cuts[1:])):
        bar = best_val * (1.0 + _PRUNE_SLACK)
        keep = (partial <= bar) & (floor <= best_val)
        if cells is not None:
            keep &= partial + suffix[:, s] <= bar
        if lo and alive.size * (hi - lo) >= _POOL_ROWS:
            # the column floor costs no query, but its numpy calls repay
            # themselves only before a stage this large
            if not seen:
                # each unscanned column's nearest scanned column, and their distance
                near, gap = np.zeros(m, dtype=np.int64), np.full(m, math.inf)
            _fold_scanned(a.points, seen, lo, near, gap, metric)
            seen = lo
            terms = np.hstack(stored)[np.ix_(keep, near[lo:])] - gap[lo:]
            keep[keep] = partial[keep] + np.maximum(terms, 0.0).sum(axis=1) - slack <= bar
        if not keep.all():
            alive, partial, floor = alive[keep], partial[keep], floor[keep]
            stored = [dist[keep] for dist in stored]
            if cells is not None:
                suffix = suffix[keep]
        if alive.size == 0:
            break
        stage = PointSet(a.points[lo:hi])
        sums, dist = chamfer_many(stage, ts[alive], b, metric, index, want_distances=True)
        rows += dist.size
        stored.append(dist)
        partial += sums
        lead = int(np.argmin(partial))
        if hi < m and partial[lead] <= bar:
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


def _runs(count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For consecutive runs of ``count[i]`` items, each item's run and its
    rank inside the run."""
    run = np.repeat(np.arange(count.size), count)
    return run, np.arange(run.size) - np.repeat(np.cumsum(count) - count, count)


def _check_budget(phase: str, held: int) -> None:
    """Raise ``ValueError`` when ``phase`` would hold more than
    ``_LATTICE_BUDGET`` interval rows, pieces and members at once."""
    if held > _LATTICE_BUDGET:
        raise ValueError(
            f"{phase} would hold {held} rows, pieces and keys, over the lattice budget {_LATTICE_BUDGET}"
        )


@dataclass(frozen=True)
class Lattice:
    """Integer lattice keys, held as last-axis intervals, each standing for
    one translation.

    Row i holds the keys ``(*prefix[i], x)`` for ``lo[i] <= x <= hi[i]``.
    A key k stands for the translation ``k * step`` when ``step`` is set
    (a local net), and else for ``(axes[0][k_0], ..., axes[d-1][k_{d-1}])``
    (an alignment grid, each axis sorted).  Either way each coordinate
    grows with its key, so the translations of a box of keys span the box
    between the translations of its corners.  The scan meets the rows in
    order, each row's keys ascending, and skips a key an earlier row holds;
    rows that are disjoint and sorted are met in key order.  ``size``
    counts the keys with their repeats.
    """

    prefix: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    step: Optional[float] = None
    axes: Optional[tuple] = None

    def __post_init__(self):
        prefix = np.asarray(self.prefix, dtype=np.int64)
        lo = np.asarray(self.lo, dtype=np.int64)
        hi = np.asarray(self.hi, dtype=np.int64)
        if prefix.ndim != 2 or lo.shape != hi.shape or lo.shape != prefix.shape[:1]:
            raise ValueError("a lattice takes (R, d - 1) prefixes and R intervals")
        if (self.step is None) == (self.axes is None):
            raise ValueError("a lattice takes either a step or per-axis values")
        if np.any(lo > hi):
            raise ValueError("a lattice row's interval has lo > hi")
        if self.axes is not None:
            sizes = [len(values) for values in self.axes]
            if len(sizes) != prefix.shape[1] + 1:
                raise ValueError(f"a lattice of dimension {prefix.shape[1] + 1} takes as many axes")
            low = np.append(prefix.min(axis=0, initial=0), lo.min(initial=0))
            high = np.append(prefix.max(axis=0, initial=-1), hi.max(initial=-1))
            if np.any(low < 0) or np.any(high >= sizes):
                raise ValueError("a lattice key lies outside its axis's values")
        for name, value in (("prefix", prefix), ("lo", lo), ("hi", hi)):
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return self.prefix.shape[1] + 1

    @property
    def size(self) -> int:
        return int((self.hi - self.lo + 1).sum())

    def translations(self, keys: np.ndarray) -> np.ndarray:
        """The translation of each row of an (N, d) key array."""
        if self.step is not None:
            return keys.astype(np.float64) * self.step
        return np.stack([values[k] for values, k in zip(self.axes, keys.T)], axis=1)


def _keys(lattice: Lattice, row: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The keys of the pieces ``lo[i]..hi[i]`` of rows ``row[i]``, piece by
    piece and ascending in each, and the piece of each key."""
    piece, rank = _runs(hi - lo + 1)
    keys = np.empty((piece.size, lattice.dim), dtype=np.int64)
    keys[:, :-1] = lattice.prefix[row[piece]]
    keys[:, -1] = lo[piece] + rank
    return keys, piece


class _Pieces(NamedTuple):
    """Pieces ``lo..hi`` of lattice rows ``row``, in scan order, each with
    the highest cell floor met so far."""

    row: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    floor: np.ndarray


def _lattice_cells(lattice: Lattice, pieces: _Pieces, side: int, metric: Metric):
    """Cut ``pieces`` at multiples of ``side`` and group them into cells of
    ``side``^d keys.

    Returns the cut pieces, still in scan order, each cut piece's cell, and
    each cell's centre and radius: the centre of the bounding box of the
    cell's translations, and the metric length of half the box's diagonal.
    The box is read from the cell's extreme keys, whose translations are
    its corners, so every member lies within its cell's radius of the
    centre, however unevenly the lattice is spaced.
    """
    first = pieces.lo // side
    count = pieces.hi // side - first + 1
    _check_budget(f"lattice cells of side {side}", lattice.lo.size + pieces.row.size + int(count.sum()))
    src, rank = _runs(count)
    cell = first[src] + rank
    row = lattice.prefix[pieces.row[src]]
    cut = _Pieces(
        pieces.row[src],
        np.maximum(pieces.lo[src], cell * side),
        np.minimum(pieces.hi[src], cell * side + (side - 1)),
        pieces.floor[src],
    )
    order, new = _row_order(np.column_stack([row // side, cell]))
    which = np.empty(src.size, dtype=np.int64)
    which[order] = np.cumsum(new) - 1
    starts = np.flatnonzero(new)
    low = np.minimum.reduceat(np.column_stack([row, cut.lo])[order], starts, axis=0)
    high = np.maximum.reduceat(np.column_stack([row, cut.hi])[order], starts, axis=0)
    lo, hi = lattice.translations(low), lattice.translations(high)
    return cut, which, (lo + hi) / 2.0, metric.norms((hi - lo) / 2.0)


def _rounding(a: PointSet, ts: np.ndarray) -> float:
    """How far rounding can move a Chamfer value computed at ``ts``, beyond
    ``_PRUNE_SLACK`` times the value itself.

    The computed values round each query's coordinates, which stay below
    A's largest coordinate plus the largest of ``ts``, and each sum.
    ``_PRUNE_SLACK`` is millions of unit roundoffs, which covers the few
    roundings per term with room to spare.  Near 1e-162, l2's squares
    round to subnormals, so a distance can also move by the root of d
    smallest subnormals; each term's floor reads up to three distances,
    and four such roots per term cover them.
    """
    underflow = 4.0 * math.sqrt(a.dim * np.finfo(np.float64).smallest_subnormal)
    return len(a) * (_PRUNE_SLACK * float(np.abs(a.points).max() + np.abs(ts).max()) + underflow)


def _box_floor(a: PointSet, ts: np.ndarray, b: PointSet, metric: Metric, slack: float) -> np.ndarray:
    """Lowest computed Chamfer value that each translation in ``ts`` can have,
    from B's bounding box [lo, hi]; ``slack`` is twice ``_rounding``.

    Every point of B lies in the box, so d(a_k + t, B) is at least the
    distance from a_k + t to it, whose coordinates are the gaps g_ki between
    a_ki + t_i and [lo_i, hi_i].  Axis i's gaps sum over k to S_i(t), read
    for every translation at once off A's sorted coordinates and their
    prefix sums.  The l1 distance is the sum of the gaps, so its floor is
    the sum of the S_i.  The linf distance is at least each gap, so its
    floor is the largest S_i.  The l2 distance is at least each gap and at
    least their sum over sqrt(d), so its floor is the larger of the largest
    S_i and their sum over sqrt(d).
    """
    m, d = a.points.shape
    lo, hi = b.points.min(axis=0), b.points.max(axis=0)
    sums = np.empty((len(ts), d))  # S_i(t), one column per axis
    for i in range(d):
        x = np.sort(a.points[:, i])
        prefix = np.concatenate([[0.0], np.cumsum(x)])
        low, high = lo[i] - ts[:, i], hi[i] - ts[:, i]
        below = np.searchsorted(x, low)  # how many a_ki + t_i lie below lo_i
        above = np.searchsorted(x, high, side="right")  # the first above hi_i
        sums[:, i] = below * low - prefix[below] + (prefix[m] - prefix[above]) - (m - above) * high
    if metric.p == 1.0:
        box = sums.sum(axis=1)
    elif metric.p == 2.0:
        box = np.maximum(sums.max(axis=1), sums.sum(axis=1) / math.sqrt(d))
    else:
        box = sums.max(axis=1)
    return box - _PRUNE_SLACK * box - slack


class _Cells(NamedTuple):
    """B's bounding box [lo, hi] cut into cells, each with its distance to B."""

    lo: np.ndarray
    hi: np.ndarray
    scale: np.ndarray  # cells per unit along each axis, 0 along a flat one
    top: np.ndarray  # the last cell along each axis
    stride: np.ndarray  # cells per step along each axis, in C order
    value: np.ndarray  # each cell's distance to B (its square for l2)


def _cell_table(b: PointSet, metric: Metric, side: int) -> Optional[_Cells]:
    """B's bounding box cut into ``side`` cells along each axis that it spans.

    Axis i's cells are the intervals lo_i + [j, j + 1] (hi_i - lo_i) / side,
    each widened by 8 eps (|lo_i| + |hi_i|) on both sides.  The cell of a
    point p in the box is read as ``floor((p_i - lo_i) * scale_i)``, whose
    roundings, with those of the edges, can misplace p by about half that
    width, so the widened cell still holds p.  An axis too narrow for a
    finite ``scale_i``, a flat one among them, is one cell.  Each cell holds
    the distance from it to the nearest point of B: the gaps between the
    cells' intervals and the points' coordinates make one (cells, n) table
    per axis, which fold with the metric in tiles of ``_BRUTE_ENTRIES``.
    Returns None when the box's span overflows.
    """
    pts = b.points
    (n, d), l2 = pts.shape, metric.p == 2.0
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    with np.errstate(divide="ignore", over="ignore"):
        span = hi - lo
        scale = side / span
    if not np.all(np.isfinite(span)):
        return None
    cut = np.isfinite(scale)
    sides, scale = np.where(cut, side, 1), np.where(cut, scale, 0.0)
    pad = 8.0 * np.finfo(np.float64).eps * (np.abs(lo) + np.abs(hi))
    gaps = []  # per axis: (cells along it, n)
    for i in range(d):
        edges = lo[i] + np.arange(sides[i] + 1) * (span[i] / sides[i])
        x = pts[:, i]
        gap = np.maximum((edges[:-1, None] - pad[i]) - x, x - (edges[1:, None] + pad[i]))
        np.maximum(gap, 0.0, out=gap)
        gaps.append(gap * gap if l2 else gap)
    fold = np.maximum if metric.p == math.inf else np.add
    # axes 1.. fold once into (cells across them, n); axis 0 joins in tiles
    rest = gaps[-1]
    for gap in gaps[-2:0:-1]:
        rest = fold(gap[:, None, :], rest[None, :, :]).reshape(-1, n)
    value = np.empty((sides[0], len(rest)))
    step = max(1, _BRUTE_ENTRIES // rest.size)
    for start in range(0, sides[0], step):
        total = fold(gaps[0][start : start + step, None, :], rest[None, :, :])
        np.min(total, axis=2, out=value[start : start + step])
    stride = np.append(np.cumprod(sides[::-1])[-2::-1], 1)
    return _Cells(lo, hi, scale, sides - 1, stride, value.ravel())


def _cell_floors(a: PointSet, ts: np.ndarray, cells: _Cells, metric: Metric, cuts: np.ndarray) -> np.ndarray:
    """Lower bounds on the distances of ``a + t`` to B, per translation, each
    summed over the columns ``cuts[s]:`` for every stage s.

    Take q = a_k + t, rounded as a query is, its projection p onto B's box
    and its gap g = q - p.  Along every axis |q_i - b_i| = |g_i| + |p_i - b_i|
    for each b of B, which lies in the box, and |p_i - b_i| is at least the
    gap from p's cell to b.  So d(q, b) is at least the distance v from p's
    cell to B combined with g: sqrt(v^2 + |g|^2) for l2, v + |g|_1 for l1
    and max(v, |g|_inf) for linf.  Each term's roundings are relative, so the
    sums are off by a relative few eps at most.  The floors are built for
    ``_FLOOR_TILE`` terms at a time.
    """
    m, d = a.points.shape
    l2 = metric.p == 2.0
    fold = np.maximum if metric.p == math.inf else np.add
    cols = np.ascontiguousarray(a.points.T)
    # one product with this (m, stages) mask sums each stage's columns and those after it
    after = (np.arange(m)[:, None] >= cuts[None, :-1]).astype(np.float64)
    out = np.empty((len(ts), len(cuts) - 1))
    step = max(1, _FLOOR_TILE // m)
    for start in range(0, len(ts), step):
        tb = ts[start : start + step]
        flat = gap = None
        for i in range(d):
            q = tb[:, i, None] + cols[i]
            p = np.maximum(q, cells.lo[i])
            np.minimum(p, cells.hi[i], out=p)
            q -= p
            q = np.multiply(q, q, out=q) if l2 else np.abs(q, out=q)
            gap = q if gap is None else fold(gap, q, out=gap)
            p -= cells.lo[i]
            p *= cells.scale[i]
            j = p.astype(np.int64)
            np.minimum(j, cells.top[i], out=j)
            if cells.stride[i] != 1:
                j *= cells.stride[i]
            flat = j if flat is None else np.add(flat, j, out=flat)
        floor = fold(cells.value[flat], gap, out=gap)
        if l2:
            np.sqrt(floor, out=floor)
        np.matmul(floor, after, out=out[start : start + len(tb)])
    return out


def _cell_floor(values: np.ndarray, r: np.ndarray, m: int, rounding: float) -> np.ndarray:
    """Lowest computed Chamfer value a member of each cell can have.

    ``values`` are the cells' centre values and ``r`` their radii, ``m`` is
    |A|, and ``rounding`` is ``_rounding`` over the members.  Each of the m
    terms of CD(A + t, B) is 1-Lipschitz in t, so a member's exact value is
    at least ``value - m * r``.
    """
    return values - m * r - _PRUNE_SLACK * (values + m * r) - rounding


class LatticeArgmin(NamedTuple):
    """Winner of ``lattice_argmin``: its translation (None when nothing
    wins), exact value, query rows at lattice translations, and query rows
    at the cell centres that bounded them."""

    translation: Optional[np.ndarray]
    value: float
    rows: int
    bound_rows: int


def lattice_argmin(
    a: PointSet,
    lattice: Lattice,
    b: PointSet,
    metric: Metric = L2,
    index: Optional[NearestIndex] = None,
    upper: float = math.inf,
    holds_optimum: bool = False,
) -> LatticeArgmin:
    """``chamfer_argmin`` over the translations of a lattice, in its scan
    order, building only the cells of the lattice that can win.

    The lattice's rows are cut into cells of 16^d keys.  Each cell's
    bounding box comes from its extreme keys, read off the rows' intervals,
    and its centre is scored once with ``chamfer_many``.  CD(A + t, B) is
    m-Lipschitz, so a cell of radius r whose centre has value v holds no
    translation below its floor v - m*r (less a rounding slack).  Cells
    whose floor exceeds the bound are dropped, and the pieces of rows in
    the survivors are cut into cells of 4^d keys and bounded again.  The
    coarse level is skipped when the keys span fewer than
    ``_MIN_COARSE_CELLS`` of its cells.  Only the members of the surviving
    fine cells are built, each key once, where the scan first meets it.
    They go straight into the early-abandoning scan, ``chamfer_argmin``,
    with their floors as per-candidate lower bounds, so a translation
    leaves the scan as soon as its floor or its partial sum rules it out;
    the scan's first completed leader tightens the bound.  Centres only
    bound and never win: translation and value are bit-identical to
    ``chamfer_argmin(a, ts, b, metric, upper=upper)`` over every
    translation ``ts`` of the lattice in scan order, ties included.

    The bound starts at ``upper``.  With ``holds_optimum`` the lattice is
    known to hold a global minimiser of CD(A + t, B) over all t, so none of
    it can beat the lowest centre value, which, plus twice the rounding
    that the floors allow for, then tightens the bound by itself.  ``rows``
    counts the query rows at lattice translations and ``bound_rows`` those
    at the centres.  The lattice's rows, the pieces of the current level
    and what it cuts them into, or the members built, are held together to
    ``_LATTICE_BUDGET``.
    """
    _check_same_dim(a, b)
    if lattice.dim != a.dim:
        raise ValueError(f"lattice has dimension {lattice.dim}, expected {a.dim}")
    if lattice.lo.size == 0:
        return LatticeArgmin(None, math.inf, 0, 0)
    if index is None:
        index = build_index(b, metric)
    m = len(a)
    # the extreme keys along each axis, whose translations hold the extremes
    lo = np.append(lattice.prefix.min(axis=0), lattice.lo.min())
    hi = np.append(lattice.prefix.max(axis=0), lattice.hi.max())
    rounding = _rounding(a, lattice.translations(np.stack([lo, hi])))
    count = lattice.lo.size
    pieces = _Pieces(np.arange(count), lattice.lo, lattice.hi, np.full(count, -math.inf))
    bound, bound_rows = float(upper), 0
    for side in _CELL_SIDES:
        if side != _CELL_SIDES[-1] and math.prod((hi // side - lo // side + 1).tolist()) < _MIN_COARSE_CELLS:
            continue  # too few coarse cells to repay scoring them
        if pieces.row.size == 0:
            break
        pieces, which, centres, r = _lattice_cells(lattice, pieces, side, metric)
        values = chamfer_many(a, centres, b, metric, index)
        bound_rows += len(centres) * m
        if holds_optimum:
            # no translation beats the optimum, whose exact value is at most
            # any centre's; each computed value is off by at most its rounding
            low = float(values.min())
            bound = min(bound, low * (1.0 + 2.0 * _PRUNE_SLACK) + 2.0 * rounding)
        floor = np.maximum(pieces.floor, _cell_floor(values, r, m, rounding)[which])
        keep = floor <= bound
        pieces = _Pieces(pieces.row[keep], pieces.lo[keep], pieces.hi[keep], floor[keep])
    members = int((pieces.hi - pieces.lo + 1).sum())
    _check_budget("lattice members", lattice.lo.size + pieces.row.size + members)
    keys, piece = _keys(lattice, pieces.row, pieces.lo, pieces.hi)
    order, new = _row_order(keys)
    first = np.sort(order[new])  # each key where the scan first meets it
    ts = lattice.translations(keys[first])
    pos, value, rows = chamfer_argmin(a, ts, b, metric, index, upper=bound, floors=pieces.floor[piece[first]])
    return LatticeArgmin(ts[pos] if pos >= 0 else None, value, rows, bound_rows)


def bbox_diameter(ps: PointSet, metric: Metric = L2) -> float:
    """Diameter of the bounding box; an upper bound on the set diameter."""
    span = ps.points.max(axis=0) - ps.points.min(axis=0)
    return float(metric.norms(span))
