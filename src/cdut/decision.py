"""Separation-gated decision procedure: is CDuT(A, B) <= R?

When every pair of points in B is at least (c+1)(1 + 2/m) R apart, any
translation close enough to an optimal one induces the same nearest
neighbors as the optimum, and each winner beats the runner-up by a factor
c.  Under that assumption the per-point difference vectors at a good
candidate translation all point at the optimal translation, so their
geometric median recovers it: the procedure samples a few anchors, forms
the difference vectors of the exact nearest-neighbor assignment at every
candidate b - a, and answers YES exactly when some median's total
distance stays below R(1 + eps).

The total distance of any difference set, under any assignment, can never
fall below the Chamfer cost at the probed point, so every YES comes with a
witness of cost at most R(1 + eps) and a NO instance is answered NO
unconditionally.  Exact nearest neighbors and the separation assumption
are what make a YES instance answer YES.  The assumption is checked, not
trusted: calls on non-separated inputs are refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ann import build_ladder  # noqa: F401  still importable here; perfbench's tracer patches it per module
from .core import (
    L2,
    ChamferReport,
    Metric,
    PointSet,
    _PRUNE_SLACK,
    _check_same_dim,
    _cross_norms,
    _held_tables,
    _tile_rows,
    build_index,
    difference_candidates,
    sample_anchors,
)

__all__ = [
    "SeparationCertificate",
    "SeparationError",
    "MedianResult",
    "DecisionResult",
    "check_separation",
    "geometric_median",
    "total_distance",
    "decide_cdut",
]

# anchor draws from A; each gives n candidate translations
_ANCHORS = 6


class SeparationError(ValueError):
    """B is not separated enough for the decision guarantee to hold."""

    def __init__(self, certificate: "SeparationCertificate"):
        self.certificate = certificate
        super().__init__(
            f"separation violated: min pairwise distance {certificate.min_pairwise_b:.6g} "
            f"< required {certificate.threshold:.6g}"
        )


@dataclass(frozen=True)
class SeparationCertificate:
    c: float
    radius: float
    min_pairwise_b: float
    threshold: float
    holds: bool


@dataclass(frozen=True)
class MedianResult:
    point: np.ndarray
    iterations: int
    converged: bool


@dataclass(frozen=True)
class DecisionResult:
    answer: str  # "YES" or "NO"
    certificate: SeparationCertificate
    evidence: ChamferReport
    translations_tested: int
    median_iterations: int = 0  # summed over the medians computed
    medians_nonconverged: int = 0

    @property
    def yes(self) -> bool:
        return self.answer == "YES"


def _min_pairwise(points: np.ndarray, metric: Metric) -> float:
    """Smallest distance between two rows of ``points``; inf below two rows.

    The rows of a block are measured against every row from the block's
    first on, skipping only each row against itself, so duplicate rows
    give 0.  Rounding is symmetric, ``x - y`` is exactly ``-(y - x)``, so a
    pair's distance does not depend on which of its rows comes first.  Each
    block's distance tables hold at most ``_TILE_ENTRIES`` entries together.
    """
    n, d = points.shape
    step = _tile_rows(n * _held_tables(d))
    best = math.inf
    for lo in range(0, n - 1, step):
        dist = _cross_norms(metric, points[lo : lo + step], points[lo:])
        np.fill_diagonal(dist, math.inf)
        best = min(best, float(dist.min()))
    return best


def check_separation(
    b: PointSet, c: float, radius: float, m: int, metric: Metric = L2
) -> SeparationCertificate:
    """Exact all-pairs check of the separation assumption on B."""
    if not c > 1.0:
        raise ValueError("separation factor c must exceed 1")
    if not radius > 0.0:
        raise ValueError("decision radius must be positive")
    if m < 1:
        raise ValueError("m must be a positive point count")
    threshold = (c + 1.0) * (1.0 + 2.0 / m) * radius
    min_pairwise = _min_pairwise(b.points, metric)
    return SeparationCertificate(
        c=c,
        radius=radius,
        min_pairwise_b=min_pairwise,
        threshold=threshold,
        holds=min_pairwise >= threshold,
    )


def geometric_median(points, additive_accuracy: float) -> MedianResult:
    """Iteratively reweighted least squares for the geometric median.

    Starts at the coordinate-wise mean and stops once the iterate moves less
    than additive_accuracy / 2, or after 10 k d + 1000 iterations for k
    points in d dimensions.  If the iterate lands exactly on an input point,
    the subgradient condition decides whether that point is optimal;
    otherwise the step deflects off the singularity and continues.
    """
    p = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if p.shape[0] == 0:
        raise ValueError("point list must be nonempty")
    if not additive_accuracy > 0.0:
        raise ValueError("additive accuracy must be positive")
    k, d = p.shape
    cap = 10 * k * d + 1000
    x = p.mean(axis=0)
    converged = False
    it = 0
    for it in range(1, cap + 1):
        dist = np.sqrt(np.sum((p - x) ** 2, axis=-1))
        on_point = dist == 0.0
        hits = int(on_point.sum())
        if hits == k:
            converged = True
            break
        away = p[~on_point]
        d_away = dist[~on_point]
        # weights scaled by the smallest distance so reciprocals cannot
        # overflow when an iterate creeps within a few ulps of a point
        scaled = d_away.min() / d_away
        pull = (away * scaled[:, None]).sum(axis=0) / scaled.sum()
        if hits:
            # at a data point: optimal iff the pull from the remaining
            # points is no stronger than the point's own multiplicity
            residual = ((away - x) / d_away[:, None]).sum(axis=0)
            r = float(np.sqrt(np.sum(residual**2)))
            if r <= hits:
                converged = True
                break
            beta = hits / r
            new_x = (1.0 - beta) * pull + beta * x
        else:
            new_x = pull
        step = float(np.sqrt(np.sum((new_x - x) ** 2)))
        x = new_x
        if step < additive_accuracy / 2.0:
            converged = True
            break
    return MedianResult(point=x, iterations=it, converged=converged)


def total_distance(deltas: np.ndarray, point: np.ndarray, metric: Metric = L2) -> float:
    """Sum of metric distances from the difference vectors to ``point``."""
    return float(np.sum(metric.norms(np.asarray(deltas) - np.asarray(point))))


def _total_floors(deltas: np.ndarray, metric: Metric = L2) -> np.ndarray:
    """Lower bounds on the total distance from each (k, d) set in ``deltas`` to any point.

    Pairs vector i with vector i + k // 2.  For any point x the triangle
    inequality gives |d_i - x| + |d_j - x| >= |d_i - d_j|, so the pair
    distances sum to at most the total distance to x, in any metric.
    """
    half = deltas.shape[-2] // 2
    return np.sum(metric.norms(deltas[..., :half, :] - deltas[..., half : 2 * half, :]), axis=-1)


def decide_cdut(
    a: PointSet,
    b: PointSet,
    radius: float,
    epsilon: float,
    c: float,
    seed: int = 0,
    metric: Metric = L2,
) -> DecisionResult:
    """YES if CDuT(A,B) <= R, NO if it exceeds R(1 + eps); either in between.

    Requires the separation assumption on B and refuses to run without it.
    A candidate whose difference vectors are too spread out to beat the best
    total so far skips its median, so answer, evidence and
    translations_tested are those of scoring every candidate in turn.  The
    candidates are those of ``_ANCHORS`` draws from A, a repeated draw kept
    once, so translations_tested counts distinct candidates.
    """
    _check_same_dim(a, b)
    if not epsilon > 0.0:
        raise ValueError("epsilon must be positive")
    m = len(a)
    certificate = check_separation(b, c, radius, m, metric)
    if not certificate.holds:
        raise SeparationError(certificate)

    translations = difference_candidates(a, b, sample_anchors(m, _ANCHORS, seed))
    index = build_index(b, metric)

    n = len(b)
    accuracy = epsilon * radius / m
    bound = radius * (1.0 + epsilon)
    best_s = math.inf
    best_evidence = None
    iterations = nonconverged = 0
    for u in range(len(translations) // n):
        # one anchor's n*m query rows at a time, so a YES stops querying at its answer
        cands = translations[u * n : (u + 1) * n]
        _, nn_idx = index.query_many((cands[:, None, :] + a.points[None, :, :]).reshape(-1, a.dim))
        nn_idx = nn_idx.reshape(n, m)
        deltas = b.points[nn_idx] - a.points
        # relative slack far above the rounding of a floor or a total
        floors = _total_floors(deltas, metric) * (1.0 - _PRUNE_SLACK)
        for i in range(n):
            # best_s > bound until the answer is YES, so a row whose floor
            # reaches best_s can neither answer YES nor beat the evidence
            if floors[i] >= best_s:
                continue
            row = u * n + i
            median = geometric_median(deltas[i], accuracy)
            iterations += median.iterations
            nonconverged += not median.converged
            s = total_distance(deltas[i], median.point, metric)
            if s < best_s:
                best_s = s
                best_evidence = ChamferReport(
                    value=s,
                    translation=median.point,
                    assignment=nn_idx[i],
                    algorithm="decide",
                    epsilon=epsilon,
                    c=c,
                    seed=seed,
                    extras={"candidate": translations[row].tolist(), "median_converged": median.converged},
                )
            if s <= bound:
                return DecisionResult("YES", certificate, best_evidence, row + 1, iterations, nonconverged)
    return DecisionResult(
        "NO", certificate, best_evidence, len(translations), iterations, nonconverged
    )
