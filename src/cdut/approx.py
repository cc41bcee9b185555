"""Sampled candidate-translation approximation of CDuT.

Both variants sample anchor points from A and try every translation b - a
over the sampled anchors: some difference vector always lands close enough
to an optimal translation that its Chamfer cost is within a (2 + eps)
factor of the optimum.  Variant 1 reports the least exact Chamfer sum.
Variant 2 reports the least sum of multi-scale ANN distances, trading a
factor c for query speed; the exact sums bound those scores from below,
so only the candidates that can still win are scored on the ANN ladder.
"""

from __future__ import annotations

import math

import numpy as np

from .ann import build_ladder
from .core import (
    L2,
    ChamferReport,
    Metric,
    PointSet,
    _check_same_dim,
    _tile_rows,
    anchor_count,
    bbox_diameter,
    build_index,
    chamfer_argmin,
    chamfer_many,
    chamfer_translated,
    difference_candidates,
    sample_anchors,
)

__all__ = ["cdut_approx_v1", "cdut_approx_v2"]

# with delta = e^-3 the anchor count reproduces ceil(24/eps) at eps = 1/4
# and ceil(6/eps) in the constant-probability regime
DEFAULT_DELTA = math.exp(-3.0)


def _check_epsilon(epsilon: float) -> None:
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")


def cdut_approx_v1(
    a: PointSet,
    b: PointSet,
    epsilon: float,
    seed: int = 0,
    delta: float = DEFAULT_DELTA,
    metric: Metric = L2,
) -> ChamferReport:
    """(2 + eps)-approximation: best exact cost over sampled candidates.

    The output is an exact Chamfer value at a real translation, hence never
    below the optimum.
    """
    _check_epsilon(epsilon)
    _check_same_dim(a, b)
    anchors = sample_anchors(len(a), anchor_count(epsilon, delta), seed)
    candidates = difference_candidates(a, b, anchors)
    index = build_index(b, metric)
    best, _, rows = chamfer_argmin(a, candidates, b, metric, index)
    n = len(b)
    return chamfer_translated(
        a, candidates[best], b, metric, index, "approx-v1",
        epsilon=epsilon,
        seed=seed,
        evaluations=int(len(candidates)),
        extras={
            "anchors": int(anchors.size),
            "source_a": int(anchors[best // n]),
            "source_b": int(best % n),
            "engine_rows": rows,
            "engine_rows_full": len(candidates) * len(a),
        },
    )


def cdut_approx_v2(
    a: PointSet,
    b: PointSet,
    epsilon: float,
    c: float,
    seed: int = 0,
    delta: float = DEFAULT_DELTA,
    metric: Metric = L2,
) -> ChamferReport:
    """(2 + eps) * c approximation scoring candidates with the ANN ladder.

    One ladder is built over B.  The report is the candidate whose ladder
    sum, the sum of the ladder distances of its translated points, is
    least, the first such in candidate order.  Each summand is an exact
    distance to a real point of B, so no ladder sum underestimates the
    Chamfer cost at its translation.

    Only the candidates that can still win are scored on the ladder.  A
    ladder distance is the ``norms`` distance from the query row
    fl(t + a_i) to some point of B, so it is at least the exact index's
    distance for the same row.  The exact sum (``chamfer_many``) and the
    ladder sum add their m terms as one contiguous row in the same order,
    and rounding is monotone, so the exact sum is never above the ladder
    sum, bit for bit.  The exact sums are taken one anchor group at a
    time.  Candidates go to the ladder in increasing order of exact sum:
    the n least together, then only those whose exact sum is ``<=`` the
    best ladder sum so far.  A candidate that ties the least ladder sum
    has an exact sum ``<=`` it, so it is scored, and the report is the one
    that scoring every candidate gives.
    """
    _check_epsilon(epsilon)
    _check_same_dim(a, b)
    anchors = sample_anchors(len(a), anchor_count(epsilon, delta), seed)
    ladder = build_ladder(
        b,
        c,
        U=bbox_diameter(a, metric) + bbox_diameter(b, metric),
        seed=seed,
        metric=metric,
    )
    m, n = len(a), len(b)
    index = build_index(b, metric)
    # anchors are summed exactly in groups whose query rows make one tile
    # (or one anchor's rows)
    group = _tile_rows(n * m * a.dim)
    bounds = np.concatenate(
        [
            chamfer_many(a, difference_candidates(a, b, anchors[lo : lo + group]), b, metric, index)
            for lo in range(0, anchors.size, group)
        ]
    )
    order = np.argsort(bounds, kind="stable")
    # a ladder call holds at most one tile of query rows.  A small call
    # costs mostly per table it probes, so the first takes the n least
    # bounds rather than the least alone: the winner is rarely past them
    step = _tile_rows(m * a.dim)
    # (ladder sum, candidate row, assignment); ``bounds.size`` sorts after every row
    best = (math.inf, bounds.size, None)
    pos, size = 0, min(n, step)
    while pos < order.size and bounds[order[pos]] <= best[0]:
        rows = order[pos : pos + size]
        rows = rows[bounds[rows] <= best[0]]
        pos, size = pos + size, step
        translations = b.points[rows % n] - a.points[anchors[rows // n]]
        queries = (translations[:, None, :] + a.points[None, :, :]).reshape(-1, a.dim)
        dists, idx = ladder.query_batch(queries)
        sums = dists.reshape(len(rows), m).sum(axis=1)
        # the least sum, then the first candidate row at it
        k = int(np.lexsort((rows, sums))[0])
        if (sums[k], rows[k]) < best[:2]:
            best = (float(sums[k]), int(rows[k]), idx[k * m : (k + 1) * m].copy())
    value, row, assignment = best
    return ChamferReport(
        value=value,
        translation=b.points[row % n] - a.points[anchors[row // n]],
        assignment=assignment,
        algorithm="approx-v2",
        epsilon=epsilon,
        c=c,
        seed=seed,
        evaluations=int(anchors.size * n),
        extras={"anchors": int(anchors.size), "source_a": int(anchors[row // n]), "source_b": int(row % n)},
    )
