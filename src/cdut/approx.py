"""Sampled candidate-translation approximation of CDuT.

Both variants sample anchor points from A and try every translation b - a
over the sampled anchors: some difference vector always lands close enough
to an optimal translation that its Chamfer cost is within a (2 + eps)
factor of the optimum.  Variant 1 scores each candidate by its exact
Chamfer sum; variant 2 scores it by summing multi-scale ANN distances,
trading a factor c for query speed and never underestimating.
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
    chamfer_many,  # noqa: F401  still importable here; perfbench's tracer patches it per module
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

    One ladder is built over B; every anchor translation is scored by the
    sum of ladder distances of the translated points.  Each summand is an
    exact distance to a real point of B, so no score underestimates the
    Chamfer cost at its translation.
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
    # anchors are scored in groups whose query rows make one tile (or one
    # anchor's rows); a strict < keeps the first minimum across groups, and
    # the winner is copied out of its group's arrays
    group = _tile_rows(n * m * a.dim)
    best = None  # (sum, candidate row, translation, assignment)
    for lo in range(0, anchors.size, group):
        candidates = difference_candidates(a, b, anchors[lo : lo + group])
        queries = (candidates[:, None, :] + a.points[None, :, :]).reshape(-1, a.dim)
        dists, idx = ladder.query_batch(queries)
        sums = dists.reshape(len(candidates), m).sum(axis=1)
        row = int(np.argmin(sums))
        if best is None or sums[row] < best[0]:
            best = (float(sums[row]), lo * n + row, candidates[row].copy(), idx[row * m : (row + 1) * m].copy())
    value, row, translation, assignment = best
    return ChamferReport(
        value=value,
        translation=translation,
        assignment=assignment,
        algorithm="approx-v2",
        epsilon=epsilon,
        c=c,
        seed=seed,
        evaluations=int(anchors.size * n),
        extras={"anchors": int(anchors.size), "source_a": int(anchors[row // n]), "source_b": int(row % n)},
    )
