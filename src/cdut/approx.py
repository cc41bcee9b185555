"""Sampled candidate-translation approximation of CDuT.

Both variants sample anchor points from A and try every translation b - a
over the sampled anchors: some difference vector always lands close enough
to an optimal translation that its Chamfer cost is within a (2 + eps)
factor of the optimum.  Variant 1 scores each candidate with a pluggable
fixed-translation estimator (exact evaluation by default); variant 2 scores
it by summing multi-scale ANN distances, trading a factor c for query speed
and never underestimating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .ann import build_ladder
from .core import (
    L2,
    ChamferReport,
    Metric,
    PointSet,
    bbox_diameter,
    chamfer_argmin,
    chamfer_many,  # noqa: F401  still importable here; perfbench's tracer patches it per module
    chamfer_translated,
)

__all__ = [
    "CandidateTranslation",
    "EstimatorConfig",
    "EstimatorError",
    "sample_anchors",
    "median_boosted",
    "cdut_approx",
    "cdut_approx_v1",
    "cdut_approx_v2",
]

# with delta = e^-3 the anchor count reproduces ceil(24/eps) at eps = 1/4
# and ceil(6/eps) in the constant-probability regime
DEFAULT_DELTA = math.exp(-3.0)

Estimator = Callable[[PointSet, np.ndarray, PointSet, Metric], float]


class EstimatorError(RuntimeError):
    """A fixed-translation estimator failed on some candidate."""


@dataclass(frozen=True)
class CandidateTranslation:
    """A candidate translation and where it came from."""

    t: np.ndarray
    source_a: int
    source_b: int
    provenance: str = "difference"


@dataclass(frozen=True)
class EstimatorConfig:
    """Which scoring route to use and its knobs."""

    kind: str = "exact"
    epsilon: float = 0.5
    c: float = 2.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("exact", "ann"):
            raise ValueError(f"unknown estimator kind {self.kind!r}")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        if self.kind == "ann" and not self.c > 1.0:
            raise ValueError("ann estimator requires c > 1")


def sample_anchors(a: PointSet, epsilon: float, delta: float, seed: int = 0) -> np.ndarray:
    """ceil((2/eps) ln(1/delta)) anchor indices, uniform with replacement."""
    if not 0.0 < epsilon <= 1.0:
        raise ValueError("epsilon must lie in (0, 1]")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    k = math.ceil((2.0 / epsilon) * math.log(1.0 / delta))
    rng = np.random.default_rng(seed)
    return rng.integers(0, len(a), size=k)


def median_boosted(estimator: Estimator, runs: int, epsilon: float) -> Estimator:
    """Median-of-runs wrapper lifting a stochastic estimator off the low side.

    The median of ``runs`` calls is scaled by 1/(1 - eps/16), so an estimator
    that is within a (1 +- eps/16) factor per run stops underestimating.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    scale = 1.0 / (1.0 - epsilon / 16.0)

    def boosted(a: PointSet, t: np.ndarray, b: PointSet, metric: Metric) -> float:
        return float(np.median([estimator(a, t, b, metric) for _ in range(runs)])) * scale

    return boosted


def _difference_candidates(a: PointSet, b: PointSet, anchors: np.ndarray) -> np.ndarray:
    # ordered by (anchor position, index in B); ties in value resolve to the
    # lexicographically first pair because argmin keeps the first minimum
    return (b.points[None, :, :] - a.points[anchors][:, None, :]).reshape(-1, a.dim)


def _winning_candidate(
    candidates: np.ndarray, anchors: np.ndarray, n: int, best: int
) -> CandidateTranslation:
    return CandidateTranslation(
        t=candidates[best], source_a=int(anchors[best // n]), source_b=int(best % n)
    )


def cdut_approx_v1(
    a: PointSet,
    b: PointSet,
    epsilon: float,
    estimator: Optional[Estimator] = None,
    seed: int = 0,
    delta: float = DEFAULT_DELTA,
    metric: Metric = L2,
) -> ChamferReport:
    """(2 + eps)-approximation: best estimated cost over sampled candidates.

    With the default exact estimator the output is an exact Chamfer value at
    a real translation, hence never below the optimum.
    """
    anchors = sample_anchors(a, epsilon, delta, seed)
    candidates = _difference_candidates(a, b, anchors)
    engine = {}
    if estimator is None:
        best, _, rows = chamfer_argmin(a, candidates, b, metric)
        engine = {"engine_rows": rows, "engine_rows_full": len(candidates) * len(a)}
    else:
        scores = []
        for t in candidates:
            try:
                scores.append(float(estimator(a, t, b, metric)))
            except Exception as exc:
                raise EstimatorError(f"estimator failed at translation {t}") from exc
        best = int(np.argmin(scores))
    report = chamfer_translated(a, candidates[best], b, metric)
    winner = _winning_candidate(candidates, anchors, len(b), best)
    return ChamferReport(
        value=scores[best] if estimator is not None else report.value,
        translation=report.translation,
        assignment=report.assignment,
        algorithm="approx-v1",
        epsilon=epsilon,
        seed=seed,
        evaluations=int(len(candidates)),
        extras={"anchors": int(anchors.size), "source_a": winner.source_a, "source_b": winner.source_b}
        | engine,
    )


def cdut_approx_v2(
    a: PointSet,
    b: PointSet,
    epsilon: float,
    c: float,
    seed: int = 0,
    delta: float = DEFAULT_DELTA,
    metric: Metric = L2,
    miss_prob: float = 0.1,
) -> ChamferReport:
    """(2 + eps) * c approximation scoring candidates with the ANN ladder.

    One ladder is built over B; every anchor translation is scored by the
    sum of ladder distances of the translated points.  Each summand is an
    exact distance to a real point of B, so no score underestimates the
    Chamfer cost at its translation.
    """
    if not c > 1.0:
        raise ValueError("approximation factor c must exceed 1")
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    anchors = sample_anchors(a, epsilon, delta, seed)
    candidates = _difference_candidates(a, b, anchors)
    ladder = build_ladder(
        b,
        c,
        U=bbox_diameter(a, metric) + bbox_diameter(b, metric),
        seed=seed,
        metric=metric,
        miss_prob=miss_prob,
    )
    m = len(a)
    queries = (candidates[:, None, :] + a.points[None, :, :]).reshape(-1, a.dim)
    dists, idx = ladder.query_batch(queries)
    sums = dists.reshape(len(candidates), m).sum(axis=1)
    best = int(np.argmin(sums))
    winner = _winning_candidate(candidates, anchors, len(b), best)
    return ChamferReport(
        value=float(sums[best]),
        translation=candidates[best],
        assignment=idx.reshape(len(candidates), m)[best],
        algorithm="approx-v2",
        epsilon=epsilon,
        c=c,
        seed=seed,
        evaluations=int(len(candidates)),
        extras={"anchors": int(anchors.size), "source_a": winner.source_a, "source_b": winner.source_b},
    )


def cdut_approx(
    a: PointSet,
    b: PointSet,
    config: EstimatorConfig,
    delta: float = DEFAULT_DELTA,
    metric: Metric = L2,
) -> ChamferReport:
    """Dispatch on the configured scoring route."""
    if config.kind == "exact":
        return cdut_approx_v1(a, b, config.epsilon, seed=config.seed, delta=delta, metric=metric)
    return cdut_approx_v2(
        a, b, config.epsilon, config.c, seed=config.seed, delta=delta, metric=metric
    )
