"""Every solver of the registry against exact values, on random and degenerate inputs.

The approximations evaluate an exact Chamfer sum (or, for ``approx-v2``, a
sum that never underestimates one) at a real translation, so none may go
below the exact optimum.  On degenerate inputs every solver either returns
a finite value or refuses the input with ``ValueError``, and the exact
solvers still match a brute-force oracle.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cdut import L1, L2, PointSet, SeparationError, build_index, chamfer_many, decide_cdut
from cdut.cli import SOLVERS, SolveOptions

# only rounding separates two exact evaluations of the optimum
REL = 1e-12

# the registry's solvers, with localnet in both net modes
NAMES = (*SOLVERS, "localnet-union")


def solve(name, a, b, metric, seed=0):
    union = name == "localnet-union"
    opts = SolveOptions(epsilon=0.5, c=2.0, delta=None, seed=seed, union_net=union)
    return SOLVERS["localnet" if union else name](a, b, metric, opts)


def alignment_oracle(a, b, metric) -> float:
    """min of CD(A + t, B) over every t whose coordinates each align a point
    of A with a point of B; under l1 this grid holds a global minimiser."""
    axes = [np.unique(b.points[:, k][None, :] - a.points[:, k][:, None]) for k in range(a.dim)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, a.dim)
    return float(chamfer_many(a, grid, b, metric, index=build_index(b, metric, "brute")).min())


@st.composite
def pairs(draw):
    """Small random sets at d = 1 or 2; on an integer grid sums tie often."""
    d = draw(st.sampled_from([1, 2]))
    m, n = draw(st.integers(1, 10)), draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return PointSet(rng.integers(-3, 4, (m, d))), PointSet(rng.integers(-3, 4, (n, d)))
    return PointSet(rng.uniform(-10, 10, (m, d))), PointSet(rng.uniform(-10, 10, (n, d)))


# the exact solver at each dimension, and the solvers bounded below by it
EXACT = {1: "exact1d", 2: "exact-l1linf"}
ABOVE = {
    1: ("approx-v1", "approx-v2", "localnet", "localnet-union", "oracle-1d"),
    2: ("approx-v1", "localnet", "localnet-union", "oracle-grid"),
}


@settings(max_examples=80, deadline=None)
@given(pair=pairs(), seed=st.integers(0, 1000))
# m = 1: every match is an exact zero, but the lowest swept value falls on a
# match whose computed value is 8.9e-16
@example(
    pair=(
        PointSet([[2.3772875278053203]]),
        PointSet(
            [[3.7512110087328523], [-1.6849443193514873], [-5.1454192974765185],
             [-6.839159410085063], [0.8222168740237272], [-7.962139462418798]]
        ),
    ),
    seed=0,
)
def test_approximations_never_go_below_the_exact_value(pair, seed):
    # every lp metric agrees at d = 1; at d = 2 the exact solver needs l1
    a, b = pair
    exact = solve(EXACT[a.dim], a, b, L1).value
    for name in ABOVE[a.dim]:
        assert solve(name, a, b, L1, seed).value >= exact * (1.0 - REL), name


def _degenerate():
    rng = np.random.default_rng(7)
    for d in (1, 2):

        def pts(k):
            return rng.uniform(-5.0, 5.0, (k, d))

        yield f"m=1 d={d}", pts(1), pts(6)
        yield f"n=1 d={d}", pts(6), pts(1)
        yield f"m=n=1 d={d}", pts(1), pts(1)
        yield f"duplicate A d={d}", np.repeat(pts(1), 6, axis=0), pts(5)
        yield f"duplicate B d={d}", pts(6), np.repeat(pts(1), 5, axis=0)
        yield f"all one point d={d}", np.repeat(pts(1), 4, axis=0), np.repeat(pts(1), 3, axis=0)
    line = np.array([1.0, 2.0])
    yield "collinear d=2", rng.uniform(-5, 5, (6, 1)) * line, rng.uniform(-5, 5, (5, 1)) * line + 3.0
    yield "collinear on a grid d=2", np.arange(6.0)[:, None] * line, np.arange(0.0, 10.0, 2.0)[:, None] * line


DEGENERATE = list(_degenerate())


@pytest.mark.parametrize("metric", [L1, L2], ids=["l1", "l2"])
@pytest.mark.parametrize("pa,pb", [c[1:] for c in DEGENERATE], ids=[c[0] for c in DEGENERATE])
def test_degenerate_inputs(pa, pb, metric):
    a, b = PointSet(pa), PointSet(pb)
    values = {}
    for name in NAMES:
        # only a solver outside its stated domain may refuse the input
        refuses = name in ("exact1d", "oracle-1d") and a.dim != 1
        refuses |= name == "exact-l1linf" and metric is L2
        if refuses:
            with pytest.raises(ValueError):
                solve(name, a, b, metric)
            continue
        values[name] = solve(name, a, b, metric).value
        assert math.isfinite(values[name]) and values[name] >= 0.0, name
    if a.dim == 1:
        assert values["exact1d"] == pytest.approx(values["oracle-1d"], rel=REL, abs=1e-12)
    if metric is L1:
        assert values["exact-l1linf"] == pytest.approx(alignment_oracle(a, b, L1), rel=REL, abs=1e-12)
    # a radius this small keeps distinct points of B separated
    if len(np.unique(b.points, axis=0)) < len(b):
        with pytest.raises(SeparationError):
            decide_cdut(a, b, 1e-3, 0.25, 2.0, metric=metric)
    else:
        result = decide_cdut(a, b, 1e-3, 0.25, 2.0, metric=metric)
        assert result.answer in ("YES", "NO")
        assert math.isfinite(result.evidence.value)
