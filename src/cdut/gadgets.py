"""Adversarial instance constructors encoding orthogonal-vectors questions.

A bit vector maps to a small set of integer points on a line such that two
gadgets admit a zero-cost alignment exactly when the vectors are
orthogonal; any shared 1-bit forces cost at least 1 under every
translation.  ``combine_gadgets`` strings several instances along the
first axis with gaps wide enough that an optimal translation must match
blocks pairwise, turning a sum of subproblems into one instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import L2, PointSet

__all__ = ["GadgetInstance", "gadget_a", "gadget_b", "gadget_width", "ov_pair", "combine_gadgets"]


def _check_bits(bits: Sequence[int]) -> list[int]:
    out = [int(v) for v in bits]
    if any(v not in (0, 1) for v in out):
        raise ValueError("bit vectors must contain only 0 and 1")
    if not out:
        raise ValueError("bit vector must be nonempty")
    return out


def gadget_width(d: int) -> int:
    return 4 * d + 1


@dataclass(frozen=True)
class GadgetInstance:
    points_a: PointSet
    points_b: PointSet
    width: int
    x: tuple[int, ...]
    y: tuple[int, ...]


def gadget_a(x: Sequence[int]) -> PointSet:
    """First-side gadget: 2d + 2 points in [0, 4d + 1].

    Index i contributes {4i-2, 4i-1} for a 0 bit and {4i-3, 4i} for a 1
    bit; either way the pair has the same center of mass, so the far-field
    cost is independent of the bits.
    """
    bits = _check_bits(x)
    pts = [0.0, float(gadget_width(len(bits)))]
    for i, bit in enumerate(bits, start=1):
        if bit == 0:
            pts += [4.0 * i - 2.0, 4.0 * i - 1.0]
        else:
            pts += [4.0 * i - 3.0, 4.0 * i]
    return PointSet(np.sort(np.asarray(pts))[:, None])


def gadget_b(y: Sequence[int]) -> PointSet:
    """Second-side gadget: a 0 bit keeps all four slots, a 1 bit the middle two."""
    bits = _check_bits(y)
    pts = [0.0, float(gadget_width(len(bits)))]
    for i, bit in enumerate(bits, start=1):
        if bit == 0:
            pts += [4.0 * i - 3.0, 4.0 * i - 2.0, 4.0 * i - 1.0, 4.0 * i]
        else:
            pts += [4.0 * i - 2.0, 4.0 * i - 1.0]
    return PointSet(np.sort(np.asarray(pts))[:, None])


def ov_pair(x: Sequence[int], y: Sequence[int]) -> GadgetInstance:
    bx, by = _check_bits(x), _check_bits(y)
    if len(bx) != len(by):
        raise ValueError("vectors must share a dimension")
    return GadgetInstance(
        points_a=gadget_a(bx),
        points_b=gadget_b(by),
        width=gadget_width(len(bx)),
        x=tuple(bx),
        y=tuple(by),
    )


def combine_gadgets(pairs: Sequence[tuple[PointSet, PointSet]]) -> tuple[PointSet, PointSet]:
    """Concatenate instances along axis 0 with block gaps of 10 n L2-diameter.

    The gaps dwarf any within-block cost, so the combined optimum equals
    the best single translation applied to every pair simultaneously.
    """
    if not pairs:
        raise ValueError("need at least one gadget pair")
    dims = {ps.dim for pair in pairs for ps in pair}
    if len(dims) != 1:
        raise ValueError("all gadget sets must share a dimension")
    dim = dims.pop()
    everything = np.concatenate([ps.points for pair in pairs for ps in pair], axis=0)
    span = everything.max(axis=0) - everything.min(axis=0)
    diameter = float(L2.norms(span))
    total = sum(len(ps) for pair in pairs for ps in pair)
    gap = 10.0 * total * diameter
    rows_a, rows_b = [], []
    for i, (pa, pb) in enumerate(pairs, start=1):
        offset = np.zeros(dim)
        offset[0] = gap * i
        rows_a.append(pa.points + offset)
        rows_b.append(pb.points + offset)
    return PointSet(np.concatenate(rows_a)), PointSet(np.concatenate(rows_b))
