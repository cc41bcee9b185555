"""Array-building oracles for the lattices that ``core.lattice_argmin`` scans.

``net_phase`` and ``alignment_grid`` build every point of a local net or an
alignment grid as one array, with its lattice keys, in the order the scan
must meet them: plain nets ball by ball, each ball's box in key order, and
union nets and grids in key order.  The helpers below list a ``Lattice``'s
keys, build lattices of given keys, and cut a whole lattice into cells, so
that the tests can compare the two.
"""

import math

import numpy as np

from cdut import Metric
from cdut.core import Lattice, _keys, _lattice_cells, _Pieces

# rows of the shared offset box that net_phase masks at once, over its balls
_NET_ROWS = 1 << 18


def net_phase(dim: int, metric: Metric, candidates, radius: float, rho: float, union: bool):
    """Every net point and its lattice key, per ball or as a sorted union.

    Plain mode lists each ball's lattice points in ball order, each ball in
    the order of its own lattice box (last axis fastest); union mode lists
    the distinct keys, sorted.
    """
    d = dim
    step = rho / float(metric.norms(np.ones(d)))
    centres = np.asarray(candidates, dtype=np.float64).reshape(-1, d)
    lo = np.ceil((centres - radius) / step - 1e-12).astype(np.int64)
    hi = np.floor((centres + radius) / step + 1e-12).astype(np.int64)
    widths = np.maximum(hi - lo + 1, 0)
    if len(centres) == 0:
        return np.empty((0, d)), np.empty((0, d), dtype=np.int64)
    # one box of offsets wide enough for every ball, last axis fastest; the
    # offsets inside a ball's own box keep that box's order
    offsets = np.indices(widths.max(axis=0)).reshape(d, -1).T
    per = max(1, _NET_ROWS // max(1, len(offsets)))
    blocks = []
    for start in range(0, len(centres), per):
        stop = start + per
        idx = lo[start:stop, None, :] + offsets[None, :, :]
        keep = np.all(offsets[None, :, :] < widths[start:stop, None, :], axis=2)
        pts = idx.astype(np.float64) * step
        keep &= metric.norms(pts - centres[start:stop, None, :]) <= radius * (1.0 + 1e-9) + 1e-12
        blocks.append(idx[keep])
    idx = np.concatenate(blocks, axis=0)
    if union:
        idx = np.unique(idx, axis=0)
    return idx.astype(np.float64) * step, idx


def alignment_grid(points_a: np.ndarray, points_b: np.ndarray):
    """Every combination of per-dimension alignments, last dimension fastest,
    and its keys: each axis's rank among that axis's sorted alignments."""
    per_dim = [
        np.unique(points_b[:, axis][None, :] - points_a[:, axis][:, None]) for axis in range(points_a.shape[1])
    ]
    shape = tuple(vals.size for vals in per_dim)
    mesh = np.meshgrid(*per_dim, indexing="ij")
    keys = np.indices(shape).reshape(len(shape), -1).T
    return np.stack([m.ravel() for m in mesh], axis=1), keys


def row_keys(lattice: Lattice) -> np.ndarray:
    """Every key of the lattice's rows, row by row, repeats included."""
    return _keys(lattice, np.arange(lattice.lo.size), lattice.lo, lattice.hi)[0]


def first_positions(keys: np.ndarray) -> np.ndarray:
    """Each distinct key's first position, in position order: the order in
    which the scan meets a listing's keys."""
    if len(keys) == 0:
        return np.zeros(0, dtype=np.int64)
    return np.sort(np.unique(keys, axis=0, return_index=True)[1])


def scan_keys(lattice: Lattice) -> np.ndarray:
    """The lattice's keys in scan order, each once."""
    keys = row_keys(lattice)
    return keys[first_positions(keys)]


def listed(keys: np.ndarray, step=None, axes=None) -> Lattice:
    """A lattice of one single-key row per row of ``keys``, which the scan
    meets in the listing's order, each key at its first position."""
    keys = np.asarray(keys, dtype=np.int64)
    return Lattice(keys[:, :-1], keys[:, -1], keys[:, -1], step=step, axes=axes)


def lattice_cells(lattice: Lattice, side: int, metric: Metric):
    """One cell level over the whole lattice: every row key, its cell, and
    each cell's centre and radius."""
    rows = lattice.lo.size
    pieces = _Pieces(np.arange(rows), lattice.lo, lattice.hi, np.full(rows, -math.inf))
    cut, which, centres, r = _lattice_cells(lattice, pieces, side, metric)
    keys, piece = _keys(lattice, cut.row, cut.lo, cut.hi)
    return keys, which[piece], centres, r
