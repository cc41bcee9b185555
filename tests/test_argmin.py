"""chamfer_argmin against the full scan of chamfer_many, and the callers built on it.

Every check is bit-exact: the early-abandoning search must pick the same
first-index minimum as ``argmin(chamfer_many(...))`` and report the very
same float.
"""

import math
import os
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import cdut.approx
import cdut.core
import cdut.localnet
import cdut.parallel
import cdut.sweep1d
from cdut import L1, L2, LINF, LocalNetConfig, PointSet, build_index, chamfer_many
from cdut.approx import cdut_approx_v1
from cdut.core import ArgminResult, Lattice, LatticeArgmin, chamfer_argmin, lattice_argmin
from cdut.instances import noisy_copy_instance, uniform_instance
from cdut.localnet import cdut_localnet
from cdut.sweep1d import _alignment_lattice, cdut_exact_l1_linf
from lattice_oracles import alignment_grid, first_positions, lattice_cells, row_keys, scan_keys

METRICS = {"l1": L1, "l2": L2, "linf": LINF}


def bits(x) -> bytes:
    return np.float64(x).tobytes()


def instance(seed: int, m: int, n: int, d: int, grid: bool):
    """Random sets; on an integer grid, distances and sums tie often."""
    rng = np.random.default_rng(seed)
    if grid:
        return PointSet(rng.integers(0, 4, (m, d))), PointSet(rng.integers(0, 4, (n, d)))
    return PointSet(rng.uniform(-10, 10, (m, d))), PointSet(rng.uniform(-10, 10, (n, d)))


def translations(seed: int, a: PointSet, b: PointSet, count: int) -> np.ndarray:
    """Difference vectors b - a plus random shifts, near and far, with some
    rows repeated.  A far shift moves A by 30 along some axes, which puts
    most of A outside B's bounding box, so that the box floor prunes."""
    rng = np.random.default_rng(seed + 1)
    diffs = (b.points[None, :, :] - a.points[:, None, :]).reshape(-1, a.dim)
    near = rng.uniform(-3, 3, (count, a.dim))
    far = near + rng.choice([-30.0, 0.0, 30.0], (count, a.dim))
    ts = np.concatenate([diffs[rng.integers(0, len(diffs), count)], near, far])
    return ts[rng.integers(0, len(ts), 2 * count)]


def threads(value):
    """Run with CDUT_THREADS set to ``value``, or unset for None."""
    env = {k: v for k, v in os.environ.items() if k != "CDUT_THREADS"}
    if value is not None:
        env["CDUT_THREADS"] = value
    return mock.patch.dict(os.environ, env, clear=True)


def full_scan(a, ts, b, metric, index=None):
    values = chamfer_many(a, ts, b, metric, index=index)
    pos = int(np.argmin(values))
    return pos, values[pos]


def shaped(seed: int, m: int, n: int, d: int, shape: str):
    """``instance`` sets, or ones whose A makes the column floor's gaps degenerate.

    "repeated" A has many equal points (gap 0), "clustered" A sits in two
    tight clumps, and "offset" moves both sets by 1e9, so that the queries
    round at that scale, which the floor's rounding slack must cover.
    """
    a, b = instance(seed, m, n, d, shape == "grid")
    rng = np.random.default_rng(seed + 2)
    pa = a.points.copy()
    if shape == "repeated":
        pa = pa[rng.integers(0, max(1, m // 4), m)]
    elif shape == "clustered":
        pa = rng.choice([-5.0, 5.0], (m, 1)) + rng.normal(0.0, 1e-3, (m, d))
    elif shape == "offset":
        return PointSet(pa + 1e9), PointSet(b.points + 1e9)
    return PointSet(pa), b


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    m=st.integers(1, 40),
    n=st.integers(1, 40),
    d=st.integers(1, 3),
    count=st.integers(1, 60),
    metric=st.sampled_from(sorted(METRICS)),
    backend=st.sampled_from(["brute", "kdtree", "sorted"]),
    shape=st.sampled_from(["uniform", "grid", "repeated", "clustered", "offset"]),
    stages=st.sampled_from([1, 2, 8, 64]),
)
def test_matches_full_scan(seed, m, n, d, count, metric, backend, shape, stages):
    assume(backend != "sorted" or d == 1)
    a, b = shaped(seed, m, n, d, shape)
    ts = translations(seed, a, b, count)
    index = build_index(b, METRICS[metric], backend)
    values = chamfer_many(a, ts, b, METRICS[metric], index=index)
    pos = int(np.argmin(values))
    value = values[pos]
    # floors at or below each computed value, some of them exact
    floors = values - np.random.default_rng(seed).choice([0.0, 1.0, 1e9], len(values))
    for workers in (None, "2"):
        # no row floors, so that these small scans run in stages, the stages
        # go to the pool, and the column floor runs before every stage but
        # the first
        with threads(workers), mock.patch.multiple(
            cdut.core, _ARGMIN_STAGES=stages, _POOL_ROWS=0, _STAGED_ROWS=0
        ):
            for upper in (math.inf, value):
                for given_floors in (None, floors):
                    got = chamfer_argmin(a, ts, b, METRICS[metric], index=index, upper=upper, floors=given_floors)
                    assert got.pos == pos
                    assert bits(got.value) == bits(value)
                    assert 0 < got.rows <= len(ts) * m


def test_column_floor_keeps_a_tie_it_bounds_exactly(monkeypatch):
    # one column per stage; at t = 0 each later term |a_k| equals its floor
    # |a_l| - |a_l - a_k| exactly, so the first position's floor is its value
    # 36, which the later position sets as the bound after its first stage
    a, b = PointSet(np.arange(8.0, 0.0, -1.0)), PointSet([[0.0]])
    ts = np.array([[0.0], [-9.0]])
    assert chamfer_many(a, ts, b).tolist() == [36.0, 36.0]
    monkeypatch.setattr(cdut.core, "_POOL_ROWS", 0)
    monkeypatch.setattr(cdut.core, "_STAGED_ROWS", 0)
    for backend in ("brute", "sorted"):
        got = chamfer_argmin(a, ts, b, index=build_index(b, L2, backend))
        assert (got.pos, got.value) == (0, 36.0)


def test_column_floor_drops_candidates_the_partial_sums_keep(monkeypatch):
    # partial sums alone drop too few here: they query 41% of the rows; the
    # box floors are taken away, so that the column floor prunes alone
    monkeypatch.setattr(cdut.core, "_box_floor", lambda a, ts, *rest: np.full(len(ts), -math.inf))
    a, b = uniform_instance(120, 120, 2, 1)
    got = cdut_approx_v1(a, b, 0.5, seed=1)
    assert got.extras["engine_rows"] <= 0.30 * got.extras["engine_rows_full"]


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    m=st.integers(1, 30),
    n=st.integers(1, 30),
    d=st.integers(1, 4),
    metric=st.sampled_from(sorted(METRICS)),
    grid=st.booleans(),
    offset=st.one_of(st.sampled_from([0.0, 1e12, -1e12]), st.floats(-1e12, 1e12)),
    both=st.booleans(),
    reach=st.sampled_from([3.0, 30.0, 1e4, 1e9]),
)
def test_box_floor_never_exceeds_the_value(seed, m, n, d, metric, grid, offset, both, reach):
    # B alone, or both sets, moved by up to 1e12: the queries then round at
    # that scale, which the floor's slack must cover; far translations put
    # most of A outside B's box, where the floor is tightest
    a, b = instance(seed, m, n, d, grid)
    b = PointSet(b.points + offset)
    if both:
        a = PointSet(a.points + offset)
    rng = np.random.default_rng(seed)
    ts = translations(seed, a, b, 20)
    ts = np.concatenate([ts, ts + rng.uniform(-reach, reach, ts.shape)])
    if grid:
        ts = np.round(ts)
    values = chamfer_many(a, ts, b, METRICS[metric])
    floors = cdut.core._box_floor(a, ts, b, METRICS[metric], 2.0 * cdut.core._rounding(a, ts))
    assert np.all(floors <= values)


def test_box_floor_keeps_a_tie_it_seeds_out_of_order(monkeypatch):
    # B is one point, so under l1 the box floor is each value, up to its
    # rounding and slack.  Both translations cost 10, but the later one's
    # floor rounds lower: it is seeded first and sets the bound that the
    # first position must still meet
    a, b = PointSet([[0.0], [10.0]]), PointSet([[0.0]])
    ts = np.array([[-0.1], [-6.4]])
    assert chamfer_many(a, ts, b, L1).tolist() == [10.0, 10.0]
    floors = cdut.core._box_floor(a, ts, b, L1, 2.0 * cdut.core._rounding(a, ts))
    assert floors[1] < floors[0] <= 10.0
    assert np.allclose(floors, 10.0, rtol=1e-8, atol=0.0)
    monkeypatch.setattr(cdut.core, "_STAGED_ROWS", 0)
    for backend in ("brute", "sorted"):
        got = chamfer_argmin(a, ts, b, L1, index=build_index(b, L1, backend))
        assert (got.pos, got.value) == (0, 10.0)


def test_equal_box_floors_seed_no_candidate(monkeypatch):
    # B's box holds A + t for every t, so every box floor is the same; the
    # scan then makes the calls and queries of one given no useful floors
    monkeypatch.setattr(cdut.core, "_STAGED_ROWS", 0)
    a, b = instance(6, 20, 30, 2, grid=False)
    b = PointSet(np.concatenate([b.points, [[-100.0, -100.0], [100.0, 100.0]]]))
    ts = np.random.default_rng(6).uniform(-3, 3, (40, 2))
    floors = cdut.core._box_floor(a, ts, b, L2, 2.0 * cdut.core._rounding(a, ts))
    assert np.all(floors == floors[0])
    pos, value = full_scan(a, ts, b, L2)
    calls = []
    many = cdut.core.chamfer_many

    def counting(*args, **kwargs):
        calls.append(1)
        return many(*args, **kwargs)

    monkeypatch.setattr(cdut.core, "chamfer_many", counting)
    runs = []
    for given in (None, np.full(len(ts), -math.inf)):
        calls.clear()
        got = chamfer_argmin(a, ts, b, L2, floors=given)
        assert (got.pos, bits(got.value)) == (pos, bits(value))
        runs.append((len(calls), got.rows))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("family, share", [("uniform", 0.20), ("noisy-copy", 0.15)])
def test_box_floor_drops_candidates_before_any_query(family, share):
    # with partial sums and column floors alone, 27% (uniform) and 22%
    # (noisy-copy) of the rows are queried; the box floors leave 16% and 11%
    if family == "uniform":
        a, b = uniform_instance(120, 120, 2, 1)
    else:
        p = noisy_copy_instance(120, 2, 1)
        a, b = p.a, p.b
    got = cdut_approx_v1(a, b, 0.5, seed=1)
    assert got.extras["engine_rows"] <= share * got.extras["engine_rows_full"]


@pytest.mark.parametrize("backend", ["brute", "kdtree"])
def test_duplicated_optimum_first_copy_wins(monkeypatch, backend):
    monkeypatch.setattr(cdut.core, "_STAGED_ROWS", 0)
    a, b = instance(3, 24, 20, 2, grid=True)
    ts = translations(3, a, b, 30)
    best = ts[full_scan(a, ts, b, L1)[0]]
    ts = np.concatenate([ts[:7], best[None], ts[7:], best[None], best[None]])
    pos, value = full_scan(a, ts, b, L1)
    got = chamfer_argmin(a, ts, b, L1, index=build_index(b, L1, backend))
    assert got.pos == pos <= 7
    assert bits(got.value) == bits(value)


@pytest.mark.parametrize("backend", ["brute", "kdtree"])
def test_tie_goes_to_first_position_when_a_later_one_leads(monkeypatch, backend):
    # both translations cost 5; the second has the smaller first-stage sum,
    # so it is completed first and sets the bound the first one must meet
    monkeypatch.setattr(cdut.core, "_STAGED_ROWS", 0)
    a, b = PointSet([[5.0], [0.0]]), PointSet([[0.0], [10.0]])
    ts = np.array([[0.0], [-5.0]])
    assert chamfer_many(a, ts, b).tolist() == [5.0, 5.0]
    got = chamfer_argmin(a, ts, b, index=build_index(b, L2, backend))
    assert (got.pos, got.value) == (0, 5.0)


@pytest.mark.parametrize("metric", ["l1", "l2", "linf"])
def test_upper_bound(monkeypatch, metric):
    a, b = instance(5, 30, 25, 2, grid=False)
    ts = translations(5, a, b, 40)
    pos, value = full_scan(a, ts, b, METRICS[metric])
    at = chamfer_argmin(a, ts, b, METRICS[metric], upper=value)
    assert (at.pos, bits(at.value)) == (pos, bits(value))
    below = np.nextafter(value, -math.inf)
    got = chamfer_argmin(a, ts, b, METRICS[metric], upper=below)
    assert (got.pos, got.value) == (-1, math.inf)
    assert got.rows <= len(ts) * len(a)
    for staged in (0, math.inf):
        # in stages the bound drops candidates; in one stage it drops the winner
        monkeypatch.setattr(cdut.core, "_STAGED_ROWS", staged)
        assert chamfer_argmin(a, ts, b, METRICS[metric], upper=value).pos == pos
        assert chamfer_argmin(a, ts, b, METRICS[metric], upper=below).pos == -1


def test_empty_scans_have_no_winner(monkeypatch):
    a, b = instance(12, 8, 8, 2, grid=False)
    for staged in (0, math.inf):
        monkeypatch.setattr(cdut.core, "_STAGED_ROWS", staged)
        for floors in (None, np.empty(0)):
            assert chamfer_argmin(a, np.empty((0, 2)), b, floors=floors) == (-1, math.inf, 0)
    # a bound below every cell floor leaves the lattice scan no member
    lattice = _alignment_lattice(a.points, b.points)
    assert lattice_argmin(a, lattice, b, L1, upper=-1.0)[:3] == (None, math.inf, 0)


def test_small_scans_run_in_one_stage(monkeypatch):
    a, b = instance(4, 30, 25, 2, grid=False)
    ts = translations(4, a, b, 40)
    pos, value = full_scan(a, ts, b, L2)
    calls = []
    many = cdut.core.chamfer_many

    def counting(*args, **kwargs):
        calls.append(1)
        return many(*args, **kwargs)

    monkeypatch.setattr(cdut.core, "chamfer_many", counting)
    rows = len(ts) * len(a)
    monkeypatch.setattr(cdut.core, "_STAGED_ROWS", rows + 1)
    got = chamfer_argmin(a, ts, b)
    assert (got.pos, bits(got.value)) == (pos, bits(value))
    assert len(calls) == 1 and got.rows == rows
    # at the threshold the scan runs in stages and prunes
    calls.clear()
    monkeypatch.setattr(cdut.core, "_STAGED_ROWS", rows)
    got = chamfer_argmin(a, ts, b)
    assert (got.pos, bits(got.value)) == (pos, bits(value))
    assert len(calls) > 1 and got.rows < rows


def _record_query_rows(monkeypatch):
    """Record each query batch, and the peak number of query rows held at once."""
    seen, live, peak, lock = [], [0], [0], threading.Lock()
    query_many = cdut.core.NearestIndex.query_many

    def recording(self, queries):
        with lock:
            seen.append(len(queries))
            live[0] += len(queries)
            peak[0] = max(peak[0], live[0])
        try:
            return query_many(self, queries)
        finally:
            with lock:
                live[0] -= len(queries)

    monkeypatch.setattr(cdut.core.NearestIndex, "query_many", recording)
    return seen, peak


def test_query_rows_stay_under_the_cap(monkeypatch):
    a, b = instance(9, 40, 30, 3, grid=False)
    ts = translations(9, a, b, 50)
    pos, value = full_scan(a, ts, b, L2)
    monkeypatch.setattr(cdut.core, "_QUERY_ROWS", 64)
    seen, peak = _record_query_rows(monkeypatch)
    for workers in (1, 2):
        monkeypatch.setenv("CDUT_THREADS", str(workers))
        seen.clear()
        peak[0] = 0
        got = chamfer_argmin(a, ts, b, L2)
        assert (got.pos, bits(got.value)) == (pos, bits(value))
        assert seen and peak[0] <= 64


def test_query_tiles_are_capped_by_coordinates_at_high_dimension():
    # 2^17 query rows at d = 64: one 2^20-row tile would hold 64 MiB of
    # queries, and the kd-tree lookup copies a tile about twice more
    rng = np.random.default_rng(5)
    a, b = PointSet(rng.normal(size=(64, 64))), PointSet(rng.normal(size=(16, 64)))
    ts = rng.normal(size=(2048, 64))
    tracemalloc.start()
    try:
        chamfer_many(a, ts, b, L2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 8 * cdut.core._TILE_ENTRIES


def test_huge_thread_count_keeps_serial_batches_whole(monkeypatch):
    # 100 translations are too few to split between 100,000 workers, so the
    # evaluation runs serially and must not shrink its query batches
    a, b = instance(9, 40, 30, 3, grid=False)
    ts = translations(9, a, b, 50)
    want = chamfer_many(a, ts, b, L2)
    seen, _ = _record_query_rows(monkeypatch)
    # no thread may start, and no pool built by an earlier test may run a block
    monkeypatch.setattr(cdut.parallel, "ThreadPoolExecutor", None)
    monkeypatch.setattr(cdut.parallel, "_pool", None)
    monkeypatch.setenv("CDUT_THREADS", "100000")
    assert np.array_equal(chamfer_many(a, ts, b, L2), want)
    assert seen == [len(ts) * len(a)]


def test_chamfer_many_returns_values_then_distances():
    a, b = instance(11, 12, 20, 2, grid=False)
    ts = translations(11, a, b, 10)
    values = chamfer_many(a, ts, b, L1)
    got_values, dist = chamfer_many(a, ts, b, L1, want_distances=True)
    assert np.array_equal(got_values, values)
    assert dist.shape == (len(ts), len(a))
    assert np.array_equal(dist.sum(axis=1), values)
    shifted = (a.points[None, :, :] + ts[:, None, :]).reshape(-1, a.dim)
    nearest, _ = build_index(b, L1, backend="brute").query_many(shifted)
    assert np.array_equal(dist.ravel(), nearest)


# -- lattice_argmin on alignment grids -----------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    case=st.sampled_from(["l1 d=2", "l1 d=3", "linf d=2"]),
    grid=st.booleans(),
    repeats=st.integers(0, 30),
)
# a cell centre near 16 rounds by 1.8e-15, more than the relative slack of
# its radius, 1.03e-3, allows
@example(seed=315344, case="l1 d=2", grid=False, repeats=0)
def test_lattice_argmin_on_alignment_grids(seed, case, grid, repeats):
    # alignment grids are unevenly spaced, so cells have non-uniform boxes;
    # integer coordinates make ties across cells common
    d = int(case[-1])
    size = 8 if d == 2 else 4
    a, b = instance(seed, size, size, d, grid)
    pa, pb = a.points, b.points
    if case.startswith("linf"):
        rot = np.array([[1.0, 1.0], [1.0, -1.0]])
        pa, pb = pa @ rot.T, pb @ rot.T
    a, b = PointSet(pa), PointSet(pb)
    ts, keys = alignment_grid(pa, pb)
    # repeated keys, in rows after the grid's, carry the same translation
    grid = _alignment_lattice(pa, pb)
    rng = np.random.default_rng(seed)
    extra = rng.integers(0, len(ts), repeats)
    ts, keys = np.concatenate([ts, ts[extra]]), np.concatenate([keys, keys[extra]])
    tail = keys[len(keys) - repeats :]  # one row each
    lattice = Lattice(
        np.concatenate([grid.prefix, tail[:, :-1]]),
        np.concatenate([grid.lo, tail[:, -1]]),
        np.concatenate([grid.hi, tail[:, -1]]),
        axes=grid.axes,
    )
    assert np.array_equal(row_keys(lattice), keys)
    assert np.array_equal(scan_keys(lattice), keys[first_positions(keys)])
    values = chamfer_many(a, ts, b, L1)
    low = float(values.min())
    # in stages, so that the members' floors drop candidates as before
    with mock.patch.object(cdut.core, "_STAGED_ROWS", 0):
        for upper in (math.inf, low, np.nextafter(low, -math.inf)):
            want = chamfer_argmin(a, ts, b, L1, upper=upper)
            for holds_optimum in (False, True):
                got = lattice_argmin(a, lattice, b, L1, upper=upper, holds_optimum=holds_optimum)
                if want.pos < 0:
                    assert (got.translation, got.value) == (None, math.inf)
                else:
                    assert got.translation.tobytes() == ts[want.pos].tobytes()
                    assert bits(got.value) == bits(want.value)
                assert got.rows <= len(ts) * len(a)
    rounding = cdut.core._rounding(a, ts)
    for side in (2, 4, 16):
        members, which, centres, r = lattice_cells(lattice, side, L1)
        assert np.array_equal(members, keys)
        # each computed centre coordinate (lo + hi) / 2 is off by at most half
        # an ulp of itself, an absolute error that no relative slack on r
        # covers when r is small against the coordinates; over d axes that is
        # d eps / 2 of the largest coordinate, and 4 d eps leaves room for the
        # differences' and the sum's roundings, which are relative
        ulps = 4 * d * np.finfo(np.float64).eps * max(np.abs(ts).max(), np.abs(centres).max())
        assert np.all(L1.norms(ts - centres[which]) <= r[which] * (1.0 + 1e-12) + ulps)
        floors = cdut.core._cell_floor(chamfer_many(a, centres, b, L1), r, len(a), rounding)
        assert np.all(values >= floors[which])


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    d=st.integers(1, 3),
    m=st.integers(1, 6),
    n=st.integers(1, 6),
    grid=st.booleans(),
)
def test_alignment_lattice_matches_the_array_build(seed, d, m, n, grid):
    # integer sets repeat alignments, so the per-axis values are deduplicated
    a, b = instance(seed, m, n, d, grid)
    ts, keys = alignment_grid(a.points, b.points)
    lattice = _alignment_lattice(a.points, b.points)
    got = row_keys(lattice)
    assert got.shape == keys.shape and got.tobytes() == keys.tobytes()
    assert lattice.translations(got).tobytes() == ts.tobytes()
    assert lattice.size == len(ts)
    assert np.array_equal(scan_keys(lattice), keys)


def test_lattice_refuses_rows_and_keys_it_cannot_hold():
    axes = (np.arange(3.0), np.arange(4.0))
    Lattice(np.array([[0], [2]]), np.array([0, 3]), np.array([3, 3]), axes=axes)
    Lattice(np.array([[-5]]), np.array([-7]), np.array([-7]), step=0.5)
    with pytest.raises(ValueError, match="lo > hi"):
        Lattice(np.array([[0], [1]]), np.array([0, 2]), np.array([3, 1]), step=0.5)
    for prefix, lo, hi in (([[3]], [0], [1]), ([[-1]], [0], [1]), ([[0]], [-1], [1]), ([[0]], [0], [4])):
        with pytest.raises(ValueError, match="outside its axis"):
            Lattice(np.array(prefix), np.array(lo), np.array(hi), axes=axes)
    with pytest.raises(ValueError, match="as many axes"):
        Lattice(np.array([[0]]), np.array([0]), np.array([1]), axes=axes[:1])


# -- callers: same report as a full-scan argmin --------------------------------


def reference_argmin(a, ts, b, metric=L2, index=None, upper=math.inf) -> ArgminResult:
    values = chamfer_many(a, ts, b, metric, index=index)
    full = values.size * len(a)
    if values.size == 0:
        return ArgminResult(-1, math.inf, full)
    pos = int(np.argmin(values))
    if values[pos] > upper:
        return ArgminResult(-1, math.inf, full)
    return ArgminResult(pos, float(values[pos]), full)


def reference_lattice_argmin(a, lattice, b, metric=L2, index=None, upper=math.inf, holds_optimum=False):
    # every key of every row, repeats included: a repeat never beats its
    # first copy, so the first minimum is the scan's
    ts = lattice.translations(row_keys(lattice))
    pos, value, rows = reference_argmin(a, ts, b, metric, index, upper)
    return LatticeArgmin(ts[pos] if pos >= 0 else None, value, rows, 0)


def v1(a, b, metric):
    return lambda: cdut_approx_v1(a, b, 0.5, seed=4, metric=metric)


def localnet(a, b, union):
    config = LocalNetConfig(epsilon=0.5, delta=0.4, union_mode=union)
    return lambda: cdut_localnet(a, b, config, seed=2, metric=L2)


def l1linf(a, b, metric):
    return lambda: cdut_exact_l1_linf(a, b, metric)


def _cases():
    for seed in (0, 1):
        a, b = uniform_instance(40, 40, 2 + seed, seed)
        yield f"approx-v1 d={2 + seed}", cdut.approx, v1(a, b, L2)
        p = noisy_copy_instance(12, 2, seed)
        yield f"localnet seed={seed}", cdut.localnet, localnet(p.a, p.b, False)
        yield f"localnet-union seed={seed}", cdut.localnet, localnet(p.a, p.b, True)
        a, b = uniform_instance(8, 8, 2, seed + 10)
        yield f"exact-l1linf l1 seed={seed}", cdut.sweep1d, l1linf(a, b, L1)
        yield f"exact-l1linf linf seed={seed}", cdut.sweep1d, l1linf(a, b, LINF)
    a, b = instance(7, 8, 9, 3, grid=True)
    yield "exact-l1linf l1 d=3 grid", cdut.sweep1d, l1linf(a, b, L1)
    a, b = instance(8, 10, 10, 2, grid=True)
    yield "approx-v1 grid l1", cdut.approx, v1(a, b, L1)


CASES = list(_cases())


@pytest.mark.parametrize("module,solve", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_callers_match_full_scan_reference(monkeypatch, module, solve):
    got = solve()
    # the pruned lattice scan calls core's own chamfer_argmin, so it is
    # replaced whole, or ``want`` would still come from a pruned scan
    for name, reference in (("chamfer_argmin", reference_argmin), ("lattice_argmin", reference_lattice_argmin)):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, reference)
    want = solve()
    assert want.extras["engine_rows"] == want.extras["engine_rows_full"]  # a true full scan
    assert bits(got.value) == bits(want.value)
    assert np.array_equal(got.translation, want.translation)
    assert np.array_equal(got.assignment, want.assignment)
    assert got.evaluations == want.evaluations
    assert got.extras["engine_rows_full"] == want.extras["engine_rows_full"]
    assert 0 < got.extras["engine_rows"] <= got.extras["engine_rows_full"]
    # rows scored at cell centres exist only in the pruned scan
    drop = ("engine_rows", "bound_rows")
    assert {k: v for k, v in got.extras.items() if k not in drop} == {
        k: v for k, v in want.extras.items() if k not in drop
    }


# -- the lattice budget ---------------------------------------------------------


def budget_checks(monkeypatch, solve):
    """Every (phase, held) that ``solve`` holds to the lattice budget."""
    seen, check = [], cdut.core._check_budget

    def recording(phase, held):
        seen.append((phase, held))
        check(phase, held)

    with monkeypatch.context() as mp:
        for module in (cdut.core, cdut.localnet, cdut.sweep1d):
            mp.setattr(module, "_check_budget", recording)
        solve()
    return seen


LATTICE_CASES = [c for c in CASES if not c[0].startswith("approx")]


@pytest.mark.parametrize("solve", [c[2] for c in LATTICE_CASES], ids=[c[0] for c in LATTICE_CASES])
def test_each_lattice_phase_is_held_to_the_budget(monkeypatch, solve):
    want = solve()
    checks = budget_checks(monkeypatch, solve)
    phases = [phase for phase, _ in checks]
    # the builder's rows, one cell level or two, and the members built
    assert phases[0] in ("local net rows", "alignment grid rows")
    assert phases[-1] == "lattice members" and "lattice cells of side 4" in phases
    # the scan's phases count the builder's rows, which they hold throughout
    assert all(held >= checks[0][1] for _, held in checks[1:])
    for _, held in checks:
        # the first phase that holds more than the limit refuses the solve
        limit = held - 1
        phase, over = next((phase, h) for phase, h in checks if h > limit)
        monkeypatch.setattr(cdut.core, "_LATTICE_BUDGET", limit)
        message = f"{phase} would hold {over} rows, pieces and keys, over the lattice budget {limit}"
        with pytest.raises(ValueError, match=message):
            solve()
    monkeypatch.setattr(cdut.core, "_LATTICE_BUDGET", max(held for _, held in checks))
    got = solve()
    assert bits(got.value) == bits(want.value)
    assert np.array_equal(got.translation, want.translation)
    assert got.extras == want.extras


@pytest.mark.parametrize("algorithm,metric", [("localnet", "l2"), ("exact-l1linf", "l1"), ("exact-l1linf", "linf")])
def test_cli_exits_2_over_the_lattice_budget(monkeypatch, capsys, tmp_path, algorithm, metric):
    from cdut.cli import main as cli_main
    from cdut.io import write_instance

    a, b = uniform_instance(6, 6, 2, 3)
    write_instance(tmp_path / "a.txt", a)
    write_instance(tmp_path / "b.txt", b)
    argv = ["compute", algorithm, str(tmp_path / "a.txt"), str(tmp_path / "b.txt"), "--metric", metric]
    assert cli_main(argv) == 0
    capsys.readouterr()
    monkeypatch.setattr(cdut.core, "_LATTICE_BUDGET", 5)
    assert cli_main(argv) == 2
    assert "over the lattice budget 5" in capsys.readouterr().err
