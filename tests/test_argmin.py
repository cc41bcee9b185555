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
from hypothesis import given, settings
from hypothesis import strategies as st

import cdut.approx
import cdut.core
import cdut.localnet
import cdut.parallel
import cdut.sweep1d
from cdut import L1, L2, LINF, LocalNetConfig, PointSet, build_index, chamfer_many
from cdut.approx import cdut_approx_v1
from cdut.core import ArgminResult, LatticeArgmin, chamfer_argmin, lattice_argmin
from cdut.instances import noisy_copy_instance, uniform_instance
from cdut.localnet import cdut_localnet
from cdut.sweep1d import _alignment_grid, cdut_exact_l1_linf

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
    """Difference vectors b - a plus random shifts, with some rows repeated."""
    rng = np.random.default_rng(seed + 1)
    diffs = (b.points[None, :, :] - a.points[:, None, :]).reshape(-1, a.dim)
    ts = np.concatenate([diffs[rng.integers(0, len(diffs), count)], rng.uniform(-3, 3, (count, a.dim))])
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


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    m=st.integers(1, 40),
    n=st.integers(1, 40),
    d=st.integers(1, 3),
    count=st.integers(1, 60),
    metric=st.sampled_from(sorted(METRICS)),
    backend=st.sampled_from(["brute", "kdtree"]),
    grid=st.booleans(),
    stages=st.sampled_from([1, 2, 8, 64]),
)
def test_matches_full_scan(seed, m, n, d, count, metric, backend, grid, stages):
    a, b = instance(seed, m, n, d, grid)
    ts = translations(seed, a, b, count)
    index = build_index(b, METRICS[metric], backend)
    pos, value = full_scan(a, ts, b, METRICS[metric], index)
    for workers in (None, "2"):
        # no row floor, so that even these small stages go to the pool
        with threads(workers), mock.patch.object(cdut.core, "_ARGMIN_STAGES", stages), mock.patch.object(
            cdut.core, "_POOL_ROWS", 0
        ):
            got = chamfer_argmin(a, ts, b, METRICS[metric], index=index)
        assert got.pos == pos
        assert bits(got.value) == bits(value)
        assert 0 < got.rows <= len(ts) * m


@pytest.mark.parametrize("backend", ["brute", "kdtree"])
def test_duplicated_optimum_first_copy_wins(backend):
    a, b = instance(3, 24, 20, 2, grid=True)
    ts = translations(3, a, b, 30)
    best = ts[full_scan(a, ts, b, L1)[0]]
    ts = np.concatenate([ts[:7], best[None], ts[7:], best[None], best[None]])
    pos, value = full_scan(a, ts, b, L1)
    got = chamfer_argmin(a, ts, b, L1, index=build_index(b, L1, backend))
    assert got.pos == pos <= 7
    assert bits(got.value) == bits(value)


@pytest.mark.parametrize("backend", ["brute", "kdtree"])
def test_tie_goes_to_first_position_when_a_later_one_leads(backend):
    # both translations cost 5; the second has the smaller first-stage sum,
    # so it is completed first and sets the bound the first one must meet
    a, b = PointSet([[5.0], [0.0]]), PointSet([[0.0], [10.0]])
    ts = np.array([[0.0], [-5.0]])
    assert chamfer_many(a, ts, b).tolist() == [5.0, 5.0]
    got = chamfer_argmin(a, ts, b, index=build_index(b, L2, backend))
    assert (got.pos, got.value) == (0, 5.0)


@pytest.mark.parametrize("metric", ["l1", "l2", "linf"])
def test_upper_bound(metric):
    a, b = instance(5, 30, 25, 2, grid=False)
    ts = translations(5, a, b, 40)
    pos, value = full_scan(a, ts, b, METRICS[metric])
    at = chamfer_argmin(a, ts, b, METRICS[metric], upper=value)
    assert (at.pos, bits(at.value)) == (pos, bits(value))
    below = np.nextafter(value, -math.inf)
    got = chamfer_argmin(a, ts, b, METRICS[metric], upper=below)
    assert (got.pos, got.value) == (-1, math.inf)
    assert got.rows <= len(ts) * len(a)


def _record_query_rows(monkeypatch):
    """Record each query batch, and the peak number of query rows held at once."""
    seen, live, peak, lock = [], [0], [0], threading.Lock()
    query_many = cdut.core.NearestIndex.query_many

    def recording(self, queries, normalize_ties=True):
        with lock:
            seen.append(len(queries))
            live[0] += len(queries)
            peak[0] = max(peak[0], live[0])
        try:
            return query_many(self, queries, normalize_ties)
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
    assert peak < 4 * 8 * cdut.core._QUERY_ENTRIES


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
    ts, keys = _alignment_grid(pa, pb)
    # repeated keys, later in the order, carry the same translation
    rng = np.random.default_rng(seed)
    extra = rng.integers(0, len(ts), repeats)
    ts, keys = np.concatenate([ts, ts[extra]]), np.concatenate([keys, keys[extra]])
    values = chamfer_many(a, ts, b, L1)
    low = float(values.min())
    for upper in (math.inf, low, np.nextafter(low, -math.inf)):
        want = chamfer_argmin(a, ts, b, L1, upper=upper)
        for holds_optimum in (False, True):
            got = lattice_argmin(a, ts, keys, b, L1, upper=upper, holds_optimum=holds_optimum)
            assert (got.pos, bits(got.value)) == (want.pos, bits(want.value))
            assert got.rows <= len(ts) * len(a)
    rounding = cdut.core._rounding(a, ts)
    for side in (2, 4, 16):
        which, centres, r = cdut.core._lattice_cells(ts, keys, side, L1)
        assert np.all(L1.norms(ts - centres[which]) <= r[which] * (1.0 + 1e-12))
        floors = cdut.core._cell_floor(chamfer_many(a, centres, b, L1), r, len(a), rounding)
        assert np.all(values >= floors[which])


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


def reference_lattice_argmin(a, ts, keys, b, metric=L2, index=None, upper=math.inf, holds_optimum=False):
    pos, value, rows = reference_argmin(a, ts, b, metric, index, upper)
    return LatticeArgmin(pos, value, rows, 0)


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
