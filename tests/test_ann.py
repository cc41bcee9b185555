import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cdut.ann
from cdut import L1, L2, LINF, Metric, PointSet, bbox_diameter, build_index, build_ladder, cdut_approx_v2
from cdut.ann import _family_for, _has_close_bucket_pair, _Scale, _scale_parameters, _Table
from cdut.instances import uniform_instance


def pts1(values):
    return PointSet(np.asarray(values, dtype=np.float64)[:, None])


def scale_hits(ladder, q):
    """Per-scale success flags for one query, every table of every scale probed."""
    q = np.asarray(q, dtype=np.float64).reshape(1, -1)
    best_d, best_i = np.full(1, np.inf), np.full(1, -1, dtype=np.int64)
    rows = np.array([0])
    hits = []
    for scale in ladder.scales:
        for table in scale.tables:
            ladder._probe_table(table, q, rows, best_d, best_i)
        hits.append(bool(best_d[0] <= ladder.c * scale.radius))
    return hits


class TestBuild:
    def test_deterministic_under_seed(self):
        b, _ = uniform_instance(60, 5, 4, 9)
        first = build_ladder(b, c=2.0, seed=5)
        second = build_ladder(b, c=2.0, seed=5)
        assert len(first.scales) == len(second.scales)
        for s1, s2 in zip(first.scales, second.scales):
            for t1, t2 in zip(s1.tables, s2.tables):
                b1, b2 = t1.buckets(), t2.buckets()
                for name in ("order", "ids", "start", "size"):
                    assert np.array_equal(getattr(b1, name), getattr(b2, name))
                assert np.array_equal(t1.proj, t2.proj)

    def test_distinct_seeds_give_distinct_tables(self):
        b, _ = uniform_instance(60, 5, 4, 9)
        first = build_ladder(b, c=2.0, seed=5)
        second = build_ladder(b, c=2.0, seed=6)
        assert not np.array_equal(first.scales[0].tables[0].proj, second.scales[0].tables[0].proj)

    def test_single_point_degenerates_to_exact_scan(self):
        ladder = build_ladder(pts1([3.0]), c=2.0, seed=0)
        assert ladder.scales == []
        dist, idx = ladder.query_batch([[3.0], [5.0]])
        assert (dist[0], idx[0]) == (0.0, 0)
        assert dist[1] == 2.0  # exact fallback

    def test_parameter_validation(self):
        b = pts1([0.0, 1.0])
        with pytest.raises(ValueError, match="c must exceed"):
            build_ladder(b, c=1.0)
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError, match="c must exceed"):
                build_ladder(b, c=bad)
            with pytest.raises(ValueError, match="c must exceed"):
                cdut_approx_v2(b, b, 0.5, bad)
            with pytest.raises(ValueError, match="U must be finite"):
                build_ladder(b, c=2.0, U=bad)

    def test_copies_of_one_point_build_no_scales(self):
        # one copy is written with -0.0, which equals 0.0
        b = PointSet(np.array([[0.0, 2.0], [-0.0, 2.0], [0.0, 2.0]]))
        assert np.signbit(b.points[1, 0])
        ladder = build_ladder(b, c=2.0, U=5.0, seed=0)
        assert ladder.scales == []
        dist, idx = ladder.query_batch([[0.0, 2.0]])
        assert (dist[0], idx[0]) == (0.0, 0)


def old_hash(table, pts):
    codes = np.floor((pts @ table.proj + table.offsets) / table.width).astype(np.int64)
    return (codes.astype(np.uint64) * table.combiner).sum(axis=1, dtype=np.uint64)


def old_candidates(sorted_ids, order, qids):
    left = np.searchsorted(sorted_ids, qids, side="left")
    right = np.searchsorted(sorted_ids, qids, side="right")
    counts = right - left
    nz = np.flatnonzero(counts)
    if nz.size == 0:
        return None, None
    c = counts[nz]
    rep = np.repeat(nz, c)
    ends = np.cumsum(c)
    flat = np.arange(ends[-1]) - np.repeat(ends - c, c) + np.repeat(left[nz], c)
    return rep, order[flat]


def old_has_close_bucket_pair(scale, points, metric, cutoff):
    for table in scale.tables:
        order = table.buckets().order
        ids = old_hash(table, points)[order]
        start = 0
        for end in range(1, ids.size + 1):
            if end == ids.size or ids[end] != ids[start]:
                if end - start > 1:
                    members = points[order[start:end]]
                    diffs = metric.norms(members[:, None, :] - members[None, :, :])
                    if diffs[(diffs > 0.0) & (diffs <= cutoff)].size:
                        return True
                start = end
    return False


def lexsort_keep_nearest(ladder, q, rows, rep, cand, best_d, best_i):
    d = ladder.metric.norms(q[rows[rep]] - ladder.source.points[cand])
    order = np.lexsort((cand, d, rep))
    first = np.ones(order.size, dtype=bool)
    first[1:] = rep[order][1:] != rep[order][:-1]
    sel = order[first]
    qrows = rows[rep[sel]]
    dd, ii = d[sel], cand[sel]
    better = (dd < best_d[qrows]) | ((dd == best_d[qrows]) & (ii < best_i[qrows]))
    qrows, dd, ii = qrows[better], dd[better], ii[better]
    best_d[qrows] = dd
    best_i[qrows] = ii


def lexsort_probe_table(ladder, table, q, rows, best_d, best_i):
    buckets = table.buckets()
    hit, bucket = buckets.lookup(old_hash(table, q[rows]))
    if hit.size == 0:
        return
    limit = cdut.core._tile_rows(q.shape[1])
    ends = np.cumsum(buckets.size[bucket])
    lo = 0
    while lo < hit.size:
        start = int(ends[lo - 1]) if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, start + limit, side="right")))
        rep, cand = np.repeat(hit[lo:hi], buckets.size[bucket[lo:hi]]), buckets.members(bucket[lo:hi])
        for s in range(0, rep.size, limit):
            lexsort_keep_nearest(ladder, q, rows, rep[s : s + limit], cand[s : s + limit], best_d, best_i)
        lo = hi


def full_search_lookup(buckets, qids):
    """The lookup with no presence screen: every query id is searched for."""
    pos = np.minimum(np.searchsorted(buckets.ids, qids), buckets.ids.size - 1)
    hit = np.flatnonzero(buckets.ids[pos] == qids)
    return hit, pos[hit]


def fancy_fold_runs(ladder, q, qrows, counts, cand, best_d, best_i):
    block = q[np.repeat(qrows, counts)]
    block -= ladder.source.points[cand]
    d = ladder.metric.norms(block)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    dd = np.minimum.reduceat(d, starts)
    ii = np.minimum.reduceat(np.where(d == np.repeat(dd, counts), cand, cdut.core._NO_INDEX), starts)
    better = (dd < best_d[qrows]) | ((dd == best_d[qrows]) & (ii < best_i[qrows]))
    qrows, dd, ii = qrows[better], dd[better], ii[better]
    best_d[qrows] = dd
    best_i[qrows] = ii


def fancy_probe_table(ladder, table, q, rows, best_d, best_i):
    """The segment-minimum probe that gathers ``q[rows]`` and searches every id."""
    buckets = table.buckets()
    hit, bucket = full_search_lookup(buckets, table.hash_points(q[rows]))
    if hit.size == 0:
        return
    limit = cdut.core._tile_rows(q.shape[1])
    sizes = buckets.size[bucket]
    ends = np.cumsum(sizes)
    lo = 0
    while lo < hit.size:
        start = int(ends[lo - 1]) if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, start + limit, side="right")))
        cand = buckets.members(bucket[lo:hi])
        qrows = rows[hit[lo:hi]]
        if cand.size <= limit:
            fancy_fold_runs(ladder, q, qrows, sizes[lo:hi], cand, best_d, best_i)
        else:
            for s in range(0, cand.size, limit):
                piece = cand[s : s + limit]
                fancy_fold_runs(ladder, q, qrows, [piece.size], piece, best_d, best_i)
        lo = hi


def lexsort_query_batch(ladder, queries):
    """The ladder walk that sorts each block's members by (row, distance, index)."""
    return reference_walk(ladder, queries, lexsort_probe_table)


def fancy_query_batch(ladder, queries):
    """The ladder walk with fancy-index gathers and no presence screen."""
    return reference_walk(ladder, queries, fancy_probe_table)


def reference_walk(ladder, queries, probe_table):
    q = np.ascontiguousarray(np.asarray(queries, dtype=np.float64))
    best_d = np.full(len(q), np.inf)
    best_i = np.full(len(q), -1, dtype=np.int64)
    active = np.arange(len(q))
    for scale in ladder.scales:
        if active.size == 0:
            break
        cutoff = ladder.c * scale.radius
        for table in scale.tables:
            probe_table(ladder, table, q, active, best_d, best_i)
            active = active[best_d[active] > cutoff]
            if active.size == 0:
                break
    if active.size:
        d, i = build_index(ladder.source, ladder.metric).query_many(q[active])
        best_d[active] = d
        best_i[active] = i
    return best_d, best_i


class TestTable:
    """Bucket ids and lookups against the per-column sum and two-sided search."""

    @pytest.mark.parametrize("metric", [L1, L2, LINF], ids=["l1", "l2", "linf"])
    def test_matches_the_old_formulas_on_integer_grids(self, metric):
        rng = np.random.default_rng(7)
        for trial in range(40):
            d = (1, 2, 3, 8)[trial % 4]
            # integer grids around 0 with many duplicates: codes go negative
            # and many points share a bucket
            b = rng.integers(-4, 5, size=(30, d)).astype(np.float64)
            q = np.vstack([b[:10], rng.integers(-6, 7, size=(40, d)).astype(np.float64)])
            table = _Table(b, float(rng.choice([0.5, 1.0, 3.0])), _family_for(metric), 1 + trial % 5, rng)
            assert np.array_equal(table.hash_points(b), old_hash(table, b))
            qids = table.hash_points(q)
            assert np.array_equal(qids, old_hash(table, q))
            buckets = table.buckets()
            sorted_ids = old_hash(table, b)[buckets.order]
            want, (hit, bucket) = old_candidates(sorted_ids, buckets.order, qids), buckets.lookup(qids)
            assert (want[0] is None) == (hit.size == 0)
            if hit.size:
                assert np.array_equal(want[0], np.repeat(hit, buckets.size[bucket]))
                assert np.array_equal(want[1], buckets.members(bucket))

    def test_close_pair_scan_matches_the_run_length_loop(self):
        for seed in range(6):
            rng = np.random.default_rng(seed)
            b = PointSet(rng.integers(-3, 4, size=(25, 2)).astype(np.float64))
            ladder = build_ladder(b, c=2.0, seed=seed)
            for scale in ladder.scales:
                for cutoff in (0.5, 2.0 * scale.radius):
                    got = _has_close_bucket_pair(scale, b.points, L2, cutoff)
                    assert got == old_has_close_bucket_pair(scale, b.points, L2, cutoff)
        # the only shared bucket holds exactly two points
        pair = np.array([[0.0], [0.1], [50.0], [80.0]])
        table = _Table(pair, 10.0, "coord", 1, np.random.default_rng(0))
        assert sorted(table.buckets().size) == [1, 1, 2]
        assert _has_close_bucket_pair(_Scale(2.5, [table]), pair, L2, 1.0)
        assert not _has_close_bucket_pair(_Scale(2.5, [table]), pair, L2, 0.05)

    @pytest.mark.parametrize("metric", [L1, L2, LINF], ids=["l1", "l2", "linf"])
    def test_close_pair_scan_is_tiled(self, monkeypatch, metric):
        rng = np.random.default_rng(29)
        b = PointSet(rng.integers(-3, 4, size=(40, 3)).astype(np.float64))
        ladder = build_ladder(b, c=2.0, seed=29, metric=metric)
        # the top scale puts more than one tile's pairs in one bucket: a
        # tile's pairs hold 3 coordinates in each of 3 blocks
        biggest = max(t.buckets().size.max() for t in ladder.scales[-1].tables)
        assert biggest * (biggest - 1) // 2 * 9 > 48
        blocks = record_close_pair_blocks(monkeypatch)
        # distinct grid points are 1 apart or more: no scan stops early, and
        # each table with a shared bucket takes one norms call
        for scale in ladder.scales:
            start = len(blocks)
            assert not _has_close_bucket_pair(scale, b.points, metric, 0.5)
            assert len(blocks) - start == sum(t.buckets().size.max() > 1 for t in scale.tables)
        monkeypatch.setattr(cdut.core, "_TILE_ENTRIES", 48)
        del blocks[:]
        for scale in ladder.scales:
            for cutoff in (0.5, 1.0, 2.0 * scale.radius):
                want = old_has_close_bucket_pair(scale, b.points, metric, cutoff)
                start = len(blocks)
                assert _has_close_bucket_pair(scale, b.points, metric, cutoff) == want
                # one position's pairs are wider than a tile only when its bucket is
                assert all(rows * 3 * d <= max(48, (biggest - 1) * 3 * d) for rows, d in blocks[start:])
        del blocks[:]
        top = ladder.scales[-1]
        assert not _has_close_bucket_pair(top, b.points, metric, 0.5)
        assert len(blocks) > len(top.tables)  # some table took more than one block
        # a close pair in the first tile of a table ends the scan there
        del blocks[:]
        assert _has_close_bucket_pair(top, b.points, metric, 2.0 * top.radius)
        assert len(blocks) == 1


def eager_ladder(b, c, seed, metric):
    """The ladder build that buckets each table with ``np.unique`` as it is
    drawn and checks each shared bucket's pairs in turn: the scales' radii,
    and each table's (order, ids, start, size)."""
    family, pts = _family_for(metric), b.points
    rng = np.random.default_rng(seed)
    radius, scales = float(bbox_diameter(b, metric)), []
    for _ in range(cdut.ann._MAX_SCALES):
        k, count = _scale_parameters(family, len(b), c)
        tables = []
        for _ in range(count):
            ids = _Table(pts, cdut.ann._WIDTH_FACTOR * radius, family, k, rng).hash_points(pts)
            order = np.argsort(ids, kind="stable")
            tables.append((order, *np.unique(ids[order], return_index=True, return_counts=True)))
        scales.append((radius, tables))
        close = False
        for order, _, start, size in tables:
            for lo, count in zip(start, size):
                members = pts[order[lo : lo + count]]
                dist = metric.norms(members[:, None, :] - members[None, :, :])
                close |= bool(np.any((dist > 0.0) & (dist <= c * radius)))
        if not close:
            break
        radius /= c
    return scales[::-1]


class TestLazyBuckets:
    @pytest.mark.parametrize("metric", [L1, L2, LINF], ids=["l1", "l2", "linf"])
    def test_buckets_match_an_eager_build(self, metric):
        for seed in range(4):
            ladder, _ = grid_ladder(seed, 30, 1 + seed % 4, metric, 2.0)
            want = eager_ladder(ladder.source, 2.0, seed, metric)
            assert [s.radius for s in ladder.scales] == [radius for radius, _ in want]
            for scale, (_, tables) in zip(ladder.scales, want):
                assert len(scale.tables) == len(tables)
                for table, arrays in zip(scale.tables, tables):
                    got = table.buckets()
                    for name, array in zip(("order", "ids", "start", "size"), arrays):
                        assert np.array_equal(getattr(got, name), array)
                        assert getattr(got, name).dtype == array.dtype

    @pytest.mark.parametrize("metric", [L1, L2, LINF], ids=["l1", "l2", "linf"])
    def test_only_reached_tables_are_bucketed(self, monkeypatch, metric):
        built, probed = [], set()

        class Counting(cdut.ann._Buckets):
            def __init__(self, ids):
                super().__init__(ids)
                built.append(self)

        probe = cdut.ann.ScaleLadder._probe_table

        def recording(ladder, table, *args):
            probed.add(id(table))
            return probe(ladder, table, *args)

        monkeypatch.setattr(cdut.ann, "_Buckets", Counting)
        monkeypatch.setattr(cdut.ann.ScaleLadder, "_probe_table", recording)
        unbuilt = 0
        for seed in range(4):
            del built[:]
            ladder, queries = grid_ladder(seed, 40, 3, metric, 2.0)
            tables = [t for scale in ladder.scales for t in scale.tables]
            bucketed = {id(t) for t in tables if t._buckets is not None}
            assert len(built) == len(bucketed)
            # the build reaches, at each scale, the tables up to its first
            # close pair, and every table of the lowest scale, which has none
            reached = set()
            for scale in ladder.scales:
                for table in scale.tables:
                    reached.add(id(table))
                    if scale is not ladder.scales[0] and _has_close_bucket_pair(
                        _Scale(scale.radius, [table]), ladder.source.points, metric, 2.0 * scale.radius
                    ):
                        break
            assert bucketed == reached
            ladder.query_batch(queries)
            bucketed = {id(t) for t in tables if t._buckets is not None}
            assert bucketed == reached | probed
            assert len(built) == len(bucketed)  # each table once
            unbuilt += len(tables) - len(bucketed)
            probed.clear()
        assert unbuilt > 0

    def test_threads_that_race_to_bucket_a_table_get_the_serial_answer(self):
        # B's 450 points make each build long enough for threads to meet in it
        ladder, queries = grid_ladder(11, 300, 3, L2, 2.0)
        want = grid_ladder(11, 300, 3, L2, 2.0)[0].query_batch(queries)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                runs = [pool.submit(ladder.query_batch, queries) for _ in range(8)]
                results = [run.result(timeout=120) for run in runs]
        finally:
            sys.setswitchinterval(interval)
        for dist, idx in results:
            assert np.array_equal(dist, want[0]) and np.array_equal(idx, want[1])

    @pytest.mark.parametrize("metric", [L1, L2, LINF], ids=["l1", "l2", "linf"])
    def test_close_pair_scan_of_one_dense_bucket_holds_a_tile(self, monkeypatch, metric):
        # a top scale over a dense B: one coordinate-sampling bucket of 4,000
        # points, pairwise at least 1 apart but for one pair at 0.5, which
        # the scan meets in its last tiles
        rng = np.random.default_rng(3)
        pts = np.stack([np.arange(4000.0), rng.permutation(4000).astype(np.float64)], axis=1)
        pts[3999] = pts[3900] + [0.0, 0.5]
        table = _Table(pts, 1e9, "coord", 1, np.random.default_rng(0))
        assert table.buckets().size.tolist() == [4000]
        scale = _Scale(1.0, [table])
        tile = 1 << 16
        monkeypatch.setattr(cdut.core, "_TILE_ENTRIES", tile)
        for cutoff, want in ((0.75, True), (0.25, False)):
            assert bucketwise_close_pair(scale, pts, metric, cutoff) == want
            tracemalloc.start()
            try:
                got = _has_close_bucket_pair(scale, pts, metric, cutoff)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert got == want
            # the blocks of a tile, and its index arrays: the bucket's 8M
            # pairs would hold 16M coordinates in each block
            assert peak <= 3 * 8 * tile


def bucketwise_close_pair(scale, points, metric, cutoff):
    """The close-pair check one shared bucket at a time, in row blocks."""
    held = cdut.core._held_tables(points.shape[1])
    for table in scale.tables:
        buckets = table.buckets()
        for start, size in zip(buckets.start, buckets.size):
            members = points[buckets.order[start : start + size]]
            step = cdut.core._tile_rows(size * held)
            for lo in range(0, size, step):
                dist = cdut.core._cross_norms(metric, members[lo : lo + step], members)
                if np.any((dist > 0.0) & (dist <= cutoff)):
                    return True
    return False


def record_close_pair_blocks(monkeypatch):
    """The shape of every block of differences that the close-pair check measures."""
    shapes = []

    def recording(metric, v):
        shapes.append(v.shape)
        return norms(metric, v)

    norms = Metric.norms
    monkeypatch.setattr(Metric, "norms", recording)
    return shapes


def record_probe_blocks(monkeypatch):
    """The shapes of the member blocks that the ladder probe measures."""
    shapes = []

    def recording(metric, q, rows, counts, points, cand):
        shapes.append((len(cand), q.shape[1]))
        return nearest_in_runs(metric, q, rows, counts, points, cand)

    nearest_in_runs = cdut.core._nearest_in_runs
    monkeypatch.setattr(cdut.ann, "_nearest_in_runs", recording)
    return shapes


class TestTiledProbe:
    @pytest.mark.parametrize("metric", [L1, L2, LINF], ids=["l1", "l2", "linf"])
    def test_tiles_give_the_untiled_answer(self, monkeypatch, metric):
        rng = np.random.default_rng(53)
        b = PointSet(rng.uniform(0, 1, size=(80, 6)))
        queries = rng.uniform(-0.2, 1.2, size=(120, 6))
        ladder = build_ladder(b, c=2.0, seed=53, metric=metric)
        untiled = record_probe_blocks(monkeypatch)
        want = ladder.query_batch(queries)
        assert max(rows * d for rows, d in untiled) > 48  # the default cap did not tile
        monkeypatch.setattr(cdut.core, "_TILE_ENTRIES", 48)
        tiled = record_probe_blocks(monkeypatch)
        got = ladder.query_batch(queries)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert max(rows * d for rows, d in tiled) <= 48
        assert len(tiled) > len(untiled)
        # coarse scales put more than 8 members in one bucket, so one row's
        # members are split between blocks
        assert max(t.buckets().size.max() for s in ladder.scales for t in s.tables) > 8
        assert sum(rows for rows, _ in tiled) == sum(rows for rows, _ in untiled)


def grid_ladder(seed, n, d, metric, c):
    """A ladder over an integer grid, with some points of B repeated so that
    many members of one bucket tie on distance, and queries for it."""
    rng = np.random.default_rng(seed)
    b = rng.integers(-3, 4, size=(n, d)).astype(np.float64)
    b = PointSet(np.vstack([b, b[rng.integers(0, n, size=n // 2)]]))
    queries = np.vstack([b.points[:5], rng.integers(-5, 6, size=(30, d)).astype(np.float64)])
    return build_ladder(b, c=c, seed=seed % 1000, metric=metric), queries


walk_cases = given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(2, 40),
    d=st.integers(1, 8),
    metric=st.sampled_from([L1, L2, LINF]),
    c=st.sampled_from([1.5, 2.0, 3.0]),
    tile=st.sampled_from([cdut.core._TILE_ENTRIES, 48, 7]),
)


@settings(max_examples=60, deadline=None)
@walk_cases
def test_probe_matches_the_lexsort_walk(seed, n, d, metric, c, tile):
    ladder, queries = grid_ladder(seed, n, d, metric, c)
    with mock.patch.object(cdut.core, "_TILE_ENTRIES", tile):
        got = ladder.query_batch(queries)
        want = lexsort_query_batch(ladder, queries)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@settings(max_examples=60, deadline=None)
@walk_cases
def test_walk_matches_the_fancy_gather_walk(seed, n, d, metric, c, tile):
    ladder, queries = grid_ladder(seed, n, d, metric, c)
    with mock.patch.object(cdut.core, "_TILE_ENTRIES", tile):
        got = ladder.query_batch(queries)
        want = fancy_query_batch(ladder, queries)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def record_hash_inputs(monkeypatch):
    """(table, shape, strides, bytes) of every array that a table hashes."""
    seen = []
    hash_points = _Table.hash_points

    def recording(table, pts):
        seen.append((id(table), pts.shape, pts.strides, pts.tobytes()))
        return hash_points(table, pts)

    monkeypatch.setattr(_Table, "hash_points", recording)
    return seen


@pytest.mark.parametrize("metric", [L1, L2, LINF], ids=["l1", "l2", "linf"])
def test_each_table_hashes_the_fancy_gather_rows(monkeypatch, metric):
    retired_mid_scale = False
    for seed in range(12):
        ladder, queries = grid_ladder(seed, 30, 1 + seed % 8, metric, (1.5, 2.0, 3.0)[seed % 3])
        # every table bucketed first, so that only the queries' hashes are recorded
        for scale in ladder.scales:
            for table in scale.tables:
                table.buckets()
        seen = record_hash_inputs(monkeypatch)
        ladder.query_batch(queries)
        got = list(seen)
        seen.clear()
        fancy_query_batch(ladder, queries)
        assert got == seen
        rows = {key: shape[0] for key, shape, _, _ in got}
        for scale in ladder.scales:
            hashed = [rows[id(t)] for t in scale.tables if id(t) in rows]
            retired_mid_scale |= len(set(hashed)) > 1
    assert retired_mid_scale


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(1, 60),
    d=st.integers(1, 6),
    family=st.sampled_from(["gaussian", "cauchy", "coord"]),
    k=st.integers(1, 6),
    width=st.sampled_from([0.5, 1.0, 3.0]),
)
def test_screened_lookup_matches_the_full_search(seed, n, d, family, k, width):
    rng = np.random.default_rng(seed)
    b = rng.integers(-4, 5, size=(n, d)).astype(np.float64)
    buckets = _Table(b, width, family, k, rng).buckets()
    ids = buckets.ids
    top = np.uint64(2**64 - 1)
    shift = buckets._shift
    # ids in a bucket's screen slot but not the bucket's own: the low bit
    # flipped, and the first and last ids of the slot
    first = (ids >> shift) << shift
    last = first | ((np.uint64(1) << shift) - np.uint64(1))
    # ids below and above every bucket id
    outside = [np.uint64(0), top]
    if ids[0] > 0:
        outside.append(ids[0] - np.uint64(1))
    if ids[-1] < top:
        outside.append(ids[-1] + np.uint64(1))
    random = rng.integers(0, top, size=40, dtype=np.uint64, endpoint=True)
    qids = np.concatenate([ids, ids ^ np.uint64(1), first, last, np.array(outside, dtype=np.uint64), random])
    qids = qids[rng.permutation(qids.size)]
    assert np.any(buckets._screen[buckets._slots(qids)] & ~np.isin(qids, ids))
    got, want = buckets.lookup(qids), full_search_lookup(buckets, qids)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert got[0].dtype == want[0].dtype and got[1].dtype == want[1].dtype


class TestQuery:
    def test_member_point_is_found_at_distance_zero(self):
        b, _ = uniform_instance(40, 5, 3, 2)
        ladder = build_ladder(b, c=2.0, seed=2)
        dist, _ = ladder.query_batch(b.points[[0, 7, 39]])
        assert np.all(dist == 0.0)

    def test_query_at_exactly_l_stays_within_factor(self):
        b = pts1([0.0, 10.0, 20.0, 30.0])
        ladder = build_ladder(b, c=2.0, U=60.0, seed=3)
        low = ladder.scales[0].radius
        assert low < 5.0
        # distance exactly the smallest radius from the unique nearest point
        dist, _ = ladder.query_batch([[low]])
        assert dist[0] <= 2.0 * low + 1e-12

    def test_never_underestimates(self):
        rng = np.random.default_rng(11)
        b = PointSet(rng.uniform(0, 1, size=(500, 16)))
        ladder = build_ladder(b, c=2.0, seed=11)
        queries = rng.uniform(0, 1, size=(300, 16))
        reported, idx = ladder.query_batch(queries)
        exact, _ = build_index(b).query_many(queries)
        recomputed = ladder.metric.norms(queries - b.points[idx])
        assert np.all(reported >= exact - 1e-12)
        assert np.allclose(reported, recomputed, rtol=0, atol=0)

    def test_mostly_within_factor_c(self):
        rng = np.random.default_rng(23)
        b = PointSet(rng.uniform(0, 1, size=(200, 8)))
        ladder = build_ladder(b, c=2.0, seed=23)
        queries = rng.uniform(0, 1, size=(300, 8))
        reported, _ = ladder.query_batch(queries)
        exact, _ = build_index(b).query_many(queries)
        assert np.mean(reported <= 2.0 * exact + 1e-12) >= 0.90

    @pytest.mark.parametrize("metric", [L1, LINF])
    def test_other_metrics_never_underestimate(self, metric):
        rng = np.random.default_rng(31)
        b = PointSet(rng.uniform(-10, 10, size=(120, 6)))
        ladder = build_ladder(b, c=2.0, seed=31, metric=metric)
        queries = rng.uniform(-12, 12, size=(100, 6))
        reported, _ = ladder.query_batch(queries)
        exact, _ = build_index(b, metric).query_many(queries)
        assert np.all(reported >= exact - 1e-12)

    def test_scale_hits_are_monotone(self):
        rng = np.random.default_rng(17)
        b = PointSet(rng.uniform(0, 1, size=(150, 6)))
        ladder = build_ladder(b, c=2.0, seed=17)
        queries = rng.uniform(0, 1, size=(40, 6))
        reported, _ = ladder.query_batch(queries)
        for q, dist in zip(queries, reported):
            hits = scale_hits(ladder, q)
            first_true = next((i for i, h in enumerate(hits) if h), len(hits))
            assert all(hits[first_true:])
            # the batch walk retires a query no later than its first hit scale
            if first_true < len(hits):
                assert dist <= ladder.c * ladder.scales[first_true].radius

    def test_far_query_falls_back_to_exact_scan(self, monkeypatch):
        # the exact index is built on the first miss, once
        builds = []
        monkeypatch.setattr(cdut.ann, "build_index", lambda *args: builds.append(args) or build_index(*args))
        rng = np.random.default_rng(41)
        b = PointSet(rng.uniform(0, 1, size=(50, 4)))
        ladder = build_ladder(b, c=2.0, seed=41)
        ladder.query_batch(b.points)
        assert builds == []
        far = np.full((3, 4), 1e6) + rng.uniform(0, 1, size=(3, 4))
        for _ in range(2):
            reported, idx = ladder.query_batch(far)
            exact_d, exact_i = build_index(b).query_many(far)
            assert np.array_equal(reported, exact_d)
            assert np.array_equal(idx, exact_i)
        assert len(builds) == 1

    def test_dimension_mismatch(self):
        ladder = build_ladder(pts1([0.0, 5.0]), c=2.0, seed=0)
        with pytest.raises(ValueError, match="dimension|shape"):
            ladder.query_batch([[1.0, 2.0]])
