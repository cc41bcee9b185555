import numpy as np
import pytest

import cdut.ann
from cdut import L1, L2, LINF, PointSet, build_index, build_ladder
from cdut.ann import _family_for, _has_close_bucket_pair, _Scale, _Table
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
                assert np.array_equal(t1.bucket_ids, t2.bucket_ids)
                assert np.array_equal(t1.order, t2.order)
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
        with pytest.raises(ValueError, match="miss_prob"):
            build_ladder(b, c=2.0, miss_prob=1.5)


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
        order = table.order
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
            sorted_ids = old_hash(table, b)[table.order]
            want, (hit, bucket) = old_candidates(sorted_ids, table.order, qids), table.lookup(qids)
            assert (want[0] is None) == (hit.size == 0)
            if hit.size:
                got = table.members(hit, bucket)
                assert np.array_equal(want[0], got[0]) and np.array_equal(want[1], got[1])

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
        assert sorted(table.bucket_size) == [1, 1, 2]
        assert _has_close_bucket_pair(_Scale(2.5, [table]), pair, L2, 1.0)
        assert not _has_close_bucket_pair(_Scale(2.5, [table]), pair, L2, 0.05)


class RecordingMetric:
    """The ladder's metric, recording the shape of every array it measures."""

    def __init__(self, metric):
        self.metric, self.shapes = metric, []

    def norms(self, vectors):
        self.shapes.append(vectors.shape)
        return self.metric.norms(vectors)


class TestTiledProbe:
    @pytest.mark.parametrize("metric", [L1, L2, LINF], ids=["l1", "l2", "linf"])
    def test_tiles_give_the_untiled_answer(self, monkeypatch, metric):
        rng = np.random.default_rng(53)
        b = PointSet(rng.uniform(0, 1, size=(80, 6)))
        queries = rng.uniform(-0.2, 1.2, size=(120, 6))
        ladder = build_ladder(b, c=2.0, seed=53, metric=metric)
        untiled = RecordingMetric(metric)
        ladder.metric = untiled
        want = ladder.query_batch(queries)
        assert max(rows * d for rows, d in untiled.shapes) > 48  # the default cap did not tile
        monkeypatch.setattr(cdut.core, "_TILE_ENTRIES", 48)
        tiled = RecordingMetric(metric)
        ladder.metric = tiled
        got = ladder.query_batch(queries)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert max(rows * d for rows, d in tiled.shapes) <= 48
        assert len(tiled.shapes) > len(untiled.shapes)
        # coarse scales put more than 8 members in one bucket, so one row's
        # members are split between blocks
        assert max(t.bucket_size.max() for s in ladder.scales for t in s.tables) > 8
        assert sum(rows for rows, _ in tiled.shapes) == sum(rows for rows, _ in untiled.shapes)


class TestQuery:
    def test_member_point_is_found_at_distance_zero(self):
        b, _ = uniform_instance(40, 5, 3, 2)
        ladder = build_ladder(b, c=2.0, seed=2)
        dist, _ = ladder.query_batch(b.points[[0, 7, 39]])
        assert np.all(dist == 0.0)

    def test_query_at_exactly_l_stays_within_factor(self):
        b = pts1([0.0, 10.0, 20.0, 30.0])
        ladder = build_ladder(b, c=2.0, U=60.0, seed=3, miss_prob=1e-3)
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

    def test_far_query_falls_back_to_exact_scan(self):
        rng = np.random.default_rng(41)
        b = PointSet(rng.uniform(0, 1, size=(50, 4)))
        ladder = build_ladder(b, c=2.0, seed=41)
        far = np.full((3, 4), 1e6) + rng.uniform(0, 1, size=(3, 4))
        reported, idx = ladder.query_batch(far)
        exact_d, exact_i = build_index(b).query_many(far)
        assert np.array_equal(reported, exact_d)
        assert np.array_equal(idx, exact_i)

    def test_dimension_mismatch(self):
        ladder = build_ladder(pts1([0.0, 5.0]), c=2.0, seed=0)
        with pytest.raises(ValueError, match="dimension|shape"):
            ladder.query_batch([[1.0, 2.0]])
