import numpy as np
import pytest

from cdut import L1, LINF, PointSet, build_index, build_ladder
from cdut.instances import uniform_instance


def pts1(values):
    return PointSet(np.asarray(values, dtype=np.float64)[:, None])


def scale_hits(ladder, q):
    """Per-scale success flags for one query, every table of every scale probed."""
    q = np.asarray(q, dtype=np.float64).reshape(1, -1)
    best_d, best_i = ladder._exact_lookup(q)
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
                assert np.array_equal(t1.sorted_ids, t2.sorted_ids)
                assert np.array_equal(t1.proj, t2.proj)

    def test_distinct_seeds_give_distinct_tables(self):
        b, _ = uniform_instance(60, 5, 4, 9)
        first = build_ladder(b, c=2.0, seed=5)
        second = build_ladder(b, c=2.0, seed=6)
        assert not np.array_equal(first.scales[0].tables[0].proj, second.scales[0].tables[0].proj)

    def test_single_point_degenerates_to_exact_table(self):
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


class TestQuery:
    def test_member_point_hits_exact_table(self):
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
