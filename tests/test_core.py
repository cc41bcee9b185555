import numpy as np
import pytest

import cdut.core
from cdut import (
    L1,
    L2,
    LINF,
    Metric,
    PointSet,
    bbox_diameter,
    build_index,
    chamfer,
    chamfer_many,
    chamfer_translated,
)
from cdut.instances import uniform_instance

REL = 1e-9
ABS = 1e-12


def pts(rows):
    return PointSet(np.asarray(rows, dtype=np.float64))


class TestChamfer:
    def test_single_pair_euclidean(self):
        report = chamfer(pts([[0.0, 0.0]]), pts([[3.0, 4.0]]))
        assert report.value == pytest.approx(5.0, rel=REL)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_identity_is_zero(self, seed):
        a, _ = uniform_instance(12, 5, 3, seed)
        report = chamfer(a, a)
        assert report.value == 0.0
        assert np.array_equal(report.assignment, np.arange(12))

    def test_hand_enumerated_1d(self):
        # nearest distances: 0->2, 1->2, 9->8
        report = chamfer(pts([[0.0], [1.0], [9.0]]), pts([[2.0], [8.0]]))
        assert report.value == pytest.approx(4.0, rel=REL)
        assert report.assignment.tolist() == [0, 0, 1]

    def test_tie_breaks_to_lowest_index(self):
        report = chamfer(pts([[0.0]]), pts([[1.0], [-1.0]]))
        assert report.assignment.tolist() == [0]

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            chamfer(pts([[0.0, 0.0]]), pts([[1.0]]))

    def test_value_matches_assignment_sum(self):
        a, b = uniform_instance(40, 25, 4, 7)
        report = chamfer(a, b)
        recomputed = float(np.sum(L2.norms(a.points - b.points[report.assignment])))
        assert report.value == pytest.approx(recomputed, rel=REL)


class TestChamferTranslated:
    def test_exact_overlay(self):
        report = chamfer_translated(pts([[0.0, 0.0]]), [3.0, 4.0], pts([[3.0, 4.0]]))
        assert report.value == 0.0

    def test_hand_checked_shift(self):
        report = chamfer_translated(pts([[0.0], [1.0]]), [1.0], pts([[0.0], [2.0]]))
        assert report.value == pytest.approx(1.0, rel=REL)

    def test_zero_translation_matches_chamfer(self):
        a, b = uniform_instance(15, 18, 2, 3)
        plain = chamfer(a, b)
        shifted = chamfer_translated(a, np.zeros(2), b)
        assert shifted.value == plain.value
        assert np.array_equal(shifted.assignment, plain.assignment)

    def test_input_not_mutated(self):
        a, b = uniform_instance(6, 6, 2, 11)
        before = a.points.copy()
        chamfer_translated(a, [5.0, -2.0], b)
        assert np.array_equal(a.points, before)

    def test_consistency_with_manual_shift(self):
        a, b = uniform_instance(9, 14, 3, 5)
        t = np.array([0.3, -4.0, 1.5])
        via_op = chamfer_translated(a, t, b)
        via_shift = chamfer(a.translated(t), b)
        assert via_op.value == via_shift.value
        assert np.array_equal(via_op.assignment, via_shift.assignment)

    def test_bad_translation_length(self):
        a, b = uniform_instance(3, 3, 2, 0)
        with pytest.raises(ValueError, match="translation"):
            chamfer_translated(a, [1.0, 2.0, 3.0], b)


class TestNearestIndex:
    def test_simple_query(self):
        index = build_index(pts([[0.0, 0.0], [10.0, 0.0]]))
        dist, idx = index.query_many([[1.0, 0.0]])
        assert (dist[0], idx[0]) == (1.0, 0)

    def test_indexed_point_has_zero_distance(self):
        b = pts([[2.0, 3.0], [5.0, 1.0]])
        for backend in ("brute", "kdtree"):
            dist, idx = build_index(b, backend=backend).query_many([[5.0, 1.0]])
            assert dist[0] == 0.0
            assert idx[0] == 1

    @pytest.mark.parametrize("metric", [L1, L2, LINF])
    def test_matches_brute_scan(self, metric):
        rng = np.random.default_rng(42)
        b = PointSet(rng.uniform(-50, 50, size=(200, 3)))
        queries = rng.uniform(-60, 60, size=(50, 3))
        kd_d, kd_i = build_index(b, metric, "kdtree").query_many(queries)
        br_d, br_i = build_index(b, metric, "brute").query_many(queries)
        assert np.array_equal(kd_i, br_i)
        assert np.array_equal(kd_d, br_d)

    def test_backend_equivalence_on_random_instances(self):
        # values and assignments agree bit-for-bit after tie-breaking
        for seed in range(100):
            rng = np.random.default_rng(seed)
            m = int(rng.integers(1, 201))
            n = int(rng.integers(1, 201))
            d = int(rng.integers(1, 9))
            a, b = uniform_instance(m, n, d, seed)
            kd = chamfer(a, b, index=build_index(b, backend="kdtree"))
            br = chamfer(a, b, index=build_index(b, backend="brute"))
            assert kd.value == br.value
            assert np.array_equal(kd.assignment, br.assignment)

    def test_brute_chunks_cap_the_difference_tensor(self, monkeypatch):
        # every chunk's (rows, n, d) tensor stays under the cap, d included
        cap = 1 << 10
        monkeypatch.setattr(cdut.core, "_TILE_ENTRIES", cap)
        rng = np.random.default_rng(3)
        b = PointSet(rng.integers(-3, 4, size=(15, 3)).astype(np.float64))
        queries = rng.integers(-4, 5, size=(500, 3)).astype(np.float64)
        index = build_index(b, L1, "brute")
        shapes = []
        full = index._distance_matrix

        def recording(q):
            shapes.append(q.shape)
            return full(q)

        monkeypatch.setattr(index, "_distance_matrix", recording)
        dist, idx = index.query_many(queries)
        assert len(shapes) > 1 and sum(rows for rows, _ in shapes) == len(queries)
        assert all(rows * len(b) * b.dim <= cap for rows, _ in shapes)
        # integer grids tie often: chunking keeps the first minimum
        ref = L1.norms(queries[:, None, :] - b.points[None, :, :])
        assert np.array_equal(idx, np.argmin(ref, axis=1))
        assert np.array_equal(dist, ref.min(axis=1))

    def test_tie_normalization_with_duplicates(self):
        b = pts([[1.0], [1.0], [3.0], [3.0]])
        for backend in ("brute", "kdtree"):
            _, idx = build_index(b, backend=backend).query_many(np.array([[1.0], [2.0], [3.0]]))
            assert idx.tolist() == [0, 0, 2]

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            PointSet(np.empty((0, 2)))

    def test_bad_backend(self):
        with pytest.raises(ValueError, match="backend"):
            build_index(pts([[0.0]]), backend="octree")


class TestInvariants:
    def test_nonnegative_and_zero_iff_coincident(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            a, b = uniform_instance(8, 10, 2, seed)
            t = rng.uniform(-5, 5, size=2)
            report = chamfer_translated(a, t, b)
            assert report.value >= 0.0
        # planted coincidence: integer coordinates make the shift exact
        base = pts([[1.0, 2.0], [5.0, -3.0]])
        shifted = PointSet(base.points + np.array([7.0, 11.0]))
        assert chamfer_translated(base, [7.0, 11.0], shifted).value == 0.0

    def test_joint_shift_invariance(self):
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            a, b = uniform_instance(12, 9, 3, seed)
            s = rng.uniform(-40, 40, size=3)
            before = chamfer(a, b).value
            after = chamfer(PointSet(a.points + s), PointSet(b.points + s)).value
            assert after == pytest.approx(before, rel=REL, abs=ABS)

    def test_not_symmetric(self):
        a, b = uniform_instance(5, 40, 2, 1)
        forward = chamfer(a, b).value
        backward = chamfer(b, a).value
        assert forward != backward

    def test_chamfer_many_matches_single_evaluations(self):
        a, b = uniform_instance(7, 9, 2, 3)
        rng = np.random.default_rng(8)
        ts = rng.uniform(-10, 10, size=(25, 2))
        batched = chamfer_many(a, ts, b)
        singles = [chamfer_translated(a, t, b).value for t in ts]
        assert np.allclose(batched, singles, rtol=REL, atol=ABS)


class TestMetric:
    def test_names_round_trip(self):
        for name in ("l1", "l2", "linf"):
            assert Metric.from_name(name).name == name

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown metric"):
            Metric.from_name("l3")

    def test_unsupported_p(self):
        with pytest.raises(ValueError, match="unsupported metric"):
            Metric(3.0)

    @pytest.mark.parametrize("metric", [L1, L2, LINF])
    def test_metric_axioms_on_sampled_triples(self, metric):
        rng = np.random.default_rng(0)
        for _ in range(200):
            x, y, z = rng.uniform(-10, 10, size=(3, 4))
            dxy = metric.distance(x, y)
            assert dxy >= 0.0
            assert metric.distance(x, x) == 0.0
            assert dxy <= metric.distance(x, z) + metric.distance(z, y) + ABS

    def test_l1_linf_hand_values(self):
        assert L1.distance([0.0, 0.0], [3.0, 4.0]) == 7.0
        assert LINF.distance([0.0, 0.0], [3.0, 4.0]) == 4.0


class TestPointSet:
    def test_immutable_after_construction(self):
        ps = pts([[1.0, 2.0]])
        with pytest.raises(ValueError):
            ps.points[0, 0] = 9.0

    def test_duplicates_allowed(self):
        ps = pts([[1.0], [1.0], [1.0]])
        assert len(ps) == 3

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            pts([[np.nan]])
        with pytest.raises(ValueError, match="finite"):
            pts([[np.inf, 0.0]])

    def test_1d_list_promotes_to_column(self):
        ps = PointSet(np.array([1.0, 2.0, 3.0]))
        assert ps.dim == 1
        assert len(ps) == 3

    def test_bbox_diameter_upper_bounds_true_diameter(self):
        a, _ = uniform_instance(30, 5, 3, 9)
        true_diam = max(
            L2.distance(p, q) for p in a.points for q in a.points
        )
        assert bbox_diameter(a) >= true_diam - ABS
