import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cdut.ann
import cdut.core
import cdut.decision
from cdut import (
    L1,
    L2,
    LINF,
    ChamferReport,
    PointSet,
    SeparationError,
    build_index,
    cdut_exact_1d,
    chamfer_translated,
    check_separation,
    decide_cdut,
    geometric_median,
    total_distance,
)
from cdut.core import difference_candidates
from cdut.decision import _FLOOR_SLACK, _min_pairwise, _total_floors
from cdut.instances import separated_planted_instance, uniform_instance

REL = 1e-9


def pts(rows):
    return PointSet(np.asarray(rows, dtype=np.float64))


def bits(x) -> bytes:
    return np.float64(x).tobytes()


@dataclass(frozen=True)
class DifferenceSet:
    """Per-point difference vectors b_assigned - a at one translation."""

    deltas: np.ndarray
    translation: np.ndarray
    assignment: np.ndarray


def difference_set(a, b, t, metric=L2):
    """Difference vectors induced by the exact nearest-neighbor assignment at t."""
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    _, idx = build_index(b, metric).query_many(a.points + t)
    return DifferenceSet(deltas=b.points[idx] - a.points, translation=t, assignment=idx)


class AssumptionError(ValueError):
    """An extra structural assumption failed, so the answer would be undefined."""


def verify_emd_equivalence(a, b, radius, epsilon, t_star):
    """Whether the nearest-neighbor assignment at ``t_star`` is injective.

    Requires all pairwise distances within A to exceed R(1 + eps); under
    that assumption a Chamfer assignment of cost at most R(1 + eps) is also
    a valid one-to-one transport plan, so the Chamfer and one-to-one
    variants agree on the decision.
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    bound = radius * (1.0 + epsilon)
    if len(a) > 1:
        min_a = _min_pairwise(a.points, L2)
        if not min_a > bound:
            raise AssumptionError(f"pairwise distances in A must exceed {bound:.6g}; found {min_a:.6g}")
    ds = difference_set(a, b, t_star)
    return int(np.unique(ds.assignment).size) == len(a)


def reference_decide(a, b, radius, epsilon, c, seed=0, anchors=6, metric=L2):
    """decide_cdut as one median per candidate row, repeated anchors included.

    Returns (answer, evidence, translations_tested), where translations_tested
    counts the rows of distinct anchors up to the answer.
    """
    m = len(a)
    anchor_idx = np.random.default_rng(seed).integers(0, m, size=max(1, anchors))
    translations = difference_candidates(a, b, anchor_idx)
    queries = (translations[:, None, :] + a.points[None, :, :]).reshape(-1, a.dim)
    nn_idx = build_index(b, metric).query_many(queries)[1].reshape(len(translations), m)
    accuracy = epsilon * radius / m
    best_s, best = math.inf, None
    for row, t in enumerate(translations):
        deltas = b.points[nn_idx[row]] - a.points
        median = geometric_median(deltas, accuracy)
        s = total_distance(deltas, median.point, metric)
        if s < best_s:
            best_s = s
            best = ChamferReport(
                value=s,
                translation=median.point,
                assignment=nn_idx[row],
                algorithm="decide",
                epsilon=epsilon,
                c=c,
                seed=seed,
                extras={"candidate": t.tolist(), "median_converged": median.converged},
            )
        if s <= radius * (1.0 + epsilon):
            # a repeated anchor's rows repeat earlier answers, so a YES row is a first draw
            earlier = np.unique(anchor_idx[: row // len(b)]).size
            return "YES", best, earlier * len(b) + row % len(b) + 1
    return "NO", best, np.unique(anchor_idx).size * len(b)


def two_nearest(b, queries):
    """l2 distances from each query to its nearest and second-nearest point of B."""
    dists = np.sort(np.linalg.norm(queries[:, None, :] - b.points[None, :, :], axis=-1), axis=1)
    return dists[:, 0], dists[:, 1]


class TestSeparation:
    def test_hand_computed_threshold(self):
        cert = check_separation(pts([[0.0], [100.0]]), c=1.5, radius=1.0, m=10)
        assert cert.threshold == pytest.approx(3.0, rel=REL)
        assert cert.min_pairwise_b == 100.0
        assert cert.holds

    def test_duplicate_point_always_fails(self):
        cert = check_separation(pts([[1.0], [1.0], [9.0]]), c=2.0, radius=0.5, m=4)
        assert cert.min_pairwise_b == 0.0
        assert not cert.holds

    def test_flips_exactly_at_threshold(self):
        base = pts([[0.0], [1.0], [2.5]])  # min pairwise gap 1.0
        c, radius, m = 2.0, 1.0, 8
        threshold = (c + 1.0) * (1.0 + 2.0 / m) * radius
        assert check_separation(PointSet(base.points * threshold), c, radius, m).holds
        assert not check_separation(PointSet(base.points * threshold * 0.999), c, radius, m).holds

    def test_single_point_is_vacuously_separated(self):
        assert check_separation(pts([[5.0]]), c=2.0, radius=1.0, m=3).holds

    @pytest.mark.parametrize("block", [1 << 22, 7], ids=["one-block", "tiled"])
    def test_min_pairwise_matches_the_loop(self, block, monkeypatch):
        def loop(points, metric):
            best = math.inf
            for i in range(len(points) - 1):
                best = min(best, float(metric.norms(points[i + 1 :] - points[i]).min()))
            return best

        monkeypatch.setattr(cdut.core, "_TILE_ENTRIES", block)
        rng = np.random.default_rng(5)
        for trial in range(60):
            n, d = 1 + trial % 13, (1, 2, 3, 16)[trial % 4]
            points = rng.integers(-3, 4, size=(n, d)).astype(np.float64)  # duplicates are common
            if trial % 3 == 0:
                points = points + rng.normal(scale=1e-3, size=points.shape)
            for metric in (L1, L2, LINF):
                assert bits(_min_pairwise(points, metric)) == bits(loop(points, metric))
        assert _min_pairwise(np.ones((1, 3)), L2) == math.inf
        assert _min_pairwise(np.zeros((4, 2)), L1) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError, match="c must exceed"):
            check_separation(pts([[0.0]]), c=1.0, radius=1.0, m=2)
        with pytest.raises(ValueError, match="radius"):
            check_separation(pts([[0.0]]), c=2.0, radius=0.0, m=2)


class TestGeometricMedian:
    def test_square_symmetry_forces_center(self):
        square = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        result = geometric_median(square, 1e-8)
        assert np.allclose(result.point, [0.5, 0.5], atol=1e-6)
        assert total_distance(square, result.point) == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-5)
        assert result.converged

    def test_1d_median_is_the_middle_point(self):
        line = np.array([[0.0], [2.0], [10.0]])
        result = geometric_median(line, 1e-8)
        assert result.point[0] == pytest.approx(2.0, abs=1e-7)
        assert total_distance(line, result.point) == pytest.approx(10.0, abs=1e-6)

    def test_single_point(self):
        point = np.array([[3.0, 4.0]])
        result = geometric_median(point, 1e-6)
        assert np.array_equal(result.point, [3.0, 4.0])
        assert total_distance(point, result.point) == 0.0

    def test_objective_matches_local_grid_search(self):
        rng = np.random.default_rng(12)
        accuracy = 1e-4
        for _ in range(5):
            cloud = rng.normal(size=(30, 3))
            result = geometric_median(cloud, accuracy)
            offsets = np.linspace(-5 * accuracy, 5 * accuracy, 11)
            grid = np.stack(np.meshgrid(offsets, offsets, offsets, indexing="ij"), axis=-1)
            probes = result.point + grid.reshape(-1, 3)
            objective = np.sum(
                np.sqrt(np.sum((cloud[None, :, :] - probes[:, None, :]) ** 2, axis=-1)), axis=1
            )
            assert total_distance(cloud, result.point) <= objective.min() + accuracy + 1e-12

    def test_optimal_data_point_is_recognized(self):
        # the middle of three collinear points is the exact median
        cloud = np.array([[0.0], [2.0], [10.0]])
        result = geometric_median(cloud, 1e-10)
        assert result.converged
        assert total_distance(cloud, result.point) <= 10.0 + 1e-9

    def test_validation(self):
        with pytest.raises(ValueError, match="accuracy"):
            geometric_median(np.array([[0.0]]), 0.0)


def point_sets(k, d):
    """Small integer grids, so duplicates and collinear sets are common."""
    return st.lists(
        st.lists(st.integers(-3, 3).map(float), min_size=d, max_size=d), min_size=k, max_size=k
    ).map(lambda rows: np.array(rows, dtype=np.float64).reshape(k, d))


class TestTotalFloors:
    """_total_floors never exceeds the total distance to any point."""

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        k=st.integers(1, 20),
        d=st.sampled_from([1, 2, 3, 16]),
        metric=st.sampled_from([L1, L2, LINF]),
        scale=st.sampled_from([1e-6, 1.0, 1e6]),
        jitter=st.booleans(),
    )
    def test_floor_is_below_every_total(self, data, k, d, metric, scale, jitter):
        deltas = data.draw(point_sets(k, d))
        rng = np.random.default_rng(k * 100 + d)
        if jitter:
            deltas = deltas + rng.normal(scale=0.3, size=deltas.shape)
        deltas = deltas * scale
        floor = float(_total_floors(deltas, metric)) * (1.0 - _FLOOR_SLACK)
        probes = [
            geometric_median(deltas, 1e-9 * scale).point,
            deltas.mean(axis=0),
            deltas[data.draw(st.integers(0, k - 1))],
            rng.normal(scale=2.0 * scale, size=d),
        ]
        for x in probes:
            assert floor <= total_distance(deltas, x, metric)

    def test_reduces_over_the_last_two_axes(self):
        block = np.random.default_rng(3).normal(size=(4, 7, 3))
        for metric in (L1, L2, LINF):
            floors = _total_floors(block, metric)
            assert floors.shape == (4,)
            for r in range(4):
                assert floors[r] == pytest.approx(float(_total_floors(block[r], metric)), rel=1e-12)

    def test_slack_covers_rounding_between_two_vectors(self):
        # with two vectors the total at the median equals the floor in exact
        # arithmetic, and rounding can leave the raw floor above it
        cases = [
            (L1, [[-0.7434992493538084, -0.9217253762584194], [-0.45772582566733916, 0.2201951234700494]]),
            (L2, [[-0.013914668524093734, 1.0418397592128221], [1.4022648267725224, 1.1501656361496921]]),
        ]
        for metric, rows in cases:
            deltas = np.array(rows)
            total = total_distance(deltas, geometric_median(deltas, 1e-9).point, metric)
            floor = float(_total_floors(deltas, metric))
            assert floor > total
            assert floor * (1.0 - _FLOOR_SLACK) <= total

    def test_single_vector_has_a_zero_floor(self):
        assert float(_total_floors(np.ones((1, 3)))) == 0.0


class TestDifferenceSets:
    def test_equality_at_inducing_translation(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            a, b = uniform_instance(int(rng.integers(2, 15)), int(rng.integers(2, 15)), 2, seed)
            t = rng.uniform(-10, 10, size=2)
            ds = difference_set(a, b, t)
            cd = chamfer_translated(a, t, b).value
            assert total_distance(ds.deltas, t) == pytest.approx(cd, rel=REL, abs=1e-9)

    def test_lower_bound_for_arbitrary_assignments(self):
        for seed in range(50):
            rng = np.random.default_rng(1000 + seed)
            a, b = uniform_instance(10, 12, 2, 1000 + seed)
            assignment = rng.integers(0, len(b), size=len(a))
            deltas = b.points[assignment] - a.points
            t = rng.uniform(-10, 10, size=2)
            cd = chamfer_translated(a, t, b).value
            assert total_distance(deltas, t) >= cd - 1e-9


class TestDecide:
    def test_exact_copy_is_yes_with_near_zero_witness(self):
        inst = separated_planted_instance(6, 12, 2, 1.0, 2.0, 0.25, "yes", seed=0)
        # strip the noise: exact translated subset
        rng = np.random.default_rng(0)
        b = inst.b
        a = PointSet(b.points[:6] - np.array([3.0, -2.0]))
        result = decide_cdut(a, b, radius=1.0, epsilon=0.25, c=2.0, seed=1)
        assert result.yes
        assert result.evidence.value <= 1e-6
        assert np.allclose(result.evidence.translation, [3.0, -2.0], atol=1e-6)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_planted_yes_and_no(self, dim):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            m = int(rng.integers(2, 6)) * 2
            n = int(rng.integers(m, 21))
            yes = separated_planted_instance(m, n, dim, 1.0, 2.0, 0.25, "yes", seed)
            no = separated_planted_instance(m, n, dim, 1.0, 2.0, 0.25, "no", seed)
            assert decide_cdut(yes.a, yes.b, 1.0, 0.25, 2.0, seed=seed).answer == "YES"
            assert decide_cdut(no.a, no.b, 1.0, 0.25, 2.0, seed=seed).answer == "NO"

    def test_planted_optima_verified_by_sweep(self):
        # 1D planted instances have exactly computable optima
        for seed in range(10):
            yes = separated_planted_instance(6, 12, 1, 1.0, 2.0, 0.25, "yes", seed)
            opt = cdut_exact_1d(yes.a, yes.b).value
            assert opt <= yes.meta["opt_upper"] + REL
            no = separated_planted_instance(6, 12, 1, 1.0, 2.0, 0.25, "no", seed)
            opt_no = cdut_exact_1d(no.a, no.b).value
            assert opt_no == pytest.approx(no.meta["opt_lower"], rel=1e-6)
            assert opt_no > 1.0 * (1.0 + 0.25)

    def test_planted_optima_verified_by_localnet_in_2d(self):
        from cdut import LocalNetConfig, cdut_localnet

        tight = LocalNetConfig(epsilon=0.15, delta=0.05)
        for seed in range(3):
            yes = separated_planted_instance(6, 12, 2, 1.0, 2.0, 0.25, "yes", seed)
            value = cdut_localnet(yes.a, yes.b, tight, seed=seed).value
            assert value <= 1.15 * yes.meta["opt_upper"] + REL  # so OPT <= R
            no = separated_planted_instance(6, 12, 2, 1.0, 2.0, 0.25, "no", seed)
            evidence = cdut_localnet(no.a, no.b, tight, seed=seed).value
            # the estimate never underestimates, so OPT >= value / 1.15
            assert evidence / 1.15 > 1.0 * (1.0 + 0.25)

    @pytest.mark.parametrize("metric", [L1, L2, LINF], ids=["l1", "l2", "linf"])
    @pytest.mark.parametrize("m,d", [(6, 1), (6, 2), (6, 16), (16, 1), (16, 2), (16, 16)])
    def test_planted_answers_in_every_metric(self, m, d, metric):
        # the YES noise has l2 norms summing to R/2, so in l1 the planted
        # shift can cost more than R: decide at that cost, which separation
        # still allows, while the NO optimum of 2R(1 + eps) holds in any lp
        for seed in range(3):
            yes = separated_planted_instance(m, 2 * m, d, 1.0, 2.0, 0.25, "yes", seed)
            no = separated_planted_instance(m, 2 * m, d, 1.0, 2.0, 0.25, "no", seed)
            radius = max(1.0, chamfer_translated(yes.a, yes.shift, yes.b, metric).value)
            assert decide_cdut(yes.a, yes.b, radius, 0.25, 2.0, seed=seed, metric=metric).answer == "YES"
            assert decide_cdut(no.a, no.b, 1.0, 0.25, 2.0, seed=seed, metric=metric).answer == "NO"

    def test_never_builds_a_ladder(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("decide_cdut built an LSH ladder")

        monkeypatch.setattr(cdut.decision, "build_ladder", refuse)
        monkeypatch.setattr(cdut.ann, "build_ladder", refuse)
        for answer in ("yes", "no"):
            inst = separated_planted_instance(16, 32, 16, 1.0, 2.0, 0.25, answer, 1)
            assert decide_cdut(inst.a, inst.b, 1.0, 0.25, 2.0, seed=1).answer == answer.upper()

    def test_refuses_unseparated_input(self):
        a, b = uniform_instance(5, 12, 1, 3)  # generic uniform B is not separated
        with pytest.raises(SeparationError) as err:
            decide_cdut(a, b, radius=10.0, epsilon=0.25, c=2.0, seed=0)
        assert not err.value.certificate.holds

    def test_epsilon_validation(self):
        inst = separated_planted_instance(4, 8, 1, 1.0, 2.0, 0.25, "yes", 0)
        with pytest.raises(ValueError, match="epsilon"):
            decide_cdut(inst.a, inst.b, 1.0, 0.0, 2.0)

    def test_alignment_and_c_uniqueness_near_optimum(self):
        for seed in range(10):
            inst = separated_planted_instance(8, 16, 2, 1.0, 2.0, 0.25, "yes", seed)
            t_star = inst.shift
            rng = np.random.default_rng(seed)
            base_idx = difference_set(inst.a, inst.b, t_star).assignment
            for _ in range(5):
                off = rng.normal(size=2)
                off *= rng.uniform(0, 2.0 / len(inst.a)) / np.linalg.norm(off)
                near = difference_set(inst.a, inst.b, t_star + off)
                assert np.array_equal(near.assignment, base_idx)
                nearest, runner_up = two_nearest(inst.b, inst.a.points + (t_star + off))
                assert np.all(runner_up >= 2.0 * nearest)

    def test_median_witness_is_nearly_optimal(self):
        for seed in range(10):
            inst = separated_planted_instance(6, 12, 1, 1.0, 2.0, 0.25, "yes", seed)
            opt = cdut_exact_1d(inst.a, inst.b).value
            result = decide_cdut(inst.a, inst.b, 1.0, 0.25, 2.0, seed=seed)
            assert result.yes
            witness_cost = chamfer_translated(inst.a, result.evidence.translation, inst.b).value
            assert witness_cost <= opt + 0.25 * 1.0 + REL


def assert_same_decision(result, want):
    answer, evidence, tested = want
    assert result.answer == answer
    assert result.translations_tested == tested
    assert bits(result.evidence.value) == bits(evidence.value)
    assert result.evidence.translation.tobytes() == evidence.translation.tobytes()
    assert result.evidence.assignment.tobytes() == evidence.assignment.tobytes()
    assert result.evidence.extras == evidence.extras


def recording_medians(monkeypatch):
    """Record every median decide_cdut computes through geometric_median."""
    medians = []

    def recording(points, accuracy):
        medians.append(geometric_median(points, accuracy))
        return medians[-1]

    monkeypatch.setattr(cdut.decision, "geometric_median", recording)
    return medians


class TestPrunedDecide:
    """decide_cdut against one median per candidate row."""

    @pytest.mark.parametrize("metric", [L1, L2, LINF], ids=["l1", "l2", "linf"])
    @pytest.mark.parametrize("m,n,d", [(6, 12, 1), (6, 12, 2), (6, 10, 16), (16, 24, 2), (16, 20, 16)])
    def test_matches_per_candidate_reference(self, m, n, d, metric, monkeypatch):
        medians = recording_medians(monkeypatch)
        repeats = rows = computed = 0
        for seed in range(3):
            for answer in ("yes", "no"):
                inst = separated_planted_instance(m, n, d, 1.0, 2.0, 0.25, answer, seed)
                want = reference_decide(inst.a, inst.b, 1.0, 0.25, 2.0, seed=seed, anchors=8, metric=metric)
                del medians[:]
                result = decide_cdut(inst.a, inst.b, 1.0, 0.25, 2.0, seed=seed, anchors=8, metric=metric)
                assert_same_decision(result, want)
                assert result.median_iterations == sum(med.iterations for med in medians)
                assert result.medians_nonconverged == sum(not med.converged for med in medians)
                anchor_idx = np.random.default_rng(seed).integers(0, m, size=8)
                repeats += 8 - np.unique(anchor_idx).size
                if result.answer == "NO":
                    rows += np.unique(anchor_idx).size * n
                    computed += len(medians)
        assert repeats > 0  # some anchors repeated, so skipping them was exercised
        assert computed < rows  # some candidates were ruled out by their floor

    @pytest.mark.parametrize("metric", [L1, L2, LINF], ids=["l1", "l2", "linf"])
    def test_matches_reference_on_unplanted_instances(self, metric):
        # a radius just inside B's separation makes every row a close call for
        # the evidence; at m = 2 a row's total equals its floor up to rounding
        c = 2.0
        for seed in range(40):
            m, n, d = (1, 2, 2, 3, 5, 8)[seed % 6], 3 + seed % 8, 1 + seed % 3
            a, b = uniform_instance(m, n, d, seed)
            gaps = metric.norms(b.points[:, None, :] - b.points[None, :, :])
            radius = 0.99 * gaps[~np.eye(n, dtype=bool)].min() / ((c + 1.0) * (1.0 + 2.0 / m))
            result = decide_cdut(a, b, radius, 0.25, c, seed=seed, metric=metric)
            assert_same_decision(result, reference_decide(a, b, radius, 0.25, c, seed=seed, metric=metric))

    def test_queries_distinct_anchors_only(self, monkeypatch):
        m, n = 6, 12
        inst = separated_planted_instance(m, n, 2, 1.0, 2.0, 0.25, "no", 0)
        anchor_idx = np.random.default_rng(0).integers(0, m, size=6)
        rows = []
        query = cdut.core.NearestIndex.query_many

        def counting(self, queries):
            rows.append(len(queries))
            return query(self, queries)

        monkeypatch.setattr(cdut.core.NearestIndex, "query_many", counting)
        result = decide_cdut(inst.a, inst.b, 1.0, 0.25, 2.0, seed=0)
        assert result.answer == "NO" and result.translations_tested == np.unique(anchor_idx).size * n
        # one query per distinct anchor, n*m rows each
        assert rows == [n * m] * np.unique(anchor_idx).size


class TestEmdEquivalence:
    def test_planted_yes_assignment_is_injective(self):
        inst = separated_planted_instance(6, 12, 2, 1.0, 2.0, 0.25, "yes", seed=4)
        assert verify_emd_equivalence(inst.a, inst.b, 1.0, 0.25, inst.shift)

    def test_near_identical_a_points_rejected(self):
        a = pts([[0.0, 0.0], [0.05, 0.0]])
        b = pts([[10.0, 0.0], [30.0, 0.0]])
        with pytest.raises(AssumptionError):
            verify_emd_equivalence(a, b, 1.0, 0.25, np.zeros(2))

    def test_singleton_a_is_always_injective(self):
        a = pts([[0.0]])
        b = pts([[5.0], [9.0]])
        assert verify_emd_equivalence(a, b, 1.0, 0.25, np.array([5.0]))
