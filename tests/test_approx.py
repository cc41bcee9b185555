import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cdut.ann
import cdut.approx
from cdut import (
    L1,
    L2,
    LINF,
    PointSet,
    cdut_approx_v1,
    cdut_approx_v2,
    cdut_exact_1d,
    chamfer_many,
    chamfer_translated,
    oracle_cdut_1d,
    sample_anchors,
)
from cdut.ann import build_ladder
from cdut.approx import DEFAULT_DELTA
from cdut.core import anchor_count, bbox_diameter, build_index, difference_candidates
from cdut.oracle import default_grid_spec, oracle_cdut_grid
from cdut.instances import translated_copy_instance, uniform_instance

REL = 1e-9
E3 = math.exp(-3.0)
# the ladder query that the schedule tests patch, kept for their references
QUERY_BATCH = cdut.ann.ScaleLadder.query_batch


def random_sizes(seed, lo=5, hi=21):
    rng = np.random.default_rng(seed)
    return int(rng.integers(lo, hi)), int(rng.integers(lo, hi))


def raw_draws(m, epsilon, seed):
    """The with-replacement draw the sampler keeps the distinct values of."""
    return np.random.default_rng(seed).integers(0, m, size=anchor_count(epsilon, DEFAULT_DELTA))


def ladder_scan(a, b, anchors, c, seed, metric, query=QUERY_BATCH):
    """Every candidate of ``anchors`` scored on the ladder that approx-v2 builds.

    Returns the candidates, their ladder sums and their (candidates, m)
    assignments, from one ``query`` of every candidate row.
    """
    candidates = difference_candidates(a, b, anchors)
    ladder = build_ladder(b, c, U=bbox_diameter(a, metric) + bbox_diameter(b, metric), seed=seed, metric=metric)
    dists, idx = query(ladder, (candidates[:, None, :] + a.points[None, :, :]).reshape(-1, a.dim))
    return candidates, dists.reshape(len(candidates), len(a)).sum(axis=1), idx.reshape(len(candidates), len(a))


def record_ladder_queries(monkeypatch, query=QUERY_BATCH) -> list:
    """Patch the ladder to answer by ``query`` and keep a copy of every query array."""
    calls = []

    def recording(self, queries):
        calls.append(np.array(queries))
        return query(self, queries)

    monkeypatch.setattr(cdut.ann.ScaleLadder, "query_batch", recording)
    return calls


def assert_scored_once(calls, a, b, anchors, per_group):
    """No candidate's rows reached the ladder twice, and no call held more
    than ``per_group`` anchors' rows.

    A repeated point of A gives two candidates the same rows, so a block of
    m rows may reach the ladder as often as candidates of ``anchors`` give it.
    """
    m, n = len(a), len(b)
    candidates = difference_candidates(a, b, anchors)
    given = Counter(block.tobytes() for block in candidates[:, None, :] + a.points[None, :, :])
    sent = Counter(block.tobytes() for q in calls for block in q.reshape(-1, m, a.dim))
    assert not sent - given
    assert sum(len(q) for q in calls) <= anchors.size * n * m
    assert max(len(q) for q in calls) <= per_group * n * m


class TestAnchors:
    def test_counts_match_the_failure_budget(self):
        assert anchor_count(1.0, E3) == 6
        assert anchor_count(0.25, E3) == 24

    def test_deterministic_and_in_range(self):
        first = sample_anchors(10, anchor_count(0.5, 0.1), seed=9)
        second = sample_anchors(10, anchor_count(0.5, 0.1), seed=9)
        assert np.array_equal(first, second)
        assert first.min() >= 0 and first.max() < 10

    def test_validation(self):
        with pytest.raises(ValueError):
            anchor_count(0.0, 0.1)
        with pytest.raises(ValueError):
            anchor_count(0.5, 1.0)

    @settings(max_examples=200, deadline=None)
    @given(m=st.integers(1, 40), k=st.integers(0, 60), seed=st.integers(0, 2**31 - 1))
    def test_distinct_draws_in_first_draw_order(self, m, k, seed):
        draws = np.random.default_rng(seed).integers(0, m, size=k)
        got = sample_anchors(m, k, seed)
        assert got.tolist() == list(dict.fromkeys(draws.tolist()))
        assert got.size <= min(k, m)


class TestVariantOne:
    def test_translated_copy_is_zero(self):
        inst = translated_copy_instance(10, 1, seed=4)
        for eps in (0.25, 0.9):
            report = cdut_approx_v1(inst.a, inst.b, eps, seed=1)
            assert report.value == 0.0

    def test_ratio_against_sweep(self):
        for eps in (0.25, 0.5):
            for seed in range(30):
                m, n = random_sizes(10_000 + seed)
                a, b = uniform_instance(m, n, 1, 10_000 + seed)
                opt = cdut_exact_1d(a, b).value
                got = cdut_approx_v1(a, b, eps, seed=seed).value
                assert got >= opt - REL
                assert got <= (2.0 + eps) * opt + REL

    def test_2d_instance_against_grid_oracle(self):
        eps = 0.5
        for seed in range(5):
            a, b = uniform_instance(8, 8, 2, 77_000 + seed, low=-10, high=10)
            got = cdut_approx_v1(a, b, eps, seed=seed).value
            grid = oracle_cdut_grid(a, b, spec=default_grid_spec(a, b, resolution=0.1))
            # grid value over-estimates OPT by at most slack
            assert got <= (2.0 + eps) * grid.value + REL
            assert got >= grid.value - grid.extras["slack"] - REL

    def test_monotone_in_epsilon_on_average(self):
        tight, loose = [], []
        for seed in range(50):
            m, n = random_sizes(20_000 + seed, lo=6, hi=16)
            a, b = uniform_instance(m, n, 1, 20_000 + seed)
            tight.append(cdut_approx_v1(a, b, 0.1, seed=seed).value)
            loose.append(cdut_approx_v1(a, b, 0.9, seed=seed).value)
        assert np.mean(tight) <= np.mean(loose) + REL

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(1, 12),
        n=st.integers(1, 20),
        d=st.integers(1, 3),
        epsilon=st.sampled_from([0.25, 0.5, 0.9]),
        metric=st.sampled_from([L1, L2, LINF]),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_matches_a_full_scan_over_every_draw(self, m, n, d, epsilon, metric, seed):
        # small integer coordinates: many candidates tie for the minimum
        rng = np.random.default_rng(seed)
        a, b = PointSet(rng.integers(0, 4, (m, d))), PointSet(rng.integers(0, 4, (n, d)))
        report = cdut_approx_v1(a, b, epsilon, seed=seed, metric=metric)
        draws = raw_draws(m, epsilon, seed)
        candidates = difference_candidates(a, b, draws)
        best = int(np.argmin(chamfer_many(a, candidates, b, metric)))
        want = chamfer_translated(a, candidates[best], b, metric)
        assert np.float64(report.value).tobytes() == np.float64(want.value).tobytes()
        assert report.translation.tobytes() == want.translation.tobytes()
        assert report.assignment.tobytes() == want.assignment.tobytes()
        assert report.extras["source_a"] == int(draws[best // n])
        assert report.extras["source_b"] == best % n
        assert report.extras["anchors"] == np.unique(draws).size
        assert report.evaluations == np.unique(draws).size * n


class TestVariantTwo:
    def test_identity_is_zero(self):
        a, _ = uniform_instance(10, 5, 1, 3)
        report = cdut_approx_v2(a, a, 0.5, c=2.0, seed=3)
        assert report.value == 0.0

    def test_ratio_and_no_underestimate(self):
        hit = 0
        runs = 40
        for seed in range(runs):
            m, n = random_sizes(30_000 + seed)
            a, b = uniform_instance(m, n, 1, 30_000 + seed)
            opt = cdut_exact_1d(a, b).value
            got = cdut_approx_v2(a, b, 0.5, c=2.0, seed=seed).value
            assert got >= opt - REL
            if got <= (2.0 + 0.5) * 2.0 * opt + REL:
                hit += 1
        assert hit >= 0.9 * runs

    def test_reports_carry_parameters(self):
        a, b = uniform_instance(6, 8, 1, 1)
        report = cdut_approx_v2(a, b, 0.25, c=2.0, seed=5)
        assert report.algorithm == "approx-v2"
        assert report.epsilon == 0.25
        assert report.c == 2.0
        assert report.seed == 5
        assert report.evaluations == report.extras["anchors"] * len(b)

    def test_c_validation(self):
        a, b = uniform_instance(4, 4, 1, 0)
        with pytest.raises(ValueError, match="c must exceed"):
            cdut_approx_v2(a, b, 0.5, c=1.0)

    @pytest.mark.parametrize("metric", [L1, L2, LINF], ids=["l1", "l2", "linf"])
    def test_repeated_anchors_queried_once_with_identical_reports(self, metric, monkeypatch):
        calls = record_ladder_queries(monkeypatch)
        repeats = 0
        for seed in range(6):
            m, n = random_sizes(40_000 + seed, 4, 12)
            a, b = uniform_instance(m, n, 3, 40_000 + seed)
            del calls[:]
            report = cdut_approx_v2(a, b, 0.5, c=2.0, seed=seed, metric=metric)
            # reference: every candidate row queried, repeats included
            anchors = raw_draws(m, 0.5, seed)
            candidates, sums, idx = ladder_scan(a, b, anchors, 2.0, seed, metric)
            best = int(np.argmin(sums))
            assert np.float64(report.value).tobytes() == np.float64(sums[best]).tobytes()
            assert report.translation.tobytes() == candidates[best].tobytes()
            assert report.assignment.tobytes() == idx[best].tobytes()
            assert report.extras["source_a"] == int(anchors[best // n])
            assert report.extras["source_b"] == best % n
            assert_scored_once(calls, a, b, np.unique(anchors), per_group=np.unique(anchors).size)
            repeats += anchors.size - np.unique(anchors).size
        assert repeats > 0

    @pytest.mark.parametrize("metric", [L1, L2, LINF], ids=["l1", "l2", "linf"])
    def test_anchor_groups_give_the_ungrouped_report(self, metric, monkeypatch):
        calls = record_ladder_queries(monkeypatch)
        exact = []  # candidates per exact pass
        many = cdut.approx.chamfer_many

        def counting(a, translations, *args):
            exact.append(len(translations))
            return many(a, translations, *args)

        monkeypatch.setattr(cdut.approx, "chamfer_many", counting)
        default = cdut.core._TILE_ENTRIES
        for seed in range(4):
            m, n = random_sizes(45_000 + seed, 4, 12)
            a, b = uniform_instance(m, n, 3, 45_000 + seed)
            # every point of A twice: two anchors share their candidates, so
            # sums tie across groups and the first group must keep the win
            a, m = PointSet(np.vstack([a.points, a.points])), 2 * m
            anchors = sample_anchors(m, anchor_count(0.5, DEFAULT_DELTA), seed)
            del calls[:]
            want = cdut_approx_v2(a, b, 0.5, c=2.0, seed=seed, metric=metric)
            assert_scored_once(calls, a, b, anchors, per_group=anchors.size)  # one group by default
            for per_group in (1, 2, 5):
                monkeypatch.setattr(cdut.core, "_TILE_ENTRIES", per_group * n * m * 3)
                del calls[:], exact[:]
                got = cdut_approx_v2(a, b, 0.5, c=2.0, seed=seed, metric=metric)
                assert_scored_once(calls, a, b, anchors, per_group)
                assert max(exact) <= per_group * n and sum(exact) == anchors.size * n
                assert np.float64(got.value).tobytes() == np.float64(want.value).tobytes()
                assert got.translation.tobytes() == want.translation.tobytes()
                assert got.assignment.tobytes() == want.assignment.tobytes()
                assert (got.evaluations, got.extras) == (want.evaluations, want.extras)
            monkeypatch.setattr(cdut.core, "_TILE_ENTRIES", default)

    @settings(max_examples=80, deadline=None)
    @given(
        m=st.integers(1, 10),
        n=st.integers(1, 40),
        d=st.sampled_from([1, 2, 3, 16]),
        metric=st.sampled_from([L1, L2, LINF]),
        side=st.sampled_from([1, 2, 4, 1000]),
        offset=st.sampled_from([0.0, 1e12]),
        twice=st.booleans(),
        one_point=st.booleans(),
        seed=st.integers(0, 2**31 - 1),
    )
    # B of 40 points in l1 at d = 2: the exact pass runs on the kd-tree
    @example(m=6, n=40, d=2, metric=L1, side=4, offset=0.0, twice=False, one_point=False, seed=3)
    # one point of A, and B one point repeated: a ladder with no scales
    @example(m=1, n=5, d=3, metric=L2, side=4, offset=1e12, twice=False, one_point=True, seed=11)
    @example(m=1, n=7, d=16, metric=LINF, side=2, offset=0.0, twice=False, one_point=False, seed=5)
    def test_pruned_report_is_the_full_ladder_scan(self, m, n, d, metric, side, offset, twice, one_point, seed):
        # small integer lattices tie many sums; A twice over ties them across anchors
        rng = np.random.default_rng(seed)
        a = rng.integers(0, side, (m, d)) + offset
        b = rng.integers(0, side, (1 if one_point else n, d)) + offset
        if twice:
            a, m = np.vstack([a, a]), 2 * m
        a, b = PointSet(a), PointSet(np.repeat(b, n, axis=0) if one_point else b)
        report = cdut_approx_v2(a, b, 0.5, c=2.0, seed=seed, metric=metric)
        anchors = raw_draws(m, 0.5, seed)
        candidates, sums, idx = ladder_scan(a, b, anchors, 2.0, seed, metric)
        best = int(np.argmin(sums))
        assert np.float64(report.value).tobytes() == np.float64(sums[best]).tobytes()
        assert report.translation.tobytes() == candidates[best].tobytes()
        assert report.assignment.tobytes() == idx[best].tobytes()
        assert report.extras["source_a"] == int(anchors[best // n])
        assert report.extras["source_b"] == best % n
        assert report.extras["anchors"] == np.unique(anchors).size
        assert report.evaluations == np.unique(anchors).size * n

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(1, 8),
        n=st.integers(1, 12),
        d=st.integers(1, 3),
        metric=st.sampled_from([L1, L2, LINF]),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_ladder_sums_tied_above_their_bounds(self, m, n, d, metric, seed):
        # A stand-in ladder keeps the contract that the pruning rests on: a
        # row's distance is a function of the row, never below the exact
        # nearest distance.  It adds 0 or 1 by the row's coordinates, so on
        # integer points many ladder sums tie while their exact sums differ,
        # and the first candidate at the least ladder sum must still win.
        def raised(self, queries):
            dist, idx = build_index(self.source, self.metric).query_many(queries)
            return dist + np.floor(queries).sum(axis=1) % 2, idx

        rng = np.random.default_rng(seed)
        a, b = PointSet(rng.integers(0, 4, (m, d))), PointSet(rng.integers(0, 4, (n, d)))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cdut.ann.ScaleLadder, "query_batch", raised)
            report = cdut_approx_v2(a, b, 0.5, c=2.0, seed=seed, metric=metric)
        anchors = raw_draws(m, 0.5, seed)
        candidates, sums, idx = ladder_scan(a, b, anchors, 2.0, seed, metric, query=raised)
        best = int(np.argmin(sums))
        assert np.float64(report.value).tobytes() == np.float64(sums[best]).tobytes()
        assert report.translation.tobytes() == candidates[best].tobytes()
        assert report.assignment.tobytes() == idx[best].tobytes()
        assert report.extras["source_a"] == int(anchors[best // n])
        assert report.extras["source_b"] == best % n

    @pytest.mark.parametrize("per_group", [1, 2, 5])
    def test_unpruned_candidates_reach_the_ladder_a_tile_at_a_time(self, per_group, monkeypatch):
        # a stand-in ladder 1e9 above the exact distances: no exact sum
        # clears the best ladder sum, so every candidate is scored
        def raised(self, queries):
            dist, idx = build_index(self.source, self.metric).query_many(queries)
            return dist + 1e9, idx

        calls = record_ladder_queries(monkeypatch, query=raised)
        a, b = uniform_instance(9, 7, 3, 46_000)
        anchors = sample_anchors(9, anchor_count(0.5, DEFAULT_DELTA), 2)
        monkeypatch.setattr(cdut.core, "_TILE_ENTRIES", per_group * 7 * 9 * 3)
        report = cdut_approx_v2(a, b, 0.5, c=2.0, seed=2)
        assert_scored_once(calls, a, b, anchors, per_group)
        assert sum(len(q) for q in calls) == anchors.size * 7 * 9
        candidates, sums, idx = ladder_scan(a, b, anchors, 2.0, 2, L2, query=raised)
        best = int(np.argmin(sums))
        assert np.float64(report.value).tobytes() == np.float64(sums[best]).tobytes()
        assert report.translation.tobytes() == candidates[best].tobytes()
        assert report.assignment.tobytes() == idx[best].tobytes()

    def test_a_bound_equal_to_the_least_ladder_sum_is_still_scored(self, monkeypatch):
        # A = {0, 1}, B = {0, 1}, and the first anchor drawn at seed 0 is
        # a = 1.  A stand-in ladder adds 1 at the odd positive rows.  The
        # first candidate, t = -1, has exact sum 1 and ladder sum 1.  The two
        # with t = 0 have exact sum 0 and ladder sum 1, and they are the
        # n = 2 least exact sums that the first ladder call holds.  So the
        # bound is 1 when t = -1 is reached, and only a bound tested with
        # <= lets the first candidate win.
        def raised(self, queries):
            dist, idx = build_index(self.source, self.metric).query_many(queries)
            q = np.floor(queries[:, 0])
            return dist + ((q > 0) & (q % 2 == 1)), idx

        monkeypatch.setattr(cdut.ann.ScaleLadder, "query_batch", raised)
        a, b = PointSet(np.array([[0.0], [1.0]])), PointSet(np.array([[0.0], [1.0]]))
        report = cdut_approx_v2(a, b, 0.5, c=2.0, seed=0)
        assert (report.value, report.translation.tolist()) == (1.0, [-1.0])
        assert (report.extras["source_a"], report.extras["source_b"]) == (1, 0)


class TestCandidateLemmas:
    def test_candidate_min_is_a_two_approximation(self):
        for seed in range(200):
            m, n = random_sizes(40_000 + seed, lo=2, hi=20)
            a, b = uniform_instance(m, n, 1, 40_000 + seed)
            opt = cdut_exact_1d(a, b).value
            cand_min = oracle_cdut_1d(a, b).value
            assert opt - REL <= cand_min <= 2.0 * opt + REL

    def test_shift_bound(self):
        rng = np.random.default_rng(55)
        for seed in range(40):
            m, n = random_sizes(50_000 + seed)
            a, b = uniform_instance(m, n, 1, 50_000 + seed)
            sweep = cdut_exact_1d(a, b)
            opt, t_star = sweep.value, sweep.translation
            if opt == 0.0:
                continue
            k = float(rng.uniform(0.1, 2.0))
            offset = rng.uniform(-1.0, 1.0) * k * opt / m
            moved = chamfer_translated(a, t_star + offset, b).value
            assert moved <= (1.0 + k) * opt + REL

    def test_closest_pair_bound(self):
        for seed in range(60):
            m, n = random_sizes(60_000 + seed)
            a, b = uniform_instance(m, n, 1, 60_000 + seed)
            sweep = cdut_exact_1d(a, b)
            diffs = np.abs(
                (b.points[:, 0][None, :] - a.points[:, 0][:, None]) - sweep.translation[0]
            )
            assert diffs.min() <= sweep.value / m + 1e-12

    @pytest.mark.parametrize("eps", [0.2, 0.5, 1.0])
    def test_markov_count_of_good_anchors(self, eps):
        for seed in range(40):
            m, n = random_sizes(70_000 + seed)
            a, b = uniform_instance(m, n, 1, 70_000 + seed)
            sweep = cdut_exact_1d(a, b)
            per_point = np.abs(
                a.points[:, 0] + sweep.translation[0] - b.points[sweep.assignment, 0]
            )
            good = int(np.sum(per_point <= (1.0 + eps) * sweep.value / m + 1e-12))
            assert good >= math.floor(m * eps / 2.0)

