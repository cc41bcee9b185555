import math

import numpy as np
import pytest

import cdut.ann
from cdut import (
    L1,
    L2,
    LINF,
    cdut_approx_v1,
    cdut_approx_v2,
    cdut_exact_1d,
    chamfer_translated,
    oracle_cdut_1d,
    sample_anchors,
)
from cdut.ann import build_ladder
from cdut.approx import DEFAULT_DELTA
from cdut.core import bbox_diameter, difference_candidates
from cdut.oracle import default_grid_spec, oracle_cdut_grid
from cdut.instances import translated_copy_instance, uniform_instance

REL = 1e-9
E3 = math.exp(-3.0)


def random_sizes(seed, lo=5, hi=21):
    rng = np.random.default_rng(seed)
    return int(rng.integers(lo, hi)), int(rng.integers(lo, hi))


class TestAnchors:
    def test_counts_match_the_failure_budget(self):
        a, _ = uniform_instance(10, 5, 1, 0)
        assert sample_anchors(a, 1.0, E3, seed=0).size == 6
        assert sample_anchors(a, 0.25, E3, seed=0).size == 24

    def test_deterministic_and_in_range(self):
        a, _ = uniform_instance(10, 5, 1, 0)
        first = sample_anchors(a, 0.5, 0.1, seed=9)
        second = sample_anchors(a, 0.5, 0.1, seed=9)
        assert np.array_equal(first, second)
        assert first.min() >= 0 and first.max() < 10

    def test_validation(self):
        a, _ = uniform_instance(4, 4, 1, 0)
        with pytest.raises(ValueError):
            sample_anchors(a, 0.0, 0.1)
        with pytest.raises(ValueError):
            sample_anchors(a, 0.5, 1.0)


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


class TestVariantTwo:
    def test_identity_is_zero_via_exact_table(self):
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
        rows = []
        query = cdut.ann.ScaleLadder.query_batch

        def counting(self, queries):
            rows.append(len(queries))
            return query(self, queries)

        monkeypatch.setattr(cdut.ann.ScaleLadder, "query_batch", counting)
        repeats = 0
        for seed in range(6):
            m, n = random_sizes(40_000 + seed, 4, 12)
            a, b = uniform_instance(m, n, 3, 40_000 + seed)
            report = cdut_approx_v2(a, b, 0.5, c=2.0, seed=seed, metric=metric)
            # reference: every candidate row queried, repeats included
            anchors = sample_anchors(a, 0.5, DEFAULT_DELTA, seed)
            candidates = difference_candidates(a, b, anchors)
            ladder = build_ladder(
                b, 2.0, U=bbox_diameter(a, metric) + bbox_diameter(b, metric), seed=seed,
                metric=metric, miss_prob=0.1,
            )
            dists, idx = query(ladder, (candidates[:, None, :] + a.points[None, :, :]).reshape(-1, 3))
            sums = dists.reshape(len(candidates), m).sum(axis=1)
            best = int(np.argmin(sums))
            assert np.float64(report.value).tobytes() == np.float64(sums[best]).tobytes()
            assert report.translation.tobytes() == candidates[best].tobytes()
            assert report.assignment.tobytes() == idx.reshape(len(candidates), m)[best].tobytes()
            assert report.extras["source_a"] == int(anchors[best // n])
            assert report.extras["source_b"] == best % n
            assert rows[-1] == np.unique(anchors).size * n * m
            repeats += anchors.size - np.unique(anchors).size
        assert repeats > 0


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

