import math
import tracemalloc

import numpy as np
import pytest

from cdut import L1, L2, LINF, PointSet, cdut_exact_1d, gadget_a, gadget_b, oracle_cdut_1d, oracle_cdut_grid
import cdut.oracle
from cdut.oracle import GridSearchSpec, default_grid_spec
from cdut.instances import uniform_instance

REL = 1e-9


class TestOracle1D:
    def test_matches_sweep_on_random_instances(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            m, n = int(rng.integers(1, 31)), int(rng.integers(1, 31))
            a, b = uniform_instance(m, n, 1, 200_000 + seed)
            sweep = cdut_exact_1d(a, b)
            oracle = oracle_cdut_1d(a, b)
            assert oracle.value == pytest.approx(sweep.value, rel=REL, abs=1e-12)

    def test_identity_is_zero(self):
        a, _ = uniform_instance(10, 5, 1, 0)
        assert oracle_cdut_1d(a, a).value == 0.0

    def test_orthogonal_gadgets_are_zero(self):
        assert oracle_cdut_1d(gadget_a([1, 0]), gadget_b([0, 1])).value == 0.0
        assert oracle_cdut_1d(gadget_a([1]), gadget_b([1])).value >= 1.0 - REL

    def test_size_guard(self):
        a, b = uniform_instance(101, 101, 1, 0)
        with pytest.raises(ValueError, match="budget"):
            oracle_cdut_1d(a, b)

    def test_requires_1d(self):
        a, b = uniform_instance(3, 3, 2, 0)
        with pytest.raises(ValueError, match="one-dimensional"):
            oracle_cdut_1d(a, b)


class TestGridOracle:
    def test_on_grid_copy_reaches_zero(self):
        base = PointSet(np.array([[0.0, 0.0], [1.0, 2.0], [4.0, 1.0]]))
        shift = np.array([2.5, -1.25])
        moved = PointSet(base.points + shift)
        spec = GridSearchSpec(lo=shift - 1.0, hi=shift + 1.0, resolution=0.25)
        result = oracle_cdut_grid(base, moved, spec=spec)
        assert result.value == 0.0
        assert np.allclose(result.translation, shift)

    def test_gap_to_sweep_is_within_half_step(self):
        for seed in range(20):
            a, b = uniform_instance(6, 7, 1, 300_000 + seed, low=-20, high=20)
            opt = cdut_exact_1d(a, b).value
            g = 0.05
            spec = default_grid_spec(a, b, resolution=g)
            result = oracle_cdut_grid(a, b, spec=spec)
            gap = result.value - opt
            assert -1e-9 <= gap <= len(a) * g / 2.0 + 1e-9
            assert result.extras["slack"] == pytest.approx(len(a) * g / 2.0, rel=REL)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize(
        "metric, length", [(L1, lambda d: d), (L2, math.sqrt), (LINF, lambda d: 1)], ids=["l1", "l2", "linf"]
    )
    def test_slack_is_m_times_the_half_cell(self, metric, length, d):
        # the farthest a box point lies from its nearest grid node is half
        # the cell's diagonal: g/2 times the metric length of (1, ..., 1)
        a, b = uniform_instance(4, 5, d, 320_000 + d)
        g = 0.5
        spec = GridSearchSpec(lo=np.full(d, -1.0), hi=np.full(d, 1.0), resolution=g)
        result = oracle_cdut_grid(a, b, spec=spec, metric=metric)
        assert result.extras["slack"] == len(a) * (g * length(d) / 2.0)
        assert result.evaluations == 5**d

    def test_halving_the_step_shrinks_the_average_gap(self):
        coarse_gaps, fine_gaps = [], []
        for seed in range(40):
            a, b = uniform_instance(5, 6, 1, 310_000 + seed, low=-20, high=20)
            opt = cdut_exact_1d(a, b).value
            for g, out in ((0.2, coarse_gaps), (0.1, fine_gaps)):
                spec = default_grid_spec(a, b, resolution=g)
                out.append(oracle_cdut_grid(a, b, spec=spec).value - opt)
        assert np.mean(fine_gaps) <= 0.7 * np.mean(coarse_gaps) + 1e-12

    def test_budget_guard(self):
        a, b = uniform_instance(4, 4, 2, 0)
        spec = GridSearchSpec(lo=[-100.0, -100.0], hi=[100.0, 100.0], resolution=1e-3)
        with pytest.raises(ValueError, match="budget"):
            oracle_cdut_grid(a, b, spec=spec)

    def test_budget_guard_allocates_nothing(self):
        # the grid is counted before its axes are built
        a, b = uniform_instance(4, 4, 2, 1)
        low, high = b.points.min(axis=0) - a.points.max(axis=0), b.points.max(axis=0) - a.points.min(axis=0)
        spec = GridSearchSpec(lo=low - 1.0, hi=high + 1.0, resolution=1e-4)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="budget"):
                oracle_cdut_grid(a, b, spec=spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_default_spec_refuses_before_scoring(self, monkeypatch):
        # the unpadded box's grid is counted first: no difference is scored
        monkeypatch.setattr(cdut.oracle, "chamfer_many", None)
        a, b = uniform_instance(300, 300, 2, 2)
        with pytest.raises(ValueError, match="budget"):
            default_grid_spec(a, b, resolution=1e-4)
        with pytest.raises(ValueError, match="resolution"):
            default_grid_spec(a, b, resolution=0.0)

    def test_unpadded_box_ends_are_exact(self):
        # the padded box holds the unpadded one, ends exactly min(b) - max(a)
        # and max(b) - min(a)
        a, b = uniform_instance(30, 40, 2, 3)
        spec = default_grid_spec(a, b, resolution=0.5)
        diffs = (b.points[None, :, :] - a.points[:, None, :]).reshape(-1, 2)
        assert np.array_equal(diffs.min(axis=0), b.points.min(axis=0) - a.points.max(axis=0))
        assert np.array_equal(diffs.max(axis=0), b.points.max(axis=0) - a.points.min(axis=0))
        assert np.all(spec.lo < diffs.min(axis=0)) and np.all(spec.hi > diffs.max(axis=0))

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="lo <= hi"):
            GridSearchSpec(lo=[1.0], hi=[0.0], resolution=0.1)
        for bad in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="resolution"):
                GridSearchSpec(lo=[0.0], hi=[1.0], resolution=bad)
        for lo, hi in (([-math.inf], [1.0]), ([0.0], [math.inf]), ([math.nan], [1.0])):
            with pytest.raises(ValueError, match="finite"):
                GridSearchSpec(lo=lo, hi=hi, resolution=0.1)

    def test_default_spec_covers_all_difference_vectors(self):
        a, b = uniform_instance(5, 8, 2, 17)
        spec = default_grid_spec(a, b)
        diffs = (b.points[None, :, :] - a.points[:, None, :]).reshape(-1, 2)
        assert np.all(diffs >= spec.lo - 1e-12)
        assert np.all(diffs <= spec.hi + 1e-12)

    def test_grid_brackets_every_approximation_algorithm(self):
        from cdut import LocalNetConfig, cdut_approx_v1, cdut_approx_v2, cdut_localnet

        for seed in range(3):
            a, b = uniform_instance(6, 6, 2, 460_000 + seed, low=-10.0, high=10.0)
            grid = oracle_cdut_grid(a, b, spec=default_grid_spec(a, b, resolution=0.1))
            floor = grid.value - grid.extras["slack"] - 1e-9
            v1 = cdut_approx_v1(a, b, 0.5, seed=seed).value
            v2 = cdut_approx_v2(a, b, 0.5, c=2.0, seed=seed).value
            ln = cdut_localnet(a, b, LocalNetConfig(epsilon=0.5), seed=seed).value
            for value, bound in ((v1, 2.5), (v2, 5.0), (ln, 1.5)):
                assert value >= floor
                assert value <= bound * grid.value + 1e-9
