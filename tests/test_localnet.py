import dataclasses

import numpy as np
import pytest

from cdut import (
    L1,
    L2,
    LINF,
    LocalNetConfig,
    PointSet,
    build_index,
    cdut_exact_1d,
    cdut_localnet,
    chamfer_translated,
)
from cdut.instances import noisy_copy_instance, translated_copy_instance, uniform_instance
from cdut.localnet import _net_phase

REL = 1e-9


def ball_samples(center, radius, metric, count, rng):
    """Points of the metric ball: random interior points, random boundary
    points, the axis points and the sign-vector points on the boundary."""
    d = len(center)
    raw = rng.normal(size=(2 * count, d)) if metric.p == 2.0 else rng.uniform(-1, 1, (2 * count, d))
    norms = metric.norms(raw)
    norms[norms == 0] = 1.0
    unit = raw / norms[:, None]
    radii = np.concatenate([radius * rng.uniform(0, 1, count) ** (1.0 / d), np.full(count, radius)])
    axes = np.concatenate([np.eye(d), -np.eye(d)])
    signs = np.array(np.meshgrid(*[[-1.0, 1.0]] * d, indexing="ij")).reshape(d, -1).T
    corners = np.concatenate([axes, signs / metric.norms(signs)[:, None]]) * radius
    return center + np.concatenate([unit * radii[:, None], corners])


def covering_radius(net, centers, radius, metric, count=200, seed=0):
    """Worst distance from sampled points of the balls around ``centers`` to the net."""
    rng = np.random.default_rng(seed)
    pts = np.concatenate([ball_samples(c, radius, metric, count, rng) for c in centers])
    dists, _ = build_index(PointSet(net), metric).query_many(pts)
    return float(dists.max())


class TestBuildNet:
    """The production net builder, ``_net_phase``, in plain and union mode."""

    def test_1d_grid_matches_hand_enumeration(self):
        for union in (False, True):
            net = _net_phase(1, L2, np.zeros((1, 1)), radius=1.0, rho=0.5, union=union)
            assert sorted(net.ravel().tolist()) == [-1.0, -0.5, 0.0, 0.5, 1.0]

    @pytest.mark.parametrize("metric", [L1, L2, LINF])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_covering_radius_audit(self, metric, d):
        rng = np.random.default_rng(d)
        for ratio in (1.0, 1.7, 4.3, 9.0):
            rho = float(rng.uniform(0.05, 2.0))
            radius = ratio * rho
            # two overlapping balls and one apart, off the lattice's origin
            centers = rng.uniform(-3.0, 3.0, size=(1, d)) * radius
            centers = np.concatenate([centers, centers + radius / 2.0, centers + 5.0 * radius])
            for union in (False, True):
                net = _net_phase(d, metric, centers, radius, rho, union)
                worst = covering_radius(net, centers, radius, metric, seed=d)
                assert worst <= rho * (1.0 + 1e-9), (ratio, union, worst / rho)

    def test_tight_net_still_covers(self):
        centers = np.array([[0.5, 0.5]])
        for union in (False, True):
            net = _net_phase(2, L2, centers, radius=0.3, rho=0.3, union=union)
            assert covering_radius(net, centers, 0.3, L2, count=1000, seed=2) <= 0.3 + 1e-12

    def test_size_bound(self):
        net = _net_phase(2, L2, np.zeros((1, 2)), radius=1.0, rho=0.25, union=False)
        bound = (2 * int(np.ceil(1.0 * np.sqrt(2) / 0.25)) + 1) ** 2
        assert len(net) <= bound

    def test_guards(self):
        with pytest.raises(ValueError, match="dimension"):
            _net_phase(7, L2, np.zeros((1, 7)), radius=1.0, rho=0.5, union=False)
        with pytest.raises(ValueError, match="budget"):
            _net_phase(2, L2, np.zeros((1, 2)), radius=1.0, rho=1e-3, union=False)


class TestConfig:
    def test_gamma_defaults_to_epsilon(self):
        assert LocalNetConfig(epsilon=0.25).gamma == 0.25

    def test_h_must_dominate_two_plus_gamma(self):
        with pytest.raises(ValueError, match="h must"):
            LocalNetConfig(epsilon=0.9, gamma=1.0, h=2.5)

    def test_epsilon_range(self):
        with pytest.raises(ValueError):
            LocalNetConfig(epsilon=1.2)


class TestLocalNet:
    def test_exact_copy_short_circuits(self):
        inst = translated_copy_instance(8, 2, seed=6)
        report = cdut_localnet(inst.a, inst.b, LocalNetConfig(epsilon=0.5), seed=0)
        assert report.value == 0.0
        assert np.array_equal(report.translation, inst.shift)
        assert report.evaluations == 0

    def test_sandwich_on_random_instances(self):
        eps = 0.25
        config = LocalNetConfig(epsilon=eps, delta=0.1)
        within = 0
        runs = 30
        for seed in range(runs):
            rng = np.random.default_rng(seed)
            m, n = int(rng.integers(4, 16)), int(rng.integers(4, 16))
            a, b = uniform_instance(m, n, 1, 80_000 + seed)
            opt = cdut_exact_1d(a, b).value
            report = cdut_localnet(a, b, config, seed=seed)
            assert report.value >= opt - REL
            if report.value <= (1.0 + eps) * opt + REL:
                within += 1
        assert within >= 0.9 * runs

    def test_internal_estimate_is_sandwiched(self):
        # u is the best sampled difference candidate: in [OPT, (2+gamma) OPT]
        config = LocalNetConfig(epsilon=0.5, gamma=1.0, delta=0.5, h=3.0)
        hits = 0
        runs = 40
        for seed in range(runs):
            a, b = uniform_instance(40, 10, 1, 90_000 + seed)
            opt = cdut_exact_1d(a, b).value
            report = cdut_localnet(a, b, config, seed=seed)
            u = report.extras["u"]
            if opt - REL <= u <= (2.0 + 1.0) * opt + REL:
                hits += 1
        assert hits >= (1.0 - 0.5) * runs

    def test_shift_lipschitz_bound(self):
        # moving the translation by at most rho costs at most m * rho
        rng = np.random.default_rng(3)
        for seed in range(25):
            a, b = uniform_instance(8, 9, 1, 95_000 + seed)
            sweep = cdut_exact_1d(a, b)
            rho = float(rng.uniform(0.01, 0.5))
            s = sweep.translation + rng.uniform(-rho, rho)
            moved = chamfer_translated(a, s, b).value
            assert moved <= sweep.value + len(a) * rho + REL

    def test_2d_output_stays_near_grid_oracle(self):
        from cdut.oracle import default_grid_spec, oracle_cdut_grid

        eps = 0.5
        for seed in range(5):
            a, b = uniform_instance(6, 6, 2, 130_000 + seed, low=-10.0, high=10.0)
            report = cdut_localnet(a, b, LocalNetConfig(epsilon=eps), seed=seed)
            grid = oracle_cdut_grid(a, b, spec=default_grid_spec(a, b, resolution=0.1))
            # grid value is an exact cost at a real translation: OPT <= grid <= OPT + slack
            assert report.value <= (1.0 + eps) * grid.value + 1e-9
            assert report.value >= grid.value - grid.extras["slack"] - 1e-9

    def test_monotone_refinement_in_rho(self):
        for seed in range(10):
            a, b = uniform_instance(8, 8, 1, 97_000 + seed)
            coarse = cdut_localnet(a, b, LocalNetConfig(epsilon=0.5, h=3.0), seed=seed)
            fine = cdut_localnet(a, b, LocalNetConfig(epsilon=0.5, h=6.0), seed=seed)
            assert fine.value <= coarse.value + 1e-12

    def test_dimension_guard(self):
        a, b = uniform_instance(3, 3, 7, 0)
        with pytest.raises(ValueError, match="dimension"):
            cdut_localnet(a, b, LocalNetConfig(epsilon=0.5), seed=0)

    @pytest.mark.parametrize("metric", [L1, LINF])
    def test_other_metrics_sandwich_against_alignment_optimum(self, metric):
        from cdut import cdut_exact_l1_linf

        eps = 0.5
        for seed in range(5):
            a, b = uniform_instance(5, 5, 2, 98_000 + seed, low=-10.0, high=10.0)
            opt = cdut_exact_l1_linf(a, b, metric).value
            report = cdut_localnet(a, b, LocalNetConfig(epsilon=eps), seed=seed, metric=metric)
            assert report.value >= opt - REL
            assert report.value <= (1.0 + eps) * opt + REL


class TestUnionMode:
    def test_identical_candidates_share_one_ball(self):
        # non-dyadic singleton: the lone candidate has a tiny nonzero cost,
        # so both modes actually build a net around it
        a = PointSet(np.array([[0.1]]))
        b = PointSet(np.array([[0.3]]))
        plain = cdut_localnet(a, b, LocalNetConfig(epsilon=0.5), seed=0)
        union = cdut_localnet(a, b, LocalNetConfig(epsilon=0.5, union_mode=True), seed=0)
        assert plain.evaluations == union.evaluations
        assert union.value == pytest.approx(plain.value, rel=REL, abs=1e-15)

    def test_union_halves_work_on_clustered_candidates(self):
        for seed in range(10):
            inst = noisy_copy_instance(20, 1, 110_000 + seed, noise=0.5)
            config = LocalNetConfig(epsilon=0.25, delta=0.1)
            plain = cdut_localnet(inst.a, inst.b, config, seed=seed)
            union = cdut_localnet(inst.a, inst.b, dataclasses.replace(config, union_mode=True), seed=seed)
            assert union.evaluations < 0.5 * plain.evaluations
            assert union.value == pytest.approx(plain.value, rel=REL, abs=1e-12)

    def test_modes_agree_on_generic_instances(self):
        for seed in range(15):
            a, b = uniform_instance(7, 9, 1, 120_000 + seed)
            config = LocalNetConfig(epsilon=0.5)
            plain = cdut_localnet(a, b, config, seed=seed)
            union = cdut_localnet(a, b, dataclasses.replace(config, union_mode=True), seed=seed)
            assert union.value == pytest.approx(plain.value, rel=REL, abs=1e-12)
            assert union.evaluations <= plain.evaluations
