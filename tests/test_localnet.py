import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import cdut.core
from cdut import (
    L1,
    L2,
    LINF,
    LocalNetConfig,
    PointSet,
    build_index,
    cdut_exact_1d,
    cdut_localnet,
    chamfer_many,
    chamfer_translated,
)
from cdut.instances import noisy_copy_instance, translated_copy_instance, uniform_instance
from cdut.core import (
    _cell_floor,
    _rounding,
    _row_order,
    anchor_count,
    chamfer_argmin,
    difference_candidates,
    lattice_argmin,
    sample_anchors,
)
from cdut.localnet import _net_lattice
from lattice_oracles import first_positions, lattice_cells, listed, net_phase, row_keys, scan_keys

REL = 1e-9


def _grid_step(metric, rho, d):
    """The net's lattice spacing, from the per-metric table: rho over the
    metric length of the all-ones vector, sqrt(d), d or 1."""
    if metric.p == 2.0:
        return rho / math.sqrt(d)
    if metric.p == 1.0:
        return rho / d
    return rho


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


def built_net(dim, metric, candidates, radius, rho, union):
    """The production net, ``_net_lattice``, as every point and key of its
    rows, repeats included."""
    lattice = _net_lattice(dim, metric, candidates, radius, rho, union)
    keys = row_keys(lattice)
    return lattice.translations(keys), keys


class TestBuildNet:
    """The production net builder, ``_net_lattice``, in plain and union mode."""

    def test_1d_grid_matches_hand_enumeration(self):
        for union in (False, True):
            net, _ = built_net(1, L2, np.zeros((1, 1)), radius=1.0, rho=0.5, union=union)
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
                net, _ = built_net(d, metric, centers, radius, rho, union)
                worst = covering_radius(net, centers, radius, metric, seed=d)
                assert worst <= rho * (1.0 + 1e-9), (ratio, union, worst / rho)

    def test_tight_net_still_covers(self):
        centers = np.array([[0.5, 0.5]])
        for union in (False, True):
            net, _ = built_net(2, L2, centers, radius=0.3, rho=0.3, union=union)
            assert covering_radius(net, centers, 0.3, L2, count=1000, seed=2) <= 0.3 + 1e-12

    def test_size_bound(self):
        lattice = _net_lattice(2, L2, np.zeros((1, 2)), radius=1.0, rho=0.25, union=False)
        bound = (2 * int(np.ceil(1.0 * np.sqrt(2) / 0.25)) + 1) ** 2
        assert lattice.size == len(row_keys(lattice)) <= bound

    def test_union_is_the_sorted_distinct_plain_net(self):
        rng = np.random.default_rng(4)
        for d in (1, 2, 3):
            centers = rng.uniform(-2.0, 2.0, size=(6, d))
            plain, plain_idx = built_net(d, L2, centers, radius=1.0, rho=0.3, union=False)
            union, union_idx = built_net(d, L2, centers, radius=1.0, rho=0.3, union=True)
            assert np.array_equal(union_idx, np.unique(plain_idx, axis=0))
            step = _grid_step(L2, 0.3, d)
            assert plain.tobytes() == (plain_idx.astype(np.float64) * step).tobytes()
            assert union.tobytes() == (union_idx.astype(np.float64) * step).tobytes()

    def test_unique_rows_matches_numpy_unique(self):
        rng = np.random.default_rng(5)
        for d in (1, 2, 3, 6):
            # wide indices at d = 6 would overflow a packed int64 key
            idx = rng.integers(-(2**40), 2**40, size=(300, d))
            idx = np.concatenate([idx, idx[rng.integers(0, 300, 200)], rng.integers(-3, 3, (200, d))])
            order, new = _row_order(idx)
            rows = idx[order[new]]
            rank = np.empty(len(idx), dtype=np.int64)
            rank[order] = np.cumsum(new) - 1
            want, first, inverse = np.unique(idx, axis=0, return_index=True, return_inverse=True)
            assert np.array_equal(rows, want)
            assert np.array_equal(rank, inverse.ravel())
            assert np.array_equal(rows[rank], idx)
            # stable: each distinct row's first position comes first
            assert np.array_equal(order[new], first)

    def test_guards(self, monkeypatch):
        with pytest.raises(ValueError, match="dimension"):
            _net_lattice(7, L2, np.zeros((1, 7)), radius=1.0, rho=0.5, union=False)
        # 2.8e7 rows of 2.8e7 keys, refused before any row is built
        message = "local net rows would hold 28284271 rows, pieces and keys, over the lattice budget"
        with pytest.raises(ValueError, match=message):
            _net_lattice(2, L2, np.zeros((1, 2)), radius=1.0, rho=1e-7, union=False)
        # a box of 17 x 17 keys has 17 rows: the rows count, not the keys
        monkeypatch.setattr(cdut.core, "_LATTICE_BUDGET", 16)
        with pytest.raises(ValueError, match="budget 16"):
            _net_lattice(2, LINF, np.zeros((1, 2)), radius=1.0, rho=0.125, union=False)
        monkeypatch.setattr(cdut.core, "_LATTICE_BUDGET", 17)
        assert _net_lattice(2, LINF, np.zeros((1, 2)), radius=1.0, rho=0.125, union=False).size == 17 * 17


def per_ball_net(dim, metric, candidates, radius, rho, union):
    """The net built one ball at a time, as the array build did with a loop."""
    step = _grid_step(metric, rho, dim)
    blocks = [np.empty((0, dim), dtype=np.int64)]
    for center in candidates:
        lo = np.ceil((center - radius) / step - 1e-12).astype(np.int64)
        hi = np.floor((center + radius) / step + 1e-12).astype(np.int64)
        axes = [np.arange(l, h + 1, dtype=np.int64) for l, h in zip(lo, hi)]
        idx = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
        keep = metric.norms(idx.astype(np.float64) * step - center) <= radius * (1.0 + 1e-9) + 1e-12
        blocks.append(idx[keep])
    idx = np.concatenate(blocks)
    if union:
        idx = np.unique(idx, axis=0)
    return idx.astype(np.float64) * step, idx


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    d=st.integers(1, 3),
    balls=st.integers(1, 30),
    exponent=st.floats(-3.0, 3.0),
    ratio=st.floats(0.3, 8.0),
    repeat=st.booleans(),
    metric_name=st.sampled_from(["l1", "l2", "linf"]),
    union=st.booleans(),
)
def test_net_phase_matches_per_ball_loop(seed, d, balls, exponent, ratio, repeat, metric_name, union):
    # balls of differing lattice widths; every key of the lattice's rows,
    # its order and its float bits must match the per-ball build
    metric = {"l1": L1, "l2": L2, "linf": LINF}[metric_name]
    per_side = 2.0 * ratio * {"l1": d, "l2": math.sqrt(d), "linf": 1.0}[metric_name] + 2.0
    assume(balls * per_side**d <= 100_000)  # lattice points the per-ball loop builds
    rng = np.random.default_rng(seed)
    scale = 10.0**exponent
    centers = rng.uniform(-5, 5, (balls, d)) * scale
    if repeat:
        centers = centers[rng.integers(0, balls, balls)]
    rho = float(rng.uniform(0.05, 1.0)) * scale
    net, idx = built_net(d, metric, centers, ratio * rho, rho, union)
    want_net, want_idx = per_ball_net(d, metric, centers, ratio * rho, rho, union)
    assert idx.tobytes() == want_idx.tobytes() and idx.shape == want_idx.shape
    assert net.tobytes() == want_net.tobytes()


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    d=st.integers(1, 3),
    balls=st.integers(1, 12),
    metric_name=st.sampled_from(["l1", "l2", "linf"]),
    union=st.booleans(),
    on_lattice=st.booleans(),
)
def test_net_lattice_matches_the_array_build(seed, d, balls, metric_name, union, on_lattice):
    # overlapping balls around the origin repeat keys across balls, at
    # negative and positive keys; on the lattice, each centre is a lattice
    # point and the radius a whole number of steps, so ball boundaries
    # pass through lattice points
    metric = {"l1": L1, "l2": L2, "linf": LINF}[metric_name]
    rng = np.random.default_rng(seed)
    rho = float(rng.uniform(0.05, 1.0))
    step = rho / float(metric.norms(np.ones(d)))
    if on_lattice:
        centres = rng.integers(-6, 6, (balls, d)) * step
        radius = int(rng.integers(1, 6)) * step
    else:
        centres = rng.uniform(-3.0, 3.0, (balls, d)) * rho
        radius = float(rng.uniform(0.3, 3.0)) * rho
    net, idx = net_phase(d, metric, centres, radius, rho, union)
    lattice = _net_lattice(d, metric, centres, radius, rho, union)
    keys = row_keys(lattice)
    # every key of the listing, repeats and order included, and its bits
    assert keys.shape == idx.shape and keys.tobytes() == idx.tobytes()
    assert lattice.translations(keys).tobytes() == net.tobytes()
    assert lattice.size == len(net)
    # the scan meets each key once, where the listing first holds it
    assert np.array_equal(scan_keys(lattice), idx[first_positions(idx)])
    if union:
        assert np.array_equal(scan_keys(lattice), idx)


class TestConfig:
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
        # u is the best sampled difference candidate: in [OPT, (2+eps) OPT]
        config = LocalNetConfig(epsilon=0.5, delta=0.5)
        hits = 0
        runs = 40
        for seed in range(runs):
            a, b = uniform_instance(40, 10, 1, 90_000 + seed)
            opt = cdut_exact_1d(a, b).value
            report = cdut_localnet(a, b, config, seed=seed)
            u = report.extras["u"]
            if opt - REL <= u <= (2.0 + 0.5) * opt + REL:
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


# -- the cell-pruned net search against a full scan ---------------------------


def bits(x) -> bytes:
    return np.float64(x).tobytes()


def same_winner(t, value, ts, want) -> bool:
    """Whether a lattice scan's winner is ``chamfer_argmin``'s over ``ts``."""
    if want.pos < 0:
        return t is None and value == math.inf
    return t.tobytes() == ts[want.pos].tobytes() and bits(value) == bits(want.value)


def full_scan_localnet(a, b, config, seed, metric):
    """``cdut_localnet`` by scoring every candidate and every net point in full."""
    anchors = sample_anchors(len(a), anchor_count(config.epsilon, config.delta), seed)
    candidates = difference_candidates(a, b, anchors)
    values = chamfer_many(a, candidates, b, metric)
    u_pos = int(np.argmin(values))
    u = float(values[u_pos])
    m = len(a)
    radius = (1.0 + config.epsilon) * u / m
    rho = config.epsilon * u / (3.0 * m)
    if u == 0.0:
        net = np.empty((0, a.dim))
    else:
        net, _ = net_phase(a.dim, metric, candidates, radius, rho, config.union_mode)
    t = candidates[u_pos]
    if len(net):
        net_values = chamfer_many(a, net, b, metric)
        first = int(np.argmin(net_values))
        if net_values[first] < u:
            t = net[first]
    return chamfer_translated(a, t, b, metric), len(net), (len(candidates) + len(net)) * m


def assert_same_as_full_scan(a, b, config, seed, metric):
    got = cdut_localnet(a, b, config, seed=seed, metric=metric)
    want, size, full = full_scan_localnet(a, b, config, seed, metric)
    assert bits(got.value) == bits(want.value)
    assert got.translation.tobytes() == want.translation.tobytes()
    assert got.assignment.tobytes() == want.assignment.tobytes()
    assert got.evaluations == size
    assert got.extras["engine_rows_full"] == full
    assert got.extras["engine_rows"] <= full
    return got


class TestPrunedNet:
    @pytest.mark.parametrize("metric", [L1, L2, LINF], ids=["l1", "l2", "linf"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("union", [False, True], ids=["plain", "union"])
    def test_matches_full_scan(self, metric, d, union):
        # d = 3 nets grow fast in l1, where the lattice step is rho / 3
        eps, size = (0.9, 4) if d == 3 else (0.5, 6)
        config = LocalNetConfig(epsilon=eps, delta=0.4, union_mode=union)
        pruned = 0
        for seed in range(4):
            if seed % 2:
                inst = noisy_copy_instance(size, d, 140_000 + seed, noise=0.3)
                a, b = inst.a, inst.b
            else:
                a, b = uniform_instance(size, size + 2, d, 140_000 + seed)
            got = assert_same_as_full_scan(a, b, config, seed, metric)
            pruned += got.extras["engine_rows"] < got.extras["engine_rows_full"]
        assert pruned  # the search skipped work on some instance

    def test_zero_cost_candidate_builds_no_net(self):
        inst = translated_copy_instance(8, 2, seed=6)
        got = assert_same_as_full_scan(inst.a, inst.b, LocalNetConfig(epsilon=0.5), 0, L2)
        assert got.evaluations == 0 and got.extras["bound_rows"] == 0

    def test_centre_rows_are_counted_apart(self):
        a, b = uniform_instance(6, 6, 2, 7)
        got = cdut_localnet(a, b, LocalNetConfig(epsilon=0.5), seed=1)
        assert got.extras["bound_rows"] > 0
        assert got.extras["bound_rows"] % len(a) == 0

    @pytest.mark.parametrize("metric", [L1, L2, LINF], ids=["l1", "l2", "linf"])
    def test_net_argmin_matches_chamfer_argmin(self, monkeypatch, metric):
        # nets of one point up to several cells, at negative and positive
        # lattice indices, with repeated rows and upper bounds on both sides
        # of the minimum; odd seeds spread the indices over enough coarse
        # cells that the coarse level runs too.  The scans run in stages, so
        # that the members' floors drop candidates
        monkeypatch.setattr(cdut.core, "_STAGED_ROWS", 0)
        for seed in range(30):
            rng = np.random.default_rng(seed)
            d = 1 + seed % 3
            a, b = uniform_instance(4, 5, d, 150_000 + seed)
            size = int(rng.integers(1, 3 * 4**d))
            reach = 6 if seed % 2 == 0 else 160
            idx = rng.integers(-reach, reach, size=(size, d))
            idx = idx[rng.integers(0, size, size=size + seed % 4)]
            step = float(rng.uniform(0.05, 0.5)) * (6 / reach)
            net = idx.astype(np.float64) * step
            values = chamfer_many(a, net, b, metric)
            fine = len(np.unique(idx // 4, axis=0)) * len(a)
            coarse = len(np.unique(idx // 16, axis=0)) * len(a)
            lattice = listed(idx, step=step)
            assert np.array_equal(scan_keys(lattice), idx[first_positions(idx)])
            for u in (float(values.min()), float(np.median(values)), np.nextafter(values.min(), 0.0)):
                want = chamfer_argmin(a, net, b, metric, upper=u)
                t, value, rows, bound_rows = lattice_argmin(a, lattice, b, metric, upper=u)
                assert same_winner(t, value, net, want)
                assert rows <= len(np.unique(idx, axis=0)) * len(a)
                if reach == 6:
                    # one coarse cell per axis: only the fine level scores centres
                    assert bound_rows == fine
                else:
                    assert 0 < bound_rows <= coarse + fine

    @pytest.mark.parametrize("reverse", [False, True])
    def test_tie_across_cells_goes_to_first_position(self, reverse):
        # CD(t) = min(|t + 1|, |t - 1|) is 0 at t = -1 and at t = 1, which lie
        # in different cells with equal floors; the earlier one must win
        a, b = PointSet([[0.0]]), PointSet([[-1.0], [1.0]])
        idx = np.arange(-8, 8).reshape(-1, 1)
        idx = idx[::-1] if reverse else idx
        net = idx.astype(np.float64) * 0.25
        want = chamfer_argmin(a, net, b, L2, upper=0.5)
        assert want.value == 0.0
        t, value, _, _ = lattice_argmin(a, listed(idx, step=0.25), b, L2, upper=0.5)
        assert same_winner(t, value, net, want)
        assert t[0] == (1.0 if reverse else -1.0)


def bound_case(seed, d, m, scale, tight):
    """A net of 2^d cells, its sets A and B, and the lattice step.

    Tight cases put B's single point far along the all-ones diagonal from
    every A + t, so moving t to a cell's far corner lowers every term by
    exactly r and the Lipschitz floor is met with equality.
    """
    rng = np.random.default_rng(seed)
    step = scale * float(rng.uniform(0.5, 2.0))
    base = rng.integers(-1000, 1000, size=d) * 4
    axes = [np.arange(8) + base[k] for k in range(d)]
    idx = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    t0 = base * step
    if tight:
        b = rng.uniform(-50, 50, size=(1, d)) * scale
        offsets = rng.uniform(10, 40, size=(m, 1)) * step
        a = b - t0 - offsets * np.ones(d)
    else:
        a = rng.uniform(-5, 5, size=(m, d)) * scale - t0
        b = rng.uniform(-5, 5, size=(m + 2, d)) * scale
    return PointSet(a), PointSet(b), idx, step


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    d=st.integers(1, 3),
    m=st.integers(1, 8),
    exponent=st.floats(-6.0, 6.0),
    tight=st.booleans(),
    metric_name=st.sampled_from(["l1", "l2", "linf"]),
)
def test_cell_floor_bounds_every_member(seed, d, m, exponent, tight, metric_name):
    metric = {"l1": L1, "l2": L2, "linf": LINF}[metric_name]
    a, b, idx, step = bound_case(seed, d, m, 10.0**exponent, tight)
    keys, which, centres, r = lattice_cells(listed(idx, step=step), 4, metric)
    assert np.array_equal(keys, idx)
    net = idx.astype(np.float64) * step
    assert r == pytest.approx(np.full(2**d, 1.5 * step * {1.0: d, 2.0: math.sqrt(d), math.inf: 1.0}[metric.p]))
    # every member lies within r of its centre
    assert np.all(metric.norms(net - centres[which]) <= r[which] * (1.0 + 1e-12))
    floors = _cell_floor(chamfer_many(a, centres, b, metric), r, len(a), _rounding(a, net))
    values = chamfer_many(a, net, b, metric)
    assert np.all(values >= floors[which])
