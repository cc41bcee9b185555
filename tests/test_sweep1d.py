import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cdut.sweep1d
from cdut import (
    L1,
    L2,
    LINF,
    PointSet,
    cdut_exact_1d,
    cdut_exact_l1_linf,
    chamfer_many,
    chamfer_translated,
    gadget_a,
    gadget_b,
    sweep_curve,
)
from cdut.cli import main as cli_main
from cdut.io import write_instance
from cdut.oracle import default_grid_spec, oracle_cdut_1d, oracle_cdut_grid
from cdut.instances import translated_copy_instance, uniform_instance

REL = 1e-9


def pts1(values):
    return PointSet(np.asarray(values, dtype=np.float64)[:, None])


def events(a, b):
    """(t, n_match, n_mid) for every event of the sweep."""
    ts, _, n_match, n_mid = sweep_curve(a, b)
    return [(float(t), int(nb), int(nm)) for t, nb, nm in zip(ts, n_match, n_mid)]


class TestBuildEvents:
    def test_singleton_a(self):
        assert events(pts1([0.0]), pts1([0.0, 2.0])) == [(0.0, 1, 0), (1.0, 0, 1), (2.0, 1, 0)]

    def test_merging_of_equal_positions(self):
        assert events(pts1([0.0, 1.0]), pts1([0.0, 2.0])) == [
            (-1.0, 1, 0),
            (0.0, 1, 1),
            (1.0, 1, 1),
            (2.0, 1, 0),
        ]

    def test_duplicate_points_double_multiplicities(self):
        single = events(pts1([0.0]), pts1([0.0, 2.0]))
        doubled = events(pts1([0.0, 0.0]), pts1([0.0, 2.0]))
        assert [(t, 2 * nb, 2 * nm) for t, nb, nm in single] == doubled

    def test_event_count_bound(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            m, n = int(rng.integers(1, 15)), int(rng.integers(1, 15))
            a, b = uniform_instance(m, n, 1, seed)
            found = events(a, b)
            assert len(found) <= m * (2 * n - 1)
            assert all(nb + nm >= 1 for _, nb, nm in found)
            positions = [t for t, _, _ in found]
            assert positions == sorted(positions)

    def test_rejects_higher_dimensions(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            sweep_curve(PointSet([[0.0, 0.0]]), PointSet([[1.0, 1.0]]))


class TestSweep:
    def test_singleton_alignment(self):
        report = cdut_exact_1d(pts1([0.0]), pts1([7.0]))
        assert report.value == 0.0
        assert report.translation[0] == 7.0

    def test_small_instance_with_many_minimizers(self):
        # minimum value 1 is attained on t in {-1, 0, 1, 2}; smallest wins
        report = cdut_exact_1d(pts1([0.0, 1.0]), pts1([0.0, 2.0]))
        assert report.value == pytest.approx(1.0, rel=REL)
        assert report.translation[0] == -1.0

    def test_flat_segment_instance(self):
        a, b = pts1([0.0, 10.0]), pts1([1.0, 8.0])
        report = cdut_exact_1d(a, b)
        assert report.value == pytest.approx(3.0, rel=REL)
        for t in (-2.0, -0.5, 1.0):
            assert chamfer_translated(a, [t], b).value == pytest.approx(3.0, rel=REL)

    def test_tie_break_returns_smallest_translation(self):
        report = cdut_exact_1d(pts1([0.0]), pts1([0.0, 2.0]))
        assert report.value == 0.0
        assert report.translation[0] == 0.0

    def test_candidate_optimality_on_random_instances(self):
        # the minimum over difference candidates alone is already optimal
        for seed in range(200):
            rng = np.random.default_rng(seed)
            m, n = int(rng.integers(1, 31)), int(rng.integers(1, 31))
            a, b = uniform_instance(m, n, 1, 7000 + seed)
            report = cdut_exact_1d(a, b)
            cands = np.unique(b.points[:, 0][None, :] - a.points[:, 0][:, None]).reshape(-1, 1)
            direct = chamfer_many(a, cands, b).min()
            assert report.value == pytest.approx(direct, rel=REL, abs=1e-12)

    def test_swept_values_match_fresh_evaluations(self):
        for seed in range(25):
            a, b = uniform_instance(8, 9, 1, 900 + seed)
            ts, values, _, _ = sweep_curve(a, b)
            fresh = [chamfer_translated(a, [t], b).value for t in ts]
            assert np.allclose(values, fresh, rtol=REL, atol=1e-9)

    def test_slope_telescopes_to_m(self):
        for seed in range(25):
            rng = np.random.default_rng(seed)
            m, n = int(rng.integers(1, 20)), int(rng.integers(1, 20))
            a, b = uniform_instance(m, n, 1, 40 + seed)
            _, _, n_match, n_mid = sweep_curve(a, b)
            assert -m + 2 * int(n_match.sum() - n_mid.sum()) == m

    def test_running_slope_stays_within_plus_minus_m(self):
        for seed in range(25):
            rng = np.random.default_rng(seed)
            m, n = int(rng.integers(1, 20)), int(rng.integers(1, 20))
            a, b = uniform_instance(m, n, 1, 140 + seed)
            _, _, n_match, n_mid = sweep_curve(a, b)
            running = -m + 2 * np.cumsum(n_match - n_mid)
            assert running.min() >= -m and running.max() <= m

    def test_minimum_never_only_at_pure_midpoint(self):
        for seed in range(50):
            a, b = uniform_instance(6, 7, 1, 4000 + seed)
            _, values, n_match, _ = sweep_curve(a, b)
            overall = values.min()
            at_matches = values[n_match > 0].min()
            assert at_matches <= overall + 1e-9 * max(1.0, abs(overall))

    def test_value_is_recomputed_exactly_at_winner(self):
        a, b = uniform_instance(10, 12, 1, 77)
        report = cdut_exact_1d(a, b)
        assert report.value == chamfer_translated(a, report.translation, b).value


def reference_sweep(a, b):
    """The sweep as built with ``np.unique(return_inverse=True)``, kept as
    the reference the sorted-run build must reproduce bit for bit."""
    av = a.points[:, 0]
    bv = np.sort(b.points[:, 0])
    t_match = (bv[None, :] - av[:, None]).ravel()
    mids = (bv[:-1] + bv[1:]) / 2.0
    t_mid = (mids[None, :] - av[:, None]).ravel()
    uniq, inverse = np.unique(np.concatenate([t_match, t_mid]), return_inverse=True)
    n_match = np.bincount(inverse[: t_match.size], minlength=uniq.size).astype(np.int64)
    n_mid = np.bincount(inverse[t_match.size :], minlength=uniq.size).astype(np.int64)
    m = len(a)
    cd0 = float(chamfer_many(a, uniq[:1].reshape(-1, 1), b)[0])
    slope_after = -m + 2 * np.cumsum(n_match - n_mid)
    values = np.empty_like(uniq)
    values[0] = cd0
    if uniq.size > 1:
        values[1:] = cd0 + np.cumsum(slope_after[:-1] * np.diff(uniq))
    return uniq, values, n_match, n_mid


@st.composite
def sweep_sets(draw):
    """1D sets of uniform floats, of small integers (where match and midpoint
    events coincide), or OV gadgets; optionally all-duplicate and offset by 1e12."""
    kind = draw(st.sampled_from(["floats", "integers", "gadgets"]))
    if kind == "gadgets":
        d = draw(st.integers(1, 5))
        bits = st.lists(st.integers(0, 1), min_size=d, max_size=d)
        a, b = gadget_a(draw(bits)).points[:, 0], gadget_b(draw(bits)).points[:, 0]
    else:
        coord = st.floats(-100, 100) if kind == "floats" else st.integers(-6, 6).map(float)
        a = np.array(draw(st.lists(coord, min_size=1, max_size=12)))
        b = np.array(draw(st.lists(coord, min_size=1, max_size=12)))
    same = draw(st.sampled_from(["none", "a", "b"]))
    if same == "a":
        a = np.full_like(a, a[0])
    elif same == "b":
        b = np.full_like(b, b[0])
    offset = draw(st.sampled_from([0.0, 1e12]))
    return PointSet(a + offset), PointSet(b + offset)


class TestSortedRunBuild:
    @settings(max_examples=300, deadline=None)
    @given(sweep_sets())
    @example((pts1([0.5]), pts1([2.0, -1.0, 7.25])))
    @example((pts1([3.0, -2.0, 3.0]), pts1([1.5])))
    @example((pts1([1e12 + 0.1]), pts1([1e12 + 3.7])))
    # subnormal gaps, which l2 would round to 0 by squaring
    @example((pts1([0.0, 2.2e-311]), pts1([0.0, 2.2e-311])))
    def test_bit_identical_to_the_unique_build(self, sets):
        a, b = sets
        got, want = sweep_curve(a, b), reference_sweep(a, b)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert np.array_equal(g, w)
        # the winner is the smallest match of lowest exact value, not of
        # lowest swept value: the two differ where rounding splits a tie
        ref = chamfer_translated(a, first_exact_minimum(a, b), b)
        report = cdut_exact_1d(a, b)
        assert np.float64(report.value).tobytes() == np.float64(ref.value).tobytes()
        assert np.array_equal(report.translation, ref.translation)
        assert report.evaluations == want[0].size


def first_exact_minimum(a, b):
    """The smallest match translation b - a of lowest ``chamfer_many`` value."""
    cands = np.unique(b.points[:, 0][None, :] - a.points[:, 0][:, None])
    return cands[int(np.argmin(chamfer_many(a, cands.reshape(-1, 1), b)))]


class TestWindowedSweep:
    @settings(max_examples=300, deadline=None)
    @given(sweep_sets(), st.integers(8, 64))
    @example((pts1([0.0]), pts1([0.0])), 8)
    @example((pts1([2.5]), pts1([0.0, 7.0, -3.0, 1.5, 9.0])), 8)
    @example((pts1([1.0, 4.0, 4.0, 9.0, -2.0]), pts1([3.0])), 8)
    # the lowest swept value falls on a later match than the exact minimum
    @example((pts1([88.28035677865338, 0.5822846382252322, 88.28035677865338, -51.69758955533082]),
              pts1([-1.192092896e-07, 0.5822846382252322])), 8)
    @example((pts1([43.70204565131297]), pts1([54.09146588319814, -82.19632336635216, -32.14179336935338,
                                               60.54214227335487, -47.157040982692855, 84.3572178469791,
                                               5.620922740486137, 1.1])), 8)
    @example((pts1([0.0, 0.0, 6.6e-294]), pts1([0.0])), 8)
    def test_translation_is_the_first_exact_minimum(self, sets, window):
        a, b = sets
        m, n = len(a), len(b)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cdut.sweep1d, "_WINDOW_EVENTS", window)
            report = cdut_exact_1d(a, b)
        extras = report.extras
        assert extras["events_full"] == 2 * m * n - m
        assert 1 <= extras["windows_swept"] <= extras["windows"]
        distinct = sweep_curve(a, b)[0].size
        assert report.translation[0] == first_exact_minimum(a, b)
        if extras["windows"] > 1:
            assert report.evaluations <= distinct
        else:
            # one window: the one-shot sweep, as at the default window size
            assert report.evaluations == distinct
            whole = cdut_exact_1d(a, b)
            assert np.array_equal(report.translation, whole.translation)
        again = chamfer_translated(a, report.translation, b)
        assert np.float64(report.value).tobytes() == np.float64(again.value).tobytes()
        assert np.array_equal(report.assignment, again.assignment)

    @settings(max_examples=200, deadline=None)
    @given(sweep_sets(), st.integers(8, 64), st.randoms(use_true_random=False))
    def test_window_bounds_hold_inside_each_window(self, sets, window, rnd):
        a, b = sets
        av, bv = a.points[:, 0], np.sort(b.points[:, 0])
        m, n = len(a), len(b)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cdut.sweep1d, "_WINDOW_EVENTS", window)
            edges = cdut.sweep1d._windows(av, bv, 2 * m * n - m)
        if edges is None:
            return
        lo, hi = edges
        bounds = cdut.sweep1d._window_bounds(av, bv, lo, hi)
        t_lo, t_hi = np.maximum(lo, bv[0] - av.max()), np.minimum(hi, bv[-1] - av.min())
        for w in range(lo.size):
            inside = [t_lo[w], t_hi[w]] + [rnd.uniform(t_lo[w], t_hi[w]) for _ in range(3)]
            inside += sweep_curve(a, b, None, (lo[w], hi[w]))[0].tolist()
            fresh = chamfer_many(a, np.array(inside).reshape(-1, 1), b)
            assert bounds[w] <= fresh.min()

    def test_runs_partition_the_events(self, monkeypatch):
        # the windows' events, swept apart and joined, are the one-shot events
        a, b = uniform_instance(30, 40, 1, 11)
        monkeypatch.setattr(cdut.sweep1d, "_WINDOW_EVENTS", 100)
        lo, hi = cdut.sweep1d._windows(a.points[:, 0], np.sort(b.points[:, 0]), 2 * 30 * 40 - 30)
        ts, values, n_match, n_mid = sweep_curve(a, b)
        pieces = [sweep_curve(a, b, None, (l, h)) for l, h in zip(lo, hi)]
        assert lo.size > 10
        assert np.array_equal(np.concatenate([p[0] for p in pieces]), ts)
        assert np.array_equal(np.concatenate([p[2] for p in pieces]), n_match)
        assert np.array_equal(np.concatenate([p[3] for p in pieces]), n_mid)
        assert np.allclose(np.concatenate([p[1] for p in pieces]), values, rtol=REL, atol=1e-9)

    def test_one_window_is_the_one_shot_sweep(self):
        a, b = uniform_instance(12, 12, 1, 5)
        report = cdut_exact_1d(a, b)
        ts = sweep_curve(a, b)[0]
        assert report.translation[0] == first_exact_minimum(a, b)
        assert report.evaluations == ts.size
        assert report.extras == {"events_full": 2 * 12 * 12 - 12, "windows": 1, "windows_swept": 1}

    def test_a_lone_near_tie_wins_without_a_scan(self, monkeypatch):
        scanned = []
        scan = cdut.sweep1d.chamfer_argmin

        def counting(*args, **kwargs):
            scanned.append(1)
            return scan(*args, **kwargs)

        monkeypatch.setattr(cdut.sweep1d, "chamfer_argmin", counting)
        a, b = uniform_instance(5, 7, 1, 0)
        assert cdut_exact_1d(a, b).translation[0] == first_exact_minimum(a, b)
        assert not scanned

    def test_far_from_the_origin_the_lowest_swept_match_wins(self, monkeypatch):
        # near 1e12 the rounding slack admits every match to the exact scan;
        # past its row cap the match of lowest swept value over the runs
        # already swept wins instead, and no event is swept twice
        a, b = uniform_instance(20, 20, 1, 9)
        a, b = PointSet(a.points + 1e12), PointSet(b.points + 1e12)
        whole = cdut_exact_1d(a, b)
        scanned, runs = [], []
        scan, curve = cdut.sweep1d.chamfer_argmin, cdut.sweep1d.sweep_curve

        def counting(a, ts, b, **kwargs):
            scanned.append(len(ts))
            return scan(a, ts, b, **kwargs)

        def sweeping(*args):
            runs.append(curve(*args))
            return runs[-1]

        monkeypatch.setattr(cdut.sweep1d, "chamfer_argmin", counting)
        monkeypatch.setattr(cdut.sweep1d, "sweep_curve", sweeping)
        monkeypatch.setattr(cdut.sweep1d, "_WINDOW_EVENTS", 64)
        cdut_exact_1d(a, b)
        assert scanned and scanned[0] * len(a) > 2 * 20 * 20 - 20
        monkeypatch.setattr(cdut.sweep1d, "_QUERY_ROWS", 0)
        runs.clear()
        report = cdut_exact_1d(a, b)
        assert len(scanned) == 1
        assert report.extras["windows"] > 1
        assert report.extras["windows_swept"] == report.extras["windows"]
        assert report.evaluations == whole.evaluations
        assert np.float64(report.value).tobytes() == np.float64(whole.value).tobytes()
        assert np.array_equal(report.translation, whole.translation)
        # every swept position once, in ascending t across the runs
        assert sum(ts.size for ts, _, _, _ in runs) == report.evaluations
        runs.sort(key=lambda run: run[0][0])
        ts = np.concatenate([ts for ts, _, _, _ in runs])
        assert np.all(np.diff(ts) > 0)
        # the match of lowest swept value, the first on ties
        match = np.concatenate([n_match > 0 for _, _, n_match, _ in runs])
        values = np.concatenate([values for _, values, _, _ in runs])
        assert report.translation[0] == ts[match][np.argmin(values[match])]

    def test_bench_sized_solve_sweeps_few_windows(self, monkeypatch):
        a, b = uniform_instance(400, 400, 1, 8191)
        report = cdut_exact_1d(a, b)
        extras = report.extras
        assert extras["windows"] > 1
        assert extras["windows_swept"] < extras["windows"] / 2
        assert report.evaluations < extras["events_full"] / 2
        monkeypatch.setattr(cdut.sweep1d, "_WINDOW_EVENTS", extras["events_full"])
        whole = cdut_exact_1d(a, b)
        assert whole.extras["windows"] == 1
        assert report.value <= whole.value


class TestLargeOffsets:
    def test_exact1d_matches_the_brute_minimum(self):
        # instances offset by 1e12, one of them large enough for windows
        worst = 0.0
        sizes = [(k % 29 + 1, k * 7 % 31 + 1) for k in range(100)] + [(100, 100)]
        for seed, (m, n) in enumerate(sizes):
            a, b = uniform_instance(m, n, 1, 5000 + seed)
            a, b = PointSet(a.points + 1e12), PointSet(b.points + 1e12)
            got, want = cdut_exact_1d(a, b).value, oracle_cdut_1d(a, b).value
            worst = max(worst, abs(got - want) / max(abs(want), 1e-300))
        assert worst <= 1.5e-15

    def test_sweep_drift_at_two_million_events(self):
        a, b = uniform_instance(1061, 1061, 1, 0)
        ts, values, _, _ = sweep_curve(a, b)
        assert ts.size > 2_200_000
        pick = np.arange(0, ts.size, ts.size // 400)
        fresh = chamfer_many(a, ts[pick].reshape(-1, 1), b)
        assert np.max(np.abs(values[pick] - fresh) / np.maximum(1.0, np.abs(fresh))) <= 7e-11


class TestEventBudget:
    def test_default_budget_admits_m_n_3000(self):
        assert 2 * 3000 * 3000 - 3000 <= cdut.sweep1d._EVENT_BUDGET

    def test_one_event_over_budget_raises(self, monkeypatch):
        a, b = uniform_instance(5, 6, 1, 3)
        monkeypatch.setattr(cdut.sweep1d, "_EVENT_BUDGET", 2 * 5 * 6 - 5)
        sweep_curve(a, b)
        monkeypatch.setattr(cdut.sweep1d, "_EVENT_BUDGET", 2 * 5 * 6 - 6)
        with pytest.raises(ValueError, match=r"1D sweep has 55 events, over budget 54"):
            cdut_exact_1d(a, b)

    def test_cli_exits_2(self, monkeypatch, capsys, tmp_path):
        a, b = uniform_instance(5, 6, 1, 3)
        write_instance(tmp_path / "a.txt", a)
        write_instance(tmp_path / "b.txt", b)
        monkeypatch.setattr(cdut.sweep1d, "_EVENT_BUDGET", 10)
        code = cli_main(["compute", "exact1d", str(tmp_path / "a.txt"), str(tmp_path / "b.txt")])
        err = capsys.readouterr().err
        assert code == 2
        assert "1D sweep has 55 events, over budget 10" in err


class TestAlignmentExtension:
    def test_same_set_is_zero_at_origin(self):
        a, _ = uniform_instance(5, 5, 2, 21)
        for metric in (L1, LINF):
            report = cdut_exact_l1_linf(a, a, metric)
            assert report.value == 0.0
            assert np.allclose(report.translation, 0.0)

    @pytest.mark.parametrize("metric", [L1, LINF])
    def test_translated_copy_recovers_shift(self, metric):
        inst = translated_copy_instance(6, 2, seed=3)
        report = cdut_exact_l1_linf(inst.a, inst.b, metric)
        assert report.value == 0.0
        assert np.array_equal(report.translation, inst.shift)

    @pytest.mark.parametrize("metric", [L1, LINF])
    def test_matches_grid_oracle_on_tiny_instances(self, metric):
        for seed in range(6):
            a, b = uniform_instance(4, 4, 2, 600 + seed, low=-5.0, high=5.0)
            exact = cdut_exact_l1_linf(a, b, metric)
            spec = default_grid_spec(a, b, resolution=0.05)
            grid = oracle_cdut_grid(a, b, spec=spec, metric=metric)
            gap = grid.value - exact.value
            assert -1e-9 <= gap <= grid.extras["slack"] + 1e-9

    def test_l2_rejected(self):
        a, b = uniform_instance(3, 3, 2, 0)
        with pytest.raises(ValueError, match="l1/linf"):
            cdut_exact_l1_linf(a, b, L2)

    def test_dimension_cap(self):
        a, b = uniform_instance(2, 2, 4, 0)
        with pytest.raises(ValueError, match="cap"):
            cdut_exact_l1_linf(a, b, L1)

    def test_linf_limited_to_two_dimensions(self):
        a, b = uniform_instance(2, 2, 3, 0)
        with pytest.raises(ValueError, match="linf"):
            cdut_exact_l1_linf(a, b, LINF)

    def test_linf_beats_plain_alignment_candidates(self):
        # instances where the optimum sits at a dominance corner: every
        # axis-alignment candidate is strictly worse than the rotated search
        found_strict = False
        for seed in range(10):
            a, b = uniform_instance(4, 4, 2, 600 + seed, low=-5.0, high=5.0)
            exact = cdut_exact_l1_linf(a, b, LINF).value
            axis_grid = np.array(
                [
                    [u, v]
                    for u in np.unique(b.points[:, 0][None, :] - a.points[:, 0][:, None])
                    for v in np.unique(b.points[:, 1][None, :] - a.points[:, 1][:, None])
                ]
            )
            axis_best = min(chamfer_translated(a, t, b, LINF).value for t in axis_grid)
            assert exact <= axis_best + 1e-9
            if exact < axis_best - 1e-6:
                found_strict = True
        assert found_strict


def dyadic_sets(d):
    """A, B of multiples of 1/8 and a shift s of multiples of 1/4: every sum
    and difference the solvers form on A + s is then exact."""
    coords = st.integers(-80, 80).map(lambda k: k / 8.0)
    sizes = st.integers(1, 7)
    return st.tuples(
        sizes.flatmap(lambda m: st.lists(st.lists(coords, min_size=d, max_size=d), min_size=m, max_size=m)),
        sizes.flatmap(lambda n: st.lists(st.lists(coords, min_size=d, max_size=d), min_size=n, max_size=n)),
        st.lists(st.integers(-400, 400).map(lambda k: k / 4.0), min_size=d, max_size=d),
    )


def assert_covariant(solve, a, b, s):
    """solve(A + s, B) has solve(A, B)'s value at its translation minus s."""
    base = solve(PointSet(a), PointSet(b))
    moved = solve(PointSet(np.asarray(a) + s), PointSet(b))
    assert np.float64(moved.value).tobytes() == np.float64(base.value).tobytes()
    assert np.array_equal(moved.translation, base.translation - np.asarray(s))
    assert np.array_equal(moved.assignment, base.assignment)


class TestTranslationCovariance:
    @settings(max_examples=100, deadline=None)
    @given(dyadic_sets(1))
    def test_exact1d(self, sets):
        assert_covariant(cdut_exact_1d, *sets)

    @settings(max_examples=100, deadline=None)
    @given(dyadic_sets(2))
    def test_exact_l1linf_l1_2d(self, sets):
        assert_covariant(lambda a, b: cdut_exact_l1_linf(a, b, L1), *sets)
