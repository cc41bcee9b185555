import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        b = pts([[2.0], [5.0]])
        for backend in ("brute", "kdtree", "sorted"):
            dist, idx = build_index(b, backend=backend).query_many([[5.0]])
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

    def test_brute_chunks_cap_the_kernel_tables(self, monkeypatch):
        # every chunk's live (rows, n) tables stay under the cap together
        cap = 1 << 10
        monkeypatch.setattr(cdut.core, "_TILE_ENTRIES", cap)
        rng = np.random.default_rng(3)
        b = PointSet(rng.integers(-3, 4, size=(15, 3)).astype(np.float64))
        queries = rng.integers(-4, 5, size=(500, 3)).astype(np.float64)
        index = build_index(b, L1, "brute")
        shapes = []
        full = cdut.core._cross_norms

        def recording(metric, q, p):
            shapes.append(q.shape)
            return full(metric, q, p)

        monkeypatch.setattr(cdut.core, "_cross_norms", recording)
        dist, idx = index.query_many(queries)
        held = cdut.core._held_tables(b.dim)
        assert len(shapes) > 1 and sum(rows for rows, _ in shapes) == len(queries)
        assert all(rows * len(b) * held <= cap for rows, _ in shapes)
        # integer grids tie often: chunking keeps the first minimum
        ref = L1.norms(queries[:, None, :] - b.points[None, :, :])
        assert np.array_equal(idx, np.argmin(ref, axis=1))
        assert np.array_equal(dist, ref.min(axis=1))

    @pytest.mark.parametrize("d", [1, 3, 7, 8, 15, 16, 64, 129, 300])
    def test_held_tables_count_the_kernels_live_entries(self, d):
        # tracemalloc sees numpy's buffers: the kernel's peak is its held
        # tables, plus its transposed inputs and numpy's fixed ufunc buffers
        rng = np.random.default_rng(d)
        q, p = rng.standard_normal((1000, d)), rng.standard_normal((40, d))
        table = 8 * len(q) * len(p)
        for metric in (L1, L2, LINF):
            tracemalloc.start()
            try:
                cdut.core._cross_norms(metric, q, p)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            held = cdut.core._held_tables(d) * table
            assert held <= peak <= held + q.nbytes + p.nbytes + table // 2

    def test_tie_normalization_with_duplicates(self):
        b = pts([[1.0], [1.0], [3.0], [3.0]])
        for backend in ("brute", "kdtree", "sorted"):
            _, idx = build_index(b, backend=backend).query_many(np.array([[1.0], [2.0], [3.0]]))
            assert idx.tolist() == [0, 0, 2]

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            PointSet(np.empty((0, 2)))

    def test_bad_backend(self):
        with pytest.raises(ValueError, match="backend"):
            build_index(pts([[0.0]]), backend="octree")
        with pytest.raises(ValueError, match="d = 1"):
            build_index(pts([[0.0, 1.0]]), backend="sorted")

    def test_auto_backend_fits_the_input(self):
        # brute below 32 points while d < 8, below 16 from d = 8 on
        assert build_index(PointSet(np.arange(40.0))).backend == "sorted"
        assert build_index(PointSet(np.arange(32.0))).backend == "sorted"
        assert build_index(PointSet(np.zeros((31, 1)))).backend == "brute"
        assert build_index(PointSet(np.zeros((3, 1)))).backend == "brute"
        for metric in (L1, L2, LINF):
            for d in (2, 7):
                assert build_index(PointSet(np.zeros((31, d))), metric).backend == "brute"
            for d in (8, 16):
                assert build_index(PointSet(np.zeros((15, d))), metric).backend == "brute"
        # above that, l1 and linf take the kd-tree, and l2 the screen but
        # from 100 points at d <= 3, where it takes the kd-tree
        for metric in (L1, LINF):
            for d in (2, 7):
                assert build_index(PointSet(np.zeros((32, d))), metric).backend == "kdtree"
            for d in (8, 16):
                assert build_index(PointSet(np.zeros((16, d))), metric).backend == "kdtree"
        for d in (2, 3):
            assert build_index(PointSet(np.zeros((32, d)))).backend == "screen"
            assert build_index(PointSet(np.zeros((99, d)))).backend == "screen"
            assert build_index(PointSet(np.zeros((100, d)))).backend == "kdtree"
        for d in (4, 7):
            assert build_index(PointSet(np.zeros((32, d)))).backend == "screen"
            assert build_index(PointSet(np.zeros((400, d)))).backend == "screen"
        for d in (8, 16, 64):
            assert build_index(PointSet(np.zeros((16, d)))).backend == "screen"
            assert build_index(PointSet(np.zeros((400, d)))).backend == "screen"

    def test_sorted_settles_ties_that_rounding_makes(self):
        # far from B, q - 0.5 and q - 1.0 round to the same float, so the
        # lowest index holding the minimum can sit past the nearest value
        b = pts([[0.5], [2.0], [1.0], [1.0]])
        queries = np.array([[1e20], [-1e20], [1.5], [0.75], [-3.0]])
        for metric in (L1, L2, LINF):
            want = build_index(b, metric, "brute").query_many(queries)
            got = build_index(b, metric, "sorted").query_many(queries)
            assert got[1].tolist() == want[1].tolist() == [0, 0, 1, 0, 0]
            assert np.array_equal(got[0], want[0])

    @pytest.mark.parametrize("backend", ["kdtree", "sorted"])
    def test_ties_settle_in_one_brute_pass(self, backend, monkeypatch):
        b = PointSet(np.repeat(np.arange(20.0), 2)[:, None])
        queries = np.arange(-0.5, 20.0, 0.5)[:, None]
        index = build_index(b, L1, backend)
        calls = []
        brute = index._brute

        def counting(q):
            calls.append(len(q))
            return brute(q)

        monkeypatch.setattr(index, "_brute", counting)
        dist, idx = index.query_many(queries)
        assert np.array_equal(idx, build_index(b, L1, "brute").query_many(queries)[1])
        # the kd-tree's tied rows are all the rows here; the sorted index
        # settles equal values itself and has no rounded tie to pass on
        assert calls == ([len(queries)] if backend == "kdtree" else [])


@st.composite
def tie_heavy(draw, scaled=False, tiny=False):
    """An integer grid B with repeated points, and queries on the grid or at
    its midpoints.  ``scaled`` multiplies both by a non-integer step and
    shifts them by up to 1e12: the tree's arithmetic and ours then round
    the distances differently, so a tie in one can be a near tie in the
    other.  ``tiny`` scales them by a step near 1e-160 instead, so that
    the squared distances fall among the subnormals."""
    # the one backend that ``tiny`` tests, the screen, serves d >= 2 only
    d = draw(st.integers(2 if tiny else 1, 16 if scaled or tiny else 9))
    n = draw(st.one_of(st.just(1), st.integers(1, 64)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    span = draw(st.integers(1, 3))
    b = rng.integers(-span, span + 1, size=(n, d)).astype(np.float64)
    b[rng.integers(0, n, size=n // 2)] = b[rng.integers(0, n, size=n // 2)]
    # half-integers: every query is a grid point or a midpoint between two
    queries = rng.integers(-2 * span - 2, 2 * span + 3, size=(draw(st.integers(1, 60)), d)) / 2.0
    if scaled:
        step = draw(st.floats(1e-3, 1e3)) * (1.0 + 1.0 / 3.0)
        offset = draw(st.one_of(st.just(0.0), st.floats(-1e12, 1e12)))
        b, queries = b * step + offset, queries * step + offset
    if tiny:
        step = draw(st.floats(1e-163, 1e-157)) * (1.0 + 1.0 / 3.0)
        b, queries = b * step, queries * step
    return PointSet(b), queries


def assert_backends_agree(b, queries, metric, backends=("kdtree", "sorted", "screen")):
    """Each of ``backends`` that serves B's dimension and ``metric`` (sorted
    at d = 1, screen for l2 at d >= 2) gives brute's distances bit for bit,
    and its indices."""
    want_d, want_i = build_index(b, metric, "brute").query_many(queries)
    serves = {"kdtree": True, "sorted": b.dim == 1, "screen": metric == L2 and b.dim >= 2}
    for backend in backends:
        if serves[backend]:
            dist, idx = build_index(b, metric, backend).query_many(queries)
            assert dist.tobytes() == want_d.tobytes()
            assert np.array_equal(idx, want_i)


@settings(max_examples=150, deadline=None)
@given(case=tie_heavy(), metric=st.sampled_from([L1, L2, LINF]))
def test_backends_agree_on_tie_heavy_grids(case, metric):
    assert_backends_agree(*case, metric)


@settings(max_examples=300, deadline=None)
@given(case=tie_heavy(scaled=True), metric=st.sampled_from([L1, L2, LINF]))
def test_backends_agree_on_scaled_lattices(case, metric):
    assert_backends_agree(*case, metric)


@settings(max_examples=150, deadline=None)
@given(case=tie_heavy(tiny=True))
def test_screen_agrees_on_lattices_whose_squares_underflow(case):
    # the kd-tree's band does not cover squares that underflow; the screen's does
    assert_backends_agree(*case, L2, backends=("screen",))


@st.composite
def fold_cases(draw):
    """Runs of candidate indices into a tie-heavy B, ascending and with
    repeats, some of one member, paired with query rows in any order."""
    kind = draw(st.sampled_from(["grid", "scaled", "tiny"]))
    b, queries = draw(tie_heavy(scaled=kind == "scaled", tiny=kind == "tiny"))
    if draw(st.booleans()) and kind != "tiny":
        b, queries = PointSet(b.points + 1e12), queries + 1e12
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.integers(0, len(queries), size=draw(st.integers(1, 40)))
    counts = np.where(rng.random(rows.size) < 0.3, 1, rng.integers(1, 2 * len(b) + 2, size=rows.size))
    runs = [np.sort(rng.integers(0, len(b), size=count)) for count in counts]
    return b, queries, rows, counts, runs


@settings(max_examples=200, deadline=None)
@given(case=fold_cases(), metric=st.sampled_from([L1, L2, LINF]))
def test_run_fold_matches_brute(case, metric):
    # each run's (distance, lowest index) is brute's over the run's points
    b, queries, rows, counts, runs = case
    dist, idx = cdut.core._nearest_in_runs(metric, queries, rows, counts, b.points, np.concatenate(runs))
    for r, (row, run) in enumerate(zip(rows, runs)):
        want_d, want_i = build_index(PointSet(b.points[run]), metric, "brute").query_many(queries[row : row + 1])
        assert dist[r].tobytes() == want_d[0].tobytes()
        assert idx[r] == run[want_i[0]]


class TestScreen:
    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("d", [2, 3, 16, 64])
    def test_matches_brute_through_the_engine(self, d, threads, monkeypatch):
        # enough rows for the thread pool; repeated points and queries on
        # them tie, and a 1e12 offset shared by A and B cancels in the centring
        monkeypatch.setenv("CDUT_THREADS", threads)
        rng = np.random.default_rng(d)
        for offset in (0.0, 1e12):
            b = rng.uniform(-100, 100, size=(40, d))
            b[20:30] = b[:10]
            a = np.concatenate([b[:20], rng.uniform(-100, 100, size=(20, d))])
            a, b = PointSet(a + offset), PointSet(b + offset)
            ts = np.concatenate([np.zeros((1, d)), rng.uniform(-5, 5, size=(120, d))])
            want = chamfer_many(a, ts, b, L2, build_index(b, L2, "brute"), want_distances=True)
            got = chamfer_many(a, ts, b, L2, build_index(b, L2, "screen"), want_distances=True)
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()
            queries = (ts[:, None, :] + a.points[None, :, :]).reshape(-1, d)
            assert_backends_agree(b, queries, L2, backends=("screen",))

    def test_only_rows_near_overflow_go_to_brute(self, monkeypatch):
        rng = np.random.default_rng(5)
        distinct = PointSet(rng.uniform(-10, 10, size=(30, 3)))
        doubled = PointSet(np.repeat(distinct.points, 2, axis=0))
        # the last two rows' (|q'| + max |p'|)^2 nears overflow
        queries = np.vstack([rng.uniform(-12, 12, size=(200, 3)), [[1e154, 0.0, 0.0], [-1e154, 1e154, 0.0]]])
        fold = cdut.core._nearest_in_runs
        for b, least in ((distinct, 1), (doubled, 2)):
            index = build_index(b, L2, "screen")
            calls, runs = [], []
            brute = index._brute
            monkeypatch.setattr(index, "_brute", lambda q: calls.append(len(q)) or brute(q))

            def recording(metric, q, rows, counts, points, cand):
                runs.extend(counts)
                return fold(metric, q, rows, counts, points, cand)

            monkeypatch.setattr(cdut.core, "_nearest_in_runs", recording)
            dist, idx = index.query_many(queries)
            want = build_index(b, L2, "brute").query_many(queries)
            assert dist.tobytes() == want[0].tobytes() and np.array_equal(idx, want[1])
            assert calls == [2]
            # every other row is folded from its band; each of ``doubled``'s
            # nearest points is doubled, so each of its bands holds two
            assert len(runs) == len(queries) - 2 and min(runs) == least

    def test_rows_near_overflow_go_to_brute(self):
        b = pts([[0.0, 0.0], [1.0, 1.0], [3e153, 0.0]])
        queries = np.array([[1e154, 1e154], [0.9, 0.9], [-1e200, 0.0]])
        assert_backends_agree(b, queries, L2, backends=("screen",))

    def test_needs_l2_and_two_axes(self):
        with pytest.raises(ValueError, match="l2 at d >= 2"):
            build_index(pts([[0.0, 1.0]]), L1, "screen")
        with pytest.raises(ValueError, match="l2 at d >= 2"):
            build_index(pts([[0.0], [1.0]]), L2, "screen")


@st.composite
def kernel_inputs(draw):
    """Queries and points whose axes span 1e-3 to 1e12, so that any other
    summation order rounds some row sum differently; some coordinates are
    signed zeros and some sets sit 1e12 from the origin."""
    d = draw(st.one_of(st.integers(1, 20), st.sampled_from([64, 128, 300])))
    rows = draw(st.one_of(st.just(1), st.integers(1, 9)))
    n = draw(st.one_of(st.just(1), st.integers(1, 9)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** rng.uniform(-3, 12, size=d)
    q, p = rng.standard_normal((rows, d)) * scale, rng.standard_normal((n, d)) * scale
    for side in (q, p):
        side[rng.random(side.shape) < 0.1] = 0.0
        side[rng.random(side.shape) < 0.1] = -0.0
    # an offset of 0 is skipped: adding it would turn -0.0 into 0.0
    for side, offset in ((q, draw(st.sampled_from([0.0, 1e12, -1e12]))), (p, draw(st.sampled_from([0.0, 1e12])))):
        if offset:
            side += offset
    return q, p


@settings(max_examples=300, deadline=None)
@given(case=kernel_inputs(), metric=st.sampled_from([L1, L2, LINF]))
def test_kernel_is_bit_identical_to_norms(case, metric):
    q, p = case
    want = metric.norms(q[:, None, :] - p[None, :, :])
    assert cdut.core._cross_norms(metric, q, p).tobytes() == want.tobytes()


def run_fresh(code: str) -> None:
    """Run ``code`` in a fresh interpreter: this one has loaded scipy already."""
    src = os.path.dirname(os.path.dirname(cdut.core.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_scipy_loads_only_for_a_kdtree():
    run_fresh("""
import sys
import cdut
from cdut.instances import uniform_instance

cdut.cdut_exact_1d(*uniform_instance(50, 50, 1, 0))
cdut.cdut_approx_v1(*uniform_instance(12, 12, 2, 0), 0.5)
loaded = [name for name in sys.modules if name.split(".")[0] == "scipy"]
assert not loaded, loaded
a, b = uniform_instance(40, 120, 2, 0)
assert cdut.build_index(b).backend == "kdtree"
report = cdut.cdut_approx_v1(a, b, 0.5)
brute = cdut.chamfer_translated(a, report.translation, b, index=cdut.build_index(b, backend="brute"))
assert report.value == brute.value
assert "scipy.spatial" in sys.modules
try:
    cdut.build_index(b, backend="sorted")
except ValueError:
    pass
else:
    raise AssertionError("a 2-D set got a sorted index")
""")


def test_approx_v2_and_decide_load_no_scipy():
    # the ladder builds its exact fallback only on a miss, and l2 sets of
    # this size take the screen
    run_fresh("""
import sys
import cdut
from cdut.instances import separated_planted_instance, uniform_instance

cdut.cdut_approx_v2(*uniform_instance(24, 24, 16, 0), 0.5, 2.0)
for d in (2, 16):
    for kind in ("yes", "no"):
        p = separated_planted_instance(16, 32, d, 1.0, 2.0, 0.25, kind, d)
        assert cdut.build_index(p.b).backend == "screen"
        assert cdut.decide_cdut(p.a, p.b, 1.0, 0.25, 2.0, seed=d).answer == kind.upper()
loaded = [name for name in sys.modules if name.split(".")[0] == "scipy"]
assert not loaded, loaded
""")


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
            dxy = metric.norms(x - y)
            assert dxy >= 0.0
            assert metric.norms(x - x) == 0.0
            assert dxy <= metric.norms(x - z) + metric.norms(z - y) + ABS

    def test_l1_linf_hand_values(self):
        assert L1.norms(np.array([0.0, 0.0]) - np.array([3.0, 4.0])) == 7.0
        assert LINF.norms(np.array([0.0, 0.0]) - np.array([3.0, 4.0])) == 4.0


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
            L2.norms(p - q) for p in a.points for q in a.points
        )
        assert bbox_diameter(a) >= true_diam - ABS
