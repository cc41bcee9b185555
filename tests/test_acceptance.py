"""Acceptance gate: one test per headline guarantee, at its stated tolerance.

Every test prints a single PASS/FAIL line (visible with ``pytest -s`` or on
failure) so the suite doubles as a checklist:

    pytest tests/test_acceptance.py -s
"""

import dataclasses
import math
import time

import numpy as np

from cdut import (
    L1,
    LINF,
    LocalNetConfig,
    PointSet,
    build_index,
    build_ladder,
    cdut_approx_v1,
    cdut_approx_v2,
    cdut_exact_1d,
    cdut_exact_l1_linf,
    cdut_localnet,
    chamfer_many,
    chamfer_translated,
    decide_cdut,
    gadget_a,
    gadget_b,
    gadget_width,
    geometric_median,
    oracle_cdut_1d,
    total_distance,
)
from cdut.cli import main as cli_main
from cdut.io import write_instance
from cdut.oracle import default_grid_spec, oracle_cdut_grid
from cdut.instances import (
    noisy_copy_instance,
    separated_planted_instance,
    translated_copy_instance,
    uniform_instance,
)

REL = 1e-9


def gate(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:>2} {name}: {status}  {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def random_sizes(seed, lo, hi):
    rng = np.random.default_rng(seed)
    return int(rng.integers(lo, hi)), int(rng.integers(lo, hi))


def test_01_exact_sweep_matches_oracle():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(500):
        m, n = random_sizes(seed, 1, 31)
        a, b = uniform_instance(m, n, 1, seed)
        sweep = cdut_exact_1d(a, b).value
        oracle = oracle_cdut_1d(a, b).value
        worst = max(worst, abs(sweep - oracle) / max(1.0, abs(oracle)))
    elapsed = time.perf_counter() - start
    gate(
        1,
        "exact 1D sweep vs candidate oracle",
        worst <= REL and elapsed < 10.0,
        f"500 instances, worst rel err {worst:.2e}, {elapsed:.2f}s",
    )


def test_02_candidate_lemmas():
    ok = True
    detail = ""
    for seed in range(200):
        m, n = random_sizes(1000 + seed, 2, 31)
        a, b = uniform_instance(m, n, 1, 1000 + seed)
        sweep = cdut_exact_1d(a, b)
        opt, t_star = sweep.value, sweep.translation[0]
        cand_min = oracle_cdut_1d(a, b).value
        if not (opt - REL <= cand_min <= 2.0 * opt + REL):
            ok, detail = False, f"2-approx violated at seed {seed}"
            break
        diffs = np.abs((b.points[:, 0][None, :] - a.points[:, 0][:, None]) - t_star)
        if diffs.min() > opt / m + 1e-12:
            ok, detail = False, f"closest-pair bound violated at seed {seed}"
            break
        per_point = np.abs(a.points[:, 0] + t_star - b.points[sweep.assignment, 0])
        for eps in (0.2, 0.5, 1.0):
            good = int(np.sum(per_point <= (1.0 + eps) * opt / m + 1e-12))
            if good < math.floor(m * eps / 2.0):
                ok, detail = False, f"markov count violated at seed {seed} eps {eps}"
                break
        if not ok:
            break
    gate(2, "candidate 2-approx + closest-pair + markov", ok, detail or "200 instances")


def test_03_sampled_candidate_algorithms():
    ok = True
    details = []
    for eps in (0.25, 0.5):
        v1_hits = v2_hits = 0
        runs = 100
        for seed in range(runs):
            m, n = random_sizes(2000 + seed, 5, 21)
            a, b = uniform_instance(m, n, 1, 2000 + seed)
            opt = cdut_exact_1d(a, b).value
            v1 = cdut_approx_v1(a, b, eps, seed=seed).value
            v2 = cdut_approx_v2(a, b, eps, c=2.0, seed=seed).value
            if v1 < opt - REL or v2 < opt - REL:
                ok = False
                details.append(f"underestimate at eps={eps} seed={seed}")
                break
            v1_hits += v1 <= (2.0 + eps) * opt + REL
            v2_hits += v2 <= (2.0 + eps) * 2.0 * opt + REL
        details.append(f"eps={eps}: v1 {v1_hits}/{runs}, v2 {v2_hits}/{runs}")
        ok = ok and v1_hits >= 0.95 * runs and v2_hits >= 0.90 * runs
    gate(3, "sampled candidates (both variants)", ok, "; ".join(details))


def test_04_local_net():
    eps = 0.25
    config = LocalNetConfig(epsilon=eps, delta=0.1)
    runs = 100
    hits = 0
    ok = True
    detail = ""
    for seed in range(runs):
        m, n = random_sizes(3000 + seed, 4, 16)
        a, b = uniform_instance(m, n, 1, 3000 + seed)
        opt = cdut_exact_1d(a, b).value
        plain = cdut_localnet(a, b, config, seed=seed)
        if plain.value < opt - REL:
            ok, detail = False, f"underestimate at seed {seed}"
            break
        hits += plain.value <= (1.0 + eps) * opt + REL
        union = cdut_localnet(a, b, dataclasses.replace(config, union_mode=True), seed=seed)
        if abs(union.value - plain.value) > REL * max(1.0, abs(plain.value)):
            ok, detail = False, f"union/plain mismatch at seed {seed}"
            break
    ok = ok and hits >= 0.90 * runs
    savings = 0
    for seed in range(10):
        inst = noisy_copy_instance(20, 1, 4000 + seed, noise=0.5)
        plain = cdut_localnet(inst.a, inst.b, config, seed=seed)
        union = cdut_localnet(inst.a, inst.b, dataclasses.replace(config, union_mode=True), seed=seed)
        savings += union.evaluations < plain.evaluations
    ok = ok and savings == 10
    gate(
        4,
        "local net (1+eps) + union mode",
        ok,
        detail or f"{hits}/{runs} within 1+eps, union saved work on {savings}/10 copies",
    )


def test_05_decision_procedure(tmp_path):
    wrong = 0
    for seed in range(100):
        rng = np.random.default_rng(5000 + seed)
        d = 1 if seed % 2 == 0 else 2
        m = int(rng.integers(2, 6)) * 2
        n = int(rng.integers(m, 21))
        yes = separated_planted_instance(m, n, d, 1.0, 2.0, 0.25, "yes", 5000 + seed)
        no = separated_planted_instance(m, n, d, 1.0, 2.0, 0.25, "no", 5000 + seed)
        wrong += decide_cdut(yes.a, yes.b, 1.0, 0.25, 2.0, seed=seed).answer != "YES"
        wrong += decide_cdut(no.a, no.b, 1.0, 0.25, 2.0, seed=seed).answer != "NO"
    # separation-violating inputs are refused with exit code 2
    write_instance(tmp_path / "a.txt", PointSet(np.array([[0.0], [5.0]])))
    write_instance(tmp_path / "b.txt", PointSet(np.array([[0.0], [0.25], [9.0]])))
    code = cli_main(
        ["decide", str(tmp_path / "a.txt"), str(tmp_path / "b.txt"), "--radius", "1.0"]
    )
    gate(
        5,
        "decision on planted instances",
        wrong == 0 and code == 2,
        f"{wrong} wrong answers over 200 instances, violation exit={code}",
    )


def test_06_gadget_lemmas():
    import itertools

    ok = True
    detail = ""
    for d in range(1, 7):
        w = gadget_width(d)
        for x in itertools.product((0, 1), repeat=d):
            for y in itertools.product((0, 1), repeat=d):
                ga, gb = gadget_a(x), gadget_b(y)
                value = cdut_exact_1d(ga, gb).value
                orthogonal = int(np.dot(x, y)) == 0
                if orthogonal and value > 1e-9:
                    ok, detail = False, f"orthogonal pair d={d} x={x} y={y} gave {value}"
                    break
                if not orthogonal and value < 1.0 - 1e-9:
                    ok, detail = False, f"overlapping pair d={d} x={x} y={y} gave {value}"
                    break
                shifts = (w, -w, w + 3.5, -(w + 3.5), 2 * w, -2 * w)
                values = chamfer_many(ga, np.array(shifts, dtype=float), gb)
                for t, got in zip(shifts, values):
                    expected = abs(t) * 2 * (d + 1) - 4 * d * d - 5 * d - 1
                    if abs(got - expected) > 1e-9 * max(1.0, expected):
                        ok, detail = False, f"closed form off at d={d} t={t}: {got} vs {expected}"
                        break
                if not ok:
                    break
            if not ok:
                break
        if not ok:
            break
    spot = chamfer_translated(gadget_a([1]), [5.0], gadget_b([1])).value
    ok = ok and abs(spot - 10.0) <= 1e-9
    gate(6, "gadget lemmas exhaustive d<=6", ok, detail or f"spot d=1,t=5 -> {spot}")


def test_07_ann_contract():
    rng = np.random.default_rng(70)
    b = PointSet(rng.uniform(0.0, 1.0, size=(500, 16)))
    ladder = build_ladder(b, c=2.0, seed=70)
    queries = rng.uniform(0.0, 1.0, size=(1000, 16))
    reported, _ = ladder.query_batch(queries)
    exact, _ = build_index(b).query_many(queries)
    underestimates = int(np.sum(reported < exact - 1e-12))
    within = float(np.mean(reported <= 2.0 * exact + 1e-12))
    gate(
        7,
        "ANN never underestimates, usually 2-approx",
        underestimates == 0 and within >= 0.95,
        f"{underestimates} underestimates, {within:.1%} within factor 2",
    )


def test_08_geometric_median():
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    square = geometric_median(corners, 1e-8)
    square_total = total_distance(corners, square.point)
    ok = np.allclose(square.point, [0.5, 0.5], atol=1e-6) and abs(square_total - 2.828427) <= 1e-5
    detail = f"square -> {square.point} total {square_total:.6f}"
    accuracy = 1e-6
    rng = np.random.default_rng(80)
    for _ in range(20):
        values = rng.uniform(-50, 50, size=(int(rng.integers(3, 12)), 1))
        total = total_distance(values, geometric_median(values, accuracy).point)
        best = float(np.sum(np.abs(values - np.median(values))))
        if total > best + accuracy:
            ok, detail = False, f"1D objective off by {total - best}"
            break
    gate(8, "geometric median", ok, detail)


def test_09_l1_linf_extension():
    ok = True
    detail = ""
    for metric in (L1, LINF):
        for seed in range(5):
            inst = translated_copy_instance(6, 2, seed=9000 + seed)
            report = cdut_exact_l1_linf(inst.a, inst.b, metric)
            if report.value != 0.0 or not np.array_equal(report.translation, inst.shift):
                ok, detail = False, f"copy recovery failed ({metric.name}, seed {seed})"
                break
        for seed in range(5):
            a, b = uniform_instance(4, 4, 2, 9100 + seed, low=-5, high=5)
            exact = cdut_exact_l1_linf(a, b, metric)
            grid = oracle_cdut_grid(a, b, spec=default_grid_spec(a, b, resolution=0.05), metric=metric)
            gap = grid.value - exact.value
            if not (-1e-9 <= gap <= grid.extras["slack"] + 1e-9):
                ok, detail = False, f"grid mismatch ({metric.name}, seed {seed}, gap {gap})"
                break
        if not ok:
            break
    gate(9, "l1/linf alignment extension", ok, detail or "copies recovered, oracle bracketed")


def test_10_total_distance_identities():
    ok = True
    detail = ""
    rng = np.random.default_rng(100)
    for trial in range(200):
        m, n = random_sizes(10_000 + trial, 2, 15)
        a, b = uniform_instance(m, n, 2, 10_000 + trial)
        t = rng.uniform(-10, 10, size=2)
        cd = chamfer_translated(a, t, b).value
        _, nn = build_index(b).query_many(a.points + t)
        induced = b.points[nn] - a.points  # difference set of the exact assignment at t
        if abs(total_distance(induced, t) - cd) > 1e-9 * max(1.0, cd):
            ok, detail = False, f"equality failed at trial {trial}"
            break
        arbitrary = b.points[rng.integers(0, n, size=m)] - a.points
        if total_distance(arbitrary, t) < cd - 1e-9:
            ok, detail = False, f"lower bound failed at trial {trial}"
            break
    gate(10, "total-distance identities", ok, detail or "200 (instance, t) pairs")
