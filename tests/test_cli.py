import json

import numpy as np
import pytest

from cdut import (
    L1,
    LocalNetConfig,
    Metric,
    PointSet,
    cdut_approx_v1,
    cdut_approx_v2,
    cdut_exact_1d,
    cdut_exact_l1_linf,
    cdut_localnet,
    check_separation,
    decide_cdut,
    oracle_cdut_1d,
    oracle_cdut_grid,
)
from cdut.cli import ALGORITHMS, SOLVERS, SolveOptions, main
from cdut.instances import noisy_copy_instance, uniform_instance
from cdut.io import InstanceParseError, read_instance, write_instance


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestInstanceFiles:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        ps = PointSet(rng.uniform(-1e6, 1e6, size=(37, 3)))
        path = tmp_path / "inst.txt"
        write_instance(path, ps, Metric.from_name("linf"))
        loaded, tag = read_instance(path)
        assert tag == "linf"
        assert np.array_equal(loaded.points, ps.points)

    def test_field_count_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("d=2 n=2 metric=l2\n1.0,2.0\n3.0\n")
        with pytest.raises(InstanceParseError) as err:
            read_instance(path)
        assert err.value.line == 3

    def test_header_errors(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("n=2\n1.0\n2.0\n")
        with pytest.raises(InstanceParseError, match="header"):
            read_instance(path)

    def test_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("d=1 n=3\n1.0\n2.0\n")
        with pytest.raises(InstanceParseError, match="promised"):
            read_instance(path)

    def test_bad_coordinate(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("d=1 n=1\nabc\n")
        with pytest.raises(InstanceParseError, match="bad coordinate"):
            read_instance(path)


class TestCompute:
    def test_orthogonal_gadget_files_give_zero(self, capsys, tmp_path):
        out = tmp_path / "gad"
        code, _, _ = run(capsys, ["gen", "ov-gadget", "--out", str(out), "--x", "10", "--y", "01"])
        assert code == 0
        code, text, _ = run(
            capsys, ["compute", "exact1d", f"{out}_a.txt", f"{out}_b.txt", "--json"]
        )
        assert code == 0
        record = json.loads(text)
        assert record["value"] == 0.0
        assert record["algorithm"] == "exact1d"
        # 6 points in A, 8 in B: 2mn - m events, all in one window
        assert record["extras"] == {"events_full": 90, "windows": 1, "windows_swept": 1}

    def test_exact1d_reports_the_windows_it_swept(self, capsys, tmp_path):
        out = tmp_path / "uni"
        run(capsys, ["gen", "uniform", "--out", str(out), "--m", "200", "--n", "200", "--dim", "1", "--seed", "3"])
        code, text, _ = run(capsys, ["compute", "exact1d", f"{out}_a.txt", f"{out}_b.txt", "--json"])
        assert code == 0
        record = json.loads(text)
        extras = record["extras"]
        assert extras["events_full"] == 2 * 200 * 200 - 200
        assert 1 <= extras["windows_swept"] < extras["windows"]
        assert record["evaluations"] < extras["events_full"]

    def test_seeded_runs_reproduce_records(self, capsys, tmp_path):
        out = tmp_path / "uni"
        run(capsys, ["gen", "uniform", "--out", str(out), "--m", "12", "--n", "15", "--seed", "4"])
        records = []
        for _ in range(2):
            code, text, _ = run(
                capsys,
                ["compute", "approx-v2", f"{out}_a.txt", f"{out}_b.txt", "--seed", "7", "--json"],
            )
            assert code == 0
            record = json.loads(text)
            record.pop("wall_ms")
            records.append(record)
        assert records[0] == records[1]

    def test_localnet_recovers_planted_2d_shift(self, capsys, tmp_path):
        out = tmp_path / "copy"
        run(
            capsys,
            ["gen", "translated-copy", "--out", str(out), "--m", "10", "--dim", "2", "--seed", "6"],
        )
        meta = json.loads((tmp_path / "copy_meta.json").read_text())
        code, text, _ = run(
            capsys, ["compute", "localnet", f"{out}_a.txt", f"{out}_b.txt", "--json"]
        )
        assert code == 0
        record = json.loads(text)
        assert record["value"] == 0.0
        assert np.allclose(record["translation"], meta["shift"])

    def test_validation_failure_exits_2(self, capsys, tmp_path):
        out = tmp_path / "uni2"
        run(capsys, ["gen", "uniform", "--out", str(out), "--dim", "2", "--seed", "1"])
        code, _, err = run(
            capsys,
            ["compute", "exact-l1linf", f"{out}_a.txt", f"{out}_b.txt", "--metric", "l2"],
        )
        assert code == 2
        assert "l1/linf" in err

    def test_missing_file_exits_1(self, capsys, tmp_path):
        code, _, err = run(capsys, ["compute", "exact1d", str(tmp_path / "no.txt"), str(tmp_path / "no.txt")])
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("header", ["d=1 n=2 metric=l3", "d=1 n=2 metric=l1 metric=l2"])
    def test_bad_metric_tag_is_a_file_error(self, capsys, tmp_path, header):
        bad, good = tmp_path / "bad.txt", tmp_path / "good.txt"
        bad.write_text(header + "\n1.0\n2.0\n")
        write_instance(good, PointSet(np.array([[0.0], [3.0]])))
        code, _, err = run(capsys, ["compute", "exact1d", str(bad), str(good)])
        assert code == 1
        assert f"{bad}:1:" in err

    def test_disagreeing_metric_tags_exit_2(self, capsys, tmp_path):
        path_a, path_b = tmp_path / "a.txt", tmp_path / "b.txt"
        write_instance(path_a, PointSet(np.array([[0.0], [1.0]])), Metric.from_name("l1"))
        write_instance(path_b, PointSet(np.array([[0.0], [3.0]])), Metric.from_name("linf"))
        code, _, err = run(capsys, ["compute", "exact1d", str(path_a), str(path_b)])
        assert code == 2
        assert "metric=l1" in err and "metric=linf" in err
        code, text, _ = run(capsys, ["compute", "exact1d", str(path_a), str(path_b), "--metric", "l2", "--json"])
        assert code == 0
        assert json.loads(text)["metric"] == "l2"

    def test_out_of_memory_exits_2(self, capsys, tmp_path, monkeypatch):
        out = tmp_path / "uni"
        run(capsys, ["gen", "uniform", "--out", str(out), "--m", "6", "--n", "6", "--seed", "2"])

        def exhausted(a, b, metric, opts):
            raise MemoryError

        monkeypatch.setitem(SOLVERS, "approx-v1", exhausted)
        code, text, err = run(capsys, ["compute", "approx-v1", f"{out}_a.txt", f"{out}_b.txt"])
        assert (code, text) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1


    @pytest.mark.parametrize("algorithm", ["approx-v1", "approx-v2"])
    @pytest.mark.parametrize("epsilon", ["1.0", "0.0"])
    def test_epsilon_outside_the_open_unit_interval_exits_2(self, capsys, tmp_path, algorithm, epsilon):
        out = tmp_path / "uni"
        run(capsys, ["gen", "uniform", "--out", str(out), "--m", "6", "--n", "6", "--seed", "2"])
        code, text, err = run(
            capsys, ["compute", algorithm, f"{out}_a.txt", f"{out}_b.txt", "--epsilon", epsilon]
        )
        assert code == 2 and text == ""
        assert "epsilon" in err

    @pytest.mark.parametrize("c", ["inf", "nan"])
    def test_non_finite_c_exits_2(self, capsys, tmp_path, c):
        out = tmp_path / "uni"
        run(capsys, ["gen", "uniform", "--out", str(out), "--m", "6", "--n", "6", "--seed", "2"])
        code, text, err = run(capsys, ["compute", "approx-v2", f"{out}_a.txt", f"{out}_b.txt", "--c", c])
        assert code == 2 and text == ""
        assert err.count("\n") == 1 and "c must exceed" in err


class TestDimensionMismatch:
    # A and B of different dimension: every solver and decide refuse them
    # before any other check, and the CLI exits 2
    PAIRS = [(1, 2), (2, 1), (2, 3)]

    @staticmethod
    def _pair(dim_a, dim_b):
        a, _ = uniform_instance(6, 6, dim_a, 11)
        _, b = uniform_instance(6, 6, dim_b, 12)
        return a, b

    @pytest.mark.parametrize("dims", PAIRS, ids=lambda p: f"{p[0]}vs{p[1]}")
    @pytest.mark.parametrize("algorithm", [*ALGORITHMS, "decide"])
    def test_library_call_raises(self, algorithm, dims):
        a, b = self._pair(*dims)
        with pytest.raises(ValueError, match="dimension"):
            if algorithm == "decide":
                decide_cdut(a, b, 1.0, 0.25, 2.0)
            else:
                SOLVERS[algorithm](a, b, L1, SolveOptions(0.5, 2.0, None, 0))

    @pytest.mark.parametrize("algorithm", [*ALGORITHMS, "decide"])
    def test_cli_exits_2(self, capsys, tmp_path, algorithm):
        a, b = self._pair(1, 2)
        write_instance(tmp_path / "a.txt", a, L1)
        write_instance(tmp_path / "b.txt", b, L1)
        files = [str(tmp_path / "a.txt"), str(tmp_path / "b.txt")]
        argv = ["decide", *files, "--radius", "1.0"] if algorithm == "decide" else ["compute", algorithm, *files]
        code, text, err = run(capsys, argv)
        assert code == 2 and text == ""
        assert "dimension" in err


class TestRegistry:
    # CLI arguments and the library call they stand for, on a 1D l1 instance
    CALLS = [
        ("exact1d", [], lambda a, b: cdut_exact_1d(a, b)),
        ("exact-l1linf", [], lambda a, b: cdut_exact_l1_linf(a, b, L1)),
        ("approx-v1", ["--seed", "3"], lambda a, b: cdut_approx_v1(a, b, 0.5, seed=3, metric=L1)),
        (
            "approx-v2",
            ["--seed", "3", "--c", "3.0"],
            lambda a, b: cdut_approx_v2(a, b, 0.5, 3.0, seed=3, metric=L1),
        ),
        (
            "localnet",
            ["--seed", "3", "--delta", "0.3"],
            lambda a, b: cdut_localnet(a, b, LocalNetConfig(epsilon=0.5, delta=0.3), seed=3, metric=L1),
        ),
        (
            "localnet",
            ["--seed", "3", "--union-net"],
            lambda a, b: cdut_localnet(a, b, LocalNetConfig(epsilon=0.5, union_mode=True), seed=3, metric=L1),
        ),
        ("oracle-1d", [], lambda a, b: oracle_cdut_1d(a, b)),
        ("oracle-grid", [], lambda a, b: oracle_cdut_grid(a, b, metric=L1)),
    ]

    def test_compute_matches_the_library_call(self, capsys, tmp_path):
        out = tmp_path / "uni"
        gen = ["gen", "uniform", "--out", str(out), "--m", "9", "--n", "11", "--seed", "5", "--metric", "l1"]
        run(capsys, gen)
        a, _ = read_instance(f"{out}_a.txt")
        b, _ = read_instance(f"{out}_b.txt")
        assert {name for name, _, _ in self.CALLS} == set(ALGORITHMS)
        for name, flags, call in self.CALLS:
            code, text, _ = run(capsys, ["compute", name, f"{out}_a.txt", f"{out}_b.txt", "--json", *flags])
            assert code == 0, name
            record = json.loads(text)
            report = call(a, b)
            assert record.pop("wall_ms") >= 0.0
            assert record == {
                "algorithm": report.algorithm,
                "value": float(report.value),
                "translation": [float(v) for v in np.atleast_1d(report.translation)],
                "metric": "l1",
                "seed": report.seed,
                "epsilon": report.epsilon,
                "c": report.c,
                "evaluations": report.evaluations,
                "extras": report.extras,
            }, name
            assert repr(record["value"]) == repr(float(report.value)), name

    def test_bench_rows_match_compute(self, capsys, tmp_path):
        size, seed = 8, 8  # bench seeds rep 0 of size s with --seed + s
        a, b = uniform_instance(size, size, 1, seed)
        write_instance(tmp_path / "a.txt", a)
        write_instance(tmp_path / "b.txt", b)
        bench = ["bench", "--algos", ",".join(ALGORITHMS), "--sizes", str(size), "--seed", "0", "--json"]
        code, text, _ = run(capsys, bench)
        assert code == 0
        rows = [json.loads(line) for line in text.strip().splitlines()]
        assert [row["algorithm"] for row in rows] == list(ALGORITHMS)
        for row in rows:
            assert row["seed"] == seed
            argv = ["compute", row["algorithm"], str(tmp_path / "a.txt"), str(tmp_path / "b.txt")]
            code, text, _ = run(capsys, argv + ["--seed", str(seed), "--json"])
            if row["error"] is not None:
                assert code == 2, row
                continue
            assert code == 0, row
            record = json.loads(text)
            assert repr(record["value"]) == repr(row["value"]), row
            for key in set(record) - {"wall_ms", "seed", "algorithm"}:
                assert row[key] == record[key], (key, row)


class TestDecideCommand:
    def _gen(self, capsys, tmp_path, mode, seed=2):
        out = tmp_path / f"planted_{mode}"
        code, _, _ = run(
            capsys,
            [
                "gen",
                "separated-planted",
                "--out",
                str(out),
                "--m",
                "6",
                "--n",
                "12",
                "--dim",
                "2",
                "--mode",
                mode,
                "--radius",
                "1.0",
                "--seed",
                str(seed),
            ],
        )
        assert code == 0
        return out

    def test_yes_instance_exits_0(self, capsys, tmp_path):
        out = self._gen(capsys, tmp_path, "yes")
        code, text, _ = run(
            capsys, ["decide", f"{out}_a.txt", f"{out}_b.txt", "--radius", "1.0", "--json"]
        )
        assert code == 0
        payload = json.loads(text)
        assert payload["answer"] == "YES"
        assert payload["median_iterations"] > 0
        assert payload["medians_nonconverged"] == 0

    def test_no_instance_exits_3(self, capsys, tmp_path):
        out = self._gen(capsys, tmp_path, "no")
        code, text, _ = run(capsys, ["decide", f"{out}_a.txt", f"{out}_b.txt", "--radius", "1.0"])
        assert code == 3
        assert text.startswith("NO")

    def test_separation_violation_exits_2_with_certificate(self, capsys, tmp_path):
        a = PointSet(np.array([[0.0], [4.0]]))
        b = PointSet(np.array([[0.0], [0.5], [9.0]]))
        write_instance(tmp_path / "a.txt", a)
        write_instance(tmp_path / "b.txt", b)
        code, text, _ = run(
            capsys,
            ["decide", str(tmp_path / "a.txt"), str(tmp_path / "b.txt"), "--radius", "1.0"],
        )
        assert code == 2
        assert "SEPARATION-VIOLATED" in text
        assert "min_pairwise_b=0.5" in text


class TestGen:
    def test_uniform_is_byte_reproducible(self, capsys, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        run(capsys, ["gen", "uniform", "--out", str(out1), "--n", "100", "--dim", "3", "--seed", "1"])
        run(capsys, ["gen", "uniform", "--out", str(out2), "--n", "100", "--dim", "3", "--seed", "1"])
        assert (tmp_path / "r1_b.txt").read_bytes() == (tmp_path / "r2_b.txt").read_bytes()

    def test_gadget_files_match_library_constructions(self, capsys, tmp_path):
        from cdut import gadget_a, gadget_b

        out = tmp_path / "g"
        run(capsys, ["gen", "ov-gadget", "--out", str(out), "--x", "10", "--y", "01"])
        a, _ = read_instance(f"{out}_a.txt")
        b, _ = read_instance(f"{out}_b.txt")
        assert np.array_equal(a.points, gadget_a([1, 0]).points)
        assert np.array_equal(b.points, gadget_b([0, 1]).points)

    def test_separated_planted_honors_the_separation_bound(self, capsys, tmp_path):
        out = tmp_path / "sep"
        run(
            capsys,
            [
                "gen",
                "separated-planted",
                "--out",
                str(out),
                "--m",
                "8",
                "--n",
                "16",
                "--dim",
                "2",
                "--seed",
                "5",
            ],
        )
        b, _ = read_instance(f"{out}_b.txt")
        assert check_separation(b, c=2.0, radius=1.0, m=8).holds

    def test_separated_planted_with_m_over_n_exits_2(self, capsys, tmp_path):
        out = tmp_path / "sep"
        argv = ["gen", "separated-planted", "--out", str(out), "--m", "40", "--n", "12", "--dim", "2"]
        code, _, err = run(capsys, argv)
        assert code == 2
        assert "m = 40 exceeds n = 12" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("dim,shift", [("3", ["5"]), ("2", ["5", "6", "7"])])
    def test_translated_copy_shift_of_another_length_exits_2(self, capsys, tmp_path, dim, shift):
        argv = ["gen", "translated-copy", "--out", str(tmp_path / "t"), "--dim", dim, "--shift", *shift]
        code, _, err = run(capsys, argv)
        assert code == 2
        assert f"expected ({dim},)" in err
        assert list(tmp_path.iterdir()) == []

    def test_combined_gadget_generation(self, capsys, tmp_path):
        out = tmp_path / "comb"
        code, _, _ = run(
            capsys,
            ["gen", "combined-gadget", "--out", str(out), "--x", "10,11", "--y", "01,01"],
        )
        assert code == 0
        a, _ = read_instance(f"{out}_a.txt")
        b, _ = read_instance(f"{out}_b.txt")
        assert a.dim == 1 and len(a) == 12


class TestBench:
    def test_table_and_ratios(self, capsys):
        code, text, _ = run(
            capsys,
            [
                "bench",
                "--algos",
                "exact1d,approx-v2,localnet",
                "--sizes",
                "15,20",
                "--reps",
                "2",
                "--epsilon",
                "0.25",
                "--json",
            ],
        )
        assert code == 0
        rows = [json.loads(line) for line in text.strip().splitlines()]
        assert len(rows) == 3 * 2 * 2
        v2_rows = [r for r in rows if r["algorithm"] == "approx-v2"]
        assert all(r["ratio"] >= 1.0 - 1e-9 for r in v2_rows)
        ln_rows = [r for r in rows if r["algorithm"] == "localnet"]
        within = sum(r["ratio"] <= 1.25 + 1e-9 for r in ln_rows)
        assert within >= 0.9 * len(ln_rows)

    def test_human_table_output(self, capsys):
        code, text, _ = run(capsys, ["bench", "--algos", "exact1d", "--sizes", "10", "--reps", "1"])
        assert code == 0
        assert "algorithm" in text and "exact1d" in text

    def test_noisy_copy_rows_solve_the_noisy_copy_sets(self, capsys):
        argv = ["bench", "--algos", "exact1d", "--family", "noisy-copy", "--sizes", "8,12", "--json"]
        code, text, _ = run(capsys, argv)
        assert code == 0
        for row in map(json.loads, text.strip().splitlines()):
            assert row["family"] == "noisy-copy"
            inst = noisy_copy_instance(row["size"], 1, row["seed"], noise=0.25)
            report = cdut_exact_1d(inst.a, inst.b)
            assert repr(row["value"]) == repr(float(report.value))
            assert row["translation"] == [float(report.translation[0])]

    def test_translated_copy_family_is_refused(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--family", "translated-copy"])
        assert exc.value.code == 2

    def test_unknown_algorithm_rejected(self, capsys):
        code, _, err = run(capsys, ["bench", "--algos", "quantum", "--sizes", "10"])
        assert code == 2
        assert "unknown algorithms" in err

    def test_over_budget_rows_do_not_kill_the_run(self, capsys):
        code, text, _ = run(
            capsys, ["bench", "--algos", "exact1d,oracle-1d", "--sizes", "20,200", "--json"]
        )
        assert code == 0
        rows = [json.loads(line) for line in text.strip().splitlines()]
        failed = [r for r in rows if r["error"]]
        assert len(failed) == 1 and failed[0]["algorithm"] == "oracle-1d"
        assert all(r["value"] is not None for r in rows if not r["error"])
