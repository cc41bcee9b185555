import os

import numpy as np

import cdut.parallel
from cdut import chamfer_many
from cdut.parallel import concurrency, run_chunked, worker_count
from cdut.instances import uniform_instance


class TestWorkerCount:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("CDUT_THREADS", raising=False)
        assert worker_count() == 1

    def test_zero_means_auto(self, monkeypatch):
        monkeypatch.setenv("CDUT_THREADS", "0")
        assert worker_count() >= 1

    def test_explicit_cap(self, monkeypatch):
        monkeypatch.setenv("CDUT_THREADS", "3")
        assert worker_count() == 3

    def test_garbage_falls_back_to_serial(self, monkeypatch):
        monkeypatch.setenv("CDUT_THREADS", "lots")
        assert worker_count() == 1


class TestDeterministicReduction:
    def test_parallel_evaluation_matches_serial(self, monkeypatch):
        a, b = uniform_instance(9, 11, 2, 5)
        rng = np.random.default_rng(6)
        ts = rng.uniform(-20, 20, size=(64, 2))
        monkeypatch.delenv("CDUT_THREADS", raising=False)
        serial = chamfer_many(a, ts, b)
        monkeypatch.setenv("CDUT_THREADS", "4")
        parallel = chamfer_many(a, ts, b)
        assert np.array_equal(serial, parallel)


class TestPoolSize:
    def test_pool_never_outgrows_usable_cpus(self, monkeypatch):
        seen = []

        class RecordingPool:
            # records the pool size and runs blocks inline, so no thread starts
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, blocks):
                return map(fn, blocks)

        monkeypatch.setattr(cdut.parallel, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setenv("CDUT_THREADS", "100000")
        items = np.arange(400_000)
        blocks = run_chunked(len, items, worker_count())
        assert len(blocks) == concurrency(len(items), worker_count()) and sum(blocks) == len(items)
        assert seen == [min(100_000, len(os.sched_getaffinity(0)))]
        assert seen == [concurrency(len(items), worker_count())]

    def test_concurrency_follows_the_serial_path(self, monkeypatch):
        monkeypatch.setattr(cdut.parallel, "_usable_cpus", lambda: 8)
        assert concurrency(10**6, 1) == 1
        assert concurrency(399_999, 100_000) == 1
        assert concurrency(400_000, 100_000) == 8
        assert concurrency(400, 4) == 4
