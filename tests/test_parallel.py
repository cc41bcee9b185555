import multiprocessing
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import cdut.core
import cdut.parallel
from cdut import chamfer_many
from cdut.parallel import concurrency, run_chunked, worker_count
from cdut.instances import uniform_instance

# translations of a 9-point set that hold enough query rows to use threads
POOLED = 1024
assert POOLED * 9 >= cdut.core._POOL_ROWS


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
    def test_parallel_evaluation_matches_serial(self, monkeypatch, counted_pool):
        a, b = uniform_instance(9, 11, 2, 5)
        rng = np.random.default_rng(6)
        # enough query rows that the evaluation goes to threads
        ts = rng.uniform(-20, 20, size=(POOLED, 2))
        monkeypatch.setattr(cdut.parallel, "_usable_cpus", lambda: 2)
        monkeypatch.delenv("CDUT_THREADS", raising=False)
        serial = chamfer_many(a, ts, b)
        assert counted_pool == []
        monkeypatch.setenv("CDUT_THREADS", "4")
        parallel = chamfer_many(a, ts, b)
        assert counted_pool == [2]
        assert np.array_equal(serial, parallel)

    def test_pooled_evaluation_leaves_no_thread_behind(self, monkeypatch, counted_pool):
        a, b = uniform_instance(9, 11, 2, 5)
        ts = np.random.default_rng(6).uniform(-20, 20, size=(POOLED, 2))
        monkeypatch.setattr(cdut.parallel, "_usable_cpus", lambda: 2)
        monkeypatch.delenv("CDUT_THREADS", raising=False)
        serial = chamfer_many(a, ts, b)
        monkeypatch.setenv("CDUT_THREADS", "2")
        before = threading.active_count()
        pooled = chamfer_many(a, ts, b)
        assert threading.active_count() == before
        assert counted_pool == [2]
        assert np.array_equal(pooled, serial)


class RecordingPool:
    """Records each pool built and runs blocks inline, so no thread starts."""

    built = []

    def __init__(self, max_workers):
        self.built.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, blocks):
        return map(fn, blocks)


@pytest.fixture
def recording_pool(monkeypatch):
    """Every pool built is a ``RecordingPool``; returns the sizes built."""
    monkeypatch.setattr(cdut.parallel, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "built", [])
    return RecordingPool.built


@pytest.fixture
def counted_pool(monkeypatch):
    """Every pool built is a real one; returns the sizes built."""
    built = []

    class CountedPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            built.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(cdut.parallel, "ThreadPoolExecutor", CountedPool)
    return built


class TestPoolSize:
    def test_pool_never_outgrows_usable_cpus(self, monkeypatch, recording_pool):
        seen = recording_pool
        monkeypatch.setenv("CDUT_THREADS", "100000")
        items = np.arange(400_000)
        blocks = run_chunked(len, items, worker_count())
        size = concurrency(len(items), worker_count())
        assert len(blocks) == size and sum(blocks) == len(items)
        assert size == min(100_000, len(os.sched_getaffinity(0)))
        # a single usable CPU runs the blocks on the caller
        assert seen == ([size] if size > 1 else [])

    def test_each_parallel_call_builds_and_shuts_its_own_pool(self, monkeypatch, counted_pool):
        monkeypatch.setattr(cdut.parallel, "_usable_cpus", lambda: 2)
        before = threading.active_count()
        for total in (100, 1000):
            items = np.arange(total)
            assert run_chunked(np.sum, items, 2) == [np.sum(items[: total // 2]), np.sum(items[total // 2 :])]
            assert threading.active_count() == before
        assert counted_pool == [2, 2]

    def test_serial_path_starts_no_thread(self, monkeypatch, recording_pool):
        monkeypatch.setenv("CDUT_THREADS", "100000")
        before = threading.active_count()
        items = np.arange(1000)  # too few to split between 100,000 workers
        assert run_chunked(len, items, worker_count()) == [1000]
        assert recording_pool == []
        assert threading.active_count() == before

    def test_small_evaluation_never_touches_the_pool(self, monkeypatch, recording_pool):
        monkeypatch.setattr(cdut.parallel, "_usable_cpus", lambda: 2)
        monkeypatch.setenv("CDUT_THREADS", "2")
        a, b = uniform_instance(9, 11, 2, 5)
        ts = np.random.default_rng(6).uniform(-20, 20, size=(POOLED, 2))
        below = cdut.core._POOL_ROWS // len(a) - 1  # translations in the largest serial call
        assert 4 * 2 <= below  # run_chunked alone would split this call
        want = chamfer_many(a, ts, b)
        assert recording_pool == [2]
        recording_pool.clear()
        got = chamfer_many(a, ts[:below], b)
        assert recording_pool == []
        assert np.array_equal(got, want[:below])

    def test_concurrency_follows_the_serial_path(self, monkeypatch):
        monkeypatch.setattr(cdut.parallel, "_usable_cpus", lambda: 8)
        assert concurrency(10**6, 1) == 1
        assert concurrency(399_999, 100_000) == 1
        assert concurrency(400_000, 100_000) == 8
        assert concurrency(400, 4) == 4


def _child_values(conn):
    a, b = uniform_instance(9, 11, 2, 5)
    ts = np.random.default_rng(6).uniform(-20, 20, size=(POOLED, 2))
    conn.send(chamfer_many(a, ts, b))
    conn.close()


class TestPoolPerCall:
    def test_nested_call_returns(self, monkeypatch):
        monkeypatch.setattr(cdut.parallel, "_usable_cpus", lambda: 2)

        def outer(block):
            # every thread of the outer pool is busy running an outer block
            # here, so the inner call needs threads of its own
            return sum(run_chunked(len, block, 2))

        out = []
        caller = threading.Thread(target=lambda: out.append(run_chunked(outer, np.arange(100), 2)), daemon=True)
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive()
        assert out == [[50, 50]]

    def test_forked_child_builds_its_own_pool(self, monkeypatch, counted_pool):
        monkeypatch.setattr(cdut.parallel, "_usable_cpus", lambda: 2)
        monkeypatch.setenv("CDUT_THREADS", "2")
        a, b = uniform_instance(9, 11, 2, 5)
        ts = np.random.default_rng(6).uniform(-20, 20, size=(POOLED, 2))
        want = chamfer_many(a, ts, b)
        assert counted_pool == [2]  # the parent evaluated on threads
        ctx = multiprocessing.get_context("fork")
        recv, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_child_values, args=(send,))
        child.start()
        send.close()
        got = recv.recv() if recv.poll(60) else None
        child.join(timeout=60)
        if child.is_alive():
            child.kill()
            child.join(timeout=10)
        assert got is not None and np.array_equal(got, want)
        assert child.exitcode == 0
