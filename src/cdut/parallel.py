"""Worker-count policy and deterministic chunked evaluation.

CDUT_THREADS caps the worker count (0 = one per CPU, unset/1 = serial).
Chunks are reassembled in submission order, so results do not depend on
how many workers ran them.  The thread pool never outgrows the CPUs this
process may run on, whatever worker count is asked for.

Parallel calls share one thread pool that lives for the whole process.  It
is built on the first parallel call, with that call's concurrency; a later
call that asks for more blocks at once queues the extra ones.  A forked
child drops the pool it inherits, since the parent's threads do not exist
there.

A caller passes ``workers=1`` when its work is too small to repay handing
it to the pool; ``core`` does so below ``core._POOL_ROWS`` query rows.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

__all__ = ["worker_count", "concurrency", "run_chunked"]

_pool = None
_pool_lock = threading.Lock()
# set on a pool thread while it runs a block
_in_block = threading.local()


def worker_count() -> int:
    raw = os.environ.get("CDUT_THREADS", "").strip()
    if not raw:
        return 1
    try:
        n = int(raw)
    except ValueError:
        return 1
    if n == 0:
        return os.cpu_count() or 1
    return max(1, n)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _serial(total: int, workers: int) -> bool:
    return workers <= 1 or total < 4 * workers


def concurrency(total: int, workers: int) -> int:
    """How many blocks ``run_chunked`` runs at once over ``total`` items."""
    return 1 if _serial(total, workers) else min(workers, _usable_cpus())


def _shared_pool(size: int) -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=size)
        return _pool


def _drop_pool() -> None:
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


def _run_block(fn, block):
    _in_block.active = True
    try:
        return fn(block)
    finally:
        _in_block.active = False


def run_chunked(fn, items: np.ndarray, workers: int) -> list:
    """Apply ``fn`` to ``concurrency(...)`` contiguous slices of ``items``, in order.

    A call made from inside a block runs serially: its blocks would wait
    for pool threads that are busy running the caller.
    """
    total = len(items)
    if _serial(total, workers) or getattr(_in_block, "active", False):
        return [fn(items)]
    pool_size = concurrency(total, workers)
    bounds = np.linspace(0, total, pool_size + 1, dtype=int)
    blocks = [items[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
    pool = _shared_pool(pool_size)
    futures = [pool.submit(_run_block, fn, block) for block in blocks]
    wait(futures)
    return [future.result() for future in futures]
