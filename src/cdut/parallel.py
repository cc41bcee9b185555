"""Worker-count policy and deterministic chunked evaluation.

CDUT_THREADS caps the worker count (0 = one per CPU, unset/1 = serial).
Chunks are reassembled in submission order, so results do not depend on
how many workers ran them.  The thread pool never outgrows the CPUs this
process may run on, whatever worker count is asked for.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

__all__ = ["worker_count", "concurrency", "run_chunked"]


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


def run_chunked(fn, items: np.ndarray, workers: int) -> list:
    """Apply ``fn`` to ``concurrency(...)`` contiguous slices of ``items``, in order."""
    total = len(items)
    if _serial(total, workers):
        return [fn(items)]
    pool_size = concurrency(total, workers)
    bounds = np.linspace(0, total, pool_size + 1, dtype=int)
    blocks = [items[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
    with ThreadPoolExecutor(max_workers=pool_size) as pool:
        return list(pool.map(fn, blocks))
