"""Worker-count policy and deterministic chunked evaluation.

CDUT_THREADS caps the worker count (0 = one per CPU, unset/1 = serial).
Chunks are reassembled in submission order, so results do not depend on
how many workers ran them.  Each parallel call runs its blocks on a thread
pool of its own, shut down before the call returns, and never starts more
threads than the CPUs this process may run on.

A caller passes ``workers=1`` when its work is too small to repay handing
it to threads; ``core`` does so below ``core._POOL_ROWS`` query rows.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

__all__ = ["worker_count", "concurrency", "run_chunked"]


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def worker_count() -> int:
    raw = os.environ.get("CDUT_THREADS", "").strip()
    if not raw:
        return 1
    try:
        n = int(raw)
    except ValueError:
        return 1
    if n == 0:
        return _usable_cpus()
    return max(1, n)


def concurrency(total: int, workers: int) -> int:
    """How many blocks ``run_chunked`` runs at once over ``total`` items.

    One, that is serially, for a single worker or fewer than four items
    per worker.
    """
    if workers <= 1 or total < 4 * workers:
        return 1
    return min(workers, _usable_cpus())


def run_chunked(fn, items: np.ndarray, workers: int) -> list:
    """Apply ``fn`` to ``concurrency(...)`` contiguous slices of ``items``, in order."""
    size = concurrency(len(items), workers)
    if size == 1:
        return [fn(items)]
    bounds = np.linspace(0, len(items), size + 1, dtype=int)
    blocks = [items[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
    with ThreadPoolExecutor(size) as pool:
        return list(pool.map(fn, blocks))
