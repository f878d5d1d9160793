"""The CPUs this process may use, and an order-keeping thread map over them.

``usable_cpus`` is the default thread count of the simulator's chunk
draws, the worker count of the CSV parse, and the thread count of the
correlated fit's per-candidate searches; the draws and the searches run
through ``thread_map``.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor


def usable_cpus() -> int:
    """The CPUs this process may run on: the default worker count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def thread_map(fn, items, threads: int) -> list:
    """[fn(x) for x in items], on up to ``threads`` worker threads when
    there is more than one item and more than one thread.  The results
    keep the order of ``items``, the first exception in that order is
    raised, and every worker has been joined when this returns."""
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=min(threads, len(items))) as pool:
        return list(pool.map(fn, items))
