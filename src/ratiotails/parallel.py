"""The CPUs this process may use, and an order-keeping thread map over them.

``usable_cpus`` sizes every parallel stage.  ``thread_count`` turns a
``threads`` argument into a count, the usable CPUs when none is given,
for ``thread_map`` (the simulator's chunk draws, the fit's per-candidate
searches and its full-bulk passes) and for the CSV formatting lanes; the
CSV parse runs on the calling thread.  Only the draws and the CSV formatting of
``simulate --threads`` take another count, and ``thread_count`` refuses
one below 1 for them all.  No stage starts a process, and no stage's
output depends on the count.
"""

from __future__ import annotations

import os
import threading


def usable_cpus() -> int:
    """The CPUs this process may run on: the default thread count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def thread_count(threads: int | None = None) -> int:
    """The count of threads a ``threads`` argument asks for: the usable
    CPUs for None; a count below 1 raises DomainError."""
    if threads is None:
        return usable_cpus()
    if threads < 1:
        from .errors import DomainError

        raise DomainError(f"threads={threads} is not a positive count")
    return threads


def thread_map(fn, items, threads: int | None = None) -> list:
    """[fn(x) for x in items], on up to ``threads`` threads (see
    thread_count) when there is more than one item and more than one
    thread: the calling thread and the other threads take the items in
    order from one queue.  The results keep the order of ``items``, the
    first exception in that order is raised, and every worker has been
    joined when this returns.

    The caller takes items too, so a map starts one thread fewer, and
    keeps one malloc arena fewer resident for the rest of the process.
    After an exception no item is taken, but every item taken before it
    runs to its end; they are the earlier ones, so the exception raised
    is the first in order of all the items.
    """
    items = list(items)
    workers = min(thread_count(threads), len(items)) - 1
    if workers < 1:
        return [fn(x) for x in items]
    results = [None] * len(items)
    errors = {}
    lock = threading.Lock()
    order = iter(range(len(items)))

    def drain():
        while True:
            with lock:
                i = None if errors else next(order, None)
            if i is None:
                return
            try:
                results[i] = fn(items[i])
            except BaseException as exc:  # raised by the caller, in order
                with lock:
                    errors[i] = exc

    pool = []
    try:
        for _ in range(workers):
            thread = threading.Thread(target=drain)
            thread.start()
            pool.append(thread)
        drain()
    finally:
        for thread in pool:
            thread.join()
    if errors:
        raise errors[min(errors)]
    return results
