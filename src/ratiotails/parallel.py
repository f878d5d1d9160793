"""The CPUs this process may use, and an order-keeping thread map over them.

``usable_cpus`` sizes every parallel stage.  ``thread_count`` turns a
``threads`` argument into a count, the usable CPUs when none is given,
for ``thread_map``, the one place where threads start: the simulator's
chunk draws, the CSV formatting (handed to the file in order) and the
fit's per-candidate searches and full-bulk passes.  Only the draws and
the CSV formatting of ``simulate --threads`` take another count, and
``thread_count`` refuses one below 1 for them all.  No stage starts a
process, and no stage's output depends on the count.
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


def thread_map(fn, items, threads: int | None = None, then=None):
    """[fn(x) for x in items], on up to ``threads`` threads (see
    thread_count) when there is more than one item and more than one
    thread: the calling thread and the other threads take the items in
    order from one queue.  The results keep the order of ``items``, the
    first exception in that order is raised, and every worker has been
    joined when this returns.

    With ``then``, None is returned, and the thread that made a result
    calls then(result) once every earlier result has been handed over,
    then drops it: the calls run in item order, a thread holds one result
    at a time, and an exception of ``then`` counts as its item's.

    The caller takes items too, so a map starts one thread fewer, and
    keeps one malloc arena fewer resident for the rest of the process.
    After an exception no item is taken and no result is handed over,
    but every item taken before it runs to its end; they are the earlier
    ones, so the exception raised is the first in order of all the items.
    """
    items = list(items)
    workers = min(thread_count(threads), len(items)) - 1
    results = [None] * len(items)
    errors = {}
    turn = threading.Condition()
    order = iter(range(len(items)))
    handed = 0

    def drain():
        nonlocal handed
        while True:
            with turn:
                i = None if errors else next(order, None)
            if i is None:
                return
            try:
                result = fn(items[i])
                if then is None:
                    results[i] = result
                    continue
                with turn:
                    turn.wait_for(lambda: errors or handed == i)
                    if errors:
                        return
                then(result)
                del result  # dead before the next item
                with turn:
                    handed += 1
                    turn.notify_all()
            except BaseException as exc:  # raised by the caller, in order
                with turn:
                    errors[i] = exc
                    turn.notify_all()

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
    return results if then is None else None
