"""The order-keeping thread map, the usable-CPU count that sizes every
parallel stage, and the one check of a thread count."""

import contextlib
import hashlib
import io
import sys
import threading
import time

import pytest

from ratiotails import (Family, OrderFlowParams, ResponseSpec, SimConfig,
                        fileio, parallel, simulate)
from ratiotails.cli import main
from ratiotails.errors import DomainError
from ratiotails.parallel import thread_map
from ratiotails.simulate import CHUNK


def test_results_keep_the_order_of_the_items():
    # the earlier items take longest, so they finish last
    def slow_first(i):
        time.sleep(0.002 * (12 - i))
        return i * i

    assert thread_map(slow_first, range(12), 3) == [i * i for i in range(12)]


@pytest.mark.parametrize("threads", [1, 2, 3, 5])
def test_no_more_threads_run_than_asked_counting_the_caller(threads):
    before = threading.active_count()
    lock = threading.Lock()
    running, peak, seen = [0], [0], set()

    def track(i):
        with lock:
            running[0] += 1
            peak[0] = max(peak[0], running[0])
            seen.add(threading.get_ident())
            assert threading.active_count() - before <= threads - 1
        time.sleep(0.002)
        with lock:
            running[0] -= 1
        return i

    assert thread_map(track, range(24), threads) == list(range(24))
    assert peak[0] <= threads
    assert len(seen) <= threads
    assert threading.active_count() == before


def test_the_first_exception_in_item_order_is_raised_after_every_join():
    # item 5 raises at once, item 1 only after a wait: item 1's error is
    # the one raised, and only once every worker has returned
    before = threading.active_count()
    done = []

    def fn(i):
        if i == 1:
            time.sleep(0.05)
            raise KeyError(i)
        if i == 5:
            raise ValueError(i)
        time.sleep(0.01)
        done.append(i)
        return i

    with pytest.raises(KeyError) as err:
        thread_map(fn, range(40), 3)
    assert err.value.args == (1,)
    assert threading.active_count() == before
    # no item is taken after an error, but every earlier one runs
    assert {0, 2, 3, 4} <= set(done)
    assert len(done) < 38


def test_the_callers_own_exception_waits_for_the_workers():
    before = threading.active_count()
    caller = threading.get_ident()
    in_worker = threading.Event()
    done = []

    def fn(i):
        if threading.get_ident() == caller:
            assert in_worker.wait(10)
            raise KeyError(i)
        in_worker.set()
        time.sleep(0.2)
        done.append(i)
        return i

    with pytest.raises(KeyError):
        thread_map(fn, range(2), 2)
    assert len(done) == 1  # the worker's item ran to its end first
    assert threading.active_count() == before


def test_every_item_runs_once_under_frequent_switches():
    # more threads than cores, and a switch every microsecond: a lost
    # update of the shared queue would skip or repeat an item
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        calls = []
        out = thread_map(lambda i: calls.append(i) or -i, range(5000), 8)
    finally:
        sys.setswitchinterval(interval)
    assert out == [-i for i in range(5000)]
    assert sorted(calls) == list(range(5000))


def test_one_thread_or_one_item_runs_on_the_caller():
    caller = threading.get_ident()
    assert thread_map(lambda i: threading.get_ident(), range(3), 1) == \
        [caller] * 3
    assert thread_map(lambda i: threading.get_ident(), [0], 4) == [caller]
    assert thread_map(lambda i: i, [], 4) == []


def test_thread_count_reads_the_usable_cpus_when_called(monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 7)
    assert parallel.thread_count() == parallel.thread_count(None) == 7
    assert parallel.thread_count(3) == 3


@pytest.mark.parametrize("threads", [0, -1])
def test_a_count_below_one_raises_before_any_draw_or_write(tmp_path,
                                                            monkeypatch,
                                                            threads):
    # one check for the thread map, the draws and the CSV formatting
    # lanes: no chunk is drawn, and no file is left
    drawn = []
    stream = simulate.stream
    monkeypatch.setattr(simulate, "stream",
                        lambda *a: drawn.append(a) or stream(*a))
    cfg = SimConfig(params=OrderFlowParams(1.0, 1.0, 0.35, 0.35, -1.0),
                    response=ResponseSpec(Family.SYM), tau0=1.0, dt=1e-4,
                    n_steps=10, p0=1.0, seed=3)
    with pytest.raises(DomainError, match="not a positive count"):
        simulate.simulate_gbm(0.05, 0.2, 1e-4, 10, 1.0, 3, threads=threads)
    with pytest.raises(DomainError, match="not a positive count"):
        simulate.simulate_path(cfg, threads=threads)
    with pytest.raises(DomainError, match="not a positive count"):
        thread_map(abs, [1, 2], threads)
    assert drawn == []
    series = simulate.simulate_path(cfg, threads=1)
    with pytest.raises(DomainError, match="not a positive count"):
        fileio.save_price_series(series, str(tmp_path / "p.csv"),
                                 threads=threads)
    assert list(tmp_path.iterdir()) == []


def test_the_pipeline_does_not_depend_on_the_usable_cpus(tmp_path,
                                                         monkeypatch):
    # parallel.usable_cpus sizes every stage: the path's two draw chunks,
    # its CSV formatting, the parse of its pieces (the kernel's at least
    # 4 of them at each count), the fit's searches and full-bulk passes,
    # and tails; at 1, 2 and 3 usable CPUs every byte written and every
    # value loaded is the same
    parse = fileio._Lane.parse
    taken = []

    def spy(lane, *args):
        got = parse(lane, *args)
        taken.append(got is not None)
        return got

    monkeypatch.setattr(fileio._Lane, "parse", spy)
    outputs = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(parallel, "usable_cpus", lambda n=cpus: n)
        prices, fit, tails = (str(tmp_path / f"{name}{cpus}")
                              for name in ("p.csv", "fit.txt", "tails.txt"))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["simulate", "--family", "power", "--q", "1",
                         "--sigma1", "0.38", "--sigma2", "0.38",
                         "--dt", "1e-6", "--steps", str(CHUNK + 4000),
                         "--seed", "901", "--out", prices]) == 0
            assert main(["fit", "--prices", prices, "--delta-t", "1e-6",
                         "--big-delta-t", "1e-4", "--stride", "1e-4",
                         "--out", fit]) == 0
            assert main(["tails", "--prices", prices, "--as-returns",
                         "1e-6", "--out", tails]) == 0
        series = fileio.load_price_series(prices)
        outputs.append([hashlib.sha256(data).hexdigest() for data in (
            *(open(path, "rb").read() for path in (prices, fit, tails)),
            series.times.tobytes(), series.log_prices.tobytes())])
        assert taken.count(True) >= 4
        taken.clear()
    assert outputs[0] == outputs[1] == outputs[2]
