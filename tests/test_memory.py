"""Peak memory of each whole-array step, as traced by tracemalloc.

Each bound counts 8-byte-per-row arrays of a 2e5-step path, above what
the step's caller already holds: the step's live outputs plus about one
transient array.  numpy reports its array buffers to tracemalloc; the
parse workers' shared buffer is an mmap, which it does not see.  Each
step runs once before it is measured, so no lazy import or first-call
cache counts, and on one usable CPU unless it names another count, so
the full-bulk pass holds one chunk's temporaries at a time on any host.
"""

import tracemalloc

import numpy as np
import pytest

from ratiotails import parallel
from ratiotails.density import OrderFlowParams
from ratiotails.fileio import (_ROWS, _format_rows, load_price_series,
                               save_price_series)
from ratiotails.fitting import WindowSpec, fit_price_series, scaled_returns
from ratiotails.response import Family, ResponseSpec
from ratiotails.simulate import SimConfig, simulate_path
from ratiotails.tails import SWEEP_QUANTILES, threshold_sweep

STEPS = 2 * 10 ** 5
ARRAY = 8 * STEPS  # bytes of one 8-byte-per-row array


def arrays_at_peak(fn):
    """(result, peak, kept) of the second of two calls of fn: the peak
    traced bytes above those traced before it, and the bytes it leaves
    traced, in arrays of ARRAY bytes."""
    fn()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, (peak - before) / ARRAY, (kept - before) / ARRAY


@pytest.fixture(scope="module")
def config():
    cfg = SimConfig(params=OrderFlowParams(1.0, 1.0, 0.38, 0.38, -1.0),
                    response=ResponseSpec(Family.POWER, 1.0), tau0=1.0,
                    dt=1e-6, n_steps=STEPS, p0=1.0, seed=7)
    return cfg


@pytest.fixture(autouse=True)
def one_cpu(monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)


def test_simulate_path_keeps_its_path_and_one_transient(config):
    # the ratios with one power of them, the response written over the
    # ratios, then the increments with the log-prices and, the increments
    # dropped, the log-prices with the times: two arrays at a time (3.0
    # with the response's values in a new array, 5.1 with a copy per
    # affine step of the draws)
    series, arrays, _ = arrays_at_peak(lambda: simulate_path(config))
    assert len(series) == STEPS + 1
    assert arrays <= 2.2


def test_save_holds_the_path_and_one_block_per_thread(config, tmp_path):
    # each of two formatting threads holds one block at a time, its
    # prices exponentiated from its log-prices; a price column would be
    # one more array (8.4 with it and a block per thread of a window)
    csv = str(tmp_path / "p.csv")
    series = simulate_path(config)
    head = [c[:_ROWS] for c in (series.times, series.log_prices)]
    _, block, _ = arrays_at_peak(lambda: _format_rows(head, None))
    del series
    _, arrays, _ = arrays_at_peak(
        lambda: save_price_series(simulate_path(config), csv, threads=2))
    assert arrays <= 2 + 2 * block + 0.5


@pytest.mark.parametrize("workers", [1, 2])
def test_load_takes_the_log_in_the_parsed_body(config, tmp_path, workers,
                                               monkeypatch):
    # the series keeps the parsed (t, price) body, the log-prices written
    # over its prices; each piece's rows go straight into the body, so
    # the load peaks at the body and one piece (the forked pool's body is
    # its shared map, which tracemalloc does not see; 4.0 with a whole
    # parse and its column copy)
    csv = str(tmp_path / "p.csv")
    save_price_series(simulate_path(config), csv)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: workers)
    series, arrays, kept = arrays_at_peak(lambda: load_price_series(csv))
    assert kept <= 2.1
    assert arrays <= 2.3
    assert series.times.base is series.log_prices.base is not None


def test_fit_holds_the_changes_and_one_transient(config):
    # above the series its caller holds: the changes and the bulk with
    # the temporaries of one full-bulk chunk (4 of _CHUNK points, 1.3
    # arrays here) at the peak; before it |changes| for the one select,
    # after it the bootstrap's |values|
    series = simulate_path(config)
    w = WindowSpec(1e-6, 1e-4, 1e-4)
    result, arrays, _ = arrays_at_peak(lambda: fit_price_series(series, w))
    assert result.response.family is Family.POWER
    assert result.param_stderr is not None  # the default bootstrap ran
    assert arrays <= 3.5


def test_returns_and_tail_sweep_hold_one_transient(config):
    # the returns, then one |returns| for every threshold of the command
    series = simulate_path(config)

    def tails_command():
        values = scaled_returns(series, 1e-6)
        return threshold_sweep(values, quantiles=(0.99, *SWEEP_QUANTILES))

    reports, arrays, _ = arrays_at_peak(tails_command)
    assert [r.threshold for r in reports[1:]] == [
        float(np.quantile(np.abs(scaled_returns(series, 1e-6)), q))
        for q in SWEEP_QUANTILES]
    assert arrays <= 2.5
