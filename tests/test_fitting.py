"""Windowed change extraction and response-family recovery."""

import functools
import itertools
import math
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.stats import ks_2samp

from ratiotails import (Family, OrderFlowParams, PriceSeries, ResponseSpec,
                        SimConfig, TailKind, WindowSpec, exponent_report,
                        fit_g, fit_price_series, invert_monotone,
                        relative_changes, simulate_gbm, simulate_path)
from ratiotails import fitting, parallel, tails
from ratiotails.density import (positive_ratio_mass, ratio_cdf,
                                ratio_density)
from ratiotails.errors import (DomainError, NonIdentifiableError,
                               TimestampError, WindowError)
from ratiotails.fitting import scaled_returns

ANTI_PATH = OrderFlowParams(1.0, 1.0, 0.38, 0.38, -1.0)


def ratio_positive(n, seed, nu=0.38):
    rng = np.random.default_rng(seed)
    out = np.empty(n)
    filled = 0
    while filled < n:
        z = rng.standard_normal(n - filled)
        r = (1 + nu * z) / (1 - nu * z)
        take = r[r > 0]
        out[filled:filled + len(take)] = take
        filled += len(take)
    return out


def correlated_ratios(n, rho, seed, nu=0.38):
    """The positive ratios among n draws of the unit-mean pair with
    spreads nu and correlation rho."""
    rng = np.random.default_rng(seed)
    z1 = rng.standard_normal(n)
    z2 = rng.standard_normal(n)
    d = 1 + nu * z1
    s = 1 + nu * (rho * z1 + math.sqrt(1 - rho ** 2) * z2)
    r = d / s
    return r[r > 0]


def sim_series(family, q, n_steps, seed, scale=1e-6):
    cfg = SimConfig(params=ANTI_PATH, response=ResponseSpec(family, q),
                    tau0=1.0, dt=scale, n_steps=n_steps, p0=1.0, seed=seed)
    return simulate_path(cfg)


# ---------------------------------------------------------------------------
# window spec
# ---------------------------------------------------------------------------

def step_grids():
    """Uniform grids of even and odd length, ragged ones, and grids whose
    steps tie at the median within the 1e-9 tolerance."""
    rng = np.random.default_rng(31)
    yield np.arange(1000) * 1e-6
    yield 5.0 + np.arange(1001) * 0.25
    yield np.cumsum(rng.uniform(0.5, 1.5, 800))
    yield np.cumsum(rng.choice([1.0, 2.0], 801))
    yield np.cumsum(rng.choice([1.0, 1.0 + 4e-10, 1.0 - 4e-10], 1000))
    yield np.cumsum(rng.choice([1e-6, 1e-6 * (1 + 2e-9)], 999, p=[0.9, 0.1]))


@pytest.mark.parametrize("times", list(step_grids()))
def test_uniform_step_is_the_median_step(times):
    # the median and the uniform test share one diff array, in place
    kept = times.copy()
    h = float(np.median(np.diff(times)))
    uniform = bool(np.all(np.abs(np.diff(times) - h) <= 1e-9 * h))
    got = fitting._uniform_step(times)
    assert (got is None) == (not uniform)
    if uniform:
        assert got == h
    assert np.array_equal(times, kept)


def test_window_requires_scale_separation():
    with pytest.raises(WindowError):
        WindowSpec(delta_t=1.0, big_delta_t=5.0, stride=5.0)
    WindowSpec(delta_t=1.0, big_delta_t=10.0, stride=5.0)


def test_window_rejects_nonpositive():
    with pytest.raises(WindowError):
        WindowSpec(delta_t=-1.0, big_delta_t=10.0, stride=1.0)


# ---------------------------------------------------------------------------
# relative changes
# ---------------------------------------------------------------------------

def test_constant_series_gives_zero_changes():
    t = np.arange(101.0)
    series = PriceSeries.from_prices(t, np.full(101, 7.5))
    changes = relative_changes(series, WindowSpec(1.0, 20.0, 20.0))
    assert np.all(changes == 0.0)


def test_exponential_series_gives_constant_changes():
    # P(t) = exp(mu t): every scaled change equals (exp(mu dt) - 1)/dt
    mu, dt = 0.3, 0.5
    t = dt * np.arange(201.0)
    series = PriceSeries(t, mu * t)
    changes = relative_changes(series, WindowSpec(dt, 10 * dt, 10 * dt))
    expected = math.expm1(mu * dt) / dt
    assert np.allclose(changes, expected, rtol=1e-13)
    assert expected == pytest.approx(0.3236684, abs=1e-7)


def test_window_and_subinterval_counting():
    t = np.arange(21.0)
    series = PriceSeries(t, np.zeros(21))
    w = WindowSpec(1.0, 10.0, 5.0)
    flat, windows, notes = relative_changes(series, w, return_windows=True)
    # window starts 0, 5, 10; each window of 10 points gives 9 changes
    assert windows.shape == (3, 9)
    assert len(flat) == 27 and np.shares_memory(flat, windows)
    assert notes == []


def test_changes_scale_free_in_price_level():
    # per-step moves of a few percent keep log round-off far below 1e-12
    gbm = simulate_gbm(0.05, 0.3, 1.0, 20000, 50.0, seed=21)
    w = WindowSpec(1.0, 100.0, 100.0)
    base = relative_changes(
        PriceSeries.from_prices(gbm.times, gbm.prices), w)
    scaled = relative_changes(
        PriceSeries.from_prices(gbm.times, 1234.5 * gbm.prices), w)
    assert np.allclose(base, scaled, rtol=1e-12)


def test_changes_match_step_law():
    # the pipeline reproduces the per-step return law (self-consistency)
    cfg = SimConfig(params=ANTI_PATH, response=ResponseSpec(Family.SYM),
                    tau0=1.0, dt=1e-6, n_steps=10 ** 6, p0=1.0, seed=31)
    series = simulate_path(cfg)
    w = WindowSpec(1e-6, 1e-4, 1e-4)
    changes = relative_changes(series, w)
    fresh = ratio_positive(10 ** 6, seed=77)
    law = 0.5 * (fresh - 1.0 / fresh)  # response values, unit scale
    stat = ks_2samp(changes, law).statistic
    assert stat <= 0.01


def test_irregular_gap_raises_without_interpolation():
    t = np.array([0.0, 1.0, 2.0, 3.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0,
                  13.0, 14.0])
    series = PriceSeries(t, np.zeros(len(t)))
    with pytest.raises(TimestampError):
        relative_changes(series, WindowSpec(1.0, 10.0, 10.0))


def test_interpolation_fills_gaps_and_flags():
    rng = np.random.default_rng(3)
    t = np.arange(400.0)
    keep = np.sort(rng.choice(400, size=320, replace=False))
    keep[0], keep[-1] = 0, 399
    lp = 0.001 * np.cumsum(rng.standard_normal(400))
    series = PriceSeries(t[keep], lp[keep])
    flat, windows, notes = relative_changes(
        series, WindowSpec(1.0, 50.0, 50.0), interpolate=True,
        return_windows=True)
    assert len(flat) > 100
    assert any(n.startswith("interpolated=") for n in notes)


def test_delta_t_must_align_with_sampling():
    t = np.arange(100.0)
    series = PriceSeries(t, np.zeros(100))
    with pytest.raises(TimestampError):
        relative_changes(series, WindowSpec(0.7, 10.0, 10.0))
    with pytest.raises(TimestampError):
        scaled_returns(series, 0.7)


def test_returns_past_the_series_span_raise():
    series = PriceSeries(np.arange(100.0), np.zeros(100))
    assert scaled_returns(series, 99.0).size == 1
    for delta_t in (100.0, 1e300):
        with pytest.raises(WindowError, match="need a longer series; "
                           "it spans 99$"):
            scaled_returns(series, delta_t)


def per_window_loop(logp, step, j, m, stride):
    """The windows of relative_changes written plainly: windows of m
    points every ``stride`` points, and in each the change over j steps
    of ``step`` at every start."""
    windows = []
    for start in range(0, len(logp) - m + 1, stride):
        windows.append(np.array(
            [math.expm1(logp[start + i + j] - logp[start + i]) / (j * step)
             for i in range(m - j)]))
    return windows


def numpy_window_loop(logp, j, h, m, stride):
    """relative_changes as one numpy expression per window, the way it
    was first written: its strided kernel must give these values bit for
    bit."""
    windows = []
    for start in range(0, len(logp) - m + 1, stride):
        seg = logp[start:start + m]
        windows.append(np.expm1(seg[j:] - seg[:-j]) / (j * h))
    return windows


# windows of m points every ``stride`` points: overlapping (stride < m),
# abutting and gapped (stride > m) ones
@settings(max_examples=150, deadline=None)
@given(st.floats(1e-6, 10.0), st.integers(1, 4), st.integers(0, 40),
       st.integers(1, 100), st.integers(0, 250), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
@example(0.5, 2, 4, 7, 60, False, 1)      # m = 25, overlapping
@example(0.5, 1, 0, 11, 40, False, 2)     # m = 11, abutting
@example(0.5, 1, 0, 25, 90, False, 3)     # m = 11, gapped
@example(0.01, 1, 3, 40, 120, True, 4)    # m = 14, gapped, resampled
def test_relative_changes_match_the_per_window_loop(step, j, extra, stride,
                                                    tail, ragged, seed):
    rng = np.random.default_rng(seed)
    if ragged:
        j = 1  # ragged stamps are resampled onto delta_t itself
    m = 10 * j + 1 + extra  # window points: delta_t <= big_delta_t / 10
    delta_t = j * step
    w = WindowSpec(delta_t, m * step, stride * step)
    if ragged:
        # gaps of 0.6 to 1.5 steps and one of 2 steps: the delta_t/2
        # rule rejects them unless interpolation fills the gaps
        gaps = step * rng.uniform(0.6, 1.5, 2 * m + tail)
        gaps[rng.integers(gaps.size)] = 2.0 * step
        times = np.concatenate([[0.0], np.cumsum(gaps)])
    else:
        times = step * np.arange(m + tail)
    logp = np.cumsum(0.01 * rng.standard_normal(times.size))
    series = PriceSeries(times, logp)
    if ragged:
        with pytest.raises(TimestampError):
            relative_changes(series, w)
        with pytest.raises(TimestampError, match="uniformly spaced"):
            scaled_returns(series, delta_t)
        grid = step * np.arange(int(math.floor(times[-1] / step)) + 1)
        want = per_window_loop(np.interp(grid, times, logp), step, 1, m,
                               stride)
        _, resampled, _ = fitting._resample_uniform(series, delta_t, True)
        oracle = numpy_window_loop(resampled, 1, delta_t, m, stride)
    else:
        want = per_window_loop(logp, step, j, m, stride)
        oracle = numpy_window_loop(logp, *fitting._step_multiple(times,
                                                                 delta_t),
                                   m, stride)
        returns = [math.expm1(logp[i + j] - logp[i]) / delta_t
                   for i in range(times.size - j)]
        np.testing.assert_allclose(scaled_returns(series, delta_t), returns,
                                   rtol=1e-12, atol=0.0)
    flat, windows, _ = relative_changes(series, w, interpolate=ragged,
                                        return_windows=True)
    assert len(windows) == len(want) == len(oracle)
    for got, expected, exact in zip(windows, want, oracle):
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)
        assert np.array_equal(got, exact)
    assert np.array_equal(flat, np.concatenate(windows))


# ---------------------------------------------------------------------------
# fit_g
# ---------------------------------------------------------------------------

def test_fit_recovers_unit_power():
    r = ratio_positive(5 * 10 ** 5, seed=41)
    changes = 1e-6 * (r - 1.0 / r)
    result = fit_g(changes, [Family.POWER, Family.LOG])
    assert result.response.family is Family.POWER
    assert result.param_estimate == pytest.approx(1.0, rel=0.2)
    assert result.implied_tail == result.response.predicted_tail()
    assert result.implied_tail.density_exponent == pytest.approx(
        1.0 + 1.0 / result.param_estimate, rel=1e-12)
    assert set(result.scores) == {"power", "log"}


def test_fit_recovers_log_family():
    r = ratio_positive(5 * 10 ** 5, seed=43)
    changes = 1e-6 * np.log(r)
    result = fit_g(changes, [Family.POWER, Family.LOG])
    assert result.response.family is Family.LOG
    assert result.param_estimate is None
    assert result.implied_tail.kind is TailKind.EXPONENTIAL


def test_fit_rejects_gbm_as_power():
    rng = np.random.default_rng(45)
    changes = 1e-4 + 1e-3 * rng.standard_normal(5 * 10 ** 5)
    result = fit_g(changes, [Family.POWER, Family.LOG])
    assert result.response.family is not Family.POWER


def test_fit_recovers_logpower():
    r = ratio_positive(10 ** 6, seed=600)
    changes = 1e-6 * np.log(r) ** 3
    result = fit_g(changes, [Family.LOG_POWER, Family.LOG])
    assert result.response.family is Family.LOG_POWER
    assert result.param_estimate == 3.0
    assert result.implied_tail.kind is TailKind.STRETCHED_EXPONENTIAL
    assert result.implied_tail.shape == pytest.approx(1.0 / 3.0)


def test_fit_separates_odd_power_from_power():
    r = ratio_positive(10 ** 6, seed=700)
    u = r - 1.0 / r
    changes = 1e-6 * u ** 3
    result = fit_g(changes, [Family.ODD_POWER, Family.POWER])
    assert result.response.family is Family.ODD_POWER
    assert result.param_estimate == 3.0


def test_parsimony_tiebreak_prefers_sym():
    # unit-power data: sym and power describe it identically up to scale
    r = ratio_positive(3 * 10 ** 5, seed=47)
    changes = 1e-6 * 0.5 * (r - 1.0 / r)
    result = fit_g(changes, [Family.SYM, Family.POWER])
    assert result.response.family is Family.SYM
    assert any("fewer parameters" in n for n in result.notes)


def test_same_size_tie_raises_nonidentifiable():
    # power(q=1) and oddpower(q=1) are the same function
    r = ratio_positive(3 * 10 ** 5, seed=49)
    changes = 1e-6 * (r - 1.0 / r)
    with pytest.raises(NonIdentifiableError) as err:
        fit_g(changes, [Family.POWER, Family.ODD_POWER])
    assert set(err.value.scores) == {"power", "oddpower"}


def test_fit_input_validation():
    with pytest.raises(DomainError):
        fit_g(np.ones(10), [Family.POWER, Family.LOG])
    bad = np.ones(200)
    bad[3] = np.inf
    with pytest.raises(DomainError):
        fit_g(bad, [Family.POWER, Family.LOG])


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

def test_pipeline_recovery_and_bootstrap_stderr():
    series = sim_series(Family.POWER, 1.0, 2 * 10 ** 5, seed=51)
    w = WindowSpec(1e-6, 1e-4, 1e-4)
    result = fit_price_series(series, w, [Family.POWER, Family.LOG],
                              n_boot=30)
    assert result.response.family is Family.POWER
    assert result.param_estimate == pytest.approx(1.0, rel=0.25)
    assert result.param_stderr is not None and result.param_stderr > 0


def test_a_nuisance_estimate_on_its_search_bound_is_noted():
    # criterion 6's GBM trial 1 ends the spread 9.6e-10 above its 0.02
    # bound, inside the search's stopping width; its power q = 1 trial 0
    # ends both nuisance parameters inside their ranges
    w = WindowSpec(1.0, 100.0, 100.0)
    gbm = fit_price_series(
        simulate_gbm(1e-4, 0.01, 1.0, 10 ** 6, 1.0, seed=20260901), w,
        n_boot=0)
    assert 0.0 < gbm.nuisance_spread - fitting._NU_LO < 1e-9
    assert ("nuisance spread 0.02 is on a bound of its search range "
            "[0.02, 0.97]") in gbm.notes
    cfg = SimConfig(params=OrderFlowParams(1.0, 1.0, 0.38, 0.38, -1.0),
                    response=ResponseSpec(Family.POWER, 1.0), tau0=1.0,
                    dt=1e-8, n_steps=10 ** 6, p0=1.0, seed=20260600)
    power = fit_price_series(simulate_path(cfg),
                             WindowSpec(1e-8, 1e-6, 1e-6), n_boot=0)
    assert power.response.family is Family.POWER
    assert not any("bound" in note for note in power.notes)


def _correlated_power_changes():
    r = correlated_ratios(6000, -0.5, seed=91)
    return 1e-6 * (r - 1.0 / r)


@pytest.mark.parametrize("fams", [
    (Family.POWER, Family.LOG),
    (Family.POWER, Family.LOG, Family.LOG_POWER),
], ids=["two", "three"])
def test_correlated_fit_does_not_depend_on_the_cpu_count(fams, monkeypatch):
    # one CPU searches serially; two and three search the candidates on
    # their own threads; every field of the result is the same
    changes = _correlated_power_changes()
    results = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(parallel, "usable_cpus", lambda n=cpus: n)
        results.append(fit_g(changes, fams, rho=-0.5, threshold_quantile=0.99))
    assert results[0] == results[1] == results[2]
    assert sorted(results[0].scores) == sorted(f.value for f in fams)
    assert results[0].rho == -0.5


@pytest.mark.parametrize("seed", [20260901, 20260904, 20260905])
def test_a_correlated_spread_on_its_bound_is_noted(seed):
    # at rho != -1 the polish ends the spread within the same stopping
    # width of its 0.02 bound as the rho = -1 search, and says so too
    w = WindowSpec(1.0, 100.0, 100.0)
    result = fit_price_series(
        simulate_gbm(1e-4, 0.01, 1.0, 200000, 1.0, seed), w, [Family.LOG],
        rho=-0.5, n_boot=0)
    assert 0.0 < result.nuisance_spread - fitting._NU_LO < 1e-9
    assert result.notes == ["nuisance spread 0.02 is on a bound of its "
                            "search range [0.02, 0.97]"]


def _multi_chunk_changes():
    # power q = 4 changes: a bulk of three full chunks and part of a
    # fourth, where LOG's fitted scale leaves points of several chunks
    # with no finite ratio, so they score the floor
    r = ratio_positive(3 * fitting._CHUNK + 4001, seed=5)
    return 1e-6 * (r ** 4 - r ** -4)


@pytest.mark.parametrize("rho", [-1.0, -0.5])
def test_a_multi_chunk_fit_does_not_depend_on_the_cpu_count(rho,
                                                             monkeypatch):
    changes = _multi_chunk_changes()
    a = np.abs(changes)
    bulk = changes[a <= np.quantile(a, 0.998)]
    assert bulk.size > 3 * fitting._CHUNK
    log = fit_g(changes, (Family.LOG,), rho=rho)
    with np.errstate(over="ignore"):
        ratios = np.exp(bulk / log.nuisance_scale)
    floor = np.flatnonzero(np.isinf(ratios))
    assert len(set(floor // fitting._CHUNK)) >= 2
    results = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(parallel, "usable_cpus", lambda n=cpus: n)
        results.append(fit_g(changes, (Family.POWER, Family.LOG), rho=rho))
    assert results[0] == results[1] == results[2]


_SQRT_2PI = math.sqrt(2.0 * math.pi)


def log_f_t(nu, rho, t):
    """log f_T(t) of T = A/B, A ~ N(0, a), B ~ N(2, b) independent, as the
    log of the sum of Hinkley's two terms, each taken in logs."""
    if rho == -1.0:
        return -t * t / (2.0 * nu * nu) - math.log(_SQRT_2PI * nu)
    a, b = 2.0 * nu * nu * (1.0 - rho), 2.0 * nu * nu * (1.0 + rho)
    d2 = a + b * t * t
    first = math.log(math.sqrt(a * b) / (math.pi * d2)) - 2.0 / b
    second = (math.log(2.0 * a / (_SQRT_2PI * d2 ** 1.5))
              - 2.0 * t * t / d2
              + math.log(math.erf(math.sqrt(2.0 * a / b / d2))))
    hi, lo = max(first, second), min(first, second)
    return hi + math.log1p(math.exp(lo - hi))


def t_space_log_pdf(spec, nu, scale, y, rho=-1.0):
    """The log density, given R > 0, of the change y at spread nu,
    correlation rho and scale, one point in the math module through
    L = |log r|, so finite where r = exp(+-L) leaves float range."""
    z, q = abs(y) / scale, spec.param
    big = {Family.POWER: lambda: math.asinh(z / 2.0) / q,
           Family.SYM: lambda: math.asinh(z),
           Family.LOG: lambda: z,
           Family.LOG_POWER: lambda: z ** (1.0 / q),
           Family.ODD_POWER: lambda: math.asinh(z ** (1.0 / q) / 2.0),
           }[spec.family]()

    def lc(x):  # log(2 cosh x)
        return x + math.log1p(math.exp(-2.0 * x))

    slope = {  # log(r g'(r))
        Family.POWER: lambda: math.log(q) + lc(q * big),
        Family.SYM: lambda: lc(big) - math.log(2.0),
        Family.LOG: lambda: 0.0,
        Family.LOG_POWER: lambda: math.log(q) + (q - 1.0) * math.log(big),
        Family.ODD_POWER: lambda: (math.log(q) + lc(big) + (q - 1.0) * (
            big + math.log1p(-math.exp(-2.0 * big)))),
    }[spec.family]()
    t = math.tanh(big / 2.0)
    pos = math.erf(1.0 / (nu * math.sqrt(2.0))) if rho == -1.0 else \
        positive_ratio_mass(OrderFlowParams(1.0, 1.0, nu, nu, rho))
    return (math.log(2.0 / pos) + log_f_t(nu, rho, t) - 2.0 * lc(big / 2.0)
            - slope - math.log(scale))


def r_space_sums(spec, y):
    """(count, sum t^2, sum w) of the changes over the scale y whose ratio
    r is finite, through r = inverse(y): the r-space form of the sums."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r = np.asarray(spec.inverse(y), dtype=float)
        ok = np.isfinite(r) & (r > 0.0)
        r = r[ok]
        t = (r - 1.0) / (r + 1.0)
        w = -2.0 * np.log1p(r) - np.log(spec.deriv(r))
    assert np.all(np.isfinite(w))
    return ok, float(np.sum(t * t)), float(np.sum(w))


def serial_sums(sums, points, scale):
    """``sums`` chunk after chunk, on the calling thread, added in order."""
    parts = [sums(points[i:i + fitting._CHUNK] / scale)
             for i in range(0, points.size, fitting._CHUNK)]
    return [functools.reduce(lambda x, y: x + y, col, 0)
            for col in zip(*parts)]


ALL_FAMILIES = [(Family.POWER, 0.7), (Family.POWER, 2.0), (Family.SYM, None),
                (Family.LOG, None), (Family.LOG_POWER, 1), (Family.LOG_POWER, 3),
                (Family.ODD_POWER, 1), (Family.ODD_POWER, 3)]


def pass_sums(spec, y):
    """(count, sum t^2, -sum v) that the t-space pass keeps at rho = -1,
    over the changes over the scale y whose v is finite."""
    n, st2, sv, _ = fitting._kept(*fitting._t_space(spec, y), -1.0, 1)
    return n, st2, -sv


@pytest.mark.parametrize("family,q", ALL_FAMILIES)
def test_t_space_sums_are_the_r_space_ones(family, q):
    # where the ratio behind every point is finite, the t-space pass of
    # one chunk keeps the r-space sums to 1e-12, at rho = -1 (sum t^2)
    # and at any other rho (the t^2 array)
    spec = ResponseSpec(family, q)
    y = np.asarray(spec.value(ratio_positive(fitting._CHUNK, seed=97)))
    y = y[y != 0.0]  # g'(1) = 0 under q >= 3 leaves w = -inf at y = 0
    ok, st2, sw = r_space_sums(spec, y)
    assert ok.all()
    n, st2_t, sw_t = pass_sums(spec, y.copy())
    assert n == y.size
    assert st2_t == pytest.approx(st2, rel=1e-12)
    assert sw_t == pytest.approx(sw, rel=1e-12)
    n, t2, sv, _ = fitting._kept(*fitting._t_space(spec, y.copy()), 0.5, 1)
    assert n == t2.size == y.size
    assert float(np.sum(t2)) == st2_t
    assert -sv == sw_t


@pytest.mark.parametrize("family,q,y", [
    (Family.LOG, None, 2000.0), (Family.LOG, None, -2000.0),
    (Family.POWER, 0.2, 1e66), (Family.POWER, 0.2, -1e66),
    (Family.LOG_POWER, 3, 1e9)])
def test_a_point_past_float_range_scores_its_density(family, q, y):
    # r = exp(+-L) is 0 or inf as a float, and its density is finite: the
    # point scores the t-space value, not the floor
    spec = ResponseSpec(family, q)
    with np.errstate(over="ignore", divide="ignore"):
        r = float(spec.inverse(y))
    assert r == 0.0 or math.isinf(r)
    for (nu, scale), rho in itertools.product(((0.38, 1.0), (0.05, 0.8)),
                                              (-1.0, -0.5, 0.5)):
        want = t_space_log_pdf(spec, nu, scale, y, rho)
        assert math.isfinite(want)
        got = fitting._profile(spec, scale, np.array([y]), math.inf, rho)(nu)
        # u = inf holds every point: bulk mass 1
        assert got == pytest.approx(want, rel=1e-12)
        assert got != fitting._LL_FLOOR


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(ALL_FAMILIES), st.floats(0.02, 0.97),
       st.floats(-1.0, 0.95, exclude_min=True), st.floats(0.1, 10.0),
       st.lists(st.tuples(st.floats(1e-3, 40.0), st.booleans()),
                min_size=1, max_size=8))
@example((Family.POWER, 0.7), 0.38, -1.0 + 2.0 ** -52, 1.0, [(3.0, True)])
@example((Family.LOG, None), 0.02, 0.95, 0.1, [(40.0, False), (1e-3, True)])
def test_the_f_t_kernel_is_the_r_space_density(family_q, nu, rho, scale,
                                               points):
    # per point, log f_T(t) + log 2 - v - log s - log P(R > 0) against
    # log f_R(r) - log s - log g'(r) - log P(R > 0) at r = inverse(y/s),
    # to 1e-11 relative (absolute near 0) wherever the reference's f_R and
    # g'(r) are normal floats.  The points are y = s g(exp(+-L)) with
    # L >= 1e-3: nearer r = 1, r = 1 + O(eps) holds log r, and ODD_POWER's
    # x - 1/x, to only eps/L relative, the reference's own error.
    spec = ResponseSpec(*family_q)
    big = np.array([b for b, _ in points])
    sign = np.array([-1.0 if neg else 1.0 for _, neg in points])
    with np.errstate(over="ignore"):
        y = scale * np.asarray(spec.value(np.exp(sign * big)), dtype=float)
    y = y[np.isfinite(y)]
    if y.size == 0:
        return
    got = fitting._change_log_pdf(spec, scale, nu, rho, y)
    ref = r_space_log_pdf(spec, nu, rho, scale, y)
    assert np.all(np.isfinite(got[np.isfinite(ref)]))
    params = OrderFlowParams(1.0, 1.0, nu, nu, rho)
    tiny = np.finfo(float).tiny
    with np.errstate(over="ignore", under="ignore"):
        r = np.asarray(spec.inverse(y / scale), dtype=float)
        ok = np.isfinite(r) & (r >= tiny)
        f_r = np.zeros_like(r)
        slope = np.zeros_like(r)
        f_r[ok] = ratio_density(params, r[ok])
        slope[ok] = spec.deriv(r[ok])
    normal = ok & (f_r >= tiny) & (slope >= tiny) & np.isfinite(slope)
    gap = np.abs(got[normal] - ref[normal])
    assert np.all(gap <= 1e-11 * np.maximum(np.abs(ref[normal]), 1.0))


@pytest.mark.parametrize("family,q", [(Family.POWER, 0.7), (Family.LOG, None)])
def test_profile_sums_are_the_serial_chunk_sums(family, q, monkeypatch):
    # under LOG the far points of the first and third chunk have no
    # finite ratio (r = inf or 0), and their t-space terms are exact
    spec = ResponseSpec(family, q)
    points = np.asarray(spec.value(
        ratio_positive(3 * fitting._CHUNK + 4001, seed=67)))
    far = [5, 2 * fitting._CHUNK + 3]
    points[far] = [2e3, -2e3]
    scale = 0.9

    sums = functools.partial(pass_sums, spec)
    serial = serial_sums(sums, points, scale)
    for cpus in (1, 2, 3):
        monkeypatch.setattr(parallel, "usable_cpus", lambda n=cpus: n)
        assert fitting._chunk_sums(sums, points, scale) == serial

    ok, st2, sw = r_space_sums(spec, points / scale)
    for i in np.flatnonzero(~ok):
        big = abs(points[i]) / scale  # LOG: L = |y| / s
        st2 += math.tanh(big / 2.0) ** 2
        sw += -2.0 * (big / 2.0 + math.log1p(math.exp(-big)))
    if family is Family.LOG:
        assert np.flatnonzero(~ok).tolist() == far
    else:
        assert ok.all()
    assert serial[0] == points.size
    assert serial[1] == pytest.approx(st2, rel=1e-12)
    assert serial[2] == pytest.approx(sw, rel=1e-12)


@pytest.mark.parametrize("rho", [-1.0, -0.5, 0.5])
def test_bulk_scores_do_not_depend_on_the_cpu_count(rho, monkeypatch):
    spec = ResponseSpec(Family.POWER, 0.7)
    points = np.asarray(spec.value(
        ratio_positive(3 * fitting._CHUNK + 4001, seed=71)))
    scores = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(parallel, "usable_cpus", lambda n=cpus: n)
        scores.append(fitting._bulk_score(spec, 0.38, rho, 0.9, points,
                                          40.0))
    assert scores[0] == scores[1] == scores[2]
    assert math.isfinite(scores[0])


def test_a_multi_chunk_fit_leaves_no_thread_running(monkeypatch):
    # the full-bulk passes map over a worker thread, joined by the time
    # the fit returns
    started = []
    start = threading.Thread.start

    def counted(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    before = threading.active_count()
    fit_g(_multi_chunk_changes(), (Family.POWER, Family.LOG))
    assert started
    assert threading.active_count() == before


@pytest.mark.parametrize("rho", [1.0, 1.5, -1.0000001, math.nan])
def test_fit_rejects_a_correlation_outside_its_range(rho):
    with pytest.raises(DomainError, match="outside \\[-1, 1\\)"):
        fit_g(_correlated_power_changes(), rho=rho)


@pytest.mark.parametrize("seed", [777, 778])
def test_the_true_correlation_recovers_log_from_rho_zero_paths(seed):
    # on log paths at rho = 0 the default rho = -1 fit prefers power with
    # q-hat ~0.21; told rho = 0, the fit picks log at the true spread (a
    # near-tie, 2.5e-5 and 3.6e-5 per point, settled by parameter count)
    cfg = SimConfig(params=OrderFlowParams(1.0, 1.0, 0.38, 0.38, 0.0),
                    response=ResponseSpec(Family.LOG), tau0=1.0, dt=1e-6,
                    n_steps=10 ** 6, p0=1.0, seed=seed)
    series = simulate_path(cfg)
    w = WindowSpec(1e-6, 1e-4, 1e-4)
    default = fit_price_series(series, w, n_boot=0)
    assert default.response.family is Family.POWER
    assert default.param_estimate == pytest.approx(0.21, abs=0.02)
    told = fit_price_series(series, w, n_boot=0, rho=0.0)
    assert told.response.family is Family.LOG
    assert any(note.startswith("near-tie") for note in told.notes)
    assert told.nuisance_spread == pytest.approx(0.38, abs=0.005)
    assert told.rho == 0.0


def test_pipeline_stride_invariance():
    series = sim_series(Family.POWER, 1.0, 2 * 10 ** 5, seed=53)
    w1 = WindowSpec(1e-6, 1e-4, 1e-4)
    w2 = WindowSpec(1e-6, 1e-4, 5e-5)  # overlapping windows
    r1 = fit_price_series(series, w1, [Family.POWER, Family.LOG], n_boot=30)
    r2 = fit_price_series(series, w2, [Family.POWER, Family.LOG], n_boot=30)
    assert r1.response.family is r2.response.family is Family.POWER
    sd = max(r1.param_stderr or 0.0, r2.param_stderr or 0.0, 1e-9)
    assert abs(r1.param_estimate - r2.param_estimate) <= sd


def test_report_rendering():
    r = ratio_positive(3 * 10 ** 5, seed=55)
    changes = 1e-6 * (r ** 2 - r ** -2)
    result = fit_g(changes, [Family.POWER, Family.LOG])
    text = exponent_report(result)
    assert "selected family: power" in text
    assert "density tail x^-" in text
    assert "adjustment-time scale" in text
    kv = result.key_values()
    assert kv["family"] == "power"
    assert "score.power" in kv and "score.log" in kv


def test_report_rendering_log_and_stretched():
    spec_log = ResponseSpec(Family.LOG)
    assert spec_log.predicted_tail().describe() == "density tail exp(-1 x)"
    spec_lp = ResponseSpec(Family.LOG_POWER, 3)
    text = spec_lp.predicted_tail().describe()
    assert "x^(p-1) exp(-x^p)" in text and "p=0.333" in text


def test_fit_with_overridden_correlation():
    # the closed-form nuisance law when the correlation is not -1
    rho = -0.5
    r = correlated_ratios(2 * 10 ** 5, rho, seed=61)
    changes = 1e-6 * (r - 1.0 / r)
    result = fit_g(changes, [Family.POWER, Family.LOG], rho=rho)
    assert result.response.family is Family.POWER
    assert result.param_estimate == pytest.approx(1.0, rel=0.3)


# ---------------------------------------------------------------------------
# the nuisance searches against the per-point grid + Nelder-Mead oracle
# ---------------------------------------------------------------------------

def r_space_log_pdf(spec, nu, rho, scale, y):
    """Per point, the log density given R > 0 of the change y = s g(r) in
    r-space: r = inverse(y/s), then log f_R(r) - log s - log g'(r)
    - log P(R > 0), with f_R ``density.ratio_density`` (at rho = -1 its
    closed form taken in logs, whose (1 + r)**2 overflows and exp(-z**2/2)
    underflows on points still inside float range).  Not finite where r
    is no positive finite ratio, or where the density or g'(r) leaves
    float range."""
    params = OrderFlowParams(1.0, 1.0, nu, nu, rho)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r = np.asarray(spec.inverse(np.asarray(y, dtype=float) / scale),
                       dtype=float)
        r = np.where(np.isfinite(r) & (r > 0.0), r, np.inf)
        if rho == -1.0:
            z = (r - 1.0) / (nu * (r + 1.0))
            log_f = (math.log(2.0 / (math.sqrt(2.0 * math.pi) * nu))
                     - 0.5 * z * z - 2.0 * np.log1p(r))
        else:
            log_f = np.log(ratio_density(params, r))
        slope = np.asarray(spec.deriv(np.where(np.isinf(r), 1.0, r)))
        slope = np.where(np.isinf(r), np.inf, slope)
        return (log_f - math.log(scale) - np.log(slope)
                - math.log(positive_ratio_mass(params)))


def cdf_pos(nu, rho, r):
    """P(R < r | R > 0) by ``density.ratio_cdf``."""
    params = OrderFlowParams(1.0, 1.0, nu, nu, rho)
    pos_mass = positive_ratio_mass(params)
    return (ratio_cdf(params, r) - (1.0 - pos_mass)) / pos_mass


def pointwise_score(spec, nu, rho, scale, points, u, far=None):
    """Mean conditional bulk log-likelihood, one full r-space per-point
    pass; a point with no finite log density scores the floor, or far(y)
    when given.  The bulk mass is P(1/r_u < R < r_u | R > 0) by
    ``density.ratio_cdf``, r_u = inverse(u/s)."""
    ll = r_space_log_pdf(spec, nu, rho, scale, points)
    for i in np.flatnonzero(~np.isfinite(ll)):
        ll[i] = fitting._LL_FLOOR if far is None else far(points[i])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r_u = float(spec.inverse(u / scale))
    bulk_mass = 2.0 * float(cdf_pos(nu, rho, r_u)) - 1.0
    if bulk_mass <= 0.0:
        return fitting._LL_FLOOR
    return float(np.mean(ll)) - math.log(bulk_mass)


def grid_nelder_mead_oracle(spec, q95, sub, u, rho=-1.0):
    """The search that the rho = -1 scale profile and the correlated
    warm start replaced: a bounded log-scale fit at each point of the
    21-point spread grid, seeded where the law's 0.95 |change| quantile
    sits at q95, then a Nelder-Mead polish of (logit spread, log-scale),
    each step a per-point pass."""
    from scipy.optimize import minimize_scalar

    best = (math.inf, None, None)
    for nu in np.geomspace(0.05, 0.93, 21):
        r975 = invert_monotone(functools.partial(cdf_pos, nu, rho), 0.975)
        ls0 = math.log(q95 / float(spec.value(r975)))
        r = minimize_scalar(
            lambda ls: -pointwise_score(spec, nu, rho, math.exp(ls), sub, u),
            bounds=(ls0 - 1.5, ls0 + 1.5), method="bounded",
            options={"xatol": 1e-7})
        if r.fun < best[0]:
            best = (r.fun, float(nu), float(r.x))
    _, nu0, ls0 = best
    res = nelder_mead(spec, sub, u, rho, nu0, ls0)
    return fitting._nu_from_t(res.x[0]), math.exp(res.x[1])


def nelder_mead(spec, sub, u, rho, nu0, ls0):
    """scipy's Nelder-Mead over (logit spread, log-scale) from (nu0, ls0),
    with the tolerances the correlated search once polished with, each
    step a per-point pass; ``nfev`` counts the passes."""
    from scipy.optimize import minimize

    return minimize(
        lambda th: -pointwise_score(spec, fitting._nu_from_t(th[0]), rho,
                                    math.exp(th[1]), sub, u),
        x0=np.array([fitting._t_from_nu(nu0), ls0]), method="Nelder-Mead",
        options={"xatol": 1e-7, "fatol": 1e-10, "maxiter": 400})


def _split(changes, quantile=0.998):
    a = np.abs(changes)
    u = float(np.quantile(a, quantile))
    return float(np.quantile(a, 0.95)), changes[a <= u], u


def _gaussian(seed):
    # GBM-like changes: a flat ridge in (spread, scale)
    return lambda: 1e-4 + 1e-3 * np.random.default_rng(seed).standard_normal(
        30000)


def _of_ratios(g):
    return lambda: g(ratio_positive(30000, seed=73))


@pytest.mark.parametrize("family,q,changes,ridge", [
    (Family.POWER, 1.0, _of_ratios(lambda r: 1e-6 * (r - 1.0 / r)), False),
    (Family.LOG, None, _of_ratios(lambda r: 1e-6 * np.log(r)), False),
    (Family.POWER, 1.0, _gaussian(71), True),
    # the spread optimum sits on its lower bound, as on most GBM paths
    (Family.POWER, 1.0, _gaussian(60), False),
    (Family.LOG_POWER, 3, _of_ratios(lambda r: 1e-6 * np.log(r) ** 3), False),
    (Family.SYM, None, _of_ratios(lambda r: 1e-6 * 0.5 * (r - 1.0 / r)),
     False),
], ids=["power", "log", "gaussian", "gaussian-at-bound", "logpower", "sym"])
def test_profile_search_matches_the_oracle(family, q, changes, ridge):
    spec = ResponseSpec(family, q)
    q95, bulk, u = _split(changes())
    nu, scale, _ = fitting._fit_nuisance(spec, q95, bulk, u, -1.0)
    nu_ref, scale_ref = grid_nelder_mead_oracle(spec, q95, bulk, u)
    got = fitting._bulk_score(spec, nu, -1.0, scale, bulk, u)
    ref = pointwise_score(spec, nu_ref, -1.0, scale_ref, bulk, u)
    if ridge:
        assert abs(got - ref) <= 1e-6
    else:
        assert got >= ref - 1e-9
        assert nu == pytest.approx(nu_ref, rel=1e-5)
        assert scale == pytest.approx(scale_ref, rel=1e-5)


@pytest.mark.parametrize("rho", [-0.9, 0.0, 0.5])
@pytest.mark.parametrize("family,q,make", [
    (Family.POWER, 1.0, lambda r: 1e-6 * (r - 1.0 / r)),
    (Family.LOG, None, lambda r: 1e-6 * np.log(r)),
], ids=["power", "log"])
def test_correlated_search_matches_the_oracle(family, q, make, rho,
                                              monkeypatch):
    # the Newton polish from the rho = -1 optimum reaches the optimum of
    # the spread grid, in at most half the evaluations, each one nu on a
    # scale's profile, that Nelder-Mead takes passes from the same start
    spec = ResponseSpec(family, q)
    q95, bulk, u = _split(make(correlated_ratios(10000, rho, seed=83)))
    evals = []
    profile = fitting._profile

    def counted(spec, scale, points, u, rho_):
        score = profile(spec, scale, points, u, rho_)
        if rho_ == -1.0:
            return score

        def counted_score(nu, derivs=False):
            evals.append((scale, nu))
            return score(nu, derivs)

        return counted_score

    with monkeypatch.context() as patch:
        patch.setattr(fitting, "_profile", counted)
        nu, scale, _ = fitting._fit_nuisance(spec, q95, bulk, u, rho)
    nu_ref, scale_ref = grid_nelder_mead_oracle(spec, q95, bulk, u, rho)
    got = fitting._bulk_score(spec, nu, rho, scale, bulk, u)
    ref = pointwise_score(spec, nu_ref, rho, scale_ref, bulk, u)
    assert got >= ref - 1e-12
    assert nu == pytest.approx(nu_ref, rel=1e-5)
    assert scale == pytest.approx(scale_ref, rel=1e-5)
    # bulk has fewer than 30k points, so the search's subsample is bulk
    nu0, scale0, _ = fitting._fit_nuisance(spec, q95, bulk, u, -1.0)
    start = nelder_mead(spec, bulk, u, rho, nu0, math.log(scale0))
    assert 0 < len(evals) <= start.nfev / 2


@pytest.mark.parametrize("family,q", [(Family.POWER, 1.0), (Family.LOG, None)],
                         ids=["power", "log"])
def test_correlated_polish_takes_few_passes(family, q, monkeypatch):
    # each evaluation of the polish is one f_T pass with the exact
    # nu-derivatives, and a step takes two more along log-scale: from the
    # rho = -1 optimum of a fixed rho = -0.5 power q = 1 input, as the
    # benchmark's, each candidate's ends in at most 18
    spec = ResponseSpec(family, q)
    r = correlated_ratios(20000, -0.5, seed=97)
    q95, bulk, u = _split(1e-6 * (r - 1.0 / r))
    passes = []
    polish = fitting._newton_polish

    def counted(f, x):
        def passed(p):
            passes.append(p)
            return f(p)

        return polish(passed, x)

    monkeypatch.setattr(fitting, "_newton_polish", counted)
    fitting._fit_nuisance(spec, q95, bulk, u, -0.5)
    assert 0 < len(passes) <= 18


def bulk_score_against_pointwise(family, q, rho):
    # more points than one chunk, and three far points: under LOG their
    # ratios leave float range (r = 0 or inf), and they score the t-space
    # density there, not the floor
    spec = ResponseSpec(family, q)
    r = ratio_positive(fitting._CHUNK + 4000, seed=79)
    points = np.asarray(spec.value(r))
    points[:3] = [2e3, -2e3, 5e3]
    u = 500.0
    for nu, scale in ((0.38, 1.0), (0.05, 0.8), (0.9, 3.0)):
        ref = pointwise_score(spec, nu, rho, scale, points, u,
                              far=lambda y: t_space_log_pdf(spec, nu, scale,
                                                            y, rho))
        got = fitting._bulk_score(spec, nu, rho, scale, points, u)
        assert got == pytest.approx(ref, rel=1e-12, abs=1e-12)
        # the search's profile of the same points, at that nu
        assert fitting._profile(spec, scale, points, u, rho)(nu) == \
            pytest.approx(got, rel=1e-13)


@pytest.mark.parametrize("family,q", [(Family.POWER, 0.7), (Family.LOG, None),
                                      (Family.ODD_POWER, 3)])
def test_three_sums_give_the_pointwise_score(family, q):
    bulk_score_against_pointwise(family, q, -1.0)


@pytest.mark.parametrize("rho", [-0.5, 0.5])
@pytest.mark.parametrize("family,q", [(Family.POWER, 0.7), (Family.LOG, None),
                                      (Family.ODD_POWER, 3)])
def test_f_t_chunks_give_the_pointwise_score(family, q, rho):
    # at rho != -1 the full bulk is scored by f_T chunk by chunk, and the
    # profile from its kept t^2 array
    bulk_score_against_pointwise(family, q, rho)


@settings(max_examples=300, deadline=None)
@given(st.floats(0.02, 0.97),
       st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True))
@example(0.02, 1e-300)
@example(0.97, 1.0 - 2.0 ** -53)
def test_profile_masses_are_the_laws(nu, t):
    # t_u = (r_u - 1)/(r_u + 1) of the threshold ratio r_u, as here
    r_u = (1.0 + t) / (1.0 - t)
    t_u = (r_u - 1.0) / (r_u + 1.0)
    pos_mass = fitting._t_mass(nu, -1.0, 1.0)[0]
    bulk_mass = fitting._t_mass(nu, -1.0, t_u)[0] / pos_mass
    assert pos_mass == positive_ratio_mass(
        OrderFlowParams(1.0, 1.0, nu, nu, -1.0))
    # the reference subtracts CDF values near 1/2: ~1e-15 absolute error;
    # at t_u <= 0 (r_u <= 1) there is no bulk, where it is not positive
    ref = 2.0 * float(cdf_pos(nu, -1.0, r_u)) - 1.0
    if t_u > 0.0:
        assert bulk_mass == pytest.approx(ref, rel=1e-14, abs=2e-15)
    else:
        assert bulk_mass == 0.0 and ref <= 2e-15


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(ALL_FAMILIES), st.floats(0.02, 0.97),
       st.floats(0.1, 10.0), st.floats(0.5, 0.999), st.integers(0, 999))
@example((Family.LOG, None), 0.02, 0.1, 0.999, 0)
def test_the_anticorrelated_profile_is_the_mean_of_its_f_t_array(
        family_q, nu, scale, quantile, seed):
    # at rho = -1 the profile keeps sum t^2 alone: it is the mean taken
    # from the explicit log f_T array of every point to 1e-12, and the
    # masses from their erf forms; a change of 0 has no finite v where
    # g'(1) = 0 (q >= 3), and scores the floor
    spec = ResponseSpec(*family_q)
    points = np.asarray(spec.value(ratio_positive(400, seed=seed)))
    points[:2] = [0.0, 2e3]
    u = float(np.quantile(np.abs(points), quantile))
    got = fitting._profile(spec, scale, points, u, -1.0)(nu)

    t2, v = fitting._t_space(spec, points / scale)
    ok = np.isfinite(v)
    norm, log_f = fitting._log_f_t(t2[ok], nu, -1.0)
    pos_mass = math.erf(1.0 / (nu * math.sqrt(2.0)))
    t_u = math.tanh(0.5 * spec.log_ratio(u / scale))
    bulk_mass = math.erf(t_u / (nu * math.sqrt(2.0))) / pos_mass
    total = (np.sum(log_f - v[ok]) + ok.sum() * math.log(
        2.0 / (norm * scale * pos_mass)) + (~ok).sum() * fitting._LL_FLOOR)
    want = total / points.size - math.log(bulk_mass)
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("u", [0.0, -1e-3, math.nan])
@pytest.mark.parametrize("family,q", [(Family.POWER, 1.0), (Family.LOG, None)])
def test_profile_scores_the_floor_without_a_bulk(family, q, u):
    # u <= 0 puts r_u at or below 1 (t_u <= 0); u = NaN makes t_u NaN
    spec = ResponseSpec(family, q)
    points = np.asarray(spec.value(ratio_positive(500, seed=89)))
    profile = fitting._profile(spec, 1.0, points, u, -1.0)
    for nu in (0.02, 0.38, 0.97):
        assert profile(nu) == fitting._LL_FLOOR


@pytest.mark.parametrize("rho", [-0.5, 0.0, 0.5, 0.9])
@pytest.mark.parametrize("u", [0.0, -1e-3, math.nan])
def test_profile_scores_the_floor_without_a_bulk_at_every_rho(u, rho):
    # the bulk mass P(1/r_u < R <= r_u | R > 0) is a difference of CDF
    # values, 0 at r_u = 1; as 2 P(R <= r_u | R > 0) - 1 it left a
    # rounding residue at u = 0, and the profile scored about +35
    spec = ResponseSpec(Family.POWER, 1.0)
    points = np.asarray(spec.value(ratio_positive(500, seed=89)))
    profile = fitting._profile(spec, 1.0, points, u, rho)
    for nu in (0.05, 0.38, 0.97):
        assert profile(nu) == fitting._LL_FLOOR


@pytest.mark.parametrize("rho", [-0.5, 0.0, 0.9])
def test_bulk_mass_is_the_complement_form_away_from_one(rho):
    # the same mass as 2 P(R <= r_u | R > 0) - 1 where that does not
    # cancel; with no finite point the mean is the floor less log(mass)
    spec = ResponseSpec(Family.POWER, 1.0)
    for nu, u in ((0.38, 1.0), (0.9, 3.0), (0.05, 0.2)):
        ref = 2.0 * float(cdf_pos(nu, rho, float(spec.inverse(u)))) - 1.0
        t_u = fitting._t_u(spec, u, 1.0)
        mean = fitting._mean(nu, rho, t_u, 1.0, 1, 0, 0.0, 1.0, 0.0)
        assert math.exp(fitting._LL_FLOOR - mean) == pytest.approx(
            ref, rel=1e-9)


@settings(max_examples=300, deadline=None)
@given(st.floats(0.02, 0.97), st.just(-1.0) | st.floats(-1.0, 0.95),
       st.floats(1.0, 1e6, exclude_min=True))
@example(0.38, -0.5, 1.0 + 2.0 ** -52)
@example(0.02, -1.0 + 2.0 ** -52, 3.0)
@example(0.02, -1.0, 3.0)
@example(0.97, -1.0, 1e6)
@example(0.97, 0.95, 1e6)
def test_t_mass_is_the_ratio_laws(nu, rho, r_u):
    # P(|T| < t_u) = P(1/r_u < R < r_u), and at t = 1 P(R > 0), at
    # rho = -1 too, where T = nu Z and no Owen's T is taken.  The
    # reference subtracts CDF values at r_u and at the rounded 1/r_u: an
    # absolute error of about f_R ulp(1), at most ~1e-14 for rho <= 0.95
    params = OrderFlowParams(1.0, 1.0, nu, nu, rho)
    t_u = (r_u - 1.0) / (r_u + 1.0)
    ref = float(ratio_cdf(params, r_u) - ratio_cdf(params, 1.0 / r_u))
    mass, dmass, ddmass = fitting._t_mass(nu, rho, t_u)
    assert mass == pytest.approx(ref, rel=1e-12, abs=2e-14)
    assert fitting._t_mass(nu, rho, 1.0)[0] == pytest.approx(
        positive_ratio_mass(params), rel=1e-12)
    # the nu-derivatives against central differences
    h = 1e-4 * nu
    up, down = (fitting._t_mass(nu + e, rho, t_u)[0] for e in (h, -h))
    assert dmass == pytest.approx((up - down) / (2.0 * h), rel=1e-6,
                                  abs=1e-9)
    assert ddmass == pytest.approx((up - 2.0 * mass + down) / (h * h),
                                   rel=1e-3, abs=1e-4 / nu)


@pytest.mark.parametrize("nu", [0.02, 0.38, 0.97])
def test_t_mass_is_nil_without_a_bulk_and_the_anticorrelated_law_at_its_limit(
        nu):
    for rho in (-1.0, -0.5, 0.0, 0.9):
        for t in (0.0, -0.0, -0.3, math.nan):
            assert fitting._t_mass(nu, rho, t) == (0.0, 0.0, 0.0)
    # as rho -> -1 the mass tends to erf(t/(nu sqrt 2)), its form at -1
    rho = -1.0 + 1e-12
    for t in (1e-6, 0.3, 0.9):
        pos_mass = fitting._t_mass(nu, -1.0, 1.0)[0]
        mass = fitting._t_mass(nu, -1.0, t)[0]
        assert mass == math.erf(t / nu / math.sqrt(2.0))
        assert fitting._t_mass(nu, rho, 1.0)[0] == pytest.approx(
            pos_mass, rel=1e-9)
        assert fitting._t_mass(nu, rho, t)[0] == pytest.approx(
            mass, rel=1e-9)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(ALL_FAMILIES), st.floats(0.02, 0.97),
       st.floats(-1.0, 0.95, exclude_min=True), st.integers(0, 2 ** 32 - 1))
@example((Family.POWER, 0.7), 0.02, -1.0 + 2.0 ** -52, 0)
@example((Family.LOG, None), 0.97, 0.95, 1)
@example((Family.POWER, 0.7), 0.59375, -1.0 + 2.0 ** -53, 1)
def test_f_t_nu_derivatives_are_the_differences_of_its_value(family_q, nu,
                                                             rho, seed):
    # the sums of d/dnu and d2/dnu2 of log f_T that the kernel takes from
    # its own intermediates, against central differences of its value.
    # Near rho = -1 the sum of log f_T and n log norm are each ~1e4 and
    # cancel to O(1), so a plain second difference of the value is off
    # by its rounding over h^2; the second derivative is taken instead
    # from per-point differences against the value at nu, Richardson
    # extrapolated over h and h/2 to keep the truncation error small
    spec = ResponseSpec(*family_q)
    r = ratio_positive(200, seed=seed % 1000, nu=0.38)
    t2, _ = fitting._t_space(spec, np.asarray(spec.value(r)))
    norm, log_f, s1, s2 = fitting._log_f_t(t2, nu, rho, derivs=True)
    assert norm == fitting._log_f_t(t2, nu, rho)[0]
    assert np.array_equal(log_f, fitting._log_f_t(t2, nu, rho)[1])
    def value(x):
        norm, log_f = fitting._log_f_t(t2, x, rho)
        return float(np.sum(log_f)) - t2.size * math.log(norm)

    scale = t2.size / (nu * nu)         # of the second derivative's terms
    h = 1e-5 * nu
    assert s1 == pytest.approx((value(nu + h) - value(nu - h)) / (2.0 * h),
                               rel=1e-6, abs=1e-7 * scale * nu)
    def rise(x):                        # value(x) - value(nu)
        x_norm, x_log_f = fitting._log_f_t(t2, x, rho)
        return (float(np.sum(x_log_f - log_f))
                - t2.size * math.log(x_norm / norm))

    def diff2(h):
        return (rise(nu + h) + rise(nu - h)) / (h * h)

    h = 1e-3 * nu
    assert s2 == pytest.approx((4.0 * diff2(h / 2.0) - diff2(h)) / 3.0,
                               rel=1e-5, abs=1e-6 * scale)


_BRENT_SHAPES = {
    "quadratic": lambda c, amp, freq: lambda x: (x - c) ** 2,
    "wavy": lambda c, amp, freq: lambda x: ((x - c) ** 2
                                            + amp * math.sin(freq * x)),
    "log1p": lambda c, amp, freq: lambda x: math.log1p(abs(x - c)),
    # flat steps (at amp = 0 a constant) tie f values and parabola steps
    "steps": lambda c, amp, freq: lambda x: float(round(amp * (x - c)) ** 2),
}


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(_BRENT_SHAPES)), st.floats(-10.0, 10.0),
       st.floats(0.0, 20.0), st.floats(0.1, 50.0), st.floats(-10.0, 10.0),
       st.floats(1e-6, 20.0), st.floats(-10.0, -3.0))
@example("quadratic", -5.0, 0.0, 1.0, 0.0, 3.0, -8.0)   # optimum at a bound
@example("log1p", 0.0, 0.0, 1.0, 0.0, 1e100, -10.0)     # 500 evaluations
@example("steps", 10.0, 3.0, 1.0, 5.0, 12.0, -10.0)     # a tie in f
@example("steps", 0.0, 4.903079981789165, 1.0, -3.0, 6.0, -7.0)  # rat = 0
def test_bounded_brent_is_scipys(shape, c, amp, freq, lo, width, log_xatol):
    from scipy.optimize import minimize_scalar

    f = _BRENT_SHAPES[shape](c, amp, freq)
    calls = []

    def counted(x):
        calls.append(x)
        return f(x)

    xatol = 10.0 ** log_xatol
    res = minimize_scalar(f, bounds=(lo, lo + width), method="bounded",
                          options={"xatol": xatol})
    x, fx = tails._bounded_brent(counted, lo, lo + width, xatol)
    assert x == res.x and fx == res.fun
    assert len(calls) == res.nfev


def _wall(kind):
    """A pseudo-Huber bowl around (1, -1), whose far Newton steps
    overshoot, behind a line at x = 2.5 past which f is inf or raises
    OverflowError."""
    def f(p):
        x, y = p
        if x > 2.5:
            if kind == "overflow":
                raise OverflowError("math range error")
            return math.inf, math.inf, math.inf
        v = math.sqrt(1.0 + (x - 1.0) ** 2 + (y + 1.0) ** 2)
        return v, (x - 1.0) / v, (1.0 - ((x - 1.0) / v) ** 2) / v

    return f


# each f(p) gives (value, d/dx, d2/dx2), as the polish takes it
_POLISH_CASES = {
    # a curved ridge along y = x**2; its third derivatives along y are
    # nil, so the differences along y are exact to rounding
    "ridge": (lambda p: ((1.0 - p[0]) ** 2 + 10.0 * (p[1] - p[0] ** 2) ** 2,
                         -2.0 * (1.0 - p[0]) - 40.0 * p[0] * (p[1] - p[0] ** 2),
                         2.0 - 40.0 * p[1] + 120.0 * p[0] ** 2),
              (-1.2, 1.0), (1.0, 1.0)),
    "quadratic": (lambda p: ((p[0] - 3.0) ** 2 + 5.0 * (p[1] + 2.0) ** 2
                             + 2.0 * (p[0] - 3.0) * (p[1] + 2.0),
                             2.0 * (p[0] - 3.0) + 2.0 * (p[1] + 2.0), 2.0),
                  (0.0, 0.0), (3.0, -2.0)),
    # H is indefinite at the start, near a saddle
    "indefinite": (lambda p: (math.cos(p[0]) + math.cosh(p[1] - 0.5),
                              -math.sin(p[0]), -math.cos(p[0])),
                   (0.3, 0.0), (math.pi, 0.5)),
    "wall-inf": (_wall("inf"), (-4.0, -1.0), (1.0, -1.0)),
    "wall-overflow": (_wall("overflow"), (-4.0, -1.0), (1.0, -1.0)),
}


@pytest.mark.parametrize("name", sorted(_POLISH_CASES))
def test_newton_polish_reaches_the_known_optimum(name):
    f, start, optimum = _POLISH_CASES[name]
    calls = []

    def counted(p):
        calls.append(p)
        return f(p)

    x = fitting._newton_polish(counted, start)
    assert math.dist(x, optimum) <= 1e-6
    assert len(calls) <= fitting._POLISH_EVALS
    if name.startswith("wall"):
        # the trust radius grew past the line and was cut back
        assert any(p[0] > 2.5 for p in calls)


def test_newton_polish_stops_at_its_evaluation_cap():
    # exp(-x) + exp(-y) falls toward 0 and has no minimum: every Newton
    # step is accepted, and moves by 1 on each axis
    calls = []

    def falling(p):
        calls.append(p)
        return math.exp(-p[0]) + math.exp(-p[1]), -math.exp(-p[0]), \
            math.exp(-p[0])

    x = fitting._newton_polish(falling, (0.0, 0.0))
    assert fitting._POLISH_EVALS - 3 < len(calls) <= fitting._POLISH_EVALS
    assert min(x) > 50.0


@settings(max_examples=500, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False),
       st.floats(allow_nan=False, allow_infinity=False))
@example(-710.0, 0.0)
@example(-1.7976931348623157e308, 1.7976931348623157e308)
@example(-0.829083, 0.0)  # e/(1 + e), e = exp(t), steps down an ulp here
def test_the_spread_logistic_is_total_and_monotone(t, other):
    nu = fitting._nu_from_t(t)
    assert fitting._NU_LO <= nu <= fitting._NU_HI
    # monotone against another float and against t's neighbours
    nearby = (other, math.nextafter(t, -math.inf),
              math.nextafter(t, math.inf))
    for s in nearby:
        assert (fitting._nu_from_t(s) <= nu) if s < t else (
            fitting._nu_from_t(s) >= nu)
    # _t_from_nu clamps nu to 1e-6 inside the range; inside that, the two
    # undo each other
    if fitting._NU_LO + 1e-6 < nu < fitting._NU_HI - 1e-6:
        assert fitting._t_from_nu(nu) == pytest.approx(t, rel=1e-12,
                                                       abs=1e-9)
        assert fitting._nu_from_t(fitting._t_from_nu(nu)) == pytest.approx(
            nu, rel=1e-14)


@pytest.mark.parametrize("eps", [1e-4, 1e-8, 1e-12])
@pytest.mark.parametrize("nu", [0.1, 0.38, 0.9])
def test_correlated_law_converges_to_the_anticorrelated_one(nu, eps):
    # the f_T kernel and the orthant CDF at rho = -1 + eps against the
    # exact rho = -1 law, before a rho profile crosses the boundary
    spec = ResponseSpec(Family.SYM)
    r = np.geomspace(math.exp(-5.0), math.exp(5.0), 201)
    y = np.asarray(spec.value(r))
    tol = 10.0 * eps + 1e-12
    np.testing.assert_allclose(
        fitting._change_log_pdf(spec, 1.0, nu, -1.0 + eps, y),
        fitting._change_log_pdf(spec, 1.0, nu, -1.0, y), rtol=0.0, atol=tol)
    np.testing.assert_allclose(cdf_pos(nu, -1.0 + eps, r),
                               cdf_pos(nu, -1.0, r),
                               rtol=0.0, atol=tol)


def test_import_loads_neither_scipy_stats_nor_integrate():
    code = ("import sys, ratiotails; print(sorted(m for m in sys.modules "
            "if m in ('scipy.stats', 'scipy.integrate')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# window bootstrap against the repeat-by-count oracle
# ---------------------------------------------------------------------------

def counts_resample(windows, counts):
    """A resample written plainly: each window's values, in order, every
    one repeated as often as the window was drawn."""
    return np.abs(np.concatenate(
        [np.repeat(w, c) for w, c in zip(windows, counts)]))


def bootstrap_oracle(family, windows, q, n_boot, boot_seed):
    """The window bootstrap written plainly: every resample built in full
    and its threshold re-quantiled over all of it."""
    rng = np.random.default_rng(boot_seed)
    n = len(windows)
    estimates = []
    for _ in range(n_boot):
        counts = np.bincount(rng.integers(0, n, size=n), minlength=n)
        sample = counts_resample(windows, counts)
        u = float(np.quantile(sample, q))
        exc = sample[sample > u]
        if exc.size < fitting.MIN_TAIL_POINTS:
            continue
        est, _ = fitting._tail_stage(family, exc, u)
        estimates.append(est)
    if len(estimates) < 2:
        return None
    return float(np.std(estimates, ddof=1))


def stderr_of(family, windows, q, n_boot, boot_seed):
    return fitting._param_stderr(family, 1.0, windows, q, n_boot, boot_seed,
                                 100)


@pytest.fixture(scope="module")
def path_windows():
    series = sim_series(Family.POWER, 1.0, 2 * 10 ** 5, seed=57)
    _, windows, _ = relative_changes(series, WindowSpec(1e-6, 1e-4, 1e-4),
                                     return_windows=True)
    return windows


@pytest.mark.parametrize("q", [0.99, 0.998, 0.9995])
@pytest.mark.parametrize("family", [Family.POWER, Family.LOG_POWER])
def test_bootstrap_matches_the_oracle(path_windows, family, q):
    for seed in (0, 1, 29):
        got = stderr_of(family, path_windows, q, 30, seed)
        assert got is not None
        assert got == bootstrap_oracle(family, path_windows, q, 30, seed)


@pytest.mark.parametrize("q", [0.99, 0.998, 0.9995])
def test_bootstrap_matches_the_oracle_on_ragged_windows(q):
    rng = np.random.default_rng(5)
    windows = [rng.standard_t(2.0, size=n)
               for n in rng.integers(0, 400, size=300)]
    for seed in (3, 4):
        got = stderr_of(Family.POWER, windows, q, 30, seed)
        assert got is not None
        assert got == bootstrap_oracle(Family.POWER, windows, q, 30, seed)


def pool_runs_short():
    """Twenty windows of 500 whose largest 4% (the pool at q = 0.99) sit
    300 in window 0 and 10 in each of windows 1-10: a resample without
    window 0 holds about as many pooled values as its top 1% needs, and
    often fewer."""
    rng = np.random.default_rng(8)
    windows = [np.abs(rng.standard_normal(500)) for _ in range(20)]
    windows[0][:300] *= 1e4
    for w in windows[1:11]:
        w[:10] *= 1e2
    return windows


def test_bootstrap_falls_back_when_the_pool_runs_out(monkeypatch):
    windows = pool_runs_short()
    full = []
    build = fitting._ExceedancePool.full

    def counting(self, counts):
        full.append(counts)
        return build(self, counts)

    monkeypatch.setattr(fitting._ExceedancePool, "full", counting)
    for seed in (0, 1, 2):
        full.clear()
        got = stderr_of(Family.POWER, windows, 0.99, 40, seed)
        assert 0 < len(full) < 40  # each of the 40 resamples once
        assert got == bootstrap_oracle(Family.POWER, windows, 0.99, 40, seed)


@pytest.mark.parametrize("q", [0.99, 0.998])
def test_pool_resample_is_the_full_resample(q):
    # threshold and exceedances, bit for bit and in order, over many
    # resamples of ragged windows, of a few far-apart values (where
    # interpolation rounds) and of a pool that runs short; the windows
    # in pick order hold the same values, so the same threshold
    rng = np.random.default_rng(13)
    ragged = [rng.standard_t(2.0, size=n)
              for n in rng.integers(0, 400, size=200)]
    sparse = [rng.standard_cauchy(size=n) for n in rng.integers(1, 4, size=200)]
    for windows in (ragged, sparse, pool_runs_short()):
        pool = fitting._ExceedancePool(windows, q)
        n = len(windows)
        for _ in range(300):
            pick = rng.integers(0, n, size=n)
            counts = np.bincount(pick, minlength=n)
            sample = counts_resample(windows, counts)
            u = float(np.quantile(sample, q))
            got_u, got_exc = pool.resample(counts)
            assert got_u == u
            assert np.array_equal(got_exc, sample[sample > u])
            in_pick_order = np.abs(np.concatenate([windows[i] for i in pick]))
            assert float(np.quantile(in_pick_order, q)) == u


def test_fit_g_stderr_is_the_oracle_bootstrap(path_windows):
    flat = path_windows.reshape(-1)
    result = fit_g(flat, [Family.POWER, Family.LOG], windows=path_windows,
                   n_boot=20, boot_seed=9)
    assert result.response.family is Family.POWER
    assert result.param_stderr == bootstrap_oracle(
        Family.POWER, path_windows, 0.998, 20, 9)
