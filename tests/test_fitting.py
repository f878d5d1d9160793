"""Windowed change extraction and response-family recovery."""

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
from ratiotails import fitting, tails
from ratiotails.density import positive_ratio_mass
from ratiotails.errors import (DomainError, NonIdentifiableError,
                               TimestampError, WindowError)
from ratiotails.fitting import _RatioLaw, scaled_returns

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
        monkeypatch.setattr(fitting, "usable_cpus", lambda n=cpus: n)
        results.append(fit_g(changes, fams, rho=-0.5, threshold_quantile=0.99))
    assert results[0] == results[1] == results[2]
    assert sorted(results[0].scores) == sorted(f.value for f in fams)
    assert results[0].rho == -0.5


def test_fit_at_rho_minus_one_starts_no_thread(monkeypatch):
    started = []
    start = threading.Thread.start

    def counted(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted)
    monkeypatch.setattr(fitting, "usable_cpus", lambda: 4)
    changes = _correlated_power_changes()
    fit_g(changes, (Family.POWER, Family.LOG), threshold_quantile=0.99)
    assert started == []
    # the count sees the pool where there is one
    fit_g(changes, (Family.POWER, Family.LOG), rho=-0.5,
          threshold_quantile=0.99)
    assert started


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

def pointwise_score(spec, law, scale, points, u):
    """Mean conditional bulk log-likelihood, one full per-point pass."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r = np.asarray(spec.inverse(points / scale), dtype=float)
        r = np.where(np.isfinite(r) & (r > 0.0), r, np.inf)
        r_u = float(spec.inverse(u / scale))
    ll = law.change_log_pdf(spec, scale, r)
    ll = np.where(np.isfinite(ll), ll, fitting._LL_FLOOR)
    bulk_mass = 2.0 * float(law.cdf_pos(r_u)) - 1.0
    if bulk_mass <= 0.0:
        return fitting._LL_FLOOR
    return float(np.mean(ll)) - math.log(bulk_mass)


def grid_nelder_mead_oracle(spec, q95, sub, u, rho=-1.0):
    """The search that the rho = -1 scale profile and the correlated
    warm start replaced: a bounded log-scale fit at each point of the
    21-point spread grid, seeded where the law's 0.95 |change| quantile
    sits at q95, then a Nelder-Mead polish of (logit spread, log-scale),
    each step a per-point pass."""
    from scipy.optimize import minimize, minimize_scalar

    def negative(nu, log_scale):
        return -pointwise_score(spec, _RatioLaw(nu, rho), math.exp(log_scale),
                                sub, u)

    best = (math.inf, None, None)
    for nu in np.geomspace(0.05, 0.93, 21):
        r975 = invert_monotone(_RatioLaw(nu, rho).cdf_pos, 0.975)
        ls0 = math.log(q95 / float(spec.value(r975)))
        r = minimize_scalar(lambda ls: negative(nu, ls),
                            bounds=(ls0 - 1.5, ls0 + 1.5), method="bounded",
                            options={"xatol": 1e-7})
        if r.fun < best[0]:
            best = (r.fun, float(nu), float(r.x))
    _, nu0, ls0 = best
    res = minimize(lambda th: negative(fitting._nu_from_t(th[0]), th[1]),
                   x0=np.array([fitting._t_from_nu(nu0), ls0]),
                   method="Nelder-Mead",
                   options={"xatol": 1e-7, "fatol": 1e-10, "maxiter": 400})
    return fitting._nu_from_t(res.x[0]), math.exp(res.x[1])


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
    nu, scale, law, _ = fitting._fit_nuisance(spec, q95, bulk, u, -1.0)
    nu_ref, scale_ref = grid_nelder_mead_oracle(spec, q95, bulk, u)
    got = law.bulk_score(spec, scale, bulk, u)
    ref = pointwise_score(spec, _RatioLaw(nu_ref, -1.0), scale_ref, bulk, u)
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
def test_correlated_search_matches_the_oracle(family, q, make, rho):
    # the Nelder-Mead polish from the rho = -1 optimum reaches the
    # optimum of the spread grid
    spec = ResponseSpec(family, q)
    q95, bulk, u = _split(make(correlated_ratios(10000, rho, seed=83)))
    nu, scale, law, _ = fitting._fit_nuisance(spec, q95, bulk, u, rho)
    nu_ref, scale_ref = grid_nelder_mead_oracle(spec, q95, bulk, u, rho)
    got = law.bulk_score(spec, scale, bulk, u)
    ref = pointwise_score(spec, _RatioLaw(nu_ref, rho), scale_ref, bulk, u)
    assert got >= ref - 1e-12
    assert nu == pytest.approx(nu_ref, rel=1e-5)
    assert scale == pytest.approx(scale_ref, rel=1e-5)


@pytest.mark.parametrize("family,q", [(Family.POWER, 0.7), (Family.LOG, None),
                                      (Family.ODD_POWER, 3)])
def test_three_sums_give_the_pointwise_score(family, q):
    # more points than one chunk, and three far points: under LOG their
    # ratios leave float range (r = 0 or inf), so they score the floor
    spec = ResponseSpec(family, q)
    r = ratio_positive(fitting._CHUNK + 4000, seed=79)
    points = np.asarray(spec.value(r))
    points[:3] = [2e3, -2e3, 5e3]
    u = 500.0
    for nu, scale in ((0.38, 1.0), (0.05, 0.8), (0.9, 3.0)):
        law = _RatioLaw(nu, -1.0)
        ref = pointwise_score(spec, law, scale, points, u)
        assert law.bulk_score(spec, scale, points, u) == pytest.approx(
            ref, rel=1e-12, abs=1e-12)


@settings(max_examples=300, deadline=None)
@given(st.floats(0.02, 0.97),
       st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True))
@example(0.02, 1e-300)
@example(0.97, 1.0 - 2.0 ** -53)
def test_profile_masses_are_the_laws(nu, t):
    # _profile takes t_u from the threshold ratio r_u, as here
    r_u = (1.0 + t) / (1.0 - t)
    t_u = (r_u - 1.0) / (r_u + 1.0)
    pos_mass, bulk_mass = fitting._masses(nu, t_u)
    assert pos_mass == positive_ratio_mass(
        OrderFlowParams(1.0, 1.0, nu, nu, -1.0))
    # the reference subtracts CDF values near 1/2: ~1e-15 absolute error
    ref = 2.0 * float(_RatioLaw(nu, -1.0).cdf_pos(r_u)) - 1.0
    assert bulk_mass == pytest.approx(ref, rel=1e-14, abs=2e-15)


@pytest.mark.parametrize("u", [0.0, -1e-3, math.nan])
@pytest.mark.parametrize("family,q", [(Family.POWER, 1.0), (Family.LOG, None)])
def test_profile_scores_the_floor_without_a_bulk(family, q, u):
    # u <= 0 puts r_u at or below 1 (t_u <= 0); u = NaN makes t_u NaN
    spec = ResponseSpec(family, q)
    points = np.asarray(spec.value(ratio_positive(500, seed=89)))
    profile = fitting._profile(spec, 1.0, points, u)
    for nu in (0.02, 0.38, 0.97):
        assert profile(nu) == fitting._LL_FLOOR


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


@pytest.mark.parametrize("eps", [1e-4, 1e-8, 1e-12])
@pytest.mark.parametrize("nu", [0.1, 0.38, 0.9])
def test_correlated_law_converges_to_the_anticorrelated_one(nu, eps):
    # Hinkley's density and the orthant CDF at rho = -1 + eps against the
    # exact rho = -1 law, before a rho profile crosses the boundary
    spec = ResponseSpec(Family.SYM)
    r = np.geomspace(math.exp(-5.0), math.exp(5.0), 201)
    near, edge = _RatioLaw(nu, -1.0 + eps), _RatioLaw(nu, -1.0)
    tol = 10.0 * eps + 1e-12
    np.testing.assert_allclose(near.change_log_pdf(spec, 1.0, r),
                               edge.change_log_pdf(spec, 1.0, r),
                               rtol=0.0, atol=tol)
    np.testing.assert_allclose(near.cdf_pos(r), edge.cdf_pos(r),
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
    return fitting._param_stderr(family, 1.0, None, windows, q, n_boot,
                                 boot_seed, 100)


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
