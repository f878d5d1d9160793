"""Windowed change extraction and response-family recovery."""

import math
import subprocess
import sys

import numpy as np
import pytest
from scipy.stats import ks_2samp

from ratiotails import (Family, OrderFlowParams, PriceSeries, ResponseSpec,
                        SimConfig, TailKind, WindowSpec, exponent_report,
                        fit_g, fit_price_series, relative_changes,
                        simulate_gbm, simulate_path)
from ratiotails import fitting
from ratiotails.errors import (DomainError, NonIdentifiableError,
                               TimestampError, WindowError)
from ratiotails.fitting import _AnticorrLaw

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
    assert len(windows) == 3
    assert all(len(win) == 9 for win in windows)
    assert len(flat) == 27
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
    rng = np.random.default_rng(61)
    z1 = rng.standard_normal(2 * 10 ** 5)
    z2 = rng.standard_normal(2 * 10 ** 5)
    rho, nu = -0.5, 0.38
    d = 1 + nu * z1
    s = 1 + nu * (rho * z1 + math.sqrt(1 - rho ** 2) * z2)
    r = d / s
    r = r[r > 0]
    changes = 1e-6 * (r - 1.0 / r)
    result = fit_g(changes, [Family.POWER, Family.LOG], rho=rho)
    assert result.response.family is Family.POWER
    assert result.param_estimate == pytest.approx(1.0, rel=0.3)


# ---------------------------------------------------------------------------
# the rho = -1 nuisance search against the per-point grid + Nelder-Mead oracle
# ---------------------------------------------------------------------------

def pointwise_score(spec, law, scale, points, u):
    """Mean conditional bulk log-likelihood, one full per-point pass."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r = np.asarray(spec.inverse(points / scale), dtype=float)
        r = np.where(np.isfinite(r) & (r > 0.0), r, np.inf)
        ll = (law.log_pdf(r) - math.log(scale) - spec.log_deriv(r)
              - math.log(law.pos_mass))
        ll = np.where(np.isfinite(ll), ll, fitting._LL_FLOOR)
        r_u = float(spec.inverse(u / scale))
    bulk_mass = 2.0 * float(law.cdf_pos(r_u)) - 1.0
    if bulk_mass <= 0.0:
        return fitting._LL_FLOOR
    return float(np.mean(ll)) - math.log(bulk_mass)


def grid_nelder_mead_oracle(spec, q95, sub, u):
    """The rho = -1 search the scale profile replaced: a bounded log-scale
    fit at each point of the 21-point spread grid, then a Nelder-Mead
    polish of (logit spread, log-scale), each step a per-point pass."""
    from scipy.optimize import minimize, minimize_scalar

    def negative(nu, log_scale):
        return -pointwise_score(spec, _AnticorrLaw(nu), math.exp(log_scale),
                                sub, u)

    best = (math.inf, None, None)
    for nu in np.geomspace(0.05, 0.93, 21):
        ls0 = fitting._scale_seed(spec, _AnticorrLaw(nu), q95)
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


@pytest.mark.parametrize("family,q,make,ridge", [
    (Family.POWER, 1.0, lambda r: 1e-6 * (r - 1.0 / r), False),
    (Family.LOG, None, lambda r: 1e-6 * np.log(r), False),
    (Family.POWER, 1.0, None, True),
], ids=["power", "log", "gaussian"])
def test_profile_search_matches_the_oracle(family, q, make, ridge):
    if make is None:  # GBM-like changes: a flat ridge in (spread, scale)
        changes = 1e-4 + 1e-3 * np.random.default_rng(71).standard_normal(30000)
    else:
        changes = make(ratio_positive(30000, seed=73))
    spec = ResponseSpec(family, q)
    q95, bulk, u = _split(changes)
    nu, scale, law = fitting._fit_nuisance(spec, q95, bulk, u, -1.0)
    nu_ref, scale_ref = grid_nelder_mead_oracle(spec, q95, bulk, u)
    got = law.bulk_score(spec, scale, bulk, u)
    ref = pointwise_score(spec, _AnticorrLaw(nu_ref), scale_ref, bulk, u)
    if ridge:
        assert abs(got - ref) <= 1e-6
    else:
        assert got >= ref - 1e-9
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
        law = _AnticorrLaw(nu)
        ref = pointwise_score(spec, law, scale, points, u)
        assert law.bulk_score(spec, scale, points, u) == pytest.approx(
            ref, rel=1e-12, abs=1e-12)
    profile = _AnticorrLaw.profile(spec, 1.0, points, u)
    nus = np.array([0.05, 0.38, 0.9])
    np.testing.assert_allclose(profile(nus), [profile(v) for v in nus],
                               rtol=1e-14)


def test_import_loads_neither_scipy_stats_nor_integrate():
    code = ("import sys, ratiotails; print(sorted(m for m in sys.modules "
            "if m in ('scipy.stats', 'scipy.integrate')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# window bootstrap against the concatenate-and-quantile oracle
# ---------------------------------------------------------------------------

def bootstrap_oracle(family, windows, q, n_boot, boot_seed):
    """The window bootstrap written plainly: every resample concatenated
    and its threshold re-quantiled over all of it."""
    rng = np.random.default_rng(boot_seed)
    estimates = []
    for _ in range(n_boot):
        pick = rng.integers(0, len(windows), size=len(windows))
        sample = np.abs(np.concatenate([windows[i] for i in pick]))
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
    gather = fitting._Segments.gather

    def counting(self, pick):
        out = gather(self, pick)
        full.append(out.size == 20 * 500)
        return out

    monkeypatch.setattr(fitting._Segments, "gather", counting)
    for seed in (0, 1, 2):
        full.clear()
        got = stderr_of(Family.POWER, windows, 0.99, 40, seed)
        assert any(full) and not all(full)
        assert got == bootstrap_oracle(Family.POWER, windows, 0.99, 40, seed)


@pytest.mark.parametrize("q", [0.99, 0.998])
def test_pool_resample_is_the_full_resample(q):
    # threshold and exceedances, bit for bit and in order, over many
    # resamples of ragged windows, of a few far-apart values (where
    # interpolation rounds) and of a pool that runs short
    rng = np.random.default_rng(13)
    ragged = [rng.standard_t(2.0, size=n)
              for n in rng.integers(0, 400, size=200)]
    sparse = [rng.standard_cauchy(size=n) for n in rng.integers(1, 4, size=200)]
    for windows in (ragged, sparse, pool_runs_short()):
        pool = fitting._ExceedancePool(windows, q)
        for _ in range(300):
            pick = rng.integers(0, len(windows), size=len(windows))
            sample = np.abs(np.concatenate([windows[i] for i in pick]))
            u = float(np.quantile(sample, q))
            got_u, got_exc = pool.resample(pick)
            assert got_u == u
            assert np.array_equal(got_exc, sample[sample > u])


def test_fit_g_stderr_is_the_oracle_bootstrap(path_windows):
    flat = np.concatenate(path_windows)
    result = fit_g(flat, [Family.POWER, Family.LOG], windows=path_windows,
                   n_boot=20, boot_seed=9)
    assert result.response.family is Family.POWER
    assert result.param_stderr == bootstrap_oracle(
        Family.POWER, path_windows, 0.998, 20, 9)
