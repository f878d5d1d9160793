"""Seeded Monte Carlo: determinism, degeneracy, moments, path laws."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import jarque_bera, ks_2samp, norm

from ratiotails import parallel, simulate
from ratiotails import (Family, OrderFlowParams, RejectionPolicy,
                        ResponseSpec, SimConfig, TransformedDensity,
                        sample_bivariate, sample_ratio, simulate_gbm,
                        simulate_path, stream)
from ratiotails.errors import (DomainError, NonpositiveRatioError,
                               RejectionRateError)
from ratiotails.simulate import CHUNK

ANTI_NARROW = OrderFlowParams(1.0, 1.0, 0.2, 0.2, -1.0)
ANTI_WIDE = OrderFlowParams(1.0, 1.0, 0.5, 0.5, -1.0)
# path-friendly spreads: nonpositive-ratio mass 2*Phi(-1/0.35) ~ 0.43%,
# safely under the 1% resampling cap
ANTI_PATH = OrderFlowParams(1.0, 1.0, 0.35, 0.35, -1.0)


def make_config(**overrides):
    kw = dict(params=ANTI_PATH, response=ResponseSpec(Family.SYM),
              tau0=1.0, dt=1e-4, n_steps=1000, p0=1.0, seed=99)
    kw.update(overrides)
    return SimConfig(**kw)


# ---------------------------------------------------------------------------
# streams and determinism
# ---------------------------------------------------------------------------

def test_stream_reproducible_and_distinct():
    a = stream(123, 0).standard_normal(8)
    b = stream(123, 0).standard_normal(8)
    c = stream(123, 1).standard_normal(8)
    d = stream(124, 0).standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


@pytest.mark.parametrize("seed", [-1, 2 ** 64], ids=["negative", "2^64"])
def test_every_draw_refuses_a_seed_outside_64_bits(seed):
    # the one range check sits in stream, which every draw goes through,
    # the deterministic GBM path at sigma = 0 included
    draws = (lambda: stream(seed, 0),
             lambda: sample_bivariate(ANTI_WIDE, 10, seed),
             lambda: sample_ratio(ANTI_WIDE, 10, seed),
             lambda: simulate_path(make_config(seed=seed)),
             lambda: simulate_gbm(0.05, 0.2, 0.01, 10, 1.0, seed),
             lambda: simulate_gbm(0.05, 0.0, 0.01, 10, 1.0, seed))
    for draw in draws:
        with pytest.raises(DomainError, match="^seed must fit in 64 bits$"):
            draw()


def test_the_64_bit_seed_range_is_whole():
    top = 2 ** 64 - 1
    assert not np.array_equal(stream(top, 0).standard_normal(4),
                              stream(0, 0).standard_normal(4))
    assert len(simulate_gbm(0.05, 0.2, 0.01, 10, 1.0, top)) == 11
    assert len(simulate_path(make_config(seed=top))) == 1001


def on_cpus(n: int):
    """Every stage sized for n usable CPUs, the one thread-count default."""
    return mock.patch.object(parallel, "usable_cpus", lambda: n)


def test_sample_bivariate_bit_identical_across_threads():
    n = (1 << 20) + 12345  # straddle a chunk boundary
    with on_cpus(1):
        d1, s1 = sample_bivariate(ANTI_WIDE, n, seed=5)
    with on_cpus(4):
        d4, s4 = sample_bivariate(ANTI_WIDE, n, seed=5)
    assert np.array_equal(d1, d4)
    assert np.array_equal(s1, s4)


def test_each_chunk_draws_from_the_stream_of_its_number():
    # the second chunk's draws are stream(seed, 1)'s, in each sampler
    n = CHUNK + 5
    d, s = sample_bivariate(ANTI_WIDE, n, seed=5)
    d1, s1 = simulate._flow_pair(stream(5, 1), ANTI_WIDE, 5)
    assert np.array_equal(d[CHUNK:], d1) and np.array_equal(s[CHUNK:], s1)
    assert np.array_equal(sample_ratio(ANTI_WIDE, n, seed=5).values[CHUNK:],
                          d1 / s1)
    steps = np.concatenate([-0.5 + stream(8, k).standard_normal(m)
                            for k, m in ((0, CHUNK), (1, 5))])
    gbm = simulate_gbm(0.0, 1.0, 1.0, n, 1.0, seed=8)
    assert np.array_equal(gbm.log_prices[1:], np.cumsum(steps))
    cfg = make_config(params=ANTI_NARROW, n_steps=n, seed=9)
    d1, s1 = simulate._flow_pair(stream(9, 1), ANTI_NARROW, 5)
    g = cfg.response.value(d1 / s1) * (cfg.dt / cfg.tau0)
    path = simulate_path(cfg)
    assert np.allclose(np.diff(path.log_prices)[CHUNK:], g, rtol=1e-9,
                       atol=0)


# one step either side of a chunk boundary and on it
AROUND_CHUNK = pytest.mark.parametrize(
    "n", [(1 << 20) - 1, 1 << 20, (1 << 20) + 1])


@AROUND_CHUNK
def test_sample_ratio_bit_identical_across_threads(n):
    with on_cpus(1):
        r1 = sample_ratio(ANTI_WIDE, n, seed=6)
    with on_cpus(4):
        r4 = sample_ratio(ANTI_WIDE, n, seed=6)
    assert np.array_equal(r1.values, r4.values)
    assert r1.nonpositive_s_fraction == r4.nonpositive_s_fraction


@AROUND_CHUNK
def test_simulate_path_bit_identical_across_threads_and_runs(n):
    cfg = make_config(n_steps=n)
    with on_cpus(1):
        a = simulate_path(cfg)
    with on_cpus(3):
        b = simulate_path(cfg)
    with on_cpus(1):
        c = simulate_path(cfg)
    assert np.array_equal(a.log_prices, b.log_prices)
    assert np.array_equal(a.log_prices, c.log_prices)


@AROUND_CHUNK
def test_gbm_bit_identical_across_threads(n):
    with on_cpus(1):
        a = simulate_gbm(0.05, 0.2, 0.01, n, 100.0, seed=8)
    with on_cpus(4):
        b = simulate_gbm(0.05, 0.2, 0.01, n, 100.0, seed=8)
    assert np.array_equal(a.log_prices, b.log_prices)


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 2 ** 32 - 1),
       st.one_of(st.integers(1, 3000), st.integers(CHUNK - 3000, CHUNK + 3000)))
def test_outputs_do_not_depend_on_the_thread_count(seed, n):
    # 1-4 s for the 8 examples on a 2-vCPU host.  Near CHUNK the
    # path redraws ~0.4% of its ratios; a short path takes a spread with
    # no nonpositive ratio in practice, as one redraw could pass 1%
    narrow = OrderFlowParams(1.0, 1.0, 0.1, 0.1, -1.0)
    cfg = make_config(params=ANTI_PATH if n > CHUNK // 2 else narrow,
                      n_steps=n, seed=seed)
    runs = []
    for k in (1, 2, 3):
        with on_cpus(k):
            runs.append((simulate_path(cfg).log_prices,
                         simulate_gbm(0.05, 0.2, 0.01, n, 100.0,
                                      seed=seed).log_prices,
                         sample_ratio(ANTI_WIDE, n, seed=seed).values))
    path, gbm, ratio = zip(*runs)
    for runs in (path, gbm, ratio):
        assert all(np.array_equal(runs[0], other) for other in runs[1:])


# ---------------------------------------------------------------------------
# order-flow sampling
# ---------------------------------------------------------------------------

def test_anticorrelated_pairs_on_exact_line():
    d, s = sample_bivariate(ANTI_NARROW, 10000, seed=1)
    # (D - mu1)/sigma1 + (S - mu2)/sigma2 = 0 to machine precision: the
    # noise terms cancel exactly, only the mean additions round
    resid = (d - 1.0) / 0.2 + (s - 1.0) / 0.2
    assert np.max(np.abs(resid)) <= 1e-14


def test_sample_moments_within_five_stderr():
    params = OrderFlowParams(1.0, 2.0, 0.3, 0.6, 0.4)
    n = 10 ** 6
    d, s = sample_bivariate(params, n, seed=2)
    se_mean1 = params.sigma1 / math.sqrt(n)
    se_mean2 = params.sigma2 / math.sqrt(n)
    assert abs(np.mean(d) - 1.0) <= 5 * se_mean1
    assert abs(np.mean(s) - 2.0) <= 5 * se_mean2
    se_var1 = params.sigma1 ** 2 * math.sqrt(2.0 / n)
    se_var2 = params.sigma2 ** 2 * math.sqrt(2.0 / n)
    assert abs(np.var(d) - 0.09) <= 5 * se_var1
    assert abs(np.var(s) - 0.36) <= 5 * se_var2
    rho_hat = np.corrcoef(d, s)[0, 1]
    assert abs(rho_hat - 0.4) <= 5.0 / math.sqrt(n)


def test_uncorrelated_sample_correlation_small():
    params = OrderFlowParams(1.0, 1.0, 0.2, 0.2, 0.0)
    d, s = sample_bivariate(params, 10 ** 6, seed=3)
    assert abs(np.corrcoef(d, s)[0, 1]) <= 0.005


def test_ratio_all_positive_for_tight_spreads():
    # supply below zero would need a ten-sigma draw
    params = OrderFlowParams(1.0, 1.0, 0.1, 0.1, -1.0)
    r = sample_ratio(params, 10 ** 5, seed=4)
    assert np.all(r.values > 0)
    assert r.nonpositive_s_fraction == 0.0


def test_ratio_nonpositive_fraction_reported():
    params = OrderFlowParams(1.0, 1.0, 0.5, 0.5, 0.0)
    r = sample_ratio(params, 10 ** 6, seed=9)
    expected = norm.cdf(-2.0)  # P(S <= 0)
    assert r.nonpositive_s_fraction == pytest.approx(expected, abs=1e-3)


def test_ratio_reciprocal_exchange_symmetry():
    r = sample_ratio(ANTI_WIDE, 10 ** 6, seed=11).values
    r = r[r > 0]
    stat = ks_2samp(r, 1.0 / r).statistic
    assert stat <= 0.002


# ---------------------------------------------------------------------------
# path simulation
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(DomainError):
        make_config(dt=2.0, tau0=1.0)
    with pytest.raises(DomainError):
        make_config(p0=0.0)
    with pytest.raises(DomainError):
        make_config(n_steps=0)


def test_price_series_shape_and_positivity():
    cfg = make_config(n_steps=5000)
    series = simulate_path(cfg)
    assert len(series) == 5001
    assert np.all(series.prices > 0)
    assert np.all(np.diff(series.times) > 0)
    assert series.meta["seed"] == 99
    assert series.meta["rejected"] <= 0.01 * cfg.n_steps


def test_tight_spread_path_has_no_rejections():
    cfg = make_config(params=ANTI_NARROW, n_steps=5000)
    assert simulate_path(cfg).meta["rejected"] == 0


def test_equilibrium_limit_price_constant():
    # vanishing spreads pin the ratio at 1 where the response vanishes
    params = OrderFlowParams(1.0, 1.0, 1e-9, 1e-9, -1.0)
    cfg = make_config(params=params, dt=1.0, tau0=1.0, n_steps=10 ** 4)
    series = simulate_path(cfg)
    assert np.max(np.abs(series.prices - 1.0)) <= 1e-6


def test_excess_demand_drifts_price_up():
    # more demand than supply: mean log return matches the sampled response
    params = OrderFlowParams(1.2, 1.0, 0.05, 0.05, -1.0)
    cfg = make_config(params=params, dt=0.01, tau0=1.0, n_steps=10 ** 6)
    series = simulate_path(cfg)
    step_returns = series.log_returns()
    # independent oracle for E[response(R)]
    rng = np.random.default_rng(77)
    z = rng.standard_normal(2 * 10 ** 6)
    r_oracle = (1.2 + 0.05 * z) / (1.0 - 0.05 * z)
    g_oracle = 0.5 * (r_oracle - 1.0 / r_oracle)
    scale = cfg.dt / cfg.tau0
    se = scale * np.std(g_oracle) * math.sqrt(1.0 / len(step_returns)
                                              + 1.0 / len(g_oracle))
    assert np.mean(step_returns) > 0
    assert abs(np.mean(step_returns)
               - scale * np.mean(g_oracle)) <= 3 * se


def test_step_distribution_matches_transform_law():
    # rescaled per-step returns follow the transformed ratio law
    from scipy.stats import norm as _norm

    cfg = make_config(n_steps=10 ** 6, dt=1e-3)
    series = simulate_path(cfg)
    steps = series.log_returns() / (cfg.dt / cfg.tau0)

    spec = cfg.response
    nu = 0.35
    pos = _norm.cdf(1 / nu) - _norm.cdf(-1 / nu)

    def model_cdf(y):
        r = spec.inverse(y)
        z = (r - 1.0) / (nu * (r + 1.0))
        return (_norm.cdf(z) - _norm.cdf(-1 / nu)) / pos

    lo, hi = np.quantile(steps, [0.005, 0.995])
    edges = np.linspace(lo, hi, 101)
    counts, _ = np.histogram(steps, bins=edges)
    emp = counts / len(steps)
    model = np.diff([model_cdf(e) for e in edges])
    l1 = np.abs(emp - model).sum() + abs((1 - emp.sum()) - (1 - model.sum()))
    assert l1 <= 0.02


def test_rejection_rate_hard_error():
    # wide supply spread puts ~2.3% of draws at nonpositive supply
    params = OrderFlowParams(1.0, 1.0, 0.2, 0.5, 0.0)
    cfg = make_config(params=params, n_steps=20000)
    with pytest.raises(RejectionRateError):
        simulate_path(cfg)


def test_abort_policy_raises_on_first_nonpositive():
    params = OrderFlowParams(1.0, 1.0, 0.2, 0.5, 0.0)
    cfg = make_config(params=params, n_steps=20000,
                      rejection_policy=RejectionPolicy.ABORT)
    with pytest.raises(NonpositiveRatioError):
        simulate_path(cfg)


def test_resample_counts_recorded():
    params = OrderFlowParams(1.0, 1.0, 0.35, 0.35, 0.0)  # P(S<=0) ~ 0.2%
    cfg = make_config(params=params, n_steps=10 ** 5)
    series = simulate_path(cfg)
    expected = norm.cdf(-1 / 0.35) * cfg.n_steps
    assert 0 < series.meta["rejected"] <= 4 * expected


# ---------------------------------------------------------------------------
# diffusion baseline
# ---------------------------------------------------------------------------

def test_gbm_zero_vol_is_exact_exponential():
    series = simulate_gbm(0.07, 0.0, 0.5, 1000, 2.0, seed=13)
    expected = 2.0 * np.exp(0.07 * series.times)
    assert np.allclose(series.prices, expected, rtol=1e-12)


def test_gbm_log_returns_exactly_gaussian():
    series = simulate_gbm(0.05, 0.2, 1.0 / 252, 10 ** 5, 100.0, seed=14)
    r = series.log_returns()
    assert jarque_bera(r).pvalue > 1e-3
    drift = (0.05 - 0.5 * 0.04) / 252
    assert np.mean(r) == pytest.approx(drift, abs=5 * 0.2 / math.sqrt(252 * 10 ** 5))


def test_gbm_validation():
    with pytest.raises(DomainError):
        simulate_gbm(0.05, -0.1, 0.01, 100, 1.0, seed=0)
    with pytest.raises(DomainError):
        simulate_gbm(0.05, 0.1, 0.01, 0, 1.0, seed=0)
