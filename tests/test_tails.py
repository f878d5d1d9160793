"""Tail estimators against inverse-transform oracles."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ratiotails import (TailKind, classify_tail, hill, rank_regression,
                        threshold_sweep)
from ratiotails import tails
from ratiotails.tails import (stretched_loglik, stretched_scale,
                              stretched_tail_fit)
from ratiotails.errors import (DegenerateTailError, DomainError,
                               InsufficientTailError, NonpositiveSampleError)


def pareto(alpha, n, seed):
    """Survival x**-alpha on x >= 1 by inverse transform."""
    u = np.random.default_rng(seed).random(n)
    return u ** (-1.0 / alpha)


def exponential(n, seed):
    u = np.random.default_rng(seed).random(n)
    return -np.log(u)


def ratio_positive(n, seed, nu):
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


# ---------------------------------------------------------------------------
# survival-index estimator
# ---------------------------------------------------------------------------

def test_hill_on_unit_pareto():
    x = pareto(1.0, 10 ** 6, seed=1)
    est = hill(x, 10 ** 4)
    assert est.alpha == pytest.approx(1.0, abs=0.03)
    assert est.stderr == pytest.approx(est.alpha / 100.0, rel=1e-12)
    assert est.density_exponent == pytest.approx(2.0, abs=0.03)


def test_hill_on_half_pareto():
    x = pareto(0.5, 10 ** 6, seed=2)
    est = hill(x, 10 ** 4)
    assert est.alpha == pytest.approx(0.5, abs=0.015)


@pytest.mark.parametrize("k", [100, 1000, 10000])
def test_hill_consistency_across_depths(k):
    x = pareto(1.5, 10 ** 6, seed=3)
    est = hill(x, k)
    assert abs(est.alpha - 1.5) <= 5.0 * est.stderr


def test_hill_scale_invariance():
    x = pareto(1.0, 10 ** 5, seed=4)
    a = hill(x, 2000).alpha
    b = hill(1e7 * x, 2000).alpha
    c = hill(1e-4 * x, 2000).alpha
    assert abs(a - b) <= 1e-10 * a
    assert abs(a - c) <= 1e-10 * a


def test_hill_validation():
    x = pareto(1.0, 1000, seed=5)
    with pytest.raises(InsufficientTailError):
        hill(x, 5)
    with pytest.raises(InsufficientTailError):
        hill(x, 1000)
    with pytest.raises(NonpositiveSampleError):
        hill(np.concatenate([x, [-1.0]]), 50)


def test_hill_ratio_samples_match_inverse_square_law():
    # wide spreads put the top 0.1% deep inside the asymptotic zone
    r = np.abs(ratio_positive(10 ** 6, seed=6, nu=0.5))
    est = hill(r, 1000)
    assert est.alpha == pytest.approx(1.0, abs=0.1)


# ---------------------------------------------------------------------------
# rank regression
# ---------------------------------------------------------------------------

def test_rank_regression_pareto_slope():
    x = pareto(1.0, 10 ** 6, seed=7)
    reg = rank_regression(x, 0.001)
    assert reg.slope == pytest.approx(-1.0, abs=0.05)
    assert reg.stderr > 0
    assert reg.k_used == 1000


def test_rank_regression_semilog_exponential():
    x = exponential(10 ** 6, seed=8)
    reg = rank_regression(x, 0.001, log_x=False)
    assert reg.slope == pytest.approx(-1.0, abs=0.05)


def test_rank_regression_model_log_returns():
    r = ratio_positive(10 ** 6, seed=9, nu=0.38)
    reg = rank_regression(np.abs(np.log(r)), 0.001, log_x=False)
    assert reg.slope == pytest.approx(-1.0, abs=0.1)


def test_rank_regression_needs_enough_points():
    with pytest.raises(InsufficientTailError):
        rank_regression(pareto(1.0, 1000, seed=10), 0.01)
    with pytest.raises(DomainError):
        rank_regression(pareto(1.0, 1000, seed=10), 1.5)


# ---------------------------------------------------------------------------
# classifier
# ---------------------------------------------------------------------------

def test_classifier_labels_pareto_power():
    rep = classify_tail(pareto(1.0, 10 ** 6, seed=11))
    assert rep.tail.kind is TailKind.POWER_LAW
    assert rep.estimate == pytest.approx(2.0, abs=0.1)  # density exponent
    assert rep.k_used >= 10
    assert rep.loglik[TailKind.POWER_LAW] > rep.loglik[TailKind.EXPONENTIAL]


def test_classifier_labels_exponential():
    rep = classify_tail(exponential(10 ** 6, seed=12))
    assert rep.tail.kind is TailKind.EXPONENTIAL
    assert rep.estimate == pytest.approx(1.0, abs=0.1)  # decay rate


def test_classifier_stretched_candidate():
    u = np.random.default_rng(13).random(10 ** 6)
    x = (-np.log(u)) ** 2.0  # survival exp(-sqrt(x))
    rep = classify_tail(x, [TailKind.POWER_LAW, TailKind.EXPONENTIAL,
                            TailKind.STRETCHED_EXPONENTIAL])
    assert rep.tail.kind is TailKind.STRETCHED_EXPONENTIAL
    assert rep.estimate == pytest.approx(0.5, abs=0.08)


def test_classifier_separation_100_trials():
    wins = 0
    for t in range(100):
        xp = pareto(1.0, 10 ** 6, seed=1000 + t)
        xe = exponential(10 ** 6, seed=2000 + t)
        ok_p = classify_tail(xp).tail.kind is TailKind.POWER_LAW
        ok_e = classify_tail(xe).tail.kind is TailKind.EXPONENTIAL
        wins += ok_p and ok_e
    assert wins >= 99


def test_density_exponent_monotone_in_shape_parameter():
    # sharper response families push the estimated exponent toward 1
    exps = []
    for q in (1, 2, 5):
        r = ratio_positive(10 ** 6, seed=500 + q, nu=0.35)
        g = np.abs(r ** q - r ** (-q))
        rep = classify_tail(g, threshold_quantile=0.999)
        assert rep.tail.kind is TailKind.POWER_LAW
        exps.append(rep.estimate)
    assert exps[0] > exps[1] > exps[2] > 1.0


def test_classifier_sides():
    x = np.concatenate([pareto(1.0, 10 ** 5, seed=14),
                        -exponential(10 ** 5, seed=15)])
    right = classify_tail(x, side="right")
    left = classify_tail(x, side="left")
    assert right.tail.kind is TailKind.POWER_LAW
    assert left.tail.kind is TailKind.EXPONENTIAL


def test_classifier_validation():
    x = pareto(1.0, 10 ** 5, seed=16)
    with pytest.raises(DomainError):
        classify_tail(x, [TailKind.POWER_LAW])
    # every exceedance identical: no tail shape to estimate
    rng = np.random.default_rng(16)
    flat_top = np.concatenate([rng.random(99000), np.full(1000, 5.0)])
    with pytest.raises(DegenerateTailError):
        classify_tail(flat_top)
    with pytest.raises(InsufficientTailError):
        classify_tail(x[:500])
    with pytest.raises(DomainError, match="two distinct candidate"):
        classify_tail(x, [TailKind.POWER_LAW, TailKind.POWER_LAW])
    # fit_g rejects non-finite changes: the classifier rejects them too
    for bad in (math.inf, -math.inf, math.nan):
        y = x.copy()
        y[[3, 7]] = bad
        with pytest.raises(DomainError, match="non-finite samples: 2 of "
                           f"100000, the first is {bad}"):
            classify_tail(y)


def test_threshold_sweep_reports_three_quantiles():
    x = pareto(1.0, 10 ** 6, seed=17)
    sweep = threshold_sweep(x)
    assert len(sweep) == 3
    ks = [rep.k_used for rep in sweep]
    assert ks[0] > ks[1] > ks[2]
    for rep in sweep:
        assert rep.tail.kind is TailKind.POWER_LAW
        assert rep.estimate == pytest.approx(2.0, abs=0.15)


def test_report_key_values():
    rep = classify_tail(pareto(1.0, 10 ** 5, seed=18))
    kv = rep.key_values()
    assert kv["class"] == "power_law"
    assert kv["n_total"] == 10 ** 5
    assert "loglik.power_law" in kv


# ---------------------------------------------------------------------------
# stretched profile likelihood
# ---------------------------------------------------------------------------

def weibull(p, n, seed):
    """Survival exp(-x**p) by inverse transform."""
    return (-np.log(np.random.default_rng(seed).random(n))) ** (1.0 / p)


def exceedances(x, q=0.99):
    u = float(np.quantile(x, q))
    return x[x > u], u


def test_stretched_fit_is_the_likelihood_maximum():
    exc, u = exceedances(weibull(0.5, 10 ** 5, seed=21))
    _, p, _, loglik = stretched_tail_fit(exc, u)
    assert loglik == stretched_loglik(exc, u, p, stretched_scale(exc, u, p))
    # the closed-form scale is the best scale for its shape
    for shape in (0.3, p, 2.0):
        best = stretched_loglik(exc, u, shape, stretched_scale(exc, u, shape))
        for log_s in np.linspace(-8.0, 8.0, 321):
            assert stretched_loglik(exc, u, shape, log_s) <= best + 1e-12
    # and no point of a fine (p, log s) grid beats the fit
    grid_best = max(stretched_loglik(exc, u, shape, log_s)
                    for shape in np.linspace(0.2, 1.2, 101)
                    for log_s in np.linspace(-3.0, 3.0, 121))
    assert grid_best - 1e-9 <= loglik < grid_best + 1e-3


def test_stretched_stderr_matches_the_spread_of_the_estimates():
    fits = [stretched_tail_fit(*exceedances(weibull(1.0 / 3.0, 10 ** 6,
                                                    seed=300 + t)))
            for t in range(20)]
    p_hat = np.array([fit[1] for fit in fits])
    stderr = np.array([fit[2] for fit in fits])
    assert abs(p_hat.mean() - 1.0 / 3.0) <= 3.0 * stderr.mean() / math.sqrt(20)
    assert 0.7 <= stderr.mean() / p_hat.std(ddof=1) <= 1.4


@pytest.mark.parametrize("draw,bound", [
    (lambda rng: np.abs(rng.standard_cauchy(10 ** 6)), 0.02),  # too heavy
    (lambda rng: rng.random(10 ** 6), 6.0),                    # too light
], ids=["cauchy", "uniform"])
@pytest.mark.parametrize("seed", [0, 1])
def test_stretched_stderr_is_nan_at_a_shape_bound(draw, bound, seed):
    # the profile has no maximum inside [0.02, 6]: its curvature where the
    # search stops says nothing about the spread of p
    tail, p, p_err, _ = stretched_tail_fit(
        *exceedances(draw(np.random.default_rng(seed))))
    assert p == pytest.approx(bound, abs=1e-6) and tail.shape == p
    assert math.isnan(p_err)


# exceedances x = u (1 + 10**e): x/u from 1 + 1e-4 up to 1e300
@settings(max_examples=200, deadline=None)
@given(st.floats(1e-3, 1e3),
       st.lists(st.floats(-4.0, 300.0), min_size=10, max_size=200))
@example(1.0, [300.0] + [-4.0] * 9)     # one point 1e300 past the rest
@example(1e3, [-4.0] * 9 + [-3.9])      # all within 1e-4 of u
def test_stretched_fit_stays_finite_on_any_exceedances(u, log_excess):
    exc = u * (1.0 + 10.0 ** np.array(log_excess))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tail, p, p_err, loglik = stretched_tail_fit(exc, u)
    assert 0.02 <= p <= 6.0 and tail.shape == p
    assert math.isfinite(loglik)
    assert math.isnan(p_err) or 0.0 < p_err < math.inf


# ---------------------------------------------------------------------------
# order statistics
# ---------------------------------------------------------------------------

def same_float(a, b):
    """Bit for bit, any NaN matching any NaN."""
    return (math.isnan(a) and math.isnan(b)) or \
        np.float64(a).tobytes() == np.float64(b).tobytes()


# the values callers pass: |changes| and |samples| (fit_g, classify_tail,
# the bootstrap pool) and signed changes (the fit overlay); few distinct
# values make ties, which send the select down both paths.
# None is -0.0 (a change is expm1 of a log-price difference, which is
# -0.0 only from -0.0 - 0.0, and no log-price is -0.0), so x + 0.0 drops
# it: with both zeros present, which one a select puts at k is not fixed
_VALUES = st.one_of(
    st.sampled_from([0.0, 1.0, 2.0, 1e-300, 5e-324, 1e300, math.inf,
                     -1.0, -math.inf]),
    st.floats(-1e6, 1e6, allow_nan=False).map(lambda x: x + 0.0))
# the quantiles callers ask for, the ends, and any other
_QS = st.one_of(st.sampled_from([0.0, 1.0, 0.5, 0.95, 0.98, 0.99, 0.995,
                                 0.998, 0.992, 0.001, 0.999]),
                st.floats(0.0, 1.0))


@settings(max_examples=1500, deadline=None)
@given(st.lists(_VALUES, min_size=1, max_size=60), _QS)
@example([1.0], 0.3)
@example([1.0, math.inf], 1.0)
@example([0.0, math.inf], 0.0)
@example([math.inf, math.inf], 0.5)
@example([-math.inf, 1.0], 0.0)
@example([0.0, 0.0, 0.0], 1.0)
def test_quantile_is_numpys_bit_for_bit(values, q):
    a = np.array(values)
    with np.errstate(invalid="ignore"):
        want = float(np.quantile(a, q))
        for tied in (False, True):  # both selects, whatever the ties
            with mock.patch.object(tails, "_tied", lambda _, t=tied: t):
                got = tails.quantile(a, q)
            assert same_float(got, want)
    assert a.tolist() == values  # the input is left as it was


# the quantile sets callers select at once: fit_g's threshold and q95,
# the tails command's classification and sweep, a threshold below 0.95,
# and any other, repeats included
_QSETS = st.one_of(st.sampled_from([(0.998, 0.95), (0.99, 0.98, 0.99, 0.995),
                                    (0.9, 0.95), (0.95, 0.5, 0.001)]),
                   st.lists(_QS, min_size=1, max_size=5).map(tuple))


def check_quantiles(a, qs):
    """tails.quantile(a, qs) is np.quantile's at every q, bit for bit,
    down both selects, reordering only a copy unless told to overwrite,
    and then keeping a's values."""
    with np.errstate(invalid="ignore"):
        want = [float(np.quantile(a, q)) for q in qs]
    for tied in (False, True):
        for overwrite in (False, True):
            part = a.copy()
            with mock.patch.object(tails, "_tied", lambda _, t=tied: t):
                got = tails.quantile(part, qs, overwrite_input=overwrite)
            assert all(map(same_float, got, want))
            if overwrite:
                assert np.array_equal(np.sort(part), np.sort(a))
            else:
                assert np.array_equal(part, a)


@settings(max_examples=1000, deadline=None)
@given(st.lists(_VALUES, min_size=1, max_size=60), _QSETS)
@example([1.0], (0.3, 1.0))
@example([0.0, 0.0, 1.0, 1.0], (0.5, 0.5, 0.0))
@example([3.0, 1.0, 2.0], (1.0, 0.0, 0.75))
def test_quantiles_share_one_select_bit_for_bit(values, qs):
    check_quantiles(np.array(values), qs)


@settings(max_examples=40, deadline=None)
@given(st.integers(2000, 30000), st.sampled_from([None, 3, 1, 0]), _QSETS,
       st.integers(0, 2 ** 32 - 1))
def test_quantiles_of_large_samples_share_one_select(n, decimals, qs, seed):
    # large enough for numpy's vectorised select; rounding makes ties,
    # heavy ones at 0 decimals
    a = np.abs(np.random.default_rng(seed).standard_cauchy(n))
    if decimals is not None:
        a = np.round(a, decimals)
    check_quantiles(a, qs)


@pytest.mark.parametrize("n", [9999, 10 ** 5])
def test_order_statistics_of_large_tied_samples(n):
    # large enough for numpy's vectorised select, with heavy ties
    rng = np.random.default_rng(n)
    a = np.abs(np.round(rng.standard_cauchy(n), 1))
    for q in (0.0, 0.001, 0.5, 0.95, 0.998, 0.999, 1.0):
        assert same_float(tails.quantile(a, q), float(np.quantile(a, q)))


def test_heavy_ties_take_numpys_introselect():
    # numpy's single-kth select slows down on a block of ties filling
    # much of its range; _tied sees one from a strided probe
    rng = np.random.default_rng(3)
    a = np.abs(rng.standard_normal(10 ** 5))
    assert not tails._tied(a)
    a[rng.random(a.size) < 0.5] = 0.0  # the zero changes of a coarse tick
    assert tails._tied(a)
    for q in (0.001, 0.5, 0.95, 0.998):
        assert same_float(tails.quantile(a, q), float(np.quantile(a, q)))
