"""Ratio densities: exact anticorrelated branch, Hinkley's closed form
against a quadrature oracle, the Owen's-T CDF, transforms."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import ndtr
from scipy.stats import multivariate_normal, norm

from ratiotails import (CurveMethod, DensityCurve, Family, OrderFlowParams,
                        PowerMap, ResponseSpec, TransformedDensity,
                        positive_ratio_mass, ratio_cdf, ratio_cdf_anticorr,
                        ratio_density, ratio_density_anticorr,
                        tail_prediction, transform_density)
from ratiotails.response import TailKind
from ratiotails.errors import DomainError, RangeError

ANTI = OrderFlowParams(1.0, 1.0, 0.2, 0.2, -1.0)
ANTI_WIDE = OrderFlowParams(1.0, 1.0, 0.5, 0.5, -1.0)


def mc_ratio(params, n, seed):
    """Independent sampler for oracle comparisons."""
    rng = np.random.default_rng(seed)
    z1 = rng.standard_normal(n)
    z2 = rng.standard_normal(n)
    d = params.mu1 + params.sigma1 * z1
    s = params.mu2 + params.sigma2 * (params.rho * z1
                                      + math.sqrt(1 - params.rho ** 2) * z2)
    return d / s


def quad_oracle(params, x):
    """Ratio density from its defining integral f(x) = int |s| phi2(xs, s) ds.

    Adaptive quadrature over +-60 profile widths around the Gaussian
    center of the integrand, split at s = 0 where |s| kinks; the
    truncated tails are below 1e-300 of the peak.
    """
    s1, s2, rho = params.sigma1, params.sigma2, params.rho
    mu1, mu2 = params.mu1, params.mu2
    omr2 = (1.0 - rho) * (1.0 + rho)
    norm_c = 1.0 / (2.0 * math.pi * s1 * s2 * math.sqrt(omr2))

    def integrand(s):
        d = (x * s - mu1) / s1
        e = (s - mu2) / s2
        return abs(s) * norm_c * math.exp(
            -0.5 * (d * d - 2.0 * rho * d * e + e * e) / omr2)

    # the exponent is quadratic in s: 0.5*(A s^2 - 2 B s + const)
    a_coef = (x * x / (s1 * s1) - 2.0 * rho * x / (s1 * s2)
              + 1.0 / (s2 * s2)) / omr2
    b_coef = (x * mu1 / (s1 * s1) - rho * (mu1 + mu2 * x) / (s1 * s2)
              + mu2 / (s2 * s2)) / omr2
    m, w = b_coef / a_coef, 1.0 / math.sqrt(a_coef)
    lo, hi = min(0.0, m - 60.0 * w), max(0.0, m + 60.0 * w)
    pts = sorted({p for p in (0.0, m - 8.0 * w, m, m + 8.0 * w) if lo < p < hi})
    val, _ = quad(integrand, lo, hi, points=pts or None, epsabs=0.0,
                  epsrel=1e-12, limit=400)
    return val


# random correlated laws: rho in (-0.999, 0.999), means 2 to 10 spreads
# above zero, x out to |x| = 1e5
rhos = st.floats(-0.999, 0.999)
spreads = st.floats(0.2, 0.5)
means = st.floats(1.0, 2.0)
flows = st.builds(OrderFlowParams, means, means, spreads, spreads, rhos)
signed_x = st.one_of(st.floats(-5.0, 5.0),
                     st.floats(0.0, 5.0).map(lambda e: 10.0 ** e),
                     st.floats(0.0, 5.0).map(lambda e: -(10.0 ** e)))


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bad", [
    dict(mu1=0.0), dict(mu1=-1.0), dict(mu2=0.0),
    dict(sigma1=0.0), dict(sigma2=-0.5), dict(rho=1.0), dict(rho=1.5),
])
def test_params_validation(bad):
    kw = dict(mu1=1.0, mu2=1.0, sigma1=0.2, sigma2=0.2, rho=-0.5)
    kw.update(bad)
    with pytest.raises(DomainError):
        OrderFlowParams(**kw)


def test_anticorrelation_accepted():
    assert OrderFlowParams(1, 1, 1, 1, -1.0).is_anticorrelated


def test_unchecked_constructor_bypasses_validation():
    p = OrderFlowParams._unchecked(0.0, 0.0, 1.0, 1.0, 0.0)
    assert p.mu1 == 0.0


# ---------------------------------------------------------------------------
# exact anticorrelated density
# ---------------------------------------------------------------------------

def test_anticorr_unit_params_at_one():
    # amplitude 2/sqrt(2 pi), exponent 0, denominator (1+1)^2
    p = OrderFlowParams(1, 1, 1, 1, -1.0)
    expected = 2.0 / (math.sqrt(2 * math.pi) * 4.0)
    assert ratio_density_anticorr(p, 1.0) == pytest.approx(expected, rel=1e-14)
    assert expected == pytest.approx(0.1994711402, abs=1e-9)


def test_anticorr_zero_at_pole():
    p = OrderFlowParams(1, 1, 1, 1, -1.0)
    assert ratio_density_anticorr(p, -1.0) == 0.0
    # narrow spreads: pole at -sigma1/sigma2 = -1 as well
    assert ratio_density_anticorr(ANTI, -1.0) == 0.0


def test_anticorr_tight_params_at_one():
    # (0.1+0.1)/sqrt(2 pi)/0.2^2 = 5/sqrt(2 pi)
    p = OrderFlowParams(1, 1, 0.1, 0.1, -1.0)
    expected = 5.0 / math.sqrt(2 * math.pi)
    assert ratio_density_anticorr(p, 1.0) == pytest.approx(expected, rel=1e-14)
    assert expected == pytest.approx(1.9947114020, abs=1e-9)


def test_anticorr_rejects_other_rho():
    with pytest.raises(DomainError):
        ratio_density_anticorr(OrderFlowParams(1, 1, 1, 1, -0.5), 1.0)
    with pytest.raises(DomainError):
        ratio_cdf_anticorr(OrderFlowParams(1, 1, 1, 1, -0.5), 1.0)


def test_anticorr_cdf_matches_density():
    xs = np.linspace(-0.5, 4.0, 23)
    h = 1e-6
    f = ratio_density_anticorr(ANTI, xs)
    fd = (ratio_cdf_anticorr(ANTI, xs + h)
          - ratio_cdf_anticorr(ANTI, xs - h)) / (2 * h)
    # differencing the CDF loses all precision where the density is tiny
    m = f > 1e-4
    assert m.sum() >= 15
    assert np.allclose(fd[m], f[m], rtol=1e-6)


def test_anticorr_cdf_limits_and_pole_mass():
    assert ratio_cdf_anticorr(ANTI, -1e9) == pytest.approx(0.0, abs=1e-12)
    assert ratio_cdf_anticorr(ANTI, 1e9) == pytest.approx(1.0, abs=1e-12)
    # all supply-negative mass sits below the pole
    below_pole = ratio_cdf_anticorr(ANTI, -1.0)
    assert below_pole == pytest.approx(1.0 - norm.cdf(5.0), rel=1e-9)


def test_anticorr_histogram_matches_density():
    # lighter version of the exact-reproduction gate (full size in acceptance)
    n = 10 ** 6
    r = mc_ratio(ANTI, n, seed=101)
    edges = np.linspace(-1.0, 5.0, 301)
    counts, _ = np.histogram(r, bins=edges)
    emp = counts / n
    model = np.diff(ratio_cdf_anticorr(ANTI, edges))
    out_emp = 1.0 - emp.sum()
    out_model = 1.0 - model.sum()
    l1 = np.abs(emp - model).sum() + abs(out_emp - out_model)
    assert l1 <= 0.03


# ---------------------------------------------------------------------------
# general-correlation branch: Hinkley's density, Owen's-T CDF
# ---------------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(flows, signed_x)
def test_closed_form_matches_quadrature_oracle(params, x):
    ref = quad_oracle(params, x)
    got = ratio_density(params, x)
    if ref > 1e-250:
        assert abs(got - ref) <= 1e-9 * ref
    else:  # both underflow-level: no relative digits to compare
        assert got <= 1e-240


@settings(max_examples=150, deadline=None)
@given(flows, st.lists(signed_x, min_size=2, max_size=40))
def test_cdf_is_monotone(params, xs):
    # nondecreasing up to the rounding of values near one
    cdf = ratio_cdf(params, np.sort(np.array(xs)))
    assert np.all((cdf >= 0.0) & (cdf <= 1.0))
    assert np.all(np.diff(cdf) >= -4.0 * np.finfo(float).eps)


@settings(max_examples=200, deadline=None)
@given(flows, signed_x)
def test_cdf_central_difference_matches_density(params, x):
    h = 1e-6 * max(1.0, abs(x))
    fd = (ratio_cdf(params, x + h) - ratio_cdf(params, x - h)) / (2.0 * h)
    f = ratio_density(params, x)
    # the difference quotient carries ~1e-16/h of CDF rounding
    assert abs(fd - f) <= 1e-6 * f + 1e-15 / h


@settings(max_examples=100, deadline=None)
@given(flows)
def test_positive_mass_is_the_orthant_pair(params):
    assert positive_ratio_mass(params) == 1.0 - ratio_cdf(params, 0.0)
    # P(D>0, S>0) + P(D<0, S<0) with scipy's bivariate normal
    m1, m2, rho = (params.mu1 / params.sigma1, params.mu2 / params.sigma2,
                   params.rho)
    both_negative = multivariate_normal(
        [0.0, 0.0], [[1.0, rho], [rho, 1.0]]).cdf([-m1, -m2])
    reference = 1.0 - ndtr(-m1) - ndtr(-m2) + 2.0 * both_negative
    assert positive_ratio_mass(params) == pytest.approx(reference, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(flows)
def test_cdf_at_the_mode(params):
    # x = mu1/mu2 puts D - xS at zero mean: both one-sided limits must agree
    mode = params.mu1 / params.mu2
    below = ratio_cdf(params, np.nextafter(mode, -np.inf))
    at = ratio_cdf(params, mode)
    above = ratio_cdf(params, np.nextafter(mode, np.inf))
    assert below - 1e-15 <= at <= above + 1e-15
    # and the mass between 0 and the mode is the integral of the density
    mass, _ = quad(lambda t: ratio_density(params, t), 0.0, mode,
                   epsabs=0.0, epsrel=1e-12, limit=200)
    assert at - ratio_cdf(params, 0.0) == pytest.approx(mass, rel=1e-9)


@settings(max_examples=100, deadline=None)
@given(flows)
def test_cdf_in_the_far_tails(params):
    # at |x| = 1e12 the tails are f ~ C/x^2, so the tail masses are |x| f
    big = 1e12
    left, right = ratio_cdf(params, -big), ratio_cdf(params, big)
    assert np.isfinite(left) and np.isfinite(right)
    for tail, x in ((left, -big), (1.0 - right, big)):
        expected = big * ratio_density(params, x)
        assert abs(tail - expected) <= 1e-2 * expected + 1e-15


def test_cdf_takes_the_exact_law_at_anticorrelation():
    xs = np.array([-np.inf, -3.0, -1.0, 0.0, 0.7, 1.0, 2.5, np.inf])
    assert np.array_equal(ratio_cdf(ANTI, xs), ratio_cdf_anticorr(ANTI, xs))
    assert ratio_cdf(ANTI, 1.0) == ratio_cdf_anticorr(ANTI, 1.0)


def test_cauchy_special_case():
    # ratio of independent standard normals is standard Cauchy
    p = OrderFlowParams._unchecked(0.0, 0.0, 1.0, 1.0, 0.0)
    assert ratio_density(p, 0.0) == pytest.approx(1.0 / math.pi, rel=1e-10)
    assert ratio_density(p, 1.0) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-10)


def test_density_takes_the_exact_law_at_anticorrelation():
    xs = np.array([-np.inf, -3.0, -1.0, 0.0, 0.7, 1.0, 2.5, np.inf])
    assert np.array_equal(ratio_density(ANTI, xs),
                          ratio_density_anticorr(ANTI, xs))
    assert ratio_density(ANTI, 1.0) == ratio_density_anticorr(ANTI, 1.0)


def test_quadrature_matches_monte_carlo_at_peak():
    params = OrderFlowParams(1.0, 1.0, 0.2, 0.2, -0.5)
    n = 2 * 10 ** 6
    r = mc_ratio(params, n, seed=7)
    h = 0.005
    est = np.mean(np.abs(r - 1.0) < h) / (2 * h)
    se = math.sqrt(est / (2 * h) / n)
    v = ratio_density(params, 1.0)
    assert abs(v - est) <= 4.0 * se + 1e-4  # small allowance for bin curvature


def test_quadrature_matches_anticorr_limit():
    # rho -> -1 approaches the closed form
    near = OrderFlowParams(1.0, 1.0, 0.2, 0.2, -0.9999999)
    for x in (0.5, 1.0, 2.0):
        assert ratio_density(near, x) == pytest.approx(
            ratio_density_anticorr(ANTI, x), rel=1e-3)


def test_inverse_square_plateau():
    # x^2 f(x) settles to a positive constant (checked pairwise within 10%)
    params = OrderFlowParams(1.0, 1.0, 0.5, 0.5, 0.0)
    vals = [x * x * ratio_density(params, x) for x in (1e2, 1e3, 1e4)]
    assert all(v > 0 for v in vals)
    for a, b in zip(vals, vals[1:]):
        assert abs(a - b) / b <= 0.10


def test_normalization_window():
    # integrated mass over [-L, L], L = mean ratio + 50 spreads
    params = OrderFlowParams(1.0, 1.0, 0.2, 0.2, -0.5)
    spread = (params.sigma1 / params.mu2
              + params.sigma2 * params.mu1 / params.mu2 ** 2)
    L = params.mu1 / params.mu2 + 50.0 * spread
    mass, _ = quad(lambda x: ratio_density(params, x), -L, L, limit=400)
    assert 0.999 <= mass <= 1.0 + 1e-6


def test_positive_ratio_mass_anticorr_closed_form():
    assert positive_ratio_mass(ANTI) == pytest.approx(
        norm.cdf(5.0) - norm.cdf(-5.0), rel=1e-12)


@settings(max_examples=500, deadline=None)
@given(*[st.floats(-2.0, 1.0).map(lambda e: 10.0 ** e)] * 4)
@example(1.0, 1.0, 10 ** 0.00390625, 10 ** 0.00390625)
def test_positive_ratio_mass_anticorr_agrees_with_ndtr(mu1, mu2, sigma1, sigma2):
    # within 2 ulp of the larger normal CDF of the difference, both CDFs
    # taken at 50 digits: the float difference of two ndtr values is
    # itself up to ~2.3 ulp off (the @example point)
    got = positive_ratio_mass(OrderFlowParams(mu1, mu2, sigma1, sigma2, -1.0))
    with mpmath.workdps(50):
        upper = mpmath.ncdf(mpmath.mpf(mu2) / sigma2)
        want = float(upper - mpmath.ncdf(-mpmath.mpf(mu1) / sigma1))
    assert abs(got - want) <= 2.0 * math.ulp(float(upper))


def test_positive_ratio_mass_anticorr_for_small_means():
    # P(-a < Z < a) = 2 a phi(0) (1 - a^2/6 + ...): the erf sum keeps
    # full precision where the difference of normal CDFs cancels
    a = 1e-6
    params = OrderFlowParams(a, a, 1.0, 1.0, -1.0)
    want = 2.0 * a / math.sqrt(2.0 * math.pi) * (1.0 - a * a / 6.0)
    assert positive_ratio_mass(params) == pytest.approx(want, rel=1e-15)


def test_positive_ratio_mass_general():
    params = OrderFlowParams(1.0, 1.0, 0.5, 0.5, 0.0)
    r = mc_ratio(params, 10 ** 6, seed=31)
    assert positive_ratio_mass(params) == pytest.approx(
        np.mean(r > 0), abs=4e-3)


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def test_log_transform_identity():
    # density of log R is exp(x) f(exp(x)) over the positive-ratio mass
    base = lambda t: ratio_density_anticorr(ANTI_WIDE, t)
    pos = positive_ratio_mass(ANTI_WIDE)
    spec = ResponseSpec(Family.LOG)
    for x in (-1.0, 0.0, 0.7, 2.0, 4.0):
        expected = math.exp(x) * base(math.exp(x)) / pos
        got = transform_density(base, spec, x, positive_mass=pos)
        assert got == pytest.approx(expected, rel=1e-9)


def test_power_map_closed_form():
    base = lambda t: ratio_density_anticorr(ANTI_WIDE, t)
    pos = positive_ratio_mass(ANTI_WIDE)
    q = 2.0
    for x in (0.25, 1.0, 3.0, 50.0):
        expected = base(x ** (1 / q)) * (1 / q) * x ** (1 / q - 1) / pos
        got = transform_density(base, PowerMap(q), x, positive_mass=pos)
        assert got == pytest.approx(expected, rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.floats(0.1, 10.0), st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e))
def test_power_map_inverse_and_derivative(q, r):
    pm = PowerMap(q)
    assert pm.inverse(pm.value(r)) == pytest.approx(r, rel=1e-12)
    h = 1e-6 * r
    fd = (pm.value(r + h) - pm.value(r - h)) / (2.0 * h)
    assert pm.deriv(r) == pytest.approx(fd, rel=1e-6)


def test_power_map_rejects_nonpositive_argument():
    base = lambda t: ratio_density_anticorr(ANTI_WIDE, t)
    with pytest.raises(RangeError):
        transform_density(base, PowerMap(2.0), -1.0, positive_mass=0.95)


def test_sym_transform_symmetric_at_zero():
    density = TransformedDensity(ANTI_WIDE, ResponseSpec(Family.SYM))
    assert density(0.0) > 0
    for x in (0.3, 1.1, 2.7):
        assert density(x) == pytest.approx(density(-x), rel=1e-8)


def test_transform_outside_tabulated_range():
    from ratiotails import TabulatedResponse
    xs = np.geomspace(0.25, 4.0, 60)
    tab = TabulatedResponse(xs, np.log(xs))
    base = lambda t: ratio_density_anticorr(ANTI_WIDE, t)
    with pytest.raises(RangeError):
        transform_density(base, tab, 10.0, positive_mass=0.95)


def _model_transform_cdf(params, spec, y):
    """Independent CDF oracle: P(g(R) <= y | R > 0) via the exact ratio CDF."""
    r = spec.inverse(y)
    lo = ratio_cdf_anticorr(params, 0.0)
    return (ratio_cdf_anticorr(params, r) - lo) / (1.0 - lo)


@pytest.mark.parametrize("spec", [
    ResponseSpec(Family.SYM),
    ResponseSpec(Family.POWER, 2.0),
    ResponseSpec(Family.ODD_POWER, 3),
    ResponseSpec(Family.LOG),
    ResponseSpec(Family.LOG_POWER, 3),
], ids=lambda s: s.label())
def test_transform_density_consistent_with_cdf_oracle(spec):
    # d/dy of the CDF oracle must reproduce transform_density
    density = TransformedDensity(ANTI_WIDE, spec)
    for y in (-2.0, -0.4, 0.3, 1.8):
        h = 1e-5 * max(abs(y), 1.0)
        fd = (_model_transform_cdf(ANTI_WIDE, spec, y + h)
              - _model_transform_cdf(ANTI_WIDE, spec, y - h)) / (2 * h)
        assert density(y) == pytest.approx(fd, rel=1e-5)


@pytest.mark.parametrize("spec", [
    ResponseSpec(Family.SYM),
    ResponseSpec(Family.POWER, 2.0),
    ResponseSpec(Family.ODD_POWER, 3),
    ResponseSpec(Family.LOG),
    ResponseSpec(Family.LOG_POWER, 3),
], ids=lambda s: s.label())
def test_transform_law_matches_monte_carlo(spec):
    # empirical law of g(R) conditioned on R > 0 vs the model CDF, L1 <= 0.02
    n = 10 ** 6
    r = mc_ratio(ANTI_WIDE, n, seed=53)
    r = r[r > 0]
    g = np.asarray(spec.value(r))
    lo, hi = np.quantile(g, [0.005, 0.995])
    edges = np.linspace(lo, hi, 101)
    counts, _ = np.histogram(g, bins=edges)
    emp = counts / len(g)
    model = np.diff([_model_transform_cdf(ANTI_WIDE, spec, e) for e in edges])
    out_emp = 1.0 - emp.sum()
    out_model = 1.0 - model.sum()
    l1 = np.abs(emp - model).sum() + abs(out_emp - out_model)
    assert l1 <= 0.02


# ---------------------------------------------------------------------------
# curve-level tail diagnostics
# ---------------------------------------------------------------------------

def test_power_tail_slope_in_asymptotic_window():
    # exact branch at the canonical tight spreads, deep window
    fn = lambda x: ratio_density_anticorr(ANTI, x)
    grid = np.geomspace(1e4, 1e6, 41)
    curve = DensityCurve.from_function(fn, grid, CurveMethod.EXACT_ANTICORR)
    slope = curve.loglog_tail_slope(1e4, 1e6)
    assert slope == pytest.approx(-2.0, abs=0.05)


def test_power_tail_slope_wide_spreads():
    # with wider spreads the inverse-square window starts by x ~ 1e2
    fn = lambda x: ratio_density_anticorr(ANTI_WIDE, x)
    grid = np.geomspace(1e2, 1e4, 41)
    curve = DensityCurve.from_function(fn, grid, CurveMethod.EXACT_ANTICORR)
    slope = curve.loglog_tail_slope(1e2, 1e4)
    assert slope == pytest.approx(-2.0, abs=0.05)


def test_log_transform_tail_slope():
    density = TransformedDensity(ANTI_WIDE, ResponseSpec(Family.LOG))
    grid = np.linspace(5.0, 12.0, 29)
    curve = DensityCurve.from_function(density, grid, CurveMethod.QUADRATURE)
    slope = curve.semilog_tail_slope(5.0, 12.0)
    assert slope == pytest.approx(-1.0, abs=0.05)


# ---------------------------------------------------------------------------
# tail predictions with prefactor
# ---------------------------------------------------------------------------

# the rho = -1 law (1, 1, 0.5, 0.5): x^2 f_R(x) -> 4 phi(2) = f_R(0), and
# P(R > 0) = P(-2 < Z < 2); sym and power(q=2) both divide by k P = 2 P
ANTI_WIDE_PREFACTOR = 2.0 * norm.pdf(2.0) / math.erf(math.sqrt(2.0))


def test_tail_prediction_sym():
    pred = tail_prediction(ANTI_WIDE, ResponseSpec(Family.SYM))
    assert pred.tail.kind is TailKind.POWER_LAW
    assert pred.tail.density_exponent == pytest.approx(2.0)
    assert pred.prefactor == pytest.approx(ANTI_WIDE_PREFACTOR, rel=1e-14)
    assert pred.left_prefactor == pytest.approx(ANTI_WIDE_PREFACTOR, rel=1e-14)


def test_tail_prediction_power_q2():
    pred = tail_prediction(ANTI_WIDE, ResponseSpec(Family.POWER, 2.0))
    assert pred.tail.density_exponent == pytest.approx(1.5)
    assert pred.prefactor == pytest.approx(ANTI_WIDE_PREFACTOR, rel=1e-14)
    assert pred.left_prefactor == pytest.approx(ANTI_WIDE_PREFACTOR, rel=1e-14)


def test_tail_prediction_logpower():
    pred = tail_prediction(ANTI_WIDE, ResponseSpec(Family.LOG_POWER, 3))
    assert pred.tail.kind is TailKind.STRETCHED_EXPONENTIAL
    assert pred.tail.shape == pytest.approx(1.0 / 3.0)


def limit_and_slope(mu_a, sigma_a, mu_b, sigma_b, rho):
    """(G(0), G'(0) / G(0)) for G(e) = int |u| phi2(u, e u) du over the
    normal pair (A, B): G(1/x) = x^2 f_R(x) for (A, B) = (D, S), and
    G(r) = f_R(r) for (A, B) = (S, D).

    Given B = 0, A is normal with mean m and spread v.  The slope is the
    e-derivative of phi_B(e u) phi_{A|B}(u | e u) at e = 0,
    mu_b / sigma_b^2 E[A |A|] / E|A| + 2 rho sigma_a / sigma_b, where
    Stein's identity E[h(A) (A - m)] = v^2 E[h'(A)] gives the second term.
    """
    z = mu_b / sigma_b
    m = mu_a - rho * sigma_a * z
    v = sigma_a * math.sqrt((1.0 - rho) * (1.0 + rho))
    if v == 0.0:
        e_abs, e_a_abs = abs(m), m * abs(m)
    else:
        t = m / v
        e_abs = 2.0 * v * norm.pdf(t) + m * (2.0 * norm.cdf(t) - 1.0)
        e_a_abs = ((m * m + v * v) * (2.0 * norm.cdf(t) - 1.0)
                   + 2.0 * m * v * norm.pdf(t))
    return (norm.pdf(z) / sigma_b * e_abs,
            mu_b / sigma_b ** 2 * e_a_abs / e_abs + 2.0 * rho * sigma_a / sigma_b)


def law_slopes(params):
    """The relative O(1/x) slope of x^2 f_R(x) and the O(r) one of f_R(r)."""
    p = params
    return (limit_and_slope(p.mu1, p.sigma1, p.mu2, p.sigma2, p.rho)[1],
            limit_and_slope(p.mu2, p.sigma2, p.mu1, p.sigma1, p.rho)[1])


law_means = st.floats(0.5, 2.0)
law_spreads = st.floats(0.1, 1.0)
laws = st.builds(OrderFlowParams, law_means, law_means, law_spreads,
                 law_spreads, st.one_of(st.just(-1.0), st.floats(-1.0, 0.95)))
# the largest slope on this domain, (mu2 / sigma2^2)(mu1 + sigma1 mu2 /
# sigma2) - 2 sigma1 / sigma2 = 4380, and a law whose slope crosses zero
STEEPEST = OrderFlowParams(2.0, 2.0, 1.0, 0.1, -1.0)
FLAT = OrderFlowParams(0.5, 0.5, 1.0 / 7.0, 1.0, -1.0)
# ulps lost in exp(-h^2 / 2) at h up to mu / sigma = 20, with room
ROUNDING = 1e-12


@settings(max_examples=300, deadline=None)
@given(laws)
@example(STEEPEST)
@example(FLAT)
def test_tail_constants_are_the_ratio_laws_limits(params):
    mass = positive_ratio_mass(params)
    pred = tail_prediction(params, ResponseSpec(Family.LOG))  # k = 1
    right, left = pred.prefactor * mass, pred.left_prefactor * mass
    p = params
    assert right == pytest.approx(
        limit_and_slope(p.mu1, p.sigma1, p.mu2, p.sigma2, p.rho)[0],
        rel=ROUNDING)
    assert ratio_density(params, 0.0) == pytest.approx(left, rel=ROUNDING)
    slope, _ = law_slopes(params)
    for x in (1e12, -1e12):
        # x^2 f_R(x) = C (1 + slope / x + O(x^-2)); the O(x^-2) term is
        # below 1e-16 here, so the next term bounds the gap
        gap = x * x * ratio_density(params, x) / right - 1.0
        assert abs(gap) <= abs(slope) / 1e12 + ROUNDING


def decay(tail, y):
    """The tail class's decay at |y|, without its prefactor."""
    a = abs(y)
    if tail.kind is TailKind.POWER_LAW:
        return a ** -tail.density_exponent
    if tail.kind is TailKind.EXPONENTIAL:
        return math.exp(-tail.rate * a)
    return a ** (tail.shape - 1.0) * math.exp(-a ** tail.shape)


def transform_next_term(spec, r):
    """Leading relative term that g adds to the compensated density at
    ratio r >> 1 (or 1/r): with w = r^-2q for power and r^-2 for sym and
    oddpower, the factor is (1 - w)^(1 + 1/q) / (1 + w), or
    (1 - w)^2 / (1 + w); log and logpower add none."""
    if spec.family is Family.POWER:
        return (2.0 + 1.0 / spec.param) * r ** (-2.0 * spec.param)
    if spec.family in (Family.SYM, Family.ODD_POWER):
        return 3.0 * r ** -2.0
    return 0.0


families = st.one_of(
    st.just(ResponseSpec(Family.SYM)), st.just(ResponseSpec(Family.LOG)),
    st.floats(0.3, 3.0).map(lambda q: ResponseSpec(Family.POWER, q)),
    st.sampled_from([1, 3, 5]).map(lambda q: ResponseSpec(Family.ODD_POWER, q)),
    st.sampled_from([1, 3, 5]).map(lambda q: ResponseSpec(Family.LOG_POWER, q)))


@settings(max_examples=300, deadline=None)
@given(laws, families)
@example(STEEPEST, ResponseSpec(Family.POWER, 0.3))
@example(FLAT, ResponseSpec(Family.SYM))
def test_tail_prediction_is_the_compensated_density_limit(params, spec):
    pred = tail_prediction(params, spec)
    density = TransformedDensity(params, spec)
    r = 1e8
    right_slope, left_slope = law_slopes(params)
    for ratio, want, slope in ((r, pred.prefactor, right_slope),
                               (1.0 / r, pred.left_prefactor, left_slope)):
        y = spec.value(ratio)
        got = density(y) / decay(pred.tail, y)
        # the law's and the transform's next terms, doubled for the
        # higher orders: they are O(r^-2), below ROUNDING or below the
        # leading terms by a factor of their own size
        tol = 2.0 * (abs(slope) / r + transform_next_term(spec, r)) + ROUNDING
        assert got == pytest.approx(want, rel=tol)


@pytest.mark.parametrize("params", [OrderFlowParams(1, 1, 0.5, 0.5, -0.5),
                                    ANTI_WIDE], ids=["rho=-0.5", "rho=-1"])
def test_tail_prediction_evaluates_no_density(params, monkeypatch):
    from ratiotails import density as density_module

    def refuse(*args, **kwargs):
        raise AssertionError("tail_prediction evaluated a density")

    for name in ("ratio_density", "ratio_density_anticorr",
                 "transform_density"):
        monkeypatch.setattr(density_module, name, refuse)
    for spec in (ResponseSpec(Family.SYM), ResponseSpec(Family.LOG),
                 ResponseSpec(Family.LOG_POWER, 3)):
        assert tail_prediction(params, spec).prefactor > 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=50, deadline=None)
@given(flows, signed_x)
def test_limits_at_infinity(params, x):
    # inf/inf in the standardized units must not leak out as NaN
    xs = np.array([-np.inf, x, np.inf])
    assert ratio_density(params, np.inf) == ratio_density(params, -np.inf) == 0.0
    assert ratio_cdf(params, -np.inf) == 0.0
    assert ratio_cdf(params, np.inf) == 1.0
    dens, cdf = ratio_density(params, xs), ratio_cdf(params, xs)
    assert dens[0] == dens[2] == cdf[0] == 0.0 and cdf[2] == 1.0
    assert dens[1] == pytest.approx(ratio_density(params, x), rel=1e-14)
    assert cdf[1] == pytest.approx(ratio_cdf(params, x), rel=1e-14)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=50, deadline=None)
@given(means, means, spreads, spreads, signed_x)
def test_anticorr_limits_at_infinity(mu1, mu2, sigma1, sigma2, x):
    # the rho = -1 twin: sigma2 x + sigma1 is inf there, so u = inf/inf
    params = OrderFlowParams(mu1, mu2, sigma1, sigma2, -1.0)
    xs = np.array([-np.inf, x, np.inf])
    assert (ratio_density_anticorr(params, np.inf)
            == ratio_density_anticorr(params, -np.inf) == 0.0)
    assert ratio_cdf_anticorr(params, -np.inf) == 0.0
    assert ratio_cdf_anticorr(params, np.inf) == 1.0
    dens = ratio_density_anticorr(params, xs)
    cdf = ratio_cdf_anticorr(params, xs)
    assert dens[0] == dens[2] == cdf[0] == 0.0 and cdf[2] == 1.0
    assert dens[1] == pytest.approx(ratio_density_anticorr(params, x),
                                    rel=1e-14)
    assert cdf[1] == pytest.approx(ratio_cdf_anticorr(params, x), rel=1e-14)


_MAGNITUDES = np.geomspace(1e-300, 1e300, 601)
HYPOT_GRID = np.concatenate([[-np.inf], -_MAGNITUDES[::-1], [0.0],
                             _MAGNITUDES, [np.inf]])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rho", [-0.99, -0.5, 0.0, 0.7, 0.99])
def test_standardized_spread_matches_hypot(rho, monkeypatch):
    # a = sqrt((t - rho)^2 + s^2) without np.hypot: within an ulp or two
    # of it, and exactly |t - rho| where the square overflows; the law
    # moves by rounding only, and its zeros stay zeros
    from ratiotails import density as density_module

    params = OrderFlowParams(1.0, 1.5, 0.4, 0.5, rho)
    standardized = density_module._standardized
    s, _, _, a, _, _ = standardized(params, HYPOT_GRID)
    t = density_module._finite(HYPOT_GRID) * (params.sigma2 / params.sigma1)
    with np.errstate(over="ignore"):
        far = np.isinf((t - rho) ** 2)
    assert far.sum() > 100
    assert np.array_equal(a[far], np.abs(t - rho)[far])
    np.testing.assert_allclose(a, np.hypot(t - rho, s), rtol=5e-16, atol=0)

    def with_hypot(params, x):
        s, m1, m2, _, _, b = standardized(params, x)
        t = density_module._finite(x) * (params.sigma2 / params.sigma1)
        a = np.hypot(t - params.rho, s)
        return s, m1, m2, a, (m2 * t - m1) / a, b

    pdf, cdf = ratio_density(params, HYPOT_GRID), ratio_cdf(params, HYPOT_GRID)
    monkeypatch.setattr(density_module, "_standardized", with_hypot)
    ref_pdf = ratio_density(params, HYPOT_GRID)
    ref_cdf = ratio_cdf(params, HYPOT_GRID)
    assert (ref_pdf == 0.0).sum() > 100
    np.testing.assert_allclose(pdf, ref_pdf, rtol=1e-12, atol=0)  # 0 stays 0
    np.testing.assert_allclose(cdf, ref_cdf, rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# DensityCurve container
# ---------------------------------------------------------------------------

def test_curve_mass_and_validation():
    grid = np.linspace(-6, 6, 1001)
    vals = np.exp(-0.5 * grid ** 2) / math.sqrt(2 * math.pi)
    curve = DensityCurve(grid, vals, CurveMethod.QUADRATURE)
    assert curve.mass == pytest.approx(1.0, abs=1e-6)
    assert curve.check_mass()
    with pytest.raises(DomainError):
        DensityCurve(grid[::-1], vals, CurveMethod.QUADRATURE)
    with pytest.raises(DomainError):
        DensityCurve(grid, -vals, CurveMethod.QUADRATURE)
    for bad_grid, bad_vals in ((np.where(grid > 5, np.nan, grid), vals),
                               (grid, np.where(grid > 5, np.nan, vals))):
        with pytest.raises(DomainError):
            DensityCurve(bad_grid, bad_vals, CurveMethod.QUADRATURE)


@pytest.mark.parametrize("fn", [
    lambda x: ratio_density(OrderFlowParams(1, 1, 0.2, 0.2, -0.5), x),
    lambda x: ratio_density_anticorr(ANTI, x),
    TransformedDensity(OrderFlowParams(1, 1, 0.5, 0.5, -0.5),
                       ResponseSpec(Family.POWER, 2.0)),
], ids=["hinkley", "anticorr", "transformed"])
def test_curve_from_function_is_one_vectorized_call(fn):
    grid = np.linspace(-1.0, 5.0, 401)
    if isinstance(fn, TransformedDensity):
        grid = np.linspace(-3.0, 3.0, 401)
    shapes = []

    def counted(x):
        shapes.append(np.shape(x))
        return fn(x)

    curve = DensityCurve.from_function(counted, grid, CurveMethod.EXACT)
    assert shapes == [grid.shape]
    loop = np.array([float(fn(x)) for x in grid])
    np.testing.assert_allclose(curve.values, loop, rtol=1e-14, atol=0.0)


def test_curve_from_samples():
    rng = np.random.default_rng(5)
    curve = DensityCurve.from_samples(rng.standard_normal(200000), bins=100,
                                      range_=(-5, 5))
    assert curve.method is CurveMethod.EMPIRICAL
    assert curve.mass == pytest.approx(1.0, abs=0.01)
