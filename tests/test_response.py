"""Response families: values, derivatives, inverses, admissibility."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ratiotails import (Family, ResponseSpec, TabulatedResponse, TailKind,
                        check_admissibility, invert_monotone,
                        reciprocal_log_grid)
from ratiotails.errors import DomainError, GridError

SYM = ResponseSpec(Family.SYM)
LOG = ResponseSpec(Family.LOG)

ALL_FAMILIES = [
    SYM,
    ResponseSpec(Family.POWER, 0.5),
    ResponseSpec(Family.POWER, 1.0),
    ResponseSpec(Family.POWER, 2.0),
    ResponseSpec(Family.ODD_POWER, 3),
    ResponseSpec(Family.LOG_POWER, 3),
    LOG,
]


# ---------------------------------------------------------------------------
# point values
# ---------------------------------------------------------------------------

def test_sym_vanishes_at_balance():
    assert SYM.value(1.0) == 0.0


def test_sym_at_two():
    # 0.5 * (2 - 1/2)
    assert SYM.value(2.0) == pytest.approx(0.75, abs=1e-15)


def test_power_q2_at_two():
    # 2**2 - 2**-2
    spec = ResponseSpec(Family.POWER, 2.0)
    assert spec.value(2.0) == pytest.approx(3.75, abs=1e-15)


def test_log_at_e():
    assert LOG.value(math.e) == pytest.approx(1.0, rel=1e-15)


def test_sym_is_half_of_unit_power():
    spec = ResponseSpec(Family.POWER, 1.0)
    xs = np.geomspace(1e-3, 1e3, 41)
    assert np.allclose(2.0 * SYM.value(xs), spec.value(xs), rtol=1e-15)


@pytest.mark.parametrize("spec", ALL_FAMILIES, ids=lambda s: s.label())
def test_domain_error_on_nonpositive(spec):
    with pytest.raises(DomainError):
        spec.value(0.0)
    with pytest.raises(DomainError):
        spec.value(-1.0)
    with pytest.raises(DomainError):
        spec.deriv(-2.0)


def test_param_validation():
    with pytest.raises(DomainError):
        ResponseSpec(Family.POWER, -1.0)
    with pytest.raises(DomainError):
        ResponseSpec(Family.ODD_POWER, 2)
    with pytest.raises(DomainError):
        ResponseSpec(Family.LOG_POWER, 4)
    with pytest.raises(DomainError):
        ResponseSpec(Family.SYM, 1.0)
    with pytest.raises(DomainError):
        ResponseSpec(Family.POWER)


# ---------------------------------------------------------------------------
# derivatives
# ---------------------------------------------------------------------------

def test_sym_slope_at_one():
    # d/dx 0.5*(x - 1/x) = 0.5*(1 + 1/x^2) -> 1 at x=1
    assert SYM.deriv(1.0) == pytest.approx(1.0, abs=1e-15)


def test_log_slope_at_two():
    assert LOG.deriv(2.0) == pytest.approx(0.5, abs=1e-15)


ratios = st.floats(-8.0, 8.0).map(lambda e: 10.0 ** e)
specs = st.one_of(
    st.just(SYM), st.just(LOG),
    st.floats(0.01, 100.0).map(lambda q: ResponseSpec(Family.POWER, q)),
    st.integers(0, 49).map(lambda k: ResponseSpec(Family.ODD_POWER, 2 * k + 1)),
    st.integers(0, 49).map(lambda k: ResponseSpec(Family.LOG_POWER, 2 * k + 1)))


@settings(max_examples=500, deadline=None)
@given(specs, st.lists(ratios, min_size=1, max_size=8))
def test_log_deriv_is_log_of_deriv(spec, xs):
    # rel 1e-12 against log(deriv) wherever deriv is a normal float
    # (absolute where the log is near zero); where deriv overflows,
    # log_deriv stays finite, and where it underflows, below log(tiny)
    x = np.array(xs + [1.0])
    got = spec.log_deriv(x)
    with np.errstate(over="ignore", under="ignore"):
        d = np.asarray(spec.deriv(x))
    tiny = np.finfo(float).tiny
    normal = np.isfinite(d) & (d >= tiny)
    want = np.log(d[normal])
    assert np.all(np.abs(got[normal] - want)
                  <= 1e-12 * np.maximum(np.abs(want), 1.0))
    assert np.all(np.isfinite(got[d == np.inf]))
    assert np.all(got[d < tiny] < math.log(tiny))
    assert spec.log_deriv(float(x[0])) == got[0]


def test_power_q1_second_deriv_at_one():
    # d2/dx2 (x - 1/x) = -2 x^-3 -> -2 at x=1
    spec = ResponseSpec(Family.POWER, 1.0)
    assert spec.deriv(1.0, order=2) == pytest.approx(-2.0, abs=1e-14)


@pytest.mark.parametrize("spec", ALL_FAMILIES, ids=lambda s: s.label())
@pytest.mark.parametrize("x", [0.02, 0.31, 1.7, 9.3, 240.0])
def test_first_deriv_matches_finite_difference(spec, x):
    h = 1e-5 * x
    fd = (spec.value(x + h) - spec.value(x - h)) / (2.0 * h)
    exact = spec.deriv(x, 1)
    assert fd == pytest.approx(exact, rel=1e-6)


@pytest.mark.parametrize("spec", ALL_FAMILIES, ids=lambda s: s.label())
@pytest.mark.parametrize("x", [0.05, 0.6, 2.4, 55.0])
def test_second_deriv_matches_finite_difference(spec, x):
    h = 1e-5 * x
    fd = (spec.deriv(x + h, 1) - spec.deriv(x - h, 1)) / (2.0 * h)
    exact = spec.deriv(x, 2)
    assert fd == pytest.approx(exact, rel=1e-5, abs=1e-12)


def test_deriv_order_validation():
    with pytest.raises(DomainError):
        SYM.deriv(1.0, order=3)


# ---------------------------------------------------------------------------
# inverses
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("spec", ALL_FAMILIES, ids=lambda s: s.label())
@pytest.mark.parametrize("y", [-40.0, -2.5, -1e-4, 0.0, 1e-4, 0.3, 7.0, 250.0])
def test_closed_form_inverse_round_trip(spec, y):
    r = spec.inverse(y)
    assert r > 0
    assert spec.value(r) == pytest.approx(y, rel=1e-10, abs=1e-10)


@pytest.mark.parametrize("spec", ALL_FAMILIES, ids=lambda s: s.label())
@pytest.mark.parametrize("y", [-5.0, -0.2, 0.4, 12.0])
def test_bracketed_inverse_agrees_with_closed_form(spec, y):
    bracketed = invert_monotone(spec.value, y)
    assert bracketed == pytest.approx(spec.inverse(y), rel=1e-11)


# ---------------------------------------------------------------------------
# spec-level invariants on the standard grid
# ---------------------------------------------------------------------------

GRID = np.geomspace(1e-3, 1e3, 121)


@pytest.mark.parametrize("spec", ALL_FAMILIES, ids=lambda s: s.label())
def test_antisymmetry_bound(spec):
    g = np.asarray(spec.value(GRID))
    g_recip = np.asarray(spec.value(1.0 / GRID))
    assert np.all(np.abs(g + g_recip) <= 1e-12 * (1.0 + np.abs(g)))


@pytest.mark.parametrize("spec", ALL_FAMILIES, ids=lambda s: s.label())
def test_reciprocal_slope_identity(spec):
    h = GRID * np.asarray(spec.deriv(GRID, 1))
    h_recip = (1.0 / GRID) * np.asarray(spec.deriv(1.0 / GRID, 1))
    rel = np.abs(h - h_recip) / np.maximum(np.abs(h), 1e-300)
    assert np.max(rel) <= 1e-10


@pytest.mark.parametrize("spec", ALL_FAMILIES, ids=lambda s: s.label())
def test_log_growth_bound(spec):
    # integrated growth bound g(x) >= g'(1) log x for x > 1
    xs = GRID[GRID > 1.0]
    c = spec.deriv(1.0, 1)
    lhs = np.asarray(spec.value(xs))
    assert np.all(lhs >= c * np.log(xs) - 1e-12 * (1.0 + np.abs(lhs)))


# ---------------------------------------------------------------------------
# predicted tail classes
# ---------------------------------------------------------------------------

def test_predicted_tail_sym():
    tail = SYM.predicted_tail()
    assert tail.kind is TailKind.POWER_LAW
    assert tail.density_exponent == pytest.approx(2.0)


def test_predicted_tail_power_q3():
    tail = ResponseSpec(Family.POWER, 3.0).predicted_tail()
    assert tail.density_exponent == pytest.approx(4.0 / 3.0)


def test_predicted_tail_log():
    tail = LOG.predicted_tail()
    assert tail.kind is TailKind.EXPONENTIAL
    assert tail.rate == pytest.approx(1.0)


def test_predicted_tail_logpower_shape():
    tail = ResponseSpec(Family.LOG_POWER, 3).predicted_tail()
    assert tail.kind is TailKind.STRETCHED_EXPONENTIAL
    assert tail.shape == pytest.approx(1.0 / 3.0)


def test_predicted_tail_oddpower():
    tail = ResponseSpec(Family.ODD_POWER, 3).predicted_tail()
    assert tail.kind is TailKind.POWER_LAW
    assert tail.density_exponent == pytest.approx(4.0 / 3.0)


def test_density_exponent_decreases_toward_one():
    qs = [1.0, 2.0, 10.0, 100.0]
    exps = [ResponseSpec(Family.POWER, q).predicted_tail().density_exponent
            for q in qs]
    assert all(a > b for a, b in zip(exps, exps[1:]))
    assert all(e > 1.0 for e in exps)
    assert exps[-1] == pytest.approx(1.01, abs=1e-12)


# ---------------------------------------------------------------------------
# admissibility reports
# ---------------------------------------------------------------------------

FULL_PASS = [SYM,
             ResponseSpec(Family.POWER, 0.5),
             ResponseSpec(Family.POWER, 2.0),
             ResponseSpec(Family.ODD_POWER, 3),
             ResponseSpec(Family.LOG_POWER, 3)]


@pytest.mark.parametrize("spec", FULL_PASS, ids=lambda s: s.label())
def test_full_pass_families(spec):
    report = check_admissibility(spec)
    assert report.satisfies_all
    assert not report.grid_limited
    assert report.reciprocal_slope_identity.passed
    assert report.log_lower_bound.passed


def test_log_partial_pass():
    report = check_admissibility(LOG)
    assert report.conditions["i"].passed
    assert report.conditions["ii"].passed
    assert report.conditions["iii"].passed
    assert not report.conditions["iv"].passed
    assert not report.conditions["v"].passed
    assert report.unit_slope_product.passed
    assert not report.satisfies_all
    # every failure carries a witness point
    for key in ("iv", "v"):
        assert report.conditions[key].witnesses


def test_tabulated_shifted_line_fails_antisymmetry():
    # g(x) = x - 1 is not antisymmetric: g(1/2) = -1/2 but -g(2) = -1
    xs = np.geomspace(1.0 / 64.0, 64.0, 200)
    tab = TabulatedResponse(xs, xs - 1.0)
    grid = reciprocal_log_grid(math.log(32.0), 40)
    report = check_admissibility(tab, grid)
    cond = report.conditions["iii"]
    assert not cond.passed
    assert cond.witnesses
    assert report.grid_limited
    x0, resid = cond.witnesses[0]
    expected = abs((x0 - 1.0) + (1.0 / x0 - 1.0))
    assert resid == pytest.approx(expected, rel=1e-9)


def test_grid_must_be_reciprocal():
    with pytest.raises(GridError):
        check_admissibility(SYM, np.array([0.5, 1.0, 3.0]))


def test_grid_must_be_positive():
    with pytest.raises(DomainError):
        check_admissibility(SYM, np.array([-1.0, 1.0]))


def test_reciprocal_log_grid_is_exactly_closed():
    grid = reciprocal_log_grid(6.0, 80)
    assert np.all(np.sort(1.0 / grid) == pytest.approx(np.sort(grid), rel=1e-12))
    assert 1.0 in grid


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def test_normalized_power_has_unit_slope():
    scaled = ResponseSpec(Family.POWER, 2.0).normalized()
    assert scaled.slope_at_unity == pytest.approx(1.0, rel=1e-15)
    # raw slope is 2q = 4
    assert scaled.scale == pytest.approx(0.25, rel=1e-15)


def test_normalize_rejects_zero_slope_families():
    with pytest.raises(DomainError):
        ResponseSpec(Family.ODD_POWER, 3).normalized()
