"""Response families: values, derivatives, inverses, admissibility."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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


# the copying expressions of Family's docstring, as numpy evaluates them
COPYING = {
    Family.SYM: lambda x, q: 0.5 * (x - 1.0 / x),
    Family.POWER: lambda x, q: x ** q - x ** (-q),
    Family.ODD_POWER: lambda x, q: (x - 1.0 / x) ** int(q),
    Family.LOG_POWER: lambda x, q: np.log(x) ** int(q),
    Family.LOG: lambda x, q: np.log(x),
}

every_spec = (st.sampled_from([SYM, LOG])
              | st.floats(0.01, 8.0).map(
                  lambda q: ResponseSpec(Family.POWER, q))
              | st.sampled_from([0.5, 1.0, 2.0]).map(  # numpy's fast powers
                  lambda q: ResponseSpec(Family.POWER, q))
              | st.sampled_from([1, 3, 5, 7]).map(
                  lambda q: ResponseSpec(Family.ODD_POWER, q))
              | st.sampled_from([1, 3, 5]).map(
                  lambda q: ResponseSpec(Family.LOG_POWER, q)))


def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


@settings(max_examples=300, deadline=None)
@given(every_spec, st.lists(st.floats(1e-5, 1e5), min_size=1, max_size=200),
       st.integers(0, 3000))
def test_value_in_place_gives_the_copying_bits(spec, ratios, more):
    # over every family and q, a new array, a buffer handed over as out
    # and the ratios written over all hold the copying expression's bits,
    # SIMD loop tails included (up to 3200 ratios); only a buffer handed
    # over is written, and a float gives the float expression's bits
    x = np.concatenate([ratios, np.geomspace(1e-3, 1e3, more)])
    want = bits(COPYING[spec.family](x, spec.param))
    ratios_before = x.copy()
    assert np.array_equal(bits(spec.value(x)), want)
    buf = np.full_like(x, np.nan)
    assert spec.value(x, out=buf) is buf
    assert np.array_equal(bits(buf), want)
    assert np.array_equal(bits(x), bits(ratios_before))
    assert spec.value(x, out=x) is x
    assert np.array_equal(bits(x), want)
    r = ratios[0]
    assert bits(spec.value(r)) == bits(float(COPYING[spec.family](
        r, spec.param)))


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
def test_log_ratio_is_the_log_of_the_inverse(spec, xs):
    # L = |log r| of the ratio behind y, where inverse(y) is a normal
    # float, to 1e-12 relative; near L = 0 r rounds to 1 + O(eps) and
    # POWER's inverse divides log(r**q) by q, so the reference's own
    # error there is some 1e-16/q absolute
    x = np.array(xs + [1.0])
    with np.errstate(over="ignore", under="ignore"):
        y = np.asarray(spec.value(x))
        y = y[np.isfinite(y)]
        r = np.asarray(spec.inverse(y))
    got = spec.log_ratio(y)
    normal = np.isfinite(r) & (r >= np.finfo(float).tiny)
    want = np.abs(np.log(r[normal]))
    floor = 1e-15 / min(spec.param or 1.0, 1.0)
    assert np.all(np.abs(got[normal] - want) <= 1e-12 * want + floor)
    assert np.all(np.isfinite(got)) and np.all(got >= 0.0)
    assert np.array_equal(spec.log_ratio(-y), got)
    assert spec.log_ratio(float(y[0])) == got[0]


@pytest.mark.parametrize("spec", ALL_FAMILIES + [
    ResponseSpec(Family.POWER, 0.2), ResponseSpec(Family.ODD_POWER, 1),
    ResponseSpec(Family.LOG_POWER, 1)], ids=lambda s: s.label())
def test_log_ratio_holds_past_float_range(spec):
    # changes whose ratio is 0 or inf as a float have a finite L
    y = np.array([1e300, -1e300, np.finfo(float).max])
    with np.errstate(over="ignore", divide="ignore"):
        r = np.asarray(spec.inverse(y))
    big = spec.log_ratio(y)
    assert np.all(np.isfinite(big))
    if spec.family is Family.LOG or spec.param == 0.2:
        assert np.all((r == 0.0) | np.isinf(r))
        want = 1e300 if spec.family is Family.LOG \
            else math.asinh(5e299) / spec.param
        assert big[0] == big[1] == pytest.approx(want, rel=1e-15)


@settings(max_examples=500, deadline=None)
@given(specs, st.lists(ratios, min_size=1, max_size=8))
def test_log_ratio_slope_is_the_log_of_r_deriv(spec, xs):
    # log(r g'(r)) = log r + log g'(r) at r = x and at r = 1/x, to 1e-12
    # relative (absolute where the log is near zero) wherever deriv is a
    # normal float; where deriv overflows the slope stays finite, where it
    # underflows it is below log r + log(tiny), and at r = 1 with
    # g'(1) = 0 it is -inf.  Under ODD_POWER deriv takes x - 1/x, which cancels near
    # x = 1, so the check starts at L = 1e-3 there
    x = np.array(xs + [1.0])
    x = np.concatenate([x, 1.0 / x])
    got = spec.log_ratio_slope(np.abs(np.log(x)))
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        d = np.asarray(spec.deriv(x))
        want = np.log(x) + np.log(d)
    if spec.family is Family.ODD_POWER and spec.param > 1:
        keep = (x == 1.0) | (np.abs(np.log(x)) > 1e-3)
        got, want, d, x = got[keep], want[keep], d[keep], x[keep]
    tiny = np.finfo(float).tiny
    normal = np.isfinite(d) & (d >= tiny)
    assert np.all(np.abs(got[normal] - want[normal])
                  <= 1e-12 * np.maximum(np.abs(want[normal]), 1.0))
    assert np.all(np.isfinite(got[d == np.inf]))
    low = d < tiny
    assert np.all(got[low] < np.log(x[low]) + math.log(tiny))
    assert np.all(got[(x == 1.0) & (d == 0.0)] == -np.inf)


def test_log_ratio_slope_is_finite_past_float_range():
    big = np.array([800.0, 1e5, 1e300])
    for spec in ALL_FAMILIES + [ResponseSpec(Family.POWER, 0.2)]:
        assert np.all(np.isfinite(spec.log_ratio_slope(big)))
    # log(2 cosh L) = L + log1p(e**-2L) = L at this size
    assert SYM.log_ratio_slope(big)[1] == 1e5 - math.log(2.0)


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


def exact_log_inverse(spec, y: float) -> float:
    """log of the exact inverse at y, through asinh: finite for any float."""
    fam, q = spec.family, spec.param
    if fam is Family.SYM:
        return math.asinh(y)
    if fam is Family.POWER:
        return math.asinh(0.5 * y) / q
    if fam is Family.LOG:
        return y
    root = math.copysign(abs(y) ** (1.0 / q), y)
    return math.asinh(0.5 * root) if fam is Family.ODD_POWER else root


targets = st.one_of(
    st.floats(-50.0, 50.0),
    st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-300.0, 300.0))
    .map(lambda se: se[0] * 10.0 ** se[1]))


@settings(max_examples=500, deadline=None)
@given(specs, st.lists(targets, min_size=1, max_size=8))
@example(ResponseSpec(Family.ODD_POWER, 21), [-1e218])
def test_inverse_round_trips_for_huge_targets(spec, ys):
    # for |y| up to 1e300, wherever the exact inverse is a normal float:
    # value(inverse(y)) = y to 1e-12 |y| plus what moving x by a relative
    # 1e-13 (1 + |log x|), the cost of exp of a rounded log, moves the
    # value; and inverse(value(x)) = x to that same relative step
    y = np.array([v for v in ys if abs(exact_log_inverse(spec, v)) < 708.0])
    if y.size == 0:
        return
    x = np.asarray(spec.inverse(y))
    assert np.all((x > 0) & np.isfinite(x))
    # a scalar call gives the array entry bit for bit: a fit takes its
    # threshold ratio as a scalar and its bulk ratios as an array
    assert np.array([spec.inverse(v) for v in y]).tobytes() == x.tobytes()
    step = 1e-13 * (1.0 + np.abs(np.log(x)))
    spread = spec.value(x * (1.0 + step)) - spec.value(x * (1.0 - step))
    back = np.asarray(spec.value(x))
    assert np.all(np.abs(back - y) <= 1e-12 * np.abs(y) + spread)

    again = np.asarray(spec.inverse(back))
    assert np.all(np.abs(again - x) <= step * x)


@pytest.mark.parametrize("spec, y, want", [
    (SYM, -1e8, 5e-9),
    (SYM, -1e4, 1.0 / (1e4 + math.hypot(1e4, 1.0))),
    (ResponseSpec(Family.POWER, 1.0), 1e155, 1e155),
    (ResponseSpec(Family.ODD_POWER, 3), -1e155, 1e155 ** (-1.0 / 3.0)),
])
def test_inverse_at_large_targets(spec, y, want):
    assert spec.inverse(y) == pytest.approx(want, rel=1e-13, abs=0.0)


# ---------------------------------------------------------------------------
# spec-level invariants on the standard grid
# ---------------------------------------------------------------------------

GRID = np.geomspace(1e-3, 1e3, 121)


def draw_family_and_ratios(data, spec):
    """``spec`` or its family at a random q, and ratios x = 1 and 10**e
    with 1e-3 <= |e| <= 8, short of where the slope q x**(-q-1) would
    overflow (at q = 40.625 and x = 10**-7.375 it does, though x**-q does
    not).  |e| stays off 0 because near x = 1 the rounding of 1/x alone
    moves log(1/x) by a relative 1e-16/|log x|."""
    if spec.param is not None:
        q = (data.draw(st.floats(0.01, 100.0)) if spec.family is Family.POWER
             else 2 * data.draw(st.integers(0, 49)) + 1)
        spec = data.draw(st.sampled_from([spec, ResponseSpec(spec.family, q)]))
    grows = spec.family in (Family.POWER, Family.ODD_POWER)
    reach = min(8.0, 300.0 / (spec.param + 1.0)) if grows else 8.0
    exps = data.draw(st.lists(st.tuples(st.sampled_from([-1.0, 1.0]),
                                        st.floats(1e-3, reach)),
                              min_size=1, max_size=16))
    return spec, np.array([1.0] + [10.0 ** (sign * e) for sign, e in exps])


@pytest.mark.parametrize("spec", ALL_FAMILIES, ids=lambda s: s.label())
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_antisymmetry_bound(spec, data):
    spec, x = draw_family_and_ratios(data, spec)
    g = np.asarray(spec.value(x))
    g_recip = np.asarray(spec.value(1.0 / x))
    assert np.all(np.abs(g + g_recip) <= 1e-12 * (1.0 + np.abs(g)))


@pytest.mark.parametrize("spec", ALL_FAMILIES, ids=lambda s: s.label())
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_reciprocal_slope_identity(spec, data):
    spec, x = draw_family_and_ratios(data, spec)
    h = x * np.asarray(spec.deriv(x, 1))
    h_recip = (1.0 / x) * np.asarray(spec.deriv(1.0 / x, 1))
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
