"""Recover the response family from an observed price series.

The pipeline approximates the log-price velocity by scaled forward
differences (P(s+dt) - P(s)) / (P(s) * dt) collected over sliding
windows, then fits candidate response families to the distribution of
those changes.  Fitting is two-stage: the family's shape parameter comes
from the exceedance tail by maximum likelihood, while the order-flow
nuisance (a symmetric coefficient of variation plus an output scale
absorbing the adjustment time constant) is fitted by conditional
likelihood on the bulk.  One law scores every correlation, in t-space:
T = (R - 1)/(R + 1) = A/B, a ratio of independent normals, has the
closed-form density f_T (``_log_f_t``) and masses (``_t_mass``), and
each family's |log r| and log(r g'(r)) come in closed form from the
change, with no ratio formed, so a point whose ratio leaves float range
scores its density.  One pass at a scale gives the score for every
spread (``_profile``).  rho = -1 is the case b = 0 of that law, T = nu Z,
where the pass keeps only the sum of t^2 and no scipy loads; the search
is a bounded Brent over log-scale, bracketed by the 0.95 |change|
quantile, around a bounded Brent over the spread at each scale (a port
of scipy's bounded Brent).  Any other rho polishes that optimum with a
damped Newton method of the package's own (``_newton_polish``) on the
exact spread derivatives of f_T and its masses, in some 10-35
evaluations, the one step that loads scipy (scipy.special).  At every
rho each candidate's tail stage and search run on their own thread, up
to the usable CPUs.  The searches run on a ~30k-point subsample of the
bulk; each winner is then scored on the full bulk, whose fixed 65 536-
point chunks map over the usable CPUs.  The result does not depend on
how many CPUs there are.  Families are then ranked by a composite
average log-likelihood over bulk and tail, and near-ties go to the
family with fewer parameters or are reported as non-identifiable.  The
threshold and the 0.95 quantile are ``tails.quantile``'s: np.quantile's,
bit for bit, from one select.

All reported response shapes are identified only up to the time-constant
scale, which no price series can pin down by itself.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .density import ratio_density  # noqa: F401 (perfbench traces it here)
from .errors import (DomainError, InsufficientTailError, NonIdentifiableError,
                     TimestampError, WindowError)
from .parallel import thread_map
from .response import Family, ResponseSpec, TailClass
from .simulate import PriceSeries
from .tails import (MIN_TAIL_POINTS, _bounded_brent, _interior, _select,
                    check_return_interval, exponential_fit, interpolate,
                    pareto_index, pareto_loglik, quantile,
                    stretched_loglik, stretched_scale)

__all__ = [
    "WindowSpec",
    "relative_changes",
    "scaled_returns",
    "FitResult",
    "check_fit_options",
    "fit_g",
    "fit_price_series",
    "exponent_report",
]

_SQRT_2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_LL_FLOOR = math.log(5e-324)  # density below float-min scores as float-min
_TIE_MARGIN = 1e-4            # per-point score margin for identifiability
_PARAM_COUNT = {Family.SYM: 0, Family.LOG: 0, Family.POWER: 1,
                Family.ODD_POWER: 1, Family.LOG_POWER: 1}
_ODD_SCAN = (1, 3, 5, 7, 9)


@dataclass(frozen=True)
class WindowSpec:
    """Sampling scale delta_t, window length big_delta_t, window stride.

    The sampling scale must be well separated from the window:
    delta_t <= big_delta_t / 10.
    """

    delta_t: float
    big_delta_t: float
    stride: float

    def __post_init__(self):
        if not all(0.0 < v < math.inf for v in vars(self).values()):
            raise WindowError(f"window scales must be positive and finite: {self}")
        if self.delta_t > self.big_delta_t / 10.0:
            raise WindowError(
                f"delta_t={self.delta_t:g} must be at most big_delta_t/10="
                f"{self.big_delta_t / 10.0:g}")


# ---------------------------------------------------------------------------
# change extraction
# ---------------------------------------------------------------------------

def _uniform_step(times: np.ndarray) -> float | None:
    diffs = np.diff(times)
    h = float(np.median(diffs, overwrite_input=True))
    diffs -= h
    # the largest deviation, where a mask would hold a byte a step
    if not np.max(np.abs(diffs, out=diffs), initial=0.0) > 1e-9 * h:
        return h
    return None


def _step_multiple(times: np.ndarray, delta_t: float) -> tuple[int, float]:
    """(j, h): the step h of uniformly spaced ``times`` and the integer j
    with delta_t = j h.  A delta_t that is not positive and finite raises
    DomainError; ragged stamps, or a delta_t that is no positive multiple
    of h, raise TimestampError."""
    check_return_interval(delta_t)
    h = _uniform_step(times)
    if h is None:
        raise TimestampError(
            f"returns over {delta_t:g} need uniformly spaced timestamps")
    j = delta_t / h  # inf when h is far below delta_t
    if not math.isfinite(j) or abs(j - round(j)) > 1e-6 * max(j, 1.0) \
            or round(j) < 1:
        raise TimestampError(
            f"delta_t={delta_t:g} is not a positive multiple of the "
            f"sampling step {h:g}")
    return int(round(j)), h


def _changes(lp: np.ndarray, j: int, h: float) -> np.ndarray:
    """expm1(lp[..., j:] - lp[..., :-j]) / (j h), in one new array: the
    scaled changes over j steps of h along the last axis of the log-prices
    ``lp``, exact even when the changes are tiny."""
    out = np.subtract(lp[..., j:], lp[..., :-j])
    return np.divide(np.expm1(out, out=out), j * h, out=out)


def scaled_returns(series: PriceSeries, delta_t: float) -> np.ndarray:
    """(P(t + delta_t) - P(t)) / (P(t) delta_t) at every stamp t of a
    uniformly stamped series (see _changes).  A delta_t that reaches past
    the series' span raises WindowError."""
    j, h = _step_multiple(series.times, delta_t)
    lp = series.log_prices
    if j >= lp.size:
        raise WindowError(f"returns over {delta_t:g} need a longer series; "
                          f"it spans {series.times[-1] - series.times[0]:g}")
    return _changes(lp, j, h)


def _resample_uniform(series: PriceSeries, step: float, allow_gaps: bool
                      ) -> tuple[np.ndarray, np.ndarray, float]:
    """(grid, log-prices, share of made-up points): linear interpolation
    of the log-price onto a uniform grid."""
    t, lp = series.times, series.log_prices
    gaps = np.diff(t)
    if not allow_gaps and float(np.max(gaps)) > step / 2.0 + 1e-12 * step:
        raise TimestampError(
            f"timestamp gap {np.max(gaps):g} exceeds delta_t/2={step / 2.0:g} "
            "and interpolation is disabled")
    n = int(math.floor((t[-1] - t[0]) / step)) + 1
    grid = t[0] + step * np.arange(n)
    logp = np.interp(grid, t, lp)
    # points that do not coincide with an observed timestamp were made up
    idx = np.searchsorted(t, grid)
    idx = np.clip(idx, 0, len(t) - 1)
    matched = np.abs(t[idx] - grid) <= 1e-9 * step
    frac = 1.0 - float(np.mean(matched))
    return grid, logp, frac


def relative_changes(series: PriceSeries, w: WindowSpec, *,
                     interpolate: bool = False,
                     return_windows: bool = False):
    """Scaled forward price changes over all delta_t subintervals per window.

    For each window of length big_delta_t advanced by the stride, emits
    (P(s + delta_t) - P(s)) / (P(s) * delta_t) for every subinterval start
    s on the sampling grid (see _changes).  Overlapping windows are
    allowed; the window structure is the unit for bootstrap resampling
    downstream.  The windows are the rows of one 2-D array,
    taken from a strided view of the log-prices, and the values are that
    array flattened.

    With ``return_windows`` the result is (values, rows, notes): the 2-D
    array itself, one row per window, and ``values`` a view of it.
    """
    if len(series) < 2:
        raise DomainError("need at least two price points")
    notes: list[str] = []
    try:
        j, h = _step_multiple(series.times, w.delta_t)
        logp = series.log_prices
    except TimestampError:
        if _uniform_step(series.times) is not None:
            raise  # uniform, but delta_t is no multiple of the step
        # ragged stamps: resample onto delta_t, which without
        # interpolation passes only when no gap defeats delta_t/2
        _, logp, frac = _resample_uniform(series, w.delta_t, interpolate)
        j, h = 1, w.delta_t
        if frac > 0.001:
            notes.append(f"interpolated={frac:.4%}")
    m = int(math.floor(w.big_delta_t / h * (1 + 1e-12)))
    if m <= j:
        raise WindowError("window shorter than one sampling subinterval")
    stride_pts = max(1, int(round(w.stride / h)))

    n = len(logp)
    if n < m:
        raise WindowError(
            f"series of {n} points holds no window of {m} points")
    segs = np.lib.stride_tricks.sliding_window_view(logp, m)[::stride_pts]
    rows = _changes(segs, j, h)
    flat = rows.reshape(-1)
    if return_windows:
        return flat, rows, notes
    return flat


# ---------------------------------------------------------------------------
# the nuisance ratio law (demand/supply pair with unit means)
# ---------------------------------------------------------------------------

_NU_LO, _NU_HI = 0.02, 0.97
_CHUNK = 1 << 16  # points per chunk of a full-bulk pass: the unit of its
                  # thread map and of its summation order, so, as with
                  # simulate.CHUNK, changing it changes output bits


def _chunk_sums(sums, points: np.ndarray, scale: float):
    """``sums`` of each _CHUNK points of ``points`` at ``scale``, added in
    chunk order.  ``sums`` maps one chunk's changes over the scale, y/s
    (a new array it may overwrite), to a tuple.

    The chunks map over the usable CPUs, and a pass of one chunk (a
    search's subsample) stays on the calling thread.  Each chunk's sums
    are numpy's pairwise ones, and the totals add them in chunk order,
    so every float is the serial one on any number of threads.
    """
    def chunk(start: int):
        return sums(points[start:start + _CHUNK] / scale)

    parts = thread_map(chunk, range(0, points.size, _CHUNK))
    # a plain left fold: builtins.sum compensates floats from Python 3.12
    return [functools.reduce(operator.add, column, 0)
            for column in zip(*parts)]


def _t_u(spec: ResponseSpec, u: float, scale: float) -> float:
    """t_u = tanh(L_u/2) of the threshold u over the scale, signed as u."""
    return math.copysign(math.tanh(0.5 * spec.log_ratio(u / scale)), u)


def _scale_seed(spec: ResponseSpec, nu: float, q95: float) -> float:
    """Log of the scale that puts the 0.95 |change| quantile of the
    rho = -1 law with spread ``nu`` at q95: by symmetry, its signed 0.975
    quantile given R > 0, through R = (1 + nu Z)/(1 - nu Z)."""
    from statistics import NormalDist  # fractions and decimal: not at import

    z = NormalDist().inv_cdf(0.5 + 0.475 * _t_mass(nu, -1.0, 1.0)[0])
    r = (1.0 + nu * z) / (1.0 - nu * z)
    return math.log(q95 / float(spec.value(r)))


def _bulk_score(spec: ResponseSpec, nu: float, rho: float, scale: float,
                points: np.ndarray, u: float) -> float:
    """Average conditional log-likelihood of the sub-threshold points
    under the unit-mean pair with spread nu and correlation rho, its
    t-space pass chunk by chunk (``_chunk_sums``)."""
    def sums(y):
        n_ok, t2, sv, mean = _kept(*_t_space(spec, y), rho, points.size)
        return n_ok, mean(_log_f_t(t2, nu, rho)[1]), sv

    n_ok, log_f, sv = _chunk_sums(sums, points, scale)
    norm = _log_f_t(np.empty(0), nu, rho)[0]  # no t^2 moves it
    return _mean(nu, rho, _t_u(spec, u, scale), scale, points.size, n_ok, sv,
                 norm, log_f)


def _t_mass(nu: float, rho: float, t: float) -> tuple[float, float, float]:
    """P(|T| < t), with its first and second nu-derivatives; all 0 where t
    is not positive.  |T| < t is |A| < t|B| (see _log_f_t), and with
    d = sqrt(a + t^2 b), k = 2t/d and h = 2 sqrt(a/b)/d, the bivariate-
    normal orthants give (Owen 1956)

        P(|T| < t) = erf(k/sqrt 2) erf(h/sqrt 2) + 4 T(h, k/h),

    a sum of positive terms that does not cancel.  Only k depends on nu,
    as 1/nu, and dP/dk = 2 phi(k) erf(h/sqrt 2).  At rho = -1 (b = 0,
    T = nu Z) k = t/nu and h is infinite, so P = erf(k/sqrt 2),
    erf(h/sqrt 2) = 1 and phi(h) = 0, and no scipy loads.  P(R > 0) is
    the mass at t = 1, and the bulk mass P(1/r_u < R < r_u) the mass at
    t_u = (r_u - 1)/(r_u + 1)."""
    if not t > 0.0:
        return 0.0, 0.0, 0.0
    if rho == -1.0:
        k = t / nu
        mass, erf_h, h_phi_h = math.erf(k / _SQRT_2), 1.0, 0.0
    else:
        from scipy.special import owens_t

        a, b = 2.0 * nu * nu * (1.0 - rho), 2.0 * nu * nu * (1.0 + rho)
        d = math.sqrt(a + t * t * b)
        k, h = 2.0 * t / d, 2.0 * math.sqrt(a / b) / d
        erf_h = math.erf(h / _SQRT_2)
        mass = (math.erf(k / _SQRT_2) * erf_h
                + 4.0 * float(owens_t(h, t * math.sqrt(b / a))))
        h_phi_h = h * math.exp(-0.5 * h * h) / _SQRT_2PI
    phi_k = math.exp(-0.5 * k * k) / _SQRT_2PI
    # dP/dk, and k d2P/dk2 = 4h phi_k phi_h - k^2 dP/dk
    dk = 2.0 * phi_k * erf_h
    return mass, -k / nu * dk, k * ((2.0 - k * k) * dk
                                    + 4.0 * phi_k * h_phi_h) / (nu * nu)


def _mean(nu: float, rho: float, t_u: float, scale: float, n: int, n_ok: int,
          sv: float, norm: float, log_f: float, derivs=None):
    """The mean bulk log-likelihood of n points at spread nu, from per-point
    pieces: the n_ok whose v is finite have the sum ``sv`` of v, and the
    rest score the floor; ``log_f`` is the mean over all n of log(norm
    f_T(t)), f_T's normaliser 1/norm folded into the masses' log.  P(R > 0)
    and the bulk mass are ``_t_mass``'s, at t = 1 and at ``t_u``; the mean
    is the floor where the bulk mass is not positive.  Given ``derivs``,
    the means over all n of the first and second nu-derivatives of
    log f_T, it returns the mean with its own two."""
    pos_mass, dpos, ddpos = _t_mass(nu, rho, 1.0)
    mass_u, dmass, ddmass = _t_mass(nu, rho, t_u)
    bulk_mass = mass_u / pos_mass
    if not bulk_mass > 0.0:
        return _LL_FLOOR if derivs is None else (_LL_FLOOR, 0.0, 0.0)
    share = n_ok / n
    rest = (-sv - n_ok * math.log(scale) + (n - n_ok) * _LL_FLOOR) / n
    mean = (share * math.log(2.0 / (norm * pos_mass)) + log_f + rest
            - math.log(bulk_mass))
    if derivs is None:
        return mean
    # mean = mean log f_T + (1 - share) log pos_mass - log mass_u + const
    g_pos, g_u = dpos / pos_mass, dmass / mass_u
    return (mean, derivs[0] + (1.0 - share) * g_pos - g_u,
            derivs[1] + (1.0 - share) * (ddpos / pos_mass - g_pos * g_pos)
            - (ddmass / mass_u - g_u * g_u))


def _t_space(spec: ResponseSpec, y: np.ndarray):
    """(t^2, v) of the changes over the scale ``y``, as new arrays: with
    L = |log r| of the ratio behind each (``ResponseSpec.log_ratio``),
    t = tanh(L/2) = |r-1|/(r+1) and v = log(r g'(r)) + L + 2 log(1 + e**-L)
    = 2 log1p(r) + log g'(r), finite whether or not r = e**L fits in a
    float, but where L = inf, or L = 0 and g'(1) = 0."""
    big = spec.log_ratio(y)
    v = spec.log_ratio_slope(big)       # log(r g'(r))
    v += big
    e = np.negative(big, out=big)
    np.exp(e, out=e)                    # e**-L
    d = np.add(e, 1.0)
    np.subtract(1.0, e, out=e)
    e /= d                              # t = (1 - e**-L) / (1 + e**-L)
    e *= e
    d *= d
    np.log(d, out=d)
    v += d
    return e, v


def _kept(t2: np.ndarray, v: np.ndarray, rho: float, n: int):
    """(count, t^2, sum v, mean) of the points whose v is finite, where
    mean(g) is the sum over them of g = log(norm f_T) (``_log_f_t``) at
    the t^2 kept, over n.  t^2 is their array, or at rho = -1, where g is
    linear in t^2, their sum over n, whose g is that mean already."""
    sv = float(np.sum(v))
    if not math.isfinite(sv):           # else so is every v
        ok = np.isfinite(v)
        t2, sv = t2[ok], float(np.sum(v[ok]))
    if rho == -1.0:
        return t2.size, float(np.sum(t2)) / n, sv, float
    return t2.size, t2, sv, lambda g: float(np.sum(g)) / n


def _log_f_t(t2: np.ndarray, nu: float, rho: float, derivs: bool = False):
    """(norm, g) with f_T(t) = e**g/norm at t^2 = ``t2``, g a new array.
    T = (R - 1)/(R + 1) = A/B, and A = D - S ~ N(0, a), B = D + S ~
    N(2, b) are independent, a = 2 nu^2 (1 - rho), b = 2 nu^2 (1 + rho).
    At rho = -1 f_T is phi(t/nu)/nu: norm = sqrt(2 pi) nu and g =
    -t^2/(2 nu^2), linear in t^2 (an array or a float).
    Otherwise Hinkley's (1969) two terms, with d^2 = a + b t^2 and
    x^2 = 2a/(b d^2), are

        f_T(t) = e**(-2 t^2/d^2) b^(3/2) / (2 sqrt(pi a))
                 * x^2 (x erf(x) + e**(-x^2)/sqrt(pi)),

    and the bracket H is at least 1/sqrt(pi): log f_T never underflows.

    With ``derivs`` (rho != -1) the result is (norm, g, s1, s2), s1 and
    s2 the sums over the points of the first and second nu-derivatives
    of log f_T.  2t^2/d^2 and x go as 1/nu^2 and 1/nu, and dH/dx =
    erf x, so with q = x erf(x)/H those are (4t^2/d^2 - q)/nu and
    (-12t^2/d^2 + 2q + 2x^2 e**(-x^2)/(sqrt(pi) H) - q^2)/nu^2.
    """
    if rho == -1.0:
        return _SQRT_2PI * nu, t2 / (-2.0 * nu * nu)
    from scipy.special import erf

    a, b = 2.0 * nu * nu * (1.0 - rho), 2.0 * nu * nu * (1.0 + rho)
    x2 = np.multiply(t2, b)
    x2 += a
    np.divide(2.0 * a / b, x2, out=x2)
    out = np.multiply(t2, x2)
    out *= -b / a                       # -2 t^2/d^2
    x = np.sqrt(x2)
    g = erf(x)
    g *= x
    np.subtract(-0.5 * math.log(math.pi), x2, out=x)
    np.exp(x, out=x)                    # e**(-x^2)/sqrt(pi)
    if derivs:
        q = g.copy()                    # x erf(x)
        w = -float(np.sum(out))         # sum of 2 t^2/d^2
    g += x
    if derivs:
        q /= g
        x /= g
        x *= x2
        x += x                          # 2 x^2 e**(-x^2)/(sqrt(pi) H)
        sq = float(np.sum(q))
        q *= q
        x -= q
        s1 = (2.0 * w - sq) / nu
        s2 = (2.0 * sq - 6.0 * w + float(np.sum(x))) / (nu * nu)
    g *= x2
    np.log(g, out=g)
    out += g
    norm = math.sqrt(4.0 * math.pi * a / b) / b
    return (norm, out, s1, s2) if derivs else (norm, out)


def _change_log_pdf(spec: ResponseSpec, scale: float, nu: float, rho: float,
                   points) -> np.ndarray:
    """Per point, the log density given R > 0 of the change y = s g(r),
    log f_T(t) + log 2 - v - log s - log P(R > 0); not finite where v is
    not."""
    t2, v = _t_space(spec, np.asarray(points, dtype=float) / scale)
    norm, out = _log_f_t(t2, nu, rho)
    out -= v
    out += math.log(2.0 / (scale * norm * _t_mass(nu, rho, 1.0)[0]))
    return out


def _profile(spec: ResponseSpec, scale: float, points: np.ndarray, u: float,
             rho: float):
    """The mean bulk log-likelihood at correlation rho and ``scale`` as a
    function of nu, from one t-space pass over ``points``.

    The pass keeps what does not depend on nu: t_u = tanh(L_u/2) of the
    threshold, and what ``_kept`` keeps of the points whose v is finite;
    the rest score the floor, whatever nu.  Each nu is then one
    ``_log_f_t`` and ``_mean``; with ``derivs`` (rho != -1) it gives the
    score with its first and second nu-derivatives.
    """
    n = points.size
    n_ok, t2, sv, mean = _kept(*_t_space(spec, points / scale), rho, n)
    t_u = _t_u(spec, u, scale)

    def score(nu: float, derivs: bool = False):
        norm, log_f, *sums = _log_f_t(t2, nu, rho, derivs)
        return _mean(nu, rho, t_u, scale, n, n_ok, sv, norm, mean(log_f),
                     [s / n for s in sums] if derivs else None)

    return score


def _nu_from_t(t: float) -> float:
    """The spread at logit t: in [_NU_LO, _NU_HI] and monotone for every
    float t.  exp(-t) overflows below t = -709.78, so t stops at -700,
    where the spread is _NU_LO already (it is from t ~ -40).  e/(1 + e)
    with e = exp(t) would not overflow, but it is not monotone: it steps
    down an ulp between some neighbouring floats."""
    return _NU_LO + (_NU_HI - _NU_LO) / (1.0 + math.exp(-max(t, -700.0)))


def _t_from_nu(nu: float) -> float:
    nu = min(max(nu, _NU_LO + 1e-6), _NU_HI - 1e-6)
    return math.log((nu - _NU_LO) / (_NU_HI - nu))


_POLISH_H = 1e-4       # half-width of the polish's log-scale differences
_POLISH_XTOL = 1e-7    # an accepted step this short ends the polish
_POLISH_EVALS = 400    # and this many evaluations end it in any case


def _newton_polish(f, x: tuple[float, float]) -> tuple[float, float]:
    """A local minimum of f over the plane, by damped Newton steps from x.

    f(p) gives (value, d/dp0, d2/dp0^2): the value with its exact first
    and second derivatives along the first axis.  Along the second, each
    iteration takes differences from the points (x0, x1 +- h), h =
    _POLISH_H: the gradient and curvature from their values, the mixed
    second derivative from their d/dp0.  A point costs one evaluation, so
    an iteration costs two and its trials.  It proposes the step
    -(H + mu I)^-1 g, mu = 0 when H is positive definite and otherwise
    just past minus its least eigenvalue, cut to a trust radius.  A step
    to a point where f is no lower is rejected: the radius halves below
    its length and the step is cut again.  An accepted step sets it to at
    least twice its length, and its point's derivatives serve the next
    iteration.  A non-finite value, or an OverflowError, counts as worse.
    The polish stops once an accepted (or rejected) step moves each
    coordinate by less than _POLISH_XTOL, at a non-finite derivative or
    difference, or where another iteration would pass _POLISH_EVALS
    evaluations of f.
    """
    def value(p):
        try:
            v = f(p)
        except OverflowError:
            return math.inf, math.nan, math.nan
        return v if math.isfinite(v[0]) else (math.inf, math.nan, math.nan)

    h = _POLISH_H
    fx, g0, a = value(x)
    evals, radius = 1, 1.0
    while evals + 3 <= _POLISH_EVALS:
        x0, x1 = x
        fp, gp, _ = value((x0, x1 + h))
        fm, gm, _ = value((x0, x1 - h))
        evals += 2
        g1 = (fp - fm) / (2.0 * h)
        c = (fp - 2.0 * fx + fm) / (h * h)
        b = (gp - gm) / (2.0 * h)
        if not all(map(math.isfinite, (g0, g1, a, b, c))):
            break
        # H's eigenvalues hi >= lo, hi's eigenvector (cos w, sin w)
        mid, half = 0.5 * (a + c), math.hypot(0.5 * (a - c), b)
        hi, lo = mid + half, mid - half
        w = 0.5 * math.atan2(2.0 * b, a - c)
        cw, sw = math.cos(w), math.sin(w)
        mu = 0.0 if lo > 0.0 else 1e-3 * (hi - lo) + 1e-12 - lo
        along_hi = -(cw * g0 + sw * g1) / (hi + mu)
        along_lo = -(cw * g1 - sw * g0) / (lo + mu)
        s0, s1 = cw * along_hi - sw * along_lo, sw * along_hi + cw * along_lo
        length = math.hypot(s0, s1)
        while evals < _POLISH_EVALS:
            if length > radius:
                s0, s1 = s0 * (radius / length), s1 * (radius / length)
                length = radius
            trial = (x0 + s0, x1 + s1)
            ft, gt, at = value(trial)
            evals += 1
            if ft < fx:
                x, fx, g0, a = trial, ft, gt, at
                radius = max(radius, 2.0 * length)
                break
            radius = 0.5 * length
            if max(abs(s0), abs(s1)) < _POLISH_XTOL:
                break
        if max(abs(s0), abs(s1)) < _POLISH_XTOL:
            break
    return x


# ---------------------------------------------------------------------------
# per-family fitting stages
# ---------------------------------------------------------------------------

def _tail_stage(family: Family, exc: np.ndarray, u: float):
    """Fit the family parameter on exceedances; return (param, tail score)."""
    if family is Family.SYM:
        return None, pareto_loglik(exc, u, 1.0)
    if family is Family.POWER:
        alpha = min(max(pareto_index(exc, u), 1e-3), 1e3)
        return 1.0 / alpha, pareto_loglik(exc, u, alpha)
    if family is Family.ODD_POWER:
        best = max(_ODD_SCAN, key=lambda n: pareto_loglik(exc, u, 1.0 / n))
        return float(best), pareto_loglik(exc, u, 1.0 / best)
    if family is Family.LOG:
        return None, exponential_fit(exc, u)[1]
    if family is Family.LOG_POWER:
        def profile(n):
            return stretched_loglik(exc, u, 1.0 / n,
                                    stretched_scale(exc, u, 1.0 / n))

        best = max((n for n in _ODD_SCAN if n >= 3), key=profile)
        return float(best), profile(best)
    raise DomainError(f"unsupported candidate family {family}")


def _fit_nuisance(spec: ResponseSpec, q95: float, bulk: np.ndarray,
                  u: float, rho: float):
    """(nu, scale, notes) of the largest conditional bulk likelihood; a
    note names nu if it ends on a bound of its range, and at rho = -1 the
    scale if it ends on a bound of its search, where neither need be the
    maximum.

    The surface has a long curved ridge (bulk width pins only nu * scale).
    The search runs on a deterministic subsample of the bulk; the caller
    scores the winner on the full bulk.  One t-space pass at a log-scale
    gives the score for every nu (``_profile``).  At rho = -1 a bounded
    Brent takes nu on [_NU_LO, _NU_HI], and around it a bounded Brent
    takes log-scale, 1.5 past the ``_scale_seed`` of nu = 0.93 and of 0.05
    (the seed falls as nu grows), one pass per step.  At any other rho
    ``_newton_polish`` then takes (logit nu, log-scale) from that
    optimum, some 10-35 evaluations, each one nu with its exact
    derivatives on the profile of its own log-scale.
    """
    # gathered once: every pass divides the subsample by a scale, and a
    # strided view makes each of those reads miss the cache
    sub = np.ascontiguousarray(bulk[::max(1, bulk.size // 30000)])
    best_nu = {}

    def negative(log_scale: float) -> float:
        score = _profile(spec, math.exp(log_scale), sub, u, -1.0)
        best_nu[log_scale], value = _bounded_brent(
            lambda nu: -score(nu), _NU_LO, _NU_HI, 1e-9)
        return value

    lo = _scale_seed(spec, 0.93, q95) - 1.5
    hi = _scale_seed(spec, 0.05, q95) + 1.5
    log_scale, _ = _bounded_brent(negative, lo, hi, 1e-7)
    nu, scale = best_nu[log_scale], math.exp(log_scale)
    if rho == -1.0:
        scale_inside = _interior(log_scale, lo, hi, 1e-7)
    else:
        scale_inside = True  # the polish's log-scale has no bounds
        def negative(th):
            # minus the score, its nu-derivatives chained through the
            # logistic of _nu_from_t
            nu = _nu_from_t(th[0])
            v, d1, d2 = _profile(spec, math.exp(th[1]), sub, u, rho)(
                nu, derivs=True)
            dnu = (nu - _NU_LO) * (_NU_HI - nu) / (_NU_HI - _NU_LO)
            ddnu = dnu * (_NU_HI + _NU_LO - 2.0 * nu) / (_NU_HI - _NU_LO)
            return -v, -d1 * dnu, -(d2 * dnu * dnu + d1 * ddnu)

        t, log_scale = _newton_polish(negative, (_t_from_nu(nu), log_scale))
        nu, scale = _nu_from_t(t), math.exp(log_scale)
    notes = []
    if not _interior(nu, _NU_LO, _NU_HI, 1e-9):
        notes.append(f"nuisance spread {nu:.6g} is on a bound of its "
                     f"search range [{_NU_LO:g}, {_NU_HI:g}]")
    if not scale_inside:
        notes.append(f"nuisance scale {scale:.6g} is on a bound of its "
                     f"search range [{math.exp(lo):.6g}, {math.exp(hi):.6g}]")
    return nu, scale, notes


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

@dataclass
class FitResult:
    """Outcome of the family fit.

    ``implied_tail`` always equals the predicted tail of the fitted
    response evaluated at the parameter estimate.  ``scores`` holds the
    composite per-point average log-likelihood of every candidate, and
    ``rho`` the correlation the nuisance was fitted at.
    """

    response: ResponseSpec
    param_estimate: float | None
    param_stderr: float | None
    implied_tail: TailClass
    scores: dict
    n_samples: int
    threshold: float
    nuisance_spread: float
    nuisance_scale: float
    notes: list = field(default_factory=list)
    rho: float = -1.0

    def key_values(self) -> dict:
        d = {"family": self.response.family.value,
             "param": "" if self.param_estimate is None else self.param_estimate,
             "param_stderr": "" if self.param_stderr is None else self.param_stderr,
             "tail_class": self.implied_tail.kind.value,
             "tail": self.implied_tail.describe(),
             "n_samples": self.n_samples,
             "threshold": self.threshold,
             "nuisance_spread": self.nuisance_spread,
             "nuisance_scale": self.nuisance_scale}
        for name, score in sorted(self.scores.items()):
            d[f"score.{name}"] = score
        if self.notes:
            d["notes"] = "; ".join(self.notes)
        return d


def check_fit_options(candidates, threshold_quantile: float, rho: float,
                      n_boot: int | None = None) -> list[Family]:
    """The candidate families of a fit, once its options are known good:
    unknown or repeated candidates, a quantile outside (0, 1), a ``rho``
    outside [-1, 1) and a negative ``n_boot`` raise DomainError; ``fit_g``
    checks its options here, and the command line before any prices load."""
    try:
        fams = [Family(f) for f in candidates]
    except ValueError as exc:
        raise DomainError(f"unknown candidate family: {exc}") from None
    if not fams or len(set(fams)) < len(fams):
        raise DomainError(f"need distinct candidates, got [{', '.join(fams)}]")
    if not 0.0 < threshold_quantile < 1.0:
        raise DomainError(f"threshold quantile {threshold_quantile} is "
                          "outside (0, 1)")
    if not -1.0 <= rho < 1.0:
        raise DomainError(f"correlation rho={rho} is outside [-1, 1)")
    if n_boot is not None and n_boot < 0:
        raise DomainError(f"bootstrap count {n_boot} is negative")
    return fams


def fit_g(changes, candidates=(Family.POWER, Family.LOG), *,
          threshold_quantile: float = 0.998, rho: float = -1.0,
          windows=None, n_boot: int | None = None,
          boot_seed: int = 0) -> FitResult:
    """Fit candidate response families to a sample of scaled price changes.

    Each family's shape parameter is estimated from the exceedances above
    the threshold quantile of |changes|; the order-flow nuisance (spread
    nu with unit means and correlation ``rho``, plus an output scale) is
    fitted by conditional maximum likelihood on the bulk.  Candidates are
    scored by

        (1 - p_tail) * bulk conditional loglik + p_tail * tail loglik

    per point, the family-independent split entropy dropped.  The top
    score wins; a near-tie within ``_TIE_MARGIN`` goes to the family with
    fewer parameters when that breaks the tie and otherwise raises
    NonIdentifiableError.

    The default split quantile is deep (99.8th) because the asymptotic
    tail laws only take over well past the bulk; shallower thresholds mix
    in pre-asymptotic curvature and bias the shape parameter.

    ``windows`` (the rows of relative_changes, or a list of windows,
    ragged ones included) enables window-level bootstrap of
    the parameter standard error, appropriate when windows overlap, with
    ``n_boot`` resamples (50 by default); without windows, or at
    ``n_boot=0``, a tail-asymptotic standard error is reported for the
    POWER family and none for the discrete families.  Bad options raise
    DomainError (see ``check_fit_options``).
    """
    c = np.asarray(changes, dtype=float)
    if c.ndim != 1 or c.size < 100:
        raise DomainError("need a flat sample of at least 100 changes")
    if not np.all(np.isfinite(c)):
        raise DomainError("changes contain non-finite values")
    fams = check_fit_options(candidates, threshold_quantile, rho, n_boot)

    # one select of a transient |c|; |c| <= u just where -u <= c <= u
    u, q95 = quantile(np.abs(c), (threshold_quantile, 0.95),
                      overwrite_input=True)
    inside = (c >= -u) & (c <= u)
    exc = np.abs(c[~inside])
    if exc.size < MIN_TAIL_POINTS:
        raise InsufficientTailError(
            f"{exc.size} exceedances above the {threshold_quantile:g} "
            f"quantile; need >= {MIN_TAIL_POINTS}")
    if not (q95 > 0.0):
        raise DomainError("changes are identically zero; nothing to fit")
    bulk = c[inside]
    p_tail = exc.size / c.size

    def search(fam: Family):
        param, tail_ll = _tail_stage(fam, exc, u)
        spec = ResponseSpec(fam, param)
        return (spec, param, tail_ll) + _fit_nuisance(spec, q95, bulk, u, rho)

    # Each candidate's tail stage and search run on their own thread, up
    # to the usable CPUs: a few dozen t-space passes over the subsample,
    # and at rho != -1 some 10-35 f_T evaluations on their profiles.
    if rho != -1.0:  # loaded here, not by two threads
        import scipy.special  # noqa: F401
    searched = thread_map(search, fams)

    notes: list[str] = []
    fitted = {}
    scores = {}
    # one candidate at a time: each full-bulk score maps its chunks over
    # the usable CPUs itself (see _chunk_sums)
    for fam, (spec, param, tail_ll, nu, scale, bound_notes) in zip(
            fams, searched):
        bulk_ll = _bulk_score(spec, nu, rho, scale, bulk, u)
        score = (1.0 - p_tail) * bulk_ll + p_tail * tail_ll
        fitted[fam] = (spec, param, nu, scale, bound_notes)
        scores[fam.value] = score
    del bulk  # dead before the bootstrap builds its pool

    ranked = sorted(fams, key=lambda f: scores[f.value], reverse=True)
    best = ranked[0]
    if len(ranked) > 1:
        gap = scores[best.value] - scores[ranked[1].value]
        if gap < _TIE_MARGIN:
            n0, n1 = _PARAM_COUNT[best], _PARAM_COUNT[ranked[1]]
            if n0 != n1:
                best = ranked[0] if n0 < n1 else ranked[1]
                notes.append(
                    f"near-tie (gap {gap:.2e}/point) resolved toward fewer "
                    f"parameters: {best.value}")
            else:
                raise NonIdentifiableError(
                    f"candidates {ranked[0].value} and {ranked[1].value} "
                    f"score within {_TIE_MARGIN:g} per point", scores=scores)

    spec, param, nu, scale, bound_notes = fitted[best]
    notes.extend(bound_notes)
    stderr = _param_stderr(best, param, windows, threshold_quantile,
                           n_boot, boot_seed, exc.size)
    return FitResult(response=spec, param_estimate=param, param_stderr=stderr,
                     implied_tail=spec.predicted_tail(), scores=scores,
                     n_samples=int(c.size), threshold=u,
                     nuisance_spread=nu, nuisance_scale=scale, notes=notes,
                     rho=rho)


def _param_stderr(family: Family, param, windows, threshold_quantile,
                  n_boot, boot_seed, k_exc):
    if param is None:
        return None
    n_boot = 50 if n_boot is None else int(n_boot)
    if windows is None or n_boot <= 0:
        # delta method through q = 1/alpha: sd(q) ~ q / sqrt(k)
        return float(param) / math.sqrt(k_exc) if family is Family.POWER else None
    rng = np.random.default_rng(boot_seed)
    pool = _ExceedancePool(windows, threshold_quantile)
    n = pool.sizes.size
    estimates = []
    for _ in range(n_boot):
        counts = np.bincount(rng.integers(0, n, size=n), minlength=n)
        u, exc = pool.resample(counts)
        if exc.size < MIN_TAIL_POINTS:
            continue
        est, _ = _tail_stage(family, exc, u)
        estimates.append(est)
    if len(estimates) < 2:
        return None
    return float(np.std(estimates, ddof=1))


class _ExceedancePool:
    """The windows' values, flat (a 2-D array's own), and the magnitudes at
    or above a cutoff c, the full sample's 1 - 4(1 - q) quantile, each with
    its window.

    A resample is a vector of window counts: every value of a window,
    repeated in place as often as the window was drawn.  When the pooled
    values, so repeated, hold both order statistics that np.quantile
    interpolates, the threshold is numpy's interpolation of those two
    (``tails.interpolate``) and the exceedances are the pooled values
    above it, both bit for bit the full resample's.  Otherwise the
    resample is built in full.  Every order statistic here comes from
    ``tails``' select.
    """

    def __init__(self, windows, q: float):
        self.q = q
        self.sizes = np.array([len(w) for w in windows], dtype=np.intp)
        flat = np.ravel if isinstance(windows, np.ndarray) else np.concatenate
        v = self.values = flat(windows)
        c = quantile(np.abs(v), max(0.0, 1.0 - 4.0 * (1.0 - q)),
                     overwrite_input=True)
        keep = np.flatnonzero((v >= c) | (v <= -c))
        self.pool = np.abs(v[keep])
        self.owner = np.searchsorted(np.cumsum(self.sizes), keep, side="right")
        self.pool_sizes = np.bincount(self.owner, minlength=self.sizes.size)
        self.cutoff = c

    def resample(self, counts: np.ndarray):
        """(threshold, exceedances) of the resample with window ``counts``."""
        n = int(counts @ self.sizes)
        below = n - int(counts @ self.pool_sizes)  # values under c
        index = (n - 1) * self.q                   # np.quantile's
        k = math.floor(index)
        if below <= k < n - 1:
            pooled = np.repeat(self.pool, counts[self.owner])
            part, j = pooled.copy(), k - below  # pooled keeps its order
            _select(part, (j,))
            u = interpolate(part[j], part[j + 1:].min(), index - k)
            if u >= self.cutoff:
                return u, pooled[pooled > u]
        sample = self.full(counts)
        u = quantile(sample, self.q)
        return u, sample[sample > u]

    def full(self, counts: np.ndarray) -> np.ndarray:
        """The whole resample with window ``counts``, as magnitudes."""
        sample = np.repeat(self.values, np.repeat(counts, self.sizes))
        return np.abs(sample, out=sample)


def fit_price_series(series: PriceSeries, w: WindowSpec,
                     candidates=(Family.POWER, Family.LOG), *,
                     interpolate: bool = False, return_changes: bool = False,
                     **fit_kw):
    """relative_changes + fit_g with window bootstrap wired through.

    With ``return_changes`` the result is (FitResult, changes), the
    changes being the flat values the fit saw."""
    flat, windows, notes = relative_changes(series, w, interpolate=interpolate,
                                            return_windows=True)
    rej = series.meta.get("rejected")
    del series  # dead now, unless the caller holds it
    result = fit_g(flat, candidates, windows=windows, **fit_kw)
    result.notes.extend(notes)
    if rej:
        result.notes.append(f"simulator_rejections={rej}")
    if return_changes:
        return result, flat
    return result


def exponent_report(result: FitResult) -> str:
    """Human-readable summary; the machine form is FitResult.key_values()."""
    lines = [f"selected family: {result.response.label()}"]
    if result.param_estimate is not None:
        err = (f" +- {result.param_stderr:.3g}"
               if result.param_stderr is not None else "")
        lines.append(f"shape parameter: {result.param_estimate:.6g}{err}")
    lines.append(f"implied decay: {result.implied_tail.describe()}")
    lines.append("note: response identified up to the adjustment-time scale")
    lines.append(f"samples: {result.n_samples}, tail threshold |change| > "
                 f"{result.threshold:.6g}")
    lines.append(f"nuisance: spread={result.nuisance_spread:.4g} "
                 f"scale={result.nuisance_scale:.6g}")
    score_txt = ", ".join(f"{k}={v:.6f}" for k, v in sorted(result.scores.items()))
    lines.append(f"scores/point: {score_txt}")
    for note in result.notes:
        lines.append(f"caveat: {note}")
    return "\n".join(lines)
