"""Recover the response family from an observed price series.

The pipeline approximates the log-price velocity by scaled forward
differences (P(s+dt) - P(s)) / (P(s) * dt) collected over sliding
windows, then fits candidate response families to the distribution of
those changes.  Fitting is two-stage: the family's shape parameter comes
from the exceedance tail by maximum likelihood, while the order-flow
nuisance (a symmetric coefficient of variation plus an output scale
absorbing the adjustment time constant) is pinned by bulk quantiles.
Families are then ranked by a composite average log-likelihood over bulk
and tail, and near-ties go to the family with fewer parameters or are
reported as non-identifiable.

All reported response shapes are identified only up to the time-constant
scale, which no price series can pin down by itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr, ndtri

from .density import (OrderFlowParams, positive_ratio_mass, ratio_cdf,
                      ratio_density)
from .errors import (DomainError, InsufficientTailError, NonIdentifiableError,
                     TimestampError, WindowError)
from .response import Family, ResponseSpec, TailClass, invert_monotone
from .simulate import PriceSeries
from .tails import MIN_TAIL_POINTS

__all__ = [
    "WindowSpec",
    "relative_changes",
    "FitResult",
    "fit_g",
    "fit_price_series",
    "exponent_report",
]

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
        if not (self.delta_t > 0 and self.big_delta_t > 0 and self.stride > 0):
            raise WindowError("all window scales must be positive")
        if self.delta_t > self.big_delta_t / 10.0:
            raise WindowError(
                f"delta_t={self.delta_t:g} must be at most big_delta_t/10="
                f"{self.big_delta_t / 10.0:g}")


# ---------------------------------------------------------------------------
# change extraction
# ---------------------------------------------------------------------------

def _uniform_step(times: np.ndarray) -> float | None:
    diffs = np.diff(times)
    h = float(np.median(diffs))
    if np.all(np.abs(diffs - h) <= 1e-9 * h):
        return h
    return None


def _resample_uniform(series: PriceSeries, step: float,
                      allow_gaps: bool) -> tuple[np.ndarray, float]:
    """Linear interpolation of the log-price onto a uniform grid."""
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
    s on the sampling grid.  Computed as expm1 of log-price differences,
    which is exact even when the changes are tiny.  Overlapping windows
    are allowed; the window structure is the unit for bootstrap
    resampling downstream.

    With ``return_windows`` the result is (values, window_list, notes)
    where window_list holds one array per window.
    """
    if len(series) < 2:
        raise DomainError("need at least two price points")
    notes: list[str] = []
    h = _uniform_step(series.times)
    if h is None:
        if not interpolate:
            # tolerate ragged stamps only when no gap defeats delta_t/2
            grid, logp, frac = _resample_uniform(series, w.delta_t, False)
        else:
            grid, logp, frac = _resample_uniform(series, w.delta_t, True)
        h = w.delta_t
        if frac > 0.001:
            notes.append(f"interpolated={frac:.4%}")
    else:
        logp = series.log_prices

    j = w.delta_t / h
    if abs(j - round(j)) > 1e-6 * max(j, 1.0) or round(j) < 1:
        raise TimestampError(
            f"delta_t={w.delta_t:g} is not a positive multiple of the "
            f"sampling step {h:g}")
    j = int(round(j))
    dt_eff = j * h
    m = int(math.floor(w.big_delta_t / h * (1 + 1e-12)))
    if m <= j:
        raise WindowError("window shorter than one sampling subinterval")
    stride_pts = max(1, int(round(w.stride / h)))

    n = len(logp)
    windows = []
    start = 0
    while start + m <= n:
        seg = logp[start:start + m]
        changes = np.expm1(seg[j:] - seg[:-j]) / dt_eff
        windows.append(changes)
        start += stride_pts
    if not windows:
        raise WindowError(
            f"series of {n} points holds no window of {m} points")
    flat = np.concatenate(windows)
    if return_windows:
        return flat, windows, notes
    return flat


# ---------------------------------------------------------------------------
# the nuisance ratio law (demand/supply pair with unit means)
# ---------------------------------------------------------------------------

_NU_LO, _NU_HI = 0.02, 0.97
_NU_GRID = np.geomspace(0.05, 0.93, 21)
_CHUNK = 1 << 16  # points per pass; bounds a full-bulk score's temporaries


def _ratios(spec: ResponseSpec, scale: float, points: np.ndarray):
    """The ratios behind ``points`` at ``scale``, one chunk at a time;
    r = inf marks a point with no positive finite ratio."""
    for i in range(0, points.size, _CHUNK):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            r = np.asarray(spec.inverse(points[i:i + _CHUNK] / scale),
                           dtype=float)
        yield np.where(np.isfinite(r) & (r > 0.0), r, np.inf)


def _threshold_ratio(spec: ResponseSpec, scale: float, u: float) -> float:
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return float(spec.inverse(u / scale))


def _scale_seed(spec: ResponseSpec, law, q95: float) -> float:
    """Log of the scale that puts the law's 0.95 |change| quantile at q95
    (by symmetry, its signed 0.975 quantile)."""
    return math.log(q95 / float(spec.value(law.quantile_pos(0.975))))


def _maximize(f, grid, values, lo: float, hi: float, xatol: float):
    """(value, x) of the larger of the best grid point and a bounded Brent
    maximum of f between that point's neighbours, or out to lo / hi when
    it is an end of the grid."""
    from scipy.optimize import minimize_scalar

    i = int(np.argmax(values))
    a = grid[i - 1] if i > 0 else lo
    b = grid[i + 1] if i + 1 < len(grid) else hi
    res = minimize_scalar(lambda x: -f(x), bounds=(a, b), method="bounded",
                          options={"xatol": xatol})
    if -res.fun > values[i]:
        return -float(res.fun), float(res.x)
    return float(values[i]), float(grid[i])


class _AnticorrLaw:
    """Ratio law for the unit-mean anticorrelated pair with spread nu.

    R = (1 + nu Z)/(1 - nu Z) with Z standard normal; R > 0 exactly when
    |Z| < 1/nu, and everything needed here is closed-form through that
    monotone reparametrization.
    """

    def __init__(self, nu: float):
        self.nu = float(nu)
        self._edge = ndtr(1.0 / nu)
        self.pos_mass = 2.0 * self._edge - 1.0

    def log_pdf(self, r):
        nu = self.nu
        z = (r - 1.0) / (nu * (r + 1.0))
        return (math.log(2.0 / (math.sqrt(2.0 * math.pi) * nu))
                - 0.5 * z * z - 2.0 * np.log1p(r))

    def cdf_pos(self, r):
        z = (r - 1.0) / (self.nu * (r + 1.0))
        return (ndtr(z) - (1.0 - self._edge)) / self.pos_mass

    def quantile_pos(self, p):
        z = ndtri((1.0 - self._edge) + np.asarray(p) * self.pos_mass)
        return (1.0 + self.nu * z) / (1.0 - self.nu * z)

    @staticmethod
    def profile(spec: ResponseSpec, scale: float, points: np.ndarray,
                u: float):
        """The mean bulk log-likelihood at ``scale`` as a function of nu
        (scalar or array), from one pass over ``points``.

        With t = (r-1)/(r+1) and w = -2 log1p(r) - log g'(r) per point
        the mean separates into c(nu) - sum(t^2)/(2 n nu^2) + sum(w)/n
        - log s - log pos_mass(nu) - log bulk_mass(nu, s), so the pass
        keeps only (count, sum t^2, sum w) of the points whose t and w
        are finite; the rest score the floor, whatever nu.
        """
        n_ok, st2, sw = 0, 0.0, 0.0
        for r in _ratios(spec, scale, points):
            with np.errstate(invalid="ignore"):
                t = (r - 1.0) / (r + 1.0)
                w = -2.0 * np.log1p(r) - spec.log_deriv(r)
            ok = np.isfinite(t) & np.isfinite(w)
            t = t[ok]
            n_ok += t.size
            st2 += float(np.dot(t, t))
            sw += float(np.sum(w[ok]))
        r_u = _threshold_ratio(spec, scale, u)
        t_u = (r_u - 1.0) / (r_u + 1.0)
        n = points.size
        share = n_ok / n
        rest = (sw - n_ok * math.log(scale) + (n - n_ok) * _LL_FLOOR) / n
        half_st2 = 0.5 * st2 / n

        def score(nu):
            edge = ndtr(1.0 / nu)
            pos_mass = 2.0 * edge - 1.0
            bulk_mass = 2.0 * (ndtr(t_u / nu) - (1.0 - edge)) / pos_mass - 1.0
            usable = bulk_mass > 0.0
            ll = (share * np.log(2.0 / (_SQRT_2PI * nu * pos_mass))
                  - half_st2 / (nu * nu) + rest
                  - np.log(np.where(usable, bulk_mass, 1.0)))
            out = np.where(usable, ll, _LL_FLOOR)
            return out if out.ndim else float(out)

        return score

    def bulk_score(self, spec: ResponseSpec, scale: float,
                   points: np.ndarray, u: float) -> float:
        """Average conditional log-likelihood of the sub-threshold points."""
        return self.profile(spec, scale, points, u)(self.nu)

    @classmethod
    def search(cls, spec: ResponseSpec, sub: np.ndarray, u: float,
               q95: float, rho: float):
        """Maximize over log-scale the bulk likelihood profiled over nu.

        Each log-scale costs one pass, after which nu is maximized on
        scalars: the nu grid, then bounded Brent between the best grid
        point's neighbours (out to _NU_LO / _NU_HI at the grid's ends).
        Log-scale is searched the same way from the nu grid's scale
        seeds, 1.5 past the outer seeds.
        """
        best_nu = {}

        def profiled(log_scale: float) -> float:
            score = cls.profile(spec, math.exp(log_scale), sub, u)
            value, best_nu[log_scale] = _maximize(
                score, _NU_GRID, score(_NU_GRID), _NU_LO, _NU_HI, 1e-9)
            return value

        seeds = np.sort([_scale_seed(spec, cls(nu), q95) for nu in _NU_GRID])
        values = [profiled(ls) for ls in seeds]
        _, log_scale = _maximize(profiled, seeds, values, seeds[0] - 1.5,
                                 seeds[-1] + 1.5, 1e-7)
        nu = best_nu[log_scale]
        return nu, math.exp(log_scale), cls(nu)


class _CorrelatedLaw:
    """Ratio law for the unit-mean pair with spread nu and correlation
    -1 < rho < 1, through the closed forms of ``density``."""

    def __init__(self, nu: float, rho: float):
        self.params = OrderFlowParams(1.0, 1.0, nu, nu, rho)
        self.pos_mass = positive_ratio_mass(self.params)

    def log_pdf(self, r):
        return np.log(ratio_density(self.params, r))

    def cdf_pos(self, r):
        return ((ratio_cdf(self.params, r) - (1.0 - self.pos_mass))
                / self.pos_mass)

    def quantile_pos(self, p):
        return invert_monotone(self.cdf_pos, p)

    def bulk_score(self, spec: ResponseSpec, scale: float,
                   points: np.ndarray, u: float) -> float:
        """Average conditional log-likelihood of the sub-threshold points."""
        total = 0.0
        for r in _ratios(spec, scale, points):
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                ll = (self.log_pdf(r) - math.log(scale) - spec.log_deriv(r)
                      - math.log(self.pos_mass))
            total += float(np.sum(np.where(np.isfinite(ll), ll, _LL_FLOOR)))
        r_u = _threshold_ratio(spec, scale, u)
        bulk_mass = 2.0 * float(self.cdf_pos(r_u)) - 1.0
        if bulk_mass <= 0.0:
            return _LL_FLOOR
        return total / points.size - math.log(bulk_mass)

    @classmethod
    def search(cls, spec: ResponseSpec, sub: np.ndarray, u: float,
               q95: float, rho: float):
        """Profile nu on the grid with an inner bounded log-scale fit, then
        polish (nu, log-scale) by Nelder-Mead.

        The Hinkley density has no nu-free sums, so every step is a pass;
        a profile over scale would take more of them than this search.
        """
        from scipy.optimize import minimize, minimize_scalar

        def negative(law, log_scale: float) -> float:
            return -law.bulk_score(spec, math.exp(log_scale), sub, u)

        best = (math.inf, None, None)
        for nu in _NU_GRID:
            law = cls(float(nu), rho)
            ls0 = _scale_seed(spec, law, q95)
            r = minimize_scalar(lambda ls: negative(law, ls),
                                bounds=(ls0 - 1.5, ls0 + 1.5),
                                method="bounded", options={"xatol": 1e-7})
            if r.fun < best[0]:
                best = (r.fun, float(nu), float(r.x))
        _, nu0, ls0 = best

        res = minimize(
            lambda th: negative(cls(_nu_from_t(th[0]), rho), th[1]),
            x0=np.array([_t_from_nu(nu0), ls0]), method="Nelder-Mead",
            options={"xatol": 1e-7, "fatol": 1e-10, "maxiter": 400})
        nu0, ls0 = _nu_from_t(res.x[0]), float(res.x[1])
        return nu0, math.exp(ls0), cls(nu0, rho)


def _nu_from_t(t: float) -> float:
    return _NU_LO + (_NU_HI - _NU_LO) / (1.0 + math.exp(-t))


def _t_from_nu(nu: float) -> float:
    nu = min(max(nu, _NU_LO + 1e-6), _NU_HI - 1e-6)
    return math.log((nu - _NU_LO) / (_NU_HI - nu))


def _law_class(rho: float):
    return _AnticorrLaw if rho == -1.0 else _CorrelatedLaw


# ---------------------------------------------------------------------------
# per-family fitting stages
# ---------------------------------------------------------------------------

def _tail_stage(family: Family, exc: np.ndarray, u: float):
    """Fit the family parameter on exceedances; return (param, tail score)."""
    ln_ratio = np.log(exc / u)
    mean_ln_exc = float(np.mean(np.log(exc)))

    def pareto_ll(alpha):
        return math.log(alpha) + alpha * math.log(u) - (alpha + 1.0) * mean_ln_exc

    if family is Family.SYM:
        return None, pareto_ll(1.0)
    if family is Family.POWER:
        alpha = exc.size / float(np.sum(ln_ratio))
        alpha = min(max(alpha, 1e-3), 1e3)
        return 1.0 / alpha, pareto_ll(alpha)
    if family is Family.ODD_POWER:
        best = max(_ODD_SCAN, key=lambda n: pareto_ll(1.0 / n))
        return float(best), pareto_ll(1.0 / best)
    if family is Family.LOG:
        rate = 1.0 / float(np.mean(exc - u))
        return None, math.log(rate) - 1.0
    if family is Family.LOG_POWER:
        # profile out the scale: with t = s**-p the conditional stretched
        # likelihood log p + log t + (p-1) E[ln x] + t (u**p - E[x**p])
        # peaks at t = 1/(E[x**p] - u**p)
        def profile(n):
            p = 1.0 / n
            m2 = float(np.mean(exc ** p))
            t = 1.0 / (m2 - u ** p)
            return math.log(p) + math.log(t) + (p - 1.0) * mean_ln_exc - 1.0

        best = max((n for n in _ODD_SCAN if n >= 3), key=profile)
        return float(best), profile(best)
    raise DomainError(f"unsupported candidate family {family}")


def _spec_for(family: Family, param):
    return ResponseSpec(family, param)


def _fit_nuisance(spec: ResponseSpec, q95: float, bulk: np.ndarray,
                  u: float, rho: float):
    """Maximize the conditional bulk likelihood over (spread, scale).

    The likelihood surface has a long curved ridge (bulk width pins only
    the product of spread and scale).  The search runs on a deterministic
    subsample of the bulk, seeded at the scales that match the 0.95
    |change| quantile ``q95`` on a 21-point spread grid; the caller
    scores the winner on the full bulk.

    At rho = -1 the mean log-likelihood at a fixed scale depends on the
    points only through three sums, so one pass over the subsample
    gives the whole spread profile: the search is a bounded Brent over
    log-scale of that profile, maximized over the spread on scalars.
    For other rho every evaluation is a pass, and the spread grid with an
    inner scale fit is polished by Nelder-Mead.
    """
    step = max(1, bulk.size // 30000)
    return _law_class(rho).search(spec, bulk[::step], u, q95, rho)


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

@dataclass
class FitResult:
    """Outcome of the family fit.

    ``implied_tail`` always equals the predicted tail of the fitted
    response evaluated at the parameter estimate.  ``scores`` holds the
    composite per-point average log-likelihood of every candidate.
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


def fit_g(changes, candidates=(Family.POWER, Family.LOG), *,
          threshold_quantile: float = 0.998, rho: float = -1.0,
          windows=None, n_boot: int | None = None,
          boot_seed: int = 0, tie_margin: float = _TIE_MARGIN) -> FitResult:
    """Fit candidate response families to a sample of scaled price changes.

    Each family's shape parameter is estimated from the exceedances above
    the threshold quantile of |changes|; the order-flow nuisance (spread
    nu with unit means and correlation ``rho``, plus an output scale) is
    fitted by conditional maximum likelihood on the bulk.  Candidates are
    scored by

        (1 - p_tail) * bulk conditional loglik + p_tail * tail loglik

    per point, the family-independent split entropy dropped.  The top
    score wins; a near-tie within ``tie_margin`` goes to the family with
    fewer parameters when that breaks the tie and otherwise raises
    NonIdentifiableError.

    The default split quantile is deep (99.8th) because the asymptotic
    tail laws only take over well past the bulk; shallower thresholds mix
    in pre-asymptotic curvature and bias the shape parameter.

    ``windows`` (from relative_changes) enables window-level bootstrap of
    the parameter standard error, appropriate when windows overlap;
    otherwise a tail-asymptotic standard error is reported for the POWER
    family and none for the discrete families.
    """
    c = np.asarray(changes, dtype=float)
    if c.ndim != 1 or c.size < 100:
        raise DomainError("need a flat sample of at least 100 changes")
    if not np.all(np.isfinite(c)):
        raise DomainError("changes contain non-finite values")
    fams = [Family(f) for f in candidates]
    if not fams:
        raise DomainError("no candidate families given")

    a = np.abs(c)
    u = float(np.quantile(a, threshold_quantile))
    exc = a[a > u]
    if exc.size < MIN_TAIL_POINTS:
        raise InsufficientTailError(
            f"{exc.size} exceedances above the {threshold_quantile:g} "
            f"quantile; need >= {MIN_TAIL_POINTS}")
    q95 = float(np.quantile(a, 0.95))
    if not (q95 > 0.0):
        raise DomainError("changes are identically zero; nothing to fit")
    bulk = c[a <= u]
    p_tail = exc.size / c.size

    notes: list[str] = []
    fitted = {}
    scores = {}
    for fam in fams:
        param, tail_ll = _tail_stage(fam, exc, u)
        spec = _spec_for(fam, param)
        nu, scale, law = _fit_nuisance(spec, q95, bulk, u, rho)
        bulk_ll = law.bulk_score(spec, scale, bulk, u)
        score = (1.0 - p_tail) * bulk_ll + p_tail * tail_ll
        fitted[fam] = (spec, param, nu, scale)
        scores[fam.value] = score

    ranked = sorted(fams, key=lambda f: scores[f.value], reverse=True)
    best = ranked[0]
    if len(ranked) > 1:
        gap = scores[best.value] - scores[ranked[1].value]
        if gap < tie_margin:
            n0, n1 = _PARAM_COUNT[best], _PARAM_COUNT[ranked[1]]
            if n0 != n1:
                best = ranked[0] if n0 < n1 else ranked[1]
                notes.append(
                    f"near-tie (gap {gap:.2e}/point) resolved toward fewer "
                    f"parameters: {best.value}")
            else:
                raise NonIdentifiableError(
                    f"candidates {ranked[0].value} and {ranked[1].value} "
                    f"score within {tie_margin:g} per point", scores=scores)

    spec, param, nu, scale = fitted[best]
    stderr = _param_stderr(best, param, c, windows, threshold_quantile,
                           n_boot, boot_seed, exc.size)
    return FitResult(response=spec, param_estimate=param, param_stderr=stderr,
                     implied_tail=spec.predicted_tail(), scores=scores,
                     n_samples=int(c.size), threshold=u,
                     nuisance_spread=nu, nuisance_scale=scale, notes=notes)


def _param_stderr(family: Family, param, changes, windows,
                  threshold_quantile, n_boot, boot_seed, k_exc):
    if param is None:
        return None
    if windows is None:
        if family is Family.POWER:
            # delta method through q = 1/alpha: sd(q) ~ q / sqrt(k)
            return float(param) / math.sqrt(k_exc)
        return None
    n_boot = 50 if n_boot is None else int(n_boot)
    if n_boot <= 0:
        return float(param) / math.sqrt(k_exc) if family is Family.POWER else None
    rng = np.random.default_rng(boot_seed)
    pool = _ExceedancePool(list(windows), threshold_quantile)
    estimates = []
    for _ in range(n_boot):
        pick = rng.integers(0, pool.n_windows, size=pool.n_windows)
        u, exc = pool.resample(pick)
        if exc.size < MIN_TAIL_POINTS:
            continue
        est, _ = _tail_stage(family, exc, u)
        estimates.append(est)
    if len(estimates) < 2:
        return None
    return float(np.std(estimates, ddof=1))


class _ExceedancePool:
    """|windows| stacked once, and the values of each window at or above a
    cutoff c, the full sample's 1 - 4(1 - q) quantile, in window order.

    A resample (windows ``pick``, repeats allowed) concatenates the picked
    |windows|; its threshold is their q quantile and its exceedances the
    values above it, in order.  When the picked pools hold both order
    statistics that np.quantile interpolates, the threshold is numpy's own
    interpolation of those two, and the exceedances are the picked pools'
    values above it: both equal the full resample's bit for bit.
    Otherwise the resample is built in full.
    """

    def __init__(self, windows: list, q: float):
        self.q = q
        self.n_windows = len(windows)
        sizes = np.array([len(w) for w in windows], dtype=np.intp)
        self.values = _Segments(np.abs(np.concatenate(windows)), sizes)
        c = np.quantile(self.values.data, max(0.0, 1.0 - 4.0 * (1.0 - q)))
        keep = self.values.data >= c
        window_of = np.repeat(np.arange(self.n_windows), sizes)
        self.pool = _Segments(self.values.data[keep], np.bincount(
            window_of[keep], minlength=self.n_windows))
        self.cutoff = float(c)

    def resample(self, pick: np.ndarray):
        """(threshold, exceedances) of the resample ``pick``."""
        n = int(self.values.sizes[pick].sum())
        below = n - int(self.pool.sizes[pick].sum())  # values under c
        index = (n - 1) * self.q                      # np.quantile's
        k = math.floor(index)
        if below <= k < n - 1:
            pooled = self.pool.gather(pick)
            j = k - below
            lo, hi = np.partition(pooled, (j, j + 1))[j:j + 2]
            u = float(np.quantile(np.array([lo, hi]), index - k))
            if u >= self.cutoff:
                return u, pooled[pooled > u]
        sample = self.values.gather(pick)
        u = float(np.quantile(sample, self.q))
        return u, sample[sample > u]


class _Segments:
    """An array cut into consecutive segments of the given sizes."""

    def __init__(self, data: np.ndarray, sizes: np.ndarray):
        self.data, self.sizes = data, sizes
        self.starts = np.cumsum(sizes) - sizes

    def gather(self, pick: np.ndarray) -> np.ndarray:
        """The segments ``pick`` concatenated, in pick order."""
        lengths = self.sizes[pick]
        shift = self.starts[pick] - (np.cumsum(lengths) - lengths)
        return self.data[np.arange(lengths.sum()) + np.repeat(shift, lengths)]


def fit_price_series(series: PriceSeries, w: WindowSpec,
                     candidates=(Family.POWER, Family.LOG), *,
                     interpolate: bool = False, **fit_kw) -> FitResult:
    """relative_changes + fit_g with window bootstrap wired through."""
    flat, windows, notes = relative_changes(series, w, interpolate=interpolate,
                                            return_windows=True)
    result = fit_g(flat, candidates, windows=windows, **fit_kw)
    result.notes.extend(notes)
    rej = series.meta.get("rejected")
    if rej:
        result.notes.append(f"simulator_rejections={rej}")
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
