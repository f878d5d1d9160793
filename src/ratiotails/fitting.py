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
from scipy.stats import norm

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

class _AnticorrLaw:
    """Ratio law for the unit-mean anticorrelated pair with spread nu.

    R = (1 + nu Z)/(1 - nu Z) with Z standard normal; R > 0 exactly when
    |Z| < 1/nu, and everything needed here is closed-form through that
    monotone reparametrization.
    """

    def __init__(self, nu: float):
        self.nu = float(nu)
        self._edge = norm.cdf(1.0 / nu)
        self.pos_mass = 2.0 * self._edge - 1.0

    def log_pdf(self, r):
        nu = self.nu
        z = (r - 1.0) / (nu * (r + 1.0))
        return (math.log(2.0 / (math.sqrt(2.0 * math.pi) * nu))
                - 0.5 * z * z - 2.0 * np.log1p(r))

    def cdf_pos(self, r):
        z = (r - 1.0) / (self.nu * (r + 1.0))
        return (norm.cdf(z) - (1.0 - self._edge)) / self.pos_mass

    def quantile_pos(self, p):
        z = norm.ppf((1.0 - self._edge) + np.asarray(p) * self.pos_mass)
        return (1.0 + self.nu * z) / (1.0 - self.nu * z)


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


def _make_law(nu: float, rho: float):
    if rho == -1.0:
        return _AnticorrLaw(nu)
    return _CorrelatedLaw(nu, rho)


# vectorized log-derivatives of the built-in families (fast path for
# likelihood evaluation; cross-checked against ResponseSpec.deriv in tests)
def _log_slope(spec: ResponseSpec, r: np.ndarray) -> np.ndarray:
    q = spec.param
    fam = spec.family
    lr = np.log(r)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if fam is Family.SYM:
            return math.log(0.5) + np.log1p(np.exp(-2.0 * lr))
        if fam is Family.POWER:
            return math.log(q) + np.logaddexp((q - 1.0) * lr, (-q - 1.0) * lr)
        if fam is Family.ODD_POWER:
            n = int(q)
            u = r - 1.0 / r
            return (math.log(n) + (n - 1) * np.log(np.abs(u))
                    + np.log1p(np.exp(-2.0 * lr)))
        if fam is Family.LOG_POWER:
            n = int(q)
            return math.log(n) + (n - 1) * np.log(np.abs(lr)) - lr
        return -lr


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


def _bulk_quantile(spec: ResponseSpec, law, p: float, scale: float) -> float:
    # |c| quantile p maps to the signed quantile (1+p)/2 by symmetry
    r = law.quantile_pos((1.0 + p) / 2.0)
    return scale * float(spec.value(r))


def _bulk_score(spec: ResponseSpec, law, scale: float, bulk: np.ndarray,
                u: float) -> float:
    """Average conditional log-likelihood of the sub-threshold changes."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r = np.asarray(spec.inverse(bulk / scale), dtype=float)
        r = np.where(np.isfinite(r) & (r > 0.0), r, np.inf)
        ll = (law.log_pdf(r) - math.log(scale) - _log_slope(spec, r)
              - math.log(law.pos_mass))
        ll = np.where(np.isfinite(ll), ll, _LL_FLOOR)
        r_u = float(spec.inverse(u / scale))
    bulk_mass = 2.0 * float(law.cdf_pos(r_u)) - 1.0
    if bulk_mass <= 0.0:
        return _LL_FLOOR
    return float(np.mean(ll)) - math.log(bulk_mass)


_NU_LO, _NU_HI = 0.02, 0.97


def _nu_from_t(t: float) -> float:
    return _NU_LO + (_NU_HI - _NU_LO) / (1.0 + math.exp(-t))


def _t_from_nu(nu: float) -> float:
    nu = min(max(nu, _NU_LO + 1e-6), _NU_HI - 1e-6)
    return math.log((nu - _NU_LO) / (_NU_HI - nu))


def _fit_nuisance(spec: ResponseSpec, a: np.ndarray, bulk: np.ndarray,
                  u: float, rho: float):
    """Maximize the conditional bulk likelihood over (spread, scale).

    The likelihood surface has a long curved ridge (bulk width pins only
    the product of spread and scale), so the spread is profiled on a grid
    with an inner one-dimensional scale fit, then polished locally.  The
    profile runs on a deterministic subsample of the bulk; the winner is
    scored on the full bulk by the caller.
    """
    from scipy.optimize import minimize, minimize_scalar

    q95 = float(np.quantile(a, 0.95))
    if not (q95 > 0.0):
        raise DomainError("changes are identically zero; nothing to fit")
    step = max(1, bulk.size // 30000)
    sub = bulk[::step]

    def scale_seed(law) -> float:
        return q95 / _bulk_quantile(spec, law, 0.95, 1.0)

    def negative(law, log_scale: float) -> float:
        return -_bulk_score(spec, law, math.exp(log_scale), sub, u)

    best = (math.inf, None, None)
    for nu in np.geomspace(0.05, 0.93, 21):
        law = _make_law(float(nu), rho)
        ls0 = math.log(scale_seed(law))
        r = minimize_scalar(lambda ls: negative(law, ls),
                            bounds=(ls0 - 1.5, ls0 + 1.5), method="bounded",
                            options={"xatol": 1e-7})
        if r.fun < best[0]:
            best = (r.fun, float(nu), float(r.x))
    _, nu0, ls0 = best

    res = minimize(
        lambda th: negative(_make_law(_nu_from_t(th[0]), rho), th[1]),
        x0=np.array([_t_from_nu(nu0), ls0]), method="Nelder-Mead",
        options={"xatol": 1e-7, "fatol": 1e-10, "maxiter": 400})
    nu0, ls0 = _nu_from_t(res.x[0]), float(res.x[1])
    law = _make_law(nu0, rho)
    return nu0, math.exp(ls0), law


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
    bulk = c[a <= u]
    p_tail = exc.size / c.size

    notes: list[str] = []
    fitted = {}
    scores = {}
    for fam in fams:
        param, tail_ll = _tail_stage(fam, exc, u)
        spec = _spec_for(fam, param)
        nu, scale, law = _fit_nuisance(spec, a, bulk, u, rho)
        bulk_ll = _bulk_score(spec, law, scale, bulk, u)
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
    estimates = []
    windows = list(windows)
    for _ in range(n_boot):
        pick = rng.integers(0, len(windows), size=len(windows))
        sample = np.abs(np.concatenate([windows[i] for i in pick]))
        u = float(np.quantile(sample, threshold_quantile))
        exc = sample[sample > u]
        if exc.size < MIN_TAIL_POINTS:
            continue
        est, _ = _tail_stage(family, exc, u)
        estimates.append(est)
    if len(estimates) < 2:
        return None
    return float(np.std(estimates, ddof=1))


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
