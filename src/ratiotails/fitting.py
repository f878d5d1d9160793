"""Recover the response family from an observed price series.

The pipeline approximates the log-price velocity by scaled forward
differences (P(s+dt) - P(s)) / (P(s) * dt) collected over sliding
windows, then fits candidate response families to the distribution of
those changes.  Fitting is two-stage: the family's shape parameter comes
from the exceedance tail by maximum likelihood, while the order-flow
nuisance (a symmetric coefficient of variation plus an output scale
absorbing the adjustment time constant) is fitted by conditional
likelihood on the bulk, under one ratio law for every correlation:
``density``'s closed forms.  At the default correlation rho = -1 that
search is a bounded Brent over log-scale, bracketed by the 0.95 |change|
quantile, around a bounded Brent over the spread at each scale; it runs
on numpy and the standard library alone (erf closed forms, a port of
scipy's bounded Brent).  Any other rho polishes with scipy's Nelder-Mead
on Hinkley's density, and only then loads scipy; there each candidate's
tail stage and search run on their own thread, up to the usable CPUs,
and the result does not depend on how many there are.  Families are
then ranked by a composite average log-likelihood over bulk and tail,
and near-ties go to the family with fewer parameters or are reported
as non-identifiable.

All reported response shapes are identified only up to the time-constant
scale, which no price series can pin down by itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .density import (OrderFlowParams, positive_ratio_mass, ratio_cdf,
                      ratio_density)
from .errors import (DomainError, InsufficientTailError, NonIdentifiableError,
                     TimestampError, WindowError)
from .parallel import thread_map, usable_cpus
from .response import Family, ResponseSpec, TailClass
from .simulate import PriceSeries
from .tails import (MIN_TAIL_POINTS, _bounded_brent, _interior,
                    exponential_fit, pareto_index, pareto_loglik,
                    stretched_loglik, stretched_scale)

__all__ = [
    "WindowSpec",
    "relative_changes",
    "scaled_returns",
    "FitResult",
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
    h = float(np.median(diffs))
    if np.all(np.abs(diffs - h) <= 1e-9 * h):
        return h
    return None


def _step_multiple(times: np.ndarray, delta_t: float) -> tuple[int, float]:
    """(j, h): the step h of uniformly spaced ``times`` and the integer j
    with delta_t = j h.  Ragged stamps, or a delta_t that is no positive
    multiple of h, raise TimestampError."""
    h = _uniform_step(times)
    if h is None:
        raise TimestampError(
            f"returns over {delta_t:g} need uniformly spaced timestamps")
    j = delta_t / h  # round raises on nan and inf
    if not math.isfinite(j) or abs(j - round(j)) > 1e-6 * max(j, 1.0) \
            or round(j) < 1:
        raise TimestampError(
            f"delta_t={delta_t:g} is not a positive multiple of the "
            f"sampling step {h:g}")
    return int(round(j)), h


def scaled_returns(series: PriceSeries, delta_t: float) -> np.ndarray:
    """(P(t + delta_t) - P(t)) / (P(t) delta_t) at every stamp t of a
    uniformly stamped series, as expm1 of log-price differences.  A
    delta_t that reaches past the series' span raises WindowError."""
    j, h = _step_multiple(series.times, delta_t)
    lp = series.log_prices
    if j >= lp.size:
        raise WindowError(f"returns over {delta_t:g} need a longer series; "
                          f"it spans {series.times[-1] - series.times[0]:g}")
    return np.expm1(lp[j:] - lp[:-j]) / (j * h)


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
    s on the sampling grid.  Computed as expm1 of log-price differences,
    which is exact even when the changes are tiny.  Overlapping windows
    are allowed; the window structure is the unit for bootstrap
    resampling downstream.  The windows are the rows of one 2-D array,
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
    dt_eff = j * h
    m = int(math.floor(w.big_delta_t / h * (1 + 1e-12)))
    if m <= j:
        raise WindowError("window shorter than one sampling subinterval")
    stride_pts = max(1, int(round(w.stride / h)))

    n = len(logp)
    if n < m:
        raise WindowError(
            f"series of {n} points holds no window of {m} points")
    segs = np.lib.stride_tricks.sliding_window_view(logp, m)[::stride_pts]
    rows = segs[:, j:] - segs[:, :-j]
    np.expm1(rows, out=rows)
    rows /= dt_eff
    flat = rows.reshape(-1)
    if return_windows:
        return flat, rows, notes
    return flat


# ---------------------------------------------------------------------------
# the nuisance ratio law (demand/supply pair with unit means)
# ---------------------------------------------------------------------------

_NU_LO, _NU_HI = 0.02, 0.97
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


def _pos_mass(nu: float) -> float:
    """P(R > 0) = P(|Z| < 1/nu) of the rho = -1 law with spread nu:
    positive_ratio_mass's erf form at unit means, bit for bit."""
    return math.erf(1.0 / nu / _SQRT_2)


def _masses(nu: float, t_u: float) -> tuple[float, float]:
    """(P(R > 0), P(1/r_u < R < r_u | R > 0)) of the rho = -1 law with
    spread nu, where t_u = (r_u - 1)/(r_u + 1): R < r_u exactly when
    Z < t_u/nu, so the bulk mass is P(|Z| < t_u/nu) / P(|Z| < 1/nu), a
    ratio of erf values that does not cancel.  It is not positive when
    t_u <= 0, and NaN when t_u is."""
    pos_mass = _pos_mass(nu)
    return pos_mass, math.erf(t_u / (nu * _SQRT_2)) / pos_mass


def _scale_seed(spec: ResponseSpec, nu: float, q95: float) -> float:
    """Log of the scale that puts the 0.95 |change| quantile of the
    rho = -1 law with spread ``nu`` at q95: by symmetry, its signed 0.975
    quantile given R > 0, through R = (1 + nu Z)/(1 - nu Z)."""
    from statistics import NormalDist  # fractions and decimal: not at import

    z = NormalDist().inv_cdf(0.5 + 0.475 * _pos_mass(nu))
    r = (1.0 + nu * z) / (1.0 - nu * z)
    return math.log(q95 / float(spec.value(r)))


class _RatioLaw:
    """Ratio law for the unit-mean pair with spread nu and correlation
    -1 <= rho < 1, through the closed forms of ``density``."""

    def __init__(self, nu: float, rho: float):
        self.params = OrderFlowParams(1.0, 1.0, nu, nu, rho)
        self.pos_mass = positive_ratio_mass(self.params)

    def log_pdf(self, r):
        if self.params.is_anticorrelated:
            # Taken in log space: the density's (1 + r)**2 overflows, and
            # at small nu its exp(-z**2/2) underflows, on ratios whose
            # change density is still far inside float range.
            nu = self.params.sigma1
            z = (r - 1.0) / (nu * (r + 1.0))
            return (math.log(2.0 / (_SQRT_2PI * nu))
                    - 0.5 * z * z - 2.0 * np.log1p(r))
        return np.log(ratio_density(self.params, r))

    def cdf_pos(self, r):
        return ((ratio_cdf(self.params, r) - (1.0 - self.pos_mass))
                / self.pos_mass)

    def change_log_pdf(self, spec: ResponseSpec, scale: float, r):
        """log f_R(r) - log s - log g'(r) - log P(R > 0): the log density,
        given R > 0, of the change y = s g(r) at the ratio r behind it.
        Not finite where r is no positive finite ratio."""
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return (self.log_pdf(r) - math.log(scale) - spec.log_deriv(r)
                    - math.log(self.pos_mass))

    def bulk_score(self, spec: ResponseSpec, scale: float,
                   points: np.ndarray, u: float) -> float:
        """Average conditional log-likelihood of the sub-threshold points."""
        if self.params.is_anticorrelated:
            return _profile(spec, scale, points, u)(self.params.sigma1)
        total = 0.0
        for r in _ratios(spec, scale, points):
            ll = self.change_log_pdf(spec, scale, r)
            total += float(np.sum(np.where(np.isfinite(ll), ll, _LL_FLOOR)))
        r_u = _threshold_ratio(spec, scale, u)
        bulk_mass = 2.0 * float(self.cdf_pos(r_u)) - 1.0
        if bulk_mass <= 0.0:
            return _LL_FLOOR
        return total / points.size - math.log(bulk_mass)


def _profile(spec: ResponseSpec, scale: float, points: np.ndarray, u: float):
    """The mean bulk log-likelihood at rho = -1 and ``scale`` as a
    function of nu, from one pass over ``points``.

    R = (1 + nu Z)/(1 - nu Z) with Z standard normal, and R > 0 exactly
    when |Z| < 1/nu.  With t = (r-1)/(r+1) and w = -2 log1p(r) - log g'(r)
    per point the mean separates into c(nu) - sum(t^2)/(2 n nu^2)
    + sum(w)/n - log s - log pos_mass(nu) - log bulk_mass(nu, s), so the
    pass keeps only (count, sum t^2, sum w) of the points whose t and w
    are finite; the rest score the floor, whatever nu.  The sums are
    numpy's pairwise ones, which round alike on any number of threads,
    and the score of one nu is plain float arithmetic on them.
    """
    n_ok, st2, sw = 0, 0.0, 0.0
    for r in _ratios(spec, scale, points):
        with np.errstate(invalid="ignore"):
            t = (r - 1.0) / (r + 1.0)
            w = -2.0 * np.log1p(r) - spec.log_deriv(r)
        ok = np.isfinite(t) & np.isfinite(w)
        t = t[ok]
        n_ok += t.size
        st2 += float(np.sum(t * t))
        sw += float(np.sum(w[ok]))
    r_u = _threshold_ratio(spec, scale, u)
    t_u = (r_u - 1.0) / (r_u + 1.0)
    n = points.size
    share = n_ok / n
    rest = (sw - n_ok * math.log(scale) + (n - n_ok) * _LL_FLOOR) / n
    half_st2 = 0.5 * st2 / n

    def score(nu: float) -> float:
        pos_mass, bulk_mass = _masses(nu, t_u)
        if not bulk_mass > 0.0:
            return _LL_FLOOR
        return (share * math.log(2.0 / (_SQRT_2PI * nu * pos_mass))
                - half_st2 / (nu * nu) + rest - math.log(bulk_mass))

    return score


def _nu_from_t(t: float) -> float:
    return _NU_LO + (_NU_HI - _NU_LO) / (1.0 + math.exp(-t))


def _t_from_nu(nu: float) -> float:
    nu = min(max(nu, _NU_LO + 1e-6), _NU_HI - 1e-6)
    return math.log((nu - _NU_LO) / (_NU_HI - nu))


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
    """(nu, scale, law, notes) of the largest conditional bulk likelihood;
    at rho = -1 a note names each of nu and scale that ends on a bound of
    its search, where it need not be the maximum.

    The surface has a long curved ridge (bulk width pins only nu * scale).
    The search runs on a deterministic subsample of the bulk; the caller
    scores the winner on the full bulk.  At rho = -1 one pass at a
    log-scale gives the score for every nu (``_profile``), and a bounded
    Brent takes nu on [_NU_LO, _NU_HI].  Around it a bounded Brent takes
    log-scale, 1.5 past the ``_scale_seed`` of nu = 0.93 and of 0.05 (the
    seed falls as nu grows), one pass per step.  At any other rho every
    step is a pass over Hinkley's density, and Nelder-Mead polishes
    (logit nu, log-scale) from the rho = -1 optimum.
    """
    # gathered once: every pass divides the subsample by a scale, and a
    # strided view makes each of those reads miss the cache
    sub = np.ascontiguousarray(bulk[::max(1, bulk.size // 30000)])
    best_nu = {}

    def negative(log_scale: float) -> float:
        score = _profile(spec, math.exp(log_scale), sub, u)
        best_nu[log_scale], value = _bounded_brent(
            lambda nu: -score(nu), _NU_LO, _NU_HI, 1e-9)
        return value

    lo = _scale_seed(spec, 0.93, q95) - 1.5
    hi = _scale_seed(spec, 0.05, q95) + 1.5
    log_scale, _ = _bounded_brent(negative, lo, hi, 1e-7)
    nu, scale = best_nu[log_scale], math.exp(log_scale)
    notes = []
    if rho == -1.0:
        if not _interior(nu, _NU_LO, _NU_HI, 1e-9):
            notes.append(f"nuisance spread {nu:.6g} is on a bound of its "
                         f"search range [{_NU_LO:g}, {_NU_HI:g}]")
        if not _interior(log_scale, lo, hi, 1e-7):
            notes.append(f"nuisance scale {scale:.6g} is on a bound of its "
                         f"search range [{math.exp(lo):.6g}, {math.exp(hi):.6g}]")
    else:
        from scipy.optimize import minimize

        res = minimize(
            lambda th: -_RatioLaw(_nu_from_t(th[0]), rho).bulk_score(
                spec, math.exp(th[1]), sub, u),
            x0=np.array([_t_from_nu(nu), math.log(scale)]),
            method="Nelder-Mead",
            options={"xatol": 1e-7, "fatol": 1e-10, "maxiter": 400})
        nu, scale = _nu_from_t(res.x[0]), math.exp(float(res.x[1]))
    return nu, scale, _RatioLaw(nu, rho), notes


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
    the parameter standard error, appropriate when windows overlap;
    otherwise a tail-asymptotic standard error is reported for the POWER
    family and none for the discrete families.  Unknown or repeated
    candidates, a threshold quantile outside (0, 1) and a ``rho`` outside
    [-1, 1) raise DomainError.
    """
    c = np.asarray(changes, dtype=float)
    if c.ndim != 1 or c.size < 100:
        raise DomainError("need a flat sample of at least 100 changes")
    if not np.all(np.isfinite(c)):
        raise DomainError("changes contain non-finite values")
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

    a = np.abs(c)
    u, q95 = map(float, np.quantile(a, [threshold_quantile, 0.95]))
    exc = a[a > u]
    if exc.size < MIN_TAIL_POINTS:
        raise InsufficientTailError(
            f"{exc.size} exceedances above the {threshold_quantile:g} "
            f"quantile; need >= {MIN_TAIL_POINTS}")
    if not (q95 > 0.0):
        raise DomainError("changes are identically zero; nothing to fit")
    bulk = c[a <= u]
    del a  # |c| is dead; its memory offsets the search threads' arenas
    p_tail = exc.size / c.size

    def search(fam: Family):
        param, tail_ll = _tail_stage(fam, exc, u)
        spec = ResponseSpec(fam, param)
        return (spec, param, tail_ll) + _fit_nuisance(spec, q95, bulk, u, rho)

    # Off rho = -1 a search is hundreds of passes over Hinkley's density,
    # so each candidate searches on its own thread.  At rho = -1 it is a
    # few dozen ~1 ms passes, which a pool does not shorten.
    threads = 1 if rho == -1.0 else usable_cpus()
    if threads > 1:  # loaded here, not by two search threads at once
        import scipy.optimize  # noqa: F401
    searched = thread_map(search, fams, threads)

    notes: list[str] = []
    fitted = {}
    scores = {}
    # full-bulk scores stay on this thread: scored in a worker, their
    # chunk temporaries would stay resident in that thread's malloc arena
    for fam, (spec, param, tail_ll, nu, scale, law, bound_notes) in zip(
            fams, searched):
        bulk_ll = law.bulk_score(spec, scale, bulk, u)
        score = (1.0 - p_tail) * bulk_ll + p_tail * tail_ll
        fitted[fam] = (spec, param, nu, scale, bound_notes)
        scores[fam.value] = score

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
    stderr = _param_stderr(best, param, c, windows, threshold_quantile,
                           n_boot, boot_seed, exc.size)
    return FitResult(response=spec, param_estimate=param, param_stderr=stderr,
                     implied_tail=spec.predicted_tail(), scores=scores,
                     n_samples=int(c.size), threshold=u,
                     nuisance_spread=nu, nuisance_scale=scale, notes=notes,
                     rho=rho)


def _param_stderr(family: Family, param, changes, windows,
                  threshold_quantile, n_boot, boot_seed, k_exc):
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
    """|windows| flattened once, and its values at or above a cutoff c,
    the full sample's 1 - 4(1 - q) quantile, each with its window.

    A resample is a vector of window counts: every value of a window,
    repeated in place as often as the window was drawn.  When the pooled
    values, so repeated, hold both order statistics that np.quantile
    interpolates, the threshold is numpy's own interpolation of those two
    and the exceedances are the pooled values above it, both bit for bit
    the full resample's.  Otherwise the resample is built in full.
    """

    def __init__(self, windows, q: float):
        self.q = q
        self.sizes = np.array([len(w) for w in windows], dtype=np.intp)
        self.values = np.abs(np.concatenate(windows))
        c = np.quantile(self.values, max(0.0, 1.0 - 4.0 * (1.0 - q)))
        keep = np.flatnonzero(self.values >= c)
        self.pool = self.values[keep]
        self.owner = np.searchsorted(np.cumsum(self.sizes), keep, side="right")
        self.pool_sizes = np.bincount(self.owner, minlength=self.sizes.size)
        self.cutoff = float(c)

    def resample(self, counts: np.ndarray):
        """(threshold, exceedances) of the resample with window ``counts``."""
        n = int(counts @ self.sizes)
        below = n - int(counts @ self.pool_sizes)  # values under c
        index = (n - 1) * self.q                   # np.quantile's
        k = math.floor(index)
        if below <= k < n - 1:
            pooled = np.repeat(self.pool, counts[self.owner])
            j = k - below
            lo, hi = np.partition(pooled, (j, j + 1))[j:j + 2]
            u = float(np.quantile(np.array([lo, hi]), index - k))
            if u >= self.cutoff:
                return u, pooled[pooled > u]
        sample = self.full(counts)
        u = float(np.quantile(sample, self.q))
        return u, sample[sample > u]

    def full(self, counts: np.ndarray) -> np.ndarray:
        """The whole resample with window ``counts``."""
        return np.repeat(self.values, np.repeat(counts, self.sizes))


def fit_price_series(series: PriceSeries, w: WindowSpec,
                     candidates=(Family.POWER, Family.LOG), *,
                     interpolate: bool = False, return_changes: bool = False,
                     **fit_kw):
    """relative_changes + fit_g with window bootstrap wired through.

    With ``return_changes`` the result is (FitResult, changes), the
    changes being the flat values the fit saw."""
    flat, windows, notes = relative_changes(series, w, interpolate=interpolate,
                                            return_windows=True)
    result = fit_g(flat, candidates, windows=windows, **fit_kw)
    result.notes.extend(notes)
    rej = series.meta.get("rejected")
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
