"""Tail-shape estimation: survival index, decay rate, stretched shape.

Estimators work on exceedances above a high threshold (default the 99th
percentile) and the classifier picks among candidate decay classes by the
average per-point log-likelihood of the tail-conditional laws at their
maxima, on numpy alone (the stretched shape by bounded Brent, every
scale in closed form).  No formal goodness-of-fit machinery: candidates
are non-nested and the question is only which decay describes the
exceedances best.  The package's quantiles come from here too:
``quantile``, np.quantile's bit for bit at any number of q, one select.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (DegenerateTailError, DomainError, InsufficientTailError,
                     NonpositiveSampleError)
from .response import TailClass, TailKind

__all__ = [
    "HillResult",
    "hill",
    "RankRegression",
    "rank_regression",
    "TailReport",
    "classify_tail",
    "threshold_sweep",
    "check_tail_options",
    "check_return_interval",
    "quantile",
    "pareto_index",
    "pareto_loglik",
    "exponential_fit",
    "stretched_loglik",
    "stretched_scale",
    "DEFAULT_CANDIDATES",
]

MIN_TAIL_POINTS = 10
DEFAULT_CANDIDATES = (TailKind.POWER_LAW, TailKind.EXPONENTIAL)


@dataclass(frozen=True)
class HillResult:
    alpha: float          # survival index: P(X > x) ~ x**-alpha
    stderr: float         # alpha / sqrt(k)
    k_used: int
    threshold: float

    @property
    def density_exponent(self) -> float:
        return 1.0 + self.alpha


def hill(samples, k: int) -> HillResult:
    """Maximum-likelihood survival index from the top k order statistics.

    alpha = k / sum(log(X_(n-i+1) / X_(n-k))), i = 1..k.  Depends only on
    ratios of order statistics, hence scale-free.
    """
    x = np.asarray(samples, dtype=float)
    n = x.size
    if k < MIN_TAIL_POINTS:
        raise InsufficientTailError(f"k={k} below the minimum {MIN_TAIL_POINTS}")
    if k >= n:
        raise InsufficientTailError(f"k={k} must be below the sample count {n}")
    if np.any(x <= 0.0):
        raise NonpositiveSampleError("survival-index estimation needs positive samples")
    part = np.partition(x, n - k - 1)
    threshold = part[n - k - 1]
    alpha = pareto_index(part[n - k:], threshold)
    return HillResult(alpha=alpha, stderr=alpha / np.sqrt(k), k_used=k,
                      threshold=float(threshold))


@dataclass(frozen=True)
class RankRegression:
    slope: float
    stderr: float
    k_used: int
    threshold: float


def rank_regression(samples, tail_fraction: float, *,
                    log_x: bool = True) -> RankRegression:
    """Least-squares slope of the empirical log-survival over the top tail.

    With ``log_x`` the regressor is log(x) and a power tail shows slope
    -alpha; without it the regressor is x itself (semi-log mode) and an
    exponential tail shows slope -rate.
    """
    if not (0.0 < tail_fraction < 1.0):
        raise DomainError(f"tail fraction must lie in (0, 1), got {tail_fraction}")
    x = np.asarray(samples, dtype=float)
    n = x.size
    k = int(np.floor(tail_fraction * n))
    if k < 50:
        raise InsufficientTailError(
            f"top {tail_fraction:g} of {n} samples is {k} points; need >= 50")
    srt = np.sort(x)
    tail = srt[n - k:]
    if tail[0] <= 0.0 and log_x:
        raise NonpositiveSampleError("log-log regression needs positive tail values")
    surv = np.arange(k, 0, -1, dtype=float) / n
    reg = np.log(tail) if log_x else tail
    resp = np.log(surv)
    slope, icpt = np.polyfit(reg, resp, 1)
    resid = resp - (slope * reg + icpt)
    sxx = float(np.sum((reg - reg.mean()) ** 2))
    stderr = float(np.sqrt(np.sum(resid ** 2) / (k - 2) / sxx))
    return RankRegression(slope=float(slope), stderr=stderr, k_used=k,
                          threshold=float(tail[0]))


# ---------------------------------------------------------------------------
# order statistics
# ---------------------------------------------------------------------------

def _tied(a: np.ndarray) -> bool:
    """Whether one value fills 1/16 or more of the evenly strided values
    a[::len(a) // 1024], 1024 to 2047 of them (all of a below 2048).

    Numpy's vectorised single-kth select slows down where one value fills
    much of the range it narrows to: on the 990k |changes| of a 1e6-step
    price path quoted to 1e-5, 82% of them 0, it takes 42 ms against
    np.quantile's 10 ms.  On 990k values with a block of ties at the
    minimum or mid-range filling up to 1/10 of them it never took longer
    than np.quantile, at any q."""
    probe = a[::max(1, a.size // 1024)]
    return np.unique(probe, return_counts=True)[1].max() * 16 >= probe.size


def _select(a: np.ndarray, ks) -> None:
    """Reorder the flat array a in place so that a[k] is its (k+1)-th
    smallest, a NaN last, for each k of ``ks`` (each below its last index):
    numpy's SIMD select at kth = k below the last k, from the largest k
    down, or, where ``_tied(a)``, one introselect at every k and k + 1."""
    if ks and _tied(a):
        a.partition(sorted({j for k in ks for j in (k, k + 1)}))
        return
    stop = a.size
    for k in sorted(set(ks), reverse=True):
        a[:stop].partition(k)
        stop = k


def interpolate(lo: float, hi: float, gamma: float) -> float:
    """np.quantile's linear interpolation between lo <= hi at gamma,
    numpy's own formula (lo + (hi - lo) gamma, or from hi once gamma is
    1/2 or more) in float arithmetic, which rounds as numpy does."""
    diff = float(hi) - float(lo)
    if gamma >= 0.5:
        return float(hi) - diff * (1.0 - gamma)
    return float(lo) + diff * gamma


def quantile(a, q, overwrite_input: bool = False):
    """np.quantile(a, q), bit for bit, of a non-empty flat float array at
    0 <= q <= 1, or their list at a sequence of q, from one ``_select`` of
    a copy of a (a itself with ``overwrite_input``) where np.quantile
    partitions at four kth values per q.  Like numpy, it takes the top
    value twice, at gamma = index + 1, once the index reaches the last."""
    a = np.asarray(a, dtype=float)
    part = a if overwrite_input else a.copy()
    last = a.size - 1
    index = [last * p for p in np.atleast_1d(q).tolist()]  # numpy's
    ks = [math.floor(i) for i in index]
    _select(part, [k for k in ks if k < last])
    out = [interpolate(part[k], part[k + 1:].min(), i - k) if k < last
           else interpolate(part.max(), part.max(), i + 1.0)
           for i, k in zip(index, ks)]
    return out if np.ndim(q) else out[0]


# ---------------------------------------------------------------------------
# candidate tail-conditional fits
# ---------------------------------------------------------------------------

def pareto_index(exc: np.ndarray, u: float) -> float:
    """Maximum-likelihood Pareto index k / sum(log(x / u)) of the k
    exceedances ``exc`` over the threshold ``u``."""
    logsum = float(np.sum(np.log(exc / u)))
    if logsum <= 0.0:
        raise DegenerateTailError("all tail points equal the threshold")
    return exc.size / logsum


def pareto_loglik(exc: np.ndarray, u: float, alpha: float) -> float:
    """Mean log-likelihood of the exceedances under the Pareto law
    conditioned on x > u, density alpha u**alpha / x**(alpha + 1).

    Scalar logs here go through numpy, not math.log, which differs in
    the last bit for a few inputs in a thousand."""
    return float(np.log(alpha) + alpha * np.log(u)
                 - (alpha + 1.0) * np.mean(np.log(exc)))


def exponential_fit(exc: np.ndarray, u: float) -> tuple[float, float]:
    """(rate, mean log-likelihood) of the exponential law conditioned on
    x > u at its maximum-likelihood rate 1/E[x - u], where the mean
    log-likelihood log(rate) - rate E[x - u] is log(rate) - 1."""
    mean_excess = float(np.mean(exc - u))
    if mean_excess <= 0.0:
        raise DegenerateTailError("zero mean excess above the threshold")
    rate = 1.0 / mean_excess
    return rate, float(np.log(rate) - 1.0)


def stretched_loglik(exc: np.ndarray, u: float, p: float,
                     log_s: float) -> float:
    """Mean log-likelihood of the exceedances under the stretched law
    conditioned on x > u, survival exp((u/s)**p - (x/s)**p):

        log p - p log s + (p - 1) E[ln x] + (u/s)**p - E[(x/s)**p]
    """
    s = np.exp(log_s)
    return float(np.log(p) - p * log_s + (p - 1.0) * np.mean(np.log(exc))
                 + (u / s) ** p - np.mean((exc / s) ** p))


def _tilted(lx: np.ndarray, p: float):
    """(top, w, m0) of lx = ln(x/u) > 0: top = p max(lx), w = e**(p lx - top)
    and m0 = E[w (1 - e**(-p lx))] = E[expm1(p lx)] e**-top."""
    top = p * float(np.max(lx))
    w = np.exp(p * lx - top)
    return top, w, float(np.mean(w * -np.expm1(-p * lx)))


def stretched_scale(exc: np.ndarray, u: float, p: float) -> float:
    """log s at the maximum-likelihood scale for shape p: s**p = E[x**p] -
    u**p = u**p E[expm1(p ln(x/u))] (Cohen 1965, Technometrics 7(4))."""
    top, _, m0 = _tilted(np.log(exc / u), p)
    return float(np.log(u) + (top + np.log(m0)) / p)


def _fit_power(exc: np.ndarray, u: float):
    alpha = pareto_index(exc, u)
    est = 1.0 + alpha  # density exponent
    return (TailClass.power_law(est), est, alpha / np.sqrt(exc.size),
            pareto_loglik(exc, u, alpha))


def _fit_exponential(exc: np.ndarray, u: float):
    rate, loglik = exponential_fit(exc, u)
    return TailClass.exponential(rate), rate, rate / np.sqrt(exc.size), loglik


_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))  # scipy's constants, as it
_SQRT_EPS = math.sqrt(2.2e-16)           # writes them


def _bounded_brent(f, a: float, b: float, xatol: float):
    """(x, f(x)) of Brent's bounded minimisation of f on [a, b]: golden
    sections and parabolic steps, as scipy.optimize.minimize_scalar with
    method="bounded" takes them, step for step, so both return the same
    x and f(x) bit for bit.  Stops once the bracket is within xatol, or
    after 500 evaluations of f (scipy's default cap)."""
    fulc = a + _GOLDEN * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = f(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabola through the last three points
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 if xm >= xf else -tol1
            else:
                golden = True
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = _GOLDEN * e
        x = xf + (-1.0 if rat < 0.0 else 1.0) * max(abs(rat), tol1)
        fu = f(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= 500:
            break
    return xf, fx


def _interior(x: float, a: float, b: float, xatol: float) -> bool:
    """Whether x, as _bounded_brent(f, a, b, xatol) returns it, ends more
    than the search's stopping width tol2 inside [a, b]; an x within tol2
    of a bound may be the bound's, and then no minimum of f."""
    tol = 2.0 * (_SQRT_EPS * abs(x) + xatol / 3.0)  # tol2 at x
    return a + tol < x < b - tol


def stretched_tail_fit(exc: np.ndarray, u: float):
    """Fit the stretched law exp(-(x/s)**p), conditioned on x > u, to the
    exceedances by profile maximum likelihood: the scale in closed form
    (``stretched_scale``), the shape p by bounded Brent on [0.02, 6].
    The stderr of p is 1/sqrt(-k l''(p)) of the per-point profile l(p),
    -l'' = 1/p**2 + M2/M0 - (M1/M0)**2 with M0 = E[expm1(p lx)] and
    Mj = E[lx**j exp(p lx)], lx = ln(x/u); NaN where l'' is not negative,
    and where p ends within the search's tolerance of a bound, which is
    then no maximum of the profile.
    """
    lo, hi, xatol = 0.02, 6.0, 1e-8
    p, neg_ll = _bounded_brent(
        lambda p: -stretched_loglik(exc, u, p, stretched_scale(exc, u, p)),
        lo, hi, xatol)
    lx = np.log(exc / u)
    _, w, m0 = _tilted(lx, p)
    m1 = float(np.mean(lx * w)) / m0
    curvature = 1.0 / p ** 2 + float(np.mean(lx * lx * w)) / m0 - m1 * m1
    p_err = (1.0 / math.sqrt(exc.size * curvature)
             if _interior(p, lo, hi, xatol) and curvature > 0 else math.nan)
    return TailClass.stretched(p), p, p_err, -neg_ll


_FITTERS = {
    TailKind.POWER_LAW: _fit_power,
    TailKind.EXPONENTIAL: _fit_exponential,
    TailKind.STRETCHED_EXPONENTIAL: stretched_tail_fit,
}


@dataclass
class TailReport:
    """Selected tail class with per-candidate average log-likelihoods."""

    tail: TailClass
    estimate: float        # density exponent / rate / stretched shape
    stderr: float
    k_used: int
    threshold: float
    n_total: int
    loglik: dict = field(default_factory=dict)  # TailKind -> per-point score

    def key_values(self) -> dict:
        return {"class": self.tail.kind.value, "estimate": self.estimate,
                "stderr": self.stderr, "k_used": self.k_used,
                "threshold": self.threshold, "n_total": self.n_total,
                **{f"loglik.{k.value}": ll for k, ll in self.loglik.items()}}


def _prepare(x: np.ndarray, side: str) -> np.ndarray:
    """The magnitudes on ``side`` of the samples; fewer than
    MIN_TAIL_POINTS of them raise InsufficientTailError."""
    if side == "abs":
        a = np.abs(x)
    elif side == "right":
        a = x[x > 0]
    elif side == "left":
        a = -x[x < 0]
    else:
        raise DomainError(f"side must be abs, right or left, got {side!r}")
    if a.size < MIN_TAIL_POINTS:
        raise InsufficientTailError(
            f"{a.size} samples on side {side}; need >= {MIN_TAIL_POINTS}")
    return a


def check_return_interval(delta_t: float) -> None:
    """Raise DomainError unless the return interval delta_t is positive
    and finite."""
    if not 0.0 < delta_t < math.inf:
        raise DomainError(f"return interval delta_t={delta_t:g} is not "
                          "positive and finite")


def check_tail_options(candidates, threshold_quantile: float,
                       delta_t: float | None = None) -> list:
    """The candidate tail classes of a classification, once its options
    are known good: fewer than two distinct candidates, a threshold
    quantile outside (0, 1) and a return interval ``delta_t`` (when
    given) that is not positive and finite raise DomainError."""
    if delta_t is not None:
        check_return_interval(delta_t)
    kinds = [TailKind(c) for c in candidates]
    if len(set(kinds)) < max(len(kinds), 2):
        raise DomainError("need at least two distinct candidate tail classes, "
                          f"got [{', '.join(k.value for k in kinds)}]")
    if not 0.0 < threshold_quantile < 1.0:
        raise DomainError(f"threshold quantile {threshold_quantile} is "
                          "outside (0, 1)")
    return kinds


def classify_tail(samples, candidates=DEFAULT_CANDIDATES, *,
                  threshold_quantile: float = 0.99,
                  side: str = "abs") -> TailReport:
    """Pick the best-scoring decay class for the exceedance tail.

    Fits each candidate by maximum likelihood on exceedances above the
    threshold quantile of |samples| and selects the highest average
    log-likelihood; all scores are reported.  Returns magnitudes
    two-sided by default since an antisymmetric response makes both
    tails alike; pass side="right" or "left" to study one side.  Bad
    candidates, samples or quantile raise DomainError.
    """
    return threshold_sweep(samples, candidates, side=side,
                           quantiles=(threshold_quantile,))[0]


def threshold_sweep(samples, candidates=DEFAULT_CANDIDATES, *,
                    quantiles=(0.98, 0.99, 0.995), side: str = "abs"):
    """classify_tail across several thresholds, for sensitivity reporting,
    from one |samples| that ``quantile`` reorders; |x| > u just where
    x > u or x < -u."""
    qs = tuple(quantiles)
    kinds = [check_tail_options(candidates, q) for q in qs]
    x = np.asarray(samples, dtype=float)
    bad = x[~np.isfinite(x)]
    if bad.size:
        raise DomainError(f"non-finite samples: {bad.size} of {x.size}, "
                          f"the first is {bad.flat[0]}")
    a = _prepare(x, side)
    n_total, thresholds = int(a.size), quantile(a, qs, overwrite_input=True)
    del a
    reports = []
    for q, u in zip(qs, thresholds):
        if u <= 0.0:
            raise DomainError("threshold is nonpositive; samples too concentrated at 0")
        exc = (x[x > u] if side == "right" else -x[x < -u] if side == "left"
               else np.abs(x[(x > u) | (x < -u)]))
        if exc.size < MIN_TAIL_POINTS:
            raise InsufficientTailError(
                f"{exc.size} exceedances above quantile {q}; "
                f"need >= {MIN_TAIL_POINTS}")
        if float(np.max(exc)) == float(np.min(exc)):
            raise DegenerateTailError("all exceedances are identical")
        results = {kind: _FITTERS[kind](exc, u) for kind in kinds[0]}
        best = max(kinds[0], key=lambda k: results[k][3])
        tail, est, err, _ = results[best]
        reports.append(TailReport(
            tail=tail, estimate=est, stderr=err, k_used=int(exc.size),
            threshold=u, n_total=n_total,
            loglik={k: results[k][3] for k in kinds[0]}))
    return reports
