"""Tail-shape estimation: survival index, decay rate, stretched shape.

Estimators work on exceedances above a high threshold (default the 99th
percentile) and the classifier picks among candidate decay classes by the
average per-point log-likelihood of the tail-conditional laws.  No formal
goodness-of-fit machinery: candidates are non-nested and the question is
only which decay describes the exceedances best.
"""

from __future__ import annotations

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
    "pareto_index",
    "pareto_loglik",
    "exponential_fit",
    "stretched_loglik",
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
    dof = max(k - 2, 1)
    sxx = float(np.sum((reg - reg.mean()) ** 2))
    stderr = float(np.sqrt(np.sum(resid ** 2) / dof / sxx))
    return RankRegression(slope=float(slope), stderr=stderr, k_used=k,
                          threshold=float(tail[0]))


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


def _fit_power(exc: np.ndarray, u: float):
    alpha = pareto_index(exc, u)
    est = 1.0 + alpha  # density exponent
    return (TailClass.power_law(est), est, alpha / np.sqrt(exc.size),
            pareto_loglik(exc, u, alpha))


def _fit_exponential(exc: np.ndarray, u: float):
    rate, loglik = exponential_fit(exc, u)
    return TailClass.exponential(rate), rate, rate / np.sqrt(exc.size), loglik


def stretched_tail_fit(exc: np.ndarray, u: float):
    """Fit exp(-(x/s)**p) to the conditional survival of the exceedances.

    Nonlinear least squares of the empirical log-survival against
    (u/s)**p - (x/s)**p in the parameters (p, log s); plug-in likelihood
    of the matching conditional density afterwards.
    """
    from scipy.optimize import least_squares

    exc = np.sort(exc)
    k = exc.size
    surv = (k - np.arange(k) - 0.5) / k
    log_surv = np.log(surv)
    ln_exc = np.log(exc)

    def residuals(theta):
        p, logs = theta
        return ((u / np.exp(logs)) ** p
                - np.exp(p * (ln_exc - logs))) - log_surv

    mean_excess = max(float(np.mean(exc - u)), 1e-300)
    sol = least_squares(residuals, x0=np.array([1.0, np.log(mean_excess + u)]),
                        bounds=([0.02, -60.0], [6.0, 60.0]))
    p, logs = sol.x
    # stderr of p from the Gauss-Newton covariance
    jtj = sol.jac.T @ sol.jac
    dof = max(k - 2, 1)
    sigma2 = 2.0 * sol.cost / dof
    try:
        cov = sigma2 * np.linalg.inv(jtj)
        p_err = float(np.sqrt(max(cov[0, 0], 0.0)))
    except np.linalg.LinAlgError:
        p_err = float("nan")
    return (TailClass.stretched(float(p)), float(p), p_err,
            stretched_loglik(exc, u, p, logs))


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
        d = {"class": self.tail.kind.value, "estimate": self.estimate,
             "stderr": self.stderr, "k_used": self.k_used,
             "threshold": self.threshold, "n_total": self.n_total}
        for kind, ll in self.loglik.items():
            d[f"loglik.{kind.value}"] = ll
        return d


def _prepare(samples, side: str) -> np.ndarray:
    x = np.asarray(samples, dtype=float)
    if side == "abs":
        return np.abs(x)
    if side == "right":
        return x[x > 0]
    if side == "left":
        return -x[x < 0]
    raise DomainError(f"side must be abs, right or left, got {side!r}")


def classify_tail(samples, candidates=DEFAULT_CANDIDATES, *,
                  threshold_quantile: float = 0.99,
                  side: str = "abs") -> TailReport:
    """Pick the best-scoring decay class for the exceedance tail.

    Fits each candidate by maximum likelihood (regression for the
    stretched form) on exceedances above the threshold quantile of
    |samples| and selects the highest average log-likelihood; all scores
    are reported.  Returns magnitudes two-sided by default since an
    antisymmetric response makes both tails alike; pass side="right" or
    "left" to study one side.
    """
    kinds = [TailKind(c) for c in candidates]
    if len(kinds) < 2:
        raise DomainError("need at least two candidate tail classes")
    if not 0.0 < threshold_quantile < 1.0:
        raise DomainError(f"threshold quantile {threshold_quantile} is "
                          "outside (0, 1)")
    a = _prepare(samples, side)
    n = a.size
    u = float(np.quantile(a, threshold_quantile))
    if u <= 0.0:
        raise DomainError("threshold is nonpositive; samples too concentrated at 0")
    exc = a[a > u]
    if exc.size < MIN_TAIL_POINTS:
        raise InsufficientTailError(
            f"{exc.size} exceedances above quantile {threshold_quantile}; "
            f"need >= {MIN_TAIL_POINTS}")
    if float(np.max(exc)) == float(np.min(exc)):
        raise DegenerateTailError("all exceedances are identical")

    results = {}
    for kind in kinds:
        results[kind] = _FITTERS[kind](exc, u)
    best = max(kinds, key=lambda k: results[k][3])
    tail, est, err, _ = results[best]
    return TailReport(tail=tail, estimate=est, stderr=err, k_used=int(exc.size),
                      threshold=u, n_total=int(n),
                      loglik={k: results[k][3] for k in kinds})


def threshold_sweep(samples, candidates=DEFAULT_CANDIDATES, *,
                    quantiles=(0.98, 0.99, 0.995), side: str = "abs"):
    """classify_tail across several thresholds, for sensitivity reporting."""
    return [classify_tail(samples, candidates,
                          threshold_quantile=q, side=side)
            for q in quantiles]
