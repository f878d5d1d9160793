"""Densities of the demand/supply ratio and of its response transforms.

The ratio R = D/S of two jointly normal order flows has a closed-form law
for every correlation: an elementary one when the correlation is exactly
-1 (the supply is then a decreasing affine function of the demand),
Hinkley's (1969) density and a bivariate-normal CDF through Owen's T
function for -1 < rho < 1.  Densities of g(R) for an increasing response
g follow by the change-of-variables rule, conditioned on the
positive-ratio event.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, InitVar

import numpy as np

from .errors import DomainError, RangeError
from .response import Family, ResponseSpec, TailClass

__all__ = [
    "OrderFlowParams",
    "ratio_density_anticorr",
    "ratio_cdf_anticorr",
    "ratio_density",
    "ratio_cdf",
    "positive_ratio_mass",
    "PowerMap",
    "transform_density",
    "TransformedDensity",
    "TailPrediction",
    "tail_prediction",
    "CurveMethod",
    "DensityCurve",
]

_SQRT_2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class OrderFlowParams:
    """Means, spreads and correlation of the (demand, supply) normal pair.

    Both means must be strictly positive.  rho = -1 selects the degenerate
    anticorrelated pair with its exact ratio density; rho = 1 is rejected.
    """

    mu1: float
    mu2: float
    sigma1: float
    sigma2: float
    rho: float
    validate: InitVar[bool] = True

    def __post_init__(self, validate: bool):
        for name in ("mu1", "mu2", "sigma1", "sigma2", "rho"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not validate:
            return
        if not (self.mu1 > 0 and self.mu2 > 0):
            raise DomainError("order-flow means must be strictly positive")
        if not (self.sigma1 > 0 and self.sigma2 > 0):
            raise DomainError("order-flow spreads must be strictly positive")
        if not (-1.0 <= self.rho < 1.0):
            raise DomainError(f"correlation must lie in [-1, 1), got {self.rho}")

    @classmethod
    def _unchecked(cls, mu1, mu2, sigma1, sigma2, rho):
        """Bypass validation (diagnostic use, e.g. zero-mean Cauchy checks)."""
        return cls(mu1, mu2, sigma1, sigma2, rho, validate=False)

    @property
    def is_anticorrelated(self) -> bool:
        return self.rho == -1.0

    def as_dict(self) -> dict:
        return {"mu1": self.mu1, "mu2": self.mu2, "sigma1": self.sigma1,
                "sigma2": self.sigma2, "rho": self.rho}


# ---------------------------------------------------------------------------
# exact anticorrelated branch
# ---------------------------------------------------------------------------

def ratio_density_anticorr(params: OrderFlowParams, x):
    """Exact ratio density for the degenerate anticorrelated pair.

    f(x) = (mu1*sigma2 + mu2*sigma1)/sqrt(2 pi)
           * exp(-((mu2*x - mu1)/(sigma2*x + sigma1))**2 / 2)
           / (sigma2*x + sigma1)**2

    with the removable singularity at x = -sigma1/sigma2 set to 0.
    """
    if not params.is_anticorrelated:
        raise DomainError("exact branch requires rho = -1; "
                          "use ratio_density for -1 < rho < 1")
    xf = _finite(x)  # the limits at x = +-inf go back in below
    den = params.sigma2 * xf + params.sigma1
    amp = (params.mu1 * params.sigma2 + params.mu2 * params.sigma1) / _SQRT_2PI
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u = (params.mu2 * xf - params.mu1) / den
        val = amp * np.exp(-0.5 * u * u) / (den * den)
    return _at_infinity(x, np.where(den == 0.0, 0.0, val), 0.0, 0.0)


def ratio_cdf_anticorr(params: OrderFlowParams, x):
    """Exact ratio CDF for the anticorrelated pair.

    Piecewise in x around the pole -sigma1/sigma2: substituting
    u = (mu2*x - mu1)/(sigma2*x + sigma1) turns the density into the
    standard normal one, branch by branch.
    """
    if not params.is_anticorrelated:
        raise DomainError("exact branch requires rho = -1")
    from scipy.special import ndtr

    x = np.asarray(x, dtype=float)
    xf = _finite(x)  # the limits at x = +-inf go back in below
    pole = -params.sigma1 / params.sigma2
    u_inf = params.mu2 / params.sigma2  # u at x -> +-inf
    with np.errstate(divide="ignore", invalid="ignore"):
        u = (params.mu2 * xf - params.mu1) / (params.sigma2 * xf + params.sigma1)
    below = ndtr(u) - ndtr(u_inf)          # branch x < pole
    above = ndtr(u) + 1.0 - ndtr(u_inf)    # branch x > pole
    out = np.where(x < pole, below, above)
    out = np.where(x == pole, 1.0 - ndtr(u_inf), out)
    return _at_infinity(x, np.clip(out, 0.0, 1.0), 0.0, 1.0)


# ---------------------------------------------------------------------------
# general-correlation branch: closed forms
# ---------------------------------------------------------------------------

def _standardized(params: OrderFlowParams, x):
    """(s, m1, m2, a, h, b): the ratio law in units of the spreads.

    t = x sigma2/sigma1, m_i = mu_i/sigma_i, s = sqrt(1 - rho^2),
    a = sqrt(t^2 - 2 rho t + 1), h = (m2 t - m1)/a and
    b = (m1 - rho m2) t + (m2 - rho m1), each formed without cancellation.
    """
    rho = params.rho
    if not (-1.0 < rho < 1.0):
        raise DomainError(f"correlation {rho} outside (-1, 1)")
    s = math.sqrt((1.0 - rho) * (1.0 + rho))
    m1, m2 = params.mu1 / params.sigma1, params.mu2 / params.sigma2
    # callers put the limits at x = +-inf back; inf/inf would be NaN
    t = _finite(x) * (params.sigma2 / params.sigma1)
    a = _hypot(t - rho, s)
    b = (m1 - rho * m2) * t + (m2 - rho * m1)
    return s, m1, m2, a, (m2 * t - m1) / a, b


def _hypot(d, s: float):
    """sqrt(d^2 + s^2) at a quarter of np.hypot's cost.  Where d^2
    overflows (|d| > ~1.3e154), s^2 is far below d's ulp, and hypot's
    value there, |d|, is taken exactly."""
    with np.errstate(over="ignore"):
        a = np.sqrt(d * d + s * s)
    big = np.isinf(a)
    return np.where(big, np.abs(d), a) if big.any() else a


def _finite(x):
    x = np.asarray(x, dtype=float)
    ends = np.isinf(x)
    return np.where(ends, 0.0, x) if ends.any() else x


def _at_infinity(x, out, lower: float, upper: float):
    """``out`` with its entries at x = -inf / +inf set to lower / upper."""
    x = np.asarray(x, dtype=float)
    if np.isinf(x).any():
        out = np.where(x == np.inf, upper, np.where(x == -np.inf, lower, out))
    return out if out.ndim else float(out)


def ratio_density(params: OrderFlowParams, x):
    """Ratio density for -1 <= rho < 1.  rho = -1 is the exact law of
    ``ratio_density_anticorr``; otherwise Hinkley (1969), Biometrika
    56(3), eq. (1), in the units of ``_standardized`` and times
    sigma2/sigma1,

        b phi(h) / a^3 * erf(b/(sqrt(2) s a)) + s/(pi a^2) exp(-c/(2 s^2))

    with c = m1^2 - 2 rho m1 m2 + m2^2.  Hinkley's exponent
    (b^2 - c a^2)/(2 s^2 a^2) is -h^2/2 by Lagrange's identity.
    """
    if params.is_anticorrelated:
        return ratio_density_anticorr(params, x)
    from scipy.special import ndtr

    s, m1, m2, a, h, b = _standardized(params, x)
    c_s2 = ((m1 - params.rho * m2) / s) ** 2 + m2 * m2
    # b becomes the density in place: fits score a million changes per
    # call, and each temporary of that size adds 8 MB to the peak
    b *= 2.0 * ndtr(b / (s * a)) - 1.0
    b *= np.exp(-0.5 * h * h)
    with np.errstate(over="ignore"):  # a^3 = inf past |x| ~ 1e102: f -> 0
        b /= _SQRT_2PI * a ** 3
        b += s / (math.pi * a * a) * math.exp(-0.5 * c_s2)
    b *= params.sigma2 / params.sigma1
    return _at_infinity(x, b, 0.0, 0.0)


def ratio_cdf(params: OrderFlowParams, x):
    """Ratio CDF for -1 <= rho < 1.  rho = -1 is the exact law of
    ``ratio_cdf_anticorr``; otherwise the bivariate-normal orthant pair
    P(D - xS <= 0 < S) + P(S < 0 <= D - xS) (Marsaglia 2006, JSS 16(4))
    by Owen's T,

        1 - 2 T(h, b/(h a s)) - 2 T(m2, (rho m2 - m1)/(m2 s)) - [h < 0],

    free of the induced correlation of (D - xS, S), which rounds to +-1
    at large |x|.  T is even in its first argument and odd in its second,
    so it is taken at |h|: at the mode h = 0 that is T(0, inf) = 1/4
    whatever the sign of the zero.
    """
    if params.is_anticorrelated:
        return ratio_cdf_anticorr(params, x)
    from scipy.special import owens_t

    s, m1, m2, a, h, b = _standardized(params, x)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_h = 2.0 * owens_t(np.abs(h), b / (np.abs(h) * a * s))
    t_m = 2.0 * owens_t(m2, (params.rho * m2 - m1) / (m2 * s))
    out = np.clip(np.where(h < 0.0, t_h, 1.0 - t_h) - t_m, 0.0, 1.0)
    return _at_infinity(x, out, 0.0, 1.0)


def positive_ratio_mass(params: OrderFlowParams) -> float:
    """P(R > 0) = P(D > 0, S > 0) + P(D < 0, S < 0) = 1 - P(R <= 0).

    At rho = -1 that is P(-mu1/sigma1 < Z < mu2/sigma2), as a sum of two
    erf values, which unlike a difference of normal CDFs cannot cancel.
    """
    if params.is_anticorrelated:
        return 0.5 * (math.erf(params.mu2 / params.sigma2 / _SQRT_2)
                      + math.erf(params.mu1 / params.sigma1 / _SQRT_2))
    return 1.0 - ratio_cdf(params, 0.0)


# ---------------------------------------------------------------------------
# change of variables through a response function
# ---------------------------------------------------------------------------

class PowerMap:
    """The pure power map r -> r**q on r > 0 (a transform, not a response).

    Offers the value, first derivative and inverse that
    ``transform_density`` needs; its range is x > 0 only.
    """

    def __init__(self, q: float):
        if not (q > 0):
            raise DomainError(f"power map exponent must be positive, got {q}")
        self.q = float(q)

    def value(self, r):
        return np.asarray(r, dtype=float) ** self.q

    def deriv(self, r, order: int = 1):
        if order != 1:
            raise DomainError("the power map offers its first derivative only")
        return self.q * np.asarray(r, dtype=float) ** (self.q - 1.0)

    def inverse(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(x <= 0.0):
            raise RangeError(f"power-map density is supported on x > 0, got "
                             f"{x.min():g}")
        out = x ** (1.0 / self.q)
        return out if out.ndim else float(out)

    def label(self) -> str:
        return f"pow(q={self.q:g})"


def transform_density(base, transform, x, *, positive_mass: float):
    """Density of transform(R) given the density of R, conditioned on R > 0.

    ``base`` is a vectorized density of R and ``positive_mass`` is
    P(R > 0).  For an increasing transform g the value is
    f_R(g^-1(x)) / g'(g^-1(x)) / P(R > 0); the inverse is the
    transform's own (analytic for the built-in families and the power
    map, bracketed for tabulated responses).
    """
    if not (positive_mass > 0.0):
        raise DomainError("base density has no mass on R > 0")
    r = transform.inverse(x)
    slope = np.asarray(transform.deriv(r, 1))
    bad = slope <= 0.0
    if np.any(bad):
        raise DomainError("transform is not increasing at "
                          f"r={np.asarray(r)[bad].flat[0]:g}")
    out = np.asarray(base(r)) / slope / positive_mass
    return out if out.ndim else float(out)


class TransformedDensity:
    """Reusable density of response(R), with P(R > 0) computed once."""

    def __init__(self, params: OrderFlowParams, response):
        self.params = params
        self.response = response
        self.base = lambda r: ratio_density(params, r)
        self.positive_mass = positive_ratio_mass(params)

    def __call__(self, x):
        return transform_density(self.base, self.response, x,
                                 positive_mass=self.positive_mass)


# ---------------------------------------------------------------------------
# tail prediction with closed-form prefactors
# ---------------------------------------------------------------------------

def _tail_constant(mu_a, sigma_a, mu_b, sigma_b, rho) -> float:
    """f_B(0) E[|A| | B = 0] for the normal pair (A, B).  Given B = 0, A
    has mean m = mu_a - rho sigma_a mu_b / sigma_b and spread
    v = sigma_a sqrt(1 - rho^2); E|A| is |m| at rho = -1, where v = 0."""
    z = mu_b / sigma_b
    m = mu_a - rho * sigma_a * z
    v = sigma_a * math.sqrt((1.0 - rho) * (1.0 + rho))
    mean_abs = abs(m) if v == 0.0 else (
        2.0 * v / _SQRT_2PI * math.exp(-0.5 * (m / v) ** 2)
        + m * math.erf(m / (_SQRT_2 * v)))
    return math.exp(-0.5 * z * z) / (_SQRT_2PI * sigma_b) * mean_abs


@dataclass(frozen=True)
class TailPrediction:
    tail: TailClass
    prefactor: float  # of the right tail, x -> inf
    left_prefactor: float  # of the left tail, x -> -inf, read in |x|

    def key_values(self) -> dict:
        shape = {k: v for k, v in vars(self.tail).items()
                 if k != "kind" and v is not None}
        return {"class": self.tail.kind.value, "tail": self.tail.describe(),
                "prefactor": self.prefactor,
                "left_prefactor": self.left_prefactor, **shape}


def tail_prediction(params: OrderFlowParams, spec: ResponseSpec) -> TailPrediction:
    """Predicted tail class of spec(R) given R > 0, with exact prefactors.

    The density of g(R) tends to a prefactor times the class's decay d
    (x^-e, exp(-b x) or x^(p-1) exp(-x^p)) in both tails.  The ratio law
    fixes both prefactors (Marsaglia 2006, JSS 16(4)): x^2 f_R(x) -> C =
    f_S(0) E[|D| | S = 0] as x -> inf and f_R(0) = f_D(0) E[|S| | D = 0],
    so they are C / (k P) and f_R(0) / (k P), with P = P(R > 0) and k the
    limit of r^2 g'(r) d(g(r)): 2 for sym, 1 for log and q otherwise.
    """
    p = params
    k = 2.0 if spec.family is Family.SYM else (spec.param or 1.0)
    kp = k * positive_ratio_mass(p)
    return TailPrediction(
        tail=spec.predicted_tail(),
        prefactor=_tail_constant(p.mu1, p.sigma1, p.mu2, p.sigma2, p.rho) / kp,
        left_prefactor=_tail_constant(p.mu2, p.sigma2, p.mu1, p.sigma1,
                                      p.rho) / kp)


# ---------------------------------------------------------------------------
# evaluated curves
# ---------------------------------------------------------------------------

class CurveMethod(str, enum.Enum):
    """Model curves are ``exact`` (closed form); ``exact_anticorr`` and
    ``quadrature`` label older files and stay loadable."""

    EXACT = "exact"
    EXACT_ANTICORR = "exact_anticorr"
    QUADRATURE = "quadrature"
    EMPIRICAL = "empirical"


@dataclass
class DensityCurve:
    """A density evaluated on a strictly increasing grid.

    ``mass`` is the trapezoid integral over the grid; curves meant to
    cover the support should carry mass in [0.98, 1.001] (see
    ``check_mass``).
    """

    grid: np.ndarray
    values: np.ndarray
    method: CurveMethod
    mass: float = field(init=False)

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.grid.ndim != 1 or self.grid.shape != self.values.shape:
            raise DomainError("grid and values must be aligned 1-d arrays")
        if not np.all(np.isfinite(self.grid)):
            raise DomainError("curve grid must be finite")
        if np.any(np.diff(self.grid) <= 0):
            raise DomainError("curve grid must be strictly increasing")
        if not np.all(self.values >= 0):
            raise DomainError("density values must be nonnegative, not NaN")
        self.method = CurveMethod(self.method)
        self.mass = float(np.trapezoid(self.values, self.grid))

    @classmethod
    def from_function(cls, fn, grid, method: CurveMethod) -> "DensityCurve":
        """Evaluate ``fn`` once on the whole grid: it must accept an array
        and return one value per grid point, as the closed-form densities
        and ``TransformedDensity`` do."""
        grid = np.asarray(grid, dtype=float)
        vals = np.asarray(fn(grid), dtype=float)
        return cls(grid, vals, method)

    @classmethod
    def from_samples(cls, samples, bins: int = 200,
                     range_: tuple | None = None) -> "DensityCurve":
        hist, edges = np.histogram(samples, bins=bins, range=range_, density=True)
        centers = 0.5 * (edges[:-1] + edges[1:])
        return cls(centers, hist, CurveMethod.EMPIRICAL)

    def check_mass(self, lo: float = 0.98, hi: float = 1.001) -> bool:
        return lo <= self.mass <= hi

    def loglog_tail_slope(self, x_min: float, x_max: float) -> float:
        """Least-squares slope of log(values) vs log(grid) on [x_min, x_max]."""
        m = (self.grid >= x_min) & (self.grid <= x_max) & (self.values > 0)
        if m.sum() < 2:
            raise DomainError("fewer than two usable points in the slope window")
        lx, ly = np.log(self.grid[m]), np.log(self.values[m])
        return float(np.polyfit(lx, ly, 1)[0])

    def semilog_tail_slope(self, x_min: float, x_max: float) -> float:
        """Least-squares slope of log(values) vs grid on [x_min, x_max]."""
        m = (self.grid >= x_min) & (self.grid <= x_max) & (self.values > 0)
        if m.sum() < 2:
            raise DomainError("fewer than two usable points in the slope window")
        return float(np.polyfit(self.grid[m], np.log(self.values[m]), 1)[0])
