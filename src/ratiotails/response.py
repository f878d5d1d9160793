"""Price-response functions of the demand/supply ratio.

A response function maps the ratio r = demand/supply (r > 0) to the
instantaneous log-price velocity.  Admissible responses vanish at r = 1,
increase strictly, flip sign under r -> 1/r, and react ever more strongly
as the ratio runs off to either end.  Five built-in families are provided,
each with analytic derivatives and inverses, together with a numerical
checker for the admissibility conditions that also accepts tabulated
user-supplied responses.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, GridError, RangeError, RootFindError

__all__ = [
    "Family",
    "ResponseSpec",
    "TabulatedResponse",
    "ScaledResponse",
    "TailKind",
    "TailClass",
    "ConditionResult",
    "AdmissibilityReport",
    "check_admissibility",
    "reciprocal_log_grid",
    "invert_monotone",
]


class Family(str, enum.Enum):
    """Built-in response families.

    SYM        0.5 * (x - 1/x)
    POWER      x**q - x**(-q),           q > 0
    ODD_POWER  (x - 1/x)**q,             q an odd positive integer
    LOG_POWER  (log x)**q,               q an odd positive integer
    LOG        log x
    """

    SYM = "sym"
    POWER = "power"
    ODD_POWER = "oddpower"
    LOG_POWER = "logpower"
    LOG = "log"


def _is_odd_integer(value: float) -> bool:
    return float(value).is_integer() and int(value) % 2 == 1


def _log_2cosh(x: np.ndarray) -> np.ndarray:
    """log(2 cosh x) = x + log1p(exp(-2x)) of x >= 0, in place: no
    overflow, however large x."""
    rest = np.multiply(x, -2.0)
    np.exp(rest, out=rest)
    np.log1p(rest, out=rest)
    x += rest
    return x


class TailKind(str, enum.Enum):
    POWER_LAW = "power_law"
    EXPONENTIAL = "exponential"
    STRETCHED_EXPONENTIAL = "stretched_exponential"


@dataclass(frozen=True)
class TailClass:
    """Predicted decay class of a return density.

    Exactly one of the shape fields is set, according to ``kind``:
    density_exponent e for f(x) ~ x**-e, rate b for f(x) ~ exp(-b*x),
    or shape p for f(x) ~ x**(p-1) * exp(-x**p).
    """

    kind: TailKind
    density_exponent: float | None = None
    rate: float | None = None
    shape: float | None = None

    @classmethod
    def power_law(cls, density_exponent: float) -> "TailClass":
        return cls(TailKind.POWER_LAW, density_exponent=density_exponent)

    @classmethod
    def exponential(cls, rate: float) -> "TailClass":
        return cls(TailKind.EXPONENTIAL, rate=rate)

    @classmethod
    def stretched(cls, shape: float) -> "TailClass":
        return cls(TailKind.STRETCHED_EXPONENTIAL, shape=shape)

    def describe(self) -> str:
        if self.kind is TailKind.POWER_LAW:
            return f"density tail x^-{self.density_exponent:g}"
        if self.kind is TailKind.EXPONENTIAL:
            return f"density tail exp(-{self.rate:g} x)"
        p = self.shape
        return f"density tail x^(p-1) exp(-x^p), p={p:g}"


@dataclass(frozen=True)
class ResponseSpec:
    """A built-in response family with its shape parameter.

    ``param`` is the exponent q for POWER, ODD_POWER and LOG_POWER and must
    be omitted for SYM and LOG.  SYM is POWER with q=1 scaled by one half.
    """

    family: Family
    param: float | None = None

    def __post_init__(self):
        fam = Family(self.family)
        object.__setattr__(self, "family", fam)
        if fam in (Family.SYM, Family.LOG):
            if self.param is not None:
                raise DomainError(f"{fam.value} takes no shape parameter")
            return
        if self.param is None:
            raise DomainError(f"{fam.value} requires a shape parameter")
        q = float(self.param)
        if not (q > 0):
            raise DomainError(f"{fam.value} parameter must be positive, got {q}")
        if fam in (Family.ODD_POWER, Family.LOG_POWER) and not _is_odd_integer(q):
            raise DomainError(
                f"{fam.value} parameter must be an odd positive integer, got {q}")
        object.__setattr__(self, "param", q)

    # -- evaluation ---------------------------------------------------------

    def __call__(self, x):
        return self.value(x)

    def value(self, x, out=None):
        """Evaluate the response at ratio x > 0 (scalar or array).

        An array's values go to a new array, or into ``out``, a float
        array of x's shape that may be x itself: then the peak is x (or
        out) and one transient.  Either way the values are the bits of
        the copying expressions of Family's docstring, since each
        augmented operator takes the path of its copying one."""
        x = _require_positive(x)
        if np.ndim(x) == 0:
            out = None  # x is a float, which the operators below rebind
        elif out is None:
            out = x.copy()
        elif out is not x:
            np.copyto(out, x)
        y = x if out is None else out
        q = self.param
        fam = self.family
        if fam is Family.SYM:
            y -= 1.0 / y
            y *= 0.5
        elif fam is Family.POWER:
            rest = y ** (-q)
            y **= q
            y -= rest
        elif fam is Family.ODD_POWER:
            y -= 1.0 / y
            y **= int(q)
        elif fam is Family.LOG_POWER:
            y = np.log(y, out=out)
            y **= int(q)
        else:
            y = np.log(y, out=out)
        return y if np.ndim(y) else float(y)

    def deriv(self, x, order: int = 1):
        """Analytic first or second derivative at x > 0."""
        if order not in (1, 2):
            raise DomainError(f"derivative order must be 1 or 2, got {order}")
        x = _require_positive(x)
        q = self.param
        fam = self.family
        if fam is Family.SYM:
            out = 0.5 * (1.0 + x ** -2.0) if order == 1 else -(x ** -3.0)
        elif fam is Family.POWER:
            if order == 1:
                out = q * (x ** (q - 1.0) + x ** (-q - 1.0))
            else:
                out = q * ((q - 1.0) * x ** (q - 2.0) - (q + 1.0) * x ** (-q - 2.0))
        elif fam is Family.ODD_POWER:
            n = int(q)
            u = x - 1.0 / x
            du = 1.0 + x ** -2.0
            if order == 1:
                out = n * u ** (n - 1) * du
            else:
                out = (n * (n - 1) * u ** (n - 2) * du * du
                       + n * u ** (n - 1) * (-2.0 * x ** -3.0))
        elif fam is Family.LOG_POWER:
            n = int(q)
            lx = np.log(x)
            if order == 1:
                out = n * lx ** (n - 1) / x
            else:
                out = (n * (n - 1) * lx ** (n - 2) - n * lx ** (n - 1)) / (x * x)
        else:
            out = 1.0 / x if order == 1 else -(x ** -2.0)
        return out if np.ndim(out) else float(out)

    def log_ratio(self, y):
        """L = |log r| of the ratio r > 0 with g(r) = y, in closed form.

        With z = |y|: POWER asinh(z/2)/q, SYM asinh z, LOG z, LOG_POWER
        z**(1/q), ODD_POWER asinh(z**(1/q)/2).  L is finite wherever y
        is, however far r = exp(+-L) lies outside float range.  A scalar
        goes through a 1-element array; an array gives a new array.
        """
        scalar = np.ndim(y) == 0
        out = np.abs(np.atleast_1d(np.asarray(y, dtype=float)))
        fam = self.family
        q = self.param
        if fam in (Family.LOG_POWER, Family.ODD_POWER) and q != 1.0:
            np.power(out, 1.0 / q, out=out)
        if fam in (Family.POWER, Family.ODD_POWER):
            out *= 0.5
        if fam is not Family.LOG and fam is not Family.LOG_POWER:
            np.arcsinh(out, out=out)
        if fam is Family.POWER:
            out /= q
        return float(out[0]) if scalar else out

    def log_ratio_slope(self, big):
        """log(r g'(r)) at L = |log r| >= 0 (an array), in closed form;
        r g'(r) is even in log r, so L is enough.

        With lc(x) = log(2 cosh x) = x + log1p(exp(-2x)): POWER
        log q + lc(qL), SYM lc(L) - log 2, LOG 0, LOG_POWER
        log q + (q-1) log L, ODD_POWER log q + (q-1) log(2 sinh L) + lc(L),
        log(2 sinh L) taken as L + log(-expm1(-2L)).  Finite for finite L
        but L = 0 under LOG_POWER and ODD_POWER with q >= 3 (-inf); a
        new array.
        """
        fam = self.family
        n = 1 if self.param is None else int(self.param)
        if fam is Family.LOG or (fam is Family.LOG_POWER and n == 1):
            return np.zeros_like(big)
        with np.errstate(divide="ignore"):
            if fam is Family.LOG_POWER:
                out = np.log(big)
                out *= n - 1
                out += math.log(n)
                return out
            out = np.multiply(big, self.param) if fam is Family.POWER \
                else np.array(big, dtype=float)
            _log_2cosh(out)
            if fam is Family.SYM:
                out -= math.log(2.0)
            elif fam is Family.POWER:
                out += math.log(self.param)
            elif n > 1:  # ODD_POWER
                sinh = np.multiply(big, -2.0)
                np.expm1(sinh, out=sinh)
                np.negative(sinh, out=sinh)
                np.log(sinh, out=sinh)
                sinh += big
                sinh *= n - 1
                out += sinh
                out += math.log(n)
        return out

    # no fit calls it; TransformedDensity, check and perfbench do
    def inverse(self, y):
        """Analytic inverse restricted to ratios r > 0: exp(+-L) with
        L = ``log_ratio(y)``, signed as y.

        Every built-in family is a bijection from (0, inf) onto the reals,
        so the inverse is total; see ``invert_monotone`` for the generic
        bracketed alternative.  Each family's map is the one closed form
        of ``log_ratio``, so no branch cancels at large negative y, and no
        square of y overflows.  A scalar goes through a 1-element array,
        as in ``log_ratio``, and gives the array entry bit for bit.
        """
        y = np.asarray(y, dtype=float)
        out = self.log_ratio(np.atleast_1d(y))
        np.copysign(out, y, out=out)
        np.exp(out, out=out)
        return float(out[0]) if y.ndim == 0 else out

    # -- structural facts used by the admissibility checker -----------------

    @property
    def slope_at_unity(self) -> float:
        """First derivative at the balanced ratio r = 1."""
        return float(self.deriv(1.0))

    @property
    def ratio_slope_diverges(self) -> bool:
        """Whether x * d/dx diverges at both ends (known analytically)."""
        if self.family is Family.LOG:
            return False
        if self.family is Family.LOG_POWER:
            return int(self.param) >= 3
        return True

    def normalized(self) -> "ScaledResponse":
        """Rescale so the slope at r = 1 equals one.

        Families whose derivative vanishes at r = 1 (ODD_POWER and
        LOG_POWER with q >= 3) cannot be normalized this way.
        """
        c = self.slope_at_unity
        if c <= 0.0:
            raise DomainError(
                f"{self.family.value} has zero slope at r=1; cannot normalize")
        return ScaledResponse(self, 1.0 / c)

    def predicted_tail(self) -> TailClass:
        """Decay class of the return density implied by this family.

        Power-type families give a density exponent 1 + 1/q, the plain
        logarithm gives a unit-rate exponential, and (log x)**q gives a
        stretched exponential with shape 1/q (q = 1 collapses to the
        plain exponential).
        """
        fam = self.family
        if fam is Family.SYM:
            return TailClass.power_law(2.0)
        if fam in (Family.POWER, Family.ODD_POWER):
            return TailClass.power_law(1.0 + 1.0 / self.param)
        if fam is Family.LOG:
            return TailClass.exponential(1.0)
        q = int(self.param)
        if q == 1:
            return TailClass.exponential(1.0)
        return TailClass.stretched(1.0 / q)

    def label(self) -> str:
        if self.param is None:
            return self.family.value
        return f"{self.family.value}(q={self.param:g})"


class ScaledResponse:
    """A response multiplied by a positive constant (same protocol)."""

    def __init__(self, base, scale: float):
        if not (scale > 0):
            raise DomainError(f"scale must be positive, got {scale}")
        self.base = base
        self.scale = float(scale)

    def __call__(self, x):
        return self.value(x)

    def value(self, x):
        return self.scale * np.asarray(self.base.value(x)) if np.ndim(x) \
            else self.scale * self.base.value(x)

    def deriv(self, x, order: int = 1):
        d = self.base.deriv(x, order)
        return self.scale * np.asarray(d) if np.ndim(d) else self.scale * d

    def inverse(self, y):
        return self.base.inverse(np.asarray(y, dtype=float) / self.scale)

    @property
    def slope_at_unity(self) -> float:
        return self.scale * self.base.slope_at_unity

    @property
    def ratio_slope_diverges(self):
        return getattr(self.base, "ratio_slope_diverges", None)

    def label(self) -> str:
        return f"{self.scale:g}*{self.base.label()}"


class TabulatedResponse:
    """User-supplied response given as (x, g) pairs, x increasing and positive.

    Evaluation and derivatives come from a monotone cubic interpolant, so
    admissibility checks against it carry lower confidence than the
    analytic families and are flagged ``grid_limited`` in reports.
    """

    def __init__(self, x, g):
        from scipy.interpolate import PchipInterpolator

        x = np.asarray(x, dtype=float)
        g = np.asarray(g, dtype=float)
        if x.ndim != 1 or x.shape != g.shape or len(x) < 4:
            raise DomainError("tabulated response needs >= 4 aligned (x, g) pairs")
        if np.any(x <= 0):
            raise DomainError("tabulated abscissae must be positive")
        if np.any(np.diff(x) <= 0):
            raise DomainError("tabulated abscissae must be strictly increasing")
        if not np.all(np.isfinite(g)):
            raise DomainError("tabulated values must be finite")
        self.x = x
        self.g = g
        self._interp = PchipInterpolator(x, g, extrapolate=False)
        self._d1 = self._interp.derivative(1)
        self._d2 = self._interp.derivative(2)

    def __call__(self, x):
        return self.value(x)

    def _eval(self, fn, x):
        x = _require_positive(x)
        out = fn(x)
        if np.any(np.isnan(out)):
            raise RangeError("evaluation outside the tabulated domain "
                             f"[{self.x[0]:g}, {self.x[-1]:g}]")
        return out if np.ndim(out) else float(out)

    def value(self, x):
        return self._eval(self._interp, x)

    def deriv(self, x, order: int = 1):
        if order not in (1, 2):
            raise DomainError(f"derivative order must be 1 or 2, got {order}")
        return self._eval(self._d1 if order == 1 else self._d2, x)

    def inverse(self, y):
        """Bracketed inverse on the tabulated range, point by point."""
        ys = np.asarray(y, dtype=float)
        lo, hi = self.x[0], self.x[-1]
        glo, ghi = float(self._interp(lo)), float(self._interp(hi))
        outside = ~((min(glo, ghi) <= ys) & (ys <= max(glo, ghi)))
        if np.any(outside):
            raise RangeError(f"{ys[outside].flat[0]} outside tabulated "
                             f"response range [{min(glo, ghi):g}, "
                             f"{max(glo, ghi):g}]")
        out = np.vectorize(lambda v: invert_monotone(
            self.value, v, lo=lo, hi=hi))(ys)
        return out if out.ndim else float(out)

    @property
    def slope_at_unity(self) -> float:
        return float(self.deriv(1.0))

    @property
    def ratio_slope_diverges(self):
        return None  # unknown; grid evidence only

    def label(self) -> str:
        return f"tabulated[{self.x[0]:g}..{self.x[-1]:g}]"


# ---------------------------------------------------------------------------
# generic inversion
# ---------------------------------------------------------------------------

def invert_monotone(fn, y: float, lo: float = None,
                    hi: float = None) -> float:
    """Invert a strictly increasing function on (0, inf) by bracketing.

    Without a bracket [lo, hi], starts from r = 1 and doubles or halves
    r, at most 200 times, until the sign changes; then polishes with
    Brent's method to relative tolerance 1e-12.  Guaranteed to terminate
    for any strictly increasing fn whose range covers y.
    """
    from scipy.optimize import brentq

    y = float(y)
    if lo is None or hi is None:
        f1 = fn(1.0) - y
        if f1 == 0.0:
            return 1.0
        above = f1 < 0.0  # the root lies above 1
        step = 2.0 if above else 0.5
        r = step
        for _ in range(200):
            d = fn(r) - y
            if d >= 0.0 if above else d <= 0.0:
                break
            r *= step
        else:
            raise RootFindError(f"no bracket {'above' if above else 'below'}"
                                f" 1 for target {y}")
        lo, hi = sorted((r, r / step))
    try:
        return float(brentq(lambda r: fn(r) - y, lo, hi,
                            xtol=1e-300, rtol=1e-12))
    except ValueError as exc:
        raise RootFindError(f"bracketed solve failed for target {y}: {exc}")


# ---------------------------------------------------------------------------
# admissibility checking
# ---------------------------------------------------------------------------

@dataclass
class ConditionResult:
    key: str
    label: str
    passed: bool
    witnesses: list = field(default_factory=list)  # (x, measured value) pairs
    note: str = ""

    def __str__(self):
        tag = "PASS" if self.passed else "FAIL"
        extra = f"  [{self.note}]" if self.note else ""
        wit = ""
        if not self.passed and self.witnesses:
            x, v = self.witnesses[0]
            wit = f"  witness x={x:.6g} value={v:.6g}"
        return f"({self.key}) {self.label}: {tag}{wit}{extra}"


@dataclass
class AdmissibilityReport:
    """Outcome of the five admissibility conditions plus derived identities.

    ``reciprocal_slope_identity`` checks x*g'(x) = (1/x)*g'(1/x), which
    follows from the antisymmetry condition; ``unit_slope_product`` checks
    whether x*g'(x) = 1 identically (true exactly for the plain log);
    ``log_lower_bound`` checks g(x) >= g'(1)*log(x) for x > 1 on the grid.
    """

    conditions: dict
    reciprocal_slope_identity: ConditionResult
    unit_slope_product: ConditionResult
    log_lower_bound: ConditionResult
    grid_limited: bool
    label: str

    @property
    def satisfies_all(self) -> bool:
        return all(c.passed for c in self.conditions.values())

    def summary(self) -> str:
        lines = [f"response: {self.label}",
                 f"admissible: {'yes' if self.satisfies_all else 'no'}"
                 + ("  (grid-limited evidence)" if self.grid_limited else "")]
        for key in ("i", "ii", "iii", "iv", "v"):
            lines.append(str(self.conditions[key]))
        lines.append(str(self.reciprocal_slope_identity))
        lines.append(str(self.unit_slope_product))
        lines.append(str(self.log_lower_bound))
        return "\n".join(lines)


# allowed |g(1)|, relative |g(x) + g(1/x)| and identity residual
_ZERO_TOL, _ANTISYM_TOL, _IDENTITY_TOL = 1e-12, 1e-12, 1e-10
_MAX_LOG = math.log(np.finfo(float).max)  # the largest max_log with exp finite


def reciprocal_log_grid(max_log: float = 6.0, n_per_side: int = 120) -> np.ndarray:
    """Log-spaced grid on [exp(-max_log), exp(max_log)], exactly closed
    under reciprocation (the lower half is constructed as 1/upper half).

    Each side needs ``n_per_side`` >= 3 points, the three per end that
    condition (iv) compares, on a range ``max_log`` > 0."""
    if not (0 < max_log <= _MAX_LOG and n_per_side >= 3):
        raise GridError(f"grid needs 0 < max_log <= {_MAX_LOG:.6g} (the log "
                        f"of the float max) and at least 3 points per side, "
                        f"got max_log={max_log:g}, n_per_side={n_per_side}")
    upper = np.exp(np.linspace(0.0, max_log, n_per_side + 1)[1:])
    return np.concatenate([(1.0 / upper)[::-1], [1.0], upper])


def _require_positive(x):
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0.0) or np.any(~np.isfinite(arr)):
        raise DomainError("response functions are defined for ratios x > 0 only")
    return arr if arr.ndim else float(arr)


def _validate_grid(grid: np.ndarray, match_rtol: float = 1e-9) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise GridError("empty evaluation grid")
    if np.any(grid <= 0):
        raise DomainError("grid entries must be positive")
    grid = np.sort(grid)
    recip = np.sort(1.0 / grid)
    if not np.allclose(grid, recip, rtol=match_rtol, atol=0.0):
        worst = grid[np.argmax(np.abs(grid - recip) / grid)]
        raise GridError("grid is not closed under reciprocation "
                        f"(e.g. no partner for x={worst:g}); "
                        "build it with reciprocal_log_grid()")
    return grid


def check_admissibility(response, grid=None) -> AdmissibilityReport:
    """Check the five admissibility conditions on a reciprocation-closed grid.

    Conditions: (i) vanishes at 1, (ii) strictly increasing, (iii)
    antisymmetric under reciprocation, (iv) x*g'(x) grows without bound
    toward both ends, (v) (x*g'(x))' changes sign at 1 (negative below,
    positive above).  The strict-increase test accepts isolated zeros of
    the derivative provided the grid values still increase strictly, which
    covers families with an even-order tangency at the balanced point.

    Built-in families resolve (iv) from their known analytic limit; a
    tabulated response gets a best-effort monotone-growth test on the
    outer deciles and the report is flagged ``grid_limited``.  A grid
    on which g, g' or g'' is not finite raises GridError.
    """
    if grid is None:
        grid = reciprocal_log_grid()
    grid = _validate_grid(grid)

    with np.errstate(all="ignore"):
        g, g1, g2 = np.array([response.value(grid), response.deriv(grid, 1),
                              response.deriv(grid, 2)], dtype=float)
    finite = np.isfinite([g, g1, g2])
    if not finite.all():
        i = int(np.argmin(finite.all(axis=0)))
        name = ("g", "g'", "g''")[int(np.argmin(finite[:, i]))]
        raise GridError(f"{name}(x) is not finite at grid point x={grid[i]:g}")
    h = grid * g1  # ratio-weighted slope

    conditions: dict[str, ConditionResult] = {}

    # (i) zero at the balanced ratio
    at1 = float(response.value(1.0))
    conditions["i"] = ConditionResult(
        "i", "g(1) = 0", abs(at1) <= _ZERO_TOL,
        [] if abs(at1) <= _ZERO_TOL else [(1.0, at1)])

    # (ii) strictly increasing
    bad = np.where(g1 < 0)[0]
    flat = np.where(g1 == 0)[0]
    increasing = bool(np.all(np.diff(g) > 0))
    ok = bad.size == 0 and increasing
    wit = [(float(grid[i]), float(g1[i])) for i in bad[:3]]
    if not increasing and not wit:
        j = int(np.argmin(np.diff(g)))
        wit = [(float(grid[j]), float(g[j + 1] - g[j]))]
    note = ""
    if ok and flat.size:
        note = f"derivative vanishes at {flat.size} isolated point(s), values still increase"
    conditions["ii"] = ConditionResult("ii", "g'(x) > 0", ok, wit, note)

    # (iii) antisymmetry under reciprocation
    g_recip = np.asarray(response.value(1.0 / grid))
    resid = np.abs(g + g_recip)
    allow = _ANTISYM_TOL * (1.0 + np.abs(g))
    bad = np.where(resid > allow)[0]
    conditions["iii"] = ConditionResult(
        "iii", "g(x) = -g(1/x)", bad.size == 0,
        [(float(grid[i]), float(resid[i])) for i in bad[:3]])

    # (iv) ratio-weighted slope diverges at both ends
    declared = getattr(response, "ratio_slope_diverges", None)
    n_dec = max(3, grid.size // 10)
    top = h[-n_dec:]
    bottom = h[:n_dec]
    grows_up = bool(np.all(np.diff(top) > 0))
    grows_down = bool(np.all(np.diff(bottom) < 0))  # toward x -> 0
    grid_pass = grows_up and grows_down
    if declared is None:
        ok, note = grid_pass, "grid-limited"
    else:
        ok = bool(declared)
        note = "analytic limit" + ("" if grid_pass == ok else "; grid test disagrees")
    wit = []
    if not ok:
        wit = [(float(grid[-1]), float(h[-1])), (float(grid[0]), float(h[0]))]
    conditions["iv"] = ConditionResult(
        "iv", "x*g'(x) -> inf at both ends", ok, wit, note)

    # (v) (x*g'(x))' negative below 1, positive above
    hprime = g1 + grid * g2
    below = grid < 1.0
    above = grid > 1.0
    bad_lo = np.where(below & (hprime >= 0))[0]
    bad_hi = np.where(above & (hprime <= 0))[0]
    ok = bad_lo.size == 0 and bad_hi.size == 0
    wit = [(float(grid[i]), float(hprime[i])) for i in list(bad_lo[:2]) + list(bad_hi[:2])]
    conditions["v"] = ConditionResult(
        "v", "(x*g'(x))' < 0 for x<1, > 0 for x>1", ok, wit)

    # derived identity: x*g'(x) = (1/x)*g'(1/x)
    h_recip = (1.0 / grid) * np.asarray(response.deriv(1.0 / grid, 1))
    resid = np.abs(h - h_recip) / np.maximum(np.abs(h), 1e-300)
    bad = np.where(resid > _IDENTITY_TOL)[0]
    ident = ConditionResult(
        "deriv-identity", "x*g'(x) = (1/x)*g'(1/x)", bad.size == 0,
        [(float(grid[i]), float(resid[i])) for i in bad[:3]])

    # x*g'(x) = 1 identically (plain log signature)
    resid = np.abs(h - 1.0)
    unit = ConditionResult(
        "unit-slope-product", "x*g'(x) = 1 for all x",
        bool(np.all(resid <= _IDENTITY_TOL)),
        [] if np.all(resid <= _IDENTITY_TOL) else
        [(float(grid[int(np.argmax(resid))]), float(h[int(np.argmax(resid))]))])

    # integrated growth bound: g(x) >= g'(1) * log(x) on x > 1
    c = float(response.deriv(1.0, 1))
    mask = grid > 1.0
    lhs = g[mask]
    rhs = c * np.log(grid[mask])
    slack = 1e-12 * (1.0 + np.abs(rhs))
    bad = np.where(lhs + slack < rhs)[0]
    xs_above = grid[mask]
    bound = ConditionResult(
        "log-bound", "g(x) >= g'(1)*log(x) for x > 1", bad.size == 0,
        [(float(xs_above[i]), float(lhs[i] - rhs[i])) for i in bad[:3]])

    return AdmissibilityReport(
        conditions=conditions,
        reciprocal_slope_identity=ident,
        unit_slope_product=unit,
        log_lower_bound=bound,
        grid_limited=declared is None,
        label=response.label() if hasattr(response, "label") else repr(response),
    )
