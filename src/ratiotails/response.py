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
from scipy.interpolate import PchipInterpolator

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

    def value(self, x):
        """Evaluate the response at ratio x > 0 (scalar or array)."""
        x = _require_positive(x)
        q = self.param
        fam = self.family
        if fam is Family.SYM:
            out = 0.5 * (x - 1.0 / x)
        elif fam is Family.POWER:
            out = x ** q - x ** (-q)
        elif fam is Family.ODD_POWER:
            out = (x - 1.0 / x) ** int(q)
        elif fam is Family.LOG_POWER:
            out = np.log(x) ** int(q)
        else:
            out = np.log(x)
        return out if np.ndim(out) else float(out)

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

    def log_deriv(self, x):
        """log g'(x) for x > 0, finite where ``deriv`` overflows.

        Array input is not validated: fits pass millions of ratios per
        call.  POWER's slope is written through L = q |log x|, the log
        of u = max(x, 1/x)**q, as log q - log x + L + log1p(exp(-2 L)),
        so no power of x is formed; SYM and ODD_POWER's 1 + x**-2 factor
        are its q = 1 case.
        """
        fam = self.family
        n = 1 if self.param is None else int(self.param)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            lx = np.log(x)
            if fam is Family.LOG:
                out = -lx
            elif fam is Family.LOG_POWER:
                # n = 1 skips 0 * log|log x|, which is NaN at x = 1
                out = (math.log(n) - lx if n == 1 else
                       math.log(n) + (n - 1) * np.log(np.abs(lx)) - lx)
            else:
                # SYM is half of POWER with q = 1, and ODD_POWER's factor
                # 1 + x**-2 is POWER's slope with q = 1
                q = self.param if fam is Family.POWER else 1.0
                big = q * np.abs(lx)
                out = math.log(q) - lx + big + np.log1p(np.exp(-2.0 * big))
                if fam is Family.SYM:
                    out = out + math.log(0.5)
                elif fam is Family.ODD_POWER and n > 1:
                    out = out + (math.log(n)
                                 + (n - 1) * np.log(np.abs(x - 1.0 / x)))
        return out if np.ndim(out) else float(out)

    def inverse(self, y):
        """Analytic inverse restricted to ratios r > 0.

        Every built-in family is a bijection from (0, inf) onto the reals,
        so the inverse is total.  Closed forms; see ``invert_monotone`` for
        the generic bracketed alternative.
        """
        y = np.asarray(y, dtype=float)
        fam = self.family
        q = self.param
        if fam is Family.SYM:
            out = y + np.sqrt(y * y + 1.0)
        elif fam is Family.POWER:
            # u = x**q solves u - 1/u = y; log form keeps huge |y| finite
            ay = np.abs(y)
            u = 0.5 * (ay + np.sqrt(ay * ay + 4.0))
            out = np.exp(np.sign(y) * np.log(u) / q)
        elif fam is Family.ODD_POWER:
            w = np.sign(y) * np.abs(y) ** (1.0 / q)
            out = 0.5 * (w + np.sqrt(w * w + 4.0))
        elif fam is Family.LOG_POWER:
            out = np.exp(np.sign(y) * np.abs(y) ** (1.0 / q))
        else:
            out = np.exp(y)
        return out if out.ndim else float(out)

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
            self.value, v, lo=lo, hi=hi, expand=False))(ys)
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

def invert_monotone(fn, y: float, lo: float = None, hi: float = None,
                    expand: bool = True, rtol: float = 1e-12,
                    max_expansions: int = 200) -> float:
    """Invert a strictly increasing function on (0, inf) by bracketing.

    Starts from r = 1 and grows the bracket geometrically until the sign
    changes, then polishes with Brent's method to relative tolerance
    ``rtol``.  Guaranteed to terminate for any strictly increasing fn
    whose range covers y.
    """
    from scipy.optimize import brentq

    y = float(y)
    if lo is None or hi is None:
        lo = hi = 1.0
        f1 = fn(1.0) - y
        if f1 == 0.0:
            return 1.0
        grow = 2.0
        if f1 < 0.0:  # root above 1
            hi = grow
            for _ in range(max_expansions):
                if fn(hi) - y >= 0.0:
                    lo = hi / grow
                    break
                hi *= grow
            else:
                raise RootFindError(f"no bracket above 1 for target {y}")
        else:  # root below 1
            lo = 1.0 / grow
            for _ in range(max_expansions):
                if fn(lo) - y <= 0.0:
                    hi = lo * grow
                    break
                lo /= grow
            else:
                raise RootFindError(f"no bracket below 1 for target {y}")
    try:
        return float(brentq(lambda r: fn(r) - y, lo, hi,
                            xtol=1e-300, rtol=max(rtol, 4e-16)))
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


def reciprocal_log_grid(max_log: float = 6.0, n_per_side: int = 120) -> np.ndarray:
    """Log-spaced grid on [exp(-max_log), exp(max_log)], exactly closed
    under reciprocation (the lower half is constructed as 1/upper half)."""
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


def check_admissibility(response, grid=None, *, zero_tol: float = 1e-12,
                        antisym_tol: float = 1e-12,
                        identity_tol: float = 1e-10) -> AdmissibilityReport:
    """Check the five admissibility conditions on a reciprocation-closed grid.

    Conditions: (i) vanishes at 1, (ii) strictly increasing, (iii)
    antisymmetric under reciprocation, (iv) x*g'(x) grows without bound
    toward both ends, (v) (x*g'(x))' changes sign at 1 (negative below,
    positive above).  The strict-increase test accepts isolated zeros of
    the derivative provided the grid values still increase strictly, which
    covers families with an even-order tangency at the balanced point.

    Built-in families resolve (iv) from their known analytic limit; a
    tabulated response gets a best-effort monotone-growth test on the
    outer deciles and the report is flagged ``grid_limited``.
    """
    if grid is None:
        grid = reciprocal_log_grid()
    grid = _validate_grid(grid)

    g = np.asarray(response.value(grid))
    g1 = np.asarray(response.deriv(grid, 1))
    g2 = np.asarray(response.deriv(grid, 2))
    h = grid * g1  # ratio-weighted slope

    conditions: dict[str, ConditionResult] = {}

    # (i) zero at the balanced ratio
    at1 = float(response.value(1.0))
    conditions["i"] = ConditionResult(
        "i", "g(1) = 0", abs(at1) <= zero_tol,
        [] if abs(at1) <= zero_tol else [(1.0, at1)])

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
    allow = antisym_tol * (1.0 + np.abs(g))
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
    bad = np.where(resid > identity_tol)[0]
    ident = ConditionResult(
        "deriv-identity", "x*g'(x) = (1/x)*g'(1/x)", bad.size == 0,
        [(float(grid[i]), float(resid[i])) for i in bad[:3]])

    # x*g'(x) = 1 identically (plain log signature)
    resid = np.abs(h - 1.0)
    unit = ConditionResult(
        "unit-slope-product", "x*g'(x) = 1 for all x",
        bool(np.all(resid <= identity_tol)),
        [] if np.all(resid <= identity_tol) else
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
