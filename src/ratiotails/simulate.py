"""Seeded Monte Carlo for order flows, ratio samples and price paths.

Reproducibility contract
------------------------
All draws come from counter-based Philox streams keyed by the pair
(seed, stream index), where the stream index is the fixed-size chunk
number of the output positions being filled (chunk size 2**20).  A result
is therefore a pure function of (configuration, seed): chunks can be
generated serially or on any number of worker threads and concatenate to
bit-identical arrays either way.  Rejection resampling consumes extra
draws only from the stream of the chunk that needed them.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .density import OrderFlowParams
from .errors import DomainError, NonpositiveRatioError, RejectionRateError
from .parallel import thread_map
from .response import ResponseSpec

__all__ = [
    "CHUNK",
    "stream",
    "RejectionPolicy",
    "SimConfig",
    "PriceSeries",
    "RatioSample",
    "sample_bivariate",
    "sample_ratio",
    "simulate_path",
    "simulate_gbm",
]

CHUNK = 1 << 20
_MASK64 = (1 << 64) - 1

# a nonpositive-ratio rejection rate above this aborts the run: heavy
# truncation would silently reshape the tails
MAX_REJECTION_RATE = 0.01


def stream(seed: int, index: int) -> np.random.Generator:
    """Independent generator for (seed, stream index)."""
    key = np.array([int(seed) & _MASK64, int(index) & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _chunks(n: int):
    start = 0
    index = 0
    while start < n:
        yield index, min(CHUNK, n - start)
        start += CHUNK
        index += 1


def _run_chunks(fn, n: int, threads: int = 1) -> list:
    """Evaluate fn(index, count) per chunk, results in chunk order."""
    return thread_map(lambda job: fn(*job), _chunks(n), threads)


# ---------------------------------------------------------------------------
# order-flow sampling
# ---------------------------------------------------------------------------

def _flow_pair(rng: np.random.Generator, params: OrderFlowParams, m: int):
    z1 = rng.standard_normal(m)
    z2 = rng.standard_normal(m)
    d = params.mu1 + params.sigma1 * z1
    s = params.mu2 + params.sigma2 * (params.rho * z1
                                      + math.sqrt(1.0 - params.rho ** 2) * z2)
    return d, s


def sample_bivariate(params: OrderFlowParams, n: int, seed: int,
                     threads: int = 1):
    """Draw n (demand, supply) pairs; returns two aligned arrays.

    rho = -1 yields the exact degenerate line (the second normal gets a
    zero coefficient, so supply is affine in demand to the last bit).
    """
    if n < 1:
        raise DomainError(f"need n >= 1 draws, got {n}")

    def job(index, count):
        return _flow_pair(stream(seed, index), params, count)

    parts = _run_chunks(job, n, threads)
    d = np.concatenate([p[0] for p in parts])
    s = np.concatenate([p[1] for p in parts])
    return d, s


@dataclass
class RatioSample:
    values: np.ndarray
    nonpositive_s_fraction: float
    zero_s_resampled: int
    seed: int

    def __len__(self):
        return len(self.values)


def sample_ratio(params: OrderFlowParams, n: int, seed: int,
                 threads: int = 1) -> RatioSample:
    """Draw n ratio values R = D/S.

    Pairs with S exactly 0 (a measure-zero event) are redrawn from the
    same stream; the fraction of draws with S <= 0 is reported so callers
    can judge how much mass sits on negative ratios.
    """
    if n < 1:
        raise DomainError(f"need n >= 1 draws, got {n}")
    counters = {}

    def job(index, count):
        rng = stream(seed, index)
        d, s = _flow_pair(rng, params, count)
        redraws = 0
        bad = np.flatnonzero(s == 0.0)
        while bad.size:
            redraws += bad.size
            d2, s2 = _flow_pair(rng, params, bad.size)
            d[bad] = d2
            s[bad] = s2
            bad = bad[s2 == 0.0]
        counters[index] = (int(np.count_nonzero(s <= 0.0)), redraws)
        return d / s

    parts = _run_chunks(job, n, threads)
    nonpos = sum(v[0] for v in counters.values())
    redrawn = sum(v[1] for v in counters.values())
    return RatioSample(values=np.concatenate(parts),
                       nonpositive_s_fraction=nonpos / n,
                       zero_s_resampled=redrawn, seed=seed)


# ---------------------------------------------------------------------------
# price paths
# ---------------------------------------------------------------------------

class RejectionPolicy(str, enum.Enum):
    RESAMPLE = "resample"   # redraw nonpositive ratios, count them
    ABORT = "abort"         # raise on the first nonpositive ratio


@dataclass(frozen=True)
class SimConfig:
    """Configuration of a ratio-driven price path.

    The per-step log-price increment is (dt / tau0) * response(R) with a
    fresh order-flow pair each step; dt must not exceed the adjustment
    time constant tau0.
    """

    params: OrderFlowParams
    response: ResponseSpec
    tau0: float
    dt: float
    n_steps: int
    p0: float
    seed: int
    rejection_policy: RejectionPolicy = RejectionPolicy.RESAMPLE

    def __post_init__(self):
        object.__setattr__(self, "rejection_policy",
                           RejectionPolicy(self.rejection_policy))
        if not (self.tau0 > 0 and self.dt > 0):
            raise DomainError("tau0 and dt must be positive")
        if self.dt > self.tau0:
            raise DomainError(f"dt={self.dt} exceeds tau0={self.tau0}; "
                              "the log-price step must stay O(response)")
        if not self.p0 > 0:
            raise DomainError("initial price must be positive")
        if self.n_steps < 1:
            raise DomainError("need at least one step")
        if not (0 <= int(self.seed) <= _MASK64):
            raise DomainError("seed must fit in 64 bits")

    def key_values(self) -> dict:
        d = {"model": "ratio", "tau0": self.tau0, "dt": self.dt,
             "n_steps": self.n_steps, "p0": self.p0, "seed": int(self.seed),
             "rejection_policy": self.rejection_policy.value,
             "family": self.response.family.value}
        if self.response.param is not None:
            d["q"] = self.response.param
        d.update(self.params.as_dict())
        return d

    def digest(self) -> str:
        import hashlib

        text = "\n".join(f"{k}={v!r}" for k, v in sorted(self.key_values().items()))
        return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class PriceSeries:
    """An ordered price path.

    Prices are kept as log-prices internally so that extreme fat-tailed
    configurations stay representable; the ``prices`` property
    materializes them (guaranteed positive by construction).
    """

    times: np.ndarray
    log_prices: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.log_prices = np.asarray(self.log_prices, dtype=float)
        if self.times.shape != self.log_prices.shape or self.times.ndim != 1:
            raise DomainError("times and prices must be aligned 1-d arrays")
        if np.any(np.diff(self.times) <= 0):
            raise DomainError("times must be strictly increasing")

    @classmethod
    def from_prices(cls, times, prices, meta=None) -> "PriceSeries":
        """A series of the given positive, finite prices.  A bad price is
        reported with the count of bad ones, and the first with its row,
        counted from 1 as a CSV's data rows under its header are."""
        prices = np.asarray(prices, dtype=float)
        for bad, what in ((~np.isfinite(prices), "non-finite"),
                          (~(prices > 0), "nonpositive")):
            rows = np.flatnonzero(bad)
            if rows.size:
                raise DomainError(
                    f"{what} prices: {rows.size} of {prices.size}, the first "
                    f"is {prices.flat[rows[0]]} at row {rows[0] + 1}")
        return cls(times, np.log(prices), meta or {})

    @property
    def prices(self) -> np.ndarray:
        return np.exp(self.log_prices)

    def log_returns(self) -> np.ndarray:
        return np.diff(self.log_prices)

    def __len__(self):
        return len(self.times)


def simulate_path(cfg: SimConfig, threads: int = 1) -> PriceSeries:
    """Explicit log-space Euler path driven by per-step ratio draws.

    log P[k+1] = log P[k] + (dt / tau0) * response(R[k]), with R[k] a fresh
    ratio each step.  Nonpositive ratios are handled per the policy; under
    RESAMPLE the run aborts if more than MAX_REJECTION_RATE of the draws
    had to be replaced, because heavier truncation would bias the tails.
    """
    params, response = cfg.params, cfg.response
    counters = {}

    def job(index, count):
        rng = stream(cfg.seed, index)
        d, s = _flow_pair(rng, params, count)
        r = d / s
        rejected = 0
        bad = np.flatnonzero(~(r > 0.0))
        if bad.size and cfg.rejection_policy is RejectionPolicy.ABORT:
            k = index * CHUNK + int(bad[0])
            raise NonpositiveRatioError(
                f"nonpositive ratio {r[bad[0]]:g} at step {k} under abort policy")
        while bad.size:
            rejected += bad.size
            d2, s2 = _flow_pair(rng, params, bad.size)
            r2 = d2 / s2
            r[bad] = r2
            bad = bad[~(r2 > 0.0)]
        counters[index] = rejected
        return response.value(r)

    parts = _run_chunks(job, cfg.n_steps, threads)
    rejected = sum(counters.values())
    rate = rejected / (cfg.n_steps + rejected)
    if rate > MAX_REJECTION_RATE:
        raise RejectionRateError(
            f"{rejected} of {cfg.n_steps + rejected} ratio draws were "
            f"nonpositive (rate {rate:.3%} > {MAX_REJECTION_RATE:.0%}); "
            "these parameters put too much supply mass at or below zero")

    increments = (cfg.dt / cfg.tau0) * np.concatenate(parts)
    logp = np.empty(cfg.n_steps + 1)
    logp[0] = math.log(cfg.p0)
    np.cumsum(increments, out=logp[1:])
    logp[1:] += logp[0]
    times = np.arange(cfg.n_steps + 1, dtype=float) * cfg.dt
    meta = {"seed": int(cfg.seed), "config": cfg.digest(),
            "rejected": rejected, "model": "ratio"}
    return PriceSeries(times, logp, meta)


def simulate_gbm(mu: float, sigma: float, dt: float, n_steps: int, p0: float,
                 seed: int, threads: int = 1) -> PriceSeries:
    """Exact lognormal stepping of the classical diffusion baseline.

    log P[k+1] = log P[k] + (mu - sigma**2 / 2) dt + sigma sqrt(dt) Z[k].
    sigma = 0 degenerates to deterministic exponential growth.
    """
    if sigma < 0:
        raise DomainError("volatility must be nonnegative")
    if not (dt > 0 and p0 > 0 and n_steps >= 1):
        raise DomainError("dt and p0 must be positive, n_steps >= 1")

    drift = (mu - 0.5 * sigma * sigma) * dt
    vol = sigma * math.sqrt(dt)

    def job(index, count):
        if vol == 0.0:
            return np.full(count, drift)
        return drift + vol * stream(seed, index).standard_normal(count)

    increments = np.concatenate(_run_chunks(job, n_steps, threads))
    logp = np.empty(n_steps + 1)
    logp[0] = math.log(p0)
    np.cumsum(increments, out=logp[1:])
    logp[1:] += logp[0]
    times = np.arange(n_steps + 1, dtype=float) * dt
    meta = {"seed": int(seed), "model": "gbm",
            "mu": mu, "sigma": sigma}
    return PriceSeries(times, logp, meta)
