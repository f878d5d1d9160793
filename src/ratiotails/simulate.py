"""Seeded Monte Carlo for order flows, ratio samples and price paths.

Reproducibility contract
------------------------
All draws come from counter-based Philox streams keyed by the pair
(seed, stream index), where the stream index is the fixed-size chunk
number of the output positions being filled (chunk size 2**20).  A result
is therefore a pure function of (configuration, seed): chunks can be
generated serially or on any number of threads (by default the usable
CPUs; ``threads`` of simulate_path and simulate_gbm) and concatenate to
bit-identical arrays either way.  Rejection resampling consumes extra
draws only from the stream of the chunk that needed them.  A seed must
fit in 64 bits: ``stream``, which every draw goes through, refuses any
other with DomainError.
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
    """Independent generator for (seed, stream index); a seed outside
    [0, 2**64) raises DomainError."""
    if not 0 <= int(seed) <= _MASK64:
        raise DomainError("seed must fit in 64 bits")
    key = np.array([int(seed), int(index)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _chunks(n: int):
    start = 0
    index = 0
    while start < n:
        yield index, min(CHUNK, n - start)
        start += CHUNK
        index += 1


def _run_chunks(fn, n: int, threads: int | None = None) -> list:
    """Evaluate fn(index, count) per chunk, results in chunk order, on up
    to ``threads`` threads (by default the usable CPUs)."""
    return thread_map(lambda job: fn(*job), _chunks(n), threads)


# ---------------------------------------------------------------------------
# order-flow sampling
# ---------------------------------------------------------------------------

def _flow_pair(rng: np.random.Generator, params: OrderFlowParams, m: int):
    # (mu1 + sigma1 z1, mu2 + sigma2 (rho z1 + sqrt(1 - rho^2) z2)), each in
    # its draws' buffer by the same IEEE operations, which commute
    z1 = rng.standard_normal(m)
    s = rng.standard_normal(m)
    s *= math.sqrt(1.0 - params.rho ** 2)
    for i in range(0, m, 1 << 14):
        s[i:i + (1 << 14)] += params.rho * z1[i:i + (1 << 14)]
    s *= params.sigma2
    s += params.mu2
    z1 *= params.sigma1
    z1 += params.mu1
    return z1, s


def sample_bivariate(params: OrderFlowParams, n: int, seed: int):
    """Draw n (demand, supply) pairs; returns two aligned arrays.

    rho = -1 yields the exact degenerate line (the second normal gets a
    zero coefficient, so supply is affine in demand to the last bit).
    """
    if n < 1:
        raise DomainError(f"need n >= 1 draws, got {n}")

    def job(index, count):
        return _flow_pair(stream(seed, index), params, count)

    parts = _run_chunks(job, n)
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


def sample_ratio(params: OrderFlowParams, n: int, seed: int) -> RatioSample:
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
        return np.divide(d, s, out=d)

    parts = _run_chunks(job, n)
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
        if not (0 < self.tau0 < math.inf and 0 < self.dt < math.inf):
            raise DomainError("tau0 and dt must be positive and finite")
        if self.dt > self.tau0:
            raise DomainError(f"dt={self.dt} exceeds tau0={self.tau0}; "
                              "the log-price step must stay O(response)")
        if not 0 < self.p0 < math.inf:
            raise DomainError("initial price must be positive and finite")
        if self.n_steps < 1:
            raise DomainError("need at least one step")

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


_BLOCK = 1 << 14  # values a check holds masks of at a time


def _blocks(values: np.ndarray, overlap: int = 0):
    """The consecutive _BLOCK-value views of the 1-d ``values``, each
    running ``overlap`` values into the next."""
    return (values[i:i + _BLOCK + overlap]
            for i in range(0, max(values.size - overlap, 0), _BLOCK))


def _check_blocks(blocks, what: str, tests) -> None:
    """Raise DomainError for the first (label, mask) of ``tests`` whose
    mask flags a value of the column that the 1-d ``blocks``, in order,
    make up: "label what: count of size, the first is value at row r",
    the count over the whole column, rows counted from 1."""
    counts = [0] * len(tests)
    first = [None] * len(tests)
    size = 0
    for block in blocks:
        for i, (_, mask) in enumerate(tests):
            rows = np.flatnonzero(mask(block))
            if rows.size and first[i] is None:
                first[i] = (block[rows[0]], size + rows[0] + 1)
            counts[i] += rows.size
        size += block.size
    for (label, _), count, bad in zip(tests, counts, first):
        if count:
            raise DomainError(f"{label} {what}: {count} of {size}, the "
                              f"first is {bad[0]} at row {bad[1]}")


_PRICE_TESTS = (("non-finite", lambda p: ~np.isfinite(p)),
                ("nonpositive", lambda p: ~(p > 0)))


def check_prices(prices) -> np.ndarray:
    """``prices`` as a float array, once every price is positive and
    finite: the one check of the writer and the loader of a price CSV.
    A bad price raises DomainError with the count of bad ones, and the
    first with its row, counted from 1 as a CSV's data rows under its
    header are."""
    prices = np.asarray(prices, dtype=float)
    check_price_blocks(_blocks(prices.reshape(-1)))
    return prices


def check_price_blocks(blocks) -> None:
    """check_prices of the column that the 1-d ``blocks``, in order, make
    up, holding one block's masks at a time."""
    _check_blocks(blocks, "prices", _PRICE_TESTS)


def _log_prices(prices, out=None) -> np.ndarray:
    """np.log of positive, finite prices (``check_prices``), into ``out``
    if given."""
    return np.log(check_prices(prices), out=out)


@dataclass
class PriceSeries:
    """An ordered price path.

    Prices are kept as log-prices internally so that extreme fat-tailed
    configurations stay representable; the ``prices`` property
    materializes them (guaranteed positive by construction).  Times must
    be finite and strictly increasing; non-finite ones are reported with
    their count, and the first with its row, counted from 1.
    """

    times: np.ndarray
    log_prices: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.log_prices = np.asarray(self.log_prices, dtype=float)
        if self.times.shape != self.log_prices.shape or self.times.ndim != 1:
            raise DomainError("times and prices must be aligned 1-d arrays")
        # NaN would pass the order check below
        _check_blocks(_blocks(self.times), "times", _PRICE_TESTS[:1])
        if any(np.any(t[1:] <= t[:-1])  # finite: diff <= 0
               for t in _blocks(self.times, 1)):
            raise DomainError("times must be strictly increasing")

    @classmethod
    def from_prices(cls, times, prices, meta=None) -> "PriceSeries":
        """A series of the given positive, finite prices."""
        return cls(times, _log_prices(prices), meta or {})

    @property
    def prices(self) -> np.ndarray:
        return np.exp(self.log_prices)

    def log_returns(self) -> np.ndarray:
        return np.diff(self.log_prices)

    def __len__(self):
        return len(self.times)


def _log_path(parts: list, scale: float, p0: float, dt: float):
    """(times, log-prices) of the path from p0 with step dt whose log
    increments are the chunks ``parts``, which it empties, times scale."""
    increments = parts.pop() if len(parts) == 1 else np.concatenate(parts)
    parts.clear()
    increments *= scale
    logp = np.empty(increments.size + 1)
    logp[0] = math.log(p0)
    np.cumsum(increments, out=logp[1:])
    del increments  # dead before times
    logp[1:] += logp[0]
    times = np.arange(logp.size, dtype=float)
    times *= dt
    return times, logp


def simulate_path(cfg: SimConfig, threads: int | None = None) -> PriceSeries:
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
        r = np.divide(d, s, out=d)
        del s
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
        return response.value(r, out=r)

    parts = _run_chunks(job, cfg.n_steps, threads)
    rejected = sum(counters.values())
    rate = rejected / (cfg.n_steps + rejected)
    if rate > MAX_REJECTION_RATE:
        raise RejectionRateError(
            f"{rejected} of {cfg.n_steps + rejected} ratio draws were "
            f"nonpositive (rate {rate:.3%} > {MAX_REJECTION_RATE:.0%}); "
            "these parameters put too much supply mass at or below zero")

    times, logp = _log_path(parts, cfg.dt / cfg.tau0, cfg.p0, cfg.dt)
    meta = {"seed": int(cfg.seed), "config": cfg.digest(),
            "rejected": rejected, "model": "ratio"}
    return PriceSeries(times, logp, meta)


def simulate_gbm(mu: float, sigma: float, dt: float, n_steps: int, p0: float,
                 seed: int, threads: int | None = None) -> PriceSeries:
    """Exact lognormal stepping of the classical diffusion baseline.

    log P[k+1] = log P[k] + (mu - sigma**2 / 2) dt + sigma sqrt(dt) Z[k].
    sigma = 0 degenerates to deterministic exponential growth.
    """
    if not sigma >= 0:
        raise DomainError(f"volatility sigma={sigma} must be nonnegative")
    if not (dt > 0 and 0 < p0 < math.inf and n_steps >= 1):
        raise DomainError("dt and p0 must be positive, p0 finite, "
                          "n_steps >= 1")

    drift = (mu - 0.5 * sigma * sigma) * dt
    vol = sigma * math.sqrt(dt)
    if not (math.isfinite(drift) and math.isfinite(vol)):
        raise DomainError(f"the log step (mu - sigma**2/2) dt + sigma "
                          f"sqrt(dt) Z is not finite at mu={mu}, "
                          f"sigma={sigma}, dt={dt}")

    def job(index, count):
        rng = stream(seed, index)  # checks the seed, even at sigma = 0
        if vol == 0.0:
            return np.full(count, drift)
        return drift + vol * rng.standard_normal(count)

    times, logp = _log_path(_run_chunks(job, n_steps, threads), 1.0, p0, dt)
    meta = {"seed": int(seed), "model": "gbm",
            "mu": mu, "sigma": sigma}
    return PriceSeries(times, logp, meta)
