"""Independent references the benchmark checks the program's outputs against.

Nothing here calls the program's density code: the correlated ratio
density is Hinkley's (1969) closed form and the positive-ratio mass is the
sum of two bivariate-normal orthants through Owen's T function.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf, ndtr, owens_t


def hinkley_density(mu1, mu2, s1, s2, rho, w):
    """Density of W = X/Y for jointly normal (X, Y), -1 < rho < 1.

    Hinkley, D. V. (1969), On the ratio of two correlated normal random
    variables, Biometrika 56(3), 635-639, equation (1).
    """
    w = np.asarray(w, dtype=float)
    omr2 = 1.0 - rho * rho
    a = np.sqrt(w * w / (s1 * s1) - 2.0 * rho * w / (s1 * s2)
                + 1.0 / (s2 * s2))
    b = (mu1 * w / (s1 * s1) - rho * (mu1 + mu2 * w) / (s1 * s2)
         + mu2 / (s2 * s2))
    c = (mu1 * mu1 / (s1 * s1) - 2.0 * rho * mu1 * mu2 / (s1 * s2)
         + mu2 * mu2 / (s2 * s2))
    d = np.exp((b * b - c * a * a) / (2.0 * omr2 * a * a))
    t = b / (math.sqrt(omr2) * a)
    return (b * d / (a ** 3) / (math.sqrt(2.0 * math.pi) * s1 * s2)
            * erf(t / math.sqrt(2.0))
            + math.sqrt(omr2) / (math.pi * s1 * s2 * a * a)
            * math.exp(-c / (2.0 * omr2)))


def _orthant(h, k, rho):
    """P(Z1 < h, Z2 < k) for standard normals with correlation rho, hk != 0."""
    if rho == -1.0:
        return max(0.0, float(ndtr(h) + ndtr(k) - 1.0))
    root = math.sqrt(1.0 - rho * rho)
    beta = 0.5 if h * k < 0 else 0.0
    return float(0.5 * ndtr(h) + 0.5 * ndtr(k)
                 - owens_t(h, (k - rho * h) / (h * root))
                 - owens_t(k, (h - rho * k) / (k * root)) - beta)


def positive_mass(mu1, mu2, s1, s2, rho):
    """P(X/Y > 0) = P(X > 0, Y > 0) + P(X < 0, Y < 0)."""
    h, k = mu1 / s1, mu2 / s2
    return _orthant(h, k, rho) + _orthant(-h, -k, rho)


def max_rel_error(values, reference) -> float:
    values = np.asarray(values, dtype=float)
    reference = np.asarray(reference, dtype=float)
    return float(np.max(np.abs(values - reference) / np.abs(reference)))


def recovered(family, q, result) -> bool:
    """Acceptance criterion 6: the right family and, for power, |q^-q| <= 0.2q.

    ``family`` None stands for the GBM baseline, which passes when the fit
    does not select the power family.
    """
    got = result.response.family
    if family is None:
        return got.value != "power"
    if got is not family:
        return False
    return q is None or abs(result.param_estimate - q) <= 0.2 * q


def inverse_and_slope(family: str, q, y):
    """r = g^-1(y) on r > 0 and g'(r), for the families the benchmark uses."""
    y = np.asarray(y, dtype=float)
    if family == "sym":
        r = y + np.sqrt(y * y + 1.0)
        return r, 0.5 * (1.0 + r ** -2.0)
    if family == "power":
        u = 0.5 * (np.abs(y) + np.sqrt(y * y + 4.0))
        r = u ** (np.sign(y) / q)
        return r, q * (r ** (q - 1.0) + r ** (-q - 1.0))
    if family == "log":
        r = np.exp(y)
        return r, 1.0 / r
    if family == "logpower":
        n = int(q)
        r = np.exp(np.sign(y) * np.abs(y) ** (1.0 / n))
        return r, n * np.log(r) ** (n - 1) / r
    raise ValueError(f"no reference for family {family!r}")
