"""Closed-form decay/growth exponents and empirical rate extraction.

Conventions: all rate functions return the positive decay magnitude (the
norm behaves like t^(-rate)).  q = infinity is passed as math.inf and the
formulas branch explicitly on it; it is never emulated by a large number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, WindowError

INF = math.inf


@dataclass(frozen=True)
class DecayFit:
    """Fitted log-log slope of a norm time series."""

    slope: float
    stderr: float
    window: tuple[float, float]
    norm_id: str

    def __post_init__(self):
        if self.window[0] <= 0.0 or self.window[1] / self.window[0] < 100.0:
            raise WindowError("accepted fits need a positive window of at least two decades")
        if not math.isfinite(self.stderr):
            raise WindowError("fit standard error is not finite")


def rate_lq(p: float, n: int, q0: float, q: float) -> float:
    """Decay exponent of the L^q norm for data in L^q0:
    (1 - q0/q) / (p + 2 q0/n); at q = inf this reduces to nu exactly."""
    if q0 <= 0.0:
        raise DomainError("q0 must be positive")
    if q <= q0:
        raise DomainError(f"need q > q0, got q={q}, q0={q0}")
    if q == INF:
        return rate_nu(p, n, q0)  # the algebraic limit of the formula, as rate_nu rounds it
    return (1.0 - q0 / q) / (p + 2.0 * q0 / n)


def rate_nu(p: float, n: int, q0: float) -> float:
    """Sup-norm decay exponent nu = n/(np + 2 q0) (up to arbitrarily small loss)."""
    if q0 <= 0.0:
        raise DomainError("q0 must be positive")
    return n / (n * p + 2.0 * q0)


def rate_gamma(p: float, n: int, gamma: float, q: float) -> float:
    """Exact L^q decay exponent (gamma - n/q)/(p gamma + 2) for data that
    decays algebraically like (1+|x|)^(-gamma); q = inf gives gamma/(p gamma + 2)."""
    if gamma <= 0.0:
        raise DomainError("gamma must be positive")
    if q == INF:
        return gamma / (p * gamma + 2.0)
    if q <= n / gamma:
        raise DomainError(f"need q > n/gamma = {n / gamma:g}, got q={q}")
    return (gamma - n / q) / (p * gamma + 2.0)


def vartheta(theta: float, m: float) -> float:
    """Growth exponent theta/((1-m) theta + 2) of the inf of the original
    unknown when the data grow like (1+|x|)^theta (super-fast regime m < 0)."""
    if m >= 0.0:
        raise DomainError("vartheta is defined for m < 0")
    if theta <= 0.0:
        raise DomainError("theta must be positive")
    return theta / ((1.0 - m) * theta + 2.0)


def exponent_roundtrip(theta: float, m: float) -> float:
    """Consistency residual |m|*vartheta(theta, m) - rate_gamma(p, n, |m| theta, inf)
    with p = (m-1)/m; identically zero in exact arithmetic (the sup-norm rate
    does not depend on the dimension n)."""
    if m >= 0.0:
        raise DomainError("roundtrip requires m < 0")
    p = (m - 1.0) / m
    gamma = -m * theta
    return abs(abs(m) * vartheta(theta, m) - rate_gamma(p, 1, gamma, INF))


# ---------------------------------------------------------------------------
# Heat polynomials: the contrasting growth mechanism for linear diffusion
# ---------------------------------------------------------------------------


def _heat_coefficients(k: int) -> list[tuple[int, int, int]]:
    """(coefficient, x-power, t-power) triples of H_k, exact integers."""
    if k < 2 or k % 2 != 0:
        raise DomainError("heat polynomials are indexed by even k >= 2")
    out = []
    for i in range(k // 2 + 1):
        coeff = math.factorial(k) // (math.factorial(i) * math.factorial(k - 2 * i))
        out.append((coeff, k - 2 * i, i))
    return out


def heat_polynomial(k: int, x, t):
    """H_k(x, t) = sum_i k!/(i!(k-2i)!) x^(k-2i) t^i.

    Coefficients are exact integers; passing Fraction (or int) arguments keeps
    the evaluation exact, floats evaluate in floating point.
    """
    return sum(c * x**j * t**i for c, j, i in _heat_coefficients(k))


def heat_poly_residual(k: int, x, t):
    """d/dt H_k - d^2/dx^2 H_k, term by term; zero for every heat polynomial.

    With Fraction arguments the cancellation is exact.
    """
    res = 0 * x  # keeps Fraction/float type of the caller
    for c, j, i in _heat_coefficients(k):
        if i >= 1:
            res += c * i * x**j * t ** (i - 1)
        if j >= 2:
            res -= c * j * (j - 1) * x ** (j - 2) * t**i
    return res


def heat_random_rationals(k: int, count: int = 100, seed: int = 0):
    """Seeded random rational (x, t) sample for exact residual checks."""
    rng = np.random.default_rng(seed)
    pts = []
    for _ in range(count):
        x = Fraction(int(rng.integers(-999, 1000)), int(rng.integers(1, 100)))
        t = Fraction(int(rng.integers(1, 1000)), int(rng.integers(1, 100)))
        pts.append((x, t))
    return pts


# ---------------------------------------------------------------------------
# Empirical rate extraction
# ---------------------------------------------------------------------------


def fit_decay(times, values, window: tuple[float, float], norm_id: str = "") -> DecayFit:
    """Ordinary least squares of log(value) against log(t) over the window.

    Needs at least 10 samples spanning at least two decades.
    """
    lo, hi = window
    if lo <= 0.0 or hi / lo < 100.0:
        raise WindowError("fit window must span at least two decades")
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    mask = (t >= lo) & (t <= hi)
    if mask.sum() < 10:
        raise WindowError(f"only {int(mask.sum())} samples inside the window; need >= 10")
    if np.any(v[mask] <= 0.0):
        raise WindowError("norm values must be positive for a log-log fit")
    lx, ly = np.log(t[mask]), np.log(v[mask])
    mx = lx.mean()
    sxx = float(((lx - mx) ** 2).sum())
    slope = float(((lx - mx) * (ly - ly.mean())).sum()) / sxx
    resid = ly - (slope * (lx - mx) + ly.mean())
    dof = max(len(lx) - 2, 1)
    stderr = math.sqrt(float((resid**2).sum()) / dof / sxx)
    return DecayFit(slope=slope, stderr=stderr, window=(lo, hi), norm_id=norm_id)
