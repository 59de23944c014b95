"""Embedded Dormand-Prince 5(4) integrator for two-component systems.

The radial ODEs in this package (profile equation, steady Dirichlet
profile) are second-order scalar equations rewritten as (y, y') pairs.
They are smooth away from the regular singular point at the origin, so a
classic adaptive 5(4) pair with proportional step control is enough.  The
stepper works on plain floats rather than numpy arrays: the systems are
tiny and the per-step array overhead would dominate the run time.

A per-position step cap is supported because several downstream checks
need the accepted step sequence itself to be a usable sampling grid: the
log-log tail fits, and the first-integral residual below that certifies both
radial ODEs.  That residual integrates by cumulative Simpson with
cubic-Hermite midpoint values built from the stored (y, y') pairs, so it is
fourth order in the step and needs no extra right-hand-side evaluations.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import ToleranceError

# Dormand-Prince coefficients (the classic RK45 pair).
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
# Error weights: b5 - b4 (the 7th stage uses the new-point derivative).
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71 / 57600,
    -71 / 16695,
    71 / 1920,
    -17253 / 339200,
    22 / 525,
    -1 / 40,
)

Rhs2 = Callable[[float, float, float], tuple[float, float]]


def integrate_dp45(
    rhs: Rhs2,
    x0: float,
    y0: tuple[float, float],
    x_end: float,
    *,
    max_step: Callable[[float], float] | float,
    first_step: float,
    rtol: float = 1e-10,
    atol: tuple[float, float] = (0.0, 0.0),
    stop: Callable[[float, float, float], bool] | None = None,
):
    """Integrate y' = rhs(x, y0, y1) from x0 to x_end.

    Returns (xs, y0s, y1s) as Python lists covering every accepted step,
    starting with the initial point.  ``max_step`` caps every step and may
    be a constant or a callable of x; ``first_step`` is the first trial
    step.  ``stop`` is checked after each accepted step and, when it
    returns True, integration ends at that point (no error).

    Raises ToleranceError if the step size underflows, i.e. falls below
    1e-14 of the current position (or of ``first_step`` near x = 0).
    """
    if x_end <= x0:
        raise ValueError("x_end must exceed x0")

    x, (y, z) = x0, y0
    fy, fz = rhs(x, y, z)

    def cap(xx: float) -> float:
        return max_step(xx) if callable(max_step) else max_step

    h = first_step

    xs = [x]
    ys = [y]
    zs = [z]

    while x < x_end:
        h = min(h, cap(x), x_end - x)
        if h < 1e-14 * max(abs(x), first_step):
            raise ToleranceError(f"step size underflow at x={x:.6g} (h={h:.3g})")

        k1y, k1z = fy, fz
        k2y, k2z = rhs(x + _C2 * h, y + h * _A21 * k1y, z + h * _A21 * k1z)
        k3y, k3z = rhs(
            x + _C3 * h,
            y + h * (_A31 * k1y + _A32 * k2y),
            z + h * (_A31 * k1z + _A32 * k2z),
        )
        k4y, k4z = rhs(
            x + _C4 * h,
            y + h * (_A41 * k1y + _A42 * k2y + _A43 * k3y),
            z + h * (_A41 * k1z + _A42 * k2z + _A43 * k3z),
        )
        k5y, k5z = rhs(
            x + _C5 * h,
            y + h * (_A51 * k1y + _A52 * k2y + _A53 * k3y + _A54 * k4y),
            z + h * (_A51 * k1z + _A52 * k2z + _A53 * k3z + _A54 * k4z),
        )
        k6y, k6z = rhs(
            x + h,
            y + h * (_A61 * k1y + _A62 * k2y + _A63 * k3y + _A64 * k4y + _A65 * k5y),
            z + h * (_A61 * k1z + _A62 * k2z + _A63 * k3z + _A64 * k4z + _A65 * k5z),
        )
        y5 = y + h * (_B1 * k1y + _B3 * k3y + _B4 * k4y + _B5 * k5y + _B6 * k6y)
        z5 = z + h * (_B1 * k1z + _B3 * k3z + _B4 * k4z + _B5 * k5z + _B6 * k6z)
        k7y, k7z = rhs(x + h, y5, z5)

        ey = h * (_E1 * k1y + _E3 * k3y + _E4 * k4y + _E5 * k5y + _E6 * k6y + _E7 * k7y)
        ez = h * (_E1 * k1z + _E3 * k3z + _E4 * k4z + _E5 * k5z + _E6 * k6z + _E7 * k7z)
        scy = atol[0] + rtol * max(abs(y), abs(y5))
        scz = atol[1] + rtol * max(abs(z), abs(z5))
        err = 0.0
        if scy > 0.0:
            err = abs(ey) / scy
        if scz > 0.0:
            err = max(err, abs(ez) / scz)
        if err != err or err == float("inf"):  # stage blew up; force rejection
            err = 1e6

        if err <= 1.0:
            x += h
            y, z = y5, z5
            fy, fz = k7y, k7z  # FSAL
            xs.append(x)
            ys.append(y)
            zs.append(z)
            if stop is not None and stop(x, y, z):
                break
        factor = 0.9 * (err ** -0.2) if err > 0.0 else 5.0
        h *= min(5.0, max(0.2, factor))

    return xs, ys, zs


def first_integral_residual(x, y, yp, n: int, p: float, c_int: float, c_pt: float = 0.0) -> float:
    """Max relative residual of the first integral

        x^(n-1) y' + c_int G(x) + c_pt x^n y^(1-p) = 0,
        G(x) = int_0^x s^(n-1) y^(1-p) ds,

    on an ascending grid (x, y, y') that starts at x = 0.  G is accumulated by
    cumulative Simpson with cubic-Hermite midpoint values of y; each node's
    residual is normalized by the largest of its three terms.
    """
    h = np.diff(x)
    xm = 0.5 * (x[:-1] + x[1:])
    ym = 0.5 * (y[:-1] + y[1:]) + 0.125 * h * (yp[:-1] - yp[1:])
    xn1 = x ** (n - 1)
    phi = xn1 * y ** (1.0 - p)
    phim = xm ** (n - 1) * ym ** (1.0 - p)
    G = np.concatenate(([0.0], np.cumsum(h / 6.0 * (phi[:-1] + 4.0 * phim + phi[1:]))))

    t1, t2, t3 = xn1 * yp, c_int * G, c_pt * x * phi
    denom = np.maximum(np.abs(t1), np.maximum(np.abs(t2), np.abs(t3)))
    rel = np.divide(np.abs(t1 + t2 + t3), denom, out=np.zeros_like(denom), where=denom > 0.0)
    return float(rel.max())
