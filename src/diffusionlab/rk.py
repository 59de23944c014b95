"""Embedded Dormand-Prince 5(4) integrator for two-component systems.

The radial ODEs in this package (profile equation, steady Dirichlet
profile) are second-order scalar equations rewritten as (y, y') pairs.
They are smooth away from the regular singular point at the origin, so a
classic adaptive 5(4) pair with proportional step control is enough.  The
stepper works on plain floats rather than numpy arrays: the systems are
tiny and the per-step array overhead would dominate the run time.  For the
same reason a step does little besides the tableau arithmetic: a constant
step cap is resolved once per call, and the step clipping, the error norm
and the step-size clamp are plain comparisons instead of builtin min/max
calls.  Each comparison keeps its builtin's operand order, so the nodes are
those of the min/max loop bit for bit (tests/test_rk.py holds that loop).

A per-position step cap is supported because several downstream checks
need the accepted step sequence itself to be a usable sampling grid: the
log-log tail fits, and the first-integral residual below that certifies both
radial ODEs.  Between its nodes a profile of either kind is the cubic
Hermite spline of its (y, y') pairs: first_nonmonotone_interval certifies it
monotone, and the residual integrates it by cumulative Simpson (fourth order,
with no extra right-hand-side evaluations).  HermiteSpline evaluates it in
numpy, bit for bit as scipy's CubicHermiteSpline does.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import DomainError, ToleranceError

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

    A constant cap is resolved once, before the loop; only a callable one
    is called per step.  Each comparison that stands in for a builtin
    min/max keeps its operand order (max(a, b) is b only if b > a, min(a, b)
    is b only if b < a), so a NaN or a tie picks the operand the builtin
    picks.  The one departure from the builtins: a step is rejected when
    its new point or its error estimate is NaN or infinite in either
    component, so no non-finite node or derivative is ever accepted.

    Raises ValueError, before the first RHS call, unless x0 < x_end with
    both finite, first_step is finite and positive, and a constant max_step
    is positive: a zero first step at x0 = 0 would accept zero-length steps
    without end, a NaN x_end would return the start alone, and a NaN cap
    would be ignored.  Raises ToleranceError if the step size
    underflows, i.e. falls below 1e-14 of the current position (or of
    ``first_step`` near x = 0), except where what is left of the interval
    is itself below that bound: then the last node is moved onto x_end
    (ten steps of 0.1 end at 0.9999999999999999, not at 1).
    """
    if x_end <= x0:
        raise ValueError("x_end must exceed x0")
    if not (math.isfinite(x0) and math.isfinite(x_end)):
        raise ValueError(f"x0 and x_end must be finite, got {x0!r} and {x_end!r}")
    if not 0.0 < first_step < math.inf:
        raise ValueError(f"first_step must be finite and positive, got {first_step!r}")
    step_cap = max_step if callable(max_step) else None
    if step_cap is None and not max_step > 0.0:
        raise ValueError(f"max_step must be positive, got {max_step!r}")
    cap = max_step  # a callable cap replaces it at every step
    atol_y, atol_z = atol

    x, (y, z) = x0, y0
    fy, fz = rhs(x, y, z)
    h = first_step

    xs = [x]
    ys = [y]
    zs = [z]
    xs_append, ys_append, zs_append = xs.append, ys.append, zs.append

    while x < x_end:
        # h = min(h, cap, x_end - x), the builtin's order: the later operand
        # replaces the current one only if strictly smaller
        if step_cap is not None:
            cap = step_cap(x)
        if cap < h:
            h = cap
        rest = x_end - x
        if rest < h:
            h = rest
        ax = abs(x)
        tiny = 1e-14 * (first_step if first_step > ax else ax)
        if h < tiny:
            if rest < tiny and x > x0:  # the steps reached x_end up to rounding
                xs[-1] = x_end
                break
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
        # scale = atol + rtol * max(|old|, |new|); err = max(err_y, err_z)
        a, b = abs(y), abs(y5)
        scy = atol_y + rtol * (b if b > a else a)
        a, b = abs(z), abs(z5)
        scz = atol_z + rtol * (b if b > a else a)
        err = 0.0
        if scy > 0.0:
            err = abs(ey) / scy
        if scz > 0.0:
            e = abs(ez) / scz
            if e > err:
                err = e
        # a NaN or infinite new point or error rejects the step, also where
        # its scale is 0 or its ratio loses to the other component's
        if y5 - y5 + z5 - z5 + ey - ey + ez - ez != 0.0:
            err = math.nan

        if err <= 1.0:
            x += h
            y, z = y5, z5
            fy, fz = k7y, k7z  # FSAL
            xs_append(x)
            ys_append(y)
            zs_append(z)
            if stop is not None and stop(x, y, z):
                break
        elif err != err or err == math.inf:  # stage blew up; force rejection
            err = 1e6
        factor = 0.9 * (err ** -0.2) if err > 0.0 else 5.0
        h *= (factor if factor < 5.0 else 5.0) if factor > 0.2 else 0.2  # min(5, max(0.2, factor))

    return xs, ys, zs


def first_nonmonotone_interval(x, y, yp) -> int:
    """First interval i on which the cubic Hermite spline of (y, y') may not be
    monotone, or -1.  By Fritsch-Carlson (1980) a piece with secant slope d is
    monotone if yp * d >= 0 at both ends and yp_left^2 + yp_right^2 <= 9 d^2."""
    d = np.diff(y) / np.diff(x)
    left, right = yp[:-1], yp[1:]
    bad = (left * d < 0.0) | (right * d < 0.0) | (left * left + right * right > 9.0 * d * d)
    return int(np.argmax(bad)) if bad.any() else -1


class HermiteSpline:
    """Cubic Hermite spline of the nodes (x, y, y'), x ascending, NaN outside
    [x[0], x[-1]]: scipy's CubicHermiteSpline(x, y, yp, extrapolate=False) bit
    for bit.  ``x`` and ``c`` are its PPoly breakpoints and coefficients by the
    same arithmetic (c[:, i] on x_i <= x < x_{i+1}, the last piece closed), and
    a call sums c[3] + c[2] s, + c[1] s^2, + c[0] s^3 in that order, with
    s = x - x_i, s^2 = s s and s^3 = s^2 s."""

    def __init__(self, x, y, yp):
        x, y, yp = (np.asarray(a, dtype=float) for a in (x, y, yp))
        ok = x.ndim == 1 and x.size > 1 and x.shape == y.shape == yp.shape and np.all(np.diff(x) > 0)
        if not (ok and np.isfinite(np.stack((x, y, yp))).all()):
            raise DomainError("a spline needs two or more finite ascending nodes with finite y and y'")
        dx = np.diff(x)
        slope = np.diff(y) / dx
        t = (yp[:-1] + yp[1:] - 2.0 * slope) / dx
        self.x = x
        self.c = np.stack((t / dx, (slope - yp[:-1]) / dx - t, yp[:-1], y[:-1]))
        # column k + 1: piece k's x_k and coefficients, constant term first
        # (+ 0.0 as scipy's sum from 0.0 makes -0.0 0.0); NaN columns either side
        pieces = np.stack((x[:-1], y[:-1] + 0.0, yp[:-1], self.c[1], self.c[0]))
        self._pieces = np.pad(pieces, ((0, 0), (1, 1)), constant_values=np.nan)
        # a staircase at k + 1 on [x_k, x_{k+1}): np.interp reads the column off
        # it exactly, by a zero slope (the risers' infinite ones are never used)
        self._stair_x, self._stair_k = np.repeat(x, 2)[1:-1], np.repeat(np.arange(1.0, x.size), 2)

    def __call__(self, q):
        q = np.asarray(q, dtype=float)
        flat = q.ravel()
        k = np.interp(flat, self._stair_x, self._stair_k, left=0.0, right=self.x.size)
        # fmax sends a NaN point (NaN k) to column 0 too
        xk, a0, a1, a2, a3 = self._pieces.take(np.fmax(k, 0.0, out=k).astype(np.intp), axis=1)
        s = np.subtract(flat, xk, out=xk)
        s2 = s * s
        out = a0 + np.multiply(a1, s, out=a1)  # not in a0, which would hold all five rows
        out += np.multiply(a2, s2, out=a2)
        out += np.multiply(a3, np.multiply(s2, s, out=s2), out=a3)
        return out.reshape(q.shape)


def pchip_slopes(x, y) -> np.ndarray:
    """Node slopes of scipy's PchipInterpolator (Fritsch & Butland 1984): the
    secant for two nodes; inside, 0 where the secants beside a node are 0 or of
    opposite signs, else their spacing-weighted harmonic mean; at the ends the
    one-sided three-point slope, clamped to keep the end secant's shape."""
    h = np.diff(x)
    m = np.diff(y) / h
    if m.size == 1:
        return np.array([m[0], m[0]])
    w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
    flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        inner = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))

    def end(h0, h1, m0, m1):
        d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        if np.sign(d) != np.sign(m0):
            return 0.0
        return 3.0 * m0 if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0) else d

    return np.concatenate(([end(h[0], h[1], m[0], m[1])], inner, [end(h[-1], h[-2], m[-1], m[-2])]))


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
