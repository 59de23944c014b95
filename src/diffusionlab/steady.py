"""Steady Dirichlet profiles of -Lap(w) = (1/p) w^(1-p) on balls.

The radial problem

    w'' + (n-1)/r w' = -(1/p) w^(1-p),   w'(0) = 0,  w(R) = 0,  w > 0 on [0, R)

has exactly one positive solution per radius, and the whole family reduces
to the unit-ball profile through the exact rescaling

    w_R(r) = R^(2/p) * w_1(r/R).

A single outward shot from an arbitrary center value therefore suffices:
its zero-crossing radius is located, then the shot is rescaled to R = 1.
For p > 1 the right side blows up as w -> 0, so once w drops below a small
fraction of the center value the integration switches to the inverted
system r(w) (with w as the independent variable), which locates the
crossing stably; the boundary slope can diverge (p > 2) or vanish
(1 < p < 2) and the inverted variables absorb both.

The rescaling itself is verified against independent re-shoots on B_R.
Each finds the center value b whose crossing lands on R without the
scaling law: b is bracketed by doubling or halving from 1, and Brent's
method solves log R_crossing(b) = log R in log b, typically in under ten
shots.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq

from .errors import DomainError, NoCrossingError
from .rk import first_integral_residual, integrate_dp45

# Handoff height to the inverted system, as a fraction of the center value.
# High enough that one capped outward step cannot overshoot past zero for any
# p >= 1 (for p = 1 nothing brakes the integrator near the crossing), low
# enough that the outward phase covers the bulk of the profile.
W_SWITCH_FRACTION = 0.05
# The inverted sweep stops here; the last sliver is closed by extrapolation
# with the boundary exponent (w ~ (R-r)^max(1, 2/p) near the crossing, up to
# a log factor at p = 2), so the sliver's contribution is exact at leading
# order and O(w_floor^(3-p) v w_floor^(2/p)) beyond.
W_FLOOR_FRACTION = 1e-8
# Shots: relative tolerance, center value of the unit shot (any value works),
# outward step caps as fractions of the curvature length at the center (the
# re-shoots only need their crossing), and the re-shoot's Brent tolerance on
# log b, which pins the center value b to 1e-12 relative.
SHOT_TOL = 1e-11
UNIT_SHOT_B = 1.0
UNIT_STEP_FACTOR = 2e-3
RESHOOT_STEP_FACTOR = 5e-3
LOG_B_XTOL = 1e-12
# The re-shoot's bracket on log b: steps of log 2 from b = 1, within
# [1e-12, 1e12].
_LN2 = math.log(2.0)
_LOG_B_MIN = math.log(1e-12)
_LOG_B_MAX = math.log(1e12)
# steady_residual checks the nodes with w >= INTERIOR_FRACTION * center.
INTERIOR_FRACTION = 0.01


@dataclass(frozen=True)
class SteadyProfile:
    """Radial steady profile on [0, R] with its derivative."""

    p: float
    n: int
    R: float
    r: np.ndarray
    w: np.ndarray
    wp: np.ndarray
    meta: dict = field(default_factory=dict, compare=False)

    @property
    def center_value(self) -> float:
        return float(self.w[0])

    def interpolant(self) -> PchipInterpolator:
        return PchipInterpolator(self.r, self.w, extrapolate=False)

    def __call__(self, r):
        """Evaluate w at radii inside [0, R] (monotone-cubic)."""
        return self.interpolant()(r)


def _shoot(p: float, n: int, b: float, max_step_factor: float, r_guard: float):
    """Integrate outward from w(0) = b and locate the zero crossing.

    Returns (r_nodes, w_nodes, wp_nodes, R_crossing); raises NoCrossingError
    if w has not crossed zero by r_guard.
    """
    invp = 1.0 / p
    nm1 = n - 1.0
    # Series start: w = b + c r^2 with 2*n*c = -(1/p) b^(1-p).
    c = -(b ** (1.0 - p)) / (2.0 * n * p)
    ell = math.sqrt(b / abs(2.0 * c))  # curvature length at the center
    r0 = 1e-6 * ell
    w0, wp0 = b + c * r0 * r0, 2.0 * c * r0
    w_switch = W_SWITCH_FRACTION * b

    def rhs(r, w, wp):
        wc = w if w > 1e-30 else 1e-30
        return wp, -nm1 / r * wp - invp * wc ** (1.0 - p)

    def stop(r, w, wp):
        return w < w_switch

    rs, ws, wps = integrate_dp45(
        rhs,
        r0,
        (w0, wp0),
        r_guard,
        rtol=SHOT_TOL,
        atol=(SHOT_TOL * b * 1e-3, 0.0),
        max_step=max_step_factor * ell,
        first_step=r0,
        stop=stop,
    )
    if ws[-1] >= w_switch:
        raise NoCrossingError(
            f"w did not approach zero before r={r_guard:g} (p={p}, n={n}, b={b})"
        )

    # Inverted sweep: independent variable q = w_switch_actual - w, states (r, wp).
    r1, w1, wp1 = rs[-1], ws[-1], wps[-1]
    w_floor = W_FLOOR_FRACTION * b

    def rhs_inv(q, r, wp):
        w = w1 - q
        return -1.0 / wp, (nm1 / r * wp + invp * w ** (1.0 - p)) / wp

    qs, rsi, wpsi = integrate_dp45(
        rhs_inv,
        0.0,
        (r1, wp1),
        w1 - w_floor,
        rtol=SHOT_TOL,
        atol=(0.0, 0.0),
        max_step=(w1 - w_floor) / 50.0,
        first_step=(w1 - w_floor) * 1e-3,
    )
    # Drop the duplicated switch point, append the extrapolated crossing.
    r_nodes = rs + rsi[1:]
    w_nodes = ws + [w1 - q for q in qs[1:]]
    wp_nodes = wps + wpsi[1:]
    kappa = min(1.0, 2.0 / p)  # boundary exponent of w in (R - r)
    R = rsi[-1] + kappa * (w1 - qs[-1]) / abs(wpsi[-1])
    r_nodes.append(R)
    w_nodes.append(0.0)
    wp_nodes.append(wpsi[-1])
    return (
        np.concatenate(([0.0], r_nodes)),
        np.concatenate(([b], w_nodes)),
        np.concatenate(([0.0], wp_nodes)),
        R,
    )


def shoot_unit_profile(p: float, n: int, r_guard: float = 1e4) -> SteadyProfile:
    """Positive Dirichlet profile on the unit ball, via one shot + rescaling.

    The shooting center value UNIT_SHOT_B is arbitrary: the exact scaling
    w_R = R^(2/p) w_1(./R) maps any shot onto the unit ball.
    """
    if p < 1.0 or n < 1:
        raise DomainError("shoot_unit_profile requires p >= 1 and n >= 1")
    r, w, wp, R = _shoot(p, n, UNIT_SHOT_B, UNIT_STEP_FACTOR, r_guard)
    scale = R ** (-2.0 / p)
    return SteadyProfile(
        p=p,
        n=n,
        R=1.0,
        r=r / R,
        w=w * scale,
        wp=wp * scale * R,
        meta={"tol": SHOT_TOL, "max_step_factor": UNIT_STEP_FACTOR, "shot_b": UNIT_SHOT_B,
              "shot_R": R},
    )


def scale_profile(unit: SteadyProfile, R: float) -> SteadyProfile:
    """Exact arithmetic rescaling w_R(r) = R^(2/p) w_unit(r/R); no re-solve."""
    if abs(unit.R - 1.0) > 1e-12:
        raise DomainError("scale_profile expects a unit-ball profile")
    if R <= 0.0:
        raise DomainError("target radius must be positive")
    amp = R ** (2.0 / unit.p)
    return SteadyProfile(
        p=unit.p,
        n=unit.n,
        R=R,
        r=unit.r * R,
        w=unit.w * amp,
        wp=unit.wp * (amp / R),
        meta=dict(unit.meta, scaled_from=unit.R),
    )


def shoot_profile_for_radius(p: float, n: int, R_target: float) -> SteadyProfile:
    """Independent construction on B_R: find the center value b whose zero
    crossing lands on R_target.  Deliberately avoids the scaling law (that is
    what it is used to verify).

    b is bracketed by doubling or halving from 1, then Brent's method (Brent
    1973) finds the root of log(R_crossing(b) / R_target) in log b to
    LOG_B_XTOL.  Shots are kept by log b, so none is repeated: brentq's calls
    at the bracket ends and the returned profile, its shot at the estimate
    b*, reuse shots already made.
    """
    if R_target <= 0.0:
        raise DomainError("target radius must be positive")
    guard = 1e4 * max(1.0, R_target)
    shots = {}

    def log_ratio(x):
        if x not in shots:
            shots[x] = _shoot(p, n, math.exp(x), RESHOOT_STEP_FACTOR, guard)
        return math.log(shots[x][3] / R_target)

    x_lo = x_hi = 0.0
    while log_ratio(x_lo) > 0.0:
        x_hi = x_lo
        x_lo -= _LN2
        if x_lo < _LOG_B_MIN:
            raise NoCrossingError(
                f"every center value b >= 1e-12 crosses beyond R={R_target:g} (p={p}, n={n})"
            )
    while log_ratio(x_hi) < 0.0:
        x_lo = x_hi
        x_hi += _LN2
        if x_hi > _LOG_B_MAX:
            raise NoCrossingError(
                f"every center value b <= 1e12 crosses short of R={R_target:g} (p={p}, n={n})"
            )
    x_star = brentq(log_ratio, x_lo, x_hi, xtol=LOG_B_XTOL)
    log_ratio(x_star)  # brentq returns a point it evaluated: no new shot
    r, w, wp, R = shots[x_star]
    return SteadyProfile(
        p=p, n=n, R=R, r=r, w=w, wp=wp,
        meta={"tol": SHOT_TOL, "shot_b": math.exp(x_star), "target_R": R_target},
    )


def verify_scaling_law(p: float, n: int, R_list) -> float:
    """Max relative sup-norm deviation between independent re-shoots on B_R
    and the rescaled unit profile, over the given radii."""
    if not R_list:
        raise DomainError("R_list must be nonempty")
    unit = shoot_unit_profile(p, n)
    worst = 0.0
    for R in R_list:
        if R == 1.0:
            continue  # scale_profile is the identity there by construction
        reshot = shoot_profile_for_radius(p, n, R)
        scaled = scale_profile(unit, R)
        # compare on the re-shot grid, away from the last node (w = 0 exactly)
        rr = reshot.r[:-1]
        inside = rr <= min(reshot.R, scaled.R)
        diff = np.abs(reshot.w[:-1][inside] - scaled(rr[inside]))
        worst = max(worst, float(diff.max() / reshot.center_value))
    return worst


def steady_residual(profile: SteadyProfile) -> float:
    """Residual of the integrated radial equation

        r^(n-1) w'(r) + (1/p) int_0^r s^(n-1) w^(1-p) ds = 0

    by rk.first_integral_residual (cumulative Hermite-Simpson, normalized by
    the larger term), checked at the nodes with w >= INTERIOR_FRACTION *
    center (the integrand is not integrable up to the boundary for p >= 2).
    """
    keep = profile.w >= INTERIOR_FRACTION * profile.center_value
    end = int(np.max(np.nonzero(keep))) + 1
    return first_integral_residual(
        profile.r[:end], profile.w[:end], profile.wp[:end], profile.n, profile.p, 1.0 / profile.p
    )


def save_steady(profile: SteadyProfile, csv_path) -> None:
    """CSV `r,w` at full double precision plus a JSON settings sidecar."""
    csv_path = Path(csv_path)
    with csv_path.open("w", encoding="utf-8") as fh:
        fh.write("r,w\n")
        for r, w in zip(profile.r, profile.w):
            fh.write(f"{r:.17g},{w:.17g}\n")
    payload = {"p": profile.p, "n": profile.n, "R": profile.R, "solver": profile.meta}
    csv_path.with_suffix(".json").write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
