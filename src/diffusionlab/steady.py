"""Steady Dirichlet profiles of -Lap(w) = (1/p) w^(1-p) on balls.

The radial problem

    w'' + (n-1)/r w' = -(1/p) w^(1-p),   w'(0) = 0,  w(R) = 0,  w > 0 on [0, R)

has exactly one positive solution per radius, and the whole family reduces
to the unit-ball profile through the exact rescaling

    w_R(r) = R^(2/p) * w_1(r/R).

A single outward shot from an arbitrary center value therefore suffices:
its zero-crossing radius is located, then the shot is rescaled to R = 1.
The shot cannot run long.  While 0 < w <= b (the center value) and p >= 1,
(r^(n-1) w')' <= -(1/p) r^(n-1) b^(1-p), so w lies below the comparison
parabola b (1 - r^2 / (2 ell^2)), ell = sqrt(n p b^p): it crosses zero by
r = sqrt(2) ell, with equality at p = 1, where the parabola is the solution.
For p > 1 the right side blows up as w -> 0, so once w drops below a small
fraction of the center value the integration switches to the inverted
system r(w) (with w as the independent variable), which locates the
crossing stably; the boundary slope can diverge (p > 2) or vanish
(1 < p < 2) and the inverted variables absorb both.  The parabola also
bounds the outward step cap: w passes the switch height by sqrt(1.9) ell,
and one more step must stop short of sqrt(2) ell.  The unit shot, whose
nodes are the saved profile, steps at most 2e-3 ell; a re-shoot, whose
nodes only locate its crossing, steps at half the gap sqrt(2) - sqrt(1.9),
about 0.0179 ell.

The rescaling itself is verified against independent re-shoots on B_R.
Each finds the center value b whose crossing lands on R without the
scaling law: the secant method, started from b = 1 and b = 2, solves
log R_crossing(b) = log R in log b and stops at the first shot whose
crossing lands within (p/2) * LOG_B_XTOL of log R.  A shot's step cap,
first step and tolerances all scale with b, so log R_crossing is affine in
log b to rounding: the secant's first step lands, and a re-shoot takes 3
shots.  A shot's nodes depend on (p, n, b) alone, so the re-shoots of one
scaling check share their shots at b = 1 and b = 2: at most 2 + k shots
for k radii.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DomainError, NoCrossingError, SingularityError, ToleranceError
from .rk import (HermiteSpline, first_integral_residual, first_nonmonotone_interval, integrate_dp45,
                 write_nodes)

# Handoff height to the inverted system, as a fraction of the center value:
# low enough that the outward phase covers the bulk of the profile, high
# enough to leave room for the outward step caps below.
W_SWITCH_FRACTION = 0.05
# The inverted sweep stops here; the last sliver is closed by extrapolation
# with the boundary exponent (w ~ (R-r)^max(1, 2/p) near the crossing, up to
# a log factor at p = 2), so the sliver's contribution is exact at leading
# order and O(w_floor^(3-p) v w_floor^(2/p)) beyond.
W_FLOOR_FRACTION = 1e-8
# Shots: relative tolerance, center value of the unit shot (any value works),
# outward step caps as fractions of the curvature length ell at the center,
# and the re-shoot's tolerance on log b: log R_crossing has slope p/2 in
# log b, so a shot lands once its crossing is within (p/2) * LOG_B_XTOL of
# log R, which pins the center value b to 1e-12 relative.  The unit shot's
# cap sets the saved profile's nodes.  A re-shoot's nodes only locate its
# crossing and serve as comparison points, so its cap is as long as the
# comparison parabola allows (see the module docstring).  At p = 1, where the
# parabola is the solution and nothing brakes the integrator near the
# crossing, the step past the switch height then ends with w above 0.025 b.
SHOT_TOL = 1e-11
UNIT_SHOT_B = 1.0
UNIT_STEP_FACTOR = 2e-3
RESHOOT_STEP_FACTOR = 0.5 * (math.sqrt(2.0) - math.sqrt(2.0 - 2.0 * W_SWITCH_FRACTION))
LOG_B_XTOL = 1e-12
# The re-shoot's secant starts from log b = 0 and log 2; a log b it reaches
# outside [log 1e-12, log 1e12] is refused before it is shot.
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
    _spline: HermiteSpline | None = field(default=None, init=False, compare=False, repr=False)

    @property
    def center_value(self) -> float:
        return float(self.w[0])

    def interpolant(self) -> HermiteSpline:
        """Cubic Hermite interpolant of w through the shot's (w, w') nodes.

        It is built on the first call and kept on the profile, so every later
        call returns that same spline; a profile made by scale_profile or
        dataclasses.replace builds its own.  Changing the node arrays in
        place after the first call would leave it stale.
        """
        if self._spline is None:
            object.__setattr__(self, "_spline", HermiteSpline(self.r, self.w, self.wp))
        return self._spline


def _shoot(p: float, n: int, b: float, max_step_factor: float):
    """Integrate outward from w(0) = b and locate the zero crossing.

    Returns (r_nodes, w_nodes, wp_nodes, R_crossing).  The outward phase
    ends at the first node below the switch height W_SWITCH_FRACTION * b,
    which the comparison parabola b (1 - r^2 / (2 ell^2)) puts before
    r = sqrt(1.9) ell; it is integrated to sqrt(2) ell, where the parabola
    crosses zero, and a step cap of at most (sqrt(2) - sqrt(1.9)) ell / 2
    never reaches that end first.  Raises NoCrossingError if the outward
    phase fails (step size underflow, or p and b beyond float range), ends
    above the switch height all the same, or ends at or below the sweep
    floor W_FLOOR_FRACTION * b (a cap too long for the parabola), and
    SingularityError if the cubic Hermite interpolant of the nodes fails the
    Fritsch-Carlson certificate.
    """
    invp = 1.0 / p
    nm1 = n - 1.0
    neg_nm1 = -nm1
    one_minus_p = 1.0 - p
    w_switch = W_SWITCH_FRACTION * b

    def rhs(r, w, wp):
        wc = w if w > 1e-30 else 1e-30
        return wp, neg_nm1 / r * wp - invp * wc ** one_minus_p

    def stop(r, w, wp):
        return w < w_switch

    try:
        # Series start: w = b + c r^2 with 2*n*c = -(1/p) b^(1-p).
        c = -(b ** one_minus_p) / (2.0 * n * p)
        ell = math.sqrt(b / abs(2.0 * c))  # curvature length at the center, sqrt(n p b^p)
        r0 = 1e-6 * ell
        rs, ws, wps = integrate_dp45(
            rhs,
            r0,
            (b + c * r0 * r0, 2.0 * c * r0),
            math.sqrt(2.0) * ell,
            rtol=SHOT_TOL,
            atol=(SHOT_TOL * b * 1e-3, 0.0),
            max_step=max_step_factor * ell,
            first_step=r0,
            stop=stop,
        )
    except (ToleranceError, OverflowError, ZeroDivisionError) as exc:
        raise NoCrossingError(f"outward phase failed: {exc} (p={p}, n={n}, b={b})") from None
    if ws[-1] >= w_switch:
        raise NoCrossingError(
            f"w stayed above the switch height out to r={rs[-1]:g} (p={p}, n={n}, b={b})"
        )

    # Inverted sweep: independent variable q = w_switch_actual - w, states (r, wp).
    r1, w1, wp1 = rs[-1], ws[-1], wps[-1]
    w_floor = W_FLOOR_FRACTION * b
    if w1 <= w_floor:
        raise NoCrossingError(
            f"outward phase ended at w={w1:g}, at or below the sweep floor, at r={r1:g}"
            f" (p={p}, n={n}, b={b})"
        )

    def rhs_inv(q, r, wp):
        return -1.0 / wp, (nm1 / r * wp + invp * (w1 - q) ** one_minus_p) / wp

    r_last = r1

    def stalled(q, r, wp):
        nonlocal r_last
        stop, r_last = r - r_last <= 1e-11 * r, r
        return stop

    qs, rsi, wpsi = integrate_dp45(
        rhs_inv,
        0.0,
        (r1, wp1),
        w1 - w_floor,
        rtol=SHOT_TOL,
        atol=(0.0, 0.0),
        max_step=(w1 - w_floor) / 50.0,
        first_step=(w1 - w_floor) * 1e-3,
        stop=stalled,
    )
    # The sweep stops at the first node where r advanced by no more than
    # 1e-11 r (for p > 2 w falls much faster than R - r; for p >= 3.5 R - r
    # falls below float spacing).  Only the last node can have stalled: drop
    # it, and the duplicated switch point, and extrapolate the crossing from
    # the last node kept, the switch point itself when the first step stalls.
    k = len(qs) - 1
    if rsi[k] - rsi[k - 1] <= 1e-11 * rsi[k]:
        k -= 1
    kappa = min(1.0, 2.0 / p)  # boundary exponent of w in (R - r)
    R = rsi[k] + kappa * (w1 - qs[k]) / abs(wpsi[k])
    r_nodes = np.concatenate(([0.0], rs, rsi[1 : k + 1], [R]))
    w_nodes = np.concatenate(([b], ws, w1 - np.array(qs[1 : k + 1]), [0.0]))
    wp_nodes = np.concatenate(([0.0], wps, wpsi[1 : k + 1], [wpsi[k]]))
    i = first_nonmonotone_interval(r_nodes, w_nodes, wp_nodes)
    if i >= 0:
        raise SingularityError(
            f"steady interpolant is not monotone on [{r_nodes[i]:.6g}, {r_nodes[i + 1]:.6g}]"
            f" (p={p}, n={n}, b={b})"
        )
    return r_nodes, w_nodes, wp_nodes, R


def shoot_unit_profile(p: float, n: int) -> SteadyProfile:
    """Positive Dirichlet profile on the unit ball, via one shot + rescaling.

    The shooting center value UNIT_SHOT_B is arbitrary: the exact scaling
    w_R = R^(2/p) w_1(./R) maps any shot onto the unit ball.
    """
    if not (1.0 <= p < math.inf and n >= 1):
        raise DomainError(f"shoot_unit_profile requires finite p >= 1 and n >= 1, got p={p!r}, n={n!r}")
    r, w, wp, R = _shoot(p, n, UNIT_SHOT_B, UNIT_STEP_FACTOR)
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
    if not 0.0 < R < math.inf:
        raise DomainError(f"target radius must be finite and positive, got {R!r}")
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


def shoot_profile_for_radius(
    p: float, n: int, R_target: float, shots: dict | None = None
) -> SteadyProfile:
    """Independent construction on B_R: find the center value b whose zero
    crossing lands on R_target.  Deliberately avoids the scaling law (that is
    what it is used to verify).

    The secant method solves log(R_crossing(b) / R_target) = 0 in log b,
    starting from b = 1 and b = 2, not from the scaling law, and returns the
    first shot whose crossing lands: |log(R_crossing / R_target)| <=
    (p/2) * LOG_B_XTOL, that is log b within LOG_B_XTOL of its root.  A
    starting shot that lands is returned as it is.  NoCrossingError is raised
    for a log b outside [_LOG_B_MIN, _LOG_B_MAX] (before it is shot), for two
    shots that cross at the same radius, for a step that is not finite and
    after 10 shots that do not land.  Shots are kept by log b in `shots`:
    re-shoots of one (p, n) may pass the same table to share their starting
    shots at b = 1 and b = 2; the profile is the same, bit for bit, as with a
    fresh table.
    """
    if not 0.0 < R_target < math.inf:
        raise DomainError(f"target radius must be finite and positive, got {R_target!r}")
    if shots is None:
        shots = {}

    def log_ratio(x):
        if not _LOG_B_MIN <= x <= _LOG_B_MAX:
            raise NoCrossingError(
                f"R={R_target:g} needs a center value b = 10^{x / math.log(10.0):.3g},"
                f" outside [1e-12, 1e12] (p={p}, n={n})"
            )
        if x not in shots:
            shots[x] = _shoot(p, n, math.exp(x), RESHOOT_STEP_FACTOR)
        return math.log(shots[x][3] / R_target)

    def refused(why):
        return NoCrossingError(f"re-shoot for R={R_target:g} {why} (p={p}, n={n})")

    tol = 0.5 * p * LOG_B_XTOL
    x0 = f0 = None
    x = 0.0
    for _ in range(10):
        f = log_ratio(x)
        if abs(f) <= tol:
            break
        if f == f0:
            raise refused(f"met two shots crossing at r={shots[x][3]:.17g}")
        x0, f0, x = x, f, _LN2 if x0 is None else x - f * (x - x0) / (f - f0)
        if not math.isfinite(x):
            raise refused("took a secant step that is not finite")
    else:
        raise refused("did not land in 10 shots")
    r, w, wp, R = shots[x]
    return SteadyProfile(
        p=p, n=n, R=R, r=r, w=w, wp=wp,
        meta={"tol": SHOT_TOL, "shot_b": math.exp(x), "target_R": R_target},
    )


def verify_scaling_law(unit: SteadyProfile, R_list) -> float:
    """Max relative sup-norm deviation between independent re-shoots on B_R
    and the rescaled unit profile, over the given radii; R = 1 is re-shot
    too, as the unit profile is itself a rescaled shot.

    The re-shoots share one shot table, so each starting shot (b = 1 and
    b = 2) is made once per call, and each re-shoot lands at its first
    secant step: at most 2 + k shots for k radii."""
    if not R_list:
        raise DomainError("R_list must be nonempty")
    worst = 0.0
    shots = {}
    for R in R_list:
        reshot = shoot_profile_for_radius(unit.p, unit.n, R, shots)
        scaled = scale_profile(unit, R)
        # compare on the re-shot grid, away from the last node (w = 0 exactly)
        rr = reshot.r[:-1]
        inside = rr <= min(reshot.R, scaled.R)
        diff = np.abs(reshot.w[:-1][inside] - scaled.interpolant()(rr[inside]))
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
    write_nodes(csv_path, "r,w", profile.r, profile.w)
    payload = {"p": profile.p, "n": profile.n, "R": profile.R, "solver": profile.meta}
    csv_path.with_suffix(".json").write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
