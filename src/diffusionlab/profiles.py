"""Self-similar profiles of the degenerate diffusion equation u_t = u^p Lap(u).

A radial self-similar solution has the form

    u(x, t) = t^(-alpha) * f(t^(-beta) * |x|),

where the profile f solves the second-order ODE

    f^p (f'' + (n-1)/xi * f') + beta*xi*f' + alpha*f = 0,   f(0) = A, f'(0) = 0,

with a regular singular point at xi = 0.  In "self-similar mode"
beta = (1 - p*alpha)/2 (which needs p > 1 and 0 < alpha < 1/p), the profile
is positive, nonincreasing, and decays like xi^(-alpha/beta); this module
integrates the ODE, certifies those properties, and evaluates the resulting
space-time solution.

The integration is started off the singular point with the second-order
series f ~ A - (alpha*A^(1-p)/(2n)) xi^2, obtained by balancing the ODE at
leading order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.interpolate import PchipInterpolator

from .errors import DomainError, RangeError, SingularityError, ToleranceError, WindowError
from .rates import fit_decay
from .rk import first_integral_residual, integrate_dp45

# Positivity floor of the profile integration: below it f is treated as zero.
F_FLOOR = 1e-250
# Interpolation tolerance that sets the finite-difference step of
# self_similar_residual.
INTERP_TOL = 1e-6


@dataclass(frozen=True)
class ProfileParams:
    """Parameters (p, alpha, beta, A) of the profile equation."""

    p: float
    alpha: float
    beta: float
    A: float

    def __post_init__(self):
        if self.p < 1.0:
            raise DomainError(f"p must be >= 1, got {self.p}")
        if self.alpha <= 0.0 or self.beta <= 0.0:
            raise DomainError("alpha and beta must be positive")
        if self.A <= 0.0:
            raise DomainError("A must be positive")

    @classmethod
    def self_similar(cls, p: float, alpha: float, A: float) -> "ProfileParams":
        """Build parameters with beta = (1 - p*alpha)/2, the choice that makes
        t^(-alpha) f(t^(-beta)|x|) an exact solution (needs p > 1, alpha < 1/p)."""
        if p <= 1.0:
            raise DomainError("self-similar mode requires p > 1")
        if not 0.0 < alpha < 1.0 / p:
            raise DomainError("self-similar mode requires 0 < alpha < 1/p")
        return cls(p=p, alpha=alpha, beta=(1.0 - p * alpha) / 2.0, A=A)

    @property
    def is_self_similar(self) -> bool:
        return self.p > 1.0 and self.beta == (1.0 - self.p * self.alpha) / 2.0

    @property
    def tail_exponent(self) -> float:
        """Decay exponent alpha/beta of the profile tail."""
        return self.alpha / self.beta


@dataclass(frozen=True)
class Profile:
    """Sampled profile f on an ascending xi-grid, with derivative."""

    params: ProfileParams
    n: int
    xi: np.ndarray
    f: np.ndarray
    fp: np.ndarray
    meta: dict = field(default_factory=dict, compare=False)

    @property
    def xi_max(self) -> float:
        return float(self.xi[-1])

    def interpolant(self) -> PchipInterpolator:
        """Monotone-cubic interpolant of f (preserves positivity and f' <= 0)."""
        return PchipInterpolator(self.xi, self.f, extrapolate=False)


@dataclass(frozen=True)
class TailBound:
    """Certified two-sided envelope c (1+xi)^(-e) <= f <= C (1+xi)^(-e)."""

    lower_const: float
    upper_const: float
    exponent: float
    window: tuple[float, float]

    def __post_init__(self):
        if not (0.0 < self.lower_const <= self.upper_const < math.inf):
            raise DomainError("tail bound constants must satisfy 0 < c <= C < inf")
        if self.exponent <= 0.0:
            raise DomainError("tail exponent must be positive")


def taylor_start(params: ProfileParams, xi0: float, n: int = 1):
    """Series values (f, f') at a small offset xi0 > 0 off the singular point.

    Substituting f = A + c*xi^2 into the ODE forces 2*n*c*A^p + alpha*A = 0,
    i.e. c = -alpha*A^(1-p)/(2n).
    """
    if xi0 <= 0.0:
        raise DomainError("xi0 must be positive")
    if n < 1:
        raise DomainError("dimension n must be >= 1")
    c = -params.alpha * params.A ** (1.0 - params.p) / (2.0 * n)
    return params.A + c * xi0 * xi0, 2.0 * c * xi0


def integrate_profile(
    params: ProfileParams,
    xi_max: float,
    tol: float = 1e-10,
    n: int = 1,
    max_step_factor: float = 1e-3,
) -> Profile:
    """Integrate the profile ODE from the series start out to xi_max.

    The accepted-step grid doubles as the sampling grid for the tail fits
    and for the first-integral identity (Hermite-Simpson on the nodes, see
    rk.first_integral_residual), so steps are capped at
    max_step_factor * max(s0, xi) with s0 = max(1, 1/sqrt(alpha)); this keeps
    the grid log-uniform in the tail and fine enough near the origin.

    The equation turns stiff in the tail (the linearized damping rate grows
    like beta*xi*f^(-p)), so the explicit 5(4) pair is used only while it is
    stable at the step cap; beyond that point the integration continues with
    an implicit trapezoid scheme in (ln xi, ln f) variables, where the
    solution is a near-affine slow manifold.

    Raises SingularityError if f falls below F_FLOOR before xi_max (parameter
    regime outside the positivity theory, or numerical failure) and
    ToleranceError if the step size underflows.
    """
    if xi_max <= 0.0:
        raise DomainError("xi_max must be positive")
    if not 1e-12 < tol < 1e-3:
        raise DomainError("tol must lie in (1e-12, 1e-3)")

    p, alpha, beta, A = params.p, params.alpha, params.beta, params.A
    # Curvature length at the origin scales like A^(p/2)/sqrt(alpha); track it
    # downward for A < 1 so the quadrature grid stays fine enough there.
    s0 = max(1.0, 1.0 / math.sqrt(alpha)) * min(1.0, A ** (p / 2.0))
    xi0 = 1e-5 * s0
    f0, fp0 = taylor_start(params, xi0, n)
    nm1 = n - 1.0

    def rhs(xi, f, fp):
        fc = f if f > 1e-30 else 1e-30  # keeps trial stages finite; rejection handles the rest
        fpp = -nm1 / xi * fp - fc ** (-p) * (beta * xi * fp + alpha * fc)
        return fp, fpp

    def stop(xi, f, fp):
        if f < F_FLOOR:
            return True
        # Stability watch: leave the explicit phase once the damping rate
        # times the step cap reaches O(1).  Computed in logs to avoid overflow.
        lam_h = math.log(beta * xi * max_step_factor * max(s0, xi)) - p * math.log(f)
        return lam_h > math.log(0.5)

    try:
        xs, fs, fps = integrate_dp45(
            rhs,
            xi0,
            (f0, fp0),
            xi_max,
            rtol=tol,
            atol=(0.0, 0.0),
            max_step=lambda xi: max_step_factor * max(s0, xi),
            first_step=min(xi0, max_step_factor * s0),
            stop=stop,
        )
    except ToleranceError:
        raise SingularityError(
            f"profile integration stalled for {params} (f approaching zero)"
        ) from None
    if fs[-1] < F_FLOOR:
        raise SingularityError(f"profile hit the positivity floor at xi={xs[-1]:.6g}")

    if xs[-1] < xi_max:
        xs2, fs2, fps2 = _integrate_tail(
            params, n, xs[-1], fs[-1], fps[-1], xi_max, ds=2.0 * max_step_factor
        )
        xs += xs2
        fs += fs2
        fps += fps2

    xi = np.empty(len(xs) + 1)
    f = np.empty_like(xi)
    fp = np.empty_like(xi)
    xi[0], f[0], fp[0] = 0.0, A, 0.0
    xi[1:], f[1:], fp[1:] = xs, fs, fps

    prof = Profile(
        params=params,
        n=n,
        xi=xi,
        f=f,
        fp=fp,
        meta={"tol": tol, "max_step_factor": max_step_factor, "xi0": xi0},
    )
    _check_profile_invariants(prof)
    return prof


def _integrate_tail(params, n, xi_sw, f_sw, fp_sw, xi_max, ds):
    """Implicit trapezoid continuation of the profile in log-log variables.

    With s = ln xi, F = ln f, G = dF/ds the ODE becomes

        F' = G,   G' = (2 - n) G - G^2 - e^(2s) f^(-p) (beta G + alpha),

    whose huge bracket coefficient pins G to the slow manifold G ~ -alpha/beta.
    The trapezoid rule with an increment-based 2x2 Newton is A-stable there and
    second-order accurate along the (nearly affine) solution.
    """
    p, alpha, beta = params.p, params.alpha, params.beta
    s = math.log(xi_sw)
    s_end = math.log(xi_max)
    F = math.log(f_sw)
    G = xi_sw * fp_sw / f_sw
    two_minus_n = 2.0 - n
    log_floor = math.log(F_FLOOR)

    def phi(s_, F_, G_):
        arg = 2.0 * s_ - p * F_
        if arg > 700.0:  # profile collapsing faster than doubles can follow
            raise SingularityError(
                f"profile hit the positivity floor near xi={math.exp(s_):.6g}"
            )
        D = math.exp(arg)
        return G_, two_minus_n * G_ - G_ * G_ - D * (beta * G_ + alpha)

    xs, fs, fps = [], [], []
    p1F, p1G = phi(s, F, G)
    while s < s_end - 1e-14:
        h = min(ds, s_end - s)
        s_new = s + h
        Fn, Gn = F + h * p1F, G  # predictor: stiff G stays put
        converged = False
        for _ in range(30):
            arg = 2.0 * s_new - p * Fn
            if arg > 700.0 or Fn < log_floor or Fn > 700.0:
                raise SingularityError(
                    f"profile hit the positivity floor near xi={math.exp(s_new):.6g}"
                )
            D = math.exp(arg)
            p2F = Gn
            p2G = two_minus_n * Gn - Gn * Gn - D * (beta * Gn + alpha)
            rF = Fn - F - 0.5 * h * (p1F + p2F)
            rG = Gn - G - 0.5 * h * (p1G + p2G)
            # Jacobian of the residual: I - (h/2) dphi/d(F,G)
            j21 = -0.5 * h * (p * D * (beta * Gn + alpha))
            j22 = 1.0 - 0.5 * h * (two_minus_n - 2.0 * Gn - D * beta)
            j12 = -0.5 * h
            det = j22 - j12 * j21  # [[1, j12], [j21, j22]]
            dF = (-rF * j22 + rG * j12) / det
            dG = (-rG + rF * j21) / det
            Fn += dF
            Gn += dG
            if abs(dF) <= 1e-13 * (1.0 + abs(Fn)) and abs(dG) <= 1e-13 * (1.0 + abs(Gn)):
                converged = True
                break
        if not converged:
            raise SingularityError(
                f"tail continuation did not converge near xi={math.exp(s_new):.6g}"
            )
        s, F, G = s_new, Fn, Gn
        p1F, p1G = phi(s, F, G)
        xi = math.exp(s)
        f = math.exp(F)
        xs.append(xi)
        fs.append(f)
        fps.append(G * f / xi)
    return xs, fs, fps


def _check_profile_invariants(prof: Profile) -> None:
    if prof.f.min() <= 0.0:
        raise SingularityError("integrated profile is not positive")
    if prof.fp.max() > 1e-10 * prof.params.A:
        raise SingularityError("integrated profile is not monotone nonincreasing")


def check_integral_identity(profile: Profile) -> float:
    """Max relative residual of the first-integral identity

        xi^(n-1) f' + (beta/(p-1)) (n + (p-1)alpha/beta) g(xi)
                    - (beta/(p-1)) xi^n f^(1-p) = 0,

    with g(xi) = int_0^xi sigma^(n-1) f^(1-p) dsigma, by
    rk.first_integral_residual (cumulative Hermite-Simpson, normalized by the
    largest term).
    """
    params = profile.params
    p, alpha, beta = params.p, params.alpha, params.beta
    if p <= 1.0:
        raise DomainError("the integral identity requires p > 1")
    coeff = beta / (p - 1.0)
    return first_integral_residual(
        profile.xi, profile.f, profile.fp, profile.n, p,
        coeff * (profile.n + (p - 1.0) * alpha / beta), -coeff,
    )


def fit_tail_exponent(profile: Profile, window: tuple[float, float]):
    """Fitted log-log slope of f over the window (>= two decades wide).

    For p > 1 in self-similar mode the slope approximates -alpha/beta.
    Returns (slope, stderr); raises WindowError for bad windows.
    """
    if window[1] > profile.xi_max * (1.0 + 1e-12):
        raise WindowError(f"window {list(window)} exceeds the grid (xi_max={profile.xi_max:g})")
    fit = fit_decay(profile.xi, profile.f, window)
    return fit.slope, fit.stderr


def certify_tail_bounds(profile: Profile, window: tuple[float, float]) -> TailBound:
    """Envelope constants c = min f*(1+xi)^(alpha/beta), C = max, over the window.

    These are grid-dependent certified values: the theory guarantees such
    constants exist but does not construct them.
    """
    params = profile.params
    if params.p <= 1.0 or not params.is_self_similar:
        raise DomainError("tail bounds require p > 1 in self-similar mode")
    lo, hi = window
    if hi > profile.xi_max * (1.0 + 1e-12) or lo < 0.0:
        raise WindowError("window outside the profile grid")
    mask = (profile.xi >= lo) & (profile.xi <= hi)
    if not mask.any():
        raise WindowError("empty certification window")
    vals = profile.f[mask] * (1.0 + profile.xi[mask]) ** params.tail_exponent
    return TailBound(
        lower_const=float(vals.min()),
        upper_const=float(vals.max()),
        exponent=params.tail_exponent,
        window=(lo, hi),
    )


def eval_self_similar(params: ProfileParams, profile: Profile, x, t: float):
    """u(x, t) = t^(-alpha) f(t^(-beta) |x|) with monotone-cubic interpolation.

    Accepts a scalar or array radius; raises RangeError if the similarity
    coordinate leaves the tabulated grid.
    """
    if t <= 0.0:
        raise DomainError("t must be positive")
    xi = t ** (-params.beta) * np.abs(np.asarray(x, dtype=float))
    if np.any(xi > profile.xi_max * (1.0 + 1e-12)):
        raise RangeError(
            f"similarity coordinate {float(np.max(xi)):.6g} exceeds xi_max={profile.xi_max:.6g}"
        )
    vals = t ** (-params.alpha) * profile.interpolant()(np.minimum(xi, profile.xi_max))
    return float(vals) if np.isscalar(x) or np.asarray(x).ndim == 0 else vals


def self_similar_residual(params: ProfileParams, profile: Profile, points) -> float:
    """Max of |u_t - u^p Lap(u)| / |u_t| over sample points (r, t).

    Derivatives are taken with 4th-order centered stencils; the step is the
    cube root of INTERP_TOL, scaled per coordinate (the second-derivative
    stencil amplifies interpolant noise by 1/h^2, so the declared tolerance
    is deliberately conservative).  Sample points must sit
    strictly inside the valid similarity range.
    """
    h_rel = INTERP_TOL ** (1.0 / 3.0)
    spline = profile.interpolant()

    def u(r, t):
        xi = t ** (-params.beta) * abs(r)
        if xi > profile.xi_max:
            raise RangeError(f"stencil point xi={xi:.6g} beyond xi_max={profile.xi_max:.6g}")
        return t ** (-params.alpha) * float(spline(xi))

    worst = 0.0
    for r, t in points:
        if t <= 0.0 or r <= 0.0:
            raise DomainError("sample points need r > 0 and t > 0")
        ht = h_rel * t
        hr = h_rel * max(r, 1.0)
        if r - 2.0 * hr <= 0.0:
            hr = r / 4.0
        u_t = (-u(r, t + 2 * ht) + 8 * u(r, t + ht) - 8 * u(r, t - ht) + u(r, t - 2 * ht)) / (
            12 * ht
        )
        um2, um1, u0, up1, up2 = (
            u(r - 2 * hr, t),
            u(r - hr, t),
            u(r, t),
            u(r + hr, t),
            u(r + 2 * hr, t),
        )
        u_r = (-up2 + 8 * up1 - 8 * um1 + um2) / (12 * hr)
        u_rr = (-up2 + 16 * up1 - 30 * u0 + 16 * um1 - um2) / (12 * hr * hr)
        lap = u_rr + (profile.n - 1) / r * u_r
        # u_t can vanish pointwise (alpha*f + beta*xi*f' crosses zero), so the
        # normalization is floored at the natural time-derivative scale u/t.
        res = abs(u_t - u0**params.p * lap) / max(abs(u_t), u0 / t)
        worst = max(worst, res)
    return worst


# ---------------------------------------------------------------------------
# Serialization: CSV (xi, f, fp) at full double precision + JSON sidecar
# ---------------------------------------------------------------------------


def save_profile(profile: Profile, csv_path) -> None:
    """CSV `xi,f,fp` at full double precision plus a JSON sidecar beside it."""
    csv_path = Path(csv_path)
    with csv_path.open("w", encoding="utf-8") as fh:
        fh.write("xi,f,fp\n")
        for xi, f, fp in zip(profile.xi, profile.f, profile.fp):
            fh.write(f"{xi:.17g},{f:.17g},{fp:.17g}\n")
    payload = {
        "p": profile.params.p,
        "alpha": profile.params.alpha,
        "beta": profile.params.beta,
        "A": profile.params.A,
        "n": profile.n,
        "self_similar": profile.params.is_self_similar,
        "solver": profile.meta,
    }
    csv_path.with_suffix(".json").write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def load_profile(csv_path) -> Profile:
    csv_path = Path(csv_path)
    data = np.loadtxt(csv_path, delimiter=",", skiprows=1)
    payload = json.loads(csv_path.with_suffix(".json").read_text(encoding="utf-8"))
    params = ProfileParams(
        p=payload["p"], alpha=payload["alpha"], beta=payload["beta"], A=payload["A"]
    )
    return Profile(
        params=params,
        n=int(payload["n"]),
        xi=data[:, 0],
        f=data[:, 1],
        fp=data[:, 2],
        meta=payload.get("solver", {}),
    )
