"""Self-similar profiles of the degenerate diffusion equation u_t = u^p Lap(u).

A radial self-similar solution has the form

    u(x, t) = t^(-alpha) * f(t^(-beta) * |x|),

where the profile f solves the second-order ODE

    f^p (f'' + (n-1)/xi * f') + beta*xi*f' + alpha*f = 0,   f(0) = A, f'(0) = 0,

with a regular singular point at xi = 0.  The scaling of the equation fixes
beta = (1 - p*alpha)/2, and the theory needs p > 1 and 0 < alpha < 1/p; the
profile is then positive, nonincreasing, and decays like xi^(-alpha/beta).
This module integrates the ODE, certifies those properties, and evaluates
the resulting space-time solution.

The integration is started off the singular point with the second-order
series f ~ A - (alpha*A^(1-p)/(2n)) xi^2, obtained by balancing the ODE at
leading order.

Only f_1 is integrated: f_A(xi) = A f_1(A^(-p/2) xi) is exact, so the
amplitudes of one (p, alpha, n) family differ only in where f_1 ends.
integrate_profile_family, which profile_atlas calls once per family,
integrates f_1 once to the farthest end and lands each nearer amplitude's
end on a branch of that run.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import DomainError, RangeError, SingularityError, ToleranceError, WindowError
from .rates import fit_decay
from .rk import (HermiteSpline, first_integral_residual, first_nonmonotone_interval, integrate_dp45,
                 write_nodes)

# Positivity floor of the profile integration: below it f is treated as zero.
F_FLOOR = 1e-250
# Interpolation tolerance that sets the finite-difference step of
# self_similar_residual.
INTERP_TOL = 1e-6
# Step cap of the profile integration, as a fraction of max(s0, xi) (see
# integrate_profile); the tail's log step is capped at twice this.
MAX_STEP_FACTOR = 1e-2


@dataclass(frozen=True)
class ProfileParams:
    """Parameters (p, alpha, A) of the profile equation; beta follows."""

    p: float
    alpha: float
    A: float

    def __post_init__(self):
        if not self.p > 1.0:
            raise DomainError(f"self-similar profiles require p > 1, got {self.p}")
        if not 0.0 < self.alpha < 1.0 / self.p:
            raise DomainError(f"self-similar profiles require 0 < alpha < 1/p, got {self.alpha}")
        if not 0.0 < self.A < math.inf:
            raise DomainError(f"A must be finite and positive, got {self.A}")
        try:
            stretch = self.stretch
        except OverflowError:
            stretch = math.inf
        if not 0.0 < stretch < math.inf:
            raise DomainError(f"A^(p/2) must be finite and positive, got A = {self.A} at p = {self.p}")

    @classmethod
    def self_similar(cls, p: float, alpha: float, A: float) -> "ProfileParams":
        """ProfileParams(p, alpha, A) under the name the scenarios use."""
        return cls(p=p, alpha=alpha, A=A)

    @property
    def beta(self) -> float:
        """(1 - p*alpha)/2, the only beta for which t^(-alpha) f(t^(-beta)|x|)
        solves u_t = u^p Lap(u)."""
        return (1.0 - self.p * self.alpha) / 2.0

    @property
    def stretch(self) -> float:
        """A^(p/2), the factor by which f_A(xi) = A f_1(A^(-p/2) xi) stretches
        the xi-axis of f_1."""
        return self.A ** (self.p / 2.0)

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
    _spline: HermiteSpline | None = field(default=None, init=False, compare=False, repr=False)

    @property
    def xi_max(self) -> float:
        return float(self.xi[-1])

    def interpolant(self) -> HermiteSpline:
        """Cubic Hermite interpolant of f through the solver's (f, f') nodes.

        It is built on the first call and kept on the profile, so every later
        call returns that same spline; a profile made by scale_profile or
        dataclasses.replace builds its own.  Changing the node arrays in
        place after the first call would leave it stale.  It is monotone, and
        so keeps f positive and nonincreasing, when every interval meets the
        Fritsch-Carlson condition; integrate_profile certifies that condition
        on the profiles it returns.
        """
        if self._spline is None:
            object.__setattr__(self, "_spline", HermiteSpline(self.xi, self.f, self.fp))
        return self._spline


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
) -> Profile:
    """Integrate the profile ODE from the series start out to xi_max: the
    one-amplitude call of integrate_profile_family, which see."""
    return integrate_profile_family(params.p, params.alpha, [params.A], xi_max, tol, n)[0]


def integrate_profile_family(
    p: float,
    alpha: float,
    amplitudes,
    xi_max: float,
    tol: float = 1e-10,
    n: int = 1,
) -> list[Profile]:
    """The profiles f_A on [0, xi_max] for each A in amplitudes, in that order.

    Only f_1, the profile of amplitude 1, is integrated: the profiles form
    the exact family f_A(xi) = A f_1(A^(-p/2) xi), so f_A is f_1 on
    [0, xi_max / A^(p/2)] and scale_profile applies A.  Nothing in the
    integration depends on A, and f_A is the rescaled f_1 bit for bit (at
    the last node, to the rounding of xi_max / A^(p/2) * A^(p/2)).

    The amplitudes of a family differ only in where f_1 ends, so f_1 is
    integrated once, to the farthest end, and every nearer end branches off
    that run (see _integrate_tail).  Neither step controller looks at the
    end before the step it clips, so each returned profile is, bit for bit,
    the one integrate_profile returns for its amplitude alone.  An end that
    an explicit step could reach within its cap is integrated on its own.

    The accepted-step grid doubles as the sampling grid for the tail fits
    and for the first-integral identity (Hermite-Simpson on the nodes, see
    rk.first_integral_residual), so steps are capped at
    MAX_STEP_FACTOR * max(s0, xi) with s0 = max(1, 1/sqrt(alpha)), the
    curvature length of f_1 at the origin; this keeps the grid log-uniform
    in the tail and fine enough near the origin.

    The equation turns stiff in the tail (the linearized damping rate grows
    like beta*xi*f^(-p)), so the explicit 5(4) pair is used only while it is
    stable at the step cap; beyond that point the integration continues with
    third-order, L-stable 2-stage Radau IIA in (ln xi, ln f) variables, where
    the solution is a near-affine slow manifold.  Its log step is capped at
    2 * MAX_STEP_FACTOR (less for tails steeper than xi^-3) and held to the
    same tol; see _integrate_tail.

    Each profile's meta holds tol, MAX_STEP_FACTOR, xi0 and the tail's
    tail_steps, tail_rejected and tail_newton: the accepted and rejected
    Radau steps and the Newton iterations of the run to its own end, which
    are what integrate_profile reports for its amplitude alone (all 0 when
    the profile ends in the explicit phase).

    Raises SingularityError if f falls below F_FLOOR before xi_max (parameter
    regime outside the positivity theory, or numerical failure) or the tail
    leaves the range of doubles, and ToleranceError if the step size
    underflows.
    """
    if not 1e-12 < tol < 1e-3:
        raise DomainError("tol must lie in (1e-12, 1e-3)")
    family = [ProfileParams(p=p, alpha=alpha, A=A) for A in amplitudes]
    if not family:
        return []
    s0 = max(1.0, 1.0 / math.sqrt(alpha))
    xi0 = 1e-5 * s0
    ends = [xi_max / params.stretch for params in family]
    for params, x_max in zip(family, ends):
        if not xi0 < x_max < math.inf:
            raise DomainError(f"xi_max must be finite and exceed the series start "
                              f"xi0 = {xi0 * params.stretch:.6g}, got {xi_max!r}")

    unit = replace(family[0], A=1.0)
    point = _axes(family)
    beta = unit.beta
    x_far = max(ends)
    f0, fp0 = taylor_start(unit, xi0, n)
    neg_nm1, neg_p = -(n - 1.0), -p
    log, log_half = math.log, math.log(0.5)

    def rhs(xi, f, fp):
        fc = f if f > 1e-30 else 1e-30  # keeps trial stages finite; rejection handles the rest
        fpp = neg_nm1 / xi * fp - fc ** neg_p * (beta * xi * fp + alpha * fc)
        return fp, fpp

    def stop(xi, f, fp):
        if f < F_FLOOR:
            return True
        # Stability watch: leave the explicit phase once the damping rate
        # times the step cap reaches O(1).  Computed in logs to avoid overflow.
        lam_h = log(beta * xi * MAX_STEP_FACTOR * (xi if xi > s0 else s0)) - p * log(f)
        return lam_h > log_half

    try:
        xs, fs, fps = integrate_dp45(
            rhs,
            xi0,
            (f0, fp0),
            x_far,
            rtol=tol,
            atol=(0.0, 0.0),
            max_step=lambda xi: MAX_STEP_FACTOR * (xi if xi > s0 else s0),
            first_step=min(xi0, MAX_STEP_FACTOR * s0),
            stop=stop,
        )
    except ToleranceError:
        raise SingularityError(
            f"profile integration stalled for {family[ends.index(x_far)]} (f approaching zero)"
        ) from None
    if fs[-1] < F_FLOOR:
        raise SingularityError(f"profile hit the positivity floor at {point(xs[-1])}")

    # An end X that every explicit step stays short of by more than its cap
    # never clips one, so its own run takes these very explicit steps.
    explicit = np.array(xs[:-1])
    caps = MAX_STEP_FACTOR * np.maximum(s0, explicit)
    branches = sorted({x for x in ends
                       if xs[-1] < x < x_far and bool(np.all(x - explicit > caps))})
    if xs[-1] < x_far:
        tails = _integrate_tail(
            unit, n, xs[-1], fs[-1], fps[-1], branches + [x_far], ds=2.0 * MAX_STEP_FACTOR,
            tol=tol, h0=math.log(xs[-1] / xs[-2]), point=point,
        )
        tails = dict(zip(branches + [x_far], tails))
    else:
        tails = {x_far: ([], [], [], (0, 0, 0))}

    meta = {"tol": tol, "max_step_factor": MAX_STEP_FACTOR, "xi0": xi0}
    units, out = {}, []
    for params, x in zip(family, ends):
        if x not in tails:
            out.append(integrate_profile_family(p, alpha, [params.A], xi_max, tol, n)[0])
            continue
        if x not in units:
            xs2, fs2, fps2, (steps, rejected, newton) = tails[x]
            units[x] = Profile(params=unit, n=n, xi=np.array([0.0, *xs, *xs2]),
                               f=np.array([1.0, *fs, *fs2]), fp=np.array([0.0, *fps, *fps2]),
                               meta=dict(meta, tail_steps=steps, tail_rejected=rejected,
                                         tail_newton=newton))
            _check_profile_invariants(units[x])
        out.append(units[x] if params.A == 1.0 else scale_profile(units[x], params.A))
    return out


def scale_profile(unit: Profile, A: float) -> Profile:
    """Exact rescaling f_A(xi) = A f_1(A^(-p/2) xi) of an amplitude-1 profile;
    no re-solve.  xi, f and f' are multiplied by A^(p/2), A and A^(1-p/2),
    which keeps the Fritsch-Carlson ratios that make the interpolant monotone."""
    if abs(unit.params.A - 1.0) > 1e-12:
        raise DomainError("scale_profile expects an amplitude-1 profile")
    params = replace(unit.params, A=A)  # refuses an A whose A^(p/2) is not a positive double
    stretch = params.stretch
    return Profile(
        params=params,
        n=unit.n,
        xi=unit.xi * stretch,
        f=unit.f * A,
        fp=unit.fp * (A / stretch),
        meta=dict(unit.meta, scaled_from=unit.params.A),
    )


def _axes(family):
    """How errors name a point (xi, f) of the f_1 run: on the axes of f_A
    when the family has one amplitude A, and as f_1's point, said so, when
    it has several."""
    if len({params.A for params in family}) == 1:
        stretch, A, note = family[0].stretch, family[0].A, ""
    else:
        stretch, A, note = 1.0, 1.0, " on f_1's axes"

    def point(xi, f=None):
        return f"xi={xi * stretch:.6g}" + ("" if f is None else f", f={f * A:.3g}") + note

    return point


def _integrate_tail(params, n, xi_sw, f_sw, fp_sw, xi_ends, ds, tol, h0, point):
    """2-stage Radau IIA continuation of the profile in log-log variables, to
    each end in the ascending list xi_ends; one (xs, fs, fps, counts) per end,
    counts being the (accepted, rejected, Newton iterations) of the run to
    that end.

    With s = ln xi, F = ln f, G = dF/ds the ODE becomes

        F' = G,   G' = (2 - n) G - G^2 - e^(2s) f^(-p) (beta G + alpha),

    whose huge bracket coefficient pins G to the slow manifold G ~ -alpha/beta.
    Radau IIA (c = 1/3, 1; Hairer-Wanner, Solving ODEs II, IV.5) is order 3,
    L-stable and stiffly accurate, so the new node is the second stage.  As
    F' = G is linear, the stages F_i = F + h sum_j a_ij G_j are explicit in
    (G1, G2) and Newton solves a closed-form 2x2 system in those two unknowns.
    Newton starts from G_i = G + c_i h sigma, sigma = (G_n - G_(n-1)) / h_(n-1)
    being the secant slope of the last accepted step (0 before the first),
    the extrapolated start of Hairer-Wanner IV.8.  It stops once both
    corrections are below 1e-13, so a step whose start is off by more than
    that takes at least two iterations; from this start most take two.

    Steps are capped at ds * min(1, 3 beta/alpha): the tail f ~ xi^(-alpha/beta)
    is resolved by the cubic Hermite pieces of Profile.interpolant only while
    (alpha/beta) * step stays small, and the cap leaves every profile with
    alpha/beta <= 3 at ds.  Below the cap steps are set by the local error of
    F (the relative error of f), estimated as the gap to the second-order
    trapezoid F + h (G + G2)/2 and held to tol with the step controller of
    rk.integrate_dp45.  Far out on the slow manifold that error is tiny and
    every step runs at the cap; it matters where the tail starts before G
    has relaxed onto the manifold (steep profiles, alpha near 1/p).  The
    first trial step is h0, the last explicit step in log units (capped at
    ds): the explicit phase can end error-limited well below its cap, and a
    first trial at the cap would then be rejected.  As in integrate_dp45,
    the controller clips and clamps its steps by plain comparisons in the
    operand order of the builtin min/max, so its steps are the min/max
    form's bit for bit; the Radau Newton arithmetic is as written.

    One run steps to the last end.  The controller reads an end only where
    it clips a step or stops the loop, so a nearer end s_j branches off at
    the first loop top where either would happen (min(h_next, ds) >= s_j - s,
    or s within 1e-14 of s_j): from that (s, F, G, h_next, sigma) and the
    counts so far the same loop runs on to s_j, which is what a run to s_j
    alone would do from there.

    Errors name the point where they arose by point(xi) or point(xi, f),
    a formatter made by _axes.
    """
    p, alpha, beta = params.p, params.alpha, params.beta
    ds *= min(1.0, 3.0 * beta / alpha)
    two_minus_n = 2.0 - n
    log_floor = math.log(F_FLOOR)
    a11, a12, a21, a22 = 5.0 / 12.0, -1.0 / 12.0, 0.75, 0.25

    def guard(two_s, F_, arg):
        """Raise the error of the first guard that the stage at s = two_s / 2
        fails; a stage that passes them all (NaN does) returns."""
        s_ = 0.5 * two_s
        if F_ < log_floor:
            raise SingularityError(f"profile hit the positivity floor near {point(math.exp(s_))}")
        if arg > 700.0:
            raise SingularityError(
                f"profile tail left the range of doubles near {point(math.exp(s_), math.exp(F_))}: "
                f"xi^2 f^(-p) exceeds e^700 (xi range too long)"
            )
        if F_ > 700.0:
            raise SingularityError(f"profile tail diverged near {point(math.exp(s_))}: "
                                   f"f_1 exceeds e^700")

    def stages(two_s1, F1, G1, two_s2, F2, G2):
        """G' and its partials in G and F at both stages, (g1, g1G, g1F, g2,
        g2G, g2F), after the guards of stage 1 and then of stage 2."""
        arg1 = two_s1 - p * F1
        arg2 = two_s2 - p * F2
        if not (log_floor <= F1 <= 700.0 and arg1 <= 700.0
                and log_floor <= F2 <= 700.0 and arg2 <= 700.0):
            guard(two_s1, F1, arg1)
            guard(two_s2, F2, arg2)
        D1 = math.exp(arg1)
        D2 = math.exp(arg2)
        bracket1 = beta * G1 + alpha
        bracket2 = beta * G2 + alpha
        return (two_minus_n * G1 - G1 * G1 - D1 * bracket1, two_minus_n - 2.0 * G1 - D1 * beta,
                p * D1 * bracket1,
                two_minus_n * G2 - G2 * G2 - D2 * bracket2, two_minus_n - 2.0 * G2 - D2 * beta,
                p * D2 * bracket2)

    def run(s, F, G, h_next, sigma, counts, s_ends):
        xs, fs, fps, out = [], [], [], []
        accepted, rejected, newton = counts
        s_end, branches = s_ends[-1], s_ends[:-1]
        k = 0
        while True:
            while k < len(branches) and not (s < branches[k] - 1e-14
                                             and (ds if ds < h_next else h_next) < branches[k] - s):
                [(bxs, bfs, bfps, bcounts)] = run(s, F, G, h_next, sigma,
                                                  (accepted + len(xs), rejected, newton),
                                                  branches[k:k + 1])
                out.append((xs + bxs, fs + bfs, fps + bfps, bcounts))
                k += 1
            if not s < s_end - 1e-14:
                break
            # h = min(h_next, ds, s_end - s), in the builtin's operand order
            h = ds if ds < h_next else h_next
            if s_end - s < h:
                h = s_end - s
            if h < 1e-12:
                raise SingularityError(f"tail step underflow near {point(math.exp(s))}")
            s2 = s + h
            two_s1, two_s2 = 2.0 * (s + h / 3.0), 2.0 * s2
            h_sigma = h * sigma
            G1, G2 = G + h_sigma / 3.0, G + h_sigma
            for it in range(30):
                F1 = F + h * (a11 * G1 + a12 * G2)
                F2 = F + h * (a21 * G1 + a22 * G2)
                g1, g1G, g1F, g2, g2G, g2F = stages(two_s1, F1, G1, two_s2, F2, G2)
                r1 = G1 - G - h * (a11 * g1 + a12 * g2)
                r2 = G2 - G - h * (a21 * g1 + a22 * g2)
                # Jacobian d(r1, r2)/d(G1, G2); dF_j/dG_k = h a_jk
                hh = h * h
                j11 = 1.0 - h * a11 * g1G - hh * (a11 * g1F * a11 + a12 * g2F * a21)
                j12 = -h * a12 * g2G - hh * (a11 * g1F * a12 + a12 * g2F * a22)
                j21 = -h * a21 * g1G - hh * (a21 * g1F * a11 + a22 * g2F * a21)
                j22 = 1.0 - h * a22 * g2G - hh * (a21 * g1F * a12 + a22 * g2F * a22)
                det = j11 * j22 - j12 * j21
                try:
                    dG1 = (-r1 * j22 + r2 * j12) / det
                    dG2 = (-r2 * j11 + r1 * j21) / det
                except ZeroDivisionError:
                    raise SingularityError(
                        f"singular tail Newton matrix near {point(math.exp(s2))}"
                    ) from None
                G1 += dG1
                G2 += dG2
                # The F stages move by h times these increments, so they pass too.
                if abs(dG1) <= 1e-13 * (1.0 + abs(G1)) and abs(dG2) <= 1e-13 * (1.0 + abs(G2)):
                    break
            else:
                raise SingularityError(
                    f"tail continuation did not converge near {point(math.exp(s2))}"
                )
            newton += it + 1
            err = h * abs(0.75 * G1 - 0.25 * G2 - 0.5 * G) / tol
            factor = 0.9 * err ** (-1.0 / 3.0) if err > 0.0 else 5.0
            h_next = h * ((factor if factor < 5.0 else 5.0) if factor > 0.2 else 0.2)
            if err > 1.0:
                rejected += 1
                continue  # rejected: retry from the same node with the smaller step
            sigma = (G2 - G) / h
            s, F, G = s2, F + h * (a21 * G1 + a22 * G2), G2
            xi = math.exp(s)
            f = math.exp(F)
            xs.append(xi)
            fs.append(f)
            fps.append(G * f / xi)
        out.append((xs, fs, fps, (accepted + len(xs), rejected, newton)))
        return out

    return run(math.log(xi_sw), math.log(f_sw), xi_sw * fp_sw / f_sw, h0, 0.0, (0, 0, 0),
               [math.log(x) for x in xi_ends])


def _check_profile_invariants(prof: Profile) -> None:
    if prof.f.min() <= 0.0:
        raise SingularityError("integrated profile is not positive")
    if prof.fp.max() > 1e-10:
        raise SingularityError("integrated profile is not monotone nonincreasing")
    i = first_nonmonotone_interval(prof.xi, prof.f, prof.fp)
    if i >= 0:
        raise SingularityError(
            f"profile interpolant is not monotone on [{prof.xi[i]:.6g}, {prof.xi[i + 1]:.6g}]"
        )


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
    coeff = beta / (p - 1.0)
    return first_integral_residual(
        profile.xi, profile.f, profile.fp, profile.n, p,
        coeff * (profile.n + (p - 1.0) * alpha / beta), -coeff,
    )


def fit_tail_exponent(profile: Profile, window: tuple[float, float]):
    """Fitted log-log slope of f over the window (>= two decades wide).

    The slope approximates -alpha/beta.
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
    """u(x, t) = t^(-alpha) f(t^(-beta) |x|) with cubic Hermite interpolation.

    Accepts a scalar or array radius; raises RangeError if the similarity
    coordinate leaves the tabulated grid.
    """
    if t <= 0.0:
        raise DomainError("t must be positive")
    xi = np.abs(np.asarray(x, dtype=float))
    xi *= t ** (-params.beta)
    xi_max, top = profile.xi_max, np.fmax.reduce(xi, axis=None, initial=0.0)  # NaN ignored
    if top > xi_max * (1.0 + 1e-12):
        raise RangeError(f"similarity coordinate {top:.6g} exceeds xi_max={xi_max:.6g}")
    if top > xi_max:
        xi = np.minimum(xi, xi_max)
    vals = profile.interpolant()(xi)
    vals *= t ** (-params.alpha)
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
    u = functools.partial(eval_self_similar, params, profile)

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
    write_nodes(csv_path, "xi,f,fp", profile.xi, profile.f, profile.fp)
    payload = {
        "p": profile.params.p,
        "alpha": profile.params.alpha,
        "beta": profile.params.beta,
        "A": profile.params.A,
        "n": profile.n,
        "solver": profile.meta,
    }
    csv_path.with_suffix(".json").write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
