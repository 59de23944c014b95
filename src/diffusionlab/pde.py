"""Regularized radial evolution of u_t = u^p Lap(u) on balls.

The equation is solved on B_R with the boundary held at a floor value
eps >= 0 and positive initial data; the true minimal solution on the whole
space is the monotone double limit eps -> 0, R -> infinity, realized here
as a ladder of runs whose pointwise orderings are checkable (decreasing in
eps, increasing in R).

Scheme: second-order radial Laplacian on a uniform grid with a
symmetry closure at r = 0 and the Dirichlet value pinned at r = R, stepped
by backward Euler with a Newton solve of

    F(u+) = u+ - u - dt * (u+)^p * L u+ = 0

per step.  Each Newton iteration is one direct LAPACK gtsv solve of the
tridiagonal Jacobian (`solve_banded`), in place.  The Jacobian is assembled
in a band buffer that the stepper allocates once, from L u+, (u+)^p and
dt (u+)^p, which the residual of the same iterate has already computed;
the residual comes as -F, the right-hand side.  The stepper holds the
interior state u with its L u and u^p, its clock t, and the slopes
(u_k - u_{k-1}) / dt_k of its last three accepted steps.  From the fourth
step on, Newton starts from the predictor u + dt Q(t + dt), Q the quadratic
through those slopes, clipped at eps, whenever its residual is below u's,
and from u otherwise.  On the default set-ups that halves the tridiagonal
solves of a run and leaves its accepted steps as they were.

Backward Euler rather than a second-order one-step scheme: positivity
robustness near the degenerate boundary layer matters more than formal
order, and accuracy is recovered by the relative dt cap.
`evolve` is the one stepping entry point: a step whose Newton solve fails
is retried at half the step size, its one recovery.

The module also exposes the rescaled picture v = (t+1)^(1/p) u on the
log-time axis tau = ln(t+1), in which v solves v_tau = v^p Lap(v) + v/p and
separated comparison solutions y(tau) * w_R(x) built from the steady
Dirichlet profiles become available.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.linalg.lapack import dgtsv

from .errors import DomainError, NewtonDivergence, StepTooSmall
from .rk import HermiteSpline, pchip_slopes, write_nodes
from .steady import SteadyProfile, shoot_unit_profile

# Step-size ramp after an easy step (at most 5 Newton iterations).
DT_GROWTH = 1.4
# Newton stops once the max-norm residual is below NEWTON_TOL * max(u, eps),
# and gives up (the caller halves dt) after MAX_NEWTON iterations.
NEWTON_TOL = 1e-12
MAX_NEWTON = 30
# Norms and snapshots are recorded at this many log-spaced times per decade.
SAMPLES_PER_DECADE = 20
# A smooth cutoff at radius R starts at TAPER_START * R.
TAPER_START = 0.8


def sphere_area(n: int) -> float:
    """Surface area of the unit sphere in R^n: 2 pi^(n/2) / Gamma(n/2)."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


# The domain of each of evolve's settings, as (test, what the test asks).
# The scenario manifests spread it beside their own keys.
SETTINGS = {
    "p": (lambda v: 0.0 < v < math.inf, "finite and > 0"),
    "n": (lambda v: isinstance(v, (int, np.integer)) and v >= 1, "an integer >= 1"),
    "R": (lambda v: 0.0 < v < math.inf, "finite and > 0"),
    "eps": (lambda v: 0.0 <= v < math.inf, "finite and >= 0"),
    "n_nodes": (lambda v: isinstance(v, (int, np.integer)) and v >= 16, "an integer >= 16"),
    "dt_rel_max": (lambda v: 0.0 < v < math.inf, "finite and > 0"),
    "inner_radius": (lambda v: v is None or v >= 0.0, "null or >= 0"),
}


def check_domain(values: dict, domains: dict = SETTINGS) -> None:
    """DomainError naming the first key of `domains` whose value in `values`
    is outside its domain; keys that `values` lacks are not checked."""
    for key, (inside, want) in domains.items():
        if key in values and not inside(values[key]):
            raise DomainError(f"parameter '{key}' must be {want}, got {values[key]!r}")


@dataclass(frozen=True)
class InitialDatum:
    """Positive continuous initial datum, radial."""

    description: str
    fn: Callable[[np.ndarray], np.ndarray] = field(compare=False)

    @classmethod
    def algebraic(cls, gamma: float, C0: float = 1.0) -> "InitialDatum":
        """C0 * (1 + r)^(-gamma)."""
        if gamma <= 0.0 or C0 <= 0.0:
            raise DomainError("algebraic datum needs gamma > 0 and C0 > 0")
        return cls(
            description=f"{C0:g}*(1+r)^-{gamma:g}",
            fn=lambda r: C0 * (1.0 + r) ** (-gamma),
        )

    @classmethod
    def gaussian(cls, sigma: float, amplitude: float = 1.0) -> "InitialDatum":
        """amplitude * exp(-r^2 / (2 sigma^2)); decays faster than any power."""
        if sigma <= 0.0 or amplitude <= 0.0:
            raise DomainError("gaussian datum needs sigma > 0 and amplitude > 0")

        def fn(r):
            with np.errstate(over="ignore"):  # r^2 = inf gives exp(-inf) = 0, exact
                return amplitude * np.exp(-(r**2) / (2.0 * sigma**2))

        return cls(description=f"{amplitude:g}*exp(-r^2/(2*{sigma:g}^2))", fn=fn)

    @classmethod
    def table(cls, r: np.ndarray, values: np.ndarray, description: str = "table") -> "InitialDatum":
        """Tabulated datum, monotone-cubic (PCHIP) on [r[0], r[-1]], NaN outside."""
        r, values = np.asarray(r, dtype=float), np.asarray(values, dtype=float)
        if r.ndim != 1 or r.shape != values.shape:
            raise DomainError(f"table needs r, values of one length, got {r.shape}, {values.shape}")
        if r.size < 2:
            raise DomainError("table needs at least two points")
        if not (np.all(np.isfinite(r)) and np.all(np.diff(r) > 0.0)):
            raise DomainError("table r must be finite and strictly ascending")
        if not np.all((values > 0.0) & (values < math.inf)):
            raise DomainError("tabulated datum must be positive and finite")
        return cls(description=description, fn=HermiteSpline(r, values, pchip_slopes(r, values)))

    def tapered(self, R: float) -> "InitialDatum":
        """Multiply by a smooth cutoff that is 1 on [0, TAPER_START*R] and reaches 0
        at r = R; cutoffs at different R are pointwise ordered (larger R,
        larger datum), which the approximation ladder relies on."""
        base, start = self.fn, TAPER_START

        def fn(r):
            s = np.clip((np.asarray(r, dtype=float) / R - start) / (1.0 - start), 0.0, 1.0)
            return base(r) * np.cos(0.5 * math.pi * s) ** 2

        return InitialDatum(description=self.description + f" tapered to 0 at r={R:g}", fn=fn)

    def __call__(self, r):
        return self.fn(np.asarray(r, dtype=float))


def canonical_norm(norm_id: str) -> str:
    """'linf' or 'l<q:g>', so that 'l2.0' and 'l2' name the same norm."""
    try:
        if norm_id.startswith("l"):
            return f"l{float(norm_id[1:]):g}"
    except ValueError:
        pass
    raise DomainError(f"norm id must be 'linf' or 'l<q>', got '{norm_id}'")


def _pick_norm(norm: str, linf: float, lq: dict, source) -> float:
    """One sample's value of a canonical norm id; lq is keyed by q."""
    values = {"linf": linf, **{f"l{q}": v for q, v in lq.items()}}
    if norm not in values:
        raise DomainError(f"no norm '{norm}' in {source}; present: {', '.join(values)}")
    return values[norm]


@dataclass
class SampleRecord:
    t: float
    tau: float
    linf: float
    lq: dict
    min_inner: float
    semiconv_min: float | None
    max_principle_slack: float


@dataclass
class EvolutionRun:
    """Snapshots and norm time series of one evolution."""

    p: float
    n: int
    R: float
    eps: float
    r: np.ndarray
    samples: list
    snapshots: list  # (t, u-array) aligned with samples
    # steps, halvings, newton_solves: deterministic counters, not persisted
    stats: dict = field(default_factory=dict)

    @property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.samples])

    def norm_series(self, norm_id: str) -> tuple[np.ndarray, np.ndarray]:
        """(times, values) for 'linf' or 'l<q>' (e.g. 'l1', 'l2')."""
        norm = canonical_norm(norm_id)
        return self.times, np.array([_pick_norm(norm, s.linf, s.lq, "run") for s in self.samples])


@dataclass(frozen=True)
class SolverConfig:
    n_nodes: int = 512
    dt_rel_max: float = 0.05  # dt <= this * max(t, t_floor)
    inner_radius: float | None = None  # default: R/4
    datum_mode: str = "max"  # "max": u0 v eps; "add": u0 + eps (ladder runs)


def _laplacian_coeffs(n: int, N: int, h: float):
    """Tridiagonal coefficients (a, b, c) of u'' + (n-1)/r u' at the nodes
    r_i = i h, i = 0..N-2, of the uniform grid of N nodes with spacing h
    (node N-1 is the Dirichlet boundary): a_i = (1 - (n-1)/(2i)) / h^2,
    b_i = -2 / h^2 and c_i = (1 + (n-1)/(2i)) / h^2, with the symmetry
    closure b_0 = -2n / h^2, c_0 = 2n / h^2 (Lap u(0) = n u''(0), u'(0) = 0);
    a[0] is unused.  Raises DomainError when h is so fine that the largest
    coefficient, 2n / h^2, is not finite, or so coarse that h^2 overflows
    and the diagonal is not negative."""
    with np.errstate(all="ignore"):
        inv_h2 = 1.0 / np.float64(h) ** 2  # a Python float's ** raises on overflow
        c0 = 2.0 * n * inv_h2
    grid = f"grid of N = {N} nodes on [0, R = {(N - 1) * h:g}] has spacing {h:.3g}, "
    if not c0 < math.inf:
        raise DomainError(grid + "too fine for finite Laplacian coefficients")
    if not inv_h2 > 0.0:
        raise DomainError(grid + "too coarse for a negative Laplacian diagonal")
    k = (n - 1.0) / (2.0 * np.arange(1, N - 1))
    a = np.concatenate(([0.0], (1.0 - k) * inv_h2))
    b = np.concatenate(([-c0], np.full(N - 2, -2.0 * inv_h2)))
    c = np.concatenate(([c0], (1.0 + k) * inv_h2))
    return a, b, c


def solve_banded(l_and_u, ab: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve the tridiagonal system held in scipy's (1, 1) banded storage
    (ab[0, 1:] upper, ab[1] main, ab[2, :-1] lower diagonal) in place, by
    one LAPACK gtsv call: the three bands of ab and b are overwritten, and b
    holds the returned solution.  gtsv is the routine
    `scipy.linalg.solve_banded` calls for these bands, so on finite input
    the solution is the same bit for bit, without scipy's validation, batch
    dispatch and input copies.  A singular matrix raises LinAlgError; NaN or
    inf input is not refused and gives a non-finite or singular solve."""
    if tuple(l_and_u) != (1, 1):
        raise ValueError(f"only (1, 1) bands are supported, got {tuple(l_and_u)}")
    # the four overwrite flags (dl, d, du, b), positionally
    x, info = dgtsv(ab[2, :-1], ab[1], ab[0, 1:], b, 1, 1, 1, 1)[3:]
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of gtsv")
    return x


class _Stepper:
    """Backward-Euler stepper bound to one grid, owning the interior state.

    It holds u (the nodes off the boundary) with its L u and u^p, its clock
    t, and the slopes s_k = (u_k - u_{k-1}) / dt_k of its last three
    accepted steps, each tagged with its end time t_k.  A slope is
    f(u_k) = u_k^p L u_k to the Newton tolerance, so the slopes vary
    smoothly across step-size changes, while the states jump at every
    landing step.

    Each Newton iterate x costs one Laplacian L x and one power x^p.  The
    residual computes both, with dt x^p, x - u and -F(x), and the Newton
    matrix at x reuses them: its off-diagonal bands are dt x^p times the
    negated Laplacian coefficients, and -F(x) is its right-hand side.  The
    last iterate's x - u, over dt, is the accepted step's slope.  At u, -F
    is dt u^p L u from the held arrays.  Once three slopes are held, and u
    does not already meet the tolerance, the step also tries the predictor
    y = u + dt Q(t + dt), with Q the quadratic through the three (t_k, s_k),
    clipped at eps (at the floor when eps = 0), and starts from y only if
    y's max-norm residual is strictly below u's.  Each iteration takes the
    full Newton step, clipped at the floor, and the step fails unless that
    lowers the max-norm residual.  An accepted step replaces the three
    arrays by those of its last iterate, advances t and adds its slope; a
    failed step leaves all of them as they were.
    """

    def __init__(self, r: np.ndarray, n: int, p: float, eps: float, u: np.ndarray,
                 t: float = 0.0):
        self.p = p
        self.eps = eps
        a, self.b, c = _laplacian_coeffs(n, len(r), r[1] - r[0])
        # the off-diagonal coefficients negated, as the Newton matrix's
        # bands use them; lap subtracts them
        self.neg_a_low, self.neg_c_up, self.c_eps = -a[1:], -c[:-1], c[-1] * eps
        self.floor = 0.5 * eps if eps > 0.0 else 1e-300
        # Newton matrix in (1, 1) banded storage, refilled at every iteration;
        # its unused corners ab[0, 0] and ab[2, -1] stay zero.
        self.ab = np.zeros((3, len(r) - 1))
        self.u, self.lu, self.up = u, self.lap(u), u**p
        self.t = t
        self.slopes = []  # (t_k, s_k) of the last three accepted steps, oldest first
        self.solves = 0  # tridiagonal solves, failed steps' included

    def lap(self, u_int: np.ndarray) -> np.ndarray:
        lu = self.b * u_int
        lu[:-1] -= self.neg_c_up * u_int[1:]
        lu[-1] += self.c_eps
        lu[1:] -= self.neg_a_low * u_int[:-1]
        return lu

    def residual(self, u_new, u_old, dt):
        """(-F(u_new), L u_new, u_new^p, dt u_new^p, u_new - u_old): the
        Newton matrix at u_new reuses the middle three, -F is its right-hand
        side, and the step's slope is the last over dt."""
        lu = self.lap(u_new)
        up = u_new**self.p
        dup = dt * up
        du = u_new - u_old
        return dup * lu - du, lu, up, dup, du

    def predict(self, dt: float) -> np.ndarray:
        """u + dt Q(t + dt) from the three held slopes, clipped at eps (at
        the floor when eps = 0).  The Lagrange weights are products of
        time-difference ratios, so they do not change when all times are
        scaled by a power of two."""
        (ta, sa), (tb, sb), (tc, sc) = self.slopes
        t_new = self.t + dt
        y = sa * (dt * ((t_new - tb) / (ta - tb) * ((t_new - tc) / (ta - tc))))
        y += sb * (dt * ((t_new - ta) / (tb - ta) * ((t_new - tc) / (tb - tc))))
        y += sc * (dt * ((t_new - ta) / (tc - ta) * ((t_new - tb) / (tc - tb))))
        y += self.u
        return np.maximum(y, self.eps if self.eps > 0.0 else self.floor, out=y)

    def step(self, dt: float) -> int:
        """One backward-Euler step of the held state from t to t + dt;
        returns the Newton iterations.  Newton starts from the predictor
        when that has the smaller residual, else from u.  Raises
        NewtonDivergence, keeping the state, clock and slopes, on a singular
        matrix, no descent (a NaN or inf residual too), or MAX_NEWTON iterations."""
        p, ab, eps = self.p, self.ab, self.eps
        u_old, lu, xp = self.u, self.lu, self.up
        # max(max(u_old), eps, 1e-30), in the builtin's operand order
        scale = float(np.maximum.reduce(u_old))
        if eps > scale:
            scale = eps
        if 1e-30 > scale:
            scale = 1e-30
        tol = NEWTON_TOL * scale
        # the first iterate is u_old or the predictor, which nothing writes
        # into: each later iterate is a fresh array, clipped in place
        x, dxp, du = u_old, dt * xp, None  # du = x - u_old, once x is not u_old
        nres = dxp * lu  # -F(u_old)
        rnorm = float(np.maximum.reduce(np.abs(nres)))
        if len(self.slopes) == 3 and not rnorm < tol:
            y = self.predict(dt)
            y_res = self.residual(y, u_old, dt)
            y_norm = float(np.maximum.reduce(np.abs(y_res[0])))
            if y_norm < rnorm:
                x, rnorm = y, y_norm
                nres, lu, xp, dxp, du = y_res
        for it in range(MAX_NEWTON + 1):
            if rnorm < tol:
                break
            if it == MAX_NEWTON:
                raise NewtonDivergence(f"Newton stalled at residual {rnorm:.3g} (tol {tol:.3g})")
            np.multiply(dxp[:-1], self.neg_c_up, out=ab[0, 1:])
            diag = p * x ** (p - 1.0) * lu
            diag += xp * self.b
            diag *= dt
            np.subtract(1.0, diag, out=ab[1])
            np.multiply(dxp[1:], self.neg_a_low, out=ab[2, :-1])
            self.solves += 1
            try:
                delta = solve_banded((1, 1), ab, nres)  # in place: nres is delta
            except np.linalg.LinAlgError:
                raise NewtonDivergence("singular Newton matrix")
            x = x + delta
            np.maximum(x, self.floor, out=x)
            nres, lu, xp, dxp, du = self.residual(x, u_old, dt)
            rn = float(np.maximum.reduce(np.abs(nres)))
            if not rn < rnorm:  # also when rn is NaN or infinite
                raise NewtonDivergence(f"no descent at iteration {it} (res={rnorm:.3g})")
            rnorm = rn
        self.t += dt
        self.slopes.append((self.t, (x - u_old if du is None else du) / dt))
        del self.slopes[:-3]
        self.u, self.lu, self.up = x, lu, xp
        return it


def _lq(u, q, weight, dr, area) -> float:
    """(area * trapz(u^q weight, r))^(1/q) for finite q, from the node
    spacings dr = diff(r) and weight = r^(n-1) (None for n = 1), in
    np.trapezoid's own arithmetic, so that `evolve` can build dr, weight
    and area once per run."""
    y = u**q * weight if weight is not None else u**q
    return float((area * np.add.reduce(dr * (y[1:] + y[:-1]) / 2.0)) ** (1.0 / q))


def _sample_times(t_start: float, t_end: float) -> list[float]:
    ratio = 10.0 ** (1.0 / SAMPLES_PER_DECADE)
    t = 1e-3 * t_end if t_start <= 0.0 else t_start * ratio
    out = []
    while t < t_end * (1.0 - 1e-12):
        out.append(t)
        t *= ratio
    out.append(t_end)
    return out


def evolve(
    u0: InitialDatum,
    p: float,
    n: int,
    R: float,
    eps: float,
    t_end: float,
    norm_qs=(1.0, 2.0),
    config: SolverConfig | None = None,
    t_start: float = 0.0,
) -> EvolutionRun:
    """March the regularized problem from t_start to t_end with adaptive dt,
    recording norms and snapshots at geometrically spaced times.  The
    settings' domains are those of SETTINGS."""
    cfg = config or SolverConfig()
    check_domain({"p": p, "n": n, "R": R, "eps": eps, "n_nodes": cfg.n_nodes,
                  "dt_rel_max": cfg.dt_rel_max, "inner_radius": cfg.inner_radius})
    if not t_start >= 0.0:
        raise DomainError(f"t_start must be nonnegative, got {t_start!r}")
    if not t_start < t_end < math.inf:
        raise DomainError(f"t_end must be finite and exceed t_start = {t_start:g}, got {t_end!r}")
    if not all(q > 0.0 for q in norm_qs):
        raise DomainError(f"norm exponents q must be positive, got {tuple(norm_qs)}")
    if cfg.datum_mode not in ("max", "add"):
        raise DomainError(f"datum_mode must be 'max' or 'add', got {cfg.datum_mode!r}")
    dt_init = 1e-7 * (t_end - t_start)
    inner = cfg.inner_radius if cfg.inner_radius is not None else R / 4.0

    r = np.linspace(0.0, R, cfg.n_nodes)
    vals = np.asarray(u0(r), dtype=float)
    bad = np.flatnonzero(~((vals >= 0.0) & (vals < math.inf)))
    if bad.size:
        i = bad[0]
        raise DomainError(f"initial datum is {vals[i]:g} at r={r[i]:.4g}"
                          f" (node {i} of {r.size} on [0, {R:g}])")
    u = vals + eps if cfg.datum_mode == "add" else np.maximum(vals, eps)
    u[-1] = eps
    if np.any(u[:-1] <= 0.0):
        raise DomainError("initial state must be positive off the boundary")
    u_top = max(float(np.max(u)), eps)  # the state's upper bound, max(sup u0, eps)

    stepper = _Stepper(r, n, p, eps, u[:-1], t_start)
    # built once per run: r <= inner is a prefix of the ascending grid, and
    # the L^q norms' spacings, weights and sphere area do not change
    n_inner = int(np.searchsorted(r, inner, side="right"))
    norms = [(f"{q:g}", q) for q in norm_qs]
    dr, weight, area = np.diff(r), r ** (n - 1) if n > 1 else None, sphere_area(n)

    def record(t, u_full, semiconv):
        """Append the sample and u_full itself as the snapshot: u_full must be
        an array that nothing else holds."""
        hi = float(np.maximum.reduce(u_full))
        lq = {key: hi if q == math.inf else _lq(u_full, q, weight, dr, area) for key, q in norms}
        # how far the state escapes [eps, u_top]; ~0 for a valid state
        slack = max(eps - float(np.minimum.reduce(u_full)), hi - u_top, 0.0)
        samples.append(
            SampleRecord(
                t=t,
                tau=math.log(t + 1.0),
                linf=hi,
                lq=lq,
                min_inner=float(np.minimum.reduce(u_full[:n_inner])),
                semiconv_min=semiconv,
                max_principle_slack=float(slack),
            )
        )
        snapshots.append((t, u_full))

    samples: list = []
    snapshots: list = []
    # a copy: the stepper holds a view of u as its first state
    record(t_start, u.copy(), None)

    targets = _sample_times(t_start, t_end)
    dt = dt_init
    t_floor = 100.0 * dt_init
    dt_min = 1e-14 * max(t_end, 1.0)
    steps = halvings = 0
    for t_next in targets:
        while stepper.t < t_next * (1.0 - 1e-12):
            # dt = min(dt, dt_rel_max * max(t, t_floor), t_next - t), in the
            # builtins' operand order
            t = stepper.t
            cap = cfg.dt_rel_max * (t_floor if t_floor > t else t)
            if cap < dt:
                dt = cap
            if t_next - t < dt:
                dt = t_next - t
            u_prev = stepper.u
            try:
                iters = stepper.step(dt)
            except NewtonDivergence as exc:
                halvings += 1
                dt *= 0.5
                if dt < dt_min:
                    raise StepTooSmall(f"dt underflow at t={stepper.t:.6g}: no step down to "
                                       f"dt_min = {dt_min:.3g} converged (last: {exc})") from exc
                continue
            steps += 1
            dt_used = dt
            if iters <= 5:
                dt *= DT_GROWTH
        # landed on the sample time; semi-convexity min(log(u / u_prev) / dt
        # + 1 / (p t)) from the landing step.  Dividing by dt > 0 and adding
        # are monotone in floating point, so they commute with the min bit
        # for bit, and a NaN still propagates.
        ratio = stepper.u / u_prev
        log_min = np.minimum.reduce(np.log(ratio, out=ratio))
        semiconv = float(log_min / dt_used + 1.0 / (p * stepper.t))
        # concatenate makes a fresh array, so the snapshot needs no copy
        record(stepper.t, np.concatenate((stepper.u, [eps])), semiconv)

    stats = {"steps": steps, "halvings": halvings, "newton_solves": stepper.solves}
    return EvolutionRun(p=p, n=n, R=R, eps=eps, r=r, samples=samples, snapshots=snapshots,
                        stats=stats)


# ---------------------------------------------------------------------------
# Rescaled picture v = (t+1)^(1/p) u, tau = ln(t+1)
# ---------------------------------------------------------------------------


@dataclass
class RescaledRun:
    """Evolution run mapped to (x, tau) variables: v = (t+1)^(1/p) u."""

    r: np.ndarray
    taus: np.ndarray
    min_inner: np.ndarray  # inner-ball minimum of v, one per sample
    snapshots: list  # (tau, v-array)


def rescale_to_v(run: EvolutionRun) -> RescaledRun:
    """Map a run to the rescaled picture; at t = 0 the slice is the datum."""
    if not run.samples:
        raise DomainError("run has no samples")
    amps = [(s.t + 1.0) ** (1.0 / run.p) for s in run.samples]
    return RescaledRun(
        r=run.r,
        taus=np.array([s.tau for s in run.samples]),
        min_inner=np.array([a * s.min_inner for a, s in zip(amps, run.samples)]),
        snapshots=[(s.tau, a * u) for a, s, (_, u) in zip(amps, run.samples, run.snapshots)],
    )


@dataclass(frozen=True)
class SeparatedSubsolution:
    """Separated comparison solution y(tau) * w_R(x) in the rescaled picture.

    Built for data bounded below by C0 (1+r)^(-gamma): on the ball of radius
    R = exp(tau0/(p gamma + 2)), the rescaled solution dominates
    y(tau) w_R(x), where y solves y' = y/p - y^(p+1)/p from y(0) = delta and
    delta = C0/(2^gamma c1) R^(-gamma - 2/p) with c1 = sup w_1.  At tau0 the
    factor y(tau0) is bounded below by a constant independent of tau0.

    It keeps the unit-ball profile w_1, not w_R: subsolution_margin applies
    the scaling law w_R(r) = R^(2/p) w_1(r/R) to the unit profile's one
    spline.
    """

    p: float
    n: int
    gamma: float
    C0: float
    tau0: float
    R: float
    delta: float
    c1: float
    unit: SteadyProfile

    def y(self, tau: float) -> float:
        e = math.exp(-tau)
        return (self.delta ** (-self.p) * e + 1.0 - e) ** (-1.0 / self.p)

    @property
    def y_floor(self) -> float:
        """Lower bound for y(tau0), independent of tau0."""
        return ((2.0**self.gamma * self.c1 / self.C0) ** self.p + 1.0) ** (-1.0 / self.p)


def separated_subsolution(
    p: float,
    n: int,
    gamma: float,
    C0: float,
    tau0: float,
    unit: SteadyProfile | None = None,
) -> SeparatedSubsolution:
    """Assemble the separated subsolution ingredients for one checkpoint tau0."""
    if gamma <= 0.0 or C0 <= 0.0 or tau0 <= 0.0:
        raise DomainError("need gamma > 0, C0 > 0, tau0 > 0")
    if unit is None:
        unit = shoot_unit_profile(p, n)
    elif (unit.p, unit.n, unit.R) != (p, n, 1.0):
        raise DomainError(f"unit profile is for p={unit.p:g}, n={unit.n}, R={unit.R:g}, "
                          f"not p={p:g}, n={n}, R=1")
    R = math.exp(tau0 / (p * gamma + 2.0))
    c1 = unit.center_value  # sup of the unit profile (radially nonincreasing)
    delta = C0 / (2.0**gamma * c1) * R ** (-gamma - 2.0 / p)
    return SeparatedSubsolution(
        p=p, n=n, gamma=gamma, C0=C0, tau0=tau0, R=R, delta=delta, c1=c1, unit=unit,
    )


def subsolution_margin(vrun: RescaledRun, sub: SeparatedSubsolution, tau: float) -> float:
    """min over B_R(sub) of v(., tau) - y(tau) w_R; >= 0 when the run
    dominates the separated subsolution (relative to its sup).

    w_R(r) is evaluated as R^(2/p) w_1(r/R) through the unit profile's
    spline, which is built once for all checkpoints.  The run's grid is
    ascending, so B_R is its first k nodes, and r <= R gives r/R <= 1."""
    i = int(np.abs(vrun.taus - tau).argmin())
    tau_actual, v = vrun.snapshots[i]
    k = int(np.searchsorted(vrun.r, sub.R, side="right"))
    amp = sub.R ** (2.0 / sub.unit.p)  # R^(2/p) as steady.scale_profile computes it
    wvals = amp * sub.unit.interpolant()(vrun.r[:k] / sub.R)
    lower = sub.y(tau_actual) * wvals
    return float((v[:k] - lower).min() / lower.max())


def supersolution_margin(run: EvolutionRun, params, profile, shift: float = 1.0) -> float:
    """max over all samples/nodes of u - ubar, normalized by sup ubar, where
    ubar(r, t) = (t+shift)^(-alpha) f((t+shift)^(-beta) r); <= 0 when the run
    stays below the shifted self-similar supersolution."""
    from .profiles import eval_self_similar

    worst = -math.inf
    for t, u in run.snapshots:
        ubar = eval_self_similar(params, profile, run.r, t + shift)
        # max((u - ubar) / s) = max(u - ubar) / s bit for bit: dividing by s > 0 is monotone
        worst = max(worst, float((u - ubar).max() / ubar.max()))
    return worst


# ---------------------------------------------------------------------------
# Persistence: JSON-lines records and per-snapshot CSV
# ---------------------------------------------------------------------------


def run_to_jsonl(run: EvolutionRun, path) -> None:
    """One record per sampled time: t, tau, linf, lq map, min_inner."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for s in run.samples:
            rec = {
                "t": s.t,
                "tau": s.tau,
                "linf": s.linf,
                "lq": s.lq,
                "min_inner": s.min_inner,
            }
            if s.semiconv_min is not None:
                rec["semiconv_min"] = s.semiconv_min
            fh.write(json.dumps(rec) + "\n")


def read_jsonl_series(path, norm_id: str) -> tuple[np.ndarray, np.ndarray]:
    """(times, values) of one norm from a run_to_jsonl file; lines without a
    time, such as the fits that `difflab fit` appends, are skipped, and a
    file without a timed sample is refused."""
    norm = canonical_norm(norm_id)
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DomainError(f"{path}: cannot read ({exc.strerror or exc})") from None
    times, values = [], []
    for lineno, line in enumerate(text.splitlines(), 1):
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DomainError(f"{path}:{lineno}: not JSON ({exc})") from None
        if not isinstance(rec, dict):
            raise DomainError(f"{path}:{lineno}: not a JSON object")
        if "t" not in rec:
            continue
        if "linf" not in rec or not isinstance(rec.get("lq"), dict):
            raise DomainError(f"{path}:{lineno}: a timed sample needs 'linf' and an object 'lq'")
        value = _pick_norm(norm, rec["linf"], rec["lq"], path)
        for key, v in (("t", rec["t"]), ("linf", rec["linf"]), (norm, value)):
            if type(v) not in (int, float) or not math.isfinite(v):
                raise DomainError(f"{path}:{lineno}: '{key}' is not a finite number: {v!r}")
        times.append(rec["t"])
        values.append(value)
    if not times:
        raise DomainError(f"{path}: no timed sample")
    return np.array(times), np.array(values)


def snapshots_to_csv(run: EvolutionRun, out_dir) -> list[Path]:
    """Dump snapshot i, at time t, as CSV `r,u` to snapshot_<i>_t<t:.6g>.csv; returns the files.

    The snapshot files an earlier run left in out_dir are removed first, and
    no other file there is touched."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for stale in out_dir.glob("snapshot_*.csv"):
        stale.unlink()
    width = len(str(len(run.snapshots) - 1))  # so the names sort in time order
    files = []
    for i, (t, u) in enumerate(run.snapshots):
        f = out_dir / f"snapshot_{i:0{width}d}_t{t:.6g}.csv"
        write_nodes(f, "r,u", run.r, u)
        files.append(f)
    return files
