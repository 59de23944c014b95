"""Regularized radial evolution of u_t = u^p Lap(u) on balls.

The equation is solved on B_R with the boundary held at a floor value
eps >= 0 and positive initial data; the true minimal solution on the whole
space is the monotone double limit eps -> 0, R -> infinity, realized here
as a ladder of runs whose pointwise orderings are checkable (decreasing in
eps, increasing in R).

Scheme: second-order radial Laplacian on a (possibly graded) grid with a
symmetry closure at r = 0 and the Dirichlet value pinned at r = R, stepped
by backward Euler with a damped Newton solve of

    F(u+) = u+ - u - dt * (u+)^p * L u+ = 0

per step.  Backward Euler rather than a second-order one-step scheme:
positivity robustness near the degenerate boundary layer matters more than
formal order, and accuracy is recovered by the relative dt cap.

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
from scipy.interpolate import PchipInterpolator
from scipy.linalg import solve_banded
from scipy.special import gamma as gamma_fn

from .errors import DomainError, NewtonDivergence, StepTooSmall
from .steady import SteadyProfile, scale_profile, shoot_unit_profile

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
    """Surface area of the unit sphere in R^n: n pi^(n/2) / Gamma(n/2 + 1)."""
    return n * math.pi ** (n / 2.0) / gamma_fn(n / 2.0 + 1.0)


def build_grid(R: float, N: int, stretch: float = 1.0) -> np.ndarray:
    """Graded radial grid on [0, R], clustered near r = R where the boundary
    layer lives.  stretch = h_first/h_last >= 1; stretch = 1 is uniform."""
    if N < 16:
        raise DomainError("grid needs at least 16 nodes")
    if R <= 0.0 or stretch < 1.0:
        raise DomainError("need R > 0 and stretch >= 1")
    if stretch == 1.0:
        return np.linspace(0.0, R, N)
    rho = stretch ** (-1.0 / (N - 2))
    h = rho ** np.arange(N - 1)
    grid = np.concatenate(([0.0], np.cumsum(h)))
    grid *= R / grid[-1]
    grid[-1] = R
    return grid


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
        return cls(
            description=f"{amplitude:g}*exp(-r^2/(2*{sigma:g}^2))",
            fn=lambda r: amplitude * np.exp(-(r**2) / (2.0 * sigma**2)),
        )

    @classmethod
    def table(cls, r: np.ndarray, values: np.ndarray, description: str = "table") -> "InitialDatum":
        """Tabulated datum with monotone-cubic interpolation."""
        if np.any(np.asarray(values) <= 0.0):
            raise DomainError("tabulated datum must be positive")
        interp = PchipInterpolator(r, values, extrapolate=False)
        return cls(description=description, fn=lambda x: interp(x))

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


@dataclass(frozen=True)
class RadialField:
    """Discretized radial state u(r, t) on B_R with the boundary at eps."""

    p: float
    n: int
    R: float
    eps: float
    r: np.ndarray
    u: np.ndarray
    t: float

    def max_principle_slack(self, u0_sup: float) -> float:
        """How far the field escapes [eps, max(u0_sup, eps)]; ~0 for a valid state."""
        upper = max(u0_sup, self.eps)
        return float(max(self.eps - self.u.min(), self.u.max() - upper, 0.0))

    def symmetry_defect(self) -> float:
        """One-sided derivative at r = 0 (second order); vanishes with the grid."""
        h = self.r[1] - self.r[0]
        return float(
            abs(-3.0 * self.u[0] + 4.0 * self.u[1] - self.u[2]) / (2.0 * h)
        )


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
    dt_step: float
    max_principle_slack: float


@dataclass
class EvolutionRun:
    """Snapshots and norm time series of one evolution."""

    p: float
    n: int
    R: float
    eps: float
    r: np.ndarray
    t_start: float
    u0_sup: float
    samples: list
    snapshots: list  # (t, u-array) aligned with samples

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
    stretch: float = 1.0
    dt_rel_max: float = 0.05  # dt <= this * max(t, t_floor)
    inner_radius: float | None = None  # default: R/4
    datum_mode: str = "max"  # "max": u0 v eps; "add": u0 + eps (ladder runs)


def _laplacian_coeffs(r: np.ndarray, n: int):
    """Tridiagonal coefficients (a, b, c) of u'' + (n-1)/r u' for the nodes
    0..N-2 (node N-1 is the Dirichlet boundary); a[0] is unused."""
    N = len(r)
    a = np.zeros(N - 1)
    b = np.zeros(N - 1)
    c = np.zeros(N - 1)
    h0 = r[1] - r[0]
    # symmetry closure: Lap u(0) = n u''(0) with u'(0) = 0
    b[0] = -2.0 * n / h0**2
    c[0] = 2.0 * n / h0**2
    hm = r[1:-1] - r[:-2]
    hp = r[2:] - r[1:-1]
    fac = n - 1.0
    rin = r[1:-1]
    a[1:] = 2.0 / (hm * (hm + hp)) - fac / rin * hp / (hm * (hm + hp))
    b[1:] = -2.0 / (hm * hp) + fac / rin * (hp - hm) / (hm * hp)
    c[1:] = 2.0 / (hp * (hm + hp)) + fac / rin * hm / (hp * (hm + hp))
    return a, b, c


class _Stepper:
    """Backward-Euler stepper bound to one grid; reused across steps."""

    def __init__(self, r: np.ndarray, n: int, p: float, eps: float):
        self.p = p
        self.eps = eps
        self.a, self.b, self.c = _laplacian_coeffs(r, n)
        self.floor = 0.5 * eps if eps > 0.0 else 1e-300

    def lap(self, u_int: np.ndarray) -> np.ndarray:
        lu = self.b * u_int
        lu[:-1] += self.c[:-1] * u_int[1:]
        lu[-1] += self.c[-1] * self.eps
        lu[1:] += self.a[1:] * u_int[:-1]
        return lu

    def residual(self, u_new, u_old, dt):
        return u_new - u_old - dt * u_new**self.p * self.lap(u_new)

    def step(self, u: np.ndarray, dt: float):
        """One backward-Euler step of the interior unknowns; returns
        (u_new, newton_iterations).  Raises NewtonDivergence."""
        p = self.p
        u_old = u
        scale = max(float(np.max(u_old)), self.eps, 1e-30)
        tol = NEWTON_TOL * scale
        x = u_old.copy()
        res = self.residual(x, u_old, dt)
        rnorm = float(np.max(np.abs(res)))
        for it in range(MAX_NEWTON):
            if rnorm < tol:
                return x, it
            lu = self.lap(x)
            xp = x**p
            diag = 1.0 - dt * (p * x ** (p - 1.0) * lu + xp * self.b)
            lower = -dt * xp[1:] * self.a[1:]
            upper = -dt * xp[:-1] * self.c[:-1]
            ab = np.zeros((3, len(x)))
            ab[0, 1:] = upper
            ab[1, :] = diag
            ab[2, :-1] = lower
            try:
                delta = solve_banded((1, 1), ab, -res)
            except np.linalg.LinAlgError:
                raise NewtonDivergence("singular Newton matrix")
            lam = 1.0
            improved = False
            while lam > 1e-6:
                trial = np.maximum(x + lam * delta, self.floor)
                res_t = self.residual(trial, u_old, dt)
                rn_t = float(np.max(np.abs(res_t)))
                if math.isfinite(rn_t) and (rn_t < rnorm or rn_t < tol):
                    x, res, rnorm = trial, res_t, rn_t
                    improved = True
                    break
                lam *= 0.5
            if not improved:
                raise NewtonDivergence(f"no descent at iteration {it} (res={rnorm:.3g})")
        if rnorm < tol:
            return x, MAX_NEWTON
        raise NewtonDivergence(f"Newton stalled at residual {rnorm:.3g} (tol {tol:.3g})")


def step_implicit(field: RadialField, dt: float) -> RadialField:
    """Advance one backward-Euler step; returns a new immutable field."""
    if dt <= 0.0:
        raise DomainError("dt must be positive")
    stepper = _Stepper(field.r, field.n, field.p, field.eps)
    u_new, _ = stepper.step(field.u[:-1].copy(), dt)
    u_full = np.concatenate((u_new, [field.eps]))
    return RadialField(
        p=field.p, n=field.n, R=field.R, eps=field.eps,
        r=field.r, u=u_full, t=field.t + dt,
    )


def lq_norm(r: np.ndarray, u: np.ndarray, q: float, n: int) -> float:
    """L^q norm over the ball: (area(S^(n-1)) * trapz(u^q r^(n-1)))^(1/q)."""
    if q == math.inf:
        return float(np.max(u))
    integrand = u**q * r ** (n - 1) if n > 1 else u**q
    return float((sphere_area(n) * np.trapezoid(integrand, r)) ** (1.0 / q))


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
    recording norms and snapshots at geometrically spaced times."""
    if t_end <= t_start:
        raise DomainError("t_end must exceed t_start")
    if eps < 0.0:
        raise DomainError("eps must be nonnegative")
    cfg = config or SolverConfig()
    dt_init = 1e-7 * (t_end - t_start)
    inner = cfg.inner_radius if cfg.inner_radius is not None else R / 4.0

    r = build_grid(R, cfg.n_nodes, cfg.stretch)
    vals = np.asarray(u0(r), dtype=float)
    if np.any(~np.isfinite(vals)) or np.any(vals < 0.0):
        raise DomainError("initial datum must be finite and nonnegative on the grid")
    u = vals + eps if cfg.datum_mode == "add" else np.maximum(vals, eps)
    u[-1] = eps
    if np.any(u[:-1] <= 0.0):
        raise DomainError("initial state must be positive off the boundary")
    u0_sup = float(np.max(u))

    stepper = _Stepper(r, n, p, eps)
    inner_mask = r <= inner

    def record(t, u_full, semiconv, dt_step):
        lq = {f"{q:g}": lq_norm(r, u_full, q, n) for q in norm_qs}
        state = RadialField(p=p, n=n, R=R, eps=eps, r=r, u=u_full, t=t)
        samples.append(
            SampleRecord(
                t=t,
                tau=math.log(t + 1.0),
                linf=float(np.max(u_full)),
                lq=lq,
                min_inner=float(np.min(u_full[inner_mask])),
                semiconv_min=semiconv,
                dt_step=dt_step,
                max_principle_slack=state.max_principle_slack(u0_sup),
            )
        )
        snapshots.append((t, u_full.copy()))

    samples: list = []
    snapshots: list = []
    record(t_start, u, None, 0.0)

    targets = _sample_times(t_start, t_end)
    t = t_start
    dt = dt_init
    t_floor = 100.0 * dt_init
    u_int = u[:-1].copy()
    dt_min = 1e-14 * max(t_end, 1.0)
    for t_next in targets:
        while t < t_next * (1.0 - 1e-12):
            dt = min(dt, cfg.dt_rel_max * max(t, t_floor), t_next - t)
            try:
                u_new, iters = stepper.step(u_int, dt)
            except NewtonDivergence:
                dt *= 0.5
                if dt < dt_min:
                    raise StepTooSmall(f"dt underflow at t={t:.6g}")
                continue
            t += dt
            dt_used = dt
            u_prev = u_int
            u_int = u_new
            if iters <= 5:
                dt *= DT_GROWTH
        # landed on the sample time; semi-convexity from the landing step
        log_ratio = np.log(u_int / u_prev) / dt_used
        semiconv = float(np.min(log_ratio + 1.0 / (p * t)))
        record(t, np.concatenate((u_int, [eps])), semiconv, dt_used)

    return EvolutionRun(p=p, n=n, R=R, eps=eps, r=r, t_start=t_start, u0_sup=u0_sup,
                        samples=samples, snapshots=snapshots)


# ---------------------------------------------------------------------------
# Rescaled picture v = (t+1)^(1/p) u, tau = ln(t+1)
# ---------------------------------------------------------------------------


@dataclass
class RescaledRun:
    """Evolution run mapped to (x, tau) variables: v = (t+1)^(1/p) u."""

    p: float
    n: int
    R: float
    r: np.ndarray
    taus: np.ndarray
    samples: list  # dicts: tau, t, linf, lq, min_inner
    snapshots: list  # (tau, v-array)


def rescale_to_v(run: EvolutionRun) -> RescaledRun:
    """Map a run to the rescaled picture; at t = 0 the slice is the datum."""
    if not run.samples:
        raise DomainError("run has no samples")
    p = run.p
    samples = []
    snapshots = []
    for s, (_, u) in zip(run.samples, run.snapshots):
        amp = (s.t + 1.0) ** (1.0 / p)
        samples.append(
            {
                "tau": s.tau,
                "t": s.t,
                "linf": amp * s.linf,
                "lq": {k: amp * v for k, v in s.lq.items()},
                "min_inner": amp * s.min_inner,
            }
        )
        snapshots.append((s.tau, amp * u))
    return RescaledRun(
        p=p, n=run.n, R=run.R, r=run.r,
        taus=np.array([s["tau"] for s in samples]),
        samples=samples, snapshots=snapshots,
    )


@dataclass(frozen=True)
class SeparatedSubsolution:
    """Separated comparison solution y(tau) * w_R(x) in the rescaled picture.

    Built for data bounded below by C0 (1+r)^(-gamma): on the ball of radius
    R = exp(tau0/(p gamma + 2)), the rescaled solution dominates
    y(tau) w_R(x), where y solves y' = y/p - y^(p+1)/p from y(0) = delta and
    delta = C0/(2^gamma c1) R^(-gamma - 2/p) with c1 = sup w_1.  At tau0 the
    factor y(tau0) is bounded below by a constant independent of tau0.
    """

    p: float
    n: int
    gamma: float
    C0: float
    tau0: float
    R: float
    delta: float
    c1: float
    w: SteadyProfile

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
    R = math.exp(tau0 / (p * gamma + 2.0))
    c1 = unit.center_value  # sup of the unit profile (radially nonincreasing)
    delta = C0 / (2.0**gamma * c1) * R ** (-gamma - 2.0 / p)
    return SeparatedSubsolution(
        p=p, n=n, gamma=gamma, C0=C0, tau0=tau0, R=R, delta=delta, c1=c1,
        w=scale_profile(unit, R),
    )


def subsolution_margin(vrun: RescaledRun, sub: SeparatedSubsolution, tau: float) -> float:
    """min over B_R(sub) of v(., tau) - y(tau) w_R; >= 0 when the run
    dominates the separated subsolution (relative to its sup)."""
    i = int(np.argmin(np.abs(vrun.taus - tau)))
    tau_actual, v = vrun.snapshots[i]
    mask = vrun.r <= sub.R
    wvals = sub.w(np.minimum(vrun.r[mask], sub.R))
    lower = sub.y(tau_actual) * wvals
    return float(np.min(v[mask] - lower) / np.max(lower))


def supersolution_margin(run: EvolutionRun, params, profile, shift: float = 1.0) -> float:
    """max over all samples/nodes of u - ubar, normalized by sup ubar, where
    ubar(r, t) = (t+shift)^(-alpha) f((t+shift)^(-beta) r); <= 0 when the run
    stays below the shifted self-similar supersolution."""
    from .profiles import eval_self_similar

    worst = -math.inf
    for t, u in run.snapshots:
        ubar = eval_self_similar(params, profile, run.r, t + shift)
        worst = max(worst, float(np.max((u - ubar) / np.max(ubar))))
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
    time, such as the fits that `difflab fit` appends, are skipped."""
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
        times.append(rec["t"])
        values.append(_pick_norm(norm, rec["linf"], rec["lq"], path))
    return np.array(times), np.array(values)


def snapshots_to_csv(run: EvolutionRun, out_dir) -> list[Path]:
    """Dump each stored snapshot as CSV `r,u`; returns the file list."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = []
    for t, u in run.snapshots:
        f = out_dir / f"snapshot_t{t:.6g}.csv"
        with f.open("w", encoding="utf-8") as fh:
            fh.write("r,u\n")
            for rr, uu in zip(run.r, u):
                fh.write(f"{rr:.17g},{uu:.17g}\n")
        files.append(f)
    return files
