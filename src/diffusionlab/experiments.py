"""Declarative experiment runner: manifests, scenarios, sweeps, reports.

A manifest is a JSON document

    {"schema": 1, "name": ..., "scenario": ..., "parameters": {...},
     "output_dir": ...}

naming one of the registered scenarios.  Each scenario is registered with a
table of its parameters and their defaults, against which the manifest's
parameters are checked before it runs.  It composes the solver modules,
writes its artifacts (JSON-lines norm series, CSV profiles and snapshots),
and returns its assertions, produced files and plot specifications; every
assertion carries a self-describing claim string (the formula or property
being checked), the measured and theoretical values, and the tolerance that
was applied.
Tolerances live in the manifest: the underlying statements are asymptotic
with non-constructive constants, so pass bands at desk scale are experiment
policy, not truth.  Five are fixed in the code: the theorem2000
`supersolution` and `subsolution` margins at 1e-3, prop103's strict
increase at 1e-12, and vartheta_table's `roundtrip` at 1e-15 and `limit_m`
at 1e-10.  A scenario that makes no assertion gives an error record.

Determinism: a record is fixed by its manifest alone; identical manifests
produce byte-identical records apart from the two timestamp fields.
"""

from __future__ import annotations

import hashlib
import json
import math
import multiprocessing
import os
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, asdict
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import pde, profiles, rates, steady
from .errors import DomainError

SCHEMA_VERSION = 1

SCENARIOS = {}
DEFAULTS = {}


def scenario(name, defaults):
    """Register a scenario with its parameter table: every key a manifest may
    set, with its default value; the default's type is the key's type."""

    def deco(fn):
        SCENARIOS[name] = fn
        DEFAULTS[name] = defaults
        return fn

    return deco


def _check_value(key, value, default):
    """DomainError unless value is finite and has the type of default, element
    by element for lists; an int passes for a float and a number for None."""
    if isinstance(default, list) and isinstance(value, list):
        for v in value:
            _check_value(key, v, default[0])
        return
    numeric = isinstance(default, (float, type(None)))
    allowed = (int, float, type(default)) if numeric else type(default)
    if isinstance(value, bool) or not isinstance(value, allowed):
        want = "a number or null" if default is None else type(default).__name__
        raise DomainError(f"parameter '{key}' must be {want}, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise DomainError(f"parameter '{key}' must be finite, got {value!r}")


# The domain of each parameter that a scenario may declare, as (test, what
# the test asks); a scenario that declares `window` or `t_checks` also
# declares `t_end`.
_DOMAINS = {
    "p": (lambda v: v > 0.0, "> 0"),
    "n": (lambda v: v >= 1, ">= 1"),
    "R": (lambda v: v > 0.0, "> 0"),
    "eps": (lambda v: v >= 0.0, ">= 0"),
    "n_nodes": (lambda v: v >= 16, ">= 16"),
    "dt_rel_max": (lambda v: v > 0.0, "> 0"),
    "inner_radius": (lambda v: v is None or v >= 0.0, "null or >= 0"),
    "C1": (lambda v: v is None or v > 0.0, "null or > 0"),
    "n_random": (lambda v: v >= 1, ">= 1"),
    "n_theta": (lambda v: v >= 2, ">= 2"),  # one value makes no pair to compare
    "n_m": (lambda v: v >= 2, ">= 2"),
}


def _check_domain(params: dict) -> None:
    """DomainError naming the first resolved parameter outside its domain, so
    that such a value is rejected before any solver runs."""
    for key, (inside, want) in _DOMAINS.items():
        if key in params and not inside(params[key]):
            raise DomainError(f"parameter '{key}' must be {want}, got {params[key]!r}")
    for key, most, count in (("window", 2, "two"), ("t_checks", math.inf, "at least two")):
        if key not in params:
            continue
        times, t_end = params[key], params["t_end"]
        if not (2 <= len(times) <= most and 0.0 < times[0] and times[-1] <= t_end
                and all(a < b for a, b in zip(times, times[1:]))):
            raise DomainError(f"parameter '{key}' must be {count} increasing times in "
                              f"(0, t_end = {t_end:g}], got {times!r}")


def _resolve_parameters(name: str, parameters) -> dict:
    """The scenario's defaults updated by the manifest parameters; DomainError
    names the first unknown, ill-typed, non-finite or out-of-domain parameter."""
    if not isinstance(parameters, dict):
        raise DomainError(f"parameters must be an object, got {parameters!r}")
    defaults = DEFAULTS[name]
    for key, value in parameters.items():
        if key not in defaults:
            raise DomainError(f"unknown parameter '{key}' for {name}; known: {sorted(defaults)}")
        _check_value(key, value, defaults[key])
    params = dict(defaults, **parameters)
    _check_domain(params)
    return params


def _check_name(value: str, what: str = "name") -> None:
    """A record name, plot label or norm is one path component, as `report`
    makes it part of file names."""
    if value in ("", ".", "..") or "/" in value or "\\" in value:
        raise DomainError(f"{what} {value!r} must be one path component: not empty, '.' or '..', "
                          "and without '/' or '\\'")


@dataclass(frozen=True)
class ExperimentManifest:
    name: str
    scenario: str
    parameters: dict
    output_dir: str
    schema: int = SCHEMA_VERSION

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentManifest":
        if not isinstance(payload, dict):
            raise DomainError(f"manifest must be a JSON object, got {type(payload).__name__}")
        if payload.get("schema", SCHEMA_VERSION) != SCHEMA_VERSION:
            raise DomainError(f"unsupported manifest schema {payload.get('schema')}")
        missing = {"name", "scenario", "output_dir"} - set(payload)
        if missing:
            raise DomainError(f"manifest missing fields: {sorted(missing)}")
        for key in ("name", "scenario", "output_dir"):
            if not isinstance(payload[key], str):
                raise DomainError(f"manifest field '{key}' must be a string, got {payload[key]!r}")
        _check_name(payload["name"])
        if payload["scenario"] not in SCENARIOS:
            raise DomainError(
                f"unknown scenario '{payload['scenario']}'; known: {sorted(SCENARIOS)}"
            )
        return cls(
            name=payload["name"],
            scenario=payload["scenario"],
            parameters=payload.get("parameters", {}),
            output_dir=payload["output_dir"],
            schema=SCHEMA_VERSION,
        )

    @classmethod
    def load(cls, path) -> "ExperimentManifest":
        """Read a manifest file; DomainError names the file on any defect."""
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise DomainError(f"{path}: cannot read ({exc.strerror or exc})") from None
        try:
            return cls.from_dict(json.loads(text))
        except (json.JSONDecodeError, DomainError) as exc:
            raise DomainError(f"{path}: {exc}") from None

    def digest(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()


@dataclass
class Assertion:
    name: str
    claim: str
    measured: float
    theory: float
    tolerance: float
    passed: bool


@dataclass
class ResultRecord:
    name: str
    scenario: str
    manifest_hash: str
    started: str
    finished: str
    produced_files: list
    assertions: list
    passed: bool
    error: str | None = None
    plots: list = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def _check(name, claim, measured, theory, tolerance) -> Assertion:
    return Assertion(
        name=name,
        claim=claim,
        measured=float(measured),
        theory=float(theory),
        tolerance=float(tolerance),
        passed=bool(abs(measured - theory) <= tolerance),
    )


def _check_le(name, claim, measured, bound, slack=0.0) -> Assertion:
    return Assertion(
        name=name,
        claim=claim,
        measured=float(measured),
        theory=float(bound),
        tolerance=float(slack),
        passed=bool(measured <= bound + slack),
    )


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------


@scenario("profile_atlas", defaults={
    "ps": [1.5, 2.0, 3.0], "alpha_rels": [0.5, 0.25],  # alpha = rel / p
    "A_list": [0.5, 1.0, 2.0], "n_list": [1, 3], "xi_max": 50.0, "tol": 1e-10,
    "identity_tol": 1e-6,
})
def run_profile_atlas(params: dict, out_dir: Path):
    assertions, files = [], []
    for p in params["ps"]:
        for rel in params["alpha_rels"]:
            alpha = rel / p
            # f_1 is integrated once per (p, alpha, n); every A ends on a branch of it
            family = {n: profiles.integrate_profile_family(p, alpha, params["A_list"],
                                                           params["xi_max"], tol=params["tol"], n=n)
                      for n in params["n_list"]}
            for i, A in enumerate(params["A_list"]):
                for n in params["n_list"]:
                    prof = family[n][i]
                    res = profiles.check_integral_identity(prof)
                    tag = f"p={p:g}_a={alpha:.4g}_A={A:g}_n={n}"
                    csv = out_dir / f"profile_{tag}.csv"
                    profiles.save_profile(prof, csv)
                    files += [csv.name, csv.with_suffix(".json").name]
                    assertions.append(
                        _check_le(
                            f"identity[{tag}]",
                            "xi^(n-1) f' + (b/(p-1))(n+(p-1)a/b) Int sigma^(n-1) f^(1-p)"
                            " - (b/(p-1)) xi^n f^(1-p) = 0",
                            res,
                            params["identity_tol"],
                        )
                    )
    return assertions, files, []


@scenario("steady_scaling", defaults={
    "p_list": [1.0, 2.0], "n_list": [1, 2, 3], "R_list": [0.5, 2.0, 10.0],
    "tol": 1e-5, "closed_form_tol": 1e-8,
})
def run_steady_scaling(params: dict, out_dir: Path):
    assertions, files = [], []
    for p in params["p_list"]:
        for n in params["n_list"]:
            unit = steady.shoot_unit_profile(p, n)
            csv = out_dir / f"steady_unit_p={p:g}_n={n}.csv"
            steady.save_steady(unit, csv)
            files += [csv.name, csv.with_suffix(".json").name]
            dev = steady.verify_scaling_law(unit, params["R_list"])
            assertions.append(
                _check_le(
                    f"scaling[p={p:g},n={n}]",
                    "w_R(x) = R^(2/p) w_1(x/R) vs independent re-shoots",
                    dev,
                    params["tol"],
                )
            )
            if p == 1.0:
                exact = (1.0 - unit.r**2) / (2 * n)
                err = float(np.max(np.abs(unit.w - exact)))
                assertions.append(
                    _check_le(
                        f"closed_form[p=1,n={n}]",
                        "w_R(r) = (R^2 - r^2)/(2n) for p = 1",
                        err,
                        params["closed_form_tol"],
                    )
                )
    return assertions, files, []


# Solver settings every evolve scenario accepts besides p, n, R, eps, t_end
# and n_nodes; inner_radius None means R/4.
_SOLVER = {"dt_rel_max": 0.02, "inner_radius": None}


def _evolve_from_params(params: dict, datum: pde.InitialDatum, norm_qs, out_dir: Path,
                        t_start: float = 0.0):
    """Evolve the datum from t_start (0 for every scenario; `difflab evolve`
    passes its --t-start) as the parameters say and write run.jsonl;
    returns (run, path)."""
    cfg = pde.SolverConfig(
        n_nodes=params["n_nodes"],
        dt_rel_max=params["dt_rel_max"],
        inner_radius=params["inner_radius"],
    )
    run = pde.evolve(
        datum,
        p=params["p"],
        n=params["n"],
        R=params["R"],
        eps=params["eps"],
        t_end=params["t_end"],
        norm_qs=tuple(norm_qs),
        config=cfg,
        t_start=t_start,
    )
    jsonl = out_dir / "run.jsonl"
    pde.run_to_jsonl(run, jsonl)
    return run, jsonl


def _slope_claim(run, jsonl, params, norm, label, claim, rate, form):
    """(assertion, plot): the fitted log-log slope of `norm` over the window
    against the closed-form decay rate within delta, and the report plot
    that overlays that rate on the series `jsonl`.  The form says what is
    bounded: "upper" the slope (slope <= -rate + delta: decay at least the
    rate), "lower" the decay (-slope <= rate + delta), "two-sided"
    |slope + rate| <= delta."""
    slope = rates.fit_decay(*run.norm_series(norm), tuple(params["window"]), norm_id=norm).slope
    measured, theory, check = {"upper": (slope, -rate, _check_le),
                               "lower": (-slope, rate, _check_le),
                               "two-sided": (slope, -rate, _check)}[form]
    return (check(label, claim, measured, theory, params["delta"]),
            {"series": jsonl.name, "norm": norm, "rate": rate, "label": label})


def _algebraic_evolve(params: dict, out_dir: Path):
    """Evolve the datum C0 (1+r)^-gamma; returns (run, path).  The
    near-critical scenarios put gamma at the sharp edge gamma_factor n/q0 of
    L^q0 and record only the L^q norm."""
    if "gamma_factor" in params:
        gamma = params["gamma_factor"] * params["n"] / params["q0"]
        norm_qs = (params["q"],)
    else:
        gamma, norm_qs = params["gamma"], params["norm_qs"]
    datum = pde.InitialDatum.algebraic(gamma, params["C0"])
    return _evolve_from_params(params, datum, norm_qs, out_dir)


_NEAR_CRITICAL = dict(
    _SOLVER, p=2.0, n=1, q0=1.0, q=2.0, gamma_factor=1.05, C0=1.0, R=200.0, eps=1e-7,
    t_end=1e4, window=[1e2, 1e4], delta=0.05, n_nodes=1000,
)


@scenario("theorem200", defaults=_NEAR_CRITICAL)
def run_theorem200(params: dict, out_dir: Path):
    """Upper decay bounds for data in L^q0: fitted slopes must not fall short
    of the closed-form rates by more than delta (data chosen at the sharp
    edge gamma slightly above n/q0)."""
    p, n, q0, q = params["p"], params["n"], params["q0"], params["q"]
    run, jsonl = _algebraic_evolve(params, out_dir)
    rl = rates.rate_lq(p, n, q0, q)
    nu = rates.rate_nu(p, n, q0)
    lq, lq_plot = _slope_claim(
        run, jsonl, params, f"l{q:g}", "lq_upper",
        f"||u(t)||_q <= C t^-(1-q0/q)/(p+2q0/n) (rate {rl:g})", rl, "upper")
    linf, linf_plot = _slope_claim(
        run, jsonl, params, "linf", "linf_upper",
        f"||u(t)||_inf <= C t^(-nu+d), nu = n/(np+2q0) = {nu:g}", nu, "upper")
    return [lq, linf], [jsonl.name], [lq_plot, linf_plot]


@scenario("theorem100", defaults=_NEAR_CRITICAL)
def run_theorem100(params: dict, out_dir: Path):
    """Sharpness: for the same near-critical data the fitted L^q slope cannot
    beat the optimal rate by more than delta."""
    q = params["q"]
    run, jsonl = _algebraic_evolve(params, out_dir)
    rl = rates.rate_lq(params["p"], params["n"], params["q0"], q)
    check, plot = _slope_claim(
        run, jsonl, params, f"l{q:g}", "lq_lower",
        f"||u(t)||_q >= c t^(-rate-d) for near-critical data (rate {rl:g})", rl, "lower")
    return [check], [jsonl.name], [plot]


_ALGEBRAIC = dict(
    _SOLVER, p=2.0, n=1, gamma=2.0, C0=1.0, R=100.0, eps=1e-5, t_end=1e4,
    window=[1e2, 1e4], delta=0.05, n_nodes=800, norm_qs=[1.0],
)


@scenario("theorem2000_upper", defaults=dict(_ALGEBRAIC, C1=None))  # C1 None: C1 = C0
def run_theorem2000_upper(params: dict, out_dir: Path):
    """Algebraically decaying data: sup-norm decay at the exact closed-form
    rate, certified from above by an amplitude-matched self-similar solution."""
    p, n, R = params["p"], params["n"], params["R"]
    run, jsonl = _algebraic_evolve(params, out_dir)
    rate = rates.rate_gamma(p, n, params["gamma"], rates.INF)
    check, plot = _slope_claim(
        run, jsonl, params, "linf", "linf_rate",
        f"||u(t)||_inf ~ t^-(gamma/(p gamma + 2)) = t^-{rate:g}", rate, "two-sided")

    alpha = rate  # the profile's alpha is the sup-norm decay rate gamma/(p gamma + 2)
    # f_A = scale_profile(f_1, A) spans A^(p/2) times f_1's range, and
    # A = 1.05 C1 / lhat >= 1.05 C1 (lhat <= f_1(0) = 1), so this range
    # gives f_A at least [0, 1.1 R].
    C1 = params["C0"] if params["C1"] is None else params["C1"]
    pp1 = profiles.ProfileParams.self_similar(p, alpha, 1.0)
    xi_max = 1.1 * R * max(1.0, (1.05 * C1) ** (-p / 2.0))
    prof1 = profiles.integrate_profile(pp1, xi_max, tol=1e-10, n=n)
    lhat = profiles.certify_tail_bounds(prof1, (0.0, R)).lower_const
    profA = profiles.scale_profile(prof1, 1.05 * C1 / lhat)
    sup_margin = pde.supersolution_margin(run, profA.params, profA, shift=1.0)

    sandwich = _check_le("supersolution",
                         "u(x,t) <= (t+1)^-a f_A((t+1)^-b |x|) once f_A dominates the datum",
                         sup_margin, 0.0, 1e-3)
    return [check, sandwich], [jsonl.name], [plot]


@scenario("theorem2000_lower", defaults=_ALGEBRAIC)
def run_theorem2000_lower(params: dict, out_dir: Path):
    """Algebraic lower bounds: the run dominates the separated subsolution
    y(tau) w_R(tau) on the growing balls, and decays no faster than the rate."""
    p, n, gamma, C0 = params["p"], params["n"], params["gamma"], params["C0"]
    run, jsonl = _algebraic_evolve(params, out_dir)
    rate = rates.rate_gamma(p, n, gamma, rates.INF)
    check, plot = _slope_claim(
        run, jsonl, params, "linf", "linf_no_faster",
        f"||u(t)||_inf >= c t^-{rate:g} (decay magnitude bounded by rate + delta)", rate, "lower")

    vrun = pde.rescale_to_v(run)
    tau_checks = [tau for tau in vrun.taus if tau > 0.5]
    if not tau_checks:
        raise DomainError(f"no checkpoint tau > 1/2 for the subsolution: the run ends at "
                          f"tau = {vrun.taus[-1]:g}; t_end must exceed e^(1/2) - 1 = 0.6487")
    unit = steady.shoot_unit_profile(p, n)
    worst = math.inf
    for tau in tau_checks:
        sub = pde.separated_subsolution(p, n, gamma, C0, tau, unit)
        worst = min(worst, pde.subsolution_margin(vrun, sub, tau))

    sandwich = _check_le("subsolution",
                         "v(x,tau) >= y(tau) w_R(tau)(x) on B_R(tau), R(tau) = e^(tau/(p gamma+2))",
                         -worst, 0.0, 1e-3)  # min margin must be >= -tol
    return [check, sandwich], [jsonl.name], [plot]


@scenario("prop103", defaults=dict(
    _SOLVER, p=2.0, n=1, sigma=2.0, R=40.0, eps=1e-9, t_end=1e3,
    t_checks=[10.0, 100.0, 1000.0], inner_radius=2.0, n_nodes=512, norm_qs=[1.0],
))
def run_prop103(params: dict, out_dir: Path):
    """Fast-decaying data: the rescaled inner-ball minimum (t+1)^(1/p) u grows
    without bound; checked as strict increase across sampled decades."""
    datum = pde.InitialDatum.gaussian(params["sigma"])
    run, jsonl = _evolve_from_params(params, datum, params["norm_qs"], out_dir)

    ts = run.times
    mins = pde.rescale_to_v(run).min_inner
    checks = params["t_checks"]
    picked = [float(mins[int(np.argmin(np.abs(ts - tv)))]) for tv in checks]
    assertions = []
    for (t_lo, v_lo), (t_hi, v_hi) in zip(zip(checks, picked), zip(checks[1:], picked[1:])):
        assertions.append(
            _check_le(
                f"vmin_increase[{t_lo:g}->{t_hi:g}]",
                "inf over the inner ball of (t+1)^(1/p) u(x,t) diverges",
                v_lo,
                v_hi,
                -1e-12,  # strict increase
            )
        )
    return assertions, [jsonl.name], []


@scenario("remark_heat", defaults={"k": 4, "n_random": 100, "seed": 0})
def run_remark_heat(params: dict, out_dir: Path):
    """Linear-diffusion contrast: polynomial data x^k grow like t^(k/2), with
    exact integer infimum coefficients k!/(k/2)!."""
    k = params["k"]
    # every term of H_k(x, 1) is an even power of x with a positive
    # coefficient, so the infimum over x is the value at x = 0
    inf_coeff = int(rates.heat_polynomial(k, 0, 1))
    expected = math.factorial(k) // math.factorial(k // 2)
    residual_bad = 0
    for x, t in rates.heat_random_rationals(k, count=params["n_random"], seed=params["seed"]):
        if rates.heat_poly_residual(k, x, t) != 0:
            residual_bad += 1
    table = {
        "k": k,
        "inf_coefficient": inf_coeff,
        "H_k(3,1)": float(rates.heat_polynomial(k, 3.0, 1.0)),
    }
    out = out_dir / "heat_table.json"
    out.write_text(json.dumps(table, indent=2) + "\n", encoding="utf-8")
    assertions = [
        _check(
            "inf_coefficient",
            f"inf_x H_k(x,t) = k!/(k/2)! t^(k/2); coefficient for k={k}",
            inf_coeff,
            expected,
            0.0,
        ),
        _check(
            "heat_equation_residual",
            "dH_k/dt - d^2H_k/dx^2 = 0 at random rational points, exactly",
            residual_bad,
            0,
            0.0,
        ),
    ]
    return assertions, [out.name], []


@scenario("vartheta_table", defaults={
    "n_theta": 20, "n_m": 20, "theta_min": 0.1, "theta_max": 10.0, "m_min": -40.0,
    "m_max": -0.05,
})
def run_vartheta_table(params: dict, out_dir: Path):
    """Growth-exponent table: bounds, monotonicity, and the exact roundtrip
    against the decay-rate formula."""
    n_theta, n_m = params["n_theta"], params["n_m"]
    thetas = np.linspace(params["theta_min"], params["theta_max"], n_theta)
    ms = np.linspace(params["m_min"], params["m_max"], n_m)
    grid = [[rates.vartheta(th, m) for th in thetas] for m in ms]

    in_bounds = all(
        0.0 < grid[i][j] < 1.0 and grid[i][j] < 1.0 / (1.0 - ms[i])
        for i in range(n_m)
        for j in range(n_theta)
    )
    mono_theta = all(
        grid[i][j] < grid[i][j + 1] for i in range(n_m) for j in range(n_theta - 1)
    )
    mono_m = all(
        grid[i][j] < grid[i + 1][j] for i in range(n_m - 1) for j in range(n_theta)
    )
    worst_roundtrip = max(
        rates.exponent_roundtrip(th, m) for th in thetas for m in ms
    )
    limit_val = rates.vartheta(float(thetas[-1]), -1e12)

    out = out_dir / "vartheta_table.json"
    out.write_text(
        json.dumps(
            {"thetas": thetas.tolist(), "ms": ms.tolist(), "vartheta": grid}, indent=2
        )
        + "\n",
        encoding="utf-8",
    )
    assertions = [
        _check("bounds", "0 < theta/((1-m)theta+2) < min(1, 1/(1-m))", float(in_bounds), 1.0, 0.0),
        _check("monotone_theta", "growth exponent increases in theta", float(mono_theta), 1.0, 0.0),
        _check("monotone_m", "growth exponent increases in m", float(mono_m), 1.0, 0.0),
        _check_le(
            "roundtrip",
            "|m| theta/((1-m)theta+2) = gamma/(p gamma+2) with p=(m-1)/m, gamma=|m|theta",
            worst_roundtrip,
            1e-15,
        ),
        _check_le("limit_m", "exponent -> 0 as m -> -inf", limit_val, 1e-10),
    ]
    return assertions, [out.name], []


# ---------------------------------------------------------------------------
# run / sweep / report
# ---------------------------------------------------------------------------


def run_manifest(manifest: ExperimentManifest) -> ResultRecord:
    """Execute one scenario; artifacts and the record land in output_dir.
    Any failure, a rejected parameter or a scenario that made no assertions
    included, gives an error record and keeps partial outputs next to a
    `failed` marker holding the traceback; a marker left by an earlier run
    is removed first.  An output_dir that cannot be made gives an error
    record that is returned but written nowhere."""
    out_dir = Path(manifest.output_dir)
    started = datetime.now(timezone.utc).isoformat()
    error = None
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "failed").unlink(missing_ok=True)
        params = _resolve_parameters(manifest.scenario, manifest.parameters)
        assertions, files, plots = SCENARIOS[manifest.scenario](params, out_dir)
        if not assertions:
            raise DomainError("scenario made no assertions")
    except Exception as exc:  # one bad manifest must not abort a sweep
        if out_dir.is_dir():
            (out_dir / "failed").write_text(traceback.format_exc(), encoding="utf-8")
        assertions, files, plots = [], [], []
        error = f"{type(exc).__name__}: {exc}"
    record = ResultRecord(
        name=manifest.name,
        scenario=manifest.scenario,
        manifest_hash=manifest.digest(),
        started=started,
        finished=datetime.now(timezone.utc).isoformat(),
        produced_files=sorted(files),
        assertions=assertions,
        passed=error is None and all(a.passed for a in assertions),
        error=error,
        plots=plots,
    )
    if out_dir.is_dir():
        (out_dir / "record.json").write_text(record.to_json() + "\n", encoding="utf-8")
    return record


_claims = None  # in a sweep's pool worker: the claim counter it shares with the caller


def _share_claims(claims):
    global _claims
    _claims = claims


def _drain(manifests, claims=None) -> dict:
    """{index: record} of the manifests this process claims, one at a time
    until none is left, from `claims` (by default a pool worker's counter)."""
    claims, records = _claims if claims is None else claims, {}
    while True:
        with claims.get_lock():
            i = claims.value
            claims.value = i + 1
        if i >= len(manifests):
            return records
        records[i] = run_manifest(manifests[i])


def sweep(manifests, parallelism: int = 1) -> list:
    """Run manifests in `parallelism` processes, this one included; records
    come back in input order.

    A parallel sweep starts K - 1 pool workers, K = min(parallelism, number
    of manifests to run), and each of the K processes claims the next
    manifest from one shared counter until none is left.  If the caller's
    own manifest raises, the counter is set past the end, so the workers
    stop after their current manifest; a worker that dies makes the sweep
    raise BrokenProcessPool once no manifest is left to claim.

    Each record is deterministic and independent of scheduling.  A manifest
    that fails, by a rejected parameter or any exception in its scenario,
    still gets its record.json (as an error record) and a `failed` marker,
    or only the returned record if its output_dir cannot be made; the rest
    of the sweep runs on.  A manifest whose resolved output_dir is an
    earlier manifest's does not run: its error record names the earlier one
    and is returned but written nowhere."""
    manifests = list(manifests)
    if not manifests:
        raise DomainError("sweep needs at least one manifest")
    refused, first = {}, {}
    for i, m in enumerate(manifests):
        try:
            j = first.setdefault(os.path.realpath(m.output_dir), i)
        except ValueError:  # a null byte: run_manifest gives the error record
            continue
        if j != i:
            now = datetime.now(timezone.utc).isoformat()
            refused[i] = ResultRecord(
                name=m.name, scenario=m.scenario, manifest_hash=m.digest(), started=now,
                finished=now, produced_files=[], assertions=[], passed=False,
                error=f"DomainError: output_dir {m.output_dir!r} is that of the earlier "
                      f"manifest {manifests[j].name!r}")
    todo = [m for i, m in enumerate(manifests) if i not in refused]
    k = min(parallelism, len(todo))
    if k <= 1:
        done = {i: run_manifest(m) for i, m in enumerate(todo)}
    else:
        claims = multiprocessing.Value("i", 0)
        with ProcessPoolExecutor(k - 1, initializer=_share_claims, initargs=(claims,)) as pool:
            futures = [pool.submit(_drain, todo) for _ in range(k - 1)]
            try:
                done = _drain(todo, claims)
            except BaseException:
                claims.value = len(todo)  # under the lock, so no claim undoes it
                raise
            for fut in futures:
                done.update(fut.result())
    ran = (done[i] for i in range(len(todo)))
    return [refused[i] if i in refused else next(ran) for i in range(len(manifests))]


def load_records(directory) -> list:
    """All record.json files under a directory tree, sorted by name;
    DomainError names a file that is not a readable result record or whose
    name, plot label or plot norm is not one path component."""
    recs = []
    for path in sorted(Path(directory).rglob("record.json")):
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            payload["assertions"] = [Assertion(**a) for a in payload["assertions"]]
            payload["plots"] = [
                {"series": str(pl["series"]), "norm": str(pl["norm"]), "rate": float(pl["rate"]),
                 "label": str(pl["label"])}
                for pl in payload.get("plots", [])
            ]
            rec = ResultRecord(**payload)
            _check_name(rec.name)
            for plot in rec.plots:
                _check_name(plot["label"], "plot label")
                _check_name(plot["norm"], "plot norm")
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise DomainError(f"{path}: not a result record ({type(exc).__name__}: {exc})") from None
        except DomainError as exc:
            raise DomainError(f"{path}: {exc}") from None
        recs.append((path.parent, rec))
    return recs


def digest(directory) -> dict:
    """sha256 of every file under a directory tree, keyed by its path within
    the tree.  A record.json is hashed without its `started` and `finished`
    fields, the timestamps that lie outside the determinism contract; every
    other file by its bytes."""
    root = Path(directory)
    if not root.is_dir():
        raise DomainError(f"{root}: not a directory")
    sums = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        try:
            blob = path.read_bytes()
            if path.name == "record.json":
                payload = json.loads(blob)
                timeless = {k: v for k, v in payload.items() if k not in ("started", "finished")}
                blob = json.dumps(timeless, indent=2, sort_keys=True).encode("utf-8")
        except OSError as exc:
            raise DomainError(f"{path}: cannot read ({exc.strerror or exc})") from None
        except (ValueError, AttributeError) as exc:
            raise DomainError(f"{path}: not a result record ({type(exc).__name__}: {exc})") \
                from None
        sums[path.relative_to(root).as_posix()] = hashlib.sha256(blob).hexdigest()
    return sums


def moved_measurements(directory, against) -> list:
    """(record, assertion, measured in `against`, measured in `directory`) for
    every assertion whose measured value differs between the records at the
    same place in the two trees; the record is its path within the tree."""
    theirs = {d.relative_to(against): rec for d, rec in load_records(against)}
    moved = []
    for d, rec in load_records(directory):
        rel = d.relative_to(directory)
        old = {a.name: a.measured for a in theirs[rel].assertions} if rel in theirs else {}
        for a in rec.assertions:
            was = old.get(a.name, a.measured)
            if was != a.measured and not (math.isnan(was) and math.isnan(a.measured)):
                moved.append(((rel / "record.json").as_posix(), a.name, was, a.measured))
    return moved


def report(records_with_dirs, out_dir) -> tuple[str, list]:
    """Summary table plus two-column plot-data files for the norm series."""
    if not records_with_dirs:
        raise DomainError("report needs at least one record")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    lines = [
        f"{'record':28s} {'assertion':32s} {'measured':>13s} {'theory':>13s} {'tol':>9s} verdict",
        "-" * 110,
    ]
    files = []
    n_pass = n_fail = 0
    for rec_dir, rec in records_with_dirs:
        if rec.error:
            lines.append(f"{rec.name:28s} {'(scenario error)':32s} {'-':>13s} {'-':>13s} {'-':>9s} FAIL  {rec.error}")
            n_fail += 1
        for a in rec.assertions:
            verdict = "PASS" if a.passed else "FAIL"
            n_pass += a.passed
            n_fail += not a.passed
            lines.append(
                f"{rec.name:28s} {a.name:32s} {a.measured:13.6g} {a.theory:13.6g} "
                f"{a.tolerance:9.3g} {verdict}  [{a.claim}]"
            )
        for plot in rec.plots:
            series = rec_dir / plot["series"]
            if not series.exists():
                continue
            ts, vs = pde.read_jsonl_series(series, plot["norm"])
            pos = ts > 0.0
            anchor_i = int(np.argmax(pos))
            overlay = np.full_like(vs, np.nan)
            overlay[pos] = vs[anchor_i] * (ts[pos] / ts[anchor_i]) ** (-plot["rate"])
            fname = out_dir / f"{rec.name}_{plot['label']}_{plot['norm']}.csv"
            with fname.open("w", encoding="utf-8") as fh:
                fh.write(f"t,{plot['norm']},overlay_rate_{plot['rate']:g}\n")
                for t, v, o in zip(ts, vs, overlay):
                    fh.write(f"{t:.12g},{v:.12g},{o:.12g}\n")
            files.append(fname)

    lines.append("-" * 110)
    lines.append(f"{n_pass} passed, {n_fail} failed")
    text = "\n".join(lines) + "\n"
    (out_dir / "summary.txt").write_text(text, encoding="utf-8")
    files.append(out_dir / "summary.txt")
    return text, files
