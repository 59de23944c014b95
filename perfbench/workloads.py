"""Workload inputs drawn from the seed, and one timed pass of each workload.

Every pass attempts the same operations in the same order, so a run is a
whole number of rounds: a scenario is one operation in `suite` and
`suite_parallel`; an `evolve` call or a check is one operation in
`evolution`.  The program is driven only through its public API
(`experiments`, `profiles`, `steady`, `pde`, `rates`); functions are looked up
on their modules at call time so that the wrappers in `layers.py` see every
call.
"""

from __future__ import annotations

import json
import math
import random
import shutil
import time
from pathlib import Path

import numpy as np

from diffusionlab import experiments, pde, profiles, rates, steady
from diffusionlab.errors import DiffusionLabError

import checks

SCENARIOS = (
    "profile_atlas",
    "steady_scaling",
    "theorem200",
    "theorem100",
    "theorem2000_upper",
    "theorem2000_lower",
    "prop103",
    "remark_heat",
    "vartheta_table",
)
EVOLVE_SCENARIOS = ("theorem200", "theorem100", "theorem2000_upper", "theorem2000_lower", "prop103")
PARALLEL_WORKERS = 2

# The scenario defaults of diffusionlab.experiments that the independent
# checks need; a manifest that leaves a parameter out runs at these values.
_NEAR_CRITICAL = {"p": 2.0, "n": 1, "q0": 1.0, "q": 2.0, "gamma_factor": 1.05,
                  "window": [1e2, 1e4], "delta": 0.05}
_ALGEBRAIC = {"p": 2.0, "n": 1, "gamma": 2.0, "C0": 1.0, "window": [1e2, 1e4], "delta": 0.05}
SUITE_DEFAULTS = {
    "profile_atlas": {"ps": [1.5, 2.0, 3.0], "alpha_rels": [0.5, 0.25],
                      "A_list": [0.5, 1.0, 2.0], "n_list": [1, 3], "xi_max": 50.0},
    "steady_scaling": {"p_list": [1.0, 2.0], "n_list": [1, 2, 3],
                       "R_list": [0.5, 2.0, 10.0], "closed_form_tol": 1e-8},
    "theorem200": _NEAR_CRITICAL,
    "theorem100": _NEAR_CRITICAL,
    "theorem2000_upper": _ALGEBRAIC,
    "theorem2000_lower": _ALGEBRAIC,
    "prop103": {"p": 2.0, "sigma": 2.0, "t_checks": [10.0, 100.0, 1000.0]},
    "remark_heat": {"k": 4, "n_random": 100, "seed": 0},
    "vartheta_table": {"n_theta": 20, "n_m": 20, "theta_min": 0.1, "theta_max": 10.0,
                       "m_min": -40.0, "m_max": -0.05},
}


def _uniform(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 6)


def suite_overrides(seed: int) -> dict:
    """Manifest parameters per scenario.  Seed 0 gives the default manifests
    (no overrides); any other seed draws a parameter point inside ranges where
    every claim holds and the work per scenario stays the same."""
    if seed == 0:
        return {name: {} for name in SCENARIOS}
    rng = random.Random(seed)
    return {
        "profile_atlas": {"A_list": [_uniform(rng, 0.45, 0.55), _uniform(rng, 0.9, 1.1),
                                     _uniform(rng, 1.8, 2.2)]},
        "steady_scaling": {"R_list": [_uniform(rng, 0.4, 0.6), _uniform(rng, 1.6, 2.4),
                                      _uniform(rng, 8.0, 12.0)]},
        "theorem200": {"gamma_factor": _uniform(rng, 1.04, 1.07)},
        "theorem100": {"gamma_factor": _uniform(rng, 1.04, 1.07)},
        "theorem2000_upper": {"C0": _uniform(rng, 1.0, 1.3)},
        "theorem2000_lower": {"C0": _uniform(rng, 1.0, 1.3)},
        "prop103": {"sigma": _uniform(rng, 1.8, 2.2)},
        "remark_heat": {"seed": seed},
        "vartheta_table": {"theta_max": _uniform(rng, 9.0, 11.0), "m_min": _uniform(rng, -44.0, -36.0)},
    }


def suite_parameters(seed: int) -> dict:
    """Effective parameters per scenario: defaults updated by the overrides."""
    over = suite_overrides(seed)
    return {name: dict(SUITE_DEFAULTS[name], **over[name]) for name in SCENARIOS}


def write_manifests(seed: int, work: Path) -> list:
    """Write the nine manifests as JSON files and load them back, as a user
    of `difflab run` would.  Every pass writes into `work/active`."""
    over = suite_overrides(seed)
    mdir = work / "manifests"
    mdir.mkdir(parents=True, exist_ok=True)
    manifests = []
    for name in SCENARIOS:
        path = mdir / f"{name}.json"
        payload = {"schema": 1, "name": name, "scenario": name, "parameters": over[name],
                   "output_dir": str(work / "active" / name)}
        path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        manifests.append(experiments.ExperimentManifest.load(path))
    return manifests


def evolution_parameters(seed: int) -> dict:
    """Seed 0 gives the criterion set-ups as stated; other seeds move the
    self-similar amplitude, the ladder floors and the fine-grid amplitude."""
    params = {"selfsim_A": 1.0, "ladder_scale": 1.0, "fine_C0": 1.0}
    if seed != 0:
        rng = random.Random(seed)
        params = {"selfsim_A": _uniform(rng, 0.8, 1.25), "ladder_scale": _uniform(rng, 0.5, 2.0),
                  "fine_C0": _uniform(rng, 1.0, 1.3)}
    return params


def build_inputs(workload: str, seed: int, work: Path):
    if workload == "evolution":
        return evolution_parameters(seed)
    return write_manifests(seed, work)


# ---------------------------------------------------------------------------
# suite and suite_parallel
# ---------------------------------------------------------------------------


def run_suite_pass(manifests, dest: Path, parallel: bool, gauge):
    """Run the nine manifests into `work/active`, then move the outputs to
    `dest`.  Returns (wall, records, per-scenario times) in reference seconds
    (raw seconds when `gauge` is None).  A serial pass reads the gauge after
    every scenario and its wall time is the sum of the scenario times; a
    parallel pass reads it after the sweep and takes each scenario's time
    inside its worker from the record's timestamps."""
    active = Path(manifests[0].output_dir).parent
    shutil.rmtree(active, ignore_errors=True)
    scale = gauge.scale if gauge is not None else lambda: 1.0
    seconds = {}
    if parallel:
        t0 = time.perf_counter()
        try:
            records = experiments.sweep(manifests, parallelism=PARALLEL_WORKERS)
        except Exception as exc:  # an aborted sweep fails all of its operations
            records = [_crash_record(m, exc) for m in manifests]
        wall = time.perf_counter() - t0
        factor = scale()
        wall *= factor
        seconds = {r.scenario: checks.record_seconds(r) * factor for r in records}
    else:
        records = []
        for m in manifests:
            t0 = time.perf_counter()
            try:
                records.append(experiments.run_manifest(m))
            except Exception as exc:  # keep going: the failure is counted, not fatal
                records.append(_crash_record(m, exc))
            seconds[m.scenario] = (time.perf_counter() - t0) * scale()
        wall = sum(seconds.values())
    if active.exists():
        active.rename(dest)
    return wall, records, seconds


def _crash_record(manifest, exc):
    return experiments.ResultRecord(
        name=manifest.name, scenario=manifest.scenario, manifest_hash=manifest.digest(),
        started="", finished="", produced_files=[], assertions=[], passed=False,
        error=f"{type(exc).__name__}: {exc}",
    )


def suite_part_seconds(seconds: dict) -> dict:
    """The end-to-end part metrics of a suite pass (see README)."""
    return {
        "steady_scaling_s": seconds["steady_scaling"],
        "profile_atlas_s": seconds["profile_atlas"],
        "evolve_scenarios_s": sum(seconds[s] for s in EVOLVE_SCENARIOS),
        # the evolve scenarios split by grid: N = 512 and 800 below, N = 1000 above
        "ladder_s": seconds["prop103"] + seconds["theorem2000_upper"] + seconds["theorem2000_lower"],
        "fine_grid_s": seconds["theorem200"] + seconds["theorem100"],
    }


# ---------------------------------------------------------------------------
# evolution
# ---------------------------------------------------------------------------

EVOLUTION_OPS = (
    "evolve.selfsim", "check.selfsim_error",
    "evolve.ladder_eps_hi", "evolve.ladder_eps_mid", "evolve.ladder_eps_lo", "evolve.ladder_R40",
    "check.ladder_eps", "check.ladder_R",
    "evolve.fine_grid", "check.max_principle", "check.norms_nonincreasing",
    "check.decay_fit", "check.supersolution", "check.subsolution",
)

# Bounds of the evolution checks.
SELFSIM_TOL = 0.01
LADDER_TOL = 1e-6
SLOPE_TOL = 0.05
SANDWICH_TOL = 1e-3
FIT_WINDOW = (1e2, 1e4)


class Ops:
    """Runs the operations of one pass.  An operation that raises is failed,
    and so is every later operation that needs its result; a checked value
    outside its bound is a wrong answer."""

    def __init__(self):
        self.failed = []
        self.problems = []
        self.values = {}
        self.seconds = {}

    def run(self, name, fn, needs=()):
        self.seconds[name] = 0.0
        if any(n in self.failed for n in needs):
            self.failed.append(name)
            return None
        t0 = time.perf_counter()
        try:
            return fn()
        except (DiffusionLabError, ValueError, ArithmeticError, KeyError) as exc:
            self.failed.append(name)
            self.problems.append(f"{name}: {type(exc).__name__}: {exc}")
            return None
        finally:
            self.seconds[name] = time.perf_counter() - t0

    def check(self, name, fn, bound, needs=()):
        value = self.run(name, fn, needs)
        if name in self.failed:
            return
        self.values[name] = value
        if not bound(value):
            self.problems.append(f"{name}: {value!r} outside its bound")


def run_evolution_pass(params: dict):
    """One pass of the `evolution` workload.  Returns (wall seconds, part
    seconds, Ops)."""
    ops = Ops()
    t0 = time.perf_counter()

    # criterion 5: an exact self-similar slice evolved by the PDE solver
    pp = profiles.ProfileParams.self_similar(2.0, 0.25, params["selfsim_A"])

    def selfsim():
        prof = profiles.integrate_profile(pp, 110.0, tol=1e-10, n=1)
        grid = np.linspace(0.0, 100.0, 2001)
        datum = pde.InitialDatum.table(grid, profiles.eval_self_similar(pp, prof, grid, 1.0), "slice")
        run = pde.evolve(datum, p=2.0, n=1, R=100.0, eps=1e-4, t_end=10.0, norm_qs=(1.0,),
                         config=pde.SolverConfig(n_nodes=800, dt_rel_max=0.01), t_start=1.0)
        return prof, run

    selfsim_got = ops.run("evolve.selfsim", selfsim)
    ops.check("check.selfsim_error",
              lambda: checks.selfsim_error(pp, *selfsim_got, profiles.eval_self_similar),
              lambda err: err < SELFSIM_TOL, ["evolve.selfsim"])

    # criterion 8: the monotone approximation ladder (decreasing in eps, increasing in R)
    eps_list = [e * params["ladder_scale"] for e in (1e-2, 1e-3, 1e-4)]
    base = pde.InitialDatum.algebraic(2.0)

    def ladder_run(R, eps, nodes):
        return lambda: pde.evolve(base.tapered(R), p=2.0, n=1, R=R, eps=eps, t_end=10.0,
                                  norm_qs=(1.0,), config=pde.SolverConfig(n_nodes=nodes, datum_mode="add"))

    hi = ops.run("evolve.ladder_eps_hi", ladder_run(20.0, eps_list[0], 257))
    mid = ops.run("evolve.ladder_eps_mid", ladder_run(20.0, eps_list[1], 257))
    lo = ops.run("evolve.ladder_eps_lo", ladder_run(20.0, eps_list[2], 257))
    wide = ops.run("evolve.ladder_R40", ladder_run(40.0, eps_list[1], 513))
    ops.check("check.ladder_eps",
              lambda: max(checks.ladder_violation(mid, hi), checks.ladder_violation(lo, mid)),
              lambda v: v <= LADDER_TOL,
              ["evolve.ladder_eps_hi", "evolve.ladder_eps_mid", "evolve.ladder_eps_lo"])
    ops.check("check.ladder_R", lambda: checks.ladder_violation(mid, wide),
              lambda v: v <= LADDER_TOL, ["evolve.ladder_eps_mid", "evolve.ladder_R40"])

    # fine grid: algebraic datum, n = 3, N = 4000, out to t = 1e4
    p, n, gamma, C0 = 2.0, 3, 2.0, params["fine_C0"]
    fine = ops.run("evolve.fine_grid", lambda: pde.evolve(
        pde.InitialDatum.algebraic(gamma, C0), p=p, n=n, R=100.0, eps=1e-5, t_end=1e4,
        norm_qs=(1.0,), config=pde.SolverConfig(n_nodes=4000, dt_rel_max=0.02)))

    runs = [r for r in (selfsim_got and selfsim_got[1], hi, mid, lo, wide, fine) if r]
    ops.check("check.max_principle",
              lambda: max(s.max_principle_slack for r in runs for s in r.samples),
              lambda slack: slack == 0.0)
    ops.check("check.norms_nonincreasing", lambda: max(checks.norm_increase(r) for r in runs),
              lambda rise: rise <= 0.0)
    rate = checks.closed_form_rate_gamma(p, gamma)
    ops.check("check.decay_fit", lambda: checks.fitted_slope(fine, "linf", FIT_WINDOW, rates.fit_decay),
              lambda fit: abs(fit[0] - fit[1]) <= 1e-9 and abs(fit[0] + rate) <= SLOPE_TOL,
              ["evolve.fine_grid"])

    # theorem2000 sandwich over the fine-grid run
    ops.check("check.supersolution", lambda: _supersolution(fine, p, n, gamma, C0),
              lambda m: m <= SANDWICH_TOL, ["evolve.fine_grid"])
    ops.check("check.subsolution", lambda: _subsolution(fine, p, n, gamma, C0),
              lambda m: m >= -SANDWICH_TOL, ["evolve.fine_grid"])

    wall = time.perf_counter() - t0
    s = ops.seconds
    ladder_s = sum(s[k] for k in EVOLUTION_OPS if k.startswith("evolve.ladder"))
    part = {
        "steady_scaling_s": s["check.subsolution"],
        "profile_atlas_s": s["check.supersolution"],
        "evolve_scenarios_s": s["evolve.selfsim"] + ladder_s + s["evolve.fine_grid"],
        "ladder_s": ladder_s,
        "fine_grid_s": s["evolve.fine_grid"],
    }
    ops.values["series_digest"] = checks.series_digest(runs)
    return wall, part, ops


def _supersolution(run, p, n, gamma, C0):
    """Amplitude-matched self-similar supersolution, built as theorem2000_upper builds it."""
    alpha = gamma / (p * gamma + 2.0)
    prof1 = profiles.integrate_profile(profiles.ProfileParams.self_similar(p, alpha, 1.0),
                                       run.R * 1.1, tol=1e-10, n=n)
    lhat = profiles.certify_tail_bounds(prof1, (0.0, run.R)).lower_const
    ppA = profiles.ProfileParams.self_similar(p, alpha, 1.05 * C0 / lhat)
    profA = profiles.integrate_profile(ppA, run.R * 1.1, tol=1e-10, n=n)
    return pde.supersolution_margin(run, ppA, profA, shift=1.0)


def _subsolution(run, p, n, gamma, C0):
    """Worst separated-subsolution margin over every checkpoint tau > 0.5."""
    unit = steady.shoot_unit_profile(p, n)
    vrun = pde.rescale_to_v(run)
    worst = math.inf
    for tau in vrun.taus:
        if tau > 0.5:
            sub = pde.separated_subsolution(p, n, gamma, C0, float(tau), unit)
            worst = min(worst, pde.subsolution_margin(vrun, sub, float(tau)))
    return worst
