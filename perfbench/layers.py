"""Per-layer counters and timers, installed from outside the program.

`Tracer.installed()` swaps wrappers onto public entry points of the
diffusionlab modules for the duration of a traced pass and restores the
originals afterwards.  Names that a module imported from another module
(`integrate_dp45` in `profiles` and `steady`, `solve_banded` and
`shoot_unit_profile` in `pde`) are wrapped where they are looked up, so each
wrapper sees exactly the calls of the module that owns the name.

The wrapper on `experiments.run_manifest` attaches the counts a scenario
added to its record as `layer_counts`.  `sweep` forks its workers after the
wrappers are in place, so the counts made inside a worker travel back with
the pickled record.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager

from diffusionlab import experiments, pde, profiles, rates, rk, steady

GRID_SIZES = (257, 512, 513, 800, 1000, 4000)


class Tracer:
    def __init__(self):
        self.counts = Counter()

    # -- wrapper factories -------------------------------------------------

    def _timed(self, fn, key, on_result=None):
        counts = self.counts

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                counts[key + "_s"] += time.perf_counter() - t0
                counts[key + "_calls"] += 1
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _dp45(self, prefix):
        """integrate_dp45 as `prefix` calls it: calls, accepted steps, RHS
        evaluations, time.  An outward steady shot is the call with a stop
        condition (the inverted sweep has none)."""
        counts, orig = self.counts, rk.integrate_dp45

        def wrapper(rhs, *args, **kwargs):
            evals = 0

            def counted(x, y, z):
                nonlocal evals
                evals += 1
                return rhs(x, y, z)

            t0 = time.perf_counter()
            try:
                xs, ys, zs = orig(counted, *args, **kwargs)
            finally:
                counts[f"{prefix}.seconds"] += time.perf_counter() - t0
                counts[f"{prefix}.calls"] += 1
                counts[f"{prefix}.rhs_evals"] += evals
            counts[f"{prefix}.steps"] += len(xs) - 1
            if prefix == "rk.steady" and kwargs.get("stop") is not None:
                counts["steady.shots"] += 1
            return xs, ys, zs

        return wrapper

    def _reshoot(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            shots0 = counts["steady.shots"]
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                counts["steady.reshoot_s"] += time.perf_counter() - t0
                counts["steady.reshoots"] += 1
                counts["steady.reshoot_shots"] += counts["steady.shots"] - shots0

        return wrapper

    def _solve_banded(self, fn):
        counts = self.counts

        def wrapper(l_and_u, ab, b, *args, **kwargs):
            nodes = ab.shape[1] + 1  # unknowns are the nodes off the boundary
            t0 = time.perf_counter()
            try:
                return fn(l_and_u, ab, b, *args, **kwargs)
            finally:
                counts[f"pde.solve_s.n{nodes}"] += time.perf_counter() - t0
                counts[f"pde.solves.n{nodes}"] += 1

        return wrapper

    def _count(self, fn, key):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _run_manifest(self, fn):
        counts = self.counts

        def wrapper(manifest, *args, **kwargs):
            before = counts.copy()
            t0 = time.perf_counter()
            record = fn(manifest, *args, **kwargs)
            counts[f"experiments.scenario_s.{manifest.scenario}"] += time.perf_counter() - t0
            record.layer_counts = {k: v - before.get(k, 0) for k, v in counts.items()}
            return record

        return wrapper

    # -- installation ------------------------------------------------------

    def _patches(self):
        c = self.counts

        def on_profile(prof):
            c["profiles.nodes"] += len(prof.xi)

        def on_evolve(run):
            c["pde.samples"] += len(run.samples)

        unit = self._count(steady.shoot_unit_profile, "steady.unit_shoots")
        return [
            (profiles, "integrate_dp45", self._dp45("rk.profiles")),
            (steady, "integrate_dp45", self._dp45("rk.steady")),
            (steady, "shoot_unit_profile", unit),
            (pde, "shoot_unit_profile", unit),
            (steady, "shoot_profile_for_radius", self._reshoot(steady.shoot_profile_for_radius)),
            (steady.SteadyProfile, "interpolant",
             self._count(steady.SteadyProfile.interpolant, "steady.interp_builds")),
            (profiles, "integrate_profile", self._timed(profiles.integrate_profile, "profiles.integrate", on_profile)),
            (profiles, "check_integral_identity", self._timed(profiles.check_integral_identity, "profiles.identity")),
            (profiles, "eval_self_similar", self._timed(profiles.eval_self_similar, "profiles.eval")),
            (profiles.Profile, "interpolant", self._count(profiles.Profile.interpolant, "profiles.interp_builds")),
            (pde, "evolve", self._timed(pde.evolve, "pde.evolve", on_evolve)),
            (pde, "solve_banded", self._solve_banded(pde.solve_banded)),
            (pde, "supersolution_margin", self._timed(pde.supersolution_margin, "pde.margin")),
            (pde, "subsolution_margin", self._timed(pde.subsolution_margin, "pde.margin")),
            (rates, "fit_decay", self._timed(rates.fit_decay, "rates.fit")),
            (profiles, "save_profile", self._timed(profiles.save_profile, "experiments.write")),
            (steady, "save_steady", self._timed(steady.save_steady, "experiments.write")),
            (pde, "run_to_jsonl", self._timed(pde.run_to_jsonl, "experiments.write")),
            (experiments, "run_manifest", self._run_manifest(experiments.run_manifest)),
        ]

    @contextmanager
    def installed(self):
        patches = self._patches()
        saved = [(owner, name, owner.__dict__[name]) for owner, name, _ in patches]
        try:
            for owner, name, wrapper in patches:
                setattr(owner, name, wrapper)
            yield self
        finally:
            for owner, name, original in reversed(saved):
                setattr(owner, name, original)


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(c) -> dict:
    """Per-layer metrics of one pass from its counts (see README for units)."""
    out = {}
    for prefix in ("rk.profiles", "rk.steady"):
        calls, steps, evals = c[f"{prefix}.calls"], c[f"{prefix}.steps"], c[f"{prefix}.rhs_evals"]
        # each attempted step costs 6 new RHS evaluations, each call one more to start
        attempts = (evals - calls) / 6.0
        out.update({
            f"{prefix}.calls": calls,
            f"{prefix}.steps": steps,
            f"{prefix}.rhs_evals": evals,
            f"{prefix}.rejected": attempts - steps,
            f"{prefix}.us_per_step": 1e6 * _ratio(c[f"{prefix}.seconds"], steps),
        })
    out.update({
        "steady.unit_shoots": c["steady.unit_shoots"],
        "steady.reshoots": c["steady.reshoots"],
        "steady.shots": c["steady.shots"],
        "steady.shots_per_reshoot": _ratio(c["steady.reshoot_shots"], c["steady.reshoots"]),
        "steady.reshoot_s": c["steady.reshoot_s"],
        "steady.interp_builds": c["steady.interp_builds"],
        "profiles.integrations": c["profiles.integrate_calls"],
        "profiles.nodes": c["profiles.nodes"],
        "profiles.integrate_s": c["profiles.integrate_s"],
        "profiles.identity_s": c["profiles.identity_s"],
        "profiles.eval_s": c["profiles.eval_s"],
        "profiles.interp_builds": c["profiles.interp_builds"],
    })
    solves = sum(c[f"pde.solves.n{n}"] for n in GRID_SIZES)
    out.update({
        "pde.evolves": c["pde.evolve_calls"],
        "pde.evolve_s": c["pde.evolve_s"],
        "pde.samples": c["pde.samples"],
        "pde.newton_solves": solves,
        "pde.solves_per_evolve": _ratio(solves, c["pde.evolve_calls"]),
        "pde.margin_s": c["pde.margin_s"],
    })
    for n in GRID_SIZES:
        out[f"pde.us_per_solve.n{n}"] = 1e6 * _ratio(c[f"pde.solve_s.n{n}"], c[f"pde.solves.n{n}"])
    out.update({
        "rates.fits": c["rates.fit_calls"],
        "rates.fit_s": c["rates.fit_s"],
        "experiments.write_s": c["experiments.write_s"],
    })
    out.update({k: v for k, v in c.items() if k.startswith("experiments.scenario_s.")})
    return out
