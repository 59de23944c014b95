"""Command line interface.

    difflab [--out DIR] [--workers K] <verb> ...

Verbs: profile, steady, evolve, fit, run <manifest.json>, sweep <dir>,
report <dir>, digest <dir> [--against <other>], scenarios.  `evolve` sets up
its run as the evolve scenarios do, and pde.evolve refuses its settings by
the same rules.  Exit status
is 0 iff every assertion of every executed scenario passed (for
`digest --against`: iff no file differs), and 2 for malformed input.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from pathlib import Path

import numpy as np

from . import experiments, pde, profiles, rates, steady
from .errors import DiffusionLabError, DomainError


def _parse_datum(spec: str) -> pde.InitialDatum:
    """'algebraic:gamma=2,C0=1' | 'gaussian:sigma=2' | 'table:<csv>'."""
    kind, _, rest = spec.partition(":")
    kv = {}
    try:
        if kind != "table" and rest:
            for item in rest.split(","):
                key, _, val = item.partition("=")
                kv[key.strip()] = float(val)
        if kind == "algebraic":
            return pde.InitialDatum.algebraic(kv["gamma"], kv.get("C0", 1.0))
        if kind == "gaussian":
            return pde.InitialDatum.gaussian(kv["sigma"], kv.get("amplitude", 1.0))
        if kind == "table":
            data = np.loadtxt(rest, delimiter=",", skiprows=1, ndmin=2)
            if data.shape[1] < 2:
                raise ValueError("the table needs two columns r,u")
            return pde.InitialDatum.table(data[:, 0], data[:, 1], description=rest)
    except KeyError as exc:
        raise DomainError(f"datum spec '{spec}' lacks {exc.args[0]}=<number>") from None
    except (ValueError, DomainError) as exc:  # a table's refusal too
        raise DomainError(f"datum spec '{spec}': {exc}") from None
    except OSError as exc:
        raise DomainError(f"datum spec '{spec}': cannot read ({exc.strerror or exc})") from None
    raise DiffusionLabError(f"unknown datum spec '{spec}'")


def cmd_profile(args, out: Path) -> int:
    params = profiles.ProfileParams.self_similar(args.p, args.alpha, args.A)
    prof = profiles.integrate_profile(params, args.xi_max, tol=args.tol, n=args.n)
    csv = out / f"profile_p={args.p:g}_a={args.alpha:g}_A={args.A:g}_n={args.n}.csv"
    profiles.save_profile(prof, csv)
    print(f"profile: {len(prof.xi)} nodes to xi={prof.xi_max:g}, f(0)={prof.f[0]:g}")
    print(f"identity residual: {profiles.check_integral_identity(prof):.3e}")
    if prof.xi_max >= 100.0 * 100.0:
        slope, se = profiles.fit_tail_exponent(prof, (100.0, min(1e4, prof.xi_max)))
        print(f"tail slope: {slope:.6f} +- {se:.2g} (formula -a/b = {-params.tail_exponent:g})")
    print(f"wrote {csv}")
    return 0


def cmd_steady(args, out: Path) -> int:
    unit = steady.shoot_unit_profile(args.p, args.n)
    prof = steady.scale_profile(unit, args.R) if args.R != 1.0 else unit
    csv = out / f"steady_p={args.p:g}_n={args.n}_R={args.R:g}.csv"
    steady.save_steady(prof, csv)
    print(f"steady profile on B_{args.R:g}: center value {prof.center_value:.8g}")
    print(f"ODE residual (unit ball): {steady.steady_residual(unit):.3e}")
    print(f"wrote {csv}")
    return 0


def cmd_evolve(args, out: Path) -> int:
    datum = _parse_datum(args.datum)
    try:
        norm_qs = tuple(float(q) for q in args.norm_qs.split(","))
    except ValueError:
        raise DomainError(f"--norm-qs '{args.norm_qs}' is not a comma-separated list of numbers") from None
    params = {"p": args.p, "n": args.n, "R": args.R, "eps": args.eps, "t_end": args.t_end,
              "n_nodes": args.n_nodes, "dt_rel_max": args.dt_rel, "inner_radius": args.inner_radius}
    run, jsonl = experiments._evolve_from_params(params, datum, norm_qs, out, t_start=args.t_start)
    print(f"evolved to t={args.t_end:g}: {len(run.samples)} samples -> {jsonl}")
    print(" ".join(f"{key}={value}" for key, value in run.stats.items()))
    if args.snapshots:
        files = pde.snapshots_to_csv(run, out / "snapshots")
        print(f"wrote {len(files)} snapshot CSVs")
    return 0


def cmd_fit(args, out: Path) -> int:
    path = Path(args.series)
    norm = pde.canonical_norm(args.norm)
    times, values = pde.read_jsonl_series(path, norm)
    fit = rates.fit_decay(times, values, (args.window[0], args.window[1]), norm_id=norm)
    print(f"slope {fit.slope:.6f} +- {fit.stderr:.2g} over t in [{args.window[0]:g}, {args.window[1]:g}]")
    with path.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps({"fits": {norm: {"slope": fit.slope, "stderr": fit.stderr,
                                             "window": list(fit.window)}}}) + "\n")
    return 0


def cmd_run(args, out: Path) -> int:
    manifest = experiments.ExperimentManifest.load(args.manifest)
    record = experiments.run_manifest(manifest)
    if not Path(manifest.output_dir).is_dir():  # so the record was written nowhere
        print(f"error: {record.error}", file=sys.stderr)
        return 2
    for a in record.assertions:
        print(f"[{'PASS' if a.passed else 'FAIL'}] {a.name}: measured {a.measured:.6g} "
              f"vs {a.theory:.6g} (tol {a.tolerance:.3g})")
    if record.error:
        print(f"scenario error: {record.error}", file=sys.stderr)
    print(f"record: {Path(manifest.output_dir) / 'record.json'}")
    return 0 if record.passed else 1


def cmd_sweep(args, out: Path) -> int:
    manifests, unreadable = [], 0
    for path in sorted(Path(args.directory).glob("*.json")):
        try:
            manifests.append(experiments.ExperimentManifest.load(path))
        except DomainError as exc:  # reported, the rest still run; load names the file
            print(f"error: {exc}", file=sys.stderr)
            unreadable += 1
    records = experiments.sweep(manifests, parallelism=args.workers)
    ok = True
    for rec in records:
        status = "PASS" if rec.passed else "FAIL"
        ok &= rec.passed
        print(f"[{status}] {rec.name} ({rec.scenario}): "
              f"{sum(a.passed for a in rec.assertions)}/{len(rec.assertions)} assertions")
        if rec.error:  # a record written nowhere has its reason only here
            print(f"error: {rec.name}: {rec.error}", file=sys.stderr)
    return 2 if unreadable else 0 if ok else 1


def cmd_report(args, out: Path) -> int:
    records = experiments.load_records(args.directory)
    text, files = experiments.report(records, out)
    print(text, end="")
    print(f"report files: {', '.join(str(f) for f in files)}")
    return 0 if all(rec.passed for _, rec in records) else 1


def cmd_digest(args, out: Path) -> int:
    sums = experiments.digest(args.directory)
    if args.against is None:
        for rel, sha in sums.items():
            print(f"{sha}  {rel}")
        return 0
    ref = experiments.digest(args.against)
    differ = sorted(rel for rel in sums.keys() | ref.keys() if sums.get(rel) != ref.get(rel))
    for rel in differ:
        if rel in sums and rel in ref:
            print(f"differs: {rel}")
        else:
            print(f"differs: {rel} (only in {args.directory if rel in sums else args.against})")
    moved = experiments.moved_measurements(args.directory, args.against)
    for rel, name, was, now in moved:
        change = f"{(now - was) / abs(was):+.3g}" if was else "from 0"
        print(f"moved: {rel} {name}: {was!r} -> {now!r} ({change} relative)")
    print(f"{len(differ)} of {len(sums.keys() | ref.keys())} files differ, "
          f"{len(moved)} measured values moved")
    return 1 if differ else 0


def cmd_scenarios(args, out: Path) -> int:
    for name, defaults in experiments.DEFAULTS.items():
        print(name)
        for key, value in defaults.items():
            print(f"  {key} = {json.dumps(value)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="difflab", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", default=".", help="output directory (default: cwd)")
    ap.add_argument("--workers", type=int, default=1,
                    help="sweep: processes that run manifests, this one included (>= 1)")
    sub = ap.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("profile", help="integrate a self-similar profile")
    p.set_defaults(func=cmd_profile)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--A", type=float, default=1.0)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--xi-max", dest="xi_max", type=float, default=50.0)
    p.add_argument("--tol", type=float, default=1e-10)

    s = sub.add_parser("steady", help="steady Dirichlet profile on a ball")
    s.set_defaults(func=cmd_steady)
    s.add_argument("--p", type=float, required=True)
    s.add_argument("--n", type=int, default=1)
    s.add_argument("--R", type=float, default=1.0)

    e = sub.add_parser("evolve", help="evolve the regularized ball problem")
    e.set_defaults(func=cmd_evolve)
    e.add_argument("--p", type=float, required=True)
    e.add_argument("--n", type=int, default=1)
    e.add_argument("--R", type=float, default=100.0)
    e.add_argument("--eps", type=float, default=1e-5)
    e.add_argument("--t-end", dest="t_end", type=float, required=True)
    e.add_argument("--t-start", dest="t_start", type=float, default=0.0)
    e.add_argument("--datum", required=True,
                   help="algebraic:gamma=2,C0=1 | gaussian:sigma=2 | table:<csv>")
    norm_qs = inspect.signature(pde.evolve).parameters["norm_qs"].default
    e.add_argument("--norm-qs", dest="norm_qs", default=",".join(f"{q:g}" for q in norm_qs))
    e.add_argument("--n-nodes", dest="n_nodes", type=int, default=pde.SolverConfig.n_nodes)
    e.add_argument("--dt-rel", dest="dt_rel", type=float, default=pde.SolverConfig.dt_rel_max)
    e.add_argument("--inner-radius", dest="inner_radius", type=float, default=None)
    e.add_argument("--snapshots", action="store_true")

    f = sub.add_parser("fit", help="fit a decay slope from a run's JSON-lines")
    f.set_defaults(func=cmd_fit)
    f.add_argument("--series", required=True)
    f.add_argument("--norm", default="linf")
    f.add_argument("--window", type=float, nargs=2, required=True)

    r = sub.add_parser("run", help="run one experiment manifest")
    r.set_defaults(func=cmd_run)
    r.add_argument("manifest")

    w = sub.add_parser("sweep", help="run every manifest in a directory")
    w.set_defaults(func=cmd_sweep)
    w.add_argument("directory")

    rep = sub.add_parser("report", help="summarize records under a directory")
    rep.set_defaults(func=cmd_report)
    rep.add_argument("directory")

    d = sub.add_parser("digest", help="sha256 of every file of a results tree, "
                                      "records without their timestamps")
    d.set_defaults(func=cmd_digest)
    d.add_argument("directory")
    d.add_argument("--against", default=None,
                   help="list the files that differ from this tree and every moved measured value")

    sc = sub.add_parser("scenarios", help="list the scenarios with their default parameters")
    sc.set_defaults(func=cmd_scenarios)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = Path(args.out)
    try:
        if args.workers < 1:
            raise DomainError(f"--workers must be >= 1, got {args.workers}")
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise DomainError(f"--out '{out}': cannot create ({exc.strerror or exc})") from None
        return args.func(args, out)
    except DiffusionLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
