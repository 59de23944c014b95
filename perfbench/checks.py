"""Correctness checks that do not trust the program's own verdicts.

Each check recomputes a quantity apart from diffusionlab (closed forms,
least squares with numpy, exact rationals) or tests a property the method
must have (positivity, monotonicity, orderings, determinism), and returns
either a number to hold against a bound or a list of problems, empty when
the output is right.  None of them compares against stored output.
"""

from __future__ import annotations

import hashlib
import json
import math
from datetime import datetime
from fractions import Fraction
from pathlib import Path

import numpy as np

TIMESTAMP_FIELDS = ("started", "finished")


# ---------------------------------------------------------------------------
# closed forms, computed here
# ---------------------------------------------------------------------------


def closed_form_rate_lq(p, n, q0, q):
    return (1.0 - q0 / q) / (p + 2.0 * q0 / n)


def closed_form_nu(p, n, q0):
    return n / (n * p + 2.0 * q0)


def closed_form_rate_gamma(p, gamma):
    """Sup-norm decay exponent gamma/(p gamma + 2) of algebraic data."""
    return gamma / (p * gamma + 2.0)


def heat_inf_coefficient(k):
    return math.factorial(k) // math.factorial(k // 2)


def heat_polynomial_exact(k, x, t):
    """H_k(x, t) = sum_i k!/(i!(k-2i)!) x^(k-2i) t^i in exact rationals."""
    x, t = Fraction(x), Fraction(t)
    return sum(
        Fraction(math.factorial(k), math.factorial(i) * math.factorial(k - 2 * i)) * x ** (k - 2 * i) * t**i
        for i in range(k // 2 + 1)
    )


def loglog_slope(t, v, window):
    """Least-squares slope of log v against log t over the window (numpy.polyfit)."""
    t, v = np.asarray(t, dtype=float), np.asarray(v, dtype=float)
    mask = (t >= window[0]) & (t <= window[1])
    return float(np.polyfit(np.log(t[mask]), np.log(v[mask]), 1)[0])


# ---------------------------------------------------------------------------
# records and determinism
# ---------------------------------------------------------------------------


def record_text(record) -> str:
    """A record's JSON with the timestamp fields removed."""
    payload = json.loads(record.to_json() if hasattr(record, "to_json") else record)
    for key in TIMESTAMP_FIELDS:
        payload.pop(key, None)
    return json.dumps(payload, sort_keys=True)


def record_differences(a, b) -> list:
    """Fields (and assertion values) in which two records differ, apart from
    the timestamps."""
    da, db = json.loads(record_text(a)), json.loads(record_text(b))
    out = [k for k in sorted(set(da) | set(db)) if k != "assertions" and da.get(k) != db.get(k)]
    aa, ab = da.get("assertions", []), db.get("assertions", [])
    if len(aa) != len(ab):
        out.append("assertions")
    else:
        for x, y in zip(aa, ab):
            out += [f"assertions[{x.get('name')}].{k}" for k in sorted(set(x) | set(y)) if x.get(k) != y.get(k)]
    return out


def tree_differences(dir_a: Path, dir_b: Path) -> list:
    """Files that differ between two output trees; record.json is compared
    apart from its timestamps, every other file byte for byte."""
    files_a = {p.relative_to(dir_a) for p in Path(dir_a).rglob("*") if p.is_file()}
    files_b = {p.relative_to(dir_b) for p in Path(dir_b).rglob("*") if p.is_file()}
    out = [f"only in one tree: {f}" for f in sorted(files_a ^ files_b)]
    for rel in sorted(files_a & files_b):
        a, b = Path(dir_a) / rel, Path(dir_b) / rel
        if rel.name == "record.json":
            diff = record_differences(a.read_text(encoding="utf-8"), b.read_text(encoding="utf-8"))
            out += [f"{rel}: {d}" for d in diff]
        elif a.read_bytes() != b.read_bytes():
            out.append(f"{rel}: bytes differ")
    return out


def record_seconds(record) -> float:
    """Duration between a record's started and finished timestamps."""
    if not record.started or not record.finished:
        return 0.0
    return (datetime.fromisoformat(record.finished) - datetime.fromisoformat(record.started)).total_seconds()


def worker_times(records, workers: int) -> dict:
    """Busy, idle and long-pole seconds of a pass from the records' timestamps."""
    spans = [(datetime.fromisoformat(r.started), datetime.fromisoformat(r.finished))
             for r in records if r.started and r.finished]
    if not spans:
        return {"worker_busy_s": 0.0, "worker_idle_s": 0.0, "long_pole_s": 0.0}
    busy = sum((b - a).total_seconds() for a, b in spans)
    span = (max(b for _, b in spans) - min(a for a, _ in spans)).total_seconds()
    return {
        "worker_busy_s": busy,
        "worker_idle_s": workers * span - busy,
        "long_pole_s": max((b - a).total_seconds() for a, b in spans),
    }


# ---------------------------------------------------------------------------
# suite artifacts
# ---------------------------------------------------------------------------


def _csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def profile_csv_problems(path: Path, A: float, xi_max: float) -> list:
    """A self-similar profile CSV `xi,f,fp`: f(0) = A, f > 0, f nonincreasing,
    xi from 0 to xi_max."""
    data = _csv(path)
    xi, f = data[:, 0], data[:, 1]
    out = []
    if xi[0] != 0.0 or f[0] != A:
        out.append(f"{path.name}: f(0) = {f[0]!r}, expected A = {A!r}")
    if not np.all(f > 0.0):
        out.append(f"{path.name}: profile not positive (min {f.min():.3g})")
    if not np.all(np.diff(f) <= 0.0):
        out.append(f"{path.name}: profile not nonincreasing (max rise {np.diff(f).max():.3g})")
    if not np.all(np.diff(xi) > 0.0) or abs(xi[-1] - xi_max) > 1e-9 * xi_max:
        out.append(f"{path.name}: grid does not run from 0 to {xi_max:g}")
    return out


def steady_csv_problems(path: Path, p: float, n: int, closed_form_tol: float) -> list:
    """A unit-ball steady profile CSV `r,w`: positive and decreasing inside,
    zero at r = 1; for p = 1 it must equal (1 - r^2)/(2n)."""
    data = _csv(path)
    r, w = data[:, 0], data[:, 1]
    out = []
    if r[0] != 0.0 or abs(r[-1] - 1.0) > 1e-12 or w[-1] != 0.0:
        out.append(f"{path.name}: not a unit-ball profile with w(1) = 0")
    if not np.all(w[:-1] > 0.0) or not np.all(np.diff(w) <= 0.0):
        out.append(f"{path.name}: profile not positive and nonincreasing")
    if p == 1.0:
        err = float(np.max(np.abs(w - (1.0 - r**2) / (2 * n))))
        if err > closed_form_tol:
            out.append(f"{path.name}: differs from (1-r^2)/(2n) by {err:.3g}")
    return out


def _jsonl(path: Path) -> list:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]


def _assertion(record, name):
    for a in record.assertions:
        if a.name == name:
            return a
    raise KeyError(f"record {record.name} has no assertion {name}")


def _slope_problems(record, out_dir, norm_key, assertion, sign, rate, delta, window, two_sided):
    """Refit the record's series, compare with its measured value and with the
    closed-form rate computed here."""
    rows = _jsonl(out_dir / "run.jsonl")
    t = [row["t"] for row in rows]
    v = [row["linf"] if norm_key == "linf" else row["lq"][norm_key] for row in rows]
    slope = loglog_slope(t, v, window)
    a = _assertion(record, assertion)
    out = []
    if abs(sign * slope - a.measured) > 1e-9:
        out.append(f"{record.name}.{assertion}: refit slope {slope:.12g} vs record {a.measured:.12g}")
    if abs(abs(a.theory) - rate) > 1e-12 * rate:
        out.append(f"{record.name}.{assertion}: theory {a.theory!r} vs closed form {rate!r}")
    measured = sign * slope
    target = -rate if sign > 0 else rate
    ok = abs(measured - target) <= delta if two_sided else measured <= target + delta
    if not ok:
        out.append(f"{record.name}.{assertion}: slope {slope:.4g} outside {delta} of rate {rate:.4g}")
    return out


def scenario_problems(record, out_dir: Path, params: dict) -> list:
    """Independent checks of one scenario's record and artifacts."""
    out = []
    if record.error or not record.passed or not all(a.passed for a in record.assertions):
        return [f"{record.name}: record not passed ({record.error})"]
    name = record.scenario
    if name == "profile_atlas":
        for p in params["ps"]:
            for rel in params["alpha_rels"]:
                for A in params["A_list"]:
                    for n in params["n_list"]:
                        tag = f"p={p:g}_a={rel / p:.4g}_A={A:g}_n={n}"
                        out += profile_csv_problems(out_dir / f"profile_{tag}.csv", A, params["xi_max"])
    elif name == "steady_scaling":
        for p in params["p_list"]:
            for n in params["n_list"]:
                out += steady_csv_problems(out_dir / f"steady_unit_p={p:g}_n={n}.csv", p, n,
                                           params["closed_form_tol"])
    elif name in ("theorem200", "theorem100"):
        p, n, q0, q = params["p"], params["n"], params["q0"], params["q"]
        rl, w, d = closed_form_rate_lq(p, n, q0, q), params["window"], params["delta"]
        if name == "theorem200":
            out += _slope_problems(record, out_dir, f"{q:g}", "lq_upper", 1, rl, d, w, False)
            out += _slope_problems(record, out_dir, "linf", "linf_upper", 1,
                                   closed_form_nu(p, n, q0), d, w, False)
        else:
            out += _slope_problems(record, out_dir, f"{q:g}", "lq_lower", -1, rl, d, w, False)
    elif name in ("theorem2000_upper", "theorem2000_lower"):
        rate = closed_form_rate_gamma(params["p"], params["gamma"])
        w, d = params["window"], params["delta"]
        if name == "theorem2000_upper":
            out += _slope_problems(record, out_dir, "linf", "linf_rate", 1, rate, d, w, True)
        else:
            out += _slope_problems(record, out_dir, "linf", "linf_no_faster", -1, rate, d, w, False)
    elif name == "prop103":
        rows = _jsonl(out_dir / "run.jsonl")
        t = np.array([row["t"] for row in rows])
        v = np.array([row["min_inner"] for row in rows]) * (t + 1.0) ** (1.0 / params["p"])
        picked = [v[int(np.argmin(np.abs(t - tc)))] for tc in params["t_checks"]]
        if not all(a < b for a, b in zip(picked, picked[1:])):
            out.append(f"prop103: rescaled inner minimum not increasing: {picked}")
    elif name == "remark_heat":
        k = params["k"]
        table = json.loads((out_dir / "heat_table.json").read_text(encoding="utf-8"))
        if table["inf_coefficient"] != heat_inf_coefficient(k):
            out.append(f"remark_heat: inf coefficient {table['inf_coefficient']} != k!/(k/2)!")
        if table["H_k(3,1)"] != float(heat_polynomial_exact(k, 3, 1)):
            out.append(f"remark_heat: H_k(3,1) = {table['H_k(3,1)']} != {heat_polynomial_exact(k, 3, 1)}")
    elif name == "vartheta_table":
        table = json.loads((out_dir / "vartheta_table.json").read_text(encoding="utf-8"))
        th = np.linspace(params["theta_min"], params["theta_max"], params["n_theta"])
        ms = np.linspace(params["m_min"], params["m_max"], params["n_m"])
        exact = th[None, :] / ((1.0 - ms[:, None]) * th[None, :] + 2.0)
        got = np.array(table["vartheta"])
        if got.shape != exact.shape or np.max(np.abs(got - exact) / exact) > 1e-14:
            out.append("vartheta_table: table differs from theta/((1-m)theta+2)")
    return out


# ---------------------------------------------------------------------------
# evolution
# ---------------------------------------------------------------------------


def selfsim_error(params, profile, run, eval_self_similar) -> float:
    """Worst relative sup error on r <= 25 between the evolved slice and the
    self-similar solution from the profile ODE (criterion 5)."""
    worst = 0.0
    mask = run.r <= 25.0
    for t, u in run.snapshots:
        exact = eval_self_similar(params, profile, run.r, t)
        worst = max(worst, float(np.max(np.abs(u[mask] - exact[mask])) / np.max(exact[mask])))
    return worst


def ladder_violation(lower, upper) -> float:
    """How far the run that must lie below exceeds the one above, over every
    shared snapshot and the shared part of the grid; inf when the two runs
    do not share their sample times or grid."""
    m = len(lower.r)
    if len(upper.r) < m or not np.array_equal(upper.r[:m], lower.r):
        return math.inf
    if len(lower.snapshots) != len(upper.snapshots):
        return math.inf
    worst = -math.inf
    for (ta, ua), (tb, ub) in zip(lower.snapshots, upper.snapshots):
        if abs(ta - tb) > 1e-9 * max(1.0, ta):
            return math.inf
        worst = max(worst, float(np.max(ua - ub[:m])))
    return worst


def norm_increase(run) -> float:
    """Largest step-to-step rise of the sup and L^1 norms (<= 0 when both are
    nonincreasing)."""
    rises = []
    for norm in ("linf", "l1"):
        _, v = run.norm_series(norm)
        rises.append(float(np.max(np.diff(v))))
    return max(rises)


def fitted_slope(run, norm, window, fit_decay):
    """(the program's fitted slope, a refit with numpy.polyfit)."""
    t, v = run.norm_series(norm)
    return fit_decay(t, v, window, norm_id=norm).slope, loglog_slope(t, v, window)


def series_digest(runs) -> str:
    """Digest of every run's sample times and norms, for pass-to-pass comparison."""
    h = hashlib.sha256()
    for run in runs:
        for s in run.samples:
            h.update(repr((s.t, s.linf, sorted(s.lq.items()), s.min_inner)).encode())
    return h.hexdigest()
