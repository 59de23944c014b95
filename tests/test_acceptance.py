"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints (and registers with the terminal reporter) one
"criterion NN PASS/FAIL" line.  The underlying theory is asymptotic with
non-constructive constants, so the checks are property-based at desk scale
with the tolerances fixed below.

Known red: criterion 7's slope-window assertion.  The fitted sup-norm slope
for the pinned datum over t in [10, 1e3] converges (in grid, step, domain,
and floor refinement) to -0.2755, outside the required band
[-1/3 - 0.05, -1/3 + 0.05]; the finite-window transient is genuinely slower
than the band allows.  The assertion is kept as stated rather than tuned to
pass; the sandwich assertions of the same criterion do pass, and the
equivalent rate demonstration passes over the window [1e2, 1e4].
"""

import math

import numpy as np
import pytest

from conftest import record_criterion
from diffusionlab.pde import (
    InitialDatum,
    SolverConfig,
    evolve,
    rescale_to_v,
    separated_subsolution,
    subsolution_margin,
    supersolution_margin,
)
from diffusionlab.profiles import (
    ProfileParams,
    certify_tail_bounds,
    check_integral_identity,
    eval_self_similar,
    fit_tail_exponent,
    integrate_profile,
    scale_profile,
)
from diffusionlab.rates import (
    INF,
    exponent_roundtrip,
    heat_polynomial,
    heat_random_rationals,
    rate_gamma,
    rate_lq,
    rate_nu,
    vartheta,
)
from diffusionlab.steady import shoot_unit_profile, verify_scaling_law

P_GRID = (1.5, 2.0, 3.0)
ALPHA_RELS = (0.5, 0.25)  # alpha = rel / p
A_GRID = (0.5, 1.0, 2.0)
N_GRID = (1, 3)


# ---------------------------------------------------------------------------
# Criterion 1: first-integral identity residual < 1e-6 on xi in [0, 50]
# ---------------------------------------------------------------------------


def test_criterion_01_profile_identity():
    worst, worst_cell = 0.0, None
    for p in P_GRID:
        for rel in ALPHA_RELS:
            alpha = rel / p
            for A in A_GRID:
                for n in N_GRID:
                    prof = integrate_profile(
                        ProfileParams.self_similar(p, alpha, A), 50.0, tol=1e-10, n=n
                    )
                    res = check_integral_identity(prof)
                    if res > worst:
                        worst, worst_cell = res, (p, alpha, A, n)
    ok = worst < 1e-6
    record_criterion(1, "profile first-integral identity < 1e-6 over 36 cells", ok,
                     f"worst {worst:.3g} at {worst_cell}")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 2: tail slope equals -alpha/beta within 2% on xi in [1e2, 1e4]
# ---------------------------------------------------------------------------


def test_criterion_02_tail_exponent():
    worst, worst_cell = 0.0, None
    for p in P_GRID:
        for rel in ALPHA_RELS:
            alpha = rel / p
            for A in A_GRID:
                for n in N_GRID:
                    pp = ProfileParams.self_similar(p, alpha, A)
                    prof = integrate_profile(pp, 1.05e4, tol=1e-10, n=n)
                    slope, _ = fit_tail_exponent(prof, (1e2, 1e4))
                    err = abs(slope + pp.tail_exponent) / pp.tail_exponent
                    if err > worst:
                        worst, worst_cell = err, (p, alpha, A, n)
    ok = worst < 0.02
    record_criterion(2, "tail slope matches -alpha/beta within 2% over the grid", ok,
                     f"worst rel err {worst:.3g} at {worst_cell}")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 3: cosine minorant and half-center bound, pointwise (1e-8 slack)
# The uniform-in-A claim is false for A < 1 (exact rescaling compresses the
# plateau; see test_profiles.test_cosine_minorant_defect_for_small_A), so the
# criterion runs over A in {1, 2} where the bound genuinely holds.
# ---------------------------------------------------------------------------


def test_criterion_03_cosine_minorant_and_half_center():
    worst = math.inf
    for p in P_GRID:
        for rel in ALPHA_RELS:
            alpha = rel / p
            for A in (1.0, 2.0):
                for n in N_GRID:
                    pp = ProfileParams.self_similar(p, alpha, A)
                    lim = math.pi / (2.0 * math.sqrt(alpha))
                    prof = integrate_profile(pp, lim + 1.0, tol=1e-10, n=n)
                    m = prof.xi < lim
                    cos_margin = float(
                        np.min(prof.f[m] - A * np.cos(math.sqrt(alpha) * prof.xi[m]))
                    )
                    xstar = math.pi / (3.0 * math.sqrt(alpha))
                    half_margin = float(prof.interpolant()(xstar)) - A / 2.0
                    worst = min(worst, cos_margin / A, half_margin / A)
    ok = worst >= -1e-8
    record_criterion(3, "f >= A cos(sqrt(a) xi) and f(pi/(3 sqrt(a))) >= A/2 (A >= 1)",
                     ok, f"worst scaled margin {worst:.3g}")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 4: steady scaling law, re-shoots vs exact rescaling
# ---------------------------------------------------------------------------


def test_criterion_04_steady_scaling():
    worst = 0.0
    for p in (1.0, 2.0):
        for n in (1, 2, 3):
            dev = verify_scaling_law(shoot_unit_profile(p, n), [0.5, 2.0, 10.0])
            worst = max(worst, dev)
    closed_worst = 0.0
    for n in (1, 2, 3):
        unit = shoot_unit_profile(1.0, n)
        closed_worst = max(
            closed_worst, float(np.max(np.abs(unit.w - (1.0 - unit.r**2) / (2 * n))))
        )
    ok = worst < 1e-5 and closed_worst < 1e-8
    record_criterion(4, "steady rescaling w_R = R^(2/p) w_1(./R) vs independent re-shoots",
                     ok, f"max dev {worst:.3g}; p=1 closed form err {closed_worst:.3g}")
    assert ok


# ---------------------------------------------------------------------------
# Criteria 5-7 share two evolution runs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def self_similar_run():
    pp = ProfileParams.self_similar(2.0, 0.25, 1.0)
    prof = integrate_profile(pp, 110.0, tol=1e-10, n=1)
    r_grid = np.linspace(0.0, 100.0, 2001)
    datum = InitialDatum.table(r_grid, eval_self_similar(pp, prof, r_grid, 1.0), "slice")
    run = evolve(
        datum, p=2.0, n=1, R=100.0, eps=1e-4, t_end=10.0, norm_qs=(1.0,),
        config=SolverConfig(n_nodes=800, dt_rel_max=0.01), t_start=1.0,
    )
    return pp, prof, run


@pytest.fixture(scope="module")
def algebraic_run():
    return evolve(
        InitialDatum.algebraic(2.0, 1.0), p=2.0, n=1, R=100.0, eps=1e-5, t_end=1e3,
        norm_qs=(1.0,), config=SolverConfig(n_nodes=800, dt_rel_max=0.02),
    )


def test_criterion_05_self_similar_reproduction(self_similar_run):
    pp, prof, run = self_similar_run
    worst = 0.0
    for t, u in run.snapshots:
        exact = eval_self_similar(pp, prof, run.r, t)
        mask = run.r <= 25.0
        worst = max(worst, float(np.max(np.abs(u[mask] - exact[mask])) / np.max(exact[mask])))
    ok = worst < 0.01
    record_criterion(5, "evolved self-similar slice matches t^-a f(t^-b r) within 1%",
                     ok, f"worst rel sup err {worst:.3g}")
    assert ok


def test_criterion_06_semiconvexity(self_similar_run, algebraic_run):
    worst = math.inf
    for run in (self_similar_run[2], algebraic_run):
        vals = [
            s.semiconv_min
            for s in run.samples
            if s.semiconv_min is not None and 1.0 <= s.t <= 100.0
        ]
        worst = min(worst, min(vals))
    ok = worst >= -1e-3
    record_criterion(6, "discrete u_t/u >= -1/(pt) - 1e-3 at interior nodes, t in [1,100]",
                     ok, f"worst margin {worst:.3g}")
    assert ok


def test_criterion_07_algebraic_bracket(algebraic_run):
    run = algebraic_run
    p, n, gamma, C0 = 2.0, 1, 2.0, 1.0
    rate = rate_gamma(p, n, gamma, INF)  # 1/3

    t, linf = run.norm_series("linf")
    mask = (t >= 10.0) & (t <= 1e3)
    slope = float(np.polyfit(np.log(t[mask]), np.log(linf[mask]), 1)[0])
    slope_ok = -rate - 0.05 <= slope <= -rate + 0.05

    alpha = gamma / (p * gamma + 2.0)
    pp1 = ProfileParams.self_similar(p, alpha, 1.0)
    prof1 = integrate_profile(pp1, 110.0, tol=1e-10, n=n)
    A = 1.05 * C0 / certify_tail_bounds(prof1, (0.0, 100.0)).lower_const
    profA = scale_profile(prof1, A)
    super_ok = supersolution_margin(run, profA.params, profA, shift=1.0) <= 1e-3

    unit = shoot_unit_profile(p, n)
    vrun = rescale_to_v(run)
    sub_worst = math.inf
    for tau in (tau for tau in vrun.taus if tau > 0.5):
        sub = separated_subsolution(p, n, gamma, C0, tau, unit)
        sub_worst = min(sub_worst, subsolution_margin(vrun, sub, tau))
    sub_ok = sub_worst >= -1e-3

    ok = slope_ok and super_ok and sub_ok
    record_criterion(
        7,
        "gamma=2 bracket: slope in [-1/3-0.05, -1/3+0.05] on [10,1e3]; sandwich holds",
        ok,
        f"slope {slope:.4f} ({'ok' if slope_ok else 'out of band'}); "
        f"subsolution margin {sub_worst:.3g}; supersolution {'ok' if super_ok else 'violated'}",
    )
    assert sub_ok and super_ok
    assert slope_ok, (
        f"fitted slope {slope:.4f} outside [{-rate - 0.05:.4f}, {-rate + 0.05:.4f}]: "
        "the finite-window transient is slower than the band allows (converged value, "
        "see the module docstring)"
    )


# ---------------------------------------------------------------------------
# Criterion 8: monotone approximation ladder
# ---------------------------------------------------------------------------


def test_criterion_08_monotone_ladder():
    base = InitialDatum.algebraic(2.0)
    datum20 = base.tapered(20.0)
    cfg20 = SolverConfig(n_nodes=257, datum_mode="add")
    eps_runs = {
        eps: evolve(datum20, p=2.0, n=1, R=20.0, eps=eps, t_end=10.0,
                    norm_qs=(1.0,), config=cfg20)
        for eps in (1e-2, 1e-3, 1e-4)
    }
    eps_worst = -math.inf
    for hi, lo in ((1e-2, 1e-3), (1e-3, 1e-4)):
        for (ta, ua), (tb, ub) in zip(eps_runs[lo].snapshots, eps_runs[hi].snapshots):
            assert abs(ta - tb) <= 1e-9 * max(1.0, ta)
            eps_worst = max(eps_worst, float(np.max(ua - ub)))

    run20 = eps_runs[1e-3]
    run40 = evolve(base.tapered(40.0), p=2.0, n=1, R=40.0, eps=1e-3, t_end=10.0,
                   norm_qs=(1.0,), config=SolverConfig(n_nodes=513, datum_mode="add"))
    assert float(np.max(np.abs(run40.r[:257] - run20.r))) == 0.0
    R_worst = -math.inf
    for (ta, ua), (tb, ub) in zip(run20.snapshots, run40.snapshots):
        R_worst = max(R_worst, float(np.max(ua - ub[:257])))

    ok = eps_worst <= 1e-6 and R_worst <= 1e-6
    record_criterion(8, "ladder orderings: decreasing in eps, increasing in R (1e-6)",
                     ok, f"eps violation {eps_worst:.3g}; R violation {R_worst:.3g}")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 9: rescaled inner minimum diverges for fast-decaying data
# ---------------------------------------------------------------------------


def test_criterion_09_rescaled_minimum_diverges():
    run = evolve(InitialDatum.gaussian(2.0), p=2.0, n=1, R=40.0, eps=1e-9, t_end=1e3,
                 norm_qs=(1.0,), config=SolverConfig(n_nodes=512, inner_radius=2.0))
    ts = run.times
    mins = rescale_to_v(run).min_inner
    picked = [float(mins[int(np.argmin(np.abs(ts - tv)))]) for tv in (10.0, 100.0, 1000.0)]
    ok = picked[0] < picked[1] < picked[2]
    record_criterion(9, "inner-ball min of (t+1)^(1/p) u strictly increasing over decades",
                     ok, "v-min " + " -> ".join(f"{v:.3f}" for v in picked))
    assert ok


# ---------------------------------------------------------------------------
# Criterion 10: exponent algebra
# ---------------------------------------------------------------------------


def test_criterion_10_exponent_algebra():
    identity_ok = all(
        rate_lq(p, n, q0, INF) == rate_nu(p, n, q0)
        for p in (1.0, 1.5, 2.0, 3.0, 7.0)
        for n in (1, 2, 3)
        for q0 in (0.1, 0.5, 1.0, 2.0, 10.0)
    )
    thetas = np.linspace(0.1, 10.0, 20)
    ms = np.linspace(-40.0, -0.05, 20)
    roundtrip_ok = all(exponent_roundtrip(th, m) < 1e-15 for th in thetas for m in ms)
    bounds_ok = all(
        0.0 < vartheta(th, m) < 1.0 and vartheta(th, m) < 1.0 / (1.0 - m)
        for th in thetas
        for m in ms
    )
    mono_ok = all(
        vartheta(thetas[j], m) < vartheta(thetas[j + 1], m)
        for m in ms
        for j in range(len(thetas) - 1)
    ) and all(
        vartheta(th, ms[i]) < vartheta(th, ms[i + 1])
        for th in thetas
        for i in range(len(ms) - 1)
    )
    # inf_x H_k(x, 1) is measured on the polynomial: its value at x = 0 is
    # k!/(k/2)!, and no exact rational x gives less
    heat_ok = all(
        heat_polynomial(k, 0, 1) == math.factorial(k) // math.factorial(k // 2)
        and all(heat_polynomial(k, x, 1) >= heat_polynomial(k, 0, 1)
                for x, _ in heat_random_rationals(k, count=100, seed=k))
        for k in (2, 4, 6, 8)
    )
    ok = identity_ok and roundtrip_ok and bounds_ok and mono_ok and heat_ok
    record_criterion(10, "exponent algebra: lq(inf)=nu exact, roundtrip<1e-15, "
                     "growth-exponent bounds/monotonicity, heat inf coefficients",
                     ok,
                     f"identity {identity_ok}, roundtrip {roundtrip_ok}, bounds {bounds_ok}, "
                     f"monotone {mono_ok}, heat {heat_ok}")
    assert ok
