"""Tests for the regularized radial evolution."""

import math

import numpy as np
import pytest

from diffusionlab.errors import DomainError
from diffusionlab.pde import (
    EvolutionRun,
    InitialDatum,
    RadialField,
    SampleRecord,
    SolverConfig,
    build_grid,
    evolve,
    lq_norm,
    read_jsonl_series,
    rescale_to_v,
    run_to_jsonl,
    separated_subsolution,
    snapshots_to_csv,
    sphere_area,
    step_implicit,
    subsolution_margin,
    supersolution_margin,
)
from diffusionlab.profiles import ProfileParams, certify_tail_bounds, eval_self_similar, integrate_profile
from diffusionlab.steady import shoot_unit_profile


def test_sphere_area_values():
    assert sphere_area(1) == pytest.approx(2.0)
    assert sphere_area(2) == pytest.approx(2.0 * math.pi)
    assert sphere_area(3) == pytest.approx(4.0 * math.pi)


class TestBuildGrid:
    def test_uniform(self):
        g = build_grid(1.0, 16, 1.0)
        np.testing.assert_allclose(np.diff(g), np.full(15, 1.0 / 15.0))

    def test_graded_ratio(self):
        g = build_grid(10.0, 512, 2.0)
        h = np.diff(g)
        assert h[0] / h[-1] == pytest.approx(2.0, rel=1e-10)
        assert g[0] == 0.0 and g[-1] == 10.0
        assert np.all(h > 0.0)

    def test_rejects_bad_input(self):
        with pytest.raises(DomainError):
            build_grid(1.0, 8, 1.0)
        with pytest.raises(DomainError):
            build_grid(1.0, 32, 0.5)


class TestInitialDatum:
    def test_algebraic(self):
        d = InitialDatum.algebraic(2.0, 3.0)
        assert d(0.0) == pytest.approx(3.0)
        assert d(1.0) == pytest.approx(0.75)

    def test_gaussian(self):
        d = InitialDatum.gaussian(2.0)
        assert d(0.0) == pytest.approx(1.0)
        assert d(2.0) == pytest.approx(math.exp(-0.5))

    def test_table_positive_only(self):
        with pytest.raises(DomainError):
            InitialDatum.table(np.array([0.0, 1.0]), np.array([1.0, 0.0]))

    def test_taper_vanishes_at_R_and_orders_in_R(self):
        d = InitialDatum.algebraic(2.0)
        d20, d40 = d.tapered(20.0), d.tapered(40.0)
        assert d20(20.0) == pytest.approx(0.0, abs=1e-14)
        r = np.linspace(0.0, 20.0, 100)
        assert np.all(d20(r) <= d40(r) + 1e-15)


def test_constant_eps_state_is_fixed_point():
    r = build_grid(1.0, 32)
    f = RadialField(p=2.0, n=1, R=1.0, eps=0.01, r=r, u=np.full(32, 0.01), t=0.0)
    f2 = step_implicit(f, 0.5)
    np.testing.assert_array_equal(f2.u, f.u)
    assert f2.t == pytest.approx(0.5)


def test_step_rejects_bad_dt():
    r = build_grid(1.0, 32)
    f = RadialField(p=2.0, n=1, R=1.0, eps=0.01, r=r, u=np.full(32, 0.01), t=0.0)
    with pytest.raises(DomainError):
        step_implicit(f, 0.0)


@pytest.fixture(scope="module")
def short_run():
    return evolve(
        InitialDatum.algebraic(2.0),
        p=2.0, n=1, R=20.0, eps=1e-3, t_end=10.0,
        norm_qs=(0.5, 1.0, 2.0),
        config=SolverConfig(n_nodes=256),
    )


class TestEvolve:
    def test_times_strictly_increasing(self, short_run):
        t = short_run.times
        assert np.all(np.diff(t) > 0.0)

    def test_max_principle(self, short_run):
        assert max(s.max_principle_slack for s in short_run.samples) <= 1e-10

    def test_boundary_pinned(self, short_run):
        for _, u in short_run.snapshots:
            assert u[-1] == short_run.eps

    def test_lq_monotone_for_all_configured_q(self, short_run):
        for q in (0.5, 1.0, 2.0):
            _, v = short_run.norm_series(f"l{q:g}")
            assert np.all(np.diff(v) <= 1e-9 * v[0])

    def test_symmetry_defect_small(self, short_run):
        t, u = short_run.snapshots[-1]
        f = RadialField(p=2.0, n=1, R=20.0, eps=1e-3, r=short_run.r, u=u, t=t)
        assert f.symmetry_defect() < 1e-4 * np.max(u)

    def test_semiconvexity_bound(self, short_run):
        # u_t/u >= -1/(pt) holds discretely with margin at sampled times >= 1
        vals = [s.semiconv_min for s in short_run.samples if s.semiconv_min is not None and s.t >= 1.0]
        assert min(vals) > -1e-3


def test_self_similar_reproduction_short():
    pp = ProfileParams.self_similar(2.0, 0.25, 1.0)
    prof = integrate_profile(pp, 70.0, tol=1e-10, n=1)
    r_grid = np.linspace(0.0, 60.0, 1201)
    datum = InitialDatum.table(r_grid, eval_self_similar(pp, prof, r_grid, 1.0), "slice")
    run = evolve(datum, p=2.0, n=1, R=60.0, eps=1e-4, t_end=3.0, norm_qs=(1.0,),
                 config=SolverConfig(n_nodes=400, dt_rel_max=0.02), t_start=1.0)
    worst = 0.0
    for t, u in run.snapshots:
        exact = eval_self_similar(pp, prof, run.r, t)
        mask = run.r <= 15.0
        worst = max(worst, float(np.max(np.abs(u[mask] - exact[mask])) / np.max(exact[mask])))
    assert worst < 0.01


def test_eps_zero_with_vanishing_boundary_data():
    # eps = 0 is permitted for data that vanish at the boundary; the interior
    # stays positive under the guarded Newton
    datum = InitialDatum.algebraic(2.0).tapered(10.0)
    run = evolve(datum, p=2.0, n=1, R=10.0, eps=0.0, t_end=1.0, norm_qs=(1.0,),
                 config=SolverConfig(n_nodes=64))
    for _, u in run.snapshots:
        assert u[-1] == 0.0
        assert np.all(u[:-1] > 0.0)


def test_epsilon_ladder_ordering():
    datum = InitialDatum.algebraic(2.0).tapered(20.0)
    cfg = SolverConfig(n_nodes=129, datum_mode="add")
    runs = {
        eps: evolve(datum, p=2.0, n=1, R=20.0, eps=eps, t_end=5.0, norm_qs=(1.0,), config=cfg)
        for eps in (1e-2, 1e-3)
    }
    for (ta, ua), (tb, ub) in zip(runs[1e-3].snapshots, runs[1e-2].snapshots):
        assert abs(ta - tb) < 1e-9 * max(1.0, ta)
        assert np.max(ua - ub) <= 1e-6


def test_radius_ladder_ordering():
    base = InitialDatum.algebraic(2.0)
    cfg20 = SolverConfig(n_nodes=129, datum_mode="add")
    cfg40 = SolverConfig(n_nodes=257, datum_mode="add")
    run20 = evolve(base.tapered(20.0), p=2.0, n=1, R=20.0, eps=1e-3, t_end=5.0,
                   norm_qs=(1.0,), config=cfg20)
    run40 = evolve(base.tapered(40.0), p=2.0, n=1, R=40.0, eps=1e-3, t_end=5.0,
                   norm_qs=(1.0,), config=cfg40)
    assert np.max(np.abs(run40.r[:129] - run20.r)) == 0.0  # nested uniform grids
    for (ta, ua), (tb, ub) in zip(run20.snapshots, run40.snapshots):
        assert np.max(ua - ub[:129]) <= 1e-6


class TestRescaleToV:
    def test_t_zero_slice_is_datum(self, short_run):
        v = rescale_to_v(short_run)
        tau0, v0 = v.snapshots[0]
        assert tau0 == 0.0
        np.testing.assert_array_equal(v0, short_run.snapshots[0][1])

    def test_constant_sup_grows_exponentially_in_tau(self):
        # synthetic run with constant sup norm
        p = 2.0
        samples = [
            SampleRecord(t=t, tau=math.log(t + 1.0), linf=3.0, lq={"1": 1.0},
                         min_inner=0.5, semiconv_min=None, dt_step=0.0,
                         max_principle_slack=0.0)
            for t in (0.0, 1.0, 10.0, 100.0)
        ]
        run = EvolutionRun(p=p, n=1, R=1.0, eps=0.0, r=np.linspace(0, 1, 16),
                           t_start=0.0, u0_sup=3.0, samples=samples, snapshots=[])
        v = rescale_to_v(run)
        for s in v.samples:
            assert s["linf"] == pytest.approx(3.0 * math.exp(s["tau"] / p), rel=1e-12)

    def test_inner_minimum_diverges_for_gaussian_data(self):
        run = evolve(InitialDatum.gaussian(2.0), p=2.0, n=1, R=40.0, eps=1e-9,
                     t_end=1000.0, norm_qs=(1.0,),
                     config=SolverConfig(n_nodes=256, inner_radius=2.0))
        v = rescale_to_v(run)
        ts = np.array([s["t"] for s in v.samples])
        mins = np.array([s["min_inner"] for s in v.samples])
        picks = [np.argmin(np.abs(ts - tv)) for tv in (10.0, 100.0, 1000.0)]
        assert mins[picks[0]] < mins[picks[1]] < mins[picks[2]]


@pytest.fixture(scope="module")
def unit():
    return shoot_unit_profile(2.0, 1)


class TestSeparatedSubsolution:
    def test_y_initial_value(self, unit):
        sub = separated_subsolution(2.0, 1, 2.0, 1.0, tau0=3.0, unit=unit)
        assert sub.y(0.0) == pytest.approx(sub.delta, rel=1e-12)

    def test_y_limit_is_one(self, unit):
        sub = separated_subsolution(2.0, 1, 2.0, 1.0, tau0=3.0, unit=unit)
        assert sub.y(50.0) == pytest.approx(1.0, abs=1e-12)

    def test_y_at_tau0_bounded_below_uniformly(self, unit):
        vals = []
        for tau0 in (0.5, 2.0, 5.0, 8.0):
            sub = separated_subsolution(2.0, 1, 2.0, 1.0, tau0=tau0, unit=unit)
            assert sub.y(tau0) >= sub.y_floor
            vals.append(sub.y(tau0))
        # the floor is tau0-independent and the values hug it from above
        assert max(vals) - min(vals) < 0.25 * sub.y_floor

    def test_ball_radius_formula(self, unit):
        p, gamma, tau0 = 2.0, 2.0, 4.2
        sub = separated_subsolution(p, 1, gamma, 1.0, tau0=tau0, unit=unit)
        assert sub.R == pytest.approx(math.exp(tau0 / (p * gamma + 2.0)), rel=1e-14)
        assert sub.w.R == pytest.approx(sub.R)

    def test_rejects_bad_parameters(self, unit):
        with pytest.raises(DomainError):
            separated_subsolution(2.0, 1, -1.0, 1.0, 1.0, unit=unit)
        with pytest.raises(DomainError):
            separated_subsolution(2.0, 1, 2.0, 1.0, 0.0, unit=unit)


def test_comparison_sandwich_short():
    # gamma-decaying run stays between the separated subsolution and the
    # amplitude-matched self-similar supersolution
    p, n, gamma, C0 = 2.0, 1, 2.0, 1.0
    alpha = gamma / (p * gamma + 2.0)
    pp1 = ProfileParams.self_similar(p, alpha, 1.0)
    prof1 = integrate_profile(pp1, 60.0, tol=1e-10, n=n)
    Lhat = certify_tail_bounds(prof1, (0.0, 50.0)).lower_const
    A = 1.05 * C0 / Lhat
    ppA = ProfileParams.self_similar(p, alpha, A)
    profA = integrate_profile(ppA, 60.0, tol=1e-10, n=n)

    run = evolve(InitialDatum.algebraic(gamma, C0), p=p, n=n, R=50.0, eps=1e-5,
                 t_end=100.0, norm_qs=(1.0,), config=SolverConfig(n_nodes=400))
    assert supersolution_margin(run, ppA, profA, shift=1.0) <= 1e-3

    unit = shoot_unit_profile(p, n)
    vrun = rescale_to_v(run)
    for tau in (1.0, 3.0, math.log(101.0)):
        sub = separated_subsolution(p, n, gamma, C0, tau, unit)
        assert subsolution_margin(vrun, sub, tau) >= -1e-3


def test_jsonl_and_csv_outputs(tmp_path, short_run):
    import json

    out = tmp_path / "run.jsonl"
    run_to_jsonl(short_run, out)
    lines = out.read_text().splitlines()
    assert len(lines) == len(short_run.samples)
    rec = json.loads(lines[0])
    assert set(rec) >= {"t", "tau", "linf", "lq", "min_inner"}
    assert "1" in rec["lq"] and "2" in rec["lq"]

    for norm in ("linf", "l0.5", "l2.0"):
        t, v = read_jsonl_series(out, norm)
        t_run, v_run = short_run.norm_series(norm)
        assert np.array_equal(t, t_run) and np.array_equal(v, v_run)
    for source in (lambda norm: read_jsonl_series(out, norm), short_run.norm_series):
        with pytest.raises(DomainError, match="present: linf, l0.5, l1, l2"):
            source("l3")
        with pytest.raises(DomainError):
            source("max")

    files = snapshots_to_csv(short_run, tmp_path / "snaps")
    assert len(files) == len(short_run.snapshots)
    assert files[0].read_text().splitlines()[0] == "r,u"


def test_lq_norm_exact_on_known_function():
    # u = 1 on B_R in n=3: ||u||_q^q = area * R^n / n = (4 pi /3) R^3
    r = np.linspace(0.0, 2.0, 4001)
    u = np.ones_like(r)
    val = lq_norm(r, u, 1.0, 3)
    assert val == pytest.approx(4.0 * math.pi / 3.0 * 8.0, rel=1e-6)
    assert lq_norm(r, 3.0 * u, math.inf, 3) == 3.0
