"""Tests for the regularized radial evolution."""

import copy
import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.linalg import solve_banded as scipy_solve_banded

from diffusionlab import experiments, pde, steady
from diffusionlab.errors import DomainError, NewtonDivergence, StepTooSmall
from diffusionlab.pde import (
    NEWTON_TOL,
    EvolutionRun,
    InitialDatum,
    SampleRecord,
    SolverConfig,
    evolve,
    read_jsonl_series,
    rescale_to_v,
    run_to_jsonl,
    separated_subsolution,
    snapshots_to_csv,
    sphere_area,
    subsolution_margin,
    supersolution_margin,
)
from diffusionlab.profiles import (
    ProfileParams,
    certify_tail_bounds,
    eval_self_similar,
    integrate_profile,
    scale_profile,
)
from diffusionlab.steady import shoot_unit_profile


def test_sphere_area_values():
    assert sphere_area(1) == pytest.approx(2.0)
    assert sphere_area(2) == pytest.approx(2.0 * math.pi)
    assert sphere_area(3) == pytest.approx(4.0 * math.pi)


def test_sphere_area_is_scipys_gamma_form_bit_for_bit():
    from scipy.special import gamma

    for n in range(1, 9):
        assert sphere_area(n) == n * math.pi ** (n / 2.0) / gamma(n / 2.0 + 1.0)


class TestInitialDatum:
    def test_algebraic(self):
        d = InitialDatum.algebraic(2.0, 3.0)
        assert d(0.0) == pytest.approx(3.0)
        assert d(1.0) == pytest.approx(0.75)

    def test_gaussian(self):
        d = InitialDatum.gaussian(2.0)
        assert d(0.0) == pytest.approx(1.0)
        assert d(2.0) == pytest.approx(math.exp(-0.5))

    @pytest.mark.parametrize("sigma", [0.0, -1.0])
    def test_gaussian_needs_positive_sigma(self, sigma):
        with pytest.raises(DomainError):
            InitialDatum.gaussian(sigma)

    def test_table_positive_only(self):
        with pytest.raises(DomainError):
            InitialDatum.table(np.array([0.0, 1.0]), np.array([1.0, 0.0]))

    @pytest.mark.parametrize("r, values, match", [
        ([0.0, 2.0, 1.0], [1.0, 1.0, 1.0], "strictly ascending"),
        ([0.0, 1.0, 1.0], [1.0, 1.0, 1.0], "strictly ascending"),
        ([0.0, math.nan, 2.0], [1.0, 1.0, 1.0], "finite"),
        ([0.0, 1.0, math.inf], [1.0, 1.0, 1.0], "finite"),
        ([0.0, 1.0, 2.0], [1.0, 1.0], "one length"),
        ([[0.0, 1.0]], [[1.0, 1.0]], "one length"),
        ([0.0], [1.0], "at least two points"),
        ([], [], "at least two points"),
        ([0.0, 1.0], [1.0, math.nan], "positive and finite"),
        ([0.0, 1.0], [1.0, math.inf], "positive and finite"),
    ])
    def test_table_refuses_malformed_nodes(self, r, values, match):
        # refused before any spline is built, as a DomainError
        with pytest.raises(DomainError, match=match):
            InitialDatum.table(np.array(r), np.array(values))

    def test_table_is_pchip_and_nan_outside(self):
        from scipy.interpolate import PchipInterpolator

        r, values = np.array([0.0, 0.5, 2.0, 3.0]), np.array([1.0, 0.2, 0.3, 0.3])
        q = np.linspace(-1.0, 4.0, 101)
        got, want = InitialDatum.table(r, values)(q), PchipInterpolator(r, values, extrapolate=False)(q)
        np.testing.assert_array_equal(got, want)
        inside = (q >= 0.0) & (q <= 3.0)
        assert np.isnan(got[~inside]).all() and not np.isnan(got[inside]).any()

    def test_taper_vanishes_at_R_and_orders_in_R(self):
        d = InitialDatum.algebraic(2.0)
        d20, d40 = d.tapered(20.0), d.tapered(40.0)
        assert d20(20.0) == pytest.approx(0.0, abs=1e-14)
        r = np.linspace(0.0, 20.0, 100)
        assert np.all(d20(r) <= d40(r) + 1e-15)


def test_constant_eps_state_is_fixed_point():
    r = np.linspace(0.0, 1.0, 32)
    u = np.full(32, 0.01)
    stepper = pde._Stepper(r, 1, 2.0, 0.01, u[:-1].copy())
    stepper.step(0.5)
    np.testing.assert_array_equal(stepper.u, u[:-1])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(p=st.floats(1.0, 3.0), n=st.integers(1, 3), N=st.integers(16, 200),
       c=st.floats(1e-2, 1.0), eps=st.floats(1e-3, 0.5), seed=st.integers(0, 2**32 - 1))
def test_one_step_preserves_order(p, n, N, c, eps, seed):
    # Discrete comparison principle of one backward-Euler step, the mechanism
    # behind the eps and R ladder orderings: eps <= u <= v with equal boundary
    # values gives step(u) <= step(v) up to the Newton tolerance.  v equals u
    # at about half the nodes, so the order is tight there.
    rng = np.random.default_rng(seed)
    r = np.linspace(0.0, 1.0, N)
    u = eps + rng.random(N)
    v = u + rng.random(N) * (rng.random(N) < 0.5)
    u[-1] = v[-1] = eps
    dt = c * (r[1] - r[0]) ** 2 / np.max(v) ** p
    su, sv = (pde._Stepper(r, n, p, eps, w[:-1].copy()) for w in (u, v))
    try:
        su.step(dt)
        sv.step(dt)
    except NewtonDivergence:
        assume(False)
    assert np.all(su.u <= sv.u + 10.0 * NEWTON_TOL * np.max(sv.u))


def _datum(fn):
    return InitialDatum(description="test", fn=fn)


@pytest.mark.parametrize("cfg, kwargs", [
    ({"dt_rel_max": -0.01}, {}),
    ({"dt_rel_max": math.nan}, {}),
    ({"dt_rel_max": math.inf}, {}),
    ({"inner_radius": -1.0}, {}),
    ({"datum_mode": "ad"}, {}),
    ({"n_nodes": 64.5}, {}),
    ({"n_nodes": 8}, {}),
    ({}, {"t_start": -2.0}),
    ({}, {"t_start": 10.0}),
    ({}, {"t_end": math.inf}),
    ({}, {"t_end": math.nan}),
    ({}, {"eps": -1e-3}),
    ({}, {"eps": math.inf}),
    ({}, {"u0": _datum(lambda r: np.where(r > 5.0, np.nan, 1.0))}),
    ({}, {"u0": _datum(lambda r: 1.0 - r)}),
    ({}, {"u0": _datum(np.zeros_like), "eps": 0.0}),  # not positive off the boundary
    ({}, {"p": math.inf}),
    ({}, {"p": math.nan}),
    ({}, {"p": 0.0}),
    ({}, {"n": 0}),
    ({}, {"R": 0.0}),
    ({}, {"R": math.inf}),
    ({}, {"R": math.nan}),
])
def test_evolve_rejects_bad_settings(monkeypatch, cfg, kwargs):
    def no_step(*_args, **_kwargs):
        raise RuntimeError("the time stepper ran")

    monkeypatch.setattr(pde._Stepper, "step", no_step)  # an unchecked t_end = inf never ends
    args = dict(u0=InitialDatum.algebraic(2.0), p=2.0, n=1, R=20.0, eps=1e-3, t_end=10.0,
                config=SolverConfig(**{"n_nodes": 64, **cfg}))
    with pytest.raises(DomainError):
        evolve(**{**args, **kwargs})


def test_evolve_names_an_infinite_dimension():
    with pytest.raises(DomainError) as err:
        evolve(InitialDatum.algebraic(2.0), p=2.0, n=math.inf, R=20.0, eps=1e-3, t_end=10.0)
    assert str(err.value) == "parameter 'n' must be an integer >= 1, got inf"


BAD_DATA = {
    # a table is NaN past its last r, here 5 on a grid to R = 20
    "table_short": (InitialDatum.table(np.array([0.0, 1.0, 5.0]), np.array([1.0, 0.5, 0.1])),
                    "initial datum is nan at r=5.079 (node 16 of 64 on [0, 20])"),
    "negative": (InitialDatum("1-r", lambda r: 1.0 - r),
                 "initial datum is -0.269841 at r=1.27 (node 4 of 64 on [0, 20])"),
    "infinite": (InitialDatum("inf past 10", lambda r: np.where(r > 10.0, np.inf, 1.0)),
                 "initial datum is inf at r=10.16 (node 32 of 64 on [0, 20])"),
}


@pytest.mark.parametrize("u0, message", BAD_DATA.values(), ids=BAD_DATA.keys())
def test_evolve_names_the_first_bad_datum_node(u0, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        evolve(u0, p=2.0, n=1, R=20.0, eps=1e-3, t_end=1.0, config=SolverConfig(n_nodes=64))


# The spacing R/31 squares to 0 at R = 1e-200, so 1/h^2 is infinite, and to
# inf at R = 1e300, so every coefficient is 0 and nothing would evolve (the
# Gaussian datum is exactly 0 where r^2 = inf).  At R = 3.1e-153, 1/h^2 is
# 1e308, finite, but the closure coefficient 2n/h^2 is not.
BAD_GRIDS = {
    "fine": (1e-200, "grid of N = 32 nodes on [0, R = 1e-200] has spacing 3.23e-202, "
                     "too fine for finite Laplacian coefficients"),
    "fine_closure": (3.1e-153, "grid of N = 32 nodes on [0, R = 3.1e-153] has spacing 1e-154, "
                               "too fine for finite Laplacian coefficients"),
    "coarse": (1e300, "grid of N = 32 nodes on [0, R = 1e+300] has spacing 3.23e+298, "
                      "too coarse for a negative Laplacian diagonal"),
}


@pytest.mark.parametrize("R, message", BAD_GRIDS.values(), ids=BAD_GRIDS.keys())
def test_evolve_refuses_a_grid_without_usable_laplacian_coefficients(R, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        evolve(InitialDatum.gaussian(2.0), p=2.0, n=1, R=R, eps=1e-3, t_end=10.0,
               config=SolverConfig(n_nodes=32))
    with pytest.raises(DomainError, match=re.escape(message)):
        pde._laplacian_coeffs(1, 32, R / 31)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("N", [16, 257, 4000])
@pytest.mark.parametrize("R", [1.0, 20.0, 100.0])
def test_laplacian_coeffs_are_the_uniform_stencil_bit_for_bit(n, N, R):
    # u'' + (n-1)/r u' at r_i = i h by central differences, and the closure
    # n u''(0) at r = 0, each node written out in Python floats.
    h = R / (N - 1)
    inv_h2 = 1 / h**2
    a, b, c = pde._laplacian_coeffs(n, N, h)
    assert a[0] == 0.0 and b[0] == -2 * n * inv_h2 and c[0] == 2 * n * inv_h2
    for i in range(1, N - 1):
        assert a[i] == (1 - (n - 1) / (2 * i)) * inv_h2
        assert b[i] == -2 * inv_h2
        assert c[i] == (1 + (n - 1) / (2 * i)) * inv_h2
    # halving R halves h exactly, so every coefficient grows by exactly 4
    for half, full in zip(pde._laplacian_coeffs(n, N, (R / 2) / (N - 1)), (a, b, c)):
        np.testing.assert_array_equal(half, 4.0 * full)


# Scale covariance: if u solves u_t = u^p Lap(u), so does lam u(mu x, lam^p mu^2 t).
# Run B evolves lam u0(mu r) on R/mu with floor lam eps to t_end/(lam^p mu^2).
COVARIANT = dict(p=2.0, R=20.0, eps=1e-3, t_end=10.0, n_nodes=129)


def _covariant_run(lam, mu):
    base = InitialDatum.algebraic(2.0)
    p, R, eps, t_end = (COVARIANT[k] for k in ("p", "R", "eps", "t_end"))
    datum = InitialDatum("scaled", lambda r: lam * base.fn(mu * r))
    return evolve(datum, p=p, n=1, R=R / mu, eps=lam * eps, t_end=t_end / (lam**p * mu**2),
                  norm_qs=(1.0,), config=SolverConfig(n_nodes=COVARIANT["n_nodes"]))


@pytest.fixture(scope="module")
def covariant_base():
    return _covariant_run(1.0, 1.0)


def _scaled_back(run, lam, mu):
    """(times, sup norms, snapshots) of run B mapped back onto run A's scales."""
    scale = lam ** COVARIANT["p"] * mu**2
    return (run.times * scale, np.array([s.linf for s in run.samples]) / lam,
            np.array([u for _, u in run.snapshots]) / lam)


@settings(max_examples=8, deadline=None, derandomize=True)
@given(i=st.integers(-3, 3), j=st.integers(-3, 3))
def test_evolve_is_covariant_bit_for_bit_at_powers_of_two(covariant_base, i, j):
    # lam, mu and lam^p mu^2 are powers of two at p = 2, so every grid node,
    # time step and Newton iterate of B is A's scaled exactly.
    lam, mu = 2.0**i, 2.0**j
    run = _covariant_run(lam, mu)
    assert len(run.samples) == len(covariant_base.samples)
    for b, a in zip(_scaled_back(run, lam, mu), _scaled_back(covariant_base, 1.0, 1.0)):
        np.testing.assert_array_equal(b, a)


@settings(max_examples=8, deadline=None, derandomize=True)
@given(lam=st.floats(0.125, 8.0), mu=st.floats(0.125, 8.0))
def test_evolve_is_covariant_to_rounding(covariant_base, lam, mu):
    # Elsewhere B's grid and data differ from A's by rounding.  The step to
    # each sample time, dt = t_next - t, magnifies that rounding by t/dt, and
    # the steps after it grow from that dt, so the two step sequences drift
    # apart from sample to sample: over this run's samples by up to 7e-12
    # (100 draws), far below the time-discretization error.
    run = _covariant_run(lam, mu)
    assert len(run.samples) == len(covariant_base.samples)
    for b, a in zip(_scaled_back(run, lam, mu), _scaled_back(covariant_base, 1.0, 1.0)):
        np.testing.assert_allclose(b, a, rtol=1e-10, atol=0.0)


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
        # one-sided second-order derivative at r = 0, which vanishes with the grid
        _, u = short_run.snapshots[-1]
        h = short_run.r[1] - short_run.r[0]
        assert abs(-3.0 * u[0] + 4.0 * u[1] - u[2]) / (2.0 * h) < 1e-4 * np.max(u)

    def test_semiconvexity_bound(self, short_run):
        # u_t/u >= -1/(pt) holds discretely with margin at sampled times >= 1
        vals = [s.semiconv_min for s in short_run.samples if s.semiconv_min is not None and s.t >= 1.0]
        assert min(vals) > -1e-3


# whole-run invariants draw p, n and an algebraic (gamma) or Gaussian (sigma) datum
RUN_P, RUN_N = st.floats(1.05, 4.0), st.integers(1, 3)
RUN_DATUM = st.one_of(st.tuples(st.just("algebraic"), st.floats(0.3, 6.0)),
                      st.tuples(st.just("gaussian"), st.floats(0.5, 4.0)))


def _drawn_datum(datum):
    kind, value = datum
    return InitialDatum.algebraic(value) if kind == "algebraic" else InitialDatum.gaussian(value)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(p=RUN_P, n=RUN_N, datum=RUN_DATUM)
# a predictor that extrapolated states and was not clipped at eps put an
# interior node 4e-18 below eps here
@example(p=2.0, n=1, datum=("gaussian", 1.0))
def test_whole_run_invariants_across_parameter_space(p, n, datum):
    # The discrete max principle holds exactly, and u_t/u + 1/(pt) >= 0 (the
    # semi-convexity estimate) holds with no slack from t = 1 on; both bounds
    # were fixed before the draws were run.
    run = evolve(_drawn_datum(datum), p=p, n=n, R=40.0, eps=1e-6, t_end=100.0,
                 config=SolverConfig(n_nodes=129, dt_rel_max=0.02))
    assert all(s.max_principle_slack == 0.0 for s in run.samples)
    assert min(s.semiconv_min for s in run.samples if s.t >= 1.0) >= 0.0


@settings(max_examples=10, deadline=None, derandomize=True)
@given(p=RUN_P, n=RUN_N, datum=RUN_DATUM)
def test_ladder_orderings_across_parameter_space(p, n, datum):
    # Criterion 8 across parameter space, within its 1e-6: with the floor
    # added to tapered data, a run is decreasing in eps and increasing in R.
    # R = 20 on 129 nodes and R = 40 on 257 share their first 129 nodes.
    u0 = _drawn_datum(datum)

    def run(R, nodes, eps):
        return evolve(u0.tapered(R), p=p, n=n, R=R, eps=eps, t_end=10.0, norm_qs=(1.0,),
                      config=SolverConfig(n_nodes=nodes, datum_mode="add"))

    high, low, wide = run(20.0, 129, 1e-2), run(20.0, 129, 1e-3), run(40.0, 257, 1e-3)
    for other in (high, wide):
        np.testing.assert_allclose(other.times, low.times, rtol=1e-9, atol=0.0)
    for (_, u_low), (_, u_high), (_, u_wide) in zip(low.snapshots, high.snapshots, wide.snapshots):
        assert np.max(u_low - u_high) <= 1e-6
        assert np.max(u_low - u_wide[:129]) <= 1e-6


@settings(max_examples=10, deadline=None, derandomize=True)
@given(p=RUN_P, n=RUN_N, sigma=st.floats(0.5, 4.0))
def test_rescaled_inner_minimum_increases_across_parameter_space(p, n, sigma):
    # prop103 across parameter space, on 129 nodes instead of its 512: for
    # Gaussian data the inner-ball minimum of v = (t+1)^(1/p) u increases
    # strictly (by the scenario's 1e-12) across t = 10, 100, 1000.
    run = evolve(InitialDatum.gaussian(sigma), p=p, n=n, R=40.0, eps=1e-9, t_end=1e3,
                 norm_qs=(1.0,), config=SolverConfig(n_nodes=129, dt_rel_max=0.02, inner_radius=2.0))
    mins = rescale_to_v(run).min_inner
    picked = [mins[int(np.argmin(np.abs(run.times - t)))] for t in (10.0, 100.0, 1000.0)]
    assert picked[0] + 1e-12 < picked[1] and picked[1] + 1e-12 < picked[2]


@settings(max_examples=20, deadline=None, derandomize=True)
@given(p=st.floats(1.0, 4.0, exclude_min=True), n=st.integers(1, 3), N=st.integers(33, 257),
       eps=st.one_of(st.just(0.0), st.floats(1e-6, 1e-2)),
       dt_rel_max=st.sampled_from([0.05, 1.0]), t_end=st.sampled_from([1.0, 100.0]),
       seed=st.integers(0, 2**32 - 1))
@example(p=1.4, n=1, N=256, eps=1e-6, dt_rel_max=1.0, t_end=100.0, seed=112070912)  # 1 failed step
@example(p=1.0040149651822385, n=3, N=256, eps=0.0014503693280886836, dt_rel_max=1.0,
         t_end=100.0, seed=256)  # 2 failed steps
def test_evolve_completes_on_rough_data(p, n, N, eps, dt_rel_max, t_end, seed):
    # A Newton iterate that does not lower the residual fails the step, and
    # evolve retries it at half dt, its one recovery.  On data with a
    # 10^U(-2, 0) value at every node that must end in a finite state that
    # stays at least eps, and positive off the boundary; never StepTooSmall.
    # R = 1 puts the first steps near dt = h^2 / max(u)^p, where such
    # failures happen (a few draws in a hundred; the examples have some).
    rng = np.random.default_rng(seed)
    r = np.linspace(0.0, 1.0, N)
    u0 = InitialDatum.table(r, 10.0 ** rng.uniform(-2.0, 0.0, N), "rough")
    run = evolve(u0, p=p, n=n, R=1.0, eps=eps, t_end=t_end, norm_qs=(1.0,),
                 config=SolverConfig(n_nodes=N, dt_rel_max=dt_rel_max))
    assert run.times[-1] == pytest.approx(t_end, rel=1e-12)
    for _, u in run.snapshots:
        assert np.all(np.isfinite(u)) and np.all(u >= eps) and np.all(u[:-1] > 0.0)


class TestDtHalvingRetry:
    """evolve's only fallback: a step whose Newton solve fails is retried at half dt."""

    @staticmethod
    def _evolve():
        return evolve(InitialDatum.algebraic(2.0), p=2.0, n=1, R=20.0, eps=1e-3, t_end=10.0,
                      config=SolverConfig(n_nodes=64))

    def test_one_failed_step_is_retried(self, monkeypatch):
        step, dts = pde._Stepper.step, []

        def fails_once(self, dt):
            dts.append(dt)
            if len(dts) == 1:
                raise NewtonDivergence("injected")
            return step(self, dt)

        monkeypatch.setattr(pde._Stepper, "step", fails_once)
        run = self._evolve()
        assert dts[1] == 0.5 * dts[0]
        np.testing.assert_allclose(run.times, [0.0, *pde._sample_times(0.0, 10.0)], rtol=1e-12)
        assert all(np.all(u > 0.0) for _, u in run.snapshots)

    def test_non_finite_newton_matrix_is_retried(self, monkeypatch):
        # a NaN in the first solution fails that step by the descent test
        solve, calls = pde.solve_banded, []

        def nan_first(l_and_u, ab, b):
            calls.append(1)
            x = solve(l_and_u, ab, b)
            if len(calls) == 1:
                x[5] = math.nan
            return x

        monkeypatch.setattr(pde, "solve_banded", nan_first)
        run = self._evolve()
        assert run.stats["halvings"] == 1
        assert run.times[-1] == pytest.approx(10.0, rel=1e-12)
        assert max(s.max_principle_slack for s in run.samples) == 0.0

    def test_persistent_failure_ends_in_step_too_small(self, monkeypatch):
        def always_fails(self, dt):
            raise NewtonDivergence("injected")

        monkeypatch.setattr(pde._Stepper, "step", always_fails)
        with pytest.raises(StepTooSmall, match=re.escape(
                "dt underflow at t=0: no step down to dt_min = 1e-13 converged (last: injected)")):
            self._evolve()


def _tridiagonal(N, seed, dominant):
    """(1, 1) banded storage of a random N x N tridiagonal matrix, strictly
    diagonally dominant or with entries of mixed sign and size, and a
    right-hand side; the unused corners are zero, as in the stepper."""
    rng = np.random.default_rng(seed)
    ab = np.zeros((3, N))
    if dominant:
        ab[0, 1:] = -rng.random(N - 1)
        ab[2, :-1] = -rng.random(N - 1)
        ab[1] = 2.0 + rng.random(N)
    else:
        ab[0, 1:] = rng.standard_normal(N - 1) * 10.0 ** rng.uniform(-3, 3, N - 1)
        ab[2, :-1] = rng.standard_normal(N - 1) * 10.0 ** rng.uniform(-3, 3, N - 1)
        ab[1] = rng.standard_normal(N) * 10.0 ** rng.uniform(-3, 3, N)
    return ab, rng.standard_normal(N)


class TestSolveBanded:
    """pde.solve_banded is scipy.linalg.solve_banded((1, 1), ...) bit for bit,
    solved in place: it overwrites the bands of ab and b, and b holds the
    solution.  So scipy is given copies."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(N=st.integers(16, 400), seed=st.integers(0, 2**32 - 1), dominant=st.booleans())
    def test_bit_identical_to_scipy(self, N, seed, dominant):
        ab, b = _tridiagonal(N, seed, dominant)
        try:
            expected = scipy_solve_banded((1, 1), ab.copy(), b.copy())
        except np.linalg.LinAlgError:
            with pytest.raises(np.linalg.LinAlgError):
                pde.solve_banded((1, 1), ab, b)
            return
        x = pde.solve_banded((1, 1), ab, b)
        np.testing.assert_array_equal(x, expected)
        assert np.shares_memory(x, b)  # the solution is written into b
        assert ab[0, 0] == ab[2, -1] == 0.0  # the unused corners are left alone

    @pytest.mark.parametrize("dominant", [True, False])
    def test_bit_identical_on_the_fine_grid_size(self, dominant):
        ab, b = _tridiagonal(3999, 7, dominant)
        expected = scipy_solve_banded((1, 1), ab.copy(), b.copy())
        np.testing.assert_array_equal(pde.solve_banded((1, 1), ab, b), expected)

    def test_singular_matrix_raises_lin_alg_error(self):
        ab, b = _tridiagonal(32, 0, True)
        ab[1, 0] = ab[2, 0] = 0.0  # first column zero
        for solve in (pde.solve_banded, scipy_solve_banded):
            with pytest.raises(np.linalg.LinAlgError):
                solve((1, 1), ab.copy(), b.copy())

    def test_only_one_one_bands(self):
        with pytest.raises(ValueError):
            pde.solve_banded((2, 1), np.ones((4, 16)), np.ones(16))


@pytest.mark.parametrize("n", [1, 3])
def test_evolve_is_bit_identical_with_scipy_solve_banded(monkeypatch, n):
    # the set-up of the short_run fixture, in one and three dimensions
    def run():
        return evolve(InitialDatum.algebraic(2.0), p=2.0, n=n, R=20.0, eps=1e-3, t_end=10.0,
                      norm_qs=(0.5, 1.0, 2.0), config=SolverConfig(n_nodes=256))

    fast = run()
    with monkeypatch.context() as m:
        m.setattr(pde, "solve_banded", scipy_solve_banded)
        reference = run()
    assert fast.samples == reference.samples
    assert len(fast.snapshots) == len(reference.snapshots)
    for (t, u), (t_ref, u_ref) in zip(fast.snapshots, reference.snapshots):
        assert t == t_ref
        np.testing.assert_array_equal(u, u_ref)



def _textbook_lq(r, u, q, n):
    """The L^q norm over the ball (the sup for q = inf) written out with
    np.max and np.trapezoid."""
    if q == math.inf:
        return float(np.max(u))
    integrand = u**q * r ** (n - 1) if n > 1 else u**q
    return float((sphere_area(n) * np.trapezoid(integrand, r)) ** (1.0 / q))


# n = 1, 2, 3; q from 0.5 to inf; inner_radius by default, 0 and beyond R;
# eps = 0; t_start > 0 with datum_mode "add"
SAMPLED_RUNS = {
    "n1": dict(u0=InitialDatum.algebraic(2.0), p=2.0, n=1, R=20.0, eps=1e-3, t_end=10.0,
               norm_qs=(0.5, 1.0, 2.0, math.inf), config=SolverConfig(n_nodes=128)),
    "n2_eps0_inner0": dict(u0=InitialDatum.gaussian(2.0), p=1.5, n=2, R=10.0, eps=0.0,
                           t_end=5.0, norm_qs=(math.inf, 0.5, 3),
                           config=SolverConfig(n_nodes=96, inner_radius=0.0)),
    "n3_add_from_t1_inner_beyond_R": dict(
        u0=InitialDatum.algebraic(1.0, C0=2.0), p=3.0, n=3, R=30.0, eps=1e-4, t_end=100.0,
        t_start=1.0, norm_qs=(0.5, 2.0, math.inf),
        config=SolverConfig(n_nodes=150, inner_radius=1e3, datum_mode="add")),
}


@pytest.mark.parametrize("kwargs", SAMPLED_RUNS.values(), ids=SAMPLED_RUNS)
def test_samples_are_the_textbook_reductions_of_their_snapshots(monkeypatch, kwargs):
    # Every sample equals, with ==, what np.max, np.trapezoid, the boolean
    # mask r <= inner_radius and the slack formula give on its snapshot, and
    # semiconv_min the elementwise minimum over the step that landed on it.
    landings = {}
    step = pde._Stepper.step

    def recorded(self, dt):
        u_prev = self.u
        iters = step(self, dt)
        landings[self.t] = (u_prev, self.u, dt)
        return iters

    monkeypatch.setattr(pde._Stepper, "step", recorded)
    run = evolve(**kwargs)
    r, n, p, eps, cfg = run.r, kwargs["n"], kwargs["p"], kwargs["eps"], kwargs["config"]
    inner = run.R / 4.0 if cfg.inner_radius is None else cfg.inner_radius
    u0_sup = float(np.max(run.snapshots[0][1]))
    assert len(run.samples) == len(run.snapshots) > 30
    for i, (s, (t, u)) in enumerate(zip(run.samples, run.snapshots)):
        assert s.t == t
        assert s.linf == float(np.max(u))
        assert s.lq == {f"{q:g}": _textbook_lq(r, u, q, n) for q in kwargs["norm_qs"]}
        assert s.min_inner == float(np.min(u[r <= inner]))
        slack = max(eps - u.min(), u.max() - max(u0_sup, eps), 0.0)
        assert s.max_principle_slack == float(slack)
        if i == 0:
            assert s.semiconv_min is None
        else:
            u_prev, u_new, dt = landings[t]
            expected = np.min(np.log(u_new / u_prev) / dt + 1.0 / (p * t))
            assert s.semiconv_min == float(expected)


@pytest.mark.parametrize("kwargs", SAMPLED_RUNS.values(), ids=SAMPLED_RUNS)
def test_no_snapshot_shares_memory(monkeypatch, kwargs):
    # Each snapshot is an array of its own: none shares memory with another
    # or with what the stepper holds at the end, and the first none with the
    # state the stepper starts from, a view of the initial state.
    steppers = []
    init = pde._Stepper.__init__

    def captured(self, *args, **kw):
        init(self, *args, **kw)
        steppers.append((self, self.u))

    monkeypatch.setattr(pde._Stepper, "__init__", captured)
    run = evolve(**kwargs)
    [(stepper, first_state)] = steppers
    snaps = [u for _, u in run.snapshots]
    assert not np.shares_memory(snaps[0], first_state)
    held = [stepper.u, stepper.lu, stepper.up] + [s for _, s in stepper.slopes]
    for i, u in enumerate(snaps):
        assert not any(np.shares_memory(u, a) for a in held + snaps[i + 1:])


class TestHeldState:
    """The stepper holds (u, L u, u^p) and starts each Newton solve from them:
    after an accepted step the three belong to the new u, bit for bit, and a
    failed step leaves them untouched."""

    @staticmethod
    def _run(monkeypatch, evolve_run, recompute):
        """The run, its solve_banded calls, its Laplacians, how many of those
        were taken at the held u, and per accepted step whether the held L u
        and u^p equal a fresh computation bit for bit; the tenth solve returns
        a NaN, so one step fails and is retried at half dt.  With `recompute`,
        each step first replaces the held L u and u^p by fresh ones, not
        counted."""
        solve, lap, step = pde.solve_banded, pde._Stepper.lap, pde._Stepper.step
        calls, laps, exact, kept = [], [], [], []

        def counted_solve(l_and_u, ab, b):
            calls.append(1)
            x = solve(l_and_u, ab, b)
            if len(calls) == 10:
                x[5] = math.nan
            return x

        def counted_lap(self, u_int):
            # True for an L u of the held u; the constructor's comes before u is held
            laps.append(hasattr(self, "u") and u_int.tobytes() == self.u.tobytes())
            return lap(self, u_int)

        def checked_step(self, dt):
            if recompute:
                self.lu, self.up = lap(self, self.u), self.u**self.p
            held = (self.u, self.lu, self.up)
            try:
                iters = step(self, dt)
            except NewtonDivergence:
                kept.append(all(a is b for a, b in zip((self.u, self.lu, self.up), held)))
                raise
            exact.append(lap(self, self.u).tobytes() == self.lu.tobytes()
                         and (self.u**self.p).tobytes() == self.up.tobytes())
            return iters

        with monkeypatch.context() as m:
            m.setattr(pde, "solve_banded", counted_solve)
            m.setattr(pde._Stepper, "lap", counted_lap)
            m.setattr(pde._Stepper, "step", checked_step)
            run = evolve_run()
        assert kept == [True]  # the one failed step kept the three arrays
        return run, len(calls), len(laps), sum(laps), exact

    @pytest.mark.parametrize("evolve_run", [
        lambda: evolve(InitialDatum.algebraic(2.0), p=2.0, n=1, R=20.0, eps=1e-3, t_end=10.0,
                       norm_qs=(0.5, 1.0, 2.0), config=SolverConfig(n_nodes=256)),
        TestDtHalvingRetry._evolve,
    ], ids=["short_run", "dt_halving_retry"])
    def test_held_state_changes_no_bit(self, monkeypatch, evolve_run):
        held, solves, laps, laps_at_u, exact = self._run(monkeypatch, evolve_run, recompute=False)
        fresh, solves_fresh, laps_fresh, _, _ = self._run(monkeypatch, evolve_run, recompute=True)
        assert len(exact) > 10 and all(exact)  # L u and u^p of every accepted u
        assert laps_at_u == 0  # the held arrays are used: no step takes L u again
        assert (solves, laps) == (solves_fresh, laps_fresh)
        assert held.samples == fresh.samples
        assert len(held.snapshots) == len(fresh.snapshots)
        for (t, u), (t_fresh, u_fresh) in zip(held.snapshots, fresh.snapshots):
            assert t == t_fresh
            assert u.tobytes() == u_fresh.tobytes()

    @staticmethod
    def _fails_and_keeps_the_state(monkeypatch, dt, solve, failure, steps=4):
        """A stepper that has taken `steps` steps of 1e-3 fails a step of size
        dt, with `solve` (if not None) in place of solve_banded, by
        NewtonDivergence matching `failure`; its state, clock and slopes stay
        as they were.  After four steps three slopes are held, so the failing
        step tries the predictor; a fresh stepper starts Newton from u."""
        r = np.linspace(0.0, 1.0, 32)
        u0 = 1e-2 + 0.5 * (1.0 - r[:-1] ** 2)
        stepper = pde._Stepper(r, 1, 2.0, 1e-2, u0.copy())
        for _ in range(steps):
            stepper.step(1e-3)
        held = (stepper.u, stepper.lu, stepper.up)
        copies = [a.copy() for a in held]
        t, slopes = stepper.t, list(stepper.slopes)
        slope_copies = [s.copy() for _, s in slopes]
        with monkeypatch.context() as m, np.errstate(over="ignore", invalid="ignore"):
            if solve is not None:
                m.setattr(pde, "solve_banded", solve)
            with pytest.raises(NewtonDivergence, match=failure):
                stepper.step(dt)
        for now, before, kept in zip((stepper.u, stepper.lu, stepper.up), held, copies):
            assert now is before
            assert now.tobytes() == kept.tobytes()
        assert stepper.t == t == steps * 1e-3
        assert len(stepper.slopes) == min(steps, 3)
        for (t_now, now), (t_before, before), kept in zip(stepper.slopes, slopes, slope_copies):
            assert t_now == t_before and now is before
            assert now.tobytes() == kept.tobytes()
        # the kept state steps on as a stepper built from its u, clock and slopes
        other = pde._Stepper(r, 1, 2.0, 1e-2, stepper.u.copy(), stepper.t)
        other.slopes = [(t_k, s.copy()) for t_k, s in stepper.slopes]
        assert stepper.step(1e-3) == other.step(1e-3)
        assert stepper.u.tobytes() == other.u.tobytes()

    @pytest.mark.parametrize("failure, dt, zero_matrix, steps", [
        ("singular", 1e-3, True, 4),
        ("singular", 1e-3, True, 0),  # the same from a fresh stepper, Newton from u
        ("no descent", 1e308, False, 4),  # the Newton matrix overflows
        ("no descent", 1e8, False, 4),  # a full Newton step raises the residual
        ("no descent", 1e308, False, 0),  # the same from a fresh stepper, Newton from u
    ], ids=["singular", "singular-fresh", "overflow", "no-descent", "overflow-fresh"])
    def test_failed_step_keeps_the_state(self, monkeypatch, failure, dt, zero_matrix, steps):
        solve = pde.solve_banded
        zeroed = (lambda l_and_u, ab, b: solve(l_and_u, 0.0 * ab, b)) if zero_matrix else None
        self._fails_and_keeps_the_state(monkeypatch, dt, zeroed, failure, steps)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["upper", "diag", "lower", "rhs", "solution"])
    def test_a_non_finite_solve_fails_the_step(self, monkeypatch, bad, where):
        # solve_banded does not scan for non-finite input: a NaN or inf in a
        # band, in the right-hand side or in the returned solution of the
        # first Newton solve fails the step by the descent test
        solve, calls = pde.solve_banded, []

        def corrupted(l_and_u, ab, b):
            calls.append(1)
            if len(calls) == 1 and where != "solution":
                target, index = {"upper": (ab, (0, 5)), "diag": (ab, (1, 5)),
                                 "lower": (ab, (2, 5)), "rhs": (b, 5)}[where]
                target[index] = bad
            x = solve(l_and_u, ab, b)
            if len(calls) == 1 and where == "solution":
                x[5] = bad
            return x

        self._fails_and_keeps_the_state(monkeypatch, 1e-3, corrupted, "no descent")

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_the_unused_corners_are_never_read(self, bad):
        # gtsv is given the three diagonals alone, so whatever the corners
        # ab[0, 0] and ab[2, -1] hold leaves a step's bits as they were
        r = np.linspace(0.0, 1.0, 32)
        u0 = 1e-2 + 0.5 * (1.0 - r[:-1] ** 2)
        clean, dirty = (pde._Stepper(r, 1, 2.0, 1e-2, u0.copy()) for _ in range(2))
        dirty.ab[0, 0] = dirty.ab[2, -1] = bad
        for _ in range(5):
            assert clean.step(1e-3) == dirty.step(1e-3)
        assert clean.u.tobytes() == dirty.u.tobytes()


def _from_u(stepper):
    """A copy of the stepper that holds no slopes, so that its next step
    starts Newton from u."""
    free = copy.copy(stepper)
    free.slopes = []
    return free


def _start_from_u(m):
    """Make every step of the steppers start from u, as if no slope were held."""
    step = pde._Stepper.step

    def from_u(self, dt):
        self.slopes.clear()
        return step(self, dt)

    m.setattr(pde._Stepper, "step", from_u)


class _Enough(Exception):
    pass


class TestPredictor:
    """Once three slopes are held, Newton starts from the predictor
    u + dt Q(t + dt) when its residual is below u's, else from u."""

    @staticmethod
    def _first_steps(from_u, count=4):
        """(dt, iterations, new u) of a run's first `count` steps."""
        steps = []
        with pytest.MonkeyPatch.context() as m:
            if from_u:
                _start_from_u(m)
            step = pde._Stepper.step

            def recorded(self, dt):
                iters = step(self, dt)
                steps.append((dt, iters, self.u.tobytes()))
                if len(steps) == count:
                    raise _Enough
                return iters

            m.setattr(pde._Stepper, "step", recorded)
            with pytest.raises(_Enough):
                evolve(InitialDatum.algebraic(2.0), p=2.0, n=1, R=20.0, eps=1e-3, t_end=10.0,
                       config=SolverConfig(n_nodes=256))
        return steps

    def test_the_first_three_steps_start_from_u(self):
        # with fewer than three slopes held there is no predictor: the first
        # three steps are those of a run whose every step starts from u, bit
        # for bit; the fourth is predicted and takes fewer iterations
        predicted, from_u = self._first_steps(False), self._first_steps(True)
        assert predicted[:3] == from_u[:3]
        assert predicted[3][0] == from_u[3][0]
        assert predicted[3][1] < from_u[3][1]

    @staticmethod
    def _stepper_with_slopes():
        r = np.linspace(0.0, 20.0, 129)
        u = np.maximum(InitialDatum.algebraic(2.0)(r), 1e-3)[:-1]
        stepper = pde._Stepper(r, 1, 2.0, 1e-3, u)
        for _ in range(5):
            stepper.step(1e-3)
        return stepper

    def test_corrupted_slopes_fall_back_to_u(self):
        # slopes scaled by 1e6 predict a state whose residual exceeds u's, so
        # the step starts from u: its iterations and result are those of a
        # stepper that holds no slopes, bit for bit
        stepper = self._stepper_with_slopes()
        intact = copy.copy(stepper)
        intact.slopes = list(stepper.slopes)
        stepper.slopes = [(t_k, 1e6 * s) for t_k, s in stepper.slopes]
        free = _from_u(stepper)
        iters = stepper.step(1e-3)
        assert iters == free.step(1e-3)
        for a, b in ((stepper.u, free.u), (stepper.lu, free.lu), (stepper.up, free.up)):
            assert a.tobytes() == b.tobytes()
        assert intact.step(1e-3) < iters  # the intact slopes are used

    @pytest.mark.parametrize("eps, floor", [(1e-3, 1e-3), (0.0, 1e-300)])
    def test_the_prediction_is_clipped_at_eps(self, eps, floor):
        # Equal slopes make Q constant, so the prediction is u + dt s up to
        # the rounding of the weights.  Where that falls below eps it is
        # clipped at eps, at the floor when eps = 0, and nowhere else.  In
        # evolves the clip is rare (one prediction in about 5e4).
        r = np.linspace(0.0, 1.0, 32)
        u, s = np.full(31, 2e-3), -np.linspace(0.005, 0.305, 31)  # no u + dt s near 0 or eps
        stepper = pde._Stepper(r, 1, 2.0, eps, u.copy(), t=0.3)
        stepper.slopes = [(0.1, s), (0.2, s), (0.3, s)]
        y, plain = stepper.predict(0.01), u + 0.01 * s
        low = plain < floor
        assert 0 < low.sum() < len(u) - 5
        assert np.all(y[low] == floor)
        np.testing.assert_allclose(y[~low], plain[~low], rtol=1e-12, atol=0.0)

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(p=RUN_P, n=RUN_N, datum=RUN_DATUM, eps=st.sampled_from([0.0, 1e-9, 1e-6, 1e-3]))
    def test_every_step_agrees_with_a_solve_from_u(self, p, n, datum, eps):
        # Both Newton solves stop below the residual tolerance NEWTON_TOL
        # max(u), so their results differ by a small multiple of it: the
        # bound of 1e-10 max(u) was fixed before the draws were run.  R = 10
        # keeps a Gaussian datum positive on the grid when eps = 0.
        step, gaps, iters = pde._Stepper.step, [], []

        def compared(self, dt):
            free = _from_u(self)
            scale = max(float(self.u.max()), self.eps)
            predicted = step(self, dt)
            try:
                from_u = step(free, dt)
            except NewtonDivergence:
                return predicted
            gaps.append(float(np.max(np.abs(self.u - free.u))) / scale)
            iters.append((predicted, from_u))
            return predicted

        with pytest.MonkeyPatch.context() as m:
            m.setattr(pde._Stepper, "step", compared)
            evolve(_drawn_datum(datum), p=p, n=n, R=10.0, eps=eps, t_end=100.0, norm_qs=(1.0,),
                   config=SolverConfig(n_nodes=129, dt_rel_max=0.02))
        assert len(gaps) > 100 and max(gaps) <= 1e-10
        assert sum(a for a, _ in iters) < sum(b for _, b in iters)


EVOLVE_SCENARIOS = ["theorem200", "theorem100", "theorem2000_upper", "theorem2000_lower", "prop103"]


@pytest.mark.parametrize("name", EVOLVE_SCENARIOS)
def test_the_predictor_keeps_the_steps_and_saves_solves(tmp_path, name):
    # Each default evolve set-up, on 129 nodes: the predictor leaves the
    # accepted steps and the halvings of a run that starts every step from
    # u, and takes fewer tridiagonal solves, which the counter counts.
    params = experiments._resolve_parameters(name, {"n_nodes": 129})

    def stats(from_u):
        runs, solves = [], []
        evolve_, solve = pde.evolve, pde.solve_banded

        def kept(*args, **kwargs):
            runs.append(evolve_(*args, **kwargs))
            return runs[-1]

        def counted(l_and_u, ab, b):
            solves.append(1)
            return solve(l_and_u, ab, b)

        with pytest.MonkeyPatch.context() as m:
            m.setattr(pde, "evolve", kept)
            m.setattr(pde, "solve_banded", counted)
            if from_u:
                _start_from_u(m)
            experiments.SCENARIOS[name](params, tmp_path)
        (run,) = runs
        assert run.stats["newton_solves"] == len(solves)
        return run.stats

    predicted, from_u = stats(False), stats(True)
    assert (predicted["steps"], predicted["halvings"]) == (from_u["steps"], from_u["halvings"])
    assert predicted["newton_solves"] < from_u["newton_solves"]


def _textbook_step(stepper, dt):
    """The stepper's step in textbook form, with its own arrays and no
    sharing: F = x - u - dt x^p L x, off-diagonals -dt x^p c (upper) and
    -dt x^p a (lower), diagonal 1 - dt (p x^(p-1) L x + x^p b), scipy's
    copying solve of the system with right-hand side -F, unscanned for
    NaN or inf as the stepper's is, and the full Newton step, clipped at
    the floor, kept only if it lowers |F|."""
    p, ab = stepper.p, np.zeros_like(stepper.ab)
    u_old, lu, xp = stepper.u, stepper.lu, stepper.up
    a_low, c_up = -stepper.neg_a_low, -stepper.neg_c_up  # the Laplacian's off-diagonals

    def residual(u_new):
        lu_new = stepper.lap(u_new)
        up_new = u_new**p
        return u_new - u_old - dt * up_new * lu_new, lu_new, up_new

    tol = NEWTON_TOL * max(float(u_old.max()), stepper.eps, 1e-30)
    x = u_old.copy()
    res = x - u_old - dt * xp * lu
    rnorm = float(np.abs(res).max())
    for it in range(pde.MAX_NEWTON + 1):
        if rnorm < tol:
            break
        if it == pde.MAX_NEWTON:
            raise NewtonDivergence(f"Newton stalled at residual {rnorm:.3g} (tol {tol:.3g})")
        mdx = -dt * xp
        np.multiply(mdx[:-1], c_up, out=ab[0, 1:])
        diag = p * x ** (p - 1.0) * lu
        diag += xp * stepper.b
        diag *= dt
        np.subtract(1.0, diag, out=ab[1])
        np.multiply(mdx[1:], a_low, out=ab[2, :-1])
        try:
            delta = scipy_solve_banded((1, 1), ab, -res, check_finite=False)
        except np.linalg.LinAlgError:
            raise NewtonDivergence("singular Newton matrix")
        trial = np.maximum(x + delta, stepper.floor)
        res_t, lu_t, xp_t = residual(trial)
        rn_t = float(np.abs(res_t).max())
        if not (math.isfinite(rn_t) and rn_t < rnorm):
            raise NewtonDivergence(f"no descent at iteration {it} (res={rnorm:.3g})")
        x, res, lu, xp, rnorm = trial, res_t, lu_t, xp_t, rn_t
    stepper.u, stepper.lu, stepper.up = x, lu, xp
    return it


@settings(max_examples=30, deadline=None, derandomize=True)
@given(p=st.one_of(st.sampled_from([1.25, 1.5, 2.0, 3.0]),
                   st.floats(1.0, 4.0, exclude_min=True)),
       n=st.integers(1, 3), N=st.integers(16, 300),
       eps=st.one_of(st.just(0.0), st.floats(1e-6, 1e-1)),
       c=st.floats(1e-3, 10.0), seed=st.integers(0, 2**32 - 1))
@example(p=1.25, n=1, N=51, eps=0.0, c=4.3, seed=4)  # no descent at iteration 2
@example(p=1.25, n=1, N=157, eps=1e-3, c=9.6, seed=6)  # no descent at iteration 1
def test_step_equals_the_textbook_step_bit_for_bit(p, n, N, eps, c, seed):
    # Three steps from rough data at dt = c h^2 / max(u)^p: at larger c a
    # full Newton step may raise the residual, and a few steps fail (the two
    # examples).
    # Each step of the stepper must take the iterations of the textbook
    # step and end on its bits, or raise its message.
    rng = np.random.default_rng(seed)
    r = np.linspace(0.0, 1.0, N)
    u = np.maximum(10.0 ** rng.uniform(-2.0, 0.0, N - 1), eps)
    dt = c * (r[1] - r[0]) ** 2 / np.max(u) ** p
    trimmed, textbook = (pde._Stepper(r, n, p, eps, u.copy()) for _ in range(2))
    for _ in range(3):
        try:
            expected = _textbook_step(textbook, dt)
        except NewtonDivergence as exc:
            with pytest.raises(NewtonDivergence, match=f"^{re.escape(str(exc))}$"):
                trimmed.step(dt)
            break
        assert trimmed.step(dt) == expected
        for a, b in ((trimmed.u, textbook.u), (trimmed.lu, textbook.lu), (trimmed.up, textbook.up)):
            assert a.tobytes() == b.tobytes()


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
        # synthetic run whose u does not change: v = e^(tau/p) u
        p = 2.0
        r = np.linspace(0, 1, 16)
        u = 0.5 + 2.5 * (1.0 - r**2)
        times = (0.0, 1.0, 10.0, 100.0)
        samples = [
            SampleRecord(t=t, tau=math.log(t + 1.0), linf=3.0, lq={"1": 1.0},
                         min_inner=0.5, semiconv_min=None, max_principle_slack=0.0)
            for t in times
        ]
        run = EvolutionRun(p=p, n=1, R=1.0, eps=0.0, r=r, samples=samples,
                           snapshots=[(t, u.copy()) for t in times])
        v = rescale_to_v(run)
        assert len(v.snapshots) == len(v.min_inner) == len(times)
        for tau, (tau_v, vs), m in zip(v.taus, v.snapshots, v.min_inner):
            growth = math.exp(tau / p)
            assert tau_v == tau
            np.testing.assert_allclose(vs, growth * u, rtol=1e-12)
            assert m == pytest.approx(growth * 0.5, rel=1e-12)

    def test_rejects_a_run_without_samples(self):
        run = EvolutionRun(p=2.0, n=1, R=1.0, eps=0.0, r=np.linspace(0, 1, 16), samples=[],
                           snapshots=[])
        with pytest.raises(DomainError, match="no samples"):
            rescale_to_v(run)

    def test_inner_minimum_diverges_for_gaussian_data(self):
        run = evolve(InitialDatum.gaussian(2.0), p=2.0, n=1, R=40.0, eps=1e-9,
                     t_end=1000.0, norm_qs=(1.0,),
                     config=SolverConfig(n_nodes=256, inner_radius=2.0))
        ts = run.times
        mins = rescale_to_v(run).min_inner
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
        assert sub.unit is unit

    def test_rejects_bad_parameters(self, unit):
        with pytest.raises(DomainError):
            separated_subsolution(2.0, 1, -1.0, 1.0, 1.0, unit=unit)
        with pytest.raises(DomainError):
            separated_subsolution(2.0, 1, 2.0, 1.0, 0.0, unit=unit)

    @pytest.mark.parametrize("p, n", [(3.0, 1), (2.0, 2), (3.0, 2)])
    def test_rejects_a_unit_profile_of_other_exponents(self, unit, p, n):
        # subsolution_margin would scale the p = 2, n = 1 unit profile by
        # R^(2/p) of the other p
        with pytest.raises(DomainError, match="unit profile is for p=2, n=1, R=1, "):
            separated_subsolution(p, n, 2.0, 1.0, 1.0, unit=unit)

    def test_rejects_a_profile_off_the_unit_ball(self, unit):
        # c1 would be the center value of w_2, and the margin would read the
        # spline of w_2 at r / R as if it were w_1's
        with pytest.raises(DomainError, match="unit profile is for p=2, n=1, R=2, "):
            separated_subsolution(2.0, 1, 2.0, 1.0, 1.0, unit=steady.scale_profile(unit, 2.0))


def test_comparison_sandwich_short():
    # gamma-decaying run stays between the separated subsolution and the
    # amplitude-matched self-similar supersolution
    p, n, gamma, C0 = 2.0, 1, 2.0, 1.0
    alpha = gamma / (p * gamma + 2.0)
    pp1 = ProfileParams.self_similar(p, alpha, 1.0)
    prof1 = integrate_profile(pp1, 60.0, tol=1e-10, n=n)
    Lhat = certify_tail_bounds(prof1, (0.0, 50.0)).lower_const
    A = 1.05 * C0 / Lhat
    profA = scale_profile(prof1, A)

    run = evolve(InitialDatum.algebraic(gamma, C0), p=p, n=n, R=50.0, eps=1e-5,
                 t_end=100.0, norm_qs=(1.0,), config=SolverConfig(n_nodes=400))
    assert supersolution_margin(run, profA.params, profA, shift=1.0) <= 1e-3

    unit = shoot_unit_profile(p, n)
    vrun = rescale_to_v(run)
    for tau in (1.0, 3.0, math.log(101.0)):
        sub = separated_subsolution(p, n, gamma, C0, tau, unit)
        assert subsolution_margin(vrun, sub, tau) >= -1e-3


SANDWICH_SETUPS = [(2.0, 3, 2.0), (2.0, 1, 2.0), (3.0, 2, 1.0)]


@pytest.fixture(scope="module")
def sandwich_runs():
    """theorem2000's default run (R = 100, N = 800, t to 1e4) of C0 = 1
    algebraic data for each (p, n, gamma) set-up, with its unit profile."""
    return {(p, n, gamma): (evolve(InitialDatum.algebraic(gamma, 1.0), p=p, n=n, R=100.0,
                                   eps=1e-5, t_end=1e4, norm_qs=(1.0,),
                                   config=SolverConfig(n_nodes=800)),
                            shoot_unit_profile(p, n))
            for p, n, gamma in SANDWICH_SETUPS}


def scaled_spline_margin(vrun, sub, tau):
    """subsolution_margin through a spline of the rescaled nodes of w_R."""
    i = int(np.argmin(np.abs(vrun.taus - tau)))
    tau_actual, v = vrun.snapshots[i]
    mask = vrun.r <= sub.R
    w_R = steady.scale_profile(sub.unit, sub.R)
    wvals = w_R.interpolant()(np.minimum(vrun.r[mask], sub.R))
    lower = sub.y(tau_actual) * wvals
    return float(np.min(v[mask] - lower) / np.max(lower))


@pytest.mark.parametrize("p, n, gamma", SANDWICH_SETUPS)
def test_margin_through_the_unit_spline_matches_the_scaled_spline(sandwich_runs, p, n, gamma):
    # w_R(r) = R^(2/p) w_1(r/R) through w_1's spline against the spline of
    # scale_profile(w_1, R)'s nodes: the two differ by rounding alone.
    run, unit = sandwich_runs[(p, n, gamma)]
    vrun = rescale_to_v(run)
    taus = [tau for tau in vrun.taus if tau > 0.5]
    assert len(taus) == 61
    for tau in taus:
        sub = separated_subsolution(p, n, gamma, 1.0, tau, unit)
        assert sub.unit is unit
        old = scaled_spline_margin(vrun, sub, tau)
        assert abs(subsolution_margin(vrun, sub, tau) - old) <= 4 * np.spacing(abs(old))


def test_sandwich_builds_one_spline_per_profile(sandwich_runs, monkeypatch):
    # theorem2000's lower loop over 61 checkpoints and its supersolution
    # check over 62 snapshots build one spline each: the unit profile's and
    # f_A's, not one per checkpoint.
    from diffusionlab import profiles

    p, n, gamma = SANDWICH_SETUPS[0]
    run, _ = sandwich_runs[(p, n, gamma)]
    unit = shoot_unit_profile(p, n)  # a fresh profile, with no spline yet
    alpha = gamma / (p * gamma + 2.0)
    prof1 = integrate_profile(ProfileParams.self_similar(p, alpha, 1.0), 110.0, tol=1e-10, n=n)
    profA = scale_profile(prof1, 1.05 / certify_tail_bounds(prof1, (0.0, 100.0)).lower_const)
    builds = {}

    def counted(module):
        def build(*args, **kwargs):
            builds[module.__name__] = builds.get(module.__name__, 0) + 1
            return spline(*args, **kwargs)

        spline = module.HermiteSpline
        monkeypatch.setattr(module, "HermiteSpline", build)

    counted(steady)
    counted(profiles)
    vrun = rescale_to_v(run)
    for tau in vrun.taus[vrun.taus > 0.5]:
        subsolution_margin(vrun, separated_subsolution(p, n, gamma, 1.0, tau, unit), tau)
    supersolution_margin(run, profA.params, profA, shift=1.0)
    assert len(run.snapshots) == 62
    assert builds == {"diffusionlab.steady": 1, "diffusionlab.profiles": 1}


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
    for f, (_, u) in zip(files, short_run.snapshots):
        # the same bytes as formatting the numpy scalars row by row
        rows = "".join(f"{rr:.17g},{uu:.17g}\n" for rr, uu in zip(short_run.r, u))
        assert f.read_bytes() == ("r,u\n" + rows).encode()


@pytest.mark.parametrize("line", [
    '{"t": NaN, "linf": 1.0, "lq": {"2": 1.0}}',
    '{"t": true, "linf": 1.0, "lq": {"2": 1.0}}',
    '{"t": 1.0, "linf": Infinity, "lq": {"2": 1.0}}',
    '{"t": 1.0, "linf": 1.0, "lq": {"2": null}}',
])
def test_series_values_must_be_finite_numbers(tmp_path, line):
    path = tmp_path / "run.jsonl"
    path.write_text('{"t": 0.5, "linf": 1.0, "lq": {"2": 1.0}}\n' + line + "\n")
    with pytest.raises(DomainError, match=re.escape(f"{path}:2: ")):
        read_jsonl_series(path, "l2")


def test_lq_norm_exact_on_known_function():
    # u = 1 on B_R in n=3: ||u||_q^q = area * R^n / n = (4 pi /3) R^3
    r = np.linspace(0.0, 2.0, 4001)
    val = pde._lq(np.ones_like(r), 1.0, r**2, np.diff(r), sphere_area(3))
    assert val == pytest.approx(4.0 * math.pi / 3.0 * 8.0, rel=1e-6)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_lq_norm_is_the_trapezoid_rule_bit_for_bit(n):
    # on evolve's uniform grid, with rough positive values
    rng = np.random.default_rng(n)
    r = np.linspace(0.0, 7.0, 301)
    u = 10.0 ** rng.uniform(-3.0, 1.0, r.size)
    weight = r ** (n - 1) if n > 1 else None
    for q in (0.5, 1.0, 2, 3.5):
        assert pde._lq(u, q, weight, np.diff(r), sphere_area(n)) == _textbook_lq(r, u, q, n)
