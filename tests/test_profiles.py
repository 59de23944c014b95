"""Tests for the self-similar profile solver.

The independent oracle for the integration route is scipy's Radau solver on
the same ODE; the package's own path is the hybrid DP45 + 2-stage Radau IIA
tail in log-log variables, so agreement is a genuine cross-check of two
different methods.  In the core, mpmath's Taylor-series solver at 25 digits
is a second, high-precision oracle.
"""

import functools
import itertools
import json
import math
import re
from collections import Counter
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicHermiteSpline

from diffusionlab import profiles
from diffusionlab.errors import DomainError, RangeError, SingularityError, WindowError
from diffusionlab.profiles import (
    Profile,
    ProfileParams,
    TailBound,
    _axes,
    _check_profile_invariants,
    _integrate_tail,
    certify_tail_bounds,
    check_integral_identity,
    eval_self_similar,
    fit_tail_exponent,
    integrate_profile,
    integrate_profile_family,
    save_profile,
    scale_profile,
    self_similar_residual,
    taylor_start,
)
from diffusionlab.experiments import DEFAULTS
from diffusionlab.rk import first_nonmonotone_interval, integrate_dp45


def reference_profile(params, n, xi_pts, xi0=1e-7):
    """Independent route: scipy Radau on the profile ODE from a series start."""
    p, alpha, beta = params.p, params.alpha, params.beta

    def rhs(x, y):
        f, fp = y
        return [fp, -(n - 1) / x * fp - f ** (-p) * (beta * x * fp + alpha * f)]

    y0 = taylor_start(params, xi0, n)
    sol = solve_ivp(
        rhs, (xi0, float(np.max(xi_pts))), y0, method="Radau",
        rtol=1e-11, atol=1e-14, dense_output=True,
    )
    assert sol.success
    return sol.sol(xi_pts)[0]


def mp_unit_profile(p, alpha, n, xi0=1e-4, dps=25):
    """f_1 of (p, alpha, n) by mpmath's Taylor-series ODE solver at dps digits,
    started at xi0 from the two-term series f = 1 + c xi^2, c = -alpha/(2n),
    whose error there is about 1e-16.  Returns xi -> f_1(xi) as a float."""
    with mpmath.workdps(dps):
        P, a, x0 = mpmath.mpf(p), mpmath.mpf(alpha), mpmath.mpf(xi0)
        beta, c = (1 - P * a) / 2, -a / (2 * n)

        def rhs(x, y):
            f, fp = y
            return [fp, -(n - 1) / x * fp - f ** (-P) * (beta * x * fp + a * f)]

        sol = mpmath.odefun(rhs, x0, [1 + c * x0**2, 2 * c * x0])

    def f1(xi):
        with mpmath.workdps(dps):
            return float(sol(mpmath.mpf(xi))[0])

    return f1


@pytest.mark.parametrize("p, alpha, n", [(2.0, 0.25, 1), (2.0, 0.25, 3)])
def test_profile_nodes_match_a_high_precision_oracle(p, alpha, n):
    # The oracle is explicit (Taylor series), so it stays in the core, here
    # xi <= 3, where the profile solver is explicit too.  Its node error
    # scales with tol: at most 0.055 tol in both families, bound 0.1 tol.
    f1 = mp_unit_profile(p, alpha, n)
    err = {}
    for tol in (1e-10, 1e-11):
        prof = integrate_profile(ProfileParams(p, alpha, 1.0), 3.0, tol=tol, n=n)
        nodes = prof.xi >= 1e-4  # the nodes where the oracle is defined
        ref = np.array([f1(xi) for xi in prof.xi[nodes]])
        err[tol] = float(np.max(np.abs(prof.f[nodes] - ref) / ref))
        assert err[tol] <= 0.1 * tol
    assert err[1e-11] < err[1e-10]


class TestProfileParams:
    def test_self_similar_beta(self):
        pp = ProfileParams.self_similar(2.0, 0.25, 1.0)
        assert pp == ProfileParams(p=2.0, alpha=0.25, A=1.0)
        assert pp.beta == (1.0 - 2.0 * 0.25) / 2.0
        assert pp.tail_exponent == pytest.approx(1.0)

    @pytest.mark.parametrize("p, alpha, A", [
        (0.5, 0.1, 1.0), (1.0, 0.25, 1.0), (math.nan, 0.25, 1.0),  # p > 1
        (2.0, -0.1, 1.0), (2.0, 0.0, 1.0), (2.0, 0.5, 1.0), (2.0, 0.6, 1.0),  # 0 < alpha < 1/p
        (2.0, 0.1, 0.0), (2.0, 0.1, -1.0), (2.0, 0.1, math.inf),  # 0 < A < inf
        (3.0, 0.1, 1e300), (3.0, 0.1, 1e-300),  # 0 < A^(p/2) < inf
    ])
    def test_rejects_bad_parameters(self, p, alpha, A):
        with pytest.raises(DomainError):
            ProfileParams(p=p, alpha=alpha, A=A)
        with pytest.raises(DomainError):
            ProfileParams.self_similar(p, alpha, A)

    def test_beta_is_not_a_field(self):
        with pytest.raises(TypeError):
            ProfileParams(p=2.0, alpha=0.25, beta=0.3, A=1.0)


class TestTaylorStart:
    def test_series_coefficient_p2(self):
        # c = -alpha A^(1-p) / (2n): p=2, alpha=0.25, A=1, n=1 -> c = -0.125
        pp = ProfileParams.self_similar(2.0, 0.25, 1.0)
        f, fp = taylor_start(pp, 0.01, n=1)
        assert f == pytest.approx(0.9999875, abs=1e-12)
        assert fp == pytest.approx(-0.0025, abs=1e-12)

    def test_limit_is_initial_condition(self):
        pp = ProfileParams.self_similar(3.0, 0.1, 0.7)
        f, fp = taylor_start(pp, 1e-9, n=2)
        assert f == pytest.approx(0.7, abs=1e-15)
        assert fp == pytest.approx(0.0, abs=1e-8)

    def test_series_matches_fine_integration(self):
        # integrate from a much smaller offset up to xi0 and compare
        pp = ProfileParams.self_similar(2.0, 0.25, 1.0)
        xi0 = 1e-3
        f_series, fp_series = taylor_start(pp, xi0, n=1)
        f_ref = reference_profile(pp, 1, np.array([xi0]), xi0=1e-9)[0]
        assert f_series == pytest.approx(f_ref, rel=1e-10)

    def test_rejects_nonpositive_offset(self):
        pp = ProfileParams.self_similar(2.0, 0.25, 1.0)
        with pytest.raises(DomainError):
            taylor_start(pp, 0.0, n=1)

    def test_rejects_dimension_below_one(self):
        pp = ProfileParams.self_similar(2.0, 0.25, 1.0)
        with pytest.raises(DomainError, match="dimension"):
            taylor_start(pp, 0.01, n=0)


# For p = 2, alpha = 0.25, A = 1 the series starts at xi0 = 1e-5 * 2.
@pytest.mark.parametrize("xi_max, tol", [
    (0.0, 1e-10), (-1.0, 1e-10), (1e-6, 1e-10), (math.nan, 1e-10), (math.inf, 1e-10),
    (50.0, 1e-12), (50.0, 1e-3), (50.0, math.nan),
])
def test_integrate_profile_rejects_bad_input(xi_max, tol):
    with pytest.raises(DomainError):
        integrate_profile(ProfileParams.self_similar(2.0, 0.25, 1.0), xi_max, tol=tol, n=1)


@pytest.mark.parametrize("p,alpha_rel", [(1.5, 0.5), (2.0, 0.5), (3.0, 0.5), (2.0, 0.25)])
@pytest.mark.parametrize("n", [1, 3])
def test_positivity_and_monotonicity(p, alpha_rel, n):
    pp = ProfileParams.self_similar(p, alpha_rel / p, 1.0)
    prof = integrate_profile(pp, 50.0, tol=1e-10, n=n)
    assert prof.f.min() > 0.0
    assert prof.fp.max() <= 1e-10 * pp.A
    assert prof.f[0] == pp.A and prof.fp[0] == 0.0
    assert np.all(np.diff(prof.xi) > 0.0)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(p=st.floats(1.1, 3.0), alpha_rel=st.floats(0.15, 0.6), A=st.floats(0.5, 2.0),
       n=st.integers(1, 3))
def test_profile_properties_for_random_parameters(p, alpha_rel, A, n):
    prof = integrate_profile(ProfileParams.self_similar(p, alpha_rel / p, A), 50.0, n=n)
    assert prof.f.min() > 0.0
    assert np.all(np.diff(prof.f) <= 0.0)
    assert check_integral_identity(prof) < 1e-6  # criterion 1's bound


def test_agrees_with_scipy_oracle():
    pp = ProfileParams.self_similar(2.0, 0.25, 1.0)
    prof = integrate_profile(pp, 40.0, tol=1e-10, n=1)
    pts = np.array([0.5, 2.0, 10.0, 25.0, 39.0])
    ref = reference_profile(pp, 1, pts)
    mine = prof.interpolant()(pts)
    assert np.max(np.abs(mine - ref) / ref) < 1e-7


def test_interpolant_agrees_with_scipy_oracle_between_nodes():
    # Dense sampling puts most points between nodes, where a slope-free
    # interpolant (PCHIP) on the coarse grid misses by ~2e-5.
    pp = ProfileParams.self_similar(2.0, 0.25, 1.0)
    prof = integrate_profile(pp, 40.0, tol=1e-10, n=1)
    pts = np.linspace(0.01, 39.9, 4000)
    ref = reference_profile(pp, 1, pts)
    mine = prof.interpolant()(pts)
    assert np.max(np.abs(mine - ref) / ref) < 1e-7


def test_tail_scheme_is_third_order():
    # One fixed switch state, continued to xi=50 at three log steps; tol=1
    # never rejects a step, so every step runs at ds.  The reference is
    # scipy's adaptive Radau on the same log-log system.
    p, alpha, n = 2.0, 0.25, 1
    pp = ProfileParams.self_similar(p, alpha, 1.0)
    start = integrate_profile(pp, 4.0, n=n)
    xi_sw, f_sw, fp_sw = start.xi[-1], start.f[-1], start.fp[-1]
    beta = pp.beta

    def rhs(s, y):
        F, G = y
        return [G, (2 - n) * G - G * G - math.exp(2 * s - p * F) * (beta * G + alpha)]

    def jac(s, y):
        F, G = y
        D = math.exp(2 * s - p * F)
        return [[0.0, 1.0], [p * D * (beta * G + alpha), (2 - n) - 2 * G - D * beta]]

    sol = solve_ivp(rhs, (math.log(xi_sw), math.log(50.0)),
                    [math.log(f_sw), xi_sw * fp_sw / f_sw], method="Radau", jac=jac,
                    rtol=1e-13, atol=1e-14)
    assert sol.success
    errs = []
    for ds in (0.02, 0.01, 0.005):
        [(_, fs, _, _)] = _integrate_tail(pp, n, xi_sw, f_sw, fp_sw, [50.0], ds, tol=1.0, h0=ds,
                                          point=_axes([pp]))
        errs.append(abs(math.log(fs[-1]) - sol.y[0, -1]))
    orders = [math.log2(errs[0] / errs[1]), math.log2(errs[1] / errs[2])]
    assert min(orders) > 2.5, orders


def _minmax_tail(params, n, xi_sw, f_sw, fp_sw, xi_ends, ds, tol, h0, point,
                 constant_start=False):
    """_integrate_tail with its step controller written with builtin min/max
    calls and one stage per call: the reference the lean controller must
    equal bit for bit.  With constant_start, Newton starts every step from
    G1 = G2 = G instead of the slope of the last accepted step."""
    p, alpha, beta = params.p, params.alpha, params.beta
    ds *= min(1.0, 3.0 * beta / alpha)
    two_minus_n = 2.0 - n
    log_floor = math.log(profiles.F_FLOOR)
    a11, a12, a21, a22 = 5.0 / 12.0, -1.0 / 12.0, 0.75, 0.25

    def stage(s_, F_, G_):
        arg = 2.0 * s_ - p * F_
        if F_ < log_floor:
            raise SingularityError(f"profile hit the positivity floor near {point(math.exp(s_))}")
        if arg > 700.0:
            raise SingularityError(
                f"profile tail left the range of doubles near {point(math.exp(s_), math.exp(F_))}: "
                f"xi^2 f^(-p) exceeds e^700 (xi range too long)"
            )
        if F_ > 700.0:
            raise SingularityError(f"profile tail diverged near {point(math.exp(s_))}: "
                                   f"f_1 exceeds e^700")
        D = math.exp(arg)
        bracket = beta * G_ + alpha
        return (two_minus_n * G_ - G_ * G_ - D * bracket,
                two_minus_n - 2.0 * G_ - D * beta,
                p * D * bracket)

    def run(s, F, G, h_next, sigma, counts, s_ends):
        xs, fs, fps, out = [], [], [], []
        accepted, rejected, newton = counts
        s_end, branches = s_ends[-1], s_ends[:-1]
        k = 0
        while True:
            while k < len(branches) and not (s < branches[k] - 1e-14
                                             and min(h_next, ds) < branches[k] - s):
                [(bxs, bfs, bfps, bcounts)] = run(s, F, G, h_next, sigma,
                                                  (accepted, rejected, newton), branches[k:k + 1])
                out.append((xs + bxs, fs + bfs, fps + bfps, bcounts))
                k += 1
            if not s < s_end - 1e-14:
                break
            h = min(h_next, ds, s_end - s)
            if h < 1e-12:
                raise SingularityError(f"tail step underflow near {point(math.exp(s))}")
            s1, s2 = s + h / 3.0, s + h
            if constant_start:
                G1 = G2 = G
            else:
                G1, G2 = G + h * sigma / 3.0, G + h * sigma
            for iteration in range(1, 31):
                F1 = F + h * (a11 * G1 + a12 * G2)
                F2 = F + h * (a21 * G1 + a22 * G2)
                g1, g1G, g1F = stage(s1, F1, G1)
                g2, g2G, g2F = stage(s2, F2, G2)
                r1 = G1 - G - h * (a11 * g1 + a12 * g2)
                r2 = G2 - G - h * (a21 * g1 + a22 * g2)
                hh = h * h
                j11 = 1.0 - h * a11 * g1G - hh * (a11 * g1F * a11 + a12 * g2F * a21)
                j12 = -h * a12 * g2G - hh * (a11 * g1F * a12 + a12 * g2F * a22)
                j21 = -h * a21 * g1G - hh * (a21 * g1F * a11 + a22 * g2F * a21)
                j22 = 1.0 - h * a22 * g2G - hh * (a21 * g1F * a12 + a22 * g2F * a22)
                det = j11 * j22 - j12 * j21
                dG1 = (-r1 * j22 + r2 * j12) / det
                dG2 = (-r2 * j11 + r1 * j21) / det
                G1 += dG1
                G2 += dG2
                if abs(dG1) <= 1e-13 * (1.0 + abs(G1)) and abs(dG2) <= 1e-13 * (1.0 + abs(G2)):
                    break
            else:
                raise SingularityError(
                    f"tail continuation did not converge near {point(math.exp(s2))}"
                )
            newton += iteration
            err = h * abs(0.75 * G1 - 0.25 * G2 - 0.5 * G) / tol
            h_next = h * min(5.0, max(0.2, 0.9 * err ** (-1.0 / 3.0))) if err > 0.0 else 5.0 * h
            if err > 1.0:
                rejected += 1
                continue
            sigma = (G2 - G) / h
            s, F, G = s2, F + h * (a21 * G1 + a22 * G2), G2
            xi = math.exp(s)
            f = math.exp(F)
            xs.append(xi)
            fs.append(f)
            fps.append(G * f / xi)
            accepted += 1
        out.append((xs, fs, fps, (accepted, rejected, newton)))
        return out

    return run(math.log(xi_sw), math.log(f_sw), xi_sw * fp_sw / f_sw, h0, 0.0, (0, 0, 0),
               [math.log(x) for x in xi_ends])


def _family_outcome(p, alpha, amplitudes, n):
    try:
        family = integrate_profile_family(p, alpha, amplitudes, 50.0, n=n)
    except SingularityError as e:
        return str(e)
    return [tuple(getattr(prof, name).tobytes() for name in ("xi", "f", "fp")) for prof in family]


@pytest.mark.parametrize("p, rel, n, amplitudes", [
    (1.5, 0.5, 1, [0.5, 1.0, 2.0]), (1.5, 0.25, 3, [1.0]), (2.0, 0.5, 1, [2.0, 1.0, 0.5]),
    (2.0, 0.25, 2, [1.0]), (3.0, 0.5, 3, [0.5, 1.0, 2.0]), (3.0, 0.25, 1, [1.0, 4.0]),
    (2.0, 0.99, 1, [1.0]), (3.0, 0.95, 2, [0.5, 1.0]), (1.25, 0.98, 1, [1.0, 2.0]),
    (4.0, 0.9, 3, [1.0]), (3.0, 0.3, 1, [1e-120, 1.0]),
])
def test_lean_tail_controller_equals_the_minmax_one_bit_for_bit(monkeypatch, p, rel, n, amplitudes):
    # Steep tails (alpha near 1/p) start off the slow manifold, where the
    # controller rejects and clamps; several amplitudes branch nearer ends off
    # one run; the last cell leaves the range of doubles.
    lean = _family_outcome(p, rel / p, amplitudes, n)
    monkeypatch.setattr(profiles, "_integrate_tail", _minmax_tail)
    assert lean == _family_outcome(p, rel / p, amplitudes, n)


ATLAS = DEFAULTS["profile_atlas"]


@pytest.mark.parametrize("p, rel, A, n", list(itertools.product(
    ATLAS["ps"], ATLAS["alpha_rels"], ATLAS["A_list"], ATLAS["n_list"])))
def test_tail_starts_no_longer_than_the_last_explicit_step(monkeypatch, p, rel, A, n):
    # The tail's first trial step is the last DP45 step in log units, so the
    # first step it keeps is no longer.  A first trial at the cap gave 75
    # rejected tail steps over these 36 profiles, against 24.  The tail runs
    # on f_1, so the switch node it records is f_1's, stretched by A^(p/2).
    starts = []

    def recorded(params, n, xi_sw, *rest, **kwargs):
        starts.append(xi_sw)
        return _integrate_tail(params, n, xi_sw, *rest, **kwargs)

    monkeypatch.setattr(profiles, "_integrate_tail", recorded)
    pp = ProfileParams.self_similar(p, rel / p, A)
    xi = integrate_profile(pp, ATLAS["xi_max"], tol=ATLAS["tol"], n=n).xi
    assert len(starts) == 1
    start = starts[0] * A ** (p / 2.0)
    i = int(np.searchsorted(xi, start))
    assert xi[i] == start
    assert math.log(xi[i + 1] / xi[i]) <= math.log(xi[i] / xi[i - 1]) + 1e-12


ATLAS_FAMILIES = list(itertools.product(ATLAS["ps"], ATLAS["alpha_rels"], ATLAS["n_list"]))


@pytest.fixture(scope="module")
def unit_profiles():
    """f_1 of each atlas (p, alpha, n) family on [0, 50], integrated once."""
    return {(p, rel, n): integrate_profile(ProfileParams.self_similar(p, rel / p, 1.0), 50.0,
                                           tol=ATLAS["tol"], n=n)
            for p, rel, n in ATLAS_FAMILIES}


@pytest.mark.parametrize("A", [0.5, 2.0, 4.0, 1.75, 1e-120, 1e-60, 1e60])
@pytest.mark.parametrize("p, rel, n", ATLAS_FAMILIES)
def test_integration_is_covariant_in_the_amplitude(unit_profiles, p, rel, n, A):
    # f_A(xi) = A f_1(A^(-p/2) xi): f_A on [0, 50 A^(p/2)] is f_1 on [0, 50],
    # rescaled, bit for bit.  Only the last node may round differently, as
    # (50 A^(p/2)) / A^(p/2) need not be 50; it cannot when A^(p/2) is a
    # power of two.
    unit = unit_profiles[(p, rel, n)]
    stretch = A ** (p / 2.0)
    prof = integrate_profile(ProfileParams.self_similar(p, rel / p, A), 50.0 * stretch,
                             tol=ATLAS["tol"], n=n)
    assert len(prof.xi) == len(unit.xi)
    scaled = scale_profile(unit, A)
    nodes = slice(None) if math.frexp(stretch)[0] == 0.5 else slice(-1)
    for name in ("xi", "f", "fp"):
        np.testing.assert_array_equal(getattr(prof, name)[nodes], getattr(scaled, name)[nodes])


def assert_same_profile(prof, ref):
    assert prof.params == ref.params and prof.n == ref.n and prof.meta == ref.meta
    for name in ("xi", "f", "fp"):
        np.testing.assert_array_equal(getattr(prof, name), getattr(ref, name))


def integrate_counted(*args, **kwargs):
    """integrate_profile_family, with the integrate_dp45 and _integrate_tail
    calls it made."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*a, **kw):
            calls[name] += 1
            return fn(*a, **kw)
        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(profiles, "integrate_dp45", counted("dp45", profiles.integrate_dp45))
        mp.setattr(profiles, "_integrate_tail", counted("tail", profiles._integrate_tail))
        family = integrate_profile_family(*args, **kwargs)
    return family, dict(calls)


@pytest.fixture(scope="module")
def atlas_families():
    """Each atlas (p, alpha, n) family at the atlas's A_list, with its calls."""
    return {(p, rel, n): integrate_counted(p, rel / p, ATLAS["A_list"], ATLAS["xi_max"],
                                           tol=ATLAS["tol"], n=n)
            for p, rel, n in ATLAS_FAMILIES}


@pytest.mark.parametrize("p, rel, n", ATLAS_FAMILIES)
def test_atlas_family_integrates_f1_once(atlas_families, p, rel, n):
    # One explicit run and one tail run; the nearer ends branch off the tail.
    assert atlas_families[(p, rel, n)][1] == {"dp45": 1, "tail": 1}


@pytest.mark.parametrize("p, rel, n", ATLAS_FAMILIES)
def test_family_profiles_equal_separate_calls(atlas_families, p, rel, n):
    family, _ = atlas_families[(p, rel, n)]
    assert len(family) == len(ATLAS["A_list"])
    for A, prof in zip(ATLAS["A_list"], family):
        pp = ProfileParams.self_similar(p, rel / p, A)
        assert_same_profile(prof, integrate_profile(pp, ATLAS["xi_max"], tol=ATLAS["tol"], n=n))


TAIL_COUNTS = ("tail_steps", "tail_rejected", "tail_newton")


def tail_counts(prof):
    return tuple(prof.meta[name] for name in TAIL_COUNTS)


def test_tail_newton_takes_about_two_iterations_per_step(atlas_families):
    # Over the f_1 run of each atlas family (its farthest end, A = 0.5) and
    # the sandwich's f_1, Newton started from the constant G1 = G2 = G took
    # 2.59 iterations per attempted step; from the last step's slope it
    # takes 1.98.  Its stopping test asks for a correction below 1e-13, so a
    # step whose start is off by more than that takes at least two.
    far = ATLAS["A_list"].index(min(ATLAS["A_list"]))
    counts = [tail_counts(family[far]) for family, _ in atlas_families.values()]
    counts.append(tail_counts(sandwich_unit_profile()))
    steps, rejected, newton = map(sum, zip(*counts))
    assert newton / (steps + rejected) <= 2.05


def sandwich_unit_profile():
    """f_1 of theorem2000_upper's supersolution: p = 2, gamma = 2, so alpha =
    gamma / (p gamma + 2) = 1/3, n = 3, out to 1.1 R = 110."""
    return integrate_profile(ProfileParams.self_similar(2.0, 1.0 / 3.0, 1.0), 110.0, tol=1e-10, n=3)


def test_sandwich_tail_counts():
    # From the constant start the same steps took 1857 Newton iterations.
    prof = sandwich_unit_profile()
    assert tail_counts(prof) == (698, 1, 1400)


@pytest.mark.parametrize("p, rel, n, amplitudes", [
    *[(p, rel, n, ATLAS["A_list"]) for p, rel, n in ATLAS_FAMILIES],
    (2.0, 0.99, 1, [1.0]), (3.0, 0.95, 2, [1.0]), (1.25, 0.98, 1, [1.0]),
])
def test_slope_start_keeps_the_constant_starts_steps(monkeypatch, p, rel, n, amplitudes):
    # Where Newton starts changes what it converges to by its stopping test
    # alone, so the controller accepts and rejects the same steps, and the
    # profile moves by far less than tol (at most 4e-13 here, on the steep
    # tails).  The last three cells are steep tails, alpha near 1/p.
    args = (p, rel / p, amplitudes, ATLAS["xi_max"])
    family = integrate_profile_family(*args, tol=ATLAS["tol"], n=n)
    monkeypatch.setattr(profiles, "_integrate_tail",
                        functools.partial(_minmax_tail, constant_start=True))
    reference = integrate_profile_family(*args, tol=ATLAS["tol"], n=n)
    for prof, ref in zip(family, reference):
        assert tail_counts(prof)[:2] == tail_counts(ref)[:2] and len(prof.xi) == len(ref.xi)
        xi = np.linspace(0.0, ref.xi_max, 20_000)
        np.testing.assert_allclose(prof.interpolant()(xi), ref.interpolant()(xi),
                                   rtol=1e-11, atol=0.0)


@pytest.mark.parametrize("p, alpha, f_sw, G_sw, h0, message", [
    (2.0, 0.25, 1e-260, -1.0, 0.01, "profile hit the positivity floor near xi=1.00334"),
    # stage 1 stays above the floor, stage 2 (at s = h) falls below it; at
    # p = 1.1 xi^2 f^(-p) stays below e^700 there
    (1.1, 0.2, profiles.F_FLOOR * math.exp(0.6), -100.0, 0.01,
     "profile hit the positivity floor near xi=1.01005"),
    (2.0, 0.25, 1e-155, -1.0, 0.01, "profile tail left the range of doubles near xi=1.00334, "
                                    "f=9.97e-156: xi^2 f^(-p) exceeds e^700 (xi range too long)"),
    (2.0, 0.25, 1e305, -1.0, 0.01, "profile tail diverged near xi=1.00334: f_1 exceeds e^700"),
    (2.0, 0.25, 1.0, 50.0, 0.5, "tail continuation did not converge near xi=1.64872"),
    (2.0, 0.25, 1.0, -1.0, 1e-13, "tail step underflow near xi=1"),
])
def test_tail_guards_name_what_failed_and_where(p, alpha, f_sw, G_sw, h0, message):
    # Crafted switch states at xi = 1, where G = xi f'/f = G_sw: f below the
    # floor, xi^2 f^(-p) or f beyond e^700, a slope far off the manifold that
    # Newton cannot follow over a log step of 0.5, and a step below 1e-12.
    pp = ProfileParams.self_similar(p, alpha, 1.0)
    with pytest.raises(SingularityError, match=re.escape(message) + "$"):
        _integrate_tail(pp, 1, 1.0, f_sw, G_sw * f_sw, [1e3], ds=0.5, tol=1.0, h0=h0,
                        point=_axes([pp]))


def test_an_exactly_singular_tail_newton_matrix_names_the_point():
    # The state of the guard tests' non-converging case, stepped at log steps
    # up to 2: the first trial is rejected, and the Newton iterates of the
    # retry run off until the 2x2 Jacobian's determinant is exactly 0, at the
    # thirteenth iteration.
    pp = ProfileParams.self_similar(2.0, 0.25, 1.0)
    message = "singular tail Newton matrix near xi=3.00152"
    with pytest.raises(SingularityError, match=re.escape(message) + "$"):
        _integrate_tail(pp, 1, 1.0, 1.0, 50.0, [1e3], ds=2.0, tol=1.0, h0=2.0,
                        point=_axes([pp]))


def test_an_end_in_the_explicit_phase_is_integrated_on_its_own():
    # At p = 4, alpha = 0.075, n = 2 the explicit phase of f_1 ends near
    # xi = 6.56; A = 2.9 ends f_1 at 50 / 2.9^2 = 5.95, inside it, and A = 2.5
    # at 8, in the tail.
    family, calls = integrate_counted(4.0, 0.075, [2.9, 1.0, 2.5], 50.0, tol=1e-10, n=2)
    assert calls == {"dp45": 2, "tail": 1}
    for A, prof in zip([2.9, 1.0, 2.5], family):
        pp = ProfileParams.self_similar(4.0, 0.075, A)
        assert_same_profile(prof, integrate_profile(pp, 50.0, n=2))


def test_an_end_within_one_step_cap_of_the_explicit_phase_is_integrated_on_its_own(monkeypatch):
    # An end past the last explicit node, but within the cap of a step before
    # it, could clip that step's trial in a run of its own, so it takes one.
    runs = []

    def recorded(*args, **kwargs):
        runs.append(integrate_dp45(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(profiles, "integrate_dp45", recorded)
    integrate_profile(ProfileParams.self_similar(2.0, 0.25, 1.0), 50.0)
    monkeypatch.undo()
    xs = runs[0][0]
    reach = max(x + profiles.MAX_STEP_FACTOR * max(2.0, x) for x in xs[:-1])  # s0 = 2
    assert xs[-1] < reach
    A = 50.0 / (0.5 * (xs[-1] + reach))  # A^(p/2) = A at p = 2
    family, calls = integrate_counted(2.0, 0.25, [1.0, A], 50.0)
    assert calls == {"dp45": 2, "tail": 2}
    pp = ProfileParams.self_similar(2.0, 0.25, A)
    assert_same_profile(family[1], integrate_profile(pp, 50.0))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(p=st.floats(1.0, 4.0, exclude_min=True),
       alpha_p=st.floats(0.05, 0.95, exclude_min=True, exclude_max=True),
       n=st.integers(1, 3), others=st.lists(st.floats(0.25, 8.0), max_size=3),
       where=st.integers(0, 3), repeat=st.booleans())
def test_family_profiles_equal_separate_calls_for_random_families(p, alpha_p, n, others, where,
                                                                  repeat):
    # 1-5 amplitudes, one of them 1; with `repeat` the first comes twice.
    # The larger A end f_1 at 20 / A^(p/2), often inside the explicit phase.
    amplitudes = others[:where] + [1.0] + others[where:]
    amplitudes += amplitudes[:1] * repeat
    family = integrate_profile_family(p, alpha_p / p, amplitudes, 20.0, n=n)
    assert len(family) == len(amplitudes)
    for A, prof in zip(amplitudes, family):
        assert_same_profile(prof, integrate_profile(ProfileParams.self_similar(p, alpha_p / p, A),
                                                    20.0, n=n))


def test_family_errors_name_points_on_the_axes_of_f_1():
    # One amplitude: the point on f_A's axes (see the CLI test); several:
    # the point of the f_1 run, said to be on f_1's axes.
    with pytest.raises(SingularityError, match=re.escape(
            "near xi=2.46189e+106, f=3.89e-31 on f_1's axes: xi^2 f^(-p) exceeds e^700")):
        integrate_profile_family(3.0, 0.1, [1e-120, 1.0], 50.0)
    with pytest.raises(SingularityError, match=re.escape("near xi=2.46189e-74, f=3.89e-151: ")):
        integrate_profile_family(3.0, 0.1, [1e-120, 1e-120], 50.0)


def test_empty_family():
    assert integrate_profile_family(2.0, 0.25, [], 50.0) == []


def test_scale_profile_rescales_nodes_and_keeps_the_equation(unit_profiles):
    unit = unit_profiles[(3.0, 0.5, 3)]
    prof = scale_profile(unit, 4.0)  # A^(p/2) = 8
    assert prof.params == ProfileParams.self_similar(3.0, 0.5 / 3.0, 4.0)
    assert prof.n == 3 and prof.meta["scaled_from"] == 1.0
    np.testing.assert_array_equal(prof.xi, unit.xi * 8.0)
    np.testing.assert_array_equal(prof.f, unit.f * 4.0)
    np.testing.assert_array_equal(prof.fp, unit.fp * 0.5)
    assert prof.f[0] == 4.0 and prof.fp[0] == 0.0
    _check_profile_invariants(prof)


def test_scale_profile_rejects_bad_input(unit_profiles):
    unit = unit_profiles[(3.0, 0.5, 3)]
    with pytest.raises(DomainError):
        scale_profile(scale_profile(unit, 2.0), 2.0)
    for A in (0.0, -1.0, math.nan, 1e300, 1e-300):  # p = 3: A^(p/2) overflows, underflows
        with pytest.raises(DomainError):
            scale_profile(unit, A)


def test_interpolant_is_built_once_and_equals_a_fresh_spline(unit_profiles):
    unit = unit_profiles[(3.0, 0.5, 3)]
    spline = unit.interpolant()
    assert unit.interpolant() is spline
    fresh = CubicHermiteSpline(unit.xi, unit.f, unit.fp, extrapolate=False)
    pts = np.linspace(0.0, unit.xi_max, 1001)
    np.testing.assert_array_equal(spline(pts), fresh(pts))
    np.testing.assert_array_equal(spline.c, fresh.c)


def test_rescaled_and_replaced_profiles_build_their_own_spline(unit_profiles):
    unit = unit_profiles[(2.0, 0.5, 1)]
    spline = unit.interpolant()
    scaled = scale_profile(unit, 2.0)
    replaced = replace(unit, f=2.0 * unit.f, fp=2.0 * unit.fp)
    for prof in (scaled, replaced):
        own = prof.interpolant()
        assert own is not spline and prof.interpolant() is own
        np.testing.assert_array_equal(own.x, prof.xi)
    assert unit.interpolant() is spline
    assert "_spline" not in repr(unit)


class TestMonotoneInterpolantCertificate:
    pp = ProfileParams.self_similar(2.0, 0.25, 1.0)

    def test_accepts_exact_power_law_slopes(self):
        xi = np.geomspace(1.0, 1e3, 200)
        prof = Profile(params=self.pp, n=1, xi=xi, f=xi**-1.5, fp=-1.5 * xi**-2.5)
        assert first_nonmonotone_interval(prof.xi, prof.f, prof.fp) == -1
        _check_profile_invariants(prof)

    def test_rejects_steep_node_slope(self):
        # Interval [0, 1]: d = -0.5, a = 0, b = 10, so a^2 + b^2 = 100 > 9 and the
        # Hermite cubic undershoots f(1) before reaching it.
        prof = Profile(params=self.pp, n=1, xi=np.array([0.0, 1.0, 2.0]),
                       f=np.array([1.0, 0.5, 0.25]), fp=np.array([0.0, -5.0, -0.25]))
        assert np.any(np.diff(prof.interpolant()(np.linspace(0.0, 2.0, 201))) > 0.0)
        assert first_nonmonotone_interval(prof.xi, prof.f, prof.fp) == 0
        with pytest.raises(SingularityError, match=r"not monotone on \[0, 1\]"):
            _check_profile_invariants(prof)

    def test_rejects_slope_against_the_data(self):
        # fp(1) is positive but inside the 1e-10*A allowance of the sign check;
        # on a decreasing interval it still gives b < 0.
        prof = Profile(params=self.pp, n=1, xi=np.array([0.0, 1.0, 2.0]),
                       f=np.array([1.0, 0.5, 0.25]), fp=np.array([0.0, 1e-11, -0.25]))
        assert first_nonmonotone_interval(prof.xi, prof.f, prof.fp) == 0
        with pytest.raises(SingularityError, match=r"not monotone on \[0, 1\]"):
            _check_profile_invariants(prof)

    def test_reports_the_first_bad_interval(self):
        # Only [2, 3] fails: a = 0 and b = -4 / -1 = 4 there.
        x = np.array([0.0, 1.0, 2.0, 3.0])
        y = np.array([3.0, 2.0, 1.0, 0.0])
        assert first_nonmonotone_interval(x, y, np.array([-1.0, -1.0, 0.0, -4.0])) == 2
        assert first_nonmonotone_interval(x, y, np.array([-1.0, -1.0, 0.0, -2.0])) == -1


@pytest.mark.parametrize("p, rel", [
    pytest.param(1.1, 0.8, id="1.1"),
    pytest.param(1.5, 0.8, id="1.5"),
    pytest.param(2.0, 0.8, id="2.0"),
    pytest.param(1.5, 0.9, id="1.5-rel0.9"),
    pytest.param(2.0, 0.9, id="2.0-rel0.9"),
    pytest.param(3.0, 0.9, id="3.0-rel0.9"),
])
def test_steep_profile_meets_identity_bound(p, rel):
    # alpha = rel/p near 1/p: the tail starts before G has relaxed onto its
    # slow manifold, so the tail steps there must be held to tol (at a fixed
    # log step of 0.02 the residual is 1e-4 at p = 1.5, rel = 0.8).  At
    # rel = 0.9 the tail decays like xi^-(alpha/beta) with alpha/beta = 18/p,
    # up to 12, and its log step must shrink with that slope.
    pp = ProfileParams.self_similar(p, rel / p, 1.0)
    prof = integrate_profile(pp, 50.0, n=1)
    assert check_integral_identity(prof) < 1e-6  # criterion 1's bound


def test_singularity_error_for_unsustainable_regime():
    # alpha near 1/p: the tail f ~ xi^(-alpha/beta) = xi^(-98) falls so fast
    # that near xi = 1784, short of xi_max, xi^2 f^(-p) leaves the doubles;
    # f is about 1e-149 there, still above the positivity floor.
    pp = ProfileParams.self_similar(2.0, 0.49, 1.0)
    with pytest.raises(SingularityError, match=r"tail left the range of doubles near xi=1783\.93"):
        integrate_profile(pp, 1e4, tol=1e-8, n=1)


class TestIntegralIdentity:
    def test_residual_small_for_integrated_profile(self):
        pp = ProfileParams.self_similar(2.0, 0.25, 1.0)
        prof = integrate_profile(pp, 50.0, tol=1e-10, n=1)
        assert check_integral_identity(prof) < 1e-6

    def test_refinement_rate_at_least_two(self, monkeypatch):
        pp = ProfileParams.self_similar(2.0, 0.25, 1.0)
        res = []
        # Coarse caps: below 4e-3 the fourth-order quadrature error meets the
        # DP45 tol floor and the observed rate flattens.
        for msf in (1.6e-2, 8e-3, 4e-3):
            monkeypatch.setattr(profiles, "MAX_STEP_FACTOR", msf)
            prof = integrate_profile(pp, 50.0, tol=1e-11, n=3)
            res.append(check_integral_identity(prof))
        rate1 = math.log2(res[0] / res[1])
        rate2 = math.log2(res[1] / res[2])
        assert rate1 > 1.8 and rate2 > 1.8

    def test_detects_perturbed_profile(self):
        pp = ProfileParams.self_similar(2.0, 0.25, 1.0)
        prof = integrate_profile(pp, 50.0, tol=1e-10, n=1)
        f_bad = prof.f.copy()
        half = len(f_bad) // 2
        f_bad[half:] *= 1.01
        bad = Profile(params=pp, n=1, xi=prof.xi, f=f_bad, fp=prof.fp)
        assert check_integral_identity(bad) > 1e-3


class TestTailFit:
    @pytest.mark.parametrize("alpha,expected", [(0.25, -1.0), (0.4, -4.0)])
    def test_slope_matches_exponent(self, alpha, expected):
        pp = ProfileParams.self_similar(2.0, alpha, 1.0)
        prof = integrate_profile(pp, 1.05e4, tol=1e-10, n=1)
        slope, stderr = fit_tail_exponent(prof, (100.0, 1e4))
        assert slope == pytest.approx(expected, rel=0.02)
        assert stderr < 0.01

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("alpha_sel", ["0.1", "0.25", "0.8/p"])
    def test_slope_within_two_percent_across_regimes(self, p, alpha_sel):
        alpha = 0.8 / p if alpha_sel == "0.8/p" else float(alpha_sel)
        pp = ProfileParams.self_similar(p, alpha, 1.0)
        prof = integrate_profile(pp, 1.05e4, tol=1e-10, n=1)
        slope, _ = fit_tail_exponent(prof, (100.0, 1e4))
        assert abs(slope + pp.tail_exponent) / pp.tail_exponent < 0.02

    def test_pure_power_law_is_exact(self):
        pp = ProfileParams.self_similar(2.0, 0.25, 1.0)
        xi = np.geomspace(1.0, 1e4, 400)
        gamma = 1.7
        prof = Profile(params=pp, n=1, xi=xi, f=xi**-gamma, fp=-gamma * xi ** (-gamma - 1))
        slope, _ = fit_tail_exponent(prof, (100.0, 1e4))
        assert slope == pytest.approx(-gamma, abs=1e-12)

    def test_window_errors(self):
        pp = ProfileParams.self_similar(2.0, 0.25, 1.0)
        prof = integrate_profile(pp, 500.0, tol=1e-10, n=1)
        with pytest.raises(WindowError):
            fit_tail_exponent(prof, (10.0, 400.0))  # under two decades
        with pytest.raises(WindowError):
            fit_tail_exponent(prof, (10.0, 5000.0))  # beyond the grid


class TestTailBounds:
    def test_envelope_is_positive_and_ordered(self):
        pp = ProfileParams.self_similar(1.5, 0.2, 1.0)
        prof = integrate_profile(pp, 1.05e4, tol=1e-10, n=1)
        tb = certify_tail_bounds(prof, (1.0, 1e4))
        assert 0.0 < tb.lower_const <= tb.upper_const < math.inf
        assert tb.exponent == pytest.approx(pp.tail_exponent)

    def test_constant_profile_detector(self):
        # f = A constant, alpha/beta = 1: c ~ A*(1+xi_lo), C ~ A*(1+xi_hi)
        pp = ProfileParams.self_similar(2.0, 0.25, 1.0)
        xi = np.linspace(0.0, 1000.0, 2001)
        prof = Profile(params=pp, n=1, xi=xi, f=np.full_like(xi, 1.0), fp=np.zeros_like(xi))
        tb = certify_tail_bounds(prof, (100.0, 1000.0))
        assert tb.lower_const == pytest.approx(101.0)
        assert tb.upper_const == pytest.approx(1001.0)

    @pytest.mark.parametrize("window, why", [
        ((-1.0, 10.0), "outside"), ((10.0, 2000.0), "outside"), ((100.1, 100.2), "empty"),
    ])
    def test_window_errors(self, window, why):
        pp = ProfileParams.self_similar(2.0, 0.25, 1.0)
        xi = np.linspace(0.0, 1000.0, 2001)
        prof = Profile(params=pp, n=1, xi=xi, f=np.full_like(xi, 1.0), fp=np.zeros_like(xi))
        with pytest.raises(WindowError, match=why):
            certify_tail_bounds(prof, window)

    def test_lower_const_nondecreasing_in_A(self):
        consts = []
        for A in (0.5, 1.0, 2.0):
            pp = ProfileParams.self_similar(2.0, 0.25, A)
            prof = integrate_profile(pp, 1.05e4, tol=1e-10, n=1)
            consts.append(certify_tail_bounds(prof, (100.0, 1e4)).lower_const)
        assert consts[0] <= consts[1] <= consts[2]

    def test_tailbound_invariants(self):
        with pytest.raises(DomainError):
            TailBound(lower_const=2.0, upper_const=1.0, exponent=1.0, window=(1.0, 10.0))
        with pytest.raises(DomainError):
            TailBound(lower_const=1.0, upper_const=2.0, exponent=-1.0, window=(1.0, 10.0))


@pytest.fixture(scope="module")
def prof():
    pp = ProfileParams.self_similar(2.0, 0.25, 1.0)
    return pp, integrate_profile(pp, 120.0, tol=1e-10, n=1)


class TestEvalSelfSimilar:
    def test_t_equals_one_reduces_to_profile(self, prof):
        pp, profile = prof
        assert eval_self_similar(pp, profile, 3.0, 1.0) == pytest.approx(
            float(profile.interpolant()(3.0)), rel=1e-14
        )

    def test_center_decay(self, prof):
        pp, profile = prof
        for t in (0.5, 1.0, 4.0, 30.0):
            assert eval_self_similar(pp, profile, 0.0, t) == pytest.approx(
                pp.A * t**-pp.alpha, rel=1e-12
            )

    def test_two_point_scaling_relation(self, prof):
        # u(x, t) = lam^-alpha * u(lam^-beta x, t/lam)
        pp, profile = prof
        lam = 2.7
        lhs = eval_self_similar(pp, profile, 5.0, 2.0)
        rhs = lam**-pp.alpha * eval_self_similar(pp, profile, lam**-pp.beta * 5.0, 2.0 / lam)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_range_error(self, prof):
        pp, profile = prof
        with pytest.raises(RangeError):
            eval_self_similar(pp, profile, 500.0, 1.0)
        with pytest.raises(DomainError):
            eval_self_similar(pp, profile, 1.0, 0.0)


class TestSelfSimilarResidual:
    points = [(r, t) for r in (0.5, 2.0, 8.0, 20.0) for t in (1.0, 2.0, 5.0)]

    @pytest.mark.parametrize("n", [1, 3])
    def test_integrated_profile_residual(self, n):
        pp = ProfileParams.self_similar(2.0, 0.25, 1.0)
        prof = integrate_profile(pp, 120.0, tol=1e-10, n=n)
        assert self_similar_residual(pp, prof, self.points) < 1e-4

    def test_wrong_beta_detector(self):
        # the alpha = 0.3 profile read with the exponents of alpha = 0.25
        pp = ProfileParams.self_similar(2.0, 0.25, 1.0)
        other = ProfileParams.self_similar(2.0, 0.3, 1.0)
        prof = integrate_profile(other, 120.0, tol=1e-10, n=1)
        assert self_similar_residual(other, prof, self.points) < 1e-4
        assert self_similar_residual(pp, prof, self.points) > 1e-2


def test_save_profile_writes_the_nodes_and_the_sidecar(tmp_path):
    pp = ProfileParams.self_similar(2.0, 0.25, 1.0)
    prof = integrate_profile(pp, 10.0, tol=1e-10, n=3)
    csv = tmp_path / "profile.csv"
    save_profile(prof, csv)
    rows = "".join(f"{x:.17g},{f:.17g},{fp:.17g}\n" for x, f, fp in zip(prof.xi, prof.f, prof.fp))
    assert csv.read_bytes() == ("xi,f,fp\n" + rows).encode()
    sidecar = json.loads((tmp_path / "profile.json").read_text())
    assert (sidecar["p"], sidecar["alpha"], sidecar["A"], sidecar["n"]) == (pp.p, pp.alpha, pp.A, 3)
    assert sidecar["beta"] == pp.beta and "self_similar" not in sidecar
    assert sidecar["solver"] == prof.meta and set(TAIL_COUNTS) <= set(prof.meta)


def test_cosine_minorant_defect_for_small_A():
    # The uniform-in-A cosine minorant fails for A < 1 (the exact rescaling
    # f_A(xi) = A f_1(A^{-p/2} xi) compresses the plateau); keep the defect
    # visible: A = 0.5, p = 2, n = 1 violates f >= A cos(sqrt(alpha) xi).
    pp = ProfileParams.self_similar(2.0, 0.25, 0.5)
    prof = integrate_profile(pp, 10.0, tol=1e-10, n=1)
    lim = math.pi / (2.0 * math.sqrt(pp.alpha))
    m = prof.xi < lim
    margin = np.min(prof.f[m] - pp.A * np.cos(math.sqrt(pp.alpha) * prof.xi[m]))
    assert margin < -1e-3
