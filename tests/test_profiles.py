"""Tests for the self-similar profile solver.

The independent oracle for the integration route is scipy's Radau solver on
the same ODE; the package's own path is the hybrid DP45 + implicit-tail
stepper, so agreement is a genuine cross-check of two different methods.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

from diffusionlab.errors import DomainError, RangeError, SingularityError, WindowError
from diffusionlab.profiles import (
    Profile,
    ProfileParams,
    TailBound,
    certify_tail_bounds,
    check_integral_identity,
    eval_self_similar,
    fit_tail_exponent,
    integrate_profile,
    load_profile,
    save_profile,
    self_similar_residual,
    taylor_start,
)


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


class TestProfileParams:
    def test_self_similar_beta(self):
        pp = ProfileParams.self_similar(2.0, 0.25, 1.0)
        assert pp.beta == (1.0 - 2.0 * 0.25) / 2.0
        assert pp.is_self_similar
        assert pp.tail_exponent == pytest.approx(1.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(DomainError):
            ProfileParams(p=0.5, alpha=0.1, beta=0.1, A=1.0)
        with pytest.raises(DomainError):
            ProfileParams(p=2.0, alpha=-0.1, beta=0.1, A=1.0)
        with pytest.raises(DomainError):
            ProfileParams(p=2.0, alpha=0.1, beta=0.1, A=0.0)
        with pytest.raises(DomainError):
            ProfileParams.self_similar(2.0, 0.6, 1.0)  # alpha >= 1/p
        with pytest.raises(DomainError):
            ProfileParams.self_similar(1.0, 0.25, 1.0)  # needs p > 1


class TestTaylorStart:
    def test_series_coefficient_p2(self):
        # c = -alpha A^(1-p) / (2n): p=2, alpha=0.25, A=1, n=1 -> c = -0.125
        pp = ProfileParams.self_similar(2.0, 0.25, 1.0)
        f, fp = taylor_start(pp, 0.01, n=1)
        assert f == pytest.approx(0.9999875, abs=1e-12)
        assert fp == pytest.approx(-0.0025, abs=1e-12)

    def test_series_coefficient_p1(self):
        # p=1, alpha=1, A=2, n=3 -> c = -1/6
        pp = ProfileParams(p=1.0, alpha=1.0, beta=0.5, A=2.0)
        f, fp = taylor_start(pp, 0.01, n=3)
        assert f == pytest.approx(2.0 - 1e-4 / 6.0, rel=1e-14)

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


def test_singularity_error_for_unsustainable_regime():
    # beta < 0 is rejected at the type level; instead drive f to zero with a
    # huge alpha/beta ratio at tiny A, which exhausts the positivity guard.
    pp = ProfileParams(p=2.0, alpha=50.0, beta=1e-4, A=1e-4)
    with pytest.raises(SingularityError):
        integrate_profile(pp, 1e4, tol=1e-8, n=1)


class TestIntegralIdentity:
    def test_residual_small_for_integrated_profile(self):
        pp = ProfileParams.self_similar(2.0, 0.25, 1.0)
        prof = integrate_profile(pp, 50.0, tol=1e-10, n=1)
        assert check_integral_identity(prof) < 1e-6

    def test_refinement_rate_at_least_two(self):
        pp = ProfileParams.self_similar(2.0, 0.25, 1.0)
        res = []
        # Coarse caps: below 4e-3 the fourth-order quadrature error meets the
        # DP45 tol floor and the observed rate flattens.
        for msf in (1.6e-2, 8e-3, 4e-3):
            prof = integrate_profile(pp, 50.0, tol=1e-11, n=3, max_step_factor=msf)
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

    def test_rejects_p_equal_one(self):
        pp = ProfileParams(p=1.0, alpha=0.25, beta=0.25, A=1.0)
        prof = integrate_profile(pp, 10.0, tol=1e-10, n=1)
        with pytest.raises(DomainError):
            check_integral_identity(prof)


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

    def test_lower_const_nondecreasing_in_A(self):
        consts = []
        for A in (0.5, 1.0, 2.0):
            pp = ProfileParams.self_similar(2.0, 0.25, A)
            prof = integrate_profile(pp, 1.05e4, tol=1e-10, n=1)
            consts.append(certify_tail_bounds(prof, (100.0, 1e4)).lower_const)
        assert consts[0] <= consts[1] <= consts[2]

    def test_requires_self_similar_mode(self):
        pp = ProfileParams(p=2.0, alpha=0.25, beta=0.3, A=1.0)
        prof = integrate_profile(pp, 200.0, tol=1e-10, n=1)
        with pytest.raises(DomainError):
            certify_tail_bounds(prof, (1.0, 100.0))

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
        pp = ProfileParams.self_similar(2.0, 0.25, 1.0)
        bad = ProfileParams(p=2.0, alpha=0.25, beta=pp.beta + 0.05, A=1.0)
        badprof = integrate_profile(bad, 120.0, tol=1e-10, n=1)
        assert self_similar_residual(bad, badprof, self.points) > 1e-2


def test_csv_roundtrip(tmp_path):
    pp = ProfileParams.self_similar(2.0, 0.25, 1.0)
    prof = integrate_profile(pp, 10.0, tol=1e-10, n=3)
    csv = tmp_path / "profile.csv"
    save_profile(prof, csv)
    back = load_profile(csv)
    assert back.n == 3
    assert back.params == pp
    np.testing.assert_array_equal(back.xi, prof.xi)
    np.testing.assert_array_equal(back.f, prof.f)
    np.testing.assert_array_equal(back.fp, prof.fp)
    assert (tmp_path / "profile.json").exists()


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
