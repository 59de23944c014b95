"""Tests for the closed-form exponents, heat polynomials, and decay fitting."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diffusionlab.errors import DomainError, WindowError
from diffusionlab.rates import (
    INF,
    exponent_roundtrip,
    fit_decay,
    heat_poly_residual,
    heat_polynomial,
    heat_random_rationals,
    rate_gamma,
    rate_lq,
    rate_nu,
    vartheta,
)


class TestRateLq:
    def test_arithmetic_cases(self):
        assert rate_lq(2.0, 1, 1.0, 2.0) == pytest.approx(0.125, abs=1e-15)
        assert rate_lq(2.0, 2, 1.0, INF) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_vanishes_as_q_approaches_q0(self):
        assert rate_lq(2.0, 1, 1.0, 1.0 + 1e-9) < 1e-9

    def test_infinite_q_is_exactly_nu(self):
        for p in (1.0, 1.5, 2.0, 3.0):
            for n in (1, 2, 3):
                for q0 in (0.25, 1.0, 3.0):
                    assert rate_lq(p, n, q0, INF) == rate_nu(p, n, q0)

    def test_increasing_in_q(self):
        qs = [1.5, 2.0, 4.0, 16.0, INF]
        rates = [rate_lq(2.0, 1, 1.0, q) for q in qs]
        assert all(a < b for a, b in zip(rates, rates[1:]))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            rate_lq(2.0, 1, 1.0, 1.0)
        with pytest.raises(DomainError):
            rate_lq(2.0, 1, 0.0, 2.0)


class TestNuAndFast:
    def test_values(self):
        assert rate_nu(2.0, 1, 1.0) == pytest.approx(0.25, abs=1e-16)
        assert rate_nu(1.0, 3, 3.0) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_nu_below_fast_rate(self):
        for p in (1.0, 2.0, 5.0):
            for n in (1, 2, 3):
                for q0 in (0.1, 1.0, 10.0):
                    assert rate_nu(p, n, q0) < 1.0 / p

    def test_limit_small_q0(self):
        assert rate_nu(2.0, 1, 1e-12) == pytest.approx(1.0 / 2.0, rel=1e-10)

    def test_nu_domain_error(self):
        with pytest.raises(DomainError):
            rate_nu(2.0, 1, 0.0)


class TestRateGamma:
    def test_arithmetic_cases(self):
        assert rate_gamma(2.0, 1, 2.0, INF) == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert rate_gamma(2.0, 1, 2.0, 1.0) == pytest.approx(1.0 / 6.0, abs=1e-15)

    def test_large_gamma_limit_matches_fast_rate(self):
        assert rate_gamma(2.0, 1, 1e12, INF) == pytest.approx(1.0 / 2.0, rel=1e-10)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            rate_gamma(2.0, 1, 2.0, 0.5)  # q <= n/gamma
        with pytest.raises(DomainError):
            rate_gamma(2.0, 1, 0.0, INF)


class TestVartheta:
    def test_value(self):
        assert vartheta(2.0, -1.0) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_monotone_in_both_variables(self):
        thetas = np.linspace(0.1, 10.0, 20)
        ms = np.linspace(-40.0, -0.05, 20)
        for m in ms:
            vals = [vartheta(th, m) for th in thetas]
            assert all(a < b for a, b in zip(vals, vals[1:]))
        for th in thetas:
            vals = [vartheta(th, m) for m in ms]  # ms ascending toward 0
            assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_bounds(self):
        for th in np.linspace(0.1, 50.0, 20):
            for m in np.linspace(-60.0, -0.01, 20):
                v = vartheta(th, m)
                assert 0.0 < v < 1.0
                assert v < 1.0 / (1.0 - m)

    def test_limit_m_to_minus_infinity(self):
        assert vartheta(2.0, -1e9) < 1e-8

    def test_roundtrip_residual(self):
        for th in (0.5, 2.0, 7.0):
            for m in (-0.5, -1.0, -4.0):
                assert exponent_roundtrip(th, m) < 1e-15

    def test_domain_error(self):
        with pytest.raises(DomainError):
            vartheta(2.0, 0.5)
        with pytest.raises(DomainError):
            vartheta(0.0, -1.0)
        with pytest.raises(DomainError):
            exponent_roundtrip(2.0, 0.0)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    p=st.floats(1.0, 10.0),
    n=st.integers(1, 5),
    q0=st.floats(0.05, 20.0),
    q_steps=st.tuples(st.floats(0.01, 100.0), st.floats(0.01, 100.0)),
    gamma=st.floats(0.05, 50.0),
    q_rel=st.floats(1.01, 1e4),
    theta=st.floats(0.01, 1e3),
    m=st.floats(-100.0, -0.01),
)
def test_closed_form_exponent_identities(p, n, q0, q_steps, gamma, q_rel, theta, m):
    nu = rate_nu(p, n, q0)
    assert rate_lq(p, n, q0, INF) == nu
    # q0 < q1 < q2 < inf: the L^q rate increases in q toward nu
    q1 = q0 * (1.0 + q_steps[0])
    q2 = q1 * (1.0 + q_steps[1])
    assert 0.0 < rate_lq(p, n, q0, q1) < rate_lq(p, n, q0, q2) < nu
    # every finite q > n/gamma decays slower than the sup norm
    assert rate_gamma(p, n, gamma, q_rel * n / gamma) < rate_gamma(p, n, gamma, INF)
    assert 0.0 < vartheta(theta, m) < 1.0 / (1.0 - m)
    assert exponent_roundtrip(theta, m) < 1e-15


class TestHeatPolynomials:
    def test_h2(self):
        # H_2 = x^2 + 2t
        assert heat_polynomial(2, 3.0, 1.0) == pytest.approx(11.0)
        assert heat_polynomial(2, Fraction(3), Fraction(1)) == 11
        assert heat_polynomial(2, 0.0, 5.0) == pytest.approx(10.0)

    def test_h4(self):
        # H_4 = x^4 + 12 x^2 t + 12 t^2; inf at t=1 is 12
        x, t = Fraction(2), Fraction(3)
        assert heat_polynomial(4, x, t) == 2**4 + 12 * 4 * 3 + 12 * 9
        assert heat_polynomial(4, 0, 1) == 12

    @pytest.mark.parametrize("k", [2, 4, 6, 8])
    def test_inf_coefficient_exact(self, k):
        # the value at x = 0 is k!/(k/2)! t^(k/2), and no rational x is lower
        coeff = math.factorial(k) // math.factorial(k // 2)
        for t in (1, Fraction(7, 3)):
            at_zero = heat_polynomial(k, 0, t)
            assert at_zero == coeff * t ** (k // 2)
            for x, _ in heat_random_rationals(k, count=100, seed=k):
                assert heat_polynomial(k, x, t) >= at_zero

    @pytest.mark.parametrize("k", [2, 4, 6, 8])
    def test_residual_zero_at_random_rationals(self, k):
        for x, t in heat_random_rationals(k, count=100, seed=k):
            assert heat_poly_residual(k, x, t) == 0

    def test_rejects_odd_k(self):
        with pytest.raises(DomainError):
            heat_polynomial(3, 1.0, 1.0)
        with pytest.raises(DomainError):
            heat_polynomial(0, 1.0, 1.0)


class TestFitDecay:
    def test_exact_power_law(self):
        t = np.geomspace(1.0, 1e4, 60)
        fit = fit_decay(t, 5.0 * t**-0.3, (1.0, 1e4), norm_id="linf")
        assert fit.slope == pytest.approx(-0.3, abs=1e-12)
        assert fit.stderr < 1e-12

    def test_power_law_with_transient(self):
        t = np.geomspace(1e2, 1e4, 80)
        v = t**-0.3 * (1.0 + 0.1 / np.sqrt(t))
        fit = fit_decay(t, v, (1e2, 1e4))
        assert fit.slope == pytest.approx(-0.3, abs=0.005)

    def test_window_errors(self):
        t = np.geomspace(1.0, 1e4, 50)
        v = t**-1.0
        with pytest.raises(WindowError):
            fit_decay(t, v, (1.0, 50.0))  # narrow
        with pytest.raises(WindowError):
            fit_decay(t[:5], v[:5], (1.0, 1e4))  # sparse
        with pytest.raises(WindowError):
            fit_decay(t, np.where(t > 100.0, 0.0, v), (1.0, 1e4))  # not positive

    def test_a_nan_inside_the_window_is_refused(self):
        t = np.geomspace(1.0, 1e4, 50)
        v = np.where(t == t[20], math.nan, t**-1.0)
        with pytest.raises(WindowError, match="standard error is not finite"):
            fit_decay(t, v, (1.0, 1e4))
