"""Tests for the steady Dirichlet profile solver."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diffusionlab import steady
from diffusionlab.errors import DomainError, NoCrossingError
from diffusionlab.steady import (
    scale_profile,
    shoot_profile_for_radius,
    shoot_unit_profile,
    steady_residual,
    save_steady,
    verify_scaling_law,
)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_p1_closed_form(n):
    # For p = 1 the equation is -Lap(w) = 1; the unit-ball solution is
    # (1 - r^2)/(2n).
    unit = shoot_unit_profile(1.0, n)
    exact = (1.0 - unit.r**2) / (2 * n)
    assert unit.center_value == pytest.approx(1.0 / (2 * n), abs=1e-12)
    assert np.max(np.abs(unit.w - exact)) < 1e-12


def test_p2_profile_is_positive_concave_with_small_residual():
    unit = shoot_unit_profile(2.0, 1)
    assert unit.w[:-1].min() > 0.0
    assert unit.w[-1] == 0.0
    assert np.all(np.diff(unit.w) <= 1e-14)  # nonincreasing
    assert steady_residual(unit) < 1e-8


def test_boundary_value_within_tolerance():
    for p, n in [(1.0, 2), (2.0, 1), (3.0, 3)]:
        unit = shoot_unit_profile(p, n)
        assert abs(unit.w[-1]) <= 1e-8 * unit.center_value


def test_center_concavity_matches_series():
    # w''(0) = -(1/(n p)) b^(1-p) from the equation at the center
    for p, n in [(2.0, 1), (1.5, 3), (3.0, 2)]:
        unit = shoot_unit_profile(p, n)
        b = unit.center_value
        wpp0 = 2.0 * (unit.w[2] - b) / unit.r[2] ** 2
        assert wpp0 == pytest.approx(-(b ** (1.0 - p)) / (n * p), rel=1e-3)
        assert wpp0 < 0.0


class TestScaleProfile:
    def test_identity_at_R_one(self):
        unit = shoot_unit_profile(2.0, 1)
        same = scale_profile(unit, 1.0)
        np.testing.assert_array_equal(same.w, unit.w)
        np.testing.assert_array_equal(same.r, unit.r)

    def test_p1_center_value_closed_form(self):
        # p=1, n=1, R=2: center = R^2 * 0.5 = 2.0 = (R^2 - 0)/2
        unit = shoot_unit_profile(1.0, 1)
        scaled = scale_profile(unit, 2.0)
        assert scaled.center_value == pytest.approx(2.0, rel=1e-12)

    def test_round_trip_bitwise(self):
        unit = shoot_unit_profile(2.0, 2)
        there = scale_profile(unit, 7.3)
        back = scale_profile(
            type(unit)(p=there.p, n=there.n, R=1.0, r=there.r / 7.3,
                       w=there.w * 7.3 ** (-2.0 / there.p),
                       wp=there.wp * 7.3 ** (1.0 - 2.0 / there.p)),
            1.0,
        )
        assert np.max(np.abs(back.w - unit.w)) <= 2 * np.finfo(float).eps * unit.center_value

    def test_rejects_non_unit_input(self):
        unit = shoot_unit_profile(1.0, 1)
        scaled = scale_profile(unit, 2.0)
        with pytest.raises(DomainError):
            scale_profile(scaled, 4.0)


class TestVerifyScalingLaw:
    def test_p1_closed_form_family(self):
        assert verify_scaling_law(1.0, 1, [0.5, 2.0, 10.0]) < 1e-6

    def test_p2_numerical_family(self):
        assert verify_scaling_law(2.0, 2, [1.0, 4.0]) < 1e-5

    def test_single_unit_radius_is_exact(self):
        assert verify_scaling_law(2.0, 1, [1.0]) == 0.0

    def test_rejects_empty_list(self):
        with pytest.raises(DomainError):
            verify_scaling_law(2.0, 1, [])


def test_center_value_scaling_exponent():
    # log w_R(0) = (2/p) log R + const across independently re-shot profiles
    p, n = 2.0, 1
    radii = np.array([0.5, 1.0, 2.0, 4.0])
    centers = np.array(
        [shoot_profile_for_radius(p, n, R).center_value for R in radii]
    )
    slope = np.polyfit(np.log(radii), np.log(centers), 1)[0]
    assert slope == pytest.approx(2.0 / p, abs=1e-6)


# Each p is re-shot over R from 0.05 to 100.  The bracket doubles or halves b
# from 1, one shot per factor 2, and Brent adds 1-2 shots, so the shot bound
# holds while b* stays within about 2^(+-12) of 1.
RESHOOT_GRID = [
    (1.0, 1, 0.05), (1.0, 2, 2.0), (1.0, 3, 100.0),
    (2.0, 1, 100.0), (2.0, 2, 0.05), (2.0, 3, 10.0),
    (3.0, 1, 0.5), (3.0, 2, 100.0), (3.0, 3, 0.05),
]


@pytest.mark.parametrize("p, n, R", RESHOOT_GRID)
def test_reshoot_lands_on_target_in_few_shots(monkeypatch, p, n, R):
    shot_b = []
    shoot = steady._shoot

    def counted(p, n, b, *rest):
        shot_b.append(b)
        return shoot(p, n, b, *rest)

    monkeypatch.setattr(steady, "_shoot", counted)
    reshot = shoot_profile_for_radius(p, n, R)
    assert len(shot_b) <= 15
    assert len(set(shot_b)) == len(shot_b)  # no center value is shot twice
    assert reshot.R == pytest.approx(R, rel=1e-10)
    scaled = scale_profile(shoot_unit_profile(p, n), R)
    assert reshot.center_value == pytest.approx(scaled.center_value, rel=1e-10)


@pytest.mark.parametrize("R", [1e-3, 1e3])
def test_reshoot_bracket_guard(monkeypatch, R):
    # p=2, n=1 crosses near 1.77 b, so R=1e-3 and R=1e3 need b outside
    # [1/64, 64].  Narrowed bounds keep the guard test to a few shots; the
    # real bounds are reached in test_reshoot_range_guard.
    monkeypatch.setattr(steady, "_LOG_B_MIN", math.log(1.0 / 64.0))
    monkeypatch.setattr(steady, "_LOG_B_MAX", math.log(64.0))
    with pytest.raises(NoCrossingError):
        shoot_profile_for_radius(2.0, 1, R)


@pytest.mark.parametrize("R", [1e-6, 1e6])
def test_reshoot_range(R):
    # The DP45 step floor is relative to the position, so shots at far center
    # values do not underflow.
    assert shoot_profile_for_radius(2.0, 1, R).R == pytest.approx(R, rel=1e-10)


@pytest.mark.parametrize("R", [1e-13, 1e13])
def test_reshoot_range_guard(R):
    # R = 1e-13 and 1e13 need b beyond [1e-12, 1e12]
    with pytest.raises(NoCrossingError):
        shoot_profile_for_radius(2.0, 1, R)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(p=st.floats(1.0, 3.0), n=st.integers(1, 3), R=st.floats(0.2, 20.0))
def test_scaling_law_holds_for_random_p_and_radius(p, n, R):
    assert verify_scaling_law(p, n, [R]) < 1e-5


def test_no_crossing_guard():
    with pytest.raises(NoCrossingError):
        shoot_unit_profile(2.0, 1, r_guard=0.5)  # crossing sits near r=1.75


def test_csv_sidecar(tmp_path):
    unit = shoot_unit_profile(2.0, 1)
    out = tmp_path / "steady.csv"
    save_steady(unit, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "r,w"
    assert len(lines) == len(unit.r) + 1
    assert (tmp_path / "steady.json").exists()
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    np.testing.assert_array_equal(data[:, 0], unit.r)
    np.testing.assert_array_equal(data[:, 1], unit.w)
    solver = json.loads((tmp_path / "steady.json").read_text())["solver"]
    assert solver == {"tol": 1e-11, "max_step_factor": 0.002, "shot_b": 1.0,
                      "shot_R": unit.meta["shot_R"]}
