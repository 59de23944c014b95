"""Tests for the steady Dirichlet profile solver."""

import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.interpolate import CubicHermiteSpline

from diffusionlab import steady
from diffusionlab.errors import DomainError, NoCrossingError, SingularityError
from diffusionlab.experiments import ExperimentManifest, run_manifest
from diffusionlab.rk import first_nonmonotone_interval
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


@pytest.mark.parametrize("n", [1, 2, 3])
def test_p1_interpolant_matches_closed_form_between_nodes(n):
    # The cubic Hermite of the shot's (w, w') reproduces the quadratic
    # (1 - r^2)/(2n) exactly; a PCHIP of w alone misses it by 1e-8.
    unit = shoot_unit_profile(1.0, n)
    mid = 0.5 * (unit.r[:-1] + unit.r[1:])
    assert np.max(np.abs(unit.interpolant()(mid) - (1.0 - mid**2) / (2 * n))) < 1e-12


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


class TestInterpolant:
    def test_built_once_and_equal_to_a_fresh_spline(self):
        unit = shoot_unit_profile(3.0, 2)
        spline = unit.interpolant()
        assert unit.interpolant() is spline
        fresh = CubicHermiteSpline(unit.r, unit.w, unit.wp, extrapolate=False)
        pts = np.linspace(0.0, 1.0, 1001)
        np.testing.assert_array_equal(spline(pts), fresh(pts))
        np.testing.assert_array_equal(spline.c, fresh.c)

    def test_rescaled_and_replaced_profiles_build_their_own(self):
        unit = shoot_unit_profile(2.0, 1)
        spline = unit.interpolant()
        scaled = scale_profile(unit, 2.0)
        replaced = replace(unit, w=2.0 * unit.w, wp=2.0 * unit.wp)
        for prof in (scaled, replaced):
            own = prof.interpolant()
            assert own is not spline and prof.interpolant() is own
            np.testing.assert_array_equal(own.x, prof.r)
        assert unit.interpolant() is spline
        assert "_spline" not in repr(unit)


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

    @pytest.mark.parametrize("R", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_radius(self, R):
        with pytest.raises(DomainError, match="radius"):
            scale_profile(shoot_unit_profile(1.0, 1), R)
        with pytest.raises(DomainError, match="radius"):
            shoot_profile_for_radius(1.0, 1, R)


@pytest.mark.parametrize("p, n", [(0.5, 1), (math.nan, 1), (math.inf, 1), (2.0, 0)])
def test_shoot_unit_profile_rejects_bad_parameters(p, n):
    with pytest.raises(DomainError):
        shoot_unit_profile(p, n)


class TestVerifyScalingLaw:
    def test_p1_closed_form_family(self):
        assert verify_scaling_law(shoot_unit_profile(1.0, 1), [0.5, 2.0, 10.0]) < 1e-6

    def test_p2_numerical_family(self):
        assert verify_scaling_law(shoot_unit_profile(2.0, 2), [1.0, 4.0]) < 1e-5

    def test_single_unit_radius_is_reshot(self):
        # the unit profile is itself a rescaled shot, so R = 1 is re-shot and
        # compared like any other radius
        assert 0.0 < verify_scaling_law(shoot_unit_profile(2.0, 1), [1.0]) < 1e-5

    def test_rejects_empty_list(self):
        with pytest.raises(DomainError):
            verify_scaling_law(shoot_unit_profile(2.0, 1), [])

    @pytest.mark.parametrize("p, n", [(p, n) for p in (1.0, 2.0) for n in (1, 2, 3)])
    def test_default_grid_is_at_interpolation_floor(self, p, n):
        # The steady_scaling defaults: the scaled unit profile is evaluated by
        # the cubic Hermite of its own (w, w'), so what is left is the shots'
        # own error, not an interpolation error of 2e-7.
        assert verify_scaling_law(shoot_unit_profile(p, n), [0.5, 2.0, 10.0]) < 1e-9


@pytest.mark.parametrize("p", [4.0, 6.0])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_steep_boundary_shots_have_distinct_nodes(p, n):
    # For p >= 3.5 R - r falls below float spacing before the inverted sweep
    # reaches its floor; the sweep stops there and drops the stalled node, so
    # r stays strictly increasing on the unit ball and after rescaling to the
    # extremes of the tested radii.
    unit = shoot_unit_profile(p, n)
    for R in (1.0, 1e-3, 1e4):
        assert np.all(np.diff(scale_profile(unit, R).r) > 0.0)
    assert verify_scaling_law(unit, [0.5, 2.0, 10.0]) < 1e-5


@pytest.mark.parametrize("p", [3.0, 4.0, 6.0])
@pytest.mark.parametrize("n", [1, 3])
def test_inverted_sweep_stops_once_r_stalls(monkeypatch, p, n):
    # The sweep ends at the first node where r advances by no more than
    # 1e-11 r, so it holds at most that one stalled node, the last, not the
    # run of stalled nodes down to W_FLOOR_FRACTION * b.
    integrate, sweeps = steady.integrate_dp45, []

    def recorded(*args, **kwargs):
        out = integrate(*args, **kwargs)
        sweeps.append(np.array(out[1]))
        return out

    monkeypatch.setattr(steady, "integrate_dp45", recorded)
    shoot_unit_profile(p, n)
    rs = sweeps[1]  # the outward phase, then the inverted sweep
    assert np.count_nonzero(np.diff(rs) <= 1e-11 * rs[1:]) <= 1


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 6.0, 13.0, 14.0, 18.0])
@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("b, factor", [(steady.UNIT_SHOT_B, steady.UNIT_STEP_FACTOR),
                                       (2.0, steady.RESHOOT_STEP_FACTOR)], ids=["unit", "reshoot"])
def test_every_kept_sweep_node_advances_r(p, n, b, factor):
    # The sweep nodes of a shot lie between the switch point, its first node
    # below W_SWITCH_FRACTION * b, and the extrapolated crossing; each
    # advances r by more than 1e-11 r, so a stalled node is never kept.
    r, w, _, _ = steady._shoot(p, n, b, factor)
    j = int(np.argmax(w < steady.W_SWITCH_FRACTION * b))
    kept = r[j + 1 : -1]
    assert np.all(kept - r[j:-2] > 1e-11 * kept)


@pytest.mark.parametrize("p", [14.0, 15.0])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_sweep_that_stalls_at_its_first_step(p, n):
    # From p = 14 the first inverted step already stalls, so the crossing is
    # extrapolated from the switch point itself: the profile is the outward
    # phase plus the crossing, and it still passes the Fritsch-Carlson check.
    unit = shoot_unit_profile(p, n)
    assert np.count_nonzero(unit.w < steady.W_SWITCH_FRACTION * unit.w[0]) == 2
    assert first_nonmonotone_interval(unit.r, unit.w, unit.wp) == -1
    assert steady_residual(unit) <= 1e-5


@pytest.mark.parametrize("p, why", [
    (19.0, "step size underflow"),  # n = 1: w'' = -3.8e21 at w = 0.054 b, steps < 1e-14 r
    (1e30, "Numerical result out of range"),  # w^(1-p) overflows
    (1e308, "float division by zero"),  # the series coefficient underflows to -0.0
])
@pytest.mark.parametrize("n", [1, 3])
def test_a_failed_outward_phase_names_the_shot(p, why, n):
    with pytest.raises(NoCrossingError, match=rf"^outward phase failed: .*{why}.*"
                                              + re.escape(f" (p={p}, n={n}, b=1.0)") + "$"):
        shoot_unit_profile(p, n)


def test_shot_certifies_its_interpolant(monkeypatch):
    # _shoot rejects nodes whose cubic Hermite fails the Fritsch-Carlson
    # certificate; a steady shot has none, so force one.
    monkeypatch.setattr(steady, "first_nonmonotone_interval", lambda r, w, wp: 3)
    with pytest.raises(SingularityError, match="steady interpolant is not monotone"):
        shoot_unit_profile(2.0, 1)


def test_center_value_scaling_exponent():
    # log w_R(0) = (2/p) log R + const across independently re-shot profiles
    p, n = 2.0, 1
    radii = np.array([0.5, 1.0, 2.0, 4.0])
    centers = np.array(
        [shoot_profile_for_radius(p, n, R).center_value for R in radii]
    )
    slope = np.polyfit(np.log(radii), np.log(centers), 1)[0]
    assert slope == pytest.approx(2.0 / p, abs=1e-6)


@pytest.fixture
def shot_b(monkeypatch):
    """The center values of every _shoot call, in order."""
    calls = []
    shoot = steady._shoot

    def counted(p, n, b, *rest):
        calls.append(b)
        return shoot(p, n, b, *rest)

    monkeypatch.setattr(steady, "_shoot", counted)
    return calls


# Each p is re-shot over R from 0.05 to 100.  log R_crossing is affine in
# log b, so the secant's first step from b = 1 and b = 2 lands on b*, and
# the re-shoot returns that third shot without confirming it, however far b*
# lies from 1 (p = 1, n = 3, R = 100 needs b* = 1.7e3).
RESHOOT_GRID = [
    (1.0, 1, 0.05), (1.0, 2, 2.0), (1.0, 3, 100.0),
    (2.0, 1, 100.0), (2.0, 2, 0.05), (2.0, 3, 10.0),
    (3.0, 1, 0.5), (3.0, 2, 100.0), (3.0, 3, 0.05),
]


@pytest.mark.parametrize("p, n, R", RESHOOT_GRID)
def test_reshoot_lands_on_target_in_few_shots(shot_b, p, n, R):
    reshot = shoot_profile_for_radius(p, n, R)
    assert len(shot_b) <= 3
    assert len(set(shot_b)) == len(shot_b)  # no center value is shot twice
    assert reshot.R == pytest.approx(R, rel=1e-10)
    scaled = scale_profile(shoot_unit_profile(p, n), R)
    assert reshot.center_value == pytest.approx(scaled.center_value, rel=1e-10)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(p=st.floats(1.0, 4.0), n=st.integers(1, 3), R=st.floats(1e-3, 1e3))
def test_reshoot_crossing_lands_within_the_log_b_tolerance(p, n, R):
    # log R_crossing has slope p/2 in log b, so this pins log b to LOG_B_XTOL.
    reshot = shoot_profile_for_radius(p, n, R)
    assert abs(math.log(reshot.R / R)) <= 0.5 * p * steady.LOG_B_XTOL


def test_start_shot_that_lands_is_returned_unconfirmed(shot_b):
    # p = 1, n = 1 crosses at sqrt(2 b): the b = 2 start crosses at 2 + 3.6e-15.
    reshot = shoot_profile_for_radius(1.0, 1, 2.0)
    assert shot_b == [1.0, 2.0]
    assert reshot.meta["shot_b"] == 2.0


@pytest.mark.parametrize("crossing, why", [
    (lambda b: 3.0, "two shots crossing at"),  # zero secant denominator
    (lambda b: 3.0 if b == 1.0 else math.nan, "not finite"),
    (lambda b: math.exp((math.log(b) - 1.0) ** 3), "did not land in 10 shots"),
], ids=["same_radius", "nan_radius", "triple_root"])
def test_secant_guards(monkeypatch, crossing, why):
    # A crossing that does not depend on b, one that is not a number, and a
    # triple root, which the secant approaches too slowly.  Each is refused
    # by name, without a ZeroDivisionError or a RuntimeWarning.
    monkeypatch.setattr(steady, "_shoot", lambda p, n, b, *rest: (None, None, None, crossing(b)))
    with pytest.raises(NoCrossingError, match=why) as err:
        shoot_profile_for_radius(1.5, 2, 1.0)
    assert "R=1 " in str(err.value) and "(p=1.5, n=2)" in str(err.value)


@pytest.mark.parametrize("R", [1e-3, 1e3])
def test_reshoot_bracket_guard(monkeypatch, R):
    # p=2, n=1 crosses near 1.77 b, so R=1e-3 and R=1e3 need b outside
    # [1/64, 64].  Narrowed bounds keep the guard test to a few shots; the
    # real bounds are reached in test_reshoot_range_guard.
    monkeypatch.setattr(steady, "_LOG_B_MIN", math.log(1.0 / 64.0))
    monkeypatch.setattr(steady, "_LOG_B_MAX", math.log(64.0))
    with pytest.raises(NoCrossingError):
        shoot_profile_for_radius(2.0, 1, R)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_out_of_range_reshoot_fails_fast(shot_b, n):
    # p = 1 crosses at R = sqrt(2 n b), so R = 1e-6 needs b = 5e-13 / n, below
    # 1e-12: the secant's first step leaves the range and is refused unshot.
    with pytest.raises(NoCrossingError):
        shoot_profile_for_radius(1.0, n, 1e-6)
    assert len(shot_b) <= 3


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
    assert verify_scaling_law(shoot_unit_profile(p, n), [R]) < 1e-5


@settings(max_examples=40, deadline=None, derandomize=True)
@given(p=st.floats(1.0, 6.0), n=st.integers(1, 5), log_b=st.floats(-12.0, 12.0),
       factor=st.sampled_from([steady.UNIT_STEP_FACTOR, steady.RESHOOT_STEP_FACTOR]))
def test_shot_ends_inside_the_comparison_parabola(p, n, log_b, factor):
    # w <= b (1 - r^2 / (2 ell^2)), ell = sqrt(n p b^p): w falls below the
    # switch height 0.05 b by r = sqrt(1.9) ell, so the switch node lies
    # within one step cap beyond, and w crosses zero by sqrt(2) ell.
    b = 10.0**log_b
    ell = math.sqrt(n * p * b**p)
    r, w, _, R = steady._shoot(p, n, b, factor)
    i = int(np.argmax(w < steady.W_SWITCH_FRACTION * b))
    assert r[i] <= (math.sqrt(1.9) + factor) * ell
    assert R <= math.sqrt(2.0) * ell * (1.0 + 1e-12)


def test_reshoot_cap_leaves_the_last_outward_step_above_zero():
    # At p = 1, w = b (1 - r^2 / (2 ell^2)) exactly.  From a node at
    # r <= sqrt(1.9) ell (w >= 0.05 b), one step of c ell lowers w by at most
    # (sqrt(1.9) c + c^2 / 2) b, which the cap keeps below half the switch
    # height; the unit shot's shorter cap is bounded with it.
    c = steady.RESHOOT_STEP_FACTOR
    assert math.sqrt(1.9) * c + c * c / 2.0 < 0.5 * steady.W_SWITCH_FRACTION
    assert steady.UNIT_STEP_FACTOR < c


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("R", [1e-3, 0.5, 10.0, 1e3])
def test_p1_reshoot_matches_closed_form(n, R):
    # At p = 1 the profile on B_R is (R^2 - r^2) / (2n): the re-shoot at the
    # long cap lands on R with center value R^2 / (2n) to rounding.
    reshot = shoot_profile_for_radius(1.0, n, R)
    assert reshot.R == pytest.approx(R, rel=1e-13, abs=0.0)
    assert reshot.center_value == pytest.approx(R * R / (2 * n), rel=1e-13, abs=0.0)


def test_shot_that_overshoots_the_sweep_floor(monkeypatch):
    # A cap of 0.05 ell is longer than the parabola allows: at p = 1 the last
    # outward step ends at sqrt(2) ell, where w is 0 to rounding, below the
    # sweep floor 1e-8 b, and the inverted sweep would have nothing to cover.
    monkeypatch.setattr(steady, "RESHOOT_STEP_FACTOR", 0.05)
    with pytest.raises(NoCrossingError, match=r"outward phase ended at w=\S+, at or below the "
                                              r"sweep floor, at r=1\.41421 \(p=1\.0, n=1, b=1\.0\)"):
        shoot_profile_for_radius(1.0, 1, 0.5)


def test_shot_that_stays_above_the_switch_height(monkeypatch):
    # At p = 1 the comparison parabola is the solution: it reaches zero at
    # the end of the outward phase, sqrt(2) ell, above a switch height of -b.
    monkeypatch.setattr(steady, "W_SWITCH_FRACTION", -1.0)
    with pytest.raises(NoCrossingError, match=r"above the switch height out to r=1\.41421"):
        shoot_unit_profile(1.0, 1)


# p = 1, R = 1e-6 needs b below 1e-12 and is refused with or without a table.
SHARED_RADII = [0.5, 1e6, 1e-6, 20.0, 1e-2]


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.0])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_shared_table_reshoots_are_bit_identical(monkeypatch, p, n):
    shots, landed = {}, []
    for R in SHARED_RADII:
        try:
            fresh = shoot_profile_for_radius(p, n, R)
        except NoCrossingError:
            with pytest.raises(NoCrossingError):
                shoot_profile_for_radius(p, n, R, shots)
            continue
        shared = shoot_profile_for_radius(p, n, R, shots)
        for name in ("r", "w", "wp"):
            np.testing.assert_array_equal(getattr(shared, name), getattr(fresh, name))
        assert (shared.R, shared.meta) == (fresh.R, fresh.meta)
        landed.append(R)
    unit = shoot_unit_profile(p, n)
    worst = verify_scaling_law(unit, landed)
    reshoot = steady.shoot_profile_for_radius
    monkeypatch.setattr(steady, "shoot_profile_for_radius",
                        lambda p, n, R, shots: reshoot(p, n, R))  # a fresh table each
    assert verify_scaling_law(unit, landed) == worst


def test_default_scaling_check_shoots_each_start_once(shot_b, monkeypatch, tmp_path):
    # Six (p, n) cells, each one unit shot and one check over three radii,
    # each re-shoot landing at its first secant step: 6 + 6 * (2 + 3) = 36
    # shots, where a re-shoot that confirmed its landing needed 54.  (34 are
    # made: at p = 1, R = 2 lands on the start b = 2 for n = 1, b = 1 for n = 2.)
    checks = []
    verify = steady.verify_scaling_law

    def check(unit, R_list):
        start = len(shot_b)
        try:
            return verify(unit, R_list)
        finally:
            checks.append(shot_b[start:])

    monkeypatch.setattr(steady, "verify_scaling_law", check)
    rec = run_manifest(ExperimentManifest.from_dict({
        "schema": 1, "name": "steady", "scenario": "steady_scaling", "parameters": {},
        "output_dir": str(tmp_path / "steady"),
    }))
    assert rec.passed
    assert len(checks) == 6
    assert len(shot_b) <= 36
    for made in checks:
        assert len(set(made)) == len(made)  # no b shot twice in one check (p, n fixed)


def test_csv_sidecar(tmp_path):
    unit = shoot_unit_profile(2.0, 1)
    out = tmp_path / "steady.csv"
    save_steady(unit, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "r,w"
    rows = "".join(f"{r:.17g},{w:.17g}\n" for r, w in zip(unit.r, unit.w))
    assert out.read_bytes() == ("r,w\n" + rows).encode()
    assert len(lines) == len(unit.r) + 1
    assert (tmp_path / "steady.json").exists()
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    np.testing.assert_array_equal(data[:, 0], unit.r)
    np.testing.assert_array_equal(data[:, 1], unit.w)
    solver = json.loads((tmp_path / "steady.json").read_text())["solver"]
    assert solver == {"tol": 1e-11, "max_step_factor": 0.002, "shot_b": 1.0,
                      "shot_R": unit.meta["shot_R"]}
