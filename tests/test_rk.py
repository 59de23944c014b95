"""The Dormand-Prince loop: its argument refusals, and its nodes against the
min/max form of the same loop, bit for bit.  The numpy cubic Hermite spline
and PCHIP slopes against scipy's, bit for bit."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from scipy.interpolate import CubicHermiteSpline, PchipInterpolator

from diffusionlab.errors import DomainError, ToleranceError
from diffusionlab.rk import (
    _A21, _A31, _A32, _A41, _A42, _A43, _A51, _A52, _A53, _A54, _A61, _A62, _A63, _A64, _A65,
    _B1, _B3, _B4, _B5, _B6, _C2, _C3, _C4, _C5, _E1, _E3, _E4, _E5, _E6, _E7, HermiteSpline,
    integrate_dp45, pchip_slopes,
)


def _minmax_dp45(rhs, x0, y0, x_end, *, max_step, first_step, rtol=1e-10, atol=(0.0, 0.0),
                 stop=None):
    """The loop as it was written with builtin min/max calls and a per-step
    cap lookup, with a step rejected when its new point or its error
    estimate is not finite, and with the last node moved onto x_end when
    what is left is below the underflow bound: the reference the lean loop
    must equal bit for bit."""
    if x_end <= x0:
        raise ValueError("x_end must exceed x0")

    x, (y, z) = x0, y0
    fy, fz = rhs(x, y, z)

    def cap(xx):
        return max_step(xx) if callable(max_step) else max_step

    h = first_step

    xs = [x]
    ys = [y]
    zs = [z]

    while x < x_end:
        h = min(h, cap(x), x_end - x)
        if h < 1e-14 * max(abs(x), first_step):
            if x_end - x < 1e-14 * max(abs(x), first_step) and x > x0:
                xs[-1] = x_end
                break
            raise ToleranceError(f"step size underflow at x={x:.6g} (h={h:.3g})")

        k1y, k1z = fy, fz
        k2y, k2z = rhs(x + _C2 * h, y + h * _A21 * k1y, z + h * _A21 * k1z)
        k3y, k3z = rhs(
            x + _C3 * h,
            y + h * (_A31 * k1y + _A32 * k2y),
            z + h * (_A31 * k1z + _A32 * k2z),
        )
        k4y, k4z = rhs(
            x + _C4 * h,
            y + h * (_A41 * k1y + _A42 * k2y + _A43 * k3y),
            z + h * (_A41 * k1z + _A42 * k2z + _A43 * k3z),
        )
        k5y, k5z = rhs(
            x + _C5 * h,
            y + h * (_A51 * k1y + _A52 * k2y + _A53 * k3y + _A54 * k4y),
            z + h * (_A51 * k1z + _A52 * k2z + _A53 * k3z + _A54 * k4z),
        )
        k6y, k6z = rhs(
            x + h,
            y + h * (_A61 * k1y + _A62 * k2y + _A63 * k3y + _A64 * k4y + _A65 * k5y),
            z + h * (_A61 * k1z + _A62 * k2z + _A63 * k3z + _A64 * k4z + _A65 * k5z),
        )
        y5 = y + h * (_B1 * k1y + _B3 * k3y + _B4 * k4y + _B5 * k5y + _B6 * k6y)
        z5 = z + h * (_B1 * k1z + _B3 * k3z + _B4 * k4z + _B5 * k5z + _B6 * k6z)
        k7y, k7z = rhs(x + h, y5, z5)

        ey = h * (_E1 * k1y + _E3 * k3y + _E4 * k4y + _E5 * k5y + _E6 * k6y + _E7 * k7y)
        ez = h * (_E1 * k1z + _E3 * k3z + _E4 * k4z + _E5 * k5z + _E6 * k6z + _E7 * k7z)
        scy = atol[0] + rtol * max(abs(y), abs(y5))
        scz = atol[1] + rtol * max(abs(z), abs(z5))
        err = 0.0
        if scy > 0.0:
            err = abs(ey) / scy
        if scz > 0.0:
            err = max(err, abs(ez) / scz)
        if not all(math.isfinite(v) for v in (y5, z5, ey, ez)):
            err = math.nan
        if err != err or err == float("inf"):  # stage blew up; force rejection
            err = 1e6

        if err <= 1.0:
            x += h
            y, z = y5, z5
            fy, fz = k7y, k7z  # FSAL
            xs.append(x)
            ys.append(y)
            zs.append(z)
            if stop is not None and stop(x, y, z):
                break
        factor = 0.9 * (err ** -0.2) if err > 0.0 else 5.0
        h *= min(5.0, max(0.2, factor))

    return xs, ys, zs


def _rhs(s, k, mu, bad):
    """y' = s z - y, z' = -k y - mu z: y decouples from z at s = 0 and z from y
    at k = 0, so a NaN in one component need not reach the other; a large mu
    is stiff at the step cap.  With `bad` = (call, component, value) that one
    call returns `value` in that component.  A loop that makes no progress
    ends at a call budget far above any draw's need."""
    calls = 0

    def rhs(x, y, z):
        nonlocal calls
        calls += 1
        if calls > 500_000:
            raise RuntimeError("rhs call budget exhausted")
        out = [(s * z if s else 0.0) - y, (-k * y if k else 0.0) - mu * z]
        if bad is not None and calls == bad[0]:
            out[bad[1]] = bad[2]
        return out[0], out[1]

    return rhs


def _cap(kind, c, x_mid):
    if kind == "constant":
        return c
    if kind == "linear":
        return lambda x: c * (1.0 + abs(x))
    if kind == "nan_bands":  # a NaN cap leaves the step as it is
        return lambda x: math.nan if int(4.0 * x) % 3 == 0 else c
    # "collapse": past x_mid the cap drives the step below 1e-14 |x|
    return lambda x: c if x < x_mid else 1e-16 * (1.0 + abs(x))


def _stop(kind, x_mid):
    if kind is None:
        return None
    if kind == "x":
        return lambda x, y, z: x > x_mid
    return lambda x, y, z: y < -0.5


def _outcome(integrate, case):
    (s, k, mu, bad, x0, length, y0, rtol, atol, first_step, cap, c, stop) = case
    x_mid = x0 + 0.5 * length
    try:
        xs, ys, zs = integrate(_rhs(s, k, mu, bad), x0, y0, x0 + length,
                               max_step=_cap(cap, c, x_mid), first_step=first_step, rtol=rtol,
                               atol=atol, stop=_stop(stop, x_mid))
    except ToleranceError as e:
        return "ToleranceError", str(e)
    return tuple(np.array(v, dtype=np.float64).tobytes() for v in (xs, ys, zs))


_BAD = st.none() | st.tuples(st.integers(1, 120), st.integers(0, 1),
                             st.sampled_from([math.nan, math.inf, -math.inf]))
_ATOL = st.sampled_from([(0.0, 0.0), (1e-9, 0.0), (0.0, 1e-9), (1e-9, 1e-6)])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(s=st.sampled_from([1.0, 0.0]), k=st.sampled_from([0.0]) | st.floats(0.1, 1e3),
       mu=st.sampled_from([0.0]) | st.floats(0.1, 2e3), bad=_BAD, x0=st.floats(-2.0, 2.0),
       length=st.floats(0.1, 5.0),
       y0=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
       rtol=st.sampled_from([1e-3, 1e-6, 1e-10]), atol=_ATOL, first_step=st.floats(1e-6, 1.0),
       cap=st.sampled_from(["linear", "constant", "nan_bands", "collapse"]),
       c=st.floats(1e-3, 2.0), stop=st.sampled_from(["x", None, "y"]))
# a NaN y-stage with a finite z error: rejected only because max(err, e) keeps the NaN err
@example(s=1.0, k=0.0, mu=1.0, bad=(9, 0, math.nan), x0=0.0, length=1.0, y0=(1.0, 1.0),
         rtol=1e-6, atol=(0.0, 0.0), first_step=0.1, cap="constant", c=0.5, stop=None)
# a NaN z-stage with a finite y error: the NaN z error rejects the step
@example(s=0.0, k=1.0, mu=1.0, bad=(9, 1, math.nan), x0=0.0, length=1.0, y0=(1.0, 1.0),
         rtol=1e-6, atol=(0.0, 0.0), first_step=0.1, cap="constant", c=0.5, stop="y")
# NaN caps and stiff rejections; an underflow
@example(s=1.0, k=1e3, mu=2e3, bad=None, x0=-1.0, length=4.0, y0=(1.0, -1.0), rtol=1e-10,
         atol=(1e-9, 0.0), first_step=1.0, cap="nan_bands", c=2.0, stop=None)
@example(s=1.0, k=1.0, mu=0.0, bad=None, x0=0.5, length=2.0, y0=(1.0, 0.0), rtol=1e-6,
         atol=(0.0, 0.0), first_step=0.01, cap="collapse", c=0.1, stop=None)
def test_lean_loop_equals_the_minmax_loop_bit_for_bit(s, k, mu, bad, x0, length, y0, rtol, atol,
                                                     first_step, cap, c, stop):
    case = (s, k, mu, bad, x0, length, y0, rtol, atol, first_step, cap, c, stop)
    assert _outcome(integrate_dp45, case) == _outcome(_minmax_dp45, case)


ARGS = dict(rhs=lambda x, y, z: (z, -y), x0=0.0, y0=(1.0, 0.0), x_end=1.0, max_step=0.1,
            first_step=0.01)


@pytest.mark.parametrize("change, match", [
    (dict(x_end=0.0), "x_end must exceed x0"),
    (dict(x_end=math.nan), "x0 and x_end must be finite"),
    (dict(x_end=math.inf), "x0 and x_end must be finite"),
    (dict(x0=math.nan), "x0 and x_end must be finite"),
    (dict(x0=-math.inf), "x0 and x_end must be finite"),
    (dict(first_step=0.0), "first_step must be finite and positive"),
    (dict(first_step=-0.01), "first_step must be finite and positive"),
    (dict(first_step=math.nan), "first_step must be finite and positive"),
    (dict(first_step=math.inf), "first_step must be finite and positive"),
    (dict(max_step=0.0), "max_step must be positive"),
    (dict(max_step=-0.1), "max_step must be positive"),
    (dict(max_step=math.nan), "max_step must be positive"),
], ids=["x_end_le_x0", "x_end_nan", "x_end_inf", "x0_nan", "x0_inf", "first_step_zero",
        "first_step_negative", "first_step_nan", "first_step_inf", "max_step_zero",
        "max_step_negative", "max_step_nan"])
def test_refuses_bad_arguments_before_the_first_step(change, match):
    # Unrefused, a zero first step at x0 = 0 accepts zero-length steps
    # without end, a NaN x_end returns the start alone and a NaN cap is
    # ignored.
    calls = []

    def rhs(x, y, z):
        calls.append(x)
        return z, -y

    with pytest.raises(ValueError, match=match):
        integrate_dp45(**{**ARGS, "rhs": rhs, **change})
    assert not calls


@pytest.mark.parametrize("cap", [0.1, 0.05, 0.01])
def test_cap_steps_that_sum_to_x_end_up_to_rounding_land_on_it(cap):
    # Ten steps of 0.1 end at 0.9999999999999999; the 1.1e-16 left is below
    # the underflow bound, so the last node is moved onto x_end instead of
    # raising "step size underflow at x=1".  Steps of 0.05 and 0.01 land
    # exactly.
    xs, ys, zs = integrate_dp45(lambda x, y, z: (z, -y), 0.0, (1.0, 0.0), 1.0,
                                max_step=cap, first_step=cap, rtol=1e-6)
    assert len(xs) == round(1.0 / cap) + 1
    assert xs[-1] == 1.0 and all(a < b for a, b in zip(xs, xs[1:]))
    assert ys[-1] == pytest.approx(math.cos(1.0), abs=1e-8)
    assert zs[-1] == pytest.approx(-math.sin(1.0), abs=1e-8)


def test_an_underflow_at_the_start_is_still_refused():
    # Nothing was accepted, so there is no node to move onto x_end.
    with pytest.raises(ToleranceError, match="step size underflow at x=1 "):
        integrate_dp45(lambda x, y, z: (z, -y), 1.0, (1.0, 0.0), 1.0 + 4e-16,
                       max_step=0.1, first_step=0.1)


def test_an_infinite_cap_leaves_the_steps_to_the_controller():
    xs, _, _ = integrate_dp45(**{**ARGS, "max_step": math.inf})
    assert xs[-1] == 1.0 and len(xs) > 2


@pytest.mark.parametrize("call, component, y0", [
    (9, 1, (1.0, 1.0)), (7, 1, (1.0, 1.0)), (9, 0, (0.0, 1.0)), (9, 1, (1.0, 0.0)),
    (7, 0, (0.0, 1.0)),
], ids=["z_stage", "z_at_the_new_point", "y_at_zero_scale", "z_at_zero_scale",
        "y_at_the_new_point_at_zero_scale"])
def test_a_step_with_a_non_finite_stage_is_rejected(call, component, y0):
    # y' = -y, z' = -z with one NaN derivative.  Such a step was once
    # accepted when a NaN z error lost to a finite y error, or when a NaN
    # new point went unchecked because its scale atol + rtol max(|old|,
    # |new|) is 0 (the component starts at 0); the first case returned 6
    # nodes, the last 4 NaN.  Call 7 is the first step's derivative at its
    # new point: only the error is NaN, and an accepted step would carry it
    # into the next (at zero scale that ended in a ToleranceError).
    # Rejected, the step is retried, and every node is finite.
    calls = []

    def rhs(x, y, z):
        calls.append(x)
        out = [-y, -z]
        if len(calls) == call:
            out[component] = math.nan
        return out[0], out[1]

    xs, ys, zs = integrate_dp45(rhs, 0.0, y0, 1.0, max_step=0.5, first_step=0.1, rtol=1e-6)
    assert xs[-1] == 1.0
    assert all(math.isfinite(v) for v in ys + zs)


def test_a_step_whose_new_point_overflows_is_rejected():
    # Finite stages, but y + h y' passes the largest double: the scale is
    # infinite, so the error ratio is 0 and only the new point's own check
    # rejects the step.  The retries shrink the step until it underflows,
    # where y reaches the largest double.
    with pytest.raises(ToleranceError, match=r"step size underflow at x=0\.797693 "):
        integrate_dp45(lambda x, y, z: (1e308, 0.0), 0.0, (1e308, 1.0), 0.95,
                       max_step=0.1, first_step=0.1)


# ---------------------------------------------------------------------------
# HermiteSpline and pchip_slopes against scipy
# ---------------------------------------------------------------------------


def _same(mine, theirs):
    """Equal shapes, NaN at the same points, and the same bits elsewhere
    (so 0.0 and -0.0 differ)."""
    mine, theirs = np.asarray(mine), np.asarray(theirs)
    assert mine.shape == theirs.shape and mine.dtype == theirs.dtype == np.float64
    nan = np.isnan(theirs)
    np.testing.assert_array_equal(np.isnan(mine), nan)
    assert mine[~nan].tobytes() == theirs[~nan].tobytes()


def _queries(x, extra):
    """The nodes and their nextafter neighbours, the midpoints, points beyond
    both ends, NaN and the infinities, in ascending order and shuffled."""
    q = np.concatenate((x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf),
                        0.5 * (x[:-1] + x[1:]), extra,
                        [x[0] - 1.0, x[-1] + 1.0, np.nan, np.inf, -np.inf]))
    return [np.sort(q), q[np.random.default_rng(q.size).permutation(q.size)]]


# y values from a small set make flat segments, zero secants and sign
# changes common, the cases PCHIP's interior and end rules treat apart; no
# magnitude below 1e-6, whose secants would overflow PCHIP's harmonic mean
_Y = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]) | st.floats(1e-6, 1e3) | st.floats(-1e3, -1e-6)
_NODES = st.integers(2, 40).flatmap(lambda n: st.tuples(
    st.floats(-100.0, 100.0),
    st.lists(st.floats(1e-3, 10.0), min_size=n - 1, max_size=n - 1),
    st.lists(_Y, min_size=n, max_size=n),
    st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n),
    st.lists(st.floats(-200.0, 200.0), max_size=20)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(nodes=_NODES)
@example(nodes=(0.0, [1.0], [1.0, 2.0], [0.0, 0.0], [0.5]))  # two nodes
@example(nodes=(0.0, [1.0, 1.0], [1.0, 1.0, 1.0], [-0.0, 0.0, -0.0], []))  # flat, signed zeros
# y = -0.0 at a node where every other term is -0.0 too: scipy's sum from 0.0
# gives 0.0 there, at x = 0.0 and at x = -0.0
@example(nodes=(0.0, [1.0], [-0.0, -1.0], [-0.5, -1.8], [-0.0]))
@example(nodes=(-1.0, [0.1, 2.0, 0.1], [0.0, 1.0, -1.0, 0.0], [1.0, -1.0, 1.0, -1.0], [0.05]))
@example(nodes=(0.0, [1.0, 1.0], [0.0, 1.0, -10.0], [0.0, 0.0, 0.0], []))  # an end clamped to 3 m0
def test_spline_and_pchip_slopes_equal_scipys_bit_for_bit(nodes):
    x0, dx, y, yp, extra = nodes
    x = x0 + np.cumsum([0.0, *dx])
    y, yp = np.array(y), np.array(yp)
    mine, theirs = HermiteSpline(x, y, yp), CubicHermiteSpline(x, y, yp, extrapolate=False)
    assert mine.x.tobytes() == theirs.x.tobytes() and mine.c.tobytes() == theirs.c.tobytes()
    slopes = pchip_slopes(x, y)
    pchip, scipy_pchip = HermiteSpline(x, y, slopes), PchipInterpolator(x, y, extrapolate=False)
    assert pchip.c.tobytes() == scipy_pchip.c.tobytes()
    for q in _queries(x, extra):
        _same(mine(q), theirs(q))
        _same(pchip(q), scipy_pchip(q))
        _same(mine(q.reshape(-1, 1)), theirs(q.reshape(-1, 1)))
    for q in (x[-1], np.float64(x[0]), np.array(x[0] - 1.0), np.nan, [], np.empty((0, 2))):
        _same(mine(q), theirs(q))


@pytest.mark.parametrize("x, y, yp", [
    ([0.0], [1.0], [0.0]),
    ([0.0, 1.0, 1.0], [1.0, 2.0, 3.0], [0.0, 0.0, 0.0]),
    ([0.0, 2.0, 1.0], [1.0, 2.0, 3.0], [0.0, 0.0, 0.0]),
    ([math.nan, 1.0], [1.0, 1.0], [0.0, 0.0]),
    ([0.0, math.inf], [1.0, 1.0], [0.0, 0.0]),
    ([0.0, 1.0], [1.0, math.nan], [0.0, 0.0]),
    ([0.0, 1.0], [1.0, 1.0], [0.0, -math.inf]),
    ([0.0, 1.0, 2.0], [1.0, 1.0], [0.0, 0.0]),
    ([[0.0, 1.0]], [[1.0, 1.0]], [[0.0, 0.0]]),
])
def test_spline_refuses_malformed_nodes(x, y, yp):
    # scipy refused these with a ValueError; a profile read from a file
    # reaches the spline unchecked
    with pytest.raises(DomainError, match="a spline needs"):
        HermiteSpline(np.array(x), np.array(y), np.array(yp))


def test_pchip_slopes_at_the_ends_and_of_two_nodes():
    # the secant for two nodes; an end slope of the wrong sign is 0, and one
    # more than three times the end secant where the secants change sign is
    # clamped to it
    np.testing.assert_array_equal(pchip_slopes(np.array([0.0, 2.0]), np.array([1.0, 2.0])), [0.5, 0.5])
    x = np.array([0.0, 1.0, 2.0])
    np.testing.assert_array_equal(pchip_slopes(x, np.array([0.0, 1.0, 4.0])), [0.0, 1.5, 4.0])
    np.testing.assert_array_equal(pchip_slopes(x, np.array([0.0, 1.0, -10.0])), [3.0, 0.0, -17.0])
