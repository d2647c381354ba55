import contextlib
import math
import signal

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from twofold import (HalfReturn, apply_involution, asymptotic_seed, build_system,
                     classify_point, critical_h, eval_X, eval_Y, find_cycle_newton, flow_X,
                     flow_Y, gamma1_branch_x, gamma2_at_critical, half_return_X,
                     half_return_Y, resonant_system, return_map, saltation, series_coeffs,
                     time_matching, time_matching_table)
from twofold.errors import (DivergenceError, DomainError, NoConvergenceError, NoReturnError,
                            TangentialGrazeError, TwofoldError)
from twofold.flow import _z_coefficients, z_closed_form
from twofold.returns import (_bracketed_root, _envelope_free, _slope_coefficients,
                             first_crossing)
from oracles import bisect_root, fit_time_series, rk4


@pytest.fixture(scope="module")
def params():
    return resonant_system(1.0, 0.5, 1.0)


def _branch_point(p, y0):
    return np.array([gamma1_branch_x(p, y0), y0])


def test_half_return_basic_contract(params):
    hr = half_return_X(params, _branch_point(params, 8.0))
    assert hr.forward and hr.field == "X"
    assert hr.t > 0
    assert hr.residual <= 1e-11 * (1.0 + np.linalg.norm(hr.start))
    # the end point lies in the opposite crossing quadrant
    assert hr.end[0] < 0 and hr.end[1] < 0


def test_two_term_model_residual_scales_cubically():
    p = resonant_system(1.0, 0.04, 1.0)
    coeffs = series_coeffs(p)
    resid = {}
    for y0 in (1e3, 1e4, 1e5):
        t = half_return_X(p, _branch_point(p, y0)).t
        v0 = 1.0 / y0
        resid[y0] = abs(t - (math.pi + coeffs.tau_x_head(v0)))
    k = resid[1e3] * 1e3 ** 3
    assert resid[1e4] <= 2.0 * k / 1e4 ** 3
    # at 1e5 the cubic prediction sits below the double-precision floor
    assert resid[1e5] <= max(2.0 * k / 1e5 ** 3, 1e-14)


def test_flight_time_approaches_pi(params):
    t = half_return_X(params, _branch_point(params, 1e8)).t
    assert abs(t - math.pi) <= 1e-6
    u = half_return_Y(params, _branch_point(params, 1e8)).t
    assert abs(u - math.pi) <= 1e-6


def _mirror(q):
    return apply_involution([q[0], q[1], 0.0])[:2]


@settings(max_examples=80, deadline=None)
@given(C=st.floats(0.01, 2.0), c_sign=st.sampled_from([1.0, -1.0]),
       H=st.floats(1e-3, 0.999), Lambda=st.floats(0.2, 2.0),
       l_sign=st.sampled_from([1.0, -1.0]),
       q=st.tuples(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0)))
def test_half_return_conjugacy(C, c_sign, H, Lambda, l_sign, q):
    # the lower half-orbit from q is the S-image of the upper one from S q,
    # for C of either sign and Lambda of either sign (visible or invisible folds)
    p = resonant_system(c_sign * C, H, l_sign * Lambda)
    outcomes = []
    for solve, start in ((half_return_Y, q), (half_return_X, _mirror(q))):
        try:
            outcomes.append(solve(p, start))
        except (NoReturnError, TangentialGrazeError) as exc:
            outcomes.append(type(exc))
    hry, hrx = outcomes
    if not isinstance(hrx, HalfReturn):
        assert hry is hrx
        return
    assert isinstance(hry, HalfReturn) and hry.field == "Y"
    assert hry.forward == hrx.forward
    assert abs(hry.t - hrx.t) <= 1e-12 * hrx.t
    scale = 1e-12 * (1.0 + np.abs(hrx.end).max())
    assert np.max(np.abs(hry.end - _mirror(hrx.end))) <= scale


def test_backward_x_recovers_forward_flight(params):
    # the upper half-orbit queried from its arrival point is the same flight
    start = _branch_point(params, 9.0)
    hrx = half_return_X(params, start)
    back = half_return_X(params, hrx.end)
    assert not back.forward
    assert np.isclose(back.t, hrx.t, rtol=1e-12)
    assert np.allclose(back.end, start, atol=1e-9 * (1 + np.abs(start).max()))


def test_backward_y_end_flows_to_start(params):
    # amplitude large enough that the backward lower orbit re-crosses
    # (small ones spiral into the lower focus instead)
    start = _branch_point(params, 100.0)
    hry = half_return_Y(params, start)
    assert not hry.forward
    s_end = np.array([hry.end[0], hry.end[1], 0.0])
    back = flow_Y(params, s_end, hry.t)
    assert np.allclose(back[:2], start, atol=1e-9 * (1 + np.abs(start).max()))
    assert abs(back[2]) <= 1e-9 * (1 + np.abs(start).max())


def test_x_series_fit(params):
    coeffs = series_coeffs(params)
    v0s = (1e-3, 1e-4, 1e-5)
    taus = [half_return_X(params, _branch_point(params, 1.0 / v)).t - math.pi
            for v in v0s]
    g1, g2, _ = fit_time_series(v0s, taus)
    assert abs(g1 / coeffs.gamma1_x - 1.0) <= 1e-3
    assert abs(g2 / coeffs.gamma2_x - 1.0) <= 1e-3


def test_y_series_fit_fixes_sign_convention(params):
    coeffs = series_coeffs(params)
    v0s = (1e-3, 1e-4, 1e-5)
    shifted = [half_return_Y(params, _branch_point(params, 1.0 / v)).t - math.pi
               for v in v0s]
    g1, g2, _ = fit_time_series(v0s, shifted)
    assert abs(g1 / coeffs.gamma1_y - 1.0) <= 1e-3
    assert abs(g2 / coeffs.gamma2_y - 1.0) <= 1e-3
    # the opposite convention fails the fit outright
    g1_flipped, _, _ = fit_time_series(v0s, [-t for t in shifted])
    assert abs(g1_flipped / coeffs.gamma1_y - 1.0) > 1.0


def test_series_coefficient_values():
    p = resonant_system(1.0, 0.5, 1.0)
    coeffs = series_coeffs(p)
    assert np.isclose(coeffs.gamma1_x, (1.0 + math.exp(-math.pi)) / 2.0, rtol=1e-15)
    assert np.isclose(coeffs.gamma1_x, 0.5216069591, atol=1e-9)
    assert np.isclose(coeffs.gamma2_x, -p.C * coeffs.gamma1_x ** 2, rtol=1e-15)


@pytest.mark.parametrize("H", [-0.3, -1e-2, -1e-4, -1e-8, -1e-20, -1e-76, 1e-8, 0.5])
def test_y_series_coefficients_keep_their_precision_near_h_zero(H):
    # below H = 0 the two denominators sd + H + 1 and (H + 1) sd + 1 + 2H - H^2
    # cancel to 2 H^2 and 2 H^4; summed as written they lost all digits of
    # gamma2_y by H = -1e-6 and divided by zero from H = -1e-9
    mpmath = pytest.importorskip("mpmath")
    p = resonant_system(0.5, H, 1.2)
    coeffs = series_coeffs(p)
    with mpmath.workdps(800):  # enough digits to carry the cancellation itself
        C, h, L = mpmath.mpf(p.C), mpmath.mpf(p.H), mpmath.mpf(p.Lambda)
        c2, E = C * C + 1, mpmath.exp(mpmath.pi * C)
        sd = mpmath.sqrt((1 - h) * (3 * h + 1)) * mpmath.sign(h)
        g1y = 2 * h * L * (E + 1) / (c2 * (sd + h + 1))
        g2y = (-2 * C * h * h * L * L * (E + 1) * (sd - (3 * h + 1) * E)
               / (c2 * c2 * (3 * h + 1) * ((h + 1) * sd + 1 + 2 * h - h * h)))
        assert abs(coeffs.gamma1_y / g1y - 1) <= 1e-14
        assert abs(coeffs.gamma2_y / g2y - 1) <= 1e-14


def test_gamma1_vanishes_at_critical_slope():
    for c in (0.3, 1.0, 2.0):
        p = resonant_system(c, float(critical_h(c)), 1.0)
        coeffs = series_coeffs(p)
        assert abs(coeffs.gamma1_x - coeffs.gamma1_y) <= 1e-12


def test_series_coeffs_domain():
    with pytest.raises(ValueError):
        series_coeffs(build_system(-1.9, 1.0, 0.5, 1.0))  # not resonant
    with pytest.raises(ValueError):
        series_coeffs(resonant_system(1.0, 2.0, 1.0))  # not a hyperbola
    with pytest.raises(ValueError):
        series_coeffs(build_system(-2.0, 1.0, 0.0, 1.0))  # H = 0 singular


@settings(max_examples=300, deadline=None)
@given(C=st.floats(-225.0, 225.0).filter(lambda c: c != 0.0), log_h=st.floats(-330.0, 0.0),
       negative=st.booleans(), log_lambda=st.floats(-3.0, 3.0),
       lambda_sign=st.sampled_from([-1, 1]))
@example(C=-135.34, log_h=math.log10(2.49e-57), negative=True, log_lambda=0.0, lambda_sign=1)
@example(C=183.77, log_h=math.log10(2.07e-162), negative=False, log_lambda=0.0, lambda_sign=1)
# -gamma1/gamma2 overflows: the seed would be y0 = 0, the X fold
@example(C=5e-324, log_h=-1.0, negative=False, log_lambda=0.0, lambda_sign=1)
def test_series_coeffs_are_finite_or_a_domain_error(C, log_h, negative, log_lambda, lambda_sign):
    # H log-uniform over (-1/3, 1): for 0 < H below about 1e-154 the
    # discriminant over H^2 overflows, and at C = -135 gamma1_x^2 does
    H = (-1.0 / 3.0 if negative else 1.0) * 10.0 ** log_h
    try:
        p = resonant_system(C, H, lambda_sign * 10.0 ** log_lambda)
        coeffs = series_coeffs(p)
    except DomainError:
        return
    assert all(map(math.isfinite, (coeffs.gamma1_x, coeffs.gamma2_x,
                                   coeffs.gamma1_y, coeffs.gamma2_y)))
    seed = asymptotic_seed(p)
    assert seed is None or 0.0 < seed < math.inf


@pytest.mark.parametrize("C, H", [(-135.34, -2.49e-57), (183.77, 2.07e-162)])
def test_series_coeffs_past_the_float_range_name_c_and_h(C, H):
    p = resonant_system(C, H, 1.0)
    for call in (series_coeffs, asymptotic_seed):
        with pytest.raises(DomainError, match=f"not finite at C={C!r}, H={H!r}"):
            call(p)


def test_time_matching_first_order_vanishes_at_critical():
    p = resonant_system(1.0, float(critical_h(1.0)), 1.0)
    ratios = [abs(time_matching(p, v)) / v for v in (1e-2, 1e-3, 1e-4)]
    assert ratios[1] < 0.2 * ratios[0]
    assert ratios[2] < 0.2 * ratios[1]


def test_time_matching_second_coefficient_at_critical():
    p = resonant_system(1.0, float(critical_h(1.0)), 1.0)
    v0s = (1e-3, 1e-4, 1e-5)
    taus = [time_matching(p, v) for v in v0s]
    _, g2, _ = fit_time_series(v0s, taus)
    assert abs(g2 / gamma2_at_critical(1.0, 1.0) - 1.0) <= 1e-3


def test_time_matching_sign_change_brackets_a_zero():
    p = resonant_system(1.0, 0.99 * float(critical_h(1.0)), 1.0)
    coeffs = series_coeffs(p)
    v_star = -coeffs.gamma1 / coeffs.gamma2
    assert v_star > 0
    lo, hi = 0.3 * v_star, 2.0 * v_star
    assert time_matching(p, lo) * time_matching(p, hi) < 0
    v_root = bisect_root(lambda v: time_matching(p, v), lo, hi, xtol=1e-14)
    assert abs(time_matching(p, v_root)) <= 1e-10


def test_gamma2_at_critical_nonzero_everywhere():
    cs = np.concatenate([np.linspace(-3.0, -0.05, 30), np.linspace(0.05, 3.0, 30)])
    values = [gamma2_at_critical(float(c), 1.0) for c in cs]
    assert all(abs(v) > 1e-6 for v in values)
    # positive real part implies negative coefficient, and conversely
    assert all(v < 0 for c, v in zip(cs, values) if c > 0)
    assert all(v > 0 for c, v in zip(cs, values) if c < 0)


@pytest.mark.parametrize("Lambda", [1.0, 0.37, 2.5])
def test_gamma2_at_critical_matches_the_series(Lambda):
    # the closed form and series_coeffs at H = critical_h(C) share the
    # rounding of e^{pi C} and differ by their own roundings only
    cs = np.concatenate([np.linspace(-3.0, -0.05, 200), np.linspace(0.05, 3.0, 200)])
    for c in cs.tolist():
        ref = series_coeffs(resonant_system(c, float(critical_h(c)), Lambda)).gamma2
        assert abs(gamma2_at_critical(c, Lambda) - ref) <= 8 * math.ulp(ref), c


def test_gamma2_at_critical_extremes():
    # right wherever gamma2 is a float, although (C^2 + 1)^2 overflows from
    # C = 1e78 and e^{-2 pi C} below C = -113
    assert gamma2_at_critical(1e78, 1.0) == pytest.approx(-2e-234, rel=1e-15)
    assert gamma2_at_critical(1e77, 1.5) == pytest.approx(-4.5e-231, rel=1e-15)
    below = gamma2_at_critical(1e200, 1.0)  # -2e-600 underflows
    assert below == 0.0 and math.copysign(1.0, below) == -1.0
    # 1.5479346333387975e302 to 50 digits; e^{-2 pi C} carries the rounding
    # of pi C, about 1e-13 relative here
    assert gamma2_at_critical(-113.0, 1.0) == pytest.approx(1.5479346333387975e302, rel=1e-13)
    for C in (-115.5, -225.0, -1e10, -1e300):
        with pytest.raises(DomainError, match="past the float range"):
            gamma2_at_critical(C, 1.0)
    with pytest.raises(DomainError):
        gamma2_at_critical(1.0, 1e200)  # Lambda^2 overflows


def test_gamma2_at_critical_needs_a_rotation():
    with pytest.raises(DomainError, match="nonzero"):
        gamma2_at_critical(0.0, 1.0)


def test_no_return_within_window(params):
    x0, y0 = _branch_point(params, 8.0)
    with pytest.raises(NoReturnError):
        first_crossing(params, (x0, y0, 0.0), 0.5)
    # z constant along the orbit: no window is long enough, and e^{Ct} would
    # overflow before t reaches 1e4
    zs = params.Lambda / (1.0 + params.C ** 2)
    for forward in (True, False):
        with pytest.raises(NoReturnError):
            first_crossing(params, (0.76, -2.0 * params.C * zs, zs), 1e4, forward=forward)


@contextlib.contextmanager
def _within(seconds):
    """A TimeoutError once seconds pass: an alarm turns a hang into a failure."""
    def hang(signum, frame):
        raise TimeoutError("the crossing walk did not end")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("C, y0, forward", [(-0.5, 0.8, True), (0.5, -0.8, False)])
def test_walk_ends_where_the_envelope_cannot_reach_the_plane(C, y0, forward):
    # z = zs + e^{Cu} S(u) with |S| below zs, and an envelope that does not
    # grow along the flight: z never reaches the plane, so no window holds a
    # crossing.  The walk once stepped on to t_max and never ended on an
    # infinite window; a window of 3e11 critical points would take hours
    p = resonant_system(C, 0.2, 1.0)
    s0 = (0.0, y0, 0.9)  # zs = 0.8, S(u) = 0.1 (cos u + C sin u)
    with _within(5), pytest.raises(NoReturnError):
        first_crossing(p, s0, 1e12, forward=forward)


@pytest.mark.parametrize("p, s0, t_max", [
    (build_system(-1.0, 5e-324, 0.5, 1.0), (-0.5, 0.1, 1.0), math.inf),  # never returned
    (resonant_system(5e-324, 0.0, -1e-300), (-23.9, -143.6, math.inf), math.inf),
    (resonant_system(5e-324, 0.0, -1e-300), (-23.9, -143.6, math.inf), 8.0 * math.pi),
    (resonant_system(1.0, 0.04, 1.0), (219.892, 8.431, 0.0), -1.0),
    (resonant_system(1.0, 0.04, 1.0), (219.892, 8.431, 0.0), math.nan),
    *[(resonant_system(1.0, 0.04, 1.0), s0, 8.0 * math.pi) for s0 in (
        (219.892, 8.431), (219.892, 8.431, 0.0, 0.0), "abc", "123", 1.0,
        (219.892, "a", 0.0), None)],
], ids=["infinite_window", "infinite_start_and_window", "infinite_start", "negative_window",
        "nan_window", "pair_start", "four_start", "str_start", "digit_str_start",
        "scalar_start", "str_coordinate_start", "none_start"])
def test_first_crossing_checks_its_inputs_before_the_walk(p, s0, t_max):
    # each once walked on without end or raised NoReturnError from inside the
    # walk; a NaN z, once a DivergenceError, is test_non_finite_start_is_a_domain_error's.
    # A pair start once raised a bare IndexError, a 4-tuple was read as its
    # first three coordinates, and a str or a scalar raised a bare TypeError
    with _within(5), pytest.raises(DomainError, match="must be"):
        first_crossing(p, s0, t_max)


def test_bracketed_root_out_of_steps_is_no_convergence():
    # with f' = 0 every step bisects, and 100 halvings of (-1e300, 1e300)
    # leave a bracket far wider than rounding
    with pytest.raises(NoConvergenceError, match="root not resolved"):
        _bracketed_root(lambda t: (-t, 0.0), 1.0, -1e300, 1e300)


def test_window_before_first_critical_point(desk_params):
    # the README start rises off the plane; a window that closes before the
    # first critical point of z holds no crossing, and no graze either
    s0 = (219.892, 8.431, 0.0)
    with pytest.raises(NoReturnError):
        first_crossing(desk_params, s0, 1e-300)


def test_entry_graze_rejected(params):
    # a start on a fold line is tangential; one the least subnormal off it
    # is not, but its flight rises by less than rounding, and the crossing
    # walk's touch bound rejects the entry.  From (1, 1e-14) the X flight
    # enters, where the plane cutoff 1e-10 (1 + |(x, y)|) once rejected it
    with pytest.raises(TangentialGrazeError, match="is tangential for the X field"):
        half_return_X(params, (1.0, 0.0))
    with pytest.raises(TangentialGrazeError, match="is tangential for the Y field"):
        half_return_Y(params, (0.0, 1.0))
    with pytest.raises(TangentialGrazeError, match="entry into the half-space is not"):
        half_return_X(params, (1.0, 5e-324))
    with pytest.raises(TangentialGrazeError, match="entry into the half-space is not"):
        half_return_Y(params, (5e-324, 1.0))
    assert half_return_X(params, (1.0, 1e-14)).t == 3.9407331356929047


def test_on_plane_start_that_leaves_downward_is_no_entry(params):
    # (1, -1, 0) lies on the plane, but z' = y < 0 there: the forward flight
    # does not enter the upper half-space
    with pytest.raises(TangentialGrazeError, match="entry into the half-space is not "
                                                   "transversal"):
        first_crossing(params, (1.0, -1.0, 0.0), 8.0 * math.pi)


@pytest.mark.parametrize("z0", [1e-17, 2e-17])
def test_start_within_round_off_above_the_plane_is_the_plane_start(desk_params, z0):
    # z0 - zs rounds to -zs, so the closed form reads z(0) <= 0: the start is the
    # plane start it is within round-off of, where it once raised
    # TangentialGrazeError, while z0 = 1e-16 and 0 both crossed at this t
    s0 = (1.0, 1.0, z0)
    assert z_closed_form(desk_params, s0)[0](0.0) <= 0.0
    plane = first_crossing(desk_params, (1.0, 1.0, 0.0), 8.0 * math.pi)
    assert plane[0] == 3.4731524627793853
    assert first_crossing(desk_params, s0, 8.0 * math.pi) == plane


def test_shallow_exit_is_the_scaled_crossing():
    # Lambda and the start scaled down to 1e-12 scale the whole orbit: it
    # crosses the plane with slope ~4e-11 at the Lambda = 1 root, where a
    # cutoff on the exit slope of 1e-10 (1 + |s0|) once raised
    # TangentialGrazeError
    small = first_crossing(build_system(-2.0, 1.0, 0.5, 1e-12), (0.0, 0.0, 2e-12), 8.0)
    assert small == (2.613737508100637, 4)
    assert small == first_crossing(build_system(-2.0, 1.0, 0.5, 1.0), (0.0, 0.0, 2.0), 8.0)


# the desk-case upper orbit through the visible fold point (-3, 0, 0), flowed
# back by 1.5: forward from here it touches the plane at its critical point
# t = 1.5, where z rounds to +5.6e-17
_TOUCH = (-60.326445232667744, -0.9842163968634337, 0.3808225903776076)


def test_rounded_tangency_is_passed_over(desk_params):
    # documented behaviour: a touch whose z at the critical point rounds to a
    # tiny positive value is not a crossing; the walk goes on past it
    p = desk_params
    z, dz = z_closed_form(p, _TOUCH)
    alpha, beta = math.exp(-p.C * math.pi / 2.0) * dz(math.pi / 2.0), dz(0.0)
    touch = math.atan2(-beta, alpha) % math.pi  # the first critical point of z
    assert abs(touch - 1.5) <= 1e-12 and 0.0 < z(touch) <= 1e-16
    with pytest.raises(NoReturnError):
        first_crossing(p, _TOUCH, 2.0)
    # a longer window finds the next crossing, about pi later
    t, _ = first_crossing(p, _TOUCH, 8.0 * math.pi)
    assert t == pytest.approx(5.4407331356929145, rel=1e-13)


@pytest.mark.parametrize("C, H, Lambda", [(1.0, 0.04, 1.0), (0.5, 0.1, 1.5), (-0.3, 0.2, 1.0)])
def test_touch_is_not_a_crossing_however_z_rounds(C, H, Lambda):
    # upper orbits through 61 visible fold points (x, 0, 0), flowed back by
    # tau: each touches the plane at t = tau and stays above it past
    # tau + 0.5, so that window holds no crossing, whether z rounds to a
    # positive value, zero or a negative one at the touch
    p = resonant_system(C, H, Lambda)
    for x in np.linspace(-6.0, 6.0, 61):
        for tau in (0.5, 1.0, 1.5, 2.0):
            with pytest.raises(NoReturnError):
                first_crossing(p, flow_X(p, (x, 0.0, 0.0), -tau), tau + 0.5)


def _rk4_first_crossing(field, s0, side, direction, t_max, h=2e-3):
    """Oracle: first time side * z <= 0 along the RK4 orbit, or None.

    Marches fixed RK4 steps of length h (backward when direction < 0) and
    refines the first step that reaches the plane by bisection on the length
    of a single RK4 step from its start.
    """
    s, t = np.asarray(s0, dtype=float), 0.0
    while t < t_max:
        nxt = rk4(field, s, direction * h, 1)
        if side * nxt[2] <= 0.0:
            lo, hi = 0.0, h
            for _ in range(50):
                mid = 0.5 * (lo + hi)
                if side * rk4(field, s, direction * mid, 1)[2] > 0.0:
                    lo = mid
                else:
                    hi = mid
            return t + lo
        s, t = nxt, t + h
    return None


@settings(max_examples=300, deadline=None)
@given(C=st.floats(0.01, 3.0), c_sign=st.sampled_from([1.0, -1.0]),
       A=st.floats(0.1, 5.0), a_sign=st.sampled_from([1.0, -1.0]),
       H=st.floats(-0.3, 0.99), Lambda=st.floats(0.2, 3.0),
       l_sign=st.sampled_from([1.0, -1.0]), x=st.floats(-10.0, 10.0),
       y=st.floats(-10.0, 10.0), z=st.one_of(st.just(0.0), st.floats(1e-3, 10.0)),
       tsign=st.sampled_from([1.0, -1.0]), lo=st.floats(0.0, 8.0 * math.pi),
       frac=st.floats(0.0, 1.0))
def test_fused_crossing_kernel_matches_closed_form(C, c_sign, A, a_sign, H, Lambda, l_sign,
                                                   x, y, z, tsign, lo, frac):
    # the slopes and the fused residual first_crossing builds from the z
    # coefficients against z and dz/dt of z_closed_form
    C = c_sign * C
    p = build_system(a_sign * A, C, H, l_sign * Lambda)
    s0 = (x, y, z)
    zs, wy, wz = _z_coefficients(p, s0)
    zf, dzf = z_closed_form(p, s0)
    # dz/dt = e^{Ct} (alpha sin t + beta cos t)
    alpha, beta = _slope_coefficients(C, wy, wz)
    size = abs(C * wy) + abs((C * C - 1.0) * wz) + abs(wy) + abs(2.0 * C * wz)
    assert abs(alpha - math.exp(-C * math.pi / 2.0) * dzf(math.pi / 2.0)) <= 2.0 ** -50 * size
    assert abs(beta - dzf(0.0)) <= 2.0 ** -50 * size
    # e^{C(u - u_lo)} times the residual is z(u), at u = tsign t in a bracket
    # of width pi from u_lo.  The terms of z bound its rounding; the exponent
    # C u carries a relative rounding error 2^-53, which e^{Cu} turns into a
    # relative error |C u| 2^-53 of the envelope, hence the factor 1 + |C u|
    t = lo + frac * math.pi
    u, u_lo = tsign * t, tsign * lo
    f, _ = _envelope_free(C, zs, wy, wz, tsign, u_lo)(t)
    su, cu = math.sin(u), math.cos(u)
    terms = abs(zs) + math.exp(C * u) * (abs(wy * su) + abs(wz * cu) + abs(C * wz * su))
    assert abs(f * math.exp(C * (u - u_lo)) - zf(u)) <= 2.0 ** -50 * (1.0 + abs(C * u)) * terms


_magnitude = st.floats(0.2, 6.0)


@settings(max_examples=40, deadline=None)
@given(C=st.floats(0.1, 1.5), c_sign=st.sampled_from([1.0, -1.0]),
       H=st.floats(0.02, 0.9), Lambda=st.floats(0.5, 2.0),
       x=_magnitude, y=_magnitude, z=st.floats(0.05, 3.0),
       signs=st.tuples(*[st.sampled_from([1.0, -1.0])] * 2),
       field=st.sampled_from("XY"), on_plane=st.booleans())
def test_first_crossing_matches_rk4_events(C, c_sign, H, Lambda, x, y, z, signs,
                                           field, on_plane):
    # the kernel's first root against an RK4 event oracle on the raw fields:
    # on-plane starts through half_return_* (forward and backward solves,
    # a flight past the oracle's window counts as none), off-plane starts
    # through the forward solve the simulator makes
    p = resonant_system(c_sign * C, H, Lambda)
    t_max = 2.0 * math.pi
    side = 1.0 if field == "X" else -1.0
    x, y = signs[0] * x, signs[1] * y
    if on_plane:
        s0 = np.array([x, y, 0.0])
        solve = half_return_X if field == "X" else half_return_Y
        try:
            hr = solve(p, s0[:2])
            t, direction = (hr.t if hr.t <= t_max else None), 1.0 if hr.forward else -1.0
        except NoReturnError:
            t, direction = None, (1.0 if (y if field == "X" else -x) > 0 else -1.0)
    else:
        s0 = np.array([x, y, side * z])
        direction = 1.0
        try:
            t = first_crossing(p, s0 if field == "X" else apply_involution(s0), t_max)[0]
        except NoReturnError:
            t = None
    rhs = (lambda s: eval_X(p, s)) if field == "X" else (lambda s: eval_Y(p, s))
    oracle = _rk4_first_crossing(rhs, s0, side, direction, t_max)
    if t is None:
        assert oracle is None or oracle > t_max - 1e-6
        return
    # the oracle's grid resolves only crossings that stay below the plane
    # for more than a step: keep to clearly transversal exits
    zf, dzf = z_closed_form(p, s0 if field == "X" else apply_involution(s0))
    assume(abs(dzf(direction * t)) > 1e-2 * (1.0 + np.max(np.abs(s0))))
    assert oracle is not None
    assert abs(oracle - t) <= 1e-7 * (1.0 + t)


def _mp_first_crossing(p, s0, field, t_max, direction):
    """Oracle: the first crossing of the closed-form z in (0, t_max] at 40 digits.

    Returns (root or None, condition, margin): the root by 140 bisections of
    the first bracket between the critical points of z, which it locates on
    its own (dz/dt vanishes where tan t = -(wy + 2C wz) / (C wy + (C^2 - 1) wz)).
    A kernel in doubles can only be held to well-conditioned cases: condition
    is the double round-off of z over |dz/dt| t at the root, the relative
    error a root in doubles can reach; margin is the smallest flight-side
    value of z at the points walked before it, relative to its round-off scale.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        C = mpmath.mpf(p.C)
        lam, ylike = (p.Lambda, s0[1]) if field == "X" else (-p.Lambda, s0[0])
        zs = mpmath.mpf(lam) / (1 + C * C)
        wy = mpmath.mpf(ylike) + 2 * C * zs
        wz = mpmath.mpf(s0[2]) - zs
        side = 1 if field == "X" else -1

        def g(t):  # side z(direction t): positive during the flight
            u = direction * t
            return side * (zs + mpmath.exp(C * u) * (wy * mpmath.sin(u)
                                                      + (mpmath.cos(u) + C * mpmath.sin(u)) * wz))

        def size(t):  # the magnitude of the terms z is summed from
            return abs(zs) + mpmath.exp(C * direction * t) * (abs(wy) + (1 + abs(C)) * abs(wz))

        crit = mpmath.atan2(-(wy + 2 * C * wz), C * wy + (C * C - 1) * wz) * direction
        crit = crit % mpmath.pi
        lo, smallest = mpmath.mpf(0), mpmath.inf
        k = 0
        while True:
            hi = min(crit + k * mpmath.pi, mpmath.mpf(t_max))
            if hi > lo:
                ghi = g(hi)
                if ghi <= 0:
                    break
                smallest = min(smallest, ghi / size(hi))
                lo = hi
            if hi == t_max:
                return None, 0.0, float(smallest)
            k += 1
        for _ in range(140):
            mid = (lo + hi) / 2
            if g(mid) > 0:
                lo = mid
            else:
                hi = mid
        root = (lo + hi) / 2
        u = direction * root
        dz = mpmath.exp(C * u) * (wy * (C * mpmath.sin(u) + mpmath.cos(u))
                                  + wz * ((C * C - 1) * mpmath.sin(u) + 2 * C * mpmath.cos(u)))
        return float(root), 2.2e-16 * float(size(root) / (abs(dz) * root)), float(smallest)


@settings(max_examples=60, deadline=None)
@given(C=st.floats(0.2, 2.0), c_sign=st.sampled_from([1.0, -1.0]),
       H=st.floats(0.02, 0.9), Lambda=st.floats(0.5, 2.0),
       x=_magnitude, y=_magnitude, z=st.floats(0.05, 3.0),
       x_sign=st.sampled_from([1.0, -1.0]), log_amp=st.floats(-3.0, 6.0),
       field=st.sampled_from("XY"), forward=st.booleans(), on_plane=st.booleans(),
       long_window=st.booleans())
def test_first_crossing_matches_mpmath_root(C, c_sign, H, Lambda, x, y, z, x_sign,
                                            log_amp, field, forward, on_plane, long_window):
    # the kernel's root against a 40-digit root of the same closed form, for
    # starts of amplitude 1e-3..1e6 on and off the plane, solved forward and
    # backward; a long window with C < 0 runs past t = 709/|C|, where e^{-Ct}
    # alone overflows a double
    p = resonant_system(c_sign * C, H, Lambda)
    amp = 10.0 ** log_amp
    side = 1.0 if field == "X" else -1.0
    direction = 1.0 if forward else -1.0
    # an on-plane start enters its half-space: d(side z)/d(direction t) > 0
    # at t = 0, where dz/dt is y for X and x for Y
    lie = side * direction * amp
    if field == "X":
        s0 = (x_sign * x * amp, y * lie, 0.0 if on_plane else side * z * amp)
    else:
        s0 = (x * lie, x_sign * y * amp, 0.0 if on_plane else side * z * amp)
    t_max = 1.2 * 709.0 / C if long_window and c_sign < 0 else 3.0 * math.pi
    oracle, condition, margin = _mp_first_crossing(p, s0, field, t_max, direction)
    assume(condition <= 1e-14 and margin >= 1e-9)
    try:
        t, _ = first_crossing(p, s0 if field == "X" else apply_involution(s0), t_max,
                              forward=forward)
    except NoReturnError:
        t = None
    if oracle is None:
        assert t is None
        return
    assert t is not None
    assert abs(t - oracle) <= 1e-13 * oracle


def test_desk_half_returns_take_few_root_steps(desk_params, desk_cycle):
    # the envelope-free residual started at its sinusoid's zero resolves the
    # desk cycle's flights in at most four Newton steps each
    assert half_return_X(desk_params, desk_cycle.p0).iterations <= 4
    assert half_return_Y(desk_params, desk_cycle.p0).iterations <= 4


def test_steep_flight_converges():
    # with |C| ~ 189 the envelope-free residual gave a run of equal Newton
    # steps of about 1/|C| that outlasted the step budget; rtsafe's
    # step-halving rule bisects instead
    p = build_system(377.54, -188.77, 0.586, -1.707)
    hr = half_return_X(p, (2.306, 0.0538))
    assert hr.iterations < 100
    assert hr.residual <= 1e-12 * (1.0 + np.linalg.norm(hr.end))


def test_fold_adjacent_flight_stops_at_the_round_off_floor():
    # p0 lies next to the X fold, and the crossing residual of the lower
    # flight into it reaches its round-off floor inside the walk's bracket:
    # the Newton steps from there repeat, and the refused one is not
    # replaced by a bisection of the whole bracket, which took 52 root steps
    # to creep back to the same root
    p = resonant_system(1.2633455052511948, 0.0008296823578684316, 0.7756086774217441)
    cycle = find_cycle_newton(p)
    hry = half_return_Y(p, cycle.p0)
    assert hry.iterations <= 12
    assert abs(hry.t - cycle.t_x) <= 1e-13 * cycle.t_x


def test_non_finite_start_is_a_domain_error(desk_params):
    # a NaN start once made the crossing walk loop forever (its phase is NaN,
    # so the walk never reached the window end), or gave a NaN end
    for solve, start in ((half_return_X, (1.0, math.nan)), (half_return_Y, (math.nan, 1.0)),
                         (half_return_X, (math.nan, 1.0)), (half_return_Y, (1.0, math.inf))):
        with pytest.raises(DomainError):
            solve(desk_params, start)
    with pytest.raises(DomainError):
        first_crossing(desk_params, (1.0, 1.0, math.nan), 8.0 * math.pi)


@pytest.mark.parametrize("p, start", [
    (build_system(226.0, 0.39, 0.12, -2.7), (6.7, 569.0)),  # inf - inf: a NaN end
    (build_system(-400.0, -30.0, 0.3, 1.5), (1.2, -85.0)),  # e^{At} overflows
])
def test_flight_leaving_the_float_range_is_a_divergence(p, start):
    # the crossing time resolves in range, but the end state of the flight does not
    with pytest.raises(DivergenceError):
        half_return_X(p, start)


def _signed(magnitude):
    return st.tuples(st.sampled_from([1.0, -1.0]), magnitude).map(lambda sm: sm[0] * sm[1])


def _decades(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


def _or_error(call):
    try:
        return call()
    except TwofoldError as exc:
        return type(exc)


def _plane_solves(p, x, y, z, forward, scale):
    """The plane solves at p from (x, y) and (x, y, z), each length divided by
    scale, or the error class each raises."""
    q = (x, y)

    def flight(solve):
        hr = solve(p, q)
        return hr.t, hr.end[0] / scale, hr.end[1] / scale, hr.forward, hr.iterations

    return [
        _or_error(lambda: first_crossing(p, (x, y, z), 8.0 * math.pi, forward=forward)),
        _or_error(lambda: classify_point(q)),
        _or_error(lambda: flight(half_return_X)),
        _or_error(lambda: flight(half_return_Y)),
        _or_error(lambda: tuple(v / scale for v in return_map(p, (abs(x), abs(y))))),
        _or_error(lambda: time_matching(p, 1.0 / (scale + abs(y)))),  # y0 = scale + |y|
        _or_error(lambda: saltation(p, q, "XtoY" if forward else "YtoX").tolist()),
    ]


@settings(max_examples=300, deadline=None)
@given(C=_signed(st.floats(0.05, 3.0)), H=st.floats(0.01, 0.99),
       Lambda=_signed(st.floats(0.2, 3.0)), x=st.floats(-50.0, 50.0),
       y=st.floats(-50.0, 50.0), z=st.one_of(st.just(0.0), st.floats(1e-3, 50.0)),
       forward=st.booleans(), k=st.integers(-40, 40))
@example(C=1.0, H=0.5, Lambda=1.0, x=0.0, y=0.0, z=2.0, forward=True, k=-40)
@example(C=1.0, H=0.5, Lambda=1.0, x=1.0, y=1e-9, z=0.0, forward=True, k=-40)
def test_first_crossing_is_equivariant_under_power_of_two_scaling(C, H, Lambda, x, y, z,
                                                                  forward, k):
    # Lambda -> 2^k Lambda, s -> 2^k s maps orbits onto orbits with the same
    # times, and every quantity of the crossing walk scales exactly: the
    # scaled start crosses at the same t in as many steps, bit for bit, or
    # raises the same error.  So do the plane's classification, both
    # half-returns, the return map, the time matching at the branch point
    # y0 -> 2^k y0 and the saltation matrix, now that zero is the only
    # tangency: the plane cutoff 1e-10 (1 + |(x, y)|) once called (1, 1e-9)
    # a crossing point and its 2^-40 image a tangency
    scale = 2.0 ** k
    base = _plane_solves(resonant_system(C, H, Lambda), x, y, z, forward, 1.0)
    scaled = _plane_solves(resonant_system(C, H, scale * Lambda), scale * x, scale * y,
                           scale * z, forward, scale)
    assert scaled[0] == base[0]
    # a subnormal coordinate loses bits when scaled down, and its sign may
    # round away: the plane solves keep the symmetry where no coordinate is one
    if all(v == 0.0 or abs(v) >= 2.0 ** -960 for v in (x, y)):
        assert scaled == base


@settings(max_examples=1000, deadline=None)
@given(C=_signed(_decades(-0.5, 2.7)), A=st.one_of(st.none(), _signed(_decades(-0.5, 2.8))),
       H=st.floats(-0.3, 0.99), Lambda=_signed(st.floats(0.2, 3.0)),
       q=st.tuples(_signed(_decades(-2.0, 3.0)), _signed(_decades(-2.0, 3.0))),
       call=st.sampled_from(["X", "Y", "return_map"]))
def test_half_return_is_finite_or_typed(C, A, H, Lambda, q, call):
    # over stiff parameters and starts of five decades, a half-return or the
    # return map answers with finite values or a TwofoldError, never a bare
    # OverflowError or a NaN
    p = build_system(-2.0 * C if A is None else A, C, H, Lambda)
    try:
        if call == "return_map":
            values = list(return_map(p, np.abs(q)))
        else:
            hr = (half_return_X if call == "X" else half_return_Y)(p, q)
            values = [hr.t, *hr.end]
    except TwofoldError:
        return
    assert all(map(math.isfinite, values))


def test_time_matching_table_schema(params):
    rows = time_matching_table(params, [1e-3, 1e-4])
    assert [r["v0"] for r in rows] == [1e-3, 1e-4]
    for row in rows:
        assert abs(row["tau_x_numeric"] - row["tau_x_series"]) <= 1e-6
        assert abs(row["tau_y_numeric"] - row["tau_y_series"]) <= 1e-5
        assert np.isclose(row["tau"], row["tau_x_numeric"] - row["tau_y_numeric"])


@pytest.mark.parametrize("v0", [-1e-3, 0.0, math.inf, math.nan])
@pytest.mark.parametrize("matching", [time_matching, lambda p, v0: time_matching_table(p, [v0])],
                         ids=["time_matching", "time_matching_table"])
def test_time_matching_rejects_v0_outside_the_positive_reals(params, matching, v0):
    # y0 = 1/v0 would be negative, a division by zero or the fold y0 = 0
    with pytest.raises(DomainError, match="v0 must be positive and finite"):
        matching(params, v0)


@pytest.mark.parametrize("matching", [time_matching, lambda p, v0: time_matching_table(p, [v0])],
                         ids=["time_matching", "time_matching_table"])
def test_time_matching_v0_range_ends(params, matching):
    # 1e-320 is positive and finite, but y0 = 1/v0 overflows to inf; from
    # 1e-154 down y0 is finite but the branch point's x^2 overflows; at
    # v0 = 1e12, y0 = 1e-12 lies next to the X fold: the start is transversal,
    # where the plane cutoff once called it tangential, and the backward Y
    # flight from it finds no crossing in the window
    with pytest.raises(DomainError, match=r"^v0 = 1e-320 is too small: y0 = 1/v0 overflows"):
        matching(params, 1e-320)
    for v0 in (1e-154, 1e-155, 1e-200, 1e-308):
        with pytest.raises(DomainError, match="is too large: the conic residual"):
            matching(params, v0)
    with pytest.raises(NoReturnError, match="no crossing of z = 0 within"):
        matching(params, 1e12)


@pytest.mark.parametrize("call, arg, message", [
    (gamma1_branch_x, np.float64(1e155), r"^y = 1e\+155 is too large: the conic residual"),
    (time_matching, np.float64(1e-155), r"^y = 1e\+155 is too large: the conic residual"),
    (time_matching, np.float64(1e-320), r"^v0 = 1e-320 is too small: y0 = 1/v0 overflows"),
], ids=["branch_x-1e155", "time_matching-1e-155", "time_matching-1e-320"])
def test_numpy_scalar_at_the_overflow_edge_is_a_domain_error(params, call, arg, message):
    # a NumPy scalar meets the same guard as a float: the overflow to inf is
    # typed, not a RuntimeWarning from scalar arithmetic on the way there
    with pytest.raises(DomainError, match=message):
        call(params, arg)
