import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from twofold import (asymptotic_seed, build_system, critical_h, cycles, eval_P_X,
                     find_cycle_newton, gamma1_branch_x, gamma1_conic, half_return_X,
                     half_return_Y, iterate_reduced_map, monodromy, resonant_system,
                     return_map, returns, scan_cycles, schur_conditions, series_coeffs,
                     time_matching)
from twofold.cycles import _branch_point, _graze
from twofold.errors import (DivergenceError, DomainError, NoCycleError, NotACycleError,
                            SymmetryDefectError, TangentialGrazeError, TwofoldError)
from twofold.flow import _phi_rows
from twofold.returns import _flight
from oracles import closure_residual, fd_jacobian, measure_contraction


def test_closure_residual_vanishes_at_cycle(desk_params, desk_cycle):
    r = closure_residual(desk_params, desk_cycle.p0[1])
    assert np.linalg.norm(r) <= 1e-9


def test_closure_residual_single_sign_change(desk_params, desk_cycle):
    y_star = desk_cycle.p0[1]
    ys = np.linspace(0.8 * y_star, 1.2 * y_star, 41)
    rs = np.array([closure_residual(desk_params, float(y))[0] for y in ys])
    assert np.count_nonzero(rs[:-1] * rs[1:] < 0) == 1


def test_cycle_invariants(desk_params, desk_cycle):
    # the second cycle meets the plane next to a fold line (|x1| ~ 5e-4),
    # where z dips past the plane only briefly
    p = resonant_system(0.3635611966321479, 0.036818603210992715, 1.0427654887320235)
    for params, c in ((desk_params, desk_cycle),
                      (p, find_cycle_newton(p, asymptotic_seed(p)))):
        scale = 1.0 + np.abs(c.p0).max()
        assert np.allclose(c.p1, [-c.p0[1], -c.p0[0]], atol=1e-8 * scale)
        assert abs(c.t_x - c.t_y) <= 1e-9 * c.T
        conic = gamma1_conic(params)
        assert abs(conic.evaluate(*c.p0)) <= 1e-8 * scale * scale
        assert abs(conic.evaluate(*c.p1)) <= 1e-8 * scale * scale
        pa = eval_P_X(params, [c.p0[0], c.p0[1], 0.0])
        pb = eval_P_X(params, [c.p1[0], c.p1[1], 0.0])
        assert abs(pa - pb) <= 1e-8 * abs(pa)


def test_symmetry_cross_check(desk_params, desk_cycle):
    # the lower half-orbit leaving p1 lands back on p0
    hry = half_return_Y(desk_params, desk_cycle.p1)
    assert hry.forward
    scale = 1.0 + np.abs(desk_cycle.p0).max()
    assert np.allclose(hry.end, desk_cycle.p0, atol=1e-8 * scale)


def test_cycle_matches_time_matching_zero(desk_params, desk_cycle):
    v0 = 1.0 / desk_cycle.p0[1]
    assert abs(time_matching(desk_params, v0)) <= 1e-10


def test_perturbative_slope_brings_a_cycle():
    for delta in (0.1, 0.02):
        hc = float(critical_h(1.0))
        p = resonant_system(1.0, (1.0 - delta) * hc, 1.0)
        cycle = find_cycle_newton(p, asymptotic_seed(p))
        assert cycle.residual <= 1e-9 * (1.0 + cycle.p0[1])


def test_no_asymptotic_zero_at_critical_slope():
    p = resonant_system(1.0, float(critical_h(1.0)), 1.0)
    # the head coefficient vanishes (to rounding) and the matching function
    # keeps one sign on the asymptotic window: no positive zero there
    assert abs(series_coeffs(p).gamma1) <= 1e-12
    values = [time_matching(p, v) for v in np.geomspace(1e-5, 1e-2, 10)]
    assert all(v < 0 for v in values) or all(v > 0 for v in values)


def test_no_seed_above_critical_slope():
    # just above the critical slope both head coefficients are negative,
    # so the series head has no positive zero
    p = resonant_system(1.0, 1.01 * float(critical_h(1.0)), 1.0)
    assert asymptotic_seed(p) is None


def test_iterate_fixed_point_is_constant(desk_params, desk_cycle):
    orbit = iterate_reduced_map(desk_params, desk_cycle.p0[1], 5)
    scale = 1.0 + np.abs(desk_cycle.p0).max()
    for q in orbit:
        assert np.allclose(q, desk_cycle.p0, atol=1e-7 * scale)


def test_iterate_converges_inside_band(desk_params, desk_cycle, desk_monodromy):
    orbit = iterate_reduced_map(desk_params, 1.01 * desk_cycle.p0[1], 60)
    dists = [np.linalg.norm(q - desk_cycle.p0) for q in orbit]
    assert dists[-1] < 1e-6 * dists[1]
    rho = max(abs(desk_monodromy.multipliers[1]), abs(desk_monodromy.multipliers[2]))
    rate = measure_contraction(lambda q: return_map(desk_params, q),
                               desk_cycle.p0,
                               [gamma1_branch_x(desk_params, 1.01 * desk_cycle.p0[1]),
                                1.01 * desk_cycle.p0[1]])
    assert abs(rate - rho) <= 0.2 * rho


def test_iterate_diverges_above_upper_boundary():
    p = resonant_system(1.0, 1.3 * float(critical_h(1.0)), 1.0)
    with pytest.raises(DivergenceError):
        iterate_reduced_map(p, 200.0, 100)


def test_return_map_orientation_guard(desk_params):
    with pytest.raises(ValueError):
        return_map(desk_params, (-3.0, -2.0))


@settings(max_examples=40, deadline=None)
@given(C=st.floats(0.25, 2.0), h_frac=st.floats(0.05, 0.99), Lambda=st.floats(0.5, 2.0))
def test_half_map_invariants_match_direct_monodromy_and_fd(C, h_frac, Lambda):
    # the return map is g o g with g = S h_X, so Dg^2 carries the transverse
    # multipliers: its invariants must match the direct 3x3 composition, and
    # its eigenvalues a finite-difference Jacobian of the return map
    p = resonant_system(C, float(critical_h(C)) * h_frac, Lambda)
    try:
        cycle = find_cycle_newton(p, asymptotic_seed(p))
    except TwofoldError:
        assume(False)
    report = monodromy(p, cycle)
    dg = np.reshape(cycle.dg, (2, 2))
    tr_g, det_g = np.trace(dg), np.linalg.det(dg)
    trace, det = 1.0 + tr_g * tr_g - 2.0 * det_g, det_g * det_g
    direct_trace, direct_det = np.trace(report.matrix), np.linalg.det(report.matrix)
    scale = max(abs(trace), abs(det), 1.0)
    assert abs(direct_trace - trace) <= 1e-9 * scale
    assert abs(direct_det - det) <= 1e-9 * scale
    h = 1e-6 * (1.0 + np.linalg.norm(cycle.p0))
    fd = fd_jacobian(lambda q: return_map(p, q), cycle.p0, h)
    fd_eigs = np.sort_complex(np.linalg.eigvals(fd))
    half_map_eigs = np.sort_complex(np.linalg.eigvals(dg @ dg))
    assert np.max(np.abs(fd_eigs - half_map_eigs)) <= 1e-5
    assert schur_conditions(trace, det) == schur_conditions(direct_trace, direct_det)


def test_desk_newton_half_return_count(desk_params, desk_cycle, monkeypatch):
    # the solve in t flies nothing; the one kernel flight is the checking Y one
    calls = []
    original = returns._flight

    def counting(*args):
        calls.append(args[3])
        return original(*args)

    for module in (returns, cycles):  # every name the shared kernel is bound to
        monkeypatch.setattr(module, "_flight", counting)
    find_cycle_newton(desk_params, asymptotic_seed(desk_params))
    assert calls == ["Y"]
    half_return_X(desk_params, desk_cycle.p0)
    half_return_Y(desk_params, desk_cycle.p0)
    assert calls == ["Y", "X", "Y"]  # the public half-returns fly the same kernel


@settings(max_examples=40, deadline=None)
@given(C=st.floats(0.25, 2.0), h_frac=st.floats(0.02, 0.995), Lambda=st.floats(0.5, 2.0))
def test_started_check_flight_is_the_lower_orbits_own_crossing(C, h_frac, Lambda):
    # the cycles workload's distribution: Newton started at t_x reaches the
    # root an unstarted half_return_Y finds, and so does a start elsewhere in
    # the one-root bracket or outside it (ignored); a branch point off the
    # cycle still fails the checks, so the started flight does not copy t_x
    p = resonant_system(C, float(critical_h(C)) * h_frac, Lambda)
    seed = asymptotic_seed(p)
    try:
        cycle = find_cycle_newton(p, seed)
    except NoCycleError:
        assume(False)
    x0, y0 = cycle.p0
    hry = half_return_Y(p, cycle.p0)
    t, end, *_ = _flight(p, x0, y0, "Y", cycle.t_x)
    assert t == pytest.approx(hry.t, rel=1e-13)
    assert np.max(np.abs(np.array(end) - hry.end)) <= 1e-10 * (1.0 + np.abs(cycle.p0).max())
    for start in (cycle.t_x - 0.05, cycle.t_x + 0.05, 0.0, 9.0 * math.pi):
        assert _flight(p, x0, y0, "Y", start)[0] == pytest.approx(hry.t, rel=1e-13)
    solve_branch = cycles._solve_branch

    def off_the_cycle(*args):
        t_x, x0, y0 = solve_branch(*args)
        return t_x, x0 * (1.0 + 1e-6), y0

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cycles, "_solve_branch", off_the_cycle)
        with pytest.raises(NotACycleError):
            find_cycle_newton(p, seed)


def test_near_graze_outcomes_are_cycles_or_typed():
    # H just above the graze end of the band, where p0 sits next to the X
    # fold: the checking flight keeps the half-return guards, so every
    # outcome is a cycle or a TwofoldError, never a bare exception
    rng = np.random.default_rng(7)
    found = 0
    for C, Lambda, s in zip(rng.uniform(0.25, 2.0, 300), rng.uniform(0.5, 2.0, 300),
                            10.0 ** rng.uniform(-9.0, -1.0, 300)):
        h_graze = _graze(resonant_system(C, 0.5, Lambda))[1]
        p = resonant_system(C, h_graze + s * (float(critical_h(C)) - h_graze), Lambda)
        try:
            monodromy(p, find_cycle_newton(p, asymptotic_seed(p)))
            found += 1
        except TwofoldError:
            pass
    assert found > 0


def _branch_oracle(p, t, fold=False):
    """(x0, y0, H(t)) of the branch point at time t in 60-digit arithmetic,
    built the long way: the entries of exp(DX t), the stationary point, the
    offset dv = y0 - ys from z(t) = 0 and the H part of x(t).  ``fold``
    moves t to the root of cos t - C sin t = e^{-Ct} near it and sets y0 = 0."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        A, C, H, L = (mpmath.mpf(v) for v in (p.A, p.C, p.H, p.Lambda))
        t = mpmath.mpf(t)
        if fold:
            t = mpmath.findroot(lambda u: mpmath.cos(u) - C * mpmath.sin(u) - mpmath.exp(-C * u),
                                t)
        (e_at, p01, p02), (_, p11, p12), (_, p21, p22) = _phi_rows(p, t, mpmath.exp,
                                                                   mpmath.sin, mpmath.cos)
        zs = L / (1 + C * C)
        xs, ys = H * (A - 2 * C) * zs, -2 * C * zs
        dv = -ys if fold else zs * (p22 - 1) / p21
        x0 = -(ys + p11 * dv - p12 * zs)
        h_part = xs * (1 - e_at) + p01 * dv - p02 * zs
        return float(x0), float(ys + dv), float(H * (-ys - dv - e_at * x0) / h_part)


@pytest.mark.parametrize("C", [10.0, 100.0])
def test_graze_end_of_the_band_is_resolved_at_large_c(C):
    # y0 + e^{At} x0 cancels at the fold in the long construction; the closed
    # form H_graze = e^{A t_graze} keeps its sign and digits, and the
    # NoCycleError names a positive band
    t_graze, h_graze = _graze(resonant_system(C, 0.5, 1.0))
    oracle = _branch_oracle(resonant_system(C, 0.5, 1.0), t_graze, fold=True)[2]
    assert h_graze == pytest.approx(oracle, rel=1e-12)
    p = resonant_system(C, 2.0 * float(critical_h(C)), 1.0)
    with pytest.raises(NoCycleError, match=r"band \(H_graze, H_crit\) = \(\d"):
        find_cycle_newton(p)


def test_graze_end_at_the_edge_of_the_chart_names_the_band():
    # from C = 225.65 e^{Ct} of the long construction overflowed at t_graze,
    # about pi + 1 / C, though C pi is inside the chart: a bare OverflowError
    # there and a DomainError at C = 225.  H_graze = e^{A t_graze} underflows
    # to 0 instead, and H = 0.5 lies above the band
    for C, h_crit in ((225.0, "1.03591e-307"), (225.65, "1.34424e-308"),
                      (225.68, "1.22333e-308")):
        with pytest.raises(NoCycleError, match=rf"band \(H_graze, H_crit\) = \(0, {h_crit}\) "):
            find_cycle_newton(resonant_system(C, 0.5, 1.0))


def test_branch_at_a_tiny_c_has_an_empty_band():
    # at a tiny C, H_graze = e^{A t_graze} and H_crit both round to 1.  With a
    # subnormal Lambda the H part of the long construction underflowed to 0:
    # once a bare ZeroDivisionError, then a DomainError
    p = resonant_system(5.619557498025321e-149, 1.7677918110819456e-08, 1e-320)
    with pytest.raises(NoCycleError, match=r"band \(H_graze, H_crit\) = \(1, 1\) "):
        find_cycle_newton(p)
    entries = scan_cycles(resonant_system(1e-320, 0.5, 1e-320), [0.25, 0.5])
    assert [e.error_kind for e in entries] == ["NoCycleError"] * 2


@pytest.mark.parametrize("y0_init", [math.nan, math.inf])
def test_non_finite_seed_is_a_domain_error(desk_params, y0_init):
    with pytest.raises(DomainError, match="seed"):
        find_cycle_newton(desk_params, y0_init)


def test_unseeded_solve_finds_the_same_cycle(desk_params, desk_cycle):
    # with no seed the solve starts from the linearisation at H_crit and
    # lands on the same cycle, closed to round-off
    cycle = find_cycle_newton(desk_params)
    assert cycle.p0 == pytest.approx(desk_cycle.p0, rel=1e-12)
    assert cycle.residual <= 1e-10 * (1.0 + cycle.p0[1])


def _p0_from_every_start(p):
    """p0 of find_cycle_newton(p, y0) for y0 in None, the series seed, 20 and
    1e3, or the error class name where the solve raises."""
    out = []
    for y0 in (None, asymptotic_seed(p), 20.0, 1e3):
        try:
            out.append(find_cycle_newton(p, y0).p0)
        except TwofoldError as exc:
            out.append(type(exc).__name__)
    return out


@settings(max_examples=40, deadline=None)
@given(C=st.floats(0.25, 2.0), u=st.floats(0.02, 0.995), Lambda=st.floats(0.5, 2.0))
@example(C=1.0, u=0.04 / float(critical_h(1.0)), Lambda=1.0)  # the desk case
def test_every_start_lands_on_the_same_cycle(C, u, Lambda):
    # the cycle is the one root of H(t) = H on a monotone branch, so a start
    # value only moves where Newton begins: every start gives the same p0,
    # or every start raises the same error
    p = resonant_system(C, float(critical_h(C)) * u, Lambda)
    first, *rest = _p0_from_every_start(p)
    if isinstance(first, str):
        assert rest == [first] * 3
        return
    for p0 in rest:
        assert not isinstance(p0, str), p0
        assert p0 == pytest.approx(first, rel=1e-9)


def test_no_sign_change_raises_no_cycle_error():
    # far below H_crit, under H_graze: the closure residual keeps one sign on
    # the whole branch, and the error names the band of the closed form
    p = resonant_system(0.4821269240890028, 0.014054134847196956, 1.3221941688154804)
    with pytest.raises(NoCycleError, match=r"^no symmetric crossing cycle: H = 0\.0140541 lies "
                       r"outside the band \(H_graze, H_crit\) = \(0\.0147509, 0\.265414\)"):
        find_cycle_newton(p, asymptotic_seed(p))
    assert all(closure_residual(p, float(y))[0] > 0.0 for y in np.geomspace(1e-6, 1e6, 60))


@settings(max_examples=40, deadline=None)
@given(C=st.floats(0.25, 2.0), h_frac=st.floats(0.02, 1.3), Lambda=st.floats(0.5, 2.0),
       seeded=st.booleans())
def test_no_cycle_error_only_without_sign_change(C, h_frac, Lambda, seeded):
    # NoCycleError comes from the band of the closed form: a dense oracle scan
    # of the conic branch must agree that the closure residual of the X
    # kernel never changes sign; unseeded solves start in t on their own
    H = float(critical_h(C)) * h_frac
    assume(0.0 < H < 1.0)
    p = resonant_system(C, H, Lambda)
    try:
        cycle = find_cycle_newton(p, asymptotic_seed(p) if seeded else None)
    except NoCycleError:
        rs = []
        for y in np.geomspace(1e-9, 1e6, 400):
            try:
                rs.append(closure_residual(p, float(y))[0])
            except TwofoldError:
                continue
        assert all(r > 0.0 for r in rs) or all(r < 0.0 for r in rs)
        return
    y0 = cycle.p0[1]
    assert abs(closure_residual(p, y0)[0]) <= 1e-10 * (1.0 + y0)


@settings(max_examples=60, deadline=None)
@given(C=st.floats(0.1, 3.0), A=st.one_of(st.just(None), st.floats(-3.0, -0.5)),
       Lambda=st.floats(0.5, 2.0), u=st.floats(0.001, 0.999))
def test_branch_point_is_a_fixed_point_of_the_kernel_half_map(C, A, Lambda, u):
    # the closed-form branch point at time t, with H = H(t), is flown by the
    # crossing kernel in time t onto its involution image, for the resonant
    # A = -2C (None) and off it; x0 and y0 do not depend on H
    A = -2.0 * C if A is None else A
    base = build_system(A, C, 0.5, Lambda)
    t_graze, _ = _graze(base)  # y0(t), and so t_graze, depend on C alone
    t = math.pi + u * (t_graze - math.pi)
    x0, y0, h = _branch_point(base, t)
    hrx = half_return_X(build_system(A, C, h, Lambda), (x0, y0))
    scale = 1.0 + max(abs(x0), abs(y0))
    assert abs(hrx.t - t) <= 1e-12 * t
    assert np.max(np.abs(hrx.end - [-y0, -x0])) <= 1e-12 * scale


@settings(max_examples=40, deadline=None)
@given(C=st.floats(0.25, 2.0), h_frac=st.floats(0.02, 0.995), Lambda=st.floats(0.5, 2.0))
def test_cycle_lies_on_the_branch_at_its_flight_time(C, h_frac, Lambda):
    # the cycles workload's distribution: H(t_x) gives back H, and p0 lies on
    # the conic branch of the first integral, an oracle the solve never uses
    p = resonant_system(C, float(critical_h(C)) * h_frac, Lambda)
    try:
        cycle = find_cycle_newton(p, asymptotic_seed(p))
    except NoCycleError:
        assume(False)
    x0, y0, h = _branch_point(p, cycle.t_x)
    assert h == pytest.approx(p.H, rel=1e-12)
    assert (x0, y0) == pytest.approx(tuple(cycle.p0), rel=1e-15)
    assert gamma1_branch_x(p, y0) == pytest.approx(x0, rel=1e-9)


@pytest.mark.parametrize("Lambda", [0.5, 1.0, 2.0])
def test_branch_h_does_not_depend_on_lambda(Lambda):
    # nor on the H the system carries
    for H in (0.04, 0.3):
        h = _branch_point(resonant_system(1.0, H, Lambda), 3.5)[2]
        assert h == pytest.approx(0.0188133961741854, rel=1e-14)


@pytest.mark.parametrize("C", np.geomspace(0.01, 3.0, 9))
def test_branch_h_starts_at_the_critical_slope(C):
    # at A = -2C, H(pi+) = (1 + e^{-pi C})^2 / d(pi) = 1 / (2 cosh(pi C) - 1)
    h = _branch_point(resonant_system(C, 0.5, 1.0), math.pi + 1e-12)[2]
    assert h == pytest.approx(float(critical_h(C)), rel=1e-10)


@settings(max_examples=60, deadline=None)
@given(C=st.floats(0.25, 2.0), Lambda=st.floats(0.5, 2.0), e=st.floats(-6.0, 0.0))
def test_closed_form_branch_matches_the_long_construction(C, Lambda, e):
    # the three closed forms against exp(DX t), dv and the H part evaluated
    # in 60 digits, at times dense towards t_graze, where y0 -> 0 and only
    # its error relative to the size of p0 stays at round-off
    p = resonant_system(C, 0.5, Lambda)
    t_graze, _ = _graze(p)
    t = math.pi + (1.0 - 10.0 ** e) * (t_graze - math.pi)
    assume(math.pi < t < t_graze)
    (x0, y0, h), (ox0, oy0, oh) = _branch_point(p, t), _branch_oracle(p, t)
    assert x0 == pytest.approx(ox0, rel=1e-12)
    assert abs(y0 - oy0) <= 1e-12 * math.hypot(ox0, oy0)
    assert h == pytest.approx(oh, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(C=st.floats(0.05, 3.0), A=st.one_of(st.just(None), st.floats(-6.0, -0.05)))
def test_branch_h_is_strictly_decreasing(C, A):
    # the band (H_graze, H_crit) is exact because H(t) is monotone across the
    # branch (for A < 0; it increases for A > 0); the first of 400 interior
    # times lies below the resonant limit H_crit
    A = -2.0 * C if A is None else A
    p = build_system(A, C, 0.5, 1.0)
    t_graze, h_graze = _graze(p)
    ts = np.linspace(math.pi, t_graze, 402)[1:-1]
    hs = [_branch_point(p, float(t))[2] for t in ts]
    assert all(a > b for a, b in zip(hs, hs[1:]))
    assert hs[-1] > h_graze
    if A == -2.0 * C:
        assert hs[0] < float(critical_h(C))


@settings(max_examples=60, deadline=None)
@given(C=st.floats(0.05, 20.0), e=st.floats(-6.0, 0.0))
def test_branch_residual_keeps_its_bracket_and_its_slope(C, e):
    # the root kernel solves f = d (H(t) - H) on (pi, 2 pi - atan C): past
    # t_graze H(t) stays at or below H_graze, so f <= 0 from the root to the
    # bracket's end whenever H > H_graze.  t_graze itself is left out: q
    # rounds about 1e-16 off 0 there, and at large C that alone lifts
    # H(t_graze) above e^{A t_graze}.  The exact f' of the residual matches
    # a central difference of f at dense t over the whole bracket
    p = resonant_system(C, float(critical_h(C)) * 10.0 ** e, 1.0)
    t_graze, h_graze = _graze(p)
    top = 2.0 * math.pi - math.atan(C)
    for t in np.linspace(t_graze, top, 402)[1:-1]:
        assert _branch_point(p, float(t))[2] <= h_graze
    fdf = cycles._branch_residual(p)
    for t in np.linspace(math.pi, top, 202)[1:-1]:
        t, dt = float(t), 1e-6 * float(t)
        central = (fdf(t + dt)[0] - fdf(t - dt)[0]) / (2.0 * dt)
        assert central == pytest.approx(fdf(t)[1], rel=1e-7)


def test_branch_root_below_the_rounding_of_h_ends_in_the_check_flight():
    # at C = 7.439, H = 1.15e-16 both terms of n = e^{At} r - q are tiny
    # near the root, and H(t) carries a rounding of about 3e-10 relative: a
    # stop test on |H(t) / H - 1| <= 1e-10 once raised NoConvergenceError
    # here.  The kernel stops on its step in t, at the root to that
    # rounding, and the check flight from p0 finds its exit tangential
    p = resonant_system(7.439, 1.15e-16, 1.0)
    for seed in (asymptotic_seed(p), None):
        t, x0, y0 = cycles._solve_branch(p, seed)
        assert y0 > 0.0
        assert _branch_point(p, t)[2] == pytest.approx(p.H, rel=1e-9)
        with pytest.raises(TangentialGrazeError, match="exit transversality"):
            find_cycle_newton(p, seed)


def _solves_past_c_4():
    """(p, cycle or error class name) of the series-seeded solve on 600
    seeded draws with C log-uniform on [4, 20], H / H_crit = 10^U(-6, 0)
    and Lambda = 1."""
    rng = np.random.default_rng(2026)
    Cs = 10.0 ** rng.uniform(math.log10(4.0), math.log10(20.0), 600)
    out = []
    for C, e in zip(Cs, rng.uniform(-6.0, 0.0, 600)):
        p = resonant_system(float(C), float(critical_h(C)) * 10.0 ** e, 1.0)
        try:
            out.append((p, find_cycle_newton(p, asymptotic_seed(p))))
        except TwofoldError as exc:
            out.append((p, type(exc).__name__))
    return out


def test_branch_solve_converges_past_c_4():
    # the flight time is the kernel's root on every draw: a 1e-10 stop test
    # on H(t) / H - 1 raised NoConvergenceError on 44 of these draws.  What
    # remains are typed outcomes of the check flight
    kinds = [c if isinstance(c, str) else "cycle" for _, c in _solves_past_c_4()]
    assert "NoConvergenceError" not in kinds
    assert kinds.count("cycle") > 0


@pytest.mark.xfail(strict=True, raises=SymmetryDefectError,
                   reason="monodromy's 1e-9 reduction bound fails on cycles at C 4-5.5")
def test_every_cycle_past_c_4_passes_monodromy():
    for p, cycle in _solves_past_c_4():
        if not isinstance(cycle, str):
            monodromy(p, cycle)


@settings(max_examples=40, deadline=None)
@given(C=st.floats(0.25, 2.0), s=st.floats(-0.5, 1.5), Lambda=st.floats(0.5, 2.0))
def test_no_cycle_error_exactly_outside_the_band(C, s, Lambda):
    # s places H across the band: a cycle inside it, NoCycleError outside.
    # Within 1e-5 of H_graze the cycle's start lies so close to the X fold
    # that the checking Y flight can see a touch there, so both ends keep
    # that margin
    h_crit = float(critical_h(C))
    h_graze = _graze(resonant_system(C, 0.5, Lambda))[1]
    H = h_graze + s * (h_crit - h_graze)
    assume(0.0 < H < 1.0 and min(abs(s), abs(s - 1.0)) > 1e-5)
    p = resonant_system(C, H, Lambda)
    if 0.0 < s < 1.0:
        cycle = find_cycle_newton(p, asymptotic_seed(p))
        assert cycle.p0[1] > 0.0
    else:
        with pytest.raises(NoCycleError, match=r"outside the band \(H_graze, H_crit\)"):
            find_cycle_newton(p, asymptotic_seed(p))


@settings(max_examples=40, deadline=None)
@given(C=st.floats(0.25, 2.0), h_frac=st.floats(0.02, 0.995), Lambda=st.floats(0.5, 2.0))
def test_closed_form_dg_matches_the_kernel_half_map(C, h_frac, Lambda):
    # Dg of the solve against a central-difference Jacobian of the kernel
    # half map g(q) = S h_X(q) at p0
    p = resonant_system(C, float(critical_h(C)) * h_frac, Lambda)
    try:
        cycle = find_cycle_newton(p, asymptotic_seed(p))
    except NoCycleError:
        assume(False)
    # the stencil stays well inside the ascending side of the fold y = 0
    step = min(1e-7 * (1.0 + np.abs(cycle.p0).max()), 1e-2 * cycle.p0[1])
    fd = fd_jacobian(lambda q: -half_return_X(p, q).end[::-1], cycle.p0, step).reshape(-1)
    dg = np.array(cycle.dg)
    assert np.max(np.abs(dg - fd)) <= 1e-4 * max(1.0, np.max(np.abs(dg)))


def test_scan_catalogue():
    base = resonant_system(1.0, 0.5, 1.0)
    hc = float(critical_h(1.0))
    grid = np.linspace(0.6 * hc, 0.99 * hc, 8)
    entries = scan_cycles(base, grid)
    assert all(e.error is None for e in entries)
    amplitudes = [e.cycle.p0[1] for e in entries]
    assert all(a < b for a, b in zip(amplitudes, amplitudes[1:]))
    for e in entries:
        scale = 1.0 + np.abs(e.cycle.p0).max()
        assert np.allclose(e.cycle.p1, [-e.cycle.p0[1], -e.cycle.p0[0]],
                           atol=1e-8 * scale)
        assert e.monodromy.stable
        assert e.monodromy.trivial_residual <= 1e-7
        assert max(abs(e.monodromy.multipliers[1]),
                   abs(e.monodromy.multipliers[2])) < 1.0


def test_scan_records_failures_and_continues():
    base = resonant_system(1.0, 0.5, 1.0)
    hc = float(critical_h(1.0))
    entries = scan_cycles(base, [0.9 * hc, 2.0])  # H = 2 is not a hyperbola
    assert entries[0].error is None
    assert entries[1].error is not None and entries[1].cycle is None


def test_scan_entry_error_kind():
    # error_kind is the class name of the failure, beside its text; None on success
    base = resonant_system(1.0, 0.5, 1.0)
    h_graze = _graze(base)[1]
    found, below = scan_cycles(base, [0.9 * float(critical_h(1.0)), 0.5 * h_graze])
    assert (found.error, found.error_kind) == (None, None) and found.cycle is not None
    assert below.error_kind == "NoCycleError" and below.cycle is None
    assert below.error.startswith("NoCycleError: no symmetric crossing cycle: ")


def test_seed_prediction_accuracy():
    # the series-head seed lands within a few percent of the converged cycle
    p = resonant_system(1.0, 0.97 * float(critical_h(1.0)), 1.0)
    seed = asymptotic_seed(p)
    cycle = find_cycle_newton(p, seed)
    assert abs(seed / cycle.p0[1] - 1.0) < 0.1


def _seed_from_record(p):
    coeffs = series_coeffs(p)
    v0 = -coeffs.gamma1 / coeffs.gamma2 if coeffs.gamma2 != 0.0 else 0.0
    return 1.0 / v0 if v0 > 0.0 else None


def _outcome(call, p):
    try:
        seed = call(p)
    except DomainError as exc:
        return f"DomainError: {exc}"
    return None if seed is None else seed.hex()


@settings(max_examples=300, deadline=None)
@given(C=st.floats(0.01, 230.0), c_sign=st.sampled_from([1.0, -1.0]),
       H=st.floats(-1.0 / 3.0, 1.0, exclude_min=True, exclude_max=True),
       Lambda=st.floats(0.05, 20.0), l_sign=st.sampled_from([1.0, -1.0]))
def test_asymptotic_seed_is_the_series_record_head(C, c_sign, H, Lambda, l_sign):
    # the seed read from the series floats is the one the SeriesCoeffs
    # record's gamma1 and gamma2 give, bit for bit, or the same DomainError
    p = resonant_system(c_sign * C, H, l_sign * Lambda)
    assert _outcome(asymptotic_seed, p) == _outcome(_seed_from_record, p)


@pytest.mark.parametrize("p", [
    build_system(-1.9, 1.0, 0.5, 1.0),  # not resonant
    resonant_system(1.0, 1.5, 1.0),  # H past the hyperbola range
    resonant_system(1.0, -0.5, 1.0),
    resonant_system(1.0, 0.0, 1.0),  # H = 0 is singular
    resonant_system(1.0, -1e-78, 1.0),  # 4 H^4 leaves the normal float range
    resonant_system(226.0, 0.5, 1.0),  # |C| pi > 709
    resonant_system(-226.0, 0.5, 1.0),
])
def test_asymptotic_seed_raises_the_series_domain_error(p):
    with pytest.raises(DomainError) as from_record:
        series_coeffs(p)
    with pytest.raises(DomainError) as from_seed:
        asymptotic_seed(p)
    assert str(from_seed.value) == str(from_record.value)
