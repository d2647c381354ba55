import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from twofold import (asymptotic_seed, build_system, critical_h, cycles, eval_P_X,
                     find_cycle_newton, gamma1_branch_x, gamma1_conic, half_return_X,
                     half_return_Y, monodromy, resonant_system, return_map, returns,
                     scan_cycles, schur_conditions, series_coeffs, time_matching)
from twofold.cycles import _branch, _graze
from twofold.errors import (DivergenceError, DomainError, NoCycleError, NotACycleError,
                            SymmetryDefectError, TwofoldError)
from twofold.flow import _phi_rows, _stationary, fundamental_X, fundamental_Y
from twofold.stability import saltation
from oracles import certify_first_return, closure_residual, fd_jacobian, measure_contraction


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


def _orbit(p, y0, n):
    """The branch point at y0 and its n successive return-map images."""
    orbit = [(gamma1_branch_x(p, y0), y0)]
    for _ in range(n):
        orbit.append(return_map(p, orbit[-1]))
    return orbit


def test_iterate_fixed_point_is_constant(desk_params, desk_cycle):
    orbit = _orbit(desk_params, desk_cycle.p0[1], 5)
    scale = 1.0 + np.abs(desk_cycle.p0).max()
    for q in orbit:
        assert np.allclose(q, desk_cycle.p0, atol=1e-7 * scale)


def test_iterate_converges_inside_band(desk_params, desk_cycle, desk_monodromy):
    orbit = _orbit(desk_params, 1.01 * desk_cycle.p0[1], 60)
    dists = [math.dist(q, desk_cycle.p0) for q in orbit]
    assert dists[-1] < 1e-6 * dists[1]
    rho = max(abs(desk_monodromy.multipliers[1]), abs(desk_monodromy.multipliers[2]))
    rate = measure_contraction(lambda q: return_map(desk_params, q),
                               desk_cycle.p0,
                               [gamma1_branch_x(desk_params, 1.01 * desk_cycle.p0[1]),
                                1.01 * desk_cycle.p0[1]])
    assert abs(rate - rho) <= 0.2 * rho


def test_iterate_diverges_above_upper_boundary():
    # above H_crit there is no cycle: within 100 return-map steps the orbit
    # from the branch leaves the crossing quadrant or grows past 1e12
    p = resonant_system(1.0, 1.3 * float(critical_h(1.0)), 1.0)
    q = (gamma1_branch_x(p, 200.0), 200.0)
    for _ in range(100):
        q = return_map(p, q)
        if not (0.0 < q[0] <= 1e12 and 0.0 < q[1] <= 1e12):
            break
    else:
        pytest.fail(f"the orbit stayed in the crossing quadrant, at {q!r}")


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
    # the solve in t flies nothing, and neither do its checks: the closure
    # and the first return are read off the closed form at t_x
    calls = []
    original = returns.first_crossing

    def counting(p, s0, t_max, **kwargs):
        calls.append(s0)
        return original(p, s0, t_max, **kwargs)

    monkeypatch.setattr(returns, "first_crossing", counting)
    find_cycle_newton(desk_params, asymptotic_seed(desk_params))
    assert calls == []
    half_return_X(desk_params, desk_cycle.p0)
    half_return_Y(desk_params, desk_cycle.p0)
    # the public half-returns fly the upper crossing kernel, Y from S p0
    x0, y0 = desk_cycle.p0
    assert calls == [(x0, y0, 0.0), (-y0, -x0, 0.0)]


def _check_flight_rejects(p, x0, y0, t_x):
    """The cycle check of the earlier solve, as an oracle: the lower
    half-orbit flown into (x0, y0) must start within 1e-8 (1 + |p0|) of
    (-y0, -x0), take t_x to 1e-9 of the period, and start on the reduced
    conic."""
    scale = 1.0 + max(abs(x0), abs(y0))
    try:
        hry = half_return_Y(p, (x0, y0))
    except TwofoldError:
        return True
    x1, y1 = hry.end
    return (math.hypot(x1 + y0, y1 + x0) > 1e-8 * scale
            or abs(t_x - hry.t) > 1e-9 * (t_x + hry.t)
            or abs(gamma1_conic(p).evaluate(x1, y1)) > 1e-8 * scale * scale)


def _flown_reduction_residual(p, cycle, dg):
    """The relative disagreement of the half-map invariants of dg with the
    trace and det of the composition S_{Y->X}(p0) Phi_Y(t_y) S_{X->Y}(p1)
    Phi_X(t_x) built in NumPy on the flown lower half-orbit: the check of
    an earlier monodromy, which rejected above 1e-9."""
    hry = half_return_Y(p, cycle.p0)
    m = (saltation(p, cycle.p0, "YtoX") @ fundamental_Y(p, hry.t)
         @ saltation(p, hry.end, "XtoY") @ fundamental_X(p, cycle.t_x))
    g = np.reshape(dg, (2, 2))
    tr_g, det_g = np.trace(g), g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
    trace, det = 1.0 + tr_g * tr_g - 2.0 * det_g, det_g * det_g
    return (max(abs(np.trace(m) - trace), abs(np.linalg.det(m) - det))
            / max(abs(trace), abs(det), 1.0))


def test_closed_form_checks_reject_what_the_flown_checks_rejected():
    # the cycles workload's distribution.  p0 moved by 1e-6 relative: every
    # mutant the check flight rejected is rejected by the closed-form
    # closure, unless its shift is below the 1e-8 (1 + |p0|) tolerance.  An
    # entry of Dg moved by 1e-6 relative: monodromy rejects it whenever the
    # flown composition misses it by more than 1e-9
    rng = np.random.default_rng(36)
    n = 300
    caught = {"x0": 0, "y0": 0, "dg": 0}
    for C, u, Lambda in zip(rng.uniform(0.25, 2.0, n), rng.uniform(0.02, 0.995, n),
                            rng.uniform(0.5, 2.0, n)):
        p = resonant_system(C, float(critical_h(C)) * u, Lambda)
        try:
            cycle = find_cycle_newton(p)
        except NoCycleError:
            continue
        (x0, y0), t_x = cycle.p0, cycle.t_x
        tolerance = 1e-8 * (1.0 + max(x0, y0))
        for name, mutant in (("x0", (x0 * (1.0 + 1e-6), y0)), ("y0", (x0, y0 * (1.0 + 1e-6)))):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(cycles, "_solve_branch",
                           lambda _, m=mutant: (t_x, *m, _phi_rows(p, t_x)))
                try:
                    find_cycle_newton(p)
                    rejected = False
                except NotACycleError:
                    rejected = True
            caught[name] += rejected
            if _check_flight_rejects(p, *mutant, t_x):
                shift = 1e-6 * (x0 if name == "x0" else y0)
                assert rejected or shift < tolerance, (p, name)
        for i in range(1, 4):  # dg[0] is 0.0, which no relative shift moves
            dg = tuple(g * (1.0 + 1e-6) if j == i else g for j, g in enumerate(cycle.dg))
            try:
                monodromy(p, dataclasses.replace(cycle, dg=dg))
                rejected = False
            except SymmetryDefectError:
                rejected = True
            caught["dg"] += rejected
            flown = _flown_reduction_residual(p, cycle, dg)
            assert rejected or not flown > 1e-9, (p, i, flown)
    assert min(caught.values()) > 200


def test_near_graze_outcomes_are_cycles_or_typed():
    # H just above the graze end of the band, where p0 sits next to the X
    # fold: every outcome is a cycle or a TwofoldError, never a bare
    # exception
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


def test_negative_lambda_is_a_domain_error_that_names_it():
    # Lambda < 0 puts the branch in the third quadrant, which the solve once
    # read as past the graze end: a NoCycleError naming a band that holds H
    p = resonant_system(1.0, 0.04, -1.0)
    message = "the cycle branch is charted for visible folds, Lambda > 0, got Lambda=-1.0"
    with pytest.raises(DomainError, match=rf"^{re.escape(message)}$"):
        find_cycle_newton(p)
    entries = scan_cycles(p, [0.02, 0.04])
    assert [e.error for e in entries] == [f"DomainError: {message}"] * 2


@pytest.mark.parametrize("y0_init", [math.nan, math.inf])
def test_non_finite_seed_is_a_domain_error(desk_params, y0_init):
    with pytest.raises(DomainError, match="seed"):
        find_cycle_newton(desk_params, y0_init)


def test_first_return_check_sees_a_crossing_before_t_x(desk_params, desk_cycle):
    # one pi past the desk cycle's flight time, the X flight from p0 has met
    # the plane at its first critical point below it: no first return
    x0, y0 = desk_cycle.p0
    xs, ys, zs = _stationary(desk_params)
    with pytest.raises(NotACycleError, match=r"meets the plane at t = 5\.55372 < t_x"):
        cycles._check_first_return(desk_params, x0, y0, desk_cycle.t_x + math.pi,
                                   (x0 - xs, y0 - ys, -zs))


def test_unseeded_solve_finds_the_same_cycle(desk_params, desk_cycle):
    # the seed is checked and unused: the solve always starts one Newton step
    # from the H_crit end, so with no seed it lands on the same cycle
    cycle = find_cycle_newton(desk_params)
    assert np.array_equal(cycle.p0, desk_cycle.p0)
    assert cycle.residual <= 1e-10 * (1.0 + cycle.p0[1])


def test_cycle_phi_is_the_closed_form_at_its_flight_time():
    # monodromy composes from cycle.phi, so it must be the exp(DX t_x) that
    # _phi_rows gives at the cycle's t_x, bit for bit; draws as the
    # benchmark's cycles op
    rng = np.random.default_rng(37)
    solved = 0
    for C, u, Lambda in zip(rng.uniform(0.25, 2.0, 300), rng.uniform(0.02, 0.995, 300),
                            rng.uniform(0.5, 2.0, 300)):
        p = resonant_system(float(C), float(critical_h(C)) * float(u), float(Lambda))
        try:
            cycle = find_cycle_newton(p)
        except NoCycleError:  # H at or below H_graze
            continue
        assert cycle.phi == _phi_rows(p, cycle.t_x)
        solved += 1
    assert solved >= 290


def test_cycle_p0_is_the_branch_point_at_its_flight_time():
    # p0 is read from the evaluation at t_x that gives phi: the bits
    # _branch gives at the cycle's t_x; the draws of the phi test
    rng = np.random.default_rng(37)
    solved = 0
    for C, u, Lambda in zip(rng.uniform(0.25, 2.0, 300), rng.uniform(0.02, 0.995, 300),
                            rng.uniform(0.5, 2.0, 300)):
        p = resonant_system(float(C), float(critical_h(C)) * float(u), float(Lambda))
        try:
            cycle = find_cycle_newton(p)
        except NoCycleError:  # H at or below H_graze
            continue
        assert cycle.p0 == _branch(p, cycle.t_x)[:2]
        solved += 1
    assert solved >= 290


def _cycle_outcome(p):
    """(cycle, report) of the solve and its monodromy, the error class in
    place of either that raised."""
    try:
        cycle = find_cycle_newton(p)
    except TwofoldError as exc:
        return type(exc), None
    try:
        return cycle, monodromy(p, cycle)
    except TwofoldError as exc:
        return cycle, type(exc)


@settings(max_examples=200, deadline=None)
@given(C=st.floats(0.25, 3.0), u=st.floats(0.02, 0.995), Lambda=st.floats(0.5, 2.0),
       k=st.integers(-40, 40))
def test_cycle_scales_exactly_with_a_power_of_two_lambda(C, u, Lambda, k):
    # Lambda -> 2^k Lambda maps orbits to orbits by s -> 2^k s, and a power
    # of two scales every float exactly: the points and residual move by
    # 2^k, the times, Dg, phi and the monodromy report not at all
    H = float(critical_h(C)) * u
    (cycle, report), (moved, moved_report) = (
        _cycle_outcome(resonant_system(C, H, L)) for L in (Lambda, math.ldexp(Lambda, k)))
    if isinstance(cycle, type):
        assert moved is cycle
        return
    assert moved.p0 == tuple(math.ldexp(v, k) for v in cycle.p0)
    assert moved.p1 == tuple(math.ldexp(v, k) for v in cycle.p1)
    assert moved.residual == math.ldexp(cycle.residual, k)
    assert (moved.t_x, moved.t_y, moved.T, moved.dg) == (cycle.t_x, cycle.t_y, cycle.T, cycle.dg)
    assert moved.phi == cycle.phi
    assert moved_report == report
    if not isinstance(report, type):
        assert moved_report.sn == report.sn
        assert (moved_report.reduction_residual, moved_report.trivial_residual) == (
            report.reduction_residual, report.trivial_residual)


@pytest.mark.parametrize("seed, exponents", [(5, (290.0, 308.25)), (6, (-323.5, -300.0))])
def test_extreme_lambda_gives_the_unit_lambda_cycle_or_a_divergence_error(seed, exponents):
    # Lambda near the float maximum overflows x0, y0 or p1, and a subnormal
    # Lambda overflows Dg or underflows y0 to 0: each such solve raises
    # DivergenceError, and every other one is the Lambda = 1 cycle
    rng = np.random.default_rng(seed)
    n, diverged = 3000, 0
    for C, u, e in zip(rng.uniform(0.25, 2.0, n), rng.uniform(0.02, 0.995, n),
                       rng.uniform(*exponents, n)):
        H = float(critical_h(C)) * float(u)
        try:
            unit = monodromy(resonant_system(C, H, 1.0),
                             find_cycle_newton(resonant_system(C, H, 1.0)))
        except NoCycleError:  # H at or below H_graze
            continue
        p = resonant_system(C, H, 10.0 ** float(e))
        try:
            report = monodromy(p, find_cycle_newton(p))
        except DivergenceError:
            diverged += 1
            continue
        assert report.trace == pytest.approx(unit.trace, rel=1e-9), (C, H, e)
        assert report.det == pytest.approx(unit.det, rel=1e-9), (C, H, e)
        assert report.stable == unit.stable
    assert diverged > 300


@pytest.mark.parametrize("Lambda", [9.7e-313, 2.0 ** -1023])
def test_subnormal_zs_is_a_divergence_error(Lambda):
    # zs = Lambda / (1 + C^2) is subnormal at both: p0 carried Lambda to only
    # 4e-12 relative at 9.7e-313, which the residual test 1e-8 (1 + |p0|)
    # cannot see, and the solve once returned that cycle.  zs is normal at
    # 2^-1021, whose cycle is the unit-Lambda one scaled by Lambda exactly
    C, H = 0.748, 0.104
    with pytest.raises(DivergenceError, match=r"^zs = Lambda / \(1 \+ C\^2\) = .* is subnormal"):
        find_cycle_newton(resonant_system(C, H, Lambda))
    entries = scan_cycles(resonant_system(C, 0.5, Lambda), [H])
    assert [e.error_kind for e in entries] == ["DivergenceError"]
    unit, normal = (find_cycle_newton(resonant_system(C, H, L)) for L in (1.0, 2.0 ** -1021))
    assert normal.p0 == tuple(math.ldexp(v, -1021) for v in unit.p0)


def test_cycle_repr_and_equality_ignore_phi(desk_cycle):
    other = dataclasses.replace(desk_cycle, phi=((0.0,) * 3,) * 3)
    assert other == desk_cycle
    assert repr(other) == repr(desk_cycle)
    assert "phi" not in repr(desk_cycle)


def _solve_from(p, y0):
    """The fields of find_cycle_newton(p, y0) as bits, or the error's class
    and text where the solve raises."""
    try:
        c = find_cycle_newton(p, y0)
    except TwofoldError as exc:
        return type(exc).__name__, str(exc)
    floats = (*c.p0, *c.p1, c.T, c.t_x, c.t_y, c.residual, *c.dg)
    return [float(v).hex() for v in floats]


@settings(max_examples=40, deadline=None)
@given(C=st.floats(0.25, 2.0), u=st.floats(0.02, 0.995), Lambda=st.floats(0.5, 2.0))
@example(C=1.0, u=0.04 / float(critical_h(1.0)), Lambda=1.0)  # the desk case
def test_every_start_lands_on_the_same_cycle(C, u, Lambda):
    # the cycle is the one root of H(t) = H on a monotone branch, and the
    # solve starts one Newton step from the H_crit end whatever y0_init is:
    # every seed gives the unseeded cycle bit for bit, or the same error
    p = resonant_system(C, float(critical_h(C)) * u, Lambda)
    unseeded = _solve_from(p, None)
    for y0 in (asymptotic_seed(p), 20.0, 1e3, -math.inf):
        assert _solve_from(p, y0) == unseeded, y0


def test_no_sign_change_raises_no_cycle_error():
    # far below H_crit, under H_graze: the closure residual keeps one sign on
    # the whole branch, and the error names the band of the closed form
    p = resonant_system(0.4821269240890028, 0.014054134847196956, 1.3221941688154804)
    with pytest.raises(NoCycleError, match=r"^no symmetric crossing cycle: H = 0\.0140541 lies "
                       r"outside the band \(H_graze, H_crit\) = \(0\.0147509, 0\.265414\)"):
        find_cycle_newton(p, asymptotic_seed(p))
    assert all(closure_residual(p, float(y))[0] > 0.0 for y in np.geomspace(1e-6, 1e6, 60))


@settings(max_examples=40, deadline=None)
@given(C=st.floats(0.25, 2.0), h_frac=st.floats(0.02, 1.3), Lambda=st.floats(0.5, 2.0))
def test_no_cycle_error_only_without_sign_change(C, h_frac, Lambda):
    # NoCycleError comes from the band of the closed form: a dense oracle scan
    # of the conic branch must agree that the closure residual of the X
    # kernel never changes sign
    H = float(critical_h(C)) * h_frac
    assume(0.0 < H < 1.0)
    p = resonant_system(C, H, Lambda)
    try:
        cycle = find_cycle_newton(p)
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
    x0, y0, h = _branch(base, t)[:3]
    hrx = half_return_X(build_system(A, C, h, Lambda), (x0, y0))
    scale = 1.0 + max(abs(x0), abs(y0))
    assert abs(hrx.t - t) <= 1e-12 * t
    assert np.max(np.abs(np.subtract(hrx.end, [-y0, -x0]))) <= 1e-12 * scale


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
    x0, y0, h = _branch(p, cycle.t_x)[:3]
    assert h == pytest.approx(p.H, rel=1e-12)
    assert (x0, y0) == pytest.approx(tuple(cycle.p0), rel=1e-15)
    assert gamma1_branch_x(p, y0) == pytest.approx(x0, rel=1e-9)


@pytest.mark.parametrize("Lambda", [0.5, 1.0, 2.0])
def test_branch_h_does_not_depend_on_lambda(Lambda):
    # nor on the H the system carries
    for H in (0.04, 0.3):
        h = _branch(resonant_system(1.0, H, Lambda), 3.5)[2]
        assert h == pytest.approx(0.0188133961741854, rel=1e-14)


@pytest.mark.parametrize("C", np.geomspace(0.01, 3.0, 9))
def test_branch_h_starts_at_the_critical_slope(C):
    # at A = -2C, H(pi+) = (1 + e^{-pi C})^2 / d(pi) = 1 / (2 cosh(pi C) - 1)
    h = _branch(resonant_system(C, 0.5, 1.0), math.pi + 1e-12)[2]
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
    (x0, y0, h), (ox0, oy0, oh) = _branch(p, t)[:3], _branch_oracle(p, t)
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
    hs = [_branch(p, float(t))[2] for t in ts]
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
        assert _branch(p, float(t))[2] <= h_graze
    fdf = cycles._branch_residual(p)
    for t in np.linspace(math.pi, top, 202)[1:-1]:
        t, dt = float(t), 1e-6 * float(t)
        central = (fdf(t + dt)[0] - fdf(t - dt)[0]) / (2.0 * dt)
        assert central == pytest.approx(fdf(t)[1], rel=1e-7)


def test_branch_root_below_the_rounding_of_h_is_a_certified_cycle():
    # at C = 7.439, H = 1.15e-16 both terms of n = e^{At} r - q are tiny
    # near the root, and H(t) carries a rounding of about 3e-10 relative: a
    # stop test on |H(t) / H - 1| <= 1e-10 once raised NoConvergenceError
    # here.  The kernel stops on its step in t, at the root to that
    # rounding.  A check flight from p0 once found its exit tangential
    # (y0 / x0 ~ 1e-13, below the relative slope cutoff); the closed form
    # closes the cycle, and 60-digit z certifies its first return
    p = resonant_system(7.439, 1.15e-16, 1.0)
    t, x0, y0, _ = cycles._solve_branch(p)
    assert y0 > 0.0
    assert _branch(p, t)[2] == pytest.approx(p.H, rel=1e-9)
    cycle = find_cycle_newton(p)
    assert (cycle.t_x, cycle.p0) == (t, (x0, y0))
    assert certify_first_return(p, y0, t)


def _solves_past_c_4():
    """(p, cycle or error class name) of the solve on 600 seeded draws
    with C log-uniform on [4, 20], H / H_crit = 10^U(-6, 0) and Lambda = 1."""
    rng = np.random.default_rng(2026)
    Cs = 10.0 ** rng.uniform(math.log10(4.0), math.log10(20.0), 600)
    out = []
    for C, e in zip(Cs, rng.uniform(-6.0, 0.0, 600)):
        p = resonant_system(float(C), float(critical_h(C)) * 10.0 ** e, 1.0)
        try:
            out.append((p, find_cycle_newton(p)))
        except TwofoldError as exc:
            out.append((p, type(exc).__name__))
    return out


def test_branch_solve_converges_past_c_4():
    # the flight time is the kernel's root on every draw: a 1e-10 stop test
    # on H(t) / H - 1 raised NoConvergenceError on 44 of these draws, and a
    # check flight from p0 then rejected 544 of them (TangentialGrazeError,
    # NotACycleError, NoReturnError).  Every draw is a cycle, and 60-digit z
    # certifies each first return
    for p, cycle in _solves_past_c_4():
        assert not isinstance(cycle, str), (p, cycle)
        assert certify_first_return(p, cycle.p0[1], cycle.t_x), p


def test_every_cycle_past_c_4_passes_monodromy():
    # S N holds entries up to 4.9e29 here; its identities with Dg hold to the
    # rounding of their terms
    for p, cycle in _solves_past_c_4():
        if not isinstance(cycle, str):
            monodromy(p, cycle)


@settings(max_examples=40, deadline=None)
@given(C=st.floats(0.25, 2.0), s=st.floats(-0.5, 1.5), Lambda=st.floats(0.5, 2.0))
@example(C=1.7, s=2e-9, Lambda=1.2)  # next to the X fold
@example(C=1.7, s=-2e-9, Lambda=1.2)
@example(C=0.4, s=1.0 - 2e-9, Lambda=0.7)  # next to H_crit
@example(C=0.4, s=1.0 + 2e-9, Lambda=0.7)
def test_no_cycle_error_exactly_outside_the_band(C, s, Lambda):
    # s places H across the band: a cycle inside it, NoCycleError outside.
    # Both ends keep a margin of 1e-9 of the band, above the rounding of H
    # there; a check flight once saw a touch at the X fold within 1e-5 of
    # H_graze, which the closed-form first return does not
    h_crit = float(critical_h(C))
    h_graze = _graze(resonant_system(C, 0.5, Lambda))[1]
    H = h_graze + s * (h_crit - h_graze)
    assume(0.0 < H < 1.0 and min(abs(s), abs(s - 1.0)) > 1e-9)
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
    fd = fd_jacobian(lambda q: -np.array(half_return_X(p, q).end[::-1]), cycle.p0,
                     step).reshape(-1)
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


def test_scan_builds_each_entry_at_the_base_systems_a():
    hc = 0.9 * float(critical_h(1.0))
    # a non-resonant base has no cycle branch: each entry is that DomainError,
    # where the scan once solved the resonant system at the same C and Lambda
    entry, = scan_cycles(build_system(-1.9, 1.0, 0.5, 1.0), [hc])
    assert (entry.cycle, entry.monodromy, entry.error_kind) == (None, None, "DomainError")
    assert "resonant family" in entry.error
    # a resonant base gives the resonant system's cycle at each H, bit for bit
    p = resonant_system(1.0, hc, 1.0)
    entry, = scan_cycles(resonant_system(1.0, 0.5, 1.0), [hc])
    assert entry.cycle == find_cycle_newton(p)
    assert entry.monodromy.multipliers == monodromy(p, entry.cycle).multipliers


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
