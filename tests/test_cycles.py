import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from twofold import (asymptotic_seed, branch_min_y, closure_residual, critical_h,
                     eval_P_X, find_cycle_newton, gamma1_branch_x, gamma1_conic,
                     half_return_Y, iterate_reduced_map, monodromy, resonant_system,
                     return_map, returns, scan_cycles, schur_conditions, series_coeffs,
                     time_matching)
from twofold.cycles import _closure
from twofold.errors import DivergenceError, NoCycleError, TwofoldError
from oracles import fd_jacobian, measure_contraction


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
@given(C=st.floats(0.25, 2.0), h_frac=st.floats(0.02, 0.995), Lambda=st.floats(0.5, 2.0),
       log_gap=st.floats(-6.0, 4.0))
def test_exact_slope_matches_fd_oracle(C, h_frac, Lambda, log_gap):
    # y0 sits 1e-6 .. 1e4 above the branch floor; near the floor x0(y0) has a
    # square-root singularity, so the stencil width scales with that gap
    p = resonant_system(C, float(critical_h(C)) * h_frac, Lambda)
    gap = 10.0 ** log_gap
    y0 = branch_min_y(p) + gap
    try:
        fd = fd_jacobian(lambda v: [closure_residual(p, float(v[0]))[0]], [y0],
                         1e-3 * gap)[0, 0]
    except TwofoldError:
        assume(False)
    slope = _closure(p, y0, gamma1_conic(p))[1]
    assert abs(slope - fd) <= 1e-5 * (1.0 + abs(slope))


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


def test_desk_newton_half_return_count(desk_params, monkeypatch):
    # one X half-return per Newton iterate (three here) plus the closing Y one
    calls = []
    original = returns._half_return

    def counting(*args):
        calls.append(args[2])
        return original(*args)

    monkeypatch.setattr(returns, "_half_return", counting)
    find_cycle_newton(desk_params, asymptotic_seed(desk_params))
    assert len(calls) <= 4
    assert calls.count("Y") == 1


def test_grid_brackets_the_cycle_without_a_seed(desk_params, desk_cycle):
    # with no seed the log grid brackets the same cycle, closed to round-off
    cycle = find_cycle_newton(desk_params)
    assert cycle.p0 == pytest.approx(desk_cycle.p0, rel=1e-12)
    assert cycle.residual <= 1e-10 * (1.0 + cycle.p0[1])


def test_no_sign_change_raises_no_cycle_error():
    # far below H_crit the closure residual keeps one sign on the whole branch:
    # the series seed walks off the floor and the grid finds no bracket
    p = resonant_system(0.4821269240890028, 0.014054134847196956, 1.3221941688154804)
    with pytest.raises(NoCycleError, match=r"^no sign change on \d+ points .* is positive on each"):
        find_cycle_newton(p, asymptotic_seed(p))
    assert all(closure_residual(p, float(y))[0] > 0.0 for y in np.geomspace(1e-6, 1e6, 60))


@settings(max_examples=40, deadline=None)
@given(C=st.floats(0.25, 2.0), h_frac=st.floats(0.02, 1.3), Lambda=st.floats(0.5, 2.0),
       seeded=st.booleans())
def test_no_cycle_error_only_without_sign_change(C, h_frac, Lambda, seeded):
    # NoCycleError is sampled evidence: a dense oracle scan of the branch must
    # agree that the closure residual never changes sign; unseeded solves
    # check the grid bracket on its own
    H = float(critical_h(C)) * h_frac
    assume(0.0 < H < 1.0)
    p = resonant_system(C, H, Lambda)
    try:
        cycle = find_cycle_newton(p, asymptotic_seed(p) if seeded else None)
    except NoCycleError:
        rs = []
        for y in np.geomspace(branch_min_y(p), 1e6, 400):
            try:
                rs.append(closure_residual(p, float(y))[0])
            except TwofoldError:
                continue
        assert all(r > 0.0 for r in rs) or all(r < 0.0 for r in rs)
        return
    y0 = cycle.p0[1]
    assert abs(closure_residual(p, y0)[0]) <= 1e-10 * (1.0 + y0)


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


def test_seed_prediction_accuracy():
    # the series-head seed lands within a few percent of the converged cycle
    p = resonant_system(1.0, 0.97 * float(critical_h(1.0)), 1.0)
    seed = asymptotic_seed(p)
    cycle = find_cycle_newton(p, seed)
    assert abs(seed / cycle.p0[1] - 1.0) < 0.1
