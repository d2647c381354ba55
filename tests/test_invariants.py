import math
import re

import numpy as np
import pytest

from twofold import (ConicKind, DarbouxPair, apply_involution, build_system, critical_h,
                     eval_P_X, eval_P_Y, eval_X, eval_Y, flow_X, flow_Y, gamma1_branch_x,
                     gamma1_conic, gamma1_discriminant, invariants, m_gamma1, resonant_system,
                     time_matching_table, verify_darboux)
from twofold.errors import BranchPointError, DomainError
from oracles import fd_lie_derivative


@pytest.fixture(scope="module")
def params():
    return resonant_system(1.0, 0.5, 1.0)


def test_resonant_first_integral_is_product(params):
    pair = DarbouxPair(params)
    rng = np.random.default_rng(0)
    for _ in range(10):
        s = rng.uniform(-3, 3, 3)
        assert np.isclose(eval_P_X(params, s), pair.f1(s) * pair.f2(s), rtol=1e-14)


def test_p_x_constant_along_flow(params):
    s0 = np.array([2.0, 1.0, 0.3])  # off the invariant plane: f2 != 0
    ref = eval_P_X(params, s0)
    drift = max(abs(eval_P_X(params, flow_X(params, s0, t)) - ref)
                for t in np.linspace(0.0, 3.0, 60))
    assert drift <= 1e-7 * abs(ref)


def test_p_y_constant_along_flow(params):
    s0 = np.array([1.0, 2.5, -0.4])
    ref = eval_P_Y(params, s0)
    drift = max(abs(eval_P_Y(params, flow_Y(params, s0, t)) - ref)
                for t in np.linspace(0.0, 3.0, 60))
    assert drift <= 1e-7 * abs(ref)


def test_focal_plane_traces(params):
    pair = DarbouxPair(params)
    for y in (-2.0, 0.7, 5.0):
        assert pair.f2((params.H * y, y, 0.0)) == 0.0  # x = H y
    for x in (-1.0, 0.4, 3.0):
        assert pair.F2((x, params.H * x, 0.0)) == 0.0  # y = H x


def test_p_y_of_involution_image(params):
    # resonant identity: P_Y(S s) = -P_X(s)
    rng = np.random.default_rng(1)
    for _ in range(25):
        s = rng.uniform(-3, 3, 3)
        lhs = eval_P_Y(params, apply_involution(s))
        rhs = -eval_P_X(params, s)
        assert np.isclose(lhs, rhs, rtol=1e-11, atol=1e-11)


def test_nonresonant_power_guard():
    p = build_system(-1.5, 1.0, 0.5, 1.0)  # exponent -2C/A = 4/3
    assert eval_P_X(p, (5.0, 0.1, 0.0)) > 0  # f2 = 5 - 0.05 > 0
    with pytest.raises(ValueError):
        eval_P_X(p, (-5.0, 0.0, 0.0))  # f2 < 0, non-integer exponent


def test_nonresonant_integral_is_constant():
    p = build_system(-1.0, 1.0, 0.5, 1.0)  # exponent -2C/A = 2, integer
    s0 = np.array([3.0, 0.5, 0.2])
    ref = eval_P_X(p, s0)
    for t in np.linspace(0.0, 1.0, 20):
        assert np.isclose(eval_P_X(p, flow_X(p, s0, t)), ref, rtol=1e-8)


def test_nonresonant_integer_power_of_a_negative_base():
    # exponent -2C/A = 2: a base f2 <= 0 takes the integer power, not a DomainError
    p = build_system(-1.0, 1.0, 0.3, 1.0)
    pair = DarbouxPair(p)
    s, s_y = np.array([-5.0, 1.0, 0.2]), np.array([1.0, -5.0, 0.2])
    assert pair.f2(s) < 0.0 and pair.F2(s_y) < 0.0
    assert eval_P_X(p, s) == pytest.approx(pair.f1(s) * pair.f2(s) ** 2, rel=1e-14)
    assert eval_P_Y(p, s_y) == pytest.approx(pair.F1(s_y) * pair.F2(s_y) ** 2, rel=1e-14)
    for t in np.linspace(0.0, 1.0, 11):
        assert eval_P_X(p, flow_X(p, s, t)) == pytest.approx(eval_P_X(p, s), rel=1e-9)
        assert eval_P_Y(p, flow_Y(p, s_y, t)) == pytest.approx(eval_P_Y(p, s_y), rel=1e-9)


@pytest.mark.parametrize("A", [0.0, 5e-324, -1e-320])
def test_exponent_past_the_float_range_is_a_domain_error(A):
    # -2C/A is infinite: A = 0 once raised a bare ZeroDivisionError
    p = build_system(A, 1.0, 0.5, 1.0)
    for call in (lambda: eval_P_X(p, (1.0, 0.5, 0.2)), lambda: eval_P_Y(p, (1.0, 0.5, 0.2)),
                 lambda: verify_darboux(p)):
        with pytest.raises(DomainError, match=rf"A={A!r}, C=1\.0"):
            call()


def test_first_integral_past_the_float_range_is_a_domain_error(params):
    # at A = 1e-300 the exponent -2e300 is finite but its power is not: once
    # a NumPy overflow warning; a base of 0 with exponent -1 once divided by 0
    for p, s in ((build_system(1e-300, 1.0, 0.5, 1.0), (1.0, 0.5, 0.2)),
                 (build_system(2.0, 1.0, 0.5, 1.0), (0.5, 1.0, 0.0))):
        with pytest.raises(DomainError, match="leaves the float range"):
            eval_P_X(p, s)
    for s in ((math.nan, 1.0, 0.0), (1.0, math.inf, 0.0)):
        for call in (eval_P_X, eval_P_Y):
            with pytest.raises(DomainError, match="finite point"):
                call(params, s)


def test_verify_darboux_report(params):
    report = verify_darboux(params)
    assert report.cofactor_combination == 0.0
    for resid in (report.max_residual_f1, report.max_residual_f2,
                  report.max_residual_F1, report.max_residual_F2):
        assert resid <= 1e-10


@pytest.mark.parametrize("p", [
    resonant_system(1.0, 0.04, 1.0), resonant_system(1.0, 0.5, 1.0),
    build_system(-1.3, 0.7, 0.2, 1.5), build_system(2.0, -1.5, 0.3, -2.0),
], ids=["desk", "series", "nonresonant", "negative-C"])
def test_verify_darboux_residuals_at_round_off(p):
    # the check is exact: a right system reads no round-off at all
    report = verify_darboux(p)
    assert report.samples == 10
    assert max(report.max_residual_f1, report.max_residual_f2,
               report.max_residual_F1, report.max_residual_F2) == 0.0


def test_darboux_lattice_decides_every_quadratic():
    # the ten quadratic monomials on the lattice form a matrix of rank 10, so a
    # quadratic residual that vanishes on the lattice vanishes on R^3
    rows = [[1, x, y, z, x * x, y * y, z * z, x * y, x * z, y * z]
            for x, y, z in invariants._P2_LATTICE]
    assert len(rows) == 10 and np.linalg.matrix_rank(np.array(rows, dtype=float)) == 10


def _wrong_pair(name, shift):
    """DarbouxPair with the cofactor of polynomial name moved by shift(k)."""
    right = getattr(DarbouxPair, "cofactor_" + name)
    return type("WrongPair", (DarbouxPair,),
                {"cofactor_" + name: property(lambda pair: shift(right.fget(pair)))})


def _residuals(report):
    return {n: getattr(report, "max_residual_" + n) for n in ("f1", "f2", "F1", "F2")}


@pytest.mark.parametrize("C, H, Lambda", [(1.0, 0.5, 1e200), (1e100, 0.5, 1.0)])
def test_verify_darboux_residual_that_is_not_finite_is_a_domain_error(C, H, Lambda,
                                                                      monkeypatch):
    # values of f1 past the float range once made NaN residuals, and then a
    # DomainError, on these right systems: in exact rationals they read 0.0
    assert set(_residuals(verify_darboux(resonant_system(C, H, Lambda))).values()) == {0.0}
    # a cofactor 2C off by 1e-3 leaves a residual 1e-3 f1 ~ 1e397 at Lambda = 1e200
    monkeypatch.setattr(invariants, "DarbouxPair", _wrong_pair("f1", lambda k: k + 1e-3))
    with pytest.raises(DomainError, match=re.escape("A=-2.0, C=1.0, H=0.5, Lambda=1e+200")):
        verify_darboux(resonant_system(1.0, 0.5, 1e200))


def test_verify_darboux_sees_a_cofactor_one_ulp_off():
    # at Lambda = 1e12, where the float check read 1.3e8 on the right system,
    # each cofactor one ulp off reads nonzero in its own residual alone
    p = resonant_system(1.0, 0.04, 1e12)
    assert set(_residuals(verify_darboux(p)).values()) == {0.0}
    for name in ("f1", "f2", "F1", "F2"):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(invariants, "DarbouxPair",
                       _wrong_pair(name, lambda k: math.nextafter(k, math.inf)))
            residuals = _residuals(verify_darboux(p))
        assert residuals.pop(name) > 0.0
        assert set(residuals.values()) == {0.0}


@pytest.mark.parametrize("name", ["f1", "f2", "F1", "F2"])
def test_verify_darboux_sees_a_cofactor_off_by_1e_3(params, monkeypatch, name):
    # the check reads the Lie derivative off the polynomial itself, so a
    # cofactor that is not the polynomial's shows in that polynomial's residual
    monkeypatch.setattr(invariants, "DarbouxPair", _wrong_pair(name, lambda k: k + 1e-3))
    residuals = _residuals(verify_darboux(params))
    assert residuals.pop(name) > 1e-4
    assert max(residuals.values()) <= 1e-12


def test_darboux_against_fd_oracle(params):
    pair = DarbouxPair(params)
    rng = np.random.default_rng(2)
    for _ in range(30):
        s = rng.uniform(-3, 3, 3)
        lie_f1 = fd_lie_derivative(pair.f1, lambda q: eval_X(params, q), s)
        assert np.isclose(lie_f1, pair.cofactor_f1 * pair.f1(s), atol=2e-6)
        lie_F2 = fd_lie_derivative(pair.F2, lambda q: eval_Y(params, q), s)
        assert np.isclose(lie_F2, pair.cofactor_F2 * pair.F2(s), atol=2e-6)


def test_invariant_plane_stays_invariant(params):
    pair = DarbouxPair(params)
    rng = np.random.default_rng(3)
    for _ in range(5):
        y, z = rng.uniform(-2, 2, 2)
        s = np.array([params.H * (params.A * z + y), y, z])
        assert abs(pair.f2(s)) <= 1e-14
        for t in np.linspace(0.0, 2.0, 10):
            assert abs(pair.f2(flow_X(params, s, t))) <= 1e-9 * (1 + np.max(np.abs(s)))


def test_conic_kinds():
    for h, kind in ((1.0, ConicKind.LINE_PAIR), (-1.0 / 3.0, ConicKind.PARABOLA),
                    (0.5, ConicKind.HYPERBOLA), (2.0, ConicKind.ELLIPSE),
                    (-1.0, ConicKind.ELLIPSE)):
        assert gamma1_conic(resonant_system(1.0, h, 1.0)).kind is kind


def test_conic_discriminant():
    assert np.isclose(gamma1_discriminant(0.5), 1.25, atol=1e-15)
    conic = gamma1_conic(resonant_system(1.0, 0.5, 1.0))
    assert np.isclose(conic.discriminant, 1.25, atol=1e-15)


def test_conic_requires_resonance():
    with pytest.raises(ValueError):
        gamma1_conic(build_system(-1.9, 1.0, 0.5, 1.0))


def test_conic_json_payload(params):
    payload = gamma1_conic(params).to_json_dict()
    assert payload["kind"] == "hyperbola"
    assert len(payload["coefficients"]) == 6


def test_first_integral_matching_on_conic(params):
    # points of the conic satisfy both matching relations
    for y in (5.0, 20.0, 300.0):
        x = gamma1_branch_x(params, y)
        a = np.array([x, y, 0.0])
        b = apply_involution(a)
        px_a, px_b = eval_P_X(params, a), eval_P_X(params, b)
        assert abs(px_a - px_b) <= 1e-9 * abs(px_a)
        py_a, py_b = eval_P_Y(params, a), eval_P_Y(params, b)
        assert abs(py_a - py_b) <= 1e-9 * abs(py_a)


def test_matching_difference_factors_through_conic(params):
    conic = gamma1_conic(params)
    rng = np.random.default_rng(4)
    for _ in range(1000):
        x, y = rng.uniform(-10, 10, 2)
        lhs = (eval_P_X(params, (x, y, 0.0))
               - eval_P_X(params, (-y, -x, 0.0)))
        rhs = -(x + y) * conic.evaluate(x, y)
        assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(lhs))


def test_branch_residuals(params):
    conic = gamma1_conic(params)
    for y in (10.0, 100.0, 1000.0):
        x = gamma1_branch_x(params, y)
        assert abs(conic.evaluate(x, y)) <= 1e-9 * (1.0 + y * y)


def test_branch_slope_limit(params):
    y = 1e7
    assert np.isclose(y / gamma1_branch_x(params, y), m_gamma1(params.H), rtol=1e-6)


def test_axis_intercepts(params):
    C, H, L = params.C, params.H, params.Lambda
    conic = gamma1_conic(params)
    root = np.sqrt(H * (C * C + 1.0 - H))
    for sign in (1.0, -1.0):
        xi = (C * H + sign * root) * L / (H * (C * C + 1.0))
        assert abs(conic.evaluate(xi, 0.0)) <= 1e-12
        assert abs(conic.evaluate(0.0, -xi)) <= 1e-12
    # the branch at y = 0 passes through the larger x intercept
    xi_plus = (C * H + root) * L / (H * (C * C + 1.0))
    assert np.isclose(gamma1_branch_x(params, 0.0), xi_plus, rtol=1e-12)


def test_conic_avoids_focal_lines(params):
    conic = gamma1_conic(params)
    ts = np.linspace(-100, 100, 401)
    on_rx = conic.evaluate(params.H * ts, ts)
    on_ry = conic.evaluate(ts, params.H * ts)
    assert np.min(np.abs(on_rx)) > 0 and not np.any(on_rx[:-1] * on_rx[1:] < 0)
    assert np.min(np.abs(on_ry)) > 0 and not np.any(on_ry[:-1] * on_ry[1:] < 0)


def test_branch_domain_floor():
    # for 0 < H < 1 the radicand has no real roots, so the branch reaches y = 0
    gamma1_branch_x(resonant_system(1.0, 0.9, 1.0), 1e-9)


@pytest.mark.parametrize("y", [1e154, 1e155, 1e300, -1e155])
def test_branch_point_past_the_float_range_is_a_domain_error(params, y):
    # x ~ 2.6 y, so the conic residual's x^2 overflows from y = 1e154 on
    with pytest.raises(DomainError, match="^" + re.escape(f"y = {y!r} is too large")):
        gamma1_branch_x(params, y)
    assert math.isfinite(gamma1_branch_x(params, 1e153))


def test_branch_requires_resonance_and_range():
    with pytest.raises(ValueError):
        gamma1_branch_x(build_system(-1.9, 1.0, 0.5, 1.0), 10.0)
    with pytest.raises(ValueError):
        gamma1_branch_x(resonant_system(1.0, -0.2, 1.0), 10.0)


@pytest.mark.parametrize("y", [math.nan, math.inf, -math.inf])
def test_branch_rejects_non_finite_y(params, y):
    with pytest.raises(DomainError):
        gamma1_branch_x(params, y)


@pytest.mark.parametrize("H", [9.279561594807334e-252, 1e-163, 1.5717e-162])
def test_branch_domain_names_the_h_square_underflow(H):
    # an H inside (0, 1) whose square underflows to 0 was told it must lie in
    # (0, 1); sqrt of half the least subnormal, about 1.5717e-162, is the edge
    with pytest.raises(DomainError, match=r"H\^2 underflows to 0 for H below about "
                       rf"1\.57e-162, got H={re.escape(repr(H))}$"):
        invariants._check_branch_domain(resonant_system(1.0, H, 1.0))
    invariants._check_branch_domain(resonant_system(1.0, 1.5718e-162, 1.0))
    with pytest.raises(DomainError, match=r"requires 0 < H < 1, got H=0\.0$"):
        invariants._check_branch_domain(resonant_system(1.0, 0.0, 1.0))


def test_branch_point_of_another_conic_is_typed(params, monkeypatch):
    # x(y) is this system's branch; another system's conic misses it
    other = invariants._conic_coefficients(resonant_system(2.0, 0.3, 1.5))
    monkeypatch.setattr(invariants, "_conic_coefficients", lambda p: other)
    with pytest.raises(BranchPointError):
        gamma1_branch_x(params, 10.0)


def test_branch_check_rejects_what_the_absolute_cutoff_rejected(monkeypatch):
    # the residual's rounding bound was at most 0.21 of the former cutoff
    # 1e-9 (1 + y^2) on these draws, so a conic whose constant is off by just
    # past that cutoff, for either sign, is still rejected
    rng = np.random.default_rng(38)
    original, mutant = invariants._conic_coefficients, {}
    monkeypatch.setattr(invariants, "_conic_coefficients", lambda p: mutant["k"])
    for _ in range(2000):
        C, L = rng.uniform(-2.0, 2.0), rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 3.0)
        H, y = 10.0 ** rng.uniform(-4.0, -0.0005), 10.0 ** rng.uniform(-3.0, 8.0)
        p = resonant_system(C, H, L)
        *quadratic, c = original(p)
        for sign in (1.0, -1.0):
            mutant["k"] = (*quadratic, c + sign * 1.000001e-9 * (1.0 + y * y))
            with pytest.raises(BranchPointError):
                gamma1_branch_x(p, sign * y)


@pytest.mark.parametrize("C", [4.0, 5.0, 8.0])
def test_branch_point_matches_a_50_digit_root(C):
    # past C = 3.75 the x^2 and xy terms of the conic dominate the residual,
    # and the former cutoff 1e-9 (1 + y^2) rejected correct branch points
    mp = pytest.importorskip("mpmath")
    for fraction in (0.02, 0.5, 0.995):
        p = resonant_system(C, fraction * critical_h(C), 1.0)
        for y in (1.0, 1e3, 1e4, 1e5, 1e8):
            x = gamma1_branch_x(p, y)
            with mp.workdps(50):
                axx, axy, ayy, bx, by, c = map(mp.mpf, invariants._conic_coefficients(p))
                b = axy * y + bx
                root = (-b + mp.sqrt(b * b - 4 * axx * (ayy * y * y + by * y + c))) / (2 * axx)
                assert abs(x - root) <= 4e-16 * root, (C, fraction, y)


def test_branch_points_past_c_3_75_pass_the_conic_check():
    # the verify-series grid C in [3, 7.5], H / H_crit in {0.02, 0.5, 0.995},
    # v0 in {1e-3, 1e-4, 1e-5}: 104 of its 171 branch points once raised
    # BranchPointError, and the time matching from 27 of them once raised
    # TangentialGrazeError: the plane cutoff 1e-10 (1 + |(x, y)|) called a
    # start tangential where x0 / y0 passes 1e10 (from C = 6.25)
    v0s = (1e-3, 1e-4, 1e-5)
    for C in np.linspace(3.0, 7.5, 19):
        for fraction in (0.02, 0.5, 0.995):
            p = resonant_system(float(C), fraction * critical_h(float(C)), 1.0)
            for v0 in v0s:
                assert math.isfinite(gamma1_branch_x(p, 1.0 / v0))
            rows = time_matching_table(p, v0s)
            assert all(math.isfinite(value) for row in rows for value in row.values())
