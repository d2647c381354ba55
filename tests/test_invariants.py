import math

import numpy as np
import pytest

from twofold import (ConicKind, DarbouxPair, apply_involution, branch_min_y,
                     build_system, eval_P_X, eval_P_Y, eval_X, eval_Y, flow_X,
                     flow_Y, gamma1_branch_x, gamma1_conic, gamma1_discriminant,
                     m_gamma1, resonant_system, verify_darboux)
from twofold.errors import BranchPointError, DomainError
from twofold.invariants import _branch_x
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


def test_verify_darboux_report(params):
    report = verify_darboux(params)
    assert report.cofactor_combination == 0.0
    for resid in (report.max_residual_f1, report.max_residual_f2,
                  report.max_residual_F1, report.max_residual_F2):
        assert resid <= 1e-10


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
    # for 0 < H < 1 the radicand has no real roots, so the floor is nominal
    p = resonant_system(1.0, 0.9, 1.0)
    assert 0.0 < branch_min_y(p) <= 1e-6
    gamma1_branch_x(p, branch_min_y(p))


def test_branch_requires_resonance_and_range():
    with pytest.raises(ValueError):
        gamma1_branch_x(build_system(-1.9, 1.0, 0.5, 1.0), 10.0)
    with pytest.raises(ValueError):
        gamma1_branch_x(resonant_system(1.0, -0.2, 1.0), 10.0)


@pytest.mark.parametrize("y", [math.nan, math.inf, -math.inf])
def test_branch_rejects_non_finite_y(params, y):
    with pytest.raises(DomainError):
        gamma1_branch_x(params, y)


def test_branch_point_of_another_conic_is_typed(params):
    # x(y) is this system's branch; another system's conic misses it
    other = gamma1_conic(resonant_system(2.0, 0.3, 1.5))
    with pytest.raises(BranchPointError):
        _branch_x(params, 10.0, other)
