import math

import numpy as np
import pytest

from twofold import (FoldInfo, FoldKind, RegionKind, build_system, sigma, stability,
                     classify_point, eval_X, eval_Y, fold_info, half_return_X, half_return_Y,
                     resonant_system, saltation, sliding_field)
from twofold.errors import DomainError, GrazingCrossingError, TangentialGrazeError
from oracles import fd_lie_derivative


@pytest.fixture(scope="module")
def params():
    return build_system(-2.0, 1.0, 0.5, 1.0)


def test_classification_examples():
    assert classify_point((1.0, 2.0)) is RegionKind.CROSSING
    assert classify_point((1.0, -2.0)) is RegionKind.SLIDING
    assert classify_point((-1.0, 2.0)) is RegionKind.ESCAPING
    assert classify_point((3.0, 0.0)) is RegionKind.TANGENCY_X
    assert classify_point((0.0, 3.0)) is RegionKind.TANGENCY_Y
    assert classify_point((0.0, 0.0)) is RegionKind.DOUBLE_TANGENCY
    # the signs decide, not the product x y, which underflows to 0.0
    # at subnormals; a huge point is classified though |q| overflows, where
    # the plane cutoff 1e-10 (1 + |q|) once made it a DomainError
    assert classify_point((5e-324, 5e-324)) is RegionKind.CROSSING
    assert classify_point((-5e-324, -5e-324)) is RegionKind.CROSSING
    assert classify_point((5e-324, -5e-324)) is RegionKind.SLIDING
    assert classify_point((-5e-324, 5e-324)) is RegionKind.ESCAPING
    assert classify_point((1.5e308, 1.5e308)) is RegionKind.CROSSING


def test_crossing_quadrant_rule():
    rng = np.random.default_rng(0)
    for _ in range(30):
        x, y = rng.uniform(0.1, 5.0, 2)
        assert classify_point((x, y)) is RegionKind.CROSSING
        assert classify_point((-x, -y)) is RegionKind.CROSSING


def test_lie_derivatives_reported(params):
    # the region is read off Xf = y and Yf = x, the third field components
    q = (3.0, -2.0, 0.0)
    assert eval_X(params, q)[2] == -2.0 and eval_Y(params, q)[2] == 3.0
    assert classify_point(q[:2]) is RegionKind.SLIDING


def test_fold_visibility(params):
    fx = fold_info(params, (2.0, 0.0))
    assert fx.field == "X" and fx.kind is FoldKind.VISIBLE
    assert np.isclose(fx.second_lie, params.Lambda, atol=1e-14)
    fy = fold_info(params, (0.0, 2.0))
    assert fy.field == "Y" and fy.kind is FoldKind.VISIBLE
    assert np.isclose(fy.second_lie, -params.Lambda, atol=1e-14)


def test_fold_visibility_flips_with_lambda():
    p = build_system(-2.0, 1.0, 0.5, -1.0)
    assert fold_info(p, (2.0, 0.0)).kind is FoldKind.INVISIBLE
    assert fold_info(p, (0.0, 2.0)).kind is FoldKind.INVISIBLE


def test_fold_at_a_tiny_lambda_keeps_its_visibility():
    # X(Xf) = Lambda on the fold lines, nonzero however small: a Lambda of
    # 1e-12 once read as zero against the plane cutoff, a cusp
    for Lambda, kind in ((1e-12, FoldKind.VISIBLE), (-1e-12, FoldKind.INVISIBLE)):
        p = build_system(-2.0, 1.0, 0.5, Lambda)
        assert fold_info(p, (1.0, 0.0)) == FoldInfo("X", kind, Lambda, 2.0 * Lambda)
        assert fold_info(p, (0.0, 1.0)) == FoldInfo("Y", kind, -Lambda, -2.0 * Lambda)


def test_fold_info_rejects_off_line(params):
    with pytest.raises(ValueError):
        fold_info(params, (1.0, 1.0))


def test_second_lie_derivative_oracle(params):
    # X(Xf) computed by finite differences must be constant Lambda along y=0
    for x in (-3.0, 0.5, 7.0):
        s = np.array([x, 0.0, 0.0])
        val = fd_lie_derivative(lambda q: eval_X(params, q)[2],
                                lambda q: eval_X(params, q), s)
        assert np.isclose(val, params.Lambda, atol=1e-7)
    for y in (-2.0, 4.0):
        s = np.array([0.0, y, 0.0])
        val = fd_lie_derivative(lambda q: eval_Y(params, q)[2],
                                lambda q: eval_Y(params, q), s)
        assert np.isclose(val, -params.Lambda, atol=1e-7)


def test_sliding_field_symmetric_weight(params):
    # Xf = -Yf there, so the combination is the plain average
    q = (1.0, -1.0)
    expected = 0.5 * (eval_X(params, (1.0, -1.0, 0.0)) + eval_Y(params, (1.0, -1.0, 0.0)))
    assert np.allclose(sliding_field(params, q), expected[:2], atol=1e-12)


def test_sliding_field_direct_formula(params):
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.uniform(0.2, 4.0)
        y = -rng.uniform(0.2, 4.0)
        vx = eval_X(params, (x, y, 0.0))
        vy = eval_Y(params, (x, y, 0.0))
        expected = (x * vx - y * vy) / (x - y)
        assert abs(expected[2]) <= 1e-12 * (1 + np.max(np.abs(expected)))
        assert np.allclose(sliding_field(params, (x, y)), expected[:2], atol=1e-12)


def test_sliding_field_rejects_crossing(params):
    with pytest.raises(ValueError):
        sliding_field(params, (1.0, 1.0))
    with pytest.raises(ValueError):
        sliding_field(params, (2.0, 0.0))


@pytest.mark.parametrize("x", [3.0, 250.0])
def test_plane_checks_see_a_tangency_at_zero_only(params, x):
    # classify_point, saltation and the half-return starts all decide by the
    # exact sign of the Lie derivative: y = +-0.0 is a tangency and the least
    # subnormal is not, where the cutoff 1e-10 (1 + |(x, y)|) once drew the line
    for y in (0.0, -0.0):
        assert classify_point((x, y)) is RegionKind.TANGENCY_X
        with pytest.raises(GrazingCrossingError, match="not a transversal crossing point"):
            saltation(params, (x, y), "XtoY")
        for field, call in (("X", lambda: half_return_X(params, (x, y))),
                            ("Y", lambda: half_return_Y(params, (y, x)))):
            with pytest.raises(TangentialGrazeError, match=f"is tangential for the {field}"):
                call()
    y = 5e-324
    assert classify_point((x, y)) is RegionKind.CROSSING
    # the crossing is transversal, but (Y - X) / y leaves the float range
    with pytest.raises(GrazingCrossingError, match="leaves the float range"):
        saltation(params, (x, y), "XtoY")
    # the start is not tangential, and the crossing walk's touch bound finds
    # that the flight rises by less than rounding: it does not enter
    for call in (lambda: half_return_X(params, (x, y)), lambda: half_return_Y(params, (y, x))):
        with pytest.raises(TangentialGrazeError, match="entry into the half-space is not"):
            call()


@pytest.mark.parametrize("q", [(math.nan, 1.0), (math.inf, 1.0), (1.0, -math.inf),
                               (0.0, math.nan)])
def test_classify_point_rejects_a_non_finite_point(q):
    # (nan, 1) once classified as escaping and (inf, 1) as a tangency
    with pytest.raises(DomainError, match="must be finite"):
        classify_point(q)


@pytest.mark.parametrize("q", [(math.nan, 0.0), (math.nan, 1.0), (1.0, math.inf)])
def test_saltation_rejects_a_non_finite_point(desk_params, q):
    # (nan, 0) once raised a bare ZeroDivisionError and (nan, 1) gave a NaN matrix
    with pytest.raises(DomainError, match="must be finite"):
        saltation(desk_params, q, "XtoY")


@pytest.mark.parametrize("q", [(math.nan, -1.0), (1.0, math.nan)])
def test_sliding_field_rejects_a_non_finite_point(desk_params, q):
    # both once ended in a bare AssertionError
    with pytest.raises(DomainError, match="must be finite"):
        sliding_field(desk_params, q)


@pytest.mark.parametrize("call, q", [("saltation", (1.0, 2.0)), ("saltation", (1.0, -2.0)),
                                     ("sliding_field", (1.0, -2.0)),
                                     ("sliding_field", (1.0, 2.0))])
def test_plane_point_is_checked_once_per_call(desk_params, monkeypatch, call, q):
    # the caller's check and classify_point's once both ran on one point
    checked = []
    check = sigma._finite_plane_point
    for module in (sigma, stability):  # each module's own binding of the check, if any
        monkeypatch.setattr(module, "_finite_plane_point",
                            lambda point: checked.append(point) or check(point),
                            raising=False)
    try:
        saltation(desk_params, q, "XtoY") if call == "saltation" else sliding_field(desk_params, q)
    except (DomainError, GrazingCrossingError):  # off the call's region
        pass
    assert checked == [q]


@pytest.mark.parametrize("q", [(1e308, -1e308), (-1e308, 1e308)])
def test_sliding_field_past_the_float_range_is_a_domain_error(desk_params, q):
    # a sliding and an escaping point at which A x of both fields overflows
    with pytest.raises(DomainError, match="leave the float range"):
        sliding_field(desk_params, q)


@pytest.mark.parametrize("q", [(5e-324, -5e-324), (-5e-324, 5e-324), (1.0, -1e-310),
                               (1e300, -5e-324)])
def test_sliding_field_at_subnormal_lie_derivatives(desk_params, q):
    # sliding and escaping points the plane cutoff once called tangencies;
    # weights formed from halves of Xf and Yf would divide by zero there,
    # since half of 5e-324 rounds to 0.0
    x, y = q
    w = x / (x - y)  # Yf / (Yf - Xf)
    expected = w * eval_X(desk_params, (x, y, 0.0)) + (1.0 - w) * eval_Y(desk_params, (x, y, 0.0))
    assert np.allclose(sliding_field(desk_params, q), expected[:2], rtol=1e-15, atol=0.0)


def test_sliding_field_where_yf_minus_xf_overflows():
    # Yf - Xf = 3.4e308 leaves the float range while both fields stay in it
    # (A = -0.5): the weights come from the halves, 1/2 each at Xf = -Yf
    p = resonant_system(0.25, 0.5, 1.0)
    q = (1.7e308, -1.7e308)
    expected = 0.5 * eval_X(p, (*q, 0.0)) + 0.5 * eval_Y(p, (*q, 0.0))
    assert np.allclose(sliding_field(p, q), expected[:2], rtol=1e-15, atol=0.0)
