import contextlib
import math

import numpy as np
import pytest

from twofold import (FoldKind, RegionKind, build_system, classify_point, eval_X,
                     eval_Y, fold_info, half_return_X, half_return_Y, saltation,
                     sliding_field)
from twofold.errors import DomainError, GrazingCrossingError, NoReturnError, TangentialGrazeError
from twofold.sigma import _tangency_cutoff
from oracles import fd_lie_derivative


@pytest.fixture(scope="module")
def params():
    return build_system(-2.0, 1.0, 0.5, 1.0)


def test_classification_examples(params):
    assert classify_point(params, (1.0, 2.0)).kind is RegionKind.CROSSING
    assert classify_point(params, (1.0, -2.0)).kind is RegionKind.SLIDING
    assert classify_point(params, (-1.0, 2.0)).kind is RegionKind.ESCAPING
    assert classify_point(params, (3.0, 0.0)).kind is RegionKind.TANGENCY_X
    assert classify_point(params, (0.0, 3.0)).kind is RegionKind.TANGENCY_Y
    assert classify_point(params, (0.0, 0.0)).kind is RegionKind.DOUBLE_TANGENCY


def test_crossing_quadrant_rule(params):
    rng = np.random.default_rng(0)
    for _ in range(30):
        x, y = rng.uniform(0.1, 5.0, 2)
        assert classify_point(params, (x, y)).kind is RegionKind.CROSSING
        assert classify_point(params, (-x, -y)).kind is RegionKind.CROSSING


def test_lie_derivatives_reported(params):
    cls = classify_point(params, (3.0, -2.0))
    assert cls.lie_x == -2.0 and cls.lie_y == 3.0


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


def test_fold_below_the_tangency_cutoff_is_a_cusp():
    # X(Xf) = Lambda at the fold lines: a |Lambda| below the cutoff reads as zero
    p = build_system(-2.0, 1.0, 0.5, 1e-12)
    assert fold_info(p, (1.0, 0.0)).kind is FoldKind.CUSP
    assert fold_info(p, (0.0, 1.0)).kind is FoldKind.CUSP


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
def test_plane_checks_share_one_tangency_cutoff(params, x):
    # classify_point, saltation and the half-return starts all call the tangency
    # cutoff of sigma: just below it each sees a tangency, just above it none
    tol = _tangency_cutoff(x, 0.0)
    for y, tangent in ((0.99 * tol, True), (1.01 * tol, False)):
        assert (classify_point(params, (x, y)).kind is RegionKind.TANGENCY_X) is tangent
        checks = [(lambda: saltation(params, (x, y), "XtoY"), GrazingCrossingError),
                  (lambda: half_return_X(params, (x, y)), TangentialGrazeError),
                  (lambda: half_return_Y(params, (y, x)), TangentialGrazeError)]
        for call, error in checks:
            # a transversal start may still find no return in the window
            with pytest.raises(error) if tangent else contextlib.suppress(NoReturnError):
                call()


@pytest.mark.parametrize("q", [(math.nan, 1.0), (math.inf, 1.0), (1.0, -math.inf),
                               (1.5e308, 1.5e308)])
def test_classify_point_rejects_a_non_finite_point(desk_params, q):
    # (nan, 1) once classified as escaping and (inf, 1) as a tangency; at
    # (1.5e308, 1.5e308) |q| overflows, so the tangency cutoff is not finite
    with pytest.raises(DomainError, match="must be finite"):
        classify_point(desk_params, q)


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


@pytest.mark.parametrize("q", [(1e308, -1e308), (-1e308, 1e308)])
def test_sliding_field_past_the_float_range_is_a_domain_error(desk_params, q):
    # a sliding and an escaping point with a finite tangency cutoff, at which
    # A x of both fields overflows
    with pytest.raises(DomainError, match="leave the float range"):
        sliding_field(desk_params, q)
