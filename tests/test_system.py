import inspect
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import twofold as tf
from twofold import (INVOLUTION, apply_involution, build_system, eval_X, eval_Y,
                     jacobian_X, jacobian_Y, resonant_system, SystemParams)
from twofold.errors import DomainError
from twofold.system import _field, _plane_field
from oracles import fd_jacobian

_OFF_RESONANCE = build_system(-1.0, 1.0, 0.5, 1.0)
_ELLIPSE = resonant_system(1.0, 1.5, 1.0)


def test_build_valid_resonant():
    p = build_system(-2.0, 1.0, 0.04, 1.0)
    assert p.resonant
    # the flag follows A and C however the parameters are built
    assert SystemParams(-2.0, 1.0, 0.04, 1.0).resonant
    assert not SystemParams(-1.9, 1.0, 0.04, 1.0).resonant


@pytest.mark.parametrize("call", [
    lambda: build_system(-2.0, 0.0, 0.04, 1.0),
    lambda: resonant_system(1.0, float("nan"), 1.0),
    lambda: tf.series_coeffs(_OFF_RESONANCE),
    lambda: tf.series_coeffs(_ELLIPSE),
    lambda: tf.gamma1_conic(_OFF_RESONANCE),
    lambda: tf.gamma1_branch_x(_ELLIPSE, 1.0),
    lambda: tf.asymptotic_invariants(_ELLIPSE),
    lambda: tf.stability_band((0.5, 1.0), (0.1, 0.5), 1),
    lambda: tf.time_matching(resonant_system(1.0, 0.5, 1.0), -1.0),
    lambda: tf.find_cycle_newton(_ELLIPSE, 5.0),
    lambda: tf.find_cycle_newton(resonant_system(-1.0, 0.04, 1.0)),
], ids=["build_system", "resonant_system", "series_off_resonance", "series_ellipse",
        "conic", "branch_x", "asymptotic_invariants", "stability_band",
        "time_matching", "find_cycle_newton", "find_cycle_negative_C"])
def test_parameter_guards_raise_domain_error(call):
    # one contract: a parameter outside a routine's range is a DomainError,
    # which is also a ValueError for callers that catch that
    with pytest.raises(DomainError):
        call()


_DESK = resonant_system(1.0, 0.04, 1.0)


@pytest.mark.parametrize("call", [
    lambda: tf.return_map(_DESK, (-3.0, -2.0)),
    lambda: tf.eval_P_X(build_system(-1.5, 1.0, 0.5, 1.0), (-5.0, 0.0, 0.0)),
    lambda: tf.returns.first_crossing(_DESK, (1.0, 1.0, -0.5), 1.0),
    lambda: tf.fold_info(_DESK, (1.0, 1.0)),
    lambda: tf.sliding_field(_DESK, (1.0, 1.0)),
    lambda: tf.saltation(_DESK, (1.0, 1.0), "sideways"),
], ids=["return_map_quadrant", "first_integral_power", "first_crossing_below_plane",
        "fold_info_off_line", "sliding_field_crossing", "saltation_direction"])
def test_argument_guards_raise_domain_error(call):
    # an argument outside a routine's range is a DomainError too
    with pytest.raises(DomainError):
        call()


def test_build_rejects_zero_c():
    with pytest.raises(ValueError):
        build_system(0.0, 0.0, 1.0, 1.0)


def test_build_rejects_zero_lambda():
    with pytest.raises(ValueError):
        build_system(-2.0, 1.0, 0.04, 0.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_build_rejects_non_finite_parameters(bad):
    base = [-2.0, 1.0, 0.04, 1.0]
    for i in range(4):
        with pytest.raises(ValueError, match="finite"):
            build_system(*base[:i], bad, *base[i + 1:])
    with pytest.raises(ValueError, match="finite"):
        resonant_system(bad, 0.04, 1.0)


def test_resonant_constructor_is_exact():
    for c in (0.3, 0.7775, 1.0, 1.9182736455):
        p = resonant_system(c, 0.1, 1.0)
        assert p.A + 2.0 * p.C == 0.0
        assert p.resonant


def test_nonresonant_flag():
    assert not build_system(-1.9, 1.0, 0.1, 1.0).resonant


def test_eval_x_at_origin():
    p = build_system(-2.0, 1.0, 1.0, 1.0)
    assert np.allclose(eval_X(p, [0.0, 0.0, 0.0]), [1.0, 1.0, 0.0])


def test_eval_x_third_component_on_plane():
    p = build_system(-2.0, 1.0, 0.3, 1.0)
    rng = np.random.default_rng(3)
    for _ in range(20):
        x, y = rng.uniform(-5, 5, 2)
        assert eval_X(p, [x, y, 0.0])[2] == y


def _signed(lo, hi):
    return st.tuples(st.sampled_from([1.0, -1.0]), st.floats(lo, hi)).map(lambda sm: sm[0] * sm[1])


@settings(max_examples=300, deadline=None)
@given(C=_signed(0.01, 50.0), A=_signed(0.0, 100.0), H=st.floats(-3.0, 3.0),
       Lambda=_signed(0.01, 10.0), x=st.floats(-1e6, 1e6), y=st.floats(-1e6, 1e6))
def test_plane_field_is_the_field_at_z_zero(C, A, H, Lambda, x, y):
    # the z = 0 restriction gives _field's bits; only a y of -0.0, which
    # _field's 2 C 0 + y can round to +0.0, keeps its sign here
    p = build_system(A, C, H, Lambda)
    got, expected = _plane_field(p, x, y), _field(p, x, y, 0.0)
    assert struct.pack("<2d", *got[:2]) == struct.pack("<2d", *expected[:2])
    assert struct.pack("<d", got[2]) == struct.pack("<d", y) and got[2] == expected[2]


def test_eval_x_hand_evaluation():
    # componentwise: (-2*1 - 0.5*((9+1)*3 - 1), 1 - 2*3, 2*3 + 2)
    p = build_system(-2.0, 1.0, 0.5, 1.0)
    assert np.allclose(eval_X(p, [1.0, 2.0, 3.0]), [-16.5, -5.0, 8.0], atol=1e-14)


def test_eval_y_third_component_on_plane():
    p = build_system(-2.0, 1.0, 0.3, 1.0)
    rng = np.random.default_rng(4)
    for _ in range(20):
        x, y = rng.uniform(-5, 5, 2)
        assert eval_Y(p, [x, y, 0.0])[2] == x


def test_eval_y_is_involution_conjugate():
    p = build_system(-2.0, 1.0, 0.5, 1.0)
    rng = np.random.default_rng(5)
    for _ in range(30):
        s = rng.uniform(-4, 4, 3)
        expected = apply_involution(eval_X(p, apply_involution(s)))
        assert np.allclose(eval_Y(p, s), expected, atol=1e-12)


def test_eval_y_hand_evaluation():
    # mirror parameters (a, c, h, lam) = (-2, 1, 0.5, -1) at (2, 1, -3):
    # (-1 - 2*(-3), -2*1 - 0.5*(10*(-3) + 1), -6 + 2)
    p = build_system(-2.0, 1.0, 0.5, 1.0)
    assert np.allclose(eval_Y(p, [2.0, 1.0, -3.0]), [5.0, 12.5, -4.0], atol=1e-14)


@pytest.mark.parametrize("field", [eval_X, eval_Y])
@pytest.mark.parametrize("s", [(0.0, 0.0, math.inf), (math.nan, 1.0, 0.0), (1.0, -math.inf, 0.5)])
def test_field_at_a_non_finite_point_is_a_domain_error(field, s):
    # at (0, 0, inf) with C = Lambda = 5e-324 the NumPy scalars warned on
    # inf * 0, and a NaN coordinate read NaN without an error
    with pytest.raises(DomainError, match="finite point"):
        field(build_system(0.0, 5e-324, 0.0, 5e-324), s)


def test_involution_examples():
    assert np.allclose(apply_involution([1.0, 2.0, 3.0]), [-2.0, -1.0, -3.0])
    fixed = np.array([0.7, -0.7, 0.0])
    assert np.allclose(apply_involution(fixed), fixed)
    rng = np.random.default_rng(6)
    s = rng.uniform(-3, 3, 3)
    assert np.allclose(apply_involution(apply_involution(s)), s)
    assert np.allclose(INVOLUTION @ INVOLUTION, np.eye(3))


def test_equivariance_identity():
    p = build_system(-2.0, 1.0, 0.4, 1.3)
    rng = np.random.default_rng(7)
    for _ in range(50):
        s = rng.uniform(-4, 4, 3)
        s[2] = abs(s[2])
        lhs = eval_X(p, apply_involution(s))
        rhs = apply_involution(eval_Y(p, s))
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * (1.0 + np.max(np.abs(lhs)))


def test_jacobians_are_involution_similar():
    p = build_system(-1.4, 0.7, 0.2, 0.9)
    dx, dy = jacobian_X(p), jacobian_Y(p)
    assert np.allclose(dx @ INVOLUTION, INVOLUTION @ dy, atol=1e-14)


def test_jacobians_match_finite_differences():
    p = build_system(-1.4, 0.7, 0.2, 0.9)
    s0 = np.array([0.3, -0.2, 0.5])
    assert np.allclose(jacobian_X(p), fd_jacobian(lambda s: eval_X(p, s), s0, 1e-6),
                       atol=1e-8)
    assert np.allclose(jacobian_Y(p), fd_jacobian(lambda s: eval_Y(p, s), s0, 1e-6),
                       atol=1e-8)


def test_trace_is_a_plus_2c():
    p = build_system(-1.1, 0.8, 0.2, 1.0)
    assert np.isclose(np.trace(jacobian_X(p)), p.A + 2.0 * p.C, atol=1e-14)
    q = resonant_system(0.8, 0.2, 1.0)
    assert np.trace(jacobian_X(q)) == 0.0


def test_exports_are_consistent():
    # every name a module lists in __all__ exists there, and every public
    # name of the package comes from some module's __all__
    modules = [m for m in vars(tf).values() if inspect.ismodule(m) and hasattr(m, "__all__")]
    assert len(modules) >= 7
    exported = set()
    for module in modules:
        assert [n for n in module.__all__ if not hasattr(module, n)] == [], module.__name__
        exported.update(module.__all__)
    public = {n for n, v in vars(tf).items() if not n.startswith("_") and not inspect.ismodule(v)}
    assert sorted(public - exported) == []


@pytest.mark.parametrize("A, C", [(1e160, 1.0), (0.0, 1.4e154), (1e308, -1e308)])
def test_build_rejects_squares_past_the_float_range(A, C):
    # (A - C) ** 2 once raised a bare OverflowError in eval_X, jacobian_X,
    # fold_info and sliding_field; (A - C)^2 and C^2 just inside the range build
    with pytest.raises(DomainError, match=re.escape(f"A={A!r}, C={C!r}") + "$"):
        build_system(A, C, 0.5, 1.0)
    assert np.isfinite(jacobian_X(build_system(0.0, 1.3e154, 0.5, 1.0))).all()
