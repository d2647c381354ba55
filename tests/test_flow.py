import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from twofold import (apply_involution, build_system, errors, eval_X, eval_Y, flow_X,
                     flow_Y, fundamental_X, fundamental_Y, jacobian_Y,
                     resonant_system, stationary_X, stationary_Y)
from twofold.flow import _phi_rows, plane_flight, z_closed_form
from oracles import fd_jacobian, rk4


@pytest.fixture(scope="module")
def params():
    return build_system(-2.0, 1.0, 0.5, 1.0)


def test_time_zero_is_identity(params):
    rng = np.random.default_rng(0)
    for _ in range(10):
        s0 = rng.uniform(-3, 3, 3)
        assert np.allclose(flow_X(params, s0, 0.0), s0, atol=1e-14)
        assert np.allclose(flow_Y(params, s0, 0.0), s0, atol=1e-14)


def test_flow_group_property(params):
    rng = np.random.default_rng(1)
    for _ in range(10):
        s0 = rng.uniform(-2, 2, 3)
        t1, t2 = rng.uniform(-1.5, 1.5, 2)
        once = flow_X(params, s0, t1 + t2)
        twice = flow_X(params, flow_X(params, s0, t1), t2)
        assert np.max(np.abs(once - twice)) <= 1e-10 * (1.0 + np.max(np.abs(once)))


def test_flow_y_conjugacy(params):
    rng = np.random.default_rng(2)
    for _ in range(10):
        s0 = rng.uniform(-2, 2, 3)
        t = rng.uniform(-2, 2)
        direct = flow_Y(params, s0, t)
        conjugated = apply_involution(flow_X(params, apply_involution(s0), t))
        assert np.max(np.abs(direct - conjugated)) <= 1e-11 * (1.0 + np.max(np.abs(direct)))


def test_flow_x_matches_rk4(params):
    s0 = np.array([1.0, 1.0, 0.0])
    exact = flow_X(params, s0, 0.7)
    oracle = rk4(lambda s: eval_X(params, s), s0, 0.7, 7000)
    assert np.max(np.abs(exact - oracle)) <= 1e-8


def test_flow_y_matches_rk4_backward(params):
    s0 = np.array([1.0, 0.3, 0.0])
    exact = flow_Y(params, s0, -0.5)
    oracle = rk4(lambda s: eval_Y(params, s), s0, -0.5, 5000)
    assert np.max(np.abs(exact - oracle)) <= 1e-8


def test_stationary_points_are_equilibria(params):
    assert np.max(np.abs(eval_X(params, stationary_X(params)))) <= 1e-13
    assert np.max(np.abs(eval_Y(params, stationary_Y(params)))) <= 1e-13


def test_fundamental_identity_at_zero(params):
    assert np.allclose(fundamental_X(params, 0.0), np.eye(3), atol=1e-15)
    assert np.allclose(fundamental_Y(params, 0.0), np.eye(3), atol=1e-15)


def test_fundamental_determinant():
    p = build_system(-1.3, 0.6, 0.2, 1.0)
    for t in (-1.0, 0.5, 2.4):
        det = np.linalg.det(fundamental_X(p, t))
        assert np.isclose(det, np.exp((p.A + 2.0 * p.C) * t), rtol=1e-10)
    q = resonant_system(0.6, 0.2, 1.0)
    for t in (-2.0, 0.9, 3.1):
        assert np.isclose(np.linalg.det(fundamental_X(q, t)), 1.0, rtol=1e-10)


def test_fundamental_matches_fd_jacobian(params):
    s0 = np.array([0.4, -1.2, 0.8])
    for t in (0.3, 1.7):
        fd = fd_jacobian(lambda s: flow_X(params, s, t), s0, 1e-6)
        assert np.max(np.abs(fundamental_X(params, t) - fd)) <= 1e-6


def test_fundamental_y_matches_expm(params):
    dy = jacobian_Y(params)
    for t in (0.25, 1.1, 2.9):
        with mpmath.workdps(30):
            reference = np.array(mpmath.expm(mpmath.matrix(dy * t)).tolist(), dtype=float)
        got = fundamental_Y(params, t)
        assert np.max(np.abs(got - reference)) <= 1e-12 * (1.0 + np.max(np.abs(reference)))


def test_mapping_property(params):
    rng = np.random.default_rng(3)
    for _ in range(25):
        s0 = rng.uniform(-2, 2, 3)
        t = rng.uniform(-np.pi, np.pi)
        lhs = fundamental_X(params, t) @ eval_X(params, s0)
        rhs = eval_X(params, flow_X(params, s0, t))
        assert np.max(np.abs(lhs - rhs)) <= 1e-9 * (1.0 + np.max(np.abs(rhs)))
        lhs_y = fundamental_Y(params, t) @ eval_Y(params, s0)
        rhs_y = eval_Y(params, flow_Y(params, s0, t))
        assert np.max(np.abs(lhs_y - rhs_y)) <= 1e-9 * (1.0 + np.max(np.abs(rhs_y)))


def test_fundamental_group_property(params):
    rng = np.random.default_rng(4)
    for _ in range(10):
        t1, t2 = rng.uniform(-2, 2, 2)
        lhs = fundamental_X(params, t1 + t2)
        rhs = fundamental_X(params, t2) @ fundamental_X(params, t1)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * (1.0 + np.max(np.abs(lhs)))


def test_oracle_agreement_sampled_draws():
    rng = np.random.default_rng(5)
    for _ in range(5):
        a = rng.uniform(-4.0, -0.2)
        p = resonant_system(-a / 2.0, rng.uniform(-1.0 / 3.0 + 0.01, 0.99),
                            rng.uniform(0.5, 2.0))
        s0 = rng.uniform(-2, 2, 3)
        t = rng.uniform(0.0, np.pi)
        oracle = rk4(lambda s: eval_X(p, s), s0, t, 5000)
        assert np.max(np.abs(flow_X(p, s0, t) - oracle)) <= 1e-8


def test_symmetric_point_orbits_are_mirror_images(params):
    # from a fixed point of the involution, the two half-space orbits are
    # exchanged by it at equal times
    p0 = np.array([-0.8, 0.8, 0.0])
    assert np.allclose(apply_involution(p0), p0)
    for t in (0.2, 0.9, 2.0):
        up = flow_X(params, p0, t)
        down = flow_Y(params, p0, t)
        assert np.allclose(down, apply_involution(up), atol=1e-12 * (1 + np.abs(up).max()))


def test_z_closed_form_consistency(params):
    rng = np.random.default_rng(6)
    for field in ("X", "Y"):
        flow = flow_X if field == "X" else flow_Y
        s0 = rng.uniform(-2, 2, 3)
        # the kernel is the upper field's: the lower orbit's z is -z along
        # the upper orbit from S s0
        sign, start = (1.0, s0) if field == "X" else (-1.0, apply_involution(s0))
        z, dz = z_closed_form(params, start)
        for t in (-1.3, 0.2, 2.5):
            assert np.isclose(sign * z(t), flow(params, s0, t)[2], atol=1e-12)
            h = 1e-6
            assert np.isclose(dz(t), (z(t + h) - z(t - h)) / (2 * h), atol=1e-7)


@settings(max_examples=60, deadline=None)
@given(A=st.floats(-3.0, 3.0), C=st.floats(0.05, 1.5), c_sign=st.sampled_from([1.0, -1.0]),
       H=st.floats(-1.0, 1.0), Lambda=st.floats(0.2, 2.0),
       s0=st.lists(st.floats(-50.0, 50.0), min_size=3, max_size=3),
       ts=st.one_of(st.lists(st.floats(-20.0, 20.0), max_size=40).map(np.array),
                    st.floats(-20.0, 20.0).map(np.array),
                    hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0,
                                                            max_side=7),
                               elements=st.floats(-20.0, 20.0))))
def test_array_times_match_scalar_calls_bit_for_bit(A, C, c_sign, H, Lambda, s0, ts):
    # an ndarray of times (0-d, 2-d and empty included) gives C-contiguous
    # stacks whose entries are the scalar calls' results bit for bit, and
    # the Y states are the S-images of the X states from S s0
    p = build_system(A, c_sign * C, H, Lambda)
    for fn, args, tail in ((flow_X, (p, s0), (3,)), (flow_Y, (p, s0), (3,)),
                           (fundamental_X, (p,), (3, 3)), (fundamental_Y, (p,), (3, 3))):
        stack = fn(*args, ts)
        assert stack.shape == ts.shape + tail
        assert stack.flags.c_contiguous
        scalars = [fn(*args, float(t)) for t in ts.reshape(-1)]
        assert stack.reshape((-1,) + tail).tobytes() == b"".join(m.tobytes() for m in scalars)
    # phi_Y(t, s) = S phi_X(t, S s), with S = (-y, -x, -z) a swap and a negation
    mirror = -flow_X(p, apply_involution(s0), ts)[..., [1, 0, 2]]
    assert flow_Y(p, s0, ts).tobytes() == mirror.tobytes()


@pytest.mark.parametrize("s0, shape", [([1.0], "(1,)"), ([1.0, 1.0, 1.0, 1.0], "(4,)"),
                                        (np.ones((1, 3)), "(1, 3)")])
def test_a_start_of_other_than_three_coordinates_is_a_domain_error(params, s0, shape):
    # one coordinate is not broadcast to three, and four are not cut to three
    for flow in (flow_X, flow_Y):
        for t in (0.5, np.array([0.0, 0.5])):
            with pytest.raises(errors.DomainError,
                               match=rf"3 coordinates, got shape {re.escape(shape)}$"):
                flow(params, s0, t)


def test_a_start_is_read_alike_from_a_list_a_tuple_and_an_array(params):
    s0, ts = [0.3, -1.7, 2.5], np.linspace(-2.0, 2.0, 7)
    for flow in (flow_X, flow_Y):
        for t in (0.5, ts):
            ref = flow(params, s0, t).tobytes()
            assert flow(params, tuple(s0), t).tobytes() == ref
            assert flow(params, np.array(s0), t).tobytes() == ref


@settings(max_examples=60, deadline=None)
@given(A=st.floats(-3.0, 3.0), C=st.floats(0.05, 1.5), c_sign=st.sampled_from([1.0, -1.0]),
       H=st.floats(-1.0, 1.0), Lambda=st.floats(0.2, 2.0),
       q=st.lists(st.floats(-50.0, 50.0), min_size=2, max_size=2),
       t=st.floats(0.0, 2.0 * np.pi), forward=st.booleans(), field=st.sampled_from("XY"))
def test_plane_flight_matches_array_kernels(A, C, c_sign, H, Lambda, q, t, forward, field):
    # the scalar kernel of the half-return against flow_X/Y, and its rows of
    # exp(DX t) against fundamental_X, at the same time, for both fields and
    # time directions; the Y flight from q is the S-image of the kernel's X
    # flight from S q
    p = build_system(A, c_sign * C, H, Lambda)
    t = t if forward else -t
    if field == "X":
        state = plane_flight(p, q, t)
    else:
        x, y, z = plane_flight(p, (-q[1], -q[0]), t)
        state = (-y, -x, -z)
    flow, fundamental, stationary = ((flow_X, fundamental_X, stationary_X) if field == "X"
                                     else (flow_Y, fundamental_Y, stationary_Y))
    s0, ss, phi = np.array([q[0], q[1], 0.0]), stationary(p), fundamental(p, t)
    ref = flow(p, s0, t)
    # the state is the sum ss + Phi (s0 - ss), which can cancel far below
    # its terms: both kernels round on the scale of the terms
    terms = np.max(np.abs(ss)) + np.max(np.abs(phi)) * np.max(np.abs(s0 - ss))
    assert np.max(np.abs(np.array(state) - ref)) <= 1e-13 * (1.0 + np.max(np.abs(ref)) + terms)
    # the math backend of exp(DX t), which monodromy composes, entry by entry
    phi_x = fundamental_X(p, t)
    gap = np.max(np.abs(np.array(_phi_rows(p, t)) - phi_x))
    assert gap <= 1e-13 * (1.0 + np.max(np.abs(phi_x)))


_KERNELS = [(flow_X, (1.0, 2.0, 3.0), "the X flow"), (flow_Y, (1.0, 2.0, 3.0), "the Y flow"),
            (fundamental_X, None, r"exp\(DX t\)"), (fundamental_Y, None, r"exp\(DY t\)")]


@pytest.mark.parametrize("fn, s0, name", _KERNELS)
def test_kernel_errors_are_typed(desk_params, fn, s0, name):
    # at C = 1, A = -2: e^{Ct} and e^{-2t} leave the float range by t = 800,
    # which once gave inf, -inf and NaN entries with RuntimeWarnings; a NaN
    # time gave NaN with no warning, and a list of times a TypeError
    args = (desk_params,) if s0 is None else (desk_params, s0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t, first in ((800.0, "800.0"), ([1.0, 750.0, 800.0], "750.0"),
                         (np.array([[1.0], [-800.0]]), "-800.0")):
            with pytest.raises(errors.DivergenceError,
                               match=rf"^{name} overflows floating point at t={first}$"):
                fn(*args, t)
        for t in (np.nan, np.inf, [1.0, -np.inf]):
            with pytest.raises(errors.DomainError, match=r"^t must be finite, got (nan|-?inf)$"):
                fn(*args, t)
    assert fn(*args, [0.5, 1.0]).tobytes() == fn(*args, np.array([0.5, 1.0])).tobytes()
    if s0 is not None:
        with pytest.raises(errors.DomainError, match=r"must be finite, got \[1\.0, nan, 3\.0\]$"):
            fn(desk_params, (1.0, np.nan, 3.0), 0.5)


def test_plane_flight_errors_are_typed(desk_params):
    # math.exp's OverflowError (e^{-2t} from t = -360, e^{t} from 710), and
    # products past the float range (at 709), name t
    for t in (-360.0, 709.0, 800.0):
        with pytest.raises(errors.DivergenceError, match=rf"^the X flow overflows floating "
                           rf"point at t={t!r}$"):
            plane_flight(desk_params, (1.0, 2.0), t)
    for q, t in (((1.0, 2.0), np.nan), ((np.inf, 2.0), 1.0), ((1.0, np.nan), 1.0)):
        with pytest.raises(errors.DomainError, match=r"^t and q must be finite, got t="):
            plane_flight(desk_params, q, t)
