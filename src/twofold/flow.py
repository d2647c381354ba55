"""Closed-form flows and fundamental matrices of the two linear pieces.

Both linear parts have spectrum {A, C + i, C - i}, so their exponentials are
assembled from that eigenstructure rather than a generic matrix exponential:
the (y, z) block of the upper field is a frequency-1 rotation scaled by
exp(Ct), and the x row is a rate-A filter driven by z.  The lower field is
the S-conjugate of the upper one, Y(s) = S X(S s), so its flow, stationary
point and fundamental matrices are the S-conjugates of the upper kernels:
phi_Y(t, s) = S phi_X(t, S s) and Phi_Y = S Phi_X S.

Each affine piece is integrated as phi(t, s) = s* + exp(Dt)(s - s*) around
its stationary point s*, which exists whenever A(C^2 + 1) != 0; in the
resonant family A = -2C != 0 this always holds.
"""
from __future__ import annotations

import math

import numpy as np

from .system import INVOLUTION, SystemParams

__all__ = [
    "flow_X",
    "flow_Y",
    "fundamental_X",
    "fundamental_Y",
    "plane_flight",
    "stationary_X",
    "stationary_Y",
    "z_closed_form",
]

def _phi_canonical(A: float, C: float, H: float, t):
    """exp(D t) for the canonical arrangement (x driven by z, (y,z) rotation).

    For an ndarray t the result is the C-contiguous stack of shape
    t.shape + (3, 3); each matrix of it equals the one for its scalar time bit
    for bit.
    """
    b = -H * ((A - C) ** 2 + 1.0)
    beta = C - A
    e_at = np.exp(A * t)
    e_ct = np.exp(C * t)
    st, ct = np.sin(t), np.cos(t)
    den = beta * beta + 1.0
    # int_0^t e^{A(t-s)} e^{Cs} sin s ds and the cosine analogue
    int_sin = (e_ct * (beta * st - ct) + e_at) / den
    int_cos = (e_ct * (beta * ct + st) - beta * e_at) / den
    if isinstance(t, np.ndarray):
        zero = np.zeros_like(e_at)
        # stacking along the last axis keeps each 3x3 matrix contiguous, so
        # stack @ vector runs the scalar call's matmul kernel per time
        return np.stack([
            e_at, b * int_sin, b * (int_cos + C * int_sin),
            zero, e_ct * (ct - C * st), -(1.0 + C * C) * e_ct * st,
            zero, e_ct * st, e_ct * (ct + C * st),
        ], axis=-1).reshape(t.shape + (3, 3))
    out = np.zeros((3, 3))
    out[0, 0] = e_at
    out[0, 1] = b * int_sin
    out[0, 2] = b * (int_cos + C * int_sin)
    out[1, 1] = e_ct * (ct - C * st)
    out[1, 2] = -(1.0 + C * C) * e_ct * st
    out[2, 1] = e_ct * st
    out[2, 2] = e_ct * (ct + C * st)
    return out


def _stationary_canonical(A: float, C: float, H: float, L: float) -> np.ndarray:
    zs = L / (1.0 + C * C)
    return np.array([H * L * (A - 2.0 * C) / (1.0 + C * C), -2.0 * C * zs, zs])


def fundamental_X(p: SystemParams, t) -> np.ndarray:
    """exp(DX t) in closed form; an ndarray t gives the stack t.shape + (3, 3)."""
    return _phi_canonical(p.A, p.C, p.H, t)


def fundamental_Y(p: SystemParams, t) -> np.ndarray:
    """exp(DY t) = S exp(DX t) S; an ndarray t gives the stack t.shape + (3, 3)."""
    return INVOLUTION @ _phi_canonical(p.A, p.C, p.H, t) @ INVOLUTION


def stationary_X(p: SystemParams) -> np.ndarray:
    """Stationary point of the upper affine field."""
    return _stationary_canonical(p.A, p.C, p.H, p.Lambda)


def stationary_Y(p: SystemParams) -> np.ndarray:
    """Stationary point of the lower affine field, the S-image of the upper one."""
    return INVOLUTION @ _stationary_canonical(p.A, p.C, p.H, p.Lambda)


def flow_X(p: SystemParams, s0, t) -> np.ndarray:
    """Exact solution of sdot = X(s) at time t from s0; an ndarray t gives
    the states as rows of shape t.shape + (3,)."""
    ss = _stationary_canonical(p.A, p.C, p.H, p.Lambda)
    return ss + _phi_canonical(p.A, p.C, p.H, t) @ (np.asarray(s0, dtype=float) - ss)


def flow_Y(p: SystemParams, s0, t) -> np.ndarray:
    """Exact solution of sdot = Y(s) at time t from s0; an ndarray t gives
    the states as rows of shape t.shape + (3,)."""
    ss = _stationary_canonical(p.A, p.C, p.H, p.Lambda)
    mirrored = INVOLUTION @ np.asarray(s0, dtype=float)
    inner = ss + _phi_canonical(p.A, p.C, p.H, t) @ (mirrored - ss)
    return inner @ INVOLUTION  # S is symmetric: S applied to each row of inner


def _phi_rows(p: SystemParams, t: float):
    """exp(DX t) for one scalar t as three row tuples of floats: the entries
    of _phi_canonical written with ``math``, equal to fundamental_X up to
    round-off, with no ndarray."""
    A, C, H = p.A, p.C, p.H
    beta = C - A
    den = beta * beta + 1.0
    b = -H * den
    e_at, e_ct = math.exp(A * t), math.exp(C * t)
    st, ct = math.sin(t), math.cos(t)
    int_sin = (e_ct * (beta * st - ct) + e_at) / den
    int_cos = (e_ct * (beta * ct + st) - beta * e_at) / den
    return ((e_at, b * int_sin, b * (int_cos + C * int_sin)),
            (0.0, e_ct * (ct - C * st), -(1.0 + C * C) * e_ct * st),
            (0.0, e_ct * st, e_ct * (ct + C * st)))


def plane_flight(p: SystemParams, q, t: float):
    """State at time t of the upper-field orbit from the plane point
    q = (x, y, 0), with the first two columns of the fundamental matrix at t.

    Returns ((x, y, z), Phi[:, 0], Phi[:, 1]) as tuples of floats for one
    scalar t: the closed form of flow_X and fundamental_X written with
    ``math``, equal to them up to round-off, with no 3x3 temporaries.
    """
    A, C, H, L = p.A, p.C, p.H, p.Lambda
    u, v = float(q[0]), float(q[1])
    (e_at, p01, p02), (_, p11, p12), (_, p21, p22) = _phi_rows(p, t)
    c2 = 1.0 + C * C
    zs = L / c2
    xs, ys = H * L * (A - 2.0 * C) / c2, -2.0 * C * zs
    du, dv = u - xs, v - ys
    x = xs + e_at * du + p01 * dv - p02 * zs
    y = ys + p11 * dv - p12 * zs
    z = zs + p21 * dv - p22 * zs
    return (x, y, z), (e_at, 0.0, 0.0), (p01, p11, p21)


def z_closed_form(p: SystemParams, s0):
    """Closed-form z(t) and dz/dt(t) along the upper-field orbit from s0.

    The z component decouples into a driven 2D rotation, so it admits the
    scalar closed form z(t) = zs + e^{Ct} (wy sin t + (cos t + C sin t) wz).
    Both returned callables take a scalar t.
    """
    C = p.C
    zs = p.Lambda / (1.0 + C * C)
    wy = float(s0[1]) + 2.0 * C * zs
    wz = float(s0[2]) - zs

    def z(t):
        e = math.exp(C * t)
        return zs + e * (wy * math.sin(t) + (math.cos(t) + C * math.sin(t)) * wz)

    def dz(t):
        e = math.exp(C * t)
        st, ct = math.sin(t), math.cos(t)
        return e * (wy * (C * st + ct) + wz * ((C * C - 1.0) * st + 2.0 * C * ct))

    return z, dz
