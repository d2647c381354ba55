"""Closed-form flows and fundamental matrices of the two linear pieces.

Both linear parts have spectrum {A, C + i, C - i}, so their exponentials are
assembled from that eigenstructure rather than a generic matrix exponential:
the (y, z) block of the upper field is a frequency-1 rotation scaled by
exp(Ct), and the x row is a rate-A filter driven by z.  ``_phi_rows`` writes
the entries of exp(DX t) once, for two backends that do not round alike:
``math`` functions for one scalar time on the solver path (``plane_flight``,
``stability.monodromy``) and NumPy ufuncs for the public kernels, which take
a scalar time (a 0-d stack) or an array of times.  The lower field is the
S-conjugate of the upper one, Y(s) = S X(S s), so its flow, stationary point
and fundamental matrices are the S-conjugates of the private upper kernels:
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


def _phi_rows(p: SystemParams, t, exp=math.exp, sin=math.sin, cos=math.cos):
    """exp(DX t) as three row tuples, for the x row driven by z and the (y, z)
    rotation.  With the default ``math`` functions t is one scalar time and
    the entries are floats; with np.exp, np.sin and np.cos each entry but
    the two zeros has the shape of t."""
    A, C, H = p.A, p.C, p.H
    b = -H * ((A - C) ** 2 + 1.0)
    beta = C - A
    den = beta * beta + 1.0
    e_at, e_ct = exp(A * t), exp(C * t)
    st, ct = sin(t), cos(t)
    # int_0^t e^{A(t-s)} e^{Cs} sin s ds and the cosine analogue
    int_sin = (e_ct * (beta * st - ct) + e_at) / den
    int_cos = (e_ct * (beta * ct + st) - beta * e_at) / den
    return ((e_at, b * int_sin, b * (int_cos + C * int_sin)),
            (0.0, e_ct * (ct - C * st), -(1.0 + C * C) * e_ct * st),
            (0.0, e_ct * st, e_ct * (ct + C * st)))


def _phi_canonical(p: SystemParams, t) -> np.ndarray:
    """exp(DX t) through NumPy as the C-contiguous stack of shape
    np.shape(t) + (3, 3); a scalar time is a 0-d stack, one matrix.  Each
    matrix of the stack is contiguous, so stack @ vector runs one matmul
    kernel per time, and entry [k] equals the call at t[k] bit for bit."""
    out = np.empty(np.shape(t) + (3, 3))
    for i, row in enumerate(_phi_rows(p, t, np.exp, np.sin, np.cos)):
        out[..., i, 0], out[..., i, 1], out[..., i, 2] = row
    return out


def _stationary_X(p: SystemParams) -> np.ndarray:
    C, L = p.C, p.Lambda
    zs = L / (1.0 + C * C)
    return np.array([p.H * L * (p.A - 2.0 * C) / (1.0 + C * C), -2.0 * C * zs, zs])


def _flow_X(p: SystemParams, s0, t) -> np.ndarray:
    ss = _stationary_X(p)
    return ss + _phi_canonical(p, t) @ (np.asarray(s0, dtype=float) - ss)


def fundamental_X(p: SystemParams, t) -> np.ndarray:
    """exp(DX t) in closed form; an ndarray t gives the stack t.shape + (3, 3)."""
    return _phi_canonical(p, t)


def fundamental_Y(p: SystemParams, t) -> np.ndarray:
    """exp(DY t) = S exp(DX t) S; an ndarray t gives the stack t.shape + (3, 3)."""
    return INVOLUTION @ _phi_canonical(p, t) @ INVOLUTION


def stationary_X(p: SystemParams) -> np.ndarray:
    """Stationary point of the upper affine field."""
    return _stationary_X(p)


def stationary_Y(p: SystemParams) -> np.ndarray:
    """Stationary point of the lower affine field, the S-image of the upper one."""
    return INVOLUTION @ _stationary_X(p)


def flow_X(p: SystemParams, s0, t) -> np.ndarray:
    """Exact solution of sdot = X(s) at time t from s0; an ndarray t gives
    the states as rows of shape t.shape + (3,)."""
    return _flow_X(p, s0, t)


def flow_Y(p: SystemParams, s0, t) -> np.ndarray:
    """Exact solution of sdot = Y(s) at time t from s0, S phi_X(t, S s0); an
    ndarray t gives the states as rows of shape t.shape + (3,)."""
    # S is symmetric: S applied to each row of the upper states
    return _flow_X(p, INVOLUTION @ np.asarray(s0, dtype=float), t) @ INVOLUTION


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
