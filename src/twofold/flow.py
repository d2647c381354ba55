"""Closed-form flows and fundamental matrices of the two linear pieces.

Both linear parts have spectrum {A, C + i, C - i}, so their exponentials are
assembled from that eigenstructure rather than a generic matrix exponential:
the (y, z) block of the upper field is a frequency-1 rotation scaled by
exp(Ct), and the x row is a rate-A filter driven by z.  ``_phi_from`` writes
the entries of exp(DX t) once, from e^{At}, e^{Ct}, sin t and cos t, and
``_phi_rows`` evaluates those with one of two backends that do not round
alike: ``math`` functions for one scalar time on the solver path
(``plane_flight``; ``cycles`` hands ``_phi_from`` the values its branch
point was read from) and NumPy ufuncs for the public kernels, which take a
scalar time (a 0-d stack) or an array of times.  ``_state`` forms every
flown state from them by one order of products and sums.  The lower field
is the S-conjugate of the upper one, Y(s) = S X(S s), so its flow,
stationary point and fundamental matrices are the S-conjugates of the upper
kernels: phi_Y(t, s) = S phi_X(t, S s), s*_Y = S s*_X and Phi_Y = S Phi_X S.

Each affine piece is integrated as phi(t, s) = s* + exp(Dt)(s - s*) around
its stationary point s*, which exists whenever A(C^2 + 1) != 0; in the
resonant family A = -2C != 0 this always holds.  In the flows, fundamental
matrices and ``plane_flight`` a time or start that is not finite is a
DomainError, and a result past the float range a DivergenceError that names
the first time of one.
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .errors import DivergenceError, DomainError
from .system import SystemParams, _conjugate

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np


def _phi_rows(p: SystemParams, t, exp=math.exp, sin=math.sin, cos=math.cos):
    """exp(DX t) as three row tuples, for the x row driven by z and the (y, z)
    rotation.  With the default ``math`` functions t is one scalar time and
    the entries are floats; with np.exp, np.sin and np.cos each entry but
    the two zeros has the shape of t."""
    return _phi_from(p, exp(p.A * t), exp(p.C * t), sin(t), cos(t))


def _phi_from(p: SystemParams, e_at, e_ct, st, ct):
    """The rows of _phi_rows from e^{At}, e^{Ct}, sin t and cos t at one time
    t, so that a caller holding those values evaluates none of them again."""
    A, C, H = p.A, p.C, p.H
    b = -H * ((A - C) ** 2 + 1.0)
    beta = C - A
    den = beta * beta + 1.0
    # int_0^t e^{A(t-s)} e^{Cs} sin s ds and the cosine analogue
    int_sin = (e_ct * (beta * st - ct) + e_at) / den
    int_cos = (e_ct * (beta * ct + st) - beta * e_at) / den
    return ((e_at, b * int_sin, b * (int_cos + C * int_sin)),
            (0.0, e_ct * (ct - C * st), -(1.0 + C * C) * e_ct * st),
            (0.0, e_ct * st, e_ct * (ct + C * st)))


def _phi_canonical(p: SystemParams, t, name: str = "exp(DX t)") -> np.ndarray:
    """exp(DX t) through NumPy as the C-contiguous stack of shape
    np.shape(t) + (3, 3); a scalar time is a 0-d stack, one matrix.  Entry
    [k] equals the call at t[k] bit for bit, with the errors of ``_finite``."""
    import numpy as np

    t = np.asarray(t, dtype=float)
    out = np.empty(t.shape + (3, 3))
    with np.errstate(over="ignore", invalid="ignore"):
        for i, row in enumerate(_phi_rows(p, t, np.exp, np.sin, np.cos)):
            out[..., i, 0], out[..., i, 1], out[..., i, 2] = row
    return _finite(out, t, name)


def _finite(out: np.ndarray, t: np.ndarray, name: str) -> np.ndarray:
    """out, the stack t.shape + (...) of name at the times t: a t that is not
    finite, which leaves an entry that is not, is a DomainError, and an entry
    past the float range a DivergenceError naming the first t of one."""
    import numpy as np

    if np.isfinite(out).all():
        return out
    if not np.isfinite(t).all():
        raise DomainError(f"t must be finite, got {float(t[~np.isfinite(t)][0])!r}")
    ok = np.isfinite(out).all(axis=tuple(range(t.ndim, out.ndim)))
    raise DivergenceError(f"{name} overflows floating point at t={float(t[~ok][0])!r}")


def _stationary(p: SystemParams):
    """(xs, ys, zs), the stationary point of the upper field, as floats."""
    C, L = p.C, p.Lambda
    c2 = 1.0 + C * C
    zs = L / c2
    return p.H * L * (p.A - 2.0 * C) / c2, -2.0 * C * zs, zs


def _state(rows, ss, d):
    """s* + exp(DX t) d as three coordinates, from the _phi_rows entries at t,
    ss = s* and d = s - s*: each summed left to right from s*, skipping the
    two exact zeros, for floats or arrays, with no matmul for BLAS to round."""
    (e_at, p01, p02), (_, p11, p12), (_, p21, p22) = rows
    xs, ys, zs = ss
    du, dv, dw = d
    return (xs + e_at * du + p01 * dv + p02 * dw,
            ys + p11 * dv + p12 * dw,
            zs + p21 * dv + p22 * dw)


def _start(s0) -> np.ndarray:
    """The start s0 as a float64 array of shape (3,); any other shape, such
    as one coordinate that NumPy would broadcast to three, is a DomainError."""
    import numpy as np

    s0 = np.asarray(s0, dtype=float)
    if s0.shape != (3,):
        raise DomainError(f"a start needs 3 coordinates, got shape {s0.shape}")
    if not all(map(math.isfinite, s0.tolist())):
        raise DomainError(f"the initial condition must be finite, got {s0.tolist()!r}")
    return s0


def _flow_X(p: SystemParams, s0: np.ndarray, t, field: str = "X") -> np.ndarray:
    """flow_X from the ``_start`` array s0, its errors named for field."""
    import numpy as np

    t = np.asarray(t, dtype=float)
    ss = _stationary(p)
    out = np.empty(t.shape + (3,))
    with np.errstate(over="ignore", invalid="ignore"):
        out[..., 0], out[..., 1], out[..., 2] = _state(
            _phi_rows(p, t, np.exp, np.sin, np.cos), ss, s0 - ss)
    return _finite(out, t, f"the {field} flow")


def fundamental_X(p: SystemParams, t) -> np.ndarray:
    """exp(DX t) in closed form; an array t gives the stack t.shape + (3, 3)."""
    return _phi_canonical(p, t)


def fundamental_Y(p: SystemParams, t) -> np.ndarray:
    """exp(DY t) = S exp(DX t) S; an array t gives the stack t.shape + (3, 3)."""
    return _conjugate(_phi_canonical(p, t, "exp(DY t)"))


def stationary_X(p: SystemParams) -> np.ndarray:
    """Stationary point of the upper affine field."""
    import numpy as np

    return np.array(_stationary(p))


def stationary_Y(p: SystemParams) -> np.ndarray:
    """Stationary point of the lower affine field, the S-image of the upper one."""
    return -stationary_X(p)[[1, 0, 2]]


def flow_X(p: SystemParams, s0, t) -> np.ndarray:
    """Exact solution of sdot = X(s) at time t from s0; an array t gives
    the states as rows of shape t.shape + (3,)."""
    return _flow_X(p, _start(s0), t)


def flow_Y(p: SystemParams, s0, t) -> np.ndarray:
    """Exact solution of sdot = Y(s) at time t from s0, S phi_X(t, S s0); an
    array t gives the states as rows of shape t.shape + (3,)."""
    import numpy as np

    # S(x, y, z) = (-y, -x, -z) as a swap and a negation, in and out
    out = _flow_X(p, -_start(s0)[[1, 0, 2]], t, "Y")
    out[..., :2] = out[..., 1::-1]
    return np.negative(out, out=out)


def plane_flight(p: SystemParams, q, t: float):
    """State (x, y, z) at time t of the upper-field orbit from the plane point
    q = (x, y, 0): flow_X's closed form in ``math`` floats, for one scalar t."""
    u, v = float(q[0]), float(q[1])
    if not (math.isfinite(t) and math.isfinite(u) and math.isfinite(v)):
        raise DomainError(f"t and q must be finite, got t={t!r}, q={(u, v)!r}")
    xs, ys, zs = ss = _stationary(p)
    try:
        state = _state(_phi_rows(p, t), ss, (u - xs, v - ys, -zs))
        if all(map(math.isfinite, state)):
            return state
    except OverflowError:  # math.exp's
        pass
    raise DivergenceError(f"the X flow overflows floating point at t={t!r}")


def _z_coefficients(p: SystemParams, s0):
    """(zs, wy, wz) with z(t) = zs + e^{Ct} (wy sin t + (cos t + C sin t) wz)
    along the upper-field orbit from s0: zs is the stationary height and
    (wy, wz) = (y0 - ys, z0 - zs) the offset of s0 from the stationary point."""
    _, ys, zs = _stationary(p)
    return zs, float(s0[1]) - ys, float(s0[2]) - zs


def _slope_coefficients(C: float, wy: float, wz: float):
    """(alpha, beta) with dz/dt = e^{Ct} (alpha sin t + beta cos t) for the z
    coefficients (wy, wz) of ``_z_coefficients``."""
    return C * wy + (C * C - 1.0) * wz, wy + 2.0 * C * wz


def z_closed_form(p: SystemParams, s0):
    """Closed-form z(t) and dz/dt(t) along the upper-field orbit from s0.

    The z component decouples into a driven 2D rotation, so it admits the
    scalar closed form z(t) = zs + e^{Ct} (wy sin t + (cos t + C sin t) wz)
    with the coefficients of ``_z_coefficients``, and
    dz/dt = e^{Ct} (alpha sin t + beta cos t) with the (alpha, beta) of
    ``_slope_coefficients``.  Both returned callables take a scalar t.
    """
    C = p.C
    zs, wy, wz = _z_coefficients(p, s0)

    def z(t):
        s = math.sin(t)
        return zs + math.exp(C * t) * (wy * s + (math.cos(t) + C * s) * wz)

    def dz(t):
        # (alpha, beta) per call: the library's callers read z only
        alpha, beta = _slope_coefficients(C, wy, wz)
        return math.exp(C * t) * (alpha * math.sin(t) + beta * math.cos(t))

    return z, dz
