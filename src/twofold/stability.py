"""Saltation-corrected monodromy of symmetric cycles, transverse Floquet
multipliers, Schur-Cohn verdicts, and the asymptotic stability region of the
(C, H) parameter plane.

The monodromy of a crossing cycle composes the two fundamental matrices with
rank-one saltation corrections at the two crossings.  Its spectrum always
contains the trivial multiplier 1 along the orbit direction; deflating it
leaves a quadratic whose coefficients are (tr M - 1, det M), so orbital
stability reduces to three sign conditions on the trace and determinant.
At a symmetric cycle the plane return map is g o g with g = S h_X, so those
two invariants follow from the 2x2 derivative Dg the cycle solver holds.
Along the conic branch at large amplitude both invariants have closed-form
limits, which carve the stability band out of the (C, H) plane.
"""
from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DomainError, GrazingCrossingError, SymmetryDefectError
from .flow import _phi_rows
from .invariants import gamma1_discriminant
from .sigma import _tangency_cutoff
from .system import SystemParams, _plane_field, eval_X

if TYPE_CHECKING:  # pragma: no cover
    from .cycles import SymmetricCycle

__all__ = [
    "saltation",
    "MonodromyReport",
    "monodromy",
    "schur_conditions",
    "sigma_restriction",
    "m_gamma1",
    "tau_gamma1",
    "asymptotic_invariants",
    "critical_h",
    "h_min",
    "band_width",
    "BandResult",
    "stability_band",
]

_E3 = np.array([0.0, 0.0, 1.0])


def _saltation_column(p: SystemParams, x: float, y: float, direction: str) -> tuple:
    """Third column of saltation(p, (x, y), direction) minus e3, as floats:
    (Y - X) / div from the plane fields X = _plane_field(x, y) and
    Y = S X(-y, -x) at (x, y, 0), with div = X_z = y into Y, -Y_z = -x into X."""
    tol = _tangency_cutoff(x, y)
    if abs(y) < tol or abs(x) < tol or x * y < 0:  # y and x are the X and Y Lie derivatives
        raise GrazingCrossingError(f"{(x, y)!r} is not a transversal crossing point")
    if direction == "XtoY":
        div = y
    elif direction == "YtoX":
        div = -x
    else:
        raise DomainError(f"direction must be 'XtoY' or 'YtoX', got {direction!r}")
    fx, fy, fz = _plane_field(p, x, y)
    u, v, w = _plane_field(p, -y, -x)  # Y(x, y, 0) = S X(-y, -x, 0)
    return (-v - fx) / div, (-u - fy) / div, (-w - fz) / div


def saltation(p: SystemParams, q, direction: str) -> np.ndarray:
    """Jump correction of the linearized flow at a transversal crossing.

    direction "XtoY" uses the incoming upper field's Lie derivative as the
    divisor, "YtoX" the lower one's.  Both are identity plus a rank-one
    update of the third column.
    """
    out = np.eye(3)
    out[:, 2] += _saltation_column(p, float(q[0]), float(q[1]), direction)
    return out


@dataclass(frozen=True)
class MonodromyReport:
    matrix: np.ndarray
    trace: float
    det: float
    multipliers: tuple  # (1, mu2, mu3); mu1 = 1 is exact by deflation
    trivial_residual: float
    reduction_residual: float
    schur: tuple  # three booleans
    stable: bool


def _deflated_quadratic_roots(trace: float, det: float):
    """Roots of mu^2 - (tr - 1) mu + det, the transverse quadratic."""
    b = trace - 1.0
    disc = b * b - 4.0 * det
    if disc >= 0:
        sq = math.sqrt(disc)
        # pair the larger-magnitude root with the stable formula
        r1 = (b + sq) / 2.0 if b >= 0 else (b - sq) / 2.0
        r2 = det / r1 if r1 != 0.0 else (b - sq) / 2.0
        return complex(r1), complex(r2)
    sq = cmath.sqrt(complex(disc))
    return (b + sq) / 2.0, (b - sq) / 2.0


def schur_conditions(trace: float, det: float) -> tuple:
    """The three sign conditions placing both transverse roots in the unit disk."""
    return (1.0 - det > 0.0,
            2.0 - trace + det > 0.0,
            trace + det > 0.0)


def _salted(c: tuple, m: tuple) -> tuple:
    """(I + c e3^T) m for a 3x3 m given as row tuples: row i gains c_i times row 2."""
    (a0, a1, a2), (b0, b1, b2), (d0, d1, d2) = m
    c0, c1, c2 = c
    return ((a0 + c0 * d0, a1 + c0 * d1, a2 + c0 * d2),
            (b0 + c1 * d0, b1 + c1 * d1, b2 + c1 * d2),
            (d0 + c2 * d0, d1 + c2 * d1, d2 + c2 * d2))


def _mul3(a: tuple, b: tuple) -> tuple:
    """Product of two 3x3 matrices given as row tuples."""
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a
    (b00, b01, b02), (b10, b11, b12), (b20, b21, b22) = b
    return ((a00 * b00 + a01 * b10 + a02 * b20, a00 * b01 + a01 * b11 + a02 * b21,
             a00 * b02 + a01 * b12 + a02 * b22),
            (a10 * b00 + a11 * b10 + a12 * b20, a10 * b01 + a11 * b11 + a12 * b21,
             a10 * b02 + a11 * b12 + a12 * b22),
            (a20 * b00 + a21 * b10 + a22 * b20, a20 * b01 + a21 * b11 + a22 * b21,
             a20 * b02 + a21 * b12 + a22 * b22))


def monodromy(p: SystemParams, cycle: "SymmetricCycle") -> MonodromyReport:
    """Saltation-corrected monodromy of a converged symmetric cycle.

    ``trace``, ``det``, ``multipliers``, ``schur`` and ``stable`` come from
    the half-map derivative Dg = cycle.dg: the plane return map is g o g, so
    tr M = 1 + tr(Dg)^2 - 2 det Dg and det M = (det Dg)^2.  ``matrix`` is the
    direct composition S_{Y->X}(p0) Phi_Y(t_y) S_{X->Y}(p1) Phi_X(t_x), and
    ``reduction_residual`` the larger of its trace and det disagreements
    with the half-map invariants, relative to the largest of |tr M|, |det M|
    and 1; ``trivial_residual`` is |M X(p0) - X(p0)| / |X(p0)|.

    Raises
    ------
    SymmetryDefectError
        If reduction_residual exceeds 1e-9: Dg^2 assumes t_x = t_y, and near
        the X fold (small y0) the flight time is ill-conditioned and the
        converged halves differ.
    GrazingCrossingError
        If a crossing of the cycle is not transversal.
    """
    g00, g01, g10, g11 = cycle.dg
    tr_g, det_g = g00 + g11, g00 * g11 - g01 * g10
    trace = 1.0 + tr_g * tr_g - 2.0 * det_g
    det = det_g * det_g
    (x0, y0), (x1, y1) = cycle.p0.tolist(), cycle.p1.tolist()
    # Phi_Y = S Phi_X S swaps rows and columns 0 and 1 of Phi_X
    (f00, f01, f02), (f10, f11, f12), (f20, f21, f22) = _phi_rows(p, cycle.t_y)
    phi_y = ((f11, f10, f12), (f01, f00, f02), (f21, f20, f22))
    M = _salted(_saltation_column(p, x0, y0, "YtoX"),
                _mul3(phi_y, _salted(_saltation_column(p, x1, y1, "XtoY"),
                                     _phi_rows(p, cycle.t_x))))
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = M
    trace_m = m00 + m11 + m22
    det_m = (m00 * (m11 * m22 - m12 * m21) - m01 * (m10 * m22 - m12 * m20)
             + m02 * (m10 * m21 - m11 * m20))
    reduction_residual = (max(abs(trace_m - trace), abs(det_m - det))
                          / max(abs(trace), abs(det), 1.0))
    if reduction_residual > 1e-9:
        raise SymmetryDefectError(
            f"direct monodromy and half-map invariants disagree: "
            f"{reduction_residual:.3g} (bound 1e-9) at y0 = {y0:.3g}, "
            f"t_x - t_y = {cycle.t_x - cycle.t_y:.3g}"
        )
    z0, z1, z2 = _plane_field(p, x0, y0)
    trivial_residual = math.hypot(m00 * z0 + m01 * z1 + m02 * z2 - z0,
                                  m10 * z0 + m11 * z1 + m12 * z2 - z1,
                                  m20 * z0 + m21 * z1 + m22 * z2 - z2) / math.hypot(z0, z1, z2)
    mu2, mu3 = _deflated_quadratic_roots(trace, det)
    conds = schur_conditions(trace, det)
    return MonodromyReport(
        matrix=np.array(M),
        trace=trace,
        det=det,
        multipliers=(complex(1.0), mu2, mu3),
        trivial_residual=trivial_residual,
        reduction_residual=reduction_residual,
        schur=conds,
        stable=all(conds),
    )


def sigma_restriction(p: SystemParams, M: np.ndarray, p0) -> np.ndarray:
    """2x2 derivative of the plane return map induced by a monodromy matrix.

    M is the period variational matrix on R^3 and does not fix the switching
    plane; projecting along the flow direction at p0 restores the return
    map's tangent action, whose eigenvalues are the transverse multipliers.
    """
    p0 = np.asarray(p0, dtype=float)
    z0 = eval_X(p, np.array([p0[0], p0[1], 0.0]))
    proj = np.eye(3) - np.outer(z0, _E3) / z0[2]
    return (proj @ np.asarray(M))[:2, :2]


# ---------------------------------------------------------------------------
# closed-form large-amplitude invariants and the stability band


def m_gamma1(H):
    """Asymptotic slope y0/x0 of the conic branch; |m| < 1 on the hyperbola range."""
    return 2.0 * H / (H + np.sqrt(gamma1_discriminant(H)) + 1.0)


def tau_gamma1(C, H):
    """Large-amplitude limit of the monodromy trace on the branch (0 < H < 1)."""
    sd = np.sqrt(gamma1_discriminant(H))
    # squares are products: x ** 2 calls pow for a scalar, which can round
    # apart from the product an array's x ** 2 computes
    m, h1 = m_gamma1(H), H - 1.0
    m2 = m * m
    q = (H + 1.0) * sd - h1 * h1 + 2.0
    psi_2 = -(H + 1.0) * (H - sd - 3.0) / 2.0
    psi_m1 = (H * H - 1.0) * q / (H * H)
    psi_m4 = q / 2.0
    pi_c = np.pi * np.asarray(C, dtype=float)
    return m2 * (psi_2 * np.exp(2.0 * pi_c) + psi_m1 * np.exp(-pi_c)
                 + psi_m4 * np.exp(-4.0 * pi_c))


def _finite_tau(C, H):
    """tau_gamma1(C, H), or a DomainError naming the first (C, H), in C-major
    order, at which it leaves the float range: e^{2 pi C} overflows from
    about C = 113, and 1/H^2 from about H = 1e-154 down."""
    with np.errstate(all="ignore"):
        tau = tau_gamma1(C, H)
    finite = np.isfinite(tau)
    if not finite.all():
        c, h = (float(np.broadcast_to(v, tau.shape)[~finite][0]) for v in (C, H))
        raise DomainError(f"tau_inf at C={c!r}, H={h!r} is not finite: e^(2 pi C) "
                          "leaves the float range from about C = 113, 1/H^2 from "
                          "about H = 1e-154 down")
    return tau


def asymptotic_invariants(p: SystemParams):
    """(m^2, tau_inf): large-amplitude limits of det M and tr M; a tau_inf
    past the float range is a DomainError naming C."""
    if not p.resonant:
        raise DomainError("asymptotic invariants require the resonant family")
    if not 0.0 < p.H < 1.0:
        raise DomainError(f"asymptotic invariants require 0 < H < 1, got H={p.H}")
    m = m_gamma1(p.H)
    return float(m * m), float(_finite_tau(p.C, p.H))


def critical_h(C):
    """Upper stability boundary H_crit(C) = 1 / (2 cosh(pi C) - 1)."""
    return 1.0 / (2.0 * np.cosh(np.pi * np.asarray(C, dtype=float)) - 1.0)


def _lower_margin(C: float, H: float) -> float:
    m = m_gamma1(H)
    return float(_finite_tau(C, H) + m * m)


def h_min(C: float) -> float:
    """Lower stability boundary in H at fixed C > 0, located by bisection.

    The bracket's right end is H_crit(C), where tau_inf = 2 + m^2 makes the
    margin tau_inf + m^2 = 2 + 2 m^2 positive; its left end halves from there
    until the margin is negative, and the bisection runs until the midpoint
    equals an end.  A C that is not positive (NaN included) is a DomainError,
    as is one whose H_min squared leaves the normal float range (from about
    C = 80): H^2 divides the margin, and from about C = 113 tau_inf at H_crit
    leaves the float range.
    """
    if not C > 0.0:
        raise DomainError(f"C must be positive, got C={C!r}: the asymptotic band is "
                          "established for C > 0")
    with np.errstate(over="ignore"):  # cosh(pi C) overflows from C = 226, H_crit reads 0
        hi = float(critical_h(C))
    _lower_margin(C, hi)  # a tau_inf past the float range is a DomainError
    lo = hi
    while True:
        lo *= 0.5
        if not lo * lo >= sys.float_info.min:  # also an infinite C
            raise DomainError(f"H_min at C={C} lies below {lo!r}, where H^2 leaves "
                              "the normal float range")
        if _lower_margin(C, lo) < 0.0:
            break
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        if _lower_margin(C, mid) < 0.0:
            lo = mid
        else:
            hi = mid


def band_width(C: float) -> float:
    """Width H_crit(C) - H_min(C) of the stable H-interval at fixed C > 0;
    h_min's DomainError for any other C."""
    lo = h_min(C)  # first: past the float range it raises where cosh(pi C) overflows
    return float(critical_h(C)) - lo


@dataclass(frozen=True)
class BandResult:
    cs: np.ndarray          # (n_c,) grid C values
    hs: np.ndarray          # (n_h,) grid H values
    m2: np.ndarray          # (n_h,) m^2(H), the limit of det M
    tau_inf: np.ndarray     # (n_c, n_h) tau_inf(C, H), the limit of tr M
    ineq_det: np.ndarray    # (n_c, n_h) 1 - m^2 > 0
    ineq_upper: np.ndarray  # (n_c, n_h) 2 + m^2 - tau > 0
    ineq_lower: np.ndarray  # (n_c, n_h) tau + m^2 > 0
    inside: np.ndarray      # (n_c, n_h) all three inequalities
    upper: np.ndarray   # (n, 2) polyline (C, H) of 2 + m^2 - tau = 0
    lower: np.ndarray   # (n, 2) polyline (C, H) of tau + m^2 = 0
    hcrit: np.ndarray   # (n, 2) closed-form curve H_crit(C)


def stability_band(c_range, h_range, grid) -> BandResult:
    """Evaluate the asymptotic stability inequalities on a (C, H) grid.

    Parameters
    ----------
    c_range, h_range : (float, float)
        Inclusive axis ranges; requires finite C > 0 and 0 < H < 1, and a
        tau_inf inside the float range at every grid point (C below about
        113): a DomainError names the first (C, H) past it.
    grid : int or (int, int)
        Point count per axis, or separate (n_c, n_h) counts.

    Returns
    -------
    BandResult
        The grid axes, tau_inf and the inequality flags as (n_c, n_h)
        arrays, plus the two boundary polylines (sign-change interpolation
        of the margins along each fixed-C row) and the closed-form critical
        curve.
    """
    if np.isscalar(grid):
        n_c = n_h = int(grid)
    else:
        n_c, n_h = int(grid[0]), int(grid[1])
    if n_c < 2 or n_h < 2:
        raise DomainError("grid counts must be at least 2")
    c_lo, c_hi = float(c_range[0]), float(c_range[1])
    h_lo, h_hi = float(h_range[0]), float(h_range[1])
    if not (0.0 < c_lo < math.inf and 0.0 < c_hi < math.inf):
        raise DomainError("C range must be finite and positive: the asymptotic band is "
                         "established for C > 0")
    if not (0.0 < h_lo < h_hi < 1.0):
        raise DomainError("H range must satisfy 0 < hmin < hmax < 1")
    cs = np.linspace(c_lo, c_hi, n_c)
    hs = np.linspace(h_lo, h_hi, n_h)
    m2 = m_gamma1(hs) ** 2
    taus = _finite_tau(cs[:, None], hs[None, :])
    upper_margin = 2.0 + m2 - taus
    lower_margin = taus + m2
    ineq_det = np.broadcast_to(1.0 - m2 > 0.0, taus.shape)
    ineq_upper = upper_margin > 0.0
    ineq_lower = lower_margin > 0.0
    return BandResult(
        cs=cs, hs=hs, m2=m2, tau_inf=taus,
        ineq_det=ineq_det, ineq_upper=ineq_upper, ineq_lower=ineq_lower,
        inside=ineq_det & ineq_upper & ineq_lower,
        upper=_first_zeros(cs, hs, upper_margin),
        lower=_first_zeros(cs, hs, lower_margin),
        hcrit=np.column_stack([cs, critical_h(cs)]),
    )


def _first_zeros(cs: np.ndarray, hs: np.ndarray, margin: np.ndarray) -> np.ndarray:
    """(C, H) of the first sign change of margin along each C row, linearly
    interpolated in H; rows without a sign change are left out."""
    # comparisons, not a product: the product of two huge margins overflows
    left, right = margin[:, :-1], margin[:, 1:]
    change = (left < 0.0) & (right > 0.0) | (left > 0.0) & (right < 0.0)
    rows = np.flatnonzero(change.any(axis=1))
    i = change[rows].argmax(axis=1)
    m0, m1 = margin[rows, i], margin[rows, i + 1]
    h = hs[i] + m0 * (hs[i + 1] - hs[i]) / (m0 - m1)
    return np.column_stack([cs[rows], h])
