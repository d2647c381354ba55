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

from .errors import DomainError, GrazingCrossingError, SymmetryDefectError
from .invariants import _check_branch_domain, gamma1_discriminant
from .sigma import RegionKind, classify_point
from .system import SystemParams, _plane_field, _record, eval_X

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

    from .cycles import SymmetricCycle


def saltation(p: SystemParams, q, direction: str) -> np.ndarray:
    """Jump correction of the linearized flow at a transversal crossing.

    direction "XtoY" uses the incoming upper field's Lie derivative as the
    divisor, "YtoX" the lower one's.  Both are identity plus a rank-one
    update of the third column, ``_saltation_column``'s (Y - X) / div with
    div = X_z = y into Y, -Y_z = -x into X.  A point that classify_point
    does not call a crossing is a GrazingCrossingError, as is one where the
    column leaves the float range.
    """
    import numpy as np

    if direction not in ("XtoY", "YtoX"):
        raise DomainError(f"direction must be 'XtoY' or 'YtoX', got {direction!r}")
    x, y = float(q[0]), float(q[1])  # Yf = x, Xf = y
    if classify_point((x, y)) is not RegionKind.CROSSING:  # also the finite check
        raise GrazingCrossingError(f"{(x, y)!r} is not a transversal crossing point")
    out = np.eye(3)
    out[:, 2] += _saltation_column(p, x, y, y if direction == "XtoY" else -x)[0]
    return out


def _saltation_column(p: SystemParams, x: float, y: float, div: float) -> tuple:
    """(Y - X) / div from the plane fields X and Y = S X(-y, -x) at (x, y, 0),
    and X(-y, -x, 0) / 2^k: past 2^500, x, y, Lambda and div are divided by
    2^k, the binade of the largest, so no bit moves and no field overflows
    (else k = 0).  A column past the float range is a GrazingCrossingError."""
    xs, ys, lam = x, y, p.Lambda
    if x * x + y * y + lam * lam > 2.0 ** 1000:
        k = math.frexp(max(abs(x), abs(y), abs(lam)))[1]
        xs, ys, lam, div = (math.ldexp(x, -k), math.ldexp(y, -k), math.ldexp(lam, -k),
                            math.ldexp(div, -k))
    fx, u = p.A * xs + p.H * lam, p.A * -ys + p.H * lam  # X_x at (x, y) and (-y, -x)
    if div != 0.0:  # 0.0 only where a subnormal div is scaled down
        c = (-lam - fx) / div, (-u - lam) / div, (xs - ys) / div
        if math.isfinite(c[0]) and math.isfinite(c[1]) and math.isfinite(c[2]):
            return c, (u, lam, -xs)
    raise GrazingCrossingError(f"the saltation column at {(x, y)!r} leaves the float range")


@dataclass(frozen=True)
class MonodromyReport:
    sn: tuple  # the half-period map S N as three row tuples
    trace: float
    det: float
    multipliers: tuple  # (1, mu2, mu3); mu1 = 1 is exact by deflation
    trivial_residual: float
    reduction_residual: float
    schur: tuple  # three booleans
    stable: bool

    @property
    def matrix(self) -> np.ndarray:  # (S N)^2, built on access
        import numpy as np

        return (sn := np.array(self.sn)) @ sn


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


def _dh_terms(p: SystemParams, x0: float, y0: float, rows) -> tuple:
    """The two terms of each of h01 and h11, h01 = a01 + b01 and h11 = a11 +
    b11, that find_cycle_newton sums into Dg = (0, -h11, -e^{At}, -h01) from
    the rows of Phi_X(t_x), as (a01, b01, a11, b11).

    Dh = (I - X(end) e3^T / X_z(end)) [phi0 phi1] at the end (-y0, -x0),
    where X = (A x1 + H Lambda, Lambda, y1); phi0 = (e^{At}, 0, 0) leaves
    h10 = 0.  The terms cancel next to the X fold, so monodromy sizes Dg by
    them."""
    (_, p01, _), (_, p11, _), (_, p21, _) = rows
    (fx, fy, _), w = _plane_field(p, -y0, -x0), p21 / x0  # w = -phi1_z / X_z(end)
    return p01, fx * w, p11, fy * w


def monodromy(p: SystemParams, cycle: "SymmetricCycle") -> MonodromyReport:
    """Saltation-corrected monodromy of a converged symmetric cycle.

    ``trace``, ``det``, ``multipliers``, ``schur`` and ``stable`` come from
    Dg = cycle.dg: the plane return map is g o g, so tr M = 1 + tr(Dg)^2 -
    2 det Dg and det M = (det Dg)^2.  ``sn`` is S N, N = S_{X->Y}(S p0) Phi_X,
    with the solve's cycle.phi as Phi_X(t_x) (a t_x moved by dataclasses.replace
    needs the matching phi); M = (S N)^2 as Phi_Y = S Phi_X S and S_{Y->X}(p0)
    = S S_{X->Y}(S p0) S, and ``matrix`` squares ``sn`` on access.  S N keeps
    X(p0) and acts on the plane as Dg: S N X(p0) = X(p0), tr(S N) = 1 + tr Dg
    and det(S N) = det Dg.  ``trivial_residual`` is |S N X(p0) - X(p0)| /
    |X(p0)|, ``reduction_residual`` the larger trace or det miss over
    max(|1 + tr Dg|, |det Dg|, 1).  A miss past 2^-47 of the sizes of its
    terms, those the solve formed Dg from among them, is a
    SymmetryDefectError.  An x0 or y0 that is not positive, or a saltation
    column at S p0 past the float range, is a GrazingCrossingError.
    """
    g00, g01, g10, g11 = cycle.dg
    tr_g, det_g = g00 + g11, g00 * g11 - g01 * g10
    trace, det = 1.0 + tr_g * tr_g - 2.0 * det_g, det_g * det_g
    x0, y0 = cycle.p0
    if not (x0 > 0.0 and y0 > 0.0):  # the Y and X Lie derivatives at p0
        raise GrazingCrossingError(f"{(x0, y0)!r} is not a transversal crossing point")
    # N = (I + c e3^T) Phi_X, c - e3 the column of saltation(p, S p0, "XtoY")
    (c0, c1, _), (z0, z1, z2) = _saltation_column(p, -y0, -x0, -x0)
    (a0, a1, a2), (b0, b1, b2), (d0, d1, d2) = cycle.phi
    # S N is N with rows 0 and 1 swapped, all negated; t_ij = |n_ij| + |c_i d_j| sizes
    # the terms of s_ij, but for Phi_X's x column (e^{At}, 0, 0) and g00 = 0, whose
    # other values are left out of the sizes, so they can only fail the check.  N's
    # third row is (1 + c2) Phi_X's, and 1 + c2 = y0 / x0 is formed in one rounding:
    # 1 + c2 would carry an ulp of c2 ~ -1, all of y0 / x0 next to the X fold
    w = y0 / x0
    s00, s01, s02 = -b0 - c1 * d0, -b1 - c1 * d1, -b2 - c1 * d2
    s10, s11, s12 = -a0 - c0 * d0, -a1 - c0 * d1, -a2 - c0 * d2
    s20, s21, s22 = -w * d0, -w * d1, -w * d2
    e0, e1, e2, f1, f2 = abs(c1), abs(c0), w, abs(d1), abs(d2)
    t01, t02, t10 = abs(b1) + e0 * f1, abs(b2) + e0 * f2, abs(a0)
    t11, t12, t21, t22 = abs(a1) + e1 * f1, abs(a2) + e1 * f2, e2 * f1, e2 * f2
    r0, r1, r2 = (s00 * z0 + s01 * z1 + s02 * z2 - z0, s10 * z0 + s11 * z1 + s12 * z2 - z1,
                  s20 * z0 + s21 * z1 + s22 * z2 - z2)
    miss_tr = abs(s00 + s11 + s22 - (1.0 + tr_g))
    # det S = 1 and det(I + c e3^T) = w, so det(S N) = w det Phi_X, for any A
    miss_det = abs(w * a0 * (b1 * d2 - b2 * d1) - det_g)
    unit = 2.0 ** -47
    miss_x = abs(r0) + abs(r1) + abs(r2)
    size_x = (t01 + t02 + t10 + t11 + t12 + t21 + t22 + 1.0) * (abs(z0) + abs(z1) + abs(z2))
    # g11 = -h01 and g01 = -h11, sized by the terms the solve summed them from:
    # they cancel next to the X fold, where det Dg = y0 / x0
    a01, b01, a11, b11 = _dh_terms(p, x0, y0, cycle.phi)
    u01, u11 = abs(a11) + abs(b11), abs(a01) + abs(b01)
    size_tr = t11 + t22 + 1.0 + u11
    size_det = w * t10 * (abs(b1 * d2) + abs(b2 * d1)) + abs(g10) * u01
    if not (miss_x <= unit * size_x and miss_tr <= unit * size_tr
            and miss_det <= unit * size_det):  # a NaN fails too
        name, miss, size = next(c for c in (
            ("S N X(p0) = X(p0)", miss_x, size_x), ("tr(S N) = 1 + tr Dg", miss_tr, size_tr),
            ("det(S N) = det Dg", miss_det, size_det)) if not c[1] <= unit * c[2])
        raise SymmetryDefectError(f"S N and the half map disagree: {name} misses by {miss:.3g} "
                                  f"(bound {unit * size:.3g}) at y0 = {y0:.3g}, C = {p.C:.6g}")
    mu2, mu3 = _deflated_quadratic_roots(trace, det)
    conds = schur_conditions(trace, det)
    return _record(MonodromyReport, {
        "sn": ((s00, s01, s02), (s10, s11, s12), (s20, s21, s22)), "trace": trace, "det": det,
        "multipliers": (complex(1.0), mu2, mu3),
        "trivial_residual": math.hypot(r0, r1, r2) / math.hypot(z0, z1, z2),
        "reduction_residual": max(miss_tr, miss_det) / max(abs(1.0 + tr_g), abs(det_g), 1.0),
        "schur": conds, "stable": all(conds)})


def sigma_restriction(p: SystemParams, M: np.ndarray, p0) -> np.ndarray:
    """2x2 derivative of the plane return map induced by a monodromy matrix.

    M is the period variational matrix on R^3 and does not fix the switching
    plane; projecting along the flow direction at p0 restores the return
    map's tangent action, whose eigenvalues are the transverse multipliers.
    A p0 on the X fold, y0 = 0 where X_z(p0) = y0 divides, or so near it
    that X(p0) / X_z(p0) leaves the float range, is a GrazingCrossingError.
    An M that is not finite, or a product past the float range, is a
    DomainError.
    """
    import numpy as np

    M = np.asarray(M, dtype=float)
    if not np.isfinite(M).all():
        raise DomainError("the monodromy matrix M is not finite")
    x0, y0 = float(p0[0]), float(p0[1])
    z0 = eval_X(p, (x0, y0, 0.0))
    proj = np.eye(3)
    with np.errstate(all="ignore"):
        proj[:, 2] -= z0 / z0[2]  # I - X(p0) e3^T / X_z(p0)
        out = (proj @ M)[:2, :2]
    if not np.isfinite(proj).all():
        raise GrazingCrossingError(f"{(x0, y0)!r} is not a transversal crossing point")
    if not np.isfinite(out).all():
        raise DomainError("the restriction of M to the plane leaves the float range")
    return out


# ---------------------------------------------------------------------------
# closed-form large-amplitude invariants and the stability band


def m_gamma1(H):
    """Asymptotic slope y0/x0 of the conic branch; |m| < 1 on the hyperbola
    range.  An H where (1 - H)(3H + 1) < 0, or that is not finite, is a
    DomainError naming the first such H."""
    return _slope_and_root(H)[0]


def _slope_and_root(H):
    """(m_gamma1(H), sqrt((1 - H)(3H + 1))), both from one discriminant."""
    import numpy as np

    with np.errstate(over="ignore"):  # a huge H's discriminant is -inf
        d = gamma1_discriminant(H)
    bad = ~(np.asarray(d) >= 0.0)  # NaN too
    if bad.any():
        h = float(np.broadcast_to(H, bad.shape)[bad][0])
        raise DomainError(f"m_gamma1 requires a finite H with (1 - H)(3H + 1) >= 0, got H={h!r}")
    sd = np.sqrt(d)
    return 2.0 * H / (H + sd + 1.0), sd


def tau_gamma1(C, H):
    """Large-amplitude limit of the monodromy trace on the branch (0 < H < 1)
    from one m_gamma1 and one discriminant root.  m_gamma1's DomainError, and
    one naming the first (C, H), in C-major order, where tau_inf leaves the
    float range: from about C = 113 (e^{2 pi C}) and H = 1e-154 down (1/H^2)."""
    return _limits(C, H)[1]


def _limits(C, H):
    """(m^2, shaped as H, and tau_inf), tau_gamma1 with the m^2 it forms."""
    import numpy as np

    (m, sd), h1 = _slope_and_root(H), H - 1.0
    with np.errstate(all="ignore"):
        # squares are products: x ** 2 calls pow for a scalar, which can round
        # apart from the product an array's x ** 2 computes
        m2 = m * m
        q = (H + 1.0) * sd - h1 * h1 + 2.0
        psi_2 = -(H + 1.0) * (H - sd - 3.0) / 2.0
        psi_m1 = (H * H - 1.0) * q / (H * H)
        psi_m4 = q / 2.0
        pi_c = np.pi * np.asarray(C, dtype=float)
        tau = m2 * (psi_2 * np.exp(2.0 * pi_c) + psi_m1 * np.exp(-pi_c)
                    + psi_m4 * np.exp(-4.0 * pi_c))
    finite = np.isfinite(tau)
    if not finite.all():
        c, h = (float(np.broadcast_to(v, tau.shape)[~finite][0]) for v in (C, H))
        raise DomainError(f"tau_inf at C={c!r}, H={h!r} is not finite: e^(2 pi C) "
                          "leaves the float range from about C = 113, 1/H^2 from "
                          "about H = 1e-154 down")
    return m2, tau


def asymptotic_invariants(p: SystemParams):
    """(m^2, tau_inf): large-amplitude limits of det M and tr M on the branch,
    with the branch's DomainErrors and tau_gamma1's past the float range."""
    _check_branch_domain(p)
    m2, tau = _limits(p.C, p.H)
    return float(m2), float(tau)


def critical_h(C: float) -> float:
    """Upper stability boundary H_crit(C) = 1 / (2 cosh(pi C) - 1), the
    library's one evaluation of it; 0.0 where cosh(pi C) overflows (|C| > 226)."""
    try:
        return 1.0 / (2.0 * math.cosh(math.pi * C) - 1.0)
    except OverflowError:  # math.cosh's
        return 0.0


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

    def below(H):  # the margin tau_inf + m^2 is negative at H
        m2, tau = _limits(C, H)
        return tau + m2 < 0.0

    hi = critical_h(C)  # 0.0 where cosh(pi C) overflows, from C = 226
    tau_gamma1(C, hi)  # a tau_inf past the float range is a DomainError
    lo = hi
    while True:
        lo *= 0.5
        if not lo * lo >= sys.float_info.min:  # also an infinite C
            raise DomainError(f"H_min at C={C} lies below {lo!r}, where H^2 leaves "
                              "the normal float range")
        if below(lo):
            break
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        if below(mid):
            lo = mid
        else:
            hi = mid


def band_width(C: float) -> float:
    """Width H_crit(C) - H_min(C) of the stable H-interval at fixed C > 0;
    h_min's DomainError for any other C."""
    lo = h_min(C)  # first: past the float range it raises where cosh(pi C) overflows
    return critical_h(C) - lo


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
        Point count per axis, or separate (n_c, n_h) counts: integral
        numbers of at least 2 (3.0, not 2.7 or a bool) that NumPy can hold.

    Returns
    -------
    BandResult
        The grid axes, m^2 and tau_inf (one m_gamma1 and one root of the
        discriminant per H), the inequality flags as (n_c, n_h) arrays, the
        two boundary polylines (sign-change interpolation of the margins
        along each fixed-C row) and the closed-form critical curve.
    """
    import numpy as np

    try:  # a bool, a str or a count that is not integral drops out, and the pair with it
        n_c, n_h = [int(n) for n in ((grid, grid) if np.isscalar(grid) else grid)
                    if not isinstance(n, (bool, str)) and n == int(n)]
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"grid must be an integral count or a pair, got {grid!r}") from None
    if n_c < 2 or n_h < 2:
        raise DomainError("grid counts must be at least 2")
    if n_c * n_h > sys.maxsize // 8:  # the bytes of the tau grid
        raise DomainError("the grid's n_c n_h cells exceed NumPy's maximum array size")
    c_lo, c_hi = float(c_range[0]), float(c_range[1])
    h_lo, h_hi = float(h_range[0]), float(h_range[1])
    if not (0.0 < c_lo < math.inf and 0.0 < c_hi < math.inf):
        raise DomainError("C range must be finite and positive: the asymptotic band is "
                         "established for C > 0")
    if not (0.0 < h_lo < h_hi < 1.0):
        raise DomainError("H range must satisfy 0 < hmin < hmax < 1")
    cs = np.linspace(c_lo, c_hi, n_c)
    hs = np.linspace(h_lo, h_hi, n_h)
    m2, taus = _limits(cs[:, None], hs)
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
        hcrit=np.column_stack([cs, [critical_h(c) for c in cs.tolist()]]),
    )


def _first_zeros(cs: np.ndarray, hs: np.ndarray, margin: np.ndarray) -> np.ndarray:
    """(C, H) of the first sign change of margin along each C row, linearly
    interpolated in H; rows without a sign change are left out.

    A margin of exactly 0.0 at hs[j] between neighbours of opposite sign is
    the change (C, hs[j]): the interpolation from j gives hs[j] + 0.0.  A
    touch, a 0.0 between neighbours of one sign, is none.
    """
    import numpy as np

    def opposite(a, b):
        # comparisons, not a product: the product of two huge margins overflows
        return (a < 0.0) & (b > 0.0) | (a > 0.0) & (b < 0.0)

    change = opposite(margin[:, :-1], margin[:, 1:])
    # exact zeros are few, so only their neighbours are compared
    rows, cols = np.divmod(np.flatnonzero(margin[:, 1:-1] == 0.0), margin.shape[1] - 2)
    change[rows, cols + 1] |= opposite(margin[rows, cols], margin[rows, cols + 2])
    rows = np.flatnonzero(change.any(axis=1))
    i = change[rows].argmax(axis=1)
    m0, m1 = margin[rows, i], margin[rows, i + 1]
    h = hs[i] + m0 * (hs[i + 1] - hs[i]) / (m0 - m1)
    return np.column_stack([cs[rows], h])
