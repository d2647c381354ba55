"""Symmetric crossing cycles on the closed-form branch, and the return map.

A crossing orbit through a first-quadrant point p0 = (x0, y0, 0) closes into
a symmetric cycle exactly when the upper half-orbit lands on the involution
image (-y0, -x0, 0).  The (y, z) equations of the upper field involve
neither x, A nor H, so the flight time t of that half-orbit fixes y0, then
x0, and the closure fixes H: the symmetric branch is the closed-form curve
t -> (x0(t), y0(t), H(t)) on (pi, t_graze), the flight-time form of the
closing equations for piecewise-linear systems (Freire, Ponce, Rodrigo and
Torres, IJBC 8 (1998)).  H(pi+) = H_crit, and at t_graze y0 reaches the X
fold.  A cycle solve is one scalar root of d(t) (H(t) - H), found on its
exact derivative by the safeguarded Newton kernel that also closes every
flight's crossing, then checked on the closed form of the upper
half-orbit; the lower one is its S-image.  The conic residual
r(y0) = x1 + y0 of the earlier branch-coordinate solve stays as a test
oracle (closure_residual in tests/oracles.py).  The full return map is
exposed for finite-difference checks of the monodromy.  Points of the
plane, p0, p1 and the return map's image, are (x, y) pairs of floats.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

from .errors import DivergenceError, DomainError, NoCycleError, NotACycleError, TwofoldError
from .flow import _phi_from, _slope_coefficients, _state, _stationary, z_closed_form
from .invariants import _check_branch_domain
from .returns import _bracketed_root, _series, _touch_bound, half_return_X, half_return_Y
from .stability import MonodromyReport, _dh_terms, critical_h, monodromy
from .system import SystemParams, _record, build_system


@dataclass(frozen=True)
class SymmetricCycle:
    """A converged symmetric crossing cycle.

    p0 = (x0, y0) and p1, the closed-form end of the upper half-orbit, are
    the two crossings, pairs of floats; residual is the distance of that
    end (x1, y1, z1) from (-y0, -x0, 0).  The lower half-orbit is the S-image
    of the upper one, so the half times are t_y = t_x and T = 2 t_x.  dg is
    the 2x2 derivative at p0 of the half map g = S h_X on the plane, row-major
    (g00, g01, g10, g11), in closed form at the branch point.  The return map
    is g o g, so its derivative at the cycle is Dg^2, whose eigenvalues are
    the transverse Floquet multipliers.  phi is exp(DX t_x), the upper
    fundamental matrix at the flight time, as the three row tuples that gave
    p1 and Dg, equal to flow._phi_rows(p, t_x) bit for bit; monodromy reads
    it, so exp(DX t_x) is evaluated once per cycle.  It belongs to t_x: a
    dataclasses.replace that moves t_x must pass the matching phi too.  It
    is left out of repr and ==, which compare the cycle by its other fields.
    """

    p0: tuple
    p1: tuple
    T: float
    t_x: float
    t_y: float
    residual: float
    dg: tuple
    phi: tuple = field(repr=False, compare=False)


def _closing(C: float, t: float):
    """(sin t, cos t, e^{Ct}, q, r, q', r') at the flight time t: the two
    terms of the closing equations, q = cos t - C sin t - e^{-Ct} and
    r = e^{Ct} - cos t - C sin t, and their derivatives in t, with the sin t,
    cos t and e^{Ct} they were formed from.  e^{Ct} reads inf where it
    leaves the float range (C t >= 709), which only _graze meets, from C of
    about 150; r and r' are inf there and unused."""
    u = C * t
    st, ct, em = math.sin(t), math.cos(t), math.exp(-u)
    ep = math.exp(u) if u < 709.0 else math.inf
    cs, cc = C * st, C * ct
    return st, ct, ep, ct - cs - em, ep - ct - cs, -st - cc + C * em, C * ep + st - cc


def _branch(p: SystemParams, t: float):
    """(x0, y0, h, rows) for the symmetric branch point whose X flight takes
    time t: the start p0 = (x0, y0, 0) from which the upper orbit meets the
    plane at time t exactly at (-y0, -x0, 0) when H = h, and exp(DX t) as
    the rows of flow._phi_rows(p, t), bit for bit.  Both are read from one
    evaluation of sin t, cos t, e^{-Ct}, e^{Ct} and e^{At}.

    The (y, z) equations of the upper field involve neither x, A nor H, so
    z(t) = 0 and y(t) = -x0 fix the start, and x(t) = -y0, affine in x0 and
    linear in H, fixes H.  Solved, these closing equations read

        y0 = zs q / sin t,  x0 = -zs r / sin t,  H(t) = (e^{At} r - q) / (r - e^{At} q),

    with zs = Lambda / (1 + C^2) and the q and r of _closing: H(t) has
    neither H nor Lambda in it.  y0 > 0 exactly for t in (pi, t_graze) (see
    _graze), where q < 0 < r, so both sums in H(t) add terms of one sign.
    For A <= 0 the denominator d = r - e^{At} q is positive on all of
    (pi, 2 pi); h is NaN where it is not (a tiny C rounds both r and q to 0
    next to 2 pi)."""
    st, ct, ep, q, r, _, _ = _closing(p.C, t)
    e_at = math.exp(p.A * t)
    d = r - e_at * q
    zs = p.Lambda / (1.0 + p.C * p.C)
    return (-zs * r / st, zs * q / st, (e_at * r - q) / d if d > 0.0 else math.nan,
            _phi_from(p, e_at, ep, st, ct))


def _graze(p: SystemParams):
    """(t_graze, H_graze): the end of the branch where y0(t) reaches the X fold.

    y0(t) = 0 where q(t) = cos t - C sin t - e^{-Ct} = 0.  For C > 0,
    q = sqrt(1 + C^2) cos(t + phi) - e^{-Ct} with phi = atan C is increasing
    on (pi, 2 pi - phi), from q(pi) < 0 to a positive value, and positive
    on [2 pi - phi, 2 pi), so t_graze is its one root in (pi, 2 pi) and
    y0 > 0 exactly on (pi, t_graze).  There H(t) = e^{At} r / r, so
    H_graze = e^{A t_graze}."""
    C = p.C

    def fdf(t):  # (-q, -q'), positive left of the root
        _, _, _, q, _, dq, _ = _closing(C, t)
        return -q, -dq

    lo, hi = math.pi, 2.0 * math.pi - math.atan(C)
    t_graze, _ = _bracketed_root(fdf, 0.5 * (lo + hi), lo, hi)
    return t_graze, math.exp(p.A * t_graze)


def _no_cycle(p: SystemParams) -> NoCycleError:
    h_graze, h_crit = _graze(p)[1], critical_h(p.C)
    return NoCycleError(f"no symmetric crossing cycle: H = {p.H:.6g} lies outside the "
                        f"band (H_graze, H_crit) = ({h_graze:.6g}, {h_crit:.6g}) "
                        "of the branch")


def _branch_residual(p: SystemParams):
    """fdf(t) = (f(t), f'(t)) for the closing residual f = n - H d =
    d (H(t) - H) of the branch, n = e^{At} r - q and d = r - e^{At} q the
    numerator and denominator of H(t) (see _branch), with the exact
    derivative f' = e^{At} (A (r + H q) + r' + H q') - q' - H r'."""
    A, C, H = p.A, p.C, p.H

    def fdf(t):
        _, _, _, q, r, dq, dr = _closing(C, t)
        e_at = math.exp(A * t)
        return (e_at * r - q - H * (r - e_at * q),
                e_at * (A * (r + H * q) + dr + H * dq) - dq - H * dr)

    return fdf


def _solve_branch(p: SystemParams):
    """The branch point (t, x0, y0, rows) with H(t) = p.H, t in
    (pi, t_graze), and rows = exp(DX t) from the same evaluation at t
    (see _branch).

    One call of the shared root kernel on the residual f = d (H(t) - H) of
    _branch_residual, on its exact derivative, over the bracket
    (pi, 2 pi - atan C), which holds t_graze (see _graze); d > 0 there, as
    A < 0.  f(pi) > 0 exactly when H < H(pi) = H_crit, and from the root to
    the bracket's end f stays <= 0 whenever H > H_graze, as H(t) <= H_graze
    past t_graze (tests/test_cycles.py).  A root with y0 <= 0 lies past
    t_graze, so H <= H_graze: _graze runs only to word that NoCycleError.
    Newton starts one step from the H_crit end, t = pi - f(pi) / f'(pi), on
    the values of the f(pi) test, or at the bracket's midpoint when f'(pi)
    is not negative or that step leaves the bracket.  e^{Ct} stays finite
    on the bracket for C up to 150, and H < H_crit needs C below 118.5, as
    H^2 > 0 needs H above 1.57e-162.  A point that leaves the float range
    is a DivergenceError: x0 or y0 overflows to inf for Lambda near the
    float maximum, and y0 = zs q / sin t underflows to 0 for a subnormal
    Lambda, where q < 0 marks t as inside (pi, t_graze).  So is a root
    inside the band where zs = Lambda / (1 + C^2) is subnormal: p0 is zs
    times O(1) factors, so it carries Lambda to only about 2^-1074 / zs
    relative, which the 1e-8 (1 + |p0|) residual test of
    find_cycle_newton cannot see."""
    fdf = _branch_residual(p)
    f, slope = fdf(math.pi)
    if not f > 0.0:
        raise _no_cycle(p)
    top = 2.0 * math.pi - math.atan(p.C)
    t = math.pi - f / slope if slope < 0.0 else math.nan
    if not math.pi < t < top:
        t = 0.5 * (math.pi + top)
    t, _ = _bracketed_root(fdf, t, math.pi, top)
    x0, y0, _, rows = _branch(p, t)
    if not y0 > 0.0:
        # zs > 0 and sin t < 0 give y0 the sign of -q through an underflow
        # too: +0.0 is q < 0, inside (pi, t_graze); -0.0 is past the graze end
        if y0 == 0.0 and math.copysign(1.0, y0) > 0.0:
            raise DivergenceError(f"y0 underflows to 0 at t = {t:.6g} inside (pi, t_graze), "
                                  f"Lambda = {p.Lambda!r}")
        raise _no_cycle(p)
    if not (x0 < math.inf and y0 < math.inf):
        raise DivergenceError(f"the branch point ({x0!r}, {y0!r}) at t = {t:.6g} leaves the "
                              f"float range, Lambda = {p.Lambda!r}")
    zs = p.Lambda / (1.0 + p.C * p.C)
    if zs < sys.float_info.min:  # p0 = zs (-r, q) / sin t keeps only zs's few bits
        raise DivergenceError(f"zs = Lambda / (1 + C^2) = {zs!r} is subnormal: p0 carries "
                              f"Lambda = {p.Lambda!r} only to about {5e-324 / zs:.1g} relative")
    return t, x0, y0, rows


def _check_chart(p: SystemParams):
    """A DomainError unless 0 < C pi <= 709 and Lambda > 0, where the cycle
    branch is charted: the (C, Lambda) checks of find_cycle_newton, which no
    H passes otherwise."""
    if not 0.0 < p.C * math.pi <= 709.0:
        raise DomainError(f"the cycle branch is charted for 0 < C <= 709 / pi, got C={p.C!r}")
    if not p.Lambda > 0.0:  # Lambda < 0 puts zs, and the branch, in the third quadrant
        raise DomainError("the cycle branch is charted for visible folds, Lambda > 0, "
                          f"got Lambda={p.Lambda!r}")


def find_cycle_newton(p: SystemParams, y0_init: float | None = None) -> SymmetricCycle:
    """Symmetric crossing cycle as the root of H(t) = H on the branch.

    The symmetric branch is parametrized by the X flight time t: for t in
    (pi, t_graze) the start (x0(t), y0(t)) flies in time t onto its
    involution image when H = H(t), all three in closed form, with
    H(pi+) = H_crit and H(t_graze) = H_graze, where y0 reaches the X fold.
    The solve is the library's safeguarded Newton kernel on
    d(t) (H(t) - H) with its exact derivative, each step one closed-form
    evaluation and no flight (see _solve_branch).  y0_init is checked and
    unused: the solve always starts one Newton step from the H_crit end.
    One evaluation of sin, cos and the exponentials at t_x gives p0 and
    exp(DX t_x); that gives the closed-form end p1 and, with the field
    there, Dg, and is kept as the cycle's phi for monodromy.  No flight is flown:
    z is read at its critical points in (0, t_x), and dz/dt is y0 > 0 at
    the start and -x0 < 0 at the end.

    Raises
    ------
    DomainError
        If y0_init is NaN or +inf, p is outside the resonant 0 < H < 1 range,
        C is not in (0, 709 / pi], or Lambda is not positive.
    DivergenceError
        If x0, y0, p1, the residual or Dg leaves the float range, y0
        underflows to 0 inside (pi, t_graze), or zs = Lambda / (1 + C^2) is
        subnormal at a root inside the band: Lambda near the float maximum
        or below about 2.2e-308 (1 + C^2).
    NoCycleError
        If H is outside the band (H_graze, H_crit) of the branch.
    NoConvergenceError
        If the root kernel does not resolve the flight time in its 100 steps.
    NotACycleError
        If p1 misses (-y0, -x0, 0) by more than 1e-8 (1 + |p0|), or z comes
        within the touch bound of the plane before t_x.
    """
    _check_branch_domain(p)
    _check_chart(p)
    if y0_init is not None and not y0_init < math.inf:
        raise DomainError(f"the seed must be finite or -inf, got {y0_init!r}")
    t_x, x0, y0, rows = _solve_branch(p)
    xs, ys, zs = ss = _stationary(p)
    d = (x0 - xs, y0 - ys, -zs)  # p0 = (x0, y0, 0) from the stationary point
    x1, y1, z1 = _state(rows, ss, d)
    residual = math.hypot(x1 + y0, y1 + x0, z1)  # the end minus (-y0, -x0, 0)
    if not residual < math.inf:  # also a NaN; finite only with x1, y1 and z1 finite
        raise DivergenceError(f"the X flight from p0 = ({x0!r}, {y0!r}) leaves the float "
                              f"range: p1 = {(x1, y1, z1)!r}")
    if residual > 1e-8 * (1.0 + max(abs(x0), abs(y0))):
        raise NotACycleError(f"the X flight from p0 ends {residual:.3g} from (-y0, -x0, 0)")
    _check_first_return(p, x0, y0, t_x, d)
    a01, b01, a11, b11 = _dh_terms(p, x0, y0, rows)
    h01, h11, e_at = a01 + b01, a11 + b11, rows[0][0]
    if not (math.isfinite(h01) and math.isfinite(h11)):
        raise DivergenceError(f"Dg at p0 = ({x0!r}, {y0!r}) leaves the float range: "
                              f"(h01, h11) = {(h01, h11)!r}")
    return _record(SymmetricCycle, {"p0": (x0, y0), "p1": (x1, y1), "T": 2.0 * t_x, "t_x": t_x,
                                    "t_y": t_x, "residual": residual,
                                    "dg": (0.0, -h11, -e_at, -h01), "phi": rows})


def _check_first_return(p: SystemParams, x0: float, y0: float, t_x: float, d):
    """A NotACycleError unless z along the upper orbit from (x0, y0, 0),
    monotone between its critical points, exceeds the touch bound at each
    of them in (0, t_x); d = p0 - s* holds the z coefficients (wy, wz) last."""
    C, s0 = p.C, (x0, y0, 0.0)
    alpha, beta = _slope_coefficients(C, d[1], d[2])
    z, _ = z_closed_form(p, s0)
    u, ab = math.atan2(-beta, alpha) % math.pi, math.hypot(alpha, beta)
    while u < t_x:
        if not z(u) > _touch_bound(C, math.exp(C * u), ab):
            raise NotACycleError(f"the X flight from p0 meets the plane at t = {u:.6g} < t_x")
        u += math.pi


def return_map(p: SystemParams, q) -> tuple:
    """Full crossing return map from a first-quadrant point of the plane.

    Composes the forward upper half-orbit with the forward lower half-orbit,
    half_return_X and half_return_Y: each start is tangential only where its
    Lie derivative is exactly zero, and each end is the crossing walk's
    resolved sign change.
    Returns the image as an (x, y) pair of floats.
    """
    x, y = float(q[0]), float(q[1])
    if x <= 0 or y <= 0:
        raise DomainError(f"return map orientation expects a first-quadrant point, "
                          f"got {(x, y)!r}")
    return half_return_Y(p, half_return_X(p, (x, y)).end).end


def asymptotic_seed(p: SystemParams) -> float | None:
    """The paper's large-amplitude estimate y0* = -gamma2/gamma1 of the
    cycle's y0, with gamma_i = gamma_i_x - gamma_i_y read from the floats of
    ``returns._series`` (series_coeffs's domain checks, no record).

    None when the head has no positive zero (gamma1/gamma2 >= 0), or when
    -gamma1/gamma2 overflows (C near the float minimum), where the seed
    would be y0 = 0, the X fold.
    """
    g1x, g2x, g1y, g2y = _series(p)
    g1, g2 = g1x - g1y, g2x - g2y
    v0 = -g1 / g2 if g2 != 0.0 else 0.0
    return 1.0 / v0 if 0.0 < v0 < math.inf else None


@dataclass(frozen=True)
class ScanEntry:
    """One H of a scan: the cycle and its monodromy, or the failure as its
    text ("Kind: message") and error_kind, the exception class name."""

    H: float
    cycle: SymmetricCycle | None
    monodromy: MonodromyReport | None
    error: str | None
    error_kind: str | None = None


def scan_cycles(p_base: SystemParams, H_grid) -> list[ScanEntry]:
    """Cycle catalogue over an H grid at the base system's A, C and Lambda.

    Each H is solved independently; a TwofoldError is recorded in its entry
    and the scan continues.  The returned order follows H_grid.
    """
    def entry(H: float) -> ScanEntry:
        try:
            p = build_system(p_base.A, p_base.C, H, p_base.Lambda)
            cycle = find_cycle_newton(p)
            report = monodromy(p, cycle)
            return ScanEntry(H=H, cycle=cycle, monodromy=report, error=None)
        except TwofoldError as exc:  # per-entry failure, scan continues
            kind = type(exc).__name__
            return ScanEntry(H=H, cycle=None, monodromy=None,
                             error=f"{kind}: {exc}", error_kind=kind)

    return [entry(float(H)) for H in H_grid]
