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
flight's crossing, then one kernel flight of the lower half-orbit that
checks it.  The conic residual r(y0) = x1 + y0 of the earlier
branch-coordinate solve stays as a test oracle (closure_residual in
tests/oracles.py).  The full return map (upper half-orbit followed by the
lower one) is exposed for iteration and for finite-difference checks of the
monodromy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, DomainError, NoCycleError, NotACycleError, TwofoldError
from .flow import _phi_rows
from .invariants import _check_branch_domain, _conic_coefficients, _conic_value, gamma1_branch_x
from .returns import _bracketed_root, _flight, _gamma_x, _series, half_return_X, half_return_Y
from .stability import MonodromyReport, monodromy
from .system import SystemParams, _plane_field, resonant_system

__all__ = [
    "SymmetricCycle",
    "find_cycle_newton",
    "return_map",
    "iterate_reduced_map",
    "ScanEntry",
    "scan_cycles",
    "asymptotic_seed",
]


@dataclass(frozen=True)
class SymmetricCycle:
    """A converged symmetric crossing cycle.

    p1 is the second crossing, where the kernel flight of the lower
    half-orbit into p0 starts; residual is its distance from the involution
    image (-y0, -x0).  t_x (the closed-form branch time) and t_y (that
    flight's own crossing time, its Newton only started at t_x) are the two
    half-flight times, equal for a symmetric cycle, and T = t_x + t_y the
    period.  dg is the 2x2 derivative at p0 of the half map g = S h_X on the
    plane, row-major (g00, g01, g10, g11), in closed form at the branch
    point.  The return map is g o g, so its derivative at the cycle is Dg^2,
    whose eigenvalues are the transverse Floquet multipliers.
    """

    p0: np.ndarray
    p1: np.ndarray
    T: float
    t_x: float
    t_y: float
    residual: float
    dg: tuple


def _closing(C: float, t: float):
    """(sin t, q, r, q', r') at the flight time t: the two terms of the
    closing equations, q = cos t - C sin t - e^{-Ct} and
    r = e^{Ct} - cos t - C sin t, and their derivatives in t.  e^{Ct} reads
    inf where it leaves the float range (C t >= 709), which only _graze
    meets, from C of about 150; r and r' are inf there and unused."""
    st, ct, em = math.sin(t), math.cos(t), math.exp(-C * t)
    ep = math.exp(C * t) if C * t < 709.0 else math.inf
    cs, cc = C * st, C * ct
    return st, ct - cs - em, ep - ct - cs, -st - cc + C * em, C * ep + st - cc


def _branch_point(p: SystemParams, t: float):
    """(x0, y0, h) for the symmetric branch point whose X flight takes time
    t: the start p0 = (x0, y0, 0) from which the upper orbit meets the plane
    at time t exactly at (-y0, -x0, 0) when H = h.

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
    st, q, r, _, _ = _closing(p.C, t)
    e_at = math.exp(p.A * t)
    d = r - e_at * q
    zs = p.Lambda / (1.0 + p.C * p.C)
    return -zs * r / st, zs * q / st, (e_at * r - q) / d if d > 0.0 else math.nan


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
        _, q, _, dq, _ = _closing(C, t)
        return -q, -dq

    lo, hi = math.pi, 2.0 * math.pi - math.atan(C)
    t_graze, _ = _bracketed_root(fdf, 0.5 * (lo + hi), lo, hi)
    return t_graze, math.exp(p.A * t_graze)


def _no_cycle(p: SystemParams) -> NoCycleError:
    h_graze, h_crit = _graze(p)[1], _branch_point(p, math.pi)[2]
    return NoCycleError(f"no symmetric crossing cycle: H = {p.H:.6g} lies outside the "
                        f"band (H_graze, H_crit) = ({h_graze:.6g}, {h_crit:.6g}) "
                        "of the branch")


def _branch_residual(p: SystemParams):
    """fdf(t) = (f(t), f'(t)) for the closing residual f = n - H d =
    d (H(t) - H) of the branch, n = e^{At} r - q and d = r - e^{At} q the
    numerator and denominator of H(t) (see _branch_point), with the exact
    derivative f' = e^{At} (A (r + H q) + r' + H q') - q' - H r'."""
    A, C, H = p.A, p.C, p.H

    def fdf(t):
        _, q, r, dq, dr = _closing(C, t)
        e_at = math.exp(A * t)
        return (e_at * r - q - H * (r - e_at * q),
                e_at * (A * (r + H * q) + dr + H * dq) - dq - H * dr)

    return fdf


def _solve_branch(p: SystemParams, y0_init: float | None):
    """The branch point (t, x0, y0) with H(t) = p.H, t in (pi, t_graze).

    One call of the shared root kernel on the residual f = d (H(t) - H) of
    _branch_residual, on its exact derivative, over the bracket
    (pi, 2 pi - atan C), which holds t_graze (see _graze); d > 0 there, as
    A < 0.  f(pi) > 0 exactly when H < H(pi) = H_crit, and from the root to
    the bracket's end f stays <= 0 whenever H > H_graze, as H(t) <= H_graze
    past t_graze (tests/test_cycles.py).  A root with y0 <= 0 lies past
    t_graze, so H <= H_graze: _graze runs only to word that NoCycleError.
    Newton starts at t = pi + tau_x_head(1 / y0_init), the series head of
    the X flight time, or, without a positive seed or when that t leaves
    the bracket, at the resonant linearisation H / H_crit - 1 = -2 (t - pi).
    e^{Ct} stays finite on the bracket for C up to 150, and H < H_crit
    needs C below 118.5, as H^2 > 0 needs H above 2.2e-162."""
    fdf = _branch_residual(p)
    if not fdf(math.pi)[0] > 0.0:
        raise _no_cycle(p)
    top, t = 2.0 * math.pi - math.atan(p.C), math.nan
    if y0_init is not None and y0_init > 0.0:
        (g1x, g2x), v = _gamma_x(p), 1.0 / y0_init
        t = math.pi + (g1x * v + g2x * v * v)  # tau_x_head(v)
    if not math.pi < t < top:  # the resonant linearisation at H_crit = H(pi)
        t = math.pi + 0.5 * (1.0 - p.H / _branch_point(p, math.pi)[2])
    t, _ = _bracketed_root(fdf, t, math.pi, top)
    x0, y0, _ = _branch_point(p, t)
    if not y0 > 0.0:  # past the graze end
        raise _no_cycle(p)
    return t, x0, y0


def find_cycle_newton(p: SystemParams, y0_init: float | None = None) -> SymmetricCycle:
    """Symmetric crossing cycle as the root of H(t) = H on the branch.

    The symmetric branch is parametrized by the X flight time t: for t in
    (pi, t_graze) the start (x0(t), y0(t)) flies in time t onto its
    involution image when H = H(t), all three in closed form, with
    H(pi+) = H_crit and H(t_graze) = H_graze, where y0 reaches the X fold.
    The solve is the library's safeguarded Newton kernel on
    d(t) (H(t) - H) with its exact derivative, each step one closed-form
    evaluation and no flight (see _solve_branch); its start comes from the
    series head of the X flight time at y0_init.  Dg comes in closed
    form from exp(DX t_x) and the field at the end (-y0, -x0).  The kernel
    flight behind half_return_Y, from p0 with its Newton started at t_x,
    gives t_y and p1 in about one root step; the cycle checks run on it.

    Raises
    ------
    DomainError
        If y0_init is NaN or +inf, p is outside the resonant 0 < H < 1 range,
        or C is not in (0, 709 / pi].
    NoCycleError
        If H is outside the band (H_graze, H_crit) of the branch.
    NoConvergenceError
        If the root kernel does not resolve the flight time in its 100 steps.
    NotACycleError
        If the Y flight from p0 misses the cycle: its end is not (-y0, -x0),
        its time differs from t, or it leaves the reduced conic.
    """
    _check_branch_domain(p)
    if not 0.0 < p.C * math.pi <= 709.0:
        raise DomainError(f"the cycle branch is charted for 0 < C <= 709 / pi, got C={p.C!r}")
    if y0_init is not None and not y0_init < math.inf:
        raise DomainError(f"the seed must be finite or -inf, got {y0_init!r}")
    t_x, x0, y0 = _solve_branch(p, y0_init)
    t_y, (x1, y1), *_ = _flight(p, x0, y0, "Y", t_x)
    T = t_x + t_y
    scale = 1.0 + max(abs(x0), abs(y0))
    residual = math.hypot(x1 + y0, y1 + x0)  # p1 minus the involution image (-y0, -x0)
    problems = []
    if residual > 1e-8 * scale:
        problems.append(f"the Y flight from p0 ends {residual:.3g} from (-y0, -x0)")
    if abs(t_x - t_y) > 1e-9 * T:
        problems.append(f"half times differ: |t_x - t_y| = {abs(t_x - t_y):.3g}")
    if abs(_conic_value(_conic_coefficients(p), x1, y1)) > 1e-8 * scale * scale:
        problems.append("p1 left the reduced conic")
    if problems:
        raise NotACycleError("; ".join(problems))
    # Dh = (I - X(end) e3^T / X_z(end)) [phi0 phi1] at the end (-y0, -x0), where
    # X = (A x1 + H Lambda, Lambda, y1); phi0 = (e^{At}, 0, 0) leaves h10 = 0
    (e_at, p01, _), (_, p11, _), (_, p21, _) = _phi_rows(p, t_x)
    (fx, fy, _), w = _plane_field(p, -y0, -x0), p21 / x0  # w = -phi1_z / X_z(end)
    h01, h11 = p01 + fx * w, p11 + fy * w
    return SymmetricCycle(p0=np.array([x0, y0]), p1=np.array([x1, y1]), T=T, t_x=t_x,
                          t_y=t_y, residual=residual, dg=(0.0, -h11, -e_at, -h01))


def return_map(p: SystemParams, q) -> np.ndarray:
    """Full crossing return map from a first-quadrant point of the plane.

    Composes the forward upper half-orbit with the forward lower half-orbit;
    both endpoint crossings must be transversal.
    """
    q = np.asarray(q, dtype=float)
    if q[0] <= 0 or q[1] <= 0:
        raise DomainError(f"return map orientation expects a first-quadrant point, got {q!r}")
    hrx = half_return_X(p, q)
    hry = half_return_Y(p, hrx.end)
    return hry.end


def iterate_reduced_map(p: SystemParams, y0_init: float, n: int) -> list[np.ndarray]:
    """Orbit of the return map seeded on the conic branch.

    Returns the n+1 successive crossing points starting from the branch point
    at y0_init.  Inside the stability region the sequence converges to the
    cycle's fixed point.

    Raises
    ------
    DivergenceError
        If an iterate leaves the crossing quadrant or blows past 1e12.
    """
    y0 = float(y0_init)
    q = np.array([gamma1_branch_x(p, y0), y0])
    orbit = [q.copy()]
    for k in range(n):
        q = return_map(p, q)
        if not np.all(np.isfinite(q)) or q[0] <= 0 or q[1] <= 0 or np.max(np.abs(q)) > 1e12:
            raise DivergenceError(
                f"iterate {k + 1} left the branch domain at {q!r}"
            )
        orbit.append(q.copy())
    return orbit


def asymptotic_seed(p: SystemParams) -> float | None:
    """Large-amplitude seed y0* = -gamma2/gamma1 from the series head, with
    gamma_i = gamma_i_x - gamma_i_y read from the floats of
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
    """Cycle catalogue over an H grid at fixed (C, Lambda).

    Each H is attempted independently from the series-head seed, which may be
    None.  A TwofoldError is recorded in its entry and the scan continues.  The
    returned order follows H_grid.
    """
    def entry(H: float) -> ScanEntry:
        try:
            p = resonant_system(p_base.C, H, p_base.Lambda)
            cycle = find_cycle_newton(p, asymptotic_seed(p))
            report = monodromy(p, cycle)
            return ScanEntry(H=H, cycle=cycle, monodromy=report, error=None)
        except TwofoldError as exc:  # per-entry failure, scan continues
            kind = type(exc).__name__
            return ScanEntry(H=H, cycle=None, monodromy=None,
                             error=f"{kind}: {exc}", error_kind=kind)

    return [entry(float(H)) for H in H_grid]
