"""Detection of symmetric crossing cycles on the reduced branch coordinate.

A crossing orbit through a first-quadrant point p0 = (x0, y0, 0) closes into
a symmetric cycle exactly when the upper half-orbit lands on the involution
image (-y0, -x0, 0).  With p0 constrained to the conic branch, conservation
of the first integral reduces the two closure equations to one scalar
residual r(y0) = x1 + y0, whose bracketed sign change is the cycle.  The full
return map (upper half-orbit followed by the lower one) is exposed for
iteration and for finite-difference checks of the monodromy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (BranchPointError, DivergenceError, DomainError, NoConvergenceError,
                     NoCycleError, NoReturnError, NotACycleError, TangentialGrazeError,
                     TwofoldError)
from .invariants import _branch_x, branch_min_y, gamma1_branch_x, gamma1_conic
from .returns import _bracketed_root, half_return_X, half_return_Y, series_coeffs
from .stability import MonodromyReport, monodromy
from .system import SystemParams, resonant_system

__all__ = [
    "SymmetricCycle",
    "closure_residual",
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

    p1 is the second crossing, equal to (-y0, -x0) up to the stated residual;
    t_x and t_y are the two half-flight times (equal for a symmetric cycle)
    and T = t_x + t_y the period.  dg is the 2x2 derivative at p0 of the
    half map g = S h_X on the plane, row-major (g00, g01, g10, g11), taken
    from the accepted X half-return.  The return map is g o g, so its
    derivative at the cycle is Dg^2, whose eigenvalues are the transverse
    Floquet multipliers.
    """

    p0: np.ndarray
    p1: np.ndarray
    T: float
    t_x: float
    t_y: float
    residual: float
    dg: tuple


def closure_residual(p: SystemParams, y0: float) -> np.ndarray:
    """(x1 + y0, y1 + x0) for the upper half-orbit from the branch point at y0.

    Vanishes exactly at a symmetric cycle.
    """
    r, _, hrx = _closure(p, y0, gamma1_conic(p))
    return np.array([r, hrx.end[1] + hrx.start[0]])


def _half_map_jacobian(p, hrx):
    """Dh, the 2x2 derivative of the X half-return end with respect to its
    start, as rows ((h00, h01), (h10, h11)): rows 0 and 1 of
    (I - X(end) e3^T / X_z(end)) [phi0 phi1], the fixed-time Phi_X columns
    projected along the field X(x1, y1, 0) = (A x1 + H Lambda, Lambda, y1)
    at the end crossing."""
    x1, y1 = hrx.end.tolist()
    phi0, phi1 = hrx.phi
    fx, fy = p.A * x1 + p.H * p.Lambda, p.Lambda
    return ((phi0[0] - fx * phi0[2] / y1, phi1[0] - fx * phi1[2] / y1),
            (phi0[1] - fy * phi0[2] / y1, phi1[1] - fy * phi1[2] / y1))


def _closure(p, y0, conic):
    """(r, dr/dy0, hrx): r = x1 + y0 and its exact slope (see find_cycle_newton)
    for the X half-return hrx from the branch point at y0.  ``conic`` is
    gamma1_conic(p); the solvers build it once per solve and pass it in."""
    x0 = _branch_x(p, y0, conic)
    hrx = half_return_X(p, (x0, y0))
    axx, axy, ayy, bx, by, _ = conic.coefficients
    dx0 = -(axy * x0 + 2.0 * ayy * y0 + by) / (2.0 * axx * x0 + axy * y0 + bx)
    (h00, h01), _ = _half_map_jacobian(p, hrx)
    return float(hrx.end[0]) + y0, dx0 * h00 + h01 + 1.0, hrx


def find_cycle_newton(p: SystemParams, y0_init: float | None = None) -> SymmetricCycle:
    """Symmetric cycle at a sign change of r(y0) = x1 + y0 along the branch.

    The slope is exact, d(x1 + y0)/dy0 = e1^T (I - X(end) e3^T / X_z(end))
    Phi_X(t) (dx0/dy0, 1, 0)^T + 1 with dx0/dy0 = -F_y / F_x on the conic, so
    each evaluation costs one X half-return.  Newton steps from y0_init walk to
    |r| <= 1e-13 (1 + y0) or a straddled root, ending on a step out of
    (branch_min_y(p), 1e6) or a failed flight; else the first sign change on a
    24-point log grid of that range is the bracket, which _bracketed_root
    closes.  |r| <= 1e-10 (1 + y0) and the cycle invariants are then checked.

    Raises
    ------
    DomainError
        If y0_init is NaN or +inf, or p is outside the resonant 0 < H < 1 range.
    NoCycleError
        If r keeps one sign on the grid: sampled evidence, not proof.
    NoConvergenceError
        If the closed bracket leaves a residual above tolerance.
    NotACycleError
        If the converged point violates a cycle invariant.
    """
    conic = gamma1_conic(p)
    y_floor = branch_min_y(p)
    sign, last = 1.0, None  # sign orients r for _bracketed_root; last = (y0, r, hrx)

    def closure(y0):
        nonlocal last
        r, slope, hrx = _closure(p, y0, conic)
        last = y0, r, hrx
        return sign * r, sign * slope

    bracket, done = None, False
    raises = (NoReturnError, TangentialGrazeError, NoConvergenceError, DivergenceError,
              BranchPointError)
    if y0_init is not None:
        y0, prev_y, prev_r = max(float(y0_init), y_floor), None, 0.0
        for _ in range(50):
            try:
                r, slope = closure(y0)
            except raises:
                break
            done = abs(r) <= 1e-13 * (1.0 + y0)
            newton = y0 - r / slope if slope != 0.0 else math.nan
            if done or prev_r * r < 0.0:
                bracket = (prev_y, prev_r, y0, newton)
                break
            if not y_floor < newton < 1e6:
                break
            prev_y, prev_r, y0 = y0, r, newton
    if bracket is None:
        n, prev_y, prev_r = 0, None, 0.0
        for y0 in np.geomspace(y_floor, 1e6, 24).tolist():
            try:
                r, _ = closure(y0)
            except raises:
                continue
            if prev_r * r < 0.0:
                bracket = (prev_y, prev_r, y0, 0.5 * (prev_y + y0))
                break
            n, prev_y, prev_r = n + 1, y0, r
        else:
            found = f"; x1 + y0 is {'positive' if prev_r > 0.0 else 'negative'} on each"
            raise NoCycleError(f"no sign change on {n} points of the branch y0 in "
                               f"[{y_floor:.6g}, 1e+06] ({24 - n} raised){found if n else ''}")
    if not done:
        y_a, r_a, y_b, start = bracket
        lo, hi = min(y_a, y_b), max(y_a, y_b)
        sign = math.copysign(1.0, r_a * (y_b - y_a))  # sign * r > 0 at lo
        _bracketed_root(closure, start if lo < start < hi else 0.5 * (lo + hi), lo, hi, 1e-13)
    y0, r, hrx = last  # the last point evaluated, within 1e-15 (1 + y0) of the root
    accept = 1e-10 * (1.0 + y0)
    if abs(r) > accept:
        raise NoConvergenceError(f"closure residual {r:.3g} above {accept:.3g} at y0 = {y0!r}")
    p0, p1 = hrx.start, hrx.end
    x0, x1, y1 = float(p0[0]), float(p1[0]), float(p1[1])
    r2 = y1 + x0  # r = x1 + y0 and r2 are p1 minus the involution image (-y0, -x0)
    t_x, t_y = hrx.t, half_return_Y(p, p0).t
    T = t_x + t_y
    scale = 1.0 + max(abs(x0), abs(y0))
    problems = []
    if abs(r2) > 100.0 * accept:
        problems.append(f"second closure component {r2:.3g}")
    if max(abs(r), abs(r2)) > 1e-8 * scale:
        problems.append("p1 is not the involution image of p0")
    if abs(t_x - t_y) > 1e-9 * T:
        problems.append(f"half times differ: |t_x - t_y| = {abs(t_x - t_y):.3g}")
    if abs(conic.evaluate(x1, y1)) > 1e-8 * scale * scale:
        problems.append("p1 left the reduced conic")
    if problems:
        raise NotACycleError("; ".join(problems))
    (h00, h01), (h10, h11) = _half_map_jacobian(p, hrx)
    return SymmetricCycle(p0=p0, p1=p1, T=T, t_x=t_x, t_y=t_y,
                          residual=math.hypot(r, r2), dg=(-h10, -h11, -h00, -h01))


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
    """Large-amplitude seed y0* = -gamma2/gamma1 from the series head.

    None when the head has no positive zero (gamma1/gamma2 >= 0).
    """
    coeffs = series_coeffs(p)
    v0 = -coeffs.gamma1 / coeffs.gamma2 if coeffs.gamma2 != 0.0 else 0.0
    return 1.0 / v0 if v0 > 0.0 else None


@dataclass(frozen=True)
class ScanEntry:
    H: float
    cycle: SymmetricCycle | None
    monodromy: MonodromyReport | None
    error: str | None


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
            return ScanEntry(H=H, cycle=None, monodromy=None,
                             error=f"{type(exc).__name__}: {exc}")

    return [entry(float(H)) for H in H_grid]
