"""Half-return flight times through either half-space, their large-amplitude
expansions, and the time-matching function whose zeros are symmetric cycles.

Solver contract: along either piece z(t) = zs + e^{Ct} (wy sin t +
(cos t + C sin t) wz) with the coefficients (zs, wy, wz) of
``flow._z_coefficients``, and dz/dt = e^{Ct} (alpha sin t + beta cos t) with
the (alpha, beta) of ``flow._slope_coefficients``, so the critical points of
z lie exactly at t0 + k pi and z is strictly monotone between them.  The
first crossing is bracketed by evaluating the closed-form z of
``flow.z_closed_form`` at those points (then at the window end t_max) until
it first reaches the plane; the bracket holds exactly one root.  A critical
point at which z is zero to within the closed form's rounding is a touch,
not a crossing, and the walk goes on past it.  Where the envelope e^{Ct}
does not grow along the flight, a critical point u with e^{Cu} |S| < zs,
|S| the amplitude of the sinusoid, ends the walk: z stays above the plane
past it, so no window holds a crossing.  Newton closes a bracket whose left
end is u_lo on the envelope-free residual e^{-C(t - u_lo)} z(t) =
zs w + e^{C u_lo} (wy sin t + wz (cos t + C sin t)), w = e^{-C(t - u_lo)},
fused to one exp, one sin and one cos per step.  It has the sign of z
everywhere but lacks the e^{Ct} bend that makes Newton on z itself
overshoot; it starts at the zero of the sinusoid inside the bracket (the
bracket's midpoint if there is none) and falls back to bisection, but not
from an iterate where the residual is within its rounding: that is the
root.  A sign change of z is never skipped, however shallow; entry and exit
transversality are enforced.  A half-return searches the fixed window
(0, 8 pi]: on the hyperbola every flight takes about pi.

Time direction is inferred from the queried point: a start the field pushes
into its own half-space is solved forward; a start the field's half-orbit
arrives at is solved backward.  Either way the flight time is positive and
the orbit stays in the correct half-space during the flight.

Both kernels work in the upper chart only.  The lower orbit from s is the
S-image of the upper orbit from S s, with S(x, y, z) = (-y, -x, -z), so a
lower-field solve mirrors its start, runs the upper kernel and mirrors the
result back; ``first_crossing`` reads the start's side from its z.  A
half-return is finite or a typed error: a non-finite start is a DomainError,
a flight that leaves the range of floating point a DivergenceError.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import flow
from .flow import _slope_coefficients
from .errors import (DivergenceError, DomainError, NoConvergenceError, NoReturnError,
                     TangentialGrazeError)
from .invariants import gamma1_branch_x, gamma1_discriminant
from .sigma import _tangency_cutoff
from .system import SystemParams

__all__ = [
    "HalfReturn",
    "half_return_X",
    "half_return_Y",
    "SeriesCoeffs",
    "series_coeffs",
    "time_matching",
    "time_matching_table",
    "gamma2_at_critical",
]

_WINDOW = 8 * math.pi  # the half-return search window (0, _WINDOW]


@dataclass(frozen=True)
class HalfReturn:
    """One half-orbit between two switching-plane crossings.

    ``t`` is the positive flight duration.  ``forward`` records the time
    direction of the solve from ``start``: when False, the half-orbit runs
    from ``end`` to ``start`` in forward time.
    """

    t: float
    start: np.ndarray
    end: np.ndarray
    field: str
    forward: bool
    iterations: int
    residual: float


def first_crossing(p: SystemParams, s0, t_max: float, *, forward: bool = True,
                   t_start: float = math.nan):
    """First time in (0, t_max] at which the upper-field orbit from s0 meets z = 0.

    s0 lies on the plane (s0[2] == 0, and the flight leaves it) or above it;
    a lower-field caller passes S s0.  The orbit runs backward in time unless
    ``forward``.  Newton starts at ``t_start`` if it lies in the walk's
    one-root bracket: fewer steps, the same root to round-off.  Only
    otherwise is the zero of z's sinusoid in the bracket computed (one
    atan2) and used as the start, or the bracket's midpoint if there is
    none.  Returns (t, iterations).
    A touch, a critical point of z where z is zero to within the closed
    form's rounding, is not a crossing: the orbit stays in its half-space.
    Raises DomainError if s0 lies below the plane, NoReturnError if no
    crossing occurs in (0, t_max], TangentialGrazeError if the flight does
    not enter the half-space or the exit slope is below 1e-10 (1 + |s0|),
    and DivergenceError if the closed form leaves the range of floating
    point before the crossing is resolved.
    """
    if s0[2] < 0.0:  # the lower orbit from s is the S-image of the upper one from S s
        raise DomainError(f"start z = {s0[2]!r} is below the plane; pass S s0 = (-y, -x, -z)")
    try:  # e^{Ct} in the closed form may overflow
        zs, wy, wz = flow._z_coefficients(p, s0)
        z, dz = flow.z_closed_form(p, s0)
        C = p.C
        tsign = 1.0 if forward else -1.0
        # z(tsign t) is positive during the flight.  dz/dt = e^{Ct}
        # (alpha sin t + beta cos t), so the critical points of z are exactly
        # phase + k pi and z is monotone between them.
        alpha, beta = _slope_coefficients(C, wy, wz)
        if alpha == 0.0 and beta == 0.0:
            # (alpha, beta) is an invertible image of the oscillating part of z,
            # so z is constant: no crossing, however long the window
            raise NoReturnError("z is stationary along the orbit")
        phase = (tsign * math.atan2(-beta, alpha)) % math.pi
        if not math.isfinite(phase):  # a NaN phase would keep the walk from t_max
            raise DivergenceError("the closed form of z is not finite along the orbit")
        # z = zs + e^{Cu} S(u) with S a sinusoid of amplitude amp; where the
        # envelope does not grow along the flight, z >= zs - e^{Cu} amp > 0 past
        # any node u with e^{Cu} amp < zs.  The slack covers the rounding of
        # amp, whose first component may cancel
        decays = C * tsign <= 0.0
        amp = math.hypot(wy + C * wz, wz) + 2.0 ** -40 * (abs(wy) + abs(C * wz) + abs(wz))
        inside = s0[2] > 0.0  # the left end lies in the half-space
        if inside and z(0.0) <= 0.0:
            raise TangentialGrazeError("entry into the half-space is not transversal")
        # near z = 0 the terms of zs + e^{Cu} (wy sin u + (cos u + C sin u) wz)
        # sum in size to at most 3 (1 + |C|) e^{Cu} |(alpha, beta)|, and z
        # carries a few ulps of that: the touch bound rnd e^{Cu} |(alpha, beta)|
        rnd, ab = 2.0 ** -50 * 3.0 * (1.0 + abs(C)), math.hypot(alpha, beta)
        lo, floor, k = 0.0, rnd * ab, 0  # floor: the touch bound at lo
        while True:
            hi = min(phase + k * math.pi, t_max)
            zhi = z(tsign * hi)
            e_hi = math.exp(C * tsign * hi)
            touch = rnd * e_hi * ab
            # a critical point past the left end where z is zero to within
            # rounding is a touch, passed over whichever way z rounds there
            if zhi <= 0.0 and (not inside or hi == t_max or -zhi > touch):
                break
            if hi == t_max or decays and e_hi * amp < zs:
                # the window closes, or z stays above the plane past hi
                raise NoReturnError(f"no crossing of z = 0 within (0, {t_max:.6g}]")
            lo, floor, k, inside = hi, touch, k + 1, True
        if not inside:
            if hi == t_max and tsign * beta > 0.0:
                # the window closes before the first critical point of a rising flight
                raise NoReturnError(f"no crossing of z = 0 within (0, {t_max:.6g}]")
            raise TangentialGrazeError("entry into the half-space is not transversal")
        # z = zs + e^{Cu} (a sin u + b cos u) with (a, b) proportional to
        # (C alpha + beta, C beta - alpha): start at t_start, else at the zero
        # of the sinusoid, inside the bracket, else at its midpoint
        start = t_start
        if not lo < start < hi:
            start = lo + (tsign * math.atan2(alpha - C * beta, C * alpha + beta) - lo) % math.pi
            if not lo < start < hi:
                start = 0.5 * (lo + hi)
        # the residual e^{-C(u - u_lo)} z rounds to within the touch bound at lo
        fdf = _envelope_free(C, zs, wy, wz, tsign, tsign * lo)
        root, iterations = _bracketed_root(fdf, start, lo, hi, floor)
        slope = abs(dz(tsign * root))
        if slope < 1e-10 * (1.0 + math.hypot(*s0)):
            raise TangentialGrazeError(
                f"exit transversality |dz/dt| = {slope:.3g} below tolerance")
        return root, iterations
    except OverflowError:
        raise DivergenceError("the orbit leaves the range of floating point "
                              "before it meets z = 0") from None


def _envelope_free(C: float, zs: float, wy: float, wz: float, tsign: float, u_lo: float):
    """fdf(t) = (f(t), f'(t)) for the envelope-free crossing residual
    f(t) = e^{-C(u - u_lo)} z(u) at u = tsign t, which has the sign of z but
    lacks the e^{Cu} bend that makes Newton on z overshoot.  With
    w = e^{-C(u - u_lo)} it is fused to

        f = zs w + e^{C u_lo} (wy sin u + wz (cos u + C sin u)),

    one exp, one sin and one cos per call; the constant e^{C u_lo} keeps w
    within e^{|C| pi} on a bracket whose left end is u_lo, however long the
    window."""
    e_lo = math.exp(C * u_lo)

    def fdf(t):
        u = tsign * t
        w = math.exp(-C * (u - u_lo))
        su, cu = math.sin(u), math.cos(u)
        return (zs * w + e_lo * (wy * su + wz * (cu + C * su)),
                tsign * (e_lo * (wy * cu + wz * (C * cu - su)) - C * zs * w))

    return fdf


def _bracketed_root(fdf, t, lo, hi, floor=0.0):
    """(t, iterations) for the one root of f in [lo, hi], where
    fdf(t) = (f(t), f'(t)) and f > 0 left of the root, f <= 0 right of it.

    Newton steps from t; a step is replaced by bisection unless it lands
    inside the shrinking bracket and is at most half the previous step (the
    bracket width at first), as in Numerical Recipes' rtsafe, so a run of
    equal steps, as on a steep exponential, cannot outlast the step budget.
    ``floor`` is the rounding bound of f.  A step refused at |f| <= floor
    returns t while the bracket spans more than floor / |f'|, the width on
    which f is all round-off: the steps there only repeat, and a bisection
    of the whole bracket would walk back to t.  Stops at f = 0
    or once the step or the bracket is below round-off in t.
    """
    prev = hi - lo
    for iterations in range(1, 101):
        ft, slope = fdf(t)
        at = abs(t)
        if ft == 0.0:
            return t, iterations
        if ft > 0.0:
            lo = t
        else:
            hi = t
        step = ft / slope if slope != 0.0 else math.inf
        tol = 1e-15 + 8.9e-16 * at
        if abs(step) <= tol:
            return t - step, iterations
        if lo < t - step < hi and abs(2.0 * step) <= abs(prev):
            t, prev = t - step, step
        elif abs(ft) <= floor < (hi - lo) * abs(slope):
            return t, iterations
        else:
            mid = 0.5 * (lo + hi)
            t, prev = mid, t - mid
        if hi - lo <= tol:
            return t, iterations
    raise NoConvergenceError(f"root not resolved in [{lo!r}, {hi!r}]")


def _flight(p: SystemParams, x0: float, y0: float, field: str, t_start: float = math.nan):
    """The one half-return flight, in floats: the HalfReturn fields but start
    and field, (t, (x1, y1), forward, iterations, residual)."""
    # the Y half-orbit from q is the S-image of the X half-orbit from S q
    u, v = (x0, y0) if field == "X" else (-y0, -x0)
    if abs(v) < _tangency_cutoff(x0, y0):  # v is the X Lie derivative at (u, v)
        raise TangentialGrazeError(
            f"start {(x0, y0)!r} is tangential for the {field} field"
        )
    forward = v > 0  # an ascending start opens the upper half-orbit
    t, iterations = first_crossing(p, (u, v, 0.0), _WINDOW, forward=forward, t_start=t_start)
    try:  # e^{At} in the closed form may overflow where e^{Ct} did not
        x1, y1, z1 = flow.plane_flight(p, (u, v), t if forward else -t)
        finite = math.isfinite(x1) and math.isfinite(y1) and math.isfinite(z1)
    except OverflowError:
        finite = False
    if not finite:
        raise DivergenceError(f"the {field} flight from {(x0, y0)!r} leaves "
                              "the range of floating point")
    if field == "Y":  # the end back in the lower chart
        x1, y1 = -y1, -x1
    return t, (x1, y1), forward, iterations, abs(z1)


def _half_return(p: SystemParams, start, field: str) -> HalfReturn:
    x0, y0 = float(start[0]), float(start[1])
    t, end, *rest = _flight(p, x0, y0, field)
    return HalfReturn(t, np.array([x0, y0]), np.array(end), field, *rest)


def half_return_X(p: SystemParams, start) -> HalfReturn:
    """Flight of the upper half-orbit attached to ``start`` = (x, y).

    For y > 0 the orbit leaves ``start`` forward in time; for y < 0 it
    arrives at ``start`` and the solve runs backward.  The returned time is
    the positive flight duration and ``end`` the other crossing point.
    Raises NoReturnError if the flight is longer than 8 pi.
    """
    return _half_return(p, start, "X")


def half_return_Y(p: SystemParams, start) -> HalfReturn:
    """Flight of the lower half-orbit attached to ``start`` = (x, y).

    For x < 0 the orbit leaves ``start`` forward in time; for x > 0 it
    arrives at ``start`` (this is the orientation that closes a symmetric
    cycle from a first-quadrant point) and the solve runs backward.
    Raises NoReturnError if the flight is longer than 8 pi.
    """
    return _half_return(p, start, "Y")


@dataclass(frozen=True)
class SeriesCoeffs:
    """Leading terms of the desingularized flight times at large amplitude.

    With v0 = 1/y0 along the conic branch, the shifted X time t^X - pi
    expands as gamma1_x v0 + gamma2_x v0^2 + O(v0^3), and the shifted
    (backward) Y time u^Y - pi as gamma1_y v0 + gamma2_y v0^2 + O(v0^3).
    """

    gamma1_x: float
    gamma2_x: float
    gamma1_y: float
    gamma2_y: float

    @property
    def gamma1(self) -> float:
        return self.gamma1_x - self.gamma1_y

    @property
    def gamma2(self) -> float:
        return self.gamma2_x - self.gamma2_y

    def tau_x_head(self, v0):
        return self.gamma1_x * v0 + self.gamma2_x * v0 * v0

    def tau_y_head(self, v0):
        return self.gamma1_y * v0 + self.gamma2_y * v0 * v0


def _gamma_x(p: SystemParams):
    """(gamma1_x, gamma2_x) of series_coeffs, without its domain checks."""
    g1x = (1.0 + 1.0 / math.exp(math.pi * p.C)) * p.Lambda / (p.C * p.C + 1.0)
    return g1x, -p.C * g1x * g1x


def series_coeffs(p: SystemParams) -> SeriesCoeffs:
    """Closed-form expansion coefficients (resonant hyperbola range, and
    |C| pi <= 709 so that e^{pi C} and its inverse stay finite).  A
    coefficient that is not finite even so is a DomainError naming C and H."""
    return SeriesCoeffs(*_series(p))


def _series(p: SystemParams):
    """(gamma1_x, gamma2_x, gamma1_y, gamma2_y) of series_coeffs, as floats
    behind its domain checks."""
    if not p.resonant:
        raise DomainError("series coefficients require the resonant family A = -2C")
    if not (-1.0 / 3.0 < p.H < 1.0):
        raise DomainError("series coefficients require the hyperbola range -1/3 < H < 1")
    if p.H * p.H == 0.0 or p.H < 0.0 and 4.0 * p.H ** 4 < sys.float_info.min:
        # H^2 divides the discriminant below, and H^4 one denominator for H < 0
        raise DomainError(f"series coefficients are singular at H = 0, got H={p.H!r}")
    if abs(p.C) * math.pi > 709.0:
        raise DomainError(f"series coefficients need |C| pi <= 709, got C={p.C!r}")
    C, H, L = p.C, p.H, p.Lambda
    c2 = C * C + 1.0
    E = math.exp(math.pi * C)
    g1x, g2x = _gamma_x(p)
    sd = math.sqrt(gamma1_discriminant(H) / (H * H)) * H
    if H > 0.0:
        r, q = sd + H + 1.0, (H + 1.0) * sd + 1.0 + 2.0 * H - H * H
    else:
        # sd = -sqrt(D), D = (1 - H)(3H + 1): both sums cancel, to 2 H^2 and
        # 2 H^4 at small |H|, so each comes from its conjugate, by
        # (1 + H)^2 - D = 4 H^2 and (1 + 2H - H^2)^2 - (1 + H)^2 D = 4 H^4
        r = 4.0 * H * H / (1.0 + H - sd)
        q = 4.0 * H ** 4 / (1.0 + 2.0 * H - H * H - (H + 1.0) * sd)
    g1y = 2.0 * H * L * (E + 1.0) / (c2 * r)
    g2y = (-2.0 * C * H * H * L * L * (E + 1.0) * (sd - (3.0 * H + 1.0) * E)
           / (c2 * c2 * (3.0 * H + 1.0) * q))
    coeffs = g1x, g2x, g1y, g2y
    if not all(map(math.isfinite, coeffs)):  # e.g. D / H^2 or g1x^2 overflows
        raise DomainError(f"series coefficients are not finite at C={C!r}, H={H!r}: "
                          f"{coeffs!r}")
    return coeffs


def _branch_returns(p: SystemParams, v0: float):
    """(hrx, hry): both half-returns attached to the branch point at y0 = 1/v0."""
    v0 = float(v0)  # a NumPy scalar would warn where 1/v0 overflows
    if not 0.0 < v0 < math.inf:  # a NaN fails too
        raise DomainError(f"v0 must be positive and finite, got {v0!r}")
    y0 = 1.0 / v0
    if y0 == math.inf:  # a subnormal v0
        raise DomainError(f"v0 = {v0!r} is too small: y0 = 1/v0 overflows to inf")
    q = (gamma1_branch_x(p, y0), y0)
    return half_return_X(p, q), half_return_Y(p, q)


def time_matching(p: SystemParams, v0: float) -> float:
    """tau(v0): difference of the shifted flight times from the branch point.

    tau(v0) = (t^X - pi) - (u^Y - pi) where both half-returns are taken from
    the branch point with y0 = 1/v0; its zeros are the symmetric cycles.
    A v0 outside (0, inf), NaN included, is a DomainError.
    """
    hrx, hry = _branch_returns(p, v0)
    return hrx.t - hry.t


def time_matching_table(p: SystemParams, v0_values) -> list[dict]:
    """Numeric vs series flight-time shifts for each v0 (CSV-friendly rows)."""
    coeffs = series_coeffs(p)
    rows = []
    for v0 in v0_values:
        hrx, hry = _branch_returns(p, v0)
        tau_x = hrx.t - math.pi
        tau_y = hry.t - math.pi
        rows.append({
            "v0": float(v0),
            "tau_x_numeric": tau_x,
            "tau_x_series": coeffs.tau_x_head(v0),
            "tau_y_numeric": tau_y,
            "tau_y_series": coeffs.tau_y_head(v0),
            "tau": tau_x - tau_y,
        })
    return rows


def gamma2_at_critical(C: float, Lambda: float) -> float:
    """Second matching coefficient gamma2 of series_coeffs at the critical
    slope H = critical_h(C), in closed form.

    For C > 0 the first coefficient vanishes there and this one does not,
    which makes the zero of the matching function isolated; for C < 0 the
    first does not vanish (gamma1 = 12.05 at C = -1, Lambda = 1).  No
    intermediate overflows, so the value is right wherever it is a float,
    and -0.0 where it underflows (C > 0 from about 1e108).  C = 0, or a
    value past the float range (C < 0 from about -115, or a huge Lambda),
    is a DomainError.
    """
    if C == 0.0:
        raise DomainError("C must be nonzero")
    c2, e = C * C + 1.0, math.exp(-math.pi * abs(C))
    if C > 0:
        g = -2.0 * Lambda * Lambda * (C / c2) * (e + 1.0 + e * e) / c2
    else:
        # (1 + 2/e - e^2 + 1/e^2 + e^4 + 2 e^3) / c2^2 with 1/e^2 drawn into
        # (e c2)^2 < 1; e c2 underflows to 0 only past C = -226, where gamma2
        # overflows unless Lambda is below about 1e-160
        ec2, e2 = e * c2, e * e
        g = (-C * Lambda * Lambda * (1.0 + 2.0 * e + e2 - e2 * e2 + 2.0 * e2 * e2 * e
                                     + e2 * e2 * e2) / ec2 / ec2 if ec2 > 0.0 else math.inf)
    if not math.isfinite(g):
        raise DomainError(f"gamma2 at the critical slope is past the float range at "
                          f"C={C!r}, Lambda={Lambda!r}")
    return g
