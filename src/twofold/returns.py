"""Half-return flight times through either half-space, their large-amplitude
expansions, and the time-matching function whose zeros are symmetric cycles.

Solver contract: along either piece dz/dt = e^{Ct} (alpha sin t + beta cos t),
so the critical points of z lie exactly at t0 + k pi and z is strictly
monotone between them.  The first crossing is bracketed by evaluating the
closed-form z at those points (then at the window end t_max) until it first
reaches the plane; the bracket holds exactly one root, which Newton steps on
the closed-form dz/dt close, falling back to bisection.  A sign change of z
is never skipped, however shallow; entry and exit transversality are
enforced.

Time direction is inferred from the queried point: a start the field pushes
into its own half-space is solved forward; a start the field's half-orbit
arrives at is solved backward.  Either way the flight time is positive and
the orbit stays in the correct half-space during the flight.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import flow
from .errors import NoConvergenceError, NoReturnError, TangentialGrazeError
from .invariants import gamma1_branch_x, gamma1_discriminant
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
    "DEFAULT_T_MAX",
]

DEFAULT_T_MAX = 8 * math.pi


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


def first_crossing(p: SystemParams, s0, field: str, t_max: float, scale: float, *,
                   forward: bool = True, skip_zero_start: bool = True):
    """First time in (0, t_max] at which the ``field`` orbit from s0 meets z = 0.

    The orbit runs backward in time unless ``forward``; with
    ``skip_zero_start`` s0 lies on the plane.  Returns (t, iterations).
    Raises NoReturnError if no crossing occurs in (0, t_max],
    TangentialGrazeError if the flight does not enter the half-space or the
    exit slope is below 1e-10 (1 + scale).
    """
    if t_max <= 0:
        raise NoReturnError("empty search window")
    z, dz = flow.z_closed_form(p, s0, field)
    side = 1.0 if field == "X" else -1.0
    tsign = 1.0 if forward else -1.0
    # g is positive during the flight.  dz/dt = e^{Ct} (alpha sin t + beta cos t)
    # with beta = dz(0) and alpha = e^{-C pi/2} dz(pi/2), so the critical points
    # of g are exactly phase + k pi and g is monotone between them.
    g = lambda t: side * z(tsign * t)
    dg = lambda t: side * tsign * dz(tsign * t)
    alpha, beta = math.exp(-p.C * math.pi / 2.0) * dz(math.pi / 2.0), dz(0.0)
    if alpha == 0.0 and beta == 0.0:
        # (alpha, beta) is an invertible image of the oscillating part of z,
        # so z is constant: no crossing, however long the window
        raise NoReturnError("z is stationary along the orbit")
    phase = (tsign * math.atan2(-beta, alpha)) % math.pi
    lo, glo = 0.0, None if skip_zero_start else g(0.0)
    k = 0
    while glo is None or glo > 0.0:  # walk while the left end is in the half-space
        hi = min(phase + k * math.pi, t_max)
        ghi = g(hi)
        if ghi <= 0.0:
            break
        if hi == t_max:
            raise NoReturnError(f"no crossing of z = 0 within (0, {t_max:.6g}]")
        lo, glo, k = hi, ghi, k + 1
    if glo is None and hi == t_max and dg(0.0) > 0.0:
        # the window closes before the first critical point of a rising flight
        raise NoReturnError(f"no crossing of z = 0 within (0, {t_max:.6g}]")
    if glo is None or glo <= 0.0:
        raise TangentialGrazeError("entry into the half-space is not transversal")
    root, iterations = _bracketed_root(g, dg, lo, hi, glo, ghi)
    slope = abs(dg(root))
    if slope < 1e-10 * (1.0 + scale):
        raise TangentialGrazeError(f"exit transversality |dz/dt| = {slope:.3g} below tolerance")
    return root, iterations


def _bracketed_root(g, dg, lo, hi, glo, ghi):
    """(t, iterations) for the root of g, monotone on [lo, hi] from glo > 0 to ghi <= 0.

    Newton steps start from the root of the half cosine through the end
    values (exact for C = 0 between critical points); a step that would not
    land inside the shrinking bracket is replaced by bisection.
    """
    t = lo + (hi - lo) / math.pi * math.acos((glo + ghi) / (ghi - glo))
    for iterations in range(1, 101):
        gt = g(t)
        if gt == 0.0:
            return t, iterations
        if gt > 0.0:
            lo = t
        else:
            hi = t
        slope = dg(t)
        step = gt / slope if slope != 0.0 else math.inf
        tol = 1e-15 + 8.9e-16 * abs(t)
        if abs(step) <= tol:
            return t - step, iterations
        t = t - step if lo < t - step < hi else 0.5 * (lo + hi)
        if hi - lo <= tol:
            return t, iterations
    raise NoConvergenceError(f"crossing root not resolved in [{lo!r}, {hi!r}]")


def _half_return(p: SystemParams, start, field: str, lie: float, t_max: float) -> HalfReturn:
    q = np.asarray(start, dtype=float)[:2]
    scale = float(np.hypot(q[0], q[1]))
    if abs(lie) < 1e-10 * (1.0 + scale):
        raise TangentialGrazeError(
            f"start {q!r} is tangential for the {field} field"
        )
    s0 = np.array([q[0], q[1], 0.0])
    # ascending starts open the upper half-orbit, descending ones the lower
    forward = lie > 0 if field == "X" else lie < 0
    t, iterations = first_crossing(p, s0, field, t_max, scale, forward=forward)
    t_signed = t if forward else -t
    end3 = flow.flow_X(p, s0, t_signed) if field == "X" else flow.flow_Y(p, s0, t_signed)
    return HalfReturn(
        t=t,
        start=q.copy(),
        end=end3[:2].copy(),
        field=field,
        forward=forward,
        iterations=iterations,
        residual=abs(float(end3[2])),
    )


def half_return_X(p: SystemParams, start, *, t_max: float = DEFAULT_T_MAX) -> HalfReturn:
    """Flight of the upper half-orbit attached to ``start`` = (x, y).

    For y > 0 the orbit leaves ``start`` forward in time; for y < 0 it
    arrives at ``start`` and the solve runs backward.  The returned time is
    the positive flight duration and ``end`` the other crossing point.
    """
    return _half_return(p, start, "X", float(start[1]), t_max)


def half_return_Y(p: SystemParams, start, *, t_max: float = DEFAULT_T_MAX) -> HalfReturn:
    """Flight of the lower half-orbit attached to ``start`` = (x, y).

    For x < 0 the orbit leaves ``start`` forward in time; for x > 0 it
    arrives at ``start`` (this is the orientation that closes a symmetric
    cycle from a first-quadrant point) and the solve runs backward.
    """
    return _half_return(p, start, "Y", float(start[0]), t_max)


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

    def tau_head(self, v0):
        return self.gamma1 * v0 + self.gamma2 * v0 * v0


def series_coeffs(p: SystemParams) -> SeriesCoeffs:
    """Closed-form expansion coefficients (resonant hyperbola range only)."""
    if not p.resonant:
        raise ValueError("series coefficients require the resonant family A = -2C")
    if not (-1.0 / 3.0 < p.H < 1.0):
        raise ValueError("series coefficients require the hyperbola range -1/3 < H < 1")
    if p.H == 0.0:
        raise ValueError("series coefficients are singular at H = 0")
    C, H, L = p.C, p.H, p.Lambda
    c2 = C * C + 1.0
    E = math.exp(math.pi * C)
    g1x = (1.0 + 1.0 / E) * L / c2
    g2x = -C * g1x * g1x
    sd = math.sqrt(gamma1_discriminant(H) / (H * H)) * H
    g1y = 2.0 * H * L * (E + 1.0) / (c2 * (sd + H + 1.0))
    g2y = (-2.0 * C * H * H * L * L * (E + 1.0) * (sd - (3.0 * H + 1.0) * E)
           / (c2 * c2 * (3.0 * H + 1.0)
              * ((H + 1.0) * sd + 1.0 + 2.0 * H - H * H)))
    return SeriesCoeffs(g1x, g2x, g1y, g2y)


def _branch_returns(p: SystemParams, y0: float, t_max: float):
    """(hrx, hry): both half-returns attached to the branch point at y0."""
    q = (gamma1_branch_x(p, y0), y0)
    return half_return_X(p, q, t_max=t_max), half_return_Y(p, q, t_max=t_max)


def time_matching(p: SystemParams, v0: float, *, t_max: float = DEFAULT_T_MAX) -> float:
    """tau(v0): difference of the shifted flight times from the branch point.

    tau(v0) = (t^X - pi) - (u^Y - pi) where both half-returns are taken from
    the branch point with y0 = 1/v0; its zeros are the symmetric cycles.
    """
    if v0 <= 0:
        raise ValueError("v0 must be positive")
    hrx, hry = _branch_returns(p, 1.0 / v0, t_max)
    return hrx.t - hry.t


def time_matching_table(p: SystemParams, v0_values, *,
                        t_max: float = DEFAULT_T_MAX) -> list[dict]:
    """Numeric vs series flight-time shifts for each v0 (CSV-friendly rows)."""
    coeffs = series_coeffs(p)
    rows = []
    for v0 in v0_values:
        hrx, hry = _branch_returns(p, 1.0 / float(v0), t_max)
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
    """Second matching coefficient at the critical slope H_crit(C).

    The first coefficient vanishes there; this one does not, for any C != 0,
    which makes the zero of the matching function isolated.
    """
    if C == 0.0:
        raise ValueError("C must be nonzero")
    c2 = C * C + 1.0
    if C > 0:
        return (-2.0 * Lambda * Lambda * C
                * (math.exp(-math.pi * C) + 1.0 + math.exp(-2.0 * math.pi * C)) / (c2 * c2))
    return (-C * Lambda * Lambda
            * (1.0 + 2.0 * math.exp(-C * math.pi) - math.exp(2.0 * C * math.pi)
               + math.exp(-2.0 * C * math.pi) + math.exp(4.0 * C * math.pi)
               + 2.0 * math.exp(3.0 * C * math.pi)) / (c2 * c2))
