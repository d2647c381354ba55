"""Orbits of Z = (X, Y): X above the switching plane z = 0, Y below it.  At a
crossing point of the plane an orbit passes to the other field; at any
other point of it (sliding, escaping, a tangency) the crossing flow ends."""
from __future__ import annotations

import bisect
import math
from typing import NamedTuple

from .errors import DivergenceError, DomainError, GrazingCrossingError, NoReturnError, TwofoldError
from .flow import _phi_from, _phi_rows, _start, _state, _stationary, _z_coefficients
from .returns import first_crossing
from .sigma import RegionKind, classify_point
from .system import SystemParams

_BLOCK = 4096  # samples flown per block, so no run-long arrays are held


class Event(NamedTuple):
    """Where a flight on field meets the plane: kind "crossing", with the
    saltation determinant of the jump, or "terminal" in another region; a
    start that is not a crossing point is one at t = 0 with field None."""
    t: float
    x: float
    y: float
    z: float
    field: str | None
    kind: str
    region: RegionKind
    saltation_det: float | None


def simulate(p: SystemParams, s0, t_max: float, dt: float):
    """Follow the orbit of Z from s0 over [0, t_max], sampled at k dt, and at
    t_max where the last k dt falls short of it by more than 1e-15.

    Yields in time order each run of one flight's samples as (block, start,
    stop, field), block[start:stop] of an (m, 4) array [t, x, y, z] of up to
    4096 samples shared by the runs in it, and after a flight's last run
    its ``Event``.  The t = 0 sample is s0 itself.  A start lies on the side
    of its closed-form z(0) = zs + (|z0| - zs) in its own chart, as
    ``first_crossing`` decides it: a plane start where that rounds to <= 0.
    Pass 1 (``_segments``) finds every crossing.  Pass 2 flows each block by
    one ``flow._state`` call over each sample's tau since its flight began
    and its flight's offset from s* in the upper chart, a Y sample swapped
    and negated as by flow_Y: each is its flow call at tau bit for bit.  A
    start that is not 3 finite coordinates, a t_max, dt or t_max / dt that
    is not positive and finite, or a t_max / dt past NumPy's maximum array
    size, is a DomainError.  A flight whose states overflow is a
    DivergenceError at its last flown time, raised after the items before
    it and before any error pass 1 met later.
    """
    import numpy as np

    s0 = _start(s0)
    if not (0.0 < t_max < math.inf and 0.0 < dt < math.inf):
        raise DomainError("t-max and dt must be positive and finite")
    if not math.isfinite(t_max / dt):
        raise DomainError(f"t-max / dt must be finite, got {t_max!r} / {dt!r}")
    try:
        sample_ts = np.arange(int(np.floor(t_max / dt)) + 1) * dt
    except ValueError:  # NumPy's "Maximum allowed size exceeded"
        raise DomainError(f"t-max / dt exceeds NumPy's maximum array size, got {t_max!r} "
                          f"/ {dt!r}") from None
    if sample_ts[-1] < t_max - 1e-15:
        sample_ts = np.append(sample_ts, t_max)
    x0, y0, z0 = s0.tolist()
    zs, _, wz = _z_coefficients(p, (0.0, 0.0, abs(z0)))
    if z0 != 0.0 and zs + wz > 0.0:
        field = "X" if z0 > 0.0 else "Y"
    else:
        region = classify_point((x0, y0))
        if region is not RegionKind.CROSSING:
            yield Event(0.0, x0, y0, z0, None, "terminal", region, None)
            return
        field = "X" if y0 > 0 else "Y"  # the sign of Xf = y
        z0 = 0.0  # classified as on the plane, so put on it

    segments, error = _segments(p, (x0, y0, z0), field, t_max)
    # the samples of segment j are sample_ts[ends[j - 1]:ends[j]]
    ends = np.searchsorted(sample_ts, [(t_max if tc is None else t0 + tc) + 1e-15
                                       for t0, _, _, tc, _ in segments], side="right").tolist()
    xs, ys, zs = ss = _stationary(p)
    # a column per segment: t0, its offset from s* in the upper chart, and 1.0 for Y
    table = np.array([(t0, s[0] - xs, s[1] - ys, s[2] - zs, 0.0) if field == "X"
                      else (t0, -s[1] - xs, -s[0] - ys, -s[2] - zs, 1.0)
                      for t0, field, s, _, _ in segments]).T
    k = lo = hi = 0
    for i, (_, field, _, _, event) in enumerate(segments):
        while lo < ends[i]:
            if lo == hi:  # the next block: this segment's samples from lo, and later ones
                k, hi = lo, min(lo + _BLOCK, ends[-1])
                counts = np.diff(np.clip(ends, k, hi), prepend=k)  # each segment's samples in it
                col = np.repeat(table, counts, axis=1)  # each sample's segment column
                with np.errstate(over="ignore", invalid="ignore"):
                    x, y, z = _state(_phi_rows(p, sample_ts[k:hi] - col[0], np.exp, np.sin,
                                               np.cos), ss, col[1:4])
                states = np.where(col[4] != 0.0, (-y, -x, -z), (x, y, z))
                if k == 0:  # the t = 0 sample is the start itself, not the closed form at 0
                    states[:, 0] = s0
                if not np.isfinite(states).all():
                    j = bisect.bisect_right(
                        ends, k + int(np.flatnonzero(~np.isfinite(states).all(axis=0))[0]))
                    t0, field, _, tc, _ = segments[j]
                    raise _overflow(field, t0, tc if tc is not None
                                    else float(sample_ts[ends[j] - 1] - t0))
                block = np.column_stack((sample_ts[k:hi], *states))
                del col, x, y, z, states  # a paused generator holds its locals
            top = min(ends[i], hi)
            yield block, lo - k, top - k, field
            lo = top
        if event is not None:
            yield event
    if error is not None:
        raise error


def _segments(p: SystemParams, s, field: str, t_max: float):
    """Pass 1 of ``simulate``: the flight segments from the start s on
    field, and the TwofoldError that ended the walk, else None.

    A segment is [t0, field, s, tc, event]: a flight from the float tuple s
    at time t0 that meets the plane at t0 + tc, or runs to t_max where tc
    is None; event is its ``Event``, else None.  The crossing state is
    formed in floats from NumPy's exp, sin and cos of tc by ``_phi_from``
    and ``_state``, the flow call's IEEE operations in its order.  The error
    is returned, not raised, so that pass 2 can raise an overflow in an
    earlier segment's samples first; a segment whose crossing raised is
    kept, as its samples come first.
    """
    import numpy as np

    xs, ys, zs = ss = _stationary(p)
    s = tuple(map(float, s))  # also from an array, so that every sum is of floats
    segments = []
    t0 = 0.0
    try:
        while t0 < t_max:
            # first_crossing and the flow work in the upper chart: a Y segment passes S s
            up = s if field == "X" else (-s[1], -s[0], -s[2])
            try:
                tc, _ = first_crossing(p, up, t_max - t0)
            except NoReturnError:
                tc = None  # orbit stays in its half-space for the rest of the run
            segment = [t0, field, s, tc, None]
            segments.append(segment)
            if tc is None:
                break
            # NumPy's exp, sin and cos, as flow_X calls them (math.exp rounds
            # some inputs otherwise), as floats, whose sums raise no warning
            with np.errstate(over="ignore"):
                e_at, e_ct = float(np.exp(p.A * tc)), float(np.exp(p.C * tc))
            x, y, z = _state(_phi_from(p, e_at, e_ct, float(np.sin(tc)), float(np.cos(tc))),
                             ss, (up[0] - xs, up[1] - ys, up[2] - zs))
            if field == "Y":
                x, y, z = -y, -x, -z
            if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
                raise _overflow(field, t0, tc)
            region = classify_point((x, y))
            if region is not RegionKind.CROSSING:
                segment[4] = Event(t0 + tc, x, y, 0.0, field, "terminal", region, None)
                break
            det = x / y if field == "X" else y / x  # Yf / Xf into Y, Xf / Yf into X
            if not math.isfinite(det):  # the incoming Lie derivative is near zero
                raise GrazingCrossingError(f"the saltation determinant at {(x, y)!r} "
                                           "leaves the float range")
            segment[4] = Event(t0 + tc, x, y, 0.0, field, "crossing", region, det)
            field = "Y" if field == "X" else "X"
            s = (x, y, 0.0)
            t0 = t0 + tc
    except TwofoldError as exc:
        return segments, exc
    return segments, None


def _overflow(field: str, t0: float, last: float) -> DivergenceError:
    """The error of a segment from t0 whose states overflow by its last
    flown time t0 + last."""
    return DivergenceError(f"the {field} flow overflows floating point by t={t0 + last!r}")
