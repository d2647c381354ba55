"""Switching-plane geometry: region classification, fold visibility, and the
convex-combination sliding field.

On z = 0 the Lie derivatives of the two fields reduce to Xf(x, y) = y and
Yf(x, y) = x, so the sign chart of (x, y) decides everything: both positive
or both negative is a crossing point, mixed signs give sliding or escaping,
and the coordinate axes are the tangency lines.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import DomainError
from .system import SystemParams, _plane_field


class RegionKind(enum.Enum):
    CROSSING = "crossing"
    SLIDING = "sliding"
    ESCAPING = "escaping"
    TANGENCY_X = "tangency_x"
    TANGENCY_Y = "tangency_y"
    DOUBLE_TANGENCY = "double_tangency"


class FoldKind(enum.Enum):
    VISIBLE = "visible"
    INVISIBLE = "invisible"


@dataclass(frozen=True)
class FoldInfo:
    field: str  # "X" or "Y"
    kind: FoldKind
    second_lie: float
    third_lie: float


def _finite_plane_point(q) -> tuple:
    """q = (x, y) as Python floats; a coordinate that is not finite is a
    DomainError."""
    x, y = float(q[0]), float(q[1])
    if not (math.isfinite(x) and math.isfinite(y)):
        raise DomainError(f"the plane point must be finite, got ({x!r}, {y!r})")
    return x, y


def classify_point(q) -> RegionKind:
    """The region of a point of the switching plane, decided by the exact
    signs of its two Lie derivatives Xf = y and Yf = x: zero, and only zero,
    is a tangency.  No field parameter enters, so none is passed."""
    x, y = _finite_plane_point(q)
    if y == 0.0:
        return RegionKind.DOUBLE_TANGENCY if x == 0.0 else RegionKind.TANGENCY_X
    if x == 0.0:
        return RegionKind.TANGENCY_Y
    if (y > 0.0) is (x > 0.0):  # signs, not a product, which may underflow
        return RegionKind.CROSSING
    return RegionKind.SLIDING if y < 0.0 else RegionKind.ESCAPING


def fold_info(p: SystemParams, q) -> FoldInfo:
    """Fold classification at a tangency point.

    The second Lie derivative of X is affine on the plane, X(Xf) = 2C Xf + X_2,
    and reduces to the constant Lambda on L_X, where X(X(Xf)) is 2C Lambda.
    Visibility conventions differ between the two fields because they act on
    opposite half-spaces: an X fold is visible when X(Xf) > 0, a Y fold when
    Y(Yf) < 0.  Since Y = S X S and Yf = -Xf o S, a Y fold at q is the X fold
    at S q with both Lie derivatives negated and the same kind.  build_system
    rejects Lambda = 0, so every fold is visible or invisible.
    """
    x, y = _finite_plane_point(q)
    if y == 0.0:  # on L_X
        field, sign = "X", 1.0
    elif x == 0.0:  # on L_Y, where S q = (-y, -x) lies on L_X
        field, sign = "Y", -1.0
    else:
        raise DomainError(f"point {q!r} lies on neither tangency line")
    kind = FoldKind.VISIBLE if p.Lambda > 0.0 else FoldKind.INVISIBLE
    return FoldInfo(field, kind, sign * p.Lambda, sign * (2.0 * p.C * p.Lambda))


def sliding_field(p: SystemParams, q) -> tuple:
    """Convex-combination vector field on the sliding/escaping set.

    Returns the (x, y) components of (Yf X - Xf Y) / (Yf - Xf) at (x, y, 0)
    as a pair of floats, formed as w X + (1 - w) Y with the float weights
    w = Yf / (Yf - Xf) and 1 - w = -Xf / (Yf - Xf), both in [0, 1] since Xf
    and Yf have opposite signs there: no product of two field-sized numbers
    is formed.  The z component, w Xf + (1 - w) Yf, is zero by algebra and
    is not formed.  Fields that leave the float range at q are a DomainError.
    """
    kind = classify_point(q)  # the point's one finite check
    if kind not in (RegionKind.SLIDING, RegionKind.ESCAPING):
        raise DomainError(f"sliding field undefined at {kind.value} point {q!r}")
    x, y = float(q[0]), float(q[1])  # Yf = x, Xf = y
    h = 0.5 if math.isinf(x - y) else 1.0  # then |x|, |y| > 2^969: halving is exact
    d = h * x - h * y  # nonzero, as the signs are opposite
    w_x, w_y = h * x / d, -h * y / d
    a, b, _ = _plane_field(p, x, y)
    u, v, _ = _plane_field(p, -y, -x)  # Y(x, y, 0) = S X(-y, -x, 0) = (-v, -u, x)
    sx, sy = w_x * a - w_y * v, w_x * b - w_y * u
    if not (math.isfinite(sx) and math.isfinite(sy)):
        raise DomainError(f"the fields at {q!r} leave the float range")
    return sx, sy
