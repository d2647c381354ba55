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

__all__ = [
    "RegionKind",
    "SigmaClass",
    "FoldKind",
    "FoldInfo",
    "classify_point",
    "fold_info",
    "sliding_field",
]


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
    CUSP = "cusp"


@dataclass(frozen=True)
class SigmaClass:
    kind: RegionKind
    lie_x: float
    lie_y: float


@dataclass(frozen=True)
class FoldInfo:
    field: str  # "X" or "Y"
    kind: FoldKind
    second_lie: float
    third_lie: float


def _tangency_cutoff(x: float, y: float) -> float:
    """Scale-aware cutoff 1e-10 (1 + |(x, y)|) below which a Lie derivative at
    (x, y, 0) counts as zero: the one home of the cutoff, shared by the
    crossing and saltation checks.  A point whose cutoff is not finite (x or
    y is not, or |(x, y)| overflows) is a DomainError."""
    tol = 1e-10 * (1.0 + math.hypot(x, y))
    if not tol < math.inf:  # a NaN fails too
        raise DomainError(f"the plane point must be finite, got ({x!r}, {y!r})")
    return tol


def classify_point(p: SystemParams, q) -> SigmaClass:
    """Classify a point of the switching plane by its two Lie derivatives."""
    x, y = float(q[0]), float(q[1])
    lie_x, lie_y = y, x  # third components of X and Y at z = 0
    tol = _tangency_cutoff(x, y)
    x_tangent = abs(lie_x) < tol
    y_tangent = abs(lie_y) < tol
    if x_tangent and y_tangent:
        kind = RegionKind.DOUBLE_TANGENCY
    elif x_tangent:
        kind = RegionKind.TANGENCY_X
    elif y_tangent:
        kind = RegionKind.TANGENCY_Y
    elif lie_x * lie_y > 0:
        kind = RegionKind.CROSSING
    elif lie_x < 0:
        kind = RegionKind.SLIDING
    else:
        kind = RegionKind.ESCAPING
    return SigmaClass(kind, lie_x, lie_y)


def fold_info(p: SystemParams, q) -> FoldInfo:
    """Fold classification at a tangency point.

    The second Lie derivative of X is affine on the plane, X(Xf) = 2C Xf + X_2,
    and reduces to the constant Lambda on L_X.  Visibility conventions differ
    between the two fields because they act on opposite half-spaces: an X
    fold is visible when X(Xf) > 0, a Y fold when Y(Yf) < 0.  Since
    Y = S X S and Yf = -Xf o S, a Y fold at q is the X fold at S q with both
    Lie derivatives negated and the same kind.
    """
    x, y = float(q[0]), float(q[1])
    tol = _tangency_cutoff(x, y)
    if abs(y) < tol:  # on L_X
        return FoldInfo("X", *_fold_X(p, x, y, tol))
    if abs(x) < tol:  # on L_Y, where S q = (-y, -x) lies on L_X
        kind, second, third = _fold_X(p, -y, -x, tol)
        return FoldInfo("Y", kind, -second, -third)
    raise DomainError(f"point {q!r} lies on neither tangency line")


def _fold_X(p: SystemParams, x: float, y: float, tol: float):
    """(kind, X(Xf), X(X(Xf))) at the point (x, y, 0) of L_X."""
    _, fy, fz = _plane_field(p, x, y)
    second = 2.0 * p.C * fz + fy
    third = (3.0 * p.C ** 2 - 1.0) * y + 2.0 * p.C * p.Lambda
    if abs(second) < tol:
        kind = FoldKind.CUSP
    elif second > 0:
        kind = FoldKind.VISIBLE
    else:
        kind = FoldKind.INVISIBLE
    return kind, second, third


def sliding_field(p: SystemParams, q) -> tuple:
    """Convex-combination vector field on the sliding/escaping set.

    Returns the (x, y) components of (Yf X - Xf Y) / (Yf - Xf) at (x, y, 0)
    as a pair of floats, formed as w X + (1 - w) Y with the float weights
    w = Yf / (Yf - Xf) and 1 - w = -Xf / (Yf - Xf), both in (0, 1) since Xf
    and Yf have opposite signs there: no product of two field-sized numbers
    is formed.  The z component, w Xf + (1 - w) Yf, is zero by algebra and
    is not formed.  Fields that leave the float range at q are a DomainError.
    """
    cls = classify_point(p, q)
    if cls.kind not in (RegionKind.SLIDING, RegionKind.ESCAPING):
        raise DomainError(f"sliding field undefined at {cls.kind.value} point {q!r}")
    x, y = float(q[0]), float(q[1])
    # halves, so Yf - Xf stays finite; |Xf|, |Yf| >= the tangency cutoff, so
    # halving is exact and the weights are those of the whole numbers
    half = 0.5 * cls.lie_y - 0.5 * cls.lie_x
    w_x, w_y = 0.5 * cls.lie_y / half, -0.5 * cls.lie_x / half
    a, b, _ = _plane_field(p, x, y)
    u, v, _ = _plane_field(p, -y, -x)  # Y(x, y, 0) = S X(-y, -x, 0) = (-v, -u, x)
    sx, sy = w_x * a - w_y * v, w_x * b - w_y * u
    if not (math.isfinite(sx) and math.isfinite(sy)):
        raise DomainError(f"the fields at {q!r} leave the float range")
    return sx, sy
