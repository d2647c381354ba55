"""Switching-plane geometry: region classification, tangency lines, fold
visibility, and the convex-combination sliding field.

On z = 0 the Lie derivatives of the two fields reduce to Xf(x, y) = y and
Yf(x, y) = x, so the sign chart of (x, y) decides everything: both positive
or both negative is a crossing point, mixed signs give sliding or escaping,
and the coordinate axes are the tangency lines.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .system import REL_TOL, SystemParams, eval_X, eval_Y

__all__ = [
    "RegionKind",
    "SigmaClass",
    "FoldKind",
    "FoldInfo",
    "classify_point",
    "tangency_lines",
    "fold_info",
    "sliding_field",
    "tangency_tolerance",
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


def tangency_tolerance(q) -> float:
    """Scale-aware cutoff below which a Lie derivative counts as zero."""
    q = np.asarray(q, dtype=float)
    return 1e-10 * (1.0 + float(np.hypot(q[0], q[1])))


def classify_point(p: SystemParams, q) -> SigmaClass:
    """Classify a point of the switching plane by its two Lie derivatives."""
    x, y = float(q[0]), float(q[1])
    lie_x, lie_y = y, x  # third components of X and Y at z = 0
    tol = tangency_tolerance(q)
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


def tangency_lines(p: SystemParams):
    """Coefficient triples (a, b, c) of a x + b y + c = 0 for L_X and L_Y.

    In canonical coordinates L_X is {y = 0} and L_Y is {x = 0}; they are
    concurrent at the origin.
    """
    line_x = (0.0, 1.0, 0.0)
    line_y = (1.0, 0.0, 0.0)
    return line_x, line_y


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
    tol = tangency_tolerance(q)
    if abs(y) < tol:  # on L_X
        return FoldInfo("X", *_fold_X(p, x, y, tol))
    if abs(x) < tol:  # on L_Y, where S q = (-y, -x) lies on L_X
        kind, second, third = _fold_X(p, -y, -x, tol)
        return FoldInfo("Y", kind, -second, -third)
    raise DomainError(f"point {q!r} lies on neither tangency line")


def _fold_X(p: SystemParams, x: float, y: float, tol: float):
    """(kind, X(Xf), X(X(Xf))) at the point (x, y, 0) of L_X."""
    vx = eval_X(p, np.array([x, y, 0.0]))
    second = 2.0 * p.C * vx[2] + vx[1]
    third = (3.0 * p.C ** 2 - 1.0) * y + 2.0 * p.C * p.Lambda
    if abs(second) < tol:
        kind = FoldKind.CUSP
    elif second > 0:
        kind = FoldKind.VISIBLE
    else:
        kind = FoldKind.INVISIBLE
    return kind, second, third


def sliding_field(p: SystemParams, q) -> np.ndarray:
    """Convex-combination vector field on the sliding/escaping set.

    Returns the (x, y) components of (Yf X - Xf Y) / (Yf - Xf) at (x, y, 0);
    the z component vanishes identically and is asserted.
    """
    cls = classify_point(p, q)
    if cls.kind not in (RegionKind.SLIDING, RegionKind.ESCAPING):
        raise DomainError(f"sliding field undefined at {cls.kind.value} point {q!r}")
    s3 = np.array([float(q[0]), float(q[1]), 0.0])
    vx, vy = eval_X(p, s3), eval_Y(p, s3)
    zs = (cls.lie_y * vx - cls.lie_x * vy) / (cls.lie_y - cls.lie_x)
    assert abs(zs[2]) <= REL_TOL * (1.0 + np.max(np.abs(zs)))
    return zs[:2]
