"""The equivariant canonical family of 3D piecewise-linear vector fields.

The phase space is split by the plane z = 0 into an upper region governed by
the affine field X and a lower region governed by Y.  The family is pinned by
four reals: A is the real eigenvalue of DX, C the real part of its complex
eigenvalue pair C ± i (frequency normalized to 1), H the slope parameter of
the focal line x = H y on the switching plane, and Lambda the second Lie
derivative at the fold line of X (fold visibility).  The lower field is the
image of the upper one under the involution S(x, y, z) = (-y, -x, -z),
Y(s) = S X(S s), so the library keeps one chart, the upper one: every Y
quantity is the S-conjugate of an X-chart kernel.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "SystemParams",
    "build_system",
    "resonant_system",
    "eval_X",
    "eval_Y",
    "apply_involution",
    "jacobian_X",
    "jacobian_Y",
    "INVOLUTION",
]

# Validation tolerance; every quantity in the intended regime is O(1)-O(1e2).
REL_TOL = 1e-12

# Matrix of S(x, y, z) = (-y, -x, -z).
INVOLUTION = np.array([
    [0.0, -1.0, 0.0],
    [-1.0, 0.0, 0.0],
    [0.0, 0.0, -1.0],
])


@dataclass(frozen=True)
class SystemParams:
    """Parameters of one member of the family, in the upper-field chart.

    They fix both fields: the lower field's quantities are the S-conjugates
    of the upper ones.
    """

    A: float
    C: float
    H: float
    Lambda: float

    @property
    def resonant(self) -> bool:
        """True iff A + 2C == 0 exactly, the regime in which the two fields
        share a polynomial first integral."""
        return self.A + 2.0 * self.C == 0.0


def build_system(A: float, C: float, H: float, Lambda: float) -> SystemParams:
    """Validate and build parameters for the canonical family.

    Raises
    ------
    DomainError
        If a parameter is NaN or infinite, (A - C)^2 + 1 or C^2 + 1 (the
        field's z coefficients) leaves the float range, C == 0 (no rotation)
        or Lambda == 0 (degenerate tangency).
    """
    A, C, H, Lambda = float(A), float(C), float(H), float(Lambda)
    if not all(map(math.isfinite, (A, C, H, Lambda))):
        raise DomainError(f"parameters must be finite, got A={A!r}, C={C!r}, H={H!r}, "
                         f"Lambda={Lambda!r}")
    if not ((A - C) * (A - C) + 1.0 < math.inf and C * C + 1.0 < math.inf):
        raise DomainError(f"(A - C)^2 + 1 and C^2 + 1 must stay in the float range, got "
                          f"A={A!r}, C={C!r}")
    if C == 0.0:
        raise DomainError("C must be nonzero: the dynamics needs a rotation block")
    if Lambda == 0.0:
        raise DomainError("Lambda must be nonzero: folds degenerate to cusps")
    return SystemParams(A, C, H, Lambda)


def resonant_system(C: float, H: float, Lambda: float) -> SystemParams:
    """Build parameters with A pinned to -2C exactly (resonant family)."""
    return build_system(-2.0 * float(C), C, H, Lambda)


def _field(p: SystemParams, x, y, z) -> tuple:
    """The upper field's components at (x, y, z), the kernel of eval_X and eval_Y."""
    return (p.A * x - p.H * (((p.A - p.C) ** 2 + 1.0) * z - p.Lambda),
            p.Lambda - (1.0 + p.C ** 2) * z,
            2.0 * p.C * z + y)


def _plane_field(p: SystemParams, x, y) -> tuple:
    """X(x, y, 0) = (A x + H Lambda, Lambda, y), the z = 0 restriction of
    ``_field``: the same bits for Lambda != 0, but that a y of -0.0 stays
    -0.0 here where ``_field``'s 2 C 0 + y can give +0.0."""
    return p.A * x + p.H * p.Lambda, p.Lambda, y


def _finite_point(s) -> tuple:
    """s = (x, y, z) as Python floats; a coordinate that is not finite is a
    DomainError, where the field would read NaN or, in NumPy scalars, warn
    on inf * 0."""
    x, y, z = map(float, s)
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        raise DomainError(f"the field needs a finite point, got {(x, y, z)!r}")
    return x, y, z


def eval_X(p: SystemParams, s) -> np.ndarray:
    """Upper vector field at a point s = (x, y, z); a point that is not
    finite is a DomainError."""
    return np.array(_field(p, *_finite_point(s)))


def eval_Y(p: SystemParams, s) -> np.ndarray:
    """Lower vector field at a point s = (x, y, z): Y(s) = S X(S s); a point
    that is not finite is a DomainError."""
    x, y, z = _finite_point(s)
    u, v, w = _field(p, -y, -x, -z)
    return np.array([-v, -u, -w])


def apply_involution(s) -> np.ndarray:
    """Apply S(x, y, z) = (-y, -x, -z)."""
    x, y, z = np.asarray(s, dtype=float)
    return np.array([-y, -x, -z])


def jacobian_X(p: SystemParams) -> np.ndarray:
    """Linear part DX of the upper field."""
    return np.array([
        [p.A, 0.0, -p.H * ((p.A - p.C) ** 2 + 1.0)],
        [0.0, 0.0, -(1.0 + p.C ** 2)],
        [0.0, 1.0, 2.0 * p.C],
    ])


def jacobian_Y(p: SystemParams) -> np.ndarray:
    """Linear part DY = S DX S of the lower field."""
    return INVOLUTION @ jacobian_X(p) @ INVOLUTION

