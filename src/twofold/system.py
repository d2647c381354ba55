"""The equivariant canonical family of 3D piecewise-linear vector fields.

The phase space is split by the plane z = 0 into an upper region governed by
the affine field X and a lower region governed by Y.  The family is pinned by
four reals: A is the real eigenvalue of DX, C the real part of its complex
eigenvalue pair C ± i (frequency normalized to 1), H the slope parameter of
the focal line x = H y on the switching plane, and Lambda the second Lie
derivative at the fold line of X (fold visibility).  The lower field is the
image of the upper one under the involution S(x, y, z) = (-y, -x, -z), which
forces the mirror parameters (a, c, h, lambda) = (A, C, H, -Lambda).
"""
from __future__ import annotations

import json
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
    "REL_TOL",
    "params_to_dict",
    "params_from_dict",
    "params_to_json",
    "params_from_json",
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
    """Parameters of one member of the family, upper-field chart.

    The mirror parameters of the lower field are exposed as read-only
    properties.  ``resonant`` is True iff A + 2C == 0 exactly, the regime in
    which the two fields share a polynomial first integral.
    """

    A: float
    C: float
    H: float
    Lambda: float
    resonant: bool = False

    @property
    def a(self) -> float:
        return self.A

    @property
    def c(self) -> float:
        return self.C

    @property
    def h(self) -> float:
        return self.H

    @property
    def lam(self) -> float:
        return -self.Lambda


def build_system(A: float, C: float, H: float, Lambda: float) -> SystemParams:
    """Validate and build parameters for the canonical family.

    Raises
    ------
    DomainError
        If a parameter is NaN or infinite, C == 0 (no rotation) or
        Lambda == 0 (degenerate tangency).
    """
    A, C, H, Lambda = float(A), float(C), float(H), float(Lambda)
    if not all(map(math.isfinite, (A, C, H, Lambda))):
        raise DomainError(f"parameters must be finite, got A={A!r}, C={C!r}, H={H!r}, "
                         f"Lambda={Lambda!r}")
    if C == 0.0:
        raise DomainError("C must be nonzero: the dynamics needs a rotation block")
    if Lambda == 0.0:
        raise DomainError("Lambda must be nonzero: folds degenerate to cusps")
    return SystemParams(A, C, H, Lambda, resonant=(A + 2.0 * C == 0.0))


def resonant_system(C: float, H: float, Lambda: float) -> SystemParams:
    """Build parameters with A pinned to -2C exactly (resonant family)."""
    return build_system(-2.0 * float(C), C, H, Lambda)


def eval_X(p: SystemParams, s) -> np.ndarray:
    """Upper vector field at a point s = (x, y, z)."""
    x, y, z = np.asarray(s, dtype=float)
    return np.array([
        p.A * x - p.H * (((p.A - p.C) ** 2 + 1.0) * z - p.Lambda),
        p.Lambda - (1.0 + p.C ** 2) * z,
        2.0 * p.C * z + y,
    ])


def eval_Y(p: SystemParams, s) -> np.ndarray:
    """Lower vector field at a point s = (x, y, z), in mirror parameters."""
    x, y, z = np.asarray(s, dtype=float)
    a, c, h, lam = p.a, p.c, p.h, p.lam
    return np.array([
        lam - (1.0 + c ** 2) * z,
        a * y - h * (((a - c) ** 2 + 1.0) * z - lam),
        2.0 * c * z + x,
    ])


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
    """Linear part DY of the lower field."""
    a, c, h = p.a, p.c, p.h
    return np.array([
        [0.0, 0.0, -(1.0 + c ** 2)],
        [0.0, a, -h * ((a - c) ** 2 + 1.0)],
        [1.0, 0.0, 2.0 * c],
    ])


def params_to_dict(p: SystemParams) -> dict:
    return {"A": p.A, "C": p.C, "H": p.H, "Lambda": p.Lambda}


def params_from_dict(d: dict) -> SystemParams:
    return build_system(d["A"], d["C"], d["H"], d["Lambda"])


def params_to_json(p: SystemParams) -> str:
    return json.dumps(params_to_dict(p))


def params_from_json(text: str) -> SystemParams:
    return params_from_dict(json.loads(text))
