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
from typing import TYPE_CHECKING

from .errors import DomainError

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np


def __getattr__(name: str):
    """INVOLUTION, the matrix of S(x, y, z) = (-y, -x, -z), built on first
    access and kept as a module global: importing this module loads no NumPy."""
    if name != "INVOLUTION":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import numpy as np

    value = globals()[name] = np.array([[0.0, -1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
    return value


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


def _record(cls, fields: dict):
    """An instance of the frozen dataclass cls whose __dict__ is fields, a
    new dict from every field name, in field order, to its value: set in one
    step instead of one object.__setattr__ per field in the generated
    __init__.  The class declaration is untouched, so ==, hash, repr,
    FrozenInstanceError and dataclasses.replace behave as for a constructed
    record.  fields is a dict display, not keywords, whose collection into
    a dict costs more than the display."""
    obj = object.__new__(cls)
    object.__setattr__(obj, "__dict__", fields)
    return obj


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
    if not (math.isfinite(A) and math.isfinite(C) and math.isfinite(H) and math.isfinite(Lambda)):
        raise DomainError(f"parameters must be finite, got A={A!r}, C={C!r}, H={H!r}, "
                         f"Lambda={Lambda!r}")
    if not ((A - C) * (A - C) + 1.0 < math.inf and C * C + 1.0 < math.inf):
        raise DomainError(f"(A - C)^2 + 1 and C^2 + 1 must stay in the float range, got "
                          f"A={A!r}, C={C!r}")
    if C == 0.0:
        raise DomainError("C must be nonzero: the dynamics needs a rotation block")
    if Lambda == 0.0:
        raise DomainError("Lambda must be nonzero: folds degenerate to cusps")
    return _record(SystemParams, {"A": A, "C": C, "H": H, "Lambda": Lambda})


def resonant_system(C: float, H: float, Lambda: float) -> SystemParams:
    """Build parameters with A pinned to -2C exactly (resonant family)."""
    return build_system(-2.0 * float(C), C, H, Lambda)


def _field(p: SystemParams, x, y, z) -> tuple:
    """The upper field's components at (x, y, z), the kernel of eval_X and
    eval_Y; its int literals keep it exact on Fractions (verify_darboux)."""
    return (p.A * x - p.H * (((p.A - p.C) ** 2 + 1) * z - p.Lambda),
            p.Lambda - (1 + p.C ** 2) * z,
            2 * p.C * z + y)


def _plane_field(p: SystemParams, x, y) -> tuple:
    """X(x, y, 0) = (A x + H Lambda, Lambda, y), the z = 0 restriction of
    ``_field``: the same bits for Lambda != 0, but that a y of -0.0 stays
    -0.0 here where ``_field``'s 2 C 0 + y can give +0.0."""
    return p.A * x + p.H * p.Lambda, p.Lambda, y


def _finite_point(s) -> tuple:
    """s = (x, y, z) as Python floats, by scalar tests: a str, any other count
    of coordinates, or one that is not a finite number is a DomainError, where
    the field would read NaN or, in NumPy scalars, warn on inf * 0."""
    try:
        x, y, z = map(float, () if isinstance(s, (str, bytes)) else s)
    except (TypeError, ValueError):  # not three numbers: no finite point either
        x = y = z = math.nan
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        raise DomainError(f"the state must be a finite point of R^3, got {s!r}")
    return x, y, z


def eval_X(p: SystemParams, s) -> np.ndarray:
    """Upper vector field at a point s = (x, y, z); a point that is not
    finite is a DomainError."""
    import numpy as np

    return np.array(_field(p, *_finite_point(s)))


def eval_Y(p: SystemParams, s) -> np.ndarray:
    """Lower vector field at a point s = (x, y, z): Y(s) = S X(S s); a point
    that is not finite is a DomainError."""
    import numpy as np

    x, y, z = _finite_point(s)
    u, v, w = _field(p, -y, -x, -z)
    return np.array([-v, -u, -w])


def apply_involution(s) -> np.ndarray:
    """Apply S(x, y, z) = (-y, -x, -z)."""
    import numpy as np

    x, y, z = np.asarray(s, dtype=float)
    return np.array([-y, -x, -z])


def jacobian_X(p: SystemParams) -> np.ndarray:
    """Linear part DX of the upper field."""
    import numpy as np

    return np.array([
        [p.A, 0.0, -p.H * ((p.A - p.C) ** 2 + 1.0)],
        [0.0, 0.0, -(1.0 + p.C ** 2)],
        [0.0, 1.0, 2.0 * p.C],
    ])


def _conjugate(m: np.ndarray) -> np.ndarray:
    """S m S for a 3x3 matrix or a stack of them, C-contiguous: m with rows and
    columns 0 and 1 swapped (S's sign flips cancel), each entry's bits kept."""
    import numpy as np

    return np.take(np.take(m, [1, 0, 2], axis=-2), [1, 0, 2], axis=-1)


def jacobian_Y(p: SystemParams) -> np.ndarray:
    """Linear part DY = S DX S of the lower field."""
    return _conjugate(jacobian_X(p))

