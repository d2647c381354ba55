"""Darboux polynomials, the first integrals of both pieces, and the reduced
conic on the switching plane.

Each linear piece has two Darboux polynomials: a quadratic whose zero set is
the focal plane's companion cylinder and an affine one whose zero set is the
invariant focal plane itself (W^X: x = H(Az + y), W^Y: y = H(Az + x)).  Their
Darboux product is a first integral; in the resonant regime A = -2C the
exponent collapses to 1 and the integral is polynomial.  Matching the
integral values at a point (x, y, 0) and at its involution image (-y, -x, 0)
factors through a single conic, whose positive branch carries every
symmetric-cycle crossing at large amplitude.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import BranchPointError, DomainError
from .system import INVOLUTION, REL_TOL, SystemParams, eval_X, eval_Y

__all__ = [
    "DarbouxPair",
    "DarbouxReport",
    "eval_P_X",
    "eval_P_Y",
    "verify_darboux",
    "ConicKind",
    "ConicGamma1",
    "gamma1_conic",
    "gamma1_discriminant",
    "gamma1_branch_x",
    "branch_min_y",
]


@dataclass(frozen=True)
class DarbouxPair:
    """Darboux polynomials of both fields with their cofactors."""

    params: SystemParams

    # upper field: X(f1) = 2C f1, X(f2) = A f2
    def f1(self, s) -> float:
        x, y, z = np.asarray(s, dtype=float)
        C, L = self.params.C, self.params.Lambda
        c2 = C * C + 1.0
        return (y * y + 2.0 * C * (z + L / c2) * y + c2 * z * z
                + 2.0 * L * (C * C - 1.0) * z / c2 + L * L / c2)

    def f2(self, s) -> float:
        x, y, z = np.asarray(s, dtype=float)
        return x - self.params.H * (self.params.A * z + y)

    # lower field, Y(s) = S X(S s): F1 = f1 o S and F2 = -f2 o S, with
    # Y(F1) = 2C F1 and Y(F2) = A F2
    def F1(self, s) -> float:
        x, y, z = np.asarray(s, dtype=float)
        return self.f1((-y, -x, -z))

    def F2(self, s) -> float:
        # z = 0 trace is the focal line y = H x
        x, y, z = np.asarray(s, dtype=float)
        return -self.f2((-y, -x, -z))

    @property
    def cofactor_f1(self) -> float:
        return 2.0 * self.params.C

    @property
    def cofactor_f2(self) -> float:
        return self.params.A

    cofactor_F1 = cofactor_f1
    cofactor_F2 = cofactor_f2

    def gradient_f1(self, s) -> np.ndarray:
        x, y, z = np.asarray(s, dtype=float)
        C, L = self.params.C, self.params.Lambda
        c2 = C * C + 1.0
        return np.array([
            0.0,
            2.0 * y + 2.0 * C * (z + L / c2),
            2.0 * C * y + 2.0 * c2 * z + 2.0 * L * (C * C - 1.0) / c2,
        ])

    def gradient_f2(self, s) -> np.ndarray:
        H, A = self.params.H, self.params.A
        return np.array([1.0, -H, -H * A])

    # S is symmetric, so the gradient of g o S at s is S grad g(S s)
    def gradient_F1(self, s) -> np.ndarray:
        x, y, z = np.asarray(s, dtype=float)
        return INVOLUTION @ self.gradient_f1((-y, -x, -z))

    def gradient_F2(self, s) -> np.ndarray:
        x, y, z = np.asarray(s, dtype=float)
        return -(INVOLUTION @ self.gradient_f2((-y, -x, -z)))


def _power_exponent(p: SystemParams) -> float:
    return -2.0 * p.C / p.A


def _guarded_power(base: float, exponent: float) -> float:
    if base > 0.0:
        return base ** exponent
    rounded = round(exponent)
    if abs(exponent - rounded) <= REL_TOL:
        return base ** int(rounded)
    raise DomainError(
        f"first integral undefined: base {base!r} <= 0 with non-integer exponent {exponent!r}"
    )


def eval_P_X(p: SystemParams, s) -> float:
    """First integral of the upper field, f1 * f2^(-2C/A).

    In the resonant family the exponent is exactly 1 and the product is a
    polynomial; otherwise the power is guarded and raises on a nonpositive
    base with non-integer exponent.
    """
    pair = DarbouxPair(p)
    if p.resonant:
        return pair.f1(s) * pair.f2(s)
    return pair.f1(s) * _guarded_power(pair.f2(s), _power_exponent(p))


def eval_P_Y(p: SystemParams, s) -> float:
    """First integral of the lower field, F1 * F2^(-2C/A)."""
    pair = DarbouxPair(p)
    if p.resonant:
        return pair.F1(s) * pair.F2(s)
    return pair.F1(s) * _guarded_power(pair.F2(s), _power_exponent(p))


@dataclass(frozen=True)
class DarbouxReport:
    max_residual_f1: float
    max_residual_f2: float
    max_residual_F1: float
    max_residual_F2: float
    cofactor_combination: float
    samples: int


_DARBOUX_SAMPLES, _DARBOUX_SEED, _DARBOUX_BOX = 1000, 0, 3.0


def verify_darboux(p: SystemParams) -> DarbouxReport:
    """Check the Darboux property of all four polynomials on a random sample.

    For each polynomial g with cofactor k the residual is
    |grad g . field - k g|, evaluated with the analytic gradients at 1000
    seeded points of the box [-3, 3]^3.  Also reports the cofactor
    combination 1*(2C) + (-2C/A)*A, which vanishes identically and makes the
    Darboux product a first integral.
    """
    pair = DarbouxPair(p)
    rng = np.random.default_rng(_DARBOUX_SEED)
    worst = [0.0, 0.0, 0.0, 0.0]
    for _ in range(_DARBOUX_SAMPLES):
        s = rng.uniform(-_DARBOUX_BOX, _DARBOUX_BOX, 3)
        vx, vy = eval_X(p, s), eval_Y(p, s)
        worst[0] = max(worst[0], abs(pair.gradient_f1(s) @ vx - pair.cofactor_f1 * pair.f1(s)))
        worst[1] = max(worst[1], abs(pair.gradient_f2(s) @ vx - pair.cofactor_f2 * pair.f2(s)))
        worst[2] = max(worst[2], abs(pair.gradient_F1(s) @ vy - pair.cofactor_F1 * pair.F1(s)))
        worst[3] = max(worst[3], abs(pair.gradient_F2(s) @ vy - pair.cofactor_F2 * pair.F2(s)))
    combo = 1.0 * (2.0 * p.C) + _power_exponent(p) * p.A
    return DarbouxReport(*worst, cofactor_combination=combo, samples=_DARBOUX_SAMPLES)


class ConicKind(enum.Enum):
    LINE_PAIR = "line_pair"
    PARABOLA = "parabola"
    HYPERBOLA = "hyperbola"
    ELLIPSE = "ellipse"


def gamma1_discriminant(H):
    """Discriminant (1 - H)(3H + 1) of the reduced conic's quadratic part."""
    return (1.0 - H) * (3.0 * H + 1.0)


@dataclass(frozen=True)
class ConicGamma1:
    """The reduced conic on the switching plane, as a quadratic form.

    coefficients = (axx, axy, ayy, bx, by, c) for
    axx x^2 + axy x y + ayy y^2 + bx x + by y + c = 0.
    """

    coefficients: tuple
    discriminant: float
    kind: ConicKind

    def evaluate(self, x, y):
        return _conic_value(self.coefficients, x, y)

    def to_json_dict(self) -> dict:
        return {
            "coefficients": list(self.coefficients),
            "discriminant": self.discriminant,
            "kind": self.kind.value,
        }


def _conic_kind(H: float) -> ConicKind:
    # exact comparisons: the transitions sit exactly at H = 1 and H = -1/3
    if H == 1.0:
        return ConicKind.LINE_PAIR
    if H == -1.0 / 3.0:
        return ConicKind.PARABOLA
    if -1.0 / 3.0 < H < 1.0:
        return ConicKind.HYPERBOLA
    return ConicKind.ELLIPSE


def _conic_coefficients(p: SystemParams) -> tuple:
    """ConicGamma1.coefficients of gamma1_conic(p), without the record."""
    if not p.resonant:
        raise DomainError("the reduced conic requires the resonant family A = -2C")
    C, H, L = p.C, p.H, p.Lambda
    c2 = C * C + 1.0
    return (
        H,
        -(H + 1.0),
        H,
        -2.0 * C * H * L / c2,
        2.0 * C * H * L / c2,
        L * L * (H - 1.0) / c2,
    )


def _conic_value(coefficients, x, y):
    axx, axy, ayy, bx, by, c = coefficients
    return axx * x * x + axy * x * y + ayy * y * y + bx * x + by * y + c


def gamma1_conic(p: SystemParams) -> ConicGamma1:
    """Conic containing the symmetric-cycle crossings (resonant family only)."""
    return ConicGamma1(_conic_coefficients(p), gamma1_discriminant(p.H), _conic_kind(p.H))


def _branch_radicand(p: SystemParams, y):
    C, H, L = p.C, p.H, p.Lambda
    c2 = C * C + 1.0
    d1 = gamma1_discriminant(H)
    return (d1 * y * y / (4.0 * H * H)
            + L * C * (1.0 - H) * y / (H * c2)
            + L * L * (c2 - H) / (H * c2 * c2))


def gamma1_branch_x(p: SystemParams, y: float) -> float:
    """x(y) on the first-quadrant branch of the conic (0 < H < 1).

    The mirror branch is obtained via the involution.  A non-finite y is a
    DomainError.  The result is checked by substitution into the conic and
    a failure raises BranchPointError.
    """
    return _branch_x(p, y, gamma1_conic(p))


def _check_branch_domain(p: SystemParams):
    if not p.resonant:
        raise DomainError("branch parametrization requires the resonant family")
    if not (0.0 < p.H < 1.0 and p.H * p.H > 0.0):  # H^2 divides the radicand
        raise DomainError(f"branch parametrization requires 0 < H < 1, got H={p.H}")


def _branch_x(p: SystemParams, y: float, conic: ConicGamma1) -> float:
    """gamma1_branch_x with the caller's gamma1_conic(p), for loops over y."""
    _check_branch_domain(p)
    if not math.isfinite(y):
        raise DomainError(f"the branch point needs a finite y, got {y!r}")
    C, H, L = p.C, p.H, p.Lambda
    # the radicand is positive for 0 < H < 1 (see branch_min_y)
    x = (H + 1.0) * y / (2.0 * H) + C * L / (C * C + 1.0) + math.sqrt(_branch_radicand(p, y))
    resid = conic.evaluate(x, y)
    if not abs(resid) <= 1e-9 * (1.0 + y * y):  # a NaN residual fails too
        raise BranchPointError(f"branch point failed conic residual check: {resid!r}")
    return float(x)


def branch_min_y(p: SystemParams) -> float:
    """Smallest y the branch is sampled at: the positive floor 1e-9.

    For 0 < H < 1 the radicand of gamma1_branch_x is positive for every y:
    its discriminant in y is L^2 (1 - H) / (H^2 c2^2) times
    C^2 (1 - H) - (3H + 1)(c2 - H) / H < 0, with c2 = C^2 + 1.  So the
    branch reaches down to y = 0 and the floor only keeps y positive.
    """
    _check_branch_domain(p)
    return 1e-9
