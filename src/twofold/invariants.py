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

from .errors import BranchPointError, DomainError
from .system import SystemParams, _field, _finite_point, _record


def _f1(p: SystemParams, x, y, z):
    """The upper quadratic Darboux polynomial, X(f1) = 2C f1.  This and _f2
    have int literals: exact for Fractions, float literals' bits for floats."""
    C, L = p.C, p.Lambda
    c2 = C * C + 1
    return (y * y + 2 * C * (z + L / c2) * y + c2 * z * z
            + 2 * L * (C * C - 1) * z / c2 + L * L / c2)


def _f2(p: SystemParams, x, y, z):
    """The upper affine Darboux polynomial, X(f2) = A f2."""
    return x - p.H * (p.A * z + y)


@dataclass(frozen=True)
class DarbouxPair:
    """Darboux polynomials of both fields with their cofactors."""

    params: SystemParams

    def f1(self, s) -> float:
        x, y, z = map(float, s)
        return _f1(self.params, x, y, z)

    def f2(self, s) -> float:
        x, y, z = map(float, s)
        return _f2(self.params, x, y, z)

    # lower field, Y(s) = S X(S s): F1 = f1 o S and F2 = -f2 o S, with
    # Y(F1) = 2C F1 and Y(F2) = A F2; F2's z = 0 trace is the focal line y = H x
    def F1(self, s) -> float:
        x, y, z = map(float, s)
        return _f1(self.params, -y, -x, -z)

    def F2(self, s) -> float:
        x, y, z = map(float, s)
        return -_f2(self.params, -y, -x, -z)

    @property
    def cofactor_f1(self) -> float:
        return 2.0 * self.params.C

    @property
    def cofactor_f2(self) -> float:
        return self.params.A

    cofactor_F1 = cofactor_f1
    cofactor_F2 = cofactor_f2


def _power_exponent(p: SystemParams) -> float:
    """-2C / A; at A = 0, or where it leaves the float range, a DomainError."""
    exponent = -2.0 * p.C / p.A if p.A != 0.0 else math.inf
    if not math.isfinite(exponent):
        raise DomainError(f"the first integral's exponent -2C/A is not finite at A={p.A!r}, "
                          f"C={p.C!r}")
    return exponent


# -2C/A of decimal inputs lands ulps off the integer it is meant to be
# (2.9999999999999996 at C = 0.3, A = -0.2); a negative base takes its power
_INTEGER_EXPONENT_TOL = 1e-12


def _guarded_power(base: float, exponent: float) -> float:
    if base > 0.0:
        return base ** exponent
    rounded = round(exponent)
    if abs(exponent - rounded) <= _INTEGER_EXPONENT_TOL:
        return base ** int(rounded)
    raise DomainError(
        f"first integral undefined: base {base!r} <= 0 with non-integer exponent {exponent!r}"
    )


def _darboux_product(p: SystemParams, quadratic, affine, s) -> float:
    """quadratic(s) * affine(s)^(-2C/A) at the ``_finite_point`` s, whose
    DomainError it raises, as it does one for a value that is not finite."""
    s = _finite_point(s)
    base = affine(s)
    try:
        value = quadratic(s) * (base if p.resonant else _guarded_power(base, _power_exponent(p)))
    except (OverflowError, ZeroDivisionError):  # a power past the float range, or 0 ** -k
        value = math.inf
    if not math.isfinite(value):
        raise DomainError(f"the first integral at {s!r} leaves the float range at A={p.A!r}, "
                          f"C={p.C!r}")
    return value


def eval_P_X(p: SystemParams, s) -> float:
    """First integral of the upper field, f1 * f2^(-2C/A).

    In the resonant family the exponent is exactly 1 and the product is a
    polynomial; otherwise the power is guarded and raises on a nonpositive
    base with non-integer exponent.  A = 0, a point that is not finite and a
    value past the float range are DomainErrors.
    """
    pair = DarbouxPair(p)
    return _darboux_product(p, pair.f1, pair.f2, s)


def eval_P_Y(p: SystemParams, s) -> float:
    """First integral of the lower field, F1 * F2^(-2C/A), with the
    DomainErrors of eval_P_X."""
    pair = DarbouxPair(p)
    return _darboux_product(p, pair.F1, pair.F2, s)


@dataclass(frozen=True)
class DarbouxReport:
    max_residual_f1: float
    max_residual_f2: float
    max_residual_F1: float
    max_residual_F2: float
    cofactor_combination: float
    samples: int


# {0, e_i, 2 e_i, e_i + e_j}: the degree-2 principal lattice, unisolvent for quadratics
_P2_LATTICE = [(i, j, k) for i in range(3) for j in range(3) for k in range(3) if i + j + k <= 2]


def verify_darboux(p: SystemParams) -> DarbouxReport:
    """Decide the Darboux property of all four polynomials on ten points, exactly.

    For each polynomial g with cofactor k along its field v the residual is
    |v(g) - k g| on the lattice {0, e_i, 2 e_i, e_i + e_j}.  As g has degree
    at most 2, v(g)(s) = (g(s + v) - g(s - v)) / 2 exactly: it is read off g
    itself, and the residual is a quadratic, zero everywhere iff on the ten.
    The lower F = +-f o S has Y(F)(s) = +-X(f)(S s), so its residual is f's
    with F's cofactor on the mirrored lattice.  All runs in Fractions of the
    parameters' and cofactors' floats: a right system reads exactly 0.0, a
    wrong cofactor its own residual, rounded once.  Also reports the
    cofactor combination 1*(2C) + (-2C/A)*A, which vanishes identically and
    makes the Darboux product a first integral; A = 0, as in eval_P_X, and a
    residual past the float range are DomainErrors.
    """
    from fractions import Fraction  # a 5 ms import, left to this check

    exponent = _power_exponent(p)
    pair = DarbouxPair(p)
    q = _record(SystemParams, {k: Fraction(getattr(p, k)) for k in ("A", "C", "H", "Lambda")})
    checks = ((_f1, pair.cofactor_f1, False), (_f2, pair.cofactor_f2, False),
              (_f1, pair.cofactor_F1, True), (_f2, pair.cofactor_F2, True))
    worst = [Fraction(0)] * 4
    for x, y, z in _P2_LATTICE:
        for i, (g, k, mirrored) in enumerate(checks):
            s = (-y, -x, -z) if mirrored else (x, y, z)
            v = _field(q, *s)
            ahead, behind = [a + b for a, b in zip(s, v)], [a - b for a, b in zip(s, v)]
            lie = (g(q, *ahead) - g(q, *behind)) / 2
            worst[i] = max(worst[i], abs(lie - Fraction(k) * g(q, *s)))
    try:
        worst = [float(w) for w in worst]
    except OverflowError:
        raise DomainError(f"the Darboux residuals leave the float range at A={p.A!r}, "
                          f"C={p.C!r}, H={p.H!r}, Lambda={p.Lambda!r}") from None
    combo = 1.0 * (2.0 * p.C) + exponent * p.A
    return DarbouxReport(*worst, cofactor_combination=combo, samples=len(_P2_LATTICE))


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
    by = 2.0 * C * H * L / c2  # bx = -by, once: negation is exact
    return H, -(H + 1.0), H, -by, by, L * L * (H - 1.0) / c2


def _conic_value(coefficients, x, y):
    axx, axy, ayy, bx, by, c = coefficients
    return axx * x * x + axy * x * y + ayy * y * y + bx * x + by * y + c


def gamma1_conic(p: SystemParams) -> ConicGamma1:
    """Conic containing the symmetric-cycle crossings (resonant family only).

    A coefficient or discriminant past the float range is a DomainError: the
    constant term Lambda^2 (H - 1) / (C^2 + 1) overflows from about
    Lambda = 1.3e154.
    """
    coefficients, discriminant = _conic_coefficients(p), gamma1_discriminant(p.H)
    if not all(map(math.isfinite, (*coefficients, discriminant))):
        raise DomainError(f"the conic leaves the float range at C={p.C!r}, H={p.H!r}, "
                          f"Lambda={p.Lambda!r}: coefficients {coefficients!r}, "
                          f"discriminant {discriminant!r}")
    return ConicGamma1(coefficients, discriminant, _conic_kind(p.H))


def _branch_radicand(p: SystemParams, y):
    C, H, L = p.C, p.H, p.Lambda
    c2 = C * C + 1.0
    d1 = gamma1_discriminant(H)
    return (d1 * y * y / (4.0 * H * H)
            + L * C * (1.0 - H) * y / (H * c2)
            + L * L * (c2 - H) / (H * c2 * c2))


def _check_branch_domain(p: SystemParams):
    if not p.resonant:
        raise DomainError("branch parametrization requires the resonant family")
    if not 0.0 < p.H < 1.0:
        raise DomainError(f"branch parametrization requires 0 < H < 1, got H={p.H}")
    if p.H * p.H == 0.0:  # H^2 divides the radicand
        raise DomainError(f"H^2 underflows to 0 for H below about 1.57e-162, got H={p.H!r}")


def gamma1_branch_x(p: SystemParams, y: float) -> float:
    """x(y) on the first-quadrant branch of the conic (0 < H < 1).

    The mirror branch is obtained via the involution.  A y that is not finite
    or whose conic residual overflows is a DomainError; the result is checked
    by substitution into the conic, and a residual past its rounding bound
    raises BranchPointError.
    """
    _check_branch_domain(p)
    y = float(y)  # a NumPy scalar would warn where the float overflows to inf
    if not math.isfinite(y):
        raise DomainError(f"the branch point needs a finite y, got {y!r}")
    C, H, L = p.C, p.H, p.Lambda
    # the radicand is positive for every y: its discriminant in y is
    # L^2 (1 - H) / (H^2 c2^2) times C^2 (1 - H) - (3H + 1)(c2 - H) / H < 0,
    # with c2 = C^2 + 1, so the branch reaches down to y = 0
    a, b, r = (H + 1.0) * y / (2.0 * H), C * L / (C * C + 1.0), math.sqrt(_branch_radicand(p, y))
    x = a + b + r
    coefficients = _conic_coefficients(p)
    resid = _conic_value(coefficients, x, y)
    if not math.isfinite(resid):  # x^2 or y^2 overflows
        raise DomainError(f"y = {y!r} is too large: the conic residual overflows")
    # the residual's rounding: a few ulps of the sizes of the conic's terms,
    # and of x's own terms times the conic's slope dF/dx = 2 H r
    size = _conic_value(tuple(map(abs, coefficients)), abs(x), abs(y))
    if not abs(resid) <= 2.0 ** -47 * (size + 2.0 * H * r * (abs(a) + abs(b) + r)):
        raise BranchPointError(f"branch point failed conic residual check: {resid!r}")
    return float(x)
