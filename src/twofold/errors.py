"""Exception types shared across the library."""


class TwofoldError(Exception):
    """Base class for numerical failures raised by this library."""


class DomainError(TwofoldError, ValueError):
    """An input lies outside the range a routine or command supports."""


class NoReturnError(TwofoldError):
    """No switching-plane crossing was found within the search window."""


class TangentialGrazeError(TwofoldError):
    """A flight is tangential: its start's Lie derivative is zero, or it does
    not enter its half-space by more than rounding."""


class GrazingCrossingError(TwofoldError):
    """A saltation divisor (Lie derivative) is zero at a crossing, or so small
    that the jump leaves the float range."""


class NoConvergenceError(TwofoldError):
    """An iterative solver exhausted its iteration budget."""


class NoCycleError(TwofoldError):
    """H lies outside the band (H_graze, H_crit) of the symmetric-cycle branch."""


class BranchPointError(TwofoldError):
    """A branch point of the reduced conic failed its substitution check."""


class NotACycleError(TwofoldError):
    """A candidate fixed point failed the symmetric-cycle invariants."""


class DivergenceError(TwofoldError):
    """An orbit left the range of floating point: a simulated trajectory, or
    the closed form of a crossing solve or of a half-return flight."""


class SymmetryDefectError(TwofoldError):
    """The half-period map S N of a cycle and its half-map derivative Dg
    disagree past the rounding of their terms: the cycle's p0, phi and dg
    do not describe one symmetric orbit."""
