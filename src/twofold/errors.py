"""Exception types shared across the library."""


class TwofoldError(Exception):
    """Base class for numerical failures raised by this library."""


class DomainError(TwofoldError, ValueError):
    """An input lies outside the range a routine or command supports."""


class NoReturnError(TwofoldError):
    """No switching-plane crossing was found within the search window."""


class TangentialGrazeError(TwofoldError):
    """A crossing is tangential: the transversality margin is below tolerance."""


class GrazingCrossingError(TwofoldError):
    """Saltation divisor (Lie derivative) is below tolerance at a crossing."""


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
    """The direct monodromy of a cycle and the invariants of its half map
    disagree: its two half flights are not symmetric to the check's bound."""
