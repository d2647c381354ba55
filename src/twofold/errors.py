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
    """The closure residual keeps one sign on the sampled branch: no cycle is bracketed."""


class NotACycleError(TwofoldError):
    """A candidate fixed point failed the symmetric-cycle invariants."""


class DivergenceError(TwofoldError):
    """Return-map iteration left the admissible branch domain, or a
    trajectory left the range of floating point."""


class EmptyBandError(TwofoldError):
    """No stable H-interval exists for the requested C."""


class SymmetryDefectError(TwofoldError):
    """The direct and involution-reduced monodromy compositions of a cycle
    disagree: its two half flights are not symmetric to the check's bound."""
