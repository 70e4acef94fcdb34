"""Exception types shared across the package."""


class BFamilyError(Exception):
    """Base class for all domain errors raised by this package."""


class BetaOutOfRange(BFamilyError):
    """The weight p + beta*p' would be negative somewhere on the torus."""


class BOutOfRange(BFamilyError):
    """Family parameter b outside the supported range."""


class DegreeSingular(BFamilyError):
    """Legendre degree map evaluated at its singular point b = 3 or beyond."""


class NoConvergence(BFamilyError):
    """An iterative series failed to reach its tolerance."""


class DivisionNearZero(BFamilyError):
    """A denominator fell below the safe threshold."""


class LinearSolveFailure(BFamilyError):
    """A boundary-value linear system was numerically singular."""


class NotCoercive(BFamilyError):
    """The assembled quadratic form is not positive definite."""
