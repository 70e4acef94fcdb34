"""Exception types shared across the package."""


class BFamilyError(Exception):
    """Base class for all domain errors raised by this package."""


class BetaOutOfRange(BFamilyError):
    """The weight p + beta*p' would be negative somewhere on the torus."""


class BOutOfRange(BFamilyError):
    """b outside the family's range (``kernel.check_b``) or a formula's domain."""


class NoConvergence(BFamilyError):
    """An iterative series failed to reach its tolerance."""


class LinearSolveFailure(BFamilyError):
    """A tridiagonal system of either J route was not positive definite."""
