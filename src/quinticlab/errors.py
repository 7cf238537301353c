"""Exception hierarchy shared across the package."""


class QuinticLabError(Exception):
    """Base class for all package errors."""


class InvalidInputError(QuinticLabError):
    """Malformed or out-of-contract input (wrong degree, bad file, ...)."""


class DegenerateInstanceError(QuinticLabError):
    """Root tuple has (near-)repeated roots; value-counting claims do not apply."""


class NumericFailureError(QuinticLabError):
    """A numeric procedure failed: non-convergence or ambiguous clustering."""

    def __init__(self, message: str, worst_residual: float | None = None):
        super().__init__(message)
        self.worst_residual = worst_residual
