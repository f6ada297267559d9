"""Exception hierarchy shared by all modules."""


class FbmldError(Exception):
    """Base class for errors raised by this package."""


class DomainError(FbmldError, ValueError):
    """An argument violates a documented precondition."""


class DimensionError(DomainError):
    """Operands have incompatible grid sizes or vector dimensions."""


class NumericError(FbmldError, ArithmeticError):
    """A computation failed numerically (overflow, non-convergence, ...)."""


class InfeasibleError(NumericError):
    """No admissible control reaches the event: its rate is +inf."""
