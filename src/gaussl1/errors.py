"""Shared exception types."""


class GaussL1Error(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(GaussL1Error, ValueError):
    """An argument violates a documented precondition."""


class DimensionMismatchError(ValidationError):
    """Operands declare incompatible dimensions or shapes."""


class NodeBudgetError(ValidationError):
    """A quadrature rule or index set would exceed the node budget."""


class EvaluationError(GaussL1Error):
    """An integrand or sampled function produced a non-finite value."""

    def __init__(self, message, *, point=None):
        super().__init__(message)
        self.point = point


class ToleranceError(GaussL1Error):
    """A numerical result missed its tolerance: adaptive integration, or
    deterministic Hermite coefficients whose mass breaks Parseval's bound."""


class CapabilityError(GaussL1Error):
    """The operation needs optional concept metadata that is absent."""
