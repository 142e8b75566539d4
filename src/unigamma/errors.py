"""Exception types shared across the package."""

from __future__ import annotations


class UnigammaError(Exception):
    """Base class for every error this package raises deliberately."""


class DomainError(UnigammaError, ValueError):
    """An argument lies outside the domain a routine supports."""


class PoleError(UnigammaError, ArithmeticError):
    """Evaluation was requested too close to a pole of gamma or digamma."""

    def __init__(self, message: str, *, z: complex | None = None,
                 nearest_pole: int | None = None):
        super().__init__(message)
        self.z = z
        self.nearest_pole = nearest_pole


class QuadratureNodeError(UnigammaError, ArithmeticError):
    """An integrand produced a non-finite value at a quadrature node, or
    finite values whose trapezoid sum leaves the double range (``node`` None)."""

    def __init__(self, message: str, *, node: float | None = None):
        super().__init__(message)
        self.node = node
