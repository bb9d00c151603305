"""Exception taxonomy shared across the package, and the two domain rules
that most entry points check."""
from __future__ import annotations

import math


class FracheatError(Exception):
    """Base class for every error raised by this package."""


class DomainError(FracheatError, ValueError):
    """A parameter is outside the mathematical domain of the operation."""


class SeriesRangeError(FracheatError, ArithmeticError):
    """A series evaluation was requested outside its trustworthy range.

    Raised instead of returning digits that would be dominated by
    cancellation noise.
    """


class ConvergenceError(FracheatError, RuntimeError):
    """An iterative scheme exhausted its budget before meeting tolerance."""


class StencilUnderflowError(FracheatError, ArithmeticError):
    """A finite-difference stencil produced values below rounding noise.

    Raised when the field sampled on a stencil is so small that the
    differenced result carries no trustworthy digits.
    """


def require_alpha(alpha: float) -> None:
    """Refuse a time order outside ``(0, 1]``."""
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"alpha must lie in (0, 1], got {alpha}")


def require_positive(value: float, what: str) -> None:
    """Refuse a ``value`` (named ``what``) that is not positive and finite."""
    if not 0.0 < value < math.inf:
        raise DomainError(f"{what} must be positive and finite, got {value}")
