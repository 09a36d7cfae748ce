"""Exception types shared across the package.

Every error the library raises deliberately derives from GeometryError so
callers (and the CLI) can distinguish domain failures from genuine bugs.
"""

import math


class GeometryError(Exception):
    """Base class for all deliberate failures raised by this package."""


class DomainError(GeometryError):
    """An argument is outside the documented domain of an operation."""


def _is_finite(value, what: str) -> bool:
    """math.isfinite(value), or DomainError unless value is a real number
    that a float can hold: math.isfinite converts as float() does, but
    parses no strings."""
    try:
        return math.isfinite(value)
    except (TypeError, OverflowError) as exc:
        raise DomainError(f"{what} must be a real number, got {value!r:.40}") from exc


def _check_positive(value: float, what: str) -> None:
    """Raise DomainError unless value is a finite, positive real number.

    A bare `value <= 0` test lets nan through, since every comparison with
    nan is false.
    """
    if not (_is_finite(value, what) and value > 0):
        raise DomainError(f"{what} must be finite and positive, got {value}")


def _check_tolerance(value: float) -> None:
    """Raise DomainError unless value is a nonnegative real number; zero is allowed.

    A negative slack can never be met, so a stopping test or a verdict
    built on it would run out its budget or reject every input.
    """
    _is_finite(value, "tolerance")
    if not value >= 0:
        raise DomainError(f"tolerance must be nonnegative, got {value}")


class NotSpherical(GeometryError):
    """The point set does not lie on any common sphere."""


class Degenerate(GeometryError):
    """The point set is degenerate for the requested operation."""


class NotSimplex(GeometryError):
    """The points are affinely dependent where a nondegenerate simplex is required."""


class Infeasible(GeometryError):
    """No congruent copy of the target fits inside the requested ball."""


class NonConvergence(GeometryError):
    """A sampled feasible spread fell below the certified lower bound on c."""


class EmptySample(GeometryError):
    """A sampling routine was asked for zero samples."""


class BudgetExceeded(GeometryError):
    """An exhaustive search was asked to exceed its combinatorial budget."""
