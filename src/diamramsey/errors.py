"""Exception types shared across the package.

Every error the library raises deliberately derives from GeometryError so
callers (and the CLI) can distinguish domain failures from genuine bugs.
"""

import math


class GeometryError(Exception):
    """Base class for all deliberate failures raised by this package."""


class DomainError(GeometryError):
    """An argument is outside the documented domain of an operation."""


def _check_positive(value: float, what: str) -> None:
    """Raise DomainError unless value is finite and positive.

    A bare `value <= 0` test lets nan through, since every comparison with
    nan is false.
    """
    if not (math.isfinite(value) and value > 0):
        raise DomainError(f"{what} must be finite and positive, got {value}")


class NonOrthogonal(GeometryError):
    """A rigid motion's rotation matrix fails the orthogonality tolerance."""


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
