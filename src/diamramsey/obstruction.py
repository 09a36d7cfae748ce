"""Verdict logic for the circumradius obstruction.

A finite spherical set whose circumradius strictly exceeds diameter/sqrt(2)
is not diameter-Ramsey; nothing here ever claims the converse, so the only
verdicts are NotDiameterRamsey and Unknown.  The simplex classifier that
predicts diameter-Ramsey-ness from the circumcenter's position is an open
conjecture and its output is labelled accordingly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import DomainError, _check_positive
from .geometry import DEFAULT_TOL, Configuration, diameter
from .spheres import _circumsphere, circumcenter_in_hull

SQRT2 = math.sqrt(2.0)

# Angular slack (degrees) for the strict 135-degree threshold.
ANGLE_TOL_DEG = 1e-9


class Status(str, Enum):
    NOT_DIAMETER_RAMSEY = "NotDiameterRamsey"
    UNKNOWN = "Unknown"


class ConjectureLabel(str, Enum):
    DIAMETER_RAMSEY = "ConjecturedDiameterRamsey"
    NOT_DIAMETER_RAMSEY = "ConjecturedNotDiameterRamsey"


@dataclass(frozen=True)
class Verdict:
    """Obstruction outcome with its diagnostic quantities.

    status is NotDiameterRamsey only when margin = circumradius -
    diameter/sqrt(2) clears the tolerance times the diameter, so the verdict
    does not depend on units; everything else is Unknown because the
    obstruction is one-directional.
    """

    status: Status
    circumradius: float
    diameter: float
    threshold: float
    margin: float

    def to_dict(self) -> dict:
        return {
            "status": self.status.value,
            "circumradius": self.circumradius,
            "diameter": self.diameter,
            "threshold": self.threshold,
            "margin": self.margin,
        }


def obstruction_verdict(config: Configuration, tol: float = DEFAULT_TOL) -> Verdict:
    """Apply the circumradius test to a spherical configuration.

    NotDiameterRamsey needs margin > tol * diameter; tol is relative, as in
    circumsphere's equidistance check.

    Raises NotSpherical for sets lying on no sphere; those are not even
    Ramsey-eligible and the caller should report that case distinctly.
    """
    diam = diameter(config)
    circ = _circumsphere(config, tol, diam).radius
    threshold = diam / SQRT2
    margin = circ - threshold
    status = Status.NOT_DIAMETER_RAMSEY if margin > tol * diam else Status.UNKNOWN
    return Verdict(status=status, circumradius=circ, diameter=diam,
                   threshold=threshold, margin=margin)


def triangle_circumradius(a: float, alpha: float) -> float:
    """Circumradius a / (2 sin alpha) of a triangle from a side and its opposite angle (degrees)."""
    if not 0.0 < alpha < 180.0:
        raise DomainError("angle must lie strictly between 0 and 180 degrees")
    _check_positive(a, "side length")
    return a / (2.0 * math.sin(math.radians(alpha)))


def classify_triangle(alpha: float, a: float = 1.0) -> Verdict:
    """Obstruction verdict for a triangle given its largest angle (degrees).

    The side a opposite the largest angle is the diameter.  The verdict is
    NotDiameterRamsey exactly for alpha > 135 degrees (strict, with
    ANGLE_TOL_DEG slack), matching the circumradius test.
    """
    if not 60.0 - ANGLE_TOL_DEG <= alpha < 180.0:
        raise DomainError("largest triangle angle must lie in [60, 180) degrees")
    circ = triangle_circumradius(a, alpha)
    threshold = a / SQRT2
    obstructed = alpha > 135.0 + ANGLE_TOL_DEG
    status = Status.NOT_DIAMETER_RAMSEY if obstructed else Status.UNKNOWN
    return Verdict(status=status, circumradius=circ, diameter=a,
                   threshold=threshold, margin=circ - threshold)


def conjecture_classification(config: Configuration,
                              tol: float = DEFAULT_TOL) -> ConjectureLabel:
    """Conjectural label for a nondegenerate simplex.

    Predicts diameter-Ramsey exactly when the circumcenter lies in the
    convex hull (boundary included).  This is a conjecture, not a theorem;
    the label names say so explicitly.
    """
    if circumcenter_in_hull(config, tol):
        return ConjectureLabel.DIAMETER_RAMSEY
    return ConjectureLabel.NOT_DIAMETER_RAMSEY
