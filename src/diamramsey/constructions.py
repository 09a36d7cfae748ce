"""Generators for the witness configurations used throughout the package.

Regular simplices, the almost-regular simplex whose circumradius just
exceeds diam / sqrt(2), isoceles obtuse triangles, and the almost-regularity
measure (average squared-distance deficit relative to the diameter).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import Degenerate, DomainError, _check_positive
from .geometry import Configuration, distance_matrix


def _helmert_basis(n: int) -> np.ndarray:
    """Orthonormal rows spanning the zero-sum hyperplane of R^n."""
    basis = np.zeros((n - 1, n))
    for k in range(1, n):
        basis[k - 1, :k] = 1.0
        basis[k - 1, k] = -float(k)
        basis[k - 1] /= math.sqrt(k * (k + 1))
    return basis


def regular_simplex(d: int) -> Configuration:
    """Unit-edge regular d-simplex in R^d, centered at its centroid.

    Built from the scaled standard basis of R^{d+1} projected through the
    Helmert basis of the zero-sum hyperplane, so the coordinates are
    canonical and deterministic.  Circumradius sqrt(d / (2d + 2)).
    """
    if d < 1:
        raise DomainError("simplex dimension must be at least 1")
    n = d + 1
    corners = np.eye(n) / math.sqrt(2.0)
    centered = corners - corners.mean(axis=0)
    coords = centered @ _helmert_basis(n).T
    return Configuration(points=coords)


def almost_regular_simplex(d: int, delta: float) -> Configuration:
    """Almost-regular d-simplex of diameter 1 on a sphere of radius sqrt(1/2 + delta).

    A unit regular (d-1)-simplex is placed on the slice of the sphere of
    radius r = sqrt(1/2 + delta) by the hyperplane x_d = a,
    a = sqrt(1/(2d) + delta); the slice radius sqrt(r^2 - a^2) equals
    sqrt((d-1)/(2d)), the circumradius of that simplex, for every delta.
    The apex (0, ..., 0, r) completes the simplex.  Squared apex distances
    are 1 + 2*delta - 2*r*a < 1, so the base edges realize the diameter,
    while the circumradius r exceeds 1/sqrt(2).
    """
    if d < 2:
        raise DomainError("construction needs dimension at least 2")
    _check_positive(delta, "perturbation")
    r = math.sqrt(0.5 + delta)
    a = math.sqrt(0.5 / d + delta)
    apex_sq = 1.0 + 2.0 * delta - 2.0 * r * a
    if not 0.0 < apex_sq < 1.0:
        raise DomainError(
            f"perturbation {delta} breaks the unit-diameter invariant")
    base = regular_simplex(d - 1).points
    points = np.zeros((d + 1, d))
    points[:d, :d - 1] = base
    points[:d, d - 1] = a
    points[d, d - 1] = r
    return Configuration(points=points)


def obtuse_triangle(alpha: float, a: float = 1.0) -> Configuration:
    """Isoceles triangle with apex angle alpha (degrees) and longest side a.

    Base endpoints (0, 0) and (a, 0); apex at (a/2, R - h) with
    R = a / (2 sin alpha) the circumradius and h = sqrt(R^2 - a^2/4) the
    center depth.  Requires 90 < alpha < 180, so the base is the diameter.
    """
    if not 90.0 < alpha < 180.0:
        raise DomainError("apex angle must lie strictly between 90 and 180 degrees")
    _check_positive(a, "side length")
    rad = math.radians(alpha)
    circ = a / (2.0 * math.sin(rad))
    depth = math.sqrt(circ * circ - 0.25 * a * a)
    points = np.array([
        [0.0, 0.0],
        [a, 0.0],
        [0.5 * a, circ - depth],
    ])
    return Configuration(points=points)


def almost_regular_measure(config: Configuration) -> float:
    """Average squared-distance deficit, normalized by the squared diameter.

    Returns sum_{i<j} (diam^2 - |p_i - p_j|^2) / (C(n, 2) * diam^2), the
    epsilon for which the set is epsilon-almost regular.  0 exactly for
    regular simplices; always in [0, 1].
    """
    n = len(config)
    dists = distance_matrix(config)
    diam = float(dists.max())
    if diam <= 0.0:
        raise Degenerate("measure undefined for sets of zero diameter")
    iu = np.triu_indices(n, k=1)
    deficit = float(np.sum(diam * diam - dists[iu] ** 2))
    pairs = n * (n - 1) // 2
    return deficit / (pairs * diam * diam)
