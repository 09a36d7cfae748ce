"""Enclosing balls and circumspheres.

The minimum enclosing ball runs the move-to-front variant of Welzl's
algorithm on a small core of the points, not on all of them: the
coordinate extremes in a seeded shuffle, grown one farthest-point pivot at
a time (Welzl 1991; Gartner 1999) until one vectorised pass finds no point
outside.  A core that stalls under rounding keeps its last ball, with
the radius measured to the farthest of all the points, so it still holds
every point.  The circumsphere is solved inside the affine hull of the
points, which is what makes "smallest containing sphere" well defined for
lower-dimensional sets (an off-hull center can only enlarge the radius).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import Degenerate, DomainError, NotSimplex, NotSpherical, _check_tolerance
from .geometry import (DEFAULT_TOL, Configuration, _freeze, _hull_basis, affine_dimension,
                       diameter)

# Containment slack inside Welzl's recursion, relative to the set's extent
# (its largest coordinate offset from the first point).  The returned radius
# is the farthest point's distance from the returned center, so the output
# holds every point with no slack.
_WELZL_SLACK = 1e-12


@dataclass(frozen=True, eq=False)
class Ball:
    """A closed ball: center plus nonnegative radius."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float)
        if c.ndim != 1:
            raise DomainError("ball center must be a vector")
        if not (np.all(np.isfinite(c)) and np.isfinite(self.radius)):
            raise DomainError("ball entries must be finite")
        if self.radius < 0:
            raise DomainError("ball radius must be nonnegative")
        object.__setattr__(self, "center", _freeze(c))

    def contains(self, point, tol: float = DEFAULT_TOL) -> bool:
        """Whether the point lies within radius * (1 + tol) of the center.

        The slack is relative to the radius, so the answer does not depend
        on units; a ball of radius 0 holds only its center.  A point that
        is not a vector as long as the center raises DomainError.
        """
        _check_tolerance(tol)
        point = np.asarray(point, dtype=float)
        if point.shape != self.center.shape:
            raise DomainError(f"point of shape {point.shape} does not match a ball "
                              f"center of dimension {len(self.center)}")
        return float(np.linalg.norm(point - self.center)) <= self.radius * (1.0 + tol)


@dataclass(frozen=True, eq=False)
class Sphere:
    """A sphere through a point set, solved within its affine hull.

    `carrier` holds an orthonormal basis (rows) of the hull's direction
    space, recording the subspace in which the center was solved;
    `residual` is the worst equidistance defect over the points.
    """

    center: np.ndarray
    radius: float
    carrier: np.ndarray
    residual: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "center", _freeze(np.asarray(self.center, dtype=float)))
        object.__setattr__(self, "carrier", _freeze(np.asarray(self.carrier, dtype=float)))


def _sq_dists(pts: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Squared distances to center; their square roots equal np.linalg.norm's."""
    diff = pts - center
    return np.add.reduce(diff * diff, axis=1)


def _support_ball(pts: np.ndarray, support: tuple[int, ...]):
    """Smallest ball with all of `support` on its boundary (center in their hull).

    Returns (center, radius); (None, -1.0) for an empty support set.
    """
    if not support:
        return None, -1.0
    if len(support) == 1:
        return pts[support[0]], 0.0
    chosen = pts[list(support)]
    if len(support) == 2:
        center = 0.5 * (chosen[0] + chosen[1])
    else:
        base = chosen[0]
        rel = chosen[1:] - base
        rhs = 0.5 * np.einsum("ij,ij->i", rel, rel)
        sol, *_ = np.linalg.lstsq(rel, rhs, rcond=None)
        center = base + sol
    return center, float(np.sqrt(_sq_dists(chosen, center).max()))


def _welzl_mtf(pts: np.ndarray, order: np.ndarray, support: tuple[int, ...],
               dim: int, slack: float):
    """Welzl's move-to-front recursion over `order`, reordered in place.

    After each ball change one vectorised pass over the rest of the order
    finds the next point outside the ball by more than `slack`.  A ball
    change at the front of the order, or one that fills the support to
    dim+1 points, needs no recursion: the ball is that support's ball.
    """
    center, radius = _support_ball(pts, support)
    full = len(support) == dim
    ordered = pts[order]  # the move-to-front only reorders the scanned prefix
    i = 0
    while i < len(order):
        if center is not None:
            beyond = _sq_dists(ordered[i:], center) > (radius + slack) ** 2
            k = int(beyond.argmax())
            if not beyond[k]:
                break
            i += k
        j = int(order[i])
        if full or i == 0:
            # No move-to-front either: it is a no-op at i == 0, and no
            # recursion reads this level's order once the support is full.
            center, radius = _support_ball(pts, support + (j,))
        else:
            center, radius = _welzl_mtf(pts, order[:i].copy(), support + (j,), dim, slack)
            order[1:i + 1] = order[:i]
            order[0] = j
        i += 1
    return center, radius


def _core_ball(pts: np.ndarray, core: np.ndarray, order: np.ndarray,
               dim: int, slack: float):
    """Welzl's ball of a core subset, grown by farthest-point pivots.

    `order` is the move-to-front order over `core` (positions into it).
    Each round one vectorised pass over all points finds the farthest from
    the core's ball; a point beyond radius + slack joins the core and seeds
    the support of the next solve, since by Welzl's lemma it lies on the
    boundary of the grown core's ball.  The previous round's move-to-front
    order is kept.  Returns the center and the squared distances of all
    points to it.  Rounding beyond the slack can stall the core: the pivot
    is already in it, or a round neither grows the radius nor brings the
    farthest point nearer.  Then the current center is returned; its
    squared distances include the pivot.  The core grows every round, so
    there are at most n rounds.
    """
    center, radius = _welzl_mtf(pts[core], order, (), dim, slack)
    sq = _sq_dists(pts, center)
    while True:
        far = int(sq.argmax())
        if sq[far] <= (radius + slack) ** 2 or far in core:
            return center, sq
        core = np.append(core, far)
        pivot = len(core) - 1
        grown, grown_radius = _welzl_mtf(pts[core], order, (pivot,), dim, slack)
        grown_sq = _sq_dists(pts, grown)
        if not (grown_radius > radius or grown_sq.max() < sq[far]):
            return center, sq
        center, radius, sq = grown, grown_radius, grown_sq
        order = np.append(pivot, order)


def min_enclosing_ball(config: Configuration, seed: int = 0) -> Ball:
    """Smallest closed ball containing the configuration.

    Welzl's randomized move-to-front recursion runs on a small core, not
    on the whole set.  The core starts as the points that attain each
    coordinate's minimum and maximum, in an order shuffled by `seed`; each
    round one vectorised pass adds the farthest point outside the core's
    ball as a pivot, until none lies beyond a containment slack of
    _WELZL_SLACK times the set's extent.  The ball is determined by a
    support set of at most dim+1 boundary points.  A set whose core is all
    of it is solved over a seeded shuffle of the whole set.  If a pivot
    repeats, or a round neither grows the radius nor brings the farthest
    point nearer, the core's last center is kept.  Either way the radius is
    the farthest point's distance from the center, so every point lies
    inside with no slack.
    """
    pts = config.points
    slack = _WELZL_SLACK * float(np.abs(pts - pts[0]).max())
    extremes = np.zeros(len(config), dtype=bool)
    extremes[pts.argmin(axis=0)] = extremes[pts.argmax(axis=0)] = True
    core = np.flatnonzero(extremes)  # sorted, so a core of all n points is arange(n)
    order = np.random.default_rng(seed).permutation(len(core))
    center, sq = _core_ball(pts, core, order, config.dim, slack)
    return Ball(center=center, radius=float(np.sqrt(sq.max())))


def circumsphere(config: Configuration, tol: float = DEFAULT_TOL) -> Sphere:
    """Sphere through all points, solved within their affine hull.

    The hull is reduced to an orthonormal basis, the center is recovered
    from the linear system 2<x, p_i - p_1> = |p_i|^2 - |p_1|^2 restricted to
    hull coordinates, and the result is rejected as NotSpherical when the
    worst equidistance defect exceeds tol * diameter.
    """
    _check_tolerance(tol)
    return _circumsphere(config, tol, diameter(config))


def _circumsphere(config: Configuration, tol: float, diam: float) -> Sphere:
    """circumsphere, given the configuration's diameter."""
    if len(config) < 2:
        raise DomainError("circumsphere requires at least two points")
    pts = config.points
    if diam <= 0.0:
        raise Degenerate("all points coincide; no smallest containing sphere")

    rel = pts[1:] - pts[0]
    basis = _hull_basis(pts, 1e-12)         # (rank, dim), orthonormal rows
    coords = rel @ basis.T                  # hull coordinates of p_i - p_1
    rhs = 0.5 * np.einsum("ij,ij->i", coords, coords)
    sol, *_ = np.linalg.lstsq(coords, rhs, rcond=None)
    center = pts[0] + basis.T @ sol

    dists = np.linalg.norm(pts - center, axis=1)
    radius = float(np.mean(dists))
    residual = float(np.max(np.abs(dists - radius)))
    if residual > tol * diam:
        raise NotSpherical(
            f"equidistance residual {residual:.3e} exceeds {tol:.1e} * diameter")
    return Sphere(center=center, radius=radius, carrier=basis, residual=residual)


def circumradius(config: Configuration) -> float:
    """Radius of the smallest sphere whose surface contains the set."""
    return circumsphere(config).radius


def is_spherical(config: Configuration, tol: float = DEFAULT_TOL) -> bool:
    """Whether the set lies on some sphere. Singletons count as spherical."""
    _check_tolerance(tol)
    if len(config) < 2:
        return True
    try:
        circumsphere(config, tol)
    except (NotSpherical, Degenerate):
        return False
    return True


def jung_bound(config: Configuration) -> float:
    """sqrt(m / (2m + 2)) * diameter, with m the affine dimension.

    Every bounded set of affine dimension m fits in a closed ball of this
    radius; in particular every finite set fits in radius diam / sqrt(2).
    """
    m = affine_dimension(config)
    if m == 0:
        return 0.0
    return float(np.sqrt(m / (2.0 * m + 2.0)) * diameter(config))


def circumcenter_in_hull(config: Configuration, tol: float = DEFAULT_TOL) -> bool:
    """Whether the circumcenter lies in the simplex's convex hull.

    Requires a nondegenerate simplex (|C| = affine dimension + 1).  The
    circumcenter's barycentric coordinates are solved from the affine
    system; a face case (coordinate 0) counts as contained via -tol.
    """
    _check_tolerance(tol)
    m = affine_dimension(config)
    if len(config) != m + 1 or m == 0:
        raise NotSimplex(
            f"{len(config)} points of affine dimension {m} do not form a simplex")
    sphere = circumsphere(config)
    pts = config.points
    system = np.vstack([pts.T, np.ones(len(config))])
    target = np.concatenate([sphere.center, [1.0]])
    bary, *_ = np.linalg.lstsq(system, target, rcond=None)
    return bool(np.min(bary) >= -tol)
