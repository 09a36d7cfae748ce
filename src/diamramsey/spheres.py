"""Enclosing balls and circumspheres.

The minimum enclosing ball starts from one of the coordinate extremes,
picked by a seeded shuffle, and grows one farthest-point pivot at a time
(Gartner 1999) until one vectorised pass finds no point outside.  Each
round walks to the ball of the current support and the pivot (Fischer,
Gartner & Kutz 2003); Welzl's move-to-front recursion (Welzl 1991)
solves sets whose extremes are all of them, and any round whose walk does
not end.  A ball that stalls under rounding is kept, with the radius
measured to the farthest of all the points, so it still holds
every point.  The circumsphere is solved inside the affine hull of the
points, which is what makes "smallest containing sphere" well defined for
lower-dimensional sets (an off-hull center can only enlarge the radius).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import Degenerate, DomainError, NotSimplex, NotSpherical, _check_tolerance
from .geometry import (DEFAULT_TOL, Configuration, _far_pair_sq, _freeze, _hull_basis,
                       affine_dimension, diameter)

# Containment slack inside Welzl's recursion, relative to the set's extent
# (its largest coordinate offset from the first point).  The returned radius
# is the farthest point's distance from the returned center, so the output
# holds every point with no slack.
_WELZL_SLACK = 1e-12

# Rows from which _sq_dists sums column by column.
_COLUMN_ROWS = 256

# Steps of one _walk before the pivot round falls back to move-to-front.
_WALK_STEPS = 64


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
    """Squared distances to center; their square roots equal np.linalg.norm's.

    np.linalg.norm reduces each row's squares along the row, and below
    eight terms numpy adds them in order, as a sum down the columns does.
    On many rows that sum is the faster one: numpy's broadcasting and
    reduce step through rows of a few entries one at a time (1.9 ms
    against 0.15 ms for 50000 points in R^2).  From eight terms numpy sums
    in pairs, so wide rows, and the few rows inside Welzl's recursion, take
    the reduce.
    """
    n, d = pts.shape
    if n < _COLUMN_ROWS or d >= 8:
        diff = pts - center
        return np.add.reduce(diff * diff, axis=1)
    sq = pts[:, 0] - center[0]
    sq *= sq
    for k in range(1, d):
        term = pts[:, k] - center[k]
        term *= term
        sq += term
    return sq


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


def _walk(pts: np.ndarray, center: np.ndarray, pivot: int):
    """The smallest ball of a few points, walked to from `center`.

    The walk of Fischer, Gartner and Kutz (2003).  pts[pivot] must be the
    farthest point from `center`, so the ball about `center` through it
    holds them all; its support T starts as {pivot}.  Each step moves the
    center in a straight line towards the circumcenter of T within T's
    affine hull, which keeps T on the boundary and shrinks the ball, until
    another point reaches the boundary and joins T, or the circumcenter is
    reached.  There, if the center has a negative barycentric coordinate,
    that point leaves T; otherwise the ball is the smallest.  Returns the
    center and T, or None if _WALK_STEPS steps do not end the walk.
    """
    support = [pivot]
    for _ in range(_WALK_STEPS):
        target, _ = _support_ball(pts, tuple(support))
        step = target - center
        anchor = pts[support[0]]
        # Along center + s*step every point of T stays at one distance; a
        # point q reaches it at s = -(|c - q|^2 - |c - t|^2) / (2<t - q, step>).
        excess = _sq_dists(pts, center) - float(np.dot(center - anchor, center - anchor))
        closing = 2.0 * ((anchor - pts) @ step)
        closing[support] = 0.0
        hits = np.flatnonzero(closing > 0.0)
        if len(hits):
            s = -excess[hits] / closing[hits]
            k = int(s.argmin())
            if s[k] < 1.0:
                center = center + max(float(s[k]), 0.0) * step
                support.append(int(hits[k]))
                continue
        center = target
        if len(support) == 1:
            return center, support
        chosen = pts[support]
        rest, *_ = np.linalg.lstsq((chosen[1:] - chosen[0]).T, center - chosen[0], rcond=None)
        weights = np.append(1.0 - rest.sum(), rest)
        k = int(weights.argmin())
        if weights[k] >= 0.0:
            return center, support
        del support[k]
    return None


def _core_ball(pts: np.ndarray, core: np.ndarray, order: np.ndarray,
               dim: int, slack: float):
    """Welzl's ball of a core subset, grown by farthest-point pivots.

    `order` is the move-to-front order over `core` (positions into it).
    After Welzl's solve of the core, each round one vectorised pass over
    all points finds the farthest from the current ball; a point beyond
    radius + slack is a pivot, and the ball of the support and the pivot,
    by Welzl's lemma the ball with the pivot on its boundary, is walked to
    with _walk (move-to-front over those few points if the walk does not
    end).  Its support is the next round's.  Returns the center and the
    squared distances of all points to it.  Rounding beyond the slack can
    stall the rounds: the pivot is already in the support, or a round
    neither grows the radius nor brings the farthest point nearer.  Then
    the current center is returned; its squared distances include the
    pivot.  In exact arithmetic each round grows the radius; at most n
    rounds run.
    """
    center, radius = _welzl_mtf(pts[core], order, (), dim, slack)
    sq = _sq_dists(pts, center)
    for _ in range(len(pts)):
        far = int(sq.argmax())
        if sq[far] <= (radius + slack) ** 2 or far in core:
            break
        ball_pts = pts[np.append(core, far)]
        walked = _walk(ball_pts, center, len(core))
        if walked is None:
            grown, grown_radius = _welzl_mtf(ball_pts, np.arange(len(core)), (len(core),),
                                             dim, slack)
            support = np.arange(len(core) + 1)
        else:
            grown, support = walked
            grown_radius = float(np.sqrt(_sq_dists(ball_pts, grown).max()))
        grown_sq = _sq_dists(pts, grown)
        if not (grown_radius > radius or grown_sq.max() < sq[far]):
            break
        center, radius, sq = grown, grown_radius, grown_sq
        core = np.append(core, far)[support]
    return center, sq


def min_enclosing_ball(config: Configuration, seed: int = 0) -> Ball:
    """Smallest closed ball containing the configuration.

    The ball grows from one point that attains a coordinate's minimum or
    maximum, the first of them in an order shuffled by `seed`.  Each round
    one vectorised pass over all points finds the farthest from the
    current ball; a point beyond a containment slack of _WELZL_SLACK times
    the set's extent is a pivot, and _core_ball walks to the ball of the
    current support and the pivot.  The ball is determined by a support
    set of at most dim+1 boundary points.  A set whose extremes are all of
    it is solved by Welzl's move-to-front recursion over a seeded shuffle
    of the whole set.  If the pivot is already in the support, or a round
    neither grows the radius nor brings the farthest point nearer, the
    last center is kept.  Either way the radius is the farthest point's
    distance from the center, so every point lies inside with no slack.
    """
    pts = config.points
    # The extent column by column: a broadcast over rows of dim entries
    # is several times slower on large sets, as in _sq_dists.
    extent = max(float(np.abs(column - column[0]).max()) for column in pts.T)
    slack = _WELZL_SLACK * extent
    extremes = np.zeros(len(config), dtype=bool)
    extremes[pts.argmin(axis=0)] = extremes[pts.argmax(axis=0)] = True
    core = np.flatnonzero(extremes)  # sorted, so a core of all n points is arange(n)
    order = np.random.default_rng(seed).permutation(len(core))
    if len(core) < len(pts):
        # Grow from one extreme.  Starting from move-to-front over all
        # 2*dim of them solves about five times as many support balls on
        # 5000 Gaussian points in R^6 (159 against 30, medians of 88
        # calls), and how many varies several-fold with the seed.
        core, order = core[order[:1]], np.zeros(1, dtype=int)
    center, sq = _core_ball(pts, core, order, config.dim, slack)
    return Ball(center=center, radius=float(np.sqrt(sq.max())))


def circumsphere(config: Configuration, tol: float = DEFAULT_TOL) -> Sphere:
    """Sphere through all points, solved within their affine hull.

    The hull is reduced to an orthonormal basis, the center is recovered
    from the linear system 2<x, p_i - p_1> = |p_i|^2 - |p_1|^2 restricted to
    hull coordinates, and the result is rejected as NotSpherical when the
    worst equidistance defect exceeds tol * diameter.  That test is first
    decided against a realised lower bound L <= diameter, from a short
    double-normal walk in O(n * dim); the exact diameter is computed only
    when the residual exceeds tol * L, or when L = 0.
    """
    _check_tolerance(tol)
    return _circumsphere(config, tol)


def _circumsphere(config: Configuration, tol: float, diam: float | None = None) -> Sphere:
    """circumsphere, given the configuration's diameter if it is known."""
    if len(config) < 2:
        raise DomainError("circumsphere requires at least two points")
    pts = config.points
    if diam is None:
        # The square root is monotone, so bound <= diameter(config).
        bound = float(np.sqrt(_far_pair_sq(pts, 0)))
        if bound == 0.0:
            bound = diam = diameter(config)
    else:
        bound = diam
    if bound <= 0.0:
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
    # Rounded products are monotone, so residual <= tol * bound already
    # means residual <= tol * diameter.
    if residual > tol * bound:
        if diam is None:
            diam = diameter(config)
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
    return _jung_radius(affine_dimension(config), diameter(config))


def _jung_radius(m: int, diam: float) -> float:
    """sqrt(m / (2m + 2)) * diam: jung_bound from its two inputs, 0 at m = 0."""
    return float(np.sqrt(m / (2.0 * m + 2.0)) * diam)


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
