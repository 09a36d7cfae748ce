"""Enclosing balls and circumspheres.

The minimum enclosing ball is walked to (Fischer, Gartner & Kutz 2003) from
the centroid of a core of the points, then grown one farthest-point pivot
at a time (Gartner 1999) until one vectorised pass finds no point outside;
each round walks to the ball of the current support and the pivot.  A set
whose coordinate extremes are all of it, or of at most dim + 1 points, such
as every simplex in any coordinates, is its own core.  Any other set's core
is its distinct coordinate extremes and the 2(dim + 1) points farthest from
the center of its bounding box, which on Gaussian clouds leaves a round or
two at most.  Each support's center and barycentric weights come from one
solve of its small Gram system; only a near-degenerate support takes least
squares.  A round that stalls under rounding, or whose walk does not end,
keeps its center, with the radius measured to the farthest of all the
points, so the ball still holds every point; then the ball is grown again
from one extreme, picked by a seeded shuffle, and the smaller of the two
is kept.  The seed has no other effect.  The circumsphere is solved inside
the affine hull of the points, which is what makes "smallest containing
sphere" well defined for lower-dimensional sets (an off-hull center can
only enlarge the radius).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import Degenerate, DomainError, NotSimplex, NotSpherical, _check_tolerance
from .geometry import (DEFAULT_TOL, Configuration, _diameter, _far_pair_sq, _freeze,
                       _hull_basis, _seed, affine_dimension, diameter)

# Containment slack of the pivot rounds: _WELZL_SLACK times the set's
# extent (its largest coordinate offset from the first point) plus
# _WELZL_ROUNDING times eps * max|x|, the rounding of a center among
# coordinates that large.  The returned radius is the farthest point's
# distance from the returned center, so the output holds every point.
_WELZL_SLACK = 1e-12
_WELZL_ROUNDING = 1.0

# Rows from which _sq_dists sums column by column.
_COLUMN_ROWS = 256

# Smallest squared sine, 1 / ((G^-1)_kk G_kk), between a row p_k - p_0 of a
# support and the span of its other rows at which _circumcenter solves with
# their Gram matrix G: the diagonally scaled G of m rows then has condition
# number at most m^2 / _GRAM_SIN2.
_GRAM_SIN2 = 1e-2

# A cloud's core holds _FAR_CORE * (dim + 1) points farthest from the
# center of its bounding box, besides its coordinate extremes.
_FAR_CORE = 2

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
    in pairs, so wide rows, and the few rows of a walk, take the reduce.
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


def _circumcenter(chosen: np.ndarray):
    """Center of the sphere through `chosen` within their affine hull, and its weights.

    With rel the rows chosen[1:] - chosen[0], the center is chosen[0] +
    beta @ rel, beta solving rel rel^T beta = |rel|^2 / 2, and its
    barycentric weights are (1 - sum(beta), beta).  A near-degenerate
    support (_GRAM_SIN2) takes minimum-norm least squares instead.
    """
    if len(chosen) == 1:
        return chosen[0], np.ones(1)
    if len(chosen) == 2:
        return 0.5 * (chosen[0] + chosen[1]), np.full(2, 0.5)
    base = chosen[0]
    rel = chosen[1:] - base
    rhs = 0.5 * np.einsum("ij,ij->i", rel, rel)
    gram = rel @ rel.T
    try:
        inverse = np.linalg.inv(gram)
        # Each entry is >= 1 for a positive definite gram, but a rounded
        # near-singular one can come out indefinite.
        spread = inverse.diagonal() * gram.diagonal()
    except np.linalg.LinAlgError:
        spread = np.zeros(1)
    if spread.min() > 0.0 and spread.max() <= 1.0 / _GRAM_SIN2:
        beta = inverse @ rhs
        return base + beta @ rel, np.append(1.0 - beta.sum(), beta)
    sol, *_ = np.linalg.lstsq(rel, rhs, rcond=None)
    beta, *_ = np.linalg.lstsq(rel.T, sol, rcond=None)
    return base + sol, np.append(1.0 - beta.sum(), beta)


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
    center and T, or None if the walk cycles: a point is about to leave a
    support T that has left a point before, or four steps per point do not
    end the walk.  Co-spherical points can cycle under rounding, as they
    join and leave T at steps of length about 0.  Seeded walks over clouds,
    spheres and repeated sets in R^2-R^8, moved up to 1e10 from the origin,
    and over simplices in R^2-R^100 took at most one step per point.
    """
    support = [pivot]
    left = set()  # the supports a point has left
    for _ in range(4 * len(pts)):
        target, weights = _circumcenter(pts[support])
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
        k = int(weights.argmin())
        if weights[k] >= 0.0:
            return center, support
        if frozenset(support) in left:
            return None
        left.add(frozenset(support))
        del support[k]
    return None


def _core_ball(pts: np.ndarray, core: np.ndarray, start: np.ndarray, slack: float):
    """The smallest ball of a core subset, grown by farthest-point pivots.

    The core is walked to from `start` with its farthest point as the
    pivot (_walk).  Then each round one vectorised pass over all points
    finds the farthest from the current ball; a point beyond radius + slack
    is a pivot, and the ball of the support and the pivot, by Welzl's
    lemma the ball with the pivot on its boundary, is walked to from the
    current center.  Its support is the next round's core.  Returns the
    center, the squared distances of all points to it, and whether the
    last pass found no pivot.  A round stalls when its walk does not end,
    or when rounding beyond the slack makes the pivot one of the support
    or the round neither grows the radius nor brings the farthest point
    nearer.  Then the current center is returned (`start` if the core's
    own walk does not end); its squared distances include every point.
    In exact arithmetic each round grows the radius; at most n rounds run.
    """
    core_pts = pts[core]
    walked = _walk(core_pts, start, int(_sq_dists(core_pts, start).argmax()))
    center = start if walked is None else walked[0]
    sq = _sq_dists(pts, center)
    if walked is None:
        return center, sq, False
    radius = float(np.sqrt(sq[core].max()))
    core = core[walked[1]]
    for _ in range(len(pts)):
        far = int(sq.argmax())
        if sq[far] <= (radius + slack) ** 2:
            return center, sq, True
        if far in core:
            break
        ball_pts = pts[np.append(core, far)]
        walked = _walk(ball_pts, center, len(core))
        if walked is None:
            break
        grown, support = walked
        grown_radius = float(np.sqrt(_sq_dists(ball_pts, grown).max()))
        grown_sq = _sq_dists(pts, grown)
        if not (grown_radius > radius or grown_sq.max() < sq[far]):
            break
        center, radius, sq = grown, grown_radius, grown_sq
        core = np.append(core, far)[support]
    return center, sq, False


def _distinct(pts: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The rows whose points differ from every earlier row's, in order.

    A repeated point in a support makes its Gram system singular, which
    sends _circumcenter to least squares.
    """
    order = np.lexsort(pts[rows].T)  # stable: equal points keep their order
    ranked = pts[rows[order]]
    repeat = np.zeros(len(rows), dtype=bool)
    repeat[order[1:]] = (ranked[1:] == ranked[:-1]).all(axis=1)
    return rows[~repeat]


def min_enclosing_ball(config: Configuration, seed: int = 0) -> Ball:
    """Smallest closed ball containing the configuration.

    The ball of a core of the points is walked to from the core's
    centroid, then grown by farthest-point pivot rounds (_core_ball): each
    round one vectorised pass over all points finds the farthest from the
    current ball; a point beyond the containment slack (_WELZL_SLACK,
    _WELZL_ROUNDING) is a pivot, and the round walks to the ball of the
    current support and the pivot.  A set whose coordinate extremes are
    all of it (every witness the library builds), or of at most dim + 1
    points (a simplex in hull coordinates need not be all extremes), is
    its own core.  Any other set's core is its distinct points among those
    that attain a coordinate's minimum or maximum and the 2(dim + 1)
    farthest from the center of its bounding box.  If the core's walk does
    not end or a round stalls, keeping the last center, the ball is grown
    again from one extreme, the first in an order shuffled by `seed`, and
    the smaller of the two balls is kept; `seed` has no other effect.
    Either way the radius is the farthest point's distance from the
    center, so every point lies inside with no slack.  A seed that is not
    a nonnegative integer raises DomainError.
    """
    seed = _seed(seed)
    pts = config.points
    n, dim = pts.shape
    lowest, highest = pts.argmin(axis=0), pts.argmax(axis=0)
    axes = np.arange(dim)
    low, high = pts[lowest, axes], pts[highest, axes]
    # Rounding is monotone, so the largest |p - p_0| of a coordinate is
    # attained at its minimum or maximum.
    extent = float(np.maximum(high - pts[0], pts[0] - low).max())
    peak = float(np.maximum(high, -low).max())
    slack = _WELZL_SLACK * extent + _WELZL_ROUNDING * np.finfo(float).eps * peak
    extremes = np.zeros(n, dtype=bool)
    extremes[lowest] = extremes[highest] = True
    if extremes.all() or n <= dim + 1:
        core = np.arange(n)
    else:
        chosen = extremes.copy()
        near = max(n - _FAR_CORE * (dim + 1), 0)
        chosen[np.argpartition(_sq_dists(pts, 0.5 * (low + high)), near)[near:]] = True
        core = _distinct(pts, np.flatnonzero(chosen))
    center, sq, clean = _core_ball(pts, core, pts[core].mean(axis=0), slack)
    if not clean:
        first = np.flatnonzero(extremes)
        first = first[np.random.default_rng(seed).permutation(len(first))[:1]]
        grown, grown_sq, _ = _core_ball(pts, first, pts[first[0]], slack)
        if grown_sq.max() < sq.max():
            center, sq = grown, grown_sq
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
    return _circumsphere(config, tol, _far_pair_sq(config.points, 0))[0]


def _circumsphere(config: Configuration, tol: float, far_sq: float):
    """circumsphere, decided on `far_sq`, a realised squared distance of the set.

    Returns the sphere and the exact diameter if deciding needed it, else
    None.
    """
    if len(config) < 2:
        raise DomainError("circumsphere requires at least two points")
    pts = config.points
    # The square root is monotone, so bound <= diameter(config).
    bound = float(np.sqrt(far_sq))
    diam = None
    if bound == 0.0:
        bound = diam = _diameter(pts)
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
            diam = _diameter(pts, far_sq=far_sq)
        if residual > tol * diam:
            raise NotSpherical(
                f"equidistance residual {residual:.3e} exceeds {tol:.1e} * diameter")
    return Sphere(center=center, radius=radius, carrier=basis, residual=residual), diam


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
    circumcenter's barycentric coordinates come with it from one solve of
    the vertices' Gram system (_circumcenter); a face case (coordinate 0)
    counts as contained via -tol.
    """
    _check_tolerance(tol)
    m = affine_dimension(config)
    if len(config) != m + 1 or m == 0:
        raise NotSimplex(
            f"{len(config)} points of affine dimension {m} do not form a simplex")
    _, bary = _circumcenter(config.points)
    return bool(np.min(bary) >= -tol)
