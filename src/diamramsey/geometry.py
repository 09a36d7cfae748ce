"""Finite point configurations, congruence testing, and rigid-motion records.

A configuration is an ordered finite point set in R^dim.  All predicates in
this module depend only on pairwise Euclidean distances, so they are
invariant under rotations, translations and reflections.  Values are frozen
after construction and safe to share across threads.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields, is_dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, _check_tolerance

DEFAULT_TOL = 1e-9

# Float64 entries per block of diameter's recompute; a block holds this
# many // (columns * dim) rows.  Kept rows whose pairs fit in one block are
# screened in one Gram product.
_DIAMETER_BLOCK = 1 << 20

# Rows per block of diameter's Gram screen, at most: 32 rows against a few
# thousand columns keep the block's product in cache.
_SCREEN_ROWS = 32

# Passes of the double-normal walk behind _far_pair_sq.
_WALK_PASSES = 3

# Float64 differences per broadcast of is_congruent's row comparison.
_PLAN_ENTRIES = 1 << 20


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr, dtype=float)
    arr.flags.writeable = False
    return arr


def _as_json(record):
    """A result record as its JSON report: its dataclass fields, in declaration
    order, with arrays as nested lists, enums as their values and nested
    records as dicts, so each record's report order is its field order."""
    if is_dataclass(record):
        return {field.name: _as_json(getattr(record, field.name)) for field in fields(record)}
    if isinstance(record, np.ndarray):
        return record.tolist()
    return record.value if isinstance(record, Enum) else record


def _integer(value, what: str) -> int:
    """value as a plain int, or DomainError if it is not an integer.

    operator.index accepts Python and numpy integers but not floats such as
    2.0 or 0.5, which int() would truncate; bools are rejected too, so True
    never stands for 1.
    """
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise DomainError(f"{what} must be an integer, got {value!r}")


def _seed(value) -> int:
    """value as a plain int seed, or DomainError if it is not a nonnegative integer."""
    seed = _integer(value, "seed")
    if seed < 0:
        raise DomainError(f"seed must be nonnegative, got {seed}")
    return seed


@dataclass(frozen=True, eq=False)
class Configuration:
    """An ordered, nonempty point set in R^dim."""

    dim: int
    points: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dim", _integer(self.dim, "ambient dimension"))
        try:
            pts = np.asarray(self.points, dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise DomainError(f"points must be real numbers: {exc}") from exc
        if pts.ndim != 2:
            raise DomainError("points must be a 2-d array of shape (n, dim)")
        if self.dim < 1:
            raise DomainError("ambient dimension must be a positive integer")
        n, d = pts.shape
        if n == 0:
            raise DomainError("a configuration must contain at least one point")
        if d != self.dim:
            raise DomainError(f"points have {d} coordinates, expected dim={self.dim}")
        if not np.all(np.isfinite(pts)):
            raise DomainError("all coordinates must be finite")
        object.__setattr__(self, "points", _freeze(pts))

    @classmethod
    def from_points(cls, points) -> "Configuration":
        """Build a configuration, inferring the ambient dimension."""
        arr = np.asarray(points, dtype=float)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.ndim != 2 or arr.shape[1] == 0:
            raise DomainError("points must form a nonempty (n, dim) array")
        return cls(dim=arr.shape[1], points=arr)

    def __len__(self) -> int:
        return self.points.shape[0]

    def __iter__(self):
        return iter(self.points)


@dataclass(frozen=True, eq=False)
class RigidMotion:
    """An isometry x -> rotation @ x + translation, as a frozen record.

    estimate_c reports its placement as one (SpreadEstimate.best_motion);
    nothing here checks that the rotation is orthogonal.
    """

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        rot = np.asarray(self.rotation, dtype=float)
        tr = np.asarray(self.translation, dtype=float)
        if rot.ndim != 2 or rot.shape[0] != rot.shape[1]:
            raise DomainError("rotation must be a square matrix")
        if tr.shape != (rot.shape[0],):
            raise DomainError("translation length must match rotation dimension")
        if not (np.all(np.isfinite(rot)) and np.all(np.isfinite(tr))):
            raise DomainError("rigid motion entries must be finite")
        object.__setattr__(self, "rotation", _freeze(rot))
        object.__setattr__(self, "translation", _freeze(tr))


def diameter(config: Configuration) -> float:
    """Largest pairwise distance; 0 for a singleton.

    Bit for bit the maximum of distance_matrix(config), without its n*n*d
    tensor, by one path for every size.  _reaching_rows keeps the rows K
    that can reach a realised lower bound L (|x_i - x_j| <= |x_i| + max|x|
    about the centroid), both rows of the largest distance among them.  One
    of two Gram screens of K against K picks the rows whose screened maximum
    is near the largest, and only those are recomputed, against K, with
    distance_matrix's formula.  When K's pairs fit in one block, as on
    Gaussian clouds (12-93 of 2000-3000 rows in R^3-R^6), a 30-degree cap
    (177 of 2000) and sets of up to 591 points in R^3, one product screens
    them all.  Only when most rows reach L, as on a full sphere, is each row
    screened within its projection window
    |p_i + p_j| <= sqrt(2|x_i|^2 + 2 max|x|^2 - L^2): 3000 points on the
    unit sphere in R^3 screen about a quarter of their n*n pairs, and 4%
    about the sphere's own centre, where obstruction_verdict screens them.
    """
    return _diameter(config.points)


def _diameter(pts: np.ndarray, center: np.ndarray | None = None,
              far_sq: float | None = None) -> float:
    """diameter() of the rows of pts, pruned about `center` (default the centroid).

    `far_sq`, a realised squared distance of pts, replaces the walk from the
    point farthest from the centre.  Neither changes the value.  The prune,
    the screen and the recompute run on the points over _scaled's power of
    two, from the largest coordinate of the centred points, and the result
    is scaled back.  Every set of two or more distinct points takes the one
    path: _reaching_rows runs once, _screened_rows screens its kept rows K
    (in one product when len(K)^2 * dim fits in one block, else within
    windows), and the candidates are recomputed against K alone.
    """
    n, d = pts.shape
    rows = max(1, _DIAMETER_BLOCK // (n * d))
    if center is None:
        # One product, ten times faster than numpy's mean down the rows,
        # and each term is at most max|p|, so the sum cannot overflow.
        center = np.full(n, 1.0 / n) @ pts
    x = pts - center
    peak = float(np.max(np.abs(x)))
    if peak == 0.0:
        return 0.0  # all points coincide
    k, pts = _scaled(pts, peak, center)
    x = np.ldexp(x, -k, out=x)
    sq = np.einsum("ij,ij->i", x, x)
    if far_sq is None:
        far_sq = _usable_sq(_far_pair_sq(pts, int(sq.argmax())))
    else:
        far_sq = math.ldexp(_usable_sq(far_sq), -2 * k)
    kept = _reaching_rows(sq, far_sq, d)
    cols = pts if len(kept) == n else pts[kept]  # a sphere keeps every row: no copy
    candidates = _screened_rows(x, sq, kept, far_sq, min(rows, _SCREEN_ROWS))
    rows = max(1, _DIAMETER_BLOCK // (len(kept) * d))
    best = 0.0
    for start in range(0, len(candidates), rows):
        best = max(best, float(np.max(_row_sq_dists(cols, candidates[start:start + rows]))))
    # The rounded sqrt is monotone, so this is distance_matrix's maximum.
    return math.ldexp(float(np.sqrt(best)), k)


def _scaled(pts: np.ndarray, peak: float | None = None, center=None) -> tuple[int, np.ndarray]:
    """(k, pts / 2^k), 2^k the power of two every entry that squares coordinates uses.

    peak is the rows' largest coordinate offset from `center` (the origin
    if None), or near it (default: from the first row).  Scaling by 2^k is
    exact, so an entry that computes on pts / 2^k and scales back keeps its
    bits wherever no square leaves the float range, and its result at 2^j
    pts is 2^j times that at pts.  So k = 0, and pts is not copied, while
    peak and the rows lie within 2^+-128 (a copy of a large cloud costs
    page faults); else k is the frexp exponent of peak, or larger for rows
    2^500 times as far from the origin, such as coincident points.
    """
    if peak is None:
        center = pts[0]
        peak = float(np.abs(pts - center).max())
    far = peak if center is None else max(peak, float(np.abs(center).max()))
    if 2.0 ** -128 <= peak and far <= 2.0 ** 128:
        return 0, pts
    k = math.frexp(max(peak, math.ldexp(far, -500)))[1]
    return k, np.ldexp(pts, -k)


def _norm(x: np.ndarray, axis=None):
    """np.linalg.norm(x, axis=axis) taken over _scaled's power of two."""
    k, x = _scaled(x, float(np.abs(x).max(initial=0.0)))
    norms = np.linalg.norm(x, axis=axis)
    return np.ldexp(norms, k) if k else norms


def _row_sq_dists(pts: np.ndarray, rows) -> np.ndarray:
    """The squares of distance_matrix's entries in the given rows, bit for bit."""
    diff = pts[rows, None, :] - pts[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def _far_pair_sq(pts: np.ndarray, start: int) -> float:
    """A realised squared distance of pts, at most the square of the diameter.

    The double-normal walk (Malandain & Boissonnat 2002): from row `start`,
    each O(n*d) pass moves to the farthest point and stops once the
    distance stops growing, or after _WALK_PASSES passes.  The entries are
    distance_matrix's, so their square root never exceeds diameter().
    """
    best = 0.0
    for _ in range(_WALK_PASSES):
        dists = _row_sq_dists(pts, [start])[0]
        far = int(dists.argmax())
        if not dists[far] > best:
            break
        best, start = float(dists[far]), far
    return best


def _screened_rows(x: np.ndarray, sq: np.ndarray, kept: np.ndarray, far_sq: float,
                   rows: int) -> np.ndarray:
    """The positions in `kept` of the rows that may hold the largest distance.

    x holds the points centred on some point c, then scaled by the power
    of two that pts is scaled by (_diameter), and sq their squared norms.
    `kept` holds the rows that _reaching_rows keeps for L^2 = `far_sq`, so
    both rows of the largest distance.  Each kept row is screened with the
    Gram form |x_i|^2 + |x_j|^2 - 2<x_i, x_j> against kept rows, and a row
    is a candidate when its screened maximum lies within twice the rounding
    bound B (derived below) of the largest.  When the kept pairs fit in one block
    (len(kept)^2 * dim <= _DIAMETER_BLOCK), one product screens every pair;
    else _windowed_screen screens each row only against its window.  The
    proofs use nothing of the centre c but the rounding of x = p - c.
    """
    d = x.shape[1]
    eps = np.finfo(float).eps
    if len(kept) ** 2 * d <= _DIAMETER_BLOCK:
        order = np.arange(len(kept))
        cols, col_sq = x[kept], sq[kept]
        screen = _gram_row_max(cols, -2.0 * cols.T, col_sq, np.empty(len(kept) ** 2)) + col_sq
    else:
        order, screen = _windowed_screen(x, sq, kept, far_sq, rows)
    # The rounding bound.  Let u = eps/2 and R^2 = max_i |x_i|^2 (x centred,
    # then scaled by a power of two, which is exact).  Against the true
    # squared distance D_ij of the input points:
    #   * centring rounds each coordinate of p_i - c by at most u relative,
    #     which moves |x_i - x_j|^2 off D_ij by at most 8uR^2;
    #   * the screen S_ij rounds |x_i|^2, |x_j|^2 and the Gram product by
    #     d*u*R^2, d*u*R^2 and 2*d*u*R^2, and its two additions by 3uR^2 and
    #     4uR^2;
    #   * diameter's recompute E_ij rounds each difference by u relative (2u
    #     once squared) and sums d products, so it is off by (d + 2)u * 4R^2.
    # In all |S_ij - E_ij| <= (8d + 23)uR^2 < B = (4d + 16) eps R^2.  If E is
    # largest at (i, j), then rows i and j survive the prune, j lies in i's
    # window (the one product's holds every kept row), and i's screened
    # maximum is at least E_ij - B >= S_kl - 2B for every screened pair
    # (k, l), so row i is a candidate.
    bound = (4 * d + 16) * eps * float(sq.max())
    return order[screen >= screen.max() - 2.0 * bound]


def _windowed_screen(x: np.ndarray, sq: np.ndarray, kept: np.ndarray, far_sq: float,
                     rows: int) -> tuple[np.ndarray, np.ndarray]:
    """(order, screen): the kept rows' Gram maxima over their windows, in `order`.

    The kept rows are sorted by their projection p on the direction of the
    point farthest from the centre c.  By the parallelogram law
    |x_i - x_j|^2 = 2|x_i|^2 + 2|x_j|^2 - |x_i + x_j|^2, and
    |x_i + x_j| >= |p_i + p_j|, so row i reaches L only against the rows
    with |p_i + p_j| <= w_i = sqrt(2|x_i|^2 + 2R^2 - L^2), R = max|x|; after
    the sort those form one contiguous slice.  Each block of `rows`
    consecutive rows is screened against the union of its windows; a row
    with an empty window gets -inf.  3000 points of the unit sphere in R^3
    screen about 28% of their n*n pairs about the centroid, 4% about the
    sphere's centre, where every |x| is the radius.
    """
    d = x.shape[1]
    eps = np.finfo(float).eps
    top = int(sq.argmax())
    proj = (x @ (x[top] / np.sqrt(sq[top])))[kept]
    order = np.argsort(proj)
    kept, proj = kept[order], proj[order]
    cols = np.take(x, kept, axis=0)  # one gather, of the sorted rows
    col_sq = sq[kept]
    r_sq = float(sq[top])
    # The window's slack.  Let (a, b) be where distance_matrix's squared
    # entries E are largest, both rows kept by _reaching_rows, and
    # u = eps/2.  Exact arithmetic on the floats x_i first:
    #   * L^2 is an entry of E, so E_ab >= L^2, and by _screened_rows' bound B
    #     |x_a - x_b|^2 >= E_ab - (4d + 16)uR^2 >= L^2 - (4d + 16)uR^2;
    #   * `sq` rounds each |x_i|^2 by du relative, so with q = |p_a + p_b|
    #     (p exact on the unit axis) q^2 <= 2sq_a + 2r_sq - L^2 + (8d + 16)uR^2;
    #   * the computed t = 2sq_a + (2r_sq - L^2 + s) rounds by at most
    #     2uR^2 + 2uR^2 + 4uR^2, so q^2 <= t - s + (8d + 24)uR^2.
    # Then the linear side.  The axis rounds by (d/2 + 2)u relative, so its
    # length is within that of 1, and each computed projection P_i, one
    # d-term dot product whether the product runs over all rows or the kept
    # ones, is off by duR more: |P_a + P_b| <= q + (3d + 4)uR.  The window
    # w = sqrt(t) rounds down by 2uR at most, and the bounds -(w + P_a) and
    # w - P_a by 3uR.  So b is inside a's bounds when q + (3d + 9)uR <=
    # sqrt(t), which holds if t >= q^2 + (12d + 37)uR^2, since q <= 2R.  Both
    # parts give s = (20d + 61)uR^2 <= (10d + 31) eps r_sq to first order.
    # Rows whose bound t is negative get w = 0.
    slack = (10 * d + 31) * eps * r_sq
    half = np.sqrt(np.maximum(2.0 * col_sq + (2.0 * r_sq - far_sq + slack), 0.0))
    first = np.searchsorted(proj, -(half + proj), side="left")
    last = np.searchsorted(proj, half - proj, side="right")
    neg2xt = -2.0 * cols.T
    buf = np.empty(rows * len(kept))
    screen = np.full(len(kept), -np.inf)
    for start in range(0, len(kept), rows):
        lo = int(first[start:start + rows].min())
        hi = int(last[start:start + rows].max())
        if lo < hi:
            block = slice(start, start + rows)
            screen[block] = _gram_row_max(cols[block], neg2xt[:, lo:hi], col_sq[lo:hi], buf)
            screen[block] += col_sq[block]
    return order, screen


def _usable_sq(far_sq: float) -> float:
    """A realised squared distance L^2 as the screen may use it: 0 out of range.

    L^2 >= 2^-970 (eps L^2 >= tiny) keeps the squares that underflow in
    distance_matrix's entries within u L^2 in all (u = eps/2).  Outside
    that range, or at L^2 = inf, L says nothing, and L^2 = 0 keeps every
    row and every pair.
    """
    eps = np.finfo(float).eps
    return far_sq if np.finfo(float).tiny <= eps * far_sq < np.inf else 0.0


def _gram_row_max(rows: np.ndarray, neg2xt: np.ndarray, col_sq: np.ndarray,
                  buf: np.ndarray) -> np.ndarray:
    """Each row's largest |x_j|^2 - 2<x_i, x_j> over the columns of neg2xt.

    The product goes into the front of `buf`, which the caller reuses from
    block to block: a fresh rows x columns array per block is much slower.
    """
    gram = np.matmul(rows, neg2xt, out=buf[:len(rows) * neg2xt.shape[1]].reshape(
        len(rows), neg2xt.shape[1]))
    gram += col_sq
    return gram.max(axis=1)


def _reaching_rows(sq: np.ndarray, far_sq: float, d: int) -> np.ndarray:
    """The rows i with |x_i| + R >= L, up to rounding.

    `sq` holds the squared norms |x_i|^2 of points in R^d centred on a
    point c and scaled by a power of two; R = max|x_i|.  `far_sq` is L^2,
    a realised squared distance scaled alike, or 0, which keeps every row.
    Since |x_i - x_j| <= |x_i| + R, a row that misses L cannot hold the
    largest distance; the slack, derived below, keeps the rows that hold
    it.  A sphere keeps every row.
    """
    eps = np.finfo(float).eps
    # Let u = eps/2, y_i = p_i - c in exact arithmetic, scaled like x, and E
    # distance_matrix's squared entries, largest at (a, b), with D_ab the
    # exact squared distance.  L^2 = E_st for the walk's pair, so
    # L^2 <= E_ab.
    #   * E rounds each difference by u relative, its square by u, and sums
    #     d terms, so E_ab <= (1 + (d + 2)u) D_ab, with the underflowing
    #     squares within u L^2 (see _screened_rows).
    #   * Through c, sqrt(D_ab) <= |y_a| + |y_b| <= |y_a| + max|y|, and
    #     centring rounds each coordinate by u relative, so
    #     |y_i| <= |x_i| / (1 - u).
    #   * The keep test rounds |x_i|^2 by du relative, each square root by u
    #     (so |x_i| and R by (d/2 + 1)u), the sum by u and its square by u:
    #     the computed (|x_a| + R)^2 is within (d + 5)u below its value.
    # So the computed (|x_a| + R)^2 >= (1 - (2d + 9)u) L^2 to first order.
    # The threshold L^2 - slack, rounded up by at most u L^2, stays below it
    # with slack = (d + 6) eps L^2 = (2d + 12)u L^2, and rows a and b (E is
    # symmetric) are both kept.
    reach = np.sqrt(sq) + np.sqrt(sq.max())
    return np.flatnonzero(reach * reach >= far_sq - (d + 6) * eps * far_sq)


def distance_matrix(config: Configuration) -> np.ndarray:
    """Symmetric matrix of pairwise Euclidean distances, taken over _scaled's power of two."""
    k, pts = _scaled(config.points)
    dist = np.sqrt(_row_sq_dists(pts, slice(None)))
    return np.ldexp(dist, k) if k else dist


def affine_dimension(config: Configuration, tol: float = DEFAULT_TOL) -> int:
    """Rank of the span of p_i - p_1, with a relative singular value cutoff.

    Only the singular values are computed: the rank needs no basis.
    """
    _check_tolerance(tol)
    pts = config.points
    if len(pts) == 1:
        return 0
    return _rank(np.linalg.svd(pts[1:] - pts[0], compute_uv=False), tol)


def _rank(svals: np.ndarray, tol: float) -> int:
    """How many of the descending singular values exceed tol times the largest."""
    return int(np.sum(svals > tol * svals[0]))


def _hull_basis(points: np.ndarray, tol: float) -> np.ndarray:
    """Orthonormal rows spanning the p_i - p_1, shape (m, dim).

    The rows are the right singular vectors whose singular value exceeds
    tol times the largest, so m is the affine dimension at that cutoff; a
    single point or coincident points give m = 0.  It and affine_dimension
    hold the package's only SVDs: every caller that needs the affine hull's
    basis goes through it, and affine_dimension, which needs only its
    dimension, takes the singular values alone.
    """
    if len(points) == 1:
        return np.zeros((0, points.shape[1]))
    _, svals, vt = np.linalg.svd(points[1:] - points[0], full_matrices=False)
    return vt[:_rank(svals, tol)]


def _match(dist_a: np.ndarray, dist_b: np.ndarray, order, candidates,
           tol: float) -> dict[int, int] | None:
    """An injective map i -> j matching dist_a[i, i2] to dist_b[j, j2] within tol.

    Backtracking: the points i of dist_a are placed in `order`, each on an
    unused j from candidates[i] whose distances to the points already placed
    agree within the absolute tol.  Returns the map, or None if none exists.
    Worst case factorial; intended for small sets.
    """
    assignment: dict[int, int] = {}

    def extend(k: int) -> bool:
        if k == len(order):
            return True
        i = order[k]
        for j in candidates[i]:
            if j in assignment.values():
                continue
            if all(abs(dist_a[i, i2] - dist_b[j, j2]) <= tol
                   for i2, j2 in assignment.items()):
                assignment[i] = j
                if extend(k + 1):
                    return True
                del assignment[i]
        return False

    return assignment if extend(0) else None


def is_congruent(config_a: Configuration, config_b: Configuration,
                 tol: float = DEFAULT_TOL) -> bool:
    """True iff some relabelling matches the two distance matrices.

    Distances must agree within tol times the larger of the two diameters,
    so the answer does not depend on units and is symmetric in the two sets.
    The sorted distance multisets and sorted rows prune first; the search
    then places the most distance-distinctive points of `config_a` first so
    contradictions surface early.  Worst case is factorial; intended for
    small sets (n <= 12).
    """
    _check_tolerance(tol)
    n = len(config_a)
    if n != len(config_b):
        return False
    if n == 1:
        return True
    dist_a = distance_matrix(config_a)
    dist_b = distance_matrix(config_b)
    tol = tol * max(dist_a.max(), dist_b.max())

    flat_a = np.sort(dist_a[np.triu_indices(n, k=1)])
    flat_b = np.sort(dist_b[np.triu_indices(n, k=1)])
    if not np.all(np.abs(flat_a - flat_b) <= tol):
        return False

    order, candidates = _search_plan(dist_a, dist_b, tol)
    return _match(dist_a, dist_b, order, candidates, tol) is not None


def _search_plan(dist_a: np.ndarray, dist_b: np.ndarray, tol: float):
    """_match's order and candidates, from the distance rows sorted once.

    Point i of a may go to point j of b only if their sorted rows agree
    entrywise within tol: sorted sequences realise the optimal bottleneck
    matching on the line, so that is a necessary condition.  The pairs are
    compared in broadcasts of at most _PLAN_ENTRIES differences, a single
    one for every n up to 101.  The order places first the points whose
    sorted row has the most gaps wider than tol (a stable sort, so ties keep
    their index order).
    """
    n = len(dist_a)
    sorted_a, sorted_b = np.sort(dist_a, axis=1), np.sort(dist_b, axis=1)
    rows = max(1, _PLAN_ENTRIES // (n * n))
    compatible = np.concatenate([
        (np.abs(sorted_a[i:i + rows, None] - sorted_b[None]) <= tol).all(axis=2)
        for i in range(0, n, rows)])
    distinct = (np.diff(sorted_a, axis=1) > tol).sum(axis=1)
    order = sorted(range(n), key=lambda i: -int(distinct[i]))
    return order, [np.flatnonzero(row).tolist() for row in compatible]
