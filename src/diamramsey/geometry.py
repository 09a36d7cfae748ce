"""Finite point configurations, rigid motions, and congruence testing.

A configuration is an ordered finite point set in R^dim.  All predicates in
this module depend only on pairwise Euclidean distances, so they are
invariant under rotations, translations and reflections.  Values are frozen
after construction and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonOrthogonal, _check_tolerance

DEFAULT_TOL = 1e-9

# Orthogonality defect allowed on rotation matrices, max-norm of R^T R - I.
ORTHOGONALITY_TOL = 1e-9

# Float64 entries per block of diameter's screen and recompute; a block
# holds this many // (n * dim) rows.
_DIAMETER_BLOCK = 1 << 20


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr, dtype=float)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class Configuration:
    """An ordered, nonempty point set in R^dim."""

    dim: int
    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
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
    """An isometry x -> rotation @ x + translation.

    The rotation matrix may be orientation reversing; orthogonality is only
    enforced (within ORTHOGONALITY_TOL) when the motion is applied.
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

    @property
    def dim(self) -> int:
        return self.rotation.shape[0]

    def orthogonality_defect(self) -> float:
        eye = np.eye(self.dim)
        return float(np.max(np.abs(self.rotation.T @ self.rotation - eye)))

    def is_orthogonal(self, tol: float = ORTHOGONALITY_TOL) -> bool:
        _check_tolerance(tol)
        return self.orthogonality_defect() <= tol

    @classmethod
    def identity(cls, dim: int) -> "RigidMotion":
        return cls(rotation=np.eye(dim), translation=np.zeros(dim))

    def inverse(self) -> "RigidMotion":
        rt = self.rotation.T
        return RigidMotion(rotation=rt, translation=-(rt @ self.translation))

    def compose(self, other: "RigidMotion") -> "RigidMotion":
        """The motion applying `other` first, then self."""
        return RigidMotion(
            rotation=self.rotation @ other.rotation,
            translation=self.rotation @ other.translation + self.translation,
        )


def diameter(config: Configuration) -> float:
    """Largest pairwise distance; 0 for a singleton.

    Bit for bit the maximum of distance_matrix(config), without its n*n*d
    tensor.  A Gram-form screen |x_i|^2 + |x_j|^2 - 2<x_i, x_j> over row
    blocks of the centred points keeps each row's maximum; only the rows
    whose maximum lies within twice the screen's rounding bound of the
    largest one are recomputed with distance_matrix's formula.  A set whose
    whole tensor fits in one block skips the screen.
    """
    pts = config.points
    n, d = pts.shape
    rows = max(1, _DIAMETER_BLOCK // (n * d))
    candidates = np.arange(n) if rows >= n else _screened_rows(pts, rows)
    best = 0.0
    for start in range(0, len(candidates), rows):
        diff = pts[candidates[start:start + rows], None, :] - pts[None, :, :]
        best = max(best, float(np.max(np.einsum("ijk,ijk->ij", diff, diff))))
    # The rounded sqrt is monotone, so this is distance_matrix's maximum.
    return float(np.sqrt(best))


def _screened_rows(pts: np.ndarray, rows: int) -> np.ndarray:
    """The rows of pts that may hold the largest distance, screened `rows` at a time."""
    n, d = pts.shape
    x = pts - pts.mean(axis=0)
    peak = float(np.max(np.abs(x)))
    if peak == 0.0:
        return np.arange(1)  # all points coincide
    x = np.ldexp(x, -np.frexp(peak)[1])
    sq = np.einsum("ij,ij->i", x, x)
    neg2xt = -2.0 * x.T
    screen = np.empty(n)
    for start in range(0, n, rows):
        gram = x[start:start + rows] @ neg2xt
        gram += sq
        screen[start:start + rows] = gram.max(axis=1) + sq[start:start + rows]
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
    # largest at (i, j), then row i's screened maximum is at least
    # E_ij - B >= S_kl - 2B for every pair (k, l), so row i is kept.
    bound = (4 * d + 16) * np.finfo(float).eps * float(sq.max())
    return np.flatnonzero(screen >= screen.max() - 2.0 * bound)


def distance_matrix(config: Configuration) -> np.ndarray:
    """Symmetric matrix of pairwise Euclidean distances."""
    pts = config.points
    diff = pts[:, None, :] - pts[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


def apply_motion(config: Configuration, motion: RigidMotion,
                 tol: float = ORTHOGONALITY_TOL) -> Configuration:
    """Map every point to rotation @ p + translation.

    Raises NonOrthogonal if the rotation fails the orthogonality tolerance,
    and DomainError on a dimension mismatch.
    """
    if motion.dim != config.dim:
        raise DomainError(
            f"motion acts on R^{motion.dim} but configuration lives in R^{config.dim}")
    if not motion.is_orthogonal(tol):
        raise NonOrthogonal(
            f"rotation deviates from orthogonality by {motion.orthogonality_defect():.3e}")
    pts = config.points @ motion.rotation.T + motion.translation
    return Configuration(dim=config.dim, points=pts)


def affine_dimension(config: Configuration, tol: float = DEFAULT_TOL) -> int:
    """Rank of the span of p_i - p_1, with a relative singular value cutoff."""
    _check_tolerance(tol)
    return len(_hull_basis(config.points, tol))


def _hull_basis(points: np.ndarray, tol: float) -> np.ndarray:
    """Orthonormal rows spanning the p_i - p_1, shape (m, dim).

    The rows are the right singular vectors whose singular value exceeds
    tol times the largest, so m is the affine dimension at that cutoff; a
    single point or coincident points give m = 0.  This is the package's
    only SVD: every caller that needs the affine hull goes through it.
    """
    if len(points) == 1:
        return np.zeros((0, points.shape[1]))
    _, svals, vt = np.linalg.svd(points[1:] - points[0], full_matrices=False)
    return vt[:int(np.sum(svals > tol * svals[0]))]


def _sorted_rows_compatible(row_a: np.ndarray, row_b: np.ndarray, tol: float) -> bool:
    # Sorted sequences realize the optimal bottleneck matching on the line,
    # so entrywise comparison is a valid necessary condition.
    return bool(np.all(np.abs(np.sort(row_a) - np.sort(row_b)) <= tol))


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

    def distinctiveness(row: np.ndarray) -> int:
        vals = np.sort(row)
        return int(np.sum(np.diff(vals) > tol))

    order = sorted(range(n), key=lambda i: -distinctiveness(dist_a[i]))
    candidates = [
        [j for j in range(n) if _sorted_rows_compatible(dist_a[i], dist_b[j], tol)]
        for i in range(n)
    ]
    return _match(dist_a, dist_b, order, candidates, tol) is not None


def random_motion(dim: int, seed=0, translation_scale: float = 1.0) -> RigidMotion:
    """Seeded random rigid motion: Haar-ish orthogonal rotation + normal shift.

    The rotation is obtained by orthonormalizing a matrix of independent
    standard normals (QR with sign correction, Haar on O(dim)), then its
    determinant sign is set uniformly at random, so reflections occur half
    the time.  Deterministic given the seed.
    """
    if dim < 1:
        raise DomainError("dimension must be positive")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    gauss = rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(gauss)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    q = q * signs
    want_reflection = bool(rng.integers(0, 2))
    has_reflection = np.linalg.det(q) < 0
    if want_reflection != has_reflection:
        q = q.copy()
        q[:, 0] *= -1.0
    translation = translation_scale * rng.standard_normal(dim)
    return RigidMotion(rotation=q, translation=translation)
