"""Independent reference implementations used only by the tests.

These deliberately avoid the library's code paths: the enclosing ball is
found by enumerating candidate support subsets, monochromatic copies by
full subset-and-permutation enumeration, and the minimal spread of a planar
target by a complete 2-d grid search with closed-form plane height.
"""

import itertools

import numpy as np
from hypothesis import strategies as st

from diamramsey import Configuration


def dist_matrix(points: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt((diff ** 2).sum(axis=-1))


def brute_force_meb(points) -> tuple[float, np.ndarray]:
    """Smallest enclosing ball by enumeration of support subsets of size <= d+1."""
    pts = np.asarray(points, dtype=float)
    n, d = pts.shape
    best = None
    for size in range(1, min(d + 1, n) + 1):
        for sub in itertools.combinations(range(n), size):
            chosen = pts[list(sub)]
            base = chosen[0]
            if size == 1:
                center = base
            else:
                rel = chosen[1:] - base
                rhs = 0.5 * np.einsum("ij,ij->i", rel, rel)
                sol, *_ = np.linalg.lstsq(rel, rhs, rcond=None)
                center = base + sol
            radius = float(np.max(np.linalg.norm(chosen - center, axis=1)))
            if np.all(np.linalg.norm(pts - center, axis=1) <= radius + 1e-9):
                if best is None or radius < best[0]:
                    best = (radius, center)
    assert best is not None
    return best


def welzl_loop(points, seed: int, slack: float) -> tuple[np.ndarray, float]:
    """Welzl's move-to-front recursion, one point at a time over a Python list.

    The reference for min_enclosing_ball's vectorised scan: the same seeded
    order, support balls and containment test, with the move-to-front done
    by list.insert/pop.  Returns the center and the support ball's radius.
    """
    pts = np.asarray(points, dtype=float)
    dim = pts.shape[1]

    def support_ball(support):
        chosen = pts[list(support)]
        if len(support) == 1:
            return chosen[0], 0.0
        if len(support) == 2:
            center = 0.5 * (chosen[0] + chosen[1])
        else:
            rel = chosen[1:] - chosen[0]
            rhs = 0.5 * np.einsum("ij,ij->i", rel, rel)
            center = chosen[0] + np.linalg.lstsq(rel, rhs, rcond=None)[0]
        return center, float(np.max(np.linalg.norm(chosen - center, axis=1)))

    def mtf(order, support):
        ball = support_ball(support) if support else (None, -1.0)
        if len(support) == dim + 1:
            return ball
        i = 0
        while i < len(order):
            j = order[i]
            center, radius = ball
            if center is None or \
                    float(np.add.reduce((pts[j] - center) ** 2)) > (radius + slack) ** 2:
                ball = mtf(order[:i], support + (j,))
                order.insert(0, order.pop(i))
            i += 1
        return ball

    return mtf([int(i) for i in np.random.default_rng(seed).permutation(len(pts))], ())


def naive_monochromatic_search(host_points, colors, target_points, tol):
    """Full enumeration over same-colour subsets and their permutations."""
    host = np.asarray(host_points, dtype=float)
    target = np.asarray(target_points, dtype=float)
    k = len(target)
    dist_host = dist_matrix(host)
    dist_target = dist_matrix(target)
    for value in sorted(set(colors)):
        indices = [i for i, c in enumerate(colors) if c == value]
        if len(indices) < k:
            continue
        for combo in itertools.combinations(indices, k):
            for perm in itertools.permutations(combo):
                if all(
                    abs(dist_host[perm[i], perm[j]] - dist_target[i, j]) <= tol
                    for i in range(k) for j in range(i)
                ):
                    return tuple(perm)
    return None


def planar_spread_min(points2d, radius, n_grid=481, refine=6):
    """Minimal spread of a planar target inside the 3-ball of given radius.

    Complete parameterization of the relative pose: project the origin onto
    the target's plane at (u, v); the plane height that maximizes norms is
    h = sqrt(r^2 - rho_max^2), giving spread
    r - sqrt(r^2 - (rho_max^2 - rho_min^2)).  Grid over (u, v) plus local
    refinement around the argmin.
    """
    pts = np.asarray(points2d, dtype=float)
    lo = pts.min(axis=0) - radius
    hi = pts.max(axis=0) + radius
    us = np.linspace(lo[0], hi[0], n_grid)
    vs = np.linspace(lo[1], hi[1], n_grid)
    best = np.inf
    for _ in range(refine + 1):
        grid_u, grid_v = np.meshgrid(us, vs, indexing="ij")
        sq = (grid_u[..., None] - pts[:, 0]) ** 2 + (grid_v[..., None] - pts[:, 1]) ** 2
        top = sq.max(axis=-1)
        bottom = sq.min(axis=-1)
        value = np.where(
            top <= radius * radius,
            radius - np.sqrt(np.maximum(radius * radius - (top - bottom), 0.0)),
            np.inf)
        i, j = np.unravel_index(np.argmin(value), value.shape)
        best = min(best, float(value[i, j]))
        du = (us[-1] - us[0]) / (len(us) - 1)
        dv = (vs[-1] - vs[0]) / (len(vs) - 1)
        us = np.linspace(grid_u[i, j] - 2 * du, grid_u[i, j] + 2 * du, 41)
        vs = np.linspace(grid_v[i, j] - 2 * dv, grid_v[i, j] + 2 * dv, 41)
    return best


def rotated_copy_spreads(points, radius, ambient_dim, n, seed):
    """Spreads of n random feasible copies, each rotated before it is placed.

    The reference for the library's translate-only sampler.  The target is
    centred at its brute-force enclosing-ball centre and padded to
    ambient_dim; each copy applies a Haar rotation (sign-fixed QR of a
    Gaussian matrix), draws a centre uniformly in B(0, radius), and shrinks
    that centre toward the origin by bisection until the copy fits.
    """
    pts = np.asarray(points, dtype=float)
    body = np.zeros((len(pts), ambient_dim))
    body[:, :pts.shape[1]] = pts - brute_force_meb(pts)[1]
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((n, ambient_dim, ambient_dim)))
    q *= np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
    images = np.einsum("nij,kj->nki", q, body)
    direction = rng.standard_normal((n, ambient_dim))
    direction /= np.linalg.norm(direction, axis=1)[:, None]
    centres = direction * (radius * rng.random(n) ** (1.0 / ambient_dim))[:, None]

    def fits(g):
        placed = images + (g[:, None] * centres)[:, None, :]
        return np.linalg.norm(placed, axis=2).max(axis=1) <= radius

    lo, hi = np.zeros(n), np.ones(n)
    inside = fits(hi)
    lo[inside] = 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        ok = fits(mid) & ~inside
        lo = np.where(ok, mid, lo)
        hi = np.where(ok | inside, hi, mid)
    norms = np.linalg.norm(images + (lo[:, None] * centres)[:, None, :], axis=2)
    return norms.max(axis=1) - norms.min(axis=1)


def ks_statistic(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic: the largest gap between ECDFs."""
    a, b = np.sort(a), np.sort(b)
    grid = np.concatenate([a, b])
    gap = np.searchsorted(a, grid, side="right") / len(a) \
        - np.searchsorted(b, grid, side="right") / len(b)
    return float(np.abs(gap).max())


def random_configuration(rng: np.random.Generator, max_points=8, max_dim=4,
                         scale=2.0) -> Configuration:
    n = int(rng.integers(1, max_points + 1))
    dim = int(rng.integers(1, max_dim + 1))
    return Configuration.from_points(rng.normal(0.0, scale, (n, dim)))


# Coordinates on a 0.01 grid in [-5, 5]: plenty of geometric variety without
# adversarial subnormal scales that would make rank thresholds meaningless.
_coord = st.integers(min_value=-500, max_value=500).map(lambda k: k / 100.0)


@st.composite
def configurations(draw, min_points=1, max_points=7, max_dim=4):
    dim = draw(st.integers(1, max_dim))
    n = draw(st.integers(min_points, max_points))
    rows = draw(st.lists(
        st.lists(_coord, min_size=dim, max_size=dim),
        min_size=n, max_size=n))
    return Configuration(dim=dim, points=np.array(rows))
