"""Independent reference implementations used only by the tests.

These deliberately avoid the library's code paths: the enclosing ball is
found by enumerating candidate support subsets, and by Welzl's
move-to-front recursion in place of the library's walks (only the support
balls are shared), is_congruent's pruning by
comparing sorted rows one pair at a time, monochromatic copies by
full subset-and-permutation enumeration, the minimal spread of a planar
target by a complete 2-d grid search with closed-form plane height, the
spread solve's reduced program by SLSQP (scipy, imported where it is used)
and by the primal-dual interior point that the library's active-set pivot
replaced, the pivot's first multipliers by the KKT solve that their closed
form replaced, and the sampler's copies by building each one point by point.  The
invariance tests' seeded rigid motions (random_motion, apply_motion) and the
spread of a placed copy (spread) live here too: the library only reports a
placement.
"""

import itertools
import math

import numpy as np
from hypothesis import strategies as st

from diamramsey import Configuration, RigidMotion
from diamramsey.spheres import _circumcenter, _sq_dists
from diamramsey.spread import _CHUNK


def spread(config: Configuration) -> float:
    """Max point norm minus min point norm; 0 iff the set sits on an origin sphere."""
    norms = np.linalg.norm(config.points, axis=1)
    return float(norms.max() - norms.min())


def dist_matrix(points: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt((diff ** 2).sum(axis=-1))


def random_motion(dim: int, seed=0, translation_scale: float = 1.0) -> RigidMotion:
    """Seeded random rigid motion: Haar orthogonal rotation + normal shift.

    The rotation orthonormalizes a matrix of independent standard normals
    (QR with sign correction, Haar on O(dim)), then its determinant sign is
    set uniformly at random, so reflections occur half the time.
    """
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    q = q * signs
    if bool(rng.integers(0, 2)) != (np.linalg.det(q) < 0):
        q[:, 0] *= -1.0
    translation = translation_scale * rng.standard_normal(dim)
    return RigidMotion(rotation=q, translation=translation)


def apply_motion(config: Configuration, motion: RigidMotion) -> Configuration:
    """Map every point to rotation @ p + translation."""
    pts = config.points @ motion.rotation.T + motion.translation
    return Configuration(points=pts)


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


# Grid sets on which an enclosing-ball walk that tested for exact zeros
# ended on a ball too large: GRID_11, whose frame's ball (the ball of its
# hull coordinates over its diameter) was 6.7% too large, then seven sets
# of distinct points of {-1, 0, 1}^d times a scale, from 3000 seeded draws
# (d in 2-4, d + 2 to 15 points): the public ball was up to 8.5% too large
# on the first three and the frame's up to 14.1% on the other four.
GRID_11 = 0.005549896469012534 * np.array([
    [-1, -1, 1], [0, -1, 0], [0, 0, -1], [1, -1, -1], [-1, 1, 1], [0, -1, 1], [0, 1, -1],
    [1, 1, -1], [0, 1, 0], [1, 1, 1], [1, 0, 0]])
TOO_LARGE_GRID_BALLS = [GRID_11] + [scale * np.array(rows, dtype=float) for scale, rows in [
    (336.77948793816665, [[0, 0, 1], [1, 0, 0], [1, 1, -1], [1, 1, 1], [1, 1, 0], [-1, 1, -1],
                          [0, -1, -1], [0, -1, 1], [1, -1, 1], [1, -1, -1], [-1, 1, 1]]),
    (892.9312268482395, [[0, 0, 0, -1], [1, -1, -1, 1], [-1, 1, -1, 1], [1, 1, 0, 1],
                         [0, 0, -1, -1], [-1, 1, 0, 0]]),
    (37.98232893447872, [[0, 0, 0], [1, 1, 0], [0, 1, 0], [-1, 0, 0], [-1, -1, -1], [1, -1, -1],
                         [0, 0, -1], [-1, -1, 1], [1, -1, 1], [-1, 1, 1], [1, 1, -1]]),
    (871.9322215280479, [[-1, 0, 1], [-1, 1, 1], [1, 1, -1], [-1, 0, 0], [1, 1, 1], [0, -1, 0],
                         [-1, -1, 1], [1, 1, 0], [0, 1, 0], [1, 0, -1], [-1, 1, -1]]),
    (410.2667730065998, [[0, -1, 0], [-1, 0, -1], [-1, -1, -1], [1, -1, -1], [0, 0, 0], [1, 1, 0],
                         [1, 0, 1], [0, 1, -1], [-1, 0, 1], [-1, 1, -1], [-1, 1, 1], [-1, -1, 0],
                         [0, 0, -1]]),
    (758.8815562021829, [[0, -1, 0], [-1, 1, 1], [0, 0, -1], [1, -1, -1], [-1, -1, 1],
                         [-1, -1, 0], [1, -1, 1], [-1, 0, -1], [-1, 0, 0], [-1, -1, -1]]),
    (178.67442200085404, [[-1, -1, -1, 0], [1, 0, 1, 1], [1, -1, 0, -1], [0, 0, 1, 1], [1, 1, 0, 0],
                          [-1, 0, 1, -1], [0, 0, 1, 0], [-1, -1, 0, 1], [0, 1, 0, -1], [1, 0, 1, 0],
                          [1, 1, 1, 0], [-1, 1, 1, 0]])]]


@st.composite
def co_spherical_sets(draw):
    """Sets with many co-spherical points, scaled, rotated and relabelled:
    distinct points of {-1, 0, 1}^d, or points on a sphere off the origin,
    d = 2-4, d + 2 to 10 points."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(2, 4))
    if draw(st.booleans()):
        grid = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=dim)))
        size = draw(st.integers(dim + 2, min(10, len(grid))))
        pts = grid[rng.choice(len(grid), size=size, replace=False)]
    else:
        pts = rng.normal(size=(draw(st.integers(dim + 2, 10)), dim))
        pts = pts / np.linalg.norm(pts, axis=1)[:, None] + rng.normal(size=dim)
    motion = random_motion(dim, seed=rng.integers(2**32), translation_scale=0.0)
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    return scale * pts[rng.permutation(len(pts))] @ motion.rotation.T


def welzl_mtf(pts: np.ndarray, order: np.ndarray, support: tuple[int, ...],
              dim: int, slack: float):
    """Welzl's move-to-front recursion (Welzl 1991) over `order`, reordered in place.

    The reference ball for min_enclosing_ball's walks, with the library's
    support balls (spheres._circumcenter), so that on a set with one
    smallest ball the two agree up to rounding.  After each ball change one
    vectorised pass over the rest of the order finds the next point
    outside the ball by more than `slack`.  A ball change at the front of
    the order, or one that fills the support to dim+1 points, needs no
    recursion: the ball is that support's ball.  Returns the center and
    the support ball's radius; (None, -1.0) for an empty order and support.
    On a simplex in R^d it solves up to 2^(d+1) support balls.
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
            center, radius = welzl_mtf(pts, order[:i].copy(), support + (j,), dim, slack)
            order[1:i + 1] = order[:i]
            order[0] = j
        i += 1
    return center, radius


def _support_ball(pts: np.ndarray, support: tuple[int, ...]):
    """Smallest ball with all of `support` on its boundary, center in their hull."""
    if not support:
        return None, -1.0
    if len(support) == 1:
        return pts[support[0]], 0.0
    chosen = pts[list(support)]
    center, _ = _circumcenter(chosen)
    return center, float(np.sqrt(_sq_dists(chosen, center).max()))


def welzl_loop(points, seed: int, slack: float,
               sin2: float = 1e-2) -> tuple[np.ndarray, float]:
    """Welzl's move-to-front recursion, one point at a time over a Python list.

    The reference for welzl_mtf's vectorised scan: the same seeded order,
    support balls and containment test, with the move-to-front done by
    list.insert/pop.  Its support balls mirror the library's formula on
    purpose, so the two agree bit for bit: the Gram system G of the
    support, solved with its inverse when every (G^-1)_kk G_kk is at most
    1 / sin2, else by least squares (brute_force_meb stays on least squares
    as the independent check).  Returns the center and the support ball's
    radius.
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
            gram = rel @ rel.T
            try:
                inverse = np.linalg.inv(gram)
                direct = all(0.0 < inverse[i, i] * gram[i, i] <= 1.0 / sin2
                             for i in range(len(gram)))
            except np.linalg.LinAlgError:
                direct = False
            if direct:
                center = chosen[0] + (inverse @ rhs) @ rel
            else:
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


def sorted_rows_compatible(row_a, row_b, tol: float) -> bool:
    """is_congruent's former pairwise row test: sorted rows agree within tol."""
    return bool(np.all(np.abs(np.sort(row_a) - np.sort(row_b)) <= tol))


def pairwise_search_plan(dist_a, dist_b, tol: float):
    """is_congruent's former search order and candidates, one row pair at a time."""
    n = len(dist_a)

    def distinctiveness(row) -> int:
        return int(np.sum(np.diff(np.sort(row)) > tol))

    order = sorted(range(n), key=lambda i: -distinctiveness(dist_a[i]))
    candidates = [[j for j in range(n) if sorted_rows_compatible(dist_a[i], dist_b[j], tol)]
                  for i in range(n)]
    return order, candidates


def hull_coordinates(points) -> np.ndarray:
    """The points in an orthonormal basis of their affine hull, centred at their mean."""
    pts = np.asarray(points, dtype=float)
    rel = pts - pts.mean(axis=0)
    _, svals, vt = np.linalg.svd(rel, full_matrices=False)
    rank = int(np.sum(svals > 1e-12 * svals[0]))
    return rel @ vt[:rank].T


def slsqp_levels(a, radius, y0):
    """One SLSQP pass on the spread solve's reduced program, started at y0.

    min u - l over (y, u, l) with l <= f_i(y) <= u, f_i(y) = |a_i|^2 -
    2<a_i, y>, and |a_i - y| <= r for every point, each ball constraint on
    its own: the library's first solver, replaced by a numpy interior point
    (interior_point below) and that by the active-set pivot.  Returns y.
    """
    from scipy.optimize import minimize

    a = np.asarray(a, dtype=float)
    n, m = a.shape
    sq = np.einsum("ij,ij->i", a, a)
    r2 = radius * radius
    ones, zeros = np.ones((n, 1)), np.zeros((n, 1))

    def levels(y):
        return sq - 2.0 * a @ y

    constraints = [
        {"type": "ineq", "fun": lambda z: z[m] - levels(z[:m]),
         "jac": lambda z: np.hstack([2.0 * a, ones, zeros])},
        {"type": "ineq", "fun": lambda z: levels(z[:m]) - z[m + 1],
         "jac": lambda z: np.hstack([-2.0 * a, zeros, -ones])},
        {"type": "ineq",
         "fun": lambda z: r2 - np.einsum("ij,ij->i", a - z[:m], a - z[:m]),
         "jac": lambda z: np.hstack([2.0 * (a - z[:m]), zeros, zeros])},
    ]
    start = levels(y0)
    result = minimize(lambda z: z[m] - z[m + 1],
                      np.concatenate([y0, [start.max(), start.min()]]),
                      jac=lambda z: np.concatenate([np.zeros(m), [1.0, -1.0]]),
                      method="SLSQP", constraints=constraints,
                      options={"ftol": 1e-16, "maxiter": 1000})
    return result.x[:m]


# The interior point's settings, in units of the unit-diameter target:
# iterations stop once the mean complementarity is below _IPM_GAP and the
# dual residual below _IPM_RESIDUAL times the largest multiplier, or after
# _IPM_PATIENCE iterations that do not improve on the best once it is
# within _IPM_STALL_MERIT of those targets.  _IPM_STEP is the fraction of
# the step to the boundary taken; a solve with one common step length
# takes _IPM_TAIL_STEP once the mean complementarity is below
# _IPM_TAIL_GAP.  The KKT finish takes _IPM_FINISH_STEPS Newton steps and
# accepts constraint values up to _IPM_FINISH_SLACK.
def kkt_gradients(a: np.ndarray, upper, lower: int, y: np.ndarray) -> np.ndarray:
    """The gradients in (y, u, l) of the constraints active at the pivot's
    first step, one row each: the upper levels (-2a_k, -1, 0), the lower
    level (2a_j, 0, 1) and the paraboloid (2y, 1, 0)."""
    m = a.shape[1]
    rows = np.zeros((m + 2, m + 2))
    rows[:m, :m], rows[:m, m] = -2.0 * a[upper], -1.0
    rows[m, :m], rows[m, m + 1] = 2.0 * a[lower], 1.0
    rows[m + 1, :m], rows[m + 1, m] = 2.0 * y, 1.0
    return rows


def kkt_multipliers(a: np.ndarray, upper, lower: int, y: np.ndarray) -> np.ndarray:
    """The multipliers of kkt_gradients' rows at y, by one solve of the
    stationarity equations: the gradients weighted to cancel the cost's
    (0, 1, -1)."""
    pull = np.zeros(a.shape[1] + 2)
    pull[-2:] = -1.0, 1.0
    return np.linalg.solve(kkt_gradients(a, upper, lower, y).T, pull)


_IPM_MAX_ITERATIONS = 60
_IPM_GAP = 1e-17
_IPM_RESIDUAL = 1e-13
_IPM_STALL_MERIT = 1e6
_IPM_PATIENCE = 3
_IPM_STEP = 0.99
_IPM_TAIL_GAP = 1e-10
_IPM_TAIL_STEP = 1.0 - 1e-4
_IPM_FINISH_STEPS = 6
_IPM_FINISH_SLACK = 1e-16


def interior_point(a: np.ndarray, sq: np.ndarray, radius: float, y0: np.ndarray):
    """The reduced program's optimal y, its multipliers (lam, mu, nu), and diagnostics.

    a holds the target's coordinates in its affine hull, centered at its
    enclosing-ball center, sq their squared norms, and radius exceeds their
    largest norm.  The n ball constraints |a_k - y|^2 <= r^2 collapse into
    one: |a_k - y|^2 = f_k(y) + |y|^2 and u >= max f_k, so they are exactly
    u + |y|^2 <= r^2.  That leaves min u - l over 2n linear constraints,
    l <= f_k(y) <= u, and one paraboloid, in m + 2 variables, solved by
    Mehrotra's primal-dual predictor-corrector method.  lam and mu weight
    the upper and lower level constraints, nu the paraboloid.

    Levels are measured from R^2 = max |a_k|^2, so the paraboloid reads
    v + |y|^2 <= delta = r^2 - R^2 with v = u - R^2, and its slack keeps
    full relative precision when r is within rounding of R.  The start is
    y0/2, strictly inside, with slacks from the levels there and multipliers
    that are dual feasible at y = 0 (lam = 1/n + nu p, mu = 1/n, where p
    are convex weights, fitted by least squares, of the points within delta
    of the farthest, whose weighted mean is the center), scaled to a common
    complementarity.  Each iteration inverts one Newton system and applies
    it twice: the predictor, then the corrector, whose right-hand side is
    the predictor's plus the shift of its centring.  Each step goes
    _IPM_STEP of the way to the boundary.  The steps first take one common
    length for the primal and the dual, since the paraboloid's curvature
    ties the dual residual to the primal step, and go _IPM_TAIL_STEP of the
    way once the mean complementarity is below _IPM_TAIL_GAP, so the last
    iterations cut the gap 10^4-fold, not 100-fold.  The paraboloid's slack
    is updated exactly, quadratic term included.  When the iterations stall
    short of _IPM_GAP and _IPM_RESIDUAL, the KKT equations of the
    constraints whose multiplier exceeds their slack at the best iterate are
    solved by Newton's method; that point replaces the iterate if it is
    feasible with nonnegative multipliers.  A solve that still does not
    converge, on the rare degenerate program where the common length
    stalls, is repeated from the same start with separate primal and dual
    lengths, and its point is kept if it converges.  The diagnostics are
    the Newton systems solved ("iterations", both solves and their KKT
    finishes counted) and the stage that converged: "interior_point",
    "separate_steps" (the repeated solve) or "kkt_finish"; None if none
    did.  The library's solver until its active-set pivot replaced it, kept
    as the pivot's reference: it takes spread._pivot's arguments but the
    guess, and returns its results but on_hull and the rows.
    """
    n, m = a.shape
    reach2 = float(sq.max())
    reach = math.sqrt(reach2)
    excess = sq - reach2
    delta = (radius - reach) * (radius + reach)
    size = 2 * n + 1
    jac = np.zeros((size, m + 2))
    jac[:n, :m], jac[:n, m] = -2.0 * a, -1.0
    jac[n:2 * n, :m], jac[n:2 * n, m + 1] = 2.0 * a, 1.0
    jac[2 * n, m] = 1.0
    rhs = np.concatenate([-excess, excess])
    cost = np.zeros(m + 2)
    cost[m], cost[m + 1] = 1.0, -1.0
    diag = np.arange(m)

    def values(x):
        y = x[:m]
        return np.concatenate([jac[:2 * n] @ x - rhs, [x[m] + y @ y - delta]])

    y = 0.5 * y0
    levels = excess - 2.0 * a @ y
    room = 0.5 * (delta - levels.max() - y @ y)
    x = np.concatenate([y, [levels.max() + room, levels.min() - room]])
    s = -values(x)
    support = excess >= -delta
    weights = np.zeros(n)
    weights[support] = np.linalg.lstsq(
        np.vstack([a[support].T, np.ones(int(support.sum()))]),
        np.concatenate([np.zeros(m), [1.0]]), rcond=None)[0]
    weights = np.maximum(weights, 0.0)
    weights /= weights.sum()
    target = s[:-1].mean() / n
    nu = target / s[-1]
    z = np.concatenate([1.0 / n + nu * weights, np.full(n, 1.0 / n), [nu]])
    z *= target * size / (s @ z)

    def lengths(dx, ds, dz):
        """Primal and dual step lengths to the boundary, and |dy|^2."""
        primal_len = 1.0 / max(1.0, float(-(ds[:-1] / s[:-1]).min()))
        # the paraboloid's exact slack s + t ds - t^2 |dy|^2 stays positive
        curve, slope = float(dx[:m] @ dx[:m]), float(ds[-1])
        root = math.sqrt(max(slope * slope + 4.0 * curve * s[-1], 0.0)) - slope
        if root > 0.0:
            primal_len = min(primal_len, 2.0 * s[-1] / root)
        dual_len = 1.0 / max(1.0, float(-(dz / z).min()))
        return primal_len, dual_len, curve

    start, systems, solve = (x, z, s), 0, None
    for separate in (False, True):
        x, z, s = start
        best, since, stage = (math.inf, x, z, s), 0, None
        for _ in range(_IPM_MAX_ITERATIONS):
            jac[2 * n, :m] = 2.0 * x[:m]
            dual = cost + jac.T @ z
            primal = values(x) + s
            gap = float(s @ z) / size
            merit = max(gap / _IPM_GAP,
                        float(np.abs(dual).max()) / (_IPM_RESIDUAL * (1.0 + z.max())))
            if merit < best[0]:
                best, since = (merit, x, z, s), 0
            elif best[0] <= _IPM_STALL_MERIT:
                since += 1
                if since >= _IPM_PATIENCE:
                    break
            if merit <= 1.0:
                stage = "separate_steps" if separate else "interior_point"
                break
            ratio = z / s
            hess = (jac.T * ratio) @ jac
            hess[diag, diag] += 2.0 * z[-1]
            try:
                inverse = np.linalg.inv(hess)
            except np.linalg.LinAlgError:
                break
            systems += 1
            # The predictor's centring is s*z, so (z*primal - s*z)/s = ratio*primal - z.
            predictor = -dual - jac.T @ (ratio * primal - z)
            dx = inverse @ predictor
            ds = -primal - jac @ dx
            dz = -z - ratio * ds
            primal_len, dual_len, _ = lengths(dx, ds, dz)
            if not separate:
                primal_len = dual_len = min(primal_len, dual_len)
            predicted = float((s + primal_len * ds) @ (z + dual_len * dz)) / size
            # The corrector's centring is s*z + ds*dz - sigma*gap, with
            # sigma = (predicted/gap)^3: the predictor's right-hand side plus
            # jac^T (shift / s), shift = ds*dz - sigma*gap.
            shift = ds * dz
            shift -= (predicted / gap) ** 3 * gap
            shift /= s
            dx = inverse @ (predictor + jac.T @ shift)
            ds = -primal - jac @ dx
            dz = -z - shift - ratio * ds
            step = _IPM_STEP if separate or gap >= _IPM_TAIL_GAP else _IPM_TAIL_STEP
            primal_len, dual_len, curve = lengths(dx, ds, dz)
            if not separate:
                primal_len = dual_len = min(primal_len, dual_len)
            primal_len, dual_len = min(1.0, step * primal_len), min(1.0, step * dual_len)
            if not primal_len > 0.0:
                break
            paraboloid = s[-1] + primal_len * ds[-1] - primal_len ** 2 * curve
            x, z, s = x + primal_len * dx, z + dual_len * dz, s + primal_len * ds
            s[-1] = paraboloid

        _, x, z, s = best
        if stage is None:
            systems += _IPM_FINISH_STEPS
            finish = _kkt_finish(jac, values, cost, m, x, z, z > s)
            if finish is not None:
                (x, z), stage = finish, "kkt_finish"
        if solve is None or stage is not None:
            solve = x[:m], z[:n], z[n:2 * n], float(z[-1])
        if stage is not None:
            break
    return (*solve, {"iterations": systems, "stage": stage})


def _kkt_finish(jac, values, cost, m, x, z, active):
    """Newton's method on the KKT equations with the active rows as equalities.

    Returns (x, z) when the result is feasible, up to _IPM_FINISH_SLACK, with
    nonnegative multipliers and stationarity to _IPM_RESIDUAL relative;
    otherwise None.
    """
    rows = int(active.sum())
    za = z[active]
    system = np.zeros((m + 2 + rows, m + 2 + rows))
    for _ in range(_IPM_FINISH_STEPS):
        jac[-1, :m] = 2.0 * x[:m]
        part = jac[active]
        residual = np.concatenate([cost + part.T @ za, values(x)[active]])
        system[:m + 2, m + 2:], system[m + 2:, :m + 2] = part.T, part
        if active[-1]:
            system[np.arange(m), np.arange(m)] = 2.0 * za[-1]
        step = np.linalg.lstsq(system, -residual, rcond=None)[0]
        x, za = x + step[:m + 2], za + step[m + 2:]
    jac[-1, :m] = 2.0 * x[:m]
    stationarity = float(np.abs(cost + jac[active].T @ za).max())
    if (za.min(initial=0.0) < 0.0 or values(x).max() > _IPM_FINISH_SLACK
            or stationarity > _IPM_RESIDUAL * (1.0 + float(np.abs(za).max(initial=0.0)))):
        return None
    full = np.zeros_like(z)
    full[active] = za
    return x, full


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


def _explicit_shrink_factors(offsets, dots, gaps):
    """Largest g in [0, 1] with |b_i + g*t| <= r for every point i."""
    disc = dots * dots
    disc -= offsets * gaps[:, None]
    np.sqrt(disc, out=disc)
    roots = (disc - dots).min(axis=0)
    factors = np.divide(roots, offsets, out=np.ones_like(offsets),
                        where=offsets > 0.0)
    return np.minimum(factors, 1.0)


def explicit_copy_norms(centered, radius, n_samples, seed):
    """Yield the point norms of the sampler's copies, (k, count) per chunk.

    The reference for the fused sampler kernel: the same seeded draws of
    ceil(count/2) translations t, then the copies centered + g*t and, after
    them, centered + g*(-t), each built point by point and every norm taken
    from its coordinates; row i holds point i's norm in every copy.
    """
    dim = centered.shape[1]
    gaps = np.minimum(np.einsum("kd,kd->k", centered, centered)
                      - radius * radius, 0.0)
    n_chunks = (n_samples + _CHUNK - 1) // _CHUNK
    for chunk in range(n_chunks):
        count = min(_CHUNK, n_samples - chunk * _CHUNK)
        half = (count + 1) // 2
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(chunk,)))
        t = rng.standard_normal((dim, half))
        radii = radius * rng.random(half) ** (1.0 / dim)
        t *= radii / np.maximum(np.sqrt(np.einsum("dn,dn->n", t, t)), 1e-300)
        t = np.hstack([t, -t[:, :count - half]])
        t *= _explicit_shrink_factors(np.einsum("dn,dn->n", t, t), centered @ t, gaps)
        norms = np.empty((len(centered), count))
        for i, point in enumerate(centered):
            copy = t + point[:, None]
            norms[i] = np.einsum("dn,dn->n", copy, copy)
        yield np.sqrt(norms, out=norms)


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
def configurations(draw, min_points=1, max_points=7, max_dim=4, min_dim=1):
    dim = draw(st.integers(min_dim, max_dim))
    n = draw(st.integers(min_points, max_points))
    rows = draw(st.lists(
        st.lists(_coord, min_size=dim, max_size=dim),
        min_size=n, max_size=n))
    return Configuration(points=np.array(rows))
