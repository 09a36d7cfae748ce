"""Independent reference values for the benchmark's output checks.

Nothing here calls diamramsey: the spread constant comes from the convex
reduction of the placement problem, the diameter from a chunked pairwise
scan, and the enclosing-ball checks from plain distances and a dual bound.
scipy is imported inside the functions that use it, so that importing this module adds nothing to
the benchmark's set-up time.
"""

from __future__ import annotations

import math

import numpy as np

CHUNK = 256  # rows per block of the pairwise diameter scan


def spread_reference(points, radius: float) -> float:
    """c(A, r): the least spread of a congruent copy of A in the origin r-ball.

    A placement matters only through where the origin sits relative to A.
    Write it as y + h*n with y in aff(A) and h the height off it; the spread
    falls as h grows, so the optimum takes h^2 = r^2 - max|a_i - y|^2 and
    c = r - sqrt(r^2 - t*), where
    t* = min_y [max_i f_i(y) - min_j f_j(y)], f_i(y) = |a_i|^2 - 2<a_i, y>,
    subject to |a_i - y| <= r.  That is a convex program in m + 2 variables
    (y, an upper level u and a lower level l), solved here with SLSQP.
    Valid for copies placed in R^(m+1), the default ambient dimension.
    """
    from scipy.optimize import minimize

    pts = np.asarray(points, dtype=float)
    rel = pts - pts.mean(axis=0)
    _, svals, vt = np.linalg.svd(rel, full_matrices=False)
    m = int(np.sum(svals > 1e-12 * svals[0]))
    a = rel @ vt[:m].T
    sq = np.einsum("ij,ij->i", a, a)
    n = len(a)
    r2 = radius * radius

    def levels(y):
        return sq - 2.0 * a @ y

    ones, zeros = np.ones((n, 1)), np.zeros((n, 1))
    constraints = [
        {"type": "ineq", "fun": lambda z: z[m] - levels(z[:m]),
         "jac": lambda z: np.hstack([2.0 * a, ones, zeros])},
        {"type": "ineq", "fun": lambda z: levels(z[:m]) - z[m + 1],
         "jac": lambda z: np.hstack([-2.0 * a, zeros, -ones])},
        {"type": "ineq",
         "fun": lambda z: r2 - np.einsum("ij,ij->i", a - z[:m], a - z[:m]),
         "jac": lambda z: np.hstack([2.0 * (a - z[:m]), zeros, zeros])},
    ]
    y = np.zeros(m)
    for _ in range(2):  # a warm restart tightens the last digits
        start = np.concatenate([y, [levels(y).max(), levels(y).min()]])
        result = minimize(lambda z: z[m] - z[m + 1], start,
                          jac=lambda z: np.concatenate([np.zeros(m), [1.0, -1.0]]),
                          method="SLSQP", constraints=constraints,
                          options={"ftol": 1e-16, "maxiter": 1000})
        y = result.x[:m]
    f = levels(y)
    if f.max() + y @ y > r2 * (1.0 + 1e-12):
        raise ArithmeticError("reference placement left the ball")
    return radius - math.sqrt(r2 - float(f.max() - f.min()))


def chunked_diameter(points) -> float:
    """Largest pairwise distance, CHUNK rows at a time."""
    pts = np.asarray(points, dtype=float)
    best = 0.0
    for start in range(0, len(pts), CHUNK):
        block = pts[start:start + CHUNK]
        sq = ((block[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1)
        best = max(best, float(sq.max()))
    return math.sqrt(best)


def max_distance_from(points, center) -> float:
    pts = np.asarray(points, dtype=float)
    return float(np.sqrt(((pts - np.asarray(center)) ** 2).sum(axis=1)).max())


def meb_lower_bound(points, center, radius: float) -> float:
    """A certified lower bound on the least radius of a ball holding the points.

    For any weights lam >= 0 summing to 1 and any centre x,
    max_i |p_i - x|^2 >= sum_i lam_i |p_i - x|^2 >= sum_i lam_i |p_i - q|^2,
    q = sum_i lam_i p_i, so the square root of that weighted variance bounds
    the optimum from below.  The weights go on the points within relative
    1e-9 of the given ball's boundary, fitted by NNLS so that q is the given
    centre: for the minimal ball q reaches it (the centre of the minimal ball
    lies in the hull of its boundary points) and the bound equals the radius.
    """
    from scipy.optimize import nnls

    pts = np.asarray(points, dtype=float)
    center = np.asarray(center, dtype=float)
    dist = np.sqrt(((pts - center) ** 2).sum(axis=1))
    boundary = pts[dist >= radius * (1.0 - 1e-9)]
    if len(boundary) == 0:
        return 0.0
    weight_row = radius * np.ones(len(boundary))  # scaled like the coordinates
    lam, _ = nnls(np.vstack([boundary.T, weight_row]), np.append(center, radius))
    lam /= lam.sum()
    q = lam @ boundary
    return math.sqrt(float(lam @ ((boundary - q) ** 2).sum(axis=1)))
