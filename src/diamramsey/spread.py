"""Spread minimization over congruent copies inside a ball.

The spread of a placed configuration is (max point norm) - (min point norm).
For a target A and radius r < circumradius(A), every congruent copy of A
inside the origin-centered r-ball has spread at least a constant
c(A, r) > 0.  Two independent ways to get at it:

* estimate_c: the exact convex reduction, with a certified bracket
  c_lower <= c(A, r) <= c_estimate.  Write the origin as y + h*n, with y in
  aff(A) (coordinates in R^m) and h its height off the hull.  The spread
  falls as h grows, so the optimum takes h^2 = r^2 - max_i |a_i - y|^2, and
  c = r - sqrt(r^2 - t*), where t* is the least max_i f_i(y) - min_j f_j(y),
  f_i(y) = |a_i|^2 - 2<a_i, y>, over the y with every |a_i - y| <= r: a
  convex program in m + 2 variables (y and two levels).  Its n ball
  constraints collapse into one paraboloid, and a numpy primal-dual
  interior-point method solves it (see _solve_levels).  c_lower comes from
  the Lagrangian dual at the solver's own multipliers (see _dual_bound).
* sample_spread_oracle: the minimum spread over a reproducible stream of
  random feasible copies, an upper bound.  A copy is the target centered at
  its enclosing-ball center, b_i, translated by g*t: t is drawn uniformly in
  B(0, r) and shrunk radially (closed form g in [0, 1]) until the copy
  fits.  The shrink gives the sampler full support over the copies' norm
  profiles and concentrates mass on the feasibility boundary, where minima
  live.  Translates suffice: a copy R b_i + g*t under a Haar rotation R
  independent of t has norms |b_i + g*R^T t|, its g depends on t only
  through R^T t, and R^T t is again uniform in B(0, r); so norms, spreads
  and shell indices have the same distribution with R left out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EmptySample, Infeasible, NonConvergence, _check_positive
from .geometry import Configuration, RigidMotion, affine_dimension, diameter
from .spheres import min_enclosing_ball

# Relative feasibility slack: a copy fits when the enclosing-ball radius is
# at most r * (1 + FEASIBILITY_SLACK).
FEASIBILITY_SLACK = 1e-9
# Relative rounding slack of the spread solve.  The dual bound on t* is
# lowered by ROUNDING_SLACK * r^2, which lowers c_lower by at least
# ROUNDING_SLACK * r / 2; a radius inside FEASIBILITY_SLACK is raised to
# ROUNDING_SLACK past the enclosing radius; a sampled spread may undercut
# c_lower by ROUNDING_SLACK * r before it counts as a contradiction.
ROUNDING_SLACK = 1e-12
# Interior-point settings, in units of the unit-diameter target: iterations
# stop once the mean complementarity is below _IPM_GAP and the dual residual
# below _IPM_RESIDUAL times the largest multiplier, or after _IPM_PATIENCE
# iterations that do not improve on the best once it is within
# _IPM_STALL_MERIT of those targets.  _IPM_STEP is the fraction of the step
# to the boundary taken.  The KKT finish takes _IPM_FINISH_STEPS Newton
# steps and accepts constraint values up to _IPM_FINISH_SLACK.
_IPM_MAX_ITERATIONS = 60
_IPM_GAP = 1e-17
_IPM_RESIDUAL = 1e-13
_IPM_STALL_MERIT = 1e6
_IPM_PATIENCE = 3
_IPM_STEP = 0.99
_IPM_FINISH_STEPS = 6
_IPM_FINISH_SLACK = 1e-16
_CHUNK = 1 << 16


def spread(config: Configuration) -> float:
    """Max point norm minus min point norm; 0 iff the set sits on an origin sphere."""
    return _spread_of(config.points)


def _spread_of(points: np.ndarray) -> float:
    norms = np.linalg.norm(points, axis=1)
    return float(norms.max() - norms.min())


def embed_target(config: Configuration, ambient_dim: int) -> Configuration:
    """Isometric copy of the configuration in R^ambient_dim.

    Pads coordinates with zeros when the ambient dimension grows; when it
    shrinks, the points are first re-expressed in an orthonormal basis of
    their affine hull (requires affine dimension <= ambient_dim).
    """
    if ambient_dim < 1:
        raise DomainError("ambient dimension must be positive")
    pts = config.points
    if config.dim > ambient_dim:
        m = affine_dimension(config)
        if m > ambient_dim:
            raise DomainError(
                f"affine dimension {m} does not fit in R^{ambient_dim}")
        rel = pts - pts[0]
        _, svals, vt = np.linalg.svd(rel, full_matrices=False)
        if m == 0:
            pts = np.zeros((len(config), 1))
        else:
            pts = rel @ vt[:m].T
    out = np.zeros((len(config), ambient_dim))
    out[:, :pts.shape[1]] = pts
    return Configuration(dim=ambient_dim, points=out)


@dataclass(frozen=True, eq=False)
class SpreadProblem:
    """Target set, ball radius, and the ambient dimension to embed into.

    ambient_dim defaults to affine_dimension(target) + 1: one extra
    dimension is enough, since any higher-dimensional copy lies in the
    subspace spanned by its points and the origin.
    """

    target: Configuration
    radius: float
    ambient_dim: int | None = None

    def __post_init__(self):
        _check_positive(self.radius, "ball radius")
        m = affine_dimension(self.target)
        if self.ambient_dim is None:
            object.__setattr__(self, "ambient_dim", m + 1)
        if self.ambient_dim < max(m, 1):
            raise DomainError(
                f"ambient dimension {self.ambient_dim} below affine dimension {m}")


@dataclass(frozen=True, eq=False)
class SpreadEstimate:
    """Certified bracket c_lower <= c(A, r) <= c_estimate, with its placement.

    c_estimate is the spread of the placement best_motion makes of
    embed_target(problem.target, problem.ambient_dim); max_norm is that
    placement's largest point norm.  c_lower is a certified lower bound.
    best_restart is the index of the solve pass whose placement is returned;
    restarts is the cap on passes.  The solve's outputs are None when no
    copy fits.
    """

    c_estimate: float | None
    best_motion: RigidMotion | None
    restarts: int
    oracle_value: float | None
    feasible: bool
    seed: int
    radius: float
    ambient_dim: int
    tolerance: float
    c_lower: float | None = None
    best_restart: int | None = None
    max_norm: float | None = None

    def to_dict(self) -> dict:
        motion = None
        if self.best_motion is not None:
            motion = {
                "rotation": self.best_motion.rotation.tolist(),
                "translation": self.best_motion.translation.tolist(),
            }
        return {
            "feasible": self.feasible,
            "c_estimate": self.c_estimate,
            "c_lower": self.c_lower,
            "oracle_value": self.oracle_value,
            "restarts": self.restarts,
            "seed": self.seed,
            "radius": self.radius,
            "ambient_dim": self.ambient_dim,
            "tolerance": self.tolerance,
            "best_restart": self.best_restart,
            "max_norm": self.max_norm,
            "best_motion": motion,
        }


def embedding_feasible(problem: SpreadProblem) -> bool:
    """A congruent copy fits in some r-ball iff the enclosing-ball radius does.

    The radius may exceed r by the relative slack FEASIBILITY_SLACK.
    """
    return _fits(min_enclosing_ball(problem.target).radius, problem.radius)


def _fits(ball_radius: float, radius: float) -> bool:
    return ball_radius <= radius * (1.0 + FEASIBILITY_SLACK)


# ---------------------------------------------------------------------------
# Feasible-copy sampling
# ---------------------------------------------------------------------------

def _shrink_factors(offsets: np.ndarray, dots: np.ndarray,
                    gaps: np.ndarray) -> np.ndarray:
    """Largest g in [0, 1] with |b_i + g*t| <= r for every point i.

    offsets: |t|^2 per copy, shape (n,); dots: <t, b_i>, shape (k, n), one
    row per point; gaps: |b_i|^2 - r^2 <= 0 per point, shape (k,).  Each
    per-point quadratic is solved exactly; its root times |t|^2 is reduced
    across the k rows first, and dividing by |t|^2 > 0 afterwards gives the
    same bits as dividing each row.  With gaps <= 0 the discriminant is a
    sum of nonnegative terms.
    """
    disc = dots * dots
    disc -= offsets * gaps[:, None]
    np.sqrt(disc, out=disc)
    roots = (disc - dots).min(axis=0)
    factors = np.divide(roots, offsets, out=np.ones_like(offsets),
                        where=offsets > 0.0)
    return np.minimum(factors, 1.0)


def _feasible_batches(centered: np.ndarray, radius: float, n_samples: int,
                      seed: int):
    """Yield the point norms of random feasible copies, (k, count) per chunk.

    Copy j is centered + g_j*t_j, with t_j uniform in B(0, radius) and g_j
    its shrink factor; row i holds point i's norm in every copy of the
    chunk.  Chunks are seeded independently via spawn keys, so the stream is
    deterministic and may be partitioned across workers by chunk index.
    """
    dim = centered.shape[1]
    gaps = np.minimum(np.einsum("kd,kd->k", centered, centered)
                      - radius * radius, 0.0)
    n_chunks = (n_samples + _CHUNK - 1) // _CHUNK
    for chunk in range(n_chunks):
        count = min(_CHUNK, n_samples - chunk * _CHUNK)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(chunk,)))
        t = rng.standard_normal((dim, count))
        radii = radius * rng.random(count) ** (1.0 / dim)
        t *= radii / np.maximum(np.sqrt(np.einsum("dn,dn->n", t, t)), 1e-300)
        t *= _shrink_factors(np.einsum("dn,dn->n", t, t), centered @ t, gaps)
        norms = np.empty((len(centered), count))
        for i, point in enumerate(centered):
            copy = t + point[:, None]
            norms[i] = np.einsum("dn,dn->n", copy, copy)
        yield np.sqrt(norms, out=norms)


def _prepare(problem: SpreadProblem) -> np.ndarray:
    """The embedded target, centered at its enclosing-ball center.

    Raises Infeasible, before any sampling, when the enclosing radius exceeds
    r * (1 + FEASIBILITY_SLACK).
    """
    emb = embed_target(problem.target, problem.ambient_dim)
    ball = min_enclosing_ball(emb)
    if not _fits(ball.radius, problem.radius):
        raise Infeasible(
            f"enclosing-ball radius exceeds {problem.radius}; no copy fits")
    return emb.points - ball.center


def sample_spread_oracle(problem: SpreadProblem, n_samples: int,
                         seed: int = 0) -> float:
    """Minimum spread over n_samples random feasible copies.

    Always an upper bound on the true minimum; approaches 0 as the sample
    count grows whenever radius >= circumradius(target).
    """
    if n_samples <= 0:
        raise EmptySample("oracle needs a positive sample count")
    best = math.inf
    for norms in _feasible_batches(_prepare(problem), problem.radius,
                                   n_samples, seed):
        best = min(best, float((norms.max(axis=0) - norms.min(axis=0)).min()))
    return best


# ---------------------------------------------------------------------------
# The convex reduction and its certified dual bound
# ---------------------------------------------------------------------------

def _solve_levels(a: np.ndarray, radius: float, y0: np.ndarray):
    """The reduced program's optimal y and its multipliers (lam, mu, nu).

    a holds the target's coordinates in its affine hull, centered at its
    enclosing-ball center, and radius exceeds their largest norm.  The n ball
    constraints |a_k - y|^2 <= r^2 collapse into one: |a_k - y|^2 = f_k(y) +
    |y|^2 and u >= max f_k, so they are exactly u + |y|^2 <= r^2.  That
    leaves min u - l over 2n linear constraints, l <= f_k(y) <= u, and one
    paraboloid, in m + 2 variables, solved by a primal-dual interior-point
    method (_interior_point).  Its steps use separate primal and dual
    lengths; near the enclosing radius R, where the multipliers grow without
    bound as r falls to R, a solve that does not converge is repeated with
    one common length, which is steadier there.  lam and mu weight the upper
    and lower level constraints, nu the paraboloid.
    """
    solve = _interior_point(a, radius, y0, common_step=False)
    if not solve[-1]:
        retry = _interior_point(a, radius, y0, common_step=True)
        if retry[-1]:
            solve = retry
    return solve[:-1]


def _interior_point(a: np.ndarray, radius: float, y0: np.ndarray,
                    common_step: bool):
    """Mehrotra predictor-corrector on the collapsed program, then a KKT finish.

    Levels are measured from R^2 = max |a_k|^2, so the paraboloid reads
    v + |y|^2 <= delta = r^2 - R^2 with v = u - R^2, and its slack keeps
    full relative precision when r is within rounding of R.  The start is
    y0/2, strictly inside, with slacks from the levels there and multipliers
    that are dual feasible at y = 0 (lam = 1/n + nu p, mu = 1/n, where p
    are convex weights, fitted by least squares, of the points within delta
    of the farthest, whose weighted mean is the center), scaled to a common
    complementarity.  The paraboloid's slack is updated exactly,
    quadratic term included.  When the iterations stall short of
    _IPM_GAP and _IPM_RESIDUAL, the KKT equations of the constraints whose
    multiplier exceeds their slack at the best iterate are solved by Newton's
    method; that point replaces the iterate if it is feasible with
    nonnegative multipliers.  Returns y, lam, mu, nu and whether either
    stage converged.
    """
    n, m = a.shape
    sq = np.einsum("ij,ij->i", a, a)
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

    best, since, converged = (math.inf, x, z, s), 0, False
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
            converged = True
            break
        hess = (jac.T * (z / s)) @ jac
        hess[diag, diag] += 2.0 * z[-1]
        try:
            inverse = np.linalg.inv(hess)
        except np.linalg.LinAlgError:
            break

        def direction(centring):
            dx = inverse @ (-dual - jac.T @ ((z * primal - centring) / s))
            ds = -primal - jac @ dx
            return dx, ds, (-centring - z * ds) / s

        def lengths(dx, ds, dz):
            primal_len = 1.0 / max(1.0, float(-(ds[:-1] / s[:-1]).min()))
            # the paraboloid's exact slack s + t ds - t^2 |dy|^2 stays positive
            curve, slope = float(dx[:m] @ dx[:m]), float(ds[-1])
            root = math.sqrt(max(slope * slope + 4.0 * curve * s[-1], 0.0)) - slope
            if root > 0.0:
                primal_len = min(primal_len, 2.0 * s[-1] / root)
            dual_len = 1.0 / max(1.0, float(-(dz / z).min()))
            if common_step:
                primal_len = dual_len = min(primal_len, dual_len)
            return primal_len, dual_len

        dx, ds, dz = direction(s * z)
        primal_len, dual_len = lengths(dx, ds, dz)
        predicted = float((s + primal_len * ds) @ (z + dual_len * dz)) / size
        dx, ds, dz = direction(s * z + ds * dz - (predicted / gap) ** 3 * gap)
        primal_len, dual_len = (min(1.0, _IPM_STEP * t) for t in lengths(dx, ds, dz))
        if not primal_len > 0.0:
            break
        paraboloid = s[-1] + primal_len * ds[-1] - primal_len ** 2 * float(dx[:m] @ dx[:m])
        x, z, s = x + primal_len * dx, z + dual_len * dz, s + primal_len * ds
        s[-1] = paraboloid

    _, x, z, s = best
    if not converged:
        finish = _kkt_finish(jac, values, cost, m, x, z, z > s)
        if finish is not None:
            (x, z), converged = finish, True
    return x[:m], z[:n], z[n:2 * n], float(z[-1]), converged


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


def _dual_bound(a: np.ndarray, radius: float, y: np.ndarray, lam: np.ndarray,
                mu: np.ndarray, nu: float) -> float:
    """Lower bound on t* from the solver's multipliers, less its own rounding.

    The collapsed program's multipliers map back to one per original
    constraint: lam' = lam / sum(lam), mu' = mu / sum(mu), nu_k = nu lam'_k.
    For any lam', mu' >= 0 each summing to 1 and nu_k >= 0, every feasible z
    has t(z) >= sum lam'_i f_i(z) - sum mu'_j f_j(z)
    + sum nu_k (|a_k - z|^2 - r^2), so the least value of that Lagrangian
    over any set holding the feasible z bounds t*, whatever the multipliers'
    accuracy.  The value is lowered by a bound on its floating-point error,
    (n + m + 4) eps times the sum of the terms' magnitudes, which grows with
    nu near the enclosing radius.
    """
    n, m = a.shape
    if lam.sum() <= 0.0 or mu.sum() <= 0.0:
        return 0.0  # t* >= 0 always
    lam = lam / lam.sum()
    mu = mu / mu.sum()
    nu = nu * lam
    sq = np.einsum("ij,ij->i", a, a)
    r2 = radius * radius
    dist2 = np.einsum("ij,ij->i", a - y, a - y)
    # The Lagrangian is alpha |z|^2 - 2 <w, z> + const.  Over the ball of
    # radius r around the point farthest from y, which holds every feasible
    # z, it is least at the point of the ball nearest w / alpha, or, when no
    # ball constraint carries weight, at the point farthest along w.
    w = (lam - mu + nu) @ a
    alpha = nu.sum()
    anchor = a[int(np.argmax(dist2))]
    if alpha > 0.0:
        offset = w / alpha - anchor
        z = anchor + offset * (radius / max(float(np.linalg.norm(offset)), radius))
    else:
        z = anchor + w * (radius / max(float(np.linalg.norm(w)), np.finfo(float).tiny))
    cross = 2.0 * a @ z
    ball = np.einsum("ij,ij->i", a - z, a - z)
    magnitude = np.abs(lam - mu) @ (sq + np.abs(cross)) + nu @ (ball + r2)
    value = (lam - mu) @ (sq - cross) + nu @ (ball - r2)
    return float(value - (n + m + 4) * np.finfo(float).eps * magnitude)


def estimate_c(problem: SpreadProblem, restarts: int = 64, seed: int = 0,
               tolerance: float = 1e-9,
               oracle_samples: int = 0) -> SpreadEstimate:
    """The minimal spread of congruent copies of the target in the r-ball.

    Solves the convex reduction (module docstring) on the target scaled to
    unit diameter, so every slack is relative and c(sA, sr) = s c(A, r).
    The first pass starts at the enclosing-ball center; each further pass
    starts halfway between it and the last pass's point, up to `restarts`
    passes, until c_estimate - c_lower <= tolerance * radius, or until a
    pass tightens neither side.
    The target fits iff its farthest point from its enclosing-ball center
    is at most radius * (1 + FEASIBILITY_SLACK) away.

    The reduction needs a height off the affine hull, so an ambient
    dimension equal to the affine dimension is rejected with DomainError.
    With oracle_samples > 0, a sampling-oracle scan seeded by `seed` fills
    oracle_value; a sampled spread below c_lower raises NonConvergence.
    """
    if restarts < 1:
        raise DomainError("need at least one restart")
    m = affine_dimension(problem.target)
    if problem.ambient_dim == m:
        raise DomainError(
            f"ambient dimension {m} equals the affine dimension; the spread "
            "solve needs room for a height off the affine hull")
    report = dict(restarts=restarts, seed=seed, radius=problem.radius,
                  ambient_dim=problem.ambient_dim, tolerance=tolerance)
    emb = embed_target(problem.target, problem.ambient_dim)
    scale = diameter(emb) or problem.radius
    unit = Configuration(dim=emb.dim, points=emb.points / scale)
    radius = problem.radius / scale
    center = min_enclosing_ball(unit).center
    rel = unit.points - center
    basis = np.linalg.svd(rel, full_matrices=False)[2]
    a = rel @ basis[:m].T
    reach = float(np.sqrt(np.max(np.einsum("ij,ij->i", a, a))))
    if reach > radius * (1.0 + FEASIBILITY_SLACK):
        return SpreadEstimate(c_estimate=None, best_motion=None,
                              oracle_value=None, feasible=False, **report)
    # A radius inside the slack is raised just past the enclosing radius, so
    # the center is strictly feasible.  c only falls as the radius grows, so
    # c_lower still bounds c(A, r) from below.
    radius = max(radius, reach * (1.0 + ROUNDING_SLACK))

    def origin_of(y):
        top = float(np.max(np.einsum("ij,ij->i", a - y, a - y)))
        if top > radius * radius:
            # Pull y toward the center: max_i |a_i - y|^2 is convex along
            # the segment, so it is at most r^2 where the chord from reach^2
            # to top reaches r^2.
            y = y * ((radius * radius - reach * reach) / (top - reach * reach))
            top = float(np.max(np.einsum("ij,ij->i", a - y, a - y)))
        return scale * (center + y @ basis[:m]
                        + math.sqrt(max(radius * radius - top, 0.0)) * basis[m])

    y = np.zeros(m)
    best, c_lower = None, 0.0
    for index in range(restarts):
        y, lam, mu, nu = _solve_levels(a, radius, y)
        origin = origin_of(y)
        norms = np.linalg.norm(emb.points - origin, axis=1)
        value = float(norms.max() - norms.min())
        t = max(_dual_bound(a, radius, y, lam, mu, nu)
                - ROUNDING_SLACK * radius * radius, 0.0)
        lower = scale * t / (radius + math.sqrt(max(radius * radius - t, 0.0)))
        if best is not None and value >= best[0] and lower <= c_lower:
            break  # a pass that tightens neither side ends the search
        c_lower = max(c_lower, lower)
        if best is None or value < best[0]:
            best = (value, float(norms.max()), origin, index)
        if best[0] - c_lower <= tolerance * problem.radius:
            break

    oracle_value = None
    if oracle_samples > 0:
        oracle_value = sample_spread_oracle(problem, oracle_samples, seed)
        if oracle_value < c_lower - ROUNDING_SLACK * problem.radius:
            raise NonConvergence(
                f"sampled spread {oracle_value!r} is below the certified "
                f"lower bound {c_lower!r}")

    value, max_norm, origin, index = best
    motion = RigidMotion(rotation=np.eye(emb.dim), translation=-origin)
    return SpreadEstimate(
        c_estimate=value, best_motion=motion, oracle_value=oracle_value,
        feasible=True, c_lower=c_lower, best_restart=index,
        max_norm=max_norm, **report)
