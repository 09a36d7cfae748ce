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
  constraints collapse into one paraboloid.  Each pass first solves the
  KKT equations of the active set guessed at its start (_guess, then
  _active_set: two small linear solves; the first pass starts at y = 0,
  where the guess and its line solve belong to the target, so it solves
  only the multipliers' system) and keeps that point when its bracket
  closes on a positive lower bound; otherwise a numpy primal-dual
  interior-point method solves it (see _interior_point).  c_lower comes from
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
  and shell indices have the same distribution with R left out.  No copy is
  built either: each point's squared norm comes from the dot products the
  shrink already needs, and only each copy's largest and smallest norm are
  kept, which is all a spread or a shell colouring reads.  The copies come
  in seeded chunks of _CHUNK, run on one thread per CPU (_summarize_chunks);
  each chunk is reduced to a summary in its thread, and the summaries
  combine by min and sum, so a seeded result does not depend on the
  thread count.  The samplers work on the target over a power of two near
  its extent (_prepare), so their quartic arithmetic holds at any scale
  the floats do.

Both work in the target's hull coordinates, from one SVD (_hull_frame):
the solve in the m coordinates of aff(A), the samplers in R^(m+1), with a
zero coordinate appended for the height off the hull.  The solve keeps
each target's frame (_target_frame), so the SVD, the enclosing ball, the
diameter, the squared norms |a_k|^2 and the first pass's active-set guess
are computed once per target, not once per call: every call's first pass
starts at y = 0, where the guess depends on the target alone.  Each pass
measures the |a_k - y|^2 at its solution once, for both its placement and
its dual bound.  No ambient dimension is an input: a copy in any R^n lies
in the span of its points and the origin, of dimension at most m + 1.
"""

from __future__ import annotations

import math
import os
import threading
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import (DomainError, EmptySample, Infeasible, NonConvergence, _check_positive,
                     _check_tolerance)
from .geometry import (DEFAULT_TOL, Configuration, RigidMotion, _hull_basis, _integer, _seed,
                       diameter)
from .spheres import Ball, min_enclosing_ball

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
# _IPM_STALL_MERIT of those targets.  _IPM_STEP is the fraction of the
# step to the boundary taken; a solve with one common step length takes
# _IPM_TAIL_STEP once the mean complementarity is below _IPM_TAIL_GAP.
# The KKT finish takes _IPM_FINISH_STEPS Newton steps and
# accepts constraint values up to _IPM_FINISH_SLACK.
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
_CHUNK = 1 << 14
_EPS = np.finfo(float).eps
# Each target's frame (_target_frame), from its first estimate_c call on.
# Configuration compares by identity, so the key is the object itself, and
# the entry goes when the target is freed.
_FRAMES = weakref.WeakKeyDictionary()


def spread(config: Configuration) -> float:
    """Max point norm minus min point norm; 0 iff the set sits on an origin sphere."""
    norms = np.linalg.norm(config.points, axis=1)
    return float(norms.max() - norms.min())


@dataclass(frozen=True, eq=False)
class SpreadProblem:
    """Target set and ball radius.

    There is no ambient dimension to choose: a copy in any R^n lies in the
    span of its points and the origin, of dimension at most m + 1 for a
    target of affine dimension m, so c(A, r) is the same for every n > m.
    """

    target: Configuration
    radius: float

    def __post_init__(self):
        _check_positive(self.radius, "ball radius")


@dataclass(frozen=True, eq=False)
class SpreadEstimate:
    """Certified bracket c_lower <= c(A, r) <= c_estimate, with its placement.

    best_motion acts on the target's own points with one zero coordinate
    appended, in R^ambient_dim, ambient_dim = target.dim + 1; the height
    off the hull runs along the appended axis.  c_estimate is the spread of
    that placement and max_norm its largest point norm.  c_lower is a
    certified lower bound.
    best_restart is the index of the solve pass whose placement is returned;
    restarts is the cap on passes.  diagnostics holds "passes", one entry
    per pass run: "iterations", the linear systems it solved (1 for an
    active-set pass, else the interior point's Newton systems); "stage",
    the stage that converged ("active_set", "interior_point",
    "separate_steps" or "kkt_finish"; None if none did); "nu", the
    paraboloid multiplier with the lower multipliers scaled to sum to 1
    (None if they sum to 0); "bracket", the pass's own spread less its own
    lower bound, over the radius; and "height", the height off the hull of
    the pass's placement, over the radius.  An "active_set" pass also gives
    "upper" and "lower", the indices of the points on the upper and the
    lower level.  It is deterministic and holds no timings.  The solve's
    outputs are None when no copy fits.
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
    diagnostics: dict | None = None

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
            "diagnostics": self.diagnostics,
        }


def embedding_feasible(problem: SpreadProblem) -> bool:
    """A congruent copy fits in some r-ball iff the enclosing-ball radius does.

    The radius may exceed r by the relative slack FEASIBILITY_SLACK.
    """
    return _fits(min_enclosing_ball(problem.target).radius, problem.radius)


def _fits(ball_radius: float, radius: float) -> bool:
    return ball_radius <= radius * (1.0 + FEASIBILITY_SLACK)


def _hull_frame(target: Configuration, scale: float):
    """The target's hull coordinates over scale, centred at their enclosing ball.

    Returns (a, basis, ball): basis holds the m orthonormal rows spanning
    the affine hull (one SVD, geometry._hull_basis), ball is the enclosing
    ball of the scaled coordinates, walked to in m dimensions, and
    point i is points[0] + scale * (a[i] + ball.center) @ basis up to its
    component off the hull, which the cutoff DEFAULT_TOL drops.
    """
    pts = target.points
    basis = _hull_basis(pts, DEFAULT_TOL)
    coords = (pts - pts[0]) @ basis.T / scale
    if len(basis) == 0:  # one point, or coincident points
        ball = Ball(center=np.zeros(0), radius=0.0)
    else:
        ball = min_enclosing_ball(Configuration(dim=len(basis), points=coords))
    return coords - ball.center, basis, ball


def _target_frame(target: Configuration):
    """(diam, a, sq, basis, ball, placed, guess): what estimate_c needs that r does not change.

    diam is diameter(target); (a, basis, ball) is _hull_frame at scale diam,
    or at scale 1 for coincident points, whose frame has no coordinates;
    sq holds the squared norms |a_k|^2 that every pass reads; placed is the
    target's points with one zero coordinate appended.  guess is _guess at
    y0 = 0, where every call's first pass starts: the levels there are sq,
    so that pass's guessed active set, its line and the radius-free rows of
    its KKT system belong to the target, and a later call's first pass
    solves only what the radius changes.  It is computed on the target's
    first call and kept in _FRAMES, with its arrays, the guess's included,
    read-only.  Threads that miss at once each compute the same frame, and
    the last one stored is kept.  Raises DomainError when the diameter's
    square overflows, or underflows to 0 on points that are not all equal:
    the placement's norms are measured at the target's own scale.
    """
    frame = _FRAMES.get(target)
    if frame is None:
        diam = diameter(target)
        if math.isinf(diam * diam):
            raise DomainError("target's squared diameter overflows; rescale its points")
        if diam * diam == 0.0 and (target.points != target.points[0]).any():
            raise DomainError("target's squared diameter underflows to 0; "
                              "rescale its points")
        a, basis, ball = _hull_frame(target, diam or 1.0)
        sq = np.einsum("ij,ij->i", a, a)
        placed = np.hstack([target.points, np.zeros((len(target), 1))])
        guess = _guess(a, sq, np.zeros(len(basis)))
        arrays = [a, sq, basis, placed]
        if guess is not None:
            upper, _, p, d, _, kkt = guess
            arrays += [upper, p, d, kkt]
        for array in arrays:
            array.flags.writeable = False
        frame = _FRAMES[target] = (diam, a, sq, basis, ball, placed, guess)
    return frame


# ---------------------------------------------------------------------------
# Feasible-copy sampling
# ---------------------------------------------------------------------------

def _shrink_factors(offsets: np.ndarray, dots: np.ndarray,
                    gaps: np.ndarray) -> np.ndarray:
    """Largest g in [0, 1] with |b_i + g*t| <= r for every point i.

    offsets: |t|^2 per copy, shape (n,); dots: <t, b_i>, shape (k, n), one
    row per point, left unchanged; gaps: |b_i|^2 - r^2 <= 0 per point, shape
    (k,).  Each per-point quadratic is solved exactly, in one (k, n) buffer;
    its root times |t|^2 is reduced across the k rows first, and dividing by
    |t|^2 > 0 afterwards gives the same bits as dividing each row.  With
    gaps <= 0 the discriminant is a sum of nonnegative terms.
    """
    disc = dots * dots
    for row, gap in zip(disc, gaps):
        row -= gap * offsets
    np.sqrt(disc, out=disc)
    disc -= dots
    factors = np.divide(disc.min(axis=0), offsets, out=np.ones_like(offsets),
                        where=offsets > 0.0)
    return np.minimum(factors, 1.0)


def _cpus() -> int:
    """The CPUs this process may run on: its affinity mask, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _summarize_chunks(centered: np.ndarray, radius: float, n_samples: int,
                      seed: int, summary) -> list:
    """summary(top, bottom) of each chunk of copies, in chunk order.

    top and bottom hold each copy's largest and smallest point norm, shape
    (count,) with count <= _CHUNK.  Copy j is centered + g_j*t_j, with t_j
    uniform in B(0, radius) and g_j its shrink factor.  No copy is built:
    point i's squared norm is |b_i|^2 + g*(2<b_i, t> + g*|t|^2), formed in
    place in the shrink's own dot products, and only the extremes of the
    squared norms are square-rooted (the smallest clamped at 0 against
    rounding).  Chunk k is seeded by SeedSequence(seed, spawn_key=(k,)), so
    its copies do not depend on which thread draws them.  The chunks run on
    one thread per CPU (_cpus), at most one per chunk; the calling thread
    is one of them, and worker w takes chunks w, w + workers, ....  numpy
    releases the GIL in the draws, the product and the ufuncs, and only the
    summaries outlive a chunk, so memory holds one chunk per worker.  Every
    thread is joined before this returns.  A worker stops at its first
    failing chunk, so each worker's lowest failing chunk runs, and the
    exception of the lowest-numbered one is raised.
    """
    dim = centered.shape[1]
    squares = np.einsum("kd,kd->k", centered, centered)
    gaps = np.minimum(squares - radius * radius, 0.0)
    n_chunks = (n_samples + _CHUNK - 1) // _CHUNK
    workers = min(_cpus(), n_chunks)
    results = [None] * n_chunks
    errors = []

    def extremes(chunk):
        count = min(_CHUNK, n_samples - chunk * _CHUNK)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(chunk,)))
        t = rng.standard_normal((dim, count))
        radii = radius * rng.random(count) ** (1.0 / dim)
        t *= radii / np.maximum(np.sqrt(np.einsum("dn,dn->n", t, t)), 1e-300)
        offsets = np.einsum("dn,dn->n", t, t)
        dots = centered @ t
        g = _shrink_factors(offsets, dots, gaps)
        dots *= 2.0
        dots += g * offsets
        dots *= g
        dots += squares[:, None]
        top = np.sqrt(dots.max(axis=0))
        bottom = np.sqrt(np.maximum(dots.min(axis=0), 0.0))
        return top, bottom

    def work(first):
        for chunk in range(first, n_chunks, workers):
            try:
                results[chunk] = summary(*extremes(chunk))
            except BaseException as error:  # raised by the caller after the join
                errors.append((chunk, error))
                return

    threads = [threading.Thread(target=work, args=(first,)) for first in range(1, workers)]
    for thread in threads:
        thread.start()
    try:
        work(0)
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise min(errors, key=lambda entry: entry[0])[1]
    return results


def _prepare(problem: SpreadProblem):
    """(centered, radius, scale): the target in R^(m+1) and the radius, over scale.

    centered holds the hull coordinates centered at the enclosing-ball
    center, with one zero coordinate appended for the height off the hull.
    scale is the power of two 2^(k-1) that brings the largest coordinate
    offset from the first point into [1, 2), k its frexp exponent:
    _summarize_chunks squares dot products, so its arithmetic is quartic
    in length and, at the target's own scale, leaves the float range beyond
    about 1e+-77.  Scaling by a
    power of two is exact, so a spread sampled over scale, times scale, has
    the bits of one sampled unscaled wherever that stays in range.  Raises Infeasible, before any sampling,
    when the enclosing radius exceeds r * (1 + FEASIBILITY_SLACK), and
    DomainError when the radius over scale overflows when squared.
    """
    pts = problem.target.points
    scale = math.ldexp(1.0, int(np.frexp(np.abs(pts - pts[0]).max())[1]) - 1)
    radius = problem.radius / scale
    if not math.isfinite(radius * radius):
        raise DomainError(f"radius {problem.radius!r} over the target's size "
                          f"{scale!r} overflows when squared")
    a, _, ball = _hull_frame(problem.target, scale)
    if not _fits(ball.radius, radius):
        raise Infeasible(
            f"enclosing-ball radius exceeds {problem.radius}; no copy fits")
    return np.hstack([a, np.zeros((len(a), 1))]), radius, scale


def sample_spread_oracle(problem: SpreadProblem, n_samples: int,
                         seed: int = 0) -> float:
    """Minimum spread over n_samples random feasible copies.

    Always an upper bound on the true minimum; approaches 0 as the sample
    count grows whenever radius >= circumradius(target).  It samples the
    target over a power of two (_prepare), so any scale whose squared
    radius over that power is finite gives the unit-scale value times the
    scale.  A count that is not an integer or a seed that is not a
    nonnegative integer raises DomainError; a count of zero or less raises
    EmptySample.
    """
    n_samples = _integer(n_samples, "sample count")
    seed = _seed(seed)
    if n_samples <= 0:
        raise EmptySample("oracle needs a positive sample count")
    centered, radius, scale = _prepare(problem)
    least = _summarize_chunks(centered, radius, n_samples, seed,
                              lambda top, bottom: float((top - bottom).min()))
    return min(least) * scale


# ---------------------------------------------------------------------------
# The convex reduction and its certified dual bound
# ---------------------------------------------------------------------------

def _guess(a: np.ndarray, sq: np.ndarray, y0: np.ndarray):
    """The active set guessed at y0 and the radius-free part of its solve, or None.

    Returns (upper, lower, p, d, (qa, qb, qc), kkt) for _active_set.  The
    guess takes the m rows with the highest levels f_k(y0) as upper (the
    index array upper, ascending), the row with the lowest as lower, and
    the paraboloid as active: the optimum of each of the library's
    witnesses has that active set.  Equal upper levels put y on the line
    p + s*d of points equidistant from the upper points, found by
    elimination in one solve; |y - a_upper[0]|^2 is qa s^2 + qb s + qc
    along it.  kkt holds the active constraints' gradients in (y, u, l),
    one row each: the upper levels, the lower level, then the paraboloid,
    whose y part, 2y, is left 0.  sq holds the |a_k|^2.  Returns None for
    coincident points (m = 0) or a singular line system.
    """
    n, m = a.shape
    if m == 0:
        return None
    levels = (sq - 2.0 * a @ y0).tolist()
    order = sorted(range(n), key=levels.__getitem__)
    upper, lower = sorted(order[n - m:]), order[0]
    rows = a[upper + [lower]]
    base = rows[0]
    # The line p + s*d: 2<a_k - a_0, y> = |a_k|^2 - |a_0|^2 for the other
    # upper points k, with <a_j - a_0, p> = 0 and <a_j - a_0, d> = 1.
    system = rows[1:] - base
    system[:m - 1] *= 2.0
    rhs = np.zeros((m, 2))
    rhs[:m - 1, 0], rhs[m - 1, 1] = sq[upper[1:]] - sq[upper[0]], 1.0
    try:
        p, d = np.linalg.solve(system, rhs).T
    except np.linalg.LinAlgError:
        return None
    off = p - base
    kkt = np.zeros((m + 2, m + 2))
    kkt[:m, :m], kkt[:m, m] = -2.0 * rows[:m], -1.0
    kkt[m, :m], kkt[m, m + 1] = 2.0 * rows[m], 1.0
    kkt[m + 1, m] = 1.0
    return (np.array(upper), lower, p, d,
            (float(d @ d), 2.0 * float(d @ off), float(off @ off)), kkt)


def _active_set(a: np.ndarray, radius: float, guess):
    """The reduced program solved on a guessed active set (_guess), or None.

    Same returns as _interior_point; the diagnostics count the solve as one
    system ("iterations") and give the stage "active_set" and the indices
    of the "upper" and "lower" rows.  The paraboloid puts y at distance r
    from the upper points, a quadratic along the guess's line, whose root
    with the smaller u - l is the point.  The multipliers solve the m + 2
    stationarity equations of the active rows.  Returns None when there is
    no guess, on a negative discriminant, a singular system or a negative
    multiplier; the caller accepts the point only if its certified bracket
    closes on a positive lower bound.
    """
    if guess is None:
        return None
    upper, lower, p, d, (qa, qb, qc), kkt = guess
    # |y - a_0|^2 = r^2 is qa s^2 + qb s + qc = r^2; u - l = f_0(y) - f_j(y)
    # grows as 2s along the line, so the smaller root is the point.
    disc = qb * qb - 4.0 * qa * (qc - radius * radius)
    if not disc >= 0.0:
        return None
    y = p + (-qb - math.sqrt(disc)) / (2.0 * qa) * d
    m = len(y)
    kkt = kkt.copy()
    kkt[m + 1, :m] = 2.0 * y
    # Stationarity: the gradients weighted by z cancel the cost's, (0, 1, -1).
    pull = np.zeros(m + 2)
    pull[m], pull[m + 1] = -1.0, 1.0
    try:
        z = np.linalg.solve(kkt.T, pull)
    except np.linalg.LinAlgError:
        return None
    if not z.min() >= 0.0:
        return None
    lam, mu = np.zeros(len(a)), np.zeros(len(a))
    lam[upper], mu[lower] = z[:m], z[m]
    diagnostics = {"iterations": 1, "stage": "active_set", "upper": upper.tolist(),
                   "lower": [lower]}
    return y, lam, mu, float(z[m + 1]), diagnostics


def _interior_point(a: np.ndarray, sq: np.ndarray, radius: float, y0: np.ndarray):
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
    did.  estimate_c calls it only for a pass whose active-set guess
    (_active_set) was declined; that pass's stage is never "active_set".
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


def _dual_bound(a: np.ndarray, sq: np.ndarray, dist2: np.ndarray, radius: float,
                lam: np.ndarray, mu: np.ndarray, nu: float) -> float:
    """Lower bound on t* from the solver's multipliers, less its own rounding.

    sq holds the |a_k|^2, dist2 the |a_k - y|^2 at the solver's y.  The
    collapsed program's multipliers map back to one per original
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
    lam_sum, mu_sum = lam.sum(), mu.sum()
    if lam_sum <= 0.0 or mu_sum <= 0.0:
        return 0.0  # t* >= 0 always
    lam = lam / lam_sum
    mu = mu / mu_sum
    nu = nu * lam
    net = lam - mu
    r2 = radius * radius
    # The Lagrangian is alpha |z|^2 - 2 <w, z> + const.  Over the ball of
    # radius r around the point farthest from y, which holds every feasible
    # z, it is least at the point of the ball nearest w / alpha, or, when no
    # ball constraint carries weight, at the point farthest along w.
    w = (net + nu) @ a
    alpha = nu.sum()
    anchor = a[int(dist2.argmax())]
    if alpha > 0.0:
        offset = w / alpha - anchor
        z = anchor + offset * (radius / max(math.sqrt(offset @ offset), radius))
    else:
        z = anchor + w * (radius / max(math.sqrt(w @ w), np.finfo(float).tiny))
    cross = 2.0 * a @ z
    gap = a - z
    ball = np.einsum("ij,ij->i", gap, gap)
    magnitude = np.abs(net) @ (sq + np.abs(cross)) + nu @ (ball + r2)
    value = net @ (sq - cross) + nu @ (ball - r2)
    return float(value - (n + m + 4) * _EPS * magnitude)


def estimate_c(problem: SpreadProblem, restarts: int = 64, seed: int = 0,
               tolerance: float = 1e-9,
               oracle_samples: int = 0) -> SpreadEstimate:
    """The minimal spread of congruent copies of the target in the r-ball.

    Solves the convex reduction (module docstring) on the target scaled to
    unit diameter, so every slack is relative and c(sA, sr) = s c(A, r).
    The first pass starts at the enclosing-ball center; each further pass
    starts at the last pass's point, up to `restarts` passes, until
    c_estimate - c_lower <= tolerance * radius, or until a pass tightens
    neither side.  A pass keeps its active-set point (_active_set) when that
    point's own bracket is within tolerance * radius and its own lower
    bound is positive; otherwise it runs the interior point, which starts
    halfway between the center and the pass's start.
    The target fits iff its farthest point from its enclosing-ball center
    is at most radius * (1 + FEASIBILITY_SLACK) away.  The solve runs in
    the target's m hull coordinates, from one SVD per target, made on its
    first call and reused by the later ones (_target_frame), as is the
    first pass's active-set guess, which belongs to the target; the
    placement puts the height off the hull on one appended axis (see
    SpreadEstimate).
    With oracle_samples > 0, a sampling-oracle scan seeded by `seed` fills
    oracle_value; a sampled spread below c_lower raises NonConvergence.
    A `restarts` that is not an integer of at least 1, an `oracle_samples`
    that is not an integer or a `seed` that is not a nonnegative integer
    raises DomainError, as do a target whose squared diameter overflows or
    underflows to 0 and a radius whose square over the diameter overflows,
    before any arithmetic that would leave the float range.
    """
    restarts = _integer(restarts, "restarts")
    if restarts < 1:
        raise DomainError("need at least one restart")
    oracle_samples = _integer(oracle_samples, "oracle sample count")
    seed = _seed(seed)
    _check_tolerance(tolerance)
    target = problem.target
    report = dict(restarts=restarts, seed=seed, radius=problem.radius,
                  ambient_dim=target.dim + 1, tolerance=tolerance)
    diam, a, sq, basis, ball, placed, guess = _target_frame(target)
    scale = diam or problem.radius
    radius = problem.radius / scale
    if not math.isfinite(radius * radius):
        raise DomainError(f"radius {problem.radius!r} over the target's diameter "
                          f"{diam!r} overflows when squared")
    reach = ball.radius
    if not _fits(reach, radius):
        return SpreadEstimate(c_estimate=None, best_motion=None,
                              oracle_value=None, feasible=False, **report)
    # A radius inside the slack is raised just past the enclosing radius, so
    # the center is strictly feasible.  c only falls as the radius grows, so
    # c_lower still bounds c(A, r) from below.
    radius = max(radius, reach * (1.0 + ROUNDING_SLACK))
    r2 = radius * radius

    def origin_of(y, dist2):
        """The placement's origin for the solver's y, whose |a_k - y|^2 are dist2."""
        top = float(dist2.max())
        if top > r2:
            # Pull y toward the center: max_i |a_i - y|^2 is convex along
            # the segment, so it is at most r^2 where the chord from reach^2
            # to top reaches r^2.
            y = y * ((r2 - reach * reach) / (top - reach * reach))
            gap = a - y
            top = float(np.einsum("ij,ij->i", gap, gap).max())
        origin = np.empty(target.dim + 1)
        origin[:-1] = target.points[0] + scale * ((ball.center + y) @ basis)
        origin[-1] = scale * math.sqrt(max(r2 - top, 0.0))
        return origin

    def measured(y, lam, mu, nu):
        """The placement's spread, its largest norm, its origin and the dual c_lower."""
        gap = a - y
        dist2 = np.einsum("ij,ij->i", gap, gap)
        origin = origin_of(y, dist2)
        # The row sums np.linalg.norm(..., axis=1) takes, without its checks.
        offsets = placed - origin
        norms = np.sqrt((offsets * offsets).sum(axis=1))
        top = norms.max()
        t = max(_dual_bound(a, sq, dist2, radius, lam, mu, nu) - ROUNDING_SLACK * r2, 0.0)
        lower = scale * t / (radius + math.sqrt(max(r2 - t, 0.0)))
        return float(top - norms.min()), float(top), origin, lower

    y = np.zeros(len(basis))
    best, c_lower, passes = None, 0.0, []
    for index in range(restarts):
        if index:  # the frame holds the first pass's guess, at y = 0
            guess = _guess(a, sq, y)
        solve = _active_set(a, radius, guess)
        if solve is not None:
            value, top, origin, lower = measured(*solve[:4])
            if value - lower > tolerance * problem.radius or not lower > 0.0:
                solve = None
        if solve is None:
            solve = _interior_point(a, sq, radius, y)
            value, top, origin, lower = measured(*solve[:4])
        y, _, mu, nu, diagnostics = solve
        total = float(mu.sum())
        diagnostics["nu"] = nu / total if total > 0.0 else None
        diagnostics["bracket"] = (value - lower) / problem.radius
        diagnostics["height"] = float(origin[-1]) / problem.radius
        passes.append(diagnostics)
        if best is not None and value >= best[0] and lower <= c_lower:
            break  # a pass that tightens neither side ends the search
        c_lower = max(c_lower, lower)
        if best is None or value < best[0]:
            best = (value, top, origin, index)
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
    motion = RigidMotion(rotation=np.eye(target.dim + 1), translation=-origin)
    return SpreadEstimate(
        c_estimate=value, best_motion=motion, oracle_value=oracle_value,
        feasible=True, c_lower=c_lower, best_restart=index,
        max_norm=max_norm, diagnostics={"passes": passes}, **report)
