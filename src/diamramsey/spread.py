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
  convex program in m + 2 variables (y and two levels), its n ball
  constraints one paraboloid.  _solve solves it at one squared radius:
  coincident points (c = 0) and an affinely independent target whose
  circumsphere fits (the circumcentre, t_lower = 0) in closed form, else
  by a primal active-set pivot (_pivot), whose first step, the set guessed
  at the pass's start (_guess) with its point and multipliers in closed
  form (_active_set), settles every witness; each further step moves to the
  rows' equality optimum in closed form, adds the level that blocks it, or
  drops the most negative multiplier's row.  _solve's t_lower, the
  Lagrangian dual at the pivot's multipliers (see _dual_bound), gives
  c_lower.
* sample_spread_oracle: the minimum spread over a reproducible stream of
  random feasible copies, an upper bound.  A copy is the target centered at
  its enclosing-ball center, b_i, translated by g*t: t is drawn uniformly in
  B(0, r) and shrunk radially (closed form g in [0, 1]) until the copy
  fits.  The shrink gives the sampler full support over the copies' norm
  profiles and concentrates mass on the feasibility boundary, where minima
  live.  Translates suffice: a copy R b_i + g*t under a Haar rotation R
  independent of t has norms |b_i + g*R^T t|, its g depends on t only
  through R^T t, and R^T t is again uniform in B(0, r); so norms, spreads
  and shell indices have the same distribution with R left out.  The ball
  is symmetric under t -> -t, so the draws come in antithetic pairs: each
  t also serves the copy at -t, which has the same distribution and reuses
  t's Gaussians, radius, normalisation, |t|^2, negated dot products and
  the shrink's square roots.
  No copy is built either: each point's squared norm comes from the dot
  products the shrink already needs, and only each copy's largest and
  smallest norm are kept, which is all a spread or a shell colouring reads.  The copies come
  in seeded chunks of _CHUNK, run on one thread per CPU (_summarize_chunks);
  each chunk is reduced to a summary in its thread, and the summaries
  combine by min and sum, so a seeded result does not depend on the
  thread count.

Both read one Frame per target (_target_frame), made on its first call of
any spread entry: its distinct points over a power of two and their
diameter, in hull coordinates from one SVD, centred at their enclosing
ball.  Both take r in the same units (_frame_radius) and, with
embedding_feasible, read that one ball, so all three agree on whether a
copy fits.  The solve works in the m coordinates of aff(A), the samplers
in R^(m+1), with a zero coordinate appended for the height off the hull.
No ambient dimension is an input: a copy in any R^n lies in the span of
its points and the origin, of dimension at most m + 1.
"""

from __future__ import annotations

import math
import os
import sys
import threading
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import (DomainError, EmptySample, Infeasible, NonConvergence, _check_positive,
                     _check_tolerance)
from .geometry import (DEFAULT_TOL, Configuration, RigidMotion, _as_json, _diameter, _hull_basis,
                       _integer, _norm, _scaled, _seed)
from .spheres import Ball, _distinct, min_enclosing_ball

# Relative feasibility slack: a copy fits when the enclosing-ball radius is
# at most r * (1 + FEASIBILITY_SLACK).
FEASIBILITY_SLACK = 1e-9
# Relative rounding slack of the spread solve.  The dual bound on t* is
# lowered by ROUNDING_SLACK * r^2, which lowers c_lower by at least
# ROUNDING_SLACK * r / 2; a radius inside FEASIBILITY_SLACK is raised to
# ROUNDING_SLACK past the enclosing radius; a sampled spread may undercut
# c_lower by ROUNDING_SLACK * r before it counts as a contradiction.
ROUNDING_SLACK = 1e-12
_CHUNK = 1 << 14
_EPS = np.finfo(float).eps
# Each target's frame (_target_frame), from its first call of any spread entry on.
# Configuration compares by identity, so the key is the object itself, and
# the entry goes when the target is freed.
_FRAMES = weakref.WeakKeyDictionary()


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


@dataclass(frozen=True, eq=False, kw_only=True)
class SpreadEstimate:
    """Certified bracket c_lower <= c(A, r) <= c_estimate, with its placement.

    best_motion acts on the target's own points with one zero coordinate
    appended, in R^ambient_dim, ambient_dim = target.dim + 1; the height
    off the hull runs along the appended axis.  c_estimate is the spread of
    that placement and max_norm its largest point norm.  c_lower is a
    certified lower bound.
    best_restart is the index of the solve pass whose placement is returned;
    restarts is the cap on passes.  diagnostics holds "passes", one entry
    per pass run: its Solve's "iterations", "stage", "upper", "lower" (each
    point by its first index) and "nu"; "bracket", the pass's own spread
    less its own lower bound, over the radius; and "height", the height off
    the hull of the pass's placement, over the radius, 0 when the
    paraboloid is active.
    It is deterministic and holds no timings.  The solve's outputs are None
    when no copy fits.  Field order is report order (to_dict).
    """

    feasible: bool
    c_estimate: float | None
    c_lower: float | None = None
    oracle_value: float | None
    restarts: int
    seed: int
    radius: float
    ambient_dim: int
    tolerance: float
    best_restart: int | None = None
    max_norm: float | None = None
    best_motion: RigidMotion | None
    diagnostics: dict | None = None

    to_dict = _as_json


def embedding_feasible(problem: SpreadProblem) -> bool:
    """A congruent copy fits in some r-ball iff the enclosing-ball radius does.

    The radius may exceed r by the relative slack FEASIBILITY_SLACK.  It
    reads the target's frame (_target_frame), the enclosing ball that
    estimate_c and the samplers read, so all three agree on every fit.  A
    radius whose square over the diameter overflows raises DomainError.
    """
    frame = _target_frame(problem.target)
    return _fits(frame.ball.radius, _frame_radius(frame, problem.radius)[1])


def _fits(ball_radius: float, radius: float) -> bool:
    return ball_radius <= radius * (1.0 + FEASIBILITY_SLACK)


@dataclass(frozen=True, eq=False)
class Frame:
    """A target's radius-free inputs, read by every spread entry.

    keep indexes the distinct points (spheres._distinct), each by its first
    index; diam is their diameter over 2^k (geometry._scaled; k = 0 for
    coincident points); basis holds the m orthonormal rows spanning the
    hull, from one SVD; ball is the points' enclosing ball in hull
    coordinates over 2^k diam (2^k for coincident points), the one ball
    every fit decision reads, and row i of a is point keep[i] there less
    ball.center, so the point is 2^k diam (a[i] + ball.center) @ basis from
    the first point, up to its component off the hull, which the cutoff
    DEFAULT_TOL drops; sq holds the |a_k|^2; placed is all the points over
    2^k with one zero coordinate appended.  guess is _guess at y0 = 0, where
    every call's first pass starts, so a later call's first pass solves no
    linear system, only the quadratic in the radius.  circle is the
    circumcentre and squared circumradius (y, rho^2) of affinely independent
    points, else None.
    """

    k: int
    diam: float
    a: np.ndarray
    sq: np.ndarray
    basis: np.ndarray
    ball: Ball
    placed: np.ndarray
    keep: tuple
    guess: tuple | None
    circle: tuple | None


def _target_frame(target: Configuration) -> Frame:
    """The target's Frame, kept in _FRAMES with its arrays read-only; threads
    that miss at once each make the same frame."""
    frame = _FRAMES.get(target)
    if frame is None:
        pts = target.points
        keep = tuple(_distinct(pts, np.arange(len(pts))).tolist())
        k, pts = _scaled(pts)
        diam = _diameter(pts)
        if not diam:  # coincident points: r is the only length, so they stay unscaled
            k, pts = 0, target.points
        basis = _hull_basis(pts, DEFAULT_TOL)
        coords = (pts - pts[0]) @ basis.T / (diam or 1.0)
        ball = (min_enclosing_ball(Configuration(points=coords)) if len(basis)
                else Ball(center=np.zeros(0), radius=0.0))  # one point, or coincident points
        a = coords[list(keep)] - ball.center
        sq = np.einsum("ij,ij->i", a, a)
        placed = np.hstack([pts, np.zeros((len(pts), 1))])
        guess = _guess(a, sq, np.zeros(len(basis)))
        circle = None
        if guess is not None and len(a) == len(basis) + 1:
            # The upper points are all but the lower one, so the circumcentre
            # is where the guess's line p + s d is as far from that one.
            upper, lower, p, d = guess[:4]
            gap = a[upper[0]] - a[lower]
            s = 0.5 * (sq[upper[0]] - sq[lower]) - gap @ p
            y = p + s / (gap @ d) * d
            gap = a - y
            circle = (y, float(np.einsum("ij,ij->i", gap, gap).max()))
        arrays = [a, sq, basis, placed] + ([circle[0]] if circle else [])
        if guess is not None:
            upper, _, p, d, _, _ = guess
            arrays += [upper, p, d]
        for array in arrays:
            array.flags.writeable = False
        frame = _FRAMES[target] = Frame(k, diam, a, sq, basis, ball, placed, keep, guess, circle)
    return frame


def _frame_radius(frame: Frame, radius: float) -> tuple[float, float]:
    """(unit, r over 2^k unit): unit is the diameter, or for coincident points
    (k = 0) r, at least the least normal float.  Raises DomainError when r
    over 2^k unit overflows when squared."""
    unit = frame.diam or max(radius, sys.float_info.min)
    try:
        scaled = math.ldexp(radius, -frame.k) / unit
    except OverflowError:  # r over 2^k is past the float range
        scaled = math.inf
    if not math.isfinite(scaled * scaled):
        raise DomainError(f"radius {radius!r} over the target's diameter "
                          f"{math.ldexp(frame.diam, frame.k)!r} overflows when squared")
    return unit, scaled


# ---------------------------------------------------------------------------
# Feasible-copy sampling
# ---------------------------------------------------------------------------

def _shrink_factors(offsets: np.ndarray, dots: np.ndarray,
                    gaps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Largest g in [0, 1] with |b_i + g*t| <= r for every point i, and the
    same for the antithetic copy b_i - g*t: a pair of (n,) arrays.

    offsets: |t|^2 per copy, shape (n,); dots: <t, b_i>, shape (k, n), one
    row per point, left unchanged; gaps: |b_i|^2 - r^2 <= 0 per point, shape
    (k,).  Each per-point quadratic is solved exactly, one row at a time.
    Its discriminant <t, b_i>^2 - gap*|t|^2 is the same at -t, so one square
    root serves both copies, whose roots times |t|^2 are the root -/+ <t, b_i>.
    These are reduced across the k rows as they come, so only (n,) buffers
    are made, and dividing by |t|^2 > 0 afterwards gives the same bits as
    dividing each row.  With gaps <= 0 the discriminant is a sum of
    nonnegative terms.
    """
    ahead = behind = None
    for row, gap in zip(dots, gaps):
        root = row * row
        root -= gap * offsets
        np.sqrt(root, out=root)
        back = root + row
        root -= row
        if ahead is None:
            ahead, behind = root, back
        else:
            np.minimum(ahead, root, out=ahead)
            np.minimum(behind, back, out=behind)
    positive = offsets > 0.0
    return tuple(np.minimum(np.divide(least, offsets, out=np.ones_like(offsets),
                                      where=positive), 1.0)
                 for least in (ahead, behind))


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
    (count,) with count <= _CHUNK.  A chunk draws half = ceil(count/2)
    translations t_j uniform in B(0, radius); copy j < half is
    centered + g_j*t_j and copy half + j is its antithetic partner
    centered - g'_j*t_j, each g its own shrink factor (_shrink_factors
    gives both).  No copy is built: point i's squared norm is
    |b_i|^2 + g*(2<b_i, t> + g*|t|^2), formed in place in the (k, half)
    dot products <b_i, t_j> for the first half, and for the partners, whose
    dot products are those negated, in a (k, count - half) buffer; t is
    dropped once the dot products are made.  Only the extremes of the
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
        half = (count + 1) // 2
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(chunk,)))
        t = rng.standard_normal((dim, half))
        radii = radius * rng.random(half) ** (1.0 / dim)
        t *= radii / np.maximum(np.sqrt(np.einsum("dn,dn->n", t, t)), 1e-300)
        offsets = np.einsum("dn,dn->n", t, t)
        dots = centered @ t
        del t, radii
        ahead, behind = _shrink_factors(offsets, dots, gaps)
        pairs = count - half
        back = np.multiply(dots[:, :pairs], -2.0)
        back += behind[:pairs] * offsets[:pairs]
        back *= behind[:pairs]
        back += squares[:, None]
        dots *= 2.0
        dots += ahead * offsets
        dots *= ahead
        dots += squares[:, None]
        top, bottom = np.empty(count), np.empty(count)
        for norms, part in ((dots, slice(half)), (back, slice(half, count))):
            norms.max(axis=0, out=top[part])
            norms.min(axis=0, out=bottom[part])
        np.sqrt(top, out=top)
        np.sqrt(np.maximum(bottom, 0.0, out=bottom), out=bottom)
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
    """(centered, radius, scale): the frame's a with a zero coordinate appended
    for the height off the hull, and r in the frame's units (_frame_radius),
    both over 2^j, geometry._scaled's power for r/2, since _summarize_chunks's
    arithmetic is quartic in length.  scale = unit * 2^(k + j) takes a sampled
    length to the target's units: the diameter at j = 0, else at most r, as r
    over 2^j is then at least 1.  Raises Infeasible, before any sampling,
    where estimate_c reports no fit."""
    frame = _target_frame(problem.target)
    unit, radius = _frame_radius(frame, problem.radius)
    if not _fits(frame.ball.radius, radius):
        raise Infeasible(f"enclosing-ball radius exceeds {problem.radius}; no copy fits")
    j, centered = _scaled(np.hstack([frame.a, np.zeros((len(frame.a), 1))]), 0.5 * radius)
    return centered, math.ldexp(radius, -j), math.ldexp(unit, frame.k + j)


def sample_spread_oracle(problem: SpreadProblem, n_samples: int,
                         seed: int = 0) -> float:
    """Minimum spread over n_samples random feasible copies.

    Always an upper bound on the true minimum; approaches 0 as the sample
    count grows whenever radius >= circumradius(target).  It samples the
    target's frame (_prepare), so any scale at which r over the target's
    diameter squares to a finite number gives the unit-scale value times
    the scale, bit for bit at a power of two, and it raises Infeasible
    exactly where estimate_c reports no fit.  A count that is not an
    integer or a seed that is not a nonnegative integer raises DomainError;
    a count of zero or less raises EmptySample.
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

    Returns (upper, lower, p, d, (qa, qb, qc), (foot, centre)) for
    _active_set.  The guess takes the m rows with the highest levels
    f_k(y0) as upper (the index array upper, ascending), the row with the
    lowest as lower, and the paraboloid as active: the optimum of each of
    the library's witnesses has that active set.  Equal upper levels put y
    on the line p + s*d of points equidistant from the upper points, found
    by elimination in one solve; d is normal to the upper face, with
    <a_lower - a_upper[0], d> = 1, and |y - a_upper[0]|^2 is qa s^2 + qb s
    + qc along it.  foot and centre, tuples of floats, are the barycentric
    coordinates in the upper face of the lower point's foot a_lower - d/qa
    and of the face's circumcentre p - qb/(2 qa) d: the weights on the upper
    points, summing to 1, that with a multiple of the unit normal make up
    a_lower and p, from one more solve.  sq holds the |a_k|^2.  Returns None
    for coincident points (m = 0) or a singular system.
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
        # The unit normal's column takes up the offsets along d, and keeps
        # the system regular where the lower point rounds into the face.
        span = np.ones((m + 1, m + 1))
        span[:m, :m], span[:m, m], span[m, m] = rows[:m].T, d / math.sqrt(d @ d), 0.0
        ends = np.ones((m + 1, 2))
        ends[:m, 0], ends[:m, 1] = rows[m], p
        weights = np.linalg.solve(span, ends)[:m].T.tolist()
    except np.linalg.LinAlgError:
        return None
    off = p - base
    return (np.array(upper), lower, p, d,
            (float(d @ d), 2.0 * float(d @ off), float(off @ off)), tuple(map(tuple, weights)))


def _gradients(a: np.ndarray, upper, lower, y) -> np.ndarray:
    """The rows' gradients in (y, u, l): upper levels (-2a_k, -1, 0), lower
    levels (2a_j, 0, 1), then the paraboloid's (2y, 1, 0) unless y is None."""
    m, k = a.shape[1], len(upper) + len(lower)
    rows = np.zeros((k + (y is not None), m + 2))
    rows[:len(upper), :m], rows[:len(upper), m] = -2.0 * a[upper], -1.0
    rows[len(upper):k, :m], rows[len(upper):k, m + 1] = 2.0 * a[lower], 1.0
    if y is not None:
        rows[k, :m], rows[k, m] = 2.0 * y, 1.0
    return rows


def _active_set(a: np.ndarray, radius: float, guess):
    """The pivot's first step: the guessed rows' point y and multipliers z, or None.

    The paraboloid puts y at distance r from the upper points, a quadratic
    along the guess's line, whose root with the smaller u - l is the point.
    z, a list, weights the upper rows, the lower row and the paraboloid.
    Stationarity with the lower multiplier 1 leaves sum_k z_k a_k = a_lower
    + nu y over z's upper part summing to 1 + nu; its component off the
    face gives nu = 2/sqrt(disc), and its part in the face z_upper = foot +
    nu centre (see _guess), so nothing is solved.  Returns None without a
    guess or unless the discriminant is positive.
    """
    if guess is None:
        return None
    upper, lower, p, d, (qa, qb, qc), (foot, centre) = guess
    # |y - a_0|^2 = r^2 is qa s^2 + qb s + qc = r^2; u - l = f_0(y) - f_j(y)
    # grows as 2s along the line, so the smaller root is the point.
    disc = qb * qb - 4.0 * qa * (qc - radius * radius)
    if not disc > 0.0:
        return None
    root = math.sqrt(disc)
    nu = 2.0 / root
    return (p + (-qb - root) / (2.0 * qa) * d,
            [x + nu * w for x, w in zip(foot, centre)] + [1.0, nu])


def _multipliers(a: np.ndarray, upper, lower, y) -> np.ndarray:
    """The rows' multipliers by least squares, refined once: the dual bound
    loses 2r times what is left of the stationarity residual."""
    system, pull = _gradients(a, upper, lower, y).T, np.zeros(a.shape[1] + 2)
    pull[-2:] = -1.0, 1.0
    z = np.linalg.lstsq(system, pull, rcond=None)[0]
    return z + np.linalg.lstsq(system, pull - system @ z, rcond=None)[0]


def _refine(a: np.ndarray, r2: float, upper, lower, on_hull: bool, y: np.ndarray):
    """y after one least-norm Newton step on the rows' equalities (equal
    |a_k - y|^2 within each level; |a_k0 - y|^2 = r^2 with the paraboloid),
    measured as squared distances: a solve leaves them some ulps of r^2
    apart, which near the enclosing radius (nu ~ 1e5) costs c about 1e-10."""
    gap = a - y
    dist2 = np.einsum("ij,ij->i", gap, gap)
    k0, j0 = upper[0], lower[0]
    rows = [gap[upper[1:]] - gap[k0], gap[lower[1:]] - gap[j0]]
    residuals = [dist2[upper[1:]] - dist2[k0], dist2[lower[1:]] - dist2[j0]]
    if on_hull:
        rows.append(gap[k0][None])
        residuals.append([dist2[k0] - r2])
    return y + np.linalg.lstsq(np.concatenate(rows), 0.5 * np.concatenate(residuals),
                               rcond=None)[0]


def _step(a: np.ndarray, sq: np.ndarray, r2: float, upper, lower, on_hull: bool,
          y: np.ndarray):
    """One pivot step from y: the new y, the key of the row it adds, on_hull.

    Keys are k for upper level k, n + j for lower level j, 2n for the
    paraboloid; None when y reaches the rows' equality optimum.  The
    within-level equalities (k0, j0 the first upper and lower rows) put y
    on an affine set, along which u - l = f_k0 - f_j0 falls fastest against
    2(a_j0 - a_k0) less its fit by the rows.  With the paraboloid the
    optimum is that way on the sphere |y - a_k0| = r; without it the set is
    a vertex, or y walks that way until a level or the paraboloid blocks
    it (ties to the lowest key); a blocked move off the sphere leaves it.
    """
    n, m = a.shape
    k0, j0 = upper[0], lower[0]
    rel = a - a[k0]
    d2 = np.einsum("ij,ij->i", rel, rel)
    system = np.concatenate([rel[upper[1:]], rel[lower[1:]] - rel[j0]])
    cost = 2.0 * rel[j0]
    shift, free = np.zeros(m), cost
    if len(system):
        cutoff = (n + m) * _EPS
        rhs = 0.5 * np.concatenate([d2[upper[1:]], d2[lower[1:]] - d2[j0]])
        shift, _, rank, _ = np.linalg.lstsq(system, rhs, rcond=cutoff)
        if rank == m:  # a vertex
            return _refine(a, r2, upper, lower, on_hull, a[k0] + shift), None, on_hull
        free = cost - system.T @ np.linalg.lstsq(system.T, cost, rcond=cutoff)[0]
    norm = math.sqrt(free @ free)
    if not norm > (n + m) * _EPS * math.sqrt(cost @ cost):
        return y, None, on_hull  # u - l is constant on the set
    if on_hull:
        target = _refine(a, r2, upper, lower, True, a[k0] + shift
                         - math.sqrt(max(r2 - shift @ shift, 0.0)) / norm * free)
        direction = target - y
        if not direction @ direction > (n + m) ** 2 * _EPS * _EPS * r2:
            return target, None, True  # y is already there: no row can block
    else:
        direction = free / -norm
    levels, rates = sq - 2.0 * a @ y, -2.0 * a @ direction
    # Upper level k meets u and lower level j meets l where they block.
    room = np.concatenate([levels[k0] - levels, levels - levels[j0]])
    rise = np.concatenate([rates - rates[k0], rates[j0] - rates])
    rise[upper] = rise[[n + j for j in lower]] = 0.0
    lengths = np.full(2 * n + 1, 1.0 if on_hull else math.inf)
    blocks = rise > 0.0
    lengths[:-1][blocks] = np.maximum(room[blocks], 0.0) / rise[blocks]
    if not on_hull:
        # |a_k0 - y - t d|^2 <= r^2 holds up to the positive root in t.
        gap = a[k0] - y
        ease, b = max(r2 - gap @ gap, 0.0), gap @ direction
        root = math.sqrt(b * b + ease)
        lengths[-1] = b + root if b > 0.0 else (ease / (root - b) if root > b else 0.0)
    key = int(lengths.argmin())
    if on_hull and not lengths[key] < 1.0:
        return target, None, True
    return y + lengths[key] * direction, key, key == 2 * n or (on_hull and not lengths[key] > 0.0)


def _pivot(a: np.ndarray, sq: np.ndarray, radius: float, guess, y0: np.ndarray):
    """The reduced program's (y, dist2, lam, mu, nu, on_hull, diagnostics).

    a holds the target's distinct hull coordinates, centred at their
    enclosing-ball centre, sq their squared norms, and radius exceeds their
    largest norm.  |a_k - y|^2 = f_k(y) + |y|^2 and u >= max f_k, so the n
    ball constraints are exactly the paraboloid u + |y|^2 <= r^2, which
    leaves min u - l over 2n levels, l <= f_k(y) <= u, and the paraboloid.
    The pivot's rows, all active at its y, are upper levels, lower levels
    (at least one each) and maybe the paraboloid (on_hull).  Its first
    step is the guess (_active_set), kept if its rows are active at its
    point and no level crosses them; else it starts at y0 from the highest
    and the lowest level.  Each further step is _step; at an equality
    optimum the most negative multiplier's row is dropped (ties to the
    lowest key; not the last upper or lower row, nor one within rounding
    of 0); with none, y is optimal.  It stops after 4 (n + m + 2) steps.
    dist2 holds the |a_k - y|^2; lam, mu and nu, clipped at 0, weight rows.
    """
    n, m = a.shape
    r2 = radius * radius
    first = _active_set(a, radius, guess)
    if first is not None:
        (y, z), upper, lower = first, guess[0].tolist(), [guess[1]]
        gap = a - y
        dist2 = np.einsum("ij,ij->i", gap, gap)
        # Python's max and min beat numpy's on a few points.
        slack, listed = (n + m) * _EPS * r2, dist2.tolist()
        if (max(abs(listed[k] - r2) for k in upper) > slack or max(listed) > r2 + slack
                or min(listed) < listed[lower[0]] - slack):
            first = None
    if first is None:
        y, z, dist2, levels = y0, None, None, sq - 2.0 * a @ y0
        upper, lower = [int(levels.argmax())], [int(levels.argmin())]
    on_hull, stage, steps = first is not None, None, 1
    while True:
        if z is not None:
            # A multiplier within rounding of 0 stays: dropping it on a
            # degenerate optimum would only re-add it after a null step.
            floor = -(n + m) * _EPS * max(map(abs, z))
            value, key = min(((value, key) for value, key, free in zip(
                z, upper + [n + j for j in lower] + [2 * n],
                [len(upper) > 1] * len(upper) + [len(lower) > 1] * len(lower) + [on_hull])
                if free), default=(0.0, None)) if min(z) < floor else (0.0, None)
            if not value < floor:
                stage = "active_set"
                break
            if key < n:
                upper.remove(key)
            elif key < 2 * n:
                lower.remove(key - n)
            on_hull, z = on_hull and key < 2 * n, None
        if steps >= 4 * (n + m + 2):
            break
        steps += 1
        y, key, on_hull = _step(a, sq, r2, upper, lower, on_hull, y)
        dist2 = None
        if key is None:
            z = _multipliers(a, upper, lower, y if on_hull else None).tolist()
        elif key < n:
            upper = sorted(upper + [key])
        elif key < 2 * n:
            lower = sorted(lower + [key - n])
    if z is None:
        z = _multipliers(a, upper, lower, y if on_hull else None).tolist()
    if dist2 is None:
        gap = a - y
        dist2 = np.einsum("ij,ij->i", gap, gap)
    weights = [0.0] * (2 * n + 1)
    for key, value in zip(upper + [n + j for j in lower] + [2 * n], z):
        weights[key] = max(value, 0.0)
    lam, mu = np.array(weights[:n]), np.array(weights[n:2 * n])
    return y, dist2, lam, mu, weights[-1], on_hull, {
        "iterations": steps, "stage": stage, "upper": upper, "lower": lower}


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
        # w is 0 to rounding at a vertex; with w exactly 0 every z gives
        # the same value, and z = 0 rounds least.
        length = math.hypot(*w)
        z = anchor + w / length * radius if length > 0.0 else np.zeros_like(w)
    cross = 2.0 * a @ z
    gap = a - z
    ball = np.einsum("ij,ij->i", gap, gap)
    magnitude = np.abs(net) @ (sq + np.abs(cross)) + nu @ (ball + r2)
    value = net @ (sq - cross) + nu @ (ball - r2)
    return float(value - (n + m + 4) * _EPS * magnitude)


@dataclass(frozen=True, eq=False)
class Solve:
    """The reduced program at one squared radius r^2, in a Frame's units.

    y is the point in hull coordinates, inside the ball, and dist2 holds the
    |a_k - y|^2 there, so dist2.max() - dist2.min() bounds t* from above;
    t_lower bounds it from below.  nu is the paraboloid multiplier with the
    lower multipliers scaled to sum to 1 (None if they sum to 0), and
    on_hull whether the paraboloid is active.  stage is how the solve
    ended: "active_set" (the pivot reached the optimum), "circumcentre" or
    "coincident" (a closed form), or None (the pivot's step cap);
    iterations counts the pivot's steps (0 for a closed form); upper and
    lower index the rows of a on the upper and the lower level.
    """

    y: np.ndarray
    dist2: np.ndarray
    t_lower: float
    nu: float | None
    on_hull: bool
    stage: str | None
    iterations: int
    upper: list
    lower: list


def _solve(frame: Frame, r2: float, y0: np.ndarray | None = None) -> Solve:
    """The reduced program at squared radius r2 in the frame's units, r2 above
    the frame's ball radius squared, with the pivot started at y0 (None: 0,
    from the frame's guess).  t_lower is _dual_bound at the pivot's own
    dist2 and multipliers less ROUNDING_SLACK r^2, and 0 for a closed form."""
    a, sq, circle = frame.a, frame.sq, frame.circle
    n, m = a.shape
    if not m or (circle is not None and circle[1] <= r2):
        # Coincident points, or every point on a sphere inside the ball:
        # all levels tie at y, t* = 0, and nothing is solved.
        y, rows = circle[0] if circle else np.zeros(m), list(range(n))
        return Solve(y, np.einsum("ij,ij->i", a - y, a - y), 0.0, None, False,
                     "circumcentre" if circle else "coincident", 0, rows, rows)
    radius = math.sqrt(r2)  # r itself: a correctly rounded sqrt of r*r gives r back
    guess = frame.guess if y0 is None else _guess(a, sq, y0)
    y, dist2, lam, mu, nu, on_hull, diagnostics = _pivot(
        a, sq, radius, guess, np.zeros(m) if y0 is None else y0)
    t_lower = max(_dual_bound(a, sq, dist2, radius, lam, mu, nu) - ROUNDING_SLACK * r2, 0.0)
    total, top = float(mu.sum()), float(dist2.max())
    if top > r2:
        # Pull y toward the center: max_k |a_k - s y|^2 is convex in s, so
        # the chord from reach^2 to top is safe.  Where it moves y by more
        # than rounding, as near R, each |a_k - s y|^2 is a quadratic below
        # r^2 at s = 0, and the least root of the points outside is.
        reach2 = frame.ball.radius * frame.ball.radius
        s, yy = (r2 - reach2) / (top - reach2), float(y @ y)
        if (1.0 - s) * math.sqrt(yy) > _EPS * radius:
            s = 1.0
            for b, room, far in zip((a @ y).tolist(), (r2 - sq).tolist(), dist2.tolist()):
                if far > r2:
                    root = math.sqrt(b * b + yy * room)
                    s = min(s, (b + root) / yy if b > 0.0 else room / (root - b))
        y = y * s
        dist2 = np.einsum("ij,ij->i", a - y, a - y)
    return Solve(y, dist2, t_lower, nu / total if total > 0.0 else None, on_hull, **diagnostics)


def estimate_c(problem: SpreadProblem, restarts: int = 64, seed: int = 0,
               tolerance: float = 1e-9,
               oracle_samples: int = 0) -> SpreadEstimate:
    """The minimal spread of congruent copies of the target in the r-ball.

    Solves the convex reduction (module docstring) in the target's frame
    (_target_frame): the target over a power of two, scaled to unit
    diameter (_frame_radius), so every slack is relative and
    c(sA, sr) = s c(A, r), bit for bit at s = 2^j.
    Each pass is one _solve at r^2, whose point places the copy and whose
    t_lower gives c_lower = r - sqrt(r^2 - t_lower); the first starts at
    the enclosing-ball center and each further one at the last pass's
    point, up to `restarts` passes, until c_estimate - c_lower <= tolerance
    * radius, or until a pass tightens neither side.  The target fits iff
    its farthest point from its enclosing-ball center is at most radius *
    (1 + FEASIBILITY_SLACK) away.  The placement puts the height off the
    hull on one appended axis (see SpreadEstimate).  With oracle_samples >
    0, a sampling-oracle scan seeded by `seed` fills oracle_value; a
    sampled spread below c_lower raises NonConvergence.
    A `restarts` that is not an integer of at least 1, or an
    `oracle_samples` or a `seed` that is not a nonnegative integer, raises
    DomainError, as does a radius whose square over the diameter
    overflows, before any arithmetic that would leave the float range.
    """
    restarts = _integer(restarts, "restarts")
    if restarts < 1:
        raise DomainError("need at least one restart")
    oracle_samples = _integer(oracle_samples, "oracle sample count")
    if oracle_samples < 0:
        raise DomainError(f"oracle sample count must be nonnegative, got {oracle_samples}")
    seed = _seed(seed)
    _check_tolerance(tolerance)
    target = problem.target
    report = dict(restarts=restarts, seed=seed, radius=problem.radius,
                  ambient_dim=target.dim + 1, tolerance=tolerance)
    frame = _target_frame(target)
    k, placed = frame.k, frame.placed
    scale, radius = _frame_radius(frame, problem.radius)
    reach = frame.ball.radius
    if not _fits(reach, radius):
        return SpreadEstimate(c_estimate=None, best_motion=None,
                              oracle_value=None, feasible=False, **report)
    # A radius inside the slack is raised just past the enclosing radius, so
    # the center is strictly feasible.  c only falls as the radius grows, so
    # c_lower still bounds c(A, r) from below.
    radius = max(radius, reach * (1.0 + ROUNDING_SLACK))
    r2 = radius * radius

    y, best, c_lower, passes = None, None, 0.0, []
    for index in range(restarts):
        solve = _solve(frame, r2, y)
        y = solve.y
        origin = np.empty(target.dim + 1)
        origin[:-1] = placed[0, :-1] + scale * ((frame.ball.center + y) @ frame.basis)
        if frame.diam:
            # With the paraboloid active the farthest point is on the sphere:
            # the copy lies on the hull, whatever r^2 - max |a_k - y|^2 rounds to.
            origin[-1] = 0.0 if solve.on_hull else scale * math.sqrt(
                max(r2 - float(solve.dist2.max()), 0.0))
            norms = _norm(placed - origin, axis=1)
            top, bottom = math.ldexp(float(norms.max()), k), math.ldexp(float(norms.min()), k)
            origin = np.ldexp(origin, k)
        else:
            # Coincident points: the copy is one point at height r over them.
            # Their frame is unscaled (k = 0), and unit times r over unit is r.
            top = bottom = scale * radius
            origin = np.append(origin[:-1], top)
        value, t = top - bottom, solve.t_lower
        lower = math.ldexp(scale * t / (radius + math.sqrt(max(r2 - t, 0.0))), k)
        passes.append({"iterations": solve.iterations, "stage": solve.stage,
                       "upper": [frame.keep[i] for i in solve.upper],
                       "lower": [frame.keep[i] for i in solve.lower], "nu": solve.nu,
                       "bracket": (value - lower) / problem.radius,
                       "height": float(origin[-1]) / problem.radius})
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
