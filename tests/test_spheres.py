import math
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import diamramsey.spheres
from diamramsey import (
    Ball,
    Configuration,
    Degenerate,
    DomainError,
    NotSimplex,
    NotSpherical,
    affine_dimension,
    almost_regular_simplex,
    circumcenter_in_hull,
    circumradius,
    circumsphere,
    diameter,
    is_spherical,
    jung_bound,
    min_enclosing_ball,
    obtuse_triangle,
    regular_simplex,
)
from diamramsey.geometry import DEFAULT_TOL, _hull_basis
from diamramsey.spheres import _GRAM_SIN2, _circumcenter, _circumsphere, _sq_dists, _walk
from oracles import (TOO_LARGE_GRID_BALLS, apply_motion, brute_force_meb, configurations,
                     random_motion, welzl_loop, welzl_mtf)

EQUILATERAL = regular_simplex(2)
OBTUSE_150 = obtuse_triangle(150.0, 1.0)


class TestMinEnclosingBall:
    def test_two_points(self):
        config = Configuration.from_points([[0.0, 0.0], [1.0, 0.0]])
        ball = min_enclosing_ball(config)
        assert ball.radius == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(ball.center, [0.5, 0.0], atol=1e-12)

    def test_equilateral(self):
        ball = min_enclosing_ball(EQUILATERAL)
        assert ball.radius == pytest.approx(1 / math.sqrt(3), abs=1e-9)

    def test_obtuse_triangle_diametral_pair(self):
        # the base dominates: brute-force support enumeration gives 0.5
        ball = min_enclosing_ball(OBTUSE_150)
        oracle_radius, _ = brute_force_meb(OBTUSE_150.points)
        assert ball.radius == pytest.approx(0.5, abs=1e-9)
        assert ball.radius == pytest.approx(oracle_radius, abs=1e-9)

    def test_contains_is_relative_to_the_radius(self):
        # radius 5e-13: an absolute 1e-9 slack would hold points 200 radii out
        ball = min_enclosing_ball(obtuse_triangle(150.0, 1e-12))
        assert ball.contains(ball.center + [ball.radius, 0.0])
        assert not ball.contains([1e-10, 0.0])
        big = min_enclosing_ball(obtuse_triangle(150.0, 1e9))
        assert big.contains(big.center + [big.radius * (1 + 1e-12), 0.0])
        assert not big.contains(big.center + [big.radius * (1 + 1e-6), 0.0])

    @pytest.mark.parametrize("point", [[0.5], [0.0, 0.0, 0.0], [[0.0, 0.0]], 0.5])
    def test_contains_rejects_points_of_the_wrong_shape(self, point):
        # [0.5] would broadcast to (0.5, 0.5) and a 3-vector would fail in numpy
        with pytest.raises(DomainError):
            Ball(np.zeros(2), 1.0).contains(point)
        assert Ball(np.zeros(2), 1.0).contains([0.5, 0.0])

    def test_contains_all_points(self):
        rng = np.random.default_rng(3)
        for trial in range(25):
            pts = rng.normal(0, 2, (int(rng.integers(1, 12)), int(rng.integers(1, 5))))
            config = Configuration.from_points(pts)
            ball = min_enclosing_ball(config, seed=trial)
            dists = np.linalg.norm(pts - ball.center, axis=1)
            assert np.all(dists <= ball.radius + 1e-9)

    def test_degenerate_duplicates_and_cocircular(self):
        pts = [[1, 0], [0, 1], [-1, 0], [0, -1], [1, 0], [0, 1]]
        ball = min_enclosing_ball(Configuration.from_points(pts))
        assert ball.radius == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(ball.center, [0, 0], atol=1e-9)

    @pytest.mark.parametrize("scale", [1e-12, 1e-6, 1.0, 1e6])
    def test_scale_invariant_radius(self, scale):
        ball = min_enclosing_ball(obtuse_triangle(150.0, scale))
        assert ball.radius == pytest.approx(0.5 * scale, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("seed", range(12))
    def test_holds_every_point_without_slack(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(1, 4))
        small = rng.normal(0, 2, (int(rng.integers(1, 10)), dim))
        # Points on a sphere: many lie within rounding of the boundary.
        sphere = rng.normal(size=(3000, dim))
        sphere = 2.0 * sphere / np.linalg.norm(sphere, axis=1)[:, None] + rng.normal(size=dim)
        for pts in (small, rng.normal(0, 2, (3000, dim)), sphere):
            ball = min_enclosing_ball(Configuration.from_points(pts), seed=seed)
            assert np.all(np.linalg.norm(pts - ball.center, axis=1) <= ball.radius)
        oracle_radius, _ = brute_force_meb(small)
        ball = min_enclosing_ball(Configuration.from_points(small), seed=seed)
        assert ball.radius == pytest.approx(oracle_radius, rel=1e-9)

    @pytest.mark.parametrize("seed", range(12))
    def test_same_ball_as_per_point_loop(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(int(rng.integers(1, 400)), int(rng.integers(1, 5))))
        n, dim = pts.shape
        slack = 1e-12 * np.abs(pts - pts[0]).max()
        center, _ = welzl_mtf(pts, np.random.default_rng(seed).permutation(n), (), dim, slack)
        loop_center, _ = welzl_loop(pts, seed, slack)
        assert np.array_equal(center, loop_center)
        # the public function walks from a core, not over the whole seeded order
        radius = np.max(np.linalg.norm(pts - center, axis=1))
        ball = min_enclosing_ball(Configuration.from_points(pts), seed=seed)
        assert abs(ball.radius - radius) <= 1e-12 * radius
        assert np.abs(ball.center - center).max() <= 1e-12 * radius

    @pytest.mark.parametrize("seed", [-1, 1.5, 2.0, True, np.int64(-2), "3"])
    def test_rejects_a_seed_that_is_not_a_nonnegative_integer(self, seed):
        # on a cloud the seed shuffles the extremes; on a set that is all
        # extremes it has no effect, and is checked all the same
        cloud = Configuration.from_points(np.random.default_rng(0).normal(size=(200, 3)))
        for config in (cloud, obtuse_triangle(150.0)):
            with pytest.raises(DomainError):
                min_enclosing_ball(config, seed=seed)
            ball = min_enclosing_ball(config, seed=np.int64(3))
            assert np.array_equal(ball.center, min_enclosing_ball(config, seed=3).center)

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.normal(0, 2, (int(rng.integers(1, 11)), int(rng.integers(1, 4))))
        ball = min_enclosing_ball(Configuration.from_points(pts), seed=seed)
        oracle_radius, _ = brute_force_meb(pts)
        assert ball.radius == pytest.approx(oracle_radius, abs=1e-9)

    @pytest.mark.parametrize("pts", TOO_LARGE_GRID_BALLS)
    def test_pinned_grid_sets_match_brute_force(self, pts):
        # Walks that tested for exact zeros ended on balls up to 14.1% too
        # large here, as given or in the hull coordinates over the diameter
        # that the spread frame walks in.  Rounding zeros are zeros now.
        radius, diam = brute_force_meb(pts)[0], diameter(Configuration.from_points(pts))
        hull = (pts - pts[0]) @ _hull_basis(pts, DEFAULT_TOL).T / diam
        for points, scale in ((pts, 1.0), (hull, diam)):
            ball = min_enclosing_ball(Configuration.from_points(points))
            assert np.all(np.linalg.norm(points - ball.center, axis=1) <= ball.radius)
            assert scale * ball.radius == pytest.approx(radius, rel=1e-12)


def _unit_sphere(rng, n: int, dim: int) -> np.ndarray:
    x = rng.normal(size=(n, dim))
    return x / np.linalg.norm(x, axis=1)[:, None]


def _cloud(kind: str, n: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """A seeded cloud of about n points, and its distinct points."""
    if kind == "gaussian":
        pts = rng.normal(size=(n, 3))
    elif kind == "sphere":  # every point within rounding of the boundary
        pts = _unit_sphere(rng, n, 3) + rng.normal(size=3)
    elif kind == "cap30":
        tangent = _unit_sphere(rng, n, 2)
        angle = np.radians(30.0) * rng.random(n)
        pts = np.hstack([np.cos(angle)[:, None], np.sin(angle)[:, None] * tangent])
    elif kind == "repeated":
        base = rng.normal(size=(max(n // 100, 8), 2))
        return np.repeat(base, 100, axis=0)[rng.permutation(100 * len(base))], base
    elif kind == "collinear":
        pts = rng.normal(size=(n, 1)) * rng.normal(size=3) + rng.normal(size=3)
    else:  # coplanar in R^4
        pts = rng.normal(size=(n, 2)) @ rng.normal(size=(2, 4)) + rng.normal(size=4)
    return pts, pts


def _core_rows(pts: np.ndarray) -> np.ndarray:
    """A cloud's core, for clouds without ties: its coordinate extremes and
    the 2(dim + 1) points farthest from the centre of its bounding box."""
    box = 0.5 * (pts.min(axis=0) + pts.max(axis=0))
    far = np.argsort(np.linalg.norm(pts - box, axis=1))[-2 * (pts.shape[1] + 1):]
    return np.union1d(np.union1d(pts.argmin(axis=0), pts.argmax(axis=0)), far)


def _co_spherical_extremes(rng, dim: int) -> np.ndarray:
    """The 2 dim points +-e_i + 0.3 N(0, 1), projected onto the unit sphere
    and translated by N(0, 1)^dim."""
    pts = np.vstack([np.eye(dim), -np.eye(dim)]) + 0.3 * rng.normal(size=(2 * dim, dim))
    return pts / np.linalg.norm(pts, axis=1)[:, None] + rng.normal(size=dim)


@st.composite
def relabelled_sets(draw):
    """A point set and a permutation of it: Gaussian clouds, points on a
    sphere, clouds of repeated points and the co-spherical sets whose points
    are all coordinate extremes, moved off the origin."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["normal", "sphere", "repeated", "co-spherical"]))
    dim = draw(st.integers(1, 5))
    n = draw(st.integers(1, 200))
    if kind == "co-spherical":
        pts = _co_spherical_extremes(rng, max(dim, 2))
    elif kind == "sphere":
        pts = _unit_sphere(rng, n, dim) + rng.normal(size=dim)
    elif kind == "repeated":
        base = rng.normal(size=(draw(st.integers(1, 8)), dim))
        pts = base[rng.integers(0, len(base), n)] + rng.normal(size=dim)
    else:
        pts = rng.normal(size=(n, dim)) + rng.normal(size=dim)
    return pts, rng.permutation(len(pts))


CLOUDS = ["gaussian", "sphere", "cap30", "repeated", "collinear", "coplanar"]
MOVES = ["none", "translate", "scale1e9", "scale1e-9"]


class TestCoreSet:
    """The core-grown ball against Welzl over the whole seeded order."""

    @pytest.mark.parametrize("n", [8, 20000])
    @pytest.mark.parametrize("move", MOVES)
    @pytest.mark.parametrize("kind", CLOUDS)
    def test_matches_whole_order_ball(self, kind, move, n):
        rng = np.random.default_rng([n, CLOUDS.index(kind), MOVES.index(move)])
        pts, base = _cloud(kind, n, rng)
        scale = {"scale1e9": 1e9, "scale1e-9": 1e-9}.get(move, 1.0)
        offset = 0.0
        if move == "translate":
            offset = 1e6 * np.ptp(pts, axis=0).max() * rng.normal(size=pts.shape[1])
        moved = scale * pts + offset
        ball = min_enclosing_ball(Configuration.from_points(moved), seed=n)
        assert np.all(np.linalg.norm(moved - ball.center, axis=1) <= ball.radius)
        m, dim = moved.shape
        slack = 1e-12 * np.abs(moved - moved[0]).max()
        center, _ = welzl_mtf(moved, np.random.default_rng(n).permutation(m), (), dim, slack)
        radius = np.linalg.norm(moved - center, axis=1).max()
        # Two support sets give centres that differ by the rounding of the
        # coordinates, eps * max|x|, which a far translation makes dominant.
        rounding = 4 * np.finfo(float).eps * np.abs(moved).max()
        assert abs(ball.radius - radius) <= 1e-12 * radius + rounding
        if len(base) <= 10:
            assert ball.radius == pytest.approx(scale * brute_force_meb(base)[0], rel=1e-9)

    def test_core_stays_small(self, monkeypatch):
        # Welzl over the whole cloud would see all 50000 points.  The first
        # walk sees the core, at most 2 dim extremes and 2(dim + 1) points
        # far from the bounding box's centre; each pivot round after it sees
        # at most the support and the pivot.
        sizes = []
        walk = diamramsey.spheres._walk

        def recording(pts, *args):
            sizes.append(len(pts))
            return walk(pts, *args)

        monkeypatch.setattr(diamramsey.spheres, "_walk", recording)
        pts = np.random.default_rng(4).normal(size=(50000, 2))
        ball = min_enclosing_ball(Configuration.from_points(pts), seed=4)
        assert np.all(np.linalg.norm(pts - ball.center, axis=1) <= ball.radius)
        assert sizes[0] == len(_core_rows(pts)) <= 4 * pts.shape[1] + 2
        assert max(sizes[1:], default=0) <= pts.shape[1] + 2

    @pytest.mark.parametrize("case", ["translated", "noisy", "stalls", "gaussian"])
    def test_stalled_core_returns_its_ball(self, monkeypatch, case):
        # Rounding beyond the containment slack decides containment on all four
        # clouds.  Each ends in a clean pass: the spheres translated by 1e6
        # right after the core's walk, the noisy sphere and the Gaussian
        # cloud translated by 1e10 extents after a few rounds.  On the
        # Gaussian cloud one round grows no radius but brings the farthest
        # point nearer; stopping at the first round whose radius did not
        # grow would leave a ball 2.8e-4 too wide.
        # test_stalled_round_keeps_its_ball covers a round that stalls.
        sizes = []
        walk = diamramsey.spheres._walk

        def recording(pts, *args):
            sizes.append(len(pts))
            return walk(pts, *args)

        seed = 0
        if case == "noisy":
            rng = np.random.default_rng([15, 4])
            pts = _unit_sphere(rng, 2000, 4) * (1 + 1e-11 * rng.normal(size=(2000, 1)))
        elif case == "gaussian":
            seed, rng = 51, np.random.default_rng([51, 6, 4])
            pts = rng.normal(size=(2000, 6))
            pts = pts + 1e10 * np.ptp(pts, axis=0).max() * rng.normal(size=6)
        else:
            rng = np.random.default_rng(6 if case == "translated" else 7)
            dim = 3 if case == "translated" else 4
            pts = _unit_sphere(rng, 2000, dim) + 1e6 * rng.normal(size=dim)
        monkeypatch.setattr(diamramsey.spheres, "_walk", recording)
        ball = min_enclosing_ball(Configuration.from_points(pts), seed=seed)
        monkeypatch.undo()
        n, dim = pts.shape
        assert sizes[0] == len(_core_rows(pts)) and max(sizes[1:], default=0) <= dim + 2
        assert np.all(np.linalg.norm(pts - ball.center, axis=1) <= ball.radius)
        slack = 1e-12 * np.abs(pts - pts[0]).max()
        center, _ = welzl_mtf(pts, np.random.default_rng(0).permutation(n), (), dim, slack)
        radius = np.linalg.norm(pts - center, axis=1).max()
        # the far translation adds the coordinates' rounding, as above
        rounding = 4 * np.finfo(float).eps * np.abs(pts).max()
        assert abs(ball.radius - radius) <= 1e-11 * radius + rounding
        if case != "gaussian":
            assert ball.radius == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize("seed", [45, 49, 61, 68])
    def test_stalled_round_keeps_its_ball(self, monkeypatch, seed):
        # On these circles translated by 1e6 radii, with a slack that does
        # not cover eps * max|x| (_WELZL_ROUNDING = 0), the core's walk does
        # not end (45, 61) or a later round stalls (49, 68), and the ball is
        # grown again from one extreme.  Its last round neither grows the
        # radius nor brings the farthest point nearer: that walked ball is
        # dropped and the smaller of the two kept balls returned, measured
        # to the farthest of all the points.
        walks = []
        walk = diamramsey.spheres._walk

        def recording(*args):
            walks.append(walk(*args))
            return walks[-1]

        rng = np.random.default_rng([seed, 21])
        pts = _unit_sphere(rng, 2000, 2) + 1e6 * rng.normal(size=2)
        monkeypatch.setattr(diamramsey.spheres, "_walk", recording)
        monkeypatch.setattr(diamramsey.spheres, "_WELZL_ROUNDING", 0.0)
        ball = min_enclosing_ball(Configuration.from_points(pts), seed=seed)
        monkeypatch.undo()
        assert walks[-1] is not None and not np.array_equal(ball.center, walks[-1][0])
        assert np.all(np.linalg.norm(pts - ball.center, axis=1) <= ball.radius)
        slack = 1e-12 * np.abs(pts - pts[0]).max()
        center, _ = welzl_mtf(pts, np.random.default_rng(0).permutation(len(pts)), (), 2,
                              slack)
        radius = np.linalg.norm(pts - center, axis=1).max()
        rounding = 4 * np.finfo(float).eps * np.abs(pts).max()
        assert abs(ball.radius - radius) <= 1e-11 * radius + rounding
        assert ball.radius == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize("seed", [7, 27, 29])
    @pytest.mark.parametrize("shift", [1e6, 1e10, 1e14])
    def test_far_circles_end_on_their_last_walk(self, monkeypatch, seed, shift):
        # The slack covers eps * max|x|, so the circles above, and circles
        # moved farther, end on a clean pass: the ball is the last walk's,
        # and its radius is the circle's up to that slack.
        walks = []
        walk = diamramsey.spheres._walk

        def recording(*args):
            walks.append(walk(*args))
            return walks[-1]

        rng = np.random.default_rng([seed, 21])
        pts = _unit_sphere(rng, 2000, 2) + shift * rng.normal(size=2)
        monkeypatch.setattr(diamramsey.spheres, "_walk", recording)
        ball = min_enclosing_ball(Configuration.from_points(pts), seed=seed)
        monkeypatch.undo()
        assert np.array_equal(ball.center, walks[-1][0])
        assert np.all(np.linalg.norm(pts - ball.center, axis=1) <= ball.radius)
        centred = pts - pts.mean(axis=0)
        radius = min_enclosing_ball(Configuration.from_points(centred), seed=seed).radius
        rounding = 4 * np.finfo(float).eps * np.abs(pts).max()
        assert abs(ball.radius - radius) <= 1e-11 * radius + rounding

    @pytest.mark.parametrize("seed", range(4))
    def test_witness_balls_solve_the_whole_seeded_order(self, seed):
        # The core of a witness is all of it, so its ball is walked to; it
        # agrees with Welzl's over the seeded shuffle of the whole set, and
        # holds every point with no slack.
        for config in (OBTUSE_150, almost_regular_simplex(3, 0.01),
                       almost_regular_simplex(4, 0.01)):
            for dim in (config.dim, config.dim + 1, config.dim + 3):
                pts = np.zeros((len(config), dim))
                pts[:, :config.dim] = config.points
                ball = min_enclosing_ball(Configuration.from_points(pts), seed=seed)
                assert np.all(np.linalg.norm(pts - ball.center, axis=1) <= ball.radius)
                slack = 1e-12 * np.abs(pts - pts[0]).max()
                order = np.random.default_rng(seed).permutation(len(pts))
                center, _ = welzl_mtf(pts, order, (), dim, slack)
                radius = np.linalg.norm(pts - center, axis=1).max()
                rounding = 4 * np.finfo(float).eps * np.abs(pts).max()
                assert abs(ball.radius - radius) <= 1e-12 * radius + rounding

    def test_rounds_walk_from_the_core(self, monkeypatch):
        # The first walk is of the core, from its centroid; every pivot
        # round after it walks the support and the pivot.  The seed picks
        # only the extreme that a stalled ball is grown from again, so on a
        # cloud whose rounds end in a clean pass it changes nothing.
        calls = []
        walk = diamramsey.spheres._walk

        def recording(pts, center, pivot):
            calls.append((pts.copy(), center.copy()))
            return walk(pts, center, pivot)

        monkeypatch.setattr(diamramsey.spheres, "_walk", recording)
        pts = np.random.default_rng(17).normal(size=(5000, 6))
        core = pts[_core_rows(pts)]
        balls = []
        for seed in range(4):
            calls.clear()
            balls.append(min_enclosing_ball(Configuration.from_points(pts), seed=seed))
            assert np.array_equal(calls[0][0], core)
            assert np.array_equal(calls[0][1], core.mean(axis=0))
            assert len(calls) > 1 and max(len(c) for c, _ in calls[1:]) <= pts.shape[1] + 2
            assert np.all(np.linalg.norm(pts - balls[-1].center, axis=1) <= balls[-1].radius)
        for ball in balls[1:]:
            assert np.array_equal(ball.center, balls[0].center)
            assert ball.radius == balls[0].radius

    @pytest.mark.parametrize("seed", range(4))
    def test_unended_walk_solves_the_whole_seeded_order(self, monkeypatch, seed):
        # A whole-set walk that does not end sends the ball to the growth
        # from one extreme, whose walk does not end either.  The ball about
        # the centroid the first walk started from is the smaller, whatever
        # the seed, with the radius measured to the farthest point, so it
        # still holds every point.
        monkeypatch.setattr(diamramsey.spheres, "_walk", lambda *args: None)
        for config in (OBTUSE_150, almost_regular_simplex(4, 0.01)):
            pts = config.points
            ball = min_enclosing_ball(config, seed=seed)
            assert np.array_equal(ball.center, pts.mean(axis=0))
            assert ball.radius == np.linalg.norm(pts - ball.center, axis=1).max()
            assert np.all(np.linalg.norm(pts - ball.center, axis=1) <= ball.radius)

    @pytest.mark.parametrize("kind", CLOUDS)
    def test_unended_walk_keeps_every_point(self, monkeypatch, kind):
        # A walk that does not end stalls its round: the center it started
        # from is kept, the core's centroid, and then the seeded extreme the
        # ball is grown from again.  The smaller of the two balls is
        # returned, with the radius measured to the farthest point, so it
        # still holds every point.
        monkeypatch.setattr(diamramsey.spheres, "_walk", lambda *args: None)
        pts = _cloud(kind, 3000, np.random.default_rng([CLOUDS.index(kind), 5]))[0]
        extremes = np.union1d(pts.argmin(axis=0), pts.argmax(axis=0))
        # the core's distinct points, in some order: its centroid to rounding
        centroid = np.unique(pts[_core_rows(pts)], axis=0).mean(axis=0)
        for seed in range(4):
            ball = min_enclosing_ball(Configuration.from_points(pts), seed=seed)
            reach = np.linalg.norm(pts - ball.center, axis=1)
            assert np.all(reach <= ball.radius)
            assert ball.radius == reach.max()
            at_centroid = np.abs(ball.center - centroid).max() <= 1e-12 * np.abs(pts).max()
            at_extreme = (pts[extremes] == ball.center).all(axis=1).any()
            assert at_centroid or at_extreme
            if at_extreme:
                assert ball.radius <= np.linalg.norm(pts - centroid, axis=1).max()

    def test_co_spherical_extremes_match_brute_force(self):
        # Sets whose points are all coordinate extremes are their own core.
        # On these co-spherical ones the whole set's walk from its centroid
        # cycles under rounding and does not end; keeping the centroid gave
        # balls up to 27.9% too large.  Grown again from one extreme, each
        # is the smallest ball.  The walk reads rounding zeros as zeros, so
        # only about 1 draw in 40 leaves it unended: 3700 draws keep at
        # least 87 regrows checked against the brute force.
        rng = np.random.default_rng(0)
        unended = []
        for _ in range(3700):
            pts = _co_spherical_extremes(rng, int(rng.integers(2, 6)))
            n, dim = pts.shape
            if len(np.union1d(pts.argmin(axis=0), pts.argmax(axis=0))) < n:
                continue
            start = pts.mean(axis=0)
            if _walk(pts, start, int(_sq_dists(pts, start).argmax())) is None:
                unended.append(pts)
        assert len(unended) >= 87
        for pts in unended:
            ball = min_enclosing_ball(Configuration.from_points(pts))
            assert np.all(np.linalg.norm(pts - ball.center, axis=1) <= ball.radius)
            assert ball.radius == pytest.approx(brute_force_meb(pts)[0], rel=1e-9)

    @given(relabelled_sets(), st.integers(0, 3))
    @settings(max_examples=150, deadline=None)
    def test_relabelling_keeps_the_ball(self, case, seed):
        # The order of the points, and the seed, change the ball by rounding
        # at most.
        pts, order = case
        ball = min_enclosing_ball(Configuration.from_points(pts))
        relabelled = min_enclosing_ball(Configuration.from_points(pts[order]), seed=seed)
        for found in (ball, relabelled):
            assert np.all(np.linalg.norm(pts - found.center, axis=1) <= found.radius)
        assert abs(relabelled.radius - ball.radius) <= 1e-12 * ball.radius
        if len(pts) <= 10:
            assert ball.radius == pytest.approx(brute_force_meb(pts)[0], rel=1e-9)

    def test_fallback_is_bounded(self, monkeypatch):
        # On spheres translated by 1e6 radii some cores' walks cycle under
        # rounding and the ball is grown again from one extreme; a repeated
        # cloud's core holds copies of a few points.  Neither may loop: no
        # call solves more than 32 support balls (a walk over a 14-point
        # core at four steps a point would solve 56), and the 40 calls take
        # well under a second.
        clouds = []
        for seed in range(20):
            rng = np.random.default_rng([seed, 77])
            sphere = _cloud("sphere", 3000, rng)[0]
            clouds.append(sphere + 1e6 * np.ptp(sphere, axis=0).max() * rng.normal(size=3))
            clouds.append(_cloud("repeated", 3000, rng)[0])
        configs = [Configuration.from_points(pts) for pts in clouds]
        start = time.perf_counter()
        for seed, config in enumerate(configs):
            min_enclosing_ball(config, seed=seed)
        elapsed = time.perf_counter() - start
        solves, walks = [], []
        circumcenter, walk = diamramsey.spheres._circumcenter, diamramsey.spheres._walk

        def counting(chosen):
            solves[-1] += 1
            return circumcenter(chosen)

        def recording(pts, *args):
            walks.append(len(pts))
            return walk(pts, *args)

        monkeypatch.setattr(diamramsey.spheres, "_circumcenter", counting)
        monkeypatch.setattr(diamramsey.spheres, "_walk", recording)
        for seed, config in enumerate(configs):
            solves.append(0)
            ball = min_enclosing_ball(config, seed=seed)
            reach = np.linalg.norm(config.points - ball.center, axis=1)
            assert np.all(reach <= ball.radius)
        assert 1 in walks  # some ball was grown again from one extreme
        assert max(solves) <= 32
        assert elapsed < 1.0

    @pytest.mark.parametrize("seed", range(40))
    def test_walk_reaches_the_smallest_ball(self, seed):
        rng = np.random.default_rng([seed, 11])
        pts = rng.normal(0, 2, (int(rng.integers(1, 10)), int(rng.integers(1, 5))))
        start = pts.mean(axis=0) + rng.normal(size=pts.shape[1])
        pivot = int(np.linalg.norm(pts - start, axis=1).argmax())
        center, support = _walk(pts, start, pivot)
        radius = float(np.linalg.norm(pts - center, axis=1).max())
        oracle_radius, _ = brute_force_meb(pts)
        assert radius == pytest.approx(oracle_radius, rel=1e-9, abs=1e-12)
        # the support lies on the boundary
        on = np.linalg.norm(pts[support] - center, axis=1)
        assert np.allclose(on, radius, rtol=1e-9, atol=1e-12)


def _least_squares_center(chosen: np.ndarray) -> np.ndarray:
    """The support ball's center by minimum-norm least squares."""
    rel = chosen[1:] - chosen[0]
    rhs = 0.5 * np.einsum("ij,ij->i", rel, rel)
    return chosen[0] + np.linalg.lstsq(rel, rhs, rcond=None)[0]


class TestSupportBalls:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=200)
    def test_gram_solve_matches_least_squares(self, seed):
        # On supports whose rows are each far enough from the span of the
        # others, the one Gram solve gives the least-squares center and the
        # weights that rebuild it, with every support point on the sphere.
        rng = np.random.default_rng(seed)
        k = int(rng.integers(3, 9))
        dim = int(rng.integers(k - 1, k + 2))
        scale = 10.0 ** int(rng.integers(-6, 7))
        chosen = scale * rng.normal(size=(k, dim)) + scale * 10.0 ** int(rng.integers(0, 4))
        rel = chosen[1:] - chosen[0]
        gram = rel @ rel.T
        spread = np.diag(np.linalg.inv(gram)) * np.diag(gram)
        assume(spread.min() > 0.0 and spread.max() <= 1.0 / _GRAM_SIN2)
        center, weights = _circumcenter(chosen)
        want = _least_squares_center(chosen)
        radius = float(np.linalg.norm(chosen[0] - want))
        rounding = 8 * np.finfo(float).eps * np.abs(chosen).max()
        assert np.abs(center - want).max() <= 1e-12 * radius + rounding
        assert abs(weights.sum() - 1.0) <= 1e-12 * np.abs(weights).max()
        assert np.abs(weights @ chosen - center).max() <= 1e-11 * radius + rounding
        dists = np.linalg.norm(chosen - center, axis=1)
        assert dists.max() - dists.min() <= 1e-11 * radius + rounding

    @pytest.mark.parametrize("case", ["repeated", "collinear", "coplanar"])
    @pytest.mark.parametrize("seed", range(8))
    def test_degenerate_supports_fall_back(self, case, seed):
        # A repeated point, a collinear triple or four coplanar points in
        # R^3 have a row in the span of the others; their center is the
        # least-squares one, bit for bit, with finite weights summing to 1.
        rng = np.random.default_rng([seed, 3])
        if case == "repeated":
            a, b = rng.normal(size=(2, 3))
            chosen = np.array([a, b, a])
        elif case == "collinear":
            chosen = rng.normal(size=3) + np.outer(rng.normal(size=3), rng.normal(size=3))
        else:
            plane = rng.normal(size=(2, 3))
            chosen = rng.normal(size=3) + rng.normal(size=(4, 2)) @ plane
        center, weights = _circumcenter(chosen)
        assert np.array_equal(center, _least_squares_center(chosen))
        assert np.all(np.isfinite(weights))
        assert abs(weights.sum() - 1.0) <= 1e-12 * np.abs(weights).max()


class TestWalkedWholeSets:
    """Sets whose coordinate extremes are all of them: every witness."""

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_regular_simplex_radius(self, dim):
        config = regular_simplex(dim)
        want = math.sqrt(dim / (2 * dim + 2)) * diameter(config)
        ball = min_enclosing_ball(config)
        assert abs(ball.radius - want) <= 1e-15 * want
        assert np.all(np.linalg.norm(config.points - ball.center, axis=1) <= ball.radius)

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_almost_regular_simplex_matches_brute_force(self, dim):
        config = almost_regular_simplex(dim, 1e-6)
        ball = min_enclosing_ball(config)
        oracle_radius, _ = brute_force_meb(config.points)
        assert ball.radius == pytest.approx(oracle_radius, rel=1e-12)

    def test_simplices_need_no_move_to_front(self, monkeypatch):
        # Move-to-front over a simplex in R^d solves up to 2^(d+1) support
        # balls; one walk of the whole set ends it, about one point a step.
        calls = []
        walk = diamramsey.spheres._walk

        def recording(pts, *args):
            calls.append(len(pts))
            return walk(pts, *args)

        monkeypatch.setattr(diamramsey.spheres, "_walk", recording)
        for dim in range(2, 9):
            for config in (regular_simplex(dim), almost_regular_simplex(dim, 1e-6)):
                for seed in range(3):
                    calls.clear()
                    min_enclosing_ball(config, seed=seed)
                    assert calls == [dim + 1]

    @pytest.mark.parametrize("dim", [8, 32, 70])
    def test_simplices_in_hull_coordinates_are_one_walk(self, dim, monkeypatch):
        # In the spread solve's hull coordinates some vertices are no
        # coordinate extreme, but a set of at most dim + 1 points is still
        # walked from its centroid in one go, to the radius of the ambient
        # ball.
        config = almost_regular_simplex(dim, 1e-3)
        basis = _hull_basis(config.points, DEFAULT_TOL)
        coords = Configuration(points=(config.points - config.points[0]) @ basis.T)
        pts = coords.points
        extremes = set(pts.argmin(axis=0)) | set(pts.argmax(axis=0))
        assert len(extremes) < dim + 1
        calls = []
        walk = diamramsey.spheres._walk

        def recording(pts, *args):
            calls.append(len(pts))
            return walk(pts, *args)

        monkeypatch.setattr(diamramsey.spheres, "_walk", recording)
        ball = min_enclosing_ball(coords)
        assert calls == [dim + 1]
        assert ball.radius == pytest.approx(min_enclosing_ball(config).radius, rel=1e-13)

    @pytest.mark.parametrize("dim", [64, 100])
    def test_high_dimensional_regular_simplex_radius(self, dim):
        # One walk of dim + 1 steps; move-to-front over the whole set would
        # solve up to 2^(dim+1) support balls.
        config = regular_simplex(dim)
        want = math.sqrt(dim / (2 * dim + 2)) * diameter(config)
        ball = min_enclosing_ball(config)
        assert ball.radius == pytest.approx(want, rel=1e-13)
        assert np.all(np.linalg.norm(config.points - ball.center, axis=1) <= ball.radius)

    def test_high_dimensional_almost_regular_simplex(self):
        # Too many support subsets for brute_force_meb: the ball lies
        # between half the diameter and Jung's radius, below the
        # circumradius, and its center is in the convex hull of the points
        # on its boundary, which makes it the smallest.
        from scipy.optimize import nnls

        config = almost_regular_simplex(70, 1e-3)
        pts = config.points
        ball = min_enclosing_ball(config)
        dists = np.linalg.norm(pts - ball.center, axis=1)
        assert np.all(dists <= ball.radius)
        assert diameter(config) / 2 <= ball.radius <= jung_bound(config)
        assert ball.radius < circumradius(config)
        on = pts[dists >= ball.radius * (1 - 1e-9)]
        weights, residual = nnls(np.vstack([on.T, np.ones(len(on))]),
                                 np.append(ball.center, 1.0))
        assert residual <= 1e-9 * ball.radius

    @pytest.mark.parametrize("seed", range(24))
    @pytest.mark.parametrize("move", ["none", "far"])
    def test_tiny_sets_match_whole_order_ball(self, seed, move):
        rng = np.random.default_rng([seed, 31])
        dim = int(rng.integers(1, 5))
        pts = rng.normal(size=(int(rng.integers(1, 2 * dim + 2)), dim))
        if move == "far":
            pts = pts + 1e6 * np.ptp(pts, axis=0).max() * rng.normal(size=dim)
        ball = min_enclosing_ball(Configuration.from_points(pts), seed=seed)
        assert np.all(np.linalg.norm(pts - ball.center, axis=1) <= ball.radius)
        n = len(pts)
        slack = 1e-12 * np.abs(pts - pts[0]).max()
        center, _ = welzl_mtf(pts, np.random.default_rng(seed).permutation(n), (), dim, slack)
        radius = np.linalg.norm(pts - center, axis=1).max()
        rounding = 4 * np.finfo(float).eps * np.abs(pts).max()
        assert abs(ball.radius - radius) <= 1e-11 * radius + rounding


@pytest.mark.parametrize("n", [10, 300])
@pytest.mark.parametrize("dim", range(1, 13))
def test_sq_dists_are_the_squares_of_norm(n, dim):
    # Both branches, column sums (n >= _COLUMN_ROWS, dim < 8) and numpy's
    # reduce, give np.linalg.norm's bits once square-rooted.
    rng = np.random.default_rng([n, dim])
    pts = rng.normal(size=(n, dim)) * 10.0 ** rng.integers(-6, 7, size=dim) \
        + 10.0 ** int(rng.integers(-2, 7))
    center = pts[0] + rng.normal(size=dim)
    assert np.array_equal(np.sqrt(_sq_dists(pts, center)),
                          np.linalg.norm(pts - center, axis=1))


class TestCircumsphere:
    def test_two_points(self):
        config = Configuration.from_points([[0.0, 0.0], [1.0, 0.0]])
        sphere = circumsphere(config)
        assert sphere.radius == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(sphere.center, [0.5, 0.0], atol=1e-12)

    def test_triangle_plus_centroid_not_spherical(self):
        pts = np.vstack([EQUILATERAL.points, EQUILATERAL.points.mean(axis=0)])
        with pytest.raises(NotSpherical):
            circumsphere(Configuration.from_points(pts))

    def test_obtuse_triangle_radius_one(self):
        assert circumsphere(OBTUSE_150).radius == pytest.approx(1.0, abs=1e-9)

    def test_coincident_points_degenerate(self):
        config = Configuration.from_points([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(Degenerate):
            circumsphere(config)

    def test_single_point_rejected(self):
        with pytest.raises(DomainError):
            circumsphere(Configuration.from_points([[0.0]]))

    def test_sphere_decided_without_the_diameter(self, monkeypatch):
        pts = np.random.default_rng(0).normal(size=(3000, 3))
        config = Configuration.from_points(pts / np.linalg.norm(pts, axis=1)[:, None])
        want, _ = _circumsphere(config.points, 1e-9, diameter(config) ** 2)
        calls = []
        centred = diamramsey.spheres._diameter
        monkeypatch.setattr(diamramsey.spheres, "_diameter",
                            lambda *args, **kwargs: calls.append(args) or centred(*args, **kwargs))
        sphere = circumsphere(config)
        assert calls == []
        assert np.array_equal(sphere.center, want.center)
        assert np.array_equal(sphere.carrier, want.carrier)
        assert (sphere.radius, sphere.residual) == (want.radius, want.residual)

    def test_a_weak_lower_bound_falls_back_to_the_diameter(self, monkeypatch):
        # Three points on the unit circle and one just off it.  With the
        # lower bound L cut to half the diameter, a residual between
        # tol * L and tol * diam is still accepted, and one above
        # tol * diam still rejected.
        angles = np.array([0.0, 2.0, 4.0])
        pts = np.vstack([np.column_stack([np.cos(angles), np.sin(angles)]),
                         [[0.0, 1.0 + 1e-6]]])
        config = Configuration.from_points(pts)
        diam = diameter(config)
        residual = _circumsphere(config.points, math.inf, diam ** 2)[0].residual
        monkeypatch.setattr(diamramsey.spheres, "_far_pair_sq",
                            lambda pts, start: (diam / 2) ** 2)
        sphere = circumsphere(config, 1.5 * residual / diam)
        assert sphere.residual == residual
        with pytest.raises(NotSpherical):
            circumsphere(config, 0.5 * residual / diam)

    def test_lower_dimensional_set_keeps_center_in_hull(self):
        # a planar triangle floating in R^3: the carrier spans its plane
        motion = random_motion(3, seed=2)
        flat = apply_motion(
            Configuration(points=np.hstack([EQUILATERAL.points, np.zeros((3, 1))])),
            motion)
        sphere = circumsphere(flat)
        assert sphere.radius == pytest.approx(1 / math.sqrt(3), abs=1e-9)
        assert sphere.carrier.shape == (2, 3)
        # center equidistant from all points
        dists = np.linalg.norm(flat.points - sphere.center, axis=1)
        assert np.allclose(dists, sphere.radius, atol=1e-9)


class TestCircumradius:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 6])
    def test_regular_simplex_formula(self, d):
        want = math.sqrt(d / (2.0 * d + 2.0))
        assert circumradius(regular_simplex(d)) == pytest.approx(want, abs=1e-9)

    def test_propagates_not_spherical(self):
        pts = np.vstack([EQUILATERAL.points, EQUILATERAL.points.mean(axis=0)])
        with pytest.raises(NotSpherical):
            circumradius(Configuration.from_points(pts))


class TestIsSpherical:
    def test_simplices_always_spherical(self):
        for d in (1, 2, 3, 5):
            assert is_spherical(regular_simplex(d))

    def test_triangle_plus_centroid(self):
        pts = np.vstack([EQUILATERAL.points, EQUILATERAL.points.mean(axis=0)])
        assert not is_spherical(Configuration.from_points(pts))

    def test_concyclic_quadruple(self):
        config = Configuration.from_points([[1, 0], [0, 1], [-1, 0], [0, -1]])
        assert is_spherical(config)


class TestJungBound:
    def test_segment(self):
        config = Configuration.from_points([[0.0], [1.0]])
        assert jung_bound(config) == pytest.approx(0.5, abs=1e-12)

    def test_equilateral(self):
        assert jung_bound(EQUILATERAL) == pytest.approx(1 / math.sqrt(3), abs=1e-9)

    def test_unit_square(self):
        square = Configuration.from_points([[0, 0], [1, 0], [1, 1], [0, 1]])
        want = math.sqrt(2) * math.sqrt(1.0 / 3.0)
        assert jung_bound(square) == pytest.approx(want, abs=1e-9)

    @given(configurations())
    @settings(max_examples=60)
    def test_meb_within_jung(self, config):
        assert min_enclosing_ball(config).radius <= jung_bound(config) + 1e-9


class TestCircumcenterInHull:
    def test_equilateral_interior(self):
        assert circumcenter_in_hull(EQUILATERAL)

    def test_obtuse_center_outside(self):
        # circumcenter sits at (0.5, -sqrt(3)/2), across the long side
        sphere = circumsphere(OBTUSE_150)
        assert np.allclose(sphere.center, [0.5, -math.sqrt(3) / 2], atol=1e-9)
        assert not circumcenter_in_hull(OBTUSE_150)

    def test_right_triangle_boundary_counts(self):
        right = Configuration.from_points([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        assert circumcenter_in_hull(right)

    def test_affinely_dependent_rejected(self):
        collinear = Configuration.from_points([[0.0], [1.0], [2.0]])
        with pytest.raises(NotSimplex):
            circumcenter_in_hull(collinear)


class TestSphereInvariants:
    @given(configurations(min_points=2), st.integers(0, 30))
    @settings(max_examples=40)
    def test_meb_and_circumradius_motion_invariant(self, config, seed):
        moved = apply_motion(config, random_motion(config.dim, seed=seed))
        assert min_enclosing_ball(moved).radius == pytest.approx(
            min_enclosing_ball(config).radius, abs=1e-9)
        try:
            original = circumradius(config)
        except (NotSpherical, Degenerate):
            return
        assert circumradius(moved) == pytest.approx(original, abs=1e-9)

    @given(configurations())
    @settings(max_examples=60)
    def test_half_diameter_lower_bound(self, config):
        assert diameter(config) / 2.0 <= min_enclosing_ball(config).radius + 1e-9

    @pytest.mark.parametrize("seed", range(12))
    def test_meb_equals_circumradius_iff_center_in_hull(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 6))
        config = Configuration.from_points(rng.normal(0, 1, (dim + 1, dim)))
        if affine_dimension(config) != dim:
            return
        meb = min_enclosing_ball(config).radius
        circ = circumradius(config)
        assert meb <= circ + 1e-9
        if circumcenter_in_hull(config):
            assert meb == pytest.approx(circ, abs=1e-6)
        else:
            assert circ - meb > 1e-6
