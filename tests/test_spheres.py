import math

import numpy as np
import pytest
from hypothesis import given, settings
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
    apply_motion,
    circumcenter_in_hull,
    circumradius,
    circumsphere,
    diameter,
    is_spherical,
    jung_bound,
    min_enclosing_ball,
    obtuse_triangle,
    random_motion,
    regular_simplex,
)
from diamramsey.spheres import _circumsphere, _sq_dists, _walk, _welzl_mtf
from oracles import brute_force_meb, configurations, welzl_loop

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
        center, _ = _welzl_mtf(pts, np.random.default_rng(seed).permutation(n), (), dim, slack)
        loop_center, _ = welzl_loop(pts, seed, slack)
        assert np.array_equal(center, loop_center)
        # the public function solves a core, not the whole seeded order
        radius = np.max(np.linalg.norm(pts - center, axis=1))
        ball = min_enclosing_ball(Configuration.from_points(pts), seed=seed)
        assert abs(ball.radius - radius) <= 1e-12 * radius
        assert np.abs(ball.center - center).max() <= 1e-12 * radius

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.normal(0, 2, (int(rng.integers(1, 11)), int(rng.integers(1, 4))))
        ball = min_enclosing_ball(Configuration.from_points(pts), seed=seed)
        oracle_radius, _ = brute_force_meb(pts)
        assert ball.radius == pytest.approx(oracle_radius, abs=1e-9)


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
        center, _ = _welzl_mtf(moved, np.random.default_rng(n).permutation(m), (), dim, slack)
        radius = np.linalg.norm(moved - center, axis=1).max()
        # Two support sets give centres that differ by the rounding of the
        # coordinates, eps * max|x|, which a far translation makes dominant.
        rounding = 4 * np.finfo(float).eps * np.abs(moved).max()
        assert abs(ball.radius - radius) <= 1e-12 * radius + rounding
        if len(base) <= 10:
            assert ball.radius == pytest.approx(scale * brute_force_meb(base)[0], rel=1e-9)

    def test_core_stays_small(self, monkeypatch):
        # Welzl over the whole cloud would see all 50000 points; the
        # pivot-grown core needs a few.
        sizes = []
        welzl = diamramsey.spheres._welzl_mtf

        def recording(pts, *args):
            sizes.append(len(pts))
            return welzl(pts, *args)

        monkeypatch.setattr(diamramsey.spheres, "_welzl_mtf", recording)
        pts = np.random.default_rng(4).normal(size=(50000, 2))
        ball = min_enclosing_ball(Configuration.from_points(pts), seed=4)
        assert np.all(np.linalg.norm(pts - ball.center, axis=1) <= ball.radius)
        assert 0 < max(sizes) <= 64

    @pytest.mark.parametrize("case", ["translated", "noisy", "stalls", "gaussian"])
    def test_stalled_core_returns_its_ball(self, monkeypatch, case):
        # Rounding beyond Welzl's slack decides containment on all four
        # clouds.  With walked rounds each ends in a clean pass: on the S^3
        # translated by 1e6 and the Gaussian cloud translated by 1e10
        # extents one round grows no radius but brings the farthest point
        # nearer.  On the Gaussian cloud, stopping at the first round whose
        # radius did not grow would leave a ball 2.8e-4 too wide.
        # test_stalled_round_keeps_its_ball covers a round that stalls.
        sizes = []
        welzl = diamramsey.spheres._welzl_mtf

        def recording(pts, *args):
            sizes.append(len(pts))
            return welzl(pts, *args)

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
        monkeypatch.setattr(diamramsey.spheres, "_welzl_mtf", recording)
        ball = min_enclosing_ball(Configuration.from_points(pts), seed=seed)
        monkeypatch.undo()
        assert 0 < max(sizes) <= 64
        assert np.all(np.linalg.norm(pts - ball.center, axis=1) <= ball.radius)
        n, dim = pts.shape
        slack = 1e-12 * np.abs(pts - pts[0]).max()
        center, _ = _welzl_mtf(pts, np.random.default_rng(0).permutation(n), (), dim, slack)
        radius = np.linalg.norm(pts - center, axis=1).max()
        # the far translation adds the coordinates' rounding, as above
        rounding = 4 * np.finfo(float).eps * np.abs(pts).max()
        assert abs(ball.radius - radius) <= 1e-11 * radius + rounding
        if case != "gaussian":
            assert ball.radius == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize("seed", [7, 27, 29])
    def test_stalled_round_keeps_its_ball(self, monkeypatch, seed):
        # On these circles translated by 1e6 radii the last round neither
        # grows the radius nor brings the farthest point nearer: its walked
        # ball is dropped and the one before it kept, measured to the
        # farthest of all the points.
        walks = []
        walk = diamramsey.spheres._walk

        def recording(*args):
            walks.append(walk(*args))
            return walks[-1]

        rng = np.random.default_rng([seed, 21])
        pts = _unit_sphere(rng, 2000, 2) + 1e6 * rng.normal(size=2)
        monkeypatch.setattr(diamramsey.spheres, "_walk", recording)
        ball = min_enclosing_ball(Configuration.from_points(pts), seed=seed)
        monkeypatch.undo()
        assert walks[-1] is not None and not np.array_equal(ball.center, walks[-1][0])
        assert np.all(np.linalg.norm(pts - ball.center, axis=1) <= ball.radius)
        slack = 1e-12 * np.abs(pts - pts[0]).max()
        center, _ = _welzl_mtf(pts, np.random.default_rng(0).permutation(len(pts)), (), 2,
                               slack)
        radius = np.linalg.norm(pts - center, axis=1).max()
        rounding = 4 * np.finfo(float).eps * np.abs(pts).max()
        assert abs(ball.radius - radius) <= 1e-11 * radius + rounding
        assert ball.radius == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_witness_balls_solve_the_whole_seeded_order(self, seed):
        # The core of a witness is all of it, so its ball is bit for bit
        # Welzl's over the seeded shuffle of the whole set.
        for config in (OBTUSE_150, almost_regular_simplex(3, 0.01),
                       almost_regular_simplex(4, 0.01)):
            for dim in (config.dim, config.dim + 1, config.dim + 3):
                pts = np.zeros((len(config), dim))
                pts[:, :config.dim] = config.points
                ball = min_enclosing_ball(Configuration.from_points(pts), seed=seed)
                slack = 1e-12 * np.abs(pts - pts[0]).max()
                order = np.random.default_rng(seed).permutation(len(pts))
                center, _ = _welzl_mtf(pts, order, (), dim, slack)
                assert np.array_equal(ball.center, center)

    def test_rounds_walk_from_one_extreme(self, monkeypatch):
        # Move-to-front runs once, on the one coordinate extreme the seed
        # picks; every pivot round is walked to.
        calls = []
        welzl = diamramsey.spheres._welzl_mtf

        def recording(pts, *args):
            calls.append(pts.copy())
            return welzl(pts, *args)

        monkeypatch.setattr(diamramsey.spheres, "_welzl_mtf", recording)
        pts = np.random.default_rng(9).normal(size=(5000, 6))
        extremes = pts[np.union1d(pts.argmin(axis=0), pts.argmax(axis=0))]
        for seed in range(4):
            calls.clear()
            ball = min_enclosing_ball(Configuration.from_points(pts), seed=seed)
            assert len(calls) == 1 and len(calls[0]) == 1
            assert (extremes == calls[0][0]).all(axis=1).any()
            assert np.all(np.linalg.norm(pts - ball.center, axis=1) <= ball.radius)

    @pytest.mark.parametrize("kind", CLOUDS)
    def test_rounds_fall_back_to_move_to_front(self, monkeypatch, kind):
        # A walk that does not end leaves the round to move-to-front over
        # the support and the pivot; the ball is the same.
        rng = np.random.default_rng([CLOUDS.index(kind), 5])
        pts, _ = _cloud(kind, 3000, rng)
        walked = min_enclosing_ball(Configuration.from_points(pts), seed=2)
        monkeypatch.setattr(diamramsey.spheres, "_WALK_STEPS", 0)
        ball = min_enclosing_ball(Configuration.from_points(pts), seed=2)
        assert np.all(np.linalg.norm(pts - ball.center, axis=1) <= ball.radius)
        assert abs(ball.radius - walked.radius) <= 1e-12 * walked.radius

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
        want = _circumsphere(config, 1e-9, diameter(config))
        calls = []
        monkeypatch.setattr(diamramsey.spheres, "diameter",
                            lambda c: calls.append(c) or diameter(c))
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
        residual = _circumsphere(config, math.inf, diam).residual
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
            Configuration(dim=3, points=np.hstack([EQUILATERAL.points,
                                                   np.zeros((3, 1))])),
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
