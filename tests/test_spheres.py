import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diamramsey.spheres
from diamramsey import (
    Configuration,
    Degenerate,
    DomainError,
    NonConvergence,
    NotSimplex,
    NotSpherical,
    affine_dimension,
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
        ball = min_enclosing_ball(Configuration.from_points(pts), seed=seed)
        center, _ = welzl_loop(pts, seed, 1e-12 * np.abs(pts - pts[0]).max())
        assert np.array_equal(ball.center, center)
        assert ball.radius == np.max(np.linalg.norm(pts - center, axis=1))

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.normal(0, 2, (int(rng.integers(1, 11)), int(rng.integers(1, 4))))
        ball = min_enclosing_ball(Configuration.from_points(pts), seed=seed)
        oracle_radius, _ = brute_force_meb(pts)
        assert ball.radius == pytest.approx(oracle_radius, abs=1e-9)

    def test_enumeration_fallback_rescues_tiny_sets(self, monkeypatch):
        # Welzl returning a too-small ball three times sends the call to the
        # support enumeration, which must still find the true ball
        monkeypatch.setattr(diamramsey.spheres, "_welzl_mtf",
                            lambda pts, *args: (pts[0], 0.0))
        rng = np.random.default_rng(5)
        for n, dim in ((1, 2), (4, 2), (9, 3)):
            pts = rng.normal(size=(n, dim))
            ball = min_enclosing_ball(Configuration.from_points(pts))
            assert ball.radius == pytest.approx(brute_force_meb(pts)[0], rel=1e-9)

    def test_enumeration_fallback_bounded(self, monkeypatch):
        monkeypatch.setattr(diamramsey.spheres, "_welzl_mtf",
                            lambda pts, *args: (pts[0], 0.0))
        pts = np.random.default_rng(0).normal(size=(3000, 3))
        start = time.perf_counter()
        with pytest.raises(NonConvergence):
            min_enclosing_ball(Configuration.from_points(pts))
        assert time.perf_counter() - start < 1.0


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
