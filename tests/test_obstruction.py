import math

import numpy as np
import pytest

import diamramsey.geometry
import diamramsey.obstruction
import diamramsey.spheres
from diamramsey import (
    Configuration,
    ConjectureLabel,
    DomainError,
    NotSpherical,
    Status,
    affine_dimension,
    almost_regular_simplex,
    classify_triangle,
    conjecture_classification,
    diameter,
    obstruction_verdict,
    obtuse_triangle,
    regular_simplex,
    triangle_circumradius,
)


def _sphere_points(n: int, dim: int, cap_deg: float | None) -> Configuration:
    """n seeded points of a unit sphere in R^dim centred off the origin.

    With cap_deg, the points lie within cap_deg degrees of one pole.
    """
    rng = np.random.default_rng([n, dim])
    pts = rng.normal(size=(n, dim))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    if cap_deg is not None:
        side = pts[:, 1:] / np.linalg.norm(pts[:, 1:], axis=1)[:, None]
        angle = np.radians(cap_deg) * rng.random((n, 1))
        pts = np.hstack([np.cos(angle), np.sin(angle) * side])
    return Configuration.from_points(pts + rng.normal(size=dim))


class TestObstructionVerdict:
    def test_obtuse_150_obstructed(self):
        verdict = obstruction_verdict(obtuse_triangle(150.0, 1.0))
        assert verdict.status is Status.NOT_DIAMETER_RAMSEY
        assert verdict.circumradius == pytest.approx(1.0, abs=1e-9)
        assert verdict.margin == pytest.approx(1.0 - 1.0 / math.sqrt(2), abs=1e-9)
        assert verdict.margin > 0

    def test_computes_the_diameter_once(self, monkeypatch):
        # Every diameter goes through geometry._diameter, the centred entry
        # point, so counting it in each namespace that binds it counts them
        # all: a triangle, a full sphere (screened about its circumcenter)
        # and a 30-degree cap (about its centroid).
        calls = []
        centred = diamramsey.geometry._diameter

        def counted(pts, *args):
            calls.append(pts)
            return centred(pts, *args)

        cases = [(obtuse_triangle(150.0, 1.0), Status.NOT_DIAMETER_RAMSEY),
                 (_sphere_points(3000, 3, None), Status.UNKNOWN),
                 (_sphere_points(2000, 5, 30.0), Status.NOT_DIAMETER_RAMSEY)]
        for config, status in cases:
            calls.clear()
            with monkeypatch.context() as mp:
                for module in (diamramsey.geometry, diamramsey.spheres, diamramsey.obstruction):
                    mp.setattr(module, "_diameter", counted)
                verdict = obstruction_verdict(config)
            assert verdict.status is status
            assert len(calls) == 1
            assert verdict.diameter == diameter(config)

    def test_equilateral_unknown(self):
        verdict = obstruction_verdict(regular_simplex(2))
        assert verdict.status is Status.UNKNOWN
        assert verdict.circumradius < verdict.threshold

    def test_perturbed_simplex_obstructed(self):
        verdict = obstruction_verdict(almost_regular_simplex(3, 0.005))
        assert verdict.status is Status.NOT_DIAMETER_RAMSEY

    def test_not_spherical_reported_distinctly(self):
        tri = regular_simplex(2)
        pts = np.vstack([tri.points, tri.points.mean(axis=0)])
        with pytest.raises(NotSpherical):
            obstruction_verdict(Configuration.from_points(pts))

    @pytest.mark.parametrize("height, dim", [(1e-11, 2), (1e-10, 2), (1e-8, 3)])
    def test_nearly_flat_tetrahedron_takes_affine_dimension(self, height, dim):
        # The unit triangle and a point `height` above its centroid.  The
        # circumsphere cuts its hull at DEFAULT_TOL, as affine_dimension
        # does, so where the set reads planar the apex lies off the
        # triangle's circle, not on a sphere of radius 1.7e10.
        tri = np.hstack([regular_simplex(2).points, np.zeros((3, 1))])
        pts = np.vstack([tri, [*tri.mean(axis=0)[:2], height]])
        config = Configuration.from_points(pts)
        assert affine_dimension(config) == dim
        if dim == 2:
            with pytest.raises(NotSpherical):
                obstruction_verdict(config)
        else:
            assert obstruction_verdict(config).status is Status.NOT_DIAMETER_RAMSEY

    @pytest.mark.parametrize("scale", [0.5, 1.0, 2.0, 10.0])
    def test_scale_invariant_status(self, scale):
        for config in (obtuse_triangle(150.0, 1.0), regular_simplex(2)):
            scaled = Configuration(points=scale * config.points)
            assert obstruction_verdict(scaled).status \
                == obstruction_verdict(config).status

    @pytest.mark.parametrize("scale", [1e-12, 1e-9, 1e-6, 1.0, 1e6])
    def test_verdict_independent_of_units(self, scale):
        # the margin scales with the set, so the tolerance must too
        verdict = obstruction_verdict(obtuse_triangle(150.0, scale))
        assert verdict.status is Status.NOT_DIAMETER_RAMSEY
        assert verdict.margin == pytest.approx(
            scale * (1.0 - 1.0 / math.sqrt(2)), rel=1e-9)
        equilateral = Configuration(points=scale * regular_simplex(2).points)
        assert obstruction_verdict(equilateral).status is Status.UNKNOWN


class TestTriangleCircumradius:
    def test_right_angle_thales(self):
        assert triangle_circumradius(1.0, 90.0) == pytest.approx(0.5, abs=1e-12)

    def test_150_degrees(self):
        assert triangle_circumradius(1.0, 150.0) == pytest.approx(1.0, abs=1e-12)

    def test_threshold_angle(self):
        assert triangle_circumradius(1.0, 135.0) == pytest.approx(
            1.0 / math.sqrt(2), abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.0, 180.0, -5.0, 200.0])
    def test_domain(self, alpha):
        with pytest.raises(DomainError):
            triangle_circumradius(1.0, alpha)

    def test_nonpositive_side(self):
        with pytest.raises(DomainError):
            triangle_circumradius(0.0, 90.0)

    @pytest.mark.parametrize("side", [float("nan"), float("inf")])
    def test_non_finite_side(self, side):
        with pytest.raises(DomainError):
            triangle_circumradius(side, 150.0)
        with pytest.raises(DomainError):
            classify_triangle(150.0, side)


class TestClassifyTriangle:
    def test_150_not_diameter_ramsey(self):
        assert classify_triangle(150.0, 1.0).status is Status.NOT_DIAMETER_RAMSEY

    def test_120_unknown(self):
        assert classify_triangle(120.0, 1.0).status is Status.UNKNOWN

    def test_threshold_is_strict(self):
        assert classify_triangle(135.0, 1.0).status is Status.UNKNOWN

    def test_domain(self):
        with pytest.raises(DomainError):
            classify_triangle(50.0, 1.0)
        with pytest.raises(DomainError):
            classify_triangle(180.0, 1.0)

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    def test_agrees_with_verdict_on_half_degree_grid(self, a):
        alpha = 90.5
        while alpha < 180.0:
            expected = obstruction_verdict(obtuse_triangle(alpha, a)).status
            assert classify_triangle(alpha, a).status == expected, alpha
            alpha += 0.5


class TestConjectureClassification:
    def test_equilateral(self):
        assert conjecture_classification(regular_simplex(2)) \
            is ConjectureLabel.DIAMETER_RAMSEY

    def test_mildly_obtuse(self):
        assert conjecture_classification(obtuse_triangle(100.0, 1.0)) \
            is ConjectureLabel.NOT_DIAMETER_RAMSEY

    def test_right_triangle_boundary(self):
        right = Configuration.from_points([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        assert conjecture_classification(right) is ConjectureLabel.DIAMETER_RAMSEY

    def test_labels_are_marked_conjectural(self):
        for label in ConjectureLabel:
            assert label.value.startswith("Conjectured")
