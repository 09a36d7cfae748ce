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
    almost_regular_simplex,
    classify_triangle,
    conjecture_classification,
    obstruction_verdict,
    obtuse_triangle,
    regular_simplex,
    triangle_circumradius,
)


class TestObstructionVerdict:
    def test_obtuse_150_obstructed(self):
        verdict = obstruction_verdict(obtuse_triangle(150.0, 1.0))
        assert verdict.status is Status.NOT_DIAMETER_RAMSEY
        assert verdict.circumradius == pytest.approx(1.0, abs=1e-9)
        assert verdict.margin == pytest.approx(1.0 - 1.0 / math.sqrt(2), abs=1e-9)
        assert verdict.margin > 0

    def test_computes_the_diameter_once(self, monkeypatch):
        calls = []

        def counted(config):
            calls.append(config)
            return diamramsey.geometry.diameter(config)

        monkeypatch.setattr(diamramsey.obstruction, "diameter", counted)
        monkeypatch.setattr(diamramsey.spheres, "diameter", counted)
        verdict = obstruction_verdict(obtuse_triangle(150.0, 1.0))
        assert verdict.status is Status.NOT_DIAMETER_RAMSEY
        assert len(calls) == 1

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

    @pytest.mark.parametrize("scale", [0.5, 1.0, 2.0, 10.0])
    def test_scale_invariant_status(self, scale):
        for config in (obtuse_triangle(150.0, 1.0), regular_simplex(2)):
            scaled = Configuration(dim=2, points=scale * config.points)
            assert obstruction_verdict(scaled).status \
                == obstruction_verdict(config).status

    @pytest.mark.parametrize("scale", [1e-12, 1e-9, 1e-6, 1.0, 1e6])
    def test_verdict_independent_of_units(self, scale):
        # the margin scales with the set, so the tolerance must too
        verdict = obstruction_verdict(obtuse_triangle(150.0, scale))
        assert verdict.status is Status.NOT_DIAMETER_RAMSEY
        assert verdict.margin == pytest.approx(
            scale * (1.0 - 1.0 / math.sqrt(2)), rel=1e-9)
        equilateral = Configuration(dim=2, points=scale * regular_simplex(2).points)
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
