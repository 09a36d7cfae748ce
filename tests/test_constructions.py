import math

import numpy as np
import pytest

from diamramsey import (
    Configuration,
    Degenerate,
    DomainError,
    Status,
    almost_regular_measure,
    almost_regular_simplex,
    circumradius,
    diameter,
    distance_matrix,
    obstruction_verdict,
    obtuse_triangle,
    regular_simplex,
)


def largest_angle_deg(config: Configuration) -> float:
    """Law-of-cosines largest angle of a triangle; test-side check."""
    d = distance_matrix(config)
    a, b, c = d[1, 2], d[0, 2], d[0, 1]
    angles = []
    for opp, s1, s2 in ((a, b, c), (b, a, c), (c, a, b)):
        cos = (s1 * s1 + s2 * s2 - opp * opp) / (2 * s1 * s2)
        angles.append(math.degrees(math.acos(max(-1.0, min(1.0, cos)))))
    return max(angles)


class TestRegularSimplex:
    def test_dimension_one(self):
        config = regular_simplex(1)
        assert len(config) == 2
        assert diameter(config) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("d", range(1, 9))
    def test_unit_edges(self, d):
        config = regular_simplex(d)
        assert config.dim == d and len(config) == d + 1
        dists = distance_matrix(config)
        off = dists[~np.eye(d + 1, dtype=bool)]
        assert np.max(np.abs(off - 1.0)) < 1e-12

    @pytest.mark.parametrize("d", [2, 4])
    def test_circumradius_formula(self, d):
        want = math.sqrt(d / (2.0 * d + 2.0))
        assert circumradius(regular_simplex(d)) == pytest.approx(want, abs=1e-9)

    def test_centered_at_origin(self):
        assert np.allclose(regular_simplex(5).points.mean(axis=0), 0.0, atol=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            regular_simplex(0)


class TestAlmostRegularSimplex:
    def test_frozen_coordinates_d2(self):
        config = almost_regular_simplex(2, 0.01)
        want = np.array([
            [0.5, math.sqrt(0.26)],
            [-0.5, math.sqrt(0.26)],
            [0.0, math.sqrt(0.51)],
        ])
        assert np.allclose(config.points, want, atol=1e-12)
        assert circumradius(config) == pytest.approx(math.sqrt(0.51), abs=1e-9)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("delta", [1e-2, 1e-3, 1e-4])
    def test_construction_identities(self, d, delta):
        config = almost_regular_simplex(d, delta)
        r = math.sqrt(0.5 + delta)
        a = math.sqrt(0.5 / d + delta)
        norms = np.linalg.norm(config.points, axis=1)
        assert np.max(np.abs(norms - r)) < 1e-9
        dists = distance_matrix(config)
        base = dists[:d, :d][~np.eye(d, dtype=bool)]
        assert np.max(np.abs(base - 1.0)) < 1e-9
        apex_sq = dists[:d, d] ** 2
        assert np.max(np.abs(apex_sq - (1.0 + 2.0 * delta - 2.0 * r * a))) < 1e-9
        assert diameter(config) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_apex_distance_limit(self, d):
        delta = 1e-6
        config = almost_regular_simplex(d, delta)
        apex_sq = float(np.sum((config.points[0] - config.points[d]) ** 2))
        assert apex_sq == pytest.approx(1.0 - 1.0 / math.sqrt(d), abs=10 * delta)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_obstructed(self, d):
        config = almost_regular_simplex(d, 1e-3)
        assert circumradius(config) > 1.0 / math.sqrt(2)
        assert obstruction_verdict(config).status is Status.NOT_DIAMETER_RAMSEY

    def test_domain(self):
        with pytest.raises(DomainError):
            almost_regular_simplex(1, 0.01)
        with pytest.raises(DomainError):
            almost_regular_simplex(3, 0.0)
        with pytest.raises(DomainError):
            almost_regular_simplex(3, -0.1)


class TestObtuseTriangle:
    def test_frozen_150(self):
        config = obtuse_triangle(150.0, 1.0)
        assert np.allclose(config.points[2], [0.5, 1.0 - math.sqrt(3) / 2],
                           atol=1e-12)
        assert circumradius(config) == pytest.approx(1.0, abs=1e-9)

    def test_120_circumradius(self):
        assert circumradius(obtuse_triangle(120.0, 1.0)) == pytest.approx(
            1.0 / math.sqrt(3), abs=1e-9)

    @pytest.mark.parametrize("alpha", [91.0, 120.0, 150.0, 179.0])
    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    def test_recovers_angle_and_diameter(self, alpha, a):
        config = obtuse_triangle(alpha, a)
        assert diameter(config) == pytest.approx(a, abs=1e-9)
        assert largest_angle_deg(config) == pytest.approx(alpha, abs=1e-6)
        want = a / (2.0 * math.sin(math.radians(alpha)))
        assert circumradius(config) == pytest.approx(want, abs=1e-9)

    def test_domain(self):
        for alpha in (90.0, 180.0, 45.0):
            with pytest.raises(DomainError):
                obtuse_triangle(alpha, 1.0)
        with pytest.raises(DomainError):
            obtuse_triangle(150.0, 0.0)


@pytest.mark.parametrize("build, what", [
    (lambda value: almost_regular_simplex(3, value), "perturbation"),
    (lambda value: obtuse_triangle(150.0, value), "side length"),
], ids=["almost_regular_simplex", "obtuse_triangle"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_parameter_named(build, what, value):
    # a nan or infinite size reports the parameter, not a downstream check
    with pytest.raises(DomainError, match=f"{what} must be finite and positive"):
        build(value)


class TestAlmostRegularMeasure:
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_regular_simplex_is_zero(self, d):
        assert almost_regular_measure(regular_simplex(d)) == pytest.approx(
            0.0, abs=1e-12)

    def test_closed_form_d2(self):
        delta = 0.01
        config = almost_regular_simplex(2, delta)
        two_ra = 2.0 * math.sqrt(0.51) * math.sqrt(0.26)
        want = 2.0 * (two_ra - 2.0 * delta) / 3.0
        assert almost_regular_measure(config) == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_limit_toward_sqrt_d_over_pairs(self, d):
        delta = 1e-5
        measure = almost_regular_measure(almost_regular_simplex(d, delta))
        want = math.sqrt(d) / math.comb(d + 1, 2)
        assert measure == pytest.approx(want, abs=10 * delta)

    def test_bounded_by_one(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            config = Configuration.from_points(rng.normal(0, 1, (4, 3)))
            measure = almost_regular_measure(config)
            assert 0.0 <= measure <= 1.0

    def test_degenerate(self):
        with pytest.raises(Degenerate):
            almost_regular_measure(Configuration.from_points([[1.0], [1.0]]))
