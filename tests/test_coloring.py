import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diamramsey import (
    BudgetExceeded,
    ColoredConfiguration,
    Configuration,
    DomainError,
    Infeasible,
    ShellColoring,
    color_configuration,
    falsify_coloring,
    find_monochromatic_copy,
    num_colors,
    obtuse_triangle,
    regular_simplex,
    shell_color,
)
from oracles import naive_monochromatic_search

UNIT_SQUARE = Configuration.from_points([[0, 0], [1, 0], [1, 1], [0, 1]])
RIGHT_ISOCELES = Configuration.from_points([[0, 0], [1, 0], [0, 1]])


class TestShellColor:
    def test_quarter_norm(self):
        assert shell_color([0.25, 0.0], 0.1) == 2

    def test_origin(self):
        assert shell_color([0.0, 0.0, 0.0], 0.7) == 0

    def test_outermost_shell(self):
        assert shell_color([0.95, 0.0], 0.1) == 9
        assert num_colors(0.95, 0.1) == 10

    def test_domain(self):
        with pytest.raises(DomainError):
            shell_color([1.0], 0.0)

    @given(st.floats(0.01, 2.0), st.floats(0.001, 1.0), st.floats(0, 1))
    @settings(max_examples=60)
    def test_color_within_palette(self, r, c, frac):
        norm = frac * r
        color = shell_color([norm], c)
        assert 0 <= color <= num_colors(r, c) - 1

    @given(st.floats(0.001, 1.0), st.floats(0, 3), st.floats(0, 3))
    @settings(max_examples=60)
    def test_pigeonhole_separation(self, c, n1, n2):
        # norms differing by at least c land in different shells (the 1e-9
        # relative margin keeps float division off the exact boundary)
        if abs(n1 - n2) >= c * (1 + 1e-9):
            assert shell_color([n1], c) != shell_color([n2], c)


class TestNumColors:
    def test_examples(self):
        assert num_colors(0.95, 0.1) == 10
        assert num_colors(1.0, 1.0) == 2
        assert num_colors(0.5, 0.6) == 1

    def test_domain(self):
        with pytest.raises(DomainError):
            num_colors(0.0, 0.1)
        with pytest.raises(DomainError):
            num_colors(1.0, -1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, bad):
        # nan slips past a bare `<= 0` check
        config = Configuration.from_points([[0.05], [0.15]])
        for call in (lambda: num_colors(bad, 0.1), lambda: num_colors(1.0, bad),
                     lambda: shell_color([0.25], bad),
                     lambda: color_configuration(config, bad)):
            with pytest.raises(DomainError):
                call()

    def test_shell_coloring_record(self):
        coloring = ShellColoring(shell_width=0.1, radius=0.95)
        assert coloring.num_colors == 10
        assert coloring.color([0.25, 0.0]) == 2


class TestColorConfiguration:
    def test_norm_ladder(self):
        config = Configuration.from_points([[0.05], [0.15], [0.25]])
        assert color_configuration(config, 0.1).colors == (0, 1, 2)

    def test_constant_on_origin_sphere(self):
        config = Configuration.from_points([[0.3, 0], [0, 0.3], [-0.3, 0]])
        colors = set(color_configuration(config, 0.07).colors)
        assert len(colors) == 1

    def test_length_mismatch_rejected(self):
        with pytest.raises(DomainError):
            ColoredConfiguration(configuration=UNIT_SQUARE, colors=(0, 1))


class TestMonochromaticSpreadBound:
    @pytest.mark.parametrize("seed", range(8))
    def test_monochromatic_implies_spread_below_shell_width(self, seed):
        # contrapositive of the pigeonhole step: same shell => norms within c
        rng = np.random.default_rng(seed)
        c = float(rng.uniform(0.05, 0.5))
        config = Configuration.from_points(rng.normal(0, 1, (5, 3)))
        colored = color_configuration(config, c)
        norms = np.linalg.norm(config.points, axis=1)
        if len(set(colored.colors)) == 1:
            assert norms.max() - norms.min() < c


class TestFalsifyColoring:
    def test_control_finds_monochromatic_copies(self):
        # circumradius 1/sqrt(3) < 0.6: copies fit on a single shell
        report = falsify_coloring(regular_simplex(2), r=0.6, c=0.01,
                                  n_samples=20000, seed=0)
        assert report.monochromatic_count >= 1
        assert report.min_spread < 0.01
        assert report.min_color_span == 0

    def test_tight_shell_width_blocks_copies(self):
        # well below the true minimal spread at this radius (~0.0287)
        report = falsify_coloring(obtuse_triangle(150.0, 1.0), r=0.85, c=0.02,
                                  n_samples=20000, seed=0)
        assert report.monochromatic_count == 0
        assert report.min_spread >= 0.02
        assert report.num_colors == num_colors(0.85, 0.02)

    def test_vacuous_report(self):
        report = falsify_coloring(regular_simplex(2), r=0.6, c=0.01,
                                  n_samples=0, seed=0)
        assert report.vacuous
        assert report.monochromatic_count == 0
        assert report.min_spread is None

    def test_infeasible(self):
        pair = Configuration.from_points([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(Infeasible):
            falsify_coloring(pair, r=0.4, c=0.01, n_samples=10)

    def test_deterministic(self):
        a = falsify_coloring(regular_simplex(2), r=0.6, c=0.01,
                             n_samples=5000, seed=9)
        b = falsify_coloring(regular_simplex(2), r=0.6, c=0.01,
                             n_samples=5000, seed=9)
        assert a.to_dict() == b.to_dict()


class TestFindMonochromaticCopy:
    def test_witness_in_monochromatic_square(self):
        colored = ColoredConfiguration(configuration=UNIT_SQUARE,
                                       colors=(0, 0, 0, 0))
        witness = find_monochromatic_copy(colored, RIGHT_ISOCELES)
        assert witness is not None
        assert len(set(witness)) == 3

    def test_diagonal_coloring_blocks(self):
        colored = ColoredConfiguration(configuration=UNIT_SQUARE,
                                       colors=(0, 1, 0, 1))
        assert find_monochromatic_copy(colored, RIGHT_ISOCELES) is None

    def test_diameter_too_small(self):
        colored = ColoredConfiguration(configuration=UNIT_SQUARE,
                                       colors=(0, 0, 0, 0))
        segment = Configuration.from_points([[0.0, 0.0], [3.0, 0.0]])
        assert find_monochromatic_copy(colored, segment) is None

    def test_coincident_target_needs_coincident_points(self):
        # a zero-diameter target leaves a zero tolerance: 5e-10 apart is not
        # a copy of two coincident points
        host = Configuration.from_points([[0.0, 0.0], [5e-10, 0.0], [3.0, 0.0]])
        colored = ColoredConfiguration(configuration=host, colors=(0, 0, 0))
        target = Configuration.from_points([[1.0, 1.0], [1.0, 1.0]])
        assert find_monochromatic_copy(colored, target) is None

    def test_budget(self):
        big = Configuration.from_points(np.random.default_rng(0).normal(0, 1, (21, 2)))
        colored = ColoredConfiguration(configuration=big, colors=(0,) * 21)
        with pytest.raises(BudgetExceeded):
            find_monochromatic_copy(colored, RIGHT_ISOCELES)

    def test_witness_is_congruent_and_monochromatic(self):
        rng = np.random.default_rng(2)
        host = Configuration.from_points(rng.normal(0, 1, (8, 2)))
        colors = tuple(int(c) for c in rng.integers(0, 2, 8))
        colored = ColoredConfiguration(configuration=host, colors=colors)
        target_idx = [0, 3, 5]
        target = Configuration(dim=2, points=host.points[target_idx])
        witness = find_monochromatic_copy(colored, target)
        if witness is not None:
            assert len({colors[i] for i in witness}) == 1

    @pytest.mark.parametrize("seed", range(10))
    def test_agrees_with_naive_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        host_pts = np.round(rng.normal(0, 1, (7, 2)), 2)
        colors = tuple(int(c) for c in rng.integers(0, 2, 7))
        pick = rng.choice(7, size=3, replace=False)
        target_pts = host_pts[pick] if seed % 2 == 0 \
            else np.round(rng.normal(0, 1, (3, 2)), 2)
        host = Configuration.from_points(host_pts)
        target = Configuration.from_points(target_pts)
        colored = ColoredConfiguration(configuration=host, colors=colors)
        tol = 1e-9
        fast = find_monochromatic_copy(colored, target, tol=tol)
        naive = naive_monochromatic_search(host_pts, colors, target_pts, tol)
        assert (fast is None) == (naive is None)
