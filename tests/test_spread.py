import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import diamramsey
from diamramsey import (
    Configuration,
    DomainError,
    EmptySample,
    Infeasible,
    NonConvergence,
    apply_motion,
    distance_matrix,
    embed_target,
    embedding_feasible,
    estimate_c,
    falsify_coloring,
    obtuse_triangle,
    random_motion,
    regular_simplex,
    sample_spread_oracle,
    spread,
    SpreadProblem,
    almost_regular_simplex,
    min_enclosing_ball,
)
from diamramsey.spread import _CHUNK, _feasible_batches, _prepare
from oracles import (configurations, ks_statistic, planar_spread_min,
                     rotated_copy_spreads)

OBTUSE_150 = obtuse_triangle(150.0, 1.0)
EQUILATERAL = regular_simplex(2)


class TestSpread:
    def test_two_norms(self):
        config = Configuration.from_points([[0.3, 0.0], [0.0, 0.4]])
        assert spread(config) == pytest.approx(0.1, abs=1e-12)

    def test_origin_sphere_is_zero(self):
        config = Configuration.from_points([[1, 0], [0, 1], [-1, 0]])
        assert spread(config) == pytest.approx(0.0, abs=1e-12)

    def test_singleton(self):
        assert spread(Configuration.from_points([[2.0, 1.0]])) == 0.0

    def test_invariant_under_origin_rotation(self):
        for seed in range(8):
            motion = random_motion(2, seed=seed, translation_scale=0.0)
            moved = apply_motion(OBTUSE_150, motion)
            assert spread(moved) == pytest.approx(spread(OBTUSE_150), abs=1e-9)


class TestEmbedTarget:
    def test_pads_extra_dimension(self):
        emb = embed_target(EQUILATERAL, 3)
        assert emb.dim == 3
        assert np.allclose(emb.points[:, 2], 0.0)
        assert np.allclose(distance_matrix(emb), distance_matrix(EQUILATERAL))

    def test_reduces_high_ambient(self):
        flat = Configuration(
            dim=4, points=np.hstack([EQUILATERAL.points, np.zeros((3, 2))]))
        moved = apply_motion(flat, random_motion(4, seed=1))
        emb = embed_target(moved, 3)
        assert emb.dim == 3
        assert np.allclose(distance_matrix(emb), distance_matrix(EQUILATERAL),
                           atol=1e-9)

    def test_rejects_too_small(self):
        with pytest.raises(DomainError):
            embed_target(regular_simplex(3), 2)


class TestSpreadProblem:
    def test_default_ambient_is_affine_plus_one(self):
        assert SpreadProblem(target=OBTUSE_150, radius=0.9).ambient_dim == 3
        segment = Configuration.from_points([[0.0, 0.0, 0.0], [1.0, 1.0, 0.0]])
        assert SpreadProblem(target=segment, radius=0.9).ambient_dim == 2

    def test_rejects_bad_radius(self):
        with pytest.raises(DomainError):
            SpreadProblem(target=OBTUSE_150, radius=0.0)


class TestEmbeddingFeasible:
    def test_pair_too_large(self):
        pair = Configuration.from_points([[0.0, 0.0], [1.0, 0.0]])
        assert not embedding_feasible(SpreadProblem(target=pair, radius=0.4))

    def test_equilateral_fits(self):
        assert embedding_feasible(SpreadProblem(target=EQUILATERAL, radius=0.6))

    def test_obtuse_at_exact_meb(self):
        assert embedding_feasible(SpreadProblem(target=OBTUSE_150, radius=0.5))


class TestEstimateC:
    def test_zero_when_ball_contains_circumsphere(self):
        problem = SpreadProblem(target=EQUILATERAL, radius=0.6)
        estimate = estimate_c(problem, restarts=4, seed=0)
        assert estimate.feasible
        assert estimate.c_estimate <= 1e-6

    def test_infeasible_flag(self):
        pair = Configuration.from_points([[0.0, 0.0], [1.0, 0.0]])
        estimate = estimate_c(SpreadProblem(target=pair, radius=0.4),
                              restarts=4, seed=0)
        assert not estimate.feasible
        assert estimate.c_estimate is None
        assert estimate.best_motion is None

    def test_matches_independent_grid_oracle(self):
        problem = SpreadProblem(target=OBTUSE_150, radius=0.95)
        estimate = estimate_c(problem, restarts=24, seed=0)
        reference = planar_spread_min(OBTUSE_150.points, 0.95)
        assert estimate.c_estimate == pytest.approx(reference, rel=0.02)
        assert estimate.c_estimate <= reference + 1e-6

    def test_best_motion_certifies_value(self):
        problem = SpreadProblem(target=OBTUSE_150, radius=0.9)
        estimate = estimate_c(problem, restarts=8, seed=3)
        emb = embed_target(problem.target, problem.ambient_dim)
        placed = apply_motion(emb, estimate.best_motion)
        norms = np.linalg.norm(placed.points, axis=1)
        assert float(norms.max()) <= problem.radius + 1e-7
        assert spread(placed) == pytest.approx(estimate.c_estimate, abs=1e-7)
        assert estimate.max_norm == pytest.approx(float(norms.max()), abs=1e-12)

    def test_deterministic_across_runs(self):
        problem = SpreadProblem(target=OBTUSE_150, radius=0.85)
        first = estimate_c(problem, restarts=6, seed=11)
        second = estimate_c(problem, restarts=6, seed=11)
        assert first.c_estimate == second.c_estimate
        assert np.array_equal(first.best_motion.rotation,
                              second.best_motion.rotation)

    def test_oracle_cross_check_recorded(self):
        problem = SpreadProblem(target=OBTUSE_150, radius=0.9)
        estimate = estimate_c(problem, restarts=6, seed=0, oracle_samples=20000)
        assert estimate.oracle_value is not None
        assert estimate.oracle_value >= estimate.c_estimate - 1e-6

    def test_override_ambient_dimension(self):
        # in the plane of the triangle the height off its hull is forced to 0
        problem = SpreadProblem(target=OBTUSE_150, radius=1.05, ambient_dim=2)
        with pytest.raises(DomainError):
            estimate_c(problem, restarts=6, seed=0)

    def test_higher_ambient_dimension_same_value(self):
        base = estimate_c(SpreadProblem(target=OBTUSE_150, radius=0.95))
        wide = estimate_c(SpreadProblem(target=OBTUSE_150, radius=0.95,
                                        ambient_dim=5))
        assert wide.c_estimate == pytest.approx(base.c_estimate, rel=1e-9)
        assert len(wide.best_motion.translation) == 5

    def test_serializes(self):
        import json
        problem = SpreadProblem(target=EQUILATERAL, radius=0.6)
        estimate = estimate_c(problem, restarts=2, seed=0)
        payload = json.loads(json.dumps(estimate.to_dict()))
        assert payload["feasible"] is True
        assert payload["seed"] == 0
        assert len(payload["best_motion"]["rotation"]) == 3
        assert payload["c_lower"] == estimate.c_lower
        assert "penalty_schedule" not in payload


class TestCertifiedBracket:
    @pytest.mark.parametrize("radius", [0.55, 0.65, 0.75, 0.85, 0.95])
    def test_triangle_ladder(self, radius):
        estimate = estimate_c(SpreadProblem(target=OBTUSE_150, radius=radius))
        assert 0.0 < estimate.c_lower <= estimate.c_estimate
        assert estimate.c_estimate <= estimate.c_lower + estimate.tolerance * radius

    @pytest.mark.parametrize("dim, radius", [(3, 0.707), (3, 0.6457),
                                             (4, 0.707), (4, 0.6633)])
    def test_almost_regular_simplex(self, dim, radius):
        problem = SpreadProblem(target=almost_regular_simplex(dim, 0.01),
                                radius=radius)
        estimate = estimate_c(problem, restarts=2)
        assert 0.0 < estimate.c_lower <= estimate.c_estimate
        assert estimate.c_estimate <= estimate.c_lower + 1e-9 * radius
        assert estimate.max_norm <= radius * (1.0 + 1e-12)

    @pytest.mark.parametrize("radius", [0.75, 0.95])
    def test_lower_bound_below_grid_oracle(self, radius):
        estimate = estimate_c(SpreadProblem(target=OBTUSE_150, radius=radius))
        assert estimate.c_lower <= planar_spread_min(OBTUSE_150.points, radius)

    def test_lower_bound_below_sampling_oracle(self):
        problem = SpreadProblem(target=almost_regular_simplex(3, 0.01),
                                radius=0.6457)
        estimate = estimate_c(problem)
        assert estimate.c_lower <= sample_spread_oracle(problem, 50000, seed=2)

    def test_zero_lower_bound_above_circumradius(self):
        estimate = estimate_c(SpreadProblem(target=OBTUSE_150, radius=1.05))
        assert estimate.c_lower == 0.0

    def test_near_enclosing_radius_keeps_order(self):
        # at the enclosing radius the feasible centres shrink to a point, the
        # worst-conditioned case; the bracket must still be ordered
        for radius in (0.5 * (1.0 - 1e-10), 0.5, 0.5 * (1.0 + 1e-6)):
            estimate = estimate_c(SpreadProblem(target=OBTUSE_150, radius=radius))
            assert estimate.feasible
            assert estimate.c_lower <= estimate.c_estimate
            assert estimate.max_norm <= radius * (1.0 + 2e-9)

    def test_oracle_below_lower_bound_raises(self, monkeypatch):
        import importlib
        sp = importlib.import_module("diamramsey.spread")
        monkeypatch.setattr(sp, "sample_spread_oracle",
                            lambda problem, n, seed: 0.0)
        with pytest.raises(NonConvergence):
            estimate_c(SpreadProblem(target=OBTUSE_150, radius=0.95),
                       oracle_samples=10)

    @given(configurations(min_points=2, max_points=6), st.floats(1.02, 3.0),
           st.integers(0, 2 ** 16))
    @settings(max_examples=40)
    def test_invariant_under_motion_and_relabelling(self, config, factor, seed):
        meb = min_enclosing_ball(config).radius
        assume(meb > 0.0)
        radius = factor * meb
        base = estimate_c(SpreadProblem(target=config, radius=radius))
        moved = apply_motion(config, random_motion(config.dim, seed=seed))
        order = np.random.default_rng(seed).permutation(len(config))
        relabelled = Configuration(dim=config.dim, points=moved.points[order])
        other = estimate_c(SpreadProblem(target=relabelled, radius=radius))
        assert other.c_estimate == pytest.approx(base.c_estimate,
                                                 abs=1e-9 * radius)
        assert other.c_lower <= base.c_estimate
        assert base.c_lower <= other.c_estimate


class TestScaleInvariance:
    @pytest.mark.parametrize("scale", [1e-12, 1e-6, 1.0, 1e6])
    def test_spread_scales_with_target(self, scale):
        base = estimate_c(SpreadProblem(target=OBTUSE_150, radius=0.95),
                          restarts=2)
        target = obtuse_triangle(150.0, scale)
        estimate = estimate_c(SpreadProblem(target=target, radius=0.95 * scale),
                              restarts=2)
        assert estimate.c_estimate == pytest.approx(scale * base.c_estimate,
                                                    rel=1e-9)
        assert estimate.c_lower == pytest.approx(scale * base.c_lower, rel=1e-9)
        assert estimate.max_norm <= 0.95 * scale * (1.0 + 1e-12)

    @pytest.mark.parametrize("scale", [1e-12, 1e-6, 1.0, 1e6])
    def test_infeasible_below_enclosing_radius(self, scale):
        # the enclosing radius is 0.5 * scale, so no copy fits at 0.3 * scale
        target = obtuse_triangle(150.0, scale)
        estimate = estimate_c(SpreadProblem(target=target, radius=0.3 * scale),
                              restarts=2)
        assert not estimate.feasible
        assert estimate.c_estimate is None and estimate.c_lower is None

    @pytest.mark.parametrize("scale", [1e-12, 1e-6, 1.0, 1e6])
    def test_samplers_infeasible_below_enclosing_radius(self, scale):
        target = obtuse_triangle(150.0, scale)
        with pytest.raises(Infeasible):
            sample_spread_oracle(SpreadProblem(target=target, radius=0.3 * scale), 2000)
        with pytest.raises(Infeasible):
            falsify_coloring(target, 0.3 * scale, 0.1 * scale, 2000)


class TestLazyImport:
    def test_import_loads_no_scipy(self):
        src = str(Path(diamramsey.__file__).resolve().parents[1])
        code = ("import sys, diamramsey; "
                "print(sorted(m for m in sys.modules "
                "if m == 'scipy' or m.startswith('scipy.')))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True,
                             env=dict(os.environ, PYTHONPATH=src))
        assert out.stdout.strip() == "[]"


class TestSampleSpreadOracle:
    def test_approaches_zero_above_circumradius(self):
        problem = SpreadProblem(target=EQUILATERAL, radius=0.7)
        value = sample_spread_oracle(problem, 50000, seed=0)
        assert value < 0.02

    def test_upper_bounds_estimate(self):
        problem = SpreadProblem(target=OBTUSE_150, radius=0.95)
        estimate = estimate_c(problem, restarts=16, seed=0)
        oracle = sample_spread_oracle(problem, 200000, seed=0)
        assert oracle >= estimate.c_estimate - 1e-6
        assert oracle <= 1.2 * estimate.c_estimate

    def test_empty_sample_rejected(self):
        problem = SpreadProblem(target=OBTUSE_150, radius=0.95)
        with pytest.raises(EmptySample):
            sample_spread_oracle(problem, 0, seed=0)

    def test_infeasible_raises(self):
        pair = Configuration.from_points([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(Infeasible):
            sample_spread_oracle(SpreadProblem(target=pair, radius=0.4), 100)

    def test_deterministic_and_chunk_independent(self):
        problem = SpreadProblem(target=OBTUSE_150, radius=0.9)
        assert sample_spread_oracle(problem, 30000, seed=4) \
            == sample_spread_oracle(problem, 30000, seed=4)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_more_chunks_never_raise_the_minimum(self, seed):
        # chunk 0 is the same stream whatever the sample count
        problem = SpreadProblem(target=almost_regular_simplex(3, 0.01),
                                radius=0.6457)
        assert sample_spread_oracle(problem, 2 * _CHUNK, seed=seed) \
            <= sample_spread_oracle(problem, _CHUNK, seed=seed)

    @pytest.mark.parametrize("target, radius", [
        (OBTUSE_150, 0.5), (OBTUSE_150, 0.95), (EQUILATERAL, 0.7),
        (almost_regular_simplex(3, 0.01), 0.6457),
        (almost_regular_simplex(4, 0.01), 0.707)])
    def test_every_copy_inside_the_ball(self, target, radius):
        problem = SpreadProblem(target=target, radius=radius)
        for norms in _feasible_batches(_prepare(problem), radius, 20000, 3):
            assert norms.shape == (len(target), 20000)
            assert norms.max() <= radius * (1.0 + 1e-12)

    @pytest.mark.parametrize("target, radius", [
        (OBTUSE_150, 0.95), (almost_regular_simplex(4, 0.01), 0.707)])
    def test_translates_match_rotated_copies(self, target, radius):
        # A Haar rotation before the translation cannot change the spread
        # distribution; dropping the 1/dim power on the radii moves this
        # statistic to 0.11 and 0.06 on these two cases.
        problem = SpreadProblem(target=target, radius=radius)
        spreads = np.concatenate([
            norms.max(axis=0) - norms.min(axis=0)
            for norms in _feasible_batches(_prepare(problem), radius, 20000, 0)])
        reference = rotated_copy_spreads(target.points, radius,
                                         problem.ambient_dim, 20000, seed=0)
        assert ks_statistic(spreads, reference) <= 0.03

    def test_peak_allocation(self):
        problem = SpreadProblem(target=almost_regular_simplex(4, 0.01),
                                radius=0.707)
        sample_spread_oracle(problem, 100)
        tracemalloc.start()
        try:
            sample_spread_oracle(problem, 2 * _CHUNK)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 48 * 2 ** 20


class TestMonotonicity:
    def test_shrinking_ball_cannot_decrease_estimate(self):
        values = []
        for radius in (0.6, 0.8, 1.0):
            problem = SpreadProblem(target=OBTUSE_150, radius=radius)
            values.append(estimate_c(problem, restarts=10, seed=0).c_estimate)
        assert values[0] >= values[1] - 1e-6
        assert values[1] >= values[2] - 1e-6
