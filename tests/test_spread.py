import dataclasses
import gc
import importlib
import json
import math
import os
import subprocess
import sys
import textwrap
import threading
import tracemalloc
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from unittest import mock

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
    affine_dimension,
    color_configuration,
    diameter,
    embedding_feasible,
    estimate_c,
    falsify_coloring,
    obtuse_triangle,
    regular_simplex,
    sample_spread_oracle,
    SpreadProblem,
    almost_regular_simplex,
    min_enclosing_ball,
    obstruction_verdict,
)
from diamramsey.formats import colored_to_dict
from diamramsey.spread import (ROUNDING_SLACK, _CHUNK, _active_set, _guess, _prepare,
                               _shrink_factors, _summarize_chunks)
from oracles import GRID_11 as GRID_11_POINTS
from oracles import (TOO_LARGE_GRID_BALLS, _explicit_shrink_factors, apply_motion,
                     brute_force_meb, co_spherical_sets, configurations, explicit_copy_norms,
                     hull_coordinates, interior_point, kkt_gradients, kkt_multipliers,
                     ks_statistic, planar_spread_min, random_motion, rotated_copy_spreads,
                     slsqp_levels, spread)

OBTUSE_150 = obtuse_triangle(150.0, 1.0)
EQUILATERAL = regular_simplex(2)
DIAGNOSED_WITNESSES = [
    (OBTUSE_150, 0.95), (OBTUSE_150, 0.75), (almost_regular_simplex(3, 0.01), 0.707),
    (almost_regular_simplex(4, 0.01), 0.6633), (almost_regular_simplex(8, 1e-6), 0.7)]
spread_module = importlib.import_module("diamramsey.spread")
# (sample count, seed) pairs of which one is not a count or not a seed.
BAD_COUNTS_AND_SEEDS = [(2.5, 0), (True, 0), ("10", 0), (None, 0), (10, 1.5), (10, "a"),
                        (10, -1), (10, True), (10, None)]


def sampler_witnesses():
    """The benchmark's seven sampler cases: the 150-degree triangle at three
    radii, and the almost-regular 3- and 4-simplex at 0.707 and halfway
    between their enclosing radius and circumradius."""
    cases = [(OBTUSE_150, r) for r in (0.95, 0.85, 0.75)]
    for d in (3, 4):
        simplex = almost_regular_simplex(d, 0.01)
        mid = 0.5 * (min_enclosing_ball(simplex).radius
                     + obstruction_verdict(simplex).circumradius)
        cases += [(simplex, 0.707), (simplex, mid)]
    return cases


class TestSpread:
    # The oracle that the placement tests below measure with.
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


def padded(config: Configuration, extra: int = 1) -> Configuration:
    """The configuration with `extra` zero coordinates appended."""
    return Configuration(points=np.hstack([config.points, np.zeros((len(config), extra))]))


class TestSpreadProblem:
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

    @pytest.mark.parametrize("points", TOO_LARGE_GRID_BALLS)
    def test_pinned_grid_sets_fit_from_their_radius(self, points):
        # embedding_feasible read the public ball and estimate_c the frame's;
        # on these sets one or the other was up to 14.1% too large, and the
        # two disagreed from R to 1.05 R.  Both read the frame's ball now.
        target = Configuration.from_points(points)
        radius = brute_force_meb(points)[0]
        frame = spread_module._target_frame(target)
        assert math.ldexp(frame.ball.radius * frame.diam, frame.k) == pytest.approx(
            radius, rel=1e-12)
        for factor in (0.97, 1.0 - 1e-3, 1.0, 1.0 + 1e-3, 1.03, 1.05):
            problem = SpreadProblem(target=target, radius=factor * radius)
            fits = embedding_feasible(problem)
            assert fits == (factor >= 1.0)
            assert estimate_c(problem).feasible == fits

    @given(co_spherical_sets(), st.sampled_from([1.0 - 1e-3, 1.0 + 1e-3]))
    @settings(max_examples=60, deadline=None)
    def test_fits_from_the_smallest_radius(self, points, factor):
        radius = brute_force_meb(points)[0]
        problem = SpreadProblem(target=Configuration.from_points(points), radius=factor * radius)
        assert embedding_feasible(problem) == estimate_c(problem).feasible == (factor > 1.0)


def _grid_sets(count: int) -> list:
    """Seeded sets of distinct points of {-1, 0, 1}^d, d = 2-4, d + 2 to 15
    drawn, times a scale drawn from U(1e-3, 1e3).  Their points are often
    co-spherical, where an enclosing-ball walk can end on a ball too large."""
    rng = np.random.default_rng(5)
    sets = []
    while len(sets) < count:
        d = int(rng.integers(2, 5))
        drawn = rng.integers(-1, 2, size=(int(rng.integers(d + 2, 16)), d)).astype(float)
        distinct = list({row.tobytes(): row for row in drawn}.values())
        scale = rng.uniform(1e-3, 1e3)
        if len(distinct) > 1:
            sets.append(Configuration.from_points(np.array(distinct) * scale))
    return sets


GRID_11 = Configuration.from_points(GRID_11_POINTS)


class TestSolveAndSamplersAgree:
    """estimate_c reports a fit exactly where neither sampler raises Infeasible.

    The solve and the samplers read one enclosing ball, the frame's; which
    answer is right is the enclosing ball's concern, not asserted here.
    """

    @staticmethod
    def _agree(target, radius):
        fits = estimate_c(SpreadProblem(target=target, radius=radius)).feasible
        for sample in (lambda: sample_spread_oracle(SpreadProblem(target, radius), 4),
                       lambda: falsify_coloring(target, radius, 0.1 * radius, 4)):
            try:
                sample()
                sampled = True
            except Infeasible:
                sampled = False
            assert sampled == fits, (radius, fits)

    @pytest.mark.parametrize("factor", [1.0, 1.02, 1.05, 1.07, 1.1])
    def test_co_spherical_grid(self, factor):
        # The samplers walked their own ball at the points' extent, of 0.5
        # diameters, and sampled where the solve found no fit.
        self._agree(GRID_11, factor * min_enclosing_ball(GRID_11).radius)

    def test_grid_sets_at_the_frame_ball(self):
        for config in _grid_sets(300):
            frame = spread_module._target_frame(config)
            radius = math.ldexp(frame.ball.radius * frame.diam, frame.k)
            for factor in (1.0 - 1e-6, 1.0 + 1e-6):
                self._agree(config, factor * radius)


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

    @pytest.mark.parametrize("restarts", [0, -1, 2.0, True, "3"])
    def test_restarts_must_be_a_positive_integer(self, restarts):
        with pytest.raises(DomainError):
            estimate_c(SpreadProblem(target=OBTUSE_150, radius=0.95), restarts=restarts)

    def test_matches_independent_grid_oracle(self):
        problem = SpreadProblem(target=OBTUSE_150, radius=0.95)
        estimate = estimate_c(problem, restarts=24, seed=0)
        reference = planar_spread_min(OBTUSE_150.points, 0.95)
        assert estimate.c_estimate == pytest.approx(reference, rel=0.02)
        assert estimate.c_estimate <= reference + 1e-6

    def test_best_motion_certifies_value(self):
        problem = SpreadProblem(target=OBTUSE_150, radius=0.9)
        estimate = estimate_c(problem, restarts=8, seed=3)
        placed = apply_motion(padded(problem.target), estimate.best_motion)
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

    @given(configurations(min_points=2, max_points=6), st.integers(1, 3),
           st.floats(1.02, 3.0), st.integers(0, 2 ** 16))
    @settings(max_examples=40)
    def test_lifted_target_same_value(self, config, extra, factor, seed):
        # a copy of the target in a higher R^n gives the same problem; the
        # placement acts on the lifted points with one zero coordinate added
        meb = min_enclosing_ball(config).radius
        assume(meb > 0.0)
        radius = factor * meb
        base = estimate_c(SpreadProblem(target=config, radius=radius))
        lifted = apply_motion(padded(config, extra),
                              random_motion(config.dim + extra, seed=seed))
        estimate = estimate_c(SpreadProblem(target=lifted, radius=radius))
        for est, target in ((base, config), (estimate, lifted)):
            assert est.ambient_dim == target.dim + 1
            placed = apply_motion(padded(target), est.best_motion)
            norms = np.linalg.norm(placed.points, axis=1)
            assert spread(placed) == pytest.approx(est.c_estimate, abs=1e-12 * radius)
            assert norms.max() <= radius * (1.0 + 1e-12)
        assert estimate.c_estimate == pytest.approx(base.c_estimate, abs=1e-9 * radius)
        assert estimate.c_lower == pytest.approx(base.c_lower, abs=1e-9 * radius)

    def test_one_svd(self, monkeypatch):
        # SpreadProblem decomposes nothing; the first spread entry called on
        # a target makes its frame, with one SVD, enclosing ball and
        # diameter, and no later call on the same target, by the solve or a
        # sampler, at any radius, runs one of them again
        calls = {"svd": 0, "min_enclosing_ball": 0, "_diameter": 0}
        once = {"svd": 1, "min_enclosing_ball": 1, "_diameter": 1}

        def counted(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
        for name in ("min_enclosing_ball", "_diameter"):
            monkeypatch.setattr(spread_module, name,
                                counted(name, getattr(spread_module, name)))
        target = almost_regular_simplex(4, 0.01)
        problem = SpreadProblem(target=target, radius=0.707)
        assert sum(calls.values()) == 0
        estimate_c(problem)
        assert calls == once
        estimate_c(SpreadProblem(target=target, radius=0.6633))
        sample_spread_oracle(problem, 100)
        falsify_coloring(target, 0.6633, 0.05, 100)
        assert calls == once
        # A sampler called first makes the frame that estimate_c reads.
        for sample in (lambda fresh: sample_spread_oracle(SpreadProblem(fresh, 0.707), 100),
                       lambda fresh: falsify_coloring(fresh, 0.707, 0.05, 100)):
            calls.update(dict.fromkeys(calls, 0))
            fresh = _fresh(target)
            sample(fresh)
            assert calls == once
            estimate_c(SpreadProblem(target=fresh, radius=0.6633))
            assert calls == once
        # The cross-check samples the solve's frame; it once made its own.
        calls.update(dict.fromkeys(calls, 0))
        estimate_c(SpreadProblem(target=_fresh(target), radius=0.707), oracle_samples=20000)
        assert calls == once

    @pytest.mark.parametrize("oracle_samples, seed", BAD_COUNTS_AND_SEEDS + [(-1, 0)])
    def test_bad_oracle_count_or_seed_is_domain_error(self, oracle_samples, seed):
        with pytest.raises(DomainError):
            estimate_c(SpreadProblem(target=OBTUSE_150, radius=0.95),
                       seed=seed, oracle_samples=oracle_samples)

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


def _fresh(config: Configuration) -> Configuration:
    """The same points in a new Configuration, whose frame is not yet kept."""
    return Configuration(points=config.points)


def _squares(a: np.ndarray) -> np.ndarray:
    """The squared row norms |a_k|^2 that the frame keeps and _active_set takes."""
    return np.einsum("ij,ij->i", a, a)


def _enclosing_radius_sets():
    """TestEnclosingRadius's 300 seeded sets."""
    rng = np.random.default_rng(0)
    sets = []
    for _ in range(300):
        n, dim = int(rng.integers(2, 7)), int(rng.integers(2, 5))
        sets.append(Configuration.from_points(rng.standard_normal((n, dim))))
    return sets


def _oracle_solve(a, sq, radius, guess, y0):
    """The oracle interior point in _pivot's place: its point and multipliers,
    placed at the height the point leaves, with no rows to report."""
    y, lam, mu, nu, diagnostics = interior_point(a, sq, radius, y0)
    return (y, _squares(a - y), lam, mu, nu, False,
            dict(diagnostics, upper=[], lower=[]))


def _agree(first, second, rel=1e-13):
    """Both sides of two estimates' brackets agree to rel relative."""
    assert first.c_estimate == pytest.approx(second.c_estimate, rel=rel)
    assert first.c_lower == pytest.approx(second.c_lower, rel=rel)


class TestFrameReuse:
    """estimate_c keeps each target's frame and reports what a cold call does."""

    @staticmethod
    def _warm_equals_cold(target, radii):
        # One target solved at every radius in turn, so each call after the
        # first finds its frame kept, then at the first radius again: each
        # report equals that of a new Configuration with the same points.
        warm = _fresh(target)
        for radius in list(radii) + [radii[0]]:
            report = estimate_c(SpreadProblem(target=warm, radius=radius)).to_dict()
            assert warm in spread_module._FRAMES
            cold = estimate_c(SpreadProblem(target=_fresh(target), radius=radius))
            assert report == cold.to_dict()

    def test_witnesses_and_triangle_ladder(self):
        cases = sampler_witnesses() + [(OBTUSE_150, r) for r in (0.55, 0.65)]
        for target in {id(target): target for target, _ in cases}.values():
            self._warm_equals_cold(target, [r for t, r in cases if t is target])

    def test_enclosing_radius_sets(self):
        # Every fifth set, at the factors of TestEnclosingRadius's
        # just-above sweep.
        for config in _enclosing_radius_sets()[::5]:
            radius = min_enclosing_ball(config).radius
            self._warm_equals_cold(config, [radius * f for f in (1.0 + 1e-9, 1.001, 1.1)])

    def test_frame_keeps_the_first_of_equal_points(self):
        # -0.0 and 0.0 are one coordinate, and the first index stands for
        # each point, as in the enclosing ball's core (spheres._distinct)
        target = Configuration.from_points([[1.0, -0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0],
                                            [-0.0, 1.0], [2.0, 2.0]])
        frame = spread_module._target_frame(target)
        assert frame.keep == (0, 1, 5)
        assert isinstance(frame.keep[0], int)

    def test_frame_is_read_only(self):
        target = _fresh(OBTUSE_150)
        estimate_c(SpreadProblem(target=target, radius=0.95))
        frame = spread_module._FRAMES[target]
        assert math.ldexp(frame.diam, frame.k) == diameter(target)
        assert np.array_equal(frame.sq, _squares(frame.a))
        assert frame.keep == (0, 1, 2)
        upper, _, p, d, _, _ = frame.guess
        for array in (frame.a, frame.sq, frame.basis, frame.ball.center, frame.placed,
                      upper, p, d, frame.circle[0]):
            assert not array.flags.writeable
        with pytest.raises(dataclasses.FrozenInstanceError):
            frame.a = np.zeros_like(frame.a)

    def test_warm_first_pass_solves_no_system(self, monkeypatch):
        # A cold call solves the first pass's line system and the upper
        # face's barycentric system for the frame; a warm call, at another
        # radius, solves nothing: its multipliers are in closed form.
        calls = []
        original = np.linalg.solve

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(np.linalg, "solve", counted)
        target = _fresh(OBTUSE_150)
        cold = estimate_c(SpreadProblem(target=target, radius=0.95))
        assert len(calls) == 2
        warm = estimate_c(SpreadProblem(target=target, radius=0.85))
        assert len(calls) == 2
        for estimate in (cold, warm):
            assert [solve["stage"] for solve in estimate.diagnostics["passes"]] \
                == ["active_set"]

    def test_freed_target_leaves_the_map(self):
        target = _fresh(OBTUSE_150)
        estimate_c(SpreadProblem(target=target, radius=0.95))
        size = len(spread_module._FRAMES)
        alive = weakref.ref(target)
        del target
        gc.collect()
        assert alive() is None
        assert len(spread_module._FRAMES) < size

    def test_threads_share_a_cold_target(self):
        # Configurations are safe to share across threads: four threads
        # that start together on one cold target, switching often, report
        # what serial calls do.
        radii = [0.707, 0.69, 0.68, 0.6633]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                target = almost_regular_simplex(4, 0.01)
                start = threading.Barrier(len(radii))

                def solve(radius):
                    start.wait(timeout=60)
                    return estimate_c(SpreadProblem(target=target, radius=radius)).to_dict()

                with ThreadPoolExecutor(max_workers=len(radii)) as pool:
                    threaded = list(pool.map(solve, radii, timeout=60))
                serial = [estimate_c(SpreadProblem(target=_fresh(target), radius=r)).to_dict()
                          for r in radii]
                assert threaded == serial
        finally:
            sys.setswitchinterval(interval)


class TestPinnedWitnesses:
    """The benchmark's seven cases keep their recorded values and active sets."""

    # c_estimate, c_lower and max_norm as float.hex, then upper and lower.
    # The two 4-simplex c_estimate values moved down by one ulp of the
    # placement's norms (128 and 32 ulp of c) when the placement came down
    # onto the hull from a rounding height of 2.25e-8 r.  The c_lower values
    # of the first case and the 3-simplex cases moved by +8, +55 and +4 ulp
    # when the first step's multipliers came from their closed form in
    # place of a KKT solve.
    PINNED = [
        ("0x1.0e5bbe36b61c0p-7", "0x1.0e5bbe36728dcp-7", "0x1.e666666666666p-1", [0, 1], [2]),
        ("0x1.d538e14ab67e0p-6", "0x1.d538e14a97797p-6", "0x1.b333333333333p-1", [0, 1], [2]),
        ("0x1.d3034cc058040p-5", "0x1.d3034cc049b2cp-5", "0x1.8000000000001p-1", [0, 1], [2]),
        ("0x1.4ef7768ba2380p-8", "0x1.4ef7768b3d4c0p-8", "0x1.69fbe76c8b439p-1",
         [0, 1, 2], [3]),
        ("0x1.00c5ffafbe2a0p-4", "0x1.00c5ffafb7d17p-4", "0x1.4a9f4ae73ce48p-1",
         [0, 1, 2], [3]),
        ("0x1.c6dff36db5500p-8", "0x1.c6dff36d4fca0p-8", "0x1.69fbe76c8b439p-1",
         [0, 1, 2, 3], [4]),
        ("0x1.f9f54fee34970p-5", "0x1.f9f54fee27906p-5", "0x1.5396815b04551p-1",
         [0, 1, 2, 3], [4]),
    ]

    @pytest.mark.parametrize("case, pinned", list(zip(sampler_witnesses(), PINNED)))
    def test_values_within_four_ulp(self, case, pinned):
        target, radius = case
        *values, upper, lower = pinned
        estimate = estimate_c(SpreadProblem(target=target, radius=radius))
        for value, recorded in zip((estimate.c_estimate, estimate.c_lower, estimate.max_norm),
                                   values):
            expected = float.fromhex(recorded)
            assert abs(value - expected) <= 4 * math.ulp(expected)
        (solve,) = estimate.diagnostics["passes"]
        assert solve["stage"] == "active_set"
        assert (solve["upper"], solve["lower"]) == (upper, lower)


class TestPinnedSamples:
    """The seven cases' seeded samples: a change of the sampler's stream
    shows here.  The values follow numpy's PCG64 stream and, for the
    simplices, the hull basis LAPACK's SVD picks for the target's frame (see
    spread._target_frame), so another numpy or LAPACK build may need them
    recorded again."""

    # sample_spread_oracle(..., 2 * 65536, seed=3) as float.hex, then the
    # control width over c_estimate and falsify_coloring's monochromatic
    # count there, at the same count and seed.
    PINNED = [
        ("0x1.0f4a3ea05dc80p-7", 4, 236),
        ("0x1.d5afb3fb79080p-6", 4, 582),
        ("0x1.d33e66bed5840p-5", 4, 1054),
        ("0x1.50393defa7240p-7", 16, 156),
        ("0x1.15069a31024e8p-4", 4, 983),
        ("0x1.bb4dc0134fa40p-6", 64, 22081),
        ("0x1.47afbd3e0e608p-4", 4, 835),
    ]

    @pytest.mark.parametrize("case, pinned, solved", list(zip(
        sampler_witnesses(), PINNED, TestPinnedWitnesses.PINNED)))
    def test_oracle_and_control_count(self, case, pinned, solved):
        # 16 eps r allows for a product that rounds differently; the
        # stream before antithetic pairs had minima 6e-4 r or more away
        target, radius = case
        recorded, factor, count = pinned
        oracle = sample_spread_oracle(SpreadProblem(target=target, radius=radius),
                                      2 * 65536, seed=3)
        assert abs(oracle - float.fromhex(recorded)) <= 16 * np.finfo(float).eps * radius
        width = factor * float.fromhex(solved[0])
        report = falsify_coloring(target, radius, width, 2 * 65536, seed=3)
        assert report.monochromatic_count == count
        assert report.min_spread == oracle


class TestDiagnostics:
    STAGES = {"active_set", "circumcentre", "coincident"}

    def test_one_entry_per_pass(self):
        problem = SpreadProblem(target=OBTUSE_150, radius=0.95)
        estimate = estimate_c(problem, restarts=3)
        passes = estimate.diagnostics["passes"]
        assert 1 <= len(passes) <= 3 and estimate.best_restart < len(passes)
        for solve in passes:
            assert isinstance(solve["iterations"], int) and solve["iterations"] > 0
            assert solve["stage"] in self.STAGES
            assert isinstance(solve["nu"], float) and solve["nu"] >= 0.0
            assert isinstance(solve["bracket"], float) and solve["bracket"] >= 0.0
            assert isinstance(solve["height"], float) and 0.0 <= solve["height"] <= 1.0
        # no pass closes more than the report, whose sides are the best passes'
        width = (estimate.c_estimate - estimate.c_lower) / problem.radius
        assert min(solve["bracket"] for solve in passes) >= width
        assert len(passes) > 1 or passes[0]["bracket"] == width
        assert estimate_c(problem, restarts=3).diagnostics == estimate.diagnostics

    @pytest.mark.parametrize("target, radius", sampler_witnesses() + [
        (OBTUSE_150, 0.55), (OBTUSE_150, 0.65), (OBTUSE_150, 1.05), (EQUILATERAL, 0.6)])
    def test_height_lifts_the_farthest_point_onto_the_sphere(self, target, radius):
        # A pass that does not pull y places its farthest point on the
        # r-sphere: height^2 + max |a_i - y|^2 scale^2 / r^2 = 1, where
        # scale * y is the origin's foot on the hull.
        estimate = estimate_c(SpreadProblem(target=target, radius=radius))
        solve = estimate.diagnostics["passes"][estimate.best_restart]
        origin = -estimate.best_motion.translation
        assert solve["height"] == origin[-1] / radius
        reach2 = float(np.max(np.sum((target.points - origin[:-1]) ** 2, axis=1)))
        assert solve["height"] ** 2 + reach2 / radius ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_reaches_the_report(self):
        import json
        estimate = estimate_c(SpreadProblem(target=EQUILATERAL, radius=0.6), restarts=2)
        payload = json.loads(json.dumps(estimate.to_dict()))
        assert payload["diagnostics"] == estimate.diagnostics
        infeasible = estimate_c(SpreadProblem(target=EQUILATERAL, radius=0.4))
        assert infeasible.diagnostics is None and infeasible.to_dict()["diagnostics"] is None

    @pytest.mark.parametrize("target, radius", DIAGNOSED_WITNESSES)
    def test_witnesses_are_solved_on_their_active_set(self, target, radius):
        # Every point but one on the upper level, that one on the lower
        # level, and the paraboloid active: one active-set solve.
        estimate = estimate_c(SpreadProblem(target=target, radius=radius), restarts=2)
        passes = estimate.diagnostics["passes"]
        assert [solve["stage"] for solve in passes] == ["active_set"]
        assert passes[0]["iterations"] == 1
        m = affine_dimension(target)
        upper, lower = passes[0]["upper"], passes[0]["lower"]
        assert all(type(k) is int for k in upper + lower)
        assert len(upper) == m and len(lower) == 1
        assert sorted(upper + lower) == list(range(len(target)))
        # the paraboloid is active, so the copy sits on the hull
        assert passes[0]["height"] == 0.0

    @pytest.mark.parametrize("target, radius", DIAGNOSED_WITNESSES)
    def test_witnesses_converge_in_the_interior_point(self, target, radius, monkeypatch):
        # The oracle interior point (tests/oracles.py), in the pivot's
        # place, converges on the same witnesses and agrees with the pivot.
        problem = SpreadProblem(target=target, radius=radius)
        solved = estimate_c(problem, restarts=2)
        monkeypatch.setattr(spread_module, "_pivot", _oracle_solve)
        estimate = estimate_c(problem, restarts=2)
        assert [solve["stage"] for solve in estimate.diagnostics["passes"]] \
            == ["interior_point"]
        assert estimate.diagnostics["passes"][0]["iterations"] <= 14
        _agree(solved, estimate)

    def test_common_step_stall_is_repeated_with_separate_steps(self, monkeypatch):
        # Three points in the plane at 1.1 times their enclosing radius,
        # one of the 1200 programs of TestEnclosingRadius's sweep on which
        # the oracle interior point's common step length stalls far from
        # its targets, its dual length binding: that solve runs to its
        # iteration cap, its KKT finish is declined, and the separate-step
        # repeat converges.  The pivot takes its guess in one step, and
        # the two agree.
        rng = np.random.default_rng(0)
        for _ in range(50):
            n, dim = int(rng.integers(2, 7)), int(rng.integers(2, 5))
            points = rng.standard_normal((n, dim))
        config = Configuration.from_points(points)
        radius = 1.1 * min_enclosing_ball(config).radius
        problem = SpreadProblem(target=config, radius=radius)
        solved = estimate_c(problem)
        assert [(solve["stage"], solve["iterations"]) for solve in solved.diagnostics["passes"]] \
            == [("active_set", 1)]
        monkeypatch.setattr(spread_module, "_pivot", _oracle_solve)
        estimate = estimate_c(problem)
        assert [solve["stage"] for solve in estimate.diagnostics["passes"]] \
            == ["separate_steps"]
        assert 0.0 < estimate.c_lower <= estimate.c_estimate
        assert estimate.c_estimate - estimate.c_lower <= 1e-12 * radius
        _agree(solved, estimate)


# Four points in the plane, one of them twice.
REPEATED = np.array([[0.5, 0.5], [0.5, 0.5], [-0.5, 0.0], [0.0, -0.3]])
SEGMENT = Configuration.from_points([[0.0, 0.0], [1.0, 0.0]])


def _same(first, second) -> bool:
    """Equal bit for bit: arrays, floats and ints in nested tuples and dicts."""
    if isinstance(first, np.ndarray):
        return first.dtype == second.dtype and np.array_equal(first, second)
    if isinstance(first, (tuple, list)):
        return len(first) == len(second) and all(map(_same, first, second))
    if isinstance(first, dict):
        return first.keys() == second.keys() and all(_same(first[k], second[k]) for k in first)
    return type(first) is type(second) and first == second


def _almost_regular_r70():
    target = almost_regular_simplex(70, 1e-3)
    return target, 0.5 * (min_enclosing_ball(target).radius
                          + obstruction_verdict(target).circumradius)


class TestActiveSet:
    @pytest.mark.parametrize("target, radius, stage", [
        (target, radius, "interior_point")
        for target, radius in sampler_witnesses() + [(OBTUSE_150, 0.55), (OBTUSE_150, 0.65)]]
        + [(*_almost_regular_r70(), "kkt_finish")])
    def test_forced_fallback_agrees(self, target, radius, stage, monkeypatch):
        # The benchmark's seven cases, the rest of the triangle ladder and
        # R^70: one active-set pass.  The pivot, forced to start from a
        # wrong first active set (the guess made far along the optimum's
        # lower point minus an upper one, where the lower point is an upper
        # level), walks back to the same rows and agrees with the one-step
        # solve.  The oracle interior point agrees too; on R^70 it ends in
        # its KKT finish.
        problem = SpreadProblem(target=target, radius=radius)
        solved = estimate_c(problem, restarts=2)
        (first,) = solved.diagnostics["passes"]
        assert (first["stage"], first["iterations"]) == ("active_set", 1)
        guess = spread_module._guess
        (wrong,), right = first["lower"], first["upper"][0]
        monkeypatch.setattr(spread_module, "_guess",
                            lambda a, sq, y0: guess(a, sq, y0 + 10.0 * (a[right] - a[wrong])))
        fresh = _fresh(target)
        walked = estimate_c(SpreadProblem(target=fresh, radius=radius), restarts=2)
        assert wrong in spread_module._FRAMES[fresh].guess[0]
        passes = walked.diagnostics["passes"]
        assert passes[0]["stage"] == "active_set" and passes[0]["iterations"] > 1
        assert (passes[0]["upper"], passes[0]["lower"]) == (first["upper"], first["lower"])
        _agree(solved, walked)
        monkeypatch.setattr(spread_module, "_pivot", _oracle_solve)
        oracle = estimate_c(problem, restarts=2)
        assert [solve["stage"] for solve in oracle.diagnostics["passes"]] == [stage]
        _agree(solved, oracle)

    @pytest.mark.parametrize("target, radius", sampler_witnesses())
    def test_nu_is_two_over_the_root_of_the_discriminant(self, target, radius):
        # The first pass stops at the frame's guess, whose paraboloid
        # multiplier, with the lower one 1, is 2/sqrt(disc) bit for bit,
        # disc the discriminant of |y - a_upper[0]|^2 = r^2 along the line.
        estimate = estimate_c(SpreadProblem(target=target, radius=radius))
        frame = spread_module._FRAMES[target]
        qa, qb, qc = frame.guess[4]
        scaled = max(math.ldexp(radius, -frame.k) / frame.diam,
                     frame.ball.radius * (1.0 + ROUNDING_SLACK))
        r = math.sqrt(scaled * scaled)
        (solve,) = estimate.diagnostics["passes"]
        assert (solve["stage"], solve["iterations"]) == ("active_set", 1)
        assert solve["nu"] == 2.0 / math.sqrt(qb * qb - 4.0 * qa * (qc - r * r))

    @given(configurations(min_points=2, max_points=8),
           st.sampled_from([1e-12, 1e-9, 1e-3, 0.1, 0.5, 2.0]))
    @settings(max_examples=200, deadline=None)
    def test_closed_form_multipliers_match_the_kkt_solve(self, config, grow):
        # Wherever the pivot keeps the guess's first step (the test of
        # _pivot: upper rows on the sphere, no point outside it or below
        # the lower row), its multipliers are those of the KKT equations at
        # its point.  Both sides are within a few eps cond(KKT) max|z| of
        # the exact ones; the two agreed within 0.49 of that on the 613 kept
        # steps of 3000 draws.
        frame = spread_module._target_frame(config)
        a = frame.a
        n, m = a.shape
        radius = frame.ball.radius * (1.0 + grow)
        first = _active_set(a, radius, frame.guess)
        assume(first is not None)
        (y, z), upper, lower = first, frame.guess[0].tolist(), frame.guess[1]
        dist2, r2 = _squares(a - y), radius * radius
        slack = (n + m) * np.finfo(float).eps * r2
        assume(np.abs(dist2[upper] - r2).max() <= slack and dist2.max() <= r2 + slack
               and dist2.min() >= dist2[lower] - slack)
        reference = kkt_multipliers(a, upper, lower, y)
        condition = np.linalg.cond(kkt_gradients(a, upper, lower, y))
        tolerance = 8.0 * np.finfo(float).eps * condition * np.abs(reference).max()
        assert len(z) == m + 2 and z[m] == 1.0
        assert np.abs(np.array(z) - reference).max() <= tolerance

    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    def test_nu_tends_to_sqrt_m_minus_one(self, d):
        # At r^2 = rho_c - 1e-5 on a unit-diameter almost-regular simplex
        # the paraboloid multiplier, with sum(mu) = 1, is near sqrt(m) - 1.
        target = almost_regular_simplex(d, 1e-6)
        assert diameter(target) == pytest.approx(1.0, rel=1e-15)
        circumradius = obstruction_verdict(target).circumradius
        radius = np.sqrt(circumradius ** 2 - 1e-5)
        estimate = estimate_c(SpreadProblem(target=target, radius=radius))
        (solve,) = estimate.diagnostics["passes"]
        assert solve["stage"] == "active_set"
        assert solve["nu"] == pytest.approx(np.sqrt(d) - 1.0, abs=1e-3)

    def test_declines_above_the_circumradius(self):
        # t* = 0 there: the guess is not tried, since every point is on the
        # circumcircle, inside the ball, at the circumcentre.
        estimate = estimate_c(SpreadProblem(target=OBTUSE_150, radius=1.05))
        assert [solve["stage"] for solve in estimate.diagnostics["passes"]] \
            == ["circumcentre"]
        assert estimate.c_lower == 0.0

    def test_repeats_one_pass_at_the_enclosing_radius(self):
        # nu ~ 2e5 there, and the dual bound's rounding allowance alone is
        # wider than the tolerance, so a second pass runs; it repeats the
        # first, and the search ends.
        estimate = estimate_c(SpreadProblem(target=OBTUSE_150, radius=0.5))
        first, second = estimate.diagnostics["passes"]
        assert first == second and first["stage"] == "active_set"
        assert first["nu"] > 1e5
        assert 0.0 < estimate.c_lower <= estimate.c_estimate
        assert estimate.c_estimate - estimate.c_lower <= 2e-9 * 0.5

    def test_degenerate_guesses_return_none(self):
        # A face of circumradius 5.05 > r as the guessed upper rows: a
        # negative discriminant.
        face = np.array([[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.1, 0.0],
                         [0.0, 0.0, 1.0]])
        guess = _guess(face, _squares(face), np.array([0.0, 0.0, 0.5]))
        assert guess is not None and _active_set(face, 1.01, guess) is None
        # Coincident points, m = 0: there is no y to solve for.
        assert _guess(np.zeros((3, 0)), np.zeros(3), np.zeros(0)) is None
        assert _active_set(np.zeros((3, 0)), 1.0, None) is None
        # A repeated point as both upper rows: a singular system.
        assert _guess(REPEATED, _squares(REPEATED), np.zeros(2)) is None

    @pytest.mark.parametrize("target, radius", sampler_witnesses() + [
        (EQUILATERAL, 0.6), (regular_simplex(3), 0.7), (SEGMENT, 0.5 * (1.0 + 1e-9)),
        (SEGMENT, 0.6)])
    def test_frame_guess_is_the_guess_at_zero(self, target, radius):
        # The frame keeps the guess a pass from y = 0 builds, and it solves
        # to the same bits.  The regular simplices' |a_k|^2 all tie, so
        # their guess rests on the order of equal levels; the segment has
        # m = 1.
        target = _fresh(target)
        estimate_c(SpreadProblem(target=target, radius=radius))
        frame = spread_module._FRAMES[target]
        a, kept = frame.a, frame.guess
        built = _guess(a, frame.sq, np.zeros(a.shape[1]))
        assert _same(kept, built)
        scaled = max(math.ldexp(radius, -frame.k) / frame.diam,
                     frame.ball.radius * (1.0 + ROUNDING_SLACK))
        assert _same(_active_set(a, scaled, kept), _active_set(a, scaled, built))

    @pytest.mark.parametrize("points", [
        [[1.0, 2.0]] * 3, REPEATED.tolist(),
        [[-1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 0.5]]])
    def test_without_a_guess_the_interior_point_solves(self, points):
        # Coincident points, the repeated-point set above, and a set whose
        # repeated point the guess took as both upper rows had no guess, and
        # the oracle interior point solves them on all their points.  The
        # library keeps one copy of each point: coincident points are c = 0
        # outright, and the other two get a guess or a closed form.
        config = Configuration.from_points(points)
        radius = 1.2 * min_enclosing_ball(config).radius or 1.0
        estimate = estimate_c(SpreadProblem(target=config, radius=radius))
        (solve,) = estimate.diagnostics["passes"]
        assert (solve["stage"], solve["iterations"]) \
            in {("coincident", 0), ("active_set", 1), ("circumcentre", 0)}
        assert 0.0 <= estimate.c_lower <= estimate.c_estimate
        # All the points, repeated ones too, in the frame's hull coordinates.
        frame = spread_module._FRAMES[config]
        diam = diameter(config) or radius
        a = (config.points - config.points[0]) @ frame.basis.T / (frame.diam or 1.0) \
            - frame.ball.center
        r = max(radius / diam, frame.ball.radius * (1.0 + ROUNDING_SLACK))
        y, *_, oracle = interior_point(a, _squares(a), r, np.zeros(a.shape[1]))
        assert oracle["stage"] == "interior_point"
        levels = _squares(a) - 2.0 * a @ y
        c = diam * (r - math.sqrt(r * r - (levels.max() - levels.min())))
        assert estimate.c_lower - 1e-12 * radius <= c <= estimate.c_estimate + 1e-12 * radius

    def test_repeated_points_are_solved_once(self):
        # REPEATED solves as its three distinct points, to the bit, and its
        # rows name each point by its first index.
        distinct = Configuration.from_points(REPEATED[1:])
        for radius in (0.6, 0.8):
            estimate = estimate_c(SpreadProblem(target=Configuration.from_points(REPEATED),
                                                radius=radius))
            once = estimate_c(SpreadProblem(target=distinct, radius=radius))
            assert (estimate.c_estimate, estimate.c_lower) == (once.c_estimate, once.c_lower)
            (solve,), (single,) = estimate.diagnostics["passes"], once.diagnostics["passes"]
            assert solve["upper"] == [[0, 2, 3][k] for k in single["upper"]]
            assert solve["lower"] == [[0, 2, 3][k] for k in single["lower"]]

    @pytest.mark.parametrize("target, radius", [
        (EQUILATERAL, 0.6), (OBTUSE_150, 1.001), (regular_simplex(3), 0.7),
        (SEGMENT, 0.6), (Configuration.from_points([[1.0, 2.0]] * 3), 0.5)])
    def test_closed_forms(self, target, radius):
        # An affinely independent target at r >= circumradius sits with its
        # circumcentre under the origin, at height sqrt(r^2 - rho^2), and
        # c_lower = 0 exactly; coincident points have c = 0.
        estimate = estimate_c(SpreadProblem(target=target, radius=radius))
        (solve,) = estimate.diagnostics["passes"]
        assert estimate.c_lower == 0.0 and estimate.c_estimate <= 1e-15 * radius
        if diameter(target) == 0.0:
            assert solve["stage"] == "coincident"
            return
        assert solve["stage"] == "circumcentre"
        rho = obstruction_verdict(target).circumradius if len(target) > 2 else 0.5
        assert solve["height"] == pytest.approx(math.sqrt(1.0 - (rho / radius) ** 2), abs=1e-13)

    def test_guess_off_the_sphere_is_not_kept(self, monkeypatch):
        # Eight points in R^7, one axis squeezed to 1e-7: the guess's line
        # is so ill-conditioned that its point misses the sphere by 43% of
        # r^2.  The pivot walks from the centre instead and agrees with the
        # oracle interior point.
        rng = np.random.default_rng(58)
        points = rng.standard_normal((8, 7))
        points[:, 0] *= 1e-7
        config = Configuration.from_points(points)
        problem = SpreadProblem(target=config, radius=1.05 * min_enclosing_ball(config).radius)
        estimate = estimate_c(problem)
        (solve,) = estimate.diagnostics["passes"]
        assert solve["stage"] == "active_set" and solve["iterations"] > 1
        monkeypatch.setattr(spread_module, "_pivot", _oracle_solve)
        _agree(estimate, estimate_c(problem), rel=1e-12)

    @pytest.mark.parametrize("points", [
        1000.0 * np.array([[-1, -1, -1, -1], [1, 1, 0, 0], [0, 0, -1, 1], [-1, 1, 1, 1],
                           [1, -1, -1, 1], [1, 0, 0, -1]]),
        0.4723047304763432 * np.array([
            [1, 1, 0, -1, -1], [-1, 1, -1, 1, 0], [1, -1, -1, 0, -1], [-1, -1, -1, 0, 0],
            [-1, -1, 0, 0, -1], [-1, -1, 1, -1, 0], [-1, 1, 1, 0, -1]])])
    def test_degenerate_optimum_ends(self, points):
        # Grid points at 1.05 R, where more rows are active than y has
        # coordinates.  In R^4 one optimal row's multiplier rounds to
        # -1e-17; dropping it only re-added it after a null step, so one
        # within rounding of 0 stays.  In R^5 the subproblem's optimum is
        # the point itself, where rounding made a level block a step of
        # length 0; no row can block a step that does not move.
        config = Configuration.from_points(points)
        radius = 1.05 * min_enclosing_ball(config).radius
        estimate = estimate_c(SpreadProblem(target=config, radius=radius))
        (solve,) = estimate.diagnostics["passes"]
        assert solve["stage"] == "active_set" and solve["iterations"] <= 8
        assert estimate.c_estimate - estimate.c_lower <= 1e-12 * radius

    def test_vertex_with_no_paraboloid_weight(self):
        # Three collinear points far inside the ball: the optimum is a
        # vertex with nu = 0 and w = 0 exactly, where the dual bound's
        # z once overflowed to nan for r > 4 in unit-diameter terms.
        config = Configuration.from_points([[-1.0], [0.0], [1.0]])
        estimate = estimate_c(SpreadProblem(target=config, radius=10.0))
        c = 10.0 - math.sqrt(99.0)
        assert estimate.c_lower <= c <= estimate.c_estimate
        assert estimate.c_estimate - estimate.c_lower <= 1e-12 * 10.0

    def test_step_cap_ends_with_a_certified_bracket(self, monkeypatch):
        # A pivot whose steps never reach an optimum stops at its cap,
        # 4 (n + m + 2) steps, with stage None and a bracket that still
        # holds c.
        step = spread_module._step

        def blocked(a, sq, r2, upper, lower, on_hull, y):
            y, key, on_hull = step(a, sq, r2, upper, lower, on_hull, y)
            return y, upper[0] if key is None else key, on_hull

        solved = estimate_c(SpreadProblem(target=OBTUSE_150, radius=0.95))
        monkeypatch.setattr(spread_module, "_active_set", lambda a, radius, guess: None)
        monkeypatch.setattr(spread_module, "_step", blocked)
        capped = estimate_c(SpreadProblem(target=OBTUSE_150, radius=0.95), restarts=1)
        (solve,) = capped.diagnostics["passes"]
        assert (solve["stage"], solve["iterations"]) == (None, 4 * (3 + 2 + 2))
        assert 0.0 <= capped.c_lower <= solved.c_lower + 1e-15
        assert capped.c_estimate >= solved.c_estimate - 1e-15


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

    def test_almost_regular_simplex_in_r70(self):
        # Its enclosing ball is walked to in the solver's hull frame; a
        # radius between the enclosing radius and the circumradius leaves a
        # positive spread.
        target = almost_regular_simplex(70, 1e-3)
        radius = 0.5 * (min_enclosing_ball(target).radius
                        + obstruction_verdict(target).circumradius)
        estimate = estimate_c(SpreadProblem(target=target, radius=radius), restarts=2)
        assert estimate.feasible
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
        relabelled = Configuration(points=moved.points[order])
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

    # The 150-degree triangle at r = 0.95 and width 0.033, the
    # almost-regular 4-simplex at r = 0.707 and width 0.061, and the
    # triangle at r = 2^140 and width 2^138, times scale.  Sampled at its
    # own scale 2^120, the last one's quartic terms near r^4 = 2^1040
    # overflowed and left the copies unshrunk.
    SAMPLED = [(OBTUSE_150, 0.95, 0.033), (almost_regular_simplex(4, 0.01), 0.707, 0.061),
               (OBTUSE_150, 2.0 ** 140, 2.0 ** 138)]

    @staticmethod
    def _sampled(case, scale):
        # The oracle and shell counts, without a RuntimeWarning.
        config, radius, width = case
        target = Configuration(points=config.points * scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            oracle = sample_spread_oracle(
                SpreadProblem(target=target, radius=radius * scale), 20000, seed=3)
            report = falsify_coloring(target, radius * scale, width * scale, 20000, seed=3)
        return oracle, report

    @pytest.mark.parametrize("scale", [2.0 ** 300, 2.0 ** -300, 2.0 ** 120])
    def test_samplers_keep_their_bits_at_powers_of_two(self, scale):
        # The 4-simplex's seeded copies follow its hull's SVD basis, which
        # its repeated singular value leaves to rounding; a power of two
        # moves the SVD's input by that power only, so the basis stays.
        for case in self.SAMPLED:
            oracle, report = self._sampled(case, scale)
            unit_oracle, unit_report = self._sampled(case, 1.0)
            assert oracle == scale * unit_oracle
            assert report.min_spread == scale * unit_report.min_spread
            assert report.monochromatic_count == unit_report.monochromatic_count > 0

    @pytest.mark.parametrize("scale", [1e100, 1e-100, 1e200, 1e-200])
    def test_samplers_at_any_scale(self, scale):
        # Squared dot products at the target's own scale left the float
        # range beyond about 1e+-77: at 1e80 the oracle fell below c(A, r),
        # and at 1e-100 no copy was monochromatic.  Only the triangle: the
        # 4-simplex's hull has a repeated singular value, so the rounding
        # of its points by 10^j can turn the SVD's basis, and its seeded
        # copies with it.
        oracle, report = self._sampled(self.SAMPLED[0], scale)
        unit_oracle, unit_report = self._sampled(self.SAMPLED[0], 1.0)
        assert oracle == pytest.approx(scale * unit_oracle, rel=1e-12)
        assert report.min_spread == pytest.approx(scale * unit_report.min_spread, rel=1e-12)
        assert report.monochromatic_count == unit_report.monochromatic_count

    def test_large_radius_on_a_target_in_range(self):
        # The placement's offsets, about r = 1e160, overflowed when squared
        # at the target's own scale, and c_estimate read inf - inf = nan.
        target = Configuration(points=OBTUSE_150.points * 1e10)
        unit = estimate_c(SpreadProblem(target=OBTUSE_150, radius=1e150))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            estimate = estimate_c(SpreadProblem(target=target, radius=1e160))
        assert estimate.c_estimate == 1e10 * unit.c_estimate
        assert estimate.c_lower == 1e10 * unit.c_lower
        assert estimate.max_norm == pytest.approx(1e160, rel=1e-12)

    @pytest.mark.parametrize("scale", [1e-200, 1e155])
    def test_squared_diameter_out_of_range(self, scale):
        # At 1e-200 the diameter's square underflows to 0 and at 1e155 it
        # overflows.  Once the target was solved as coincident points
        # (c = 0) and the solve overflowed, then both raised DomainError;
        # over a power of two near the target's extent they solve.
        target = Configuration(points=OBTUSE_150.points * scale)
        unit = estimate_c(SpreadProblem(target=OBTUSE_150, radius=0.95))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            estimate = estimate_c(SpreadProblem(target=target, radius=0.95 * scale))
        assert estimate.c_estimate == pytest.approx(scale * unit.c_estimate, rel=1e-12)
        assert estimate.c_lower == pytest.approx(scale * unit.c_lower, rel=1e-12)

    @pytest.mark.parametrize("points, radius, accepted", [
        ([[0.0, 0.0], [1.0, 1.0]], 1.5e154, True), ([[0.0, 0.0], [1.0, 1.0]], 2e154, False),
        (OBTUSE_150.points * 1e200, 1.5e308, True), ([[1e300, 1e300]] * 3, 1e-200, True),
        ([[0.0, 0.0], [1e-300, 0.0]], 1e300, False)] + [
        ([[0.0, 1.0]] * 3, radius, True) for radius in (1e150, 1e160, 1e200, 1e250, 1e300)])
    def test_one_radius_rule(self, points, radius, accepted):
        # The segment has extent 1 and diameter sqrt(2); r over the diameter
        # squares to 1.1e308 at 1.5e154 and overflows at 2e154.  The
        # samplers measured r against the extent and refused 1.5e154, which
        # estimate_c solved.  On the triangle times 1e200, r = 1.5e308 is
        # 1.5e108 diameters; sampled over the power of two of r itself, the
        # factor back to the target's units, up to 2r, overflowed.  Coincident
        # points were once taken over geometry._scaled's power of two: 2^497
        # for [[1e300, 1e300]] * 3, under which r = 1e-200 underflowed to 0,
        # and 2^-499 for [[0, 1]] * 3, under which r from 1e160 up overflowed
        # (OverflowError); their frame is unscaled now.  r = 1e300 over the
        # 1e-300 segment's 2^-996 raised OverflowError too, not DomainError.
        # embedding_feasible read its own ball and raised nothing; it reads
        # the frame's now, and agrees with estimate_c wherever both answer.
        target = Configuration.from_points(points)
        entries = [lambda: estimate_c(SpreadProblem(target=target, radius=radius)),
                   lambda: sample_spread_oracle(SpreadProblem(target, radius), 10),
                   lambda: falsify_coloring(target, radius, 0.25 * radius, 10),
                   lambda: embedding_feasible(SpreadProblem(target, radius))]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            if not accepted:
                for entry in entries:
                    with pytest.raises(DomainError, match="overflows when squared"):
                        entry()
                return
            estimate, least, report, fits = [entry() for entry in entries]
        assert fits == estimate.feasible
        if not np.ptp(target.points, axis=0).any():  # coincident points: c = 0
            assert (estimate.feasible, estimate.c_estimate, estimate.c_lower) == (True, 0.0, 0.0)
            assert estimate.max_norm <= radius
            assert least == 0.0
            assert report.monochromatic_count == 10

    @pytest.mark.parametrize("exponent", range(-175, -159))
    def test_coincident_placement_stays_in_the_ball(self, exponent):
        # The frame of [[1e300, 1e300]] * 3 was over 2^497, under which these
        # radii are subnormal: the height r placed over 2^497 lost its low
        # bits, and max_norm read 1.0000792 r at 1e-170 and 0 at 1e-175.  Now
        # the copy sits at height r exactly, on the ball's sphere.
        radius = 10.0 ** exponent
        target = Configuration.from_points([[1e300, 1e300]] * 3)
        estimate = estimate_c(SpreadProblem(target=target, radius=radius))
        assert (estimate.c_estimate, estimate.c_lower) == (0.0, 0.0)
        assert estimate.max_norm == radius
        copy = target.points @ estimate.best_motion.rotation[:2] + estimate.best_motion.translation
        assert np.all(np.linalg.norm(copy, axis=1) <= radius)

    @pytest.mark.parametrize("scale, factor, cause", [(1.0, 1e300, "overflows when squared")])
    def test_out_of_range_is_domain_error(self, scale, factor, cause):
        # At r = 1e300 the solve overflowed.
        target = Configuration(points=OBTUSE_150.points * scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DomainError, match=cause):
                estimate_c(SpreadProblem(target=target, radius=factor * scale))
            with pytest.raises(DomainError, match=cause):
                sample_spread_oracle(SpreadProblem(target=target, radius=factor), 10)


def _modules_after(code: str, package: str = "scipy") -> str:
    """Run code in a fresh interpreter; return the modules of `package` it ran.

    A diamramsey module that nothing has used yet is in sys.modules only as
    a placeholder, so it is not listed.
    """
    src = str(Path(diamramsey.__file__).resolve().parents[1])
    code += (f"\nprint(sorted(m for m in sys.modules "
             f"if (m == {package!r} or m.startswith({package + '.'!r})) "
             f"and type(sys.modules[m]).__name__ != '_Placeholder'))")
    out = subprocess.run([sys.executable, "-c", "import sys\n" + code],
                         capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src))
    return out.stdout.strip().splitlines()[-1]


LIBRARY_MODULES = ("errors", "geometry", "spheres", "spread", "coloring", "constructions",
                   "obstruction", "formats")

# The library modules each subcommand runs; "{tri}" is the 150-degree
# triangle's file and "{colored}" its colouring.
READS_A_FILE = ("errors", "formats", "geometry")
SUBCOMMAND_MODULES = [
    (["diameter", "--input", "{tri}"], READS_A_FILE),
    (["meb", "--input", "{tri}"], READS_A_FILE + ("spheres",)),
    (["circumsphere", "--input", "{tri}"], READS_A_FILE + ("spheres",)),
    (["jung", "--input", "{tri}"], READS_A_FILE + ("spheres",)),
    (["obstruct", "--input", "{tri}"], READS_A_FILE + ("obstruction", "spheres")),
    (["triangle", "--alpha", "150"], ("errors", "geometry", "obstruction", "spheres")),
    (["conjecture", "--input", "{tri}"], READS_A_FILE + ("obstruction", "spheres")),
    (["construct", "regular", "--dim", "3"], READS_A_FILE + ("constructions",)),
    (["color", "--input", "{tri}", "--shell", "0.1"], READS_A_FILE + ("coloring",)),
    (["find-copy", "--input", "{colored}", "--target", "{tri}"], READS_A_FILE + ("coloring",)),
    (["estimate-c", "--input", "{tri}", "--radius", "0.95"],
     READS_A_FILE + ("spheres", "spread")),
    (["oracle", "--input", "{tri}", "--radius", "0.95", "--samples", "100"],
     READS_A_FILE + ("spheres", "spread")),
    (["falsify", "--input", "{tri}", "--radius", "0.95", "--shell", "0.1",
      "--samples", "100"], READS_A_FILE + ("coloring", "spheres", "spread")),
]


# Code that runs every library module: `import diamramsey` alone runs none.
RUN_EVERY_MODULE = f"[vars(getattr(diamramsey, m)) for m in {LIBRARY_MODULES!r}]"


class TestLazyImport:
    def test_import_loads_no_scipy(self):
        assert _modules_after("import diamramsey\n" + RUN_EVERY_MODULE) == "[]"

    def test_import_runs_no_module(self):
        # every library module is in sys.modules, none has run, and numpy is not imported
        code = ("import diamramsey\n"
                f"assert all('diamramsey.' + m in sys.modules for m in {LIBRARY_MODULES!r})\n"
                "assert 'numpy' not in sys.modules")
        assert _modules_after(code, "diamramsey") == "['diamramsey']"

    def test_estimate_c_loads_no_scipy(self):
        code = ("import diamramsey as dr\n"
                "est = dr.estimate_c(dr.SpreadProblem("
                "target=dr.obtuse_triangle(150.0, 1.0), radius=0.95))\n"
                "assert est.c_lower > 0")
        assert _modules_after(code) == "[]"

    def test_cli_estimate_c_loads_no_scipy(self, tmp_path):
        code = _cli_code(tmp_path, "estimate-c", "--radius", "0.95")
        assert _modules_after(code) == "[]"

    def test_cli_loads_no_concurrent(self):
        # the samplers' threads come from threading, which numpy imports;
        # concurrent.futures would add its import to every CLI process
        code = "import diamramsey.cli\n" + RUN_EVERY_MODULE
        assert _modules_after(code, "concurrent") == "[]"

    @pytest.mark.parametrize("args", [("meb",), ("estimate-c", "--radius", "0.95")])
    def test_cli_loads_no_numpy_ma(self, tmp_path, args):
        # np.unique's first call imports numpy.ma, a cost every fresh CLI
        # process would pay
        assert _modules_after(_cli_code(tmp_path, *args), "numpy.ma") == "[]"

    @pytest.mark.parametrize("argv, modules", SUBCOMMAND_MODULES,
                             ids=[argv[0] for argv, _ in SUBCOMMAND_MODULES])
    def test_cli_runs_only_its_modules(self, tmp_path, argv, modules):
        _cli_code(tmp_path, "diameter")  # writes the triangle's file
        colored = tmp_path / "colored.json"
        colored.write_text(json.dumps(colored_to_dict(color_configuration(OBTUSE_150, 0.1))))
        argv = [a.format(tri=tmp_path / "tri150.json", colored=colored) for a in argv]
        ran = ["diamramsey"] + ["diamramsey." + m for m in sorted(modules)]
        assert _modules_after(_main_code(argv), "diamramsey") == str(ran)

    @pytest.mark.parametrize("argv, exit_code", [(["--version"], 0), (["--help"], 0),
                                                 (["diameter"], 2)])
    def test_cli_without_a_handler_imports_no_numpy(self, argv, exit_code):
        assert _modules_after(_main_code(argv, exit_code), "numpy") == "[]"

    def test_threads_share_one_first_run(self):
        # eight threads read an unused module at once: one runs its code, the
        # others wait for it and see the same finished module
        code = textwrap.dedent("""\
            import threading
            runs = []
            sys.addaudithook(lambda event, args: event == "exec" and getattr(
                args[0], "co_filename", "").endswith("spread.py") and runs.append(1))
            import diamramsey
            module = sys.modules["diamramsey.spread"]
            barrier, got = threading.Barrier(8), []
            def first_read():
                barrier.wait()
                got.append(module.estimate_c)
            threads = [threading.Thread(target=first_read) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert len(got) == 8 and len({id(f) for f in got}) == 1, got
            assert got[0] is diamramsey.estimate_c and len(runs) == 1, runs
            """)
        assert "'diamramsey.spread'" in _modules_after(code, "diamramsey")

    def test_write_before_first_run_survives_it(self):
        # a write runs the module first (as monkeypatch.setattr's read does), so
        # the module's own binding cannot overwrite it
        code = ("import diamramsey\n"
                "spread = sys.modules['diamramsey.spread']\n"
                "spread._CHUNK = 7\n"
                "assert spread._CHUNK == 7, spread._CHUNK")
        assert "'diamramsey.spread'" in _modules_after(code, "diamramsey")

    def test_failed_run_is_tried_again(self):
        # a module whose code raises stays a placeholder; the next read runs it again
        code = textwrap.dedent("""\
            import diamramsey
            sys.modules["numpy"] = None
            try:
                diamramsey.geometry.diameter
            except ImportError:
                pass
            else:
                raise AssertionError("geometry ran without numpy")
            assert type(diamramsey.geometry).__name__ == "_Placeholder"
            del sys.modules["numpy"]
            assert diamramsey.geometry.diameter is diamramsey.diameter
            """)
        assert "'diamramsey.geometry'" in _modules_after(code, "diamramsey")

    def test_exports_are_all(self):
        assert set(diamramsey._EXPORTS) | {"__version__"} == set(diamramsey.__all__)
        assert len(set(diamramsey.__all__)) == len(diamramsey.__all__)
        for name, module in diamramsey._EXPORTS.items():
            assert getattr(diamramsey, name) is getattr(
                sys.modules["diamramsey." + module], name)


def _cli_code(tmp_path, command: str, *args: str) -> str:
    """Code running `python -m diamramsey.cli command` on the 150-degree triangle."""
    target = tmp_path / "tri150.json"
    target.write_text(json.dumps({"dim": 2, "points": OBTUSE_150.points.tolist()}))
    return _main_code([command, "--input", str(target), *args])


def _main_code(argv: list, exit_code: int = 0) -> str:
    """Code running `python -m diamramsey.cli *argv`, expecting the exit status."""
    return ("import runpy\n"
            f"sys.argv = {['diamramsey', *argv]!r}\n"
            "try:\n"
            "    runpy.run_module('diamramsey.cli', run_name='__main__',"
            " alter_sys=True)\n"
            "except SystemExit as stop:\n"
            f"    assert stop.code == {exit_code}, stop.code")


class TestAgainstInteriorPoint:
    """The pivot against the interior point it replaced (tests/oracles.py)."""

    @given(configurations(min_points=2, max_points=6, min_dim=2, max_dim=4),
           st.floats(1.02, 3.0))
    @settings(max_examples=60, deadline=None)
    def test_no_looser_than_the_interior_point(self, config, factor):
        meb = min_enclosing_ball(config).radius
        assume(meb > 0.0)
        problem = SpreadProblem(target=config, radius=factor * meb)
        estimate = estimate_c(problem)
        with mock.patch.object(spread_module, "_pivot", _oracle_solve):
            oracle = estimate_c(problem)
        assert None not in {solve["stage"] for solve in estimate.diagnostics["passes"]}
        slack = 1e-12 * problem.radius
        assert estimate.c_estimate <= oracle.c_estimate + slack
        assert estimate.c_lower >= oracle.c_lower - slack


class TestAgainstSlsqp:
    """The spread solve against the SLSQP program the interior point replaced."""

    @given(configurations(min_points=2, max_points=6, min_dim=2, max_dim=4),
           st.floats(1.02, 3.0))
    @settings(max_examples=60, deadline=None)
    def test_matches_slsqp(self, config, factor):
        pytest.importorskip("scipy")
        meb = min_enclosing_ball(config).radius
        assume(meb > 0.0)
        radius = factor * meb
        a = hull_coordinates(config.points)
        y = np.zeros(a.shape[1])
        for _ in range(2):  # a warm restart tightens the last digits
            y = slsqp_levels(a, radius, y)
        levels = np.einsum("ij,ij->i", a, a) - 2.0 * a @ y
        reference_t = float(levels.max() - levels.min())
        reference_c = radius - np.sqrt(radius * radius - reference_t)
        estimate = estimate_c(SpreadProblem(target=config, radius=radius))
        c = estimate.c_estimate
        assert c * (2.0 * radius - c) == pytest.approx(
            reference_t, rel=1e-9, abs=1e-12 * radius * radius)
        assert estimate.c_lower <= reference_c + ROUNDING_SLACK * radius


class TestEnclosingRadius:
    # Widest c_estimate - c_lower, relative to r, that the SLSQP solver left
    # on these 300 configurations, where it stopped on its iteration cap and
    # took up to 11 s a call.  The pivot's widest at r = R is 2.2e-9, set by
    # the dual bound's rounding allowance at nu ~ 4e5.
    SLSQP_WIDEST = 7.48e-7
    # The widest that the interior point left just above R, per factor.
    INTERIOR_POINT_WIDEST = {1.0 + 1e-9: 7.864e-11, 1.001: 8.797e-12, 1.1: 1.208e-12,
                             1.5: 6.806e-13, 3.0: 5.685e-13}

    def test_ordered_bracket_no_wider_than_slsqp(self):
        widest = 0.0
        for config in _enclosing_radius_sets():
            radius = min_enclosing_ball(config).radius
            estimate = estimate_c(SpreadProblem(target=config, radius=radius))
            assert estimate.feasible
            assert estimate.c_lower <= estimate.c_estimate
            # a pass that certifies nothing is not kept at tolerance width
            assert estimate.c_lower > 0.0 or estimate.c_estimate <= 1e-12 * radius
            assert estimate.max_norm <= radius * (1.0 + 2e-9)
            widest = max(widest, (estimate.c_estimate - estimate.c_lower) / radius)
        assert widest <= self.SLSQP_WIDEST

    @pytest.mark.parametrize("factor", [1.0 + 1e-9, 1.001, 1.1, 1.5, 3.0])
    def test_ordered_bracket_just_above(self, factor):
        # The same sets above the enclosing radius.  Every pass ends in a
        # named stage (the interior point left one pass at 3R, set 79, with
        # stage None after 45 Newton systems), one pass per call, and no
        # factor's widest bracket is wider than the interior point's.
        widest, stages = 0.0, set()
        for config in _enclosing_radius_sets():
            radius = min_enclosing_ball(config).radius * factor
            estimate = estimate_c(SpreadProblem(target=config, radius=radius))
            assert estimate.c_lower <= estimate.c_estimate
            assert estimate.c_lower > 0.0 or estimate.c_estimate <= 1e-12 * radius
            widest = max(widest, (estimate.c_estimate - estimate.c_lower) / radius)
            stages |= {solve["stage"] for solve in estimate.diagnostics["passes"]}
            assert len(estimate.diagnostics["passes"]) == 1
        assert widest <= self.INTERIOR_POINT_WIDEST[factor]
        assert stages == {"active_set", "circumcentre"}


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

    @pytest.mark.parametrize("n_samples, seed", BAD_COUNTS_AND_SEEDS)
    def test_bad_count_or_seed_is_domain_error(self, n_samples, seed):
        problem = SpreadProblem(target=OBTUSE_150, radius=0.95)
        with pytest.raises(DomainError):
            sample_spread_oracle(problem, n_samples, seed=seed)

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
        centered, scaled, _ = _prepare(SpreadProblem(target=target, radius=radius))
        chunks = _summarize_chunks(centered, scaled, 20000, 3, lambda *pair: pair)
        assert sum(len(top) for top, _ in chunks) == 20000
        for top, bottom in chunks:
            assert top.shape == bottom.shape
            assert len(top) <= _CHUNK
            assert np.all(bottom <= top)
            assert top.max() <= scaled * (1.0 + 1e-12)

    @pytest.mark.parametrize("target, radius", [
        (OBTUSE_150, 0.95), (almost_regular_simplex(4, 0.01), 0.707)])
    def test_translates_match_rotated_copies(self, target, radius):
        # A Haar rotation before the translation cannot change the spread
        # distribution; dropping the 1/dim power on the radii moves this
        # statistic to 0.11 and 0.06 on these two cases.
        # Each half of the antithetic pairs is a sample of its own.
        centered, scaled, scale = _prepare(SpreadProblem(target=target, radius=radius))
        chunks = _summarize_chunks(centered, scaled, 20000, 0, np.subtract)
        halves = [np.split(spreads, [(len(spreads) + 1) // 2]) for spreads in chunks]
        reference = rotated_copy_spreads(target.points, radius,
                                         affine_dimension(target) + 1, 20000, seed=0)
        for spreads in (chunks, [first for first, _ in halves],
                        [second for _, second in halves]):
            assert ks_statistic(np.concatenate(spreads) * scale, reference) <= 0.03

    @pytest.mark.parametrize("n_samples", [1, 2, 5, _CHUNK + 1, 3 * _CHUNK + 5])
    def test_one_copy_per_sample(self, n_samples):
        centered, scaled, _ = _prepare(SpreadProblem(target=OBTUSE_150, radius=0.95))
        chunks = _summarize_chunks(centered, scaled, n_samples, 1, lambda *pair: pair)
        assert [len(top) for top, _ in chunks] == [
            min(_CHUNK, n_samples - first) for first in range(0, n_samples, _CHUNK)]
        assert all(len(bottom) == len(top) for top, bottom in chunks)

    @pytest.mark.parametrize("target, radius", [
        (OBTUSE_150, 0.95), (almost_regular_simplex(4, 0.01), 0.707)])
    def test_second_half_mirrors_the_first(self, target, radius):
        # centered - g*t is the point reflection of -centered + g*t, so
        # copy half + j has the norms of the reflected target's explicit
        # copy j; with +t in the second half this fails by 0.1-0.9 r^2.
        centered, scaled, _ = _prepare(SpreadProblem(target=target, radius=radius))
        bound = 8.0 * np.finfo(float).eps * scaled * scaled
        for (top, bottom), norms in zip(
                _summarize_chunks(centered, scaled, _CHUNK + 5, 4, lambda *pair: pair),
                explicit_copy_norms(-centered, scaled, _CHUNK + 5, 4), strict=True):
            half = (len(top) + 1) // 2
            first = norms[:, :len(top) - half]
            assert np.abs(top[half:] ** 2 - first.max(axis=0) ** 2).max() <= bound
            assert np.abs(bottom[half:] ** 2 - first.min(axis=0) ** 2).max() <= bound

    @pytest.mark.parametrize("target, radius", sampler_witnesses() + [
        (OBTUSE_150, 0.5), (EQUILATERAL, 0.7), (OBTUSE_150, 5.0)])
    def test_extremes_match_explicit_copies(self, target, radius):
        # the fused kernel's extreme squared norms against the same seeded
        # copies built point by point
        centered, scaled, _ = _prepare(SpreadProblem(target=target, radius=radius))
        bound = 8.0 * np.finfo(float).eps * scaled * scaled
        for (top, bottom), norms in zip(
                _summarize_chunks(centered, scaled, 2 * _CHUNK, 5, lambda *pair: pair),
                explicit_copy_norms(centered, scaled, 2 * _CHUNK, 5), strict=True):
            assert np.abs(top ** 2 - norms.max(axis=0) ** 2).max() <= bound
            assert np.abs(bottom ** 2 - norms.min(axis=0) ** 2).max() <= bound

    @pytest.mark.parametrize("target, radius, width", [
        (EQUILATERAL, 0.6, 0.011), (OBTUSE_150, 0.95, 0.033)])
    def test_monochromatic_count_matches_explicit_copies(self, target, radius, width):
        # r/c is not an integer, so no shrunk copy's farthest point, which
        # lies on |x| = r, sits on a shell boundary
        centered, scaled, scale = _prepare(SpreadProblem(target=target, radius=radius))
        expected = sum(
            int(np.count_nonzero(np.floor(norms.max(axis=0) / (width / scale))
                                 == np.floor(norms.min(axis=0) / (width / scale))))
            for norms in explicit_copy_norms(centered, scaled, 2 * _CHUNK, 2))
        report = falsify_coloring(target, radius, width, 2 * _CHUNK, seed=2)
        assert report.monochromatic_count == expected > 0

    def test_peak_allocation(self, monkeypatch):
        # the benchmark's sample count, several chunks per worker; memory
        # holds one chunk per worker (about 1.1 MiB here), so the bound is
        # set for two workers
        monkeypatch.setattr(spread_module, "_cpus", lambda: 2)
        problem = SpreadProblem(target=almost_regular_simplex(4, 0.01),
                                radius=0.707)
        sample_spread_oracle(problem, 100)
        tracemalloc.start()
        try:
            sample_spread_oracle(problem, 2 * 65536)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 2 ** 20

    @pytest.mark.parametrize("points", [1, 3, 9])
    def test_shrink_matches_the_full_buffer_at_both_signs(self, points):
        # the shrink solves one row at a time and reuses each square root
        # for the copy at -t; the reference solves all k rows in one (k, n)
        # buffer, once per sign, and both must give the same bits
        rng = np.random.default_rng(points)
        dots = rng.standard_normal((points, 1000))
        dots[:, :3] = 0.0
        offsets = rng.random(1000)
        offsets[:2] = 0.0
        gaps = -rng.random(points)
        gaps[0] = 0.0
        ahead, behind = _shrink_factors(offsets, dots, gaps)
        assert np.array_equal(ahead, _explicit_shrink_factors(offsets, dots, gaps))
        assert np.array_equal(behind, _explicit_shrink_factors(offsets, -dots, gaps))


class TestWorkerCount:
    """The chunks' threads change neither a result nor the thread count."""

    @pytest.mark.parametrize("target, radius", sampler_witnesses())
    def test_one_worker_gives_the_same_results(self, monkeypatch, target, radius):
        problem = SpreadProblem(target=target, radius=radius)
        before = threading.active_count()
        value = sample_spread_oracle(problem, 2 * 65536, seed=3)
        width = 4.0 * value
        report = falsify_coloring(target, radius, width, 2 * 65536, seed=3).to_dict()
        assert threading.active_count() == before
        monkeypatch.setattr(spread_module, "_cpus", lambda: 1)
        assert sample_spread_oracle(problem, 2 * 65536, seed=3) == value
        assert falsify_coloring(target, radius, width, 2 * 65536, seed=3).to_dict() == report

    def test_many_workers_switching_often(self, monkeypatch):
        # more workers than cores, switching threads as often as the
        # interpreter allows: each chunk's summary lands in its own slot
        centered, scaled, _ = _prepare(SpreadProblem(target=OBTUSE_150, radius=0.95))
        monkeypatch.setattr(spread_module, "_CHUNK", 64)
        monkeypatch.setattr(spread_module, "_cpus", lambda: 1)
        expected = _summarize_chunks(centered, scaled, 64 * 300 + 7, 2, np.subtract)
        monkeypatch.setattr(spread_module, "_cpus", lambda: 16)
        found = []
        runner = threading.Thread(target=lambda: found.extend(
            _summarize_chunks(centered, scaled, 64 * 300 + 7, 2, np.subtract)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner.start()
            runner.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        assert len(found) == len(expected) == 301
        assert all(np.array_equal(a, b) for a, b in zip(found, expected))

    @pytest.mark.parametrize("failing", [None, 5])
    def test_a_failing_chunk_raises_after_every_thread_ends(self, monkeypatch, failing):
        # 3 full chunks and one of 5 copies; with two workers the short
        # chunk is the second worker's, not the calling thread's.  The
        # shrink sees a chunk's ceil(count/2) translations.
        shrink = spread_module._shrink_factors

        def broken(offsets, dots, gaps):
            if failing is None or len(offsets) == (failing + 1) // 2:
                raise ArithmeticError(len(offsets))
            return shrink(offsets, dots, gaps)

        monkeypatch.setattr(spread_module, "_cpus", lambda: 2)
        monkeypatch.setattr(spread_module, "_shrink_factors", broken)
        before = threading.active_count()
        with pytest.raises(ArithmeticError) as raised:
            sample_spread_oracle(SpreadProblem(target=OBTUSE_150, radius=0.95),
                                 3 * _CHUNK + 5, seed=1)
        # the lowest-numbered failing chunk's exception
        assert raised.value.args == (((_CHUNK if failing is None else failing) + 1) // 2,)
        assert threading.active_count() == before


class TestSolve:
    # _solve's bracket at a threshold rho, in the frame's squared units, is
    # what a graded shell colouring reads.  Greedy thresholds need
    # g(rho) = rho - T(rho) increasing, which the bracket shows: t_lower at a
    # larger rho never exceeds t_upper, the solve's own squared spread, at a
    # smaller one.
    @pytest.mark.parametrize("target", [
        obtuse_triangle(150.0, 1.0), obtuse_triangle(136.0, 1.0), almost_regular_simplex(3, 0.01),
        almost_regular_simplex(4, 1e-3), almost_regular_simplex(8, 1e-6)],
        ids=["tri150", "tri136", "simplex3", "simplex4", "simplex8"])
    def test_squared_bracket_is_monotone(self, target):
        frame = spread_module._target_frame(target)
        reach = frame.ball.radius * (1.0 + ROUNDING_SLACK)
        rhos = np.linspace(reach * reach, frame.circle[1], 50).tolist()
        solves = [spread_module._solve(frame, rho) for rho in rhos]
        lower = np.array([solve.t_lower for solve in solves])
        upper = np.array([solve.dist2.max() - solve.dist2.min() for solve in solves])
        assert (lower <= upper).all()
        assert (np.maximum.accumulate(lower[::-1])[::-1] <= upper).all()
        # estimate_c's c_lower is the same solve's t_lower, turned into c
        for rho in rhos:
            radius = math.ldexp(math.sqrt(rho) * frame.diam, frame.k)
            unit, r = spread_module._frame_radius(frame, radius)
            r = max(r, reach)
            t = spread_module._solve(frame, r * r).t_lower
            c_lower = math.ldexp(unit * t / (r + math.sqrt(max(r * r - t, 0.0))), frame.k)
            assert estimate_c(SpreadProblem(target, radius), restarts=1).c_lower == c_lower


class TestMonotonicity:
    def test_shrinking_ball_cannot_decrease_estimate(self):
        values = []
        for radius in (0.6, 0.8, 1.0):
            problem = SpreadProblem(target=OBTUSE_150, radius=radius)
            values.append(estimate_c(problem, restarts=10, seed=0).c_estimate)
        assert values[0] >= values[1] - 1e-6
        assert values[1] >= values[2] - 1e-6
