"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the expensive spread estimates are shared through module fixtures.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from diamramsey import (
    Configuration,
    SpreadProblem,
    Status,
    almost_regular_measure,
    almost_regular_simplex,
    circumradius,
    classify_triangle,
    cli,
    diameter,
    estimate_c,
    falsify_coloring,
    find_monochromatic_copy,
    jung_bound,
    min_enclosing_ball,
    num_colors,
    obstruction_verdict,
    obtuse_triangle,
    regular_simplex,
    sample_spread_oracle,
    triangle_circumradius,
)
from diamramsey.coloring import ColoredConfiguration
from oracles import brute_force_meb, naive_monochromatic_search

OBTUSE_150 = obtuse_triangle(150.0, 1.0)


@pytest.fixture(scope="module")
def c_estimates():
    """Spread estimates for the 150-degree triangle across the radius ladder."""
    values = {}
    for radius in (0.55, 0.65, 0.75, 0.85):
        problem = SpreadProblem(target=OBTUSE_150, radius=radius)
        values[radius] = estimate_c(problem, restarts=24, seed=0).c_estimate
    problem = SpreadProblem(target=OBTUSE_150, radius=0.95)
    values[0.95] = estimate_c(problem, restarts=32, seed=0).c_estimate
    return values


def test_criterion_01_circumradius_law():
    start = time.perf_counter()
    for d in range(1, 9):
        got = circumradius(regular_simplex(d))
        want = math.sqrt(d / (2.0 * d + 2.0))
        assert abs(got - want) <= 1e-9, (d, got, want)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\n[PASS] criterion 1: circumradius law, d=1..8 within 1e-9 "
          f"({elapsed:.2f}s)")


def test_criterion_02_jung_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    for trial in range(1000):
        n = int(rng.integers(1, 13))
        d = int(rng.integers(1, 7))
        config = Configuration.from_points(rng.normal(0.0, 2.0, (n, d)))
        ball = min_enclosing_ball(config, seed=trial)
        assert ball.radius <= jung_bound(config) + 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"[PASS] criterion 2: Jung bound holds on 1000 random "
          f"configurations ({elapsed:.2f}s)")


def test_criterion_03_welzl_vs_brute_force():
    start = time.perf_counter()
    rng = np.random.default_rng(77)
    worst = 0.0
    for trial in range(500):
        n = int(rng.integers(1, 11))
        d = int(rng.integers(1, 4))
        pts = rng.normal(0.0, 2.0, (n, d))
        ball = min_enclosing_ball(Configuration.from_points(pts), seed=trial)
        oracle_radius, _ = brute_force_meb(pts)
        worst = max(worst, abs(ball.radius - oracle_radius))
    assert worst <= 1e-9
    elapsed = time.perf_counter() - start
    print(f"[PASS] criterion 3: Welzl matches support-subset enumeration on "
          f"500 sets, worst gap {worst:.2e} ({elapsed:.2f}s)")


def test_criterion_04_triangle_consistency():
    for alpha in range(91, 180):
        by_angle = classify_triangle(float(alpha), 1.0).status
        by_geometry = obstruction_verdict(obtuse_triangle(float(alpha), 1.0)).status
        assert by_angle == by_geometry, alpha
        expected = Status.NOT_DIAMETER_RAMSEY if alpha > 135 else Status.UNKNOWN
        assert by_angle == expected, alpha
    assert abs(triangle_circumradius(1.0, 135.0) - 1.0 / math.sqrt(2)) <= 1e-12
    print("[PASS] criterion 4: angle classifier agrees with the circumradius "
          "verdict on 91..179 degrees; threshold value exact to 1e-12")


def test_criterion_05_perturbed_simplex_suite():
    for d in range(2, 7):
        limit_apex = 1.0 - 1.0 / math.sqrt(d)
        limit_measure = math.sqrt(d) / math.comb(d + 1, 2)
        for delta in (1e-2, 1e-3, 1e-4):
            config = almost_regular_simplex(d, delta)
            r = math.sqrt(0.5 + delta)
            a = math.sqrt(0.5 / d + delta)
            norms = np.linalg.norm(config.points, axis=1)
            assert np.max(np.abs(norms - r)) <= 1e-9
            assert circumradius(config) > 1.0 / math.sqrt(2)
            apex_sq = np.sum((config.points[:d] - config.points[d]) ** 2, axis=1)
            assert np.max(np.abs(apex_sq - (1 + 2 * delta - 2 * r * a))) <= 1e-9
            assert np.max(np.abs(apex_sq - limit_apex)) <= 3.0 * delta
            measure = almost_regular_measure(config)
            assert abs(measure - limit_measure) <= 10.0 * delta
    print("[PASS] criterion 5: perturbed-simplex identities hold for "
          "d=2..6, delta in {1e-2, 1e-3, 1e-4}")


def test_criterion_06_spread_sign_check(c_estimates):
    start = time.perf_counter()
    c_near = c_estimates[0.95]
    assert c_near > 1e-3

    problem = SpreadProblem(target=OBTUSE_150, radius=0.95)
    oracle = sample_spread_oracle(problem, 10 ** 6, seed=0)
    rel_gap = abs(c_near - oracle) / max(c_near, oracle)
    assert rel_gap <= 0.20
    assert oracle >= c_near - 1e-6

    above = estimate_c(SpreadProblem(target=OBTUSE_150, radius=1.05),
                       restarts=8, seed=0)
    assert above.c_estimate <= 1e-6

    below = estimate_c(SpreadProblem(target=OBTUSE_150, radius=0.4),
                       restarts=8, seed=0)
    assert below.feasible is False

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"[PASS] criterion 6: c(0.95)={c_near:.6f} > 1e-3, oracle gap "
          f"{100 * rel_gap:.1f}% <= 20%, zero above circumradius, infeasible "
          f"below enclosing radius ({elapsed:.1f}s)")


def test_criterion_07_monotonicity(c_estimates):
    ladder = [c_estimates[r] for r in (0.55, 0.65, 0.75, 0.85, 0.95)]
    for smaller_r, larger_r in zip(ladder, ladder[1:]):
        assert smaller_r >= larger_r - 1e-6
    print(f"[PASS] criterion 7: estimates nonincreasing in radius: "
          f"{['%.5f' % v for v in ladder]}")


def test_criterion_08_coloring_falsification(c_estimates):
    start = time.perf_counter()
    c_near = c_estimates[0.95]
    report = falsify_coloring(OBTUSE_150, r=0.95, c=c_near,
                              n_samples=10 ** 5, seed=0)
    assert report.num_colors == num_colors(0.95, c_near)
    assert report.monochromatic_count == 0

    # r/c = 54.5: no copy's farthest point sits on a shell boundary
    control = falsify_coloring(regular_simplex(2), r=0.6, c=0.011,
                               n_samples=10 ** 5, seed=0)
    assert control.monochromatic_count >= 1

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"[PASS] criterion 8: shell colouring with k={report.num_colors} "
          f"blocks all {report.n_samples} sampled copies; control finds "
          f"{control.monochromatic_count} monochromatic copies ({elapsed:.1f}s)")


def _fixed_planar_sets():
    hexagon = [[math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)]
               for k in range(6)]
    pentagon = [[math.cos(2 * k * math.pi / 5), math.sin(2 * k * math.pi / 5)]
                for k in range(5)] + [[0.0, 0.0]]
    grid = [[float(i), float(j)] for i in range(3) for j in range(2)]
    line = [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.5, 0.0], [5.0, 0.0], [7.0, 0.0]]
    twin_triangles = [[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2],
                      [2.0, 0.3], [3.0, 0.3], [2.5, 0.3 + math.sqrt(3) / 2]]
    rng = np.random.default_rng(5)
    scattered = np.round(rng.normal(0.0, 1.0, (6, 2)), 1).tolist()
    return [grid, hexagon, pentagon, line, twin_triangles, scattered]


def _fixed_targets():
    return [
        Configuration.from_points([[0.0, 0.0], [1.0, 0.0]]),
        Configuration.from_points([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        regular_simplex(2),
    ]


def test_criterion_09_definition_oracle():
    start = time.perf_counter()
    cases = 0
    for host_pts in _fixed_planar_sets():
        host = Configuration.from_points(host_pts)
        for target in _fixed_targets():
            tol = 1e-6 * diameter(target)
            for bits in itertools.product((0, 1), repeat=6):
                colored = ColoredConfiguration(configuration=host, colors=bits)
                fast = find_monochromatic_copy(colored, target, tol=tol)
                naive = naive_monochromatic_search(
                    host.points, bits, target.points, tol)
                assert (fast is None) == (naive is None), (host_pts, bits)
                cases += 1
    elapsed = time.perf_counter() - start
    print(f"[PASS] criterion 9: subset search agrees with naive enumeration "
          f"on {cases} coloured-set cases ({elapsed:.1f}s)")


def _cli_outputs(tmp_path, capsys, *args):
    code = cli.run(list(args))
    captured = capsys.readouterr()
    assert code == 0, captured
    return json.loads(captured.out)["outputs"]


def _close(a, b, tol=1e-9):
    if isinstance(a, float) or isinstance(b, float):
        return (a == b) or (abs(float(a) - float(b)) <= tol)
    if isinstance(a, dict):
        return set(a) == set(b) and all(_close(a[k], b[k], tol) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(_close(x, y, tol) for x, y in zip(a, b))
    return a == b


def test_criterion_10_cli_determinism(tmp_path, capsys):
    start = time.perf_counter()
    tri_path = str(tmp_path / "tri150.json")
    host_path = str(tmp_path / "host.json")
    assert cli.run(["construct", "obtuse", "--alpha", "150",
                    "--out", tri_path]) == 0
    capsys.readouterr()
    square = regular_simplex(2)
    colored = ColoredConfiguration(configuration=square, colors=(0, 0, 0))
    from diamramsey.formats import colored_to_dict
    with open(host_path, "w", encoding="utf-8") as handle:
        json.dump(colored_to_dict(colored), handle)

    commands = [
        ["diameter", "--input", tri_path],
        ["meb", "--input", tri_path],
        ["circumsphere", "--input", tri_path],
        ["jung", "--input", tri_path],
        ["obstruct", "--input", tri_path],
        ["triangle", "--alpha", "150"],
        ["conjecture", "--input", tri_path],
        ["estimate-c", "--input", tri_path, "--radius", "0.9",
         "--restarts", "4"],
        ["oracle", "--input", tri_path, "--radius", "0.9",
         "--samples", "20000"],
        ["color", "--input", tri_path, "--shell", "0.1"],
        ["falsify", "--input", tri_path, "--radius", "0.9",
         "--shell", "0.01", "--samples", "5000"],
        ["find-copy", "--input", host_path, "--target", tri_path],
        ["construct", "cor3", "--dim", "3", "--delta", "0.001"],
    ]
    for command in commands:
        seeded = command + ["--seed", "123"]
        first = _cli_outputs(tmp_path, capsys, *seeded)
        second = _cli_outputs(tmp_path, capsys, *seeded)
        assert _close(first, second), command
    elapsed = time.perf_counter() - start
    print(f"[PASS] criterion 10: all {len(commands)} subcommands reproduce "
          f"their outputs under a fixed seed ({elapsed:.1f}s)")
