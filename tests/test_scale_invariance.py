"""Units and rigid motions change no answer on the paper's witnesses.

Each witness is scaled by s, log-uniform in [1e-9, 1e9], and moved by a
random rigid motion whose translation also scales with s: a unit shift of a
set of size 1e-9 would round away nine digits, which no tolerance restores.
Scaled alone, by 2^j or 10^j across the float range, every length the
library returns is 2^j times its unit-scale value bit for bit, or 10^j
times it within rounding.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diamramsey import (
    Ball,
    ColoredConfiguration,
    ConjectureLabel,
    Configuration,
    SpreadProblem,
    Status,
    almost_regular_simplex,
    circumcenter_in_hull,
    circumradius,
    circumsphere,
    color_configuration,
    conjecture_classification,
    diameter,
    embedding_feasible,
    estimate_c,
    falsify_coloring,
    find_monochromatic_copy,
    is_congruent,
    jung_bound,
    min_enclosing_ball,
    obstruction_verdict,
    obtuse_triangle,
    regular_simplex,
    sample_spread_oracle,
    shell_color,
)
from oracles import apply_motion, random_motion

WITNESSES = {
    "obtuse 150": obtuse_triangle(150.0),
    "obtuse 136": obtuse_triangle(136.0),
    "cor3 d=3": almost_regular_simplex(3, 0.01),
    "cor3 d=4": almost_regular_simplex(4, 0.01),
    "cor3 d=4 small": almost_regular_simplex(4, 1e-3),
}
REL = 1e-9


def _radius(config: Configuration) -> float:
    """A radius halfway between the enclosing radius and the circumradius."""
    return 0.5 * (min_enclosing_ball(config).radius + circumradius(config))


def _quantities(config: Configuration, radius: float) -> dict:
    diam = diameter(config)
    estimate = estimate_c(SpreadProblem(target=config, radius=radius))
    return {
        "status": obstruction_verdict(config).status,
        "diameter": diam,
        "meb/diameter": min_enclosing_ball(config).radius / diam,
        "circumradius/diameter": circumradius(config) / diam,
        "c": estimate.c_estimate,
    }


RADII = {name: _radius(config) for name, config in WITNESSES.items()}
BASE = {name: _quantities(config, RADII[name]) for name, config in WITNESSES.items()}


@given(st.sampled_from(sorted(WITNESSES)), st.floats(-9.0, 9.0),
       st.integers(0, 2 ** 16))
@settings(max_examples=60)
@example("cor3 d=4", 8.0, 0)
@example("cor3 d=4", 9.0, 0)
def test_scaled_moved_witness(name, log_scale, seed):
    s = 10.0 ** log_scale
    config = WITNESSES[name]
    scaled = Configuration(points=s * config.points)
    moved = apply_motion(scaled, random_motion(config.dim, seed=seed,
                                               translation_scale=s))
    base, got = BASE[name], _quantities(moved, s * RADII[name])
    assert got["status"] is base["status"]
    assert got["diameter"] / s == pytest.approx(base["diameter"], rel=REL)
    for key in ("meb/diameter", "circumradius/diameter"):
        assert got[key] == pytest.approx(base[key], rel=REL), key
    assert got["c"] / s == pytest.approx(base["c"], rel=REL)
    assert is_congruent(moved, scaled)
    assert is_congruent(scaled, moved)


def test_placement_at_tiny_scales():
    # Squared norms of a placement of size 1e-160 are subnormal; measured
    # over a power of two, the placement's spread keeps its digits.
    # It read 0.0083571 (1.3% high) against 0.0082507 at s = 1.
    triangle = obtuse_triangle(150.0)
    base = estimate_c(SpreadProblem(target=triangle, radius=0.95))
    for s in (1e-160, 1e-150, 1e150, 1e154):
        scaled = Configuration(points=s * triangle.points)
        estimate = estimate_c(SpreadProblem(target=scaled, radius=0.95 * s))
        assert estimate.c_estimate / s == pytest.approx(base.c_estimate, rel=1e-13)
        assert estimate.c_lower / s == pytest.approx(base.c_lower, rel=1e-13)


@pytest.mark.parametrize("s", [2.0 ** -600, 1e-175, 1e-161, 1e155])
def test_verdict_at_extreme_scales(s):
    # The circumsphere and the centroid screen run over a power of two:
    # these scales read circumradius 0, NotSpherical and nan (with an
    # overflow warning), where s = 1 gives NotDiameterRamsey.
    scaled = Configuration(points=s * obtuse_triangle(150.0).points)
    verdict = obstruction_verdict(scaled)
    assert verdict.status is Status.NOT_DIAMETER_RAMSEY
    assert verdict.circumradius / s == pytest.approx(1.0, rel=1e-14)
    assert verdict.diameter / s == pytest.approx(1.0, rel=1e-14)
    assert circumradius(scaled) == verdict.circumradius


# Each witness's verdict fields as float.hex: circumradius, diameter,
# threshold and margin.
VERDICT_BITS = {
    "obtuse 150": ["0x1.0000000000000p+0", "0x1.0000000000000p+0",
                   "0x1.6a09e667f3bccp-1", "0x1.2bec333018868p-2"],
    "obtuse 136": ["0x1.7086c7026f77dp-1", "0x1.0000000000000p+0",
                   "0x1.6a09e667f3bccp-1", "0x1.9f38269eeec40p-7"],
    "cor3 d=3": ["0x1.6da4217576973p-1", "0x1.0000000000000p+0",
                 "0x1.6a09e667f3bccp-1", "0x1.cd1d86c16d380p-8"],
    "cor3 d=4": ["0x1.6da4217576973p-1", "0x1.0000000000000p+0",
                 "0x1.6a09e667f3bccp-1", "0x1.cd1d86c16d380p-8"],
    "cor3 d=4 small": ["0x1.6a66891efc196p-1", "0x1.0000000000000p+0",
                       "0x1.6a09e667f3bccp-1", "0x1.728adc2172800p-11"],
}


@pytest.mark.parametrize("name", sorted(WITNESSES))
def test_witness_verdicts_keep_their_bits(name):
    verdict = obstruction_verdict(WITNESSES[name])
    fields = (verdict.circumradius, verdict.diameter, verdict.threshold, verdict.margin)
    assert [value.hex() for value in fields] == VERDICT_BITS[name]


def _cap_cloud(seed: int) -> Configuration:
    """Nine seeded points of a 50-degree cap of a sphere in R^3, off the origin."""
    rng = np.random.default_rng(seed)
    directions = rng.normal(size=(9, 3)) * [0.5, 0.5, 0.0] + [0.0, 0.0, 1.0]
    directions /= np.linalg.norm(directions, axis=1)[:, None]
    keep = directions[:, 2] >= math.cos(math.radians(50.0))
    return Configuration.from_points(1.3 * directions[keep] + rng.normal(size=3))


SCALED = dict(WITNESSES, cloud=_cap_cloud(11))
SAMPLES = 4096


def _lengths(config: Configuration, radius: float, width: float) -> dict:
    """Every length the scale-free entries return for config, per entry.

    "sizes" holds what each length is compared relative to: the length
    itself, or the diameter for a coordinate of a centre, which may be near 0.
    """
    diam = diameter(config)
    ball = min_enclosing_ball(config)
    sphere = circumsphere(config)
    verdict = obstruction_verdict(config)
    estimate = estimate_c(SpreadProblem(target=config, radius=radius))
    oracle = sample_spread_oracle(SpreadProblem(target=config, radius=radius), SAMPLES, seed=5)
    report = falsify_coloring(config, radius, width, SAMPLES, seed=5)
    lengths = {
        "diameter": [diam],
        "jung_bound": [jung_bound(config)],
        "min_enclosing_ball": [ball.radius, *ball.center],
        "circumsphere": [sphere.radius, *sphere.center],
        "obstruction_verdict": [verdict.circumradius, verdict.diameter,
                                verdict.threshold, verdict.margin],
        "estimate_c": [estimate.c_estimate, estimate.c_lower, estimate.max_norm],
        "sample_spread_oracle": [oracle],
        "falsify_coloring": [report.min_spread],
    }
    sizes = {key: [abs(v) for v in values] for key, values in lengths.items()}
    for key in ("min_enclosing_ball", "circumsphere"):
        sizes[key][1:] = [diam] * (len(sizes[key]) - 1)
    return {"lengths": lengths, "sizes": sizes, "status": verdict.status,
            "monochromatic": report.monochromatic_count}


def _unit_case(config: Configuration):
    radius = _radius(config)
    width = 4.0 * estimate_c(SpreadProblem(target=config, radius=radius)).c_estimate
    return radius, width, _lengths(config, radius, width)


UNIT = {name: _unit_case(config) for name, config in SCALED.items()}


def _repeats(config: Configuration) -> bool:
    """Whether two singular values of the hull repeat.

    The SVD's basis of a repeated singular subspace then turns with the
    rounding of the points, and a seeded sample with it: the almost-regular
    4-simplex's seeded oracle reads 13% low at 131072 copies at s = 3 as at
    s = 1e200.  Its distribution does not change.
    """
    svals = np.linalg.svd(config.points[1:] - config.points[0], compute_uv=False)
    return bool(np.any(-np.diff(svals) <= 1e-9 * svals[0]))


REPEATS = {name: _repeats(config) for name, config in SCALED.items()}
SEEDED = ("sample_spread_oracle", "falsify_coloring")


def _span(config: Configuration, base: int) -> tuple[int, int]:
    """The exponents j with every nonzero coordinate of base^j * config in [2^-1000, 2^1000]."""
    coords = np.abs(config.points[config.points != 0.0])
    low, high = math.log2(coords.min()), math.log2(coords.max())
    return (math.ceil((-1000 - low) / math.log2(base)),
            math.floor((1000 - high) / math.log2(base)))


@given(st.sampled_from(sorted(SCALED)),
       st.sampled_from([2, 10]).flatmap(
           lambda base: st.tuples(st.just(base), st.integers(-1000, 1000))))
@settings(max_examples=60, deadline=None)
# At the input's own scale: the seeded samplers and estimate_c lost bits
# at 2^+-500, estimate_c raised DomainError at 2^+-1000 and at 1e+-200 (the
# squared diameter left the range), and min_enclosing_ball raised
# DomainError at 1e160 and read radius 0 at 1e-200.
@example("cor3 d=4", (2, 500))
@example("cor3 d=4", (2, -500))
@example("obtuse 150", (2, 1000))
@example("obtuse 150", (2, -1000))
@example("cor3 d=4", (10, 200))
@example("cor3 d=4", (10, -200))
@example("obtuse 150", (10, 160))
@example("obtuse 150", (10, -200))
def test_lengths_scale_with_the_points(name, scaling):
    base, j = scaling
    config = SCALED[name]
    low, high = _span(config, base)
    j = min(max(j, low), high)
    radius, width, unit = UNIT[name]
    if base == 2:
        scale = lambda x: math.ldexp(x, j)
        points = np.ldexp(config.points, j)
    else:
        scale = lambda x: x * 10.0 ** j
        points = config.points * 10.0 ** j
    got = _lengths(Configuration(points=points), scale(radius), scale(width))
    assert got["status"] is unit["status"]
    for key, values in unit["lengths"].items():
        expected = [scale(v) for v in values]
        if base == 2:
            assert got["lengths"][key] == expected, key
            continue
        if key in SEEDED and REPEATS[name]:
            continue
        for value, want, size in zip(got["lengths"][key], expected, unit["sizes"][key]):
            assert abs(value - want) <= 1e-12 * scale(size), key
    if base == 2:
        assert got["monochromatic"] == unit["monochromatic"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("s", [1e-200, 1e-170, 1e170])
def test_congruence_at_extreme_scales(s):
    # Squared distances underflowed at 1e-170 and 1e-200, so a 1.5x copy
    # matched, and overflowed at 1e170 (inf - inf in the comparison).
    for name, config in WITNESSES.items():
        scaled = Configuration(points=config.points * s)
        larger = Configuration(points=config.points * (1.5 * s))
        moved = apply_motion(scaled, random_motion(config.dim, seed=3, translation_scale=s))
        assert is_congruent(scaled, moved) and is_congruent(moved, scaled), name
        assert not is_congruent(scaled, larger), name
        assert not is_congruent(larger, scaled), name
        zeros = (0,) * len(config)
        assert find_monochromatic_copy(ColoredConfiguration(larger, zeros), scaled) is None
        found = find_monochromatic_copy(ColoredConfiguration(moved, zeros), scaled)
        assert found is not None and sorted(found) == list(range(len(config)))


@pytest.mark.parametrize("s", [1e-200, 1e160])
def test_embedding_feasible_at_extreme_scales(s):
    # The enclosing ball read radius 0 at 1e-200 and raised DomainError at
    # 1e160; the triangle's enclosing radius is 0.5 s.
    scaled = Configuration(points=obtuse_triangle(150.0).points * s)
    assert embedding_feasible(SpreadProblem(target=scaled, radius=0.51 * s))
    assert not embedding_feasible(SpreadProblem(target=scaled, radius=0.49 * s))


@pytest.mark.parametrize("s", [1e-170, 1e170])
def test_circumcenter_in_hull_at_extreme_scales(s):
    # The Gram solve read obtuse_triangle(150) as acute at 1e-170 and the
    # regular tetrahedron as obtuse at 1e170.
    for config, inside in ((obtuse_triangle(150.0), False), (regular_simplex(3), True),
                           (obtuse_triangle(136.0), False), (regular_simplex(2), True)):
        scaled = Configuration(points=config.points * s)
        assert circumcenter_in_hull(scaled) is inside
        assert (conjecture_classification(scaled) is ConjectureLabel.DIAMETER_RAMSEY) is inside


@pytest.mark.parametrize("s", [2.0 ** -600, 1e-170, 1e170, 2.0 ** 600])
def test_norms_about_the_origin_at_extreme_scales(s):
    # Colours read at the input's scale differed from the unit-scale
    # colours at 1e-170, and raised DomainError (|x| = inf) at 1e170, where
    # a point at half the radius was outside its ball.
    rng = np.random.default_rng(4)
    points = rng.normal(size=(40, 3))
    width = 0.37
    unit = color_configuration(Configuration.from_points(points), width).colors
    scaled = Configuration.from_points(points * s)
    assert color_configuration(scaled, width * s).colors == unit
    assert tuple(shell_color(p, width * s) for p in scaled.points) == unit
    ball = Ball(center=np.full(3, s), radius=2.0 * s)
    assert ball.contains(np.full(3, s) + [s, 0.0, 0.0])
    assert not ball.contains(np.full(3, s) + [2.5 * s, 0.0, 0.0])


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=6), st.floats(1e-3, 1e3))
@settings(max_examples=200)
def test_colours_keep_the_bits_of_numpy_norms(coords, width):
    # Shell boundaries are decided by the last bit of |x|, so in range the
    # colour is floor(np.linalg.norm(x) / c) exactly.
    point = np.array(coords)
    assert shell_color(point, width) == math.floor(np.linalg.norm(point) / width)
    config = Configuration.from_points(np.vstack([point, 0.5 * point, -point]))
    norms = np.linalg.norm(config.points, axis=1)
    assert color_configuration(config, width).colors == tuple(
        int(v) for v in np.floor(norms / width))
