"""Units and rigid motions change no answer on the paper's witnesses.

Each witness is scaled by s, log-uniform in [1e-9, 1e9], and moved by a
random rigid motion whose translation also scales with s: a unit shift of a
set of size 1e-9 would round away nine digits, which no tolerance restores.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diamramsey import (
    Configuration,
    SpreadProblem,
    Status,
    almost_regular_simplex,
    circumradius,
    diameter,
    estimate_c,
    is_congruent,
    min_enclosing_ball,
    obstruction_verdict,
    obtuse_triangle,
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
    scaled = Configuration(dim=config.dim, points=s * config.points)
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
        scaled = Configuration(dim=2, points=s * triangle.points)
        estimate = estimate_c(SpreadProblem(target=scaled, radius=0.95 * s))
        assert estimate.c_estimate / s == pytest.approx(base.c_estimate, rel=1e-13)
        assert estimate.c_lower / s == pytest.approx(base.c_lower, rel=1e-13)


@pytest.mark.parametrize("s", [2.0 ** -600, 1e-175, 1e-161, 1e155])
def test_verdict_at_extreme_scales(s):
    # The circumsphere and the centroid screen run over a power of two:
    # these scales read circumradius 0, NotSpherical and nan (with an
    # overflow warning), where s = 1 gives NotDiameterRamsey.
    scaled = Configuration(dim=2, points=s * obtuse_triangle(150.0).points)
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
