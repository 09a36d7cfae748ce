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
