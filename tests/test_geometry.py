import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import diamramsey.geometry
from diamramsey import (
    Configuration,
    DomainError,
    NonOrthogonal,
    RigidMotion,
    affine_dimension,
    almost_regular_simplex,
    apply_motion,
    diameter,
    distance_matrix,
    is_congruent,
    obtuse_triangle,
    random_motion,
    regular_simplex,
)
from oracles import configurations, dist_matrix

UNIT_SQUARE = Configuration.from_points([[0, 0], [1, 0], [1, 1], [0, 1]])
EQUILATERAL = regular_simplex(2)


@st.composite
def clouds(draw):
    """Seeded clouds with the near-ties and cancellations diameter must survive.

    Normal clouds of up to 300 points, where most rows miss the realised
    distance and are pruned; clouds with duplicate points, collinear sets,
    points on a sphere or a spherical cap, antipodal pairs on a sphere
    (every row ties) and a great circle with its two poles, whose windows
    hold every circle row when a pole is the projection axis; all scaled by
    10^-9 ... 10^9 and translated by up to 1e6 times their extent.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(
        ["normal", "duplicates", "collinear", "sphere", "cap", "antipodal", "orthogonal"]))
    n = draw(st.integers(1, 300 if kind == "normal" else 60))
    dim = draw(st.integers(1, 6))
    pts = rng.normal(size=(n, dim))
    if kind == "orthogonal":
        dim = max(dim, 2)
        pts = orthogonal_circle(n, dim, rng)
    elif kind == "duplicates":
        pts = pts[rng.integers(0, max(n // 3, 1), n)]
    elif kind == "collinear":
        pts = np.outer(rng.normal(size=n), rng.normal(size=dim))
    elif kind == "cap":
        pts[:, 0] = 3.0  # within about 30 degrees of the first axis
    if kind in ("sphere", "cap", "antipodal"):
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        if kind == "antipodal":
            pts = np.vstack([pts, -pts])
    pts *= 10.0 ** draw(st.integers(-9, 9))
    extent = float(np.max(np.abs(pts - pts[0])))
    shift = draw(st.sampled_from([0.0, 1.0, 1e3, 1e6]))
    return Configuration.from_points(pts + shift * extent * rng.normal(size=dim))


def orthogonal_circle(n, dim, rng):
    """Both poles of a random unit axis, then n points of the great circle
    orthogonal to it (dim >= 2; in R^2 the circle is two antipodes).

    Every point lies on the unit sphere about the origin.  When a pole is
    the point farthest from the centroid, the circle projects to about 0 on
    it, and each circle row's window |p_i + p_j| <= sqrt(4 - L^2) ~ 0 holds
    every circle row.
    """
    axis, *plane = np.linalg.qr(rng.normal(size=(dim, min(dim, 3))))[0].T
    if dim == 2:
        circle = np.outer((-1.0) ** np.arange(n), plane[0])
    else:
        angles = rng.uniform(0.0, 2.0 * np.pi) + 2.0 * np.pi * np.arange(n) / n
        circle = np.outer(np.cos(angles), plane[0]) + np.outer(np.sin(angles), plane[1])
    return np.vstack([axis, -axis, circle])


def evenly_spaced_line(n, dim, seed):
    """n evenly spaced points, symmetric about the origin, on a random line."""
    direction = np.random.default_rng(seed).normal(size=dim)
    return np.outer(np.arange(n) - (n - 1) / 2.0, direction)


def antipodal_pairs(n, dim, seed):
    """n points on the unit sphere and their antipodes."""
    x = np.random.default_rng(seed).normal(size=(n, dim))
    x /= np.linalg.norm(x, axis=1)[:, None]
    return np.vstack([x, -x])


def exact_antipodes(n, dim, seed):
    """n points on the unit sphere, each followed by its antipode.

    The pairs cancel exactly in the centroid, which is 0, so the centred
    points are the input and each pair's projections sum to exactly 0.
    """
    pairs = antipodal_pairs(n, dim, seed)
    return pairs.reshape(2, n, dim).transpose(1, 0, 2).reshape(2 * n, dim)


def regular_polygon(m, dim, seed):
    """The m vertices of a regular m-gon on the unit circle of a random plane in R^dim."""
    angles = 2.0 * np.pi * np.arange(m) / m
    frame = np.linalg.qr(np.random.default_rng(seed).normal(size=(dim, 2)))[0]
    return np.column_stack([np.cos(angles), np.sin(angles)]) @ frame.T


def integer_circle_and_poles(dim):
    """Integer points of the radius-65 sphere in R^dim: both poles of the
    first axis, then the 36 points with 65^2 = a^2 + b^2 on the great
    circle orthogonal to it (in R^2, its two points).

    Everything is exact: the centroid is 0, every squared norm is 65^2, and
    the first pole, the first largest norm, is the projection axis.  Each
    circle row then projects to exactly 0 and its window is
    |p_i + p_j| <= sqrt(2 * 65^2 + 2 * 65^2 - 130^2) = 0 up to the slack,
    so it holds every circle row on its edge.
    """
    legs = [(65, 0), (16, 63), (25, 60), (33, 56), (39, 52)]
    circle = {(sa * a, sb * b) for a, b in legs + [(b, a) for a, b in legs]
              for sa in (1, -1) for sb in (1, -1)}
    pts = np.zeros((2 + (len(circle) if dim > 2 else 2), dim))
    pts[0, 0], pts[1, 0] = 65.0, -65.0
    if dim == 2:
        pts[2:, 1] = 65.0, -65.0
    else:
        pts[2:, 1:3] = sorted(circle)
    return pts


def unit_sphere(n, dim, seed):
    x = np.random.default_rng(seed).normal(size=(n, dim))
    return x / np.linalg.norm(x, axis=1)[:, None]


# Sets whose windows |p_i + p_j| <= w_i have pairs on or next to their edge.
# Without the window's slack, the polygons 6x3-2, 16x2-0, 16x2-2 and 40x2-5
# come out one bit low in one- and seven-entry blocks.
WINDOW_EDGES = (
    [pytest.param(exact_antipodes(n, dim, seed), id=f"exact-antipodes-{n}x{dim}")
     for n, dim, seed in ((1, 2, 0), (7, 3, 1), (40, 3, 2), (60, 6, 3), (1500, 3, 4))]
    + [pytest.param(regular_polygon(m, dim, seed), id=f"polygon-{m}x{dim}-{seed}")
       for m, dim, seed in ((4, 2, 0), (6, 3, 2), (16, 2, 0), (16, 2, 2), (40, 2, 5),
                            (100, 3, 1), (3000, 2, 0))]
    + [pytest.param(integer_circle_and_poles(dim), id=f"circle-and-poles-{dim}")
       for dim in (2, 3, 4, 6)]
    + [pytest.param(unit_sphere(3000, dim, dim), id=f"sphere-3000x{dim}") for dim in range(2, 7)]
)


# Sets on which |x_i| + R = L holds to rounding for the rows of the largest
# distance, so the prune's slack decides whether they survive.
NEAR_TIES = (
    [pytest.param(evenly_spaced_line(n, dim, n), id=f"line-{n}x{dim}")
     for n, dim in ((2, 1), (3, 1), (10, 1), (11, 2), (64, 3), (101, 5), (700, 3))]
    + [pytest.param(regular_simplex(k).points, id=f"simplex-{k}") for k in (1, 2, 3, 5, 8)]
    + [pytest.param(antipodal_pairs(n, dim, seed), id=f"antipodal-{n}x{dim}-{seed}")
       for n, dim, seed in ((1, 3, 0), (5, 2, 1), (30, 3, 2), (60, 6, 3), (350, 3, 4))
       + tuple((40, 3, seed) for seed in range(5, 25))]
)


class TestConfiguration:
    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            Configuration(dim=2, points=np.empty((0, 2)))

    def test_rejects_ragged_dim(self):
        with pytest.raises(DomainError):
            Configuration(dim=3, points=[[1.0, 2.0]])

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            Configuration(dim=1, points=[[np.inf]])

    @pytest.mark.parametrize("dim", [2.0, 2.5, "2", None, True, np.float64(2.0)])
    def test_rejects_non_integer_dim(self, dim):
        # dim=2.0 used to pass and crash estimate_c later; dim=True was
        # kept and serialised as true.
        with pytest.raises(DomainError):
            Configuration(dim=dim, points=[[0.0, 0.0], [1.0, 0.5]])

    def test_integer_dim_becomes_int(self):
        config = Configuration(dim=np.int64(2), points=[[0.0, 0.0], [1.0, 0.5]])
        assert type(config.dim) is int and config.dim == 2

    def test_rejects_non_numeric_points(self):
        with pytest.raises(DomainError):
            Configuration(dim=2, points=[["a", 0.0], [1.0, 0.5]])

    def test_points_are_frozen(self):
        config = Configuration.from_points([[1.0, 2.0]])
        with pytest.raises(ValueError):
            config.points[0, 0] = 3.0


class TestDiameter:
    def test_unit_square(self):
        assert diameter(UNIT_SQUARE) == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_singleton(self):
        assert diameter(Configuration.from_points([[3.0, 4.0]])) == 0.0

    def test_regular_simplex_unit_edges(self):
        assert diameter(regular_simplex(3)) == pytest.approx(1.0, abs=1e-12)

    @given(clouds(), st.sampled_from([1, 7, 1 << 20]))
    @example(Configuration.from_points([[1e6, -2.0, 3.5]]), 1 << 20)
    @example(Configuration.from_points([[0.0], [-1e-9]]), 1 << 20)
    @example(Configuration.from_points([[1.0, 2.0], [1.0, 2.0]]), 1)
    @settings(max_examples=150)
    def test_equals_full_distance_matrix(self, config, block):
        # Bit for bit the maximum of distance_matrix, also when the screen
        # and the recompute run in blocks of a single row.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(diamramsey.geometry, "_DIAMETER_BLOCK", block)
            value = diameter(config)
        assert value == float(np.max(distance_matrix(config)))
        # distance_matrix sums its squares with einsum, which may round the
        # last bit differently from the oracle's plain sum.
        oracle = float(np.max(dist_matrix(config.points)))
        assert abs(value - oracle) <= 4 * np.finfo(float).eps * oracle

    @pytest.mark.parametrize("seed", [451, 878, 1247, 2987])
    def test_antipodal_near_ties(self, seed, monkeypatch):
        # Antipodal pairs on a sphere: every row's maximum ties within
        # rounding, and for these seeds the row with the largest screened
        # value is not the row of the largest distance, so recomputing only
        # that row comes out one bit low.  One-row blocks force the screen.
        monkeypatch.setattr(diamramsey.geometry, "_DIAMETER_BLOCK", 1)
        rng = np.random.default_rng(seed)
        n, dim = int(rng.integers(2, 60)), int(rng.integers(1, 7))
        x = rng.normal(size=(n, dim))
        x /= np.linalg.norm(x, axis=1)[:, None]
        config = Configuration.from_points(
            np.vstack([x, -x]) * 10.0 ** int(rng.integers(-9, 10)))
        assert diameter(config) == float(np.max(distance_matrix(config)))

    @pytest.mark.parametrize("shift", [0.0, 1e6])
    @pytest.mark.parametrize("block", [1, 1 << 20])
    @pytest.mark.parametrize("pts", NEAR_TIES)
    def test_near_ties_of_the_prune(self, pts, block, shift, monkeypatch):
        extent = float(np.max(np.abs(pts - pts[0])))
        config = Configuration.from_points(pts + shift * extent)
        monkeypatch.setattr(diamramsey.geometry, "_DIAMETER_BLOCK", block)
        assert diameter(config) == float(np.max(distance_matrix(config)))

    @pytest.mark.parametrize("shift", [0.0, 1e6])
    @pytest.mark.parametrize("pts", WINDOW_EDGES)
    def test_window_edges(self, pts, shift, monkeypatch):
        extent = float(np.max(np.abs(pts - pts[0])))
        config = Configuration.from_points(pts + shift * extent)
        want = reference_diameter(config)
        for block in (1, 7, 1 << 20):
            monkeypatch.setattr(diamramsey.geometry, "_DIAMETER_BLOCK", block)
            assert diameter(config) == want, block

    @pytest.mark.parametrize("dim", [2, 3, 6])
    def test_one_window_holds_the_circle(self, dim, monkeypatch):
        # One-row blocks: each pole screens only the other pole, and each
        # circle row every circle row, all at |p_i + p_j| = 0.
        pts = integer_circle_and_poles(dim)
        monkeypatch.setattr(diamramsey.geometry, "_DIAMETER_BLOCK", 1)
        blocks = spy_on_screen(monkeypatch)
        assert diameter(Configuration.from_points(pts)) == 130.0
        circle = len(pts) - 2
        assert sorted(cols for _, cols in blocks) == [1, 1] + [circle] * circle

    def test_prune_keeps_few_rows_of_a_cloud(self, monkeypatch):
        # The windows screen no more than the kept rows against all n.
        kept = spy_on_prune(monkeypatch)
        blocks = spy_on_screen(monkeypatch)
        config = Configuration.from_points(
            np.random.default_rng(0).normal(size=(3000, 3)))
        value = diameter(config)
        assert len(kept) == 1 and len(kept[0]) <= 64
        assert sum(rows * cols for rows, cols in blocks) <= len(kept[0]) * 3000
        assert value == reference_diameter(config)

    def test_prune_keeps_every_row_of_a_sphere(self, monkeypatch):
        # Every row reaches L, but at most 40% of the n*n pairs (about 26%
        # here) lie in the windows.
        kept = spy_on_prune(monkeypatch)
        blocks = spy_on_screen(monkeypatch)
        config = Configuration.from_points(unit_sphere(3000, 3, 0))
        value = diameter(config)
        assert len(kept) == 1 and len(kept[0]) == 3000
        assert sum(rows * cols for rows, cols in blocks) <= 0.4 * 3000**2
        assert value == reference_diameter(config)

    def test_peak_allocation_without_distance_tensor(self):
        # The n*n*d difference tensor alone would take 216 MB here.
        config = Configuration.from_points(
            np.random.default_rng(0).normal(size=(3000, 3)))
        tracemalloc.start()
        try:
            diameter(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 64e6


def spy_on_prune(monkeypatch) -> list:
    """Record the rows that each diameter call passes to the Gram screen."""
    kept = []
    prune = diamramsey.geometry._reaching_rows

    def recording(*args):
        kept.append(prune(*args))
        return kept[-1]

    monkeypatch.setattr(diamramsey.geometry, "_reaching_rows", recording)
    return kept


def spy_on_screen(monkeypatch) -> list:
    """Record the (rows, columns) shape of each block of the Gram screen."""
    blocks = []
    screen = diamramsey.geometry._gram_row_max

    def recording(rows, neg2xt, *args):
        blocks.append((len(rows), neg2xt.shape[1]))
        return screen(rows, neg2xt, *args)

    monkeypatch.setattr(diamramsey.geometry, "_gram_row_max", recording)
    return blocks


def reference_diameter(config) -> float:
    """max(distance_matrix(config)), 300 rows at a time.

    The whole n*n*d difference tensor would take 216 MB at n = 3000, d = 3;
    the rows are distance_matrix's formula, and test_equals_full_distance_matrix
    checks that row blocks give its bits.
    """
    pts = config.points
    best = 0.0
    for start in range(0, len(pts), 300):
        diff = pts[start:start + 300, None, :] - pts[None, :, :]
        best = max(best, float(np.sqrt(np.einsum("ijk,ijk->ij", diff, diff)).max()))
    return best


class TestDistanceMatrix:
    def test_two_points(self):
        config = Configuration.from_points([[0.0], [1.0]])
        assert np.allclose(distance_matrix(config), [[0, 1], [1, 0]])

    def test_singleton(self):
        config = Configuration.from_points([[5.0, 5.0]])
        assert distance_matrix(config) == pytest.approx(np.zeros((1, 1)))

    def test_equilateral_off_diagonal(self):
        mat = distance_matrix(EQUILATERAL)
        off = mat[~np.eye(3, dtype=bool)]
        assert np.allclose(off, 1.0, atol=1e-12)


class TestApplyMotion:
    def test_identity(self):
        moved = apply_motion(UNIT_SQUARE, RigidMotion.identity(2))
        assert np.allclose(moved.points, UNIT_SQUARE.points)

    def test_quarter_turn(self):
        motion = RigidMotion(rotation=[[0.0, -1.0], [1.0, 0.0]],
                             translation=[0.0, 0.0])
        moved = apply_motion(Configuration.from_points([[1.0, 0.0]]), motion)
        assert np.allclose(moved.points, [[0.0, 1.0]], atol=1e-15)

    def test_preserves_distance_matrix(self):
        motion = random_motion(2, seed=5)
        moved = apply_motion(EQUILATERAL, motion)
        assert np.allclose(distance_matrix(moved), distance_matrix(EQUILATERAL),
                           atol=1e-9)

    def test_non_orthogonal_rejected(self):
        skewed = RigidMotion(rotation=[[1.0, 0.1], [0.0, 1.0]],
                             translation=[0.0, 0.0])
        with pytest.raises(NonOrthogonal):
            apply_motion(UNIT_SQUARE, skewed)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            apply_motion(UNIT_SQUARE, RigidMotion.identity(3))


class TestIsCongruent:
    def test_reflection_is_congruent(self):
        mirrored = Configuration(dim=2, points=EQUILATERAL.points * [-1.0, 1.0])
        assert is_congruent(EQUILATERAL, mirrored, 1e-9)

    def test_scaled_not_congruent(self):
        doubled = Configuration(dim=2, points=2.0 * EQUILATERAL.points)
        assert not is_congruent(EQUILATERAL, doubled, 1e-9)

    def test_square_vs_rhombus(self):
        # rhombus with diagonals sqrt(2) +/- 0.5: the sorted distance
        # multisets differ (side sqrt(1.125) vs 1), so no matching exists.
        p = (math.sqrt(2) + 0.5) / 2
        q = (math.sqrt(2) - 0.5) / 2
        rhombus = Configuration.from_points(
            [[p, 0.0], [0.0, q], [-p, 0.0], [0.0, -q]])
        assert not is_congruent(UNIT_SQUARE, rhombus, 1e-9)

    def test_size_mismatch(self):
        pair = Configuration.from_points([[0.0, 0.0], [1.0, 0.0]])
        assert not is_congruent(UNIT_SQUARE, pair, 1e-9)

    @pytest.mark.parametrize("seed", range(8))
    def test_congruent_after_motion(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 9))
        dim = int(rng.integers(1, 5))
        config = Configuration.from_points(rng.normal(0, 2, (n, dim)))
        moved = apply_motion(config, random_motion(dim, seed=seed + 100))
        assert is_congruent(config, moved, 1e-9)

    @given(configurations(max_points=6))
    def test_reflexive(self, config):
        assert is_congruent(config, config, 1e-9)

    @given(configurations(max_points=5), st.integers(0, 10))
    @settings(max_examples=40)
    def test_symmetric(self, config, seed):
        moved = apply_motion(config, random_motion(config.dim, seed=seed))
        assert is_congruent(config, moved, 1e-8)
        assert is_congruent(moved, config, 1e-8)

    def test_tolerance_is_relative_at_small_scale(self):
        # every distance of these triangles is below 1e-11, so an absolute
        # 1e-9 tolerance would call them congruent
        assert not is_congruent(obtuse_triangle(150.0, 1e-12),
                                obtuse_triangle(100.0, 1e-12))

    @pytest.mark.parametrize("scale", [1e8, 1e9])
    def test_tolerance_is_relative_at_large_scale(self, scale):
        # rounding the moved copy perturbs distances by ~eps * scale > 1e-9
        config = Configuration(dim=4, points=scale * almost_regular_simplex(4, 0.01).points)
        moved = apply_motion(config, random_motion(4, seed=3, translation_scale=scale))
        assert is_congruent(config, moved)
        assert is_congruent(moved, config)


class TestAffineDimension:
    def test_singleton(self):
        assert affine_dimension(Configuration.from_points([[1.0, 2.0, 3.0]])) == 0

    def test_collinear_in_3d(self):
        config = Configuration.from_points(
            [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])
        assert affine_dimension(config) == 1

    def test_unit_square(self):
        assert affine_dimension(UNIT_SQUARE) == 2


class TestRandomMotion:
    def test_deterministic(self):
        a = random_motion(3, seed=11)
        b = random_motion(3, seed=11)
        assert np.array_equal(a.rotation, b.rotation)
        assert np.array_equal(a.translation, b.translation)

    def test_orthogonal(self):
        for seed in range(10):
            assert random_motion(4, seed=seed).is_orthogonal()

    def test_both_determinant_signs_reachable(self):
        dets = {round(float(np.linalg.det(random_motion(3, seed=s).rotation)))
                for s in range(20)}
        assert dets == {-1, 1}

    def test_inverse_roundtrip(self):
        for seed in range(6):
            motion = random_motion(3, seed=seed)
            roundtrip = apply_motion(
                apply_motion(regular_simplex(3), motion), motion.inverse())
            assert np.allclose(roundtrip.points, regular_simplex(3).points,
                               atol=1e-9)


class TestMotionInvariance:
    @given(configurations(), st.integers(0, 50))
    @settings(max_examples=60)
    def test_diameter_distance_affine_dim(self, config, seed):
        moved = apply_motion(config, random_motion(config.dim, seed=seed))
        assert diameter(moved) == pytest.approx(diameter(config), abs=1e-9)
        assert np.allclose(distance_matrix(moved), distance_matrix(config),
                           atol=1e-9)
        assert affine_dimension(moved, 1e-6) == affine_dimension(config, 1e-6)
