import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import diamramsey.geometry
from diamramsey import (
    Configuration,
    circumsphere,
    DomainError,
    RigidMotion,
    affine_dimension,
    almost_regular_simplex,
    diameter,
    distance_matrix,
    is_congruent,
    jung_bound,
    obtuse_triangle,
    regular_simplex,
)
from diamramsey.geometry import _diameter, _far_pair_sq
from oracles import (apply_motion, configurations, dist_matrix, pairwise_search_plan,
                     random_motion)

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


# Sets whose whole n*n*d tensor fits in one block of _DIAMETER_BLOCK: they
# take the prune and the screen like any other set.
MID_SIZES = (
    [pytest.param(np.random.default_rng(0).normal(size=(n, dim)), id=f"gaussian-{n}x{dim}")
     for n, dim in ((100, 3), (300, 3), (577, 3), (71, 70))]
    + [pytest.param(almost_regular_simplex(70, 1e-3).points, id="almost-regular-70")]
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
    @example(Configuration.from_points(np.random.default_rng(0).normal(size=(300, 3))), 1)
    @settings(max_examples=150)
    def test_equals_full_distance_matrix(self, config, block):
        # Bit for bit the maximum of distance_matrix, also when the screen
        # and the recompute run in blocks of a single row, and on the kept
        # pairs' path.
        want = float(np.max(distance_matrix(config)))
        for value in values_on_each_path(lambda: diameter(config), config.points, block):
            assert value == want
        # distance_matrix sums its squares with einsum, which may round the
        # last bit differently from the oracle's plain sum.
        oracle = float(np.max(dist_matrix(config.points)))
        assert abs(want - oracle) <= 4 * np.finfo(float).eps * oracle

    @given(clouds(), st.sampled_from(["random", "far", "circumcenter"]),
           st.sampled_from([1, 7, 1 << 20]), st.booleans(), st.integers(0, 2**32 - 1))
    @example(Configuration.from_points(np.random.default_rng(0).normal(size=(300, 3))),
             "random", 1, False, 0)
    @settings(max_examples=150)
    def test_screened_about_any_centre(self, config, where, block, walk_from_first, seed):
        # The prune and window proofs use nothing of the centre but the
        # rounding of p - c: screened about a random point near the cloud,
        # one 1e6 extents away, or its circumcenter (far off for a cap),
        # the value is still distance_matrix's maximum.
        pts = config.points
        rng = np.random.default_rng(seed)
        extent = float(np.max(np.abs(pts - pts[0])))
        if where == "circumcenter" and extent > 0.0:
            center = circumsphere(config, math.inf).center
        else:
            offset = 1e6 if where == "far" else 1.0
            center = pts.mean(axis=0) + offset * (extent or 1.0) * rng.normal(size=config.dim)
        far_sq = _far_pair_sq(pts, 0) if walk_from_first else None
        want = float(np.max(distance_matrix(config)))
        for value in values_on_each_path(lambda: _diameter(pts, center, far_sq), pts, block):
            assert value == want

    @pytest.mark.parametrize("seed", [451, 878, 1247, 2987])
    def test_antipodal_near_ties(self, seed, monkeypatch):
        # Antipodal pairs on a sphere: every row's maximum ties within
        # rounding, and for these seeds the row with the largest screened
        # value is not the row of the largest distance, so recomputing only
        # that row comes out one bit low.  One-row blocks force the windows.
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

    @pytest.mark.parametrize("exponent", [0, -600, 600])
    @pytest.mark.parametrize("pts", MID_SIZES)
    def test_one_path_for_mid_sizes(self, pts, exponent):
        # One prune and one product over the kept pairs, with no recompute
        # of the whole set, and still distance_matrix's maximum.
        pts = np.ldexp(pts, exponent)
        config = Configuration.from_points(pts)
        value, kept = value_on_path(lambda: diameter(config), pts, 1 << 20)
        assert kept is not None and value == float(np.max(distance_matrix(config)))

    def test_prune_keeps_few_rows_of_a_cloud(self, monkeypatch):
        # One prune, then one product over the kept pairs, with no windows,
        # and past the walk's rows no recompute against all n.
        kept = spy_on_prune(monkeypatch)
        blocks = spy_on_screen(monkeypatch)
        entries = spy_on_entries(monkeypatch)
        config = Configuration.from_points(
            np.random.default_rng(0).normal(size=(3000, 3)))
        value = diameter(config)
        assert len(kept) == 1 and len(kept[0]) <= 64
        k = len(kept[0])
        assert blocks == [(k, k)]
        assert {cols for rows, cols in entries if rows > 1 or cols != 3000} == {k}
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

    @pytest.mark.parametrize("exponent", [-1000, -600, -540, -520, 520, 600, 1000])
    @pytest.mark.parametrize("block", [1, 1 << 20])
    def test_powers_of_two_keep_the_bits(self, exponent, block, monkeypatch):
        # The screen and the recompute run over one power of two near the
        # extent, so a set scaled by 2^k, even where its squares overflow or
        # underflow, gives exactly 2^k times the unscaled diameter.
        monkeypatch.setattr(diamramsey.geometry, "_DIAMETER_BLOCK", block)
        for pts in (obtuse_triangle(150.0).points,
                    np.random.default_rng(0).normal(size=(300, 3)),
                    unit_sphere(300, 3, 1) + 1e6):
            want = math.ldexp(diameter(Configuration.from_points(pts)), exponent)
            scaled = Configuration.from_points(np.ldexp(pts, exponent))
            assert diameter(scaled) == want

    @pytest.mark.parametrize("exponent", [-300, -175, -161, -150, 150, 155, 300])
    def test_right_across_the_float_range(self, exponent):
        # 10^-175 gave 0, 10^-161 a value 0.6% low and 10^155 inf, from
        # squares that underflow or overflow at the input's own scale.
        s = 10.0 ** exponent
        config = Configuration.from_points(obtuse_triangle(150.0).points * s)
        assert diameter(config) == pytest.approx(s, rel=1e-15, abs=0.0)
        assert jung_bound(config) == pytest.approx(s / math.sqrt(3.0), rel=1e-15, abs=0.0)


def spy_on_prune(monkeypatch) -> list:
    """Record the rows that each diameter call keeps after the prune."""
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


def spy_on_entries(monkeypatch) -> list:
    """Record the (rows, columns) shape of each block of pairwise entries."""
    shapes = []
    entries = diamramsey.geometry._row_sq_dists

    def recording(pts, rows):
        out = entries(pts, rows)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(diamramsey.geometry, "_row_sq_dists", recording)
    return shapes


def values_on_each_path(call, pts, block) -> list:
    """call()'s diameter with _DIAMETER_BLOCK at `block`, then on the other screen.

    Where the prune keeps K rows, a block of len(K)^2 * dim screens the kept
    pairs in one product and a block one entry smaller screens them within
    windows, so both screens run on every example with two distinct points.
    """
    value, kept = value_on_path(call, pts, block)
    values = [value]
    if kept is not None:
        pairs = kept * kept * pts.shape[1]
        value, _ = value_on_path(call, pts, pairs - 1 if pairs <= block else pairs)
        values.append(value)
    return values


def value_on_path(call, pts, block) -> tuple:
    """(call()'s diameter, the prune's kept row count or None) at `block`.

    Asserts the one path with the spies, whatever the set's size: one prune
    on every set with two distinct points (only coincident points skip it),
    then one Gram block of the kept rows against themselves where their
    pairs fit in a block, or else blocks of at most _SCREEN_ROWS rows
    against their windows.
    """
    n, d = pts.shape
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(diamramsey.geometry, "_DIAMETER_BLOCK", block)
        kept, blocks = spy_on_prune(mp), spy_on_screen(mp)
        value = call()
    if not kept:
        assert blocks == [] and value == 0.0 and np.all(pts == pts[0])
        return value, None
    assert len(kept) == 1
    k = len(kept[0])
    if k * k * d <= block:
        assert blocks == [(k, k)]
    else:
        rows = max(1, block // (n * d))
        assert blocks and max(r for r, _ in blocks) <= min(rows, diamramsey.geometry._SCREEN_ROWS)
    return value, k


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


class TestSearchPlan:
    """is_congruent's broadcast pruning against the pairwise rule it replaced."""

    @staticmethod
    def _pairs(seed):
        rng = np.random.default_rng([seed, 41])
        n, dim = int(rng.integers(2, 13)), int(rng.integers(1, 5))
        if seed % 3 == 0:  # repeated distances: ties in the order and the rows
            base = regular_simplex(min(n - 1, 8)).points
            n, dim = base.shape[0], base.shape[1]
            pts = base + 1e-10 * rng.normal(size=base.shape)
        else:
            pts = rng.normal(size=(n, dim))
        config = Configuration.from_points(pts)
        moved = apply_motion(config, random_motion(dim, seed=seed))
        bumped = pts.copy()
        bumped[int(rng.integers(n))] += 1e-9 * rng.normal(size=dim)
        return config, [moved, Configuration.from_points(bumped),
                        Configuration.from_points(rng.normal(size=(n, dim)))]

    @pytest.mark.parametrize("seed", range(30))
    def test_same_plan_as_pairwise_rule(self, seed):
        config, others = self._pairs(seed)
        dist_a = distance_matrix(config)
        for other in others:
            dist_b = distance_matrix(other)
            for tol in (0.0, 1e-12, 1e-9, 1e-3):
                tol = tol * max(dist_a.max(), dist_b.max())
                assert diamramsey.geometry._search_plan(dist_a, dist_b, tol) \
                    == pairwise_search_plan(dist_a, dist_b, tol)

    def test_exact_ties(self):
        # Rows with equal distances have fewer gaps, so they are placed
        # after rows 2 and 3, which have none.
        config = Configuration.from_points([[0, 0], [1, 0], [2, 0], [0, 1], [3, 3]])
        moved = apply_motion(config, random_motion(2, seed=5))
        dist_a = distance_matrix(config)
        for dist_b in (dist_a, distance_matrix(moved)):
            for tol in (0.0, 1e-9):
                plan = diamramsey.geometry._search_plan(dist_a, dist_b, tol)
                assert plan == pairwise_search_plan(dist_a, dist_b, tol)
                assert plan[0][:2] == [2, 3]

    def test_blocked_broadcast_gives_the_same_plan(self, monkeypatch):
        config, (moved, bumped, _) = self._pairs(1)
        dist_a = distance_matrix(config)
        tol = 1e-9 * dist_a.max()
        for other in (moved, bumped):
            whole = diamramsey.geometry._search_plan(dist_a, distance_matrix(other), tol)
            monkeypatch.setattr(diamramsey.geometry, "_PLAN_ENTRIES", len(config) ** 2 * 2)
            blocked = diamramsey.geometry._search_plan(dist_a, distance_matrix(other), tol)
            monkeypatch.undo()
            assert blocked == whole


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

    def test_both_determinant_signs_reachable(self):
        dets = {round(float(np.linalg.det(random_motion(3, seed=s).rotation)))
                for s in range(20)}
        assert dets == {-1, 1}


class TestMotionInvariance:
    @given(configurations(), st.integers(0, 50))
    @settings(max_examples=60)
    def test_diameter_distance_affine_dim(self, config, seed):
        moved = apply_motion(config, random_motion(config.dim, seed=seed))
        assert diameter(moved) == pytest.approx(diameter(config), abs=1e-9)
        assert np.allclose(distance_matrix(moved), distance_matrix(config),
                           atol=1e-9)
        assert affine_dimension(moved, 1e-6) == affine_dimension(config, 1e-6)
