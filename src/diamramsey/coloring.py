"""Shell colourings of the ball and monochromatic-copy searches.

Points are coloured by which concentric shell of width c they fall in,
colour(x) = floor(|x| / c), so a ball of radius r needs k = floor(r/c) + 1
colours and any two points whose norms differ by at least c get different
colours.  The falsifier samples random congruent copies of a target inside
the ball (same sampler as the spread oracle) and counts monochromatic ones;
the finder does exact backtracking on small coloured sets.  The colouring
depends on norms only, so the sampler draws translates of one fixed copy:
rotating it by a Haar rotation first would leave the distribution of every
copy's shell indices unchanged (see the spread module).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import spread
from .errors import BudgetExceeded, DomainError, _check_positive, _check_tolerance
from .geometry import Configuration, _as_json, _integer, _match, _norm, _seed, distance_matrix

FINDER_BUDGET = 20


def _shells(lengths, c: float, what: str):
    """floor(lengths / c) as exact ints: one for a number, a tuple for an array.

    DomainError when a quotient overflows to inf.
    """
    with np.errstate(over="ignore"):
        quotients = np.floor(np.divide(lengths, c))
    if not np.all(np.isfinite(quotients)):
        raise DomainError(f"{what} {float(np.max(lengths))} over shell width {c} overflows")
    return int(quotients) if quotients.ndim == 0 else tuple(map(int, quotients.tolist()))


def shell_color(point, c: float) -> int:
    """Index of the width-c shell containing the point: floor(|x| / c)."""
    _check_positive(c, "shell width")
    return _shells(float(_norm(np.asarray(point, dtype=float))), c, "norm")


def num_colors(r: float, c: float) -> int:
    """Colours needed for the radius-r ball under width-c shells: floor(r/c) + 1."""
    _check_positive(r, "radius")
    _check_positive(c, "shell width")
    return _shells(r, c, "radius") + 1


@dataclass(frozen=True)
class ShellColoring:
    """The shell colouring of B(0, radius) by width-shell_width shells; num_colors is derived."""

    shell_width: float
    radius: float
    num_colors: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "num_colors",
                           num_colors(self.radius, self.shell_width))

    def color(self, point) -> int:
        return shell_color(point, self.shell_width)


@dataclass(frozen=True, eq=False)
class ColoredConfiguration:
    """A configuration together with one colour index per point."""

    configuration: Configuration
    colors: tuple

    def __post_init__(self):
        colors = tuple(_integer(c, "a colour") for c in self.colors)
        if len(colors) != len(self.configuration):
            raise DomainError("need exactly one colour per point")
        if any(c < 0 for c in colors):
            raise DomainError("colours must be nonnegative integers")
        object.__setattr__(self, "colors", colors)


def color_configuration(config: Configuration, c: float) -> ColoredConfiguration:
    """Apply the shell colouring pointwise, each colour floor(|x| / c) an exact int.

    Raises DomainError where a quotient |x| / c overflows to inf.
    """
    _check_positive(c, "shell width")
    colors = _shells(_norm(config.points, axis=1), c, "norm")
    return ColoredConfiguration(configuration=config, colors=colors)


@dataclass(frozen=True)
class FalsifyReport:
    """Outcome of a Monte-Carlo hunt for monochromatic congruent copies.

    A nonzero monochromatic_count means the shell width exceeds the true
    minimal spread for this target and radius.  This is evidence, not
    proof: the true statement quantifies over uncountably many copies.
    """

    radius: float
    shell_width: float
    num_colors: int
    n_samples: int
    seed: int
    monochromatic_count: int
    min_spread: float | None
    min_color_span: int | None
    vacuous: bool

    to_dict = _as_json


def falsify_coloring(target: Configuration, r: float, c: float,
                     n_samples: int, seed: int = 0) -> FalsifyReport:
    """Sample congruent copies of the target in B(0, r); count monochromatic ones.

    Uses the same feasible-copy sampler as the spread oracle, so reports are
    reproducible from the seed.  n_samples = 0 yields a vacuous report; a
    count that is not a nonnegative integer, or a seed that is not, raises
    DomainError.

    A shrunk copy's farthest point lies on |x| = r.  When r/c is an integer
    that sphere is a shell boundary, so whether the point shares a shell
    with the rest of the copy comes down to the last bit of its norm.
    """
    n_samples = _integer(n_samples, "sample count")
    if n_samples < 0:
        raise DomainError(f"sample count must be nonnegative, got {n_samples}")
    seed = _seed(seed)
    k = num_colors(r, c)
    centered, radius, scale = spread._prepare(spread.SpreadProblem(target=target, radius=r))
    if n_samples == 0:
        return FalsifyReport(radius=r, shell_width=c, num_colors=k,
                             n_samples=0, seed=seed, monochromatic_count=0,
                             min_spread=None, min_color_span=None, vacuous=True)
    # The copies are sampled in units of scale (spread._prepare), so the shells are too.
    width = c / scale

    def summary(top, bottom):
        # floor(|x| / c) is monotone in |x|, so a copy's extreme shells are
        # those of its extreme norms
        spans = np.floor(top / width) - np.floor(bottom / width)
        return (int(np.count_nonzero(spans == 0.0)), float((top - bottom).min()),
                int(spans.min()))

    counts, spreads, span_mins = zip(*spread._summarize_chunks(centered, radius, n_samples,
                                                               seed, summary))
    mono, min_spread, min_span = sum(counts), min(spreads), min(span_mins)
    return FalsifyReport(radius=r, shell_width=c, num_colors=k,
                         n_samples=n_samples, seed=seed,
                         monochromatic_count=mono, min_spread=min_spread * scale,
                         min_color_span=min_span, vacuous=False)


def find_monochromatic_copy(colored: ColoredConfiguration,
                            target: Configuration,
                            tol: float | None = None):
    """Indices of a single-colour subset congruent to the target, or None.

    Exact backtracking over each colour class, matching pairwise distances
    within the absolute tol (default 1e-6 * diam(target)).  Index i of the
    result is the host point matched to target point i.  A zero-diameter
    target has a zero default tol, so only coincident host points match it.
    Limited to |B| <= 20; larger sets raise BudgetExceeded.
    """
    if tol is not None:
        _check_tolerance(tol)
    host = colored.configuration
    n_host = len(host)
    if n_host > FINDER_BUDGET:
        raise BudgetExceeded(f"host set has {n_host} points; budget is {FINDER_BUDGET}")
    k = len(target)
    dist_t = distance_matrix(target)
    if tol is None:
        tol = 1e-6 * float(dist_t.max())
    dist_h = distance_matrix(host)

    by_color: dict[int, list[int]] = {}
    for idx, col in enumerate(colored.colors):
        by_color.setdefault(col, []).append(idx)

    for indices in by_color.values():
        if len(indices) < k:
            continue
        match = _match(dist_t, dist_h, range(k), [indices] * k, tol)
        if match is not None:
            return tuple(match[i] for i in range(k))
    return None
