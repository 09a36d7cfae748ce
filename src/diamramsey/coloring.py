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

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, DomainError, _check_positive, _check_tolerance
from .geometry import Configuration, _integer, _match, distance_matrix
from .spread import SpreadProblem, _feasible_batches, _prepare

FINDER_BUDGET = 20


def _shells(length: float, c: float, what: str) -> int:
    """floor(length / c); DomainError when the quotient overflows to inf."""
    quotient = length / c
    if not math.isfinite(quotient):
        raise DomainError(f"{what} {length} over shell width {c} overflows")
    return int(math.floor(quotient))


def shell_color(point, c: float) -> int:
    """Index of the width-c shell containing the point: floor(|x| / c)."""
    _check_positive(c, "shell width")
    return _shells(float(np.linalg.norm(np.asarray(point, dtype=float))), c, "norm")


def num_colors(r: float, c: float) -> int:
    """Colours needed for the radius-r ball under width-c shells: floor(r/c) + 1."""
    _check_positive(r, "radius")
    _check_positive(c, "shell width")
    return _shells(r, c, "radius") + 1


@dataclass(frozen=True)
class ShellColoring:
    """A shell colouring of B(0, radius) with shells of width shell_width."""

    shell_width: float
    radius: float
    num_colors: int = 0

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
    """Apply the shell colouring pointwise.

    Raises DomainError when a colour floor(|x| / c) does not fit in a
    64-bit integer, instead of letting the cast wrap it.
    """
    _check_positive(c, "shell width")
    shells = np.floor(np.linalg.norm(config.points, axis=1) / c)
    if not np.all(shells < 2.0 ** 63):
        raise DomainError(
            f"shell index {shells.max()} at shell width {c} exceeds the 64-bit range")
    colors = tuple(int(v) for v in shells.astype(np.int64))
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

    def to_dict(self) -> dict:
        return {
            "radius": self.radius,
            "shell_width": self.shell_width,
            "num_colors": self.num_colors,
            "n_samples": self.n_samples,
            "seed": self.seed,
            "monochromatic_count": self.monochromatic_count,
            "min_spread": self.min_spread,
            "min_color_span": self.min_color_span,
            "vacuous": self.vacuous,
        }


def falsify_coloring(target: Configuration, r: float, c: float,
                     n_samples: int, seed: int = 0) -> FalsifyReport:
    """Sample congruent copies of the target in B(0, r); count monochromatic ones.

    Uses the same feasible-copy sampler as the spread oracle, so reports are
    reproducible from the seed.  n_samples = 0 yields a vacuous report.

    A shrunk copy's farthest point lies on |x| = r.  When r/c is an integer
    that sphere is a shell boundary, so whether the point shares a shell
    with the rest of the copy comes down to the last bit of its norm.
    """
    k = num_colors(r, c)
    centered = _prepare(SpreadProblem(target=target, radius=r))
    if n_samples <= 0:
        return FalsifyReport(radius=r, shell_width=c, num_colors=k,
                             n_samples=0, seed=seed, monochromatic_count=0,
                             min_spread=None, min_color_span=None, vacuous=True)
    mono = 0
    min_spread = math.inf
    min_span = math.inf
    for top, bottom in _feasible_batches(centered, r, n_samples, seed):
        # floor(|x| / c) is monotone in |x|, so a copy's extreme shells are
        # those of its extreme norms
        spans = np.floor(top / c) - np.floor(bottom / c)
        mono += int(np.count_nonzero(spans == 0.0))
        min_spread = min(min_spread, float((top - bottom).min()))
        min_span = min(min_span, int(spans.min()))
    return FalsifyReport(radius=r, shell_width=c, num_colors=k,
                         n_samples=n_samples, seed=seed,
                         monochromatic_count=mono, min_spread=min_spread,
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
