"""Geometric toolkit for circumradius obstructions to diameter-Ramsey sets.

Primitives for finite point sets (diameter, congruence, enclosing balls,
circumspheres), the circumradius obstruction verdict, numerical estimation
of the minimal spread of congruent copies inside a ball, shell colourings
with falsification harnesses, and the explicit simplex and triangle
constructions that witness the obstruction.
"""

from .coloring import (
    ColoredConfiguration,
    FalsifyReport,
    ShellColoring,
    color_configuration,
    falsify_coloring,
    find_monochromatic_copy,
    num_colors,
    shell_color,
)
from .constructions import (
    almost_regular_measure,
    almost_regular_simplex,
    obtuse_triangle,
    regular_simplex,
)
from .errors import (
    BudgetExceeded,
    Degenerate,
    DomainError,
    EmptySample,
    GeometryError,
    Infeasible,
    NonConvergence,
    NotSimplex,
    NotSpherical,
)
from .geometry import (
    Configuration,
    RigidMotion,
    affine_dimension,
    diameter,
    distance_matrix,
    is_congruent,
)
from .obstruction import (
    ConjectureLabel,
    Status,
    Verdict,
    classify_triangle,
    conjecture_classification,
    obstruction_verdict,
    triangle_circumradius,
)
from .spheres import (
    Ball,
    Sphere,
    circumcenter_in_hull,
    circumradius,
    circumsphere,
    is_spherical,
    jung_bound,
    min_enclosing_ball,
)
from .spread import (
    SpreadEstimate,
    SpreadProblem,
    embedding_feasible,
    estimate_c,
    sample_spread_oracle,
)

__version__ = "0.1.0"

__all__ = [
    "Ball",
    "BudgetExceeded",
    "ColoredConfiguration",
    "Configuration",
    "ConjectureLabel",
    "Degenerate",
    "DomainError",
    "EmptySample",
    "FalsifyReport",
    "GeometryError",
    "Infeasible",
    "NonConvergence",
    "NotSimplex",
    "NotSpherical",
    "RigidMotion",
    "ShellColoring",
    "Sphere",
    "SpreadEstimate",
    "SpreadProblem",
    "Status",
    "Verdict",
    "affine_dimension",
    "almost_regular_measure",
    "almost_regular_simplex",
    "circumcenter_in_hull",
    "circumradius",
    "circumsphere",
    "classify_triangle",
    "color_configuration",
    "conjecture_classification",
    "diameter",
    "distance_matrix",
    "embedding_feasible",
    "estimate_c",
    "falsify_coloring",
    "find_monochromatic_copy",
    "is_congruent",
    "is_spherical",
    "jung_bound",
    "min_enclosing_ball",
    "num_colors",
    "obstruction_verdict",
    "obtuse_triangle",
    "regular_simplex",
    "sample_spread_oracle",
    "shell_color",
    "triangle_circumradius",
    "__version__",
]
