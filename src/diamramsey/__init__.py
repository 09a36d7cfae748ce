"""Geometric toolkit for circumradius obstructions to diameter-Ramsey sets.

Primitives for finite point sets (diameter, congruence, enclosing balls,
circumspheres), the circumradius obstruction verdict, numerical estimation
of the minimal spread of congruent copies inside a ball, shell colourings
with falsification harnesses, and the explicit simplex and triangle
constructions that witness the obstruction.

`import diamramsey` is cheap: it imports no numpy and runs no module.  Each
library module is in `sys.modules` from the start, as a placeholder whose
code runs the first time one of its attributes is read, written or deleted,
and each public name below is read from its module when asked for.  So a
command-line call runs only the modules its subcommand uses.
"""

import importlib.util
import sys
import threading
import types

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

# Public name -> the module that defines it.
_EXPORTS = {name: module for module, names in {
    "coloring": ("ColoredConfiguration", "FalsifyReport", "ShellColoring",
                 "color_configuration", "falsify_coloring", "find_monochromatic_copy",
                 "num_colors", "shell_color"),
    "constructions": ("almost_regular_measure", "almost_regular_simplex", "obtuse_triangle",
                      "regular_simplex"),
    "errors": ("BudgetExceeded", "Degenerate", "DomainError", "EmptySample", "GeometryError",
               "Infeasible", "NonConvergence", "NotSimplex", "NotSpherical"),
    "geometry": ("Configuration", "RigidMotion", "affine_dimension", "diameter",
                 "distance_matrix", "is_congruent"),
    "obstruction": ("ConjectureLabel", "Status", "Verdict", "classify_triangle",
                    "conjecture_classification", "obstruction_verdict",
                    "triangle_circumradius"),
    "spheres": ("Ball", "Sphere", "circumcenter_in_hull", "circumradius", "circumsphere",
                "is_spherical", "jung_bound", "min_enclosing_ball"),
    "spread": ("SpreadEstimate", "SpreadProblem", "embedding_feasible", "estimate_c",
               "sample_spread_oracle"),
}.items() for name in names}

# One lock for every module's first run, re-entered when a running module
# uses another (or reads its own namespace, as dataclasses does); _running
# holds the modules the lock's owner is running, so a re-entry reads them
# as they stand.
_lock = threading.RLock()
_running: set = set()


class _Placeholder(types.ModuleType):
    """A module that runs its code on the first use of one of its attributes.

    Once the code has run the object becomes a plain module, so later reads
    cost nothing extra.  If the code raises, the module stays a placeholder:
    the next use runs it again, over what the failed run left, as
    `importlib.reload` would.
    """

    def __getattribute__(self, name):
        _run(self)
        return types.ModuleType.__getattribute__(self, name)

    def __setattr__(self, name, value):
        _run(self)
        types.ModuleType.__setattr__(self, name, value)

    def __delattr__(self, name):
        _run(self)
        types.ModuleType.__delattr__(self, name)


def _run(module) -> None:
    with _lock:
        if type(module) is not _Placeholder or module in _running:
            return
        spec = types.ModuleType.__getattribute__(module, "__spec__")
        _running.add(module)
        try:
            spec.loader.exec_module(module)
        finally:
            _running.discard(module)
        object.__setattr__(module, "__class__", types.ModuleType)


def _placeholder(name: str) -> types.ModuleType:
    module = importlib.util.module_from_spec(importlib.util.find_spec(name))
    module.__class__ = _Placeholder
    return module


# cli is left out: `python -m diamramsey.cli` runs it as __main__, and runpy
# warns when the module it runs is already in sys.modules.
for _name in ("errors", "geometry", "spheres", "spread", "coloring", "constructions",
              "obstruction", "formats"):
    _full = f"{__name__}.{_name}"
    if _full not in sys.modules:
        sys.modules[_full] = _placeholder(_full)
    globals()[_name] = sys.modules[_full]
del _name, _full


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_EXPORTS[name]], name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
