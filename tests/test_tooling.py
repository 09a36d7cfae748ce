import ast
import dataclasses
import importlib
import json
import re
import sys
from pathlib import Path

import pytest

import diamramsey

PACKAGE = Path(diamramsey.__file__).resolve().parent
PYPROJECT = PACKAGE.parents[1] / "pyproject.toml"


def test_package_imports_no_scipy():
    offenders = []
    for module in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(module.read_text(), str(module))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            offenders += [f"{module.name}:{node.lineno} {name}" for name in names
                          if name == "scipy" or name.startswith("scipy.")]
    assert offenders == []


def _uses_outside_geometry(name: str) -> list[str]:
    """Where a module other than geometry.py reads or imports `name`."""
    offenders = []
    for module in sorted(PACKAGE.rglob("*.py")):
        if module.name == "geometry.py":
            continue
        for node in ast.walk(ast.parse(module.read_text(), str(module))):
            if isinstance(node, ast.Attribute) and node.attr == name:
                offenders.append(f"{module.name}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom):
                offenders += [f"{module.name}:{node.lineno}" for alias in node.names
                              if alias.name == name]
    return offenders


def test_svd_only_in_geometry():
    # geometry is the one module that decomposes the affine hull: _hull_basis
    # for its basis, affine_dimension for its dimension alone
    assert _uses_outside_geometry("svd") == []


def test_frexp_only_in_geometry():
    # geometry._scaled is the one place that picks the power of two an
    # entry computes over
    assert _uses_outside_geometry("frexp") == []


def _owners(matches) -> list[str]:
    """module:function of every node in the package for which matches(node) holds."""
    found = []
    for module in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(module.read_text(), str(module))
        functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
        for node in ast.walk(tree):
            if matches(node):
                owners = [f.name for f in functions if f.lineno <= node.lineno <= f.end_lineno]
                found.append(f"{module.name}:{owners[-1] if owners else '<module>'}")
    return found


def test_one_pairwise_entry_formula():
    # geometry._row_sq_dists is the one place that squares and sums two
    # rows' differences: distance_matrix, diameter's recompute and the
    # double-normal walk all read their entries from it
    assert _owners(lambda node: isinstance(node, ast.Constant)
                   and node.value == "ijk,ijk->ij") == ["geometry.py:_row_sq_dists"]


def test_whole_pair_tensor_only_in_distance_matrix():
    # geometry.distance_matrix is the one place that reads the entries of
    # every pair: diameter reads them for its kept rows alone, so no branch
    # on a set's size recomputes the whole n*n*d tensor unnoticed
    def whole(node):
        return (isinstance(node, ast.Call)
                and getattr(node.func, "id", getattr(node.func, "attr", None)) == "_row_sq_dists"
                and any(isinstance(arg, ast.Call) and getattr(arg.func, "id", None) == "slice"
                        for arg in node.args))
    assert _owners(whole) == ["geometry.py:distance_matrix"]


def test_one_distinct_rows_rule():
    # spheres._distinct is the one place that finds repeated rows: the
    # enclosing ball's core and the spread frame's kept points both read
    # it, so no second rule (np.unique, a dict keyed by row bytes) grows
    assert _owners(lambda node: isinstance(node, ast.Attribute) and node.attr in {
        "lexsort", "unique", "tobytes"}) == ["spheres.py:_distinct"]


def _spread_offenders(allowed: dict) -> list[str]:
    """Where spread.py reads one of allowed's names outside the functions or
    classes that allowed gives it to, a name counting as a variable or an
    attribute."""
    names = set.union(*allowed.values())
    module = PACKAGE / "spread.py"
    offenders = []
    for statement in ast.parse(module.read_text(), str(module)).body:
        if isinstance(statement, (ast.Import, ast.ImportFrom)):
            continue
        owner = getattr(statement, "name", None)
        for node in ast.walk(statement):
            name = node.id if isinstance(node, ast.Name) else (
                node.attr if isinstance(node, ast.Attribute) else None)
            if name in names and name not in allowed.get(owner, ()):
                offenders.append(f"spread.py:{node.lineno} {owner} {name}")
    return offenders


def test_one_frame_builder_in_spread():
    # spread._target_frame is the one place the spread entries build a
    # target's hull basis, enclosing ball, diameter and distinct points, so
    # embedding_feasible, the solve and the samplers read the same ones
    assert _spread_offenders({"_target_frame": {"_hull_basis", "min_enclosing_ball", "_diameter",
                                                "_distinct"}}) == []


def test_one_solve_in_spread():
    # spread._solve is the one solve per radius: the pivot, its dual bound
    # and the closed forms (the frame's circle) are read nowhere else, and
    # _guess only there and where the frame keeps the first pass's guess,
    # so no second solve path grows beside it
    assert _spread_offenders({"_solve": {"_pivot", "_dual_bound", "_guess", "circle"},
                              "_target_frame": {"_guess", "circle"},
                              "Frame": {"circle"}}) == []


def test_linear_algebra_in_spread_only_off_the_warm_path():
    # A warm call's first pass (_solve, _active_set, the multipliers in
    # closed form) solves no linear system: np.linalg is read only where the
    # frame's guess is built and where the pivot takes a further step, so no
    # per-radius solve returns to the warm path unnoticed
    owners = {owner for owner in _owners(lambda node: isinstance(node, ast.Attribute)
                                         and node.attr == "linalg")
              if owner.startswith("spread.py:")}
    assert owners <= {"spread.py:_guess", "spread.py:_step", "spread.py:_refine",
                      "spread.py:_multipliers"}


def test_one_report_rule():
    # geometry._as_json is the one place a result record becomes JSON: no
    # function in the package is a hand-written to_dict, the records' public
    # to_dict is _as_json itself, and a record's JSON is its fields in order
    found = []
    for module in sorted(PACKAGE.rglob("*.py")):
        found += [f"{module.name}:{node.lineno}"
                  for node in ast.walk(ast.parse(module.read_text(), str(module)))
                  if isinstance(node, ast.FunctionDef) and node.name == "to_dict"]
    assert found == []
    from diamramsey.geometry import _as_json
    assert [diamramsey.SpreadEstimate.to_dict, diamramsey.FalsifyReport.to_dict,
            diamramsey.Verdict.to_dict] == [_as_json] * 3
    triangle = diamramsey.obtuse_triangle(150.0)
    simplex = diamramsey.almost_regular_simplex(3, 0.01)
    records = [diamramsey.estimate_c(diamramsey.SpreadProblem(triangle, 0.95)),
               diamramsey.estimate_c(diamramsey.SpreadProblem(triangle, 0.1)),  # no copy fits
               diamramsey.falsify_coloring(triangle, 0.95, 0.05, 100),
               diamramsey.falsify_coloring(triangle, 0.95, 0.05, 0),
               diamramsey.obstruction_verdict(simplex), diamramsey.classify_triangle(150.0),
               diamramsey.min_enclosing_ball(simplex), diamramsey.circumsphere(simplex)]
    for record in records:
        report = json.loads(json.dumps(_as_json(record)))
        assert list(report) == [field.name for field in dataclasses.fields(record)]
    assert list(records[0].to_dict()["best_motion"]) == ["rotation", "translation"]


def test_no_unused_imports():
    # a module-level import must be read somewhere in its module, or be
    # re-exported through __all__
    offenders = []
    for module in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(module.read_text(), str(module))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                used |= {elt.value for elt in node.value.elts}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                offenders += [
                    f"{module.name}:{node.lineno} {alias.name}" for alias in node.names
                    if (alias.asname or alias.name.split(".")[0]) not in used]
    assert offenders == []


def test_no_unread_constants():
    # a module-level NAME or _NAME constant must be read in its own module
    offenders = []
    for module in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(module.read_text(), str(module))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else (
                [node.target] if isinstance(node, ast.AnnAssign) else [])
            offenders += [f"{module.name}:{node.lineno} {t.id}" for t in targets
                          if isinstance(t, ast.Name) and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", t.id)
                          and t.id not in read]
    assert offenders == []


def test_package_attributes_are_its_modules():
    # a package name that shadows a module makes `import diamramsey.x as m`
    # bind the object, not the module
    names = sorted(module.stem for module in PACKAGE.glob("*.py")
                   if module.stem != "__init__")
    for name in names:
        importlib.import_module("diamramsey." + name)
    assert [name for name in names
            if getattr(diamramsey, name) is not sys.modules["diamramsey." + name]] == []


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib needs Python 3.11")
def test_numpy_is_the_only_runtime_dependency():
    import tomllib
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    names = [re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in project["dependencies"]]
    assert names == ["numpy"]


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib needs Python 3.11")
def test_runtime_warnings_fail_the_suite():
    # an overflow or a division by zero in a solver step is an error, not a line of output
    import tomllib
    options = tomllib.loads(PYPROJECT.read_text())["tool"]["pytest"]["ini_options"]
    assert "error::RuntimeWarning" in options["filterwarnings"]
