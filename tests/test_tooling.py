import ast
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


def test_svd_only_in_geometry():
    # geometry is the one module that decomposes the affine hull: _hull_basis
    # for its basis, affine_dimension for its dimension alone
    offenders = []
    for module in sorted(PACKAGE.rglob("*.py")):
        if module.name == "geometry.py":
            continue
        for node in ast.walk(ast.parse(module.read_text(), str(module))):
            if isinstance(node, ast.Attribute) and node.attr == "svd":
                offenders.append(f"{module.name}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom):
                offenders += [f"{module.name}:{node.lineno}" for alias in node.names
                              if alias.name == "svd"]
    assert offenders == []


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
