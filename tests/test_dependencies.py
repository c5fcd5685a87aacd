"""The package needs nothing at run time beyond numpy and click: every import
in `src/odrs_lab` names the standard library, numpy, click or the package
itself."""

import ast
import pathlib
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "odrs_lab"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "click", "odrs_lab"}


def imported_packages(tree: ast.AST):
    """(line, top-level package) of every import; relative ones are odrs_lab."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            yield node.lineno, "odrs_lab" if node.level else node.module.split(".")[0]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_stay_within_runtime_dependencies(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    bad = [f"{path.name}:{line} imports {pkg}" for line, pkg in imported_packages(tree)
           if pkg not in ALLOWED]
    assert not bad, bad


def test_checker_flags_a_foreign_import():
    tree = ast.parse("import os\nfrom . import crs\nimport scipy.sparse\nfrom hypothesis import given\n")
    assert [pkg for _, pkg in imported_packages(tree) if pkg not in ALLOWED] == \
        ["scipy", "hypothesis"]
