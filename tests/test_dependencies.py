"""The package needs nothing at run time beyond numpy and click: every import
in `src/odrs_lab` names the standard library, numpy, click or the package
itself. And every name a module imports is used there, unless its line says
`# noqa: F401`. The interpreter's builtin `sum` adds floats left to right,
which the byte-for-byte reports assume, and `requires-python` admits just the
minor version that CI tests on."""

import ast
import pathlib
import re
import sys
import tomllib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "odrs_lab"
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


NOQA = re.compile(r"#\s*noqa(?P<codes>:[\s\w,]*)?", re.IGNORECASE)


def _keeps_unused(line: str) -> bool:
    """A bare `# noqa` or one that lists F401."""
    m = NOQA.search(line)
    return bool(m) and (m.group("codes") is None or "F401" in m.group("codes").upper())


def _annotation_names(tree: ast.AST):
    """Names inside quoted annotations, which the AST keeps as strings."""
    notes = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            notes.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            notes.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            notes.append(node.annotation)
    for note in filter(None, notes):
        for const in ast.walk(note):
            if isinstance(const, ast.Constant) and isinstance(const.value, str):
                for name in ast.walk(ast.parse(const.value, mode="eval")):
                    if isinstance(name, ast.Name):
                        yield name.id


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every imported name the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            line = getattr(alias, "lineno", node.lineno)
            if alias.name != "*" and not _keeps_unused(lines[line - 1]):
                imported[alias.asname or alias.name.split(".")[0]] = line
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(_annotation_names(tree))
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    unused = unused_imports(path.read_text())
    assert not unused, [f"{path.name}:{line} imports {name} unused" for line, name in unused]


def test_unused_import_checker_self_test():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json  # noqa: E402\n"
        "import math  # noqa: F401 -- looked up by name\n"
        "import re  # noqa\n"
        "from . import crs as crs_mod, odrs\n"
        "from .errors import (DomainError,\n"
        "                     SizeError)\n"
        "def f(rule: \"crs_mod.Rule\") -> None:\n"
        "    raise DomainError(os.path.sep)\n"
    )
    assert unused_imports(source) == [(3, "json"), (6, "odrs"), (8, "SizeError")]


def test_builtin_sum_adds_floats_left_to_right():
    # CPython 3.12 made sum() of floats compensated (Neumaier), which gives 1.0 here
    assert sum([1e16, 1.0, -1e16]) == 0.0, (
        "this interpreter's sum() of floats is compensated, not left to right, so "
        "reports built on it change in their last bits: `round --exact` (the bid-law "
        "outcomes' 1 - sum(sizes)), the `cover` costs and the stochastic report's "
        "exact_threshold_margin, and with them perfbench/golden/*.json and the "
        "suite's report digests; byte-for-byte reports are verified on CPython 3.11 only")


def workflow_python_versions(workflow: str) -> list[str]:
    """Every `python-version` a workflow file sets up."""
    return re.findall(r"python-version:\s*[\"']?([\d.]+)", workflow)


def test_requires_python_is_the_minor_version_ci_runs():
    # the goldens and the bit-for-bit tests hold on the one version CI runs
    declared = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["requires-python"]
    versions = workflow_python_versions((ROOT / ".github" / "workflows" / "tier1.yml").read_text())
    assert versions, "tier1.yml sets up no python-version"
    for version in versions:
        major, minor = map(int, version.split("."))
        assert declared == f">={major}.{minor},<{major}.{minor + 1}", (declared, version)


def test_workflow_python_version_reader_self_test():
    assert workflow_python_versions(
        'with:\n  python-version: "3.11"\n  python-version: 3.12\n') == ["3.11", "3.12"]
