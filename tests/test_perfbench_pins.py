"""The names the benchmark's tracer wraps by import path still resolve in the
package, so a refactor that renames or moves one shows up here instead of as
a failed traced pass of `perfbench/run.py`."""

import ast
import importlib
import importlib.util
import pathlib

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def expected_spans() -> dict:
    """`EXPECTED_SPANS` of `perfbench/run.py`, read without running it."""
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "EXPECTED_SPANS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no EXPECTED_SPANS")


def test_traced_names_resolve():
    tracing = load_tracing()
    missing = []
    for name, module, path in tracing.SPANS:
        owner = importlib.import_module(f"odrs_lab.{module}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        # the tracer replaces the attribute in the owner's own namespace
        if not callable(vars(owner).get(attr) if owner is not None else None):
            missing.append(f"{name}: odrs_lab.{module}.{path}")
    for module, attr in tracing.REQUIRED_BINDINGS:
        if not callable(getattr(importlib.import_module(f"odrs_lab.{module}"), attr, None)):
            missing.append(f"binding odrs_lab.{module}.{attr}")
    assert not missing, missing


def test_expected_spans_are_traced():
    spans = {name for name, _, _ in load_tracing().SPANS}
    expected = expected_spans()
    assert expected
    missing = sorted({name for names in expected.values() for name in names} - spans)
    assert not missing, missing
