"""Every backticked `module.name` or `module.name.attr` in README.md whose
module is one of odrs_lab's, and every such reference in its python code
blocks, resolves by getattr: the README cannot name a deleted function."""

import importlib
import pathlib
import pkgutil
import re

import odrs_lab

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
MODULES = {m.name for m in pkgutil.iter_modules(odrs_lab.__path__)}


def readme_references(text: str) -> list[str]:
    """`module.name` or `module.name.attr` strings of odrs_lab modules: in
    python code blocks, then in inline code spans."""
    code = re.findall(r"```python\n(.*?)```", text, flags=re.S)
    prose = re.sub(r"```.*?```", "", text, flags=re.S)
    refs = []
    for span in code + re.findall(r"`([^`]+)`", prose):
        for m in re.finditer(r"(?<![\w.])(\w+)(?:\.\w+){1,2}", span):
            if m.group(1) in MODULES:
                refs.append(m.group(0))
    return refs


def resolves(ref: str) -> bool:
    module, *path = ref.split(".")
    obj = importlib.import_module(f"odrs_lab.{module}")
    for attr in path:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_readme_references_resolve():
    refs = readme_references(README.read_text())
    assert "odrs.compile_scheme" in refs and "rng.CHUNK_RUNS" in refs  # the scan sees both kinds
    assert [ref for ref in refs if not resolves(ref)] == []


def test_a_deleted_name_is_caught():
    refs = readme_references("Use `odrs.no_such_scheme` or\n```python\nbitmask.MAX_BITS.nope\n```")
    assert [ref for ref in refs if not resolves(ref)] == ["bitmask.MAX_BITS.nope",
                                                          "odrs.no_such_scheme"]
