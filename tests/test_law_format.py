"""Only `crs` knows how a `SupportDistribution` stores its atoms: every other
module in `src/odrs_lab` builds laws through `SupportDistribution.summed` or
`product` and reads them through `columns()` and the other methods, never by
calling the constructor or reading `.atoms`."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "odrs_lab"


def format_uses(source: str) -> list[tuple[int, str]]:
    """(line, what) of every constructor call and every `.atoms` read."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "SupportDistribution":
                out.append((node.lineno, "calls SupportDistribution(...)"))
        elif isinstance(node, ast.Attribute) and node.attr == "atoms":
            out.append((node.lineno, "reads .atoms"))
    return sorted(out)


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "crs.py"),
                         ids=lambda p: p.name)
def test_only_crs_knows_the_atom_pairs(path):
    uses = format_uses(path.read_text())
    assert not uses, [f"{path.name}:{line} {what}" for line, what in uses]


def test_format_checker_self_test():
    source = (
        "from .crs import SupportDistribution\n"
        "from . import crs as crs_mod\n"
        "a = SupportDistribution((), ((0, 1.0),))\n"
        "b = crs_mod.SupportDistribution.summed((), [0], [1.0])\n"
        "c = crs_mod.SupportDistribution((), ())\n"
        "d = len(b.atoms)\n"
        "masks, probs = b.columns()\n"
    )
    assert format_uses(source) == [(3, "calls SupportDistribution(...)"),
                                   (5, "calls SupportDistribution(...)"), (6, "reads .atoms")]
