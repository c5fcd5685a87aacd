"""Every module-level function and class in `src/odrs_lab` has a caller: its
name is read, as a `Name` or an `Attribute`, somewhere in `src/odrs_lab` or
`perfbench` outside its own definition. A function registered as a CLI
command (decorated with `<group>.command(...)`) counts as called. The only
exceptions are the exact checks in TEST_ONLY, which only the tests run.

Names are matched without their module, so a reference to a same-named
function elsewhere hides dead code; the check never flags code in use."""

import ast
import collections
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "odrs_lab"

# exact checks of the paper's guarantees that only the tests call
TEST_ONLY = {
    "bench.three_node_impossibility",
    "exact_engine.free_mask_distribution",
    "exact_engine.find_positive_cylinder",
    "exact_engine.neg_cylinder_check",
    "level_set.exact_dist_online",
    "level_set.exact_dist_offline",
    "level_set.threshold_exact_dist",
    "level_set.offline_pivotal",
    "level_set.online_round_batch",
}


def _reads(tree: ast.AST) -> collections.Counter:
    """How often each name is read, as a Name or an Attribute."""
    names = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
    return names


def _is_command(node: ast.AST) -> bool:
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr == "command" for d in node.decorator_list)


def uncalled(modules: dict[str, str], users: list[str]) -> list[str]:
    """`module.name` of every module-level def or class in `modules` (name
    -> source) that nothing in `modules` or `users` (more sources) reads
    outside the definition itself."""
    trees = {name: ast.parse(src) for name, src in modules.items()}
    reads = sum((_reads(t) for t in trees.values()), collections.Counter())
    for src in users:
        reads += _reads(ast.parse(src))
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if _is_command(node):
                continue
            if reads[node.name] - _reads(node)[node.name] <= 0:
                found.append(f"{module}.{node.name}")
    return sorted(found)


def test_every_definition_has_a_caller():
    modules = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    users = [p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))]
    found = uncalled(modules, users)
    assert [name for name in found if name not in TEST_ONLY] == []
    # an exact check that gains a caller leaves the list
    assert sorted(TEST_ONLY) == [name for name in found if name in TEST_ONLY]


def test_uncalled_checker_self_test():
    lib = (
        "import click\n"
        "@click.group()\n"
        "def cli(): pass\n"
        "@cli.command('run')\n"
        "def run_cmd(): helper()\n"
        "def helper(): return Shape()\n"
        "class Shape: pass\n"
        "def recurse(n): return recurse(n - 1)\n"
        "def dead(): return helper()\n"
        "def used_elsewhere(): pass\n"
    )
    user = "import lib\nlib.cli.main()\nlib.used_elsewhere()\n"
    assert uncalled({"lib": lib}, [user]) == ["lib.dead", "lib.recurse"]
