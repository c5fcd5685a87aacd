"""The input schemas and their one walker, `instances.checked`: documents
that loaded before the schemas load to the same instances, and every
single-node mutation of a valid document is either accepted or refused
(exit 2) in one stderr line, a refusal of the walker naming the JSON path
it mutated."""

import collections
import copy
import json
import re
import sys

import pytest

from odrs_lab import cli, instances
from odrs_lab.errors import ValidationFailure
from odrs_lab.instances import Arrival, CoverInstance, MatchingInstance, MultigraphInstance

GENERATED = {
    "star": instances.gen_uniform_star(4),
    "lb": instances.gen_lb_prefix(3),
    "random": instances.gen_random(5, 5, 0.7, 3, max_b=2),
    "stochastic": instances.gen_random(4, 4, 0.8, 1, stochastic=True),
    "multigraph": instances.gen_random_multigraph(4, 5, 3, 2),
    "cover": instances.gen_random_cover(5, 5, 3, 2, 3, 4),
}


@pytest.mark.parametrize("kind", GENERATED)
def test_generated_documents_load_to_their_instances(tmp_path, kind):
    path = tmp_path / "g.json"
    instances.save_json(GENERATED[kind], path)
    assert repr(instances.load_json(path)) == repr(GENERATED[kind])


# documents and the instances they load to, types included (the repr of 1
# is not that of 1.0)
LOADS = {
    "integral floats, null and mixed w, unknown keys": (
        {"n_offline": 2.0, "capacities": [2.0, 1], "note": "x", "arrivals": [
            {"p": 1, "tag": 3, "edges": [{"i": 1.0, "x": 1, "w": None, "id": 7},
                                         {"i": 0, "x": 0.25, "w": 2}]},
            {"edges": [{"i": 0, "x": 0.5, "w": None}]}]},
        MatchingInstance(2, (2, 1), (Arrival(((1, 1.0), (0, 0.25)), (1.0, 2.0), 1.0),
                                     Arrival(((0, 0.5),), None, 1.0)))),
    "a b split": (
        {"n_offline": 2, "capacities": [2, 2], "arrivals": [
            {"b": 2.0, "p": 0.5, "edges": [{"i": 0, "x": 0.8, "w": 3}]}]},
        MatchingInstance(2, (2, 2), (Arrival(((0, 0.4),), (3.0,), 0.5),) * 2)),
    "an integral multigraph": (
        {"multigraph": {"left": 2.0, "right": 3, "delta": 2.0, "extra": [], "arrivals": [
            {"edges": [{"j": 2.0, "kappa": 1}, {"j": 0, "kappa": 1.0}]}]}},
        MultigraphInstance(2, 3, 2, (((0, 1), (2, 1)),))),
    "an integral cover": (
        {"cover": {"k": 1.0, "stages": [{"costs": [1, 2.5], "name": "s"}],
                   "edges": [{"verts": [0.0, 1], "demand": 1.0}], "xstar": [[0.5], [1]]}},
        CoverInstance(1, 2, ((1.0, 2.5),), (((0, 1), 1),), ((0.5,), (1.0,)))),
}

# documents the load checks refuse, and their one line
LOAD_CHECKS = {
    "capacities of 2.0 and 2.5": (
        {"n_offline": 2, "capacities": [2.0, 2.5], "arrivals": [{"edges": [{"i": 0, "x": 0.5}]}]},
        "invalid instance: bad-capacity at offline 1 (magnitude 2.5)"),
    "non-finite numbers": (
        {"n_offline": 1, "capacities": [float("inf")], "arrivals": [
            {"p": float("nan"), "edges": [{"i": 0, "x": float("nan"), "w": float("inf")}]}]},
        "invalid instance: non-finite at capacity of offline 0 (magnitude inf); non-finite at "
        "arrival 0 p (magnitude nan); non-finite at arrival 0 offline 0 x (magnitude nan); "
        "non-finite at arrival 0 weight 0 (magnitude inf)"),
    "a bad b before the load checks": (
        {"n_offline": 1, "capacities": [1.5], "arrivals": [{"b": 2.5, "edges": []}]},
        "invalid instance: bad-b at arrival 0 (magnitude 2.5); bad-capacity at offline 0 "
        "(magnitude 1.5)"),
}


@pytest.mark.parametrize("name", LOADS)
def test_documents_load_to_equal_instances(tmp_path, name):
    doc, want = LOADS[name]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert repr(instances.load_json(path)) == repr(want)


@pytest.mark.parametrize("name", LOAD_CHECKS)
def test_load_check_reports_are_kept(tmp_path, name):
    doc, message = LOAD_CHECKS[name]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationFailure) as info:
        instances.load_json(path)
    assert str(info.value) == message


def test_the_walker_converts_and_cuts_down():
    schema = {"n": instances.INTEGER, "c": [instances.COUNT], "x?": instances.NUMBER,
              "w?": instances.NUMBER_OR_NULL, "s": [instances.SCALAR]}
    got = instances.checked({"n": 3.0, "c": [2, 2.5, float("inf")], "w": None,
                             "s": ["a", 1, 1.5, True, None], "extra": {}}, schema)
    assert got == {"n": 3, "c": [2, 2.5, float("inf")], "w": None,
                   "s": ["a", 1, 1.5, True, None]}
    assert type(got["n"]) is int
    assert instances.checked({"n": 1, "c": [], "x": 2, "s": []}, schema)["x"] == 2.0
    for value in (-instances.INT_BOUND, instances.INT_BOUND):
        assert instances.checked(value, instances.INTEGER) == value
    for doc, message in (
            ({"n": instances.INT_BOUND + 1, "c": [], "s": []},
             f"n must be an integer within ±(2**63 - 1), not {instances.INT_BOUND + 1}"),
            ({"n": 1, "c": [-1e19], "s": []},
             "c[0] must be a count within ±(2**63 - 1), not -1e+19"),
            ({"n": 1, "c": [], "x": 10**400, "s": []},
             "x must be a number within the float range, "
             "not 100000000000000000...0000000000000000000"),
            ({"n": 1, "c": [], "s": [[1]]}, "s[0] must be a scalar, not [1]"),
            ({"n": 1, "c": [], "w": "a", "s": []}, "w must be a number or null, not 'a'"),
            ({"n": 1, "s": []}, "c is missing"),
            ([], "the document must be an object, not []")):
        with pytest.raises(ValidationFailure) as info:
            instances.checked(doc, schema)
        assert str(info.value) == message
    with pytest.raises(ValidationFailure, match=r"^--dist atoms\[0\]\.set\[0\] must be a scalar"):
        instances.checked({"atoms": [{"set": [[1]]}]}, {"atoms": [{"set": [instances.SCALAR]}]},
                          "--dist")


@pytest.mark.parametrize("text", ["1" * 5000, "[" * 100_000 + "]" * 100_000])
@pytest.mark.parametrize("argv", [["validate"], ["report", "--infile"],
                                  ["crs", "--dist", "{dist}", "--v"]])
def test_too_long_a_number_or_too_deep_a_nest_is_refused(tmp_path, monkeypatch, capsys, text,
                                                         argv):
    path, dist = tmp_path / "doc.json", tmp_path / "dist.json"
    path.write_text(text)
    dist.write_text(json.dumps(DIST))
    monkeypatch.setattr(sys, "argv", ["odrs-lab", *(a.format(dist=dist) for a in argv), str(path)])
    assert cli.main() == 2
    err = capsys.readouterr().err
    assert err.endswith("holds too long a number or too deep a nest\n") and err.count("\n") == 1


# ----------------------------------------------------------------------------
# single-node mutations
# ----------------------------------------------------------------------------

VALUES = [[], {}, "a", None, True, 1.5, -1, {"k": 1}, [[0.5]], 10**30, 10**400, 1e19]

# each kind's valid document and the commands that run it once `validate`
# accepts it (the path is appended)
KINDS = {
    "random": (instances.gen_random(3, 3, 0.7, 0), [["round", "--exact", "--instance"]]),
    "multigraph": (instances.gen_random_multigraph(3, 3, 3, 0), [["color", "--instance"]]),
    "cover": (instances.gen_random_cover(4, 4, 3, 2, 3, 0),
              [["cover", "--instance"], ["cover", "--trials", "2", "--instance"]]),
}
DIST = {"elements": [0, 1], "atoms": [{"set": [0], "p": 0.5}, {"set": [1], "p": 0.5}]}
V = [0.5, 0.5]

# every accepted mutation, its path with indices as [k], and how many
ACCEPTED = {
    ("random", "arrivals", "[]"): 1,  # no arrivals
    ("random", "arrivals[k].edges", "[]"): 3,  # an arrival without edges
    ("multigraph", "multigraph.arrivals", "[]"): 1,  # no left node arrives
    ("multigraph", "multigraph.arrivals[k].edges", "[]"): 3,  # a left node without edges
    ("cover", "cover.edges", "[]"): 1,  # nothing to cover; `cover` refuses it (exit 2)
    ("cover", "cover.stages[k].costs[k]", "1.5"): 12,  # any finite nonnegative cost
    ("cover", "cover.stages[k].costs[k]", "1e+19"): 12,
    ("cover", "cover.stages[k].costs[k]", repr(10**30)): 12,
    ("cover", "cover.xstar[k][k]", "1.5"): 12,  # a larger x* stays feasible
    ("--dist", "--dist atoms[k].set", "[]"): 2,  # an atom on the empty set
    ("--v", "--v[k]", "1.5"): 2,  # any finite nonnegative target
    ("--v", "--v[k]", "1e+19"): 2,
    ("--v", "--v[k]", repr(10**30)): 2,
}


def nodes(doc, keys=()):
    """The key path of every node of `doc`, the root's () first."""
    yield keys
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, child in items:
        yield from nodes(child, (*keys, key))


def mutated(doc, keys, value):
    if not keys:
        return value
    doc = copy.deepcopy(doc)
    node = doc
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    return doc


def json_path(root, keys):
    """The path a refusal names: dotted keys, [k] indices, and a space after
    an option's name."""
    path = root
    for key in keys:
        if isinstance(key, int):
            path += f"[{key}]"
        else:
            path += key if not path else f" {key}" if path == root else f".{key}"
    return path


def test_every_single_node_mutation_is_accepted_or_refused_by_path(tmp_path, monkeypatch,
                                                                      capsys):
    def run(*argv):
        monkeypatch.setattr(sys, "argv", ["odrs-lab", *map(str, argv)])
        code = cli.main()
        return code, capsys.readouterr().err

    m = tmp_path / "m.json"  # each mutated document in turn
    cases = []  # (kind, root path, keys, value, document, the checking argv, later argvs)
    for kind, (inst, commands) in KINDS.items():
        path = tmp_path / f"{kind}.json"
        instances.save_json(inst, path)
        doc = json.loads(path.read_text())
        for keys in nodes(doc):
            for value in VALUES:
                cases.append((kind, "", keys, value, mutated(doc, keys, value),
                              ["validate", m], [[*c, m] for c in commands]))
    dist, v = tmp_path / "dist.json", tmp_path / "v.json"
    dist.write_text(json.dumps(DIST))
    v.write_text(json.dumps(V))
    for root, doc in (("--dist", DIST), ("--v", V)):
        argv = ["crs", "--dist", m, "--v", v] if root == "--dist" else \
            ["crs", "--dist", dist, "--v", m]
        for keys in nodes(doc):
            for value in VALUES:
                cases.append((root, root, keys, value, mutated(doc, keys, value), argv, []))
    accepted = collections.Counter()
    for kind, root, keys, value, doc, check, later in cases:
        m.write_text(json.dumps(doc))
        where = json_path(root, keys)
        for k, argv in enumerate([check, *later]):
            code, err = run(*argv)
            assert code in (0, 2), (where, value, argv, err)
            if code == 0:
                if k == 0:
                    accepted[kind, re.sub(r"\[\d+\]", "[k]", where), repr(value)] += 1
                continue
            assert len(err.splitlines()) == 1, (where, value, argv, err)
            assert not re.search(r"\b[A-Z]\w*(Error|Exception)\b|Traceback", err), err
            named = re.match(r"validation failure: (.+?) (must be|is missing)", err)
            if named:  # the walker's refusal: the mutated node or one below it
                assert not where or named[1] == where or named[1].startswith(
                    tuple(where + sep for sep in ".[ ")), (where, err)
            break
    assert dict(accepted) == ACCEPTED
