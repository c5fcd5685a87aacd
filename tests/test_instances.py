import json

import numpy as np
import pytest

from odrs_lab import instances
from odrs_lab.errors import DomainError, ValidationFailure
from odrs_lab.instances import Arrival, MatchingInstance, MultigraphInstance


def test_validate_offline_degree_violation():
    inst = MatchingInstance(1, (1,), (Arrival(((0, 0.6),)), Arrival(((0, 0.6),))))
    rep = instances.validate(inst)
    assert not rep.valid
    assert any(v.kind == "offline-degree" and "offline node 0" in v.where
               for v in rep.violations)
    assert any(abs(v.magnitude - 0.2) < 1e-12 for v in rep.violations)


def test_validate_clean_instance_empty_report():
    inst = MatchingInstance(2, (1, 1), (
        Arrival(((0, 0.5), (1, 0.5))), Arrival(((0, 0.3), (1, 0.2)))))
    assert instances.validate(inst).valid


def test_validate_duplicate_offline_id():
    inst = MatchingInstance(2, (1, 1), (Arrival(((0, 0.2), (0, 0.3))),))
    rep = instances.validate(inst)
    assert any(v.kind == "duplicate-offline" for v in rep.violations)


def test_validate_arrival_sum_and_range():
    inst = MatchingInstance(2, (1, 1), (Arrival(((0, 0.8), (1, 0.7))),))
    assert any(v.kind == "arrival-sum" for v in instances.validate(inst).violations)
    inst2 = MatchingInstance(1, (1,), (Arrival(((0, 1.5),)),))
    kinds = {v.kind for v in instances.validate(inst2).violations}
    assert "fraction-range" in kinds


def test_uniform_star():
    one = instances.gen_uniform_star(1)
    assert one.arrivals[0].edges == ((0, 1.0),)
    ten = instances.gen_uniform_star(10)
    assert len(ten.arrivals[0].edges) == 10
    assert all(abs(x - 0.1) < 1e-15 for _, x in ten.arrivals[0].edges)
    four = instances.gen_uniform_star(4)
    assert abs(sum(x for _, x in four.arrivals[0].edges) - 1.0) < 1e-12
    with pytest.raises(DomainError):
        instances.gen_uniform_star(0)


def test_lb_prefix_structure():
    inst = instances.gen_lb_prefix(2)
    assert inst.n_offline == 4
    assert inst.arrivals[0].edges == ((0, 0.5), (1, 0.5))
    assert inst.arrivals[1].edges == ((2, 0.5), (3, 0.5))
    inst3 = instances.gen_lb_prefix(3)
    assert inst3.n_offline == 6 and inst3.n_arrivals == 3
    for n in (2, 5, 9):
        inst = instances.gen_lb_prefix(n)
        assert inst.n_offline == 2 * n and inst.n_arrivals == n
        assert all(x == 0.5 for _, _, x in inst.edge_list())
        assert instances.validate(inst).valid


def test_gen_random_validates_and_deterministic(tmp_path):
    inst = instances.gen_random(5, 5, 1.0, seed=7)
    assert instances.validate(inst).valid
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    instances.save_json(instances.gen_random(5, 5, 1.0, seed=7), p1)
    instances.save_json(instances.gen_random(5, 5, 1.0, seed=7), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_generators_always_validate():
    for seed in range(25):
        inst = instances.gen_random(4 + seed % 5, 3 + seed % 6,
                                    0.3 + 0.1 * (seed % 7), seed,
                                    max_b=1 + seed % 3)
        rep = instances.validate(inst)
        assert rep.valid, rep.violations


def test_json_roundtrip_bit_exact(tmp_path):
    for seed in range(100):
        inst = instances.gen_random(4, 4, 0.8, seed=seed,
                                    stochastic=bool(seed % 2))
        path = tmp_path / f"r{seed}.json"
        instances.save_json(inst, path)
        back = instances.load_json(path)
        assert back == inst


def test_load_splits_capacity_b_online_nodes(tmp_path):
    doc = {"n_offline": 2, "capacities": [2, 2],
           "arrivals": [{"b": 2, "edges": [{"i": 0, "x": 0.8}, {"i": 1, "x": 0.6}]}]}
    path = tmp_path / "b.json"
    path.write_text(json.dumps(doc))
    inst = instances.load_json(path)
    assert inst.n_arrivals == 2
    for arr in inst.arrivals:
        assert arr.edges == ((0, 0.4), (1, 0.3))


def test_malformed_json_reports_location(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n_offline": 2,\n "capacities": [1, }')
    with pytest.raises(ValidationFailure, match="line"):
        instances.load_json(path)
    path2 = tmp_path / "bad2.json"
    path2.write_text('{"n_offline": 2}')
    with pytest.raises(ValidationFailure):
        instances.load_json(path2)


def test_multigraph_and_cover_roundtrip(tmp_path):
    mg = instances.gen_random_multigraph(5, 6, 8, seed=3)
    for arr in mg.arrivals:
        assert sum(k for _, k in arr) <= mg.delta
    path = tmp_path / "mg.json"
    instances.save_json(mg, path)
    assert instances.load_json(path) == mg

    cov = instances.gen_random_cover(8, 6, d=3, t=2, k=3, seed=4)
    for verts, demand in cov.edges:
        total = sum(cov.xstar[v][l] for v in verts for l in range(cov.k))
        assert total >= demand - 1e-9
    path2 = tmp_path / "cov.json"
    instances.save_json(cov, path2)
    assert instances.load_json(path2) == cov


def test_validate_reports_non_finite():
    nan = float("nan")
    inst = MatchingInstance(2, (1, 1), (
        Arrival(((0, nan), (1, 0.2)), (1.0, float("inf"))), Arrival(((1, 0.3),), None, nan)))
    rep = instances.validate(inst)
    where = {v.where for v in rep.violations if v.kind == "non-finite"}
    assert where == {"arrival 0 offline 0 x", "arrival 0 weight 1", "arrival 1 p"}
    with pytest.raises(ValidationFailure, match="non-finite"):
        instances.instance_from_dict(instances.instance_to_dict(inst))


def test_validate_multigraph():
    good = instances.gen_random_multigraph(5, 6, 8, seed=3)
    assert instances.validate_multigraph(good).valid
    bad = MultigraphInstance(2, 2, 2, (((0, 2), (1, -1)), ((0, 1), (3, 1))))
    kinds = {v.kind for v in instances.validate_multigraph(bad).violations}
    assert kinds == {"negative-multiplicity", "edge-endpoint", "right-degree"}
    # the generator refuses node counts its own validation would reject
    for n_left, n_right in ((-1, 5), (5, -1)):
        with pytest.raises(DomainError, match="n_left, n_right >= 0"):
            instances.gen_random_multigraph(n_left, n_right, 16, 0)


def test_validate_multigraph_refuses_repeated_right_ids_and_negative_counts():
    """A left node listing one right id twice would have its parallel edges
    colored as if they were one edge's copies."""
    twice = MultigraphInstance(1, 1, 3, (((0, 1), (0, 1)),))
    assert [(v.kind, v.where) for v in instances.validate_multigraph(twice).violations] == [
        ("duplicate-right", "left 0 right 0")]
    negative = MultigraphInstance(0, -3, 2, ())
    assert [(v.kind, v.where) for v in instances.validate_multigraph(negative).violations] == [
        ("negative-count", "right")]


def test_validate_reports_a_node_count_before_sizing_by_it():
    for n in (-1, 10 ** 12, 3):
        inst = MatchingInstance(n, (1, 1), (Arrival(((0, 0.5),)),))
        rep = instances.validate(inst)
        assert [v.kind for v in rep.violations] == ["capacity-count"]
        assert rep.violations[0].magnitude == abs(n - 2)


@pytest.mark.parametrize("text", ["5", "null", "[]", '"cover"', "true"])
def test_load_refuses_a_document_that_is_not_an_object(tmp_path, text):
    path = tmp_path / "doc.json"
    path.write_text(text)
    with pytest.raises(ValidationFailure, match="an instance is a JSON object, not "):
        instances.load_json(path)


def test_non_integral_capacity_rejected_at_load():
    doc = {"n_offline": 2, "capacities": [2.0, 2.5], "arrivals": [{"edges": [{"i": 0, "x": 0.5}]}]}
    with pytest.raises(ValidationFailure, match="bad-capacity at offline 1"):
        instances.instance_from_dict(doc)
    doc["capacities"] = [2.0, 3]
    assert instances.instance_from_dict(doc).capacities == (2, 3)
    rep = instances.validate(MatchingInstance(1, (2.5,), (Arrival(((0, 0.5),)),)))
    assert [v.kind for v in rep.violations] == ["bad-capacity"]


def test_integer_fields_must_be_integral():
    def matching(n=2, cap=1, i=1):
        return {"n_offline": n, "capacities": [1, cap], "arrivals": [{"edges": [{"i": i, "x": 0.5}]}]}

    def multigraph(left=1, delta=2, j=0, kappa=1):
        return {"multigraph": {"left": left, "right": 1, "delta": delta,
                               "arrivals": [{"edges": [{"j": j, "kappa": kappa}]}]}}

    good = instances.instance_from_dict(matching(n=2.0, cap=1.0, i=1.0))
    assert good == instances.instance_from_dict(matching())
    assert type(good.n_offline) is type(good.capacities[1]) is type(good.arrivals[0].edges[0][0]) is int
    assert instances.multigraph_from_dict(multigraph(1.0, 2.0, 0.0, 1.0)) == \
        instances.multigraph_from_dict(multigraph())
    assert instances.cover_from_dict(_cover_doc(k=2.0)) == instances.cover_from_dict(_cover_doc())
    bad = [(instances.instance_from_dict, matching(n=2.9), '"n_offline" must be an integer, not 2.9'),
           (instances.instance_from_dict, matching(i=1.7), '"i" of arrival 0 edge 0 .* not 1.7'),
           (instances.instance_from_dict, matching(i=-0.5), '"i" of arrival 0 edge 0'),
           (instances.instance_from_dict, matching(i="1"), '"i" of arrival 0 edge 0'),
           (instances.instance_from_dict, matching(i=True), '"i" of arrival 0 edge 0'),
           (instances.instance_from_dict, matching(n=None), '"n_offline"'),
           (instances.instance_from_dict, matching(cap="1"), "capacity of offline 1 .* not '1'"),
           (instances.instance_from_dict, matching(cap=False), "capacity of offline 1"),
           (instances.multigraph_from_dict, multigraph(left=1.5), '"left"'),
           (instances.multigraph_from_dict, multigraph(delta="2"), '"delta"'),
           (instances.multigraph_from_dict, multigraph(j=0.5), '"j" of left 0 edge 0'),
           (instances.multigraph_from_dict, multigraph(kappa=1.5), '"kappa" of left 0 edge 0'),
           (instances.cover_from_dict, _cover_doc(k=2.5), '"k"'),
           (instances.cover_from_dict, _cover_doc(edges=[{"verts": [0, 1.2], "demand": 1}]),
            '"verts" of edge 0'),
           (instances.cover_from_dict, _cover_doc(edges=[{"verts": [0, 1], "demand": 1.5}]),
            '"demand" of edge 0')]
    for load, doc, message in bad:
        with pytest.raises(ValidationFailure, match=message):
            load(doc)


def test_real_fields_must_be_numbers():
    def matching(p=1.0, x=0.5, w=2.0):
        return {"n_offline": 2, "capacities": [1, 1],
                "arrivals": [{"p": p, "edges": [{"i": 1, "x": x, "w": w}]}]}

    good = instances.instance_from_dict(matching(p=1, x=0.5, w=2))
    assert good == instances.instance_from_dict(matching())
    assert type(good.arrivals[0].p) is type(good.arrivals[0].weights[0]) is float
    unweighted = instances.instance_from_dict(matching(w=None))
    assert unweighted.arrivals[0].weights is None
    assert instances.cover_from_dict(_cover_doc(stages=[{"costs": [1, 2, 1.5]},
                                                        {"costs": [0.5, 1, 1]}])) == \
        instances.cover_from_dict(_cover_doc())
    bad = [(instances.instance_from_dict, matching(x="0.5"), '"x" of arrival 0 edge 0 must be a number'),
           (instances.instance_from_dict, matching(x=True), '"x" of arrival 0 edge 0 .* not True'),
           (instances.instance_from_dict, matching(x=None), '"x" of arrival 0 edge 0 .* not None'),
           (instances.instance_from_dict, matching(p=True), '"p" of arrival 0 must be a number'),
           (instances.instance_from_dict, matching(p="1"), '"p" of arrival 0'),
           (instances.instance_from_dict, matching(p=None), '"p" of arrival 0'),
           (instances.instance_from_dict, matching(w=False), '"w" of arrival 0 edge 0 .* not False'),
           (instances.instance_from_dict, matching(w="2"), '"w" of arrival 0 edge 0'),
           (instances.cover_from_dict, _cover_doc(stages=[{"costs": [1.0, "2", 1.5]},
                                                         {"costs": [0.5, 1.0, 1.0]}]),
            '"costs" of stage 0 must be a number'),
           (instances.cover_from_dict, _cover_doc(stages=[{"costs": [1.0, 2.0, 1.5]},
                                                         {"costs": [0.5, None, 1.0]}]),
            '"costs" of stage 1'),
           (instances.cover_from_dict, _cover_doc(xstar=[[0.5, 0.25], [0.25, True], [0.75, 0.5]]),
            '"xstar" of var 1 must be a number, not True')]
    for load, doc, message in bad:
        with pytest.raises(ValidationFailure, match=message):
            load(doc)


def test_bad_per_arrival_b_rejected_at_load():
    doc = {"n_offline": 1, "capacities": [1], "arrivals": [{"b": 2, "edges": [{"i": 0, "x": 0.5}]}]}
    assert instances.instance_from_dict(doc).arrivals == (Arrival(((0, 0.25),)),) * 2
    for b in (2.5, 0, -1, float("inf"), instances.MAX_ARRIVAL_B + 1, 10 ** 9):
        doc["arrivals"][0]["b"] = b
        with pytest.raises(ValidationFailure, match="bad-b at arrival 0"):
            instances.instance_from_dict(doc)
    doc["arrivals"][0]["b"] = 3.0
    assert instances.instance_from_dict(doc).n_arrivals == 3
    doc["arrivals"][0]["b"] = instances.MAX_ARRIVAL_B
    assert instances.instance_from_dict(doc).n_arrivals == instances.MAX_ARRIVAL_B


def _cover_doc(**over):
    doc = {"k": 2, "stages": [{"costs": [1.0, 2.0, 1.5]}, {"costs": [0.5, 1.0, 1.0]}],
           "edges": [{"verts": [0, 1], "demand": 1}, {"verts": [1, 2], "demand": 2}],
           "xstar": [[0.5, 0.25], [0.25, 0.5], [0.75, 0.5]]}
    doc.update(over)
    return {"cover": doc}


def test_validate_cover():
    cov = instances.cover_from_dict(_cover_doc())
    assert instances.validate_cover(cov).valid
    assert instances.validate_cover(instances.gen_random_cover(8, 6, d=3, t=2, k=3, seed=4)).valid
    cases = {
        "edge-endpoint": _cover_doc(edges=[{"verts": [0, 3], "demand": 1}]),
        "xstar-shape": _cover_doc(xstar=[[0.5, 0.25], [0.25], [0.75, 0.5]]),
        "costs-shape": _cover_doc(stages=[{"costs": [1.0, 2.0, 1.5]}]),
        "bad-xstar": _cover_doc(xstar=[[0.5, float("nan")], [0.25, 0.5], [0.75, -0.5]]),
        "bad-cost": _cover_doc(stages=[{"costs": [1.0, float("inf"), 1.5]},
                                       {"costs": [0.5, -1.0, 1.0]}]),
        "bad-demand": _cover_doc(edges=[{"verts": [0, 1], "demand": 0}]),
        "infeasible-xstar": _cover_doc(edges=[{"verts": [0, 1], "demand": 2}]),
        "bad-k": _cover_doc(k=0, stages=[], xstar=[[], [], []]),
    }
    for kind, doc in cases.items():
        with pytest.raises(ValidationFailure, match=kind):
            instances.cover_from_dict(doc)


def test_cover_feasibility_tolerance():
    # x* that meets a demand only up to rounding is feasible
    doc = _cover_doc(edges=[{"verts": [0, 1], "demand": 2}],
                     xstar=[[0.5, 0.5], [0.5, 0.5 - 1e-12], [0.0, 0.0]])
    assert instances.cover_from_dict(doc).n_vars == 3
