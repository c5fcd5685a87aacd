import json
import math
import tracemalloc

import numpy as np
import pytest

from conftest import digest
from odrs_lab import apps, instances, odrs
from odrs_lab.errors import SizeError
from odrs_lab.instances import Arrival, CoverInstance, MatchingInstance, MultigraphInstance
from odrs_lab.level_set import _snap, online_step
from odrs_lab.rng import ScalarRng


def test_single_pair_full_multiplicity():
    # kappa(e) = delta on a single pair: x = 1, always matched; every copy
    # colored, one color per copy
    mg = MultigraphInstance(1, 1, 4, (((0, 4),),))
    col = apps.edge_color_online(mg, C=4, seed=0)
    rep = apps.verify_coloring(mg, col)
    assert rep.proper and rep.all_colored
    assert rep.colors_used >= 4


def test_declared_delta_is_capped():
    # the cap itself colors (about 0.1 s on one pair); one above it is refused
    mg = MultigraphInstance(1, 1, apps.COLOR_MAX_DELTA, (((0, 3),),))
    rep = apps.verify_coloring(mg, apps.edge_color_online(mg))
    assert rep.proper and rep.all_colored
    with pytest.raises(SizeError, match=f"cap {apps.COLOR_MAX_DELTA}$"):
        apps.edge_color_online(MultigraphInstance(1, 1, apps.COLOR_MAX_DELTA + 1, (((0, 3),),)))


def test_matching_multigraph_one_color_from_greedy():
    # delta = 1 multigraph is a matching
    mg = MultigraphInstance(3, 3, 1, (((0, 1),), ((1, 1),), ((2, 1),)))
    col = apps.edge_color_online(mg, C=1, seed=0)
    rep = apps.verify_coloring(mg, col)
    assert rep.proper and rep.all_colored


# sha256 of the sorted colors items, one per seed below
RANDOM_COLORING_SHA256 = [
    "c7f3448384a51a91cdcee303b19df712e9d93ea35303ac52b48642578277cb0e",
    "aa35a365a9ecce8b1ac9923475ba0e5031ea5eaa4504831a98cb28ab5c883a91",
    "113dc23a257e39ab6f9e44aa571c8e2fc65c21bf7bc97f1a9b0965355d3306ba",
    "b9918b572e24e6cf8bd6a24e80137627ba1cd9ada9fd23b3bc8813edf4546884",
    "a4e3e5e776f15971ee4f30fc594a4b1b5650f7055b31373ce151c5430ef00a08",
]


def test_coloring_proper_on_random_multigraphs():
    for seed in range(5):
        mg = instances.gen_random_multigraph(10, 10, 16, seed=seed)
        col = apps.edge_color_online(mg, C=8, seed=seed)
        assert digest(sorted(col.colors.items())) == RANDOM_COLORING_SHA256[seed]
        rep = apps.verify_coloring(mg, col)
        assert rep.proper and rep.all_colored, rep.violations[:3]
        assert rep.colors_used <= 2 * mg.delta - 1  # greedy-style hard ceiling


def test_coloring_at_benchmark_scale_is_pinned(monkeypatch):
    # Delta = 256 with C = 32 (408 matchers): rounds after the first have
    # bound 54.4, so matcher rows fill after a few right nodes and the
    # candidate scan stops early; the colors, the level-set steps and the
    # scalar draws are those of the scan that clips every candidate
    steps = draws = 0
    step = odrs.online_step

    def counting_step(*args):
        nonlocal steps
        steps += 1
        return step(*args)

    class CountingRng(ScalarRng):
        def __init__(self, seed):
            super().__init__(seed)
            uniform = self.uniform

            def counting_uniform():
                nonlocal draws
                draws += 1
                return uniform()
            self.uniform = counting_uniform

    monkeypatch.setattr(odrs, "online_step", counting_step)
    monkeypatch.setattr(apps, "ScalarRng", CountingRng)
    mg = instances.gen_random_multigraph(50, 50, 256, 0)
    col = apps.edge_color_online(mg, 32, seed=0)
    assert digest(sorted(col.colors.items())) == \
        "e95641e06abfb7c4a261603f4cc37b7b5bb58bbbf4995eb7e1da92336c4dcd9c"
    # the README's "157k level-set steps and 204k scalar draws"
    assert (steps, draws) == (157_415, 203_657)
    rep = apps.verify_coloring(mg, col)
    assert rep.proper and rep.all_colored and rep.colors_used == 408


def test_declared_node_counts_do_not_size_the_coloring_state(tmp_path):
    # one arrival listing right node 0: validation and coloring state follow
    # what the file lists, so declaring 10^5 nodes a side costs no memory
    def load_and_color(declared):
        path = tmp_path / f"mg{declared}.json"
        path.write_text(json.dumps({"multigraph": {
            "left": declared, "right": declared, "delta": 3,
            "arrivals": [{"edges": [{"j": 0, "kappa": 3}]}]}}))
        tracemalloc.start()
        try:
            coloring = apps.edge_color_online(instances.load_json(str(path)), seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return coloring.colors, peak

    small, _ = load_and_color(1)
    big, peak = load_and_color(100_000)
    assert big == small and len(big) == 3
    assert peak < 1 << 20, peak


def test_verify_coloring_detects_duplicates_and_gaps():
    mg = MultigraphInstance(1, 2, 2, (((0, 1), (1, 1)),))
    bad = apps.EdgeColoring({(0, 0, 0): 1, (0, 1, 0): 1})
    rep = apps.verify_coloring(mg, bad)
    assert not rep.proper
    partial = apps.EdgeColoring({(0, 0, 0): 0})
    rep2 = apps.verify_coloring(mg, partial)
    assert not rep2.all_colored
    # repeated left and right colors and a missing copy, reported in the
    # order the colors are listed, then the arrivals' edges
    mg3 = MultigraphInstance(2, 3, 3, (((0, 2), (1, 1), (2, 1)), ((0, 1), (1, 2))))
    bad3 = apps.EdgeColoring({(0, 0, 0): 0, (0, 0, 1): 0, (0, 1, 0): 1,
                              (1, 0, 0): 2, (1, 1, 0): 1, (1, 1, 1): 2})
    rep3 = apps.verify_coloring(mg3, bad3)
    assert rep3.violations == ["left 0 repeats color 0", "right 0 repeats color 0",
                               "right 1 repeats color 1", "left 1 repeats color 2",
                               "edge (0,2) colored 0/1 copies"]
    assert (rep3.proper, rep3.all_colored, rep3.colors_used) == (False, False, 3)


def test_fair_matching_marginal_lower_bound():
    # rounds of fair matchers plus the greedy finish color every copy properly
    mg = instances.gen_random_multigraph(6, 6, 8, seed=2)
    col = apps.edge_color_online(mg, C=4, seed=3)
    rep = apps.verify_coloring(mg, col)
    assert rep.proper and rep.all_colored


def test_cover_alpha_values():
    cov1 = CoverInstance(1, 2, ((1.0, 1.0),), (((0, 1), 1),), ((0.5,), (0.5,)))
    assert apps.cover_alpha(cov1) == 2.0  # d=2, t=1
    cov2 = CoverInstance(1, 3, ((1.0, 1.0, 1.0),), (((0, 1, 2), 3),), ((1.0,), (1.0,), (1.0,)))
    assert apps.cover_alpha(cov2) == pytest.approx(5 / 3)  # d=3, t=3


def test_cover_rounding_always_covers():
    cov = instances.gen_random_cover(10, 10, d=3, t=2, k=3, seed=5)
    for seed in range(200):
        sol = apps.round_multistage_cover(cov, seed=seed)
        rep = apps.verify_cover(cov, sol)
        assert rep.covered, rep.violations


def test_cover_integral_xstar_scaled_coverage():
    cov = CoverInstance(2, 2, ((1.0, 1.0), (1.0, 1.0)),
                        (((0, 1), 2),),
                        ((1.0, 0.0), (0.0, 1.0)))
    sol = apps.round_multistage_cover(cov, seed=1)
    assert apps.verify_cover(cov, sol).covered


def test_cover_cost_ratio_near_alpha():
    cov = instances.gen_random_cover(10, 10, d=3, t=2, k=3, seed=6)
    rep = apps.cover_trials(cov, 30_000, seed=7)
    assert rep["violations"] == 0
    assert abs(rep["cost_ratio"] - rep["alpha"]) < 0.02 * rep["alpha"]


def reference_multistage_cover(cov, seed):
    """The per-stage loop `round_multistage_cover` replaced: one online step
    per stage, then a dummy tail step whose outcome is dropped."""
    alpha = apps.cover_alpha(cov)
    rng = ScalarRng(seed)
    y = np.zeros((cov.n_vars, cov.k), dtype=np.int64)
    for v in range(cov.n_vars):
        s, count, comp = 0.0, 0, 0.0
        for stage in range(cov.k):
            base, frac = apps._peel(alpha * cov.xstar[v][stage])
            sel, s, count, comp = online_step(s, count, comp, frac, rng.uniform())
            y[v, stage] = base + sel
        total = _snap(s)
        pad = math.ceil(total) - total
        if pad > 0:
            online_step(s, count, comp, pad, rng.uniform())
    cost = float(sum(cov.costs[stage][v] * y[v, stage]
                     for v in range(cov.n_vars) for stage in range(cov.k)))
    return y, cost


def test_multistage_cover_equals_the_stage_loop():
    for case in range(40):
        cov = instances.gen_random_cover(3 + case % 8, 6, d=3, t=1 + case % 3, k=1 + case % 4,
                                         seed=case)
        for seed in range(5):
            sol = apps.round_multistage_cover(cov, seed=seed)
            y, cost = reference_multistage_cover(cov, seed)
            assert sol.y.tolist() == y.tolist() and sol.cost == cost


def test_cover_trials_matches_single_runs():
    cov = instances.gen_random_cover(6, 6, d=3, t=2, k=3, seed=8)
    mc = apps.cover_trials(cov, 20_000, seed=9)
    costs = [apps.round_multistage_cover(cov, seed=s).cost for s in range(600)]
    z = abs(np.mean(costs) - mc["mean_cost"]) / (np.std(costs) / math.sqrt(len(costs)))
    assert z < 5


def fair_matching_instance(mg):
    """The fractional matching x_e = kappa(e)/Delta over a multigraph's simple
    edges, left nodes arriving."""
    return MatchingInstance(mg.n_right, (1,) * mg.n_right, tuple(
        Arrival(tuple((j, k / mg.delta) for j, k in arr if k > 0)) for arr in mg.arrivals))


def test_fair_matcher_exact_marginals(matching_params):
    mg = instances.gen_random_multigraph(4, 4, 6, seed=1)
    comp = odrs.compile_scheme("odrs", fair_matching_instance(mg), matching_params)
    probs = comp.edge_match_probs()
    for t, arr in enumerate(mg.arrivals):
        for j, kappa in arr:
            assert probs.get((j, t), 0.0) >= 0.652 * kappa / mg.delta - 1e-9
    seen_left = [t for _, t in comp.sample(3).pairs]
    assert len(seen_left) == len(set(seen_left))  # a matching


def test_fair_matcher_warmup_marginal_floor():
    # the warm-up fair matcher hits each simple edge with probability at
    # least (1 - 1/e) kappa/Delta, exactly, on the x = kappa/Delta matching
    mg = instances.gen_random_multigraph(5, 5, 8, seed=4)
    probs = odrs.compile_scheme("warmup", fair_matching_instance(mg), None).edge_match_probs()
    for t, arr in enumerate(mg.arrivals):
        for j, kappa in arr:
            assert probs.get((j, t), 0.0) >= (1 - 1 / math.e) * kappa / mg.delta - 1e-9


def test_cover_trials_needs_two_trials():
    from odrs_lab.errors import DomainError
    cov = instances.gen_random_cover(6, 6, d=3, t=2, k=3, seed=8)
    for n in (-5, 0, 1):
        with pytest.raises(DomainError):
            apps.cover_trials(cov, n, seed=1)
