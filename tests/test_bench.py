import json
import math
import warnings

import numpy as np
import pytest

from conftest import splitmix64
from odrs_lab import bench, instances, odrs
from odrs_lab import exact_engine as engine
from odrs_lab.errors import DomainError, SizeError
from odrs_lab.rng import _BLOCK, ScalarRng, generator, mix


def test_seed_mixing_distinct_streams():
    seen = {mix(12345, r) for r in range(1000)}
    assert len(seen) == 1000
    s0, out0 = splitmix64(0)
    s1, out1 = splitmix64(s0)
    assert out0 != out1


def test_seed_derivation_golden_values():
    # mix(s, r) = scramble(s ^ ((r + 1) * gamma mod 2^64)), as documented
    assert mix(5, 0) == 0x16b1cba95fc60262
    assert mix(7, 3) == 0x6d1db36ccba982d2
    assert ScalarRng(5).uniform() == 0.6763599147503829


def test_scalar_stream_is_one_splitmix_step_per_draw():
    # the draws span several blocks; a numpy overflow warning fails
    n_draws = 30_000
    assert n_draws > 5 * _BLOCK
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in (0, 5, 2**64 - 1):
            rng = ScalarRng(seed)
            state, want = mix(seed, 0), []
            for _ in range(n_draws):
                state, out = splitmix64(state)
                want.append((out >> 11) * 2**-53)
            assert [rng.uniform() for _ in range(n_draws)] == want
            # two streams of one seed, drawn in turns, each yield the chain
            a, b = ScalarRng(seed), ScalarRng(seed)
            drawn_a, drawn_b = [], []
            for k in range(n_draws):
                drawn_a.append(a.uniform())
                if k % 3 == 0:
                    drawn_b.extend((b.uniform(), b.uniform(), b.uniform()))
            assert drawn_a == want and drawn_b == want
    assert ScalarRng(5).uniform() == 0.6763599147503829


def test_scalar_rng_uniform_range_and_determinism():
    a = ScalarRng(7)
    b = ScalarRng(7)
    va = [a.uniform() for _ in range(100)]
    vb = [b.uniform() for _ in range(100)]
    assert va == vb
    assert all(0.0 <= u < 1.0 for u in va)


def test_monte_carlo_report_deterministic(matching_params):
    inst = instances.gen_random(5, 5, 0.8, seed=3)
    r1 = bench.monte_carlo_edge_probs("odrs", inst, 20_000, seed=5, params=matching_params)
    r2 = bench.monte_carlo_edge_probs("odrs", inst, 20_000, seed=5, params=matching_params)
    assert json.dumps(r1) == json.dumps(r2)


def test_monte_carlo_deterministic_instance():
    from odrs_lab.instances import Arrival, MatchingInstance
    inst = MatchingInstance(2, (1, 1), (Arrival(((0, 1.0),)), Arrival(((1, 1.0),))))
    rep = bench.monte_carlo_edge_probs("warmup", inst, 5000, seed=1)
    assert all(e["prob"] in (0.0, 1.0) for e in rep["edges"])
    assert rep["min_ratio"] == pytest.approx(1.0)


def test_monte_carlo_needs_enough_runs():
    inst = instances.gen_uniform_star(4)
    with pytest.raises(DomainError):
        bench.monte_carlo_edge_probs("warmup", inst, 100, seed=0)


def test_monte_carlo_matches_exact_within_se(matching_params):
    inst = instances.gen_random(6, 6, 0.7, seed=11)
    mc = bench.monte_carlo_edge_probs("odrs", inst, 100_000, seed=3, params=matching_params)
    ex = bench.monte_carlo_edge_probs("odrs", inst, 0, seed=0, params=matching_params, exact=True)
    assert all(e["se"] == 0.0 for e in ex["edges"])
    bad = 0
    for m, e in zip(mc["edges"], ex["edges"]):
        if abs(m["prob"] - e["prob"]) > 4 * max(m["se"], 1e-9):
            bad += 1
    assert bad <= max(1, len(mc["edges"]) // 100)


def test_ci_coverage_self_test():
    # 95% normal CI on a Bernoulli mean: coverage in [93%, 97%] over 1000 trials
    g = generator(123, 0)
    p_true = 0.3
    n = 4000
    cover = 0
    for _ in range(1000):
        xs = g.random(n) < p_true
        est = xs.mean()
        se = math.sqrt(est * (1 - est) / n)
        if abs(est - p_true) <= 1.96 * se:
            cover += 1
    assert 930 <= cover <= 970


def test_lb_root_value():
    assert bench.lb_root_check() < 1e-12


def test_lb_adversary_instance_is_valid_and_reports(matching_params):
    rep = bench.lb_adversary("odrs", n=8, n_probe=20_000, n_eval=40_000,
                             seed=2, params=matching_params)
    assert rep["min_final_ratio"] <= rep["ratio_bound"] + 0.05
    i, j = rep["chosen_pair"]
    assert i // 2 != j // 2  # distinct prefix pairs
    assert len(rep["final_edges"]) == 2


def test_lb_adversary_warmup(matching_params):
    rep = bench.lb_adversary("warmup", n=6, n_probe=10_000, n_eval=20_000, seed=4)
    assert rep["min_final_ratio"] <= 1.0


def test_three_node_impossibility_exact_and_mc(matching_params):
    rep = bench.three_node_impossibility("odrs", params=matching_params, n_runs=50_000)
    assert rep["min_matched_prob"] < 1 - 1e-6
    for c in rep["choices"]:
        assert abs(c["mc_matched_prob"] - c["exact_matched_prob"]) <= 4 * c["mc_se"] + 1e-3


def test_batch_and_scalar_samplers_agree(matching_params):
    inst = instances.gen_random(5, 5, 0.9, seed=17)
    counts = bench._batch_run("odrs", inst, matching_params, 60_000, seed=6)
    comp = odrs.CompiledOdrs(inst, matching_params)
    exact = comp.edge_match_probs()
    for k, p in exact.items():
        freq = counts.get(k, 0) / 60_000
        se = math.sqrt(max(p * (1 - p), 1e-9) / 60_000)
        assert abs(freq - p) < 5 * se + 1e-3


def test_lb_adversary_never_match_reports_zero(monkeypatch):
    def never(comp, n_runs, seed, on_chunk=None, keep=None):
        if on_chunk is not None:
            on_chunk(np.zeros((n_runs, comp.inst.n_offline), dtype=bool),
                     np.zeros((n_runs, comp.inst.n_arrivals), dtype=bool))
        return {}

    monkeypatch.setattr(bench, "_batch_warmup", never)
    rep = bench.lb_adversary("warmup", n=5, n_probe=2000, n_eval=4000, seed=1)
    assert rep["min_final_ratio"] == 0.0
    assert rep["final_matched_prob"] == 0.0


def test_three_node_impossibility_warmup():
    rep = bench.three_node_impossibility("warmup")
    assert rep["min_matched_prob"] < 1 - 1e-6


def test_engine_vs_sampler_agreement_large(matching_params):
    # 1e6 replays: frequencies within 4 SE of exact for >= 99% of edges
    star = instances.gen_uniform_star(10)
    mc = bench.monte_carlo_edge_probs("warmup", star, 1_000_000, seed=2)
    ex = bench.monte_carlo_edge_probs("warmup", star, 0, seed=0, exact=True)
    misses = sum(1 for m, e in zip(mc["edges"], ex["edges"])
                 if abs(m["prob"] - e["prob"]) > 4 * m["se"])
    assert misses / len(mc["edges"]) <= 0.01


@pytest.mark.parametrize("scheme,max_b", [("warmup", 1), ("odrs", 1), ("odrs_b", 3)])
def test_batch_replay_matches_exact_engine(scheme, max_b):
    inst = instances.gen_random(5, 8, 0.8, seed=41, max_b=max_b)
    params = odrs.scheme_params(scheme)
    if scheme == "odrs_b":  # the b-matching kernel must meet crossing nodes
        assert any(plan.crossing for plan in odrs.compile_scheme(scheme, inst, params).plans)
    n_runs = 60_000
    counts = bench._batch_run(scheme, inst, params, n_runs, seed=8)
    exact = engine.edge_match_probs(inst, params, scheme)
    assert set(counts) <= set(exact)
    for k, p in exact.items():
        se = math.sqrt(max(p * (1 - p), 1e-9) / n_runs)
        assert abs(counts.get(k, 0) / n_runs - p) < 5 * se, (k, p)


def test_lb_adversary_needs_enough_runs(matching_params):
    for n_probe, n_eval in ((0, 4000), (2000, 0), (2000, -5), (999, 4000)):
        with pytest.raises(DomainError, match="10\\^3"):
            bench.lb_adversary("odrs", n=5, n_probe=n_probe, n_eval=n_eval, seed=1,
                               params=matching_params)


@pytest.mark.parametrize("scheme", ["warmup", "odrs", "odrs_b"])
@pytest.mark.parametrize("k", [bench.MAX_TABLE_ACTIVE + 1, 17, 20])
def test_warmup_replay_table_cap(scheme, k):
    # 16 or more positions would overflow the uint16 bid masks: the cap is
    # checked before any mask is built
    inst = instances.MatchingInstance(k, (1,) * k, (instances.Arrival(
        tuple((i, 1.0 / k) for i in range(k))),))
    with pytest.raises(SizeError, match="batch table cap"):
        bench.monte_carlo_edge_probs(scheme, inst, 1000, 0, params=odrs.scheme_params(scheme))
