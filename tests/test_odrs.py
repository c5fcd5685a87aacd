import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from conftest import reference_exact_marginals
from odrs_lab import exact_engine as engine
from odrs_lab import crs, instances, odrs
from odrs_lab.errors import DomainError, FeasibilityError
from odrs_lab.instances import Arrival, MatchingInstance


def test_f_examples():
    assert odrs.f_eps_delta(0.0, 0.3, 0.2) == 0.0
    assert abs(odrs.f_eps_delta(1.0, 0.0, 0.0) - math.exp(-1)) < 1e-15
    assert abs(odrs.f_prime(0.0, 0.0, 0.0)) < 1e-15


def test_published_matching_params_feasible_and_bound():
    p = odrs.ScalingParams(0.0480, 0.0643)
    assert odrs.f_eps_delta(odrs.z_star(p.eps, p.delta, "matching"), p.eps, p.delta) >= 0
    assert odrs.f_prime(odrs.z_star(p.eps, p.delta, "matching"), p.eps, p.delta) >= 0
    assert odrs.ratio_bound_raw(p.eps, p.delta) >= 0.652


def test_ratio_bound_collapses_at_zero():
    assert abs(odrs.ratio_bound_raw(0.0, 0.0) - (1 - 1 / math.e)) < 1e-15


def test_infeasible_params_name_violation():
    with pytest.raises(FeasibilityError, match="f"):
        odrs.ScalingParams(0.3, 0.001)
    # the error names the failing condition at z* with its value; the
    # feasibility test itself returns only the condition's name
    for eps, delta, variant, name, detail in (
            (0.3, 0.001, "matching", "f", "f(0.498339) = -0.0439 < 0"),
            (0.0, 0.05, "b_matching", "f'", "f'(0) = -0.05 < 0")):
        assert odrs.feasibility_violation(eps, delta, variant) == name
        with pytest.raises(FeasibilityError) as err:
            odrs.ScalingParams(eps, delta, variant)
        assert str(err.value) == f"infeasible ({eps}, {delta}): {detail}"
        assert err.value.violated == detail


def test_optimize_params_matching(matching_params):
    eps, delta, alpha = odrs.optimize_params("matching")
    assert alpha >= 0.6519
    assert abs(eps - 0.0480) <= 0.003 and abs(delta - 0.0643) <= 0.003
    # deterministic
    assert (eps, delta, alpha) == odrs.optimize_params("matching")


def test_optimize_params_b_matching(b_matching_params):
    eps, delta, alpha = odrs.optimize_params("b_matching")
    assert alpha >= 0.6459
    assert abs(eps - 0.0347) <= 0.003 and abs(delta - 0.0425) <= 0.003


# float.hex of search_params(variant): (eps, delta, alpha)
GOLDEN_OPTIMA = {
    "matching": ("0x1.89e55aba26359p-5", "0x1.07916872b020cp-4", "0x1.4e3cdae57e65cp-1"),
    "b_matching": ("0x1.158ff8505ce61p-5", "0x1.533c6a7ef9db4p-5", "0x1.4ac38213760e8p-1"),
}


@pytest.mark.parametrize("variant", ["matching", "b_matching"])
def test_optimize_params_equals_reference_and_golden(variant):
    got = odrs.search_params(variant)
    assert tuple(v.hex() for v in got) == GOLDEN_OPTIMA[variant]
    # feasibility is not monotone in eps along every grid row: a bisection
    # would find another first feasible eps than the search's scan
    grid = [i * 1e-3 for i in range(201)]
    rows = [[odrs.feasibility_violation(e, d, variant) is None for e in grid] for d in grid]
    assert any(not all(row[i] <= row[i + 1] for i in range(200)) for row in rows)


@pytest.mark.parametrize("variant", ["matching", "b_matching"])
def test_optimize_params_serves_the_pinned_search(variant):
    eps, delta, alpha = odrs.optimize_params(variant)
    assert (eps, delta, alpha) == odrs.search_params(variant)
    assert odrs.feasibility_violation(eps, delta, variant) is None
    assert alpha.hex() == odrs.ratio_bound_raw(eps, delta).hex()
    for fn in (odrs.optimize_params, odrs.search_params):
        with pytest.raises(DomainError, match="unknown variant"):
            fn("b-matching")


def test_optimize_params_transient_memory():
    odrs.search_params("matching")
    tracemalloc.start()
    try:
        odrs.search_params("matching")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.5e6


def test_feasible_region_contains_origin():
    assert odrs.feasibility_violation(0.0, 0.0, "matching") is None
    assert odrs.feasibility_violation(0.0, 0.0, "b_matching") is None


def test_scale_hat_examples():
    p = odrs.ScalingParams(0.0480, 0.0643)
    assert abs(odrs.scale_hat(0.3, 0.0, p) - 0.3 * 0.952) < 1e-15
    assert abs(odrs.scale_hat(0.1, 0.6, p) - 0.1 * 1.0643) < 1e-15
    p0 = odrs.ScalingParams(0.0, 0.0)
    for x, s in ((0.4, 0.1), (1.0, 0.0), (0.05, 0.9)):
        assert odrs.scale_hat(x, s, p0) == x


def test_scale_hat_never_exceeds_true_degree():
    p = odrs.ScalingParams(0.0480, 0.0643)
    rng = np.random.default_rng(0)
    for _ in range(200):
        s = float(rng.uniform(0, 0.9))
        x = float(rng.uniform(0, 1 - s))
        shat = odrs.hat_position(s + x, p)
        assert shat <= s + x + 1e-12


def test_scale_hat_b_examples(b_matching_params):
    pb = b_matching_params
    p0 = odrs.ScalingParams(0.0, 0.0, "b_matching")

    def scaled(x, s, params):
        return odrs.hat_position(s + x, params) - odrs.hat_position(s, params)

    assert scaled(0.37, 1.21, p0) == pytest.approx(0.37, abs=1e-12)
    # a span inside [theta1, theta2) scales by (1-eps)
    t1, t2 = pb.theta1, pb.theta2
    x = (t2 - t1) / 2
    assert abs(scaled(x, t1, pb) - x * (1 - pb.eps)) < 1e-12
    # full units are preserved exactly
    for k in range(1, 4):
        assert odrs.hat_position(float(k), pb) == float(k)
    rng = np.random.default_rng(1)
    for _ in range(500):
        s = float(rng.uniform(0, 4))
        assert math.floor(odrs.hat_position(s, pb)) == math.floor(s)
        assert math.ceil(odrs.hat_position(s, pb)) == math.ceil(s)


def test_theta_relation_b(b_matching_params):
    pb = b_matching_params
    assert abs((pb.theta2 - pb.theta1) - pb.delta / (pb.eps + pb.delta)) < 1e-12
    assert 0 <= pb.theta1 <= pb.theta2 <= 1


def test_first_fit_example_and_edges():
    bins = odrs.first_fit([(0, 0.6), (1, 0.5), (2, 0.4), (3, 0.3)])
    assert [[i for i, _ in b] for b in bins] == [[0, 2], [1, 3]]
    assert odrs.first_fit([(0, 0.4)]) == [[(0, 0.4)]]
    bins = odrs.first_fit([(i, 1.0) for i in range(3)])
    assert all(len(b) == 1 for b in bins)
    with pytest.raises(DomainError):
        odrs.first_fit([(0, 1.5)])


@settings(max_examples=150, deadline=None)
@given(hst.lists(hst.floats(0.001, 1.0), min_size=1, max_size=20))
def test_first_fit_at_most_one_light_bin(sizes):
    bins = odrs.first_fit(list(enumerate(sizes)))
    loads = [sum(sz for _, sz in b) for b in bins]
    assert all(load <= 1 + 1e-9 for load in loads)
    assert sum(1 for load in loads if load < 0.5) <= 1


def test_minimizer_claim(matching_params):
    eps, delta = matching_params.eps, matching_params.delta
    y_star = (eps + delta) / ((1 - eps) * (1 + delta))
    def g(y):
        return 1 - math.exp(-(1 - y) * (1 + delta)) * (1 - y * (1 - eps))
    g_min = g(y_star)
    ys = np.linspace(-1, 2, 10_000)
    assert all(g(y) >= g_min - 1e-12 for y in ys)


def test_warmup_star_and_independence(matching_params):
    star = instances.gen_uniform_star(10)
    probs = engine.edge_match_probs(star, None, "warmup")
    expect = (1 - 0.9 ** 10) / 10
    for t in range(10):
        assert abs(probs[(t, 0)] - expect) < 1e-12
    single = MatchingInstance(1, (1,), (Arrival(((0, 1.0),)),))
    for seed in range(20):
        m = odrs.compile_scheme("warmup", single, None).sample(seed)
        assert m.pairs == [(0, 0)]


def reference_edge_probs(comp):
    """Pr[(i,t) matched] of either compiled scheme from the per-atom loop
    that `crs.exact_marginals` replaced."""
    probs = {}
    for t, sel in enumerate(comp.selectors):
        if sel is None:
            continue
        law = comp.bid_law(t)
        for i, p in zip(law.elements, reference_exact_marginals(law, sel)):
            probs[(i, t)] = float(p)
    return probs


@pytest.mark.parametrize("chunk", [1, 5, 64])
def test_warmup_edge_probs_equal_per_atom_loop(monkeypatch, chunk):
    # every scheme: the warm-up's product selectors and the flow selectors
    # of odrs and odrs_b go through the same chunked sum
    comps = [odrs.CompiledWarmup(instances.gen_random(n, t, 0.9, seed))
             for n, t, seed in ((4, 5, 1), (9, 6, 2), (11, 3, 3))]
    comps.append(odrs.CompiledWarmup(MatchingInstance(3, (1,) * 3, (
        Arrival(((0, 1.0),)), Arrival(((0, 0.5), (1, 0.25), (2, 0.25)))))))
    for scheme, max_b, (n, t, seed) in (("odrs", 1, (6, 7, 4)), ("odrs", 1, (9, 9, 2)),
                                        ("odrs_b", 3, (5, 8, 41))):
        inst = instances.gen_random(n, t, 0.8, seed, max_b=max_b)
        comps.append(odrs.compile_scheme(scheme, inst, odrs.scheme_params(scheme)))
    want = [reference_edge_probs(c) for c in comps]
    monkeypatch.setattr(crs, "ATOM_CHUNK", chunk)
    for comp, w in zip(comps, want):
        assert comp.edge_match_probs() == w


def test_warmup_two_disjoint_stars_independent():
    inst = MatchingInstance(4, (1,) * 4, (
        Arrival(((0, 0.5), (1, 0.5))), Arrival(((2, 0.5), (3, 0.5)))))
    comp = odrs.CompiledWarmup(inst)
    n = 40_000
    both = first = second = 0
    for s in range(n):
        m = comp.sample(s)
        ts = {t for _, t in m.pairs}
        first += 0 in ts
        second += 1 in ts
        both += 0 in ts and 1 in ts
    p1, p2, pb = first / n, second / n, both / n
    assert abs(pb - p1 * p2) < 4 * math.sqrt(pb * (1 - pb) / n) + 1e-3


def test_odrs_star_ratio(matching_params):
    star = instances.gen_uniform_star(10)
    r = engine.rounding_ratio_exact(star, matching_params, "odrs")
    assert r >= 0.652 - 1e-9


def test_odrs_zero_params_at_least_warmup_bound():
    p0 = odrs.ScalingParams(0.0, 0.0)
    inst = instances.gen_random(6, 6, 0.8, seed=9)
    r = engine.rounding_ratio_exact(inst, p0, "odrs")
    assert r >= 1 - 1 / math.e - 1e-9


def test_bid_marginals_equal_scaled_fractions(matching_params):
    inst = instances.gen_random(6, 7, 0.8, seed=13)
    comp = odrs.compile_scheme("odrs", inst, matching_params)
    for t in range(inst.n_arrivals):
        law = comp.bid_law(t)
        for i, val in zip(law.elements, law.marginals().tolist()):
            assert abs(val - comp.plans[t].xhat[i]) < 1e-12


def test_b_matching_count_invariants(b_matching_params):
    inst = instances.gen_random(5, 8, 0.7, seed=21, max_b=3)
    comp = odrs.CompiledOdrs(inst, b_matching_params)
    # E[ahead bit] equals frac(shat) at every prefix: E[S_{i,t}] = shat
    dp = odrs.BidLawDP(list(range(inst.n_offline)))
    s = np.zeros(inst.n_offline)
    for plan in comp.plans:
        dp.step(plan)
        for i, x in inst.arrivals[plan.t].edges:
            s[i] += x
        for i in range(inst.n_offline):
            shat = odrs.hat_position(float(s[i]), b_matching_params)
            frac = shat - math.floor(shat + 1e-9)
            e_ahead = sum(p for mk, p in dp.state.items() if mk >> dp.pos[i] & 1)
            assert abs(e_ahead - max(0.0, frac)) < 1e-9


def test_b_matching_capacity_two_full_fractions(b_matching_params):
    inst = MatchingInstance(1, (2,), (Arrival(((0, 1.0),)), Arrival(((0, 1.0),))))
    comp = odrs.compile_scheme("odrs_b", inst, b_matching_params)
    for seed in range(30):
        m = comp.sample(seed)
        assert sorted(m.pairs) == [(0, 0), (0, 1)]


def test_b_matching_random_ratio(b_matching_params):
    worst = 1.0
    for seed in range(8):
        inst = instances.gen_random(5, 7, 0.7, seed=200 + seed, max_b=3)
        worst = min(worst, engine.rounding_ratio_exact(inst, b_matching_params, "odrs_b"))
    assert worst >= 0.646 - 1e-9


def test_set_bid_bound(matching_params):
    # Pr[S cap P_t != empty] >= 1 - prod_B (1 - sum_{B cap S} xhat)
    inst = instances.gen_random(7, 6, 0.8, seed=31)
    comp = odrs.CompiledOdrs(inst, matching_params)
    for plan, law in zip(comp.plans, comp.laws):
        if law is None:
            continue
        k = len(law.elements)
        pos = {i: a for a, i in enumerate(law.elements)}
        groups = [list(gb.nodes) for gb in plan.bins]
        groups.extend([cn.node] for cn in plan.crossing)
        for smask in range(1, 1 << k):
            s_nodes = {law.elements[a] for a in range(k) if smask >> a & 1}
            hit = sum(p for mk, p in law.atoms if mk & smask)
            bound = 1.0
            for grp in groups:
                bound *= 1.0 - sum(plan.xhat[i] for i in grp if i in s_nodes)
            assert hit >= 1.0 - bound - 1e-9


def test_downscale(matching_params):
    # the uniform 10-star with every fraction scaled by 0.9
    star = MatchingInstance(10, (1,) * 10, (Arrival(tuple((i, 0.1 * 0.9) for i in range(10))),))
    r = engine.rounding_ratio_exact(star, matching_params, "odrs")
    assert r >= 0.652 * (1 - 0.1) - 1e-9


def test_component_split_allows_structured_large_instances(matching_params):
    inst = instances.gen_lb_prefix(30)  # 60 offline nodes, disjoint pairs
    m = odrs.compile_scheme("odrs", inst, matching_params).sample(3)
    m.assert_valid(inst)


def test_sampler_matches_exact_probabilities(matching_params):
    inst = instances.gen_random(5, 5, 0.8, seed=11)
    comp = odrs.CompiledOdrs(inst, matching_params)
    exact = comp.edge_match_probs()
    n = 30_000
    counts = {}
    for seed in range(n):
        for i, t in comp.sample(seed).pairs:
            counts[(i, t)] = counts.get((i, t), 0) + 1
    for k, p in exact.items():
        freq = counts.get(k, 0) / n
        se = math.sqrt(max(p * (1 - p), 1e-9) / n)
        assert abs(freq - p) < 5 * se + 1e-3


def test_matching_json_shape(matching_params):
    inst = instances.gen_random(4, 4, 0.9, seed=2)
    m = odrs.compile_scheme("odrs", inst, matching_params).sample(1)
    doc = m.to_json_list()
    assert all(set(d) == {"arrival", "offline"} for d in doc)
    ts = [d["arrival"] for d in doc]
    assert ts == sorted(ts)


def test_low_bins_at_most_one_light(matching_params):
    # among bins of low-degree nodes, at most one is below half full
    for seed in range(10):
        inst = instances.gen_random(8, 8, 0.9, seed=700 + seed)
        comp = odrs.CompiledOdrs(inst, matching_params)
        th = matching_params.theta_core
        shat = {}
        for plan in comp.plans:
            low = {i for i in plan.xhat
                   if (shat.get(i, 0.0) - math.floor(shat.get(i, 0.0) + 1e-9)) <= th + 1e-12}
            light = sum(1 for gb in plan.bins
                        if gb.nodes and set(gb.nodes) <= low and sum(gb.sizes) < 0.5)
            assert light <= 1
            for i, xh in plan.xhat.items():
                shat[i] = shat.get(i, 0.0) + xh


def test_sampler_bid_counts_sandwich(b_matching_params):
    # independent replay of the core steps, tracking bid counts explicitly:
    # counts stay within floor/ceil of the scaled degree, matches never exceed
    from odrs_lab.rng import ScalarRng
    inst = instances.gen_random(5, 8, 0.8, seed=41, max_b=3)
    comp = odrs.CompiledOdrs(inst, b_matching_params)
    for seed in range(50):
        rng = ScalarRng(seed)
        ahead = np.zeros(inst.n_offline, dtype=bool)
        counts = np.zeros(inst.n_offline, dtype=int)
        matched = np.zeros(inst.n_offline, dtype=int)
        shat = np.zeros(inst.n_offline)
        for plan, selector in zip(comp.plans, comp.selectors):
            if selector is None:
                continue
            before = ahead.copy()
            win = odrs.odrs_core_step(ahead, plan, selector, rng)
            # reconstruct bids from the state transition and the winner
            for i in plan.xhat:
                was_cross = any(cn.node == i for cn in plan.crossing)
                if was_cross:
                    if not before[i] or ahead[i]:
                        counts[i] += 1  # lagging bids surely; ahead+heads bids
                elif ahead[i] and not before[i]:
                    counts[i] += 1
            if win >= 0:
                matched[win] += 1
            for i, xh in plan.xhat.items():
                shat[i] += xh
            for i in range(inst.n_offline):
                lo = math.floor(shat[i] + 1e-9)
                hi = math.ceil(shat[i] - 1e-9)
                assert lo <= counts[i] <= max(hi, lo), (seed, i, counts[i], shat[i])
                assert matched[i] <= counts[i]
                assert matched[i] <= inst.capacities[i]


def test_odrs_rejects_stochastic_instances(matching_params):
    import pytest as _pytest
    from odrs_lab.errors import DomainError as _DE
    inst = instances.gen_random(4, 4, 0.8, seed=1, stochastic=True)
    with _pytest.raises(_DE, match="sure arrivals"):
        odrs.compile_scheme("odrs", inst, matching_params)


def test_odrs_refuses_fractional_degree_above_one(matching_params, b_matching_params):
    # the matching variant refuses a node of fractional degree above one
    # before it builds any plan, naming the node; odrs_b rounds the instance
    refused = 0
    for seed in range(40):
        inst = instances.gen_random(5, 7, 0.7, seed, max_b=3)
        degree = [0.0] * inst.n_offline
        for arr in inst.arrivals:
            for i, x in arr.edges:
                degree[i] += x
        over = [i for i, d in enumerate(degree) if d > 1 + instances.TOL]
        if not over:
            odrs.build_plans(inst, matching_params)
            continue
        refused += 1
        with pytest.raises(DomainError, match=f"offline node {over[0]} .* use odrs-b"):
            odrs.build_plans(inst, matching_params)
        with pytest.raises(DomainError, match="use odrs-b"):
            engine.free_mask_distribution(inst, matching_params, 1)
        odrs.compile_scheme("odrs_b", inst, b_matching_params).sample(seed)
    assert refused > 0


def test_saturating_node_exact_boundary(matching_params):
    # a node whose degree reaches exactly one: the scaled degree also reaches
    # one, its last bid size fills a whole bin, and sampling stays valid
    inst = MatchingInstance(2, (1, 1), (
        Arrival(((0, 0.5), (1, 0.3))), Arrival(((0, 0.5), (1, 0.4)))))
    comp = odrs.CompiledOdrs(inst, matching_params)
    shat0 = odrs.hat_position(1.0, matching_params)
    assert shat0 == pytest.approx(1.0, abs=1e-12)
    probs = comp.edge_match_probs()
    xs = {(i, t): x for i, t, x in inst.edge_list()}
    assert min(probs[k] / xs[k] for k in probs) >= 0.652 - 1e-9
    for seed in range(40):
        comp.sample(seed)


def test_b_matching_exact_integer_crossing(b_matching_params):
    # degree path 0.6 -> 1.0 -> 1.7: the second arrival ends exactly on the
    # boundary, the third crosses inside the next unit
    inst = MatchingInstance(1, (2,), (
        Arrival(((0, 0.6),)), Arrival(((0, 0.4),)), Arrival(((0, 0.7),))))
    comp = odrs.CompiledOdrs(inst, b_matching_params)
    probs = comp.edge_match_probs()
    xs = {(i, t): x for i, t, x in inst.edge_list()}
    assert min(probs[k] / xs[k] for k in probs) >= 0.646 - 1e-9
    for seed in range(40):
        m = comp.sample(seed)
        assert len(m.pairs) <= 2


def test_group_bin_draw_matches_draw_masks():
    bins = [odrs.GroupBin([3, 5, 7, 9], [0.25, 0.0, 0.5, 0.125]),
            odrs.GroupBin([0, 1, 2], [0.1, 0.2, 0.7]),
            odrs.GroupBin([4], [1.0])]
    for gb in bins:
        bounds = list(itertools.accumulate(gb.sizes))  # the draw's cumulative sums
        u = [0.0, 0.999999, *bounds, *(np.nextafter(b, 0.0) for b in bounds),
             *np.random.default_rng(1).random(200)]
        masks = gb.draw_masks(np.array(u))
        assert len(masks) == len(gb.nodes)
        assert all(m.dtype == bool for m in masks)
        assert max(sum(m[r] for m in masks) for r in range(len(u))) <= 1  # one node at most
        batch = np.full(len(u), -1)
        for node, m in zip(gb.nodes, masks):
            batch[m] = node
        assert [gb.draw(v) for v in u] == batch.tolist()
        assert 5 not in batch  # a zero-size entry is never drawn


def test_warmup_takes_no_parameters():
    assert odrs.scheme_params("warmup") is None
    for eps, delta in ((0.3, None), (None, 0.9), (0.0, 0.0)):
        with pytest.raises(DomainError, match="takes no eps or delta"):
            odrs.scheme_params("warmup", eps, delta)
