import collections
import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

from conftest import (built_rows, reference_build_selector, reference_exact_marginals,
                      reference_product, reference_product_select, reference_product_tree,
                      reference_select, reference_win_probs)
from odrs_lab import bitmask, crs, instances, odrs
from odrs_lab.errors import DomainError, SizeError
from odrs_lab.rng import ScalarRng


def _random_dist(rng, k, max_atoms=64):
    n_atoms = int(rng.integers(1, max_atoms + 1))
    masks = rng.integers(0, 1 << k, size=n_atoms)
    probs = rng.random(n_atoms)
    probs /= probs.sum()
    atoms = {}
    for mk, p in zip(masks, probs):
        atoms[int(mk)] = atoms.get(int(mk), 0.0) + float(p)
    return crs.SupportDistribution(tuple(range(k)), tuple(atoms.items()))


def reference_balance_ratio(dist, v):
    """The two `2^k` subset loops that `crs.balance_ratio` replaced."""
    v = np.asarray(v, dtype=float)
    active = [k for k in range(len(v)) if v[k] > 0]
    k = len(active)
    g = crs._nonempty_hit_probs(dist, active)
    full = (1 << k) - 1
    vsum = np.zeros(1 << k)
    for m in range(1, 1 << k):
        low = m & -m
        vsum[m] = vsum[m ^ low] + v[active[low.bit_length() - 1]]
    best = math.inf
    for m in range(1, 1 << k):
        hit = 1.0 - g[full ^ m]
        best = min(best, hit / vsum[m])
    return max(0.0, best)


def test_balance_ratio_equals_subset_loop():
    rng = np.random.default_rng(3)
    for trial in range(60):
        k = int(rng.integers(1, 13))
        d = _random_dist(rng, k, max_atoms=200)
        v = rng.random(k) * rng.uniform(0.1, 3.0)
        v[rng.random(k) < 0.25] = 0.0  # inactive elements
        if not v.any():
            v[int(rng.integers(k))] = 0.5
        assert crs.balance_ratio(d, v) == reference_balance_ratio(d, v), trial


def test_nonempty_hit_probs_equals_the_atom_loop():
    # the projection onto the active elements sums colliding atoms in atom order
    rng = np.random.default_rng(8)
    for trial in range(60):
        k = int(rng.integers(1, 13))
        d = _random_dist(rng, k, max_atoms=200)
        active = [a for a in range(k) if rng.random() < 0.6] or [0]
        proj = np.zeros(1 << len(active))
        for mask, p in d.atoms:
            proj[sum(1 << j for j, a in enumerate(active) if mask >> a & 1)] += p
        got = crs._nonempty_hit_probs(d, active)
        assert got.tolist() == bitmask.subset_sums(proj).tolist(), trial


def test_balance_ratio_two_coin_example():
    d = crs.SupportDistribution.product((0, 1), (0.5, 0.5))
    assert abs(crs.balance_ratio(d, [0.5, 0.5]) - 0.75) < 1e-12


def test_balance_ratio_single_element_and_empty_support():
    d = crs.SupportDistribution((1,), ((1, 0.4), (0, 0.6)))
    assert abs(crs.balance_ratio(d, [0.4]) - 1.0) < 1e-12
    d0 = crs.SupportDistribution((0, 1), ((0, 1.0),))
    assert crs.balance_ratio(d0, [0.3, 0.2]) == 0.0


def test_balance_ratio_small_fractions_beat_1_minus_1_over_e():
    # independent Ber(x_i) with v = x: ratio at least 1 - 1/e
    rng = np.random.default_rng(0)
    for _ in range(20):
        k = int(rng.integers(2, 9))
        x = rng.random(k)
        x = x / x.sum() * rng.uniform(0.2, 1.0)
        d = crs.SupportDistribution.product(tuple(range(k)), x)
        assert crs.balance_ratio(d, x) >= 1 - 1 / math.e - 1e-12


def test_balance_ratio_domain_errors():
    d = crs.SupportDistribution.product((0, 1), (0.5, 0.5))
    with pytest.raises(DomainError):
        crs.balance_ratio(d, [0.0, 0.0])
    big = crs.SupportDistribution(tuple(range(21)), ((0, 1.0),))
    with pytest.raises(SizeError):
        crs.balance_ratio(big, [1.0] * 21)


def test_selector_marginals_two_coins():
    d = crs.SupportDistribution.product((0, 1), (0.5, 0.5))
    rule = crs.build_selector(d, [0.5, 0.5])
    marg = crs.exact_marginals(d, rule)
    assert np.allclose(marg, 0.375, atol=1e-9)


def _no_draw():
    raise AssertionError("a uniform was drawn")


class _CountingUniform:
    """A ScalarRng's uniform draws, counted."""

    def __init__(self, seed):
        self.rng = ScalarRng(seed)
        self.draws = 0

    def __call__(self):
        self.draws += 1
        return self.rng.uniform()


def test_selector_point_mass_and_empty():
    d = crs.SupportDistribution((1,), ((1, 1.0),))
    rule = crs.build_selector(d, [0.7])
    assert rule.select(1, lambda: 0.3) == 0 and rule.elements[0] == 1
    assert rule.select(0, _no_draw) == -1


def test_select_unmodeled_realization():
    d = crs.SupportDistribution.product((0, 1), (0.5, 0.5))
    rule = crs.build_selector(d, [0.5, 0.5])
    partial = crs.SelectionRule(rule.elements, {1: rule.rows[1]}, rule.alpha)
    with pytest.raises(DomainError, match="unmodeled"):
        partial.select(2, lambda: 0.1)
    with pytest.raises(DomainError, match="unmodeled"):
        crs.exact_marginals(d, partial)


def test_exact_marginals_name_the_first_unmodeled_mask_in_atom_order():
    # atom order 0, 011, 100, 010, 101: the rule models 011 and 101 only, so
    # 100 is the first unmodeled mask though not the first atom
    d = crs.SupportDistribution.summed(range(3), [0, 0b011, 0b100, 0b010, 0b101], [0.2] * 5)
    rule = crs.build_selector(d, [0.2, 0.2, 0.2])
    partial = crs.SelectionRule(rule.elements, {m: rule.rows[m] for m in (0b011, 0b101)},
                                rule.alpha)
    with pytest.raises(DomainError, match="unmodeled realization 100$"):
        crs.exact_marginals(d, partial)
    # masks past 62 elements are Python integers
    wide = crs.SupportDistribution.summed(range(70), [1 << 69, 1, 1 << 65], [0.5, 0.25, 0.25])
    rule = crs.SelectionRule(wide.elements, {1: ((0, 1.0),)}, 1.0)
    with pytest.raises(DomainError, match=f"unmodeled realization {1 << 69:b}$"):
        crs.exact_marginals(wide, rule)


def test_selection_law_matches_rows():
    d = crs.SupportDistribution.product((0, 1, 2), (0.4, 0.5, 0.3))
    rule = crs.build_selector(d, [0.2, 0.6, 0.2])
    rng = ScalarRng(5)
    counts = {0: 0, 1: 0, 2: 0, -1: 0}
    mask = 0b101
    for _ in range(200_000):
        counts[rule.select(mask, rng.uniform)] += 1
    row = dict(rule.rows[mask])
    for pos, q in row.items():
        freq = counts[pos] / 200_000
        assert abs(freq - q) < 4 * math.sqrt(q * (1 - q) / 200_000) + 1e-4


def test_exact_selection_marginals_random_battery():
    # acceptance-8 core: <=6 elements, <=64 atoms, marginals == alpha*v to 1e-9
    rng = np.random.default_rng(42)
    for trial in range(100):
        k = int(rng.integers(1, 7))
        d = _random_dist(rng, k)
        v = rng.random(k) + 0.05
        alpha = crs.balance_ratio(d, v)
        rule = crs.build_selector(d, v)
        marg = crs.exact_marginals(d, rule)
        assert np.max(np.abs(marg - alpha * v)) < 1e-9
        assert marg.tolist() == reference_exact_marginals(d, rule).tolist()


def test_monotone_sanity_mass_to_larger_sets():
    rng = np.random.default_rng(7)
    for _ in range(20):
        k = int(rng.integers(2, 6))
        d = _random_dist(rng, k, max_atoms=16)
        v = rng.random(k) + 0.05
        base = crs.balance_ratio(d, v)
        atoms = list(d.atoms)
        idx = int(rng.integers(0, len(atoms)))
        j = int(rng.integers(0, k))
        mask, p = atoms[idx]
        atoms[idx] = (mask | (1 << j), p)
        merged = {}
        for mk, q in atoms:
            merged[mk] = merged.get(mk, 0.0) + q
        grown = crs.SupportDistribution(d.elements, tuple(merged.items()))
        assert crs.balance_ratio(grown, v) >= base - 1e-12


def test_max_flow_basics():
    one, half = crs.FLOW_SCALE, crs.FLOW_SCALE // 2  # capacities 1.0 and 0.5
    net = crs.FlowNetwork(3)
    net.add_edge(0, 1, one)
    e = net.add_edge(1, 2, half)
    assert net.max_flow(0, 2) == half and net.flow_on(e) == half
    net = crs.FlowNetwork(3)
    net.add_edge(0, 1, one)
    assert net.max_flow(0, 2) == 0


def reference_max_flow(net, s, t):
    """The Edmonds-Karp loop whose BFS ran until it popped the sink. Returns
    the flow and the number of augmenting paths that used a reverse edge."""
    total = backward = 0
    while True:
        parent_edge = [-1] * net.n
        parent_edge[s] = -2
        q = collections.deque([s])
        while q:
            u = q.popleft()
            if u == t:
                break
            for eid in net.head[u]:
                v = net.to[eid]
                if net.cap[eid] > 0 and parent_edge[v] == -1:
                    parent_edge[v] = eid
                    q.append(v)
        if parent_edge[t] == -1:
            return total, backward
        path = []
        v = t
        while v != s:
            path.append(parent_edge[v])
            v = net.to[parent_edge[v] ^ 1]
        bottleneck = min(net.cap[eid] for eid in path)
        for eid in path:
            net.cap[eid] -= bottleneck
            net.cap[eid ^ 1] += bottleneck
        total += bottleneck
        backward += any(eid & 1 for eid in path)


def _copy_network(net):
    twin = crs.FlowNetwork(net.n)
    twin.head = [list(h) for h in net.head]
    twin.to, twin.cap = list(net.to), list(net.cap)
    return twin


def test_max_flow_equals_reference(monkeypatch):
    # random layered networks src -> atoms -> elements -> sink, edges added
    # in shuffled order, with capped middle edges so that augmenting paths
    # run back along residual element -> atom edges
    rng = random.Random(5)
    backward = 0
    for _ in range(300):
        n_atoms, n_el = rng.randint(1, 7), rng.randint(1, 7)
        sink = 1 + n_atoms + n_el
        edges = [(0, 1 + a, rng.randint(0, 20)) for a in range(n_atoms)]
        edges += [(1 + n_atoms + k, sink, rng.randint(0, 20)) for k in range(n_el)]
        edges += [(1 + a, 1 + n_atoms + k, rng.choice((rng.randint(1, 9), 1000)))
                  for a in range(n_atoms) for k in range(n_el) if rng.random() < 0.6]
        rng.shuffle(edges)
        net = crs.FlowNetwork(sink + 1)
        for u, v, c in edges:
            net.add_edge(u, v, c)
        ref = _copy_network(net)
        want, back = reference_max_flow(ref, 0, sink)
        assert net.max_flow(0, sink) == want
        assert net.cap == ref.cap
        backward += back > 0
    assert backward >= 30

    # every selector network the compiled schemes build, carrying the flow
    # the short phase leaves: `build_selector` builds it and runs the BFS
    # only where a sink edge keeps capacity, so each network's BFS runs here
    # on a network built from the short phase's output
    seen = []
    short_paths = crs._short_paths

    def short_then_bfs(src_cap, members, sink_cap):
        flows, sink_res = short_paths(src_cap, members, sink_cap)
        net, _ = crs._selector_network(src_cap, members, sink_cap, flows)
        ref = _copy_network(net)
        want, _ = reference_max_flow(ref, 0, net.n - 1)
        got = net.max_flow(0, net.n - 1)
        assert got == want and net.cap == ref.cap
        seen.append(got)
        return flows, sink_res

    monkeypatch.setattr(crs, "_short_paths", short_then_bfs)
    for name in ("odrs", "odrs_b", "warmup"):
        params = odrs.scheme_params(name)
        for n in range(4, 10):
            for seed in range(3):
                odrs.compile_scheme(name, instances.gen_random(n, n, 0.7, seed), params)
    assert len(seen) >= 200  # 117 each for odrs and odrs_b; the warm-up builds none


def test_max_flow_matches_balance_ratio_on_selector_network():
    rng = np.random.default_rng(11)
    for _ in range(10):
        k = int(rng.integers(2, 6))
        d = _random_dist(rng, k, max_atoms=20)
        v = rng.random(k) + 0.05
        alpha = crs.balance_ratio(d, v)
        rule = crs.build_selector(d, v)  # raises if the flow missed alpha*sum(v)
        assert rule.alpha == alpha


def test_product_selector_marginals_exact():
    rng = np.random.default_rng(3)
    for _ in range(40):
        n = int(rng.integers(1, 10))
        y = rng.uniform(0.02, 0.98, size=n)
        ps = crs.ProductSelector(y)
        marg = np.zeros(n)
        for bits in itertools.product([0, 1], repeat=n):
            R = {i for i in range(n) if bits[i]}
            pr = math.prod(y[i] if bits[i] else 1 - y[i] for i in range(n))
            if R:
                marg += pr * reference_win_probs(ps, R)
        assert np.max(np.abs(marg - ps.alpha * y)) < 1e-11


def test_conditional_win_probs_equal_tree_walk():
    rng = np.random.default_rng(11)
    cut = 0  # bidders cut by the walk's `w <= 0` prune (a zero row entry)
    for n in range(1, 15):
        for _ in range(3):
            y = rng.uniform(0.01, 1.0, size=n)
            y[rng.random(n) < 0.2] = 1.0  # sure bidders zero some row entries
            ps = crs.ProductSelector(y)
            if n <= 10:
                masks = np.arange(1 << n)
            else:
                masks = rng.integers(0, 1 << n, size=600)
            got = ps.conditional_win_probs(masks)
            assert got.shape == (n, len(masks))
            for col, m in enumerate(masks.tolist()):
                want = reference_win_probs(ps, {k for k in range(n) if m >> k & 1})
                assert got[:, col].tolist() == want.tolist(), (n, m)
                cut += any(m >> k & 1 and want[k] == 0 for k in range(n))
    assert cut > 0
    # a flow selector's columns are its rows; mask 0 and a mask the rule
    # does not model give zero columns
    d = crs.SupportDistribution((5, 6, 7), ((0b011, 0.5), (0b110, 0.3), (0, 0.2)))
    rule = crs.build_selector(d, [0.3, 0.4, 0.2])
    got = rule.conditional_win_probs(np.arange(8))
    assert got.shape == (3, 8)
    for m in (0b011, 0b110):
        want = np.zeros(3)
        for k, q in rule.rows[m]:
            want[k] = q
        assert want.any() and got[:, m].tolist() == want.tolist()
    assert not got[:, [0, 1, 2, 4, 5, 7]].any()


def test_product_selector_rejects_out_of_range_inputs():
    ps = crs.ProductSelector([0.3, 0.4])
    rule = crs.build_selector(crs.SupportDistribution.product((0, 1), (0.3, 0.4)), [0.3, 0.4])
    for sel in (ps, rule):
        with pytest.raises(DomainError):
            sel.conditional_win_probs([4])
        with pytest.raises(DomainError):
            sel.conditional_win_probs([-1])
        assert sel.conditional_win_probs(np.zeros(0, dtype=np.int64)).shape == (2, 0)
    # masks past 62 positions do not fit int64
    wide = crs.SelectionRule(tuple(range(70)), {1 << 69: ((69, 1.0),)}, 1.0)
    assert wide.conditional_win_probs([1 << 69, 0])[69].tolist() == [1.0, 0.0]
    with pytest.raises(DomainError):
        wide.conditional_win_probs([1 << 70])
    for y in ([0.0, 0.5], [1.5], [math.nan, 0.5]):
        with pytest.raises(DomainError, match="probabilities in"):
            crs.ProductSelector(y)


def test_product_selector_agrees_with_flow_selector():
    rng = np.random.default_rng(4)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        y = rng.uniform(0.05, 0.95, size=n)
        d = crs.SupportDistribution.product(tuple(range(n)), y)
        alpha_flow = crs.balance_ratio(d, y)
        ps = crs.ProductSelector(y)
        assert abs(alpha_flow - ps.alpha) < 1e-12
        rule = crs.build_selector(d, y)
        assert np.max(np.abs(crs.exact_marginals(d, rule) - ps.alpha * y)) < 1e-9
        assert crs.exact_marginals(d, ps).tolist() == reference_exact_marginals(d, ps).tolist()


def test_product_selector_sampling_size_at_most_one():
    y = [0.3, 0.6, 0.2, 0.5]
    ps = crs.ProductSelector(y)
    rng = ScalarRng(9)
    for _ in range(5000):
        bids = sum(1 << i for i in range(4) if rng.uniform() < y[i])
        win = ps.select(bids, rng.uniform)
        assert win == -1 or bids >> win & 1


def test_selection_rule_select_equals_the_free_function():
    # the old call site drew one uniform for a nonzero mask and called
    # crs.select(rule, mask, u), which returned the element id
    rng = np.random.default_rng(21)
    checked = 0
    while checked < 12_000:
        k = int(rng.integers(1, 7))
        d = _random_dist(rng, k, max_atoms=20)
        d = crs.SupportDistribution(tuple(int(e) for e in rng.choice(50, k, replace=False)),
                                    d.atoms)
        rule = crs.build_selector(d, rng.uniform(0.05, 1.0, size=k))
        modeled = [0] + list(rule.rows)
        for mask in rng.choice(modeled, size=200).tolist():
            seed = int(rng.integers(1 << 62))
            new, old = _CountingUniform(seed), _CountingUniform(seed)
            pos = rule.select(mask, new)
            want = reference_select(rule, mask, old()) if mask else -1
            assert (rule.elements[pos] if pos >= 0 else -1) == want
            assert new.draws == old.draws
            checked += 1
        unmodeled = next((m for m in range(1, 1 << k) if m not in rule.rows), None)
        if unmodeled is not None:
            with pytest.raises(DomainError, match="unmodeled"):
                rule.select(unmodeled, _no_draw)
            with pytest.raises(DomainError, match="unmodeled"):
                reference_select(rule, unmodeled, 0.5)


def test_product_selector_select_equals_the_set_walk():
    rng = np.random.default_rng(22)
    checked = 0
    while checked < 12_000:
        n = int(rng.integers(1, 12))
        ps = crs.ProductSelector(rng.uniform(0.02, 1.0, size=n))
        for mask in rng.integers(0, 1 << n, size=200).tolist():
            seed = int(rng.integers(1 << 62))
            new, old = _CountingUniform(seed), _CountingUniform(seed)
            bids = {i for i in range(n) if mask >> i & 1}
            assert ps.select(mask, new) == reference_product_select(ps, bids, old)
            assert new.draws == old.draws
            checked += 1
    assert ps.select(0, _no_draw) == -1
    for bad in (1 << n, -1):
        with pytest.raises(DomainError):
            ps.select(bad, _no_draw)


def test_product_selector_lazy_walk_equals_fully_built_rows():
    # n = 1..64 covers odd carries at every layer; sure bidders (y = 1) take
    # the rows' zero-mass branches
    g = np.random.default_rng(23)
    bits = random.Random(23)
    checked = 0
    for n in range(1, 65):
        for _ in range(2):
            y = g.uniform(0.01, 1.0, size=n)
            y[g.random(n) < 0.2] = 1.0
            ps = crs.ProductSelector(y)
            rows = built_rows(ps)
            for _ in range(80):
                mask = bits.getrandbits(n)
                seed = bits.getrandbits(62)
                new, old = _CountingUniform(seed), _CountingUniform(seed)
                bids = {i for i in range(n) if mask >> i & 1}
                assert ps.select(mask, new) == reference_product_select(ps, bids, old, rows)
                assert new.draws == old.draws
                checked += 1
    assert checked >= 10_000


def test_product_selector_select_solves_only_the_nodes_it_visits():
    ps = crs.ProductSelector(np.linspace(0.05, 0.95, 37))
    solved = []
    weights = ps.weights
    ps.weights = lambda ref, pattern: solved.append(ref) or weights(ref, pattern)
    for mask in (1, 1 << 36, (1 << 37) - 1, 0b1010_0110_0001):
        solved.clear()
        draws = _CountingUniform(mask)
        ps.select(mask, draws)
        # one solve per node on the walk, which is at most the tree's depth
        assert len(solved) == len(set(solved)) == draws.draws <= 6
    solved.clear()
    assert ps.select(0, _no_draw) == -1 and not solved


def test_product_selector_select_law_matches_conditional_win_probs():
    ps = crs.ProductSelector([0.4, 0.7, 0.2, 0.5, 0.9])
    rng = ScalarRng(6)
    runs = 100_000
    for mask in (0b10110, 0b11111, 0b00001, 0b01001):
        counts = np.zeros(ps.n + 1)
        for _ in range(runs):
            counts[ps.select(mask, rng.uniform)] += 1  # -1 lands in the last slot
        want = ps.conditional_win_probs([mask])[:, 0]
        for slot, q in enumerate(want.tolist() + [1.0 - want.sum()]):
            if q < 1e-12:  # a loser, or no empty draw (1 - sum within rounding of 0)
                assert counts[slot] == 0
                continue
            freq = counts[slot] / runs
            assert abs(freq - q) < 4 * math.sqrt(q * (1 - q) / runs) + 1e-4


def _dict_loop(masks, probs):
    """The per-mask loop that `SupportDistribution.summed` replaced."""
    out = {}
    for mask, p in zip(masks, probs):
        out[mask] = out.get(mask, 0.0) + p
    return tuple(out.items())


def test_summed_adds_repeats_in_input_order_and_keeps_first_seen_order():
    d = crs.SupportDistribution.summed((3, 7), [0b10, 0, 0b10, 0b01, 0],
                                       [0.1, 0.2, 0.3, 0.15, 0.25])
    assert d.elements == (3, 7)
    assert d.atoms == ((0b10, 0.1 + 0.3), (0, 0.2 + 0.25), (0b01, 0.15))
    # (0.1 + 0.2) + 0.3 and 0.1 + (0.2 + 0.3) differ in the last bit
    assert crs.SupportDistribution.summed((0,), [1] * 3, [0.1, 0.2, 0.3]).atoms == (
        (1, (0.1 + 0.2) + 0.3),)
    with pytest.raises(ValueError):  # a mask without a probability
        crs.SupportDistribution.summed((0,), [0, 1], [1.0])


def test_summed_equals_the_dict_loop_bit_for_bit():
    rng = np.random.default_rng(21)
    for trial in range(60):
        n = int(rng.choice([1, 8, 20, 62, 63, 100]))
        pool = [int.from_bytes(rng.bytes(13), "little") >> (104 - n) for _ in range(8)]
        masks = [pool[k] for k in rng.integers(0, len(pool), size=int(rng.integers(1, 40)))]
        probs = rng.random(len(masks)) / len(masks)
        want = _dict_loop(masks, probs.tolist())
        for args in ((masks, probs.tolist()), (bitmask.checked(masks, n), probs)):
            got = crs.SupportDistribution.summed(range(n), *args)
            assert got.elements == tuple(range(n))
            assert [m for m, _ in got.atoms] == [m for m, _ in want], trial
            assert [p.hex() for _, p in got.atoms] == [p.hex() for _, p in want], trial


def test_columns_are_the_atoms_in_order_with_wide_masks_as_python_ints():
    d = crs.SupportDistribution.summed(range(5), [3, 0, 16], [0.25, 0.5, 0.25])
    masks, probs = d.columns()
    assert masks.dtype == np.int64 and masks.tolist() == [3, 0, 16]
    assert probs.dtype == float and probs.tolist() == [0.25, 0.5, 0.25]
    narrow = crs.SupportDistribution.summed(range(62), [(1 << 62) - 1], [1.0])
    assert narrow.columns()[0].dtype == np.int64
    wide = crs.SupportDistribution.summed(range(63), [1 << 62, 1], [0.5, 0.5])
    masks, _ = wide.columns()
    assert masks.dtype == object and masks.tolist() == [1 << 62, 1]


def _laws_of_every_builder():
    """Laws built by `summed`, `distinct` (a bid-law DP step), `product` and
    the constructor, narrow and past 62 elements."""
    inst = instances.gen_random(7, 7, 0.7, seed=3)
    params = odrs.scheme_params("odrs")
    dp = odrs.BidLawDP(list(range(inst.n_offline)))
    laws = [dp.step(plan) for plan in odrs.build_plans(inst, params)]
    laws.append(crs.SupportDistribution.distinct((2, 5), np.array([2, 0, 1]),
                                                 np.array([0.5, 0.25, 0.25])))
    laws += [crs.SupportDistribution.summed(range(n), [3, 0, 3, 1 << (n - 1)], [0.25] * 4)
             for n in (5, 63, 70)]
    laws += [crs.SupportDistribution.product(range(n), [0.3, 1.0, 0.0, 0.6, 0.5][:n])
             for n in range(6)]
    laws += [crs.SupportDistribution(tuple(range(n)), ((1 << (n - 1), 0.75), (0, 0.25)))
             for n in (1, 62, 63, 100)]
    return laws


def test_columns_are_the_checked_atoms_bit_for_bit():
    for law in _laws_of_every_builder():
        masks, probs = law.columns()
        want = bitmask.checked([m for m, _ in law.atoms], len(law.elements))
        assert masks.dtype == want.dtype and masks.tolist() == want.tolist()
        assert probs.dtype == float
        assert [p.hex() for p in probs.tolist()] == [p.hex() for _, p in law.atoms]


def test_columns_are_the_same_read_only_arrays_on_every_call():
    for law in _laws_of_every_builder():
        masks, probs = law.columns()
        again = law.columns()
        assert again[0] is masks and again[1] is probs
        for col in (masks, probs):
            with pytest.raises(ValueError):
                col[:1] = 0
    # the columns take no part in == or repr
    fresh = crs.SupportDistribution.product((4, 9), (0.5, 0.25))
    read = crs.SupportDistribution.product((4, 9), (0.5, 0.25))
    text = repr(read)
    read.columns()
    assert read == fresh == crs.SupportDistribution(fresh.elements, fresh.atoms)
    assert repr(read) == text == repr(fresh) == (
        "SupportDistribution(elements=(4, 9), atoms=((0, 0.375), (2, 0.125), (1, 0.375), "
        "(3, 0.125)))")
    assert read != crs.SupportDistribution.product((4, 9), (0.5, 0.5))
    assert hash(read) == hash(fresh)


def test_product_equals_the_nested_loop_bit_for_bit():
    rng = np.random.default_rng(29)
    for n in range(13):
        for trial in range(6):
            probs = rng.random(n)
            # about one entry in four exactly 0.0 or 1.0
            probs[rng.random(n) < 0.25] = rng.choice([0.0, 1.0])
            elements = rng.permutation(40)[:n].tolist()
            got = crs.SupportDistribution.product(elements, probs)
            want = reference_product(elements, probs.tolist())
            assert got.elements == tuple(elements)
            assert [m for m, _ in got.atoms] == [m for m, _ in want], (n, trial)
            assert [q.hex() for _, q in got.atoms] == [q.hex() for _, q in want], (n, trial)
    assert crs.SupportDistribution.product((), ()).atoms == ((0, 1.0),)
    assert crs.SupportDistribution.product((3, 1), (1.0, 0.0)).atoms == ((0b01, 1.0),)


def test_product_refuses_a_wide_or_nan_law_before_it_allocates():
    def peak_bytes(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # numpy's buffers are traced: one of 2^20 floats reads as 8 MB
    assert peak_bytes(lambda: np.ones(1 << 20)) >= 8 << 20
    for probs, error in (([0.5] * 21, SizeError), ([0.5] * 19 + [math.nan], DomainError)):
        def refused():
            with pytest.raises(error):
                crs.SupportDistribution.product(range(len(probs)), probs)
        # the first 19 elements alone would take 2^19 atoms, 8 MB of columns
        assert peak_bytes(refused) < 1 << 20, error


def test_columns_refuse_an_atom_outside_the_elements():
    d = crs.SupportDistribution.summed((4, 5), [0b100], [1.0])
    for read in (d.columns, d.marginals):
        with pytest.raises(DomainError):
            read()


# ----------------------------------------------------------------------------
# list-backed product selector and leaner selector synthesis against the
# dict-built code they replaced
# ----------------------------------------------------------------------------

def test_product_selector_lists_equal_dict_tree():
    rng = np.random.default_rng(21)
    walks = 0
    for n in range(1, 41):
        for _ in range(3):
            y = rng.uniform(0.01, 1.0, size=n)
            y[rng.random(n) < 0.15] = 1.0
            ps = crs.ProductSelector(y)
            ref = reference_product_tree(y.tolist())
            assert (list(ps.children), ps.root, ps.alpha) == (ref.children, ref.root, ref.alpha)
            for node in ref.bid_p:
                assert (ps.bid_p[node], ps.target[node], ps.sub[node]) == \
                    (ref.bid_p[node], ref.target[node], ref.sub[node]), (n, node)
            rows = [tuple(crs.ProductSelector.weights(ref, node, pattern) for pattern in range(4))
                    for node in range(n - 1)]
            assert built_rows(ps) == rows
            for _ in range(20):
                mask = int(rng.integers(0, 1 << n))
                draws = rng.random(n + 1).tolist()
                got_it, want_it = iter(draws), iter(draws)
                got = ps.select(mask, lambda: next(got_it))
                want = reference_product_select(ref, {k for k in range(n) if mask >> k & 1},
                                                lambda: next(want_it), rows)
                # the same winner from the same uniforms, as many of them
                assert (got, list(got_it)) == (want, list(want_it)), (n, mask)
                walks += mask != 0
    assert walks > 2_000


def test_product_selector_init_equals_prod_and_sum():
    # __init__ folds validation, the miss product and the sum into one loop
    # in math.prod's and sum's left-to-right order: alpha, bid_p and target
    # stay bit for bit those of the math.prod/sum tree, with sure bidders
    # (y = 1), one leaf, 64 leaves and all-sure inputs among the cases
    rng = np.random.default_rng(31)
    cases = [[0.3], [1.0], [1.0] * 5, [1.0] * 64]
    for n in (1, 2, 3, 5, 8, 13, 33, 64):
        for _ in range(6):
            y = rng.uniform(0.001, 1.0, size=n)
            y[rng.random(n) < 0.2] = 1.0
            cases.append(y.tolist())
            # small fractions keep the miss product near 1, where a
            # last-bit change in it shows in alpha
            cases.append(rng.uniform(0.001, 0.05, size=n).tolist())
    for y in cases:
        ps = crs.ProductSelector(y)
        ref = reference_product_tree(y)
        assert ps.y == y and ps.n == len(y)
        assert ps.alpha == (1.0 - math.prod(1.0 - p for p in y)) / sum(y) == ref.alpha
        assert len(ps.bid_p) == len(ps.target) == len(ref.bid_p) == 2 * len(y) - 1
        for node in ref.bid_p:
            assert (ps.bid_p[node], ps.target[node]) == (ref.bid_p[node], ref.target[node])
    # a bad value anywhere in the list, or no value at all, is refused
    for bad in ([], [0.0], [0.4, 0.0], [1.5], [0.4, 1.0 + 1e-12], [math.nan],
                [0.4, 0.7, math.nan], [0.4, -0.1], [0.2, math.inf]):
        with pytest.raises(DomainError, match=r"one or more probabilities in \(0, 1\]"):
            crs.ProductSelector(bad)


def _atom_eps_law(rng, k):
    """A random law over k positions with some atoms below ATOM_EPS."""
    masks = rng.choice(1 << k, size=int(rng.integers(2, min(1 << k, 40) + 1)), replace=False)
    probs = rng.random(len(masks))
    probs[rng.random(len(masks)) < 0.2] = crs.ATOM_EPS * rng.random()
    probs /= probs.sum()
    return crs.SupportDistribution(tuple(range(k)), tuple(zip(masks.tolist(), probs.tolist())))


def test_build_selector_equals_dict_built_selector():
    rng = np.random.default_rng(22)
    tiny = zeros = 0
    for trial in range(300):
        k = int(rng.integers(1, 8))
        d = _atom_eps_law(rng, k)
        v = rng.random(k) + 0.02
        if k > 1:
            v[rng.random(k) < 0.3] = 0.0  # zero targets: a proper projection
            v[int(rng.integers(0, k))] += 0.1
        rule = crs.build_selector(d, v)
        rows, alpha = reference_build_selector(d, v)
        assert rule.alpha == alpha and rule.rows == rows, trial
        tiny += any(0 < p < crs.ATOM_EPS for _, p in d.atoms)
        zeros += bool((v == 0).any())
    assert tiny > 50 and zeros > 50


def test_short_phase_then_bfs_equals_full_edmonds_karp(monkeypatch):
    # every selector law odrs and odrs_b compile on small random instances:
    # the rows and alpha equal those of Edmonds-Karp run by BFS alone (laws
    # with zero targets and zero-capacity atoms are checked by
    # test_build_selector_equals_dict_built_selector)
    phases = []  # per build: (flow of the short phase, flow the BFS added)
    shorts = []  # per build: the short phase's arguments and flows
    skipped = 0  # builds whose short phase saturated every sink edge
    short_paths, max_flow = crs._short_paths, crs.FlowNetwork.max_flow

    def short_then(src_cap, members, sink_cap):
        flows, sink_res = short_paths(src_cap, members, sink_cap)
        phases.append([sum(map(sum, flows)), None])
        shorts.append((src_cap, members, sink_cap, flows))
        return flows, sink_res

    def bfs(net, s, t):
        phases[-1][1] = max_flow(net, s, t)
        return phases[-1][1]

    monkeypatch.setattr(crs, "_short_paths", short_then)
    monkeypatch.setattr(crs.FlowNetwork, "max_flow", bfs)
    build = crs.build_selector

    def checked(dist, v):
        nonlocal skipped
        rule = build(dist, v)
        if phases[-1][1] is None:  # build_selector skipped the BFS: it adds nothing
            skipped += 1
            built, _ = crs._selector_network(*shorts[-1])
            net = _copy_network(built)
            phases[-1][1], _ = reference_max_flow(net, 0, net.n - 1)
            assert phases[-1][1] == 0 and net.cap == built.cap
        rows, alpha = reference_build_selector(dist, v)
        assert rule.alpha == alpha and rule.rows == rows, len(phases)
        return rule

    monkeypatch.setattr(crs, "build_selector", checked)
    for name in ("odrs", "odrs_b"):
        for n in range(4, 12):
            odrs.compile_scheme(name, instances.gen_random(n, n, 0.7, n), odrs.scheme_params(name))
    assert len(phases) == 120
    assert sum(more > 0 for _, more in phases) >= 20  # the BFS still has paths to push
    assert sum(more == 0 for _, more in phases) >= 20  # the short phase alone finishes
    assert skipped >= 20


def test_short_paths_skip_saturated_atoms_and_prefer_lower_positions():
    # atoms {0, 1}, {1} (mass 0.25 each) and {0} (0.5); elements 0 and 1
    # take 0.5 each
    q = crs.FLOW_SCALE // 4
    src_cap, members, sink_cap = [q, q, 2 * q], [(0, 1), (1,), (0,)], [2 * q, 2 * q]
    flows, sink_res = crs._short_paths(src_cap, members, sink_cap)
    assert sum(map(sum, flows)) == 3 * q and sink_res == [0, q]
    # atom 0 serves position 0, the lower one; position 1 then passes over the
    # saturated atom 0 to atom 1, which comes before atom 2 of position 0
    assert flows == [[q, 0], [q], [q]]
    # the BFS goes on along src -> atom 2 -> element 0 -> atom 0 -> element 1
    net, mid_edges = crs._selector_network(src_cap, members, sink_cap, flows)
    assert net.n == 7  # src 0, atoms 1-3, elements 4-5, sink 6
    assert net.max_flow(0, 6) == q
    assert [[net.flow_on(e) for e in edges] for edges in mid_edges] == [[0, q], [q], [2 * q]]


def test_build_selector_rejects_atom_probabilities_above_one():
    d = crs.SupportDistribution((0, 1), ((0b01, 1.5), (0b10, -0.5)))
    with pytest.raises(DomainError):
        crs.build_selector(d, [0.5, 0.5])


def test_product_law_needs_one_probability_per_element():
    for elements, probs in (((0, 1), (0.5,)), ((0,), (0.5, 0.5)), ((), (0.5,))):
        with pytest.raises(DomainError):
            crs.SupportDistribution.product(elements, probs)


def test_product_law_rejects_probabilities_outside_unit_interval():
    for p in (1.5, -0.25, math.inf, -math.inf):
        with pytest.raises(DomainError):
            crs.SupportDistribution.product((0, 1), (0.5, p))


def test_product_law_rejects_nan_probabilities():
    with pytest.raises(DomainError):
        crs.SupportDistribution.product((0,), (math.nan,))
    assert crs.SupportDistribution.product((0,), (1.0,)).atoms == ((1, 1.0),)


def test_product_selector_needs_a_bidder():
    with pytest.raises(DomainError):
        crs.ProductSelector([])


def test_balance_ratio_rejects_non_finite_targets():
    d = crs.SupportDistribution.product((0, 1), (0.5, 0.5))
    for v in ([0.5, math.nan], [math.nan, math.nan], [0.5, math.inf], [-math.inf, 0.5]):
        with pytest.raises(DomainError):
            crs.balance_ratio(d, v)
        with pytest.raises(DomainError):
            crs.build_selector(d, v)
