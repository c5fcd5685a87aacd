import itertools
import math

import numpy as np
import pytest

from conftest import reference_win_probs
from odrs_lab import crs
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


def test_selector_point_mass_and_empty():
    d = crs.SupportDistribution((1,), ((1, 1.0),))
    rule = crs.build_selector(d, [0.7])
    assert crs.select(rule, 1, 0.3) == 1
    assert crs.select(rule, 0, 0.9) == -1


def test_select_unmodeled_realization():
    d = crs.SupportDistribution.product((0, 1), (0.5, 0.5))
    rule = crs.build_selector(d, [0.5, 0.5])
    with pytest.raises(DomainError, match="unmodeled"):
        crs.select(crs.SelectionRule(rule.elements, {1: rule.rows[1]}, rule.alpha), 2, 0.1)


def test_selection_law_matches_rows():
    d = crs.SupportDistribution.product((0, 1, 2), (0.4, 0.5, 0.3))
    rule = crs.build_selector(d, [0.2, 0.6, 0.2])
    rng = ScalarRng(5)
    counts = {0: 0, 1: 0, 2: 0, -1: 0}
    mask = 0b101
    for _ in range(200_000):
        counts[crs.select(rule, mask, rng.uniform())] += 1
    row = dict(rule.conditional(mask))
    for pos, q in row.items():
        freq = counts[rule.elements[pos]] / 200_000
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


def test_product_selector_rejects_out_of_range_inputs():
    ps = crs.ProductSelector([0.3, 0.4])
    with pytest.raises(DomainError):
        ps.conditional_win_probs([4])
    with pytest.raises(DomainError):
        ps.conditional_win_probs([-1])
    assert ps.conditional_win_probs(np.zeros(0, dtype=np.int64)).shape == (2, 0)
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


def test_product_selector_sampling_size_at_most_one():
    y = [0.3, 0.6, 0.2, 0.5]
    ps = crs.ProductSelector(y)
    rng = ScalarRng(9)
    for _ in range(5000):
        bids = {i for i in range(4) if rng.uniform() < y[i]}
        win = ps.select(bids, rng.uniform)
        assert win == -1 or win in bids


def test_support_distribution_json_export():
    d = crs.SupportDistribution((3, 7), ((0b01, 0.25), (0b10, 0.35), (0, 0.4)))
    doc = d.to_json_dict()
    assert doc["elements"] == [3, 7]
    sets = {tuple(a["set"]) for a in doc["atoms"]}
    assert sets == {(3,), (7,), ()}
