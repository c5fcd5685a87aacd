"""The warm-up ODRS step and the level-set stream table: golden outputs of
every sampler built on them."""

import numpy as np
import pytest

from conftest import LevelSetState, digest, reference_online_step, reference_product_select
from odrs_lab import apps, crs, instances, odrs
from odrs_lab import level_set as ls
from odrs_lab.instances import Arrival, MatchingInstance
from odrs_lab.rng import ScalarRng

# sha256 of the sorted pairs of CompiledWarmup.sample for seeds 0..4, keyed by
# the gen_random(n, n, 0.7, instance seed) instance
WARMUP_SAMPLE_SHA256 = {
    (8, 0): "1b5a75478bfe85933064a43c1a2ae9aa46a63b7560c6fa2aa9c616ee619bfb6a",
    (8, 1): "1ab92a1843f3ca6b2fca73cb4fb61b083c14b5937d0d0e1206896bca82a9fffe",
    (8, 2): "64862c8c7b542182b66edaa84eb232998a6dc5d3a9f0cd3ac6b159fbfbbbc07a",
    (13, 0): "dfe7df00009c34238100c45a7fcd763e622db593eba977e71db8da020e08b075",
    (13, 1): "55ba7a001b1f1ba77963ec8ece257f25b47ee36d5588389f46accedde864811d",
    (13, 2): "56396dcdc8e339fe2d12a4e11e49b64e7c8a162744ad0f343fa5299f77ce9660",
}


@pytest.mark.parametrize("n, inst_seed", sorted(WARMUP_SAMPLE_SHA256))
def test_warmup_sample_golden(n, inst_seed):
    comp = odrs.CompiledWarmup(instances.gen_random(n, n, 0.7, inst_seed))
    pairs = [sorted(comp.sample(seed).pairs) for seed in range(5)]
    assert digest(pairs) == WARMUP_SAMPLE_SHA256[(n, inst_seed)]


@pytest.mark.parametrize("x, seed, want", [
    ([0.3, 0.9, 0.45, 0.2, 0.15], 2,
     "bc837b2eb1445893be812e37942747a8aa53dc4dbc6d02a5a87ba407fe6b44a2"),
    ([0.5, 0.25, 0.75, 0.5, 0.1], 9,
     "b11f3f8d534e8ffb4da42a72e1d1b0b3b697c81998a07ce093b70b9dae6f2327"),
])
def test_online_round_batch_golden(x, seed, want):
    assert digest(ls.online_round_batch(x, 1000, seed=seed).tobytes()) == want


def test_cover_trials_golden():
    cov = instances.gen_random_cover(6, 6, d=3, t=2, k=3, seed=8)
    rep = apps.cover_trials(cov, 2000, seed=9)
    assert rep["violations"] == 0
    assert digest(sorted(rep.items())) == \
        "f2b5969c5d92f8851c7d97f8ee749a95d6760ed4c86b55c147999360cc7be45e"


# ----------------------------------------------------------------------------
# references: the loops the shared warm-up step and stream table replaced
# ----------------------------------------------------------------------------

def reference_warmup_sample(comp, seed):
    """The row-lookup loop `CompiledWarmup.sample` ran before it drove
    `OnlineWarmup`: each row's probability is looked up by the node's count."""
    rng = ScalarRng(seed)
    counts = [0] * comp.inst.n_offline
    out = odrs.Matching()
    for t, rows in enumerate(comp.steps):
        sel = comp.selectors[t]
        if sel is None:
            continue
        bidders = set()
        for k, (i, fl, lo, hi) in enumerate(rows):
            p = lo if counts[i] == fl else hi
            if rng.uniform() < p:
                counts[i] += 1
                bidders.add(k)
        if bidders:
            win = reference_product_select(sel, bidders, rng.uniform)
            if win >= 0:
                out.add(rows[win][0], t)
    return out


@pytest.mark.parametrize("n, t, max_b", [(3, 6, 1), (6, 6, 1), (10, 8, 1), (6, 9, 3)])
def test_warmup_sample_equals_row_lookup_loop(n, t, max_b):
    for inst_seed in range(8):
        inst = instances.gen_random(n, t, 0.8, inst_seed, max_b=max_b)
        comp = odrs.CompiledWarmup(inst)
        for seed in range(10):
            assert comp.sample(seed).pairs == reference_warmup_sample(comp, seed).pairs


def test_warmup_sample_equals_row_lookup_loop_on_integral_sums():
    # x = 1/2 and 1/4 columns land on integer prefix sums, where floor == ceil
    inst = MatchingInstance(2, (2, 1), tuple(
        Arrival(((0, 0.5), (1, 0.25))) for _ in range(4)))
    comp = odrs.CompiledWarmup(inst)
    for seed in range(50):
        assert comp.sample(seed).pairs == reference_warmup_sample(comp, seed).pairs


def test_online_warmup_builds_the_selector_it_is_not_given():
    inst = instances.gen_random(6, 6, 0.8, 3)
    comp = odrs.CompiledWarmup(inst)
    for seed in range(10):
        with_sel, without = odrs.OnlineWarmup(6), odrs.OnlineWarmup(6)
        rng_a, rng_b = ScalarRng(seed), ScalarRng(seed)
        for edges, sel in zip(comp.edges, comp.selectors):
            assert with_sel.arrive(edges, rng_a, sel) == without.arrive(edges, rng_b)


def _fraction_streams(n_streams=200, length=40):
    g = np.random.default_rng(5)
    nice = np.array([0.5, 0.25, 0.75, 1 / 3, 2 / 3, 0.1, 0.2, 0.3, 1.0, 0.0])
    for k in range(n_streams):
        if k % 2:
            yield g.choice(nice, length).tolist()
        else:
            yield g.random(length).tolist()


def test_step_table_equals_step_probability_on_running_state():
    rng = ScalarRng(1)
    for xs in _fraction_streams():
        state_s, count, state_comp = 0.0, 0, 0.0
        s = comp = 0.0
        for x in xs:
            fl, p_lag, p_ahead = ls.step_table(state_s, x)
            p = p_lag if count == fl else p_ahead
            assert p == ls.step_probability(state_s, count, x)
            _, state_s, count, state_comp = ls.online_step(state_s, count, state_comp, x,
                                                           rng.uniform())
            s, comp = ls.kahan_add(s, comp, x)
            assert (state_s, state_comp) == (s, comp)


class _CountingRng:
    """A ScalarRng whose uniform draws are counted."""

    def __init__(self, seed):
        self.rng = ScalarRng(seed)
        self.draws = 0

    def uniform(self):
        self.draws += 1
        return self.rng.uniform()


def reference_arrive(states, edges, rng):
    """`OnlineWarmup.arrive` as it ran on one frozen `LevelSetState` per
    node, with a fully built selector."""
    bid_mask = 0
    for k, (i, x) in enumerate(edges):
        sel, states[i] = reference_online_step(states[i], x, rng.uniform())
        bid_mask |= sel << k
    if not bid_mask:
        return -1
    sel = crs.ProductSelector([x for _, x in edges])
    bids = {k for k in range(len(edges)) if bid_mask >> k & 1}
    win = reference_product_select(sel, bids, rng.uniform)
    return edges[win][0] if win >= 0 else -1


def test_online_warmup_equals_the_state_list_step():
    g = np.random.default_rng(12)
    arrivals = 0
    for case in range(40):
        n = 2 + case % 12
        warmup, states = odrs.OnlineWarmup(n), [LevelSetState()] * n
        rng_a, rng_b = _CountingRng(case), _CountingRng(case)
        for _ in range(150):
            nodes = np.flatnonzero(g.random(n) < 0.6).tolist()
            xs = g.choice([0.5, 0.25, 1.0], len(nodes)) if case % 2 else \
                g.uniform(0.01, 1.0, len(nodes))
            edges = [(i, float(x)) for i, x in zip(nodes, xs)]
            assert warmup.arrive(edges, rng_a) == reference_arrive(states, edges, rng_b)
            assert rng_a.draws == rng_b.draws
            arrivals += 1
        assert [v.hex() for v in warmup.s] == [st.s_prev.hex() for st in states]
        assert [v.hex() for v in warmup.comp] == [st.comp.hex() for st in states]
        assert warmup.count == [st.count_prev for st in states]
    assert arrivals == 6_000
