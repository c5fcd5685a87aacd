"""The numpy bid-law DP against the plain dict loop it replaced: laws (atoms
and their order) and states must be equal bit for bit, not within a tolerance."""

import numpy as np
import pytest

from odrs_lab import crs, instances, odrs
from odrs_lab.errors import InvariantBreach
from odrs_lab.instances import Arrival, MatchingInstance


def reference_outcomes(bins, crossing=()):
    """The dict enumeration `odrs.outcome_masks` replaced: every joint
    candidate outcome of one arrival as (candidate dict, probability), the
    dict mapping each drawn node to its unit kind ('bin' or 'cross')."""
    units = [("bin", [(None, 1.0 - sum(gb.sizes)), *zip(gb.nodes, gb.sizes)]) for gb in bins]
    units += [("cross", [(cn.node, cn.takeover), (None, 1.0 - cn.takeover)])
              for cn in crossing]
    outcomes = [({}, 1.0)]
    for kind, outs in units:
        outcomes = [(cand if node is None else {**cand, node: kind}, pr * p)
                    for cand, pr in outcomes for node, p in outs if p > 0.0]
    return outcomes


class ReferenceBidLawDP:
    """The dict-of-masks × enumerated-outcomes loop, kept as the reference."""

    def __init__(self, nodes):
        self.nodes = sorted(nodes)
        self.pos = {i: k for k, i in enumerate(self.nodes)}
        self.state = {0: 1.0}

    def step(self, plan):
        active = plan.active()
        apos = {i: k for k, i in enumerate(active)}
        outcomes = reference_outcomes(plan.bins, plan.crossing)
        law = {}
        new_state = {}
        bin_nodes = [node for gb in plan.bins for node in gb.nodes]
        for mask, pr in self.state.items():
            for cand, cpr in outcomes:
                p = pr * cpr
                if p <= 0.0:
                    continue
                bid_mask = 0
                new_mask = mask
                for node in bin_nodes:
                    if cand.get(node) == "bin" and not (mask >> self.pos[node] & 1):
                        bid_mask |= 1 << apos[node]
                        new_mask |= 1 << self.pos[node]
                for cn in plan.crossing:
                    k = self.pos[cn.node]
                    heads = cand.get(cn.node) == "cross"
                    if not (mask >> k & 1):
                        bid_mask |= 1 << apos[cn.node]
                    elif heads:
                        bid_mask |= 1 << apos[cn.node]
                    else:
                        new_mask &= ~(1 << k)
                law[bid_mask] = law.get(bid_mask, 0.0) + p
                new_state[new_mask] = new_state.get(new_mask, 0.0) + p
        self.state = {m: q for m, q in new_state.items() if q > 1e-15}
        total = 0.0  # left to right, as sum() adds floats before Python 3.12
        for q in self.state.values():
            total += q
        self.state = {m: q / total for m, q in self.state.items()}
        return crs.SupportDistribution(tuple(active), tuple(law.items()))


def assert_same_dp(inst, params):
    """Step both DPs over every arrival; return the plans."""
    plans = odrs.build_plans(inst, params)
    nodes = list(range(inst.n_offline))
    new, ref = odrs.BidLawDP(nodes), ReferenceBidLawDP(nodes)
    for plan in plans:
        got, want = new.step(plan), ref.step(plan)
        assert got.elements == want.elements
        assert got.atoms == want.atoms  # same masks, same order, same floats
        assert list(new.state.items()) == list(ref.state.items())
    return plans


def test_outcome_masks_equal_reference(matching_params, b_matching_params):
    """Masks, probabilities and order of every plan's outcomes, bit for bit."""
    cases = [(instances.gen_random(n, n + 2, 0.6, seed=seed), matching_params)
             for n in range(3, 9) for seed in range(2)]
    cases += [(instances.gen_random(6, 12, 0.7, seed=seed, max_b=3), b_matching_params)
              for seed in range(2)]
    crossed = 0
    for inst, params in cases:
        for plan in odrs.build_plans(inst, params):
            crossed += len(plan.crossing)
            pos = {i: (7 * i) % 11 for i in range(inst.n_offline)}  # not the identity
            drawn, heads, probs = odrs.outcome_masks(plan.bins, plan.crossing, pos)
            want = reference_outcomes(plan.bins, plan.crossing)
            assert probs.tolist() == [p for _, p in want]
            for kind, got in (("bin", drawn), ("cross", heads)):
                assert got.tolist() == [sum(1 << pos[i] for i, k in cand.items() if k == kind)
                                        for cand, _ in want]
    assert crossed > 0


@pytest.mark.parametrize("n", range(3, 11))
def test_matching_laws_equal_reference(matching_params, n):
    for seed in range(3):
        assert_same_dp(instances.gen_random(n, n + 2, 0.6, seed=seed), matching_params)


@pytest.mark.parametrize("seed", range(4))
def test_b_matching_laws_equal_reference(b_matching_params, seed):
    inst = instances.gen_random(6, 12, 0.7, seed=seed, max_b=3)
    plans = assert_same_dp(inst, b_matching_params)
    assert any(plan.crossing for plan in plans)


def test_laws_equal_reference_across_chunk_edges(matching_params, monkeypatch):
    """Chunks smaller than one state's outcomes, and chunks that split the
    state list unevenly."""
    inst = instances.gen_random(7, 9, 0.6, seed=1)
    for budget in (1, 5, 64):
        monkeypatch.setattr(odrs, "CHUNK_PAIRS", budget)
        assert_same_dp(inst, matching_params)


def test_compiled_component_laws_equal_reference(matching_params):
    """Per-component DPs, as CompiledOdrs runs them."""
    inst = instances.gen_lb_prefix(3)
    comp = odrs.CompiledOdrs(inst, matching_params)
    labels = odrs._components(inst)
    refs = {lab: ReferenceBidLawDP([i for i in range(inst.n_offline) if labels[i] == lab])
            for lab in set(labels)}
    for plan, law in zip(comp.plans, comp.laws):
        if law is not None:
            want = refs[labels[plan.active()[0]]].step(plan)
            assert (law.elements, law.atoms) == (want.elements, want.atoms)


def test_dropped_state_entry_matches_reference(matching_params):
    """Both nodes ahead has mass ~1e-16 <= 1e-15: dropped, the rest renormalized."""
    tiny = 1e-8
    inst = MatchingInstance(2, (1, 1), (Arrival(((0, tiny),)), Arrival(((1, tiny),)),
                                        Arrival(((0, 0.5), (1, 0.5)))))
    plans = odrs.build_plans(inst, matching_params)
    dp, ref = odrs.BidLawDP([0, 1]), ReferenceBidLawDP([0, 1])
    for plan in plans[:2]:
        assert dp.step(plan).atoms == ref.step(plan).atoms
    ahead = [plans[t].xhat[t] for t in range(2)]
    assert 0.0 < ahead[0] * ahead[1] <= 1e-15
    assert set(dp.state) == {0, 1, 2}  # mask 0b11 was dropped
    assert list(dp.state.items()) == list(ref.state.items())
    assert dp.step(plans[2]).atoms == ref.step(plans[2]).atoms
    assert list(dp.state.items()) == list(ref.state.items())


def test_dropped_mass_above_the_bound_is_a_breach(matching_params, monkeypatch):
    """The same ~1e-16 drop as above, against a bound below it."""
    tiny = 1e-8
    inst = MatchingInstance(2, (1, 1), (Arrival(((0, tiny),)), Arrival(((1, tiny),)),
                                        Arrival(((0, 0.5), (1, 0.5)))))
    plans = odrs.build_plans(inst, matching_params)
    dp = odrs.BidLawDP([0, 1])
    dp.step(plans[0])
    assert dp.dropped == 0.0
    monkeypatch.setattr(odrs, "DROP_MASS_BOUND", 1e-17)
    with pytest.raises(InvariantBreach, match="dropped state mass"):
        dp.step(plans[1])
    with pytest.raises(InvariantBreach, match="dropped state mass"):
        odrs.CompiledOdrs(inst, matching_params)


def test_suite_instances_drop_far_less_than_the_bound(matching_params, b_matching_params):
    """The instance families the suite compiles, up to the widest dense
    b-matching one: drops happen, each step's is far below the bound."""
    cases = [(instances.gen_random(n, n + 2, 0.6, seed=seed), matching_params)
             for n in range(3, 11) for seed in range(3)]
    cases += [(instances.gen_random(6, 12, 0.7, seed=seed, max_b=3), b_matching_params)
              for seed in range(4)]
    cases += [(instances.gen_random(11, 11, 0.7, seed=seed, max_b=b), params)
              for seed in range(3) for b, params in ((1, matching_params), (3, b_matching_params))]
    cases.append((instances.gen_random(12, 24, 0.9, seed=1, max_b=3), b_matching_params))
    worst, total = 0.0, 0.0
    for inst, params in cases:
        dp = odrs.BidLawDP(list(range(inst.n_offline)))
        for plan in odrs.build_plans(inst, params):
            before = dp.dropped
            dp.step(plan)
            worst = max(worst, dp.dropped - before)
        total += dp.dropped
    assert total > 0.0
    assert worst < 1e-3 * odrs.DROP_MASS_BOUND


def test_pairs_of_probability_zero_are_skipped():
    """A (state, outcome) pair whose probability underflows to zero reaches
    no bid mask and no state, as in the reference loop: here it would have
    put bid mask 0b01 before 0b10."""
    plan = odrs.StepPlan(0, {0: 0.5, 1: 0.5}, {0: 0.5, 1: 0.5},
                         bins=[odrs.GroupBin([0, 1], [1e-200, 0.5])])
    dp, ref = odrs.BidLawDP([0, 1]), ReferenceBidLawDP([0, 1])
    dp.masks, dp.probs = np.array([0, 0b10]), np.array([1e-200, 1.0])
    ref.state = {0: 1e-200, 0b10: 1.0}
    got, want = dp.step(plan), ref.step(plan)
    assert [m for m, _ in want.atoms] == [0, 0b10, 0b01]
    assert got.atoms == want.atoms
    assert list(dp.state.items()) == list(ref.state.items())
