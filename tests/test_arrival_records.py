"""The compiled schemes' arrival records and their scalar interpreter,
`odrs.arrival_step`: golden samples over generated instances, and the P2
check on records that would move a count off its floor and ceiling."""

import pytest

from conftest import digest
from odrs_lab import instances, odrs
from odrs_lab.errors import InvariantBreach
from odrs_lab.instances import Arrival, MatchingInstance

# sha256 of the sorted pairs of `sample(seed)`, seeds 0..4, over the
# instances of `generated`, per scheme
SAMPLE_SHA256 = {
    "warmup": "995544ba594e6ef9cca3dbd85ef825a60f6b0d102faf7124243ba3b675285267",
    "odrs": "584c45f1601affdebca156ce9fba19660de2302b71c699bfd553054d67ce7d6a",
    "odrs_b": "d9c0bba2de0efc4ebf9dbb175e3c44359ea8ac7f57119eb62fabb1a382909dba",
}


def generated(scheme):
    """120 random instances of 3 to 8 offline nodes; b-matchings (capacities
    up to 3, twice as many arrivals) for odrs_b and every other warm-up one."""
    for k in range(120):
        n = 3 + k % 6
        max_b = {"odrs": 1, "odrs_b": 3}.get(scheme, 1 + 2 * (k % 2))
        yield instances.gen_random(n, (1 + (max_b > 1)) * n + k % 3, 0.75, 500 + k, max_b=max_b)


@pytest.mark.parametrize("scheme", sorted(SAMPLE_SHA256))
def test_samples_over_generated_instances_golden(scheme):
    params = odrs.scheme_params(scheme)
    pairs, crossing, rising = [], 0, 0
    for inst in generated(scheme):
        comp = odrs.compile_scheme(scheme, inst, params)
        steps = [step for *_, arrival_steps in comp.arrivals for step in arrival_steps]
        crossing += sum(1 for _, p_lag, _, rises in steps if rises and p_lag == 1.0)
        # a rising floor that an ahead count may follow
        rising += sum(1 for _, _, p_ahead, rises in steps if rises and p_ahead > 0.0)
        pairs.append([sorted(comp.sample(seed).pairs) for seed in range(5)])
    if scheme == "odrs_b":
        assert crossing > 0
    if scheme == "warmup":
        assert rising > 0
    assert digest(pairs) == SAMPLE_SHA256[scheme]


def corrupted(comp, t, change):
    """`comp` with the first step of arrival t's record replaced by
    `change(step)`."""
    k = next(k for k, record in enumerate(comp.arrivals) if record[0] == t)
    *head, steps = comp.arrivals[k]
    comp.arrivals[k] = (*head, [change(steps[0]), *steps[1:]])
    return comp


def test_a_count_pushed_off_its_floor_or_ceiling_is_a_breach():
    # node 0's prefix sum: 1 after arrival 0, then 1.5 and 1.75
    inst = MatchingInstance(1, (2,), (Arrival(((0, 1.0),)), Arrival(((0, 0.5),)),
                                      Arrival(((0, 0.25),))))
    clean = odrs.CompiledWarmup(inst)
    assert clean.arrivals[0][4] == [(0, 1.0, 1.0, True)]
    for seed in range(10):
        clean.sample(seed)
    # below the floor: the floor rises to 1 and the lagging count stays at 0
    low = corrupted(odrs.CompiledWarmup(inst), 0, lambda step: (0, 0.0, 0.0, True))
    # past the ceiling: the count is 2 after arrival 1 (which now bids surely)
    # and bids again where the floor stays at 1
    high = corrupted(corrupted(odrs.CompiledWarmup(inst), 1, lambda step: (0, 1.0, 1.0, False)),
                     2, lambda step: (0, 1.0, 1.0, False))
    for comp in (low, high):
        for seed in range(10):
            with pytest.raises(InvariantBreach, match="prefix count of node 0"):
                comp.sample(seed)
