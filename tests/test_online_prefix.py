"""Every compiled scheme is online: what it does at arrival t depends on the
arrivals before t only. Compiling a prefix `arrivals[:t]` gives the full
compile's exact match probabilities for those arrivals bit for bit, and a
sample of the prefix is the full sample's pairs at arrivals before t."""

import pytest

from odrs_lab import instances, odrs
from odrs_lab.instances import MatchingInstance


@pytest.mark.parametrize("scheme", ["warmup", "odrs", "odrs_b"])
def test_a_prefix_compiles_and_samples_as_the_full_instance_does(scheme):
    params = odrs.scheme_params(scheme)
    prefixes = 0
    for seed in range(5):
        inst = instances.gen_random(7, 8, 0.6, seed, max_b=2 if scheme == "odrs_b" else 1)
        full = odrs.compile_scheme(scheme, inst, params)
        probs = full.edge_match_probs()
        samples = {s: full.sample(s).pairs for s in range(3)}
        for t in range(1, inst.n_arrivals + 1):
            head = MatchingInstance(inst.n_offline, inst.capacities, inst.arrivals[:t])
            prefix = odrs.compile_scheme(scheme, head, params)
            want = {e: p for e, p in probs.items() if e[1] < t}
            assert repr(prefix.edge_match_probs()) == repr(want)  # bit for bit, -0.0 too
            for s, pairs in samples.items():
                assert prefix.sample(s).pairs == [(i, u) for i, u in pairs if u < t]
            prefixes += 1
    assert prefixes >= 35
