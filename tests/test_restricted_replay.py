"""Batch replays restricted to some offline components (`_batch_run(...,
nodes=...)`): the kept arrivals' edge counts equal the full replay's integer
for integer, because components evolve independently and every skipped
arrival's batches are skipped whole."""

import numpy as np
import pytest

from odrs_lab import bench, instances, odrs, rng
from odrs_lab.errors import DomainError
from odrs_lab.instances import Arrival, MatchingInstance

# a run count that is a multiple of no chunk size below
N_RUNS = 1003
CHUNKS = [7, 1000]


def interleave(*parts: MatchingInstance) -> MatchingInstance:
    """The disjoint union of the parts: part k's offline ids are shifted past
    the earlier parts', and the arrivals alternate between the parts (one
    from each in turn while they last), so skipped and kept arrivals mix."""
    offsets, caps = [], ()
    for part in parts:
        offsets.append(len(caps))
        caps += part.capacities
    arrivals = []
    for t in range(max(part.n_arrivals for part in parts)):
        for part, off in zip(parts, offsets):
            if t < part.n_arrivals:
                arr = part.arrivals[t]
                arrivals.append(Arrival(tuple((i + off, x) for i, x in arr.edges),
                                        arr.weights, arr.p))
    inst = MatchingInstance(len(caps), caps, tuple(arrivals))
    instances.validate(inst).raise_if_invalid()
    return inst


CASES = [
    ("warmup", interleave(instances.gen_random(5, 6, 0.7, 3), instances.gen_lb_prefix(4))),
    ("odrs", interleave(instances.gen_random(6, 7, 0.9, 21), instances.gen_random(4, 5, 0.8, 2),
                        instances.gen_lb_prefix(3))),
    ("odrs_b", interleave(instances.gen_random(5, 8, 0.8, 41, max_b=3),
                          instances.gen_random(4, 6, 0.8, 7, max_b=3), instances.gen_lb_prefix(3))),
]


@pytest.mark.parametrize("scheme,inst", CASES)
def test_restricted_counts_equal_the_full_replay(monkeypatch, scheme, inst):
    params = odrs.scheme_params(scheme)
    comp = odrs.compile_scheme(scheme, inst, params)
    if scheme == "odrs_b":
        assert any(plan.crossing for plan in comp.plans)
    labels = odrs._components(inst)
    parts = [[i for i, lab in enumerate(labels) if lab == root] for root in sorted(set(labels))]
    assert len(parts) > 1
    # one node, or the first and last node, of each component; then the
    # first two components together
    node_sets = [part[:1] for part in parts] + [[part[0], part[-1]] for part in parts]
    node_sets.append(parts[0][:1] + parts[1][-1:])
    with_selector = {t for t, sel in enumerate(comp.selectors) if sel is not None}
    full = bench._batch_run(scheme, inst, params, N_RUNS, 5)
    skips_between = 0  # node sets with a skipped arrival between kept ones
    # node sets whose skips a kernel folds: two or more skipped arrivals in a
    # row before a kept one, skipped arrivals before the first kept one, and
    # skipped arrivals after the last kept one (never drawn)
    folded = leading = trailing = 0
    for chunk in CHUNKS:
        monkeypatch.setattr(rng, "CHUNK_RUNS", chunk)
        assert bench._batch_run(scheme, inst, params, N_RUNS, 5) == full
        for nodes in node_sets:
            kept = bench._component_arrivals(inst, nodes)
            skipped = with_selector - kept
            # something is skipped unless every component is kept
            assert kept & with_selector and (skipped or len(parts) == 2 == len(nodes))
            skips_between += any(min(kept) < t < max(kept) for t in skipped)
            pattern = "".join("k" if t in kept else "s" for t in sorted(with_selector))
            folded += "ssk" in pattern
            leading += pattern.startswith("s")
            trailing += pattern.endswith("s")
            got = bench._batch_run(scheme, inst, params, N_RUNS, 5, nodes=nodes)
            assert got and got == {key: cnt for key, cnt in full.items() if key[1] in kept}
        everyone = bench._batch_run(scheme, inst, params, N_RUNS, 5,
                                    nodes=range(inst.n_offline))
        assert everyone == full
    assert skips_between and folded and leading and trailing


def test_component_arrivals_follow_positive_fractions():
    # arrival 1 links nodes 0 and 1 only through a zero fraction
    inst = MatchingInstance(3, (1, 1, 1), (
        Arrival(((0, 0.5),)), Arrival(((0, 0.25), (1, 0.0))), Arrival(((1, 0.5), (2, 0.5))),
        Arrival(((2, 0.25),)), Arrival(((0, 0.0),))))
    assert bench._component_arrivals(inst, [0]) == {0, 1}
    assert bench._component_arrivals(inst, [2]) == {2, 3}
    assert bench._component_arrivals(inst, (1, 0)) == {0, 1, 2, 3}
    assert bench._component_arrivals(inst, []) == set()


@pytest.mark.parametrize("lo,hi,n_runs", [(0, 5, 5), (0, 7, 13), (7, 13, 13), (3, 10, 10)])
@pytest.mark.parametrize("k", [0, 1, 3])
def test_chunk_stream_skip_equals_drawing_and_discarding(lo, hi, n_runs, k):
    g = rng.generator(11, 4)
    batches = [g.random(n_runs) for _ in range(k + 3)]
    skipping = rng.ChunkStream(11, 4, n_runs, lo, hi)
    drawing = rng.ChunkStream(11, 4, n_runs, lo, hi)
    assert np.array_equal(skipping.random(hi - lo), drawing.random(hi - lo))
    skipping.skip(k)
    for _ in range(k):
        drawing.random(hi - lo)
    for batch in batches[k + 1:]:
        want = drawing.random(hi - lo)
        assert np.array_equal(want, batch[lo:hi])
        assert np.array_equal(skipping.random(hi - lo), want)


def full_batch_run(monkeypatch):
    """Make `bench._batch_run` ignore `nodes`, so every replay is full."""
    batch_run = bench._batch_run

    def full(*args, nodes=None, **kwargs):
        return batch_run(*args, **kwargs)

    monkeypatch.setattr(bench, "_batch_run", full)


@pytest.mark.parametrize("scheme", ["warmup", "odrs"])
def test_lb_adversary_reports_equal_the_full_replay(monkeypatch, scheme):
    params = odrs.scheme_params(scheme)
    runs = [dict(n=n, n_probe=2001, n_eval=3001, seed=seed, params=params)
            for n, seed in ((5, 0), (6, 1), (7, 2), (9, 3))]
    got = [bench.lb_adversary(scheme, **args) for args in runs]
    full_batch_run(monkeypatch)
    assert got == [bench.lb_adversary(scheme, **args) for args in runs]


def test_restriction_refuses_flags_and_unknown_nodes():
    inst = instances.gen_lb_prefix(4)
    with pytest.raises(DomainError, match="no matched flags"):
        bench._batch_run("warmup", inst, None, 1000, 0, on_chunk=lambda off, arr: None,
                         nodes=[0])
    for nodes in ([8], [-1], [0, 9]):
        with pytest.raises(DomainError, match="not all in"):
            bench._batch_run("warmup", inst, None, 1000, 0, nodes=nodes)
