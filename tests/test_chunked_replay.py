"""Run-chunked Monte Carlo replays: every kernel gives the same edge counts,
flags and reports for every chunk size, because each chunk draws the
uniforms that the unchunked replay gives its runs."""

import numpy as np
import pytest

from odrs_lab import apps, bench, instances, odrs, rng
from odrs_lab import level_set as ls
from odrs_lab import stochastic as st
from odrs_lab.errors import DomainError, InvariantBreach
from conftest import digest
from test_replay_kernels import KERNEL, batch_run_with_flags, reference_kernel

CHUNKS = [1, 7, 1000]
UNCHUNKED = 1 << 40


def chunked(monkeypatch, chunk, fn, *args, **kwargs):
    monkeypatch.setattr(rng, "CHUNK_RUNS", chunk)
    try:
        return fn(*args, **kwargs)
    finally:
        monkeypatch.setattr(rng, "CHUNK_RUNS", UNCHUNKED)


def assert_same_triple(got, want):
    assert got[0] == want[0]
    for g_arr, w_arr in zip(got[1:], want[1:]):
        assert g_arr.shape == w_arr.shape and g_arr.dtype == w_arr.dtype
        assert np.array_equal(g_arr, w_arr)


@pytest.mark.parametrize("lo,hi,n_runs", [(0, 5, 5), (0, 3, 10), (3, 10, 10), (6, 7, 13)])
def test_chunk_stream_draws_the_batch_entries_of_its_runs(lo, hi, n_runs):
    g = rng.generator(11, 4)
    batches = [g.random(n_runs) for _ in range(3)]
    part = rng.ChunkStream(11, 4, n_runs, lo, hi)
    for batch in batches:
        assert np.array_equal(part.random(hi - lo), batch[lo:hi])
    with pytest.raises(InvariantBreach):
        part.random(hi - lo + 1)


def test_run_chunks_cover_every_run_once(monkeypatch):
    monkeypatch.setattr(rng, "CHUNK_RUNS", 7)
    assert [(lo, hi) for lo, hi, _ in rng.run_chunks(23, 0, 0)] == \
        [(0, 7), (7, 14), (14, 21), (21, 23)]


# a run count that is a multiple of no chunk size above
N_RUNS = 1003


@pytest.mark.parametrize("scheme,inst", [
    ("odrs", instances.gen_random(8, 10, 0.9, 21)),  # multi-node bins
    ("odrs_b", instances.gen_random(5, 8, 0.8, 41, max_b=3)),  # crossing nodes
    ("warmup", instances.gen_random(6, 8, 0.7, 3)),
    ("warmup", instances.gen_lb_prefix(6)),
])
def test_batch_kernels_are_chunk_invariant(monkeypatch, scheme, inst):
    params = odrs.scheme_params(scheme)
    if scheme == "odrs_b":
        assert any(p.crossing for p in odrs.compile_scheme(scheme, inst, params).plans)
    monkeypatch.setattr(rng, "CHUNK_RUNS", UNCHUNKED)
    want = batch_run_with_flags(scheme, inst, params, N_RUNS, 5)
    for chunk in CHUNKS:
        got = chunked(monkeypatch, chunk, batch_run_with_flags, scheme, inst, params, N_RUNS, 5)
        assert_same_triple(got, want)
    assert chunked(monkeypatch, 7, bench._batch_run, scheme, inst, params, N_RUNS, 5) == want[0]


def test_online_round_batch_is_chunk_invariant(monkeypatch):
    x = [0.3, 0.9, 0.45, 0.2, 0.15]  # padded with a dummy tail element
    monkeypatch.setattr(rng, "CHUNK_RUNS", UNCHUNKED)
    want = ls.online_round_batch(x, N_RUNS, seed=4)
    assert want.shape == (N_RUNS, len(x)) and want.dtype == np.int8
    for chunk in CHUNKS:
        got = chunked(monkeypatch, chunk, ls.online_round_batch, x, N_RUNS, seed=4)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_eval_vs_lp_report_is_chunk_invariant(monkeypatch, matching_params):
    inst = instances.gen_random(4, 4, 0.8, seed=1, stochastic=True)
    monkeypatch.setattr(rng, "CHUNK_RUNS", UNCHUNKED)
    want = st.eval_vs_lp(inst, matching_params, runs=10_007, seed=3)
    for chunk in CHUNKS:
        assert chunked(monkeypatch, chunk, st.eval_vs_lp, inst, matching_params,
                       runs=10_007, seed=3) == want


def test_cover_trials_report_is_chunk_invariant(monkeypatch):
    cov = instances.gen_random_cover(6, 6, d=3, t=2, k=3, seed=8)
    monkeypatch.setattr(rng, "CHUNK_RUNS", UNCHUNKED)
    want = apps.cover_trials(cov, N_RUNS, seed=9)
    for chunk in CHUNKS:
        assert chunked(monkeypatch, chunk, apps.cover_trials, cov, N_RUNS, seed=9) == want


# sha256 of repr(lb_adversary(...)) for LB_ARGS, from the replay that kept
# every run's flags and took the probe's rates from them
LB_ARGS = dict(n=6, n_probe=1003, n_eval=1201, seed=2)
LB_DIGEST = {"warmup": "e6086a9d65bcc168c1489dfda7445743b06c576913d0d341f8a1ae46786d4ee2",
             "odrs": "97d638048d767db88ea8f97415efb1a61cb9894a76257371af52197cf69496dc"}


@pytest.mark.parametrize("scheme", ["warmup", "odrs"])
def test_lb_adversary_reports_are_chunk_invariant(monkeypatch, scheme):
    params = odrs.scheme_params(scheme)
    with monkeypatch.context() as m:
        m.setattr(bench, KERNEL[scheme], reference_kernel(scheme))
        want = bench.lb_adversary(scheme, params=params, **LB_ARGS)
    assert digest(want) == LB_DIGEST[scheme]
    for chunk in CHUNKS:
        assert chunked(monkeypatch, chunk, bench.lb_adversary, scheme, params=params,
                       **LB_ARGS) == want


def test_pair_counts_are_flag_co_occurrences(monkeypatch):
    inst = instances.gen_lb_prefix(6)
    params = odrs.scheme_params("odrs")
    monkeypatch.setattr(rng, "CHUNK_RUNS", UNCHUNKED)
    _, offline, arrival = batch_run_with_flags("odrs", inst, params, N_RUNS, 3)
    pairs = bench._PairCounts()
    chunked(monkeypatch, 7, bench._batch_run, "odrs", inst, params, N_RUNS, 3, on_chunk=pairs)
    for flags, got in ((offline, pairs.offline), (arrival, pairs.arrival)):
        m = flags.shape[1]
        assert got.dtype == np.int64
        assert got.tolist() == [[int(np.count_nonzero(flags[:, a] & flags[:, b]))
                                 for b in range(m)] for a in range(m)]


def test_gram_refuses_a_chunk_past_exact_float32_counts():
    assert rng.CHUNK_RUNS <= bench.FLOAT32_EXACT
    flags = np.broadcast_to(np.ones(2, dtype=bool), (bench.FLOAT32_EXACT + 1, 2))
    with pytest.raises(InvariantBreach, match="exact float32"):
        bench._gram(flags)


def test_run_counts_below_one_are_rejected():
    inst = instances.gen_random(4, 4, 0.8, seed=1)
    for n_runs in (-3, 0):
        with pytest.raises(DomainError, match="at least one run"):
            ls.online_round_batch([0.5, 0.5], n_runs)
        with pytest.raises(DomainError, match="at least one run"):
            bench._batch_run("warmup", inst, None, n_runs, 0)
    with pytest.raises(DomainError, match="at least one run"):
        bench.three_node_impossibility("warmup", n_runs=-5)
    # n_runs 0 (or None) skips the Monte Carlo estimate
    assert all("mc_matched_prob" not in c
               for c in bench.three_node_impossibility("warmup", n_runs=0)["choices"])
