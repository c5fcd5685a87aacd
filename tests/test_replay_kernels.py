"""The node-major batch kernels against the run-major loops they replaced:
edge counts, both matched-flag arrays and the `eval_vs_lp` report must be
equal exactly, not within a tolerance (every draw stays in the same order)."""

import math

import numpy as np
import pytest

from conftest import reference_win_probs
from odrs_lab import bench, instances, odrs
from odrs_lab import stochastic as st
from odrs_lab.rng import generator


# ----------------------------------------------------------------------------
# run-major references: state stored as (runs, n)
# ----------------------------------------------------------------------------

def reference_draw_batch(gb, u):
    chosen = np.full(len(u), -1, dtype=np.int64)
    acc = 0.0
    for node, sz in zip(gb.nodes, gb.sizes):
        acc += sz
        chosen[(chosen < 0) & (u < acc)] = node
    return chosen


def reference_selection_table(rows_for, k):
    table = np.zeros((1 << k, k))
    for mask in range(1, 1 << k):
        row = rows_for(mask)
        if row is None:
            continue
        acc = np.zeros(k)
        for pos, q in row:
            acc[pos] = q
        table[mask] = np.cumsum(acc)
    return table


def reference_batch_odrs(comp, n_runs, seed):
    g = generator(seed, 13)
    n = comp.inst.n_offline
    ahead = np.zeros((n_runs, n), dtype=bool)
    offline_matched = np.zeros((n_runs, n), dtype=bool)
    arrival_matched = np.zeros((n_runs, len(comp.plans)), dtype=bool)
    edge_counts = {}
    for plan, selector in zip(comp.plans, comp.selectors):
        if selector is None:
            continue
        active = list(selector.elements)
        apos = {i: k for k, i in enumerate(active)}
        bid_mask = np.zeros(n_runs, dtype=np.int64)
        for gb in plan.bins:
            chosen = reference_draw_batch(gb, g.random(n_runs))
            for node in gb.nodes:
                hit = (chosen == node) & ~ahead[:, node]
                ahead[hit, node] = True
                bid_mask[hit] |= 1 << apos[node]
        for cn in plan.crossing:
            heads = g.random(n_runs) < cn.takeover
            lag = ~ahead[:, cn.node]
            bid_mask[lag | heads] |= 1 << apos[cn.node]
            ahead[:, cn.node] &= heads
        table = reference_selection_table(lambda m: selector.rows.get(m), len(active))
        cum = table[bid_mask]
        u = g.random(n_runs)
        winners = (u[:, None] < cum).argmax(axis=1)
        won = u < cum[:, -1]
        for k, node in enumerate(active):
            rows = won & (winners == k)
            cnt = int(rows.sum())
            if cnt:
                edge_counts[(node, plan.t)] = edge_counts.get((node, plan.t), 0) + cnt
                offline_matched[rows, node] = True
                arrival_matched[rows, plan.t] = True
    return edge_counts, offline_matched, arrival_matched


def reference_batch_warmup(comp, n_runs, seed):
    g = generator(seed, 13)
    n = comp.inst.n_offline
    counts = np.zeros((n_runs, n), dtype=np.int64)
    offline_matched = np.zeros((n_runs, n), dtype=bool)
    arrival_matched = np.zeros((n_runs, len(comp.steps)), dtype=bool)
    edge_counts = {}
    for t, rows in enumerate(comp.steps):
        sel = comp.selectors[t]
        if sel is None:
            continue
        k = len(rows)
        bid_mask = np.zeros(n_runs, dtype=np.int64)
        for pos, (i, fl, lo, hi) in enumerate(rows):
            p = np.where(counts[:, i] == fl, lo, hi)
            bid = g.random(n_runs) < p
            counts[bid, i] += 1
            bid_mask[bid] |= 1 << pos

        def rows_for(mask, sel=sel, k=k):
            probs = reference_win_probs(sel, {p for p in range(k) if mask >> p & 1})
            return [(p, float(probs[p])) for p in range(k)]

        table = reference_selection_table(rows_for, k)
        cum = table[bid_mask]
        u = g.random(n_runs)
        winners = (u[:, None] < cum).argmax(axis=1)
        won = u < cum[:, -1]
        for pos, (i, _, _, _) in enumerate(rows):
            sel_rows = won & (winners == pos)
            cnt = int(sel_rows.sum())
            if cnt:
                edge_counts[(i, t)] = edge_counts.get((i, t), 0) + cnt
                offline_matched[sel_rows, i] = True
                arrival_matched[sel_rows, t] = True
    return edge_counts, offline_matched, arrival_matched


def reference_eval_vs_lp(inst, params, runs, seed):
    lp = st.build_lp(inst)
    sol = st.solve_lp(lp)
    plans = st.build_stochastic_plans(inst, sol.x, params)
    g = generator(seed, 7)
    n = inst.n_offline
    matched = np.zeros((runs, n), dtype=bool)
    weight = np.zeros(runs)
    for plan in plans:
        bid = np.zeros((runs, n), dtype=bool)
        for gb in plan.bins:
            chosen = reference_draw_batch(gb, g.random(runs))
            for node in gb.nodes:
                rows = chosen == node
                if rows.any():
                    bid[rows, node] = ~matched[rows, node]
        arrived = g.random(runs) < plan.p
        order = sorted(plan.weights, key=lambda i: (-plan.weights[i], i))
        taken = np.zeros(runs, dtype=bool)
        for node in order:
            take = arrived & ~taken & bid[:, node]
            if take.any():
                matched[take, node] = True
                weight[take] += plan.weights[node]
                taken |= take
    mean = float(weight.mean())
    se = float(weight.std(ddof=1) / math.sqrt(runs)) if runs > 1 else 0.0
    if sol.value <= 0:
        ratio, ci = 1.0, 0.0
    else:
        ratio = mean / sol.value
        ci = 1.96 * se / sol.value
    report = {"runs": runs, "mean_weight": mean, "se": se,
              "lp_value": sol.value, "ratio": ratio, "ratio_ci95": ci}
    if inst.n_offline <= 12:
        report["exact_threshold_margin"] = st.exact_threshold_check(inst, sol.x, params)
        report["exact_threshold_ok"] = True
    return report


REFERENCE = {"warmup": reference_batch_warmup, "odrs": reference_batch_odrs,
             "odrs_b": reference_batch_odrs}


def assert_same_replay(scheme, inst, n_runs, seed):
    params = odrs.scheme_params(scheme)
    want = REFERENCE[scheme](odrs.compile_scheme(scheme, inst, params), n_runs, seed)
    got = bench._batch_run(scheme, inst, params, n_runs, seed)
    assert got[0] == want[0]
    for g_arr, w_arr in zip(got[1:], want[1:]):
        assert g_arr.shape == w_arr.shape and g_arr.dtype == w_arr.dtype
        assert np.array_equal(g_arr, w_arr)
    return got


# ----------------------------------------------------------------------------
# tests
# ----------------------------------------------------------------------------

@pytest.mark.parametrize("scheme", ["warmup", "odrs", "odrs_b"])
@pytest.mark.parametrize("n,seed", [(6, 3), (9, 12), (12, 5)])
def test_kernels_match_run_major_on_random_instances(scheme, n, seed):
    inst = instances.gen_random(n, n, 0.7, seed, max_b=3 if scheme == "odrs_b" else 1)
    assert_same_replay(scheme, inst, 3001, seed + 1)


def test_odrs_kernel_matches_on_multi_node_bins():
    inst = instances.gen_random(8, 10, 0.9, 21)
    comp = odrs.compile_scheme("odrs", inst, odrs.scheme_params("odrs"))
    assert any(len(gb.nodes) > 1 for plan in comp.plans for gb in plan.bins)
    counts, _, _ = assert_same_replay("odrs", inst, 5000, 4)
    assert counts


@pytest.mark.parametrize("scheme", ["warmup", "odrs"])
def test_kernels_match_with_more_than_eight_bidders(scheme):
    # bid masks past the low byte
    inst = instances.gen_random(12, 3, 0.95, 2)
    assert max(len(arr.edges) for arr in inst.arrivals) > 8
    assert_same_replay(scheme, inst, 4000, 6)


def test_odrs_b_kernel_matches_with_crossing_nodes():
    inst = instances.gen_random(5, 8, 0.8, 41, max_b=3)
    comp = odrs.compile_scheme("odrs_b", inst, odrs.scheme_params("odrs_b"))
    assert any(plan.crossing for plan in comp.plans)
    assert_same_replay("odrs_b", inst, 4000, 8)


@pytest.mark.parametrize("scheme", ["warmup", "odrs"])
def test_kernels_match_on_lower_bound_prefix(scheme):
    assert_same_replay(scheme, instances.gen_lb_prefix(12), 2000, 9)


@pytest.mark.parametrize("scheme", ["warmup", "odrs"])
def test_lb_adversary_report_unchanged(scheme):
    params = odrs.scheme_params(scheme)

    def reference(inst, n_runs, seed):
        return REFERENCE[scheme](odrs.compile_scheme(scheme, inst, params), n_runs, seed)

    args = dict(n=8, n_probe=3000, n_eval=5000, seed=2, params=params)
    assert bench.lb_adversary(scheme, **args) == bench.lb_adversary(reference, **args)


def test_settle_is_first_true_rule_on_non_monotone_rows():
    # rows with negative entries, as a product selector's weights may carry
    rng = np.random.default_rng(0)
    k, n_runs = 3, 5000
    table = np.cumsum(rng.uniform(-0.3, 0.5, size=(1 << k, k)), axis=1)
    bid_mask = rng.integers(0, 1 << k, size=n_runs)
    u = rng.random(n_runs)
    cum = table[bid_mask]
    winners = (u[:, None] < cum).argmax(axis=1)
    won = u < cum[:, -1]
    replay = bench._Replay(k, 1, n_runs)
    replay.settle(0, list(range(k)), np.ascontiguousarray(table.T), bid_mask, u)
    for pos in range(k):
        assert np.array_equal(replay.offline[pos], won & (winners == pos))
        assert replay.counts.get((pos, 0), 0) == int((won & (winners == pos)).sum())
    assert np.array_equal(replay.arrival[0], won)


@pytest.mark.parametrize("n,seed", [(6, 1), (8, 4), (12, 0)])
def test_eval_vs_lp_matches_run_major(matching_params, n, seed):
    inst = instances.gen_random(n, n, 0.7, seed, stochastic=True)
    got = st.eval_vs_lp(inst, matching_params, runs=20_000, seed=seed + 3)
    assert got == reference_eval_vs_lp(inst, matching_params, 20_000, seed + 3)
