"""The node-major batch kernels against the run-major loops they replaced:
edge counts, both matched-flag arrays (gathered through `on_chunk`) and the
`eval_vs_lp` report must be equal exactly, not within a tolerance (every
draw stays in the same order). The touch-analysis cases pin the rows where a
kernel skips work (`rng.touch_marks`): nodes touched once, crossing coins at
a node's first or last touch, warm-up rows with p_lag == p_ahead, replays
restricted by `keep`, and level-set streams that start at 0 or 1."""

import math

import numpy as np
import pytest

from conftest import reference_win_probs, warmup_rows
from odrs_lab import bench, instances, level_set, odrs
from odrs_lab import stochastic as st
from odrs_lab.instances import Arrival, MatchingInstance
from odrs_lab.rng import generator, touch_marks


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
    all_rows = warmup_rows(comp)
    arrival_matched = np.zeros((n_runs, len(all_rows)), dtype=bool)
    edge_counts = {}
    for t, rows in enumerate(all_rows):
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
# the bench kernel that replays each scheme
KERNEL = {"warmup": "_batch_warmup", "odrs": "_batch_odrs", "odrs_b": "_batch_odrs"}


def reference_kernel(scheme):
    """A stand-in for the scheme's bench kernel that runs the run-major
    reference and hands all of its runs' flags to `on_chunk` as one chunk. It
    ignores `keep` and replays every arrival, so its counts are the full
    replay's."""
    def kernel(comp, n_runs, seed, on_chunk=None, keep=None):
        counts, offline, arrival = REFERENCE[scheme](comp, n_runs, seed)
        if on_chunk is not None:
            on_chunk(offline, arrival)
        return counts
    return kernel


def batch_run_with_flags(*args):
    """`bench._batch_run(*args)` with every run's matched flags, gathered
    through `on_chunk` in run order: (edge counts, offline, arrival)."""
    offline, arrival = [], []

    def keep(off, arr):
        offline.append(off)
        arrival.append(arr)

    counts = bench._batch_run(*args, on_chunk=keep)
    return counts, np.concatenate(offline), np.concatenate(arrival)


def assert_same_replay(scheme, inst, n_runs, seed):
    params = odrs.scheme_params(scheme)
    want = REFERENCE[scheme](odrs.compile_scheme(scheme, inst, params), n_runs, seed)
    got = batch_run_with_flags(scheme, inst, params, n_runs, seed)
    assert got[0] == want[0]
    for g_arr, w_arr in zip(got[1:], want[1:]):
        assert g_arr.shape == w_arr.shape and g_arr.dtype == w_arr.dtype
        assert np.array_equal(g_arr, w_arr)
    return got


# ----------------------------------------------------------------------------
# tests
# ----------------------------------------------------------------------------

def rising_rows(comp):
    """The warm-up rows (node, floor, p_lag, p_ahead) whose node's next row
    has a higher floor: the rows where the replay's `ahead` bit is and-ed
    with the bid, not or-ed."""
    rows = [row for arrival_rows in warmup_rows(comp) for row in arrival_rows]
    out = []
    for k, (i, fl, _, _) in enumerate(rows):
        later = [fl_next for j, fl_next, _, _ in rows[k + 1:] if j == i]
        if later and later[0] > fl:
            out.append(rows[k])
    return out


@pytest.mark.parametrize("scheme,max_b,t_per_n", [
    pytest.param("warmup", 1, 1, id="warmup"), pytest.param("odrs", 1, 1, id="odrs"),
    pytest.param("odrs_b", 3, 1, id="odrs_b"),
    # capacities up to 3 and 2n arrivals: node streams pass integer floors
    pytest.param("warmup", 3, 2, id="warmup_b")])
@pytest.mark.parametrize("n,seed", [(6, 3), (9, 12), (12, 5)])
def test_kernels_match_run_major_on_random_instances(scheme, max_b, t_per_n, n, seed):
    inst = instances.gen_random(n, t_per_n * n, 0.7, seed, max_b=max_b)
    if scheme == "warmup" and max_b > 1:
        # a rising row that is not a last touch, where an ahead run may bid
        comp = odrs.compile_scheme(scheme, inst, None)
        assert any(0 < p_ahead for _, _, _, p_ahead in rising_rows(comp))
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
def test_lb_adversary_report_unchanged(monkeypatch, scheme):
    args = dict(n=8, n_probe=3000, n_eval=5000, seed=2, params=odrs.scheme_params(scheme))
    got = bench.lb_adversary(scheme, **args)
    monkeypatch.setattr(bench, KERNEL[scheme], reference_kernel(scheme))
    assert got == bench.lb_adversary(scheme, **args)


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


# ----------------------------------------------------------------------------
# touch analysis
# ----------------------------------------------------------------------------

def test_touch_marks_flags_first_and_last_entries():
    touched = [[3, 1], [], [1, 2, 1], [4], [2]]
    assert touch_marks(touched) == [
        [(True, True), (True, False)],
        [],
        [(False, False), (True, False), (False, True)],
        [(True, True)],
        [(False, True)],
    ]


def odrs_touches(comp):
    return [[i for gb in plan.bins for i in gb.nodes] + [cn.node for cn in plan.crossing]
            for plan, sel in zip(comp.plans, comp.selectors) if sel is not None]


@pytest.mark.parametrize("scheme", ["warmup", "odrs"])
def test_kernels_match_when_some_nodes_are_touched_once(scheme):
    # nodes 0, 1 and 4 have one edge each; nodes 2 and 3 several
    inst = MatchingInstance(5, (1,) * 5, (
        Arrival(((0, 0.5), (2, 0.25))), Arrival(((2, 0.25), (3, 0.5))),
        Arrival(((1, 0.4), (2, 0.25), (3, 0.25))), Arrival(((3, 0.25), (4, 0.5)))))
    instances.validate(inst).raise_if_invalid()
    comp = odrs.compile_scheme(scheme, inst, odrs.scheme_params(scheme))
    touched = (odrs_touches(comp) if scheme == "odrs"
               else [[i for i, *_ in rows] for rows in warmup_rows(comp)])
    flat = [i for nodes in touched for i in nodes]
    assert {i for i in range(5) if flat.count(i) == 1} == {0, 1, 4}
    assert_same_replay(scheme, inst, 4001, 11)


def crossing_instance():
    """Node 0's first touch is a crossing coin, and node 1's last touch is a
    crossing coin after two bin touches."""
    return MatchingInstance(3, (3, 2, 1), (
        Arrival(((0, 1.0),)), Arrival(((0, 0.5), (1, 0.5))), Arrival(((0, 0.6), (1, 0.4))),
        Arrival(((0, 0.3), (2, 0.7))), Arrival(((1, 0.9),))))


def test_odrs_b_kernel_matches_when_crossing_coins_touch_first_or_last():
    inst = crossing_instance()
    instances.validate(inst).raise_if_invalid()
    comp = odrs.compile_scheme("odrs_b", inst, odrs.scheme_params("odrs_b"))
    crossing = [{cn.node for cn in plan.crossing} for plan in comp.plans]
    bins = [{i for gb in plan.bins for i in gb.nodes} for plan in comp.plans]
    assert 0 in crossing[0] and 0 in bins[1]  # node 0: crossing coin, then bins
    touches_of_1 = [t for t in range(len(comp.plans)) if 1 in crossing[t] | bins[t]]
    assert [1 in bins[t] for t in touches_of_1] == [True, True, False]
    assert_same_replay("odrs_b", inst, 5000, 3)


def test_warmup_kernel_matches_on_rows_with_equal_step_probabilities():
    # node 0's prefix sum is 1 before its third edge, so that row has
    # p_lag == p_ahead although it is not the node's first touch
    inst = MatchingInstance(3, (2, 1, 1), (
        Arrival(((0, 0.5), (1, 0.5))), Arrival(((0, 0.5), (2, 0.5))),
        Arrival(((0, 0.3), (1, 0.5), (2, 0.2))), Arrival(((0, 0.7),))))
    instances.validate(inst).raise_if_invalid()
    comp = odrs.compile_scheme("warmup", inst, None)
    all_rows = warmup_rows(comp)
    marks = touch_marks([[i for i, *_ in rows] for rows in all_rows])
    assert any(not first and lo == hi
               for rows, mark in zip(all_rows, marks)
               for (_, _, lo, hi), (first, _) in zip(rows, mark))
    assert any(not first and lo != hi
               for rows, mark in zip(all_rows, marks)
               for (_, _, lo, hi), (first, _) in zip(rows, mark))
    assert_same_replay("warmup", inst, 4000, 5)


@pytest.mark.parametrize("scheme,max_b", [("warmup", 1), ("odrs", 1), ("odrs_b", 3),
                                          ("warmup", 3)])
def test_keep_restricted_replay_matches_the_reference(scheme, max_b):
    # two components, arrivals alternating between them; replay only the first
    a = instances.gen_random(5, 6, 0.8, 4, max_b=max_b)
    b = instances.gen_random(4, 5, 0.8, 9, max_b=max_b)
    arrivals = []
    for t in range(6):
        arrivals.append(a.arrivals[t])
        if t < 5:
            arrivals.append(Arrival(tuple((i + 5, x) for i, x in b.arrivals[t].edges)))
    inst = MatchingInstance(9, a.capacities + b.capacities, tuple(arrivals))
    instances.validate(inst).raise_if_invalid()
    params = odrs.scheme_params(scheme)
    want, _, _ = REFERENCE[scheme](odrs.compile_scheme(scheme, inst, params), 3001, 2)
    kept = bench._component_arrivals(inst, [0])
    assert 0 < len(kept) < inst.n_arrivals
    got = bench._batch_run(scheme, inst, params, 3001, 2, nodes=[0])
    assert got == {key: cnt for key, cnt in want.items() if key[1] in kept}
    assert got


def reference_batch_stream(xs, g, n_runs):
    counts = np.zeros(n_runs, dtype=np.int64)
    s = comp = 0.0
    for x in xs:
        fl, p_lag, p_ahead = level_set.step_table(s, x)
        sel = g.random(n_runs) < np.where(counts == fl, p_lag, p_ahead)
        counts += sel
        s, comp = level_set.kahan_add(s, comp, x)
        yield sel


@pytest.mark.parametrize("xs", [[0.0, 0.5, 0.5, 1.0, 0.3, 0.7], [1.0, 0.2, 0.8, 0.6, 0.4],
                                [0.0, 0.0, 1.0, 0.35, 0.35, 0.3], [0.3, 0.4, 0.3, 0.6, 0.4]])
def test_batch_stream_matches_reference(xs):
    got = list(level_set.batch_stream(xs, generator(8, 3), 5000))
    want = list(reference_batch_stream(xs, generator(8, 3), 5000))
    assert len(got) == len(want)
    for g_sel, w_sel in zip(got, want):
        assert g_sel.dtype == w_sel.dtype and np.array_equal(g_sel, w_sel)
