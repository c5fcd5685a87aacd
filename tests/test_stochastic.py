import itertools
import math

import numpy as np
import pytest

from conftest import scaled_degree_prefixes
from odrs_lab import crs, instances, odrs, stochastic as st
from odrs_lab.errors import DomainError
from odrs_lab.instances import Arrival, MatchingInstance
from test_bidlaw_dp import reference_outcomes


class ReferenceStochasticExact:
    """The dict-of-masks × enumerated-outcomes loop StochasticExact replaced,
    kept as the reference: laws are dicts mask -> probability."""

    def __init__(self, plans):
        self.plans = plans

    def evolve(self):
        state = {0: 1.0}
        for plan in self.plans:
            yield plan.t, state, plan
            outcomes = reference_outcomes(plan.bins)
            new_state = {}

            def put(mask, pr):
                if pr > 1e-18:
                    new_state[mask] = new_state.get(mask, 0.0) + pr

            for mask, pr in state.items():
                for cand, cpr in outcomes:
                    bidders = [i for i in cand if not mask >> i & 1]
                    p = pr * cpr
                    if p <= 0:
                        continue
                    if bidders:
                        best = max(bidders, key=lambda i: (plan.weights[i], -i))
                        put(mask | (1 << best), p * plan.p)
                        put(mask, p * (1.0 - plan.p))
                    else:
                        put(mask, p)
            state = new_state
        yield len(self.plans), state, None

    @staticmethod
    def matched_weight_tail(z, state, plan):
        total = 0.0
        heavy = {i for i, w in plan.weights.items() if w >= z}
        for mask, pr in state.items():
            live_bins = []
            for gb in plan.bins:
                hit = sum(sz for node, sz in zip(gb.nodes, gb.sizes)
                          if node in heavy and not mask >> node & 1)
                live_bins.append(hit)
            miss = math.prod(1.0 - h for h in live_bins)
            total += pr * (1.0 - miss)
        return plan.p * total


def _one_by_one(p=0.5, w=1.0):
    return MatchingInstance(1, (1,), (Arrival(((0, 0.0),), (w,), p),))


def test_exact_laws_and_tails_equal_reference(matching_params):
    """80 instances, n = 3..12: every law has the reference's atoms in its
    order, bit for bit, and every weight tail is the same float."""
    laws = 0
    for n in range(3, 13):
        for seed in range(8):
            inst = instances.gen_random(n, n, 0.7, seed, stochastic=True)
            sol = st.solve_lp(st.build_lp(inst))
            ex = st.StochasticExact(inst, sol.x, matching_params)
            ref = ReferenceStochasticExact(ex.plans)
            for (t, law, plan), (_, want, _) in zip(ex.evolve(), ref.evolve(), strict=True):
                assert isinstance(law, crs.SupportDistribution)
                assert law.elements == tuple(range(n))
                assert law.atoms == tuple(want.items())
                laws += 1
                if plan is None:
                    continue
                for z in sorted(set(plan.weights.values())):
                    assert (ex.matched_weight_tail(z, law, plan)
                            == ReferenceStochasticExact.matched_weight_tail(z, want, plan))
    assert laws > 600


def test_exact_laws_equal_reference_across_chunk_edges(matching_params, monkeypatch):
    """Chunks smaller than one state's outcomes, and chunks that split the
    state list unevenly."""
    inst = instances.gen_random(9, 9, 0.7, 3, stochastic=True)
    sol = st.solve_lp(st.build_lp(inst))
    for budget in (1, 5, 64):
        monkeypatch.setattr(odrs, "CHUNK_PAIRS", budget)
        ex = st.StochasticExact(inst, sol.x, matching_params)
        ref = ReferenceStochasticExact(ex.plans)
        for (_, law, _), (_, want, _) in zip(ex.evolve(), ref.evolve(), strict=True):
            assert law.atoms == tuple(want.items())


def test_plan_order_is_the_greedy_rule(matching_params):
    """Heaviest bidder first, ties to the lowest id: equal weights included."""
    inst = MatchingInstance(4, (1,) * 4, (
        Arrival(((3, 0.0), (1, 0.0), (0, 0.0), (2, 0.0)), (2.0, 5.0, 2.0, 5.0), 1.0),))
    xstar = {(i, 0): 0.2 for i in range(4)}
    plan, = st.build_stochastic_plans(inst, xstar, matching_params)
    assert plan.order == [1, 2, 0, 3]


def test_build_lp_rows_one_by_one():
    lp = st.build_lp(_one_by_one())
    assert lp.edges == [(0, 0)]
    assert lp.row_labels == ["degree[0]", "flow[0]", "cond[0,0]"]
    assert np.allclose(lp.b, [1.0, 0.5, 0.5])


def test_build_lp_sequential_coupling_row():
    inst = MatchingInstance(1, (1,), (
        Arrival(((0, 0.0),), (1.0,), 1.0), Arrival(((0, 0.0),), (1.0,), 1.0)))
    lp = st.build_lp(inst)
    k = lp.row_labels.index("cond[0,1]")
    # x_{0,1} + p * x_{0,0} <= p with p = 1
    assert np.allclose(lp.A[k], [1.0, 1.0]) and lp.b[k] == 1.0


def reference_build_lp(inst):
    """The column-scanning loop `build_lp` replaced, kept as the reference:
    each degree and flow row scans every column, and each conditional row
    scans every column for the node's earlier edges."""
    edges = []
    weights = []
    for t, arr in enumerate(inst.arrivals):
        for k, (i, _) in enumerate(arr.edges):
            edges.append((i, t))
            weights.append(arr.weight_of(k))
    n_var = len(edges)
    col = {e: j for j, e in enumerate(edges)}
    rows, bs, labels = [], [], []
    for i in range(inst.n_offline):
        row = np.zeros(n_var)
        for (ii, t), j in col.items():
            if ii == i:
                row[j] = 1.0
        rows.append(row)
        bs.append(float(inst.capacities[i]))
        labels.append(f"degree[{i}]")
    for t, arr in enumerate(inst.arrivals):
        row = np.zeros(n_var)
        for (i, tt), j in col.items():
            if tt == t:
                row[j] = 1.0
        rows.append(row)
        bs.append(arr.p)
        labels.append(f"flow[{t}]")
    for (i, t), j in col.items():
        p_t = inst.arrivals[t].p
        row = np.zeros(n_var)
        row[j] = 1.0
        for (ii, tt), jj in col.items():
            if ii == i and tt < t:
                row[jj] += p_t
        rows.append(row)
        bs.append(p_t)
        labels.append(f"cond[{i},{t}]")
    return edges, np.array(weights), np.array(rows), np.array(bs), labels


def test_build_lp_is_bit_identical_to_column_scan():
    cases = [instances.gen_random(n, T, density, seed=seed, stochastic=seed % 3 > 0)
             for n, T, density in ((1, 4, 1.0), (3, 7, 0.5), (6, 6, 0.7), (9, 12, 0.4))
             for seed in range(60)]
    cases.append(MatchingInstance(3, (1, 2, 1), (Arrival(()), Arrival((), None, 0.5))))
    cases.append(MatchingInstance(2, (1, 1), ()))
    for inst in cases:
        lp = st.build_lp(inst)
        edges, weights, A, b, labels = reference_build_lp(inst)
        assert lp.edges == edges and lp.row_labels == labels
        for got, want in ((lp.weights, weights), (lp.A, A), (lp.b, b)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
    assert len(cases) == 242


def test_build_lp_refuses_a_repeated_edge_and_an_unknown_node():
    repeat = MatchingInstance(2, (1, 1), (Arrival(((0, 0.2),)),
                                          Arrival(((1, 0.2), (1, 0.3)))))
    for inst in (repeat, *(MatchingInstance(2, (1, 1), (Arrival(((i, 0.2),)),)) for i in (2, -1))):
        with pytest.raises(DomainError, match=r"distinct offline nodes in \[0, 2\)"):
            st.build_lp(inst)


def test_solve_lp_hand_examples():
    sol = st.solve_lp(st.build_lp(_one_by_one()))
    assert sol.value == pytest.approx(0.5, abs=1e-9)
    assert sol.x[(0, 0)] == pytest.approx(0.5, abs=1e-9)
    # zero weights: zero value
    sol0 = st.solve_lp(st.build_lp(_one_by_one(w=0.0)))
    assert sol0.value == pytest.approx(0.0, abs=1e-12)
    # one offline node, two sure arrivals: total mass one
    inst = MatchingInstance(1, (1,), (
        Arrival(((0, 0.0),), (1.0,), 1.0), Arrival(((0, 0.0),), (1.0,), 1.0)))
    sol2 = st.solve_lp(st.build_lp(inst))
    assert sol2.value == pytest.approx(1.0, abs=1e-9)
    assert sol2.x[(0, 0)] == pytest.approx(1.0, abs=1e-9)


def test_lp_feasibility_on_random_instances():
    for seed in range(10):
        inst = instances.gen_random(5, 6, 0.7, seed=seed, stochastic=True)
        lp = st.build_lp(inst)
        sol = st.solve_lp(lp)
        x = np.array([sol.x[e] for e in lp.edges])
        assert np.all(lp.A @ x <= lp.b + 1e-7)
        assert np.all(x >= -1e-12)


def test_stochastic_round_sure_single_edge(matching_params):
    inst = MatchingInstance(1, (1,), (Arrival(((0, 0.0),), (1.0,), 1.0),))
    xstar = {(0, 0): 1.0}
    for seed in range(20):
        m = st.stochastic_round(inst, xstar, matching_params, seed=seed)
        assert m.pairs == [(0, 0)]


def test_stochastic_round_argmax_weight(matching_params):
    inst = MatchingInstance(2, (1, 1), (Arrival(((0, 0.0), (1, 0.0)), (3.0, 1.0), 1.0),))
    xstar = {(0, 0): 0.5, (1, 0): 0.5}
    picked = set()
    for seed in range(200):
        m = st.stochastic_round(inst, xstar, matching_params, seed=seed)
        for i, t in m.pairs:
            picked.add(i)
            # when both bid, the weight-3 node must win; node 1 only wins alone
    # node 0 must be picked at least as often; both appear over the battery
    assert 0 in picked and 1 in picked


def test_one_by_one_exact_match_probability(matching_params):
    inst = _one_by_one()
    sol = st.solve_lp(st.build_lp(inst))
    ex = st.StochasticExact(inst, sol.x, matching_params)
    xhat = odrs.scale_hat(0.5, 0.0, matching_params)
    for t, state, plan in ex.evolve():
        if plan is None:
            matched = sum(p for mk, p in state.atoms if mk & 1)
            assert matched == pytest.approx(xhat, abs=1e-12)


def test_bdm_identity(matching_params):
    # sum_A Pr[E_A, F_{S\A}] prod q = sum_A Pr[E_A] prod_A (1-q) prod_{S\A} q
    inst = instances.gen_random(5, 5, 0.8, seed=5, stochastic=True)
    sol = st.solve_lp(st.build_lp(inst))
    ex = st.StochasticExact(inst, sol.x, matching_params)
    rng = np.random.default_rng(1)
    for t, state, plan in ex.evolve():
        S = list(range(min(4, inst.n_offline)))
        q = rng.random(len(S))
        lhs = rhs = 0.0
        for bits in itertools.product([0, 1], repeat=len(S)):
            A = [S[k] for k in range(len(S)) if bits[k]]
            rest = [S[k] for k in range(len(S)) if not bits[k]]
            p_exact = sum(p for mk, p in state.atoms
                          if all(mk >> i & 1 for i in A)
                          and not any(mk >> i & 1 for i in rest))
            p_super = sum(p for mk, p in state.atoms
                          if all(mk >> i & 1 for i in A))
            lhs += p_exact * math.prod(q[S.index(i)] for i in rest)
            rhs += p_super * (math.prod(1 - q[S.index(i)] for i in A)
                              * math.prod(q[S.index(i)] for i in rest))
        assert abs(lhs - rhs) < 1e-12
        if plan is None:
            break


def test_submultiplicativity_and_free_floor(matching_params):
    for seed in (3, 9):
        inst = instances.gen_random(6, 6, 0.7, seed=seed, stochastic=True)
        sol = st.solve_lp(st.build_lp(inst))
        ex = st.StochasticExact(inst, sol.x, matching_params)
        shats = scaled_degree_prefixes(ex.plans)
        for t, state, plan in ex.evolve():
            shat = shats[t]
            nodes = range(inst.n_offline)
            for size in (1, 2, 3):
                for S in itertools.combinations(nodes, size):
                    pr = sum(p for mk, p in state.atoms
                             if all(mk >> i & 1 for i in S))
                    assert pr <= math.prod(shat.get(i, 0.0) for i in S) + 1e-9
            for i in nodes:
                free = sum(p for mk, p in state.atoms if not mk >> i & 1)
                assert free >= 1 - shat.get(i, 0.0) - 1e-12


def test_bid_set_bound_stochastic(matching_params):
    # Pr[S cap P_t != empty] >= 1 - prod_B (1 - sum_{B cap S} xhat / p_t)
    inst = instances.gen_random(6, 5, 0.8, seed=12, stochastic=True)
    sol = st.solve_lp(st.build_lp(inst))
    ex = st.StochasticExact(inst, sol.x, matching_params)
    for t, state, plan in ex.evolve():
        if plan is None:
            break
        nodes = sorted(plan.xhat)
        for r in range(1, min(len(nodes), 4) + 1):
            for S in itertools.combinations(nodes, r):
                hit = 0.0
                for mask, pr in state.atoms:
                    live = 1.0
                    for gb in plan.bins:
                        got = sum(sz for nd, sz in zip(gb.nodes, gb.sizes)
                                  if nd in S and not mask >> nd & 1)
                        live *= 1.0 - got
                    hit += pr * (1.0 - live)
                bound = 1.0
                for gb in plan.bins:
                    bound *= 1.0 - sum(plan.xhat[nd] / plan.p for nd in gb.nodes if nd in S)
                assert hit >= 1.0 - bound - 1e-9


def test_per_threshold_guarantee(matching_params):
    for seed in (2, 8):
        inst = instances.gen_random(6, 6, 0.7, seed=seed, stochastic=True)
        sol = st.solve_lp(st.build_lp(inst))
        ex = st.StochasticExact(inst, sol.x, matching_params)
        for t, state, plan in ex.evolve():
            if plan is None:
                break
            for z in sorted(set(plan.weights.values())):
                lhs = ex.matched_weight_tail(z, state, plan)
                rhs = 0.652 * sum(sol.x.get((i, t), 0.0)
                                  for i, w in plan.weights.items() if w >= z)
                assert lhs >= rhs - 1e-9


def test_eval_vs_lp_bounds(matching_params):
    inst = instances.gen_random(6, 6, 0.7, seed=33, stochastic=True)
    rep = st.eval_vs_lp(inst, matching_params, runs=150_000, seed=7)
    assert rep["ratio"] >= 0.652 - 3 * rep["ratio_ci95"]
    assert rep["ratio"] <= 1 + 4 * rep["ratio_ci95"]


def test_eval_deterministic_instance(matching_params):
    inst = MatchingInstance(2, (1, 1), (
        Arrival(((0, 0.0),), (2.0,), 1.0), Arrival(((1, 0.0),), (1.0,), 1.0)))
    rep = st.eval_vs_lp(inst, odrs.ScalingParams(0.0, 0.0), runs=10_000, seed=1)
    assert rep["ratio"] == pytest.approx(1.0, abs=1e-12)


def test_zero_weight_ratio_convention(matching_params):
    rep = st.eval_vs_lp(_one_by_one(w=0.0), matching_params, runs=10_000, seed=2)
    assert rep["ratio"] == 1.0


def test_eval_includes_exact_threshold_check(matching_params):
    inst = instances.gen_random(5, 5, 0.7, seed=44, stochastic=True)
    rep = st.eval_vs_lp(inst, matching_params, runs=10_000, seed=3)
    assert rep["exact_threshold_ok"] is True
    assert rep["exact_threshold_margin"] >= -1e-9


def expected_matched_weight(inst, xstar, params):
    """Exact E[total matched weight] from StochasticExact: per arrival, the
    layer-cake sum over its weight thresholds z_1 < z_2 < ... of
    (z_k - z_{k-1}) Pr[w(M(t)) >= z_k], with z_0 = 0."""
    ex = st.StochasticExact(inst, xstar, params)
    total = 0.0
    for t, state, plan in ex.evolve():
        if plan is None:
            break
        prev = 0.0
        for z in sorted(set(plan.weights.values())):
            total += (z - prev) * ex.matched_weight_tail(z, state, plan)
            prev = z
    return total


@pytest.mark.parametrize("n,T,seed", [(4, 5, 2), (6, 6, 7), (8, 8, 3)])
def test_eval_vs_lp_mean_weight_matches_exact_engine(matching_params, n, T, seed):
    inst = instances.gen_random(n, T, 0.7, seed=seed, stochastic=True)
    sol = st.solve_lp(st.build_lp(inst))
    want = expected_matched_weight(inst, sol.x, matching_params)
    rep = st.eval_vs_lp(inst, matching_params, runs=200_000, seed=seed + 1)
    assert want > 0
    assert abs(rep["mean_weight"] - want) <= 4 * rep["se"]


def test_simplex_matches_highs_on_random_instances():
    pytest.importorskip("scipy")
    from scipy.optimize import linprog

    for seed in range(8):
        inst = instances.gen_random(4 + seed % 5, 6, 0.7, seed=seed, stochastic=True)
        lp = st.build_lp(inst)
        x = st.simplex_max(lp.weights, lp.A, lp.b)
        res = linprog(-lp.weights, A_ub=lp.A, b_ub=lp.b, bounds=(0, None), method="highs")
        assert res.status == 0
        assert abs(float(lp.weights @ x) - -res.fun) <= 1e-9


def reference_simplex_max(c, A, b):
    """The row-by-row tableau loop `simplex_max` replaced, kept as the
    reference: Bland's rule, ratio ties to the lowest basis index."""
    m, n = A.shape
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n:n + m] = np.eye(m)
    T[:m, -1] = b
    T[m, :n] = -c
    basis = list(range(n, n + m))
    while True:
        reduced = T[m, :n + m]
        enter = next((j for j in range(n + m) if reduced[j] < -st.SIMPLEX_TOL), -1)
        if enter < 0:
            break
        ratios = [(T[r, -1] / T[r, enter], basis[r], r) for r in range(m)
                  if T[r, enter] > st.SIMPLEX_TOL]
        _, _, leave = min(ratios, key=lambda z: (z[0], z[1]))
        T[leave] /= T[leave, enter]
        for r in range(m + 1):
            if r != leave and T[r, enter] != 0.0:
                T[r] -= T[r, enter] * T[leave]
        basis[leave] = enter
    x = np.zeros(n + m)
    for r, var in enumerate(basis):
        x[var] = T[r, -1]
    return x[:n]


def test_simplex_is_bit_identical_to_row_loop():
    checked = 0
    for n in range(3, 13):
        for seed in range(24):
            inst = instances.gen_random(n, n, 0.7, seed=100 * n + seed, stochastic=True)
            lp = st.build_lp(inst)
            got = st.simplex_max(lp.weights, lp.A, lp.b)
            assert got.tobytes() == reference_simplex_max(lp.weights, lp.A, lp.b).tobytes()
            checked += 1
    assert checked == 240


def test_mean_and_se_equals_numpy_std():
    from odrs_lab.rng import mean_and_se
    g = np.random.default_rng(17)
    for n in [2, 3, 7, 1000, *g.integers(2, 200_000, size=20).tolist()]:
        v = g.standard_normal(n) * g.uniform(0.01, 100.0) + g.uniform(-50.0, 50.0)
        if n % 2:
            v = np.round(v)  # repeated values
        want = (float(v.mean()), float(v.std(ddof=1) / math.sqrt(n)))
        assert mean_and_se(v.copy()) == want, n
