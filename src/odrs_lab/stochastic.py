"""Stochastic-arrival pipeline: the online-optimum LP, its simplex solver,
the bucketed rounding algorithm, and evaluation against the LP value.

Arrivals happen with probability p_t; the LP's conditional constraint
x_{i,t} <= p_t (1 - sum_{t'<t} x_{i,t'}) upper-bounds any online algorithm,
and the rounding recovers at least the guaranteed fraction of the LP value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bitmask
from . import crs
from . import odrs as odrs_mod
from .errors import DomainError, InvariantBreach, SizeError
from .instances import MatchingInstance
from .rng import ScalarRng, mean_and_se, run_chunks, touch_marks


# ----------------------------------------------------------------------------
# LP
# ----------------------------------------------------------------------------

@dataclass
class StochasticLP:
    edges: list[tuple[int, int]]  # (offline i, arrival t) per variable
    weights: np.ndarray
    A: np.ndarray  # rows: offline degree, per-t flow, per-edge conditional
    b: np.ndarray
    row_labels: list[str]


@dataclass
class LPSolution:
    x: dict[tuple[int, int], float]
    value: float


def build_lp(inst: MatchingInstance) -> StochasticLP:
    """Emit the four constraint families of the online-optimum LP."""
    edges = []
    weights = []
    for t, arr in enumerate(inst.arrivals):
        if not (0.0 < arr.p <= 1.0):
            raise DomainError(f"arrival {t} needs p in (0, 1]")
        for k, (i, _) in enumerate(arr.edges):
            edges.append((i, t))
            weights.append(arr.weight_of(k))
    n, n_arr, n_var = inst.n_offline, inst.n_arrivals, len(edges)
    if len(set(edges)) < n_var or any(not 0 <= i < n for i, _ in edges):
        raise DomainError(f"each arrival needs distinct offline nodes in [0, {n})")
    off = np.array([i for i, _ in edges], dtype=np.intp)
    at = np.array([t for _, t in edges], dtype=np.intp)
    p = np.array([arr.p for arr in inst.arrivals], dtype=float)
    var = np.arange(n_var)
    A = np.zeros((n + n_arr + n_var, n_var))
    A[off, var] = 1.0
    A[n + at, var] = 1.0
    A[n + n_arr + var, var] = 1.0
    # x_{i,t} + p_t * sum_{t'<t} x_{i,t'} <= p_t: cond row k holds p_t at i's earlier edges
    k, j = np.nonzero((off[:, None] == off) & (at[None, :] < at[:, None]))
    A[n + n_arr + k, j] = p[at[k]]
    b = np.concatenate([np.array(inst.capacities, dtype=float), p, p[at]])
    labels = ([f"degree[{i}]" for i in range(n)] + [f"flow[{t}]" for t in range(n_arr)]
              + [f"cond[{i},{t}]" for i, t in edges])
    return StochasticLP(edges, np.array(weights), A, b, labels)


SIMPLEX_TOL = 1e-10  # pivot and reduced-cost tolerance of `simplex_max`
SIMPLEX_MAX_ITER = 200_000


def simplex_max(c: np.ndarray, A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """maximize c.x s.t. Ax <= b, x >= 0, with b >= 0.

    Dense tableau primal simplex with Bland's rule (anti-cycling);
    deterministic. The slack basis is feasible since b >= 0. Each pivot is a
    few whole-array operations: the lowest eligible column enters, the
    minimum ratio leaves (ties to the lowest basis index), and every other
    row with a nonzero entry in the entering column is eliminated at once.
    """
    m, n = A.shape
    if np.any(b < -SIMPLEX_TOL):
        raise DomainError("simplex_max expects b >= 0")
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n:n + m] = np.eye(m)
    T[:m, -1] = b
    T[m, :n] = -c
    basis = np.arange(n, n + m)
    for _ in range(SIMPLEX_MAX_ITER):
        eligible = np.flatnonzero(T[m, :n + m] < -SIMPLEX_TOL)
        if not eligible.size:
            break
        enter = eligible[0]  # Bland: lowest eligible index
        rows = np.flatnonzero(T[:m, enter] > SIMPLEX_TOL)
        if not rows.size:
            raise InvariantBreach("unbounded LP; box constraints should prevent this")
        ratios = T[rows, -1] / T[rows, enter]
        tied = rows[ratios == ratios.min()]
        leave = tied[np.argmin(basis[tied])]
        T[leave] /= T[leave, enter]
        col = T[:, enter].copy()  # the multipliers, read before any row changes
        col[leave] = 0.0
        upd = np.flatnonzero(col)
        T[upd] -= col[upd, None] * T[leave]
        basis[leave] = enter
    else:
        raise InvariantBreach("simplex iteration limit hit")
    x = np.zeros(n + m)
    x[basis] = T[:m, -1]
    return x[:n]


def solve_lp(lp: StochasticLP) -> LPSolution:
    if len(lp.edges) > 2000:
        raise SizeError("LP solver is desk-scale (<= 2000 variables)")
    x = simplex_max(lp.weights, lp.A, lp.b)
    resid = lp.A @ x - lp.b
    if np.any(resid > 1e-7):
        raise InvariantBreach(f"LP solution infeasible by {resid.max()}")
    value = float(lp.weights @ x)
    return LPSolution({e: float(v) for e, v in zip(lp.edges, x)}, value)


# ----------------------------------------------------------------------------
# rounding
# ----------------------------------------------------------------------------

@dataclass
class StochasticPlan:
    t: int
    p: float
    # bins of (node, conditional bid prob xhat/(p(1-shat))); high nodes sit
    # in singleton bins
    bins: list[odrs_mod.GroupBin]
    xhat: dict[int, float]
    weights: dict[int, float]
    # the bin nodes in the order the greedy takes them: heaviest first, ties
    # to the lowest id
    order: list[int]


def build_stochastic_plans(inst: MatchingInstance, xstar: dict[tuple[int, int], float],
                           params: odrs_mod.ScalingParams) -> list[StochasticPlan]:
    if params.variant != "matching":
        raise DomainError("stochastic rounding uses matching-variant parameters")
    n = inst.n_offline
    s = np.zeros(n)
    shat = np.zeros(n)
    plans = []
    theta = params.theta
    for t, arr in enumerate(inst.arrivals):
        p_t = arr.p
        low_items, highs = [], []
        xhat_row: dict[int, float] = {}
        wrow: dict[int, float] = {}
        for k, (i, _) in enumerate(arr.edges):
            x = xstar.get((i, t), 0.0)
            if x <= 0:
                continue
            xh = odrs_mod.scale_hat(x, float(s[i]), params)
            size = xh / (p_t * (1.0 - shat[i]))
            if size > 1.0 + 1e-9:
                raise InvariantBreach(
                    f"bid probability {size} > 1 at ({i},{t}); x* violates the LP constraint")
            xhat_row[i] = xh
            wrow[i] = arr.weight_of(k)
            if not math.isfinite(wrow[i]):  # eval_vs_lp adds take * w, which needs a finite w
                raise DomainError(f"arrival {t} has a non-finite weight for offline {i}")
            if s[i] <= theta + 1e-12:
                low_items.append((i, min(1.0, size)))
            else:
                highs.append((i, min(1.0, size)))
        bins = [odrs_mod.GroupBin([i for i, _ in packed], [sz for _, sz in packed])
                for packed in odrs_mod.first_fit(low_items)]
        bins.extend(odrs_mod.GroupBin([i], [sz]) for i, sz in highs)
        for i, xh in xhat_row.items():
            s[i] += xstar[(i, t)]
            shat[i] += xh
        order = sorted(wrow, key=lambda i: (-wrow[i], i))
        plans.append(StochasticPlan(t, p_t, bins, xhat_row, wrow, order))
    return plans


def stochastic_round(inst: MatchingInstance, xstar: dict[tuple[int, int], float],
                     params: odrs_mod.ScalingParams, seed: int = 0) -> odrs_mod.Matching:
    """One run of the stochastic matching algorithm.

    Nodes stay free until matched; an arriving online node takes its first
    bidder (a drawn free node) in `plan.order`.
    """
    plans = build_stochastic_plans(inst, xstar, params)
    rng = ScalarRng(seed)
    matched = [False] * inst.n_offline
    out = odrs_mod.Matching()
    for plan in plans:
        drawn = {gb.draw(rng.uniform()) for gb in plan.bins}
        if rng.uniform() < plan.p:  # arrived
            best = next((i for i in plan.order if i in drawn and not matched[i]), -1)
            if best >= 0:
                matched[best] = True
                out.add(best, plan.t)
    out.assert_valid(inst)
    return out


# ----------------------------------------------------------------------------
# exact engine (matched-mask dynamic program)
# ----------------------------------------------------------------------------

DROP_TERM = 1e-18  # a matched-set DP term of at most this is dropped before summing
# exact_threshold_check certifies Pr[w(M(t)) >= z] >= GUARANTEE * (LP mass of
# weight >= z) at every arrival t and threshold z, up to GUARANTEE_TOL
GUARANTEE = 0.652
GUARANTEE_TOL = 1e-9


class StochasticExact:
    """Exact joint law of the matched set, stepped arrival by arrival on the
    bid-law DP's outcome masks and pair sums (`odrs.outcome_masks`,
    `odrs.pair_chunks`, `odrs.PairSums`): each (state, outcome) pair adds its
    matched term, then its unmatched term, dropping terms of at most
    DROP_TERM, so atoms and their order are those of the plain loop over
    states and then outcomes."""

    def __init__(self, inst: MatchingInstance, xstar, params):
        bitmask.check_width(inst.n_offline, "an exact matched-set law")
        self.inst = inst
        self.plans = build_stochastic_plans(inst, xstar, params)

    def evolve(self):
        """Yields (t, law of the matched set before t, plan) per arrival, then
        (T, final law, None); each law is a crs.SupportDistribution over
        positions 0..n_offline-1 (bit i = offline node i)."""
        n = self.inst.n_offline
        masks, probs = np.zeros(1, dtype=np.int64), np.ones(1)
        for t, plan in enumerate([*self.plans, None]):
            yield t, crs.SupportDistribution.summed(range(n), masks, probs), plan
            if plan is None:
                break
            drawn, _, cprobs = odrs_mod.outcome_masks(plan.bins, (), range(n))  # bit i = node i
            new_state = odrs_mod.PairSums(n)
            for m, p, index in odrs_mod.pair_chunks(masks, probs, cprobs):
                bidders = (drawn & ~m).ravel()
                best = np.zeros_like(bidders)
                for node in reversed(plan.order):  # the first bidder in order wins
                    best = np.where(bidders >> node & 1, 1 << node, best)
                stay = m.ravel().repeat(len(drawn))
                # pair k adds its matched term as 2k, its unmatched one as 2k + 1
                terms = np.stack([np.where(best != 0, p * plan.p, 0.0),
                                  np.where(best != 0, p * (1.0 - plan.p), p)], 1).ravel()
                keep = terms > DROP_TERM
                new_state.add(np.stack([stay | best, stay], 1).ravel()[keep], terms[keep],
                              np.stack([2 * index, 2 * index + 1], 1).ravel()[keep])
            masks, probs = new_state.items()

    def matched_weight_tail(self, z: float, state: crs.SupportDistribution,
                            plan: StochasticPlan) -> float:
        """Exact Pr[arrival plan.t is matched at weight >= z]: per atom, the
        chance that some bin draws a free node of weight >= z, summed in atom
        order."""
        masks, probs = state.columns()
        miss = np.ones(len(masks))
        for gb in plan.bins:
            hit = np.zeros(len(masks))
            for node, sz in zip(gb.nodes, gb.sizes):
                if plan.weights[node] >= z:
                    hit += np.where(masks >> node & 1, 0.0, sz)
            miss *= 1.0 - hit
        # a left-to-right total: np.sum adds pairwise, which changes last bits
        return plan.p * float(np.cumsum(probs * (1.0 - miss))[-1])


def exact_threshold_check(inst: MatchingInstance, xstar, params) -> float:
    """Worst margin of Pr[w(M(t)) >= z] - GUARANTEE * sum_{w_{i,t} >= z} x_{i,t}
    over all arrivals and weight thresholds; nonnegative (within
    GUARANTEE_TOL) when the per-arrival guarantee holds."""
    ex = StochasticExact(inst, xstar, params)
    worst = math.inf
    for t, state, plan in ex.evolve():
        if plan is None:
            break
        for z in sorted(set(plan.weights.values())):
            lhs = ex.matched_weight_tail(z, state, plan)
            rhs = GUARANTEE * sum(xstar.get((i, t), 0.0)
                                  for i, w in plan.weights.items() if w >= z)
            worst = min(worst, lhs - rhs)
    if worst < -GUARANTEE_TOL:
        raise InvariantBreach(f"per-threshold guarantee violated by {-worst}")
    return 0.0 if math.isinf(worst) else worst


def eval_vs_lp(inst: MatchingInstance, params: odrs_mod.ScalingParams,
               runs: int, seed: int) -> dict:
    """Monte Carlo mean matched weight vs the LP optimum.

    Vectorized over runs and driven `rng.CHUNK_RUNS` runs at a time
    (`rng.run_chunks`, stream 7), with the matched flags stored node-major,
    `(n, chunk)`, and each arrival's bids kept per bin node. A node's first
    touch skips the read of its all-false flags and its last touch skips the
    write nothing reads (`rng.touch_marks`). Each run's matched weight goes
    into one vector of `runs` floats, so the mean and the standard error are
    taken over all runs at once (`rng.mean_and_se`, in place) and do not
    depend on the chunk size. The report carries a normal-approximation CI
    for the ratio. On small instances (n <= 12) the exact per-threshold
    guarantee is checked as well. Zero-value LPs report ratio 1 by
    convention.
    """
    if runs < 10_000:
        raise DomainError("eval_vs_lp needs at least 10^4 runs")
    lp = build_lp(inst)
    sol = solve_lp(lp)
    plans = build_stochastic_plans(inst, sol.x, params)
    touched = [[i for gb in plan.bins for i in gb.nodes] for plan in plans]
    steps = []  # per arrival: p, its bins' (node, first, last) rows, (node, w, last) in order
    for plan, nodes, marks in zip(plans, touched, touch_marks(touched)):
        mark = dict(zip(nodes, marks))
        steps.append((plan.p, [(gb, [(i, *mark[i]) for i in gb.nodes]) for gb in plan.bins],
                      [(i, plan.weights[i], mark[i][1]) for i in plan.order]))
    weight = np.zeros(runs)
    for lo, hi, g in run_chunks(runs, seed, 7):
        size = hi - lo
        matched = np.zeros((inst.n_offline, size), dtype=bool)
        chunk_weight = weight[lo:hi]
        for p, bins, order in steps:
            bid = {}
            for gb, rows in bins:
                for (node, first, _), hit in zip(rows, gb.draw_masks(g.random(size))):
                    if not first:
                        hit &= ~matched[node]
                    bid[node] = hit
            # runs that arrived and are not matched yet at this arrival
            free = g.random(size) < p
            for node, w, last in order:
                take = bid[node]
                take &= free
                if take.any():
                    if not last:
                        matched[node] |= take
                    # w is finite (build_stochastic_plans), so take * w is w or
                    # +-0.0, and adding +-0.0 leaves a weight summed from +0.0 as it is
                    chunk_weight += take * w
                    free ^= take
    mean, se = mean_and_se(weight)
    if sol.value <= 0:
        ratio, ci = 1.0, 0.0
    else:
        ratio = mean / sol.value
        ci = 1.96 * se / sol.value
    report = {"runs": runs, "mean_weight": mean, "se": se,
              "lp_value": sol.value, "ratio": ratio, "ratio_ci95": ci}
    if inst.n_offline <= 12:
        margin = exact_threshold_check(inst, sol.x, params)
        report["exact_threshold_margin"] = margin
        report["exact_threshold_ok"] = True
    return report
