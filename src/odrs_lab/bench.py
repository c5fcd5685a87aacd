"""Monte Carlo estimation harness, lower-bound adversary, and reports.

Replays are vectorized across runs, with per-node state stored node-major as
`(n, runs)` arrays; replica streams derive from the base seed by the
documented 64-bit mix, so reports are reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import exact_engine as engine
from . import odrs as odrs_mod
from .errors import DomainError, SizeError
from .instances import Arrival, MatchingInstance, gen_lb_prefix, validate
from .rng import generator

LB_RATIO = 2.0 * math.sqrt(2.0) - 2.0
MAX_TABLE_ACTIVE = 14
BID_MASK = np.uint16  # per-run bid masks over at most MAX_TABLE_ACTIVE positions


@dataclass
class EdgeStat:
    offline: int
    arrival: int
    x: float
    prob: float
    se: float  # zero marks an exact entry
    ratio: float


@dataclass
class RoundReport:
    algorithm: str
    seed: int
    n_runs: int
    exact: bool
    edges: list[EdgeStat]
    min_ratio: float
    params: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "seed": self.seed,
            "n_runs": self.n_runs,
            "exact": self.exact,
            "params": self.params,
            "min_ratio": self.min_ratio,
            "edges": [{"offline": e.offline, "arrival": e.arrival, "x": e.x,
                       "prob": e.prob, "se": e.se, "ratio": e.ratio}
                      for e in self.edges],
        }


def _check_table_size(k: int):
    if k > MAX_TABLE_ACTIVE:
        raise SizeError(f"{k} active nodes exceed the batch table cap {MAX_TABLE_ACTIVE}")


def _selection_table(rows_for, n_active):
    """Cumulative winner probabilities per realized bid mask.

    Returns a (k, 2^k) array: column m holds the cumulative conditional win
    probabilities of the active positions given bid mask m, so row `pos` is
    what `_Replay.settle` gathers for position `pos`.
    """
    k = n_active
    _check_table_size(k)
    table = np.zeros((k, 1 << k))
    for mask in range(1, 1 << k):
        row = rows_for(mask)
        if row is None:
            continue
        acc = np.zeros(k)
        for pos, q in row:
            acc[pos] = q
        table[:, mask] = np.cumsum(acc)
    return table


class _Replay:
    """Matched flags and edge counts of a batch replay, stored node-major:
    `offline[i]` and `arrival[t]` are vectors over runs, so each update is a
    contiguous row operation."""

    def __init__(self, n_offline: int, n_arrivals: int, n_runs: int):
        self.offline = np.zeros((n_offline, n_runs), dtype=bool)
        self.arrival = np.zeros((n_arrivals, n_runs), dtype=bool)
        self.counts: dict[tuple[int, int], int] = {}

    def settle(self, t: int, nodes, table: np.ndarray, bid_mask: np.ndarray, u: np.ndarray):
        """Match each run's winner at arrival t among `nodes` (the table's
        positions): the first position whose cumulative win probability given
        the run's bid mask exceeds u, if the last one does. This is
        `(u[:, None] < cum).argmax(axis=1)` on the runs with `u < cum[:, -1]`,
        the first-True rule, so the rows of `table` need not be monotone."""
        idx = bid_mask.astype(np.intp)
        last = len(nodes) - 1
        open_ = u < table[last][idx]  # runs whose winner is at this position or later
        for pos, node in enumerate(nodes):
            if pos == last:
                rows = open_
            else:
                rows = u < table[pos][idx]
                rows &= open_
                open_ ^= rows
            cnt = int(np.count_nonzero(rows))
            if cnt:
                self.counts[(node, t)] = self.counts.get((node, t), 0) + cnt
                self.offline[node] |= rows
                self.arrival[t] |= rows

    def result(self):
        """(edge counts, (runs, n) offline flags, (runs, T) arrival flags); the
        flags are transposed views of the node-major arrays."""
        return self.counts, self.offline.T, self.arrival.T


def _batch_odrs(comp: odrs_mod.CompiledOdrs, n_runs: int, seed: int):
    """Vectorized replays of the improved ODRS: matched-edge counts and the
    per-run offline and arrival matched flags (see `_Replay.result`).

    The bid state `ahead` is node-major, `(n, runs)`; the draws are those of
    the scalar sampler, one batch per bin, crossing node and arrival."""
    g = generator(seed, 13)
    n = comp.inst.n_offline
    ahead = np.zeros((n, n_runs), dtype=bool)
    out = _Replay(n, len(comp.plans), n_runs)
    for plan, selector in zip(comp.plans, comp.selectors):
        if selector is None:
            continue
        active = list(selector.elements)
        table = _selection_table(lambda m: selector.rows.get(m), len(active))
        bit = {i: BID_MASK(1 << k) for k, i in enumerate(active)}
        bid_mask = np.zeros(n_runs, dtype=BID_MASK)
        for gb in plan.bins:
            for node, hit in zip(gb.nodes, gb.draw_masks(g.random(n_runs))):
                hit &= ~ahead[node]
                ahead[node] |= hit
                bid_mask |= hit * bit[node]
        for cn in plan.crossing:
            heads = g.random(n_runs) < cn.takeover
            bid_mask |= (heads | ~ahead[cn.node]) * bit[cn.node]
            ahead[cn.node] &= heads
        out.settle(plan.t, active, table, bid_mask, g.random(n_runs))
    return out.result()


def _batch_warmup(comp: odrs_mod.CompiledWarmup, n_runs: int, seed: int):
    """Vectorized replays of the warm-up ODRS, returning what `_batch_odrs`
    returns. Each node's level-set count is node-major, `(n, runs)`, in the
    smallest unsigned type that holds the number of arrivals."""
    g = generator(seed, 13)
    n = comp.inst.n_offline
    counts = np.zeros((n, n_runs), dtype=np.min_scalar_type(len(comp.steps)))
    out = _Replay(n, len(comp.steps), n_runs)
    for t, rows in enumerate(comp.steps):
        sel = comp.selectors[t]
        if sel is None:
            continue
        k = len(rows)
        _check_table_size(k)
        table = np.cumsum(sel.conditional_win_probs(np.arange(1 << k)), axis=0)
        bid_mask = np.zeros(n_runs, dtype=BID_MASK)
        for pos, (i, fl, lo, hi) in enumerate(rows):
            p = np.where(counts[i] == fl, lo, hi)
            bid = g.random(n_runs) < p
            counts[i] += bid
            bid_mask |= bid * BID_MASK(1 << pos)
        out.settle(t, [i for i, *_ in rows], table, bid_mask, g.random(n_runs))
    return out.result()


def _batch_run(algorithm, inst: MatchingInstance, params, n_runs: int, seed: int):
    """Vectorized replays: (edge counts, offline matched, arrival matched),
    the flags as bool arrays of shape (n_runs, n) and (n_runs, T). The
    kernels keep them node-major and return transposed views. `algorithm` is
    a scheme name or a callable (inst, n_runs, seed) returning the same."""
    if callable(algorithm):
        return algorithm(inst, n_runs, seed)
    comp = odrs_mod.compile_scheme(algorithm, inst, params)
    # kernels are looked up at call time, so a wrapper installed on the
    # module global is the one that runs
    kernel = _batch_warmup if isinstance(comp, odrs_mod.CompiledWarmup) else _batch_odrs
    return kernel(comp, n_runs, seed)


def monte_carlo_edge_probs(algorithm: str, inst: MatchingInstance, n_runs: int,
                           seed: int, params=None, exact: bool = False) -> RoundReport:
    """Per-edge match probabilities: exact (engine) or frequencies over
    n_runs vectorized replays with normal-approximation standard errors."""
    if not exact and n_runs < 1000:
        raise DomainError("need at least 10^3 runs")
    xs = {(i, t): x for i, t, x in inst.edge_list() if x > 0}
    stats = []
    if exact:
        probs = engine.edge_match_probs(inst, params, algorithm)
        for (i, t), x in sorted(xs.items(), key=lambda kv: (kv[0][1], kv[0][0])):
            p = probs.get((i, t), 0.0)
            stats.append(EdgeStat(i, t, x, p, 0.0, p / x))
    else:
        counts, _, _ = _batch_run(algorithm, inst, params, n_runs, seed)
        for (i, t), x in sorted(xs.items(), key=lambda kv: (kv[0][1], kv[0][0])):
            p = counts.get((i, t), 0) / n_runs
            se = math.sqrt(max(p * (1.0 - p), 1e-12) / n_runs)
            stats.append(EdgeStat(i, t, x, p, se, p / x))
    min_ratio = min(e.ratio for e in stats) if stats else 1.0
    pd = {} if params is None else {"eps": params.eps, "delta": params.delta,
                                    "variant": params.variant}
    return RoundReport(algorithm, seed, 0 if exact else n_runs, exact, stats,
                       min_ratio, pd)


# ----------------------------------------------------------------------------
# lower bounds
# ----------------------------------------------------------------------------

def lb_root_check() -> float:
    """|1 - p - p^2/4| at p = 2 sqrt 2 - 2 (the adversary's target ratio)."""
    p = LB_RATIO
    return abs(1.0 - p - p * p / 4.0)


def lb_adversary(algorithm, n: int, n_probe: int, n_eval: int, seed: int,
                 params=None) -> dict:
    """Two-phase adversary against an ODRS (by name, or a batch callable).

    Probe: estimate, on the disjoint-pair prefix, each online node's matched
    probability and pick the pair (t, t') with the largest covariance, then
    the offline pair (i, j) in their neighborhoods with the largest
    joint-matched probability. Evaluate: append a final arrival on {i, j}
    with fractions 1/2 and report its edge ratios over fresh replays. Both
    phases need at least 10^3 runs.
    """
    if n < 3:
        raise DomainError("adversary needs n >= 3")
    if min(n_probe, n_eval) < 1000:
        raise DomainError("adversary needs at least 10^3 probe and eval runs")
    prefix = gen_lb_prefix(n)
    _, offline_m, arrival_m = _batch_run(algorithm, prefix, params, n_probe, seed)
    online_rate = arrival_m.mean(axis=0)
    am = arrival_m.astype(np.float64)
    joint = am.T @ am / n_probe
    cov = joint - np.outer(online_rate, online_rate)
    np.fill_diagonal(cov, -np.inf)
    t1, t2 = sorted(divmod(int(np.argmax(cov)), n))
    best_pair, best_joint = None, -1.0
    for i in (2 * t1, 2 * t1 + 1):
        for j in (2 * t2, 2 * t2 + 1):
            jp = np.count_nonzero(offline_m[:, i] & offline_m[:, j]) / n_probe
            if jp > best_joint:
                best_joint, best_pair = jp, (i, j)
    del offline_m, arrival_m, am, joint  # free the probe before the eval replay
    i, j = best_pair
    final = Arrival(((i, 0.5), (j, 0.5)))
    full = MatchingInstance(prefix.n_offline, prefix.capacities,
                            prefix.arrivals + (final,))
    rep = validate(full)
    rep.raise_if_invalid()
    counts, _, arr_m = _batch_run(algorithm, full, params, n_eval, seed + 1)
    t_final = full.n_arrivals - 1
    edges = []
    for node in (i, j):
        p = counts.get((node, t_final), 0) / n_eval
        se = math.sqrt(max(p * (1.0 - p), 1e-12) / n_eval)
        edges.append({"offline": node, "prob": p, "se": se,
                      "ratio": p / 0.5, "ratio_se": se / 0.5})
    matched_prob = float(arr_m[:, t_final].mean())
    bound = LB_RATIO + LB_RATIO / (2.0 * (n - 1.0))
    return {
        "n": n, "probe_runs": n_probe, "eval_runs": n_eval,
        "chosen_pair": [i, j], "probe_online_min": float(online_rate.min()),
        "probe_pair_cov": float(cov[t1, t2]), "final_edges": edges,
        "final_matched_prob": matched_prob,
        "min_final_ratio": min(e["ratio"] for e in edges),
        "ratio_bound": bound,
    }


def three_node_impossibility(algorithm: str, params=None, n_runs: int | None = None,
                             seed: int = 0) -> dict:
    """3 offline / 4 online family: each offline node is half-matched, then
    the last arrival neighbors some pair with fractions 1/2.

    Reports the minimum over pair choices of Pr[last arrival matched]; a
    rounding ratio of one would force it to 1 on every choice.
    """
    choices = []
    for (i, j) in ((0, 1), (0, 2), (1, 2)):
        arrivals = tuple(Arrival(((k, 0.5),)) for k in range(3))
        arrivals += (Arrival(((i, 0.5), (j, 0.5))),)
        inst = MatchingInstance(3, (1, 1, 1), arrivals)
        validate(inst).raise_if_invalid()
        probs = engine.edge_match_probs(inst, params, algorithm)
        exact_p = probs.get((i, 3), 0.0) + probs.get((j, 3), 0.0)
        entry = {"pair": [i, j], "exact_matched_prob": exact_p}
        if n_runs:
            _, _, arr = _batch_run(algorithm, inst, params, n_runs, seed)
            entry["mc_matched_prob"] = float(arr[:, 3].mean())
            entry["mc_se"] = math.sqrt(max(exact_p * (1 - exact_p), 1e-12) / n_runs)
        choices.append(entry)
    return {"choices": choices,
            "min_matched_prob": min(c["exact_matched_prob"] for c in choices)}
