"""Monte Carlo estimation harness, lower-bound adversary, and reports.

Both ODRS schemes replay through one kernel, `_batch_replay`, vectorized
across runs and driven `rng.CHUNK_RUNS` runs at a time (`rng.run_chunks`).
It reads the arrival records the compiled scheme built once (`comp.arrivals`,
each interpreted one run at a time by `odrs.arrival_step`). A node's
per-run state is one bit, node-major `(n, chunk)`: whether its level-set
count is one above the floor. Warm-up edges and odrs-b crossing coins are
level-set steps on that bit, and bin candidates bid iff not ahead. Each
arrival's selection table is built once per replay, and edge
counts are summed over chunks (integers, so exactly). A caller that needs
the per-run matched flags gets them one chunk at a time through `on_chunk`.
A caller that reads only some offline nodes' edges replays only the
arrivals of their offline components (`nodes`) and jumps the stream past
the other arrivals' batches (PCG64's advances add, and batches after the
last kept arrival are never drawn): components evolve independently, so the
kept arrivals' counts are those of the full replay. A node's first touch
reads an all-zero state and its last writes one nothing reads again
(`rng.touch_marks`), so the replay skips that per-run work and draws exactly
as before. A chunk draws the uniforms the unchunked replay gives its runs,
so reports are reproducible bit for bit for every chunk size; replica
streams derive from the base seed by the documented 64-bit mix.
"""

from __future__ import annotations

import math

import numpy as np

from . import exact_engine as engine
from . import odrs as odrs_mod
from .errors import DomainError, InvariantBreach, SizeError
from .instances import Arrival, MatchingInstance, gen_lb_prefix, validate
from .level_set import batch_select
from .rng import run_chunks, touch_marks

LB_RATIO = 2.0 * math.sqrt(2.0) - 2.0
# largest adversary prefix: the probe holds 2n x CHUNK_RUNS float32 flags and
# (2n)^2 + n^2 int64 pair counts, so its memory grows with n
LB_MAX_N = 256
MAX_TABLE_ACTIVE = 14
FLOAT32_EXACT = 1 << 24  # float32 holds every integer up to here exactly
BID_MASK = np.uint16  # per-run bid masks over at most MAX_TABLE_ACTIVE positions


def _win_table(selector, k: int) -> np.ndarray:
    """Cumulative winner probabilities of a selector's k positions per
    realized bid mask: a (k, 2^k) array whose column m is the running sum of
    `selector.conditional_win_probs` at mask m, so row `pos` is what
    `_Replay.settle` gathers for position `pos`."""
    if k > MAX_TABLE_ACTIVE:
        raise SizeError(f"{k} active nodes exceed the batch table cap {MAX_TABLE_ACTIVE}")
    return np.cumsum(selector.conditional_win_probs(np.arange(1 << k)), axis=0)


class _Replay:
    """Edge counts and (unless `keep_flags` is False) matched flags of one
    chunk of a batch replay. The flags are node-major: `offline[i]` and
    `arrival[t]` are vectors over the chunk's runs, so each update is a
    contiguous row operation."""

    def __init__(self, n_offline: int, n_arrivals: int, n_runs: int, keep_flags: bool = True):
        self.offline = self.arrival = None
        if keep_flags:
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
        open_ = u < table[last].take(idx)  # runs whose winner is at this position or later
        if self.arrival is not None:
            self.arrival[t] |= open_  # the runs that match t: every winner's rows
        for pos, node in enumerate(nodes):
            if pos == last:
                rows = open_
            else:
                rows = u < table[pos].take(idx)
                rows &= open_
                open_ ^= rows
            cnt = int(np.count_nonzero(rows))
            if cnt:
                self.counts[(node, t)] = self.counts.get((node, t), 0) + cnt
                if self.offline is not None:
                    self.offline[node] |= rows


def _batch_replay(comp, n_runs: int, seed: int, on_chunk, keep):
    """Edge counts of n_runs vectorized replays of the compiled scheme `comp`:
    each record of `comp.arrivals` read as `odrs.arrival_step` reads it, on
    one `ahead` bool per (node, run), with the same draws in the same order,
    one batch each; see `_batch_run` for `on_chunk`. `keep`, when given, is
    the set of arrivals to replay; every other arrival's batches are
    skipped, folded into one jump before the next replayed arrival. The bids
    pick the winner through the arrival's `_win_table`, which refuses more
    than MAX_TABLE_ACTIVE positions before any bid mask is built. A first
    touch reads no state and compares with p_lag, and a last touch writes
    none."""
    n = comp.inst.n_offline
    kept, skip = [], 0  # the replayed arrivals, each with the batches skipped before it
    for t, selector, active, bins, steps in comp.arrivals:
        if keep is None or t in keep:
            kept.append((skip, t, selector, active, bins, steps))
            skip = 0
        else:
            skip += len(bins) + len(steps) + 1
    marks = touch_marks([[i for gb in bins for i in gb.nodes] + [step[0] for step in steps]
                         for *_, bins, steps in kept])
    for k, ((skip, t, selector, active, bins, steps), mark) in enumerate(zip(kept, marks)):
        table = _win_table(selector, len(active))  # checks the cap before BID_MASK bits
        bit = {i: BID_MASK(1 << pos) for pos, i in enumerate(active)}
        mark = iter(mark)  # bin nodes come first, then the steps' nodes
        bins = [(gb, [(i, bit[i], *next(mark)) for i in gb.nodes]) for gb in bins]
        steps = [(i, lo, hi, rises, bit[i], first or lo == hi, last)
                 for (i, lo, hi, rises), (first, last) in zip(steps, mark)]
        kept[k] = (skip, t, active, bins, steps, table)
    chunks = run_chunks(n_runs, seed, 13)  # rejects n_runs < 1 before any allocation
    counts: dict[tuple[int, int], int] = {}
    for lo, hi, g in chunks:
        runs = hi - lo
        out = _Replay(n, comp.inst.n_arrivals, runs, keep_flags=on_chunk is not None)
        ahead = np.zeros((n, runs), dtype=bool)
        for skip, t, active, bins, steps, table in kept:
            if skip:
                g.skip(skip)
            bid_mask = np.zeros(runs, dtype=BID_MASK)
            for gb, rows in bins:
                for (node, bit, first, last), hit in zip(rows, gb.draw_masks(g.random(runs))):
                    if not first:
                        hit &= ~ahead[node]
                    if not last:
                        ahead[node] |= hit
                    bid_mask |= hit * bit
            for node, p_lag, p_ahead, rises, bit, fixed, last in steps:
                u = g.random(runs)
                bid = u < p_lag if fixed else batch_select(u, ahead[node], p_ahead, p_lag)
                if not last:
                    if rises:
                        ahead[node] &= bid
                    else:
                        ahead[node] |= bid
                bid_mask |= bid * bit
            out.settle(t, active, table, bid_mask, g.random(runs))
        del ahead  # free it before `on_chunk` copies the flags
        for key, cnt in out.counts.items():
            counts[key] = counts.get(key, 0) + cnt
        if on_chunk is not None:
            on_chunk(out.offline.T, out.arrival.T)
        del out  # free this chunk's flags before the next chunk allocates its own
    return counts


def _batch_odrs(comp: odrs_mod.CompiledOdrs, n_runs: int, seed: int, on_chunk=None,
                keep=None):
    """Vectorized replays of the improved ODRS (`_batch_replay`)."""
    return _batch_replay(comp, n_runs, seed, on_chunk, keep)


def _batch_warmup(comp: odrs_mod.CompiledWarmup, n_runs: int, seed: int, on_chunk=None,
                  keep=None):
    """Vectorized replays of the warm-up ODRS (`_batch_replay`)."""
    return _batch_replay(comp, n_runs, seed, on_chunk, keep)


def _batch_run(algorithm: str, inst: MatchingInstance, params, n_runs: int, seed: int,
               on_chunk=None, nodes=None) -> dict[tuple[int, int], int]:
    """Edge counts of n_runs vectorized replays of scheme `algorithm`.

    `on_chunk(offline, arrival)`, when given, receives each run chunk's
    matched flags as run-major bool arrays of shape (runs, n) and (runs, T),
    chunks in run order, so a replay holds O(CHUNK_RUNS x (n + T)) flags at
    a time.

    `nodes`, when given, restricts the replay to the arrivals whose
    positive-fraction edges lie in the offline components of those nodes;
    the counts then hold only those arrivals' edges, each equal to the full
    replay's. It cannot be combined with `on_chunk`, whose flags would show
    the other arrivals as never matched."""
    keep = None
    if nodes is not None:
        if on_chunk is not None:
            raise DomainError("a replay restricted to some nodes keeps no matched flags")
        keep = _component_arrivals(inst, nodes)
    comp = odrs_mod.compile_scheme(algorithm, inst, params)
    # kernels are looked up at call time, so a wrapper installed on the
    # module global is the one that runs
    kernel = _batch_warmup if isinstance(comp, odrs_mod.CompiledWarmup) else _batch_odrs
    return kernel(comp, n_runs, seed, on_chunk, keep=keep)


def _component_arrivals(inst: MatchingInstance, nodes) -> set[int]:
    """The arrivals with a positive-fraction edge in an offline component of
    `nodes` (all of an arrival's such edges share one component)."""
    if any(not 0 <= i < inst.n_offline for i in nodes):
        raise DomainError(f"offline nodes {list(nodes)} are not all in [0, {inst.n_offline})")
    labels = odrs_mod._components(inst)
    wanted = {labels[i] for i in nodes}
    return {t for t, arr in enumerate(inst.arrivals)
            if any(x > 0 and labels[i] in wanted for i, x in arr.edges)}


def monte_carlo_edge_probs(algorithm: str, inst: MatchingInstance, n_runs: int,
                           seed: int, params=None, exact: bool = False) -> dict:
    """The report `round` prints: per-edge match probabilities, exact (engine,
    standard error 0) or frequencies over n_runs vectorized replays with
    normal-approximation standard errors."""
    if not exact and n_runs < 1000:
        raise DomainError("need at least 10^3 runs")
    xs = {(i, t): x for i, t, x in inst.edge_list() if x > 0}
    if exact:
        probs = engine.edge_match_probs(inst, params, algorithm)
    else:
        counts = _batch_run(algorithm, inst, params, n_runs, seed)
        probs = {key: cnt / n_runs for key, cnt in counts.items()}
    edges = []
    for (i, t), x in sorted(xs.items(), key=lambda kv: (kv[0][1], kv[0][0])):
        p = probs.get((i, t), 0.0)
        se = 0.0 if exact else _binomial_se(p, n_runs)
        edges.append({"offline": i, "arrival": t, "x": x, "prob": p, "se": se, "ratio": p / x})
    return {"algorithm": algorithm, "seed": seed, "n_runs": 0 if exact else n_runs,
            "exact": exact,
            "params": {} if params is None else {"eps": params.eps, "delta": params.delta,
                                                 "variant": params.variant},
            "min_ratio": min((e["ratio"] for e in edges), default=1.0), "edges": edges}


def _binomial_se(p: float, n_runs: int) -> float:
    """Normal-approximation standard error of a frequency p over n_runs runs,
    with p(1 - p) floored at 1e-12."""
    return math.sqrt(max(p * (1.0 - p), 1e-12) / n_runs)


# ----------------------------------------------------------------------------
# lower bounds
# ----------------------------------------------------------------------------

def lb_root_check() -> float:
    """|1 - p - p^2/4| at p = 2 sqrt 2 - 2 (the adversary's target ratio)."""
    p = LB_RATIO
    return abs(1.0 - p - p * p / 4.0)


class _PairCounts:
    """Per-chunk reduction of replay flags: for each pair of arrivals and
    each pair of offline nodes, the number of runs matching both, summed in
    int64 (the diagonal counts the runs matching one)."""

    def __init__(self):
        self.offline = self.arrival = 0

    def __call__(self, offline: np.ndarray, arrival: np.ndarray):
        self.offline = self.offline + _gram(offline)
        self.arrival = self.arrival + _gram(arrival)


def _gram(flags: np.ndarray) -> np.ndarray:
    """`flags.T @ flags` of a (runs, m) bool array as int64, taken in float32
    on the node-major `(m, runs)` flags. The float product is exact: every
    entry and partial sum is an integer count of at most `runs`, at most
    2^24."""
    if flags.shape[0] > FLOAT32_EXACT:
        raise InvariantBreach(f"a chunk of {flags.shape[0]} runs overflows the exact "
                              f"float32 count {FLOAT32_EXACT}")
    f = flags.T.astype(np.float32)
    return (f @ f.T).astype(np.int64)


def lb_adversary(algorithm: str, n: int, n_probe: int, n_eval: int, seed: int,
                 params=None) -> dict:
    """Two-phase adversary against an ODRS scheme, by name.

    Probe: estimate, on the disjoint-pair prefix, each online node's matched
    probability and pick the pair (t, t') with the largest covariance, then
    the offline pair (i, j) in their neighborhoods with the largest
    joint-matched probability. Evaluate: append a final arrival on {i, j}
    with fractions 1/2 and report its edge ratios over fresh replays. The
    probe replays every arrival, since its argmax reads every arrival pair;
    the evaluation replays only the arrivals in the offline components of i
    and j and skips the other arrivals' batches, which gives the counts of
    the full replay. Both phases need at least 10^3 runs, and n lies in
    [3, LB_MAX_N].
    """
    if n < 3:
        raise DomainError("adversary needs n >= 3")
    if n > LB_MAX_N:
        raise SizeError(f"adversary prefix n = {n} exceeds the cap {LB_MAX_N}")
    if min(n_probe, n_eval) < 1000:
        raise DomainError("adversary needs at least 10^3 probe and eval runs")
    prefix = gen_lb_prefix(n)
    pairs = _PairCounts()
    _batch_run(algorithm, prefix, params, n_probe, seed, on_chunk=pairs)
    online_rate = np.diag(pairs.arrival) / n_probe
    joint = pairs.arrival / n_probe
    cov = joint - np.outer(online_rate, online_rate)
    np.fill_diagonal(cov, -np.inf)
    t1, t2 = sorted(divmod(int(np.argmax(cov)), n))
    best_pair, best_joint = None, -1.0
    for i in (2 * t1, 2 * t1 + 1):
        for j in (2 * t2, 2 * t2 + 1):
            jp = pairs.offline[i, j] / n_probe
            if jp > best_joint:
                best_joint, best_pair = jp, (i, j)
    i, j = best_pair
    final = Arrival(((i, 0.5), (j, 0.5)))
    full = MatchingInstance(prefix.n_offline, prefix.capacities,
                            prefix.arrivals + (final,))
    rep = validate(full)
    rep.raise_if_invalid()
    # only the final arrival's components can change its two counts
    counts = _batch_run(algorithm, full, params, n_eval, seed + 1, nodes=(i, j))
    t_final = full.n_arrivals - 1
    edges = []
    for node in (i, j):
        p = counts.get((node, t_final), 0) / n_eval
        se = _binomial_se(p, n_eval)
        edges.append({"offline": node, "prob": p, "se": se,
                      "ratio": p / 0.5, "ratio_se": se / 0.5})
    # the final arrival is matched in a run iff one of its two edges is
    matched_prob = (counts.get((i, t_final), 0) + counts.get((j, t_final), 0)) / n_eval
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
            counts = _batch_run(algorithm, inst, params, n_runs, seed)
            entry["mc_matched_prob"] = (counts.get((i, 3), 0) + counts.get((j, 3), 0)) / n_runs
            entry["mc_se"] = _binomial_se(exact_p, n_runs)
        choices.append(entry)
    return {"choices": choices,
            "min_matched_prob": min(c["exact_matched_prob"] for c in choices)}
