import hashlib
import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from odrs_lab import crs
from odrs_lab import exact_engine as engine
from odrs_lab import level_set as ls
from odrs_lab import odrs
from odrs_lab.errors import DomainError, InvariantBreach
from odrs_lab.level_set import SNAP_TOL, _snap, kahan_add, step_table
from odrs_lab.rng import _scramble


@pytest.fixture(scope="session")
def matching_params():
    eps, delta, _ = odrs.optimize_params("matching")
    return odrs.ScalingParams(eps, delta)


@pytest.fixture(scope="session")
def b_matching_params():
    eps, delta, _ = odrs.optimize_params("b_matching")
    return odrs.ScalingParams(eps, delta, "b_matching")


def digest(obj) -> str:
    """sha256 of `repr(obj)`: a golden value for a report or a sampled output."""
    return hashlib.sha256(repr(obj).encode()).hexdigest()


class SymbolicUniform:
    """One uniform draw on [0, 1) of a run that `exact_law` enumerates, known
    only as the interval [lo, hi) that the comparisons so far confine it to:
    its ends are 0, 1 or thresholds it was compared with, which compare
    exactly as they are and count as Fractions in the path's mass. `u < c`
    (or `c > u`) is its one operation: a c inside the interval forks the
    run. Any other use (`float(u)`, arithmetic, `>=`) raises TypeError, so a
    sampler that does more with a draw cannot be mis-enumerated."""

    def __init__(self, fork):
        self.lo, self.hi, self._fork = 0, 1, fork

    def __lt__(self, c):
        if not self.lo < c < self.hi:  # a NaN c is below nothing, as for a float draw
            return c >= self.hi
        below = self._fork()
        if below:
            self.hi = c
        else:
            self.lo = c
        return below


def exact_law(sample) -> dict:
    """The exact law of the code that samples: `sample(uniform)` is one run,
    whose draws `uniform()` are `SymbolicUniform`s. The run is repeated once
    per path of decisions at its forking comparisons, depth first, each
    replaying the decisions of the path it forked from, and the outcome it
    returns (hashable) gains the product of its draws' interval lengths.
    Returns outcome -> Fraction mass; the masses sum to exactly one."""
    law = {}
    paths = [[]]
    while paths:
        path, draws, forks = paths.pop(), [], 0

        def fork():
            nonlocal forks
            if forks == len(path):  # a new fork: below now, at or above later
                paths.append(path + [False])
                path.append(True)
            forks += 1
            return path[forks - 1]

        def uniform():
            draws.append(SymbolicUniform(fork))
            return draws[-1]

        out = sample(uniform)
        mass = math.prod((Fraction(u.hi) - Fraction(u.lo) for u in draws), start=Fraction(1))
        law[out] = law.get(out, 0) + mass
    return law


def patched_law(monkeypatch, module, run) -> dict:
    """`exact_law` of `run()`, a sampler that takes its draws from
    `module.ScalarRng(seed)`: every such stream it makes is patched to
    return the enumerated uniforms."""
    stream = SimpleNamespace(uniform=None)
    monkeypatch.setattr(module, "ScalarRng", lambda seed: stream)

    def sample(uniform):
        stream.uniform = uniform
        return run()
    return exact_law(sample)


def bits_mask(bits) -> int:
    """The mask with bit k set where bits[k] is nonzero."""
    return sum(1 << k for k, b in enumerate(bits) if b)


def mask_law(n, law) -> crs.SupportDistribution:
    """An enumerated law of masks over positions 0..n-1 as a
    `crs.SupportDistribution`, its masses as floats."""
    return crs.SupportDistribution.summed(range(n), law, [float(p) for p in law.values()])


def online_law(x) -> crs.SupportDistribution:
    """The enumerated law of `level_set.online_round(x)`'s bits."""
    return mask_law(len(x), exact_law(
        lambda uniform: bits_mask(ls.online_round(x, rng=SimpleNamespace(uniform=uniform)))))


def offline_law(x, monkeypatch) -> crs.SupportDistribution:
    """The enumerated law of `level_set.offline_pivotal(x)`'s bits."""
    return mask_law(len(x), patched_law(monkeypatch, ls, lambda: bits_mask(ls.offline_pivotal(x))))


def ahead_law(comp, t: int) -> dict:
    """The enumerated law of a compiled scheme's `ahead` bits as a mask (bit i
    = offline node i) once `odrs.arrival_step` has run the records of the
    arrivals before t."""
    def sample(uniform):
        ahead = [False] * comp.inst.n_offline
        for record in comp.arrivals:
            if record[0] < t:
                odrs.arrival_step(ahead, record, uniform)
        return bits_mask(ahead)
    return exact_law(sample)


def reference_win_probs(sel, bids):
    """Scalar tree walk of `ProductSelector.conditional_win_probs` for one
    realized bid set (a set of positions): the reference the mask-batched
    pass must equal bit for bit."""
    out = np.zeros(sel.n)
    if not bids:
        return out
    has_bid = {~i: (i in bids) for i in range(sel.n)}
    for ref, (r1, r2) in enumerate(sel.children):
        has_bid[ref] = has_bid[r1] or has_bid[r2]
    stack = [(sel.root, 1.0)]
    while stack:
        ref, w = stack.pop()
        if w <= 0.0:
            continue
        if ref < 0:
            out[~ref] += w
            continue
        r1, r2 = sel.children[ref]
        pattern = (1 if has_bid[r1] else 0) | (2 if has_bid[r2] else 0)
        w1, w2 = sel.row(ref)[pattern]
        stack.append((r1, w * w1))
        stack.append((r2, w * w2))
    return out


def reference_product(elements, probs):
    """The nested loop that `SupportDistribution.product` replaced: element k
    splits each atom (mask, q), in order, into (mask, q * (1 - p)) unless
    p = 1 and (mask | bit k, q * p) unless p = 0. Returns the atom tuple."""
    atoms = [(0, 1.0)]
    for k, p in enumerate(probs):
        nxt = []
        for mask, q in atoms:
            if p < 1.0:
                nxt.append((mask, q * (1.0 - p)))
            if p > 0.0:
                nxt.append((mask | (1 << k), q * p))
        atoms = nxt
    return tuple(atoms)


def reference_exact_marginals(dist, rule):
    """The per-atom loop that `crs.exact_marginals` replaced: Pr[i wins]
    summed atom by atom in atom order, for a `SelectionRule` (its rows) or a
    `ProductSelector` (its scalar tree walk)."""
    out = np.zeros(len(dist.elements))
    for mask, p in dist.atoms:
        if not mask:
            continue
        if isinstance(rule, crs.ProductSelector):
            out += p * reference_win_probs(rule, {k for k in range(rule.n) if mask >> k & 1})
            continue
        for k, q in rule.rows[mask]:
            out[k] += p * q
    return out


def reference_select(rule, realized_mask, u):
    """The free function `SelectionRule.select` replaced: the winner's
    element id (not its position) for one uniform u, or -1."""
    if realized_mask == 0:
        row = ()
    elif realized_mask in rule.rows:
        row = rule.rows[realized_mask]
    else:
        raise DomainError(f"unmodeled realization {realized_mask:b}")
    acc = 0.0
    for k, q in row:
        if not (realized_mask >> k & 1):
            raise InvariantBreach("selector row assigns mass outside realized set")
        acc += q
        if u < acc:
            return rule.elements[k]
    if acc > 1.0 + 1e-9:
        raise InvariantBreach("selector row mass exceeds one")
    return -1


def built_rows(sel):
    """Every internal node's `ProductSelector.row`, built up front as the
    selector did before its walk solved only the nodes it visits."""
    return [sel.row(ref) for ref in range(len(sel.children))]


def reference_product_select(sel, bids, uniform, rows=None):
    """The set-based walk `ProductSelector.select` replaced, on fully built
    rows (`built_rows(sel)` unless given): the winner among the bidder
    positions `bids`, or -1."""
    if not bids:
        return -1
    rows = built_rows(sel) if rows is None else rows
    has_bid = {~i: (i in bids) for i in range(sel.n)}
    for ref, (r1, r2) in enumerate(sel.children):
        has_bid[ref] = has_bid[r1] or has_bid[r2]
    ref = sel.root
    while ref >= 0:
        r1, r2 = sel.children[ref]
        pattern = (1 if has_bid[r1] else 0) | (2 if has_bid[r2] else 0)
        w1, w2 = rows[ref][pattern]
        u = uniform()
        if u < w1:
            ref = r1
        elif u < w1 + w2:
            ref = r2
        else:
            return -1
    return ~ref


def reference_product_tree(y):
    """The dict-built merge tree of `crs.ProductSelector` before its per-node
    lists: n, alpha, children, root, and bid_p, target and sub as dicts keyed
    by node ref (leaf i as ~i). `crs.ProductSelector.weights` reads it as it
    reads a selector."""
    n = len(y)
    alpha = (1.0 - math.prod(1.0 - p for p in y)) / sum(y)
    children = []
    bid_p = {~i: y[i] for i in range(n)}
    target = {~i: alpha * y[i] for i in range(n)}
    sub = {~i: 1 << i for i in range(n)}
    layer = [~i for i in range(n)]
    while len(layer) > 1:
        nxt = []
        for a in range(0, len(layer) - 1, 2):
            r1, r2 = layer[a], layer[a + 1]
            ref = len(children)
            children.append((r1, r2))
            bid_p[ref] = 1.0 - (1.0 - bid_p[r1]) * (1.0 - bid_p[r2])
            target[ref] = target[r1] + target[r2]
            sub[ref] = sub[r1] | sub[r2]
            nxt.append(ref)
        if len(layer) % 2:
            nxt.append(layer[-1])
        layer = nxt
    return SimpleNamespace(n=n, alpha=alpha, children=children, root=layer[0],
                           bid_p=bid_p, target=target, sub=sub)


def reference_max_flow(net, s, t):
    """`crs.FlowNetwork.max_flow` as a deque BFS that tests for the sink before
    each node it takes, on `net`'s lists: the same augmenting paths."""
    head, to, cap = net.head, net.to, net.cap
    total = 0
    while True:
        parent_edge = [-1] * net.n
        parent_edge[s] = -2
        q = deque([s])
        while q and parent_edge[t] == -1:
            u = q.popleft()
            for eid in head[u]:
                v = to[eid]
                if cap[eid] > 0 and parent_edge[v] == -1:
                    parent_edge[v] = eid
                    if v == t:
                        break
                    q.append(v)
        if parent_edge[t] == -1:
            return total
        bottleneck = None
        v = t
        while v != s:
            eid = parent_edge[v]
            bottleneck = cap[eid] if bottleneck is None else min(bottleneck, cap[eid])
            v = to[eid ^ 1]
        v = t
        while v != s:
            eid = parent_edge[v]
            cap[eid] -= bottleneck
            cap[eid ^ 1] += bottleneck
            v = to[eid ^ 1]
        total += bottleneck


def reference_build_selector(dist, v):
    """`crs.build_selector` before its atoms kept (position, edge) lists and
    before its short phase: element edges in an (atom, position) dict, sink
    capacities from numpy scalars and the whole Edmonds-Karp run by
    `reference_max_flow` from scratch. Returns (rows, alpha)."""
    v = np.asarray(v, dtype=float)
    alpha = crs.balance_ratio(dist, v)
    atoms = [(mask, p) for mask, p in dist.atoms if mask]
    n_el = len(dist.elements)
    sink = 1 + len(atoms) + n_el
    net = crs.FlowNetwork(sink + 1)
    inf_cap = int(round(crs.FLOW_SCALE * 1.001)) + len(atoms)
    mid_edges = {}
    for a, (mask, p) in enumerate(atoms):
        net.add_edge(0, 1 + a, int(round(p * crs.FLOW_SCALE)))
        for k in range(n_el):
            if mask >> k & 1:
                mid_edges[(a, k)] = net.add_edge(1 + a, 1 + len(atoms) + k, inf_cap)
    for k in range(n_el):
        net.add_edge(1 + len(atoms) + k, sink, int(round(alpha * v[k] * crs.FLOW_SCALE)))
    reference_max_flow(net, 0, sink)
    rows = {}
    for a, (mask, p) in enumerate(atoms):
        members = [k for k in range(n_el) if mask >> k & 1]
        if p < crs.ATOM_EPS:
            rows[mask] = tuple((k, 1.0 / len(members)) for k in members)
            continue
        scaled = int(round(p * crs.FLOW_SCALE))
        flows = [(k, net.flow_on(mid_edges[(a, k)])) for k in members]
        rows[mask] = tuple((k, f / scaled) for k, f in flows if f > 0)
    return rows, alpha


@dataclass(frozen=True)
class LevelSetState:
    """The frozen per-step state the flat `level_set.online_step` replaced:
    running prefix sum and selection count (plus Kahan compensation)."""

    s_prev: float = 0.0
    count_prev: int = 0
    comp: float = 0.0


def reference_step_probability(state: LevelSetState, x: float) -> float:
    """`level_set.step_probability` as it read a `LevelSetState`, with its
    snaps through `_snap` and its clamp through min and max: the five-way case
    split the flat, helper-free step must equal bit for bit."""
    s_prev = _snap(state.s_prev)
    s_t = _snap(state.s_prev + x)
    count = state.count_prev
    fl_prev = math.floor(s_prev)
    fl_t = math.floor(s_t)
    ce_t = math.ceil(s_t)
    if count == ce_t:
        p = 0.0
    elif count < fl_t:
        p = 1.0
    elif count == fl_t == fl_prev:
        p = x / (fl_prev + 1.0 - s_prev)
    elif count == fl_t and fl_t > fl_prev and s_prev != fl_prev:
        p = (s_t - fl_t) / (s_prev - fl_prev)
    else:
        p = 0.0
    if p < -SNAP_TOL or p > 1.0 + SNAP_TOL:
        raise InvariantBreach(f"selection probability {p} out of range at s={s_t}, count={count}")
    return min(1.0, max(0.0, p))


def reference_online_step(state: LevelSetState, x: float, u: float) -> tuple[int, LevelSetState]:
    """`level_set.online_step` on a `LevelSetState`, through `kahan_add` and
    `_snap`: (selected bit, new state); aborts if the prefix-count invariant
    would break."""
    p = reference_step_probability(state, x)
    selected = 1 if u < p else 0
    s_new, comp = kahan_add(state.s_prev, state.comp, x)
    count = state.count_prev + selected
    snapped = _snap(s_new)
    if not (math.floor(snapped) <= count <= math.ceil(snapped)):
        raise InvariantBreach(
            f"prefix count {count} outside [floor,ceil] of prefix sum {s_new}")
    return selected, LevelSetState(s_new, count, comp)


def warmup_rows(comp):
    """Per arrival of a `CompiledWarmup`, each positive edge's level-set table
    row (node, floor of its prefix sum, p_lag, p_ahead): `step_table` on the
    node's Kahan-summed prefix sum before the edge, as the warm-up's
    samplers looked up a row by the node's count."""
    s = [0.0] * comp.inst.n_offline
    carry = [0.0] * comp.inst.n_offline
    out = []
    for edges in comp.edges:
        rows = []
        for i, x in edges:
            rows.append((i, *step_table(s[i], x)))
            s[i], carry[i] = kahan_add(s[i], carry[i], x)
        out.append(rows)
    return out


def splitmix64(state: int) -> tuple[int, int]:
    """One scalar SplitMix64 step, the chain `rng.ScalarRng` computes in
    blocks: returns (new_state, output word)."""
    state = (state + 0x9E3779B97F4A7C15) & ((1 << 64) - 1)
    return state, _scramble(state)


def scaled_degree_prefixes(plans):
    """Each node's scaled degree (prefix sums of `plan.xhat`) before every
    arrival, then after the last: len(plans) + 1 dicts, indexed by t."""
    out, acc = [], {}
    for plan in plans:
        out.append(dict(acc))
        for i, xh in plan.xhat.items():
            acc[i] = acc.get(i, 0.0) + xh
    return out + [acc]


def bit_law(n, probs):
    """The law over positions 0..n-1 with the given mask probabilities."""
    return crs.SupportDistribution(tuple(range(n)), tuple(probs.items()))


def cylinder_mass(law, idx):
    """E[prod of Y_i over i in idx]: Pr[every bit of idx is set]."""
    sel = sum(1 << i for i in idx)
    return law.expectation(lambda mask: mask & sel == sel)


def rotation_joint(n, popcounts, weights, seed):
    """Mixture of cyclic-rotation orbits, as (law, p): every bit has the same
    marginal p."""
    rng = np.random.default_rng(seed)
    probs = {}
    ps = 0.0
    for k, wgt in zip(popcounts, weights):
        base = 0
        for i in rng.choice(n, size=k, replace=False):
            base |= 1 << int(i)
        for r in range(n):
            mask = ((base << r) | (base >> (n - r))) & ((1 << n) - 1)
            probs[mask] = probs.get(mask, 0.0) + wgt / n
        ps += wgt * k / n
    return bit_law(n, probs), ps


def sized_joint(p0, eps, r, seed):
    """Rotation joint, as (law, p), large enough for the cylinder recursion
    at (p, eps)."""
    n = 2 ** r
    while True:
        k = max(1, round(n * p0))
        p = k / n
        if eps < p ** (2 ** r) and n >= engine.n_r_bound(r, p, eps):
            return rotation_joint(n, [k], [1.0], seed)
        n += 1
