"""Offline contention resolution: balance ratio, selector synthesis, selection.

Given the law of a random bidder set R and targets v, the selector picks at
most one winner from the realized set so that Pr[i wins] = alpha * v_i exactly,
where alpha = min_S Pr[R cap S != empty] / v(S). General laws go through a
max-flow construction on the atom/element network; product laws additionally
get a polytime merge-tree selector usable at any scale.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import bitmask
from .errors import DomainError, InvariantBreach

FLOW_SCALE = 1 << 40
ATOM_EPS = 1e-15
ATOM_CHUNK = 1024  # atoms per block of the exact sum in `exact_marginals`


@dataclass(frozen=True)
class SupportDistribution:
    """Explicit distribution over subsets of the declared elements; every
    exact law in the package is one.

    Atom masks index positions in `elements` (bit k = elements[k]); a law
    over n bits has the elements 0..n-1. Only this module reads the stored
    (mask, probability) pairs: laws are built by `summed`, `distinct` or
    `product`. A law holds its atom tuple and, once computed, its `columns()`:
    16 bytes more per atom (an int64 mask and a float probability below 63
    elements), computed and checked once and read-only. `distinct` and
    `product` hand in the arrays they built the atoms from; any other law
    builds them on its first `columns()` call.
    """

    elements: tuple[int, ...]
    atoms: tuple[tuple[int, float], ...]

    def check(self, tol: float = 1e-9) -> "SupportDistribution":
        """The law, once checked: probabilities sum to one within tol, none is
        below -tol, and every mask lies in the elements."""
        total = sum(p for _, p in self.atoms)
        if abs(total - 1.0) > tol:
            raise InvariantBreach(f"atom probabilities sum to {total}")
        full = (1 << len(self.elements)) - 1
        for mask, p in self.atoms:
            if p < -tol:
                raise InvariantBreach("negative atom probability")
            if mask & ~full:
                raise InvariantBreach("atom mask outside declared elements")
        return self

    @staticmethod
    def summed(elements, masks, probs) -> "SupportDistribution":
        """One atom per distinct mask, in first-seen order, with the mask's
        probabilities summed in input order; `masks` and `probs` are
        sequences or arrays of equal length."""
        masks, probs = (c.tolist() if isinstance(c, np.ndarray) else c for c in (masks, probs))
        out: dict[int, float] = {}
        for mask, p in zip(masks, probs, strict=True):
            out[mask] = out.get(mask, 0.0) + p
        return SupportDistribution(tuple(elements), tuple(out.items()))

    @staticmethod
    def distinct(elements, masks: np.ndarray, probs: np.ndarray) -> "SupportDistribution":
        """One atom per mask, in order, for arrays of distinct masks (such as
        the bid-law DP's): `summed` of them, without its pass over repeats.
        The law keeps the two arrays as its columns and makes them read-only."""
        law = SupportDistribution(tuple(elements), tuple(zip(masks.tolist(), probs.tolist())))
        law._keep_columns(masks, probs)
        return law

    @staticmethod
    def product(elements, probs) -> "SupportDistribution":
        """Independent Bernoulli inclusion with the given probabilities
        (up to 2^len(elements) atoms, so at most bitmask.MAX_BITS elements).
        One probability per element, each finite in [0, 1], else DomainError.

        Element k splits each atom (mask, q) into (mask, q * (1 - p_k)) and
        (mask | bit k, q * p_k), in that order, dropping the half of
        probability zero when p_k is 0 or 1 (whose other half is q * 1.0,
        which is q)."""
        elements = tuple(elements)
        probs = [float(p) for p in probs]
        if len(probs) != len(elements):
            raise DomainError("a product law needs one probability per element")
        if not all(0.0 <= p <= 1.0 for p in probs):  # NaN fails this too
            raise DomainError("product-law probabilities must lie in [0, 1]")
        bitmask.check_width(len(probs), "a product law")
        masks, q = np.zeros(1, dtype=np.int64), np.ones(1)
        for k, p in enumerate(probs):
            if p == 1.0:
                masks = masks | 1 << k
            elif p > 0.0:  # atom a becomes atoms 2a and 2a + 1
                masks = (masks[:, None] | np.array([0, 1 << k])).ravel()
                q = np.multiply.outer(q, [1.0 - p, p]).ravel()
        law = SupportDistribution(elements, tuple(zip(masks.tolist(), q.tolist())))
        law._keep_columns(masks, q)
        return law

    def _keep_columns(self, masks, probs) -> tuple[np.ndarray, np.ndarray]:
        """Store `columns()`: the masks through `bitmask.checked` and the
        probabilities as floats, both made read-only."""
        masks = bitmask.checked(masks, len(self.elements))
        probs = np.asarray(probs, dtype=float)
        masks.flags.writeable = probs.flags.writeable = False
        object.__setattr__(self, "_columns", (masks, probs))
        return masks, probs

    def columns(self) -> tuple[np.ndarray, np.ndarray]:
        """The atom masks (`bitmask.checked` over the elements, so Python
        integers past 62 elements) and their probabilities as floats, in
        atom order: the same two read-only arrays on every call."""
        cols = self.__dict__.get("_columns")
        if cols is None:
            cols = self._keep_columns([m for m, _ in self.atoms], [p for _, p in self.atoms])
        return cols

    def marginals(self) -> np.ndarray:
        """Pr[element k in R] per position k, as the probabilities times the
        atoms' 0/1 bit matrix (one matrix product, so the sums are fixed)."""
        masks, probs = self.columns()
        return probs @ bitmask.bit_matrix(masks, len(self.elements))

    def expectation(self, fn) -> float:
        """E[fn(mask)], summed in atom order."""
        return sum(p * fn(mask) for mask, p in self.atoms)

    def tv_distance(self, other: "SupportDistribution") -> float:
        """Total variation distance to a law over the same elements."""
        if other.elements != self.elements:
            raise DomainError("laws over different elements")
        a, b = (dict(SupportDistribution.summed(d.elements, *d.columns()).atoms)
                for d in (self, other))
        return 0.5 * sum(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in set(a) | set(b))


def _nonempty_hit_probs(dist: SupportDistribution, active: list[int]) -> np.ndarray:
    """Subset sums of the atom law projected onto `active` (local masks);
    Pr[R cap S = empty] is the entry at the complement of S."""
    masks, probs = dist.columns()
    if len(active) < len(dist.elements):  # else the projection keeps every mask
        masks = bitmask.project(masks, active, len(dist.elements))
    proj = np.zeros(1 << len(active))
    np.add.at(proj, masks, probs)  # in atom order
    return bitmask.subset_sums(proj)


def balance_ratio(dist: SupportDistribution, v) -> float:
    """min over nonempty S of Pr[R cap S != empty] / v(S), exhaustively.

    Only elements with v_i > 0 matter; at most bitmask.MAX_BITS of them are
    allowed. A negative or non-finite v_i raises DomainError;
    the targets are read as Python floats (`tolist`), not numpy scalars.
    """
    vl = np.asarray(v, dtype=float).tolist()
    if len(vl) != len(dist.elements):
        raise DomainError("v must align with dist.elements")
    if not all(0.0 <= vk < math.inf for vk in vl):  # NaN fails this too
        raise DomainError("v must be finite and nonnegative")
    active = [k for k, vk in enumerate(vl) if vk > 0]
    if not active:
        raise DomainError("at least one v_i must be positive")
    bitmask.check_width(len(active), "the balance ratio's active set")
    k = len(active)
    g = _nonempty_hit_probs(dist, active)
    # v(S) one bit at a time from the highest down: the masks with lowest bit
    # b add v_b to the mask without it, so each sum adds its terms from the
    # highest element to the lowest
    vsum = np.zeros(1 << k)
    for b in range(k - 1, -1, -1):
        step = 2 << b
        vsum[1 << b::step] = vsum[::step] + vl[active[b]]
    # S runs over 1..2^k - 1, so its complement runs down from 2^k - 2 to 0
    return max(0.0, ((1.0 - g[-2::-1]) / vsum[1:]).min())


# ----------------------------------------------------------------------------
# max flow (integer-scaled shortest augmenting path)
# ----------------------------------------------------------------------------

class FlowNetwork:
    """Directed network with integer capacities; Edmonds-Karp max flow."""

    def __init__(self, n_nodes: int):
        self.n = n_nodes
        self.head: list[list[int]] = [[] for _ in range(n_nodes)]
        self.to: list[int] = []
        self.cap: list[int] = []

    def add_edge(self, u: int, v: int, cap: int, flow: int = 0) -> int:
        """Edge u -> v of capacity `cap` already carrying `flow`; returns its
        id (its reverse edge is id + 1)."""
        eid = len(self.to)
        self.head[u].append(eid)
        self.head[v].append(eid + 1)
        self.to += (v, u)
        self.cap += (cap - flow, flow)
        return eid

    def max_flow(self, s: int, t: int) -> int:
        """Edmonds-Karp: augment along shortest residual paths until none is
        left; returns the flow value added and leaves the residual capacities
        in `cap`. Each BFS scans nodes in queue order and their edges in
        adjacency (insertion) order, and stops as soon as it discovers `t`:
        the edge that discovered `t` (and so the whole path) is fixed at that
        moment. These paths fix the flow on every edge, which the selector
        rows of `build_selector` are read from. It may start from a network
        that already carries flow: `build_selector` first pushes the shortest
        paths through `_short_paths`, and the BFS then takes the paths it
        would have taken next; `build_selector` builds the network and calls
        it only while some sink edge keeps residual capacity. Once the flow
        added uses up the residual capacity into `t`, no augmenting path is
        left, and the BFS that would find none is not run."""
        head, to, cap = self.head, self.to, self.cap
        room = sum(max(cap[eid ^ 1], 0) for eid in head[t])  # residual capacity into t
        total = 0
        while total < room:
            parent_edge = [-1] * self.n
            parent_edge[s] = -2
            queue = [s]
            for u in queue:  # the queue grows while it is scanned
                for eid in head[u]:
                    if cap[eid] > 0:
                        v = to[eid]
                        if parent_edge[v] == -1:
                            parent_edge[v] = eid
                            if v == t:
                                break
                            queue.append(v)
                if parent_edge[t] != -1:
                    break
            else:
                break
            path = []
            v = t
            while v != s:
                eid = parent_edge[v]
                path.append(eid)
                v = to[eid ^ 1]
            bottleneck = min([cap[eid] for eid in path])
            for eid in path:
                cap[eid] -= bottleneck
                cap[eid ^ 1] += bottleneck
            total += bottleneck
        return total

    def flow_on(self, eid: int) -> int:
        return self.cap[eid ^ 1]


# ----------------------------------------------------------------------------
# selector from an explicit law
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class SelectionRule:
    """Per-realized-set conditional winner probabilities p_{i,S}."""

    elements: tuple[int, ...]
    rows: dict  # atom mask -> tuple of (position, probability)
    alpha: float

    def select(self, mask: int, uniform) -> int:
        """Winner position among the realized set `mask`, or -1 for none.

        `uniform` is a niladic callable returning U[0,1) draws; it is called
        once, and only when the mask is nonzero. A nonzero mask the rule
        does not model raises DomainError.
        """
        if not mask:
            return -1
        try:
            row = self.rows[mask]
        except KeyError:
            raise DomainError(f"unmodeled realization {mask:b}") from None
        u = uniform()
        acc = 0.0
        for k, q in row:
            if not (mask >> k & 1):
                raise InvariantBreach("selector row assigns mass outside realized set")
            acc += q
            if u < acc:
                return k
        if acc > 1.0 + 1e-9:
            raise InvariantBreach("selector row mass exceeds one")
        return -1

    def conditional_win_probs(self, masks) -> np.ndarray:
        """Pr[position wins | realized set] for each atom mask, as a
        (len(elements), len(masks)) matrix; a column is zero for mask 0 and
        for a mask the rule does not model."""
        masks = bitmask.checked(masks, len(self.elements))
        out = np.zeros((len(self.elements), len(masks)))
        for col, mask in enumerate(masks.tolist()):
            for k, q in self.rows.get(mask, ()):
                out[k, col] = q
        return out


def _short_paths(src_cap: list[int], members: list[list[int]], sink_cap: list[int]
                 ) -> tuple[list[list[int]], list[int]]:
    """Push Edmonds-Karp's length-3 augmenting paths src -> atom -> element
    -> sink on the selector network, in the order `FlowNetwork.max_flow`
    takes them, without building the network. Atom a has source capacity
    `src_cap[a]` and holds the positions `members[a]` (in order); position k
    has sink capacity `sink_cap[k]`. Returns per atom the flow pushed to each
    of its positions, and the residual sink capacities.

    The BFS queues the atoms with source residual in atom order, each element
    under the first of them holding it, in the order (that atom, position),
    and stops at the first element whose sink edge has residual capacity; the
    middle edges' capacity exceeds every source capacity, so they never bind
    and a path pushes the smaller of its source and sink residuals. So each
    path runs through the lowest atom with source residual that holds a
    position with sink residual, to the lowest such position. A push
    saturates that source or that sink edge and no push restores either, so
    the paths come atom by atom, each atom's positions in order: one pass
    over the (atom, position) edges.
    """
    sink_res = list(sink_cap)
    flows = []
    for left, ks in zip(src_cap, members):
        row = [0] * len(ks)
        for j, k in enumerate(ks):
            if left <= 0:
                break
            room = sink_res[k]
            if room > 0:
                push = left if left < room else room
                row[j] = push
                sink_res[k] = room - push
                left -= push
        flows.append(row)
    return flows, sink_res


def _selector_network(src_cap: list[int], members: list[list[int]], sink_cap: list[int],
                      flows: list[list[int]]) -> tuple[FlowNetwork, list[list[int]]]:
    """The selector network src (node 0) -> atoms -> elements -> sink (the
    last node) carrying `flows` (per atom, per member position), with its
    edges added atom by atom (the source edge, then the element edges in
    position order) and then the sink edges; returns it with each atom's
    element edge ids. The element edges get a capacity above every source
    capacity, so they never bind."""
    n_atoms = len(members)
    sink = 1 + n_atoms + len(sink_cap)
    net = FlowNetwork(sink + 1)
    inf_cap = int(round(FLOW_SCALE * 1.001)) + n_atoms
    add = net.add_edge
    into = [0] * len(sink_cap)  # flow into each element
    mid_edges = []
    for a, (cap, ks, row) in enumerate(zip(src_cap, members, flows)):
        add(0, 1 + a, cap, sum(row))
        edges = []
        for k, f in zip(ks, row):
            edges.append(add(1 + a, 1 + n_atoms + k, inf_cap, f))
            into[k] += f
        mid_edges.append(edges)
    for k, (cap, f) in enumerate(zip(sink_cap, into)):
        add(1 + n_atoms + k, sink, cap, f)
    return net, mid_edges


def build_selector(dist: SupportDistribution, v) -> SelectionRule:
    """Synthesize p_{i,S} by max flow on the atoms/elements network.

    src -> atom S with capacity Pr[R=S]; atom -> element i in S (uncapped);
    element i -> sink with capacity alpha * v_i. The balance ratio is exactly
    the scaled Hall condition, so the flow saturates every element edge.
    The order edges are added in fixes the paths Edmonds-Karp takes:
    `_short_paths` pushes its length-3 paths directly, then
    `FlowNetwork.max_flow` finds the longer ones by BFS, so the flow equals
    that of `max_flow` run from scratch. The element -> sink edges are the
    only residual edges into the sink, so when the short phase has saturated
    all of them the BFS would find no path: the network is then not built and
    the rows are read from the short phase's flows. An atom probability above
    one raises DomainError.
    """
    v = np.asarray(v, dtype=float)
    alpha = balance_ratio(dist, v)
    atoms = [(mask, p) for mask, p in dist.atoms if mask]
    if any(p > 1.0 + 1e-9 for _, p in atoms):  # keeps every middle edge unsaturated
        raise DomainError("atom probabilities must not exceed one")
    src_cap = [round(p * FLOW_SCALE) for _, p in atoms]
    members = [bitmask.set_bits(mask) for mask, _ in atoms]
    sink_cap = [round(alpha * vk * FLOW_SCALE) for vk in v.tolist()]
    flows, sink_res = _short_paths(src_cap, members, sink_cap)
    flow = sum(sink_cap) - sum(sink_res)
    if any(sink_res):  # else no residual edge enters the sink
        net, mid_edges = _selector_network(src_cap, members, sink_cap, flows)
        flow += net.max_flow(0, net.n - 1)
        flow_on = net.flow_on
        flows = [[flow_on(eid) for eid in edges] for edges in mid_edges]
    want = alpha * float(v.sum())
    if flow / FLOW_SCALE < want - 1e-6:
        raise InvariantBreach(
            f"selector flow {flow / FLOW_SCALE} below required {want}; "
            "balance ratio or flow solver is inconsistent")
    rows = {}
    for (mask, p), scaled, ks, row in zip(atoms, src_cap, members, flows):
        if p < ATOM_EPS:
            rows[mask] = tuple((k, 1.0 / len(ks)) for k in ks)
        else:
            rows[mask] = tuple((k, f / scaled) for k, f in zip(ks, row) if f > 0)
    return SelectionRule(dist.elements, rows, alpha)


def exact_marginals(dist: SupportDistribution, rule) -> np.ndarray:
    """Pr[i wins] = sum_S Pr[R = S] p_{i,S}, for a `SelectionRule` or a
    `ProductSelector` on the law's elements (the selectors' oracle).

    The atoms go through `rule.conditional_win_probs` ATOM_CHUNK at a time
    and are summed in atom order by a running `np.add.accumulate` (the
    sequential sum of `np.cumsum`, unlike the pairwise `np.sum`), so the
    (elements × atoms) working arrays are bounded by the chunk, not by the
    `2^k` atoms of a k-element law. A nonzero atom that a `SelectionRule`
    does not model raises DomainError naming the first such mask in atom
    order; one set difference over the mask column finds whether any is.
    """
    masks, probs = dist.columns()
    if isinstance(rule, SelectionRule):
        unmodeled = set(masks.tolist()).difference(rule.rows, (0,))
        if unmodeled:
            first = next(m for m in masks.tolist() if m in unmodeled)
            raise DomainError(f"unmodeled realization {first:b}")
    acc = np.zeros(len(dist.elements))
    for a0 in range(0, len(masks), ATOM_CHUNK):
        p = probs[a0:a0 + ATOM_CHUNK]
        terms = np.empty((len(acc), len(p) + 1))
        terms[:, 0] = acc
        np.multiply(p, rule.conditional_win_probs(masks[a0:a0 + ATOM_CHUNK]), out=terms[:, 1:])
        acc = np.add.accumulate(terms, axis=1)[:, -1]
    return acc


# ----------------------------------------------------------------------------
# product-law selector (merge tree), polytime at any scale
# ----------------------------------------------------------------------------

@functools.lru_cache(maxsize=256)
def _merge_tree(n: int) -> tuple[tuple, int, tuple]:
    """(children, root, sub) of `ProductSelector`'s merge tree over n leaves,
    which depends on n alone."""
    children, sub = [], [0] * (n - 1) + [1 << i for i in range(n - 1, -1, -1)]
    layer = list(range(-1, -n - 1, -1))
    while len(layer) > 1:
        nxt = list(range(len(children), len(children) + len(layer) // 2))
        for ref, r1, r2 in zip(nxt, layer[::2], layer[1::2]):
            children.append((r1, r2))
            sub[ref] = sub[r1] | sub[r2]
        layer = nxt + layer[2 * len(nxt):]  # an odd node out moves up a layer
    return tuple(children), layer[0], tuple(sub)


class ProductSelector:
    """Exact selector for independent bids with targets proportional to the
    bid probabilities: Pr[i wins] = y_i * (1 - prod(1 - y_j)) / sum(y_j).

    Elements are merged pairwise, layer by layer; each internal node solves
    a 3-atom transportation problem sending its bid-pattern mass to its
    children's target win probabilities (`weights`, `row`). Selection walks
    the tree top-down in O(n), solving only the nodes it visits. Internal
    node refs are 0..n-2 in merge order and leaf i's is ~i, so the per-node
    lists (`bid_p`, `target`, `sub`) hold the leaves in their reversed tail.
    The subset ratio Pr[R cap S != empty] / y(S) of a product law is minimized
    by the full set, so each node's Hall condition holds and the root is
    entered exactly when anyone bids.
    """

    def __init__(self, y):
        y = list(map(float, y))
        if not y:
            raise DomainError("product selector needs one or more probabilities in (0, 1]")
        # math.prod and sum of y, in their left-to-right order
        miss, total = 1.0, 0.0
        for p in y:
            if not 0 < p <= 1:  # NaN fails this too
                raise DomainError("product selector needs one or more probabilities in (0, 1]")
            miss *= 1.0 - p
            total += p
        self.n = n = len(y)
        self.y = y
        self.alpha = alpha = (1.0 - miss) / total
        self.children, self.root, self.sub = _merge_tree(n)
        # per node: its bid probability and its target win probability
        self.bid_p = bid_p = [0.0] * (n - 1) + y[::-1]
        self.target = target = [0.0] * (n - 1) + [alpha * p for p in y[::-1]]
        for ref, (r1, r2) in enumerate(self.children):
            bid_p[ref] = 1.0 - (1.0 - bid_p[r1]) * (1.0 - bid_p[r2])
            target[ref] = target[r1] + target[r2]

    def weights(self, ref: int, pattern: int) -> tuple[float, float]:
        """Internal node ref's transportation solve, read at one bid pattern
        (0: no child bids, 1: left only, 2: right only, 3: both): the pair
        (weight of descending left, weight of descending right)."""
        bid_p, target = self.bid_p, self.target
        r1, r2 = self.children[ref]
        p1, p2 = bid_p[r1], bid_p[r2]
        p_node = bid_p[ref]
        m_total = target[ref]
        d1 = target[r1] / m_total * p_node
        d2 = target[r2] / m_total * p_node
        a10, a01, a11 = p1 * (1.0 - p2), (1.0 - p1) * p2, p1 * p2
        f1_10 = a10 if a10 < d1 else d1  # min(d1, a10)
        f1_11 = d1 - f1_10
        f2_01 = a01 if a01 < d2 else d2  # min(d2, a01)
        f2_11 = d2 - f2_01
        if f1_11 + f2_11 > a11 + 1e-9 or f1_11 < -1e-12 or f2_11 < -1e-12:
            raise InvariantBreach("product-selector transportation infeasible")
        if pattern == 1:
            return (f1_10 / a10 if a10 > 0 else 0.0, 0.0)
        if pattern == 2:
            return (0.0, f2_01 / a01 if a01 > 0 else 0.0)
        if pattern == 3:
            return (f1_11 / a11 if a11 > 0 else 0.0, f2_11 / a11 if a11 > 0 else 0.0)
        return (0.0, 0.0)

    def row(self, ref: int) -> tuple:
        """Internal node ref's `weights` at every bid pattern, in pattern
        order."""
        return tuple(self.weights(ref, pattern) for pattern in range(4))

    @functools.cached_property
    def _rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each internal node's left and right child refs (two arrays over
        refs 0..n-2) and the (2, n - 1, 4) table of their `row` weights by bid
        pattern: every node solved once, on the first `conditional_win_probs`
        call."""
        left, right = np.array(self.children, dtype=np.intp).reshape(-1, 2).T
        table = np.array([self.row(ref) for ref in range(len(self.children))]).reshape(-1, 4, 2)
        return left, right, table.transpose(2, 0, 1).copy()

    def select(self, mask: int, uniform) -> int:
        """Winner position among the realized bid set `mask` (bit i set when
        position i bids), or -1 for none.

        `uniform` is a niladic callable returning U[0,1) draws; it is called
        once per internal node on the walk, so not at all for mask 0. Each
        node on the walk is solved at the one bid pattern the walk reads.
        """
        if mask >> self.n:
            raise DomainError(f"bid mask must lie in [0, 2^{self.n})")
        if not mask:
            return -1
        sub, children, weights = self.sub, self.children, self.weights
        ref = self.root
        while ref >= 0:
            r1, r2 = children[ref]
            w1, w2 = weights(ref, (1 if mask & sub[r1] else 0) | (2 if mask & sub[r2] else 0))
            u = uniform()
            if u < w1:
                ref = r1
            elif u < w1 + w2:
                ref = r2
            else:
                return -1
        return ~ref

    def conditional_win_probs(self, masks) -> np.ndarray:
        """Pr[position wins | realized bid set] for each bid mask (bit i set
        when position i bids), as an (n, len(masks)) matrix.

        One top-down pass over the merge tree carries every mask's weight:
        a child receives its parent's weight times the parent's row entry
        for the mask's bid pattern, and a weight that is not positive is cut
        to zero before it is passed on or stored. The entries are the
        products of a per-mask tree walk, bit for bit.
        """
        masks = bitmask.checked(masks, self.n)
        left, right, (to_left, to_right) = self._rows
        # per node ref (leaves in the tail): whether anyone under it bids
        bids = (masks & np.array(self.sub, dtype=masks.dtype)[:, None]) != 0
        patterns = bids[left] + bids[right] * np.uint8(2)
        weight = {self.root: (masks != 0).astype(float)}
        for ref in range(len(self.children) - 1, -1, -1):  # parents before children
            w = weight.pop(ref)
            w = np.where(w > 0, w, 0.0)
            r1, r2 = self.children[ref]
            pattern = patterns[ref]
            weight[r1] = w * to_left[ref].take(pattern)
            weight[r2] = w * to_right[ref].take(pattern)
        out = np.empty((self.n, len(masks)))
        for i in range(self.n):
            w = weight[~i]
            out[i] = np.where(w > 0, w, 0.0)
        return out
