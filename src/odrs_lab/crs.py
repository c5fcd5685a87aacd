"""Offline contention resolution: balance ratio, selector synthesis, selection.

Given the law of a random bidder set R and targets v, the selector picks at
most one winner from the realized set so that Pr[i wins] = alpha * v_i exactly,
where alpha = min_S Pr[R cap S != empty] / v(S). General laws go through a
max-flow construction on the atom/element network; product laws additionally
get a polytime merge-tree selector usable at any scale.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import bitmask
from .errors import DomainError, InvariantBreach, SizeError

MAX_ACTIVE = 20
FLOW_SCALE = 1 << 40
ATOM_EPS = 1e-15


@dataclass(frozen=True)
class SupportDistribution:
    """Explicit distribution over subsets of the declared elements.

    Atom masks index positions in `elements` (bit k = elements[k]).
    """

    elements: tuple[int, ...]
    atoms: tuple[tuple[int, float], ...]

    def check(self, tol: float = 1e-9):
        total = sum(p for _, p in self.atoms)
        if abs(total - 1.0) > tol:
            raise InvariantBreach(f"atom probabilities sum to {total}")
        full = (1 << len(self.elements)) - 1
        for mask, p in self.atoms:
            if p < -tol:
                raise InvariantBreach("negative atom probability")
            if mask & ~full:
                raise InvariantBreach("atom mask outside declared elements")

    def to_json_dict(self) -> dict:
        return {"elements": list(self.elements),
                "atoms": [{"set": [self.elements[k] for k in range(len(self.elements))
                                   if mask >> k & 1], "p": p}
                          for mask, p in self.atoms]}

    @staticmethod
    def product(elements, probs) -> "SupportDistribution":
        """Independent Bernoulli inclusion with the given probabilities."""
        elements = tuple(elements)
        probs = [float(p) for p in probs]
        atoms = [(0, 1.0)]
        for k, p in enumerate(probs):
            nxt = []
            for mask, q in atoms:
                if p < 1.0:
                    nxt.append((mask, q * (1.0 - p)))
                if p > 0.0:
                    nxt.append((mask | (1 << k), q * p))
            atoms = nxt
        return SupportDistribution(elements, tuple(atoms))


def _nonempty_hit_probs(dist: SupportDistribution, active: list[int]) -> np.ndarray:
    """Subset sums of the atom law projected onto `active` (local masks);
    Pr[R cap S = empty] is the entry at the complement of S."""
    k = len(active)
    pos = {a: j for j, a in enumerate(active)}
    proj = np.zeros(1 << k)
    for mask, p in dist.atoms:
        local = 0
        for a in active:
            if mask >> a & 1:
                local |= 1 << pos[a]
        proj[local] += p
    return bitmask.subset_sums(proj)


def balance_ratio(dist: SupportDistribution, v) -> float:
    """min over nonempty S of Pr[R cap S != empty] / v(S), exhaustively.

    Only elements with v_i > 0 matter; at most MAX_ACTIVE of them are allowed
    (the polytime route keeps bidder counts small, so the cap is not binding
    at desk scale).
    """
    v = np.asarray(v, dtype=float)
    if len(v) != len(dist.elements):
        raise DomainError("v must align with dist.elements")
    if np.any(v < 0):
        raise DomainError("v must be nonnegative")
    active = [k for k in range(len(v)) if v[k] > 0]
    if not active:
        raise DomainError("at least one v_i must be positive")
    if len(active) > MAX_ACTIVE:
        raise SizeError(f"{len(active)} active elements exceed the exhaustive cap {MAX_ACTIVE}")
    k = len(active)
    g = _nonempty_hit_probs(dist, active)
    full = (1 << k) - 1
    vsum = np.zeros(1 << k)
    for m in range(1, 1 << k):
        low = m & -m
        vsum[m] = vsum[m ^ low] + v[active[low.bit_length() - 1]]
    best = math.inf
    for m in range(1, 1 << k):
        hit = 1.0 - g[full ^ m]
        best = min(best, hit / vsum[m])
    return max(0.0, best)


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

    def add_edge(self, u: int, v: int, cap: int) -> int:
        eid = len(self.to)
        self.head[u].append(eid)
        self.to.append(v)
        self.cap.append(cap)
        self.head[v].append(eid + 1)
        self.to.append(u)
        self.cap.append(0)
        return eid

    def max_flow(self, s: int, t: int) -> int:
        total = 0
        while True:
            parent_edge = [-1] * self.n
            parent_edge[s] = -2
            q = deque([s])
            while q:
                u = q.popleft()
                if u == t:
                    break
                for eid in self.head[u]:
                    v = self.to[eid]
                    if self.cap[eid] > 0 and parent_edge[v] == -1:
                        parent_edge[v] = eid
                        q.append(v)
            if parent_edge[t] == -1:
                return total
            # bottleneck along the path
            bottleneck = None
            v = t
            while v != s:
                eid = parent_edge[v]
                bottleneck = self.cap[eid] if bottleneck is None else min(bottleneck, self.cap[eid])
                v = self.to[eid ^ 1]
            v = t
            while v != s:
                eid = parent_edge[v]
                self.cap[eid] -= bottleneck
                self.cap[eid ^ 1] += bottleneck
                v = self.to[eid ^ 1]
            total += bottleneck

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

    def conditional(self, mask: int) -> tuple[tuple[int, float], ...]:
        if mask == 0:
            return ()
        try:
            return self.rows[mask]
        except KeyError:
            raise DomainError(f"unmodeled realization {mask:b}") from None


def build_selector(dist: SupportDistribution, v) -> SelectionRule:
    """Synthesize p_{i,S} by max flow on the atoms/elements network.

    src -> atom S with capacity Pr[R=S]; atom -> element i in S (uncapped);
    element i -> sink with capacity alpha * v_i. The balance ratio is exactly
    the scaled Hall condition, so the flow saturates every element edge.
    """
    v = np.asarray(v, dtype=float)
    alpha = balance_ratio(dist, v)
    atoms = [(mask, p) for mask, p in dist.atoms if mask]
    n_el = len(dist.elements)
    src = 0
    sink = 1 + len(atoms) + n_el
    net = FlowNetwork(sink + 1)
    inf_cap = int(round(FLOW_SCALE * 1.001)) + len(atoms)
    atom_edges = []
    mid_edges = {}
    for a, (mask, p) in enumerate(atoms):
        atom_edges.append(net.add_edge(src, 1 + a, int(round(p * FLOW_SCALE))))
        for k in range(n_el):
            if mask >> k & 1:
                mid_edges[(a, k)] = net.add_edge(1 + a, 1 + len(atoms) + k, inf_cap)
    for k in range(n_el):
        net.add_edge(1 + len(atoms) + k, sink, int(round(alpha * v[k] * FLOW_SCALE)))
    flow = net.max_flow(src, sink)
    want = alpha * float(v.sum())
    if flow / FLOW_SCALE < want - 1e-6:
        raise InvariantBreach(
            f"selector flow {flow / FLOW_SCALE} below required {want}; "
            "balance ratio or flow solver is inconsistent")
    rows = {}
    for a, (mask, p) in enumerate(atoms):
        if p < ATOM_EPS:
            members = [k for k in range(n_el) if mask >> k & 1]
            rows[mask] = tuple((k, 1.0 / len(members)) for k in members)
            continue
        scaled = int(round(p * FLOW_SCALE))
        row = []
        for k in range(n_el):
            if mask >> k & 1:
                f = net.flow_on(mid_edges[(a, k)])
                if f > 0:
                    row.append((k, f / scaled))
        rows[mask] = tuple(row)
    return SelectionRule(dist.elements, rows, alpha)


def select(rule: SelectionRule, realized_mask: int, u: float) -> int:
    """Pick at most one winner from the realized set; -1 means none.

    Returns the element id (not the position).
    """
    acc = 0.0
    for k, q in rule.conditional(realized_mask):
        if not (realized_mask >> k & 1):
            raise InvariantBreach("selector row assigns mass outside realized set")
        acc += q
        if u < acc:
            return rule.elements[k]
    if acc > 1.0 + 1e-9:
        raise InvariantBreach("selector row mass exceeds one")
    return -1


def exact_marginals(dist: SupportDistribution, rule: SelectionRule) -> np.ndarray:
    """Pr[i wins] by direct summation over atoms (the selector's oracle)."""
    out = np.zeros(len(dist.elements))
    for mask, p in dist.atoms:
        if not mask:
            continue
        for k, q in rule.conditional(mask):
            out[k] += p * q
    return out


# ----------------------------------------------------------------------------
# product-law selector (merge tree), polytime at any scale
# ----------------------------------------------------------------------------

class ProductSelector:
    """Exact selector for independent bids with targets proportional to the
    bid probabilities: Pr[i wins] = y_i * (1 - prod(1 - y_j)) / sum(y_j).

    Elements are merged pairwise; each internal node solves a 3-atom
    transportation problem sending its bid-pattern mass to its children's
    target win probabilities. Selection walks the tree top-down in O(n).
    The subset ratio Pr[R cap S != empty] / y(S) of a product law is minimized
    by the full set, so each node's Hall condition holds and the root is
    entered exactly when anyone bids.
    """

    def __init__(self, y):
        y = [float(p) for p in y]
        if any(not 0 < p <= 1 for p in y):  # NaN fails this too
            raise DomainError("product selector needs probabilities in (0, 1]")
        self.n = len(y)
        self.y = y
        ysum = sum(y)
        self.alpha = (1.0 - math.prod(1.0 - p for p in y)) / ysum
        # tree: leaves referenced as ~i, internal nodes by index
        self.children: list[tuple[int, int]] = []
        bid_p = {~i: y[i] for i in range(self.n)}
        target = {~i: self.alpha * y[i] for i in range(self.n)}
        layer = [~i for i in range(self.n)]
        while len(layer) > 1:
            nxt = []
            for a in range(0, len(layer) - 1, 2):
                r1, r2 = layer[a], layer[a + 1]
                ref = len(self.children)
                self.children.append((r1, r2))
                bid_p[ref] = 1.0 - (1.0 - bid_p[r1]) * (1.0 - bid_p[r2])
                target[ref] = target[r1] + target[r2]
                nxt.append(ref)
            if len(layer) % 2:
                nxt.append(layer[-1])
            layer = nxt
        self.root = layer[0]
        # per-node pattern rows: pattern in {1: left only, 2: right only,
        # 3: both} -> (weight of descending left, weight of descending right)
        self.rows: list[dict] = []
        for ref, (r1, r2) in enumerate(self.children):
            p1, p2 = bid_p[r1], bid_p[r2]
            p_node = 1.0 - (1.0 - p1) * (1.0 - p2)
            m_total = target[ref]
            d1 = target[r1] / m_total * p_node
            d2 = target[r2] / m_total * p_node
            a10, a01, a11 = p1 * (1.0 - p2), (1.0 - p1) * p2, p1 * p2
            f1_10 = min(d1, a10)
            f1_11 = d1 - f1_10
            f2_01 = min(d2, a01)
            f2_11 = d2 - f2_01
            if f1_11 + f2_11 > a11 + 1e-9 or min(f1_11, f2_11) < -1e-12:
                raise InvariantBreach("product-selector transportation infeasible")
            self.rows.append({
                1: (f1_10 / a10 if a10 > 0 else 0.0, 0.0),
                2: (0.0, f2_01 / a01 if a01 > 0 else 0.0),
                3: (f1_11 / a11 if a11 > 0 else 0.0,
                    f2_11 / a11 if a11 > 0 else 0.0),
            })

    def select(self, bids: set[int], uniform) -> int:
        """Winner among the realized bidder positions, or -1 for none.

        `uniform` is a niladic callable returning fresh U[0,1) draws.
        """
        if not bids:
            return -1
        has_bid: dict[int, bool] = {~i: (i in bids) for i in range(self.n)}
        for ref, (r1, r2) in enumerate(self.children):
            has_bid[ref] = has_bid[r1] or has_bid[r2]

        ref = self.root
        while ref >= 0:
            r1, r2 = self.children[ref]
            pattern = (1 if has_bid[r1] else 0) | (2 if has_bid[r2] else 0)
            w1, w2 = self.rows[ref][pattern]
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
        masks = np.asarray(masks, dtype=np.int64)
        if masks.size and (masks.min() < 0 or masks.max() >> self.n):
            raise DomainError(f"bid masks must lie in [0, 2^{self.n})")
        sub = {~i: 1 << i for i in range(self.n)}  # node -> the bits of its leaves
        for ref, (r1, r2) in enumerate(self.children):
            sub[ref] = sub[r1] | sub[r2]
        weight = {self.root: (masks != 0).astype(float)}
        for ref in range(len(self.children) - 1, -1, -1):  # parents before children
            w = weight.pop(ref)
            w = np.where(w > 0, w, 0.0)
            r1, r2 = self.children[ref]
            pattern = ((masks & sub[r1]) != 0) + 2 * ((masks & sub[r2]) != 0)
            row = self.rows[ref]
            table = np.array(((0.0, 0.0), row[1], row[2], row[3]))[pattern]
            weight[r1] = w * table[:, 0]
            weight[r2] = w * table[:, 1]
        out = np.empty((self.n, len(masks)))
        for i in range(self.n):
            w = weight[~i]
            out[i] = np.where(w > 0, w, 0.0)
        return out
