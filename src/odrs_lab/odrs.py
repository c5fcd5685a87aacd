"""ODRSes for matchings and b-matchings.

Pipeline: scale the arriving fractions (group discount / individual markup),
bucket conditional bid probabilities into bins by first-fit, draw at most one
candidate per bin, let eligible candidates bid, and resolve contention with a
CRS built on the exact bid-set law. The warm-up variant replaces bucketing by
independent per-node streams and a product-law selector.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import bitmask
from . import crs as crs_mod
from .errors import DomainError, FeasibilityError, InvariantBreach
from .instances import TOL, MatchingInstance
from .level_set import _snap, kahan_add, online_step, step_table
from .level_set import step_probability  # noqa: F401 -- perfbench/tracing.py looks it up here
from .rng import ScalarRng


# ----------------------------------------------------------------------------
# scaling parameters
# ----------------------------------------------------------------------------

def f_eps_delta(z: float, eps: float, delta: float) -> float:
    """exp(-z(1+delta)) - (1 - z(1-eps)); nonnegativity on [z*, inf) is the
    sufficient condition for the closed-form ratio bound."""
    return math.exp(-z * (1.0 + delta)) - (1.0 - z * (1.0 - eps))


def f_prime(z: float, eps: float, delta: float) -> float:
    return -(1.0 + delta) * math.exp(-z * (1.0 + delta)) + (1.0 - eps)


def z_star(eps: float, delta: float, variant: str) -> float:
    if eps + delta == 0:
        return 0.0
    if variant == "matching":
        return eps / (2.0 * (eps + delta))
    return eps / ((3.0 + 2.0 * delta) * (eps + delta))


def feasibility_violation(eps: float, delta: float, variant: str) -> str | None:
    """The name of the first condition that fails at z*, "f" (f >= 0) or
    "f'" (f' >= 0), or None when (eps, delta) is feasible. The search calls
    this tens of thousands of times, so it formats nothing."""
    z = z_star(eps, delta, variant)
    if f_eps_delta(z, eps, delta) < 0:
        return "f"
    if f_prime(z, eps, delta) < 0:
        return "f'"
    return None


@dataclass(frozen=True)
class ScalingParams:
    """(eps, delta) plus the derived thresholds; feasibility is checked on
    construction, and each threshold is computed once, on first use."""

    eps: float
    delta: float
    variant: str = "matching"

    def __post_init__(self):
        if self.variant not in ("matching", "b_matching"):
            raise DomainError(f"unknown variant {self.variant!r}")
        if not (0 <= self.eps <= 1 and 0 <= self.delta <= 1):
            raise DomainError("eps, delta must lie in [0, 1]")
        bad = feasibility_violation(self.eps, self.delta, self.variant)
        if bad is not None:
            z = z_star(self.eps, self.delta, self.variant)
            value = (f_eps_delta if bad == "f" else f_prime)(z, self.eps, self.delta)
            detail = f"{bad}({z:.6g}) = {value:.3g} < 0"
            raise FeasibilityError(f"infeasible ({self.eps}, {self.delta}): {detail}", detail)

    @functools.cached_property
    def theta(self) -> float:
        if self.eps + self.delta == 0:
            return 0.0
        if self.variant == "matching":
            return self.delta / (self.eps + self.delta)
        return self.theta2 * (1.0 - self.eps) + self.theta1 * (self.delta + self.eps)

    @functools.cached_property
    def theta1(self) -> float:
        return z_star(self.eps, self.delta, "b_matching")

    @functools.cached_property
    def theta2(self) -> float:
        if self.eps + self.delta == 0:
            return 0.0
        return (self.eps + 3.0 * self.delta + 2.0 * self.delta ** 2) / (
            (3.0 + 2.0 * self.delta) * (self.eps + self.delta))

    @functools.cached_property
    def theta_core(self) -> float:
        """Low/high threshold on the scaled fractional degree."""
        if self.variant == "matching":
            return self.theta * (1.0 - self.eps)
        return self.theta


def ratio_bound_raw(eps: float, delta: float) -> float:
    """Closed-form rounding-ratio bound, for feasible (eps, delta)."""
    return 1.0 - math.exp(-1.0 - delta + (eps + delta) / (1.0 - eps)) * (1.0 - eps) / (1.0 + delta)


def _min_feasible_eps(delta: float, variant: str) -> float | None:
    """Smallest feasible eps for a given delta: the first feasible point of
    a 2e-3 scan over [0, 0.9], then 60 bisection steps on the boundary below
    it."""
    step = 2e-3
    e = 0.0
    while feasibility_violation(e, delta, variant) is not None:
        e += step
        if e > 0.9:
            return None
    lo_inf, hi_ok = max(0.0, e - step), e
    for _ in range(60):
        mid = 0.5 * (lo_inf + hi_ok)
        if feasibility_violation(mid, delta, variant) is None:
            hi_ok = mid
        else:
            lo_inf = mid
    return hi_ok


def search_params(variant: str = "matching") -> tuple[float, float, float]:
    """Maximize the ratio bound over the feasible region; deterministic.
    Returns (eps, delta, alpha), alpha = ratio_bound_raw(eps, delta). Only the
    `optimize-params` command and the tests run it: `optimize_params` serves
    its result from OPTIMA.

    Coarse 1e-3 grid over [0, 0.2]^2 seeds the search: per delta row, the
    first feasible eps (larger eps only lowers the bound; feasibility is not
    monotone in eps, so the row is scanned, not bisected), keeping a row only
    when it strictly beats the rows before it. The bound strictly decreases
    in eps on the feasible side, so the optimum pins eps to the feasibility
    boundary; refinement therefore walks delta with halving steps and
    re-bisects the boundary eps at each probe (plain coordinate descent
    stalls on this curved ridge). One call takes about 20 ms.
    """
    if variant not in ("matching", "b_matching"):
        raise DomainError(f"unknown variant {variant!r}")
    best = (ratio_bound_raw(0.0, 0.0), 0.0, 0.0)
    for j in range(201):
        delta = j * 1e-3
        for i in range(201):
            eps = i * 1e-3
            if feasibility_violation(eps, delta, variant) is None:
                val = ratio_bound_raw(eps, delta)
                if val > best[0]:
                    best = (val, eps, delta)
                break
    _, _, delta = best
    val, eps = best[0], best[1]
    step = 1e-3
    while step > 1e-7:
        improved = False
        for cand in (delta - step, delta + step):
            if not (0.0 <= cand <= 1.0):
                continue
            e = _min_feasible_eps(cand, variant)
            if e is None:
                continue
            v = ratio_bound_raw(e, cand)
            if v > val:
                val, eps, delta, improved = v, e, cand, True
        if not improved:
            step *= 0.5
    return eps, delta, val


# search_params(variant) as float.hex: (eps, delta, alpha)
_OPTIMA_HEX = {
    "matching": ("0x1.89e55aba26359p-5", "0x1.07916872b020cp-4", "0x1.4e3cdae57e65cp-1"),
    "b_matching": ("0x1.158ff8505ce61p-5", "0x1.533c6a7ef9db4p-5", "0x1.4ac38213760e8p-1"),
}
OPTIMA = {variant: tuple(map(float.fromhex, triple)) for variant, triple in _OPTIMA_HEX.items()}


def optimize_params(variant: str = "matching") -> tuple[float, float, float]:
    """The optimum (eps, delta, alpha) of `variant`: `search_params(variant)`
    bit for bit, pinned in OPTIMA, so a call is a lookup rather than a 20 ms
    search (tests/test_odrs.py checks the pin against the search)."""
    if variant not in OPTIMA:
        raise DomainError(f"unknown variant {variant!r}")
    return OPTIMA[variant]


# ----------------------------------------------------------------------------
# fraction scaling
# ----------------------------------------------------------------------------

def _position_matching(z: float, params: ScalingParams) -> float:
    """Cumulative scaled degree: rate (1-eps) below theta, (1+delta) above."""
    th = params.theta
    return z * (1.0 - params.eps) + (params.eps + params.delta) * max(0.0, z - th)


def scale_hat(x: float, s: float, params: ScalingParams) -> float:
    """Scaled fraction for the matching variant (discount below theta,
    markup above); the scaled degree never exceeds the true one."""
    th = params.theta
    if s >= th:
        return x * (1.0 + params.delta)
    if s + x <= th:
        return x * (1.0 - params.eps)
    return x * (1.0 - params.eps) + (params.eps + params.delta) * (s + x - th)


def _position_b(z: float, params: ScalingParams) -> float:
    """Cumulative scaled degree for b-matchings.

    Within each unit, fractional positions in [theta1, theta2) accrue at rate
    (1-eps), the rest at (1+delta); a full unit maps to exactly one, so floors
    and ceilings are preserved.
    """
    z = _snap(z)
    base = math.floor(z)
    u = z - base
    t1, t2 = params.theta1, params.theta2
    scaled = ((1.0 + params.delta) * min(u, t1)
              + (1.0 - params.eps) * min(max(u - t1, 0.0), t2 - t1)
              + (1.0 + params.delta) * max(u - t2, 0.0))
    return base + scaled


def hat_position(s: float, params: ScalingParams) -> float:
    if params.variant == "matching":
        return _position_matching(s, params)
    return _position_b(s, params)


# ----------------------------------------------------------------------------
# first fit
# ----------------------------------------------------------------------------

def first_fit(items) -> list[list]:
    """Pack (id, size) items, sizes in [0,1], into bins of capacity one.

    Bins are returned in opening order; at most one bin ends up below half
    full. Sizes a hair above one (float dust) are clamped.
    """
    bins: list[list] = []
    loads: list[float] = []
    for ident, size in items:
        if size > 1.0 + 1e-9:
            raise DomainError(f"item {ident} has size {size} > 1")
        size = min(size, 1.0)
        for b, load in enumerate(loads):
            if load + size <= 1.0 + 1e-12:
                bins[b].append((ident, size))
                loads[b] = load + size
                break
        else:
            bins.append([(ident, size)])
            loads.append(size)
    return bins


# ----------------------------------------------------------------------------
# step plans: deterministic per-arrival bucketing structure
# ----------------------------------------------------------------------------

@dataclass
class GroupBin:
    """One first-fit bin: candidates drawn by a single uniform."""

    nodes: list[int]
    sizes: list[float]

    def draw(self, u: float) -> int:
        """The node whose cumulative-size interval holds u; -1 when u lands
        past the bin's total (no candidate)."""
        acc = 0.0
        for node, sz in zip(self.nodes, self.sizes):
            acc += sz
            if u < acc:
                return node
        return -1

    def draw_masks(self, u: np.ndarray) -> list[np.ndarray]:
        """`draw` applied to every entry of u, as one bool mask per node in
        bin order: the entries below its cumulative size and no earlier one
        (an entry in no mask draws no candidate)."""
        masks = []
        below = np.zeros(len(u), dtype=bool)  # below an earlier cumulative size
        acc = 0.0
        for sz in self.sizes:
            acc += sz
            lt = u < acc
            masks.append(lt & ~below)
            below |= lt
        return masks


@dataclass
class CrossingNode:
    """b-matching node whose scaled degree crosses an integer this step:
    bids surely when lagging, else takes over with the given probability."""

    node: int
    takeover: float


@dataclass
class StepPlan:
    t: int
    xhat: dict[int, float]
    v: dict[int, float]
    bins: list[GroupBin] = field(default_factory=list)
    crossing: list[CrossingNode] = field(default_factory=list)

    def active(self) -> list[int]:
        return sorted(self.xhat)


def build_plans(inst: MatchingInstance, params: ScalingParams) -> list[StepPlan]:
    """Scaled fractions, classification, and first-fit bins for every arrival.
    The matching variant refuses a node of fractional degree above 1 + TOL."""
    if any(arr.p != 1.0 for arr in inst.arrivals):
        raise DomainError("this scheme expects sure arrivals; "
                          "use the stochastic pipeline for p < 1")
    n = inst.n_offline
    if params.variant == "matching":
        degree = [0.0] * n
        for arr in inst.arrivals:
            for i, x in arr.edges:
                degree[i] += x
        for i, d in enumerate(degree):
            if d > 1.0 + TOL:
                raise DomainError(f"offline node {i} has fractional degree {d!r} > 1, which "
                                  "the matching ODRS cannot round; use odrs-b for b-matchings")
    s = [0.0] * n  # true prefix degrees
    plans = []
    b_variant = params.variant == "b_matching"
    for t, arr in enumerate(inst.arrivals):
        plan = StepPlan(t, {}, {})
        low_items, high_items = [], []
        for i, x in arr.edges:
            if x <= 0:
                continue
            si = float(s[i])
            shat = hat_position(si, params)
            shat_next = hat_position(si + x, params)
            xhat = shat_next - shat
            if xhat <= 0:
                continue
            plan.xhat[i] = xhat
            plan.v[i] = x
            snapped, snapped_next = _snap(shat), _snap(shat_next)
            fl = math.floor(snapped)
            fl_next = math.floor(snapped_next)
            frac = snapped - fl
            if b_variant and fl_next > fl:
                nfrac = snapped_next - fl_next
                takeover = nfrac / frac if frac > 0 else 0.0
                plan.crossing.append(CrossingNode(i, min(1.0, max(0.0, takeover))))
            else:
                size = xhat / (1.0 - frac)
                if size > 1.0 + 1e-9:
                    raise InvariantBreach(f"bid size {size} > 1 at arrival {t}, node {i}")
                if frac <= params.theta_core + 1e-12:
                    low_items.append((i, min(1.0, size)))
                else:
                    high_items.append((i, min(1.0, size)))
        for items in (low_items, high_items):
            for packed in first_fit(items):
                plan.bins.append(GroupBin([i for i, _ in packed], [sz for _, sz in packed]))
        for i, x in arr.edges:
            s[i] += x
        plans.append(plan)
    return plans


# ----------------------------------------------------------------------------
# exact bid-set law (free/lag-mask dynamic program)
# ----------------------------------------------------------------------------

def outcome_masks(bins: list[GroupBin], crossing: list[CrossingNode], pos
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every joint outcome of one arrival's draws as three arrays: the mask
    of drawn bin candidates, the mask of crossing nodes on heads (bit
    pos[node] per node), and the probability. Outcomes run in nested-loop
    order, bins (no candidate, then each node) before coins (heads, then
    tails), skipping options of probability zero. They are enumerated as
    Python tuples and converted to arrays once: a unit has a few options, so
    per-unit numpy calls would cost more than the products."""
    # per independent unit: its options as (drawn bit, heads bit, probability)
    units = [[(0, 0, 1.0 - sum(gb.sizes)),
              *((1 << pos[node], 0, sz) for node, sz in zip(gb.nodes, gb.sizes))] for gb in bins]
    units += [[(0, 1 << pos[cn.node], cn.takeover), (0, 0, 1.0 - cn.takeover)] for cn in crossing]
    outcomes = [(0, 0, 1.0)]
    for options in units:
        options = [opt for opt in options if opt[2] > 0.0]
        outcomes = [(d | d2, h | h2, p * p2) for d, h, p in outcomes for d2, h2, p2 in options]
    drawn, heads, probs = zip(*outcomes)
    drawn, heads = np.array((drawn, heads), dtype=np.int64)
    return drawn, heads, np.array(probs)


# (state, outcome) pairs per numpy pass of `pair_chunks` (BidLawDP.step and
# the stochastic matched-set DP); bounds their scratch arrays to a few of
# this many entries
CHUNK_PAIRS = 1 << 12
_UNSEEN = np.iinfo(np.int64).max
# BidLawDP.step drops lag-mask states of probability at most DROP_ATOM and
# renormalizes, which moves every probability it reports by about the dropped
# mass. More than DROP_MASS_BOUND dropped in one step is an InvariantBreach:
# the bound is the 1e-9 to which the exact engine checks that a law sums to
# one. A step would have to drop nearly all 2^bitmask.MAX_BITS states at
# DROP_ATOM = 1e-15 to trip it, so it guards a larger DROP_ATOM; the largest
# drop measured in one step is 5.4e-13 (odrs_b on
# gen_random(15, 30, 0.9, seed=0, max_b=3)).
DROP_ATOM = 1e-15
DROP_MASS_BOUND = 1e-9


class BidLawDP:
    """Evolves the exact joint law of per-node lag bits over one component.

    Lag bit = 1 when the node's bid count sits at the ceiling of its scaled
    degree (it has bid "ahead"); bit 0 means it may still bid this unit.
    For simple matchings the lag bit is exactly the has-bid flag.

    The state is two arrays, lag masks and their probabilities, in the order
    the masks were first reached. `step` is numpy work linear in the number
    of (state, outcome) pairs, done CHUNK_PAIRS at a time; its memory is
    that chunk plus two pairs of dense tables of 2^n entries (n = len(nodes)
    <= bitmask.MAX_BITS), one for the next state and one for the bid law,
    which is summed by the full bid mask and read once per step at the full
    masks of the 2^k masks over the arrival's k active nodes. A random
    14-node component compiles in about 0.09 s on a 2-vCPU VM. Sums run in
    pair order, state-major, so each atom, its position and its bits are
    those of the plain loop over states and then outcomes. `dropped` is the
    state mass dropped so far (at most DROP_MASS_BOUND per step).
    """

    def __init__(self, nodes: list[int]):
        self.nodes = sorted(nodes)
        # the warm-up ODRS builds no bid-law DP
        bitmask.check_width(len(self.nodes), "a bid-law DP component", "use the warm-up ODRS")
        self.pos = {i: k for k, i in enumerate(self.nodes)}
        self.masks = np.zeros(1, dtype=np.int64)
        self.probs = np.ones(1)
        self.dropped = 0.0

    @property
    def state(self) -> dict[int, float]:
        """Lag mask -> probability, in first-reached order (a copy)."""
        return dict(zip(self.masks.tolist(), self.probs.tolist()))

    def step(self, plan: StepPlan) -> crs_mod.SupportDistribution:
        """Advance one arrival; returns the law of the bidder set P_t
        (masks over plan.active()).

        A drawn candidate bids iff not ahead, then is ahead; a crossing node
        bids when lagging or on heads, and an ahead node on tails falls back
        in line. Bin candidates and crossing nodes are disjoint and heads
        lie in the crossing nodes, so per (state m, outcome) pair the grid
        takes four mask ops: bid = ((drawn | cross) & ~m) | heads and
        new = (m | drawn) & ~tails.
        """
        active = plan.active()
        pos = self.pos
        # per outcome, over lag-mask bits: drawn bin candidates and crossing
        # nodes on heads
        drawn, heads, cprobs = outcome_masks(plan.bins, plan.crossing, pos)
        cross = sum(1 << pos[cn.node] for cn in plan.crossing)
        may_bid = drawn | cross
        not_tails = ~cross | heads  # ~(cross & ~heads)
        law = PairSums(len(self.nodes))
        new_state = PairSums(len(self.nodes))
        for m, p, index in pair_chunks(self.masks, self.probs, cprobs):
            bid = ((may_bid & ~m) | heads).ravel()
            new = ((m | drawn) & not_tails).ravel()
            if not p.min() > 0.0:  # some pair has probability zero
                live = p > 0.0
                p, bid, new, index = p[live], bid[live], new[live], index[live]
            law.add(bid, p, index)
            new_state.add(new, p, index)
        # bids fall on active nodes only, so the law, summed by the full bid
        # mask, is read at the full masks of the masks over the active
        # positions, which it reports as the atoms' masks
        keys, sums = law.items(bitmask.spread([pos[i] for i in active]))
        masks, probs = new_state.items()
        if probs.min() <= DROP_ATOM:
            keep = probs > DROP_ATOM
            dropped = float(probs[~keep].sum())
            if dropped > DROP_MASS_BOUND:
                raise InvariantBreach(f"bid-law DP dropped state mass {dropped!r} at arrival "
                                      f"{plan.t}, above {DROP_MASS_BOUND}")
            self.dropped += dropped
            masks, probs = masks[keep], probs[keep]
        self.masks = masks
        # a left-to-right total: np.sum adds pairwise, which changes last bits
        self.probs = probs / np.add.accumulate(probs)[-1]
        return crs_mod.SupportDistribution.distinct(active, keys, sums)


def pair_chunks(masks: np.ndarray, probs: np.ndarray, out_probs: np.ndarray):
    """Walk the (state, outcome) grid state-major, CHUNK_PAIRS pairs at a
    time. Yields the chunk's state masks as a column, each pair's
    probability (state times outcome, flat in pair order) and each pair's
    index in the whole grid."""
    n_out = len(out_probs)
    rows = max(1, CHUNK_PAIRS // n_out)
    for r0 in range(0, len(masks), rows):
        p = (probs[r0:r0 + rows, None] * out_probs).ravel()
        yield masks[r0:r0 + rows, None], p, np.arange(r0 * n_out, r0 * n_out + len(p))


class PairSums:
    """Dense per-mask sums over masks of `bits` bits, added in pair order,
    with each mask's first pair index to recover first-seen order."""

    def __init__(self, bits: int):
        self.total = np.zeros(1 << bits)
        self.first = np.empty(1 << bits, dtype=np.int64)
        self.first.fill(_UNSEEN)

    def add(self, masks: np.ndarray, p: np.ndarray, index: np.ndarray):
        np.add.at(self.total, masks, p)  # in input order: bit-equal to a loop
        np.minimum.at(self.first, masks, index)

    def items(self, at: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Reached masks in first-seen order and their sums; with `at`, only
        the masks at[j], each reported as its index j."""
        first, total = (self.first, self.total) if at is None else (self.first[at], self.total[at])
        seen = np.flatnonzero(first != _UNSEEN)
        keys = seen[np.argsort(first[seen])]
        return keys, total[keys]


# ----------------------------------------------------------------------------
# matchings and samplers
# ----------------------------------------------------------------------------

def arrival_step(ahead: list[bool], record: tuple, uniform) -> int:
    """One arrival of a compiled scheme from its record `(t, selector, active,
    bins, steps)`: the matched offline node, or -1. `ahead[i]`, updated in
    place, is whether node i's count is one above the floor of its level-set
    prefix sum (else at the floor, by P2). One uniform per bin, then per
    step, then the selector walk on the bids (bits at the positions of
    `active`). A drawn bin candidate bids iff not ahead, and is ahead
    afterwards. A step `(node, p_lag, p_ahead, rises)` bids on `u < (p_ahead
    if ahead else p_lag)` and the floor moves up by `rises`; a count that
    would leave {floor, floor + 1} raises InvariantBreach."""
    t, selector, active, bins, steps = record
    bit = {i: 1 << k for k, i in enumerate(active)}
    bid_mask = 0
    for gb in bins:
        node = gb.draw(uniform())
        if node >= 0 and not ahead[node]:
            bid_mask |= bit[node]
            ahead[node] = True
    for node, p_lag, p_ahead, rises in steps:
        was = ahead[node]
        bid = uniform() < (p_ahead if was else p_lag)
        above = was + bid - rises  # the count's distance above the new floor
        if not 0 <= above <= 1:
            raise InvariantBreach(f"prefix count of node {node} leaves its floor and "
                                  f"ceiling at arrival {t}")
        ahead[node] = above == 1
        if bid:
            bid_mask |= bit[node]
    k = selector.select(bid_mask, uniform)
    return active[k] if k >= 0 else -1


@dataclass
class Matching:
    """Output (offline id, arrival index) pairs."""

    pairs: list[tuple[int, int]] = field(default_factory=list)

    def add(self, i: int, t: int):
        self.pairs.append((i, t))

    def assert_valid(self, inst: MatchingInstance, b_matching: bool = False):
        per_arrival: dict[int, int] = {}
        per_offline: dict[int, int] = {}
        for i, t in self.pairs:
            per_arrival[t] = per_arrival.get(t, 0) + 1
            per_offline[i] = per_offline.get(i, 0) + 1
        if any(c > 1 for c in per_arrival.values()):
            raise InvariantBreach("an arrival was matched more than once")
        for i, c in per_offline.items():
            cap = inst.capacities[i] if b_matching else 1
            if c > cap:
                raise InvariantBreach(f"offline node {i} matched {c} > {cap} times")

    def to_json_list(self) -> list[dict]:
        return [{"arrival": t, "offline": i} for i, t in sorted(self.pairs, key=lambda p: p[1])]


def _components(inst: MatchingInstance) -> list[int]:
    """Union-find label per offline node; nodes co-active at any arrival share
    a component, so each arrival's bid-set law factors through one component."""
    parent = list(range(inst.n_offline))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for arr in inst.arrivals:
        ids = [i for i, x in arr.edges if x > 0]
        for a, b in zip(ids, ids[1:]):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
    return [find(i) for i in range(inst.n_offline)]


class _CompiledScheme:
    """What both compiled schemes share: the sampler and the exact sums over
    the bid-set laws. A scheme keeps `selectors`, one CRS selector per
    arrival (None where nobody can bid), `arrivals`, the `arrival_step`
    record of each arrival with a selector, `b_matching` and `_law(t)`, the
    bidder-set law at an arrival that has a selector."""

    def sample(self, seed: int) -> Matching:
        """One run: `arrival_step` on each record, drawing from the scalar
        stream of `seed`."""
        uniform = ScalarRng(seed).uniform
        ahead = [False] * self.inst.n_offline
        out = Matching()
        for record in self.arrivals:
            winner = arrival_step(ahead, record, uniform)
            if winner >= 0:
                out.add(winner, record[0])
        out.assert_valid(self.inst, b_matching=self.b_matching)
        return out

    def bid_law(self, t: int) -> crs_mod.SupportDistribution:
        """Exact law of the bidder set P_t, for t in [0, n_arrivals)."""
        if not 0 <= t < len(self.selectors):
            raise DomainError(f"arrival {t} is outside [0, {len(self.selectors)})")
        if self.selectors[t] is None:
            return crs_mod.SupportDistribution.summed((), [0], [1.0])
        return self._law(t)

    def edge_match_probs(self) -> dict[tuple[int, int], float]:
        """Exact Pr[(i,t) matched] = sum_S Pr[P_t=S] p_{i,S}, summing the bid
        law against the selector the sampler uses (`crs.exact_marginals`)."""
        probs: dict[tuple[int, int], float] = {}
        for t, sel in enumerate(self.selectors):
            if sel is None:
                continue
            law = self.bid_law(t)
            marg = crs_mod.exact_marginals(law, sel)
            for i, m in zip(law.elements, marg.tolist()):
                probs[(i, t)] = m
        return probs


class CompiledOdrs(_CompiledScheme):
    """Deterministic per-instance structure for the improved ODRS: step plans,
    exact per-arrival bid-set laws, CRS selectors and arrival records (shared
    by the sampler, the exact engine, and the Monte Carlo bench). A crossing
    node is the step `(node, 1, takeover, True)`: it bids surely when
    lagging, else on the takeover coin, and stays ahead iff that came up."""

    sample = _CompiledScheme.sample  # perfbench/tracing.py looks it up here

    def __init__(self, inst: MatchingInstance, params: ScalingParams):
        self.inst = inst
        self.params = params
        self.b_matching = params.variant == "b_matching"
        self.plans = build_plans(inst, params)
        labels = _components(inst)
        comp_nodes: dict[int, list[int]] = {}
        for i, lab in enumerate(labels):
            comp_nodes.setdefault(lab, []).append(i)
        dps = {lab: BidLawDP(nodes) for lab, nodes in comp_nodes.items()}
        self.laws: list[crs_mod.SupportDistribution | None] = []
        self.selectors: list[crs_mod.SelectionRule | None] = []
        self.arrivals = []
        for plan in self.plans:
            active = plan.active()
            if not active:
                self.laws.append(None)
                self.selectors.append(None)
                continue
            law = dps[labels[active[0]]].step(plan)
            v = [plan.v[i] for i in law.elements]
            sel = crs_mod.build_selector(law, v)
            self.laws.append(law)
            self.selectors.append(sel)
            self.arrivals.append((plan.t, sel, list(sel.elements), plan.bins,
                                  [(cn.node, 1.0, cn.takeover, True) for cn in plan.crossing]))

    def _law(self, t: int) -> crs_mod.SupportDistribution:
        return self.laws[t]


# ----------------------------------------------------------------------------
# warm-up ODRS: independent per-node streams + product-law CRS
# ----------------------------------------------------------------------------

class OnlineWarmup:
    """The 1 - 1/e warm-up ODRS fed one arrival at a time: each offline node
    runs its own online level-set stream; a product-law selector resolves the
    arrival's bidders."""

    def __init__(self, n_offline: int):
        # per node: its stream's prefix sum, selection count and Kahan compensation
        self.s = [0.0] * n_offline
        self.count = [0] * n_offline
        self.comp = [0.0] * n_offline

    def arrive(self, edges: list[tuple[int, float]], rng: ScalarRng) -> int:
        """edges: (offline id, fraction > 0) in arrival order; returns the
        matched offline id or -1. One uniform per edge, then, if anyone bid,
        one walk of the product selector on the fractions."""
        s, count, comp = self.s, self.count, self.comp
        uniform = rng.uniform
        bid_mask = 0
        bit = 1  # the current edge's bit in the mask
        for i, x in edges:
            sel, s[i], count[i], comp[i] = online_step(s[i], count[i], comp[i], x, uniform())
            if sel:
                bid_mask |= bit
            bit <<= 1
        if not bid_mask:
            return -1
        win = crs_mod.ProductSelector([x for _, x in edges]).select(bid_mask, uniform)
        return edges[win][0] if win >= 0 else -1


class CompiledWarmup(_CompiledScheme):
    """1 - 1/e warm-up: the scheme of `OnlineWarmup`, selectors prebuilt. A
    record has no bins; each edge is one step of its node's level-set stream
    (`step_table`) that rises where the edge lifts the floor of its sum."""

    b_matching = True

    def __init__(self, inst: MatchingInstance):
        if any(arr.p != 1.0 for arr in inst.arrivals):
            raise DomainError("this scheme expects sure arrivals; "
                              "use the stochastic pipeline for p < 1")
        self.inst = inst
        # per arrival: its (node, fraction) edges with a positive fraction
        self.edges = [[(i, x) for i, x in arr.edges if x > 0] for arr in inst.arrivals]
        self.selectors = [crs_mod.ProductSelector([x for _, x in edges]) if edges else None
                          for edges in self.edges]
        self.arrivals = []
        s = [0.0] * inst.n_offline
        comp = [0.0] * inst.n_offline
        for t, edges in enumerate(self.edges):
            steps = []
            for i, x in edges:
                fl, p_lag, p_ahead = step_table(s[i], x)
                s[i], comp[i] = kahan_add(s[i], comp[i], x)
                steps.append((i, p_lag, p_ahead, math.floor(_snap(s[i])) > fl))
            if steps:
                self.arrivals.append((t, self.selectors[t], [i for i, _ in edges], [], steps))

    def _law(self, t: int) -> crs_mod.SupportDistribution:
        """Independent bids with the fractions as probabilities (one
        level-set stream per node)."""
        return crs_mod.SupportDistribution.product([i for i, _ in self.edges[t]],
                                                   self.selectors[t].y)


# ----------------------------------------------------------------------------
# scheme dispatch
# ----------------------------------------------------------------------------

# scheme name -> ScalingParams variant of its parameters; the warm-up has none
SCHEMES = {"warmup": None, "odrs": "matching", "odrs_b": "b_matching"}


def _variant(name: str) -> str | None:
    if name not in SCHEMES:
        raise DomainError(f"unknown algorithm {name!r}")
    return SCHEMES[name]


def scheme_params(name: str, eps: float | None = None,
                  delta: float | None = None) -> ScalingParams | None:
    """Parameters of scheme `name` (None for the warm-up, which takes no eps
    or delta); an omitted eps or delta takes the optimum of the scheme's
    variant."""
    variant = _variant(name)
    if variant is None:
        if eps is not None or delta is not None:
            raise DomainError(f"{name} takes no eps or delta")
        return None
    if eps is None or delta is None:
        e, d, _ = optimize_params(variant)
        eps = e if eps is None else eps
        delta = d if delta is None else delta
    return ScalingParams(eps, delta, variant)


def compile_scheme(name: str, inst: MatchingInstance, params: ScalingParams | None):
    """Compiled sampler of scheme `name` on `inst`: CompiledWarmup, which
    ignores `params`, or CompiledOdrs; DomainError when `params` is not of
    the scheme's variant."""
    variant = _variant(name)
    if variant is None:
        return CompiledWarmup(inst)
    if params is None or params.variant != variant:
        raise DomainError(f"{name} needs {variant}-variant parameters")
    return CompiledOdrs(inst, params)
