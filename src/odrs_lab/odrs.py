"""ODRSes for matchings and b-matchings.

Pipeline: scale the arriving fractions (group discount / individual markup),
bucket conditional bid probabilities into bins by first-fit, draw at most one
candidate per bin, let eligible candidates bid, and resolve contention with a
CRS built on the exact bid-set law. The warm-up variant replaces bucketing by
independent per-node streams and a product-law selector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import bitmask
from . import crs as crs_mod
from .errors import DomainError, FeasibilityError, InvariantBreach, SizeError
from .instances import Arrival, MatchingInstance
from .level_set import LevelSetState, step_probability, _snap
from .rng import ScalarRng

MAX_COMPONENT = 20
ATOM_CHUNK = 1024  # bid-law atoms per block of the warm-up's exact sum


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
    z = z_star(eps, delta, variant)
    if f_eps_delta(z, eps, delta) < 0:
        return f"f({z:.6g}) = {f_eps_delta(z, eps, delta):.3g} < 0"
    if f_prime(z, eps, delta) < 0:
        return f"f'({z:.6g}) = {f_prime(z, eps, delta):.3g} < 0"
    return None


@dataclass(frozen=True)
class ScalingParams:
    """(eps, delta) plus the derived thresholds; feasibility is checked on
    construction."""

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
            raise FeasibilityError(f"infeasible ({self.eps}, {self.delta}): {bad}", bad)

    @property
    def theta(self) -> float:
        if self.eps + self.delta == 0:
            return 0.0
        if self.variant == "matching":
            return self.delta / (self.eps + self.delta)
        return self.theta2 * (1.0 - self.eps) + self.theta1 * (self.delta + self.eps)

    @property
    def theta1(self) -> float:
        if self.eps + self.delta == 0:
            return 0.0
        return self.eps / ((3.0 + 2.0 * self.delta) * (self.eps + self.delta))

    @property
    def theta2(self) -> float:
        if self.eps + self.delta == 0:
            return 0.0
        return (self.eps + 3.0 * self.delta + 2.0 * self.delta ** 2) / (
            (3.0 + 2.0 * self.delta) * (self.eps + self.delta))

    @property
    def theta_core(self) -> float:
        """Low/high threshold on the scaled fractional degree."""
        if self.variant == "matching":
            return self.theta * (1.0 - self.eps)
        return self.theta


def ratio_bound_raw(eps: float, delta: float) -> float:
    return 1.0 - math.exp(-1.0 - delta + (eps + delta) / (1.0 - eps)) * (1.0 - eps) / (1.0 + delta)


def ratio_bound(params: ScalingParams) -> float:
    """Closed-form rounding-ratio bound for feasible parameters."""
    bad = feasibility_violation(params.eps, params.delta, params.variant)
    if bad is not None:
        raise FeasibilityError(f"infeasible parameters: {bad}", bad)
    return ratio_bound_raw(params.eps, params.delta)


def _feasible(eps: float, delta: float, variant: str) -> bool:
    """`feasibility_violation(eps, delta, variant) is None`, without the
    message: the same arithmetic with the exponential taken once."""
    z = z_star(eps, delta, variant)
    ex = math.exp(-z * (1.0 + delta))
    return not (ex - (1.0 - z * (1.0 - eps)) < 0 or -(1.0 + delta) * ex + (1.0 - eps) < 0)


def _feasible_many(eps: np.ndarray, delta: np.ndarray, variant: str) -> np.ndarray:
    """`_feasible` elementwise over broadcast float arrays, bit for bit.

    Every operation is the scalar one in the same order, elementwise IEEE
    arithmetic, except the exponential: it goes through `math.exp`, because
    `np.exp` may differ from it in the last place and flip a decision on the
    feasibility boundary.
    """
    eps, delta = np.broadcast_arrays(np.asarray(eps, dtype=float),
                                     np.asarray(delta, dtype=float))
    s = eps + delta
    if variant == "matching":
        den = 2.0 * s
    else:
        den = (3.0 + 2.0 * delta) * s
    with np.errstate(invalid="ignore"):
        z = np.where(s == 0, 0.0, eps / den)
    arg = -z * (1.0 + delta)
    ex = np.fromiter(map(math.exp, arg.ravel().tolist()), float, arg.size).reshape(arg.shape)
    return ~((ex - (1.0 - z * (1.0 - eps)) < 0) | (-(1.0 + delta) * ex + (1.0 - eps) < 0))


GRID = np.arange(201) * 1e-3  # the coarse grid's eps (and delta) values
GRID_ROWS = 16  # delta rows per grid block: bounds the block arrays to ~26 kB each
SCAN_STEP = 2e-3


def _scan_points() -> np.ndarray:
    """Boundary-scan eps values 0, 2e-3, ... up to 0.9, built by repeated
    addition so each point is the float the scalar scan reaches."""
    pts, e = [], 0.0
    while e <= 0.9:
        pts.append(e)
        e += SCAN_STEP
    return np.array(pts)


SCAN = _scan_points()


def _min_feasible_eps(delta: float, variant: str) -> float | None:
    """Smallest feasible eps for a given delta: the first feasible point of
    the 2e-3 scan, then 60 bisection steps on the boundary below it."""
    hits = np.flatnonzero(_feasible_many(SCAN, delta, variant))
    if not len(hits):
        return None
    found = float(SCAN[hits[0]])
    lo_inf, hi_ok = max(0.0, found - SCAN_STEP), found
    for _ in range(60):
        mid = 0.5 * (lo_inf + hi_ok)
        if _feasible(mid, delta, variant):
            hi_ok = mid
        else:
            lo_inf = mid
    return hi_ok


def optimize_params(variant: str = "matching") -> tuple[float, float, float]:
    """Maximize the ratio bound over the feasible region; deterministic.

    Coarse 1e-3 grid over [0, 0.2]^2 seeds the search: per delta row, the
    first feasible eps (larger eps only lowers the bound; feasibility is not
    monotone in eps, so the row is scanned, not bisected), keeping a row only
    when it strictly beats the rows before it. The bound strictly decreases
    in eps on the feasible side, so the optimum pins eps to the feasibility
    boundary; refinement therefore walks delta with halving steps and
    re-bisects the boundary eps at each probe (plain coordinate descent
    stalls on this curved ridge).

    The grid is evaluated as arrays of GRID_ROWS rows at a time and the
    boundary scan as one array (`_feasible_many`), with the same floats and
    the same decisions as a cell-by-cell loop; one call takes about 12 ms
    and about 0.25 MB of transient memory.
    """
    if variant not in ("matching", "b_matching"):
        raise DomainError(f"unknown variant {variant!r}")
    best = (ratio_bound_raw(0.0, 0.0), 0.0, 0.0)
    for j0 in range(0, len(GRID), GRID_ROWS):
        rows = GRID[j0:j0 + GRID_ROWS]
        ok = _feasible_many(GRID[None, :], rows[:, None], variant)
        for delta, row in zip(rows.tolist(), ok):
            if row.any():
                eps = float(GRID[row.argmax()])
                val = ratio_bound_raw(eps, delta)
                if val > best[0]:
                    best = (val, eps, delta)
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


def scale_hat_b(x: float, s: float, params: ScalingParams) -> float:
    return _position_b(s + x, params) - _position_b(s, params)


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
    """Scaled fractions, classification, and first-fit bins for every arrival."""
    if any(arr.p != 1.0 for arr in inst.arrivals):
        raise DomainError("this scheme expects sure arrivals; "
                          "use the stochastic pipeline for p < 1")
    n = inst.n_offline
    s = np.zeros(n)  # true prefix degrees
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
            fl = math.floor(_snap(shat))
            fl_next = math.floor(_snap(shat_next))
            frac = _snap(shat) - fl
            if b_variant and fl_next > fl:
                nfrac = _snap(shat_next) - fl_next
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


def downscale_for_polytime(inst: MatchingInstance, gamma: float) -> MatchingInstance:
    """Multiply every fraction by (1 - gamma); keeps per-arrival nonempty-bin
    counts O(1/gamma) so bid-set supports stay polynomial."""
    if not (0 < gamma < 0.5):
        raise DomainError("gamma must lie in (0, 0.5)")
    arrivals = tuple(
        Arrival(tuple((i, x * (1.0 - gamma)) for i, x in arr.edges), arr.weights, arr.p)
        for arr in inst.arrivals)
    return MatchingInstance(inst.n_offline, inst.capacities, arrivals)


# ----------------------------------------------------------------------------
# exact bid-set law (free/lag-mask dynamic program)
# ----------------------------------------------------------------------------

def _candidate_units(bins: list[GroupBin], crossing=()):
    """Independent draw units of one arrival: (kind, [(node or None,
    probability)]). Group bins: at most one candidate; crossing nodes: a coin.
    """
    units = []
    for gb in bins:
        outs = [(None, 1.0 - sum(gb.sizes))]
        outs.extend((node, sz) for node, sz in zip(gb.nodes, gb.sizes))
        units.append(("bin", outs))
    for cn in crossing:
        units.append(("cross", [(cn.node, cn.takeover), (None, 1.0 - cn.takeover)]))
    return units


def _enumerate_candidates(units):
    """All joint candidate outcomes: list of (candidate dict, probability).

    Candidate dict maps node -> unit kind ('bin' or 'cross')."""
    outcomes = [({}, 1.0)]
    for kind, outs in units:
        nxt = []
        for cand, pr in outcomes:
            for node, p in outs:
                if p <= 0.0:
                    continue
                c2 = cand if node is None else {**cand, node: kind}
                nxt.append((c2, pr * p))
        outcomes = nxt
    return outcomes


# (state, outcome) pairs per numpy pass of BidLawDP.step; bounds its scratch
# arrays to a few of this many entries
CHUNK_PAIRS = 1 << 12
_UNSEEN = np.iinfo(np.int64).max


class BidLawDP:
    """Evolves the exact joint law of per-node lag bits over one component.

    Lag bit = 1 when the node's bid count sits at the ceiling of its scaled
    degree (it has bid "ahead"); bit 0 means it may still bid this unit.
    For simple matchings the lag bit is exactly the has-bid flag.

    The state is two arrays, lag masks and their probabilities, in the order
    the masks were first reached. `step` is numpy work linear in the number
    of (state, outcome) pairs, done CHUNK_PAIRS at a time; its memory is
    that chunk plus dense tables of 2^|active| and 2^n entries (n =
    len(nodes) <= MAX_COMPONENT). A random 14-node component compiles in
    about 0.15 s on a 2-vCPU VM. Sums run in pair order, state-major, so each
    atom, its position and its bits are those of the plain loop over states
    and then outcomes.
    """

    def __init__(self, nodes: list[int]):
        self.nodes = sorted(nodes)
        if len(self.nodes) > MAX_COMPONENT:
            raise SizeError(f"bid-law DP limited to {MAX_COMPONENT} nodes")
        self.pos = {i: k for k, i in enumerate(self.nodes)}
        self.masks = np.zeros(1, dtype=np.int64)
        self.probs = np.ones(1)

    @property
    def state(self) -> dict[int, float]:
        """Lag mask -> probability, in first-reached order (a copy)."""
        return dict(zip(self.masks.tolist(), self.probs.tolist()))

    def step(self, plan: StepPlan) -> crs_mod.SupportDistribution:
        """Advance one arrival; returns the law of the bidder set P_t
        (masks over plan.active())."""
        active = plan.active()
        outcomes = _enumerate_candidates(_candidate_units(plan.bins, plan.crossing))
        pos = self.pos
        # per outcome, over lag-mask bits: drawn bin candidates, and crossing
        # nodes that fall back in line if ahead (tails)
        drawn = np.array([sum(1 << pos[i] for i, kind in cand.items() if kind == "bin")
                          for cand, _ in outcomes], dtype=np.int64)
        cross = sum(1 << pos[cn.node] for cn in plan.crossing)
        tails = np.array([cross - sum(1 << pos[i] for i, kind in cand.items()
                                      if kind == "cross")
                          for cand, _ in outcomes], dtype=np.int64)
        cprobs = np.array([p for _, p in outcomes])
        # byte q of a lag mask -> its active nodes' bits at their positions
        # in the bid mask (bids fall on active nodes only)
        weights = np.zeros(8 * max(1, (len(self.nodes) + 7) // 8), dtype=np.int64)
        weights[[pos[i] for i in active]] = 1 << np.arange(len(active), dtype=np.int64)
        compress = weights.reshape(-1, 8) @ (np.arange(256) >> np.arange(8)[:, None] & 1)
        law = _PairSums(len(active))
        new_state = _PairSums(len(self.nodes))
        n_out = len(outcomes)
        rows = max(1, CHUNK_PAIRS // n_out)
        for r0 in range(0, len(self.masks), rows):
            m = self.masks[r0:r0 + rows, None]
            p = (self.probs[r0:r0 + rows, None] * cprobs).ravel()
            # a drawn candidate bids iff not ahead, then moves ahead; a
            # crossing node bids when lagging or on heads, and an ahead
            # node on tails falls back in line
            moved = drawn & ~m
            bid = (moved | (cross & ~(m & tails))).ravel()
            new = ((m & ~tails) | moved).ravel()
            index = np.arange(r0 * n_out, r0 * n_out + len(p))
            live = p > 0.0
            if not live.all():
                p, bid, new, index = p[live], bid[live], new[live], index[live]
            bid_active = compress[0][bid & 255]
            for q in range(1, len(compress)):
                bid_active |= compress[q][bid >> 8 * q & 255]
            law.add(bid_active, p, index)
            new_state.add(new, p, index)
        keys, sums = law.items()
        masks, probs = new_state.items()
        keep = probs > 1e-15
        self.masks, probs = masks[keep], probs[keep]
        # a left-to-right total: np.sum adds pairwise, which changes last bits
        self.probs = probs / np.cumsum(probs)[-1]
        return crs_mod.SupportDistribution(tuple(active),
                                           tuple(zip(keys.tolist(), sums.tolist())))


class _PairSums:
    """Dense per-mask sums over masks of `bits` bits, added in pair order,
    with each mask's first pair index to recover first-seen order."""

    def __init__(self, bits: int):
        self.total = np.zeros(1 << bits)
        self.first = np.full(1 << bits, _UNSEEN, dtype=np.int64)

    def add(self, masks: np.ndarray, p: np.ndarray, index: np.ndarray):
        np.add.at(self.total, masks, p)  # in input order: bit-equal to a loop
        np.minimum.at(self.first, masks, index)

    def items(self) -> tuple[np.ndarray, np.ndarray]:
        """Reached masks in first-seen order and their sums."""
        seen = np.flatnonzero(self.first != _UNSEEN)
        keys = seen[np.argsort(self.first[seen])]
        return keys, self.total[keys]


# ----------------------------------------------------------------------------
# matchings and samplers
# ----------------------------------------------------------------------------

def odrs_core_step(ahead: np.ndarray, plan: StepPlan,
                   selector: "crs_mod.SelectionRule", rng: ScalarRng) -> int:
    """One arrival of the core ODRS: draw candidates per bin, collect eligible
    bids, update the per-node bid states in place, and resolve contention.

    Returns the matched offline node, or -1. Candidates from group bins bid
    while their count lags the scaled-degree floor; boundary-crossing nodes
    bid surely when lagging, else with their takeover coin.
    """
    apos = {i: k for k, i in enumerate(selector.elements)}
    bid_mask = 0
    for gb in plan.bins:
        node = gb.draw(rng.uniform())
        if node >= 0 and not ahead[node]:
            bid_mask |= 1 << apos[node]
            ahead[node] = True
    for cn in plan.crossing:
        heads = rng.uniform() < cn.takeover
        if not ahead[cn.node]:
            bid_mask |= 1 << apos[cn.node]
        elif heads:
            bid_mask |= 1 << apos[cn.node]
        else:
            ahead[cn.node] = False
    if not bid_mask:
        return -1
    return crs_mod.select(selector, bid_mask, rng.uniform())


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


class CompiledOdrs:
    """Deterministic per-instance structure for the improved ODRS: step plans,
    exact per-arrival bid-set laws, and CRS selectors (shared by the sampler,
    the exact engine, and the Monte Carlo bench)."""

    def __init__(self, inst: MatchingInstance, params: ScalingParams):
        self.inst = inst
        self.params = params
        self.plans = build_plans(inst, params)
        labels = _components(inst)
        comp_nodes: dict[int, list[int]] = {}
        for i, lab in enumerate(labels):
            comp_nodes.setdefault(lab, []).append(i)
        too_big = max((len(v) for v in comp_nodes.values()), default=0)
        if too_big > MAX_COMPONENT:
            raise SizeError(
                f"a component of {too_big} offline nodes exceeds the exact-CRS cap "
                f"{MAX_COMPONENT}; downscale for the polytime pathway or use the warm-up ODRS")
        dps = {lab: BidLawDP(nodes) for lab, nodes in comp_nodes.items()}
        self.laws: list[crs_mod.SupportDistribution | None] = []
        self.selectors: list[crs_mod.SelectionRule | None] = []
        for plan in self.plans:
            active = plan.active()
            if not active:
                self.laws.append(None)
                self.selectors.append(None)
                continue
            law = dps[labels[active[0]]].step(plan)
            v = [plan.v[i] for i in law.elements]
            self.laws.append(law)
            self.selectors.append(crs_mod.build_selector(law, v))

    def sample(self, seed: int, rng: ScalarRng | None = None) -> Matching:
        rng = rng if rng is not None else ScalarRng(seed)
        ahead = np.zeros(self.inst.n_offline, dtype=bool)
        out = Matching()
        for plan, selector in zip(self.plans, self.selectors):
            if selector is None:
                continue
            winner = odrs_core_step(ahead, plan, selector, rng)
            if winner >= 0:
                out.add(winner, plan.t)
        out.assert_valid(self.inst, b_matching=self.params.variant == "b_matching")
        return out

    def edge_match_probs(self) -> dict[tuple[int, int], float]:
        """Exact Pr[(i,t) matched] = sum_S Pr[P_t=S] p_{i,S}."""
        probs: dict[tuple[int, int], float] = {}
        for plan, law, selector in zip(self.plans, self.laws, self.selectors):
            if law is None:
                continue
            marg = crs_mod.exact_marginals(law, selector)
            for k, i in enumerate(law.elements):
                probs[(i, plan.t)] = float(marg[k])
        return probs

    def bid_law(self, t: int) -> crs_mod.SupportDistribution:
        """Exact law of the bidder set P_t."""
        law = self.laws[t]
        return law if law is not None else crs_mod.SupportDistribution((), ((0, 1.0),))

    def bid_marginals(self, t: int) -> dict[int, float]:
        """Exact Pr[i in P_t]; equals the scaled fraction."""
        law = self.bid_law(t)
        return dict(zip(law.elements, bitmask.marginals(law.atoms, len(law.elements)).tolist()))


def odrs_round(inst: MatchingInstance, params: ScalingParams, seed: int = 0) -> Matching:
    """Improved matching ODRS with exact CRS selectors."""
    return compile_scheme("odrs", inst, params).sample(seed)


def odrs_round_b(inst: MatchingInstance, params: ScalingParams, seed: int = 0) -> Matching:
    """b-matching extension of the improved ODRS."""
    return compile_scheme("odrs_b", inst, params).sample(seed)


# ----------------------------------------------------------------------------
# warm-up ODRS: independent per-node streams + product-law CRS
# ----------------------------------------------------------------------------

class CompiledWarmup:
    """1 - 1/e warm-up: each offline node runs its own online level-set stream
    on its fraction column; a product-law selector resolves each arrival."""

    def __init__(self, inst: MatchingInstance):
        if any(arr.p != 1.0 for arr in inst.arrivals):
            raise DomainError("this scheme expects sure arrivals; "
                              "use the stochastic pipeline for p < 1")
        self.inst = inst
        self.selectors: list[crs_mod.ProductSelector | None] = []
        # per arrival: (node, floor of its prefix sum, p if lagging, p if ahead)
        self.steps: list[list[tuple[int, int, float, float]]] = []
        s = np.zeros(inst.n_offline)
        for arr in inst.arrivals:
            rows = []
            for i, x in arr.edges:
                if x <= 0:
                    continue
                si = float(s[i])
                fl = math.floor(_snap(si))
                lo = step_probability(LevelSetState(si, fl), x)
                hi = step_probability(LevelSetState(si, math.ceil(_snap(si))), x)
                rows.append((i, fl, lo, hi))
                s[i] += x
            self.steps.append(rows)
            ys = [x for _, x in arr.edges if x > 0]
            self.selectors.append(crs_mod.ProductSelector(ys) if ys else None)

    def sample(self, seed: int, rng: ScalarRng | None = None) -> Matching:
        rng = rng if rng is not None else ScalarRng(seed)
        counts = [0] * self.inst.n_offline
        out = Matching()
        for t, rows in enumerate(self.steps):
            sel = self.selectors[t]
            if sel is None:
                continue
            bidders: set[int] = set()
            for k, (i, fl, lo, hi) in enumerate(rows):
                p = lo if counts[i] == fl else hi
                if rng.uniform() < p:
                    counts[i] += 1
                    bidders.add(k)
            if bidders:
                win = sel.select(bidders, rng.uniform)
                if win >= 0:
                    out.add(rows[win][0], t)
        out.assert_valid(self.inst, b_matching=True)
        return out

    def bid_law(self, t: int) -> crs_mod.SupportDistribution:
        """Exact law of the bidder set at arrival t: independent bids with the
        fractions as probabilities (one level-set stream per node)."""
        sel = self.selectors[t]
        if sel is None:
            return crs_mod.SupportDistribution((), ((0, 1.0),))
        return crs_mod.SupportDistribution.product([i for i, *_ in self.steps[t]], sel.y)

    def edge_match_probs(self) -> dict[tuple[int, int], float]:
        """Exact Pr[(i,t) matched], summing the bid law against the selector.

        The atoms of `bid_law(t)` go through the selector ATOM_CHUNK masks at
        a time and are summed in atom order by a running `np.cumsum` (a
        sequential sum, unlike the pairwise `np.sum`), so the selector's
        working arrays are bounded by the chunk, not by the `2^k` atoms of a
        degree-k arrival.
        """
        probs = {}
        for t, sel in enumerate(self.selectors):
            if sel is None:
                continue
            acc = np.zeros(sel.n)
            atoms = self.bid_law(t).atoms
            for a0 in range(0, len(atoms), ATOM_CHUNK):
                chunk = atoms[a0:a0 + ATOM_CHUNK]
                terms = np.empty((sel.n, len(chunk) + 1))
                terms[:, 0] = acc
                np.multiply([p for _, p in chunk],
                            sel.conditional_win_probs([mask for mask, _ in chunk]),
                            out=terms[:, 1:])
                acc = np.cumsum(terms, axis=1)[:, -1]
            for k, (i, *_) in enumerate(self.steps[t]):
                probs[(i, t)] = float(acc[k])
        return probs


def warmup_round(inst: MatchingInstance, seed: int = 0) -> Matching:
    """Warm-up ODRS with rounding ratio at least 1 - 1/e."""
    return compile_scheme("warmup", inst, None).sample(seed)


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
    """Parameters of scheme `name` (None for the warm-up); an omitted eps or
    delta takes the optimum of the scheme's variant."""
    variant = _variant(name)
    if variant is None:
        return None
    if eps is None or delta is None:
        e, d, _ = optimize_params(variant)
        eps = e if eps is None else eps
        delta = d if delta is None else delta
    return ScalingParams(eps, delta, variant)


def compile_scheme(name: str, inst: MatchingInstance, params: ScalingParams | None):
    """Compiled sampler of scheme `name` on `inst`: CompiledWarmup or
    CompiledOdrs; `params` must be of the scheme's variant."""
    variant = _variant(name)
    if variant is None:
        return CompiledWarmup(inst)
    if params is None or params.variant != variant:
        raise DomainError(f"{name} needs {variant}-variant parameters")
    return CompiledOdrs(inst, params)
