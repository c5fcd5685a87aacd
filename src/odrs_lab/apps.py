"""Applications: online multigraph edge coloring via fair matchings, and
multi-stage stochastic hypergraph multi-cover rounding.

Edge coloring runs rounds of fair matchings and finishes the leftovers
greedily. Each fair matcher is the shared warm-up ODRS step
(`odrs.OnlineWarmup`) fed the uncolored residual, with fractions
kappa(e)/Delta_round. Cover rounding level-set-rounds each vertex's scaled
stage vector independently; coverage then holds with probability one.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, SizeError
from .instances import COLOR_MAX_DELTA, CoverInstance, MultigraphInstance
from .level_set import _snap, batch_stream, online_round
from .level_set import online_step  # noqa: F401 -- perfbench/tracing.py looks it up here
from .level_set import step_probability  # noqa: F401 -- perfbench/tracing.py looks it up here
from .odrs import OnlineWarmup
from .rng import ScalarRng, mean_and_se, run_chunks

WARMUP_ALPHA = math.e / (math.e - 1.0)  # 1 / (1 - 1/e)
ROUND_SLACK = 0.1


# ----------------------------------------------------------------------------
# edge coloring
# ----------------------------------------------------------------------------

@dataclass
class EdgeColoring:
    """Color per parallel-edge copy, keyed by (left, right, copy index)."""

    colors: dict[tuple[int, int, int], int] = field(default_factory=dict)

    @property
    def palette_size(self) -> int:
        return max(self.colors.values()) + 1 if self.colors else 0


def default_rounds_c(n_nodes: int) -> int:
    """Desk-scale per-round color budget: max(8, ceil(log2(n)^2))."""
    if n_nodes < 2:
        return 8
    return max(8, math.ceil(math.log2(n_nodes) ** 2))


def edge_color_online(mg: MultigraphInstance, C: int | None = None,
                      seed: int = 0) -> EdgeColoring:
    """Online edge coloring by rounds of fair matchings plus a greedy finish.

    Round r uses the declared residual degree bound
    max(Delta - r*C*(1-ROUND_SLACK), C); matcher i within a round sees only
    edges left uncolored by matchers before it. A matcher is the warm-up ODRS
    step fed fractions kappa/bound, clipped to the per-vertex budgets so its
    stream stays a fractional matching no matter how the residual fluctuates.
    A matcher scans the residual's right nodes in ascending id order and stops
    once its row is full (1 - row_used <= 1e-12), since every later candidate
    would clip to that room and be skipped. The greedy finish reuses the
    palette first. A matcher's state is allocated on its first use. A
    declared delta above COLOR_MAX_DELTA raises SizeError before any matcher
    is allocated.
    """
    delta = mg.delta
    if delta > COLOR_MAX_DELTA:
        raise SizeError(f"declared max degree delta = {delta} exceeds the cap {COLOR_MAX_DELTA}")
    if C is None:
        C = default_rounds_c(mg.n_left + mg.n_right)
    if C < 1:
        raise DomainError(f"colors per round C must be at least 1, got {C}")
    C = min(C, delta)
    n_rounds = max(1, delta // C)
    per_round = math.ceil(WARMUP_ALPHA * C)
    rng = ScalarRng(seed)
    # right-node state covers the listed right ids, not the declared count
    n_right = 1 + max((j for arr in mg.arrivals for j, _ in arr), default=-1)
    # per matcher, allocated on its first use (an arrival stops at the first
    # matchers that color its copies): (degree bound, fraction used per right
    # node, warm-up step)
    matchers: list[tuple | None] = [None] * (n_rounds * per_round)

    def matcher(color: int) -> tuple:
        bound = max(delta - color // per_round * C * (1.0 - ROUND_SLACK), float(C))
        matchers[color] = (bound, [0.0] * n_right, OnlineWarmup(n_right))
        return matchers[color]
    coloring = EdgeColoring()
    colors = coloring.colors
    right_used: list[set[int]] = [set() for _ in range(n_right)]
    for t, arr in enumerate(mg.arrivals):
        left_used: set[int] = set()  # colors at this arrival
        # right id -> free copies, in ascending id order (deleting an id
        # keeps the rest in order)
        free_copies = dict(sorted({j: list(range(kappa))
                                   for j, kappa in arr if kappa > 0}.items()))
        for color, m in enumerate(matchers):
            if not free_copies:
                break
            bound, col_used, warmup = m or matcher(color)
            row_used, row_room = 0.0, 1.0
            edges = []
            for j, copies in free_copies.items():
                x = len(copies) / bound
                if row_room < x:
                    x = row_room
                room = 1.0 - col_used[j]
                if room < x:
                    x = room
                if x <= 1e-12:
                    continue
                row_used += x
                row_room = 1.0 - row_used
                col_used[j] += x
                edges.append((j, x))
                if row_room <= 1e-12:  # the row is full
                    break
            j = warmup.arrive(edges, rng)
            if j >= 0:
                # a matched simple edge colors one of its copies uniformly
                copies = free_copies[j]
                pick = int(rng.uniform() * len(copies))
                copy = copies.pop(min(pick, len(copies) - 1))
                colors[t, j, copy] = color
                left_used.add(color)
                right_used[j].add(color)
                if not copies:
                    del free_copies[j]
        # greedy finish for this arrival's leftover copies (first free color);
        # reusing a matcher's color blocks that matcher from this right node
        for j, copies in free_copies.items():
            right = right_used[j]
            for copy in copies:
                c = 0
                while c in left_used or c in right:
                    c += 1
                colors[t, j, copy] = c
                left_used.add(c)
                right.add(c)
                if c < len(matchers):
                    (matchers[c] or matcher(c))[1][j] = 1.0
    return coloring


@dataclass
class ColoringReport:
    proper: bool
    all_colored: bool
    colors_used: int
    delta: int
    violations: list[str] = field(default_factory=list)

    @property
    def ratio(self) -> float:
        return self.colors_used / self.delta if self.delta else 0.0


def verify_coloring(mg: MultigraphInstance, coloring: EdgeColoring) -> ColoringReport:
    """Properness plus completeness: every copy colored, no vertex sees a
    color twice."""
    violations = []
    seen_left: set[tuple[int, int]] = set()  # (left, color)
    seen_right: set[tuple[int, int]] = set()  # (right, color)
    for (t, j, _), c in coloring.colors.items():
        key = (t, c)
        if key in seen_left:
            violations.append(f"left {t} repeats color {c}")
        seen_left.add(key)
        key = (j, c)
        if key in seen_right:
            violations.append(f"right {j} repeats color {c}")
        seen_right.add(key)
    copies = Counter((t, j) for t, j, _ in coloring.colors)
    for t, arr in enumerate(mg.arrivals):
        for j, kappa in arr:
            have = copies[(t, j)]
            if have != kappa:
                violations.append(f"edge ({t},{j}) colored {have}/{kappa} copies")
    return ColoringReport(
        proper=not any("repeats" in v for v in violations),
        all_colored=not any("copies" in v for v in violations),
        colors_used=coloring.palette_size,
        delta=mg.delta,
        violations=violations)


# ----------------------------------------------------------------------------
# multi-stage cover
# ----------------------------------------------------------------------------

@dataclass
class CoverSolution:
    y: np.ndarray  # [var][stage] nonnegative integers
    cost: float


def cover_alpha(cov: CoverInstance) -> float:
    """(d + t - 1) / t, maximized over edges so every constraint is covered."""
    if not cov.edges:
        raise DomainError("cover instance has no edges")
    return max((len(verts) + demand - 1) / demand for verts, demand in cov.edges)


def _lp_cost(cov: CoverInstance) -> float:
    """Cost of the fractional solution `xstar`, summed vertex by vertex."""
    return sum(cov.costs[stage][v] * cov.xstar[v][stage]
               for v in range(cov.n_vars) for stage in range(cov.k))


def _peel(z: float) -> tuple[int, float]:
    """A scaled value's deterministic integer part and the fraction left to
    round."""
    z = _snap(z)
    base = math.floor(z)
    return base, z - base


def round_multistage_cover(cov: CoverInstance, seed: int = 0) -> CoverSolution:
    """Independently level-set-round each vertex's scaled stage vector.

    Scaled values above one are peeled into a deterministic integer part plus
    a rounded fractional part; the per-vertex floor guarantee is unchanged, so
    every constraint holds with probability one.
    """
    alpha = cover_alpha(cov)
    rng = ScalarRng(seed)
    y = np.zeros((cov.n_vars, cov.k), dtype=np.int64)
    for v in range(cov.n_vars):
        peeled = [_peel(alpha * cov.xstar[v][stage]) for stage in range(cov.k)]
        y[v] = [base for base, _ in peeled]
        y[v] += online_round([frac for _, frac in peeled], rng=rng)
    cost = float(sum(cov.costs[stage][v] * y[v, stage]
                     for v in range(cov.n_vars) for stage in range(cov.k)))
    return CoverSolution(y, cost)


def cover_trials(cov: CoverInstance, n_trials: int, seed: int) -> dict:
    """Vectorized Monte Carlo over trials: coverage violations and cost ratio.

    Trials run `rng.CHUNK_RUNS` at a time (`rng.run_chunks`, stream 11), each
    vertex's stages through `level_set.batch_stream`; per-vertex totals live
    per chunk, node-major `(n_vars, chunk)`, and violations are counted per
    chunk. Each trial's cost goes into one vector of `n_trials` floats, so the
    mean and the standard error are taken over all trials at once
    (`rng.mean_and_se`, in place) and do not depend on the chunk size.
    """
    if n_trials < 2:
        raise DomainError("cover trials need at least 2 trials (for the standard error)")
    alpha = cover_alpha(cov)
    peeled = [[_peel(alpha * cov.xstar[v][stage]) for stage in range(cov.k)]
              for v in range(cov.n_vars)]
    cost = np.zeros(n_trials)
    violations = 0
    for lo, hi, g in run_chunks(n_trials, seed, 11):
        totals = np.zeros((cov.n_vars, hi - lo), dtype=np.int64)
        chunk_cost = cost[lo:hi]
        for v, vpeeled in enumerate(peeled):
            bits = batch_stream([frac for _, frac in vpeeled], g, hi - lo)
            for stage, ((base, _), sel) in enumerate(zip(vpeeled, bits)):
                yv = base + sel if base else sel
                totals[v] += yv
                chunk_cost += cov.costs[stage][v] * yv
        for verts, demand in cov.edges:
            cover = totals[list(verts)].sum(axis=0)
            violations += int((cover < demand).sum())
    lp_cost = _lp_cost(cov)
    mean, se = mean_and_se(cost)
    return {"trials": n_trials, "violations": violations, "mean_cost": mean,
            "cost_se": se, "lp_cost": float(lp_cost), "alpha": alpha,
            "cost_ratio": mean / lp_cost if lp_cost > 0 else 1.0}


@dataclass
class CoverReport:
    covered: bool
    cost: float
    cost_ratio: float
    violations: list[str] = field(default_factory=list)


def verify_cover(cov: CoverInstance, sol: CoverSolution) -> CoverReport:
    violations = []
    for e, (verts, demand) in enumerate(cov.edges):
        got = int(sum(sol.y[v].sum() for v in verts))
        if got < demand:
            violations.append(f"edge {e} covered {got} < {demand}")
    lp_cost = _lp_cost(cov)
    return CoverReport(not violations, sol.cost,
                       sol.cost / lp_cost if lp_cost > 0 else 1.0, violations)
