"""Instance data model: validation, generators, JSON serialization.

A matching instance is an offline side with integer capacities plus an ordered
stream of arrivals, each carrying sparse edge fractions (the fractional
b-matching revealed online). Instances are immutable after construction.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ValidationFailure
from .rng import generator

TOL = 1e-9
MAX_ARRIVAL_B = 1024  # largest per-arrival "b": each unit becomes its own arrival


@dataclass(frozen=True)
class Arrival:
    """One online node: sparse edges (offline_id, fraction), optional weights
    and arrival probability p (stochastic instances only)."""

    edges: tuple[tuple[int, float], ...]
    weights: tuple[float, ...] | None = None
    p: float = 1.0

    def weight_of(self, pos: int) -> float:
        return 1.0 if self.weights is None else self.weights[pos]


@dataclass(frozen=True)
class MatchingInstance:
    n_offline: int
    capacities: tuple[int, ...]
    arrivals: tuple[Arrival, ...]

    @property
    def n_arrivals(self) -> int:
        return len(self.arrivals)

    def edge_list(self) -> list[tuple[int, int, float]]:
        """All (offline_id, arrival_index, fraction) triples."""
        out = []
        for t, arr in enumerate(self.arrivals):
            for i, x in arr.edges:
                out.append((i, t, x))
        return out


@dataclass(frozen=True)
class MultigraphInstance:
    """Bipartite multigraph revealed left-node by left-node."""

    n_left: int
    n_right: int
    delta: int
    arrivals: tuple[tuple[tuple[int, int], ...], ...]  # per left node: (right_id, multiplicity)


@dataclass(frozen=True)
class CoverInstance:
    """Multi-stage covering program with a feasible fractional solution."""

    k: int  # stages
    n_vars: int  # variables per stage
    costs: tuple[tuple[float, ...], ...]  # [stage][var]
    edges: tuple[tuple[tuple[int, ...], int], ...]  # (vertex ids, demand)
    xstar: tuple[tuple[float, ...], ...]  # [var][stage]


@dataclass
class Violation:
    kind: str
    where: str
    magnitude: float = 0.0

    def __str__(self):
        return f"{self.kind} at {self.where} (magnitude {self.magnitude:.3g})"


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def valid(self) -> bool:
        return not self.violations

    def add(self, kind, where, magnitude=0.0):
        self.violations.append(Violation(kind, where, magnitude))

    def raise_if_invalid(self):
        if not self.valid:
            lines = "; ".join(str(v) for v in self.violations)
            raise ValidationFailure(f"invalid instance: {lines}")


def validate(inst: MatchingInstance) -> ValidationReport:
    """Check membership in the fractional b-matching polytope plus structure.

    Never raises; every violated constraint is reported with its location and
    magnitude.
    """
    rep = _load_check(inst)
    if len(inst.capacities) != inst.n_offline:
        rep.add("capacity-count", "capacities", abs(len(inst.capacities) - inst.n_offline))
    for i, b in enumerate(inst.capacities):
        if math.isfinite(b) and int(b) == b and b < 1:  # else _load_check reports it
            rep.add("bad-capacity", f"offline {i}", b)
    col = np.zeros(inst.n_offline)
    for t, arr in enumerate(inst.arrivals):
        seen = set()
        row = 0.0
        if not (0.0 < arr.p <= 1.0):
            rep.add("bad-arrival-prob", f"arrival {t}", arr.p)
        if arr.weights is not None:
            if len(arr.weights) != len(arr.edges):
                rep.add("weight-count", f"arrival {t}")
            elif any(w < 0 for w in arr.weights):
                rep.add("negative-weight", f"arrival {t}")
        for i, x in arr.edges:
            if not (0 <= i < inst.n_offline):
                rep.add("edge-endpoint", f"arrival {t} offline {i}", i)
                continue
            if i in seen:
                rep.add("duplicate-offline", f"arrival {t} offline {i}")
            seen.add(i)
            if x < -TOL or x > 1 + TOL:
                rep.add("fraction-range", f"arrival {t} offline {i}", x)
            row += x
            col[i] += x
        limit = arr.p
        if row > limit + TOL:
            rep.add("arrival-sum", f"arrival {t} degree {row:.12g} > {limit}", row - limit)
    for i in range(inst.n_offline):
        b = inst.capacities[i] if i < len(inst.capacities) else 1
        if col[i] > b + TOL:
            rep.add("offline-degree", f"offline node {i} degree {col[i]:.12g} > {b}", col[i] - b)
    return rep


def _load_check(inst: MatchingInstance) -> ValidationReport:
    """What loading rejects: every NaN or infinite capacity, arrival
    probability, fraction or weight, and every non-integral capacity."""
    rep = ValidationReport()
    for i, b in enumerate(inst.capacities):
        if not math.isfinite(b):
            rep.add("non-finite", f"capacity of offline {i}", b)
        elif int(b) != b:
            rep.add("bad-capacity", f"offline {i}", b)
    for t, arr in enumerate(inst.arrivals):
        if not math.isfinite(arr.p):
            rep.add("non-finite", f"arrival {t} p", arr.p)
        for i, x in arr.edges:
            if not math.isfinite(x):
                rep.add("non-finite", f"arrival {t} offline {i} x", x)
        for k, w in enumerate(arr.weights or ()):
            if not math.isfinite(w):
                rep.add("non-finite", f"arrival {t} weight {k}", w)
    return rep


def validate_multigraph(mg: MultigraphInstance) -> ValidationReport:
    """Right ids in range, multiplicities nonnegative, and every degree
    within the declared delta."""
    rep = ValidationReport()
    if mg.delta < 1:
        rep.add("bad-delta", "delta", mg.delta)
    if len(mg.arrivals) > mg.n_left:
        rep.add("left-count", f"{len(mg.arrivals)} arrivals > {mg.n_left} left nodes",
                len(mg.arrivals) - mg.n_left)
    right = [0] * mg.n_right
    for t, arr in enumerate(mg.arrivals):
        left = 0
        for j, kappa in arr:
            if kappa < 0:
                rep.add("negative-multiplicity", f"left {t} right {j}", kappa)
            elif not (0 <= j < mg.n_right):
                rep.add("edge-endpoint", f"left {t} right {j}", j)
            else:
                left += kappa
                right[j] += kappa
        if left > mg.delta:
            rep.add("left-degree", f"left node {t} degree {left} > {mg.delta}", left - mg.delta)
    for j, d in enumerate(right):
        if d > mg.delta:
            rep.add("right-degree", f"right node {j} degree {d} > {mg.delta}", d - mg.delta)
    return rep


def validate_cover(cov: CoverInstance) -> ValidationReport:
    """Shapes (`costs` k × n_vars, `xstar` n_vars × k), finite nonnegative
    costs and x*, vertex ids in range, demands of at least one, and a
    feasible x*: each edge's x* summed over its vertices and all stages meets
    its demand (within TOL). Rounding covers every edge with probability one
    only from a feasible x*."""
    rep = ValidationReport()
    if cov.k < 1:
        rep.add("bad-k", "k", cov.k)
    if len(cov.costs) != cov.k:
        rep.add("costs-shape", f"{len(cov.costs)} stages of costs, k = {cov.k}",
                abs(len(cov.costs) - cov.k))
    for stage, row in enumerate(cov.costs):
        if len(row) != cov.n_vars:
            rep.add("costs-shape", f"stage {stage} has {len(row)} costs, n_vars = {cov.n_vars}",
                    abs(len(row) - cov.n_vars))
        for v, c in enumerate(row):
            if not (math.isfinite(c) and c >= 0):
                rep.add("bad-cost", f"stage {stage} var {v}", c)
    for v, row in enumerate(cov.xstar):
        if len(row) != cov.k:
            rep.add("xstar-shape", f"var {v} has {len(row)} stages, k = {cov.k}",
                    abs(len(row) - cov.k))
        for stage, x in enumerate(row):
            if not (math.isfinite(x) and x >= 0):
                rep.add("bad-xstar", f"var {v} stage {stage}", x)
    for e, (verts, demand) in enumerate(cov.edges):
        if demand < 1:
            rep.add("bad-demand", f"edge {e}", demand)
        out_of_range = [v for v in verts if not (0 <= v < cov.n_vars)]
        for v in out_of_range:
            rep.add("edge-endpoint", f"edge {e} var {v}", v)
        if not out_of_range:
            got = sum(x for v in verts for x in cov.xstar[v])
            if got < demand - TOL:  # False for NaN, which bad-xstar reports
                rep.add("infeasible-xstar", f"edge {e} covered {got:.12g} < {demand}",
                        demand - got)
    return rep


def drop_zero_edges(inst: MatchingInstance) -> MatchingInstance:
    """Remove zero-fraction edges; they never bid."""
    arrivals = []
    for arr in inst.arrivals:
        keep = [k for k, (_, x) in enumerate(arr.edges) if x > 0.0]
        edges = tuple(arr.edges[k] for k in keep)
        weights = None if arr.weights is None else tuple(arr.weights[k] for k in keep)
        arrivals.append(Arrival(edges, weights, arr.p))
    return MatchingInstance(inst.n_offline, inst.capacities, tuple(arrivals))


# ----------------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------------

def gen_uniform_star(n: int) -> MatchingInstance:
    """Single online node with fraction 1/n to each of n unit-capacity nodes."""
    if n < 1:
        raise DomainError("uniform star needs n >= 1")
    edges = tuple((i, 1.0 / n) for i in range(n))
    return MatchingInstance(n, (1,) * n, (Arrival(edges),))


def gen_lb_prefix(n: int) -> MatchingInstance:
    """n arrivals on disjoint offline pairs, every fraction 1/2."""
    if n < 2:
        raise DomainError("lower-bound prefix needs n >= 2")
    arrivals = tuple(Arrival(((2 * t, 0.5), (2 * t + 1, 0.5))) for t in range(n))
    return MatchingInstance(2 * n, (1,) * (2 * n), arrivals)


def gen_random(n: int, T: int, density: float, seed: int,
               max_b: int = 1, stochastic: bool = False,
               weight_range: tuple[float, float] = (0.5, 3.0)) -> MatchingInstance:
    """Random valid instance; deterministic for a fixed seed.

    Raw fractions are rescaled so both the per-arrival and per-offline-node
    sum constraints hold. With stochastic=True each arrival gets p in (0,1]
    and random edge weights (the fractions are then feasibility placeholders;
    the stochastic pipeline re-derives them from the LP).
    """
    if not (0 < density <= 1):
        raise DomainError("density must be in (0, 1]")
    rng = generator(seed, 0)
    caps = tuple(int(rng.integers(1, max_b + 1)) for _ in range(n))
    remaining = np.array(caps, dtype=float)
    arrivals = []
    for _ in range(T):
        mask = rng.random(n) < density
        if not mask.any():
            mask[int(rng.integers(0, n))] = True
        ids = np.flatnonzero(mask)
        raw = rng.uniform(0.2, 1.0, size=len(ids))
        p = float(rng.uniform(0.3, 1.0)) if stochastic else 1.0
        row_budget = p * float(rng.uniform(0.4, 1.0))
        raw *= row_budget / raw.sum()
        if stochastic:
            raw *= 0.25  # keep headroom for the LP's conditional constraint
        edges = []
        weights = []
        for j, i in enumerate(ids):
            x = float(min(raw[j], remaining[i]))
            if x <= 0:
                continue
            remaining[i] -= x
            edges.append((int(i), x))
            weights.append(float(rng.uniform(*weight_range)))
        if not edges:
            continue
        arrivals.append(Arrival(tuple(edges), tuple(weights) if stochastic else None, p))
    return MatchingInstance(n, caps, tuple(arrivals))


def gen_random_multigraph(n_left: int, n_right: int, delta: int, seed: int) -> MultigraphInstance:
    """Random bipartite multigraph with max degree exactly bounded by delta."""
    rng = generator(seed, 1)
    right_load = np.zeros(n_right, dtype=int)
    arrivals = []
    for _ in range(n_left):
        left_budget = delta
        counts = {}
        order = rng.permutation(n_right)
        for j in order:
            if left_budget <= 0:
                break
            room = delta - int(right_load[j])
            if room <= 0:
                continue
            k = int(rng.integers(0, min(room, left_budget) + 1))
            if k == 0:
                continue
            counts[int(j)] = k
            right_load[j] += k
            left_budget -= k
        arrivals.append(tuple(sorted(counts.items())))
    return MultigraphInstance(n_left, n_right, delta, tuple(arrivals))


def gen_random_cover(n_vars: int, n_edges: int, d: int, t: int, k: int, seed: int) -> CoverInstance:
    """Random d-uniform hypergraph multi-cover instance with a feasible x*."""
    rng = generator(seed, 2)
    costs = tuple(tuple(float(rng.uniform(0.5, 2.0)) for _ in range(n_vars)) for _ in range(k))
    edges = []
    for _ in range(n_edges):
        verts = tuple(int(v) for v in rng.choice(n_vars, size=d, replace=False))
        edges.append((verts, t))
    # x*: start from uniform split meeting every edge exactly, then lift to feasibility
    x = rng.uniform(0.0, 0.4, size=(n_vars, k))
    for verts, demand in edges:
        total = sum(x[v, l] for v in verts for l in range(k))
        if total < demand:
            scale = demand / total
            for v in verts:
                x[v] *= scale
    xstar = tuple(tuple(float(v) for v in row) for row in x)
    return CoverInstance(k, n_vars, costs, tuple(edges), xstar)


# ----------------------------------------------------------------------------
# JSON interchange
# ----------------------------------------------------------------------------

def _float_iterencode(o, encoder):
    return json.encoder._make_iterencode(
        {}, encoder.default, json.encoder.encode_basestring_ascii, encoder.indent,
        lambda f: format(f, ".17g"), encoder.key_separator, encoder.item_separator,
        encoder.sort_keys, encoder.skipkeys, False)(o, 0)


class _PreciseEncoder(json.JSONEncoder):
    """Serializes floats with 17 significant digits (bit-exact roundtrip)."""

    def iterencode(self, o, _one_shot=False):
        return _float_iterencode(o, self)


def dumps(obj) -> str:
    return json.dumps(obj, cls=_PreciseEncoder, indent=1)


def instance_to_dict(inst: MatchingInstance) -> dict:
    arrivals = []
    for arr in inst.arrivals:
        d = {"edges": []}
        if arr.p != 1.0:
            d["p"] = arr.p
        for k, (i, x) in enumerate(arr.edges):
            e = {"i": i, "x": x}
            if arr.weights is not None and arr.weights[k] != 1.0:
                e["w"] = arr.weights[k]
            d["edges"].append(e)
        arrivals.append(d)
    return {"n_offline": inst.n_offline,
            "capacities": list(inst.capacities),
            "arrivals": arrivals}


def save_json(inst, path: str):
    with open(path, "w") as fh:
        if isinstance(inst, MatchingInstance):
            fh.write(dumps(instance_to_dict(inst)))
        elif isinstance(inst, MultigraphInstance):
            fh.write(dumps({"multigraph": {
                "left": inst.n_left, "right": inst.n_right, "delta": inst.delta,
                "arrivals": [{"edges": [{"j": j, "kappa": k} for j, k in arr]}
                             for arr in inst.arrivals]}}))
        elif isinstance(inst, CoverInstance):
            fh.write(dumps({"cover": {
                "k": inst.k,
                "stages": [{"costs": list(c)} for c in inst.costs],
                "edges": [{"verts": list(v), "demand": d} for v, d in inst.edges],
                "xstar": [list(row) for row in inst.xstar]}}))
        else:
            raise DomainError(f"cannot serialize {type(inst).__name__}")
        fh.write("\n")


def instance_from_dict(doc: dict) -> MatchingInstance:
    rep = ValidationReport()  # a bad "b" is not kept in the instance, so _load_check cannot see it
    try:
        n = int(doc["n_offline"])
        caps = tuple(_capacity(b) for b in doc["capacities"])
        arrivals = []
        for t, arr in enumerate(doc["arrivals"]):
            p = float(arr.get("p", 1.0))
            b_t = _capacity(arr.get("b", 1))
            if isinstance(b_t, float) or not 1 <= b_t <= MAX_ARRIVAL_B:
                rep.add("bad-b", f"arrival {t}", b_t)
                b_t = 1
            edges, weights, has_w = [], [], False
            for e in arr["edges"]:
                edges.append((int(e["i"]), float(e["x"])))
                w = e.get("w")
                has_w = has_w or w is not None
                weights.append(float(w) if w is not None else 1.0)
            wtup = tuple(weights) if has_w else None
            if b_t > 1:
                # split a capacity-b online node into b unit arrivals
                split = tuple((i, x / b_t) for i, x in edges)
                for _ in range(b_t):
                    arrivals.append(Arrival(split, wtup, p))
            else:
                arrivals.append(Arrival(tuple(edges), wtup, p))
        inst = MatchingInstance(n, caps, tuple(arrivals))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationFailure(f"malformed instance JSON: {exc!r}") from exc
    rep.violations += _load_check(inst).violations
    rep.raise_if_invalid()
    return inst


def _capacity(b) -> int | float:
    """An integral capacity (or per-arrival `b`) as an int; any other value as
    a float, kept for the load checks to report."""
    if isinstance(b, int):
        return b
    v = float(b)
    return int(v) if v.is_integer() else v


def multigraph_from_dict(doc: dict) -> MultigraphInstance:
    try:
        mg = doc["multigraph"]
        arrivals = tuple(
            tuple(sorted((int(e["j"]), int(e["kappa"])) for e in arr["edges"]))
            for arr in mg["arrivals"])
        out = MultigraphInstance(int(mg["left"]), int(mg["right"]), int(mg["delta"]), arrivals)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationFailure(f"malformed multigraph JSON: {exc!r}") from exc
    validate_multigraph(out).raise_if_invalid()
    return out


def cover_from_dict(doc: dict) -> CoverInstance:
    try:
        cv = doc["cover"]
        out = CoverInstance(
            int(cv["k"]), len(cv["xstar"]),
            tuple(tuple(float(c) for c in s["costs"]) for s in cv["stages"]),
            tuple((tuple(int(v) for v in e["verts"]), int(e["demand"])) for e in cv["edges"]),
            tuple(tuple(float(v) for v in row) for row in cv["xstar"]))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationFailure(f"malformed cover JSON: {exc!r}") from exc
    validate_cover(out).raise_if_invalid()
    return out


def load_json(path: str):
    """Load any instance kind; matching instances are zero-edge-cleaned and
    capacity-b online nodes pre-split into unit arrivals."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationFailure(f"JSON parse error at line {exc.lineno} col {exc.colno}: {exc.msg}") from exc
    if "multigraph" in doc:
        return multigraph_from_dict(doc)
    if "cover" in doc:
        return cover_from_dict(doc)
    return drop_zero_edges(instance_from_dict(doc))
