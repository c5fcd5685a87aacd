"""Correctness checks on every operation's report.

Two gates: the paper's invariants, checked on every seed, and, on the default
seed, agreement with the stored golden reports (floats within 1e-12, every
other field exact).
"""

from __future__ import annotations

import hashlib
import json
import math

from workloads import RATIO_FLOOR

FLOAT_TOL = 1e-12
MC_SIGMAS = 6.0  # Monte Carlo estimates may sit this many standard errors off


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def parsed(op, text: str):
    """The report as data, or None when it is compared by hash only (the
    coloring CSV: integers only, and far too large to store)."""
    if op.check == "color-csv":
        return None
    if op.check == "text":
        return text
    if op.check == "ratio-exact":
        return float(text)
    return json.loads(text)


def _positive_edges(inst) -> set[tuple[int, int]]:
    return {(i, t) for i, t, x in inst.edge_list() if x > 0}


def _round_exact(op, doc) -> list[str]:
    alg, inst = op.ctx["alg"], op.ctx["inst"]
    errs = []
    if doc["exact"] is not True or any(e["se"] != 0 for e in doc["edges"]):
        errs.append("exact report carries Monte Carlo entries")
    if {(e["offline"], e["arrival"]) for e in doc["edges"]} != _positive_edges(inst):
        errs.append("report edges differ from the instance's positive edges")
    if doc["min_ratio"] < RATIO_FLOOR[alg] - 1e-9:
        errs.append(f"min_ratio {doc['min_ratio']} below {RATIO_FLOOR[alg]}")
    return errs


def _round_mc(op, doc) -> list[str]:
    p = op.ctx["prob"]
    return [f"edge ({e['offline']},{e['arrival']}) prob {e['prob']} is more than "
            f"{MC_SIGMAS} se from {p}"
            for e in doc["edges"] if abs(e["prob"] - p) > MC_SIGMAS * e["se"]]


def _round_stochastic(op, doc) -> list[str]:
    errs = []
    if doc.get("exact_threshold_ok") is not True:
        errs.append("exact_threshold_ok does not hold")
    floor = RATIO_FLOOR["stochastic"] - MC_SIGMAS * doc["se"] / doc["lp_value"]
    if doc["ratio"] < floor:
        errs.append(f"ratio {doc['ratio']} below {floor}")
    return errs


def _lowerbound(op, doc) -> list[str]:
    errs = []
    if doc["root_residual"] > 1e-12:
        errs.append(f"root residual {doc['root_residual']}")
    for e in doc["final_edges"]:
        if e["ratio"] < RATIO_FLOOR["odrs"] - MC_SIGMAS * e["ratio_se"]:
            errs.append(f"final edge {e['offline']} ratio {e['ratio']} below 0.652")
    return errs


def _cover(op, doc) -> list[str]:
    errs = []
    if doc["violations"] != 0:
        errs.append(f"{doc['violations']} coverage violations")
    if doc["trials"] != op.ctx["trials"]:
        errs.append(f"ran {doc['trials']} trials")
    return errs


def _color_csv(op, text: str) -> list[str]:
    """Proper and complete, checked on the full coloring."""
    mg = op.ctx["mg"]
    lines = text.strip().split("\n")
    if lines[0] != "left,right,copy,color":
        return ["unexpected CSV header"]
    copies: dict[tuple[int, int], set[int]] = {}
    left_seen, right_seen = set(), set()
    errs = []
    for line in lines[1:]:
        t, j, copy, c = (int(v) for v in line.split(","))
        copies.setdefault((t, j), set()).add(copy)
        if (t, c) in left_seen or (j, c) in right_seen:
            errs.append(f"color {c} repeats at edge ({t},{j})")
        left_seen.add((t, c))
        right_seen.add((j, c))
    want = {(t, j): kappa for t, arr in enumerate(mg.arrivals) for j, kappa in arr if kappa}
    if len(lines) - 1 != sum(want.values()):
        errs.append(f"{len(lines) - 1} colored copies, {sum(want.values())} edges")
    for edge, kappa in want.items():
        if copies.get(edge) != set(range(kappa)):
            errs.append(f"edge {edge} not fully colored")
            break
    if set(copies) - set(want):
        errs.append("colored an edge the multigraph lacks")
    return errs[:5]


def _round_sample(op, doc) -> list[str]:
    inst, alg = op.ctx["inst"], op.ctx["alg"]
    edges = _positive_edges(inst)
    per_arrival: dict[int, int] = {}
    per_offline: dict[int, int] = {}
    errs = []
    for m in doc:
        i, t = m["offline"], m["arrival"]
        if (i, t) not in edges:
            errs.append(f"matched ({i},{t}) is not an edge")
        per_arrival[t] = per_arrival.get(t, 0) + 1
        per_offline[i] = per_offline.get(i, 0) + 1
    if any(c > 1 for c in per_arrival.values()):
        errs.append("an arrival matched twice")
    for i, c in per_offline.items():
        cap = inst.capacities[i] if alg in ("warmup", "odrs-b") else 1
        if c > cap:
            errs.append(f"offline {i} matched {c} > {cap} times")
    return errs


def _ratio_exact(op, value: float) -> list[str]:
    floor = RATIO_FLOOR[op.ctx["alg"]]
    return [] if value >= floor - 1e-9 else [f"exact ratio {value} below {floor}"]


INVARIANTS = {
    "round-exact": _round_exact, "round-mc": _round_mc,
    "round-stochastic": _round_stochastic, "lowerbound": _lowerbound, "cover": _cover,
    "round-sample": _round_sample, "ratio-exact": _ratio_exact,
    "text": lambda op, doc: [],
}


def invariant_errors(op, text: str) -> list[str]:
    try:
        if op.check == "color-csv":
            return _color_csv(op, text)
        return INVARIANTS[op.check](op, parsed(op, text))
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        return [f"unreadable report: {exc!r}"]


def _close(a, b) -> bool:
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, float) or isinstance(b, float):
        if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
            return False
        return math.isclose(a, b, rel_tol=FLOAT_TOL, abs_tol=FLOAT_TOL)
    if isinstance(a, dict):
        return (isinstance(b, dict) and a.keys() == b.keys()
                and all(_close(a[k], b[k]) for k in a))
    if isinstance(a, list):
        return (isinstance(b, list) and len(a) == len(b)
                and all(_close(x, y) for x, y in zip(a, b)))
    return type(a) is type(b) and a == b


def golden_errors(op, text: str, golden: dict) -> list[str]:
    entry = golden.get(op.name)
    if entry is None:
        return ["no golden report for this operation"]
    if sha256(text) == entry["sha256"]:
        return []
    if entry["report"] is None:
        return ["report differs from the golden one (compared by hash)"]
    try:
        same = _close(parsed(op, text), entry["report"])
    except ValueError as exc:
        return [f"unreadable report: {exc!r}"]
    return [] if same else ["report differs from the golden one beyond 1e-12"]
