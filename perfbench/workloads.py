"""The benchmark's workloads: each turns a seed into instance files and a
fixed, ordered list of operations.

Instances come from the package's own generators. In exact-large and
small-many, the instance shapes (and the algorithms' own seeds) are drawn once
from a fixed stream and the workload seed relabels the offline (or right)
vertices: relabeling leaves an operation's work unchanged, so a pass costs the
same on every seed, while the reports and their hashes change with it (the
cost of one raw n=11 instance varies about 3x between draws). In mc-replay the
seed picks the Monte Carlo seeds and the random instances, whose cost is set
by their size. The operations only ever see the generated files (or, for the
exact sweep, the generated instance objects).
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field, replace
from typing import Callable

# One line per workload: why it is in the benchmark.
WHY = {
    "exact-large": "one big component per instance, so the exact bid-law DP "
                   "(BidLawDP.step) dominates and the vectorized replay does no work",
    "mc-replay": "tiny components and 1e6-run batches, so the (runs, n) numpy replay "
                 "kernels dominate time and peak memory and the exact DP costs nothing",
    "small-many": "thousands of small calls on tiny working sets, so per-call "
                  "interpreter overhead (optimize_params, step_probability, ProductSelector) dominates",
}

# Whether pass times are scaled by the calibration loop's speed (run.py):
# yes where the hot path is Python code, which a loaded shared host slows by
# up to 1.7x; no for mc-replay, whose numpy kernels it slows far less than it
# slows the Python loop, so scaling would add noise rather than remove it.
CALIBRATE = {"exact-large": True, "mc-replay": False, "small-many": True}

# Certified rounding ratios (paper): warm-up 1 - 1/e, ODRS 0.652, b-matching ODRS 0.646.
RATIO_FLOOR = {"warmup": 1.0 - 1.0 / math.e, "odrs": 0.652, "odrs-b": 0.646,
               "odrs_b": 0.646, "stochastic": 0.652}

# exact-large: n=11 instances for odrs and odrs-b (max_b=3), n=13 for warmup.
EXACT_N = 11
EXACT_COUNT = {"odrs": 3, "odrs-b": 2}
EXACT_WARMUP_N = 13
EXACT_WARMUP_COUNT = 1

# small-many: multigraphs colored at delta=256, seeds of `round --sample` per
# scheme, and instances (n = 4..9) per variant in the exact sweep.
SMALL_COLOR_GRAPHS = 1
SMALL_SAMPLE_SEEDS = 3
SMALL_SWEEP_PER_VARIANT = 60


@dataclass
class Op:
    """One operation of a workload.

    `argv` ops go through `odrs_lab.cli.main`; `call` ops are library calls
    that take the package's modules and return their report text. `check`
    names the invariant check and `ctx` holds what it needs.
    """

    name: str
    check: str
    argv: list[str] | None = None
    call: Callable[[object], str] | None = None
    ctx: dict = field(default_factory=dict)


def _seeds(workload: str, seed: int):
    rnd = random.Random(f"{workload}:{seed}")
    while True:
        yield rnd.getrandbits(31)


def relabel(inst, rnd: random.Random):
    """`inst` with its offline vertices renamed by a random permutation; each
    arrival keeps its edge order."""
    perm = list(range(inst.n_offline))
    rnd.shuffle(perm)
    caps = [0] * inst.n_offline
    for i, b in enumerate(inst.capacities):
        caps[perm[i]] = b
    arrivals = tuple(replace(arr, edges=tuple((perm[i], x) for i, x in arr.edges))
                     for arr in inst.arrivals)
    return replace(inst, capacities=tuple(caps), arrivals=arrivals)


def relabel_multigraph(mg, rnd: random.Random):
    """`mg` with its right vertices renamed by a random permutation."""
    perm = list(range(mg.n_right))
    rnd.shuffle(perm)
    arrivals = tuple(tuple((perm[j], m) for j, m in arr) for arr in mg.arrivals)
    return replace(mg, arrivals=arrivals)


def _save(instances, inst, tmp: str, name: str) -> str:
    path = os.path.join(tmp, name + ".json")
    instances.save_json(inst, path)
    return path


def _exact_large(seed: int, tmp: str, mods) -> list[Op]:
    instances = mods.instances
    shapes = _seeds("exact-large", 0)
    rnd = random.Random(f"exact-large:relabel:{seed}")
    ops = []
    kinds = [(alg, EXACT_N, 3 if alg == "odrs-b" else 1, count)
             for alg, count in EXACT_COUNT.items()]
    kinds.append(("warmup", EXACT_WARMUP_N, 1, EXACT_WARMUP_COUNT))
    for alg, n, max_b, count in kinds:
        for k in range(count):
            shape = instances.gen_random(n, n, 0.7, next(shapes), max_b=max_b)
            inst = relabel(shape, rnd)
            name = f"round-exact-{alg}-{k:02d}"
            path = _save(instances, inst, tmp, name)
            ops.append(Op(name, "round-exact", argv=["round", "--alg", alg, "--exact",
                                                       "--instance", path],
                          ctx={"inst": inst, "alg": alg}))
    return ops


def _mc_replay(seed: int, tmp: str, mods) -> list[Op]:
    instances = mods.instances
    seeds = _seeds("mc-replay", seed)
    ops = [Op("lowerbound-n30", "lowerbound",
              argv=["lowerbound", "--n", "30", "--seed", str(next(seeds))])]
    path = _save(instances, instances.gen_lb_prefix(20), tmp, "lb-prefix-20")
    ops.append(Op("round-mc-warmup-lb20", "round-mc",
                  argv=["round", "--alg", "warmup", "--n-runs", "1000000",
                        "--seed", str(next(seeds)), "--instance", path],
                  # every edge of the disjoint-pair prefix has x = 1/2 and the
                  # product-law selector gives it (1 - 1/4) * 1/2
                  ctx={"prob": 0.375}))
    inst = relabel(instances.gen_random(12, 12, 0.7, 0, stochastic=True),
                   random.Random(f"mc-replay:relabel:{seed}"))
    path = _save(instances, inst, tmp, "stochastic-12")
    ops.append(Op("round-mc-stochastic-12", "round-stochastic",
                  argv=["round", "--alg", "stochastic", "--n-runs", "1000000",
                        "--seed", str(next(seeds)), "--instance", path]))
    cov = instances.gen_random_cover(12, 14, 3, 2, 3, next(seeds))
    path = _save(instances, cov, tmp, "cover-12")
    ops.append(Op("cover-trials", "cover",
                  argv=["cover", "--trials", "200000", "--seed", str(next(seeds)),
                        "--instance", path], ctx={"trials": 200_000}))
    return ops


def _small_many(seed: int, tmp: str, mods) -> list[Op]:
    instances = mods.instances
    shapes = _seeds("small-many", 0)
    rnd = random.Random(f"small-many:relabel:{seed}")
    ops = []
    for k in range(SMALL_COLOR_GRAPHS):
        mg = relabel_multigraph(instances.gen_random_multigraph(50, 50, 256, next(shapes)), rnd)
        path = _save(instances, mg, tmp, f"multigraph-{k}")
        ops.append(Op(f"color-{k}", "color-csv",
                      argv=["color", "--csv", "--c", "32", "--seed", str(next(shapes)),
                            "--instance", path], ctx={"mg": mg}))
    for k in range(SMALL_SAMPLE_SEEDS):
        for alg in ("warmup", "odrs", "odrs-b", "stochastic"):
            shape = instances.gen_random(8, 8, 0.7, next(shapes),
                                         max_b=3 if alg == "odrs-b" else 1,
                                         stochastic=alg == "stochastic")
            inst = relabel(shape, rnd)
            name = f"round-sample-{alg}-{k}"
            path = _save(instances, inst, tmp, name)
            ops.append(Op(name, "round-sample",
                          argv=["round", "--alg", alg, "--sample", "--seed", str(next(shapes)),
                                "--instance", path], ctx={"inst": inst, "alg": alg}))

    # exact sweep through the library, as in the README: parameters once, then
    # rounding_ratio_exact per instance
    params = {}

    def optimize(m):
        for alg, variant in (("odrs", "matching"), ("odrs_b", "b_matching")):
            eps, delta, _ = m.odrs.optimize_params(variant)
            params[alg] = m.odrs.ScalingParams(eps, delta, variant)
        return "\n".join(f"{alg} {p.eps!r} {p.delta!r}" for alg, p in sorted(params.items()))

    ops.append(Op("sweep-params", "text", call=optimize))

    def ratio(inst, alg):
        return lambda m: repr(m.exact_engine.rounding_ratio_exact(inst, params[alg], alg))

    for alg, max_b in (("odrs", 1), ("odrs_b", 3)):
        for k in range(SMALL_SWEEP_PER_VARIANT):
            n = 4 + k % 6
            inst = relabel(instances.gen_random(n, n, 0.7, next(shapes), max_b=max_b), rnd)
            ops.append(Op(f"sweep-{alg}-{k:03d}", "ratio-exact", call=ratio(inst, alg),
                          ctx={"alg": alg}))
    return ops


BUILDERS = {"exact-large": _exact_large, "mc-replay": _mc_replay, "small-many": _small_many}


def build(workload: str, seed: int, tmp: str, mods) -> list[Op]:
    """The operations of `workload` for `seed`, with their instance files in `tmp`."""
    return BUILDERS[workload](seed, tmp, mods)
