"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with: pytest tests/test_acceptance.py -v -s
"""

import itertools
import json
import math
import subprocess
import sys
import time

import numpy as np

from conftest import (bit_law, cylinder_mass, digest, rotation_joint, scaled_degree_prefixes,
                      sized_joint)
from odrs_lab import apps, bench, exact_engine as engine
from odrs_lab import instances, level_set as ls, odrs, stochastic as st


def _report(num, desc, ok):
    print(f"ACCEPTANCE {num:>2}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_01_parameter_optimum_matching():
    t0 = time.time()
    eps, delta, alpha = odrs.optimize_params("matching")
    elapsed = time.time() - t0
    ok = (alpha >= 0.6519 and abs(eps - 0.0480) <= 0.003
          and abs(delta - 0.0643) <= 0.003 and elapsed < 10)
    _report(1, f"matching optimum alpha={alpha:.5f} eps={eps:.5f} "
               f"delta={delta:.5f} in {elapsed:.2f}s", ok)


def test_criterion_02_parameter_optimum_b_matching():
    t0 = time.time()
    eps, delta, alpha = odrs.optimize_params("b_matching")
    elapsed = time.time() - t0
    ok = (alpha >= 0.6459 and abs(eps - 0.0347) <= 0.003
          and abs(delta - 0.0425) <= 0.003 and elapsed < 10)
    _report(2, f"b-matching optimum alpha={alpha:.5f} eps={eps:.5f} "
               f"delta={delta:.5f} in {elapsed:.2f}s", ok)


def test_criterion_03_online_offline_coupling():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 8))
        x = rng.random(n)
        tv = ls.exact_dist_online(x).tv_distance(ls.exact_dist_offline(x))
        worst = max(worst, tv)
    elapsed = time.time() - t0
    ok = worst <= 1e-9 and elapsed < 60
    _report(3, f"200 couplings n<=7, worst TV={worst:.2e} in {elapsed:.1f}s", ok)


def test_criterion_04_level_set_properties():
    rng = np.random.default_rng(7)
    worst_marg = 0.0
    for _ in range(25):
        n = int(rng.integers(2, 11))
        x = rng.random(n)
        d = ls.exact_dist_online(x)
        worst_marg = max(worst_marg, float(np.max(np.abs(d.marginals() - x))))
    # the batch runner asserts the prefix-count invariant at every step
    ls.online_round_batch([0.3, 0.9, 0.45, 0.2, 0.15, 0.6], 1_000_000, seed=5)
    worst_q = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 9))
        x = rng.random(n)
        d = ls.exact_dist_online(x)
        s = 0.0
        for t in range(n):
            s += x[t]
            fl = math.floor(s)
            if abs(s - round(s)) < 1e-9:
                continue
            q = d.expectation(
                lambda mk, t=t, fl=fl:
                1.0 if bin(mk & ((1 << (t + 1)) - 1)).count("1") == fl else 0.0)
            worst_q = max(worst_q, abs(q - (fl + 1 - s)))
    ok = worst_marg < 1e-12 and worst_q < 1e-12
    _report(4, f"marginal err={worst_marg:.2e}, 1e6-run prefix asserts clean, "
               f"q_t err={worst_q:.2e}", ok)


def test_criterion_05_na_consequences(matching_params, b_matching_params):
    rng = np.random.default_rng(9)
    worst = -1.0

    def scan(dist):
        nonlocal worst
        m = dist.marginals()
        for i in range(len(dist.elements)):
            for j in range(i + 1, len(dist.elements)):
                pij = dist.expectation(lambda mk, i=i, j=j: (mk >> i & 1) * (mk >> j & 1))
                worst = max(worst, pij - m[i] * m[j])
        worst = max(worst, engine.neg_cylinder_check(dist, "ones").worst_violation)
        worst = max(worst, engine.neg_cylinder_check(dist, "zeros").worst_violation)

    for _ in range(10):
        n = int(rng.integers(2, 7))
        scan(ls.exact_dist_online(rng.random(n)))
    for seed, params, kind in ((3, matching_params, 1), (4, b_matching_params, 3)):
        inst = instances.gen_random(5, 6, 0.8, seed=seed, max_b=kind)
        dp = odrs.BidLawDP(list(range(inst.n_offline)))
        for plan in odrs.build_plans(inst, params):
            dp.step(plan)
            scan(bit_law(inst.n_offline, dp.state))
    power = engine.neg_cylinder_check(ls.threshold_exact_dist([0.5] * 4), "ones")
    ok = worst <= 1e-12 and power.worst_violation > 0.2
    _report(5, f"NA worst violation={worst:.2e}; threshold power test "
               f"violation=+{power.worst_violation:.2f}", ok)


def test_criterion_06_warmup_ratio():
    star = instances.gen_uniform_star(10)
    r = engine.rounding_ratio_exact(star, None, "warmup")
    target = 1 - 0.9 ** 10
    ok = abs(r - target) < 1e-9 and r >= 1 - 1 / math.e
    _report(6, f"warm-up star ratio={r:.9f} target={target:.9f}", ok)


def test_criterion_07_improved_ratio(matching_params, b_matching_params):
    t0 = time.time()
    worst = 1.0
    for n in range(1, 11):
        worst = min(worst, engine.rounding_ratio_exact(
            instances.gen_uniform_star(n), matching_params, "odrs"))
    count = 0
    seed = 0
    while count < 50:
        n = 3 + seed % 8
        T = 3 + (seed * 5) % 8
        inst = instances.gen_random(n, T, 0.5 + 0.1 * (seed % 6), seed=seed)
        seed += 1
        if not inst.arrivals:
            continue
        worst = min(worst, engine.rounding_ratio_exact(inst, matching_params, "odrs"))
        count += 1
    worst_b = 1.0
    for s in range(15):
        inst = instances.gen_random(4 + s % 4, 4 + s % 6, 0.7, seed=500 + s, max_b=3)
        worst_b = min(worst_b, engine.rounding_ratio_exact(inst, b_matching_params, "odrs_b"))
    ok = worst >= 0.652 - 1e-9 and worst_b >= 0.646 - 1e-9
    _report(7, f"exact min ratio: matching={worst:.4f} (>=0.652), "
               f"b-matching={worst_b:.4f} (>=0.646) in {time.time()-t0:.1f}s", ok)


def test_criterion_08_crs_exactness():
    from odrs_lab import crs
    rng = np.random.default_rng(88)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 7))
        n_atoms = int(rng.integers(1, 65))
        masks = rng.integers(0, 1 << k, size=n_atoms)
        probs = rng.random(n_atoms)
        probs /= probs.sum()
        atoms = {}
        for mk, p in zip(masks, probs):
            atoms[int(mk)] = atoms.get(int(mk), 0.0) + float(p)
        dist = crs.SupportDistribution(tuple(range(k)), tuple(atoms.items()))
        v = rng.random(k) + 0.05
        alpha = crs.balance_ratio(dist, v)
        marg = crs.exact_marginals(dist, crs.build_selector(dist, v))
        worst = max(worst, float(np.max(np.abs(marg - alpha * v))))
    ok = worst < 1e-9
    _report(8, f"100 random CRS selectors, worst marginal error={worst:.2e}", ok)


def test_criterion_09_lower_bounds(matching_params):
    t0 = time.time()
    root = bench.lb_root_check()
    adv = bench.lb_adversary("odrs", n=30, n_probe=200_000, n_eval=1_000_000,
                             seed=77, params=matching_params)
    sigma = max(e["ratio_se"] for e in adv["final_edges"])
    bound = adv["ratio_bound"] + 3 * sigma
    tri = bench.three_node_impossibility("odrs", params=matching_params)
    ok = (root <= 1e-12 and adv["min_final_ratio"] <= bound
          and tri["min_matched_prob"] < 1 - 1e-6)
    _report(9, f"root residual={root:.1e}; adversary min ratio="
               f"{adv['min_final_ratio']:.4f} <= {bound:.4f}; three-node min="
               f"{tri['min_matched_prob']:.4f} in {time.time()-t0:.1f}s", ok)


def test_criterion_10_correlation_facts():
    t0 = time.time()
    rng = np.random.default_rng(10)
    for trial in range(1000):
        n = int(rng.integers(3, 14))
        classes = int(rng.integers(1, 4))
        pops = [int(rng.integers(1, n)) for _ in range(classes)]
        w = rng.random(classes)
        w /= w.sum()
        engine.max_pairwise_cov(*rotation_joint(n, pops, w, seed=trial))
    for s in range(50):
        law, p = sized_joint(0.5, 0.2, 1, 2000 + s)
        idx = engine.find_positive_cylinder(law, p, 1, 0.2)
        assert cylinder_mass(law, idx) >= p ** 2 - 0.2 - 1e-12
    for s in range(50):
        law, p = sized_joint(0.9, 0.55, 2, 3000 + s)
        idx = engine.find_positive_cylinder(law, p, 2, 0.55)
        assert cylinder_mass(law, idx) >= p ** 4 - 0.55 - 1e-12
    _report(10, f"1000 covariance floors + 100 cylinder extractions (r=1,2) "
                f"in {time.time()-t0:.1f}s", True)


def test_criterion_11_stochastic(matching_params):
    t0 = time.time()
    worst_lo = math.inf
    worst_hi = -math.inf
    for s in range(20):
        inst = instances.gen_random(4 + s % 5, 4 + (s * 3) % 5, 0.7,
                                    seed=4000 + s, stochastic=True)
        rep = st.eval_vs_lp(inst, matching_params, runs=1_000_000, seed=s)
        worst_lo = min(worst_lo, rep["ratio"] + 3 * rep["ratio_ci95"])
        worst_hi = max(worst_hi, rep["ratio"] - 4 * rep["ratio_ci95"])
    exact_ok = True
    for s in (1, 2):
        inst = instances.gen_random(6, 6, 0.7, seed=6000 + s, stochastic=True)
        sol = st.solve_lp(st.build_lp(inst))
        ex = st.StochasticExact(inst, sol.x, matching_params)
        shats = scaled_degree_prefixes(ex.plans)
        for t, state, plan in ex.evolve():
            shat = shats[t]
            for size in (1, 2, 3):
                for S in itertools.combinations(range(inst.n_offline), size):
                    pr = sum(p for mk, p in state.atoms
                             if all(mk >> i & 1 for i in S))
                    if pr > math.prod(shat.get(i, 0.0) for i in S) + 1e-9:
                        exact_ok = False
            for i in range(inst.n_offline):
                free = sum(p for mk, p in state.atoms if not mk >> i & 1)
                if free < 1 - shat.get(i, 0.0) - 1e-9:
                    exact_ok = False
    ok = worst_lo >= 0.652 and worst_hi <= 1.0 and exact_ok
    _report(11, f"20 instances x 1e6 runs: min(ratio+3ci)={worst_lo:.4f}>=0.652, "
                f"max(ratio-4ci)={worst_hi:.4f}<=1; exact checks "
                f"{'pass' if exact_ok else 'fail'} in {time.time()-t0:.1f}s", ok)


# sha256 of the sorted colors items, one per criterion-12 seed
COLORING_SHA256 = [
    "e95641e06abfb7c4a261603f4cc37b7b5bb58bbbf4995eb7e1da92336c4dcd9c",
    "e0028577b78d13e686a31d56f7e3c57f915411ea5fdceced45b9d9553f78b24f",
    "aa38bdfbca2412933efa2727e6841a40d768140d99970289060ac1c2fba41d88",
    "ff3b0371323d76bad2c390d9907ece95da7c5d0bda8ffce0200bd058ab2ec337",
    "ece0b474d5e3f4c502cd6a5b8f5033e99ba108d78e489e73485eeb519787693c",
    "4e81641da2d86e34d33f302d80eb4e31fdf7357155c6e65fcbc3f531031b728e",
    "b2868a446bf75538de21e724e141bd3eb79bc1500fa21386bd05d37206061481",
    "468c880d7b83edce79a716840df3187bafe083606ea6f83cc3a0bfeae9354737",
    "feda84fb368736bf68661ea5bd278bbc79baf75c44ecda80ca2fdd5d27dcb618",
    "2ca275779a4c3b033d6797dbd7c1c8bd33da822d2bf86a0103ac9e975ad8b5bb",
]


def test_criterion_12_edge_coloring():
    t0 = time.time()
    worst_ratio = 0.0
    all_proper = True
    for seed in range(10):
        mg = instances.gen_random_multigraph(50, 50, 256, seed=seed)
        coloring = apps.edge_color_online(mg, C=32, seed=seed)
        assert digest(sorted(coloring.colors.items())) == COLORING_SHA256[seed]
        rep = apps.verify_coloring(mg, coloring)
        all_proper = all_proper and rep.proper and rep.all_colored
        worst_ratio = max(worst_ratio, rep.ratio)
    ok = all_proper and worst_ratio <= 1.7
    _report(12, f"10 seeds at delta=256, C=32: proper={all_proper}, worst "
                f"colors/delta={worst_ratio:.3f} <= 1.7 in {time.time()-t0:.1f}s", ok)


def test_criterion_13_multistage_cover():
    t0 = time.time()
    total_violations = 0
    ratios = []
    for seed in range(3):
        cov = instances.gen_random_cover(12, 14, d=3, t=2, k=3, seed=seed)
        rep = apps.cover_trials(cov, 100_000, seed=seed)
        total_violations += rep["violations"]
        ratios.append(rep["cost_ratio"])
        assert rep["alpha"] == 2.0
    worst = max(abs(r - 2.0) for r in ratios)
    ok = total_violations == 0 and worst <= 0.02 * 2.0
    _report(13, f"3x100k cover trials: {total_violations} violations, cost "
                f"ratios {['%.4f' % r for r in ratios]} in {time.time()-t0:.1f}s", ok)


def test_criterion_14_reproducibility(tmp_path):
    cli = [sys.executable, "-m", "odrs_lab.cli"]
    inst = tmp_path / "i.json"
    subprocess.run(cli + ["gen", "--kind", "random", "--n", "5", "--t", "5",
                          "--seed", "11", "--out", str(inst)], check=True)
    outs = []
    for cmd in (
        ["round", "--alg", "odrs", "--instance", str(inst), "--seed", "4",
         "--n-runs", "30000"],
        ["round", "--alg", "warmup", "--instance", str(inst), "--seed", "4",
         "--n-runs", "30000"],
        ["optimize-params", "--variant", "b-matching"],
    ):
        a = subprocess.run(cli + cmd, capture_output=True, text=True)
        b = subprocess.run(cli + cmd, capture_output=True, text=True)
        outs.append(a.stdout == b.stdout and a.returncode == b.returncode == 0)
    ok = all(outs)
    _report(14, f"byte-identical reports across reruns: {outs}", ok)
