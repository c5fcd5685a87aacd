import math

import numpy as np
import pytest

from conftest import bit_law, cylinder_mass, digest, rotation_joint, sized_joint
from odrs_lab import bitmask, crs, instances, level_set as ls, odrs, stochastic
from odrs_lab import exact_engine as engine
from odrs_lab.errors import DomainError, InvariantBreach, SizeError
from odrs_lab.instances import Arrival, MatchingInstance


def test_bid_set_law_single_bin_fresh_nodes(matching_params):
    inst = MatchingInstance(2, (1, 1), (Arrival(((0, 0.3), (1, 0.4))),))
    law = odrs.compile_scheme("odrs", inst, matching_params).bid_law(0)
    atoms = dict(law.atoms)
    a = odrs.scale_hat(0.3, 0.0, matching_params)
    b = odrs.scale_hat(0.4, 0.0, matching_params)
    assert abs(atoms.get(0b01, 0) - a) < 1e-12
    assert abs(atoms.get(0b10, 0) - b) < 1e-12
    assert abs(atoms.get(0, 0) - (1 - a - b)) < 1e-12


def test_bid_set_law_warmup_is_product():
    inst = instances.gen_uniform_star(3)
    law = odrs.compile_scheme("warmup", inst, None).bid_law(0)
    atoms = dict(law.atoms)
    for mask in range(8):
        expect = math.prod((1 / 3) if mask >> k & 1 else (2 / 3) for k in range(3))
        assert abs(atoms.get(mask, 0.0) - expect) < 1e-12


def test_bid_marginals_equal_scaled_fraction(matching_params):
    # each offline node's bid probability, summed over the exact bid-set law,
    # equals its scaled fraction xhat
    inst = instances.gen_random(6, 6, 0.7, seed=4)
    comp = odrs.compile_scheme("odrs", inst, matching_params)
    for t in range(inst.n_arrivals):
        law = comp.bid_law(t)
        for k, i in enumerate(law.elements):
            marg = sum(p for mk, p in law.atoms if mk >> k & 1)
            assert abs(marg - comp.plans[t].xhat[i]) < 1e-12


def test_edge_match_probs_single_edge_certain():
    inst = MatchingInstance(1, (1,), (Arrival(((0, 1.0),)),))
    p = engine.edge_match_probs(inst, None, "warmup")
    assert abs(p[(0, 0)] - 1.0) < 1e-12


def test_star_ratio_and_integral_instance(matching_params):
    star = instances.gen_uniform_star(10)
    r = engine.rounding_ratio_exact(star, None, "warmup")
    assert abs(r - (1 - 0.9 ** 10)) < 1e-9
    integral = MatchingInstance(2, (1, 1), (Arrival(((0, 1.0),)), Arrival(((1, 1.0),))))
    assert engine.rounding_ratio_exact(integral, matching_params, "odrs") == pytest.approx(1.0)


def test_ratio_exceeds_bound_on_random_instances(matching_params):
    bound = odrs.ratio_bound_raw(matching_params.eps, matching_params.delta)
    for seed in range(10):
        inst = instances.gen_random(3 + seed % 6, 3 + seed % 7, 0.8, seed=seed)
        r = engine.rounding_ratio_exact(inst, matching_params, "odrs")
        assert r >= bound - 1e-9


def test_size_cap(matching_params):
    # the cap is per component and per arrival, not per instance
    wide = MatchingInstance(21, (1,) * 21, (Arrival(tuple((i, 1 / 21) for i in range(21))),))
    with pytest.raises(SizeError, match="component"):
        engine.edge_match_probs(wide, matching_params, "odrs")
    with pytest.raises(SizeError, match="product law"):
        engine.edge_match_probs(wide, None, "warmup")
    # 22 offline nodes in components of two: exact at any length
    for alg, params in (("odrs", matching_params), ("warmup", None)):
        small = engine.edge_match_probs(instances.gen_lb_prefix(2), params, alg)[(0, 0)]
        big = instances.gen_lb_prefix(11)
        probs = engine.edge_match_probs(big, params, alg)
        assert len(probs) == 22 and all(p == small for p in probs.values())
        assert engine.rounding_ratio_exact(big, params, alg) == small / 0.5


def test_component_size_error_names_a_remedy_that_works(matching_params):
    # a chain of 21 offline nodes is one component
    chain = MatchingInstance(21, (1,) * 21,
                             tuple(Arrival(((t, 0.5), (t + 1, 0.5))) for t in range(20)))
    with pytest.raises(SizeError, match="component") as err:
        engine.edge_match_probs(chain, matching_params, "odrs")
    assert "downscal" not in str(err.value) and "warm-up ODRS" in str(err.value)
    probs = engine.edge_match_probs(chain, None, "warmup")
    assert len(probs) == 40


def _stochastic_exact(n):
    inst = instances.gen_random(n, 2, 0.5, seed=0, stochastic=True)
    xstar = {(i, t): x for i, t, x in inst.edge_list()}
    return stochastic.StochasticExact(inst, xstar, odrs.scheme_params("odrs"))


WIDE = bitmask.MAX_BITS + 1
TABLE_BUILDERS = {
    "BidLawDP": lambda: odrs.BidLawDP(list(range(WIDE))),
    "balance_ratio": lambda: crs.balance_ratio(
        crs.SupportDistribution(tuple(range(WIDE)), ((0, 1.0),)), [1.0] * WIDE),
    "SupportDistribution.product": lambda: crs.SupportDistribution.product(
        range(WIDE), [0.5] * WIDE),
    "exact_dist_online": lambda: ls.exact_dist_online([0.5] * WIDE),
    "exact_dist_offline": lambda: ls.exact_dist_offline([0.5] * WIDE),
    "StochasticExact": lambda: _stochastic_exact(WIDE),
    "neg_cylinder_check": lambda: engine.neg_cylinder_check(bit_law(WIDE, {0: 1.0})),
}


@pytest.mark.parametrize("build", TABLE_BUILDERS.values(), ids=TABLE_BUILDERS)
def test_every_mask_table_checks_the_one_cap(build):
    with pytest.raises(SizeError, match=rf"above the cap 2\^{bitmask.MAX_BITS}"):
        build()


def test_cap_leaves_narrow_tables_alone():
    assert odrs.BidLawDP(list(range(bitmask.MAX_BITS))).nodes == list(range(bitmask.MAX_BITS))
    assert _stochastic_exact(bitmask.MAX_BITS).inst.n_offline == bitmask.MAX_BITS


def test_max_pairwise_cov_examples():
    j = bit_law(3, {0b001: 1 / 3, 0b010: 1 / 3, 0b100: 1 / 3})
    i, jj, cov = engine.max_pairwise_cov(j, 1 / 3)
    assert abs(cov + 1 / 9) < 1e-12 and cov >= -2 * (1 / 3) / 2 - 1e-12
    j2 = bit_law(2, {0b01: 0.5, 0b10: 0.5})
    assert abs(engine.max_pairwise_cov(j2, 0.5)[2] + 0.25) < 1e-12
    ind = {}
    for m in range(8):
        ind[m] = math.prod(0.4 if m >> k & 1 else 0.6 for k in range(3))
    cov = engine.max_pairwise_cov(bit_law(3, ind), 0.4)[2]
    assert abs(cov) < 1e-12
    with pytest.raises(DomainError):
        engine.max_pairwise_cov(bit_law(1, {1: 1.0}))


def test_cov_floor_holds_on_random_joints():
    rng = np.random.default_rng(0)
    for trial in range(300):
        n = int(rng.integers(3, 16))
        classes = int(rng.integers(1, 4))
        pops = [int(rng.integers(1, n)) for _ in range(classes)]
        w = rng.random(classes)
        w /= w.sum()
        j, p = rotation_joint(n, pops, w, seed=trial)
        j.check()
        assert np.max(np.abs(j.marginals() - p)) <= 1e-9
        engine.max_pairwise_cov(j, p)  # raises if the floor bound fails


def test_n_r_bound_values():
    assert engine.n_r_bound(1, 0.5, 0.1) == 11
    assert engine.n_r_bound(1, 0.5, 0.3) == 2  # trivial case: eps >= p^2
    with pytest.raises(DomainError):
        engine.n_r_bound(0, 0.5, 0.1)


def test_find_positive_cylinder_trivial_when_eps_large():
    j, p = rotation_joint(6, [3], [1.0], 2)
    idx = engine.find_positive_cylinder(j, p, 1, 0.9)
    assert len(idx) == 2


def test_find_positive_cylinder_r1_and_r2():
    for seed in range(25):
        j, p = sized_joint(0.5, 0.2, 1, seed)
        idx = engine.find_positive_cylinder(j, p, 1, 0.2)
        assert len(set(idx)) == 2
        assert cylinder_mass(j, idx) >= p ** 2 - 0.2 - 1e-12
    for seed in range(10):
        j, p = sized_joint(0.9, 0.55, 2, 100 + seed)
        idx = engine.find_positive_cylinder(j, p, 2, 0.55)
        assert len(set(idx)) == 4
        assert cylinder_mass(j, idx) >= p ** 4 - 0.55 - 1e-12


def test_find_positive_cylinder_requires_enough_vars():
    j, p = rotation_joint(4, [2], [1.0], 3)
    with pytest.raises(DomainError, match="need n >="):
        engine.find_positive_cylinder(j, p, 1, 0.05)
    # the law's marginals must all be p
    with pytest.raises(DomainError, match="within 1e-9 of p"):
        engine.find_positive_cylinder(j, p + 1e-6, 1, 0.05)


def test_independent_vars_any_subset_works():
    probs = {}
    p = 0.6
    for m in range(16):
        probs[m] = math.prod(p if m >> k & 1 else 1 - p for k in range(4))
    j = bit_law(4, probs)
    idx = engine.find_positive_cylinder(j, p, 1, 0.4)
    assert cylinder_mass(j, idx) == pytest.approx(p ** 2, abs=1e-12)


def test_neg_cylinder_check_product_law_and_power():
    probs = {}
    for m in range(8):
        probs[m] = math.prod(0.5 if m >> k & 1 else 0.5 for k in range(3))
    d = bit_law(3, probs)
    rep = engine.neg_cylinder_check(d, "ones")
    assert abs(rep.worst_violation) < 1e-12
    # threshold law on half vector: violation exactly +0.25 at {0, 2}
    dth = ls.threshold_exact_dist([0.5] * 4)
    rth = engine.neg_cylinder_check(dth, "ones")
    assert rth.worst_violation == pytest.approx(0.25, abs=1e-12)
    assert rth.worst_subset == (0, 2)


def test_neg_cylinder_on_odrs_bid_state_laws(matching_params):
    # has-bid masks of the improved ODRS stay negatively cylinder dependent
    inst = instances.gen_random(6, 6, 0.8, seed=17)
    dp = odrs.BidLawDP(list(range(inst.n_offline)))
    for plan in odrs.build_plans(inst, matching_params):
        dp.step(plan)
        d = bit_law(inst.n_offline, dp.state)
        assert engine.neg_cylinder_check(d, "ones").worst_violation <= 1e-12
        assert engine.neg_cylinder_check(d, "zeros").worst_violation <= 1e-12


def reference_neg_cylinder_check(dist, direction):
    """The subset loop `neg_cylinder_check` replaced: products from the lowest
    bit up, the first strictly largest gap."""
    n = len(dist.elements)
    size = 1 << n
    cyl = np.zeros(size)
    for mask, p in dist.atoms:
        cyl[mask if direction == "ones" else (size - 1) ^ mask] += p
    cyl = bitmask.superset_sums(cyl)
    marg = dist.marginals()
    single = marg if direction == "ones" else 1.0 - marg
    worst = (-math.inf, ())
    for s in range(1, size):
        prod = 1.0
        k = s
        while k:
            low = k & -k
            prod *= single[low.bit_length() - 1]
            k ^= low
        gap = cyl[s] - prod
        if gap > worst[0]:
            worst = (gap, tuple(i for i in range(n) if s >> i & 1))
    return worst[1], worst[0]


def test_neg_cylinder_check_equals_the_subset_loop():
    rng = np.random.default_rng(3)
    dists = [bit_law(0, {0: 1.0}), ls.threshold_exact_dist([0.5] * 4)]
    for _ in range(40):
        n = int(rng.integers(1, 11))
        x = rng.random(n)
        dists += [ls.exact_dist_online(x), ls.exact_dist_offline(x), ls.threshold_exact_dist(x)]
        masks = rng.integers(0, 1 << n, size=int(rng.integers(1, 30)))
        w = rng.random(len(masks))
        dists.append(bit_law(n, dict(zip(masks.tolist(), (w / w.sum()).tolist()))))
    for d in dists:
        for direction in ("ones", "zeros"):
            rep = engine.neg_cylinder_check(d, direction)
            assert (rep.worst_subset, rep.worst_violation) == \
                reference_neg_cylinder_check(d, direction)


def test_pair_product_joint_equals_the_bit_loop():
    for trial, n in enumerate([4 + t % 9 for t in range(30)] + [70, 129]):  # past 62 bits too
        j, _ = rotation_joint(n, [1 + trial % (n - 1)], [1.0], seed=trial)
        pairs = [(k, k + 1) for k in range(0, n - 1, 2)][::-1]
        want: dict[int, float] = {}
        for mask, p in j.atoms:
            z = sum(1 << s for s, (a, b) in enumerate(pairs) if mask >> a & 1 and mask >> b & 1)
            want[z] = want.get(z, 0.0) + p
        got = engine._pair_product_joint(j, pairs)
        assert got.elements == tuple(range(len(pairs)))
        assert list(got.atoms) == list(want.items())


def test_free_mask_distribution(matching_params):
    inst = instances.gen_random(5, 5, 0.8, seed=23)
    dist = engine.free_mask_distribution(inst, matching_params, 3)
    dist.check(1e-9)
    assert dist.elements == tuple(range(5))


def test_arrival_indices_are_range_checked(matching_params):
    inst = instances.gen_random(4, 5, 0.7, seed=1)
    T = inst.n_arrivals
    for name, params in (("odrs", matching_params), ("warmup", None)):
        comp = odrs.compile_scheme(name, inst, params)
        for t in (-1, T):
            with pytest.raises(DomainError, match=rf"arrival {t} is outside \[0, {T}\)"):
                comp.bid_law(t)
    for t in (-1, T + 1, 99):
        with pytest.raises(DomainError, match=rf"arrival {t} is outside \[0, {T}\]"):
            engine.free_mask_distribution(inst, matching_params, t)
    final = odrs.BidLawDP(list(range(inst.n_offline)))
    for plan in odrs.build_plans(inst, matching_params):
        final.step(plan)
    assert engine.free_mask_distribution(inst, matching_params, T).atoms == tuple(
        final.state.items())


def test_free_mask_distribution_equals_the_compiled_plans(matching_params, b_matching_params):
    # the law used to be read off compile_scheme's plans; build_plans gives
    # the same plans without synthesizing a selector per arrival
    for scheme, params, max_b in (("odrs", matching_params, 1), ("odrs_b", b_matching_params, 3)):
        for seed in range(4):
            inst = instances.gen_random(6, 7, 0.8, seed=seed, max_b=max_b)
            comp = odrs.compile_scheme(scheme, inst, params)
            for t in (0, 3, 7):
                dp = odrs.BidLawDP(list(range(inst.n_offline)))
                for plan in comp.plans[:t]:
                    dp.step(plan)
                dist = engine.free_mask_distribution(inst, params, t, scheme)
                assert dist.atoms == tuple(dp.state.items())
    inst = instances.gen_random(5, 5, 0.8, seed=23)
    with pytest.raises(DomainError, match="keeps no bid-state masks"):
        engine.free_mask_distribution(inst, None, 3, "warmup")
    with pytest.raises(DomainError, match="variant parameters"):
        engine.free_mask_distribution(inst, b_matching_params, 3, "odrs")


def test_three_node_impossibility_requires_fractional_solution(matching_params):
    # the perfect-negative-correlation system has no integral solution, so no
    # ODRS can match the final arrival with probability one
    for pair in ((0, 1), (0, 2), (1, 2)):
        arrivals = tuple(Arrival(((k, 0.5),)) for k in range(3))
        arrivals += (Arrival(((pair[0], 0.5), (pair[1], 0.5))),)
        inst = MatchingInstance(3, (1, 1, 1), arrivals)
        probs = engine.edge_match_probs(inst, matching_params, "odrs")
        final = probs.get((pair[0], 3), 0) + probs.get((pair[1], 3), 0)
        assert final < 1 - 1e-6


# digest of [edge_match_probs(gen_random(n, n, 0.7, seed, max_b)) for each
# seed] at the shapes of the benchmark's exact sweep (n = 4..9, seeds 0-2) and
# of its large instances (n = 11, seed 0; the warm-up's n = 13, seed 0), max_b
# 3 for odrs_b and 1 otherwise: a change to any bit of any exact edge
# probability fails here
EXACT_SHAPE_DIGESTS = {
    ("odrs", 4): "44a1299c8e62261e9fb584bfcd27c156539eab5250d08119a17eea4bc5d65c33",
    ("odrs", 5): "dbfe08bdfb87dc8f8afc716963700213ea943444bc149ab9feba4e95b9168f07",
    ("odrs", 6): "df488e8cb7cc38e0d85b3560306e54827bebe092318c64af68bc4cda23827369",
    ("odrs", 7): "698e4d476d5435b8500b6d9011d5c4e8d73caa2188630dc520eef4477ad7b8fb",
    ("odrs", 8): "868f6900f699d759c15e8f6bef80ccce422ea61ca407b44b9b56c5dafaf4c4cc",
    ("odrs", 9): "90288fcf465b09b0938bb4da1c975c80dde756b593b1eed1283c0557254b34d2",
    ("odrs", 11): "29bb49ef103287ca0311dc95639ad5928abeb7d26904c74c6140d961a0dabf3b",
    ("odrs_b", 4): "379b482d824eae7e118b7e0ec7e06acaea044caf24d95a979fb8b37b9b6992a1",
    ("odrs_b", 5): "fbf7209dc6586248a22acf58e68ee9a84bf11a9200d705fc6faf8ea365bafa25",
    ("odrs_b", 6): "913b028d05121e00d77cc12c586b12e7f10f8f6e144c20eda2da6d6b7350186c",
    ("odrs_b", 7): "14adc78ec544ad068d431f2bd008000632425281dbe218a9913fb69f32777408",
    ("odrs_b", 8): "45cf79546aac2d6461fa546822728a4d90a1fb981db45c5f893da40b5cbf62b5",
    ("odrs_b", 9): "505e14f1ee95ae4996b258eaf0e8421941d2052b7750c2810c5a2bea66f67dda",
    ("odrs_b", 11): "bea63a86266cf8c994b5839d5aca3f1d8691e49d372c7ef0807bf3ee22db2d3c",
    ("warmup", 13): "27b364608798f4df61e85c1a5b1386538e3ceea2010cb71acc01743c2a5ae563",
}


@pytest.mark.parametrize("alg,n", sorted(EXACT_SHAPE_DIGESTS))
def test_edge_match_probs_at_benchmark_shapes_are_pinned(alg, n):
    params = odrs.scheme_params(alg)
    probs = [engine.edge_match_probs(
        instances.gen_random(n, n, 0.7, seed, max_b=3 if alg == "odrs_b" else 1), params, alg)
        for seed in (range(3) if n < 10 else (0,))]
    assert digest(probs) == EXACT_SHAPE_DIGESTS[alg, n]
