import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from conftest import LevelSetState, reference_online_step, reference_step_probability
from odrs_lab import level_set as ls
from odrs_lab.errors import DomainError, InvariantBreach, SizeError
from odrs_lab.exact_engine import neg_cylinder_check
from odrs_lab.rng import ScalarRng


def test_online_step_forced_cases():
    # fresh unit with x = 1 must select
    assert ls.step_probability(0.0, 0, 1.0) == 1.0
    # count at ceiling blocks
    assert ls.step_probability(0.5, 1, 0.3) == 0.0


def test_online_step_case3_hand_value():
    # s=1.25, count=1, x=0.5: p = 0.5 / (1 + 1 - 1.25) = 2/3
    p = ls.step_probability(1.25, 1, 0.5)
    assert abs(p - 2.0 / 3.0) < 1e-15


def test_half_half_always_exactly_one():
    seen = set()
    for seed in range(200):
        bits = ls.online_round([0.5, 0.5], seed=seed)
        assert bits.sum() == 1
        seen.add(tuple(bits))
    assert seen == {(1, 0), (0, 1)}


def test_integral_inputs_are_fixed_points():
    for x in ([1, 0, 1], [0, 0], [1, 1, 1, 0]):
        bits = ls.online_round(x, seed=5)
        assert list(bits) == x


def test_online_marginal_monte_carlo():
    x = [0.5, 0.25, 0.75, 0.5]
    bits = ls.online_round_batch(x, 1_000_000, seed=9)
    freq = bits.mean(axis=0)
    assert np.all(np.abs(freq - x) < 0.002)


def test_prefix_counts_within_floor_ceil_over_large_battery():
    # the batch runner asserts P2 internally at every step
    ls.online_round_batch([0.5, 0.5, 0.5, 0.5], 1_000_000, seed=1)
    ls.online_round_batch([0.3, 0.9, 0.45, 0.2, 0.15], 1_000_000, seed=2)


def test_step_pair_probabilities():
    outs = ls.step_outcomes(0.3, 0.4)
    assert outs[0][:2] == (0.7, 0.0) and abs(outs[0][2] - 3 / 7) < 1e-15
    assert outs[1][:2] == (0.0, 0.7) and abs(outs[1][2] - 4 / 7) < 1e-15
    outs = ls.step_outcomes(0.6, 0.7)
    assert outs[0][:2] == (1.0, 0.3 - 2.220446049250313e-16) or abs(outs[0][0] - 1.0) < 1e-15
    assert abs(outs[0][2] - 3 / 7) < 1e-12 and abs(outs[1][2] - 4 / 7) < 1e-12
    # zero first coordinate: always the second outcome
    assert ls.step_pair(0.0, 0.5, 0.99) == (0.0, 0.5)
    assert ls.step_pair(0.0, 0.0, 0.3) == (0.0, 0.0)


@settings(max_examples=200, deadline=None)
@given(hst.floats(0, 1), hst.floats(0, 1), hst.floats(0, 0.999999))
def test_step_pair_preserves_sum_and_reduces_fractionals(a, b, u):
    a2, b2 = ls.step_pair(a, b, u)
    assert abs((a2 + b2) - (a + b)) < 1e-12
    def nfrac(*vals):
        return sum(1 for v in vals if 1e-12 < v < 1 - 1e-12)
    if nfrac(a, b) == 2:
        assert nfrac(a2, b2) < 2


def test_offline_fixed_point_and_half_half():
    assert list(ls.offline_pivotal([0, 1, 0], seed=3)) == [0, 1, 0]
    seen = {tuple(ls.offline_pivotal([0.5, 0.5], seed=s)) for s in range(100)}
    assert seen == {(1, 0), (0, 1)}


def test_coupling_online_equals_offline():
    for x in ([0.3, 0.3, 0.4], [0.25] * 4, [0.9, 0.1, 0.35, 0.65]):
        tv = ls.exact_dist_online(x).tv_distance(ls.exact_dist_offline(x))
        assert tv < 1e-9


def test_threshold_round_examples():
    assert list(ls.threshold_round([0.5] * 4, 0.3)) == [1, 0, 1, 0]
    assert list(ls.threshold_round([1, 0, 1], 0.77)) == [1, 0, 1]
    d = ls.threshold_exact_dist([0.5] * 4)
    m = d.marginals()
    assert np.allclose(m, 0.5, atol=1e-12)
    cov02 = d.expectation(lambda mk: (mk & 1) * (mk >> 2 & 1)) - m[0] * m[2]
    assert abs(cov02 - 0.25) < 1e-12  # positive correlation: P3 fails


def test_threshold_round_rejects_fractions_outside_unit_interval():
    for x in ([2.5, -1.0], [0.5, -0.1], [math.nan, 0.5], [0.5, math.inf]):
        with pytest.raises(DomainError):
            ls.threshold_round(x, 0.3)
        with pytest.raises(DomainError):
            ls.threshold_exact_dist(x)


def test_threshold_round_rejects_tau_outside_zero_one():
    for tau in (-0.1, 1.0, 1.5, math.nan, math.inf):
        with pytest.raises(DomainError):
            ls.threshold_round([0.5] * 4, tau)
    assert list(ls.threshold_round([0.5] * 4, 0.0)) == [0, 1, 0, 1]


def test_exact_dist_examples():
    d = ls.exact_dist_online([0.5, 0.5])
    probs = dict(d.atoms)
    assert abs(probs[0b01] - 0.5) < 1e-15 and abs(probs[0b10] - 0.5) < 1e-15
    d4 = ls.exact_dist_online([0.25] * 4)
    off4 = ls.exact_dist_offline([0.25] * 4)
    assert d4.tv_distance(off4) < 1e-9
    for i in range(4):
        assert abs(dict(d4.atoms)[1 << i] - 0.25) < 1e-12
    # integral sum n: point mass on all ones
    dp = ls.exact_dist_online([1.0, 1.0, 1.0])
    assert dp.atoms == ((0b111, 1.0),)


def test_exact_size_cap():
    with pytest.raises(SizeError):
        ls.exact_dist_online([0.5] * 21)


def test_threshold_law_has_no_width_cap():
    # at most n + 1 atoms, so nothing grows as 2^n
    x = np.random.default_rng(4).random(30)
    d = ls.threshold_exact_dist(x)
    assert d.elements == tuple(range(30)) and len(d.atoms) <= 31
    d.check(1e-9)
    assert np.max(np.abs(d.marginals() - x)) < 1e-9


def test_marginals_exact_to_1e12():
    rng = np.random.default_rng(0)
    for _ in range(30):
        n = int(rng.integers(2, 11))
        x = rng.random(n)
        d = ls.exact_dist_online(x)
        assert np.max(np.abs(d.marginals() - x)) < 1e-12


def test_q_t_identity():
    rng = np.random.default_rng(1)
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
                lambda mk, t=t, fl=fl: 1.0 if bin(mk & ((1 << (t + 1)) - 1)).count("1") == fl else 0.0)
            assert abs(q - (fl + 1 - s)) < 1e-12


def test_na_consequences_on_exact_law():
    rng = np.random.default_rng(2)
    for _ in range(15):
        n = int(rng.integers(2, 7))
        x = rng.random(n)
        d = ls.exact_dist_online(x)
        m = d.marginals()
        # pairwise covariance nonpositive
        for i in range(n):
            for j in range(i + 1, n):
                pij = d.expectation(lambda mk, i=i, j=j: (mk >> i & 1) * (mk >> j & 1))
                assert pij - m[i] * m[j] <= 1e-12
        # negative cylinders, both directions
        assert neg_cylinder_check(d, "ones").worst_violation <= 1e-12
        assert neg_cylinder_check(d, "zeros").worst_violation <= 1e-12


def test_dummy_padding_strips_tail():
    bits = ls.online_round([0.3, 0.4], seed=4)
    assert len(bits) == 2
    d = ls.exact_dist_online([0.3, 0.4])
    assert abs(sum(p for _, p in d.atoms) - 1.0) < 1e-12
    assert np.allclose(d.marginals(), [0.3, 0.4], atol=1e-12)


def test_accumulation_dust_near_integer_prefixes():
    # repeated tenths/thirds land within float dust of integers; snapping must
    # keep the case analysis and the prefix invariant intact
    for x in ([0.1] * 30, [1 / 3] * 9, [0.2, 0.3, 0.5] * 4):
        ls.online_round_batch(x, 50_000, seed=3)
        d = ls.exact_dist_online(x[:10])
        assert np.max(np.abs(d.marginals() - np.asarray(x[:10]))) < 1e-9


# ----------------------------------------------------------------------------
# the flat step against the LevelSetState step it replaced
# ----------------------------------------------------------------------------

def _step_streams(n_streams, length, seed):
    """Fraction streams: uniform ones, alternating with streams whose prefix
    sums land on integers (dyadic draws, or one tenth or third repeated)."""
    g = np.random.default_rng(seed)
    dyadic = np.array([0.5, 0.25, 0.75, 1.0, 0.0])
    dust = np.array([0.1, 0.2, 0.3, 0.7, 0.9, 1 / 3, 2 / 3])
    for k in range(n_streams):
        if k % 2 == 0:
            yield g.random(length).tolist()
        else:
            yield (g.choice(dyadic, length) if k % 4 == 1 else
                   np.full(length, g.choice(dust))).tolist()


def test_flat_step_equals_the_state_step():
    rng = ScalarRng(3)
    steps = on_integer = 0
    for xs in _step_streams(2_000, 60, seed=8):
        ref = LevelSetState()
        s, count, comp = 0.0, 0, 0.0
        for x in xs:
            u = rng.uniform()
            assert ls.step_probability(s, count, x) == reference_step_probability(ref, x)
            sel, s, count, comp = ls.online_step(s, count, comp, x, u)
            ref_sel, ref = reference_online_step(ref, x, u)
            assert (sel, count, s.hex(), comp.hex()) == \
                (ref_sel, ref.count_prev, ref.s_prev.hex(), ref.comp.hex())
            steps += 1
            on_integer += ls._snap(s) == round(s)
    assert steps >= 100_000 and on_integer > 10_000


def _outcome(step):
    try:
        return step()
    except InvariantBreach as exc:
        return ("InvariantBreach", str(exc))


def test_flat_step_breaches_like_the_state_step():
    # counts outside [floor, ceil] of the prefix sum, and fractions outside
    # [0, 1] that push the case split's probability out of range
    g = np.random.default_rng(9)
    breaches = {"step_probability": 0, "online_step": 0}
    for _ in range(20_000):
        s = float(g.integers(0, 6)) if g.random() < 0.3 else float(g.uniform(0, 6))
        count = int(g.integers(-2, 9))
        x = float(g.random()) if g.random() < 0.8 else float(g.uniform(-0.5, 2.0))
        u = float(g.random())
        ref = LevelSetState(s, count, 0.0)
        want_p = _outcome(lambda: reference_step_probability(ref, x))
        assert _outcome(lambda: ls.step_probability(s, count, x)) == want_p
        want = _outcome(lambda: reference_online_step(ref, x, u))
        got = _outcome(lambda: ls.online_step(s, count, 0.0, x, u))
        if want[0] == "InvariantBreach":
            assert got == want
            breaches["step_probability" if want == want_p else "online_step"] += 1
        else:
            assert got == (want[0], want[1].s_prev, want[1].count_prev, want[1].comp)
    assert breaches["step_probability"] > 50 and breaches["online_step"] > 5_000


def _near_integers():
    """Prefix sums at integers 0..4, within SNAP_TOL of them, on the
    tolerance itself and just past it, each with its two float neighbours."""
    out = set()
    for k in range(5):
        for d in (0.0, 0.5 * ls.SNAP_TOL, ls.SNAP_TOL, ls.SNAP_TOL * (1 + 1e-6),
                  2 * ls.SNAP_TOL, 0.25):
            for v in (k + d, k - d):
                out.update((v, math.nextafter(v, -math.inf), math.nextafter(v, math.inf)))
    return sorted(v for v in out if v >= 0.0)


def test_inline_snaps_equal_snap_near_integers():
    # the flat step snaps both sums and the new sum inline; on a grid that
    # straddles SNAP_TOL around every integer, with x landing the sum on,
    # within the tolerance of, and just off an integer, and counts at the
    # floor, at the ceiling and one beyond either, it equals the `_snap` step
    grid = _near_integers()
    snapped = sum(ls._snap(s) != s for s in grid)
    kept = sum(ls._snap(s) == s and s != round(s) for s in grid)
    assert snapped > 20 and kept > 20
    cases = 0
    for s in grid:
        fl, ce = math.floor(ls._snap(s)), math.ceil(ls._snap(s))
        for x in {0.0, 0.3, 1.0, ls.SNAP_TOL, min(1.0, ce - s), min(1.0, fl + 1 - s),
                  min(1.0, ce - s + 0.5 * ls.SNAP_TOL), max(0.0, ce - s - 0.5 * ls.SNAP_TOL),
                  max(0.0, ce - s - 2 * ls.SNAP_TOL)}:
            for count in {fl - 1, fl, ce, ce + 1}:
                ref = LevelSetState(s, count, 0.0)
                want_p = _outcome(lambda: reference_step_probability(ref, x))
                assert _outcome(lambda: ls.step_probability(s, count, x)) == want_p, (s, count, x)
                for u in (0.0, 0.5, math.nextafter(1.0, 0.0)):
                    want = _outcome(lambda: reference_online_step(ref, x, u))
                    got = _outcome(lambda: ls.online_step(s, count, 0.0, x, u))
                    if want[0] != "InvariantBreach":
                        want = (want[0], want[1].s_prev, want[1].count_prev, want[1].comp)
                    assert got == want, (s, count, x, u)
                    cases += 1
    assert cases > 10_000


def _remainder_boundaries():
    """Prefix sums where a snap through `s % 1.0` could part from one through
    `round`: integers up to 2^20, on, inside and outside SNAP_TOL and
    2 * SNAP_TOL of them, exact halves, signed zeros and negatives small
    enough that `s % 1.0` rounds to 1.0, each with its two float neighbours."""
    out = {0.0, -0.0, -1e-20, -5e-17, -math.ulp(0.0)}
    for k in (0, 1, 2, 3, 7, 255, 256, 1 << 10, (1 << 20) - 1, 1 << 20):
        for d in (0.0, ls.SNAP_TOL, 2 * ls.SNAP_TOL, 0.5):
            out.update((k + d, k - d))
    for v in list(out):
        out.update((math.nextafter(v, -math.inf), math.nextafter(v, math.inf)))
    return sorted(out)


def test_remainder_snaps_equal_round_snaps_bit_for_bit():
    # step_probability and online_step snap each sum through its remainder;
    # on the sums where that could part from `round` and fractions that land
    # the next sum on or near the next integer, every probability, state and
    # raised error equals the `_snap` step's, compared by their bits
    def bits(out):
        if isinstance(out, tuple) and isinstance(out[1], LevelSetState):
            out = (out[0], out[1].s_prev, out[1].count_prev, out[1].comp)
        return tuple(v.hex() if isinstance(v, float) else v
                     for v in (out if isinstance(out, tuple) else (out,)))

    grid = _remainder_boundaries()
    assert sum(s < 0.0 and s % 1.0 == 1.0 for s in grid) >= 3
    assert sum(ls._snap(s) != s for s in grid) > 50 and sum(s % 1.0 == 0.5 for s in grid) > 10
    cases = raised = 0
    for s in grid:
        fl = math.floor(s)
        for x in {0.0, 1e-12, 1.0 - (s - fl), 1.0}:
            for count in {fl - 1, fl, fl + 1, fl + 2}:
                ref = LevelSetState(s, count, 0.0)
                want_p = _outcome(lambda: reference_step_probability(ref, x))
                got_p = _outcome(lambda: ls.step_probability(s, count, x))
                assert bits(got_p) == bits(want_p), (s, count, x)
                for u in (0.0, 0.5, math.nextafter(1.0, 0.0)):
                    want = _outcome(lambda: reference_online_step(ref, x, u))
                    got = _outcome(lambda: ls.online_step(s, count, 0.0, x, u))
                    assert bits(got) == bits(want), (s, count, x, u)
                    cases += 1
                    raised += want[0] == "InvariantBreach"
    assert cases > 9_000 and raised > 1_000, (cases, raised)


def test_non_finite_fractions_are_rejected():
    for x in ([0.5, math.nan], [math.nan], [0.5, math.inf]):
        with pytest.raises(DomainError):
            ls.online_round(x)


def test_batch_select_equals_where_comparison():
    rng = np.random.default_rng(4)
    u = rng.random(10_000)
    at_floor = rng.random(10_000) < 0.6
    for p_lag, p_ahead in [(0.3, 0.7), (0.7, 0.3), (0.0, 1.0), (1.0, 0.0), (0.5, 0.5),
                           (u[17], u[42])]:  # thresholds equal to some u
        want = u < np.where(at_floor, p_lag, p_ahead)
        got = ls.batch_select(u, at_floor, p_lag, p_ahead)
        assert got.dtype == want.dtype and np.array_equal(got, want)
