"""Level-set rounding of a fraction stream, online and offline.

Both algorithms round x_1, x_2, ... in [0,1] to bits so that every prefix
count stays within floor/ceiling of the prefix sum (P2) while preserving
marginals (P1); the online algorithm's output law coincides with the offline
pairwise-merge law, which carries the strong negative-correlation properties.
The tests certify that coupling by enumerating the exact laws of
`online_round` and `offline_pivotal` as written (tests/conftest.py).
"""

from __future__ import annotations

import math

import numpy as np

from .crs import SupportDistribution
from .errors import DomainError, InvariantBreach
from .rng import ScalarRng, run_chunks

SNAP_TOL = 1e-9


def _snap(v: float) -> float:
    """Round to the nearest integer when within SNAP_TOL.

    The online case split is discontinuous at integer prefix sums, so float
    dust must not move a sum across a floor boundary.
    """
    r = round(v)
    return float(r) if abs(v - r) <= SNAP_TOL else v


def step_probability(s: float, count: int, x: float) -> float:
    """Selection probability of the next element x, by the five-way case
    split on the prefix sum s and the selection count before it (both sums
    snapped as by `_snap`, written out: this runs once per stream step).

    A sum v snaps through its float remainder f = v % 1.0: v - f is exactly
    floor(v), f is exactly v - floor(v) wherever `round` takes the floor, and
    v - (floor(v) + 1.0) is exactly v - round(v) wherever it takes the
    ceiling, so each snap test compares the difference `_snap` compares.
    (f - 1.0 is not: for v in (-0.5, 0), v % 1.0 rounds to the nearest
    float below one.)
    """
    s_t = s + x
    f = s_t % 1.0
    fl_t = s_t - f
    ce_t = fl_t + 1.0
    if f <= SNAP_TOL:
        s_t = ce_t = fl_t
    elif s_t - ce_t >= -SNAP_TOL:
        s_t = fl_t = ce_t
    if count == ce_t:
        return 0.0
    if count < fl_t:
        return 1.0
    f = s % 1.0
    fl_prev = s - f
    s_prev = s
    if f <= SNAP_TOL:
        s_prev = fl_prev
    elif s - (fl_prev + 1.0) >= -SNAP_TOL:
        s_prev = fl_prev = fl_prev + 1.0
    if count == fl_t == fl_prev:
        p = x / (fl_prev + 1.0 - s_prev)
    elif count == fl_t and fl_t > fl_prev and s_prev != fl_prev:
        p = (s_t - fl_t) / (s_prev - fl_prev)
    else:
        return 0.0
    if p < -SNAP_TOL or p > 1.0 + SNAP_TOL:
        raise InvariantBreach(f"selection probability {p} out of range at s={s_t}, count={count}")
    return p if 0.0 < p < 1.0 else float(p >= 1.0)


def kahan_add(s: float, comp: float, x: float) -> tuple[float, float]:
    """Kahan-compensated prefix sum: (s + x, new compensation)."""
    y = x - comp
    s_new = s + y
    return s_new, (s_new - s) - y


def step_table(s: float, x: float) -> tuple[int, float, float]:
    """(floor, p_lag, p_ahead) of the element x after prefix sum s.

    A valid count is the floor or the ceiling of the snapped sum, so the step
    probability is p_lag if count == floor else p_ahead.
    """
    s_prev = _snap(s)
    fl = math.floor(s_prev)
    return (fl, step_probability(s, fl, x), step_probability(s, math.ceil(s_prev), x))


def online_step(s: float, count: int, comp: float, x: float,
                u: float) -> tuple[int, float, int, float]:
    """One online decision on the stream state (prefix sum s, selection
    count, Kahan compensation comp): select x when u < its step probability.

    Returns (selected bit, s, count, comp) after x; aborts if the
    prefix-count invariant would break. `kahan_add` and `_snap` written out,
    the snap as in `step_probability`.
    """
    selected = 1 if u < step_probability(s, count, x) else 0
    y = x - comp
    s_new = s + y
    comp = (s_new - s) - y
    count += selected
    f = s_new % 1.0
    fl = s_new - f
    ce = fl + 1.0
    if f <= SNAP_TOL:
        ce = fl
    elif s_new - ce >= -SNAP_TOL:
        fl = ce
    if not fl <= count <= ce:
        raise InvariantBreach(
            f"prefix count {count} outside [floor,ceil] of prefix sum {s_new}")
    return selected, s_new, count, comp


def _fractions(x) -> np.ndarray:
    """x as a float array, once every fraction lies in [0, 1] up to SNAP_TOL
    (else DomainError)."""
    x = np.asarray(x, dtype=float)
    if not np.all((x >= -SNAP_TOL) & (x <= 1 + SNAP_TOL)):  # NaN fails this too
        raise DomainError("fractions must lie in [0, 1]")
    return x


def _pad_to_integer(x) -> tuple[np.ndarray, int]:
    """Append the dummy element that tops the sum up to the next integer."""
    x = _fractions(x)
    total = _snap(float(x.sum()))
    if total == round(total):
        return x, len(x)
    pad = math.ceil(total) - total
    return np.concatenate([x, [pad]]), len(x)


def online_round(x, seed: int = 0, rng: ScalarRng | None = None) -> np.ndarray:
    """Round a full stream online; non-integral sums get a dummy tail element
    which is stripped from the output."""
    xs, n = _pad_to_integer(x)
    rng = rng if rng is not None else ScalarRng(seed)
    s, count, comp = 0.0, 0, 0.0
    bits = np.zeros(len(xs), dtype=np.int8)
    for t, xt in enumerate(xs):
        bits[t], s, count, comp = online_step(s, count, comp, float(xt), rng.uniform())
    return bits[:n]


def batch_select(u: np.ndarray, mask: np.ndarray, p_true: float, p_false: float) -> np.ndarray:
    """The vectorized level-set step's selections: u < p_true where mask,
    else u < p_false, with mask one of the step's two count states (the count
    at the floor in `batch_stream`, ahead of it in the bench replay). These
    are the bits of `u < np.where(mask, p_true, p_false)`, from two scalar
    comparisons and three bool operations, which cost a sixth of that
    `np.where` on 2^14 runs."""
    sel = u < p_false
    flip = u < p_true
    flip ^= sel
    flip &= mask
    sel ^= flip
    return sel


def batch_stream(xs, g, n_runs: int):
    """n_runs independent online roundings of the stream xs (a sequence),
    vectorized across runs: yields each element's selection bits, one
    g.random(n_runs) per element (g a numpy Generator or an
    `rng.ChunkStream`). Step 0, where every count is 0 (the floor), and any
    step with p_lag == p_ahead compare the uniforms against the scalar
    probability; counts take the smallest unsigned type that holds len(xs).

    Asserts the prefix-count invariant for every run at every step.
    """
    counts = np.zeros(n_runs, dtype=np.min_scalar_type(len(xs)))
    s = comp = 0.0
    for t, x in enumerate(xs):
        fl, p_lag, p_ahead = step_table(s, x)
        u = g.random(n_runs)
        if t == 0 or p_lag == p_ahead:
            sel = u < p_lag
        else:
            sel = batch_select(u, counts == fl, p_lag, p_ahead)
        counts += sel
        s, comp = kahan_add(s, comp, x)
        snapped = _snap(s)
        lo, hi = math.floor(snapped), math.ceil(snapped)
        if counts.min() < lo or counts.max() > hi:
            raise InvariantBreach(f"prefix count outside [{lo},{hi}] at step {t}")
        yield sel


def online_round_batch(x, n_runs: int, seed: int = 0) -> np.ndarray:
    """n_runs independent online roundings, vectorized across runs: an
    (n_runs, len(x)) int8 array of bits.

    Runs go `rng.CHUNK_RUNS` at a time (`rng.run_chunks`, stream 3), so the
    working state is per chunk and the bits do not depend on the chunk size;
    the dummy tail element is drawn and checked but not kept. n_runs < 1 is
    rejected with DomainError.
    """
    xs, n = _pad_to_integer(x)
    stream = [float(v) for v in xs]
    chunks = run_chunks(n_runs, seed, 3)  # rejects n_runs < 1 before the allocation
    bits = np.zeros((n_runs, n), dtype=np.int8)
    for lo, hi, g in chunks:
        for t, sel in enumerate(batch_stream(stream, g, hi - lo)):
            if t < n:
                bits[lo:hi, t] = sel
    return bits


# ----------------------------------------------------------------------------
# offline pairwise merge
# ----------------------------------------------------------------------------

def step_outcomes(a: float, b: float) -> list[tuple[float, float, float]]:
    """The two outcomes of one pairwise merge: [(a', b', probability)].

    Sum a+b is preserved; when both inputs are fractional the number of
    fractional entries strictly decreases.
    """
    if a + b <= 0.0:
        return [(0.0, 0.0, 1.0)]
    s = a + b
    if _snap(s) < 1.0:
        return [(s, 0.0, a / s), (0.0, s, b / s)]
    if 2.0 - s <= 0.0:  # both entries already one
        return [(1.0, 1.0, 1.0)]
    return [(1.0, s - 1.0, (1.0 - b) / (2.0 - s)), (s - 1.0, 1.0, (1.0 - a) / (2.0 - s))]


def step_pair(a: float, b: float, u: float) -> tuple[float, float]:
    """Sample one pairwise merge with the uniform u."""
    outs = step_outcomes(a, b)
    if len(outs) == 1 or u < outs[0][2]:
        return outs[0][0], outs[0][1]
    return outs[1][0], outs[1][1]


def _fractional_indices(y: np.ndarray) -> list[int]:
    out = []
    for i, v in enumerate(y):
        s = _snap(float(v))
        if 0.0 < s < 1.0:
            out.append(i)
    return out


def offline_pivotal(x, seed: int = 0) -> np.ndarray:
    """Offline level-set rounding: repeatedly merge the two lowest-index
    fractional entries until none remain."""
    xs, n = _pad_to_integer(x)
    rng = ScalarRng(seed)
    y = xs.copy()
    for _ in range(len(y)):  # at most n-1 merges; one slack step for the guard
        frac = _fractional_indices(y)
        if not frac:
            break
        if len(frac) == 1:
            raise InvariantBreach("single fractional entry left; sum was not integral")
        i1, i2 = frac[0], frac[1]
        a, b = step_pair(float(y[i1]), float(y[i2]), rng.uniform())
        y[i1], y[i2] = _snap(a), _snap(b)
    else:
        raise InvariantBreach("pairwise merge did not terminate in n steps")
    return (np.round(y[:n])).astype(np.int8)


def threshold_round(x, tau: float) -> np.ndarray:
    """Warm-up thresholding: select j iff (s_{j-1}, s_j] meets tau + N.

    Satisfies P1 (over a uniform tau) and P2, but not negative correlation.
    Fractions outside [0, 1] and a tau outside [0, 1) raise DomainError.
    """
    xs = _fractions(x)
    if not 0.0 <= tau < 1.0:  # NaN fails this too
        raise DomainError("threshold tau must lie in [0, 1)")
    bits = np.zeros(len(xs), dtype=np.int8)
    s = 0.0
    for j, xj in enumerate(xs):
        s_next = s + float(xj)
        # integers k with s < k + tau <= s_next
        k_lo = math.floor(_snap(s - tau)) + 1
        k_hi = math.floor(_snap(s_next - tau))
        bits[j] = 1 if k_hi >= k_lo else 0
        s = s_next
    return bits


# ----------------------------------------------------------------------------
# exact law of the threshold rounding
# ----------------------------------------------------------------------------

def threshold_exact_dist(x) -> SupportDistribution:
    """Exact law of threshold_round over a uniform threshold.

    The selection pattern is piecewise constant in tau with breakpoints at the
    fractional parts of the prefix sums, so the law has at most n + 1 atoms.
    Fractions outside [0, 1] raise DomainError.
    """
    xs = _fractions(x)
    n = len(xs)
    cuts = {0.0, 1.0}
    s = 0.0
    for xj in xs:
        s += float(xj)
        cuts.add(s - math.floor(s))
    pts = sorted(cuts)
    masks, probs = [], []
    for a, b in zip(pts, pts[1:]):
        bits = threshold_round(xs, 0.5 * (a + b))
        masks.append(int(sum(int(bit) << i for i, bit in enumerate(bits))))
        probs.append(b - a)
    return SupportDistribution.summed(range(n), masks, probs).check(1e-9)
