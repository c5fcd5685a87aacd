"""Exact probabilistic analysis on small instances.

Computes bidder-set laws, per-edge match probabilities, and rounding ratios by
dynamic programming over joint bid-state masks, plus the correlation facts
used by the lower-bound machinery (pairwise covariance floor, near-positive
cylinder extraction, negative-cylinder scans).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bitmask
from . import crs as crs_mod
from . import odrs as odrs_mod
from .errors import DomainError, InvariantBreach
from .instances import MatchingInstance
from .level_set import BitDistribution


@dataclass
class JointBernoulli:
    """Sparse explicit joint of n binary variables; optionally a declared
    common marginal."""

    n: int
    probs: dict[int, float]
    common_p: float | None = None

    def check(self, tol=1e-9):
        total = sum(self.probs.values())
        if abs(total - 1.0) > tol:
            raise InvariantBreach(f"probabilities sum to {total}")
        if self.common_p is not None:
            m = self.marginals()
            if np.max(np.abs(m - self.common_p)) > 1e-9:
                raise InvariantBreach("declared common marginal does not match")

    def marginals(self) -> np.ndarray:
        return bitmask.marginals(self.probs.items(), self.n)

    def product_expectation(self, idx) -> float:
        sel = 0
        for i in idx:
            sel |= 1 << i
        return sum(p for mask, p in self.probs.items() if mask & sel == sel)


def bid_set_law(inst: MatchingInstance, params, t: int, algorithm: str = "odrs"
                ) -> crs_mod.SupportDistribution:
    """Exact law of the bidder set at arrival t."""
    return odrs_mod.compile_scheme(algorithm, inst, params).bid_law(t)


def free_mask_distribution(inst: MatchingInstance, params, t: int,
                           algorithm: str = "odrs") -> BitDistribution:
    """Joint law of the per-node bid states (bit = 1 at the ceiling) just
    before arrival t (bucketed ODRS schemes only)."""
    comp = odrs_mod.compile_scheme(algorithm, inst, params)
    if not isinstance(comp, odrs_mod.CompiledOdrs):
        raise DomainError(f"{algorithm} keeps no bid-state masks")
    dp = odrs_mod.BidLawDP(list(range(inst.n_offline)))
    for plan in comp.plans[:t]:
        dp.step(plan)
    dist = BitDistribution(inst.n_offline, dp.state)
    dist.check(1e-9)
    return dist


def edge_match_probs(inst: MatchingInstance, params, algorithm: str
                     ) -> dict[tuple[int, int], float]:
    """Exact Pr[(i,t) matched], summing the law of the bidder set against the
    same selector the sampler uses."""
    return odrs_mod.compile_scheme(algorithm, inst, params).edge_match_probs()


def rounding_ratio_exact(inst: MatchingInstance, params, algorithm: str) -> float:
    """min over edges with x > 0 of Pr[matched] / x."""
    probs = edge_match_probs(inst, params, algorithm)
    xs = {(i, t): x for i, t, x in inst.edge_list() if x > 0}
    if not xs:
        raise DomainError("instance has no positive-fraction edges")
    return min(probs.get(k, 0.0) / x for k, x in xs.items())


# ----------------------------------------------------------------------------
# correlation facts
# ----------------------------------------------------------------------------

def max_pairwise_cov(joint: JointBernoulli) -> tuple[int, int, float]:
    """Maximizing pair of Cov(Y_i, Y_j); with a declared common marginal p the
    maximum is asserted to be at least -2p/(n-1)."""
    n = joint.n
    if n < 2:
        raise DomainError("need at least two variables")
    weights = np.array(list(joint.probs.values()))
    bits = bitmask.bit_matrix(joint.probs, n)
    m = bits.T @ weights
    joint2 = bits.T @ (bits * weights[:, None])
    cov_mat = joint2 - np.outer(m, m)
    np.fill_diagonal(cov_mat, -np.inf)
    flat = int(np.argmax(cov_mat))
    i, j = sorted(divmod(flat, n))
    cov = float(cov_mat[i, j])
    if joint.common_p is not None:
        floor_bound = -2.0 * joint.common_p / (n - 1)
        if cov < floor_bound - 1e-12:
            raise InvariantBreach(
                f"max pairwise covariance {cov} below the floor {floor_bound}")
    return i, j, cov


def n_r_bound(r: int, p: float, eps: float) -> int:
    """Sufficient variable count for extracting a 2^r near-positive cylinder."""
    if r < 1:
        raise DomainError("r must be at least 1")
    if eps >= p ** (2 ** r):
        return 2 ** r
    if r == 1:
        return math.ceil(2.0 * p / eps + 1.0)
    e2 = eps / (2.0 ** (2 ** r))
    return n_r_bound(1, p, e2) + 2 * n_r_bound(r - 1, p * p - e2, eps / 2.0)


def _sum_by(keys, probs) -> dict[int, float]:
    """Probabilities summed per key, in the given order."""
    out: dict[int, float] = {}
    for key, p in zip(keys.tolist(), probs):
        out[key] = out.get(key, 0.0) + p
    return out


def _pair_product_joint(joint: JointBernoulli, pairs: list[tuple[int, int]]) -> JointBernoulli:
    """Joint of Z_s = Y_i * Y_j over the given disjoint pairs."""
    masks = list(joint.probs)
    z = (bitmask.project(masks, [i for i, _ in pairs], joint.n)
         & bitmask.project(masks, [j for _, j in pairs], joint.n))
    return JointBernoulli(len(pairs), _sum_by(z, joint.probs.values()))


def _thin_to(joint: JointBernoulli, target: float) -> JointBernoulli:
    """Couple each variable with an independent Ber(target/mean) downgrade so
    all marginals become exactly `target` while A_s <= Z_s pointwise."""
    means = joint.marginals()
    keep = [target / mu if mu > 0 else 0.0 for mu in means]
    if any(k > 1.0 + 1e-12 for k in keep):
        raise InvariantBreach("thinning target above a variable's mean")
    probs: dict[int, float] = {}
    for mask, p in joint.probs.items():
        ones = [s for s in range(joint.n) if mask >> s & 1]
        combos = [(0, 1.0)]
        for s in ones:
            nxt = []
            for sub, q in combos:
                nxt.append((sub | (1 << s), q * keep[s]))
                if keep[s] < 1.0:
                    nxt.append((sub, q * (1.0 - keep[s])))
            combos = nxt
        for sub, q in combos:
            if q > 0:
                probs[sub] = probs.get(sub, 0.0) + p * q
    return JointBernoulli(joint.n, probs, common_p=target)


def find_positive_cylinder(joint: JointBernoulli, r: int, eps: float) -> tuple[int, ...]:
    """A subset I, |I| = 2^r, with E[prod_{i in I} Y_i] >= p^(2^r) - eps.

    Implements the recursive pairing: extract disjoint near-uncorrelated pairs
    via the covariance floor, multiply them into new variables, thin to a
    common marginal, and recurse.
    """
    p = joint.common_p
    if p is None:
        raise DomainError("find_positive_cylinder needs a declared common marginal")
    target = p ** (2 ** r) - eps
    if target <= 0:
        result = tuple(range(2 ** r))
        if joint.n < 2 ** r:
            raise DomainError(f"need at least {2 ** r} variables")
        return result
    need = n_r_bound(r, p, eps)
    if joint.n < need:
        raise DomainError(f"need n >= {need} variables for r={r}, p={p}, eps={eps}")

    def rec(jnt: JointBernoulli, rr: int, ee: float) -> list[int]:
        if rr == 1:
            i, j, _ = max_pairwise_cov(jnt)
            return [i, j]
        e2 = ee / (2.0 ** (2 ** rr))
        m = n_r_bound(rr - 1, jnt.common_p ** 2 - e2, ee / 2.0)
        pairs: list[tuple[int, int]] = []
        used: set[int] = set()
        sub = jnt
        remap = list(range(jnt.n))
        for _ in range(m):
            i, j, cov = max_pairwise_cov(sub)
            gi, gj = remap[i], remap[j]
            if cov < -e2 - 1e-12:
                raise InvariantBreach("pair extraction fell below the covariance floor")
            pairs.append((gi, gj))
            used.update((gi, gj))
            keep = [k for k in range(jnt.n) if k not in used]
            remap = keep
            sm = bitmask.project(list(jnt.probs), keep, jnt.n)
            sub = JointBernoulli(len(keep), _sum_by(sm, jnt.probs.values()),
                                 common_p=jnt.common_p)
        zj = _pair_product_joint(jnt, pairs)
        aj = _thin_to(zj, jnt.common_p ** 2 - e2)
        chosen = rec(aj, rr - 1, ee / 2.0)
        out: list[int] = []
        for s in chosen:
            out.extend(pairs[s])
        return out

    idx = tuple(sorted(rec(joint, r, eps)))
    got = joint.product_expectation(idx)
    if got < target - 1e-12:
        raise InvariantBreach(
            f"extracted cylinder E[prod] = {got} below target {target}")
    return idx


# ----------------------------------------------------------------------------
# negative-cylinder scan
# ----------------------------------------------------------------------------

@dataclass
class CylinderReport:
    direction: str
    worst_subset: tuple[int, ...]
    worst_violation: float  # Pr[cylinder] - prod of marginals; negative is good


def neg_cylinder_check(dist: BitDistribution, direction: str = "ones") -> CylinderReport:
    """Scan all subsets for Pr[all bits equal 1 (or 0)] vs product of
    marginals; the worst (largest) gap is reported."""
    n = dist.n
    bitmask.check_width(n, "a cylinder scan")
    if direction not in ("ones", "zeros"):
        raise DomainError("direction must be 'ones' or 'zeros'")
    size = 1 << n
    cyl = np.zeros(size)
    for mask, p in dist.probs.items():
        key = mask if direction == "ones" else (size - 1) ^ mask
        cyl[key] += p
    cyl = bitmask.superset_sums(cyl)  # cyl[S] = Pr[bits of S all match]
    marg = dist.marginals()
    single = marg if direction == "ones" else 1.0 - marg
    if n == 0:
        return CylinderReport(direction, (), -math.inf)
    # prod[S] = product of single[b] over the bits b of S, lowest bit first
    prod = np.ones(size)
    for b in range(n):
        prod[1 << b:2 << b] = prod[:1 << b] * single[b]
    gaps = cyl[1:] - prod[1:]
    s = 1 + int(np.argmax(gaps))  # the first largest gap
    return CylinderReport(direction, tuple(i for i in range(n) if s >> i & 1), float(gaps[s - 1]))
