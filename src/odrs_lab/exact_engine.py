"""Exact probabilistic analysis on small instances.

Computes the compiled schemes' per-edge match probabilities and rounding
ratios, and the correlation facts used by the lower-bound machinery
(pairwise covariance floor, near-positive cylinder extraction,
negative-cylinder scans).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bitmask
from . import odrs as odrs_mod
from .crs import SupportDistribution
from .errors import DomainError, InvariantBreach
from .instances import MatchingInstance


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

def max_pairwise_cov(law: SupportDistribution, common_p: float | None = None
                     ) -> tuple[int, int, float]:
    """Maximizing pair of Cov(Y_i, Y_j) over the law's positions; with a
    common marginal p the maximum is asserted to be at least -2p/(n-1)."""
    n = len(law.elements)
    if n < 2:
        raise DomainError("need at least two variables")
    masks, weights = law.columns()
    bits = bitmask.bit_matrix(masks, n)
    m = bits.T @ weights
    joint2 = bits.T @ (bits * weights[:, None])
    cov_mat = joint2 - np.outer(m, m)
    np.fill_diagonal(cov_mat, -np.inf)
    flat = int(np.argmax(cov_mat))
    i, j = sorted(divmod(flat, n))
    cov = float(cov_mat[i, j])
    if common_p is not None:
        floor_bound = -2.0 * common_p / (n - 1)
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


def _pair_product_joint(law: SupportDistribution, pairs: list[tuple[int, int]]
                        ) -> SupportDistribution:
    """Joint of Z_s = Y_i * Y_j over the given disjoint pairs."""
    masks, probs = law.columns()
    n = len(law.elements)
    z = (bitmask.project(masks, [i for i, _ in pairs], n)
         & bitmask.project(masks, [j for _, j in pairs], n))
    return SupportDistribution.summed(range(len(pairs)), z, probs)


def _thin_to(law: SupportDistribution, target: float) -> SupportDistribution:
    """Couple each variable with an independent Ber(target/mean) downgrade so
    all marginals become exactly `target` while A_s <= Z_s pointwise."""
    n = len(law.elements)
    keep = [target / mu if mu > 0 else 0.0 for mu in law.marginals()]
    if any(k > 1.0 + 1e-12 for k in keep):
        raise InvariantBreach("thinning target above a variable's mean")
    masks, probs = law.columns()
    subs, terms = [], []
    for mask, p in zip(masks.tolist(), probs.tolist()):
        ones = [s for s in range(n) if mask >> s & 1]
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
                subs.append(sub)
                terms.append(p * q)
    return SupportDistribution.summed(range(n), subs, terms)


def find_positive_cylinder(law: SupportDistribution, p: float, r: int, eps: float
                           ) -> tuple[int, ...]:
    """A subset I of the law's positions, |I| = 2^r, with
    E[prod_{i in I} Y_i] >= p^(2^r) - eps, where every marginal is p.

    Implements the recursive pairing: extract disjoint near-uncorrelated pairs
    via the covariance floor, multiply them into new variables, thin to a
    common marginal, and recurse.
    """
    n = len(law.elements)
    if np.any(np.abs(law.marginals() - p) > 1e-9):
        raise DomainError(f"every marginal must lie within 1e-9 of p = {p}")
    target = p ** (2 ** r) - eps
    if target <= 0:
        if n < 2 ** r:
            raise DomainError(f"need at least {2 ** r} variables")
        return tuple(range(2 ** r))
    need = n_r_bound(r, p, eps)
    if n < need:
        raise DomainError(f"need n >= {need} variables for r={r}, p={p}, eps={eps}")

    def rec(jnt: SupportDistribution, q: float, rr: int, ee: float) -> list[int]:
        """Positions of jnt, whose marginals are all q."""
        if rr == 1:
            i, j, _ = max_pairwise_cov(jnt, q)
            return [i, j]
        e2 = ee / (2.0 ** (2 ** rr))
        q2 = q ** 2 - e2
        m = n_r_bound(rr - 1, q2, ee / 2.0)
        nj = len(jnt.elements)
        masks, probs = jnt.columns()
        pairs: list[tuple[int, int]] = []
        used: set[int] = set()
        sub = jnt
        remap = list(range(nj))
        for _ in range(m):
            i, j, cov = max_pairwise_cov(sub, q)
            gi, gj = remap[i], remap[j]
            if cov < -e2 - 1e-12:
                raise InvariantBreach("pair extraction fell below the covariance floor")
            pairs.append((gi, gj))
            used.update((gi, gj))
            keep = [k for k in range(nj) if k not in used]
            remap = keep
            sub = SupportDistribution.summed(range(len(keep)),
                                             bitmask.project(masks, keep, nj), probs)
        aj = _thin_to(_pair_product_joint(jnt, pairs), q2)
        chosen = rec(aj, q2, rr - 1, ee / 2.0)
        out: list[int] = []
        for s in chosen:
            out.extend(pairs[s])
        return out

    idx = tuple(sorted(rec(law, p, r, eps)))
    sel = sum(1 << i for i in idx)
    got = law.expectation(lambda mask: mask & sel == sel)
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


def neg_cylinder_check(dist: SupportDistribution, direction: str = "ones") -> CylinderReport:
    """Scan all subsets of the law's positions for Pr[all bits equal 1 (or
    0)] vs product of marginals; the worst (largest) gap is reported."""
    n = len(dist.elements)
    bitmask.check_width(n, "a cylinder scan")
    if direction not in ("ones", "zeros"):
        raise DomainError("direction must be 'ones' or 'zeros'")
    size = 1 << n
    masks, probs = dist.columns()
    cyl = np.zeros(size)
    np.add.at(cyl, masks if direction == "ones" else (size - 1) ^ masks, probs)  # in atom order
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
