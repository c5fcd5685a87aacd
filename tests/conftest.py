import numpy as np
import pytest

from odrs_lab import exact_engine as engine
from odrs_lab import odrs


@pytest.fixture(scope="session")
def matching_params():
    eps, delta, _ = odrs.optimize_params("matching")
    return odrs.ScalingParams(eps, delta)


@pytest.fixture(scope="session")
def b_matching_params():
    eps, delta, _ = odrs.optimize_params("b_matching")
    return odrs.ScalingParams(eps, delta, "b_matching")


def reference_win_probs(sel, bids):
    """Scalar tree walk of `ProductSelector.conditional_win_probs` for one
    realized bid set (a set of positions): the reference the mask-batched
    pass must equal bit for bit."""
    out = np.zeros(sel.n)
    if not bids:
        return out
    has_bid = {~i: (i in bids) for i in range(sel.n)}
    for ref, (r1, r2) in enumerate(sel.children):
        has_bid[ref] = has_bid[r1] or has_bid[r2]
    stack = [(sel.root, 1.0)]
    while stack:
        ref, w = stack.pop()
        if w <= 0.0:
            continue
        if ref < 0:
            out[~ref] += w
            continue
        r1, r2 = sel.children[ref]
        pattern = (1 if has_bid[r1] else 0) | (2 if has_bid[r2] else 0)
        w1, w2 = sel.rows[ref][pattern]
        stack.append((r1, w * w1))
        stack.append((r2, w * w2))
    return out


def rotation_joint(n, popcounts, weights, seed):
    """Mixture of cyclic-rotation orbits: every bit has the same marginal."""
    rng = np.random.default_rng(seed)
    probs = {}
    ps = 0.0
    for k, wgt in zip(popcounts, weights):
        base = 0
        for i in rng.choice(n, size=k, replace=False):
            base |= 1 << int(i)
        for r in range(n):
            mask = ((base << r) | (base >> (n - r))) & ((1 << n) - 1)
            probs[mask] = probs.get(mask, 0.0) + wgt / n
        ps += wgt * k / n
    return engine.JointBernoulli(n, probs, common_p=ps)


def sized_joint(p0, eps, r, seed):
    """Rotation joint large enough for the cylinder recursion at (p, eps)."""
    n = 2 ** r
    while True:
        k = max(1, round(n * p0))
        p = k / n
        if eps < p ** (2 ** r) and n >= engine.n_r_bound(r, p, eps):
            return rotation_joint(n, [k], [1.0], seed)
        n += 1
