"""Bitmask primitives shared by the exact engines.

Masks are Python ints (bit k = element k) and may be wider than 64 bits.
Tables indexed by mask have length 2^n; the sum transforms run over bits
0..n-1 in increasing order, so their floating-point results are fixed.
"""

from __future__ import annotations

import numpy as np


def bit_matrix(masks, n: int) -> np.ndarray:
    """(len(masks), n) float matrix of 0/1 entries; row a holds bits 0..n-1
    of masks[a]."""
    masks = list(masks)
    width = (n + 7) // 8
    raw = b"".join(int(m).to_bytes(width, "little") for m in masks)
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    return bits.reshape(len(masks), 8 * width)[:, :n].astype(float)


def marginals(atoms, n: int) -> np.ndarray:
    """Pr[bit k set] for k < n, of a law given as (mask, probability) pairs."""
    atoms = list(atoms)
    weights = np.array([p for _, p in atoms], dtype=float)
    return weights @ bit_matrix([m for m, _ in atoms], n)


def subset_sums(table) -> np.ndarray:
    """Zeta transform: out[M] = sum of table[S] over the submasks S of M."""
    out = np.array(table, dtype=float)
    for j in range(len(out).bit_length() - 1):
        pairs = out.reshape(-1, 2, 1 << j)  # [:, 1, :] holds the masks with bit j
        pairs[:, 1, :] += pairs[:, 0, :]
    return out


def superset_sums(table) -> np.ndarray:
    """out[M] = sum of table[S] over the supersets S of M."""
    return subset_sums(np.asarray(table, dtype=float)[::-1])[::-1]
