"""Bitmask primitives shared by the exact engines.

Masks are Python ints (bit k = element k) and may be wider than 64 bits;
as arrays they are int64 below 63 positions and Python ints past that
(`checked`). Tables indexed by mask have length 2^n, and every module that
allocates one checks n against the one cap MAX_BITS first (`check_width`).
The sum transforms run over bits 0..n-1 in increasing order, so their
floating-point results are fixed.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, SizeError

# widest mask table any exact computation allocates: 2^MAX_BITS entries
MAX_BITS = 20

_WIDE = 63  # positions from which masks no longer fit an int64
# (8, 256): row j holds bit j of each byte value
_BYTE_BITS = np.arange(256) >> np.arange(8)[:, None] & 1


def check_width(n: int, what: str, hint: str = ""):
    """Raise SizeError when a table over n bits would pass MAX_BITS."""
    if n > MAX_BITS:
        raise SizeError(f"{what} needs a 2^{n}-entry mask table, above the cap "
                        f"2^{MAX_BITS}" + (f"; {hint}" if hint else ""))


def checked(masks, n: int) -> np.ndarray:
    """Masks over n positions as an integer array, each checked to lie in
    [0, 2^n); past 62 positions they stay Python integers."""
    masks = np.asarray(masks, dtype=np.int64 if n < _WIDE else object)
    if masks.size and (masks >> n).any():  # nonzero when negative or too wide
        raise DomainError(f"masks must lie in [0, 2^{n})")
    return masks


def project(masks, positions, n: int) -> np.ndarray:
    """Bit j of out[a] is bit positions[j] of masks[a] (masks over n
    positions); int64 below 63 output bits, Python integers past that.

    Positions 0..n-1 in order return the `checked` masks as they are (the
    caller's own array if it was one); otherwise row q of a (bytes, 256)
    table maps a value of input byte q to the projected bits of its positions.
    """
    masks = checked(masks, n)
    if len(positions) == n and list(positions) == list(range(n)):
        return masks
    weights = np.zeros(8 * max(1, (n + 7) // 8),
                       dtype=np.int64 if len(positions) < _WIDE else object)
    weights[list(positions)] = [1 << j for j in range(len(positions))]
    table = weights.reshape(-1, 8) @ _BYTE_BITS
    out = np.zeros(len(masks), dtype=table.dtype)
    for q, row in enumerate(table):
        out |= row[np.asarray(masks >> 8 * q & 255, dtype=np.intp)]
    return out


def set_bits(mask: int) -> list[int]:
    """The set bits of a nonnegative mask, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def spread(positions) -> np.ndarray:
    """out[j] has bit positions[b] set for each bit b of j, for j in
    [0, 2^len(positions)): the masks that `project` maps onto each local
    mask. Positions lie below 63."""
    out = np.zeros(1 << len(positions), dtype=np.int64)
    for b, pos in enumerate(positions):
        out[1 << b:2 << b] = out[:1 << b] | 1 << pos
    return out


def bit_matrix(masks, n: int) -> np.ndarray:
    """(len(masks), n) float matrix of 0/1 entries; row a holds bits 0..n-1
    of masks[a]."""
    masks = checked(masks, n)
    bits = np.empty((len(masks), n))
    for k in range(n):
        bits[:, k] = masks >> k & 1
    return bits


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
