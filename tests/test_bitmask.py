import numpy as np
import pytest

from odrs_lab import bitmask
from odrs_lab.crs import SupportDistribution
from odrs_lab.errors import DomainError, SizeError


def _law(n, atoms):
    return SupportDistribution(tuple(range(n)), tuple(atoms))


def test_bit_matrix_wide_masks():
    masks = [0, 1, (1 << 70) | 0b101, (1 << 99) - 1]
    bits = bitmask.bit_matrix(masks, 100)
    for a, m in enumerate(masks):
        assert bits[a].tolist() == [float(m >> k & 1) for k in range(100)]
    assert bitmask.bit_matrix([], 3).shape == (0, 3)


def test_bit_matrix_and_marginals_equal_per_mask_loop():
    rng = np.random.default_rng(3)
    for n in (0, 1, 7, 8, 9, 20, 62, 63, 64):
        masks = [int(rng.integers(0, 2)) << (n - 1) | int(rng.integers(0, 1 << min(n, 62)))
                 for _ in range(40)] if n else [0] * 3
        rows = [[float(m >> k & 1) for k in range(n)] for m in masks]
        assert bitmask.bit_matrix(masks, n).tolist() == rows
        weights = rng.random(len(masks))
        # the same matrix product, so the same float sums
        expected = weights @ np.array(rows, dtype=float).reshape(len(masks), n)
        got = _law(n, zip(masks, weights.tolist())).marginals()
        assert got.tobytes() == expected.tobytes()
    with pytest.raises(DomainError):
        bitmask.bit_matrix([8], 3)


def test_marginals_of_wide_law():
    atoms = [(1 << 80, 0.25), ((1 << 80) | 1, 0.5), (0, 0.25)]
    m = _law(81, atoms).marginals()
    assert m[80] == 0.75 and m[0] == 0.5 and not m[1:80].any()


def test_subset_and_superset_sums_brute_force():
    rng = np.random.default_rng(5)
    for n in range(5):
        table = rng.random(1 << n)
        sub = bitmask.subset_sums(table)
        sup = bitmask.superset_sums(table)
        for m in range(1 << n):
            assert np.isclose(sub[m], sum(table[s] for s in range(1 << n) if s & m == s))
            assert np.isclose(sup[m], sum(table[s] for s in range(1 << n) if s & m == m))


def reference_project(masks, positions):
    return [sum(1 << j for j, p in enumerate(positions) if m >> p & 1) for m in masks]


def test_project_equals_per_mask_loop():
    rng = np.random.default_rng(7)
    for n in (1, 5, 8, 9, 16, 40, 62, 63, 64, 100, 200):
        masks = [int(rng.integers(0, 2)) << (n - 1) | int(rng.integers(0, 1 << min(n, 62)))
                 for _ in range(50)] + [0, (1 << n) - 1]
        for k in sorted({0, 1, n // 2, n}):
            positions = [int(p) for p in rng.permutation(n)[:k]]
            got = bitmask.project(masks, positions, n)
            assert got.dtype == (object if k > 62 else np.int64)
            assert got.tolist() == reference_project(masks, positions)
    assert bitmask.project([], [0, 1], 2).tolist() == []


def test_checked_rejects_masks_outside_the_width():
    assert bitmask.checked([0, 7], 3).dtype == np.int64
    assert bitmask.checked([1 << 70], 71).dtype == object
    for bad, n in (([8], 3), ([-1], 3), ([1 << 71], 71)):
        with pytest.raises(DomainError):
            bitmask.checked(bad, n)


def test_check_width_is_the_one_cap():
    bitmask.check_width(bitmask.MAX_BITS, "a table")
    with pytest.raises(SizeError, match=r"a table needs a 2\^21-entry .* cap 2\^20; try less"):
        bitmask.check_width(bitmask.MAX_BITS + 1, "a table", "try less")


def test_project_onto_every_position_in_order_is_the_identity():
    rng = np.random.default_rng(8)
    for n in (1, 5, 8, 40, 62, 63, 100):
        masks = [int(rng.integers(0, 2)) << (n - 1) | int(rng.integers(0, 1 << min(n, 62)))
                 for _ in range(50)] + [0, (1 << n) - 1]
        for positions in (range(n), list(range(n))):
            got = bitmask.project(masks, positions, n)
            assert got.dtype == (object if n > 62 else np.int64)
            assert got.tolist() == reference_project(masks, positions) == masks
        checked = bitmask.checked(masks, n)
        assert bitmask.project(checked, range(n), n) is checked
        # out of order, the table path
        positions = list(range(n))[::-1]
        assert bitmask.project(masks, positions, n).tolist() == reference_project(masks, positions)
    with pytest.raises(DomainError):
        bitmask.project([4], range(2), 2)
