import numpy as np

from odrs_lab import bitmask


def test_bit_matrix_wide_masks():
    masks = [0, 1, (1 << 70) | 0b101, (1 << 99) - 1]
    bits = bitmask.bit_matrix(masks, 100)
    for a, m in enumerate(masks):
        assert bits[a].tolist() == [float(m >> k & 1) for k in range(100)]
    assert bitmask.bit_matrix([], 3).shape == (0, 3)


def test_marginals_of_wide_law():
    atoms = [(1 << 80, 0.25), ((1 << 80) | 1, 0.5), (0, 0.25)]
    m = bitmask.marginals(atoms, 81)
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
