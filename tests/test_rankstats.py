"""Brute-force checks of the rank dominance sums (``oracles.prefix_dominance``)
that the earlier quadratic closed form was built on, and that its oracle
(``oracles.dominance_closed_form``) still uses."""

import numpy as np
import pytest

from oracles import prefix_dominance, stable_ranks


def brute_dominance(ranks, weights):
    m = len(ranks)
    count = np.zeros(m, dtype=np.int64)
    wsum = np.zeros(m)
    for j in range(m):
        for i in range(j):
            if ranks[i] < ranks[j]:
                count[j] += 1
            else:
                wsum[j] += weights[i]
    return count, wsum


def test_stable_ranks_no_ties():
    r = stable_ranks(np.array([3.0, 1.0, 2.0]))
    assert list(r) == [3, 1, 2]


def test_stable_ranks_ties_keep_position_order():
    r = stable_ranks(np.array([2.0, 1.0, 2.0, 1.0]))
    assert list(r) == [3, 1, 4, 2]


def test_stable_ranks_is_permutation():
    rng = np.random.default_rng(0)
    v = rng.integers(0, 5, size=40).astype(float)
    r = stable_ranks(v)
    assert sorted(r) == list(range(1, 41))


@pytest.mark.parametrize("m", [1, 2, 3, 7, 31, 32, 33, 100, 257])
def test_prefix_dominance_matches_brute_force(m):
    rng = np.random.default_rng(m)
    ranks = rng.permutation(m) + 1
    weights = rng.uniform(0, 2, size=m)
    count, wsum = prefix_dominance(ranks, weights)
    bc, bw = brute_dominance(ranks, weights)
    assert np.array_equal(count, bc)
    assert np.allclose(wsum, bw, rtol=1e-13, atol=1e-13)


def test_prefix_dominance_block_boundaries():
    rng = np.random.default_rng(9)
    m = 90
    ranks = rng.permutation(m) + 1
    weights = rng.uniform(0, 1, size=m)
    bc, bw = brute_dominance(ranks, weights)
    for block in (1, 2, 7, 89, 90, 91, 1000):
        count, wsum = prefix_dominance(ranks, weights, block=block)
        assert np.array_equal(count, bc)
        assert np.allclose(wsum, bw, rtol=1e-13)


@pytest.mark.parametrize("block", [None, 1, 5])
def test_prefix_dominance_rows_are_independent(block):
    rng = np.random.default_rng(11)
    ranks = np.array([rng.permutation(40) + 1 for _ in range(6)])
    weights = rng.uniform(0, 1, size=ranks.shape)
    count, wsum = prefix_dominance(ranks, weights, block=block)
    assert count.shape == wsum.shape == ranks.shape
    for r in range(6):
        c1, w1 = prefix_dominance(ranks[r], weights[r], block=block)
        assert np.array_equal(count[r], c1)
        assert np.array_equal(wsum[r], w1)
        bc, bw = brute_dominance(ranks[r], weights[r])
        assert np.array_equal(c1, bc)
        assert np.allclose(w1, bw, rtol=1e-13)


def test_stable_ranks_along_last_axis():
    values = np.array([[2.0, 1.0, 2.0, 1.0], [0.0, 3.0, 3.0, -1.0]])
    assert stable_ranks(values).tolist() == [[3, 1, 4, 2], [2, 3, 4, 1]]
