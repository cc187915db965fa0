"""Rank and prefix-sum helpers for the statistic kernels.

The quadratic-functional kernel needs, for every element of a sequence, the
count and the weighted sum of *earlier* elements whose rank falls on a given
side of its own.  ``prefix_dominance`` computes both in one pass using a
block decomposition: queries against the already-seen prefix are answered
from a cumulative histogram over ranks (rebuilt once per block), and pairs
inside the current block are handled by a small dense comparison.  With block
size ~1.5 sqrt(m) the elementwise work is O(m^1.5), all vectorized.

Both helpers work along the last axis, so a ``(P, m)`` array is P independent
sequences handled at once; each row's result does not depend on P.
"""

from __future__ import annotations

import numpy as np


def stable_ranks(values: np.ndarray) -> np.ndarray:
    """Ranks 1..m of ``values`` along the last axis, ties broken by position
    (stable)."""
    order = np.argsort(values, axis=-1, kind="stable")
    ranks = np.empty(order.shape, dtype=np.int64)
    np.put_along_axis(ranks, order, np.arange(1, order.shape[-1] + 1), axis=-1)
    return ranks


def prefix_dominance(ranks: np.ndarray, weights: np.ndarray, block: int | None = None):
    """Per-position dominance statistics over the preceding prefix.

    For each position j of each sequence (the last axis) returns
      ``count_less[j]  = #{i < j : ranks[i] < ranks[j]}``
      ``wsum_greater[j] = sum of weights[i] over i < j with ranks[i] > ranks[j]``.

    Each sequence of ``ranks`` must be a permutation of 1..m; ``weights`` has
    the same shape as ``ranks``.
    """
    ranks = np.asarray(ranks)
    shape = ranks.shape
    ranks = ranks.reshape(-1, shape[-1])
    weights = np.asarray(weights, dtype=float).reshape(ranks.shape)
    rows, m = ranks.shape
    count_less = np.zeros((rows, m), dtype=np.int64)
    wsum_greater = np.zeros((rows, m), dtype=float)
    if m <= 1:
        return count_less.reshape(shape), wsum_greater.reshape(shape)
    if block is None:
        block = max(32, int(1.5 * np.sqrt(m)))
    row = np.arange(rows)[:, None]

    # Cumulative structures over the rank axis for everything seen so far:
    # seen_count_cum[:, r] = #{seen with rank <= r}, seen_wsum_cum likewise.
    seen_count_cum = np.zeros((rows, m + 1), dtype=np.int64)
    seen_wsum_cum = np.zeros((rows, m + 1), dtype=float)
    seen_flags = np.zeros((rows, m + 1), dtype=np.int64)
    seen_wts = np.zeros((rows, m + 1), dtype=float)

    for start in range(0, m, block):
        stop = min(start + block, m)
        rb = ranks[:, start:stop]
        wb = weights[:, start:stop]

        # Against the prefix before this block.
        count_less[:, start:stop] = seen_count_cum[row, rb - 1]
        wsum_greater[:, start:stop] = seen_wsum_cum[:, m:] - seen_wsum_cum[row, rb]

        # Within-block pairs (i before j, both local).
        width = stop - start
        if width > 1:
            earlier = np.tri(width, width, -1, dtype=bool)  # [j, i] with i < j
            less = rb[:, None, :] < rb[:, :, None]          # [., j, i] rank_i < rank_j
            count_less[:, start:stop] += (earlier & less).sum(axis=2)
            wsum_greater[:, start:stop] += ((earlier & ~less) * wb[:, None, :]).sum(axis=2)

        seen_flags[row, rb] = 1
        seen_wts[row, rb] = wb
        np.cumsum(seen_flags, axis=1, out=seen_count_cum)
        np.cumsum(seen_wts, axis=1, out=seen_wsum_cum)

    return count_less.reshape(shape), wsum_greater.reshape(shape)
