"""Distance kernels and the coupled pairwise-distance structure.

Observations are rows of an ``(n, d)`` matrix; a discretized curve is just a
row with many columns (an equispaced time step only rescales all distances by
a common factor, which every downstream statistic is invariant to).

``PairedDistances`` owns the pair layout, the pairs i < j in lexicographic
order, and maps permutations of the observations to pair indices
(``pair_index``).  Distances beyond the float range are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .choices import Choice, Metric  # noqa: F401 - Choice re-exported
from .exceptions import InvalidInputError


def ensure_sample(data, name: str = "sample") -> np.ndarray:
    """Validate and return a sample as an ``(n, d)`` float matrix.

    A 1-D input is treated as ``n`` scalar observations.  Requires ``n >= 2``,
    ``d >= 1`` and finite entries.
    """
    arr = np.asarray(data, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise InvalidInputError(f"{name} must be a 2-D matrix, got {arr.ndim} dimensions")
    n, d = arr.shape
    if n < 2:
        raise InvalidInputError(f"{name} needs at least 2 observations, got {n}")
    if d < 1:
        raise InvalidInputError(f"{name} needs at least 1 coordinate")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return np.ascontiguousarray(arr)


def _norm(diff: np.ndarray, kind: Metric):
    """Norm under ``kind`` of absolute coordinate differences, along the last axis."""
    if kind == Metric.L1:
        return diff.sum(axis=-1)
    if kind == Metric.L2:
        return np.sqrt(np.square(diff).sum(axis=-1))
    return diff.max(axis=-1)


def _pairwise(a: np.ndarray, kind: Metric) -> np.ndarray:
    """Distances between the rows of ``a`` over the pairs i < j, in lexicographic
    order, one row against its successors at a time (O(n d) working memory).
    Equal rows are exactly 0 apart, and a distance beyond the float range is
    inf, without a warning."""
    n = a.shape[0]
    out = np.empty(n * (n - 1) // 2)
    start = 0
    with np.errstate(over="ignore"):
        for i in range(n - 1):
            stop = start + n - 1 - i
            out[start:stop] = _norm(np.abs(a[i + 1 :] - a[i]), kind)
            start = stop
    return out


@dataclass(frozen=True)
class PairedDistances:
    """Coupled pairwise distances of two samples over identical index pairs.

    ``z[k]`` and ``t[k]`` are the X-side and Y-side distances of the k-th
    unordered pair {i, j}, i < j, in lexicographic order.  Storing unordered
    pairs halves the ordered-pair list: every statistic downstream is
    invariant to the duplication because numerators and denominators double
    together.
    """

    n: int
    z: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.z, dtype=float)
        t = np.asarray(self.t, dtype=float)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "t", t)
        if self.n < 2:
            raise InvalidInputError(f"need n >= 2 observations, got {self.n}")
        if z.ndim != 1 or t.ndim != 1 or z.shape != t.shape or z.size < 1:
            raise InvalidInputError("z and t must be 1-D arrays of equal positive length")
        if not (np.all(np.isfinite(z)) and np.all(np.isfinite(t))):
            raise InvalidInputError("pairwise distances contain non-finite values")
        if (z < 0).any() or (t < 0).any():
            raise InvalidInputError("pairwise distances must be nonnegative")

    @property
    def pair_count(self) -> int:
        """Number of stored (unordered) pairs."""
        return self.z.size

    @cached_property
    def _layout(self):
        """The observations (i, j) of each stored pair, and ``offset``: pair
        (i, j), i < j, is at ``offset[i] + j`` (the row-major upper triangle)."""
        rows, cols = np.triu_indices(self.n, 1)
        i = np.arange(self.n)
        return rows, cols, i * self.n - i * (i + 1) // 2 - i - 1

    def pair_index(self, perms: np.ndarray) -> np.ndarray:
        """The ``(P, m)`` pair indices of a ``(P, n)`` block of permutations:
        pair (i, j) of row p takes pair (perms[p, i], perms[p, j]).  The
        identity permutation gives the identity row.

        ``take`` and the in-place steps beat fancy indexing here, and the
        other temporaries are gone before the caller's kernel runs.
        """
        rows, cols, offset = self._layout
        index = perms.take(rows, axis=1)
        other = perms.take(cols, axis=1)
        low = np.minimum(index, other)
        np.maximum(index, other, out=index)
        index += np.take(offset, low, out=other)
        return index


def paired_distances(x, y, metric_x: Metric, metric_y: Metric) -> PairedDistances:
    """Build the coupled distance structure of two samples.

    Both samples must have the same number of rows (their column counts may
    differ).  Pair order is lexicographic (i, j) with i < j.
    """
    xs = ensure_sample(x, "x")
    ys = ensure_sample(y, "y")
    if xs.shape[0] != ys.shape[0]:
        raise InvalidInputError(
            f"sample sizes differ: x has {xs.shape[0]} rows, y has {ys.shape[0]}"
        )
    return PairedDistances(n=xs.shape[0], z=_pairwise(xs, metric_x), t=_pairwise(ys, metric_y))
