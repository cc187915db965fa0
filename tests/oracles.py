"""Independent oracle implementations used only by the test suite.

These evaluate the statistic definitions directly -- numerical quadrature of
the weighted integrals and exhaustive grid scans for the supremum -- without
sharing any code path with the closed-form kernels they check.  The
``*_statistic_naive`` functions evaluate the closed forms' defining sums
literally, from the same weights, and the ``*_exact`` ones sum the cells in
rationals.  The recurrence rates restate the paper's definitions, and
``sup_float_sweep`` is the earlier float sweep of the supremum kernel, whose
bits the integer sweep keeps; ``value_block_evaluator`` is the earlier
evaluation of blocks of re-paired Y distances, whose bits the evaluation of
pair-index blocks keeps.  ``dominance_closed_form`` is the earlier closed
form of the quadratic functional, built on the rank dominance sums of
``prefix_dominance``, and ``min_kernel_literal`` the literal double sum
that replaced it; ``tile_min_sums_literal`` sums the within-tile pairs of
``_min_kernel_sums`` one by one.  ``sup_numerator_max`` is the integer
maximum that the supremum scales, counted literally.  ``identity_statistic``
is no oracle: it is the tests' one way to evaluate the kernel on the pairing
a distance structure stores, and ``pair_index`` maps permutations of the
observations to the pair indices of their pairings.  ``flows_one_replication`` is the earlier
generator of one replication of the smoothed-driver scenarios, with its own
circulant length (``five_smooth_at_least``, by trial division), its own
autocovariance and eigenvalues and one scipy filter per rate, whose bits the
blocks of replications keep.  ``fgn_autocovariance_exact`` is the fGn
autocovariance in 50-digit decimal arithmetic.
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from fractions import Fraction
from math import ceil, exp, fsum, sqrt

import numpy as np
from scipy.signal import lfilter
from scipy.stats import norm

from recurtest import Functional, InvalidInputError, PairedDistances, prepare
from recurtest.stats_core import (
    _Cells,
    _clamp_nonnegative,
    _closed_form_work,
    _min_kernel_sums,
    _min_row_sums,
    _row_dots,
    _sweep,
)
from recurtest.weights import GaussianWeight, estimate_weight, weight_cdf


def identity_statistic(pd: PairedDistances, functional: Functional) -> float:
    """The statistic of the pairing stored in ``pd``: the identity row of
    ``prepare(pd, functional)``, with the weights it calibrates from ``pd``."""
    return float(prepare(pd, functional)(np.arange(pd.pair_count)[None, :])[0])


def pair_index(n: int, perms: np.ndarray) -> np.ndarray:
    """The ``(P, m)`` pair indices of a ``(P, n)`` block of permutations of
    n observations: pair (i, j), i < j, of row p takes pair (perms[p, i],
    perms[p, j]), stored at ``offset[i] + j`` in the row-major upper
    triangle.  The identity permutation gives the identity row.  This is
    how ``permutation_test`` once gathered its rows; the evaluators'
    ``permuted`` entry must give the bits of their pair-index entry on it."""
    rows, cols = np.triu_indices(n, 1)
    i = np.arange(n)
    offset = i * n - i * (i + 1) // 2 - i - 1
    index = perms.take(rows, axis=1)
    other = perms.take(cols, axis=1)
    low = np.minimum(index, other)
    np.maximum(index, other, out=index)
    index += np.take(offset, low, out=other)
    return index


def recurrence_rate(pd: PairedDistances, axis: str, radius: float) -> float:
    """Fraction of pairs whose ``axis`` distance is strictly below ``radius``."""
    if axis not in ("x", "y"):
        raise InvalidInputError(f"axis must be 'x' or 'y', got {axis!r}")
    d = pd.z if axis == "x" else pd.t
    return float(np.count_nonzero(d < radius)) / pd.pair_count


def joint_recurrence_rate(pd: PairedDistances, r: float, s: float) -> float:
    """Fraction of pairs simultaneously close on both sides (strictly)."""
    return float(np.count_nonzero((pd.z < r) & (pd.t < s))) / pd.pair_count


def empirical_process(pd: PairedDistances, r: float, s: float) -> float:
    """sqrt(n) * (joint rate - product of marginal rates) at ``(r, s)``."""
    return float(
        np.sqrt(pd.n)
        * (
            joint_recurrence_rate(pd, r, s)
            - recurrence_rate(pd, "x", r) * recurrence_rate(pd, "y", s)
        )
    )


def _discrepancy_on_grid(pd: PairedDistances, r_grid: np.ndarray, s_grid: np.ndarray):
    """Joint-minus-product rate discrepancy at every (r, s) grid node.

    Counts use strict inequality, matching the recurrence-rate definition."""
    m = pd.pair_count
    z_sorted = np.sort(pd.z)
    t_sorted = np.sort(pd.t)
    rate_x = np.searchsorted(z_sorted, r_grid, side="left") / m
    rate_y = np.searchsorted(t_sorted, s_grid, side="left") / m

    edges_r = np.concatenate([[-np.inf], r_grid, [np.inf]])
    edges_s = np.concatenate([[-np.inf], s_grid, [np.inf]])
    hist, _, _ = np.histogram2d(pd.z, pd.t, bins=[edges_r, edges_s])
    cum = hist.cumsum(axis=0).cumsum(axis=1)
    # bins 0..k cover [-inf, grid[k]), so the strict count below grid[k] is cum[k]
    joint = cum[: r_grid.size, : s_grid.size]
    return joint / m - np.outer(rate_x, rate_y)


def _midpoint_grid(weight: GaussianWeight, cells: int):
    lo = weight.mu - 8.0 * weight.sigma
    hi = weight.mu + 8.0 * weight.sigma
    step = (hi - lo) / cells
    mids = lo + (np.arange(cells) + 0.5) * step
    density = norm.pdf(mids, loc=weight.mu, scale=weight.sigma) * step
    return mids, density


def quadrature_l2(pd: PairedDistances, wx: GaussianWeight, wy: GaussianWeight, cells: int = 2000) -> float:
    """Midpoint quadrature of n * integral of the squared discrepancy."""
    mids_r, w_r = _midpoint_grid(wx, cells)
    mids_s, w_s = _midpoint_grid(wy, cells)
    disc = _discrepancy_on_grid(pd, mids_r, mids_s)
    return float(pd.n * (w_r @ np.square(disc) @ w_s))


def quadrature_l1(pd: PairedDistances, wx: GaussianWeight, wy: GaussianWeight, cells: int = 2000) -> float:
    """Midpoint quadrature of sqrt(n) * integral of the absolute discrepancy."""
    mids_r, w_r = _midpoint_grid(wx, cells)
    mids_s, w_s = _midpoint_grid(wy, cells)
    disc = _discrepancy_on_grid(pd, mids_r, mids_s)
    return float(np.sqrt(pd.n) * (w_r @ np.abs(disc) @ w_s))


def _probe_points(values: np.ndarray) -> np.ndarray:
    """Midpoints between consecutive distinct values plus one beyond each end."""
    distinct = np.unique(values)
    mids = 0.5 * (distinct[:-1] + distinct[1:])
    return np.concatenate([[distinct[0] - 1.0], mids, [distinct[-1] + 1.0]])


def _exact_piece_masses(pd: PairedDistances, wx: GaussianWeight, wy: GaussianWeight):
    """Probe points of every constant piece of the discrepancy plus the exact
    Gaussian mass of each piece."""
    probes_r = _probe_points(pd.z)
    probes_s = _probe_points(pd.t)
    edges_r = np.concatenate([[-np.inf], np.unique(pd.z), [np.inf]])
    edges_s = np.concatenate([[-np.inf], np.unique(pd.t), [np.inf]])
    mass_r = np.diff(norm.cdf(edges_r, loc=wx.mu, scale=wx.sigma))
    mass_s = np.diff(norm.cdf(edges_s, loc=wy.mu, scale=wy.sigma))
    return probes_r, probes_s, mass_r, mass_s


def exact_integral_l2(pd: PairedDistances, wx: GaussianWeight, wy: GaussianWeight) -> float:
    """Exact n * integral of the squared discrepancy against the weight.

    The discrepancy is constant on the rectangles between consecutive
    distinct distances, so summing (value on piece) * (exact Gaussian mass of
    piece) integrates the definition with no discretization error.
    """
    probes_r, probes_s, mass_r, mass_s = _exact_piece_masses(pd, wx, wy)
    disc = _discrepancy_on_grid(pd, probes_r, probes_s)
    return float(pd.n * (mass_r @ np.square(disc) @ mass_s))


def exact_integral_l1(pd: PairedDistances, wx: GaussianWeight, wy: GaussianWeight) -> float:
    """Exact sqrt(n) * integral of the absolute discrepancy (see exact_integral_l2)."""
    probes_r, probes_s, mass_r, mass_s = _exact_piece_masses(pd, wx, wy)
    disc = _discrepancy_on_grid(pd, probes_r, probes_s)
    return float(np.sqrt(pd.n) * (mass_r @ np.abs(disc) @ mass_s))


def exhaustive_sup(pd: PairedDistances) -> float:
    """Brute-force supremum of sqrt(n) * |discrepancy| over all radii.

    The discrepancy is a step function jumping only at the data values, so
    probing every midpoint between consecutive distinct values (plus points
    beyond the extremes) scans every constant piece.
    """
    disc = _discrepancy_on_grid(pd, _probe_points(pd.z), _probe_points(pd.t))
    return float(np.sqrt(pd.n) * np.abs(disc).max())


def distance_naive(a, b, kind: str) -> float:
    """Reference per-pair distance, computed with plain Python loops."""
    total, biggest = 0.0, 0.0
    for u, v in zip(a, b):
        d = abs(float(u) - float(v))
        if kind == "l1":
            total += d
        elif kind == "l2":
            total += d * d
        else:
            biggest = max(biggest, d)
    if kind == "l1":
        return total
    if kind == "l2":
        return total**0.5
    return biggest


def l2_statistic_naive(pd: PairedDistances, wx: GaussianWeight, wy: GaussianWeight) -> float:
    """Literal-sum evaluation of the quadratic closed form (oracle).

    Materializes the pairwise maximum matrices and contracts the triple sum
    directly; O(m^2) memory, for small m only.
    """
    m = pd.pair_count
    if m == 1:
        return 0.0
    n = pd.n

    z_order = np.argsort(pd.z, kind="stable")
    z_sorted = pd.z[z_order]
    t_aligned = pd.t[z_order]
    t_sorted = np.sort(pd.t, kind="stable")

    surv_z_pair = 1.0 - weight_cdf(wx, np.maximum.outer(z_sorted, z_sorted))
    surv_t_pair = 1.0 - weight_cdf(wy, np.maximum.outer(t_aligned, t_aligned))

    joint_term = float(np.sum(surv_z_pair * surv_t_pair)) / (m * m)

    odd = 2.0 * np.arange(1, m + 1) - 1.0
    product_term = (1.0 - float(np.dot(odd, weight_cdf(wx, z_sorted))) / (m * m)) * (
        1.0 - float(np.dot(odd, weight_cdf(wy, t_sorted))) / (m * m)
    )

    cross_term = float(np.einsum("ij,ik->", surv_z_pair, surv_t_pair)) / (m * m * m)

    value = n * (joint_term + product_term - 2.0 * cross_term)
    return float(_clamp_nonnegative(value, "l2_statistic_naive"))


def cell_sum_exact(pd: PairedDistances, wx: GaussianWeight, wy: GaussianWeight, power: int) -> Fraction:
    """Exact rational integral of |discrepancy|^power over the cells (oracle).

    The discrepancy is constant on the rectangle between the k-th and the
    (k+1)-th distinct X distance u and the l-th and (l+1)-th distinct Y
    distance v, where it is (m*C - A*B) / m^2 with the integer counts
    A = #{z <= u_k}, B = #{t <= v_l} and C = #{z <= u_k, t <= v_l}; it is
    zero outside the data range.  Each rectangle's mass is the exact
    difference of the float weight-CDF values at its ends, and the sum is
    carried out in rationals, so only the weight-CDF values are rounded.
    The double loop runs over distinct values: for tied data or small n.
    """
    m = pd.pair_count
    u = np.unique(pd.z)
    v = np.unique(pd.t)
    gu = [Fraction(float(g)) for g in weight_cdf(wx, u)]
    gv = [Fraction(float(g)) for g in weight_cdf(wy, v)]
    z_le = pd.z[None, :] <= u[:-1, None]
    t_le = pd.t[None, :] <= v[:-1, None]
    a = [int(c) for c in z_le.sum(axis=1)]
    b = [int(c) for c in t_le.sum(axis=1)]
    joint = (z_le.astype(np.int64) @ t_le.T.astype(np.int64)).tolist()
    total = Fraction(0)
    for k in range(u.size - 1):
        row = Fraction(0)
        for l in range(v.size - 1):
            dev = abs(m * joint[k][l] - a[k] * b[l])
            row += (gv[l + 1] - gv[l]) * dev**power
        total += (gu[k + 1] - gu[k]) * row
    return total / m ** (2 * power)


def l2_statistic_exact(pd: PairedDistances, wx: GaussianWeight, wy: GaussianWeight) -> Fraction:
    """Exact rational value of the quadratic cell sum (see ``cell_sum_exact``)."""
    return pd.n * cell_sum_exact(pd, wx, wy, 2)


def l1_statistic_exact(pd: PairedDistances, wx: GaussianWeight, wy: GaussianWeight) -> float:
    """The absolute cell sum: sqrt(n) times its exact rational integral,
    rounded once (see ``cell_sum_exact``)."""
    return float(np.sqrt(pd.n)) * float(cell_sum_exact(pd, wx, wy, 1))


def l1_statistic_naive(pd: PairedDistances, wx: GaussianWeight, wy: GaussianWeight) -> float:
    """Literal evaluation of the absolute closed form (oracle).

    Builds the full count matrix c(h, j) from the defining indicator sums;
    O(m^2) memory, for small m only.
    """
    m = pd.pair_count
    if m == 1:
        return 0.0
    n = pd.n

    z_order = np.argsort(pd.z, kind="stable")
    z_sorted = pd.z[z_order]
    t_aligned = pd.t[z_order]
    t_sorted = np.sort(pd.t, kind="stable")

    dg1 = np.diff(weight_cdf(wx, z_sorted))
    dg2 = np.diff(weight_cdf(wy, t_sorted))

    # counts[h-1, j-1] = #{i <= h : t_aligned[i] < t_sorted[j]} for h, j = 1..m-1
    below = t_aligned[:, None] < t_sorted[None, 1:]
    counts = np.cumsum(below, axis=0)[: m - 1].astype(float)

    h = np.arange(1, m, dtype=float)[:, None]
    j = np.arange(1, m, dtype=float)[None, :]
    cells = np.abs(counts - h * j / m)
    return float(np.sqrt(n) / m * (dg1 @ cells @ dg2))


def sup_statistic_naive(pd: PairedDistances) -> float:
    """Brute-force dominance-count evaluation of the supremum (oracle).

    Counts dominated pairs for every distinct-value grid point directly;
    O(m^2) pairs times O(m) counting, for small m only.
    """
    m = pd.pair_count
    if m == 1:
        return 0.0
    n = pd.n

    z_distinct = np.unique(pd.z)
    t_distinct = np.unique(pd.t)
    z_le = pd.z[None, :] <= z_distinct[:, None]
    t_le = pd.t[None, :] <= t_distinct[:, None]
    joint = z_le.astype(np.int64) @ t_le.T.astype(np.int64)
    marg = np.outer(z_le.sum(axis=1), t_le.sum(axis=1)) / m
    best = float(np.abs(joint - marg).max())
    return float(np.sqrt(n) * best / m)


def sup_numerator_max(pd: PairedDistances) -> int:
    """The integer K = max |m C - h j| over the grid of distinct values, of
    which the supremum is sqrt(n) K / m^2 (oracle): for each distinct X
    distance a and Y distance b, h pairs have z <= a, j have t <= b, and C
    have both."""
    z_le = pd.z[None, :] <= np.unique(pd.z)[:, None]
    t_le = pd.t[None, :] <= np.unique(pd.t)[:, None]
    joint = z_le.astype(np.int64) @ t_le.T.astype(np.int64)
    h, j = z_le.sum(axis=1), t_le.sum(axis=1)
    return int(np.abs(pd.pair_count * joint - np.outer(h, j)).max())


def _float_sweep(codes: np.ndarray, ends: np.ndarray, cum: np.ndarray, m: int):
    """The float sweep that the supremum kernel used before its integer one.

    At end position e it yields h = e + 1 and the ``(P, cols)`` deviations
    ``|C[p, k] - (h / m) * cum[k]|``, where ``C[p, k]`` counts the first h
    records of row p with code <= k (a code equal to ``cum.size`` counts
    toward none).  The yielded array is overwritten by the next step.
    """
    rows = np.arange(codes.shape[0])[:, None]
    columns = np.arange(cum.size, dtype=np.min_scalar_type(cum.size))
    codes = codes.astype(columns.dtype)
    counts = np.zeros((codes.shape[0], cum.size))  # exact integers
    dev = np.empty_like(counts)
    step = np.empty(counts.shape, dtype=bool)
    start = 0
    for end in ends:
        run = codes[:, start : end + 1]
        start = end + 1
        if run.shape[1] == 1:
            np.greater_equal(columns, run, out=step)
            np.add(counts, 1.0, out=counts, where=step)
        else:
            hist = np.zeros((codes.shape[0], cum.size + 1), dtype=np.int64)
            np.add.at(hist, (rows, run), 1)
            counts += np.cumsum(hist[:, :-1], axis=1)
        np.subtract(counts, ((end + 1) / m) * cum, out=dev)
        np.abs(dev, out=dev)
        yield end + 1, dev


def sup_float_sweep(pd: PairedDistances):
    """The supremum evaluator of the float sweep (oracle): maps a ``(P, m)``
    block of re-paired Y distances to the P statistics, with the bits the
    integer sweep of ``stats_core._prepare_sup`` must reproduce.  A row whose
    numerators are all zero is 0, not the round-off of its deviations."""
    m = pd.pair_count
    z_order = np.argsort(pd.z, kind="stable")
    z_sorted = pd.z[z_order]
    run_ends = np.append(np.flatnonzero(np.diff(z_sorted) != 0), m - 1)
    t_distinct, t_counts = np.unique(pd.t, return_counts=True)
    t_cum = np.cumsum(t_counts)

    def evaluate(t_block: np.ndarray) -> np.ndarray:
        codes = np.searchsorted(t_distinct, t_block[:, z_order])
        best = np.zeros(len(t_block))
        for _, dev in _float_sweep(codes, run_ends, t_cum, m):
            np.maximum(best, dev.max(axis=1), out=best)
        # A nonzero numerator gives a deviation of at least 1/m.
        best[best * m < 0.5] = 0.0
        return np.sqrt(pd.n) * best / m

    return evaluate


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
    the same shape as ``ranks``.  Queries against the prefix before a block
    are answered from cumulative histograms over ranks, rebuilt once per
    block, and pairs inside the block by a dense comparison.
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
        block = max(32, int(1.5 * np.sqrt(m)))  # about m * block work per sequence
    row = np.arange(rows)[:, None]
    tri = np.tri(min(block, m), min(block, m), -1, dtype=bool)  # [j, i] with i < j

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
            earlier = tri[:width, :width]
            less = rb[:, None, :] < rb[:, :, None]          # [., j, i] rank_i < rank_j
            count_less[:, start:stop] += (earlier & less).sum(axis=2)
            wsum_greater[:, start:stop] += ((earlier & ~less) * wb[:, None, :]).sum(axis=2)

        seen_flags[row, rb] = 1
        seen_wts[row, rb] = wb
        np.cumsum(seen_flags, axis=1, out=seen_count_cum)
        np.cumsum(seen_wts, axis=1, out=seen_wsum_cum)

    return count_less.reshape(shape), wsum_greater.reshape(shape)


def _l2_constant_terms(cells: _Cells):
    """The product term and the two brackets of the quadratic closed form."""
    z_bracket = _min_row_sums(1.0 - cells.g1)
    t_bracket_sorted = _min_row_sums(1.0 - cells.g2)
    return z_bracket.sum() * t_bracket_sorted.sum() / cells.m**4, z_bracket, t_bracket_sorted


def dominance_closed_form(pd: PairedDistances):
    """The quadratic closed form as it was before the min-kernel split
    (oracle): each row of a ``(P, m)`` block of re-paired Y distances ranks
    its records by a stable argsort in z-order, and the joint term sums
    ``prefix_dominance``'s counts and weight sums.  The evaluator returns
    the joint terms and the statistics."""
    cells = _Cells(pd, estimate_weight(pd.z), estimate_weight(pd.t))
    m, n = cells.m, pd.n
    surv_z, surv_t_sorted = 1.0 - cells.g1, 1.0 - cells.g2
    product_term, z_bracket, t_bracket_sorted = _l2_constant_terms(cells)

    def evaluate(t_block):
        t_rank = stable_ranks(t_block[:, cells.z_order])
        surv_t = surv_t_sorted[t_rank - 1]
        count_less, wsum_greater = prefix_dominance(t_rank, surv_t)
        diag = (surv_z * surv_t).sum(axis=1)
        off = (surv_z * (surv_t * count_less + wsum_greater)).sum(axis=1)
        joint_term = (diag + 2.0 * off) / (m * m)
        cross_term = (z_bracket * t_bracket_sorted[t_rank - 1]).sum(axis=1) / (m * m * m)
        values = n * (joint_term + product_term - 2.0 * cross_term)
        return joint_term, _clamp_nonnegative(values, "l2")

    return evaluate


def dominance_l2_evaluator(pd: PairedDistances):
    """The quadratic functional as evaluated before the min-kernel split
    (oracle), on a ``(P, m)`` block of re-paired Y distances: the cell sum
    where ``stats_core`` selects it, and ``dominance_closed_form`` elsewhere."""
    cells = _Cells(pd, estimate_weight(pd.z), estimate_weight(pd.t))
    if cells.size <= _closed_form_work(cells.m):
        return value_block_evaluator(pd, Functional.L2)
    closed_form = dominance_closed_form(pd)
    return lambda t_block: closed_form(t_block)[1]


def min_kernel_literal(surv_z: np.ndarray, s: np.ndarray) -> np.ndarray:
    """sum_{i,j} min(Z_i, Z_j) * min(s_i, s_j) per row of ``s`` (records in
    z-order, Z = ``surv_z``), from the full m x m matrices (oracle)."""
    z_min = np.minimum.outer(surv_z, surv_z)
    return np.array([float(np.sum(z_min * np.minimum.outer(row, row))) for row in s])


def tile_min_sums_literal(values: np.ndarray, weights: np.ndarray, groups=None) -> np.ndarray:
    """Per row of ``values``, cut into tiles of B = ``weights.shape[1]``:
    the sum over tiles k and pairs i < j of tile k of weights[k, j] *
    min(values[i], values[j]), skipping the pairs of equal ``groups`` if
    given, one term at a time and summed with ``math.fsum`` (oracle)."""
    count, size = weights.shape
    out = []
    for p, row in enumerate(values):
        terms = []
        for k in range(count):
            for j in range(size):
                b = k * size + j
                for a in range(k * size, b):
                    if groups is None or groups[p, a] != groups[p, b]:
                        terms.append(weights[k, j] * min(row[a], row[b]))
        out.append(fsum(terms))
    return np.array(out)


def value_block_evaluator(pd: PairedDistances, functional):
    """``stats_core.prepare`` as it was when its evaluators took a ``(P, m)``
    block of re-paired Y distances instead of pair indices (oracle).  Each
    block re-derives from the values what index evaluation prepares once:
    the kept-column codes by a float ``searchsorted`` and the closed form's
    Y order by a float stable argsort in z-order (equal distances in
    z-order), after sorting the Y distances within each run of equal Z.
    Index evaluation must give its bits."""
    if functional == Functional.SUP:
        return sup_float_sweep(pd)
    if pd.pair_count == 1:
        return lambda t_block: np.zeros(len(t_block))
    cells = _Cells(pd, estimate_weight(pd.z), estimate_weight(pd.t))
    m, n, z_order = cells.m, pd.n, cells.z_order
    col_values = np.sort(pd.t, kind="stable")[cells.col_j - 1]

    def cell_sum(t_block, squared):
        codes = np.searchsorted(col_values, t_block[:, z_order], side="left")
        at_stop = np.empty((len(t_block), cells.stops.size))
        for s, num in enumerate(_sweep(codes, cells)):
            dev = np.square(num, dtype=float) if squared else np.abs(num)
            _row_dots(dev, cells.col_dg2, out=at_stop[:, s])
        return _row_dots(at_stop, cells.stop_dg1)

    if functional == Functional.L1:
        scale = np.sqrt(n) / m**2
        return lambda t_block: scale * cell_sum(t_block, False)
    if cells.size <= _closed_form_work(m):
        scale = n / m**4
        return lambda t_block: scale * cell_sum(t_block, True)

    product_term, z_bracket, t_bracket_sorted = _l2_constant_terms(cells)
    surv_z = 1.0 - cells.g1
    z_runs = [run for run in np.split(np.arange(m), np.flatnonzero(np.diff(surv_z)) + 1) if run.size > 1]

    def closed_form(t_block):
        t_by_z = t_block[:, z_order]
        for run in z_runs:
            t_by_z[:, run] = np.sort(t_by_z[:, run], axis=1)
        order = np.argsort(t_by_z, axis=1, kind="stable")
        joint_term = _min_kernel_sums(order, surv_z, 1.0 - cells.g2) / (m * m)
        cross_term = _row_dots(z_bracket[order], t_bracket_sorted) / (m * m * m)
        return _clamp_nonnegative(n * (joint_term + product_term - 2.0 * cross_term), "l2")

    return closed_form


def five_smooth_at_least(steps: int) -> int:
    """The first integer from ``steps`` on whose prime factors are all 2, 3
    or 5, found by trial division."""
    m = steps
    while True:
        rest = m
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return m
        m += 1


def fgn_autocovariance_exact(hurst: float, k: int) -> float:
    """0.5 (|k+1|^2H - 2 |k|^2H + |k-1|^2H) in 50-digit decimal arithmetic,
    rounded to a float at the end."""
    with localcontext() as ctx:
        ctx.prec = 50
        h2 = Decimal(2.0 * hurst)
        terms = [Decimal(abs(j)) ** h2 if j else Decimal(0) for j in (k + 1, k, k - 1)]
        return float((terms[0] - 2 * terms[1] + terms[2]) / 2)


def _fbm_path_one(length: int, hurst: float, pre_steps: int, rng) -> np.ndarray:
    """One fBm path as ``simulate._fbm_path`` draws it: the fGn increments
    are the first ``steps`` real parts of a circulant of 2M points, M the
    first 5-smooth integer >= steps, with the autocovariance from lag 2 on in
    its expm1/log1p form (the same float operations, so the same bits)."""
    steps = pre_steps + length - 1
    m = five_smooth_at_least(steps)
    h2 = 2.0 * hurst
    k = np.arange(2.0, m + 1)
    tail = 0.5 * k**h2 * (np.expm1(h2 * np.log1p(1.0 / k)) + np.expm1(h2 * np.log1p(-1.0 / k)))
    acov = np.concatenate(([1.0, np.expm1((h2 - 1.0) * np.log(2.0))], tail))
    eig = np.fft.hfft(acov)
    noise = rng.standard_normal(2 * eig.size).view(np.complex128)
    unit = np.fft.fft(np.sqrt(np.maximum(eig, 0.0) / eig.size) * noise)[:steps].real
    path = np.zeros(steps + 1)
    np.cumsum(unit * length**-hurst, out=path[1:])
    return path - path[pre_steps]


def flows_one_replication(length: int, hurst: float, lams, sigma: float, rng):
    """Driver and its exponential-kernel averages at the rates ``lams``,
    ``(x, y_1, ..., y_k)``, for one replication drawing from ``rng``."""
    delta = 1.0 / length
    if hurst != 0.5:
        pre_steps = ceil(10.0 / (min(lams) * delta))
        path = _fbm_path_one(length, hurst, pre_steps, rng)
        inp = np.concatenate(([0.0], sigma * np.diff(path)))
        flows = [lfilter([exp(-lam * delta)], [1.0, -exp(-lam * delta)], inp)[pre_steps:] for lam in lams]
        return (path[pre_steps:], *flows)
    driver = np.zeros(length)
    np.cumsum(rng.standard_normal(length - 1) * sqrt(1.0 / length), out=driver[1:])
    d_w = np.diff(driver)
    start = rng.standard_normal()
    resid = rng.standard_normal(length - 1)
    flows = []
    for lam in lams:
        decay = exp(-lam * delta)
        eta_var = sigma * sigma * (1.0 - decay * decay) / (2.0 * lam)
        loading = sigma * (1.0 - decay) / (lam * delta)
        resid_var = max(eta_var - loading * loading * delta, 0.0)
        y0 = sqrt(sigma * sigma / (2.0 * lam)) * start
        eta = loading * d_w + sqrt(resid_var) * resid
        y, _ = lfilter([1.0], [1.0, -decay], eta, zi=[decay * y0])
        flows.append(np.concatenate(([y0], y)))
    return (driver, *flows)
