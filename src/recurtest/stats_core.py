"""Recurrence rates and the three dependence statistics.

All statistics measure the discrepancy between the joint recurrence rate of a
coupled pair sample and the product of its marginal recurrence rates,
aggregated three ways:

* ``l2_statistic``  -- n * integral of the squared discrepancy against the
  calibrated Gaussian product weight (quadratic functional),
* ``l1_statistic``  -- sqrt(n) * integral of the absolute discrepancy against
  the same weight,
* ``sup_statistic`` -- sqrt(n) * supremum of the absolute discrepancy over
  all radius pairs (weight-free).

Each kernel has a closed form over the coupled distance list, evaluated in
two steps.  ``prepare`` computes once everything that re-pairing the Y-side
distances leaves unchanged: the z-order and its runs of equal values, the
X-side weight increments and brackets, the Y-side weight terms, and a small
integer code of each pair's Y distance (its cell column or its rank among the
distinct values).  The evaluator it returns then takes a ``(P, m)`` block of
pair indices -- each row a rearrangement of ``range(m)``, such as the pairing
of one permutation -- gathers the codes of each row in z-order and sweeps the
fixed z-order once with state of shape ``(P, .)``.  The single-pairing kernels
evaluate the identity row.  Each row's value is independent of the block it
is evaluated in and of the block's memory layout.

The sweep (``_sweep``) keeps the integer numerators m*C - h*cum of the
discrepancy, exact in int32 or int64.  The integral functionals sum them
over the grid of cells between consecutive distinct distances
(``_Cells``), the quadratic one only when the grid is small, as on tied
data, and otherwise evaluates the expanded square in closed form.  The
supremum takes their largest magnitude.

The literal-sum twins of the kernels live with the tests as oracles.  Both
agree to floating round-off and are invariant to how ties are broken (equal
values carry equal weight-CDF values and equal counts).

The sqrt(n) / n prefactors always use the observation count n, never the
pair count.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .exceptions import InternalConsistencyError, InvalidInputError
from .metrics import Metric, PairedDistances, paired_distances
from .rankstats import block_size, prefix_dominance, stable_ranks
from .weights import GaussianWeight, estimate_weight, weight_cdf

# Computed values of the quadratic statistic below this are round-off noise
# and clamp to zero; anything more negative indicates a kernel bug.
_NEGATIVE_TOL = 1e-12

# Maps a (P, m) block of pair indices to the P statistics: row p pairs the X
# distance of pair i with the Y distance of pair index[p, i].
Evaluator = Callable[[np.ndarray], np.ndarray]


class Functional(Enum):
    """Aggregation of the discrepancy: absolute integral, squared integral,
    or supremum."""

    L1 = "l1"
    L2 = "l2"
    SUP = "sup"

    @classmethod
    def parse(cls, text: str) -> "Functional":
        try:
            return cls(str(text).strip().lower())
        except ValueError:
            choices = ", ".join(f.value for f in cls)
            raise InvalidInputError(
                f"unknown functional {text!r} (choose from {choices})"
            ) from None


@dataclass(frozen=True)
class StatisticSpec:
    """A statistic choice: the functional plus the metric used on each side."""

    functional: Functional
    metric_x: Metric
    metric_y: Metric


def _clamp_nonnegative(values, where: str):
    values = np.asarray(values, dtype=float)
    if np.any(values <= -_NEGATIVE_TOL):
        raise InternalConsistencyError(
            f"{where} produced {values.min()!r}, below the -{_NEGATIVE_TOL} round-off floor"
        )
    return np.maximum(values, 0.0)


def _one(evaluate: Evaluator, pd: PairedDistances) -> float:
    """The statistic of the pairing stored in ``pd``: the identity row."""
    return float(evaluate(np.arange(pd.pair_count)[None, :])[0])


def _distinct_codes(t: np.ndarray):
    """Each value's rank among the distinct values of ``t`` (from 0), in the
    narrowest unsigned dtype that holds their count, and their cumulative counts."""
    order = np.argsort(t, kind="stable")
    ends = np.append(np.flatnonzero(np.diff(t[order]) != 0), t.size - 1)
    codes = np.empty(t.size, np.min_scalar_type(ends.size))
    codes[order] = np.repeat(np.arange(ends.size), np.diff(ends, prepend=-1))
    return codes, ends + 1


def _suffix_sums(values: np.ndarray) -> np.ndarray:
    """``out[i] = sum(values[i+1:])``."""
    return np.concatenate([np.cumsum(values[::-1])[::-1][1:], [0.0]])


def _sweep(codes: np.ndarray, ends: np.ndarray, cum: np.ndarray, m: int):
    """Walk the records in z-order and stop after each position in ``ends``.

    ``codes[p, i]`` is the first column that record i of row p counts toward
    (a code equal to ``cum.size`` counts toward none).  At end position e the
    generator yields the ``(P, cols)`` integer numerators
    ``D[p, k] = m * C[p, k] - h * cum[k]``, h = e + 1, where ``C[p, k]``
    counts the first h records of row p with code <= k: the deviation
    ``C - (h / m) * cum`` times m, exactly.  No value or partial sum exceeds m^2 in size, so D is
    int32 while m^2 < 2^31 and int64 above.  The yielded array is updated in
    place by the next step.
    """
    dtype = np.int32 if m * m < 2**31 else np.int64
    rows, cols = len(codes), cum.size
    cum = cum.astype(dtype)
    # suffix[cols - c] is m in the columns k >= c and 0 in the others: what
    # one record of code c adds to the numerators.
    ramp = np.zeros(2 * cols, dtype=dtype)
    ramp[cols:] = m
    suffix = np.lib.stride_tricks.sliding_window_view(ramp, cols)
    shifts = np.ascontiguousarray((cols - codes).T)  # record by record
    num = np.zeros((rows, cols), dtype=dtype)
    bins = np.arange(rows)[:, None] * (cols + 1)
    start = 0
    for end in ends:
        if end == start:
            num += suffix[shifts[start]]
            num -= cum
        else:
            # Several records (tied z-values): add their histogram's
            # cumulative counts at once.
            run = codes[:, start : end + 1]
            hist = np.bincount((bins + run).ravel(), minlength=rows * (cols + 1))
            counts = np.cumsum(hist.reshape(rows, -1)[:, :-1], axis=1, dtype=dtype)
            counts *= m
            counts -= run.shape[1] * cum
            num += counts
        start = end + 1
        yield num


# OpenBLAS shares a dot product of more than 10,000 elements among its
# threads, which makes the bits of the sum depend on the thread count;
# pieces of this length are summed by one thread.
_DOT_SPAN = 8192


def _row_dots(a: np.ndarray, w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``a @ w`` for a ``(P, k)`` array: one dot product per row, in pieces
    of ``_DOT_SPAN`` columns, so that each row's bits depend on that row
    alone (a matrix-vector product does not promise that)."""
    out = np.vecdot(a[:, :_DOT_SPAN], w[:_DOT_SPAN], out=out)
    for lo in range(_DOT_SPAN, w.size, _DOT_SPAN):
        out += np.vecdot(a[:, lo : lo + _DOT_SPAN], w[lo : lo + _DOT_SPAN])
    return out


# ---------------------------------------------------------------------------
# The cell grid of the integral functionals


class _Cells:
    """The grid of cells over which both integral functionals sum.

    The discrepancy is piecewise constant between consecutive sorted
    distances.  On the cell (h, j) -- X radii with h of the m X distances
    below them, Y radii with j below -- it equals D(h, j) / m^2 with the
    integer numerator D(h, j) = m c(h, j) - h j, where c(h, j) counts, among
    the first h records in z-order, those whose t-value ranks at or below j;
    the cell's weight mass is dG1(h) dG2(j), h, j = 1..m-1.  Outside the
    data range on either axis the discrepancy is zero.  Only cells with
    dG1(h) != 0 and dG2(j) != 0 contribute, so the sweep stops only at those
    h and keeps only those j columns.  Both lie at the ends of tie runs,
    where the counts depend on values rather than on tie-breaking: c(h, j)
    is the number of the first h records with t <= t_(j).  Memory stays
    O(P m).
    """

    def __init__(self, pd: PairedDistances, wx: GaussianWeight, wy: GaussianWeight):
        self.m = pd.pair_count
        self.z_order = np.argsort(pd.z, kind="stable")
        t_sorted = np.sort(pd.t, kind="stable")
        self.g1 = weight_cdf(wx, pd.z[self.z_order])  # in z-sorted order
        self.g2 = weight_cdf(wy, t_sorted)
        dg1 = np.diff(self.g1)  # h = 1..m-1
        dg2 = np.diff(self.g2)  # j = 1..m-1
        self.stops = np.flatnonzero(dg1 != 0.0)  # end position h - 1 of each stop
        self.stop_dg1 = dg1[self.stops]
        cols = np.flatnonzero(dg2 != 0.0)  # j - 1 of each kept column
        # Each pair's first kept column (cols.size: none), as a small integer.
        self.codes = np.searchsorted(t_sorted[cols], pd.t).astype(np.min_scalar_type(cols.size))
        self.col_j = cols + 1
        self.col_dg2 = dg2[cols]

    @property
    def size(self) -> int:
        """The number of contributing cells."""
        return self.stops.size * self.col_j.size

    def sum(self, index: np.ndarray, squared: bool) -> np.ndarray:
        """``sum_{h,j} dG1(h) dG2(j) |D(h, j)|``, or with D^2, per row of
        the pair-index block ``index``.

        Each stop reduces its numerators over the columns, and one sum
        weighted by dG1 finishes.  |D| is exact, and D^2 is taken in
        float64.
        """
        codes = self.codes[index.take(self.z_order, axis=1)]
        at_stop = np.empty((len(index), self.stops.size))  # sum over j of dG2(j) |D|
        for s, num in enumerate(_sweep(codes, self.stops, self.col_j, self.m)):
            dev = np.square(num, dtype=float) if squared else np.abs(num)
            _row_dots(dev, self.col_dg2, out=at_stop[:, s])
        return _row_dots(at_stop, self.stop_dg1)


# ---------------------------------------------------------------------------
# Quadratic (L2) functional


def _prepare_l2(pd: PairedDistances, wx: GaussianWeight, wy: GaussianWeight) -> Evaluator:
    """The quadratic functional, n/m^4 * sum_{h,j} dG1(h) dG2(j) D(h, j)^2 (see ``_Cells``).

    On a grid of few distinct distances (tied data) the cell sum is cheap
    and every term is nonnegative; otherwise the closed form does O(m^1.5)
    work per row however many cells there are.  The cell sum is chosen when
    it has at most ``m * block_size(m)`` cells, the closed form's work.
    """
    cells = _Cells(pd, wx, wy)
    if cells.size <= cells.m * block_size(cells.m):
        return _l2_cell_sum(cells, pd.n)
    return _l2_closed_form(cells, pd)


def _l2_cell_sum(cells: _Cells, n: int) -> Evaluator:
    """The quadratic functional summed over the cells.  Every term is
    nonnegative, so the sum keeps full relative accuracy."""
    scale = n / cells.m**4
    return lambda index: scale * cells.sum(index, squared=True)


def _l2_closed_form(cells: _Cells, pd: PairedDistances) -> Evaluator:
    """Closed form of the quadratic functional.

    Expanding the square gives three terms: the joint term couples the pair
    maxima on both sides (rank dominance sums over the coupled list), the
    product term factorizes into two sorted survival sums with odd-integer
    weights, and the cross term factorizes per record into an X-side and a
    Y-side bracket.  The product term and both brackets (each a function of
    the record's own distance) are invariant under re-pairing; only the
    joint term and the pairing of the brackets are evaluated per row, in
    O(m^1.5) elementwise work.  The terms cancel to about six digits on
    tied data, which the cell sum avoids.
    """
    m, n = cells.m, pd.n
    z_order = cells.z_order
    t_code, _ = _distinct_codes(pd.t)
    surv_z = 1.0 - cells.g1  # in z-sorted order
    surv_t_sorted = 1.0 - cells.g2

    # Product term: for sorted values, sum_{i,j} G(max(v_i, v_j)) equals
    # sum_i (2i - 1) G(v_(i)).
    odd = 2.0 * np.arange(1, m + 1) - 1.0
    product_term = (1.0 - float(np.dot(odd, cells.g1)) / (m * m)) * (
        1.0 - float(np.dot(odd, cells.g2)) / (m * m)
    )

    # Cross term: sum_i [sum_j surv_z(max(z_i,z_j))] [sum_k surv_t(max(t_i,t_k))] / m^3,
    # with each bracket computable per record from its sorted position.
    pos = np.arange(1, m + 1, dtype=float)
    z_bracket = pos * surv_z + _suffix_sums(surv_z)
    t_bracket_sorted = pos * surv_t_sorted + _suffix_sums(surv_t_sorted)

    def evaluate(index: np.ndarray) -> np.ndarray:
        # Every row holds the prepared Y values, so the record of stable rank
        # r has the r-th smallest of them and its terms can be looked up; its
        # small-integer code ranks it as its value does, ties by z-position.
        t_rank = stable_ranks(t_code[index.take(z_order, axis=1)])
        surv_t = surv_t_sorted[t_rank - 1]

        # Joint term: mean over all ordered index pairs (i, j) of
        # surv_z(max(z_i, z_j)) * surv_t(max(t_i, t_j)).
        count_less, wsum_greater = prefix_dominance(t_rank, surv_t)
        diag = (surv_z * surv_t).sum(axis=1)
        off = (surv_z * (surv_t * count_less + wsum_greater)).sum(axis=1)
        joint_term = (diag + 2.0 * off) / (m * m)

        cross_term = (z_bracket * t_bracket_sorted[t_rank - 1]).sum(axis=1) / (m * m * m)
        values = n * (joint_term + product_term - 2.0 * cross_term)
        return _clamp_nonnegative(values, "l2_statistic")

    return evaluate


def l2_statistic(pd: PairedDistances, wx: GaussianWeight, wy: GaussianWeight) -> float:
    """Quadratic functional of the pairing in ``pd`` (see ``_prepare_l2``)."""
    return _one(_prepare_l2(pd, wx, wy), pd)


# ---------------------------------------------------------------------------
# Absolute (L1) functional


def _prepare_l1(pd: PairedDistances, wx: GaussianWeight, wy: GaussianWeight) -> Evaluator:
    """The absolute functional, sqrt(n)/m^2 * sum_{h,j} dG1(h) dG2(j) |D(h, j)|,
    summed over the cells (see ``_Cells``)."""
    cells = _Cells(pd, wx, wy)
    scale = np.sqrt(pd.n) / cells.m**2
    return lambda index: scale * cells.sum(index, squared=False)


def l1_statistic(pd: PairedDistances, wx: GaussianWeight, wy: GaussianWeight) -> float:
    """Absolute functional of the pairing in ``pd`` (see ``_prepare_l1``)."""
    return _one(_prepare_l1(pd, wx, wy), pd)


# ---------------------------------------------------------------------------
# Supremum functional


def _prepare_sup(pd: PairedDistances) -> Evaluator:
    """Supremum of the absolute discrepancy times sqrt(n) (weight-free).

    The discrepancy is a step function of the two radii, so its supremum is
    attained on the grid of distinct distance values; the sweep adds each
    run of equal z-values at once and keeps the integer numerators
    D = m*C - h*cum over the distinct t-values (see ``_sweep``).  Counts
    compare actual values (not sort positions), which makes the result
    invariant to tie-breaking and equal to the supremum of the
    left-continuous rate process over all radii.

    The sweep keeps each column's largest and smallest D over the stops,
    which give each row's exact maximum K of |D|.  The value reported is the
    largest float deviation |C - (h/m)*cum|, rounded as a float sweep rounds
    it, and it is evaluated only in the columns where |D| reaches K (one per
    row, as a rule).  Its rounding error is below 3*m*2^-53, and distinct
    values of |D| differ by at least 1/m in deviation, so while
    6*m^2 < 2^53 (m below about 3.9e7 pairs) no smaller |D| rounds above
    the largest: the value is bit for bit the float sweep's maximum.
    """
    m = pd.pair_count
    n = pd.n

    z_order = np.argsort(pd.z, kind="stable")
    z_sorted = pd.z[z_order]
    # Inclusive end position of each run of equal z-values in sorted order.
    run_ends = np.append(np.flatnonzero(np.diff(z_sorted) != 0), m - 1)
    h = run_ends + 1
    t_code, t_cum = _distinct_codes(pd.t)

    def evaluate(index: np.ndarray) -> np.ndarray:
        codes = t_code[index.take(z_order, axis=1)]
        sweep = _sweep(codes, run_ends, t_cum, m)
        top = next(sweep).copy()
        bottom = top.copy()
        for num in sweep:
            np.maximum(top, num, out=top)
            np.minimum(bottom, num, out=bottom)
        k = np.maximum(top.max(axis=1), -bottom.min(axis=1))
        rows, cols = np.nonzero((top == k[:, None]) | (bottom == -k[:, None]))
        # The float deviations of those columns at every stop, a block's
        # worth of columns at a time.
        best = np.zeros(len(index))
        for lo in range(0, rows.size, len(index)):
            r, c = rows[lo : lo + len(index)], cols[lo : lo + len(index), None]
            counts = np.cumsum(codes[r] <= c, axis=1)[:, run_ends]
            dev = np.abs(counts - (h / m) * t_cum[c])
            np.maximum.at(best, r, dev.max(axis=1))
        return np.sqrt(n) * best / m

    return evaluate


def sup_statistic(pd: PairedDistances) -> float:
    """Supremum functional of the pairing in ``pd`` (see ``_prepare_sup``)."""
    return _one(_prepare_sup(pd), pd)


# ---------------------------------------------------------------------------
# Entry points


def prepare(pd: PairedDistances, functional: Functional) -> Evaluator:
    """Prepare ``functional`` on ``pd`` for evaluation over many pairings.

    Calibrates the weights from ``pd`` (the integral functionals) and returns
    the evaluator of ``functional``.  It maps a ``(P, m)`` block of pair
    indices, rows rearranging ``range(m)``, to the ``P`` statistics: row p
    pairs ``pd.z[i]`` with ``pd.t[index[p, i]]``; the identity row is ``pd``.
    """
    if functional == Functional.SUP:
        return _prepare_sup(pd)
    if pd.pair_count == 1:
        # A single pair carries no dependence information: both integral
        # statistics are identically zero and the weight is uncalibratable.
        return lambda index: np.zeros(len(index))
    wx = estimate_weight(pd.z)
    wy = estimate_weight(pd.t)
    if functional == Functional.L2:
        return _prepare_l2(pd, wx, wy)
    return _prepare_l1(pd, wx, wy)


def statistic(x, y, spec: StatisticSpec) -> float:
    """Compute the selected statistic between two samples end to end."""
    pd = paired_distances(x, y, spec.metric_x, spec.metric_y)
    return _one(prepare(pd, spec.functional), pd)
