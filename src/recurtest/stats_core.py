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
X-side weight increments and brackets, the sorted distinct Y values with
their cumulative counts and the Y-side weight terms.  The evaluator it
returns then takes a ``(P, m)`` block of Y-side distance lists -- each row a
rearrangement of the prepared ones over the same pairs, such as the pairing
of one permutation -- and sweeps the fixed z-order once with state of shape
``(P, .)``.  The single-pairing kernels are blocks of one.  Each row's value
is independent of the block it is evaluated in.

The integral functionals sum over the grid of cells between consecutive
distinct distances (``_Cells``).  The quadratic one does so only when the
grid is small, as on tied data, and otherwise evaluates the expanded
square in closed form.

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

# Maps a (P, m) block of Y-side distance lists to the P statistics.
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


def _clamp_nonnegative(values, where: str):
    values = np.asarray(values, dtype=float)
    if np.any(values <= -_NEGATIVE_TOL):
        raise InternalConsistencyError(
            f"{where} produced {values.min()!r}, below the -{_NEGATIVE_TOL} round-off floor"
        )
    return np.maximum(values, 0.0)


def _one(evaluate: Evaluator, pd: PairedDistances) -> float:
    """The statistic of the pairing stored in ``pd``: a block of one."""
    return float(evaluate(pd.t[None, :])[0])


def _suffix_sums(values: np.ndarray) -> np.ndarray:
    """``out[i] = sum(values[i+1:])``."""
    return np.concatenate([np.cumsum(values[::-1])[::-1][1:], [0.0]])


def _sweep(codes: np.ndarray, ends: np.ndarray, cum: np.ndarray, m: int):
    """Walk the records in z-order and stop after each position in ``ends``.

    ``codes[p, i]`` is the first column that record i of row p counts toward
    (a code equal to ``cum.size`` counts toward none).  At end position e the
    generator yields h = e + 1 and the ``(P, cols)`` deviations
    ``|C[p, k] - (h / m) * cum[k]|``, where ``C[p, k]`` counts the first h
    records of row p with code <= k.  The yielded array is overwritten by
    the next step.
    """
    rows = np.arange(codes.shape[0])[:, None]
    # The narrowest integer type makes the per-record comparison cheap.
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
            # Several records (tied z-values): add their histogram's
            # cumulative counts at once.
            hist = np.zeros((codes.shape[0], cum.size + 1), dtype=np.int64)
            np.add.at(hist, (rows, run), 1)
            counts += np.cumsum(hist[:, :-1], axis=1)
        np.subtract(counts, ((end + 1) / m) * cum, out=dev)
        np.abs(dev, out=dev)
        yield end + 1, dev


# ---------------------------------------------------------------------------
# The cell grid of the integral functionals


class _Cells:
    """The grid of cells over which both integral functionals sum.

    The discrepancy is piecewise constant between consecutive sorted
    distances.  On the cell (h, j) -- X radii with h of the m X distances
    below them, Y radii with j below -- it equals (c(h, j) - h*j/m) / m,
    where c(h, j) counts, among the first h records in z-order, those whose
    t-value ranks at or below j; the cell's weight mass is dG1(h) dG2(j),
    h, j = 1..m-1.  Outside the data range on either axis the discrepancy
    is zero.  Only cells with dG1(h) != 0 and dG2(j) != 0 contribute, so
    the sweep stops only at those h and keeps only those j columns.  Both
    lie at the ends of tie runs, where the counts depend on values rather
    than on tie-breaking: c(h, j) is the number of the first h records with
    t <= t_(j).  Memory stays O(P m).
    """

    def __init__(self, pd: PairedDistances, wx: GaussianWeight, wy: GaussianWeight):
        self.m = pd.pair_count
        self.z_order = np.argsort(pd.z, kind="stable")
        t_sorted = np.sort(pd.t, kind="stable")
        self.g1 = weight_cdf(wx, pd.z[self.z_order])  # in z-sorted order
        self.g2 = weight_cdf(wy, t_sorted)
        self.dg1 = np.diff(self.g1)  # h = 1..m-1
        dg2 = np.diff(self.g2)  # j = 1..m-1
        self.stops = np.flatnonzero(self.dg1 != 0.0)  # end position h - 1 of each stop
        cols = np.flatnonzero(dg2 != 0.0)  # j - 1 of each kept column
        self.col_values = t_sorted[cols]
        self.col_j = cols + 1.0
        self.col_dg2 = dg2[cols]

    @property
    def size(self) -> int:
        """The number of contributing cells."""
        return self.stops.size * self.col_j.size

    def sum(self, t_block: np.ndarray, squared: bool) -> np.ndarray:
        """``sum_{h,j} dG1(h) dG2(j) |c(h, j) - h*j/m|``, or its square, per
        row of ``t_block``."""
        codes = np.searchsorted(self.col_values, t_block[:, self.z_order], side="left")
        acc = np.zeros((len(t_block), self.col_j.size))  # sum over h of dG1(h) |...|
        for h, dev in _sweep(codes, self.stops, self.col_j, self.m):
            if squared:
                dev *= dev
            dev *= self.dg1[h - 1]
            acc += dev
        return (acc * self.col_dg2).sum(axis=1)


# ---------------------------------------------------------------------------
# Quadratic (L2) functional


def _prepare_l2(pd: PairedDistances, wx: GaussianWeight, wy: GaussianWeight) -> Evaluator:
    """The quadratic functional, n/m^2 * sum_{h,j} dG1(h) dG2(j) (c(h, j) - h*j/m)^2.

    On a grid of few distinct distances (tied data) the cell sum is cheap
    and every term is nonnegative; otherwise the closed form does O(m^1.5)
    work per row however many cells there are.  The cell sum is chosen when
    it has at most ``m * block_size(m)`` cells, the closed form's work.
    """
    cells = _Cells(pd, wx, wy)
    if cells.size <= cells.m * block_size(cells.m):
        return _l2_cell_sum(cells, pd.n)
    return _l2_closed_form(cells, pd.n)


def _l2_cell_sum(cells: _Cells, n: int) -> Evaluator:
    """The quadratic functional summed over the cells.  Every term is
    nonnegative, so the sum keeps full relative accuracy."""
    m = cells.m
    return lambda t_block: n / (m * m) * cells.sum(t_block, squared=True)


def _l2_closed_form(cells: _Cells, n: int) -> Evaluator:
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
    m = cells.m
    z_order = cells.z_order
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

    def evaluate(t_block: np.ndarray) -> np.ndarray:
        # Every row holds the prepared Y values, so the record of stable rank
        # r has the r-th smallest of them and its terms can be looked up.
        t_rank = stable_ranks(t_block[:, z_order])
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
    """The absolute functional, sqrt(n)/m * sum_{h,j} dG1(h) dG2(j) |c(h, j) - h*j/m|,
    summed over the cells (see ``_Cells``)."""
    cells = _Cells(pd, wx, wy)
    scale = np.sqrt(pd.n) / cells.m
    return lambda t_block: scale * cells.sum(t_block, squared=False)


def l1_statistic(pd: PairedDistances, wx: GaussianWeight, wy: GaussianWeight) -> float:
    """Absolute functional of the pairing in ``pd`` (see ``_prepare_l1``)."""
    return _one(_prepare_l1(pd, wx, wy), pd)


# ---------------------------------------------------------------------------
# Supremum functional


def _prepare_sup(pd: PairedDistances) -> Evaluator:
    """Supremum of the absolute discrepancy times sqrt(n) (weight-free).

    The discrepancy is a step function of the two radii, so its supremum is
    attained on the grid of distinct distance values; the sweep adds each
    run of equal z-values at once and keeps cumulative counts over the
    distinct t-values.  Counts compare actual values (not sort positions),
    which makes the result invariant to tie-breaking and equal to the
    supremum of the left-continuous rate process over all radii.
    """
    m = pd.pair_count
    n = pd.n

    z_order = np.argsort(pd.z, kind="stable")
    z_sorted = pd.z[z_order]
    # Inclusive end position of each run of equal z-values in sorted order.
    run_ends = np.append(np.flatnonzero(np.diff(z_sorted) != 0), m - 1)
    t_distinct, t_counts = np.unique(pd.t, return_counts=True)
    t_cum = np.cumsum(t_counts)

    def evaluate(t_block: np.ndarray) -> np.ndarray:
        codes = np.searchsorted(t_distinct, t_block[:, z_order])
        best = np.zeros(len(t_block))
        for _, dev in _sweep(codes, run_ends, t_cum, m):
            np.maximum(best, dev.max(axis=1), out=best)
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
    the evaluator of ``functional``.  It maps a ``(P, m)`` block whose rows
    are rearrangements of ``pd.t`` over the pairs of ``pd.z`` to the ``P``
    statistics.
    """
    if functional == Functional.SUP:
        return _prepare_sup(pd)
    if pd.pair_count == 1:
        # A single pair carries no dependence information: both integral
        # statistics are identically zero and the weight is uncalibratable.
        return lambda t_block: np.zeros(len(t_block))
    wx = estimate_weight(pd.z)
    wy = estimate_weight(pd.t)
    if functional == Functional.L2:
        return _prepare_l2(pd, wx, wy)
    return _prepare_l1(pd, wx, wy)


def statistic(x, y, spec: StatisticSpec) -> float:
    """Compute the selected statistic between two samples end to end."""
    pd = paired_distances(x, y, spec.metric_x, spec.metric_y)
    return _one(prepare(pd, spec.functional), pd)
