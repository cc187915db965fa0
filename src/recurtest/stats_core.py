"""Recurrence rates and the three dependence statistics.

All statistics measure the discrepancy between the joint recurrence rate of a
coupled pair sample and the product of its marginal recurrence rates,
aggregated three ways:

* ``Functional.L2``  -- n * integral of the squared discrepancy against the
  calibrated Gaussian product weight (quadratic functional),
* ``Functional.L1``  -- sqrt(n) * integral of the absolute discrepancy
  against the same weight,
* ``Functional.SUP`` -- sqrt(n) * supremum of the absolute discrepancy over
  all radius pairs (weight-free).

Each kernel has a closed form over the coupled distance list, evaluated in
two steps.  ``prepare`` computes once everything that re-pairing the Y-side
distances leaves unchanged: the cell grid (``_Cells``: the X and Y orders,
the stops and columns, and a small integer code of each pair's Y distance)
and the weight terms.  The weight CDF is evaluated once per distinct
distance.  The evaluator it returns (``Evaluator``) holds a kernel that
takes a ``(P, m)`` block of per-pair values, each row in z-order, and
evaluates every row at once with state of shape ``(P, .)``, and two entries
that gather those values: a block of pair indices -- each row a
rearrangement of ``range(m)`` -- for any re-pairing, and a ``(P, n)`` block
of permutations of the observations, read through an (n, n) table of the
values.  The identity row is the pairing stored in the distance structure,
which ``statistic`` evaluates.  Each row's value is independent of the
entry, of the block it is evaluated in and of the block's memory layout.
The evaluator names the most rows a block should hold
(``Evaluator.block_rows``): 2^15 pairs' worth for the sweeps of the
absolute and supremum functionals over a large grid, whose every stop pays
a fixed cost for its numpy calls, and 2^14 pairs' worth for the quadratic
closed form and small grids.  It also predicts the time of one row
(``Evaluator.row_seconds``) from the prepared sizes and per-element
constants fixed in the source, so that a caller can plan its processes
before any work; nothing is timed at run time.

The sweep (``_sweep``) walks the fixed z-order once over each row's codes
and keeps the integer numerators m*C - h*cum of the discrepancy, exact in
int32 or int64; what it shares between blocks is prepared once per grid
(``_Cells.sweep_setup``).  The absolute functional sums the numerators
over the weighted grid, and the supremum takes their largest magnitude over
the unweighted grid.  The quadratic functional sums their squares on a
small grid, as on tied data, and otherwise evaluates the expanded square in
closed form from each row's Y ranks: a double sum of products of two
minima (``_min_kernel_sums``).

The literal-sum twins of the kernels live with the tests as oracles.  Both
agree to floating round-off and are invariant to how ties are broken (equal
values carry equal weight-CDF values and equal counts).

The sqrt(n) / n prefactors always use the observation count n, never the
pair count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import isqrt
from typing import Callable

import numpy as np

from .exceptions import InternalConsistencyError, InvalidInputError
from .choices import Functional, Metric
from .metrics import PairedDistances, paired_distances
from .weights import GaussianWeight, estimate_weight, weight_cdf

# Computed values of the quadratic statistic below this are round-off noise
# and clamp to zero; anything more negative indicates a kernel bug.
_NEGATIVE_TOL = 1e-12

# The pair indices of one block of rows: wide blocks for the sweeps over a
# large grid, narrow ones otherwise (see the module docstring).
_BLOCK_PAIRS = 1 << 14
_WIDE_BLOCK_PAIRS = 1 << 15

# The predicted time of one row (``Evaluator.row_seconds``), per element of
# the prepared sizes, measured in one process on a 2-core x86-64 VM (numpy
# 2.4): gathering each pair's value by ``Evaluator.permuted`` (2.6-2.7 ns
# at n = 50 and 100), each cell of a sweep (l1 1.1-1.8 ns and sup
# 0.8-1.3 ns at n = 30-150 on continuous data), and each m^1.5 of the
# quadratic closed form (7.8 ns at n = 30, 5.9 at 50, 3.2-3.4 at 100-150).
# A sweep over tied data also pays about 15-25 ns per pair for its runs'
# histograms, which the prediction leaves out.
_PAIR_SECONDS = 2.7e-9
_CELL_SECONDS = 1.2e-9
_CLOSED_FORM_SECONDS = 5e-9


@dataclass(frozen=True)
class Evaluator:
    """A prepared statistic: a kernel that maps a ``(P, m)`` block of
    per-pair values, each row in z-order, to the P statistics, and the two
    entries that feed it.

    * Calling it maps a ``(P, m)`` block of pair indices: row p pairs the X
      distance of pair i with the Y distance of pair ``index[p, i]``.  It
      takes any re-pairing of any ``PairedDistances``.
    * ``permuted`` maps a ``(P, n)`` block of permutations of the
      observations: pair (i, j) of row p takes the Y distance of the pair
      of observations (perm[i], perm[j]).  It needs the layout of
      ``paired_distances``, every pair i < j once in lexicographic order.

    ``values`` holds the value of each pair that the kernel reads (see
    ``_Cells``).  ``block_rows`` is the most rows a block should hold, for
    speed and memory, and ``row_seconds`` the predicted time of one row
    (see ``_evaluator``); any P gives the same value per row.
    """

    kernel: Callable[[np.ndarray], np.ndarray]
    cells: _Cells
    values: np.ndarray
    block_rows: int
    row_seconds: float

    def __call__(self, index: np.ndarray) -> np.ndarray:
        return self.kernel(self.values[index.take(self.cells.z_order, axis=1)])

    def permuted(self, perms: np.ndarray) -> np.ndarray:
        """The statistics of a ``(P, n)`` block of permutations of the
        observations.  Row p's values in z-order are
        ``table[perm[rows_z] * n + perm[cols_z]]``, the same values the pair
        index of that pairing gathers, in four passes over the block.  The
        flat indices are freed before the kernel runs, whose peak memory is
        then the block's values and its own state."""
        rows_z, cols_z, table = self._table
        flat = (perms * self.cells.n).take(rows_z, axis=1)
        flat += perms.take(cols_z, axis=1)
        values = table.take(flat)
        del flat
        return self.kernel(values)

    @cached_property
    def _table(self):
        """The observations (i, j) of the pair at each z-position, and the
        flat (n, n) table of ``values``: entries (i, j) and (j, i) hold
        pair (i, j)'s.  Built on the first call of ``permuted``."""
        cells, n = self.cells, self.cells.n
        if cells.m != n * (n - 1) // 2:
            raise InvalidInputError(
                f"permutations of {n} observations need their {n * (n - 1) // 2} pairs, got {cells.m}"
            )
        rows, cols = np.triu_indices(n, 1)
        table = np.zeros((n, n), dtype=self.values.dtype)
        table[rows, cols] = table[cols, rows] = self.values
        return rows[cells.z_order], cols[cells.z_order], table.ravel()


def _evaluator(kernel, cells: _Cells, values: np.ndarray, kernel_seconds: float,
               wide: bool = False) -> Evaluator:
    """The evaluator of ``kernel`` on the per-pair ``values`` of ``cells``,
    in blocks of ``_WIDE_BLOCK_PAIRS`` pairs if ``wide`` and
    ``_BLOCK_PAIRS`` otherwise, and at least one row.  A row is predicted
    to take ``kernel_seconds`` plus the gather of its m pairs."""
    block_rows = max(1, (_WIDE_BLOCK_PAIRS if wide else _BLOCK_PAIRS) // cells.m)
    return Evaluator(kernel, cells, values, block_rows, _PAIR_SECONDS * cells.m + kernel_seconds)


@dataclass(frozen=True)
class StatisticSpec:
    """A statistic choice: the functional plus the metric used on each side."""

    functional: Functional
    metric_x: Metric
    metric_y: Metric

    @classmethod
    def parse(cls, functional: str, metric_x: str, metric_y: str) -> "StatisticSpec":
        """The spec named by its three choices (see ``Choice.parse``)."""
        return cls(Functional.parse(functional), Metric.parse(metric_x), Metric.parse(metric_y))


def _clamp_nonnegative(values, where: str):
    values = np.asarray(values, dtype=float)
    if np.any(values <= -_NEGATIVE_TOL):
        raise InternalConsistencyError(
            f"{where} produced {values.min()!r}, below the -{_NEGATIVE_TOL} round-off floor"
        )
    return np.maximum(values, 0.0)


def _min_row_sums(values: np.ndarray) -> np.ndarray:
    """``out[i] = sum_j min(values[i], values[j])`` of nonincreasing ``values``."""
    suffix = np.concatenate([np.cumsum(values[::-1])[::-1][1:], [0.0]])
    return np.arange(1, values.size + 1) * values + suffix


def _sweep(codes: np.ndarray, cells: _Cells):
    """Walk the records in z-order and stop after each of ``cells.stops``.

    ``codes[p, i]`` is the first column that record i of row p counts toward
    (a code equal to the column count counts toward none).  At end position
    e the generator yields the ``(P, cols)`` integer numerators
    ``D[p, k] = m * C[p, k] - h * cum[k]``, h = e + 1 and cum =
    ``cells.col_j``, where ``C[p, k]`` counts the first h records of row p
    with code <= k: the deviation ``C - (h / m) * cum`` times m, exactly.
    The yielded array is updated in place by the next step.
    """
    dtype, cum, suffix = cells.sweep_setup
    rows, cols, m = len(codes), cum.size, cells.m
    shifts = np.ascontiguousarray((cols - codes).T)  # record by record
    num = np.zeros((rows, cols), dtype=dtype)
    bins = np.arange(rows)[:, None] * (cols + 1)
    start = 0
    for end in cells.stops:
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
    """``a @ w`` for a ``(P, k)`` array and a ``(k,)`` or ``(P, k)`` one:
    one dot product per row, in pieces of ``_DOT_SPAN`` columns, so that
    each row's bits depend on that row alone (a matrix-vector product does
    not promise that)."""
    out = np.vecdot(a[:, :_DOT_SPAN], w[..., :_DOT_SPAN], out=out)
    for lo in range(_DOT_SPAN, a.shape[1], _DOT_SPAN):
        out += np.vecdot(a[:, lo : lo + _DOT_SPAN], w[..., lo : lo + _DOT_SPAN])
    return out


# ---------------------------------------------------------------------------
# The cell grid


def _runs(edges: np.ndarray, weight: GaussianWeight | None):
    """The first position of each run of equal sorted ``edges``, and each
    run's level: its edge, or with a weight its weight CDF, evaluated once
    per run.  Equal edges have equal levels, so this is the levels of all
    the edges with each run's repeats left out.  Distinct edges are their
    own levels' edges, uncopied."""
    firsts = np.flatnonzero(np.concatenate(([True], edges[1:] != edges[:-1])))
    levels = edges if firsts.size == edges.size else edges[firsts]
    return firsts, levels if weight is None else weight_cdf(weight, levels)


def _steps(firsts: np.ndarray, levels: np.ndarray):
    """The positions p - 1 of the sorted edges p after which the level of
    ``_runs`` steps, and the size of each step: the nonzero entries of the
    difference of the levels of all the edges, without expanding them."""
    steps = np.diff(levels)
    kept = steps != 0.0
    return firsts[1:][kept] - 1, steps[kept]


class _Cells:
    """The grid of cells over which every functional aggregates.

    The discrepancy is piecewise constant between consecutive sorted
    distances.  On the cell (h, j) -- X radii with h of the m X distances
    below them, Y radii with j below -- it equals D(h, j) / m^2 with the
    integer numerator D(h, j) = m c(h, j) - h j, where c(h, j) counts, among
    the first h records in z-order, those whose t-value ranks at or below j,
    h, j = 1..m-1.  Outside the data range on either axis, and at h = m or
    j = m, D is zero.  The grid's edges are the weight CDFs G1, G2 of
    the sorted distances, or without weights the distances themselves; a
    cell (h, j) is kept only when dG1(h) != 0 and dG2(j) != 0, so the sweep
    stops at the ends of the runs of equal X edges and keeps the columns at
    the ends of those of Y edges.  There the counts depend on values rather
    than on tie-breaking: c(h, j) is the number of the first h records with
    t <= t_(j).  With weights the cell's mass is dG1(h) dG2(j).  Memory stays
    O(P m).

    The value of each pair that the sweeps read is its code (``codes``):
    the first kept column at or above its Y distance.
    """

    def __init__(self, pd: PairedDistances, wx: GaussianWeight | None = None,
                 wy: GaussianWeight | None = None):
        self.n, self.m = pd.n, pd.pair_count
        self.z_order = np.argsort(pd.z, kind="stable")
        self.t_order = np.argsort(pd.t, kind="stable")
        self.t_sorted = pd.t[self.t_order]
        self._x_runs = _runs(pd.z[self.z_order], wx)
        self._y_runs = _runs(self.t_sorted, wy)
        self.stops, self.stop_dg1 = _steps(*self._x_runs)  # end position h - 1 of each stop
        cols, self.col_dg2 = _steps(*self._y_runs)  # j - 1 of each kept column
        # Each pair's first kept column at or above its Y distance (cols.size:
        # none), in the narrowest unsigned dtype that holds cols.size.
        self.codes = np.searchsorted(self.t_sorted[cols], pd.t).astype(np.min_scalar_type(cols.size))
        self.col_j = cols + 1

    @cached_property
    def g1(self) -> np.ndarray:
        """G1 of the X distances, in z-sorted order (weighted grids only)."""
        return _expand(*self._x_runs, self.m)

    @cached_property
    def g2(self) -> np.ndarray:
        """G2 of the Y distances, in sorted order (weighted grids only)."""
        return _expand(*self._y_runs, self.m)

    @property
    def size(self) -> int:
        """The number of contributing cells."""
        return self.stops.size * self.col_j.size

    @property
    def large(self) -> bool:
        """Whether the grid has more than ``_closed_form_work(m)`` cells."""
        return self.size > _closed_form_work(self.m)

    @cached_property
    def sweep_setup(self):
        """What every block's sweep (``_sweep``) shares: the dtype of the
        numerators, ``col_j`` in it, and ``suffix``, where
        ``suffix[cols - c]`` is m in the columns k >= c and 0 in the others,
        what one record of code c adds to the numerators.  No value or
        partial sum exceeds m^2 in size, so the numerators are int32 while
        m^2 < 2^31 and int64 above."""
        dtype = np.int32 if self.m * self.m < 2**31 else np.int64
        cols = self.col_j.size
        ramp = np.zeros(2 * cols, dtype=dtype)
        ramp[cols:] = self.m
        return dtype, self.col_j.astype(dtype), np.lib.stride_tricks.sliding_window_view(ramp, cols)

    def sum(self, codes: np.ndarray, squared: bool) -> np.ndarray:
        """``sum_{h,j} dG1(h) dG2(j) |D(h, j)|``, or with D^2, per row of
        the ``(P, m)`` block of codes in z-order.

        Each stop reduces its numerators over the columns, and one sum
        weighted by dG1 finishes.  |D| is exact, and D^2 is taken in
        float64.
        """
        at_stop = np.empty((len(codes), self.stops.size))  # sum over j of dG2(j) |D|
        for s, num in enumerate(_sweep(codes, self)):
            dev = np.square(num, dtype=float) if squared else np.abs(num)
            _row_dots(dev, self.col_dg2, out=at_stop[:, s])
        return _row_dots(at_stop, self.stop_dg1)


def _expand(firsts: np.ndarray, levels: np.ndarray, m: int) -> np.ndarray:
    """The levels of ``_runs`` at all m sorted edges."""
    if firsts.size == m:
        return levels
    return np.repeat(levels, np.diff(np.append(firsts, m)))


# ---------------------------------------------------------------------------
# Quadratic (L2) functional


def _closed_form_work(m: int) -> int:
    """The cells up to which the quadratic functional sums the cell grid
    rather than use the closed form: m * max(32, 1.5 sqrt(m))."""
    return m * max(32, int(1.5 * np.sqrt(m)))


def _prepare_l2(pd: PairedDistances, wx: GaussianWeight, wy: GaussianWeight) -> Evaluator:
    """The quadratic functional, n/m^4 * sum_{h,j} dG1(h) dG2(j) D(h, j)^2 (see ``_Cells``).

    On a grid of few distinct distances (tied data) the cell sum is cheap
    and every term is nonnegative; otherwise the closed form does O(m^1.5)
    work per row however many cells there are.  The cell sum is chosen when
    it has at most ``_closed_form_work(m)`` cells.
    """
    cells = _Cells(pd, wx, wy)
    if cells.large:
        return _l2_closed_form(cells, pd)
    return _l2_cell_sum(cells, pd.n)


def _l2_cell_sum(cells: _Cells, n: int) -> Evaluator:
    """The quadratic functional summed over the cells.  Every term is
    nonnegative, so the sum keeps full relative accuracy."""
    scale = n / cells.m**4
    return _evaluator(lambda codes: scale * cells.sum(codes, squared=True), cells, cells.codes,
                      _CELL_SECONDS * cells.size)


def _l2_closed_form(cells: _Cells, pd: PairedDistances) -> Evaluator:
    """Closed form of the quadratic functional.

    With Z = 1 - G1 and s = 1 - G2 of each record's distances, the survival
    weights of a pair's larger distances are min(Z_i, Z_j) and min(s_i, s_j).
    Expanding the square gives three means over pairs of records: the joint
    term of their product (``_min_kernel_sums``), and the product and cross
    terms, which factorize into per-record brackets prepared once.  A row
    gathers the Y rank of each z-position and scatters the z-positions into
    Y order.  So that the bits depend on the values alone, runs of equal Z
    take their Y ranks in order, and then runs of equal Y distances their
    z-positions: records tied on X, on Y or on both sit in one order
    whatever pairing put them there.  The terms cancel to about six digits
    on tied data, which the cell sum avoids.
    """
    m, n = cells.m, pd.n
    surv_z = 1.0 - cells.g1  # in z-sorted order
    surv_t_sorted = 1.0 - cells.g2
    positions = np.arange(m, dtype=np.int32)
    t_rank = np.empty(m, dtype=np.int32)
    t_rank[cells.t_order] = positions
    z_tied, z_tie_keys = _tie_runs(surv_z)
    t_tied, t_tie_keys = _tie_runs(cells.t_sorted)

    # Each record's bracket, its sum of minima over all records on one side:
    # the product term is (sum of Z brackets)(sum of s brackets) / m^4, and
    # the cross term sum_i [Z bracket of i][s bracket of i] / m^3.
    z_bracket = _min_row_sums(surv_z)
    t_bracket_sorted = _min_row_sums(surv_t_sorted)
    product_term = z_bracket.sum() * t_bracket_sorted.sum() / m**4

    def evaluate(ranks: np.ndarray) -> np.ndarray:
        # ranks[p, i]: the Y rank of row p's record at z-position i, and
        # order[p, r]: the z-position of its record of Y rank r.
        _sort_runs(ranks, z_tied, z_tie_keys)
        order = np.empty(ranks.shape, dtype=np.int32)
        np.put_along_axis(order, ranks, positions, axis=1)
        _sort_runs(order, t_tied, t_tie_keys)
        cross_term = _row_dots(z_bracket[order], t_bracket_sorted) / (m * m * m)
        joint_term = _min_kernel_sums(order, surv_z, surv_t_sorted) / (m * m)
        values = n * (joint_term + product_term - 2.0 * cross_term)
        return _clamp_nonnegative(values, "the quadratic closed form")

    return _evaluator(evaluate, cells, t_rank, _CLOSED_FORM_SECONDS * m**1.5)


def _tie_runs(values: np.ndarray):
    """The positions in runs of equal sorted ``values``, and m times each
    one's run start, m = ``values.size``: the keys of ``_sort_runs``."""
    same = values[1:] == values[:-1]
    tied = np.flatnonzero(np.append(same, False) | np.append(False, same))
    return tied, np.maximum.accumulate(np.where(np.append(False, same)[tied], 0, tied)) * values.size


def _sort_runs(rows: np.ndarray, tied: np.ndarray, tie_keys: np.ndarray) -> None:
    """Sort the entries of each row of ``rows``, values below m, within the
    runs of ``_tie_runs``, in place; nothing to do without runs."""
    if tied.size:
        keys = rows[:, tied] + tie_keys
        keys.sort(axis=1)
        rows[:, tied] = keys - tie_keys


def _tile_min_sums(values: np.ndarray, weights: np.ndarray, groups=None) -> np.ndarray:
    """Per row of ``values``, cut into tiles of B = ``weights.shape[1]``:
    the sum over tiles k of sum_{i<j} weights[k, j] min(values[i], values[j]),
    without the pairs of equal ``groups`` if given.  Step d = 1..B/2 pairs
    each position i of every row and tile with (i + d) mod B: the pairs d and
    B - d apart, each formed once (both halves of d = B/2, at half weight).
    Each dot product is one (row, tile)'s, so a row's bits are its own."""
    count, size = weights.shape
    tiles = values.reshape(len(values), count, size)
    ring = np.concatenate([tiles, tiles], axis=2)
    if groups is not None:
        groups = groups.reshape(tiles.shape)
        group_ring = np.concatenate([groups, groups], axis=2)
    out = np.zeros(tiles.shape[:2])
    for d in range(1, size // 2 + 1):
        mins = np.minimum(tiles, ring[..., d : d + size])
        if groups is not None:
            mins *= groups != group_ring[..., d : d + size]
        # Each pair takes its later position's weight: i + d, or i once wrapped.
        w = np.concatenate([weights[:, d:], weights[:, size - d :]], axis=1)
        out += np.vecdot(mins, w / 2 if 2 * d == size else w)
    return out.sum(axis=1)


def _min_kernel_sums(order: np.ndarray, surv_z: np.ndarray, surv_t: np.ndarray) -> np.ndarray:
    """sum_{i,j} min(Z_i, Z_j) min(s_i, s_j) over the records of each row:
    Z = ``surv_z`` in z-order and s = ``surv_t`` in Y order, both
    nonincreasing, and ``order[p, r]`` is the z-position of the record of
    Y rank r.  Blocks of B = isqrt(m) consecutive z-positions and buckets of
    B consecutive Y ranks split the pairs three ways.  Pairs within a block,
    and pairs within a bucket but across blocks, are summed by diagonals of
    tiles of B records (``_tile_min_sums``).  The other pairs take the Z
    of their later block and the s of their higher bucket, so tables of the
    count, Z, Z*s and s per (block, bucket), two exclusive 2-D prefix sums
    and two dot products sum them: O(m^1.5) work and O(m) memory per row.
    Padding records have Z = s = 0.
    """
    rows, m = order.shape
    size = isqrt(m)
    count = -(-m // size)
    padded = count * size
    z = np.pad(surv_z, (0, padded + 1 - m))
    t = np.pad(surv_t, (0, padded - m))
    s = np.zeros((rows, padded))  # in z-order
    np.put_along_axis(s, order, surv_t, axis=1)
    dense = _tile_min_sums(s, z[:padded].reshape(count, size))
    del s
    z_rank = np.pad(order, ((0, 0), (0, padded - m)), constant_values=m)
    z_by_rank = z[z_rank]
    block = np.floor_divide(z_rank, size, out=z_rank)
    dense += _tile_min_sums(z_by_rank, t.reshape(count, size),
                            block.astype(np.min_scalar_type(count)))

    # Tables of (count + 1)^2 cells per row.  The exclusive prefix over lower
    # blocks and lower buckets of cell (k, c) is cell (k, c) of the inclusive
    # prefix sums of a table whose records sit one cell further on both
    # axes; buckets counted down turn lower buckets into higher ones.
    width = count + 1
    cell = block * np.int64(width) + (np.arange(rows) * width * width)[:, None]
    del block, z_rank
    up = np.arange(padded, dtype=np.int32) // size
    shift = width + 1

    def table(keys, weights=None, prefix=False):
        out = np.bincount(keys.ravel(), weights, rows * width * width).reshape(rows, width, width)
        if prefix:
            np.cumsum(out, axis=1, out=out)
            np.cumsum(out, axis=2, out=out)
        return out.reshape(rows, -1)

    # A record's pairs with records of lower blocks weigh its Z*s each if
    # they have lower buckets, and its Z times their s if higher ones.
    lower = table(cell + (up + shift), prefix=True)
    straddle = _row_dots(lower, table(cell + up, (z_by_rank * t).ravel()))
    del lower
    down = count - 1 - up
    higher = table(cell + (down + shift), np.broadcast_to(t, (rows, padded)).ravel(), True)
    straddle += _row_dots(higher, table(cell + down, z_by_rank.ravel()))
    return _row_dots(z_by_rank, t) + 2.0 * (dense + straddle)


# ---------------------------------------------------------------------------
# Absolute (L1) functional


def _prepare_l1(pd: PairedDistances, wx: GaussianWeight, wy: GaussianWeight) -> Evaluator:
    """The absolute functional, sqrt(n)/m^2 * sum_{h,j} dG1(h) dG2(j) |D(h, j)|,
    summed over the cells (see ``_Cells``)."""
    cells = _Cells(pd, wx, wy)
    scale = np.sqrt(pd.n) / cells.m**2
    return _evaluator(lambda codes: scale * cells.sum(codes, squared=False), cells, cells.codes,
                      _CELL_SECONDS * cells.size, cells.large)


# ---------------------------------------------------------------------------
# Supremum functional


def _prepare_sup(pd: PairedDistances) -> Evaluator:
    """Supremum of the absolute discrepancy times sqrt(n) (weight-free).

    The discrepancy is a step function of the two radii, so its supremum is
    attained on the unweighted cell grid (see ``_Cells``).  Counts compare
    actual values (not sort positions), which makes the result invariant to
    tie-breaking and equal to the supremum of the left-continuous rate
    process over all radii.

    The sweep keeps each column's largest |D| over the stops, which gives
    each row's exact maximum K of |D|; a row with K = 0 (as on a
    constant side) is exactly 0.  Otherwise the value reported is the
    largest float deviation |C - (h/m)*cum|, rounded as a float sweep rounds
    it, and it is evaluated only in the columns where |D| reaches K (one per
    row, as a rule).  Its rounding error is below 3*m*2^-53, and distinct
    values of |D| differ by at least 1/m in deviation, so while
    6*m^2 < 2^53 (m below about 3.9e7 pairs) no smaller |D| rounds above
    the largest: the value is bit for bit the float sweep's maximum.
    """
    cells = _Cells(pd)
    m, h = cells.m, cells.stops + 1

    def evaluate(codes: np.ndarray) -> np.ndarray:
        best = np.zeros(len(codes))
        if cells.size == 0:
            return best
        sweep = _sweep(codes, cells)
        peak = np.abs(next(sweep))
        magnitude = np.empty_like(peak)
        for num in sweep:
            np.maximum(peak, np.abs(num, out=magnitude), out=peak)
        k = peak.max(axis=1)[:, None]
        rows, cols = np.nonzero((peak == k) & (k > 0))
        # The float deviations of those columns at every stop, a block's
        # worth of columns at a time.
        for lo in range(0, rows.size, len(codes)):
            r, c = rows[lo : lo + len(codes)], cols[lo : lo + len(codes), None]
            counts = np.cumsum(codes[r] <= c, axis=1)[:, cells.stops]
            dev = np.abs(counts - (h / m) * cells.col_j[c])
            np.maximum.at(best, r, dev.max(axis=1))
        return np.sqrt(pd.n) * best / m

    return _evaluator(evaluate, cells, cells.codes, _CELL_SECONDS * cells.size, cells.large)


# ---------------------------------------------------------------------------
# Entry points


def prepare(pd: PairedDistances, functional: Functional) -> Evaluator:
    """Prepare ``functional`` on ``pd`` for evaluation over many pairings.

    Calibrates the weights from ``pd`` (the integral functionals) and returns
    the evaluator of ``functional``.  It maps a ``(P, m)`` block of pair
    indices, rows rearranging ``range(m)``, to the ``P`` statistics: row p
    pairs ``pd.z[i]`` with ``pd.t[index[p, i]]``; the identity row is ``pd``.
    Its ``permuted`` maps a ``(P, n)`` block of permutations of the
    observations to the same statistics (see ``Evaluator``).  Its
    ``block_rows`` is the most rows a block should hold, and
    ``row_seconds`` the predicted time of one row.
    """
    if functional == Functional.SUP:
        return _prepare_sup(pd)
    if pd.pair_count == 1:
        # A single pair carries no dependence information: both integral
        # statistics are identically zero and the weight is uncalibratable.
        cells = _Cells(pd)
        return _evaluator(lambda codes: np.zeros(len(codes)), cells, cells.codes, 0.0)
    wx = estimate_weight(pd.z)
    wy = estimate_weight(pd.t)
    if functional == Functional.L2:
        return _prepare_l2(pd, wx, wy)
    return _prepare_l1(pd, wx, wy)


def statistic(x, y, spec: StatisticSpec) -> float:
    """Compute the selected statistic between two samples end to end."""
    pd = paired_distances(x, y, spec.metric_x, spec.metric_y)
    return float(prepare(pd, spec.functional)(np.arange(pd.pair_count)[None, :])[0])
