import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import recurtest as rt
from recurtest import (
    DegenerateWeightError,
    Functional,
    GaussianWeight,
    InternalConsistencyError,
    Metric,
    PairedDistances,
    StatisticSpec,
)
from recurtest import stats_core, streams
from recurtest.stats_core import _clamp_nonnegative, _closed_form_work

from oracles import (
    dominance_closed_form,
    dominance_l2_evaluator,
    empirical_process,
    identity_statistic,
    joint_recurrence_rate,
    l1_statistic_exact,
    l1_statistic_naive,
    l2_statistic_exact,
    l2_statistic_naive,
    min_kernel_literal,
    recurrence_rate,
    sup_float_sweep,
    sup_statistic_naive,
    tile_min_sums_literal,
    value_block_evaluator,
)

SPEC22 = StatisticSpec(Functional.L2, Metric.L2, Metric.L2)


def random_pairs(seed, n, d_x=3, d_y=2, metric_x=Metric.L2, metric_y=Metric.L1, ties=False):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d_x))
    y = rng.standard_normal((n, d_y))
    if ties:
        # rounding forces repeated distance values on both sides
        x = np.round(x, 1)
        y = np.round(y, 1)
    return rt.paired_distances(x, y, metric_x, metric_y)


def pair_index(n, perm):
    """The pair indices of the pairing that permutes Y by ``perm``: pair
    (i, j) of the row-major upper triangle takes the pair (perm[i], perm[j])."""
    rows, cols = np.triu_indices(n, 1)
    at = np.zeros((n, n), dtype=int)
    at[rows, cols] = at[cols, rows] = np.arange(rows.size)
    return at[perm[rows], perm[cols]]


def weights_for(pd):
    return rt.estimate_weight(pd.z), rt.estimate_weight(pd.t)


class TestRates:
    def setup_method(self):
        self.pd = rt.paired_distances([0, 1, 3], [0, 2, 3], Metric.L1, Metric.L1)

    def test_rate_hand_count(self):
        assert recurrence_rate(self.pd, "x", 2.5) == pytest.approx(2 / 3)

    def test_rate_zero_radius(self):
        assert recurrence_rate(self.pd, "x", 0.0) == 0.0

    def test_rate_beyond_max(self):
        assert recurrence_rate(self.pd, "x", 100.0) == 1.0

    def test_joint_hand_count(self):
        assert joint_recurrence_rate(self.pd, 2.5, 2.5) == pytest.approx(2 / 3)

    def test_joint_zero(self):
        assert joint_recurrence_rate(self.pd, 0.0, 10.0) == 0.0

    def test_joint_all(self):
        assert joint_recurrence_rate(self.pd, 10.0, 10.0) == 1.0

    def test_empirical_process_hand_value(self):
        got = empirical_process(self.pd, 2.5, 2.5)
        assert got == pytest.approx(2 * np.sqrt(3) / 9, rel=1e-14)

    def test_empirical_process_origin(self):
        assert empirical_process(self.pd, 0.0, 0.0) == 0.0

    def test_single_pair_process_identically_zero(self):
        pd = PairedDistances(n=2, z=np.array([1.3]), t=np.array([0.4]))
        for r in (0.0, 1.0, 2.0, 5.0):
            for s in (0.0, 0.4, 1.0):
                assert empirical_process(pd, r, s) == 0.0

    def test_rate_stabilizes_with_n(self):
        # qualitative large-sample check: replication spread shrinks as n grows
        def spread(n):
            vals = [
                recurrence_rate(random_pairs((77, n, k), n), "x", 2.0)
                for k in range(60)
            ]
            return np.var(vals)

        assert spread(40) < spread(10)


class TestStructuralIdentities:
    def test_sorted_survival_identity_example(self):
        # G-values (0.2, 0.5, 0.9) -> double sum and odd-weighted sum both 6.2
        g = np.array([0.2, 0.5, 0.9])
        double = sum(g[max(i, j)] for i in range(3) for j in range(3))
        odd = float(np.dot(2.0 * np.arange(1, 4) - 1.0, g))
        assert double == pytest.approx(6.2)
        assert odd == pytest.approx(6.2)

    @pytest.mark.parametrize("seed", range(8))
    def test_sorted_survival_identity_random_with_ties(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 61))
        v = np.sort(np.round(rng.uniform(0, 3, size=m), 1))
        w = GaussianWeight(float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.2, 2.0)))
        g = rt.weight_cdf(w, v)
        double = float(sum(g[max(i, j)] for i in range(m) for j in range(m)))
        odd = float(np.dot(2.0 * np.arange(1, m + 1) - 1.0, g))
        assert double == pytest.approx(odd, abs=1e-12 * m * m)

    @pytest.mark.parametrize("seed", range(4))
    def test_cross_term_factorization(self, seed):
        rng = np.random.default_rng(100 + seed)
        m = int(rng.integers(2, 61))
        z = np.round(rng.uniform(0, 2, size=m), 1)
        t = np.round(rng.uniform(0, 2, size=m), 1)
        f = rt.weight_cdf(GaussianWeight(1.0, 0.7), np.maximum.outer(z, z))
        g = rt.weight_cdf(GaussianWeight(0.9, 0.5), np.maximum.outer(t, t))
        triple = float((f[:, :, None] * g[:, None, :]).sum())
        factored = float(np.dot(f.sum(axis=1), g.sum(axis=1)))
        assert triple == pytest.approx(factored, rel=1e-12)

    def test_count_matrix_example(self):
        # aligned t = (3, 1, 2) against order statistics (1, 2, 3)
        t_aligned = np.array([3.0, 1.0, 2.0])
        t_sorted = np.array([1.0, 2.0, 3.0])
        c = np.cumsum(t_aligned[:, None] < t_sorted[None, 1:], axis=0)
        assert c[0, 0] == 0 and c[0, 1] == 0
        assert c[1, 0] == 1 and c[1, 1] == 1


class TestKernelsSmall:
    def test_single_pair_all_zero(self):
        pd = PairedDistances(n=2, z=np.array([1.0]), t=np.array([2.0]))
        assert identity_statistic(pd, Functional.L2) == 0.0
        assert identity_statistic(pd, Functional.L1) == 0.0
        assert identity_statistic(pd, Functional.SUP) == 0.0

    def test_sup_monotone_pairing_example(self):
        pd = PairedDistances(n=3, z=np.array([1.0, 2.0, 3.0]), t=np.array([1.0, 2.0, 3.0]))
        assert identity_statistic(pd, Functional.SUP) == pytest.approx(
            np.sqrt(3) * (2 / 3) / 3, rel=1e-14
        )

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("ties", [False, True])
    def test_fast_matches_naive(self, seed, ties):
        pd = random_pairs((seed, ties), 4 + seed % 6, ties=ties)
        wx, wy = weights_for(pd)
        assert identity_statistic(pd, Functional.L2) == pytest.approx(
            l2_statistic_naive(pd, wx, wy), rel=1e-10, abs=1e-14
        )
        assert identity_statistic(pd, Functional.L1) == pytest.approx(
            l1_statistic_naive(pd, wx, wy), rel=1e-10, abs=1e-14
        )
        assert identity_statistic(pd, Functional.SUP) == pytest.approx(
            sup_statistic_naive(pd), rel=1e-12, abs=1e-14
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_tie_shuffling_invariance(self, seed):
        # reordering records permutes tie groups; every statistic is unchanged
        pd = random_pairs(seed, 7, ties=True)
        rng = np.random.default_rng(seed + 1)
        perm = rng.permutation(pd.pair_count)
        shuffled = PairedDistances(n=pd.n, z=pd.z[perm], t=pd.t[perm])
        assert identity_statistic(shuffled, Functional.L2) == pytest.approx(
            identity_statistic(pd, Functional.L2), rel=1e-12, abs=1e-15
        )
        assert identity_statistic(shuffled, Functional.L1) == pytest.approx(
            identity_statistic(pd, Functional.L1), rel=1e-12, abs=1e-15
        )
        assert identity_statistic(shuffled, Functional.SUP) == pytest.approx(
            identity_statistic(pd, Functional.SUP), rel=1e-14, abs=1e-15
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_ordered_pair_list_equivalence(self, seed):
        pd = random_pairs(seed, 6 + seed, ties=(seed % 2 == 0))
        dup = PairedDistances(n=pd.n, z=np.tile(pd.z, 2), t=np.tile(pd.t, 2))
        assert identity_statistic(dup, Functional.L2) == pytest.approx(
            identity_statistic(pd, Functional.L2), rel=1e-12, abs=1e-15
        )
        assert identity_statistic(dup, Functional.L1) == pytest.approx(
            identity_statistic(pd, Functional.L1), rel=1e-12, abs=1e-15
        )
        assert identity_statistic(dup, Functional.SUP) == pytest.approx(
            identity_statistic(pd, Functional.SUP), rel=1e-12, abs=1e-15
        )

    def test_nonnegative(self):
        for seed in range(12):
            pd = random_pairs(seed + 500, 5)
            assert identity_statistic(pd, Functional.L2) >= 0.0
            assert identity_statistic(pd, Functional.L1) >= 0.0
            assert identity_statistic(pd, Functional.SUP) >= 0.0

    def test_clamp_and_consistency_guard(self):
        assert _clamp_nonnegative(-5e-13, "test") == 0.0
        assert _clamp_nonnegative(0.25, "test") == 0.25
        with pytest.raises(InternalConsistencyError):
            _clamp_nonnegative(-1e-9, "test")


class TestSpecParsing:
    def test_unknown_functional_names_the_choices(self):
        with pytest.raises(rt.InvalidInputError,
                           match=r"^unknown functional 'cubic' \(choose from l1, l2, sup\)$"):
            Functional.parse("cubic")

    def test_spec_from_names(self):
        assert StatisticSpec.parse(" L2", "linf", "L1 ") == StatisticSpec(
            Functional.L2, Metric.LINF, Metric.L1)

    def test_spec_names_the_bad_choice(self):
        with pytest.raises(rt.InvalidInputError, match="^unknown metric 'l0'"):
            StatisticSpec.parse("sup", "l1", "l0")


class TestStatisticEndToEnd:
    def test_n2_zero_for_every_spec(self):
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal((2, 3)), rng.standard_normal((2, 3))
        for functional in Functional:
            for mx in Metric:
                spec = StatisticSpec(functional, mx, mx)
                assert rt.statistic(x, y, spec) == 0.0

    def test_identical_samples_positive(self):
        rng = np.random.default_rng(21)
        x = rng.standard_normal((6, 3))
        assert rt.statistic(x, x, SPEC22) > 0.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((9, 4))
        y = rng.standard_normal((9, 4))
        for spec in (
            SPEC22,
            StatisticSpec(Functional.L1, Metric.L1, Metric.LINF),
            StatisticSpec(Functional.SUP, Metric.LINF, Metric.L2),
        ):
            base = rt.statistic(x, y, spec)
            for cx in (0.01, 1.0, 100.0):
                for cy in (0.01, 1.0, 100.0):
                    scaled = rt.statistic(cx * x, cy * y, spec)
                    assert scaled == pytest.approx(base, rel=1e-9)

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((8, 2))
        y = rng.standard_normal((8, 5))
        perm = rng.permutation(8)
        for functional in Functional:
            spec = StatisticSpec(functional, Metric.L2, Metric.L1)
            assert rt.statistic(x[perm], y[perm], spec) == pytest.approx(
                rt.statistic(x, y, spec), rel=1e-12
            )

    def test_degenerate_weight_propagates(self):
        x = np.array([[0.0], [1.0], [2.0]])  # constant gaps -> equal distances? no
        const = np.array([[1.0], [1.0], [1.0]])  # all pairwise distances zero
        with pytest.raises(DegenerateWeightError):
            rt.statistic(x, const, SPEC22)

    def test_sup_works_without_weights(self):
        # the supremum statistic needs no weight, so constant side is fine
        x = np.array([[0.0], [1.0], [2.0]])
        const = np.array([[1.0], [1.0], [1.0]])
        spec = StatisticSpec(Functional.SUP, Metric.L1, Metric.L1)
        assert rt.statistic(x, const, spec) == 0.0

    def test_mismatched_sizes(self):
        with pytest.raises(rt.InvalidInputError):
            rt.statistic(np.zeros((3, 1)), np.zeros((4, 1)), SPEC22)


def rounded_pairs(n, scale):
    """Samples rounded at ``scale`` (1 gives integers) under Linf: few
    distinct distances at small scales, nearly all distinct at large ones."""
    rng = np.random.default_rng((n, scale))
    x = rng.standard_normal((n, 5))
    y = x**2 + rng.standard_normal((n, 5))
    return rt.paired_distances(np.round(scale * x), np.round(scale * y), Metric.LINF, Metric.LINF)


ROUNDED_CASES = [(n, scale) for n in (4, 8, 12, 30, 50, 100) for scale in (1, 16, 1000)]


def term_scale(pd, cells):
    """n times the product term of the L2 closed form: the size of each of
    its three terms, whose cancellation bounds the closed form's accuracy."""
    m = pd.pair_count
    odd = 2.0 * np.arange(1, m + 1) - 1.0
    return pd.n * (1.0 - odd @ cells.g1 / m**2) * (1.0 - odd @ cells.g2 / m**2)


class TestL2Evaluators:
    """The cell sum and the closed form of the quadratic functional, each
    called directly rather than through the selection in ``_prepare_l2``."""

    @pytest.mark.parametrize("n, scale", ROUNDED_CASES)
    def test_evaluators_agree(self, n, scale):
        pd = rounded_pairs(n, scale)
        wx, wy = weights_for(pd)
        cells = stats_core._Cells(pd, wx, wy)
        rng = np.random.default_rng(n)
        m = pd.pair_count
        block = np.array([np.arange(m)] + [rng.permutation(m) for _ in range(2)])
        summed = stats_core._l2_cell_sum(cells, pd.n)(block)
        closed = stats_core._l2_closed_form(cells, pd)(block)
        # The closed form cancels its terms down to the statistic, so its
        # error is relative to their size, not to the result.
        tol = 1e-12 * term_scale(pd, cells)
        assert np.all(np.abs(summed - closed) <= tol)
        # The literal sum's own round-off grows with the pair count (2.5e-12
        # of the term scale at 435 pairs), so it checks the small sizes.
        if pd.pair_count <= 100:
            for row, t in enumerate(pd.t[block]):
                naive = l2_statistic_naive(PairedDistances(pd.n, pd.z, t), wx, wy)
                assert abs(summed[row] - naive) <= tol
                assert abs(closed[row] - naive) <= tol

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(3, 300),
        x_values=st.sampled_from([2, 5, 40, None]),
        y_values=st.sampled_from([2, 5, 40, None]),
    )
    def test_closed_form_bits_do_not_depend_on_tied_records(self, seed, m, x_values, y_values):
        # Distances drawn from few values (None: continuous).  Moving records
        # within a class tied on X, on Y or on both gives the same values,
        # so each move must give the bits of the pairing it came from.
        rng = np.random.default_rng(seed)

        def distances(values):
            return rng.integers(1, values + 1, m).astype(float) if values else rng.exponential(size=m)

        pd = PairedDistances(20, distances(x_values), distances(y_values))
        assume(np.ptp(pd.z) > 0 and np.ptp(pd.t) > 0)

        def within(classes):
            # a permutation of 0..m-1 that moves each index within its class
            perm = np.arange(m)
            for value in np.unique(classes):
                members = np.flatnonzero(classes == value)
                perm[members] = rng.permutation(members)
            return perm

        evaluate = stats_core._l2_closed_form(stats_core._Cells(pd, *weights_for(pd)), pd)
        for row in [np.arange(m)] + [rng.permutation(m) for _ in range(3)]:
            on_x, on_y = within(pd.z), within(pd.t)
            moved = np.array([row, row[on_x], on_y[row], on_y[row[on_x]]])
            stats = evaluate(moved)
            assert np.array_equal(stats, np.full(4, stats[0]))

    def test_both_sides_of_the_selection_are_covered(self):
        sides = set()
        for n, scale in ROUNDED_CASES:
            pd = rounded_pairs(n, scale)
            cells = stats_core._Cells(pd, *weights_for(pd))
            sides.add(cells.size <= _closed_form_work(pd.pair_count))
        assert sides == {True, False}

    @pytest.mark.parametrize(
        "ties, n",
        [(True, 50), (True, 100), (False, 30), (False, 50)],
        ids=["ties-50", "ties-100", "continuous-30", "continuous-50"],
    )
    def test_selection(self, monkeypatch, ties, n):
        # Integer samples under Linf take the cell sum; continuous ones under
        # L1 take the closed form, whose preparations are counted.
        calls = []
        real = stats_core._l2_closed_form

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(stats_core, "_l2_closed_form", counted)
        rng = np.random.default_rng(n)
        x = rng.standard_normal((n, 100))
        y = x**2 + 3.0 * rng.standard_normal((n, 100))
        metric = Metric.LINF if ties else Metric.L1
        if ties:
            x, y = np.round(x), np.round(y)
        spec = StatisticSpec(Functional.L2, metric, metric)
        report = rt.permutation_test(x, y, spec, m=20, seed=5, jobs=1)
        assert bool(calls) != ties
        assert report.observed == rt.statistic(x, y, spec)
        # Each permuted statistic, evaluated on its own, gives the same bits
        # and so the same p-value.
        pd = rt.paired_distances(x, y, metric, metric)
        evaluate = stats_core.prepare(pd, Functional.L2)
        perms = [streams.substream(5, streams.PERMUTATION, k).permutation(n) for k in range(1, 21)]
        permuted = [rt.paired_distances(x, y[p], metric, metric) for p in perms]
        assert all(np.array_equal(pd.t[pair_index(n, p)], pdk.t) for p, pdk in zip(perms, permuted))
        own = np.array([evaluate(pair_index(n, p)[None, :])[0] for p in perms])
        assert np.array_equal(report.perm_stats, own)
        assert report.p_value == (1 + np.count_nonzero(own >= report.observed)) / 21
        if ties:
            # and the exact values order the pairings the same way, ties included
            wx, wy = weights_for(pd)
            exact = l2_statistic_exact(pd, wx, wy)
            above = sum(l2_statistic_exact(pdk, wx, wy) >= exact for pdk in permuted)
            assert report.p_value == (1 + above) / 21


def grid_numerators(pd):
    """The largest and smallest m*C - A*B over the grid of distinct values."""
    z_le = pd.z[None, :] <= np.unique(pd.z)[:, None]
    t_le = pd.t[None, :] <= np.unique(pd.t)[:, None]
    joint = z_le.astype(np.int64) @ t_le.T.astype(np.int64)
    num = pd.pair_count * joint - np.outer(z_le.sum(axis=1), t_le.sum(axis=1))
    return int(num.max()), int(num.min())


def in_blocks(evaluate, block, size):
    """``evaluate`` over ``block`` a block of ``size`` rows at a time."""
    return np.concatenate([evaluate(block[i : i + size]) for i in range(0, len(block), size)])


class TestSupIntegerSweep:
    """The supremum sweeps integer numerators and must give the bits of the
    float sweep it replaced (``oracles.sup_float_sweep``)."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(3, 60),
        scale=st.sampled_from([None, 1, 16, 1000]),
    )
    def test_bit_identical_to_float_sweep(self, seed, n, scale):
        # Continuous data under L1, or data rounded at ``scale`` under Linf.
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, 3))
        y = x**2 + rng.standard_normal((n, 3))
        metric = Metric.L1
        if scale is not None:
            x, y, metric = np.round(scale * x), np.round(scale * y), Metric.LINF
        pd = rt.paired_distances(x, y, metric, metric)
        m = pd.pair_count
        block = np.array([np.arange(m)] + [rng.permutation(m) for _ in range(9)])
        want = sup_float_sweep(pd)(pd.t[block])
        evaluate = stats_core.prepare(pd, Functional.SUP)
        for size in (1, 7, len(block)):
            assert np.array_equal(in_blocks(evaluate, block, size), want)

    @pytest.mark.parametrize("scale", [None, 1, 16])
    def test_report_bit_identical_to_float_sweep(self, scale):
        rng = np.random.default_rng(11)
        n = 40
        x = rng.standard_normal((n, 4))
        y = x**2 + rng.standard_normal((n, 4))
        metric = Metric.L1
        if scale is not None:
            x, y, metric = np.round(scale * x), np.round(scale * y), Metric.LINF
        spec = StatisticSpec(Functional.SUP, metric, metric)
        report = rt.permutation_test(x, y, spec, m=30, seed=3, jobs=1)
        perms = [np.arange(n)] + [
            streams.substream(3, streams.PERMUTATION, k).permutation(n) for k in range(1, 31)
        ]
        pd = rt.paired_distances(x, y, metric, metric)
        block = np.array([rt.paired_distances(x, y[p], metric, metric).t for p in perms])
        want = sup_float_sweep(pd)(block)
        assert report.observed == want[0]
        assert np.array_equal(report.perm_stats, want[1:])

    def test_positive_and_negative_extremes_tied(self):
        # Pairings whose largest numerator is minus their smallest: the
        # maximum of |D| is reached with both signs.
        found = 0
        for n in (4, 5, 6, 8):
            rng = np.random.default_rng(n)
            x, y = rng.integers(0, 3, (n, 2)), rng.integers(0, 3, (n, 2))
            pd = rt.paired_distances(x, y, Metric.LINF, Metric.LINF)
            tied = []
            for idx in (rng.permutation(pd.pair_count) for _ in range(50)):
                hi, lo = grid_numerators(PairedDistances(pd.n, pd.z, pd.t[idx]))
                if hi == -lo > 0:
                    tied.append(idx)
            if not tied:
                continue
            found += len(tied)
            tied = np.array(tied)
            want = sup_float_sweep(pd)(pd.t[tied])
            evaluate = stats_core.prepare(pd, Functional.SUP)
            for size in (1, 7, len(tied)):
                assert np.array_equal(in_blocks(evaluate, tied, size), want)
        assert found >= 10

    def test_constant_side(self):
        # Every numerator is zero, so the supremum is exactly 0 either way round.
        rng = np.random.default_rng(4)
        x = rng.standard_normal((30, 2))
        pd = rt.paired_distances(x, np.ones((30, 2)), Metric.L2, Metric.L2)
        flipped = PairedDistances(pd.n, pd.t, pd.z)
        for side in (pd, flipped):
            block = np.array([np.arange(side.pair_count), rng.permutation(side.pair_count)])
            assert np.array_equal(stats_core.prepare(side, Functional.SUP)(block), [0.0, 0.0])
            assert np.array_equal(sup_float_sweep(side)(side.t[block]), [0.0, 0.0])

    def test_independent_pairing_is_zero(self):
        # Two distinct values on each side, cut so that the one cell has
        # h = 45, cum = 22 and C = 15 of m = 66 pairs: D = 66*15 - 45*22 = 0,
        # while the float deviation |15 - (45/66)*22| rounds to 1.8e-15.
        z = np.repeat([1.0, 2.0], [45, 21])
        t = np.repeat([1.0, 2.0, 1.0, 2.0], [15, 30, 7, 14])
        pd = PairedDistances(12, z, t)
        identity = np.arange(pd.pair_count)[None, :]
        assert stats_core.prepare(pd, Functional.SUP)(identity)[0] == 0.0
        assert sup_float_sweep(pd)(pd.t[identity])[0] == 0.0

    @pytest.mark.parametrize("scale", [1, 16, 1000])
    def test_unweighted_grid(self, scale):
        # The supremum's grid: stops at the ends of the runs of equal X
        # distances but the last (h = m), columns at the distinct Y distances
        # but the largest, and each pair's code its Y distance's rank among them.
        pd = rounded_pairs(20, scale)
        cells = stats_core._Cells(pd)
        z_sorted = np.sort(pd.z)
        run_ends = np.append(np.flatnonzero(np.diff(z_sorted) != 0), pd.pair_count - 1)
        assert np.array_equal(cells.stops, run_ends[:-1])
        t_sorted, t_distinct = np.sort(pd.t), np.unique(pd.t)
        assert np.array_equal(t_sorted[cells.col_j - 1], t_distinct[:-1])
        assert np.array_equal(cells.col_j, np.searchsorted(t_sorted, t_distinct[:-1], "right"))
        assert np.array_equal(cells.codes, np.searchsorted(t_distinct, pd.t))

    def test_int64_numerators(self):
        # 305 observations give 46,360 pairs, so m^2 > 2^31 and the sweep's
        # partial sums m*C need int64; few distinct distances keep it cheap.
        n = 305
        rng = np.random.default_rng(305)
        x = rng.integers(0, 4, (n, 2))
        y = np.minimum(x + rng.integers(0, 2, (n, 2)), 4)
        pd = rt.paired_distances(x, y, Metric.LINF, Metric.LINF)
        assert pd.pair_count**2 > 2**31
        cells = stats_core._Cells(pd)
        num = next(stats_core._sweep(cells.codes[None, cells.z_order], cells))
        assert num.dtype == np.int64
        m = pd.pair_count
        block = np.array([np.arange(m)] + [rng.permutation(m) for _ in range(2)])
        want = sup_float_sweep(pd)(pd.t[block])
        assert want[0] > want[1]
        evaluate = stats_core.prepare(pd, Functional.SUP)
        for size in (1, len(block)):
            assert np.array_equal(in_blocks(evaluate, block, size), want)


class TestIndexBlocks:
    """The evaluators take blocks of pair indices and must give the bits of
    the evaluation of re-paired Y distances that they replaced
    (``oracles.value_block_evaluator``)."""

    @staticmethod
    def assert_bit_identical(pd, functional, block):
        want = value_block_evaluator(pd, functional)(pd.t[block])
        evaluate = stats_core.prepare(pd, functional)
        for size in (1, 7, len(block)):
            assert np.array_equal(in_blocks(evaluate, block, size), want)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(3, 45),
        scale=st.sampled_from([None, 1, 16, 1000]),
    )
    def test_bit_identical_to_value_blocks(self, seed, n, scale):
        # Continuous data under L1, or data rounded at ``scale`` under Linf.
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, 3))
        y = x**2 + rng.standard_normal((n, 3))
        metric = Metric.L1
        if scale is not None:
            x, y, metric = np.round(scale * x), np.round(scale * y), Metric.LINF
        pd = rt.paired_distances(x, y, metric, metric)
        m = pd.pair_count
        block = np.array([np.arange(m)] + [rng.permutation(m) for _ in range(9)])
        # A constant side has no weight; only the supremum is defined there.
        weighted = np.ptp(pd.z) > 0 and np.ptp(pd.t) > 0
        for functional in list(Functional) if weighted else [Functional.SUP]:
            self.assert_bit_identical(pd, functional, block)

    @pytest.mark.parametrize("n, scale", ROUNDED_CASES)
    def test_bit_identical_on_rounded_data(self, n, scale):
        # Both quadratic evaluators, the closed form also on tied distances
        # (scale 1000 from n = 30); l1 and sup up to n = 50.
        pd = rounded_pairs(n, scale)
        rng = np.random.default_rng((n, scale, 1))
        m = pd.pair_count
        block = np.array([np.arange(m)] + [rng.permutation(m) for _ in range(9)])
        for functional in Functional:
            if n < 100 or functional == Functional.L2:
                self.assert_bit_identical(pd, functional, block)

    @pytest.mark.parametrize("distinct", [255, 256, 257])
    def test_code_dtype_boundaries(self, distinct):
        # The codes take the narrowest unsigned dtype that holds the count
        # of distinct values (or of kept columns): 255, 256 and 257 distinct
        # Y distances straddle the uint8 / uint16 boundary.
        rng = np.random.default_rng(distinct)
        m = 300
        t = np.concatenate([np.arange(distinct), rng.integers(0, distinct, m - distinct)])
        pd = PairedDistances(25, rng.standard_normal(m) ** 2, rng.permutation(t) + 1.0)
        assert np.unique(pd.t).size == distinct
        block = np.array([np.arange(m)] + [rng.permutation(m) for _ in range(3)])
        for functional in Functional:
            self.assert_bit_identical(pd, functional, block)

    @pytest.mark.parametrize("scale", [None, 1, 1000], ids=["continuous", "int", "tied-closed"])
    def test_layout_does_not_change_bits(self, scale):
        # A C-ordered, a Fortran-ordered, a strided and a reversed view of
        # the same index block give the same bits.
        pd = rounded_pairs(30, scale) if scale else random_pairs(6, 30)
        rng = np.random.default_rng(30)
        m = pd.pair_count
        block = np.array([rng.permutation(m) for _ in range(8)])
        wide = np.zeros((16, 2 * m), dtype=block.dtype)
        wide[::2, ::2] = block
        layouts = [np.asfortranarray(block), wide[::2, ::2], np.flipud(block[::-1].copy())]
        for functional in Functional:
            evaluate = stats_core.prepare(pd, functional)
            want = evaluate(block)
            for layout in layouts:
                assert np.array_equal(layout, block)
                assert np.array_equal(evaluate(layout), want)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(3, 60),
        scale=st.sampled_from([None, 1, 16, 1000, 0]),
    )
    def test_permutations_give_the_bits_of_pair_indices(self, seed, n, scale):
        # Continuous data under L1, data rounded at ``scale`` under Linf, or
        # (scale 0) a constant Y side; blocks of every size and a
        # C-ordered, Fortran-ordered, strided and reversed layout.
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, 3))
        y = x**2 + rng.standard_normal((n, 3))
        metric = Metric.L1
        if scale == 0:
            y = np.ones_like(y)
        elif scale is not None:
            x, y, metric = np.round(scale * x), np.round(scale * y), Metric.LINF
        pd = rt.paired_distances(x, y, metric, metric)
        perms = np.array([np.arange(n)] + [rng.permutation(n) for _ in range(6)])
        index = np.array([pair_index(n, p) for p in perms])
        wide = np.zeros((14, 2 * n), dtype=perms.dtype)
        wide[::2, ::2] = perms
        layouts = [np.asfortranarray(perms), wide[::2, ::2], np.flipud(perms[::-1].copy())]
        # A constant side has no weight; only the supremum is defined there.
        weighted = np.ptp(pd.z) > 0 and np.ptp(pd.t) > 0
        for functional in list(Functional) if weighted else [Functional.SUP]:
            evaluate = stats_core.prepare(pd, functional)
            want = evaluate(index)
            for size in (1, 3, len(perms)):
                assert np.array_equal(in_blocks(evaluate.permuted, perms, size), want)
            for layout in layouts:
                assert np.array_equal(evaluate.permuted(layout), want)

    def test_permutations_need_every_pair_once(self):
        # Doubled pairs have no table of the observations; their pair
        # indices still evaluate.
        pd = random_pairs(3, 8)
        dup = PairedDistances(n=8, z=np.tile(pd.z, 2), t=np.tile(pd.t, 2))
        evaluate = stats_core.prepare(dup, Functional.SUP)
        assert evaluate(np.arange(dup.pair_count)[None, :]).shape == (1,)
        with pytest.raises(rt.InvalidInputError, match="^permutations of 8 observations need their 28 pairs, got 56$"):
            evaluate.permuted(np.arange(8)[None, :])


def probe_data(seed, n, scale, metric, noise=1.0):
    """Y = X^2 + noise * eps in 3 dimensions, rounded at ``scale`` if given."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 3))
    y = x**2 + noise * rng.standard_normal((n, 3))
    if scale is not None:
        x, y = np.round(scale * x), np.round(scale * y)
    return x, y, rt.paired_distances(x, y, metric, metric)


P_VALUE_PROBE = [(n, scale, metric) for n in (12, 20, 30, 50) for scale in (None, 10, 1000)
                 for metric in Metric]


class TestMinKernel:
    """The closed form's joint term as a sum of products of two minima
    (``stats_core._min_kernel_sums``), against the rank dominance sums it
    replaced (``oracles.dominance_closed_form``) and the literal double sum
    (``oracles.min_kernel_literal``)."""

    @staticmethod
    def joint(cells, t_block):
        """The min-kernel sums of the rows of ``t_block``, ordered by their
        values (equal ones in z-order), over m^2."""
        order = np.argsort(t_block[:, cells.z_order], axis=1, kind="stable")
        return stats_core._min_kernel_sums(order, 1.0 - cells.g1, 1.0 - cells.g2) / cells.m**2

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(3, 60),
        scale=st.sampled_from([None, 1, 16, 1000]),
    )
    def test_matches_dominance_oracle(self, seed, n, scale):
        # Continuous data under L1, or data rounded at ``scale`` under Linf.
        metric = Metric.L1 if scale is None else Metric.LINF
        _, _, pd = probe_data(seed, n, scale, metric)
        assume(np.ptp(pd.z) > 0 and np.ptp(pd.t) > 0)
        rng = np.random.default_rng(seed)
        m = pd.pair_count
        block = np.array([np.arange(m)] + [rng.permutation(m) for _ in range(9)])
        cells = stats_core._Cells(pd, *weights_for(pd))
        joint, _ = dominance_closed_form(pd)(pd.t[block])
        assert np.allclose(self.joint(cells, pd.t[block]), joint, rtol=1e-13, atol=0)
        evaluate = stats_core.prepare(pd, Functional.L2)
        got = in_blocks(evaluate, block, len(block))
        for size in (1, 7):
            assert np.array_equal(in_blocks(evaluate, block, size), got)
        assert np.allclose(got, dominance_l2_evaluator(pd)(pd.t[block]), rtol=1e-10, atol=0)

    @pytest.mark.parametrize("n", [3, 5, 8, 12])
    @pytest.mark.parametrize("scale", [None, 1])
    def test_matches_literal_double_sum(self, n, scale):
        metric = Metric.L1 if scale is None else Metric.LINF
        _, _, pd = probe_data((n, scale or 0), n, scale, metric)
        wx, wy = weights_for(pd)
        cells = stats_core._Cells(pd, wx, wy)
        rng = np.random.default_rng(n)
        m = pd.pair_count
        t_block = pd.t[np.array([np.arange(m)] + [rng.permutation(m) for _ in range(5)])]
        s = 1.0 - rt.weight_cdf(wy, t_block[:, cells.z_order])
        want = min_kernel_literal(1.0 - cells.g1, s) / m**2
        assert np.allclose(self.joint(cells, t_block), want, rtol=1e-13, atol=0)

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 3),
        count=st.integers(1, 4),
        size=st.integers(1, 40),
        pad=st.integers(0, 39),
        groups=st.sampled_from([None, "few", "one", "distinct"]),
    )
    def test_tile_sums_match_literal_sum(self, seed, rows, count, size, pad, groups):
        # Tiles of B = size records, the last ``pad`` of them padding zeros
        # (value and weight) as in ``_min_kernel_sums``; values rounded to
        # one digit tie.
        rng = np.random.default_rng(seed)
        padded, pad = count * size, pad % size
        values = np.round(rng.random((rows, padded)), 1)
        weights = rng.random(padded)
        values[:, padded - pad :] = weights[padded - pad :] = 0.0
        weights = weights.reshape(count, size)
        labels = {
            None: None,
            "few": rng.integers(0, 3, (rows, padded), dtype=np.uint8),
            "one": np.zeros((rows, padded), dtype=np.uint8),
            "distinct": np.broadcast_to(np.arange(padded, dtype=np.uint8), (rows, padded)),
        }[groups]
        got = stats_core._tile_min_sums(values, weights, labels)
        want = tile_min_sums_literal(values, weights, labels)
        assert np.allclose(got, want, rtol=1e-13, atol=0)
        if groups == "one":
            assert np.array_equal(got, np.zeros(rows))
        elif groups == "distinct":
            assert np.array_equal(got, stats_core._tile_min_sums(values, weights))

    @pytest.mark.parametrize("n, scale, metric", P_VALUE_PROBE,
                             ids=lambda v: getattr(v, "value", str(v)))
    def test_p_values_match_dominance_oracle(self, n, scale, metric):
        # Four tests of 99 permutations per case, 144 in all: the statistics
        # agree to 1e-10 and so the p-values are those of the earlier kernel.
        for seed in range(4):
            x, y, pd = probe_data((n, scale or 0, seed), n, scale, metric, noise=2.0)
            spec = StatisticSpec(Functional.L2, metric, metric)
            report = rt.permutation_test(x, y, spec, m=99, seed=seed, jobs=1)
            perms = [np.arange(n)] + [
                streams.substream(seed, streams.PERMUTATION, k).permutation(n) for k in range(1, 100)
            ]
            want = dominance_l2_evaluator(pd)(pd.t[np.array([pair_index(n, p) for p in perms])])
            got = np.append(report.observed, report.perm_stats)
            assert np.allclose(got, want, rtol=1e-10, atol=0)
            assert report.p_value == (1 + np.count_nonzero(want[1:] >= want[0])) / 100


class TestCellSumExact:
    """The integral functionals against their rational cell sums, built from
    the same float weight-CDF values."""

    @pytest.mark.parametrize("n", [3, 5, 8, 12])
    @pytest.mark.parametrize("scale", [None, 1])
    def test_within_1e12_of_rationals(self, n, scale):
        rng = np.random.default_rng((n, scale or 0))
        x = rng.standard_normal((n, 3))
        y = x**2 + rng.standard_normal((n, 3))
        metric = Metric.L1
        if scale is not None:
            x, y, metric = np.round(2 * x), np.round(2 * y), Metric.LINF
        pd = rt.paired_distances(x, y, metric, metric)
        wx, wy = weights_for(pd)
        cells = stats_core._Cells(pd, wx, wy)
        m = pd.pair_count
        block = np.array([np.arange(m)] + [rng.permutation(m) for _ in range(3)])
        l1 = stats_core._prepare_l1(pd, wx, wy)(block)
        l2 = stats_core._l2_cell_sum(cells, pd.n)(block)
        for row, t in enumerate(pd.t[block]):
            pdr = PairedDistances(pd.n, pd.z, t)
            assert l1[row] == pytest.approx(l1_statistic_exact(pdr, wx, wy), rel=1e-12, abs=0)
            assert l2[row] == pytest.approx(float(l2_statistic_exact(pdr, wx, wy)), rel=1e-12, abs=0)


def run_fresh(code: str, env_update=None) -> str:
    """Run ``code`` in a fresh interpreter that imports this recurtest and
    return its stdout."""
    src = str(Path(rt.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    env.pop("OPENBLAS_NUM_THREADS", None)
    env.update(env_update or {})
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_bits_do_not_depend_on_blas_threads():
    # The kernels' row sums are dot products: a fresh interpreter limited to
    # one BLAS thread must give the bits of this process.  The l1 row of
    # n = 150 has 11,175 columns, more than a BLAS shares among threads, and
    # so do the l2 closed form's cross term and (block, bucket) tables there.
    code = (
        "import numpy as np, recurtest as rt\n"
        "rng = np.random.default_rng(9)\n"
        "out = []\n"
        "for n, f in [(20, 'sup'), (20, 'l1'), (20, 'l2'), (150, 'l1')]:\n"
        "    x = rng.standard_normal((n, 4)); y = x**2 + rng.standard_normal((n, 4))\n"
        "    spec = rt.StatisticSpec(rt.Functional(f), rt.Metric.L1, rt.Metric.L1)\n"
        "    out.append(rt.statistic(x, y, spec))\n"
        "x = np.round(rng.standard_normal((40, 4))); y = np.round(x**2 + rng.standard_normal((40, 4)))\n"
        "spec = rt.StatisticSpec(rt.Functional.L2, rt.Metric.LINF, rt.Metric.LINF)\n"
        "report = rt.permutation_test(x, y, spec, m=20, seed=1, jobs=1)\n"
        "out += [report.observed, *report.perm_stats]\n"
        "x = rng.standard_normal((150, 4)); y = x**2 + rng.standard_normal((150, 4))\n"
        "spec = rt.StatisticSpec(rt.Functional.L2, rt.Metric.L1, rt.Metric.L1)\n"
        "report = rt.permutation_test(x, y, spec, m=3, seed=2, jobs=1)\n"
        "out += [report.observed, *report.perm_stats]\n"
        "print(np.array(out).tobytes().hex())\n"
    )
    assert run_fresh(code, {"OPENBLAS_NUM_THREADS": "1"}) == run_fresh(code)


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM of /proc")
def test_l2_closed_form_memory():
    # One closed-form row at n = 400 (79,800 pairs) keeps the peak resident
    # memory of a fresh interpreter under 120 MB: its working state is
    # O(m), with no table of B floats per pair.  The child reads its own
    # high-water mark, since Linux folds the peak of the process that
    # started it into its ru_maxrss.
    code = (
        "import numpy as np, recurtest as rt\n"
        "rng = np.random.default_rng(400)\n"
        "x = rng.standard_normal((400, 4)); y = x**2 + rng.standard_normal((400, 4))\n"
        "spec = rt.StatisticSpec(rt.Functional.L2, rt.Metric.L1, rt.Metric.L1)\n"
        "assert rt.statistic(x, y, spec) > 0\n"
        "with open('/proc/self/status') as status:\n"
        "    print(next(int(line.split()[1]) for line in status if line.startswith('VmHWM:')))\n"
    )
    assert int(run_fresh(code)) / 1024 < 120.0
