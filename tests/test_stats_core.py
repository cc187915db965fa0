import numpy as np
import pytest

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
from recurtest.stats_core import _clamp_nonnegative

from oracles import l1_statistic_naive, l2_statistic_naive, sup_statistic_naive

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


def weights_for(pd):
    return rt.estimate_weight(pd.z), rt.estimate_weight(pd.t)


class TestRates:
    def setup_method(self):
        self.pd = rt.paired_distances([0, 1, 3], [0, 2, 3], Metric.L1, Metric.L1)

    def test_rate_hand_count(self):
        assert rt.recurrence_rate(self.pd, "x", 2.5) == pytest.approx(2 / 3)

    def test_rate_zero_radius(self):
        assert rt.recurrence_rate(self.pd, "x", 0.0) == 0.0

    def test_rate_beyond_max(self):
        assert rt.recurrence_rate(self.pd, "x", 100.0) == 1.0

    def test_joint_hand_count(self):
        assert rt.joint_recurrence_rate(self.pd, 2.5, 2.5) == pytest.approx(2 / 3)

    def test_joint_zero(self):
        assert rt.joint_recurrence_rate(self.pd, 0.0, 10.0) == 0.0

    def test_joint_all(self):
        assert rt.joint_recurrence_rate(self.pd, 10.0, 10.0) == 1.0

    def test_empirical_process_hand_value(self):
        got = rt.empirical_process(self.pd, 2.5, 2.5)
        assert got == pytest.approx(2 * np.sqrt(3) / 9, rel=1e-14)

    def test_empirical_process_origin(self):
        assert rt.empirical_process(self.pd, 0.0, 0.0) == 0.0

    def test_single_pair_process_identically_zero(self):
        pd = PairedDistances(n=2, z=np.array([1.3]), t=np.array([0.4]))
        for r in (0.0, 1.0, 2.0, 5.0):
            for s in (0.0, 0.4, 1.0):
                assert rt.empirical_process(pd, r, s) == 0.0

    def test_rate_stabilizes_with_n(self):
        # qualitative large-sample check: replication spread shrinks as n grows
        def spread(n):
            vals = [
                rt.recurrence_rate(random_pairs((77, n, k), n), "x", 2.0)
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
        w = GaussianWeight(1.0, 1.0)
        assert rt.l2_statistic(pd, w, w) == 0.0
        assert rt.l1_statistic(pd, w, w) == 0.0
        assert rt.sup_statistic(pd) == 0.0

    def test_sup_monotone_pairing_example(self):
        pd = PairedDistances(n=3, z=np.array([1.0, 2.0, 3.0]), t=np.array([1.0, 2.0, 3.0]))
        assert rt.sup_statistic(pd) == pytest.approx(np.sqrt(3) * (2 / 3) / 3, rel=1e-14)

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("ties", [False, True])
    def test_fast_matches_naive(self, seed, ties):
        pd = random_pairs((seed, ties), 4 + seed % 6, ties=ties)
        wx, wy = weights_for(pd)
        assert rt.l2_statistic(pd, wx, wy) == pytest.approx(
            l2_statistic_naive(pd, wx, wy), rel=1e-10, abs=1e-14
        )
        assert rt.l1_statistic(pd, wx, wy) == pytest.approx(
            l1_statistic_naive(pd, wx, wy), rel=1e-10, abs=1e-14
        )
        assert rt.sup_statistic(pd) == pytest.approx(
            sup_statistic_naive(pd), rel=1e-12, abs=1e-14
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_tie_shuffling_invariance(self, seed):
        # reordering records permutes tie groups; every statistic is unchanged
        pd = random_pairs(seed, 7, ties=True)
        wx, wy = weights_for(pd)
        rng = np.random.default_rng(seed + 1)
        perm = rng.permutation(pd.pair_count)
        shuffled = PairedDistances(n=pd.n, z=pd.z[perm], t=pd.t[perm])
        assert rt.l2_statistic(shuffled, wx, wy) == pytest.approx(
            rt.l2_statistic(pd, wx, wy), rel=1e-12, abs=1e-15
        )
        assert rt.l1_statistic(shuffled, wx, wy) == pytest.approx(
            rt.l1_statistic(pd, wx, wy), rel=1e-12, abs=1e-15
        )
        assert rt.sup_statistic(shuffled) == pytest.approx(
            rt.sup_statistic(pd), rel=1e-14, abs=1e-15
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_ordered_pair_list_equivalence(self, seed):
        pd = random_pairs(seed, 6 + seed, ties=(seed % 2 == 0))
        dup = PairedDistances(n=pd.n, z=np.tile(pd.z, 2), t=np.tile(pd.t, 2))
        wx, wy = weights_for(pd)
        assert rt.l2_statistic(dup, wx, wy) == pytest.approx(
            rt.l2_statistic(pd, wx, wy), rel=1e-12, abs=1e-15
        )
        assert rt.l1_statistic(dup, wx, wy) == pytest.approx(
            rt.l1_statistic(pd, wx, wy), rel=1e-12, abs=1e-15
        )
        assert rt.sup_statistic(dup) == pytest.approx(
            rt.sup_statistic(pd), rel=1e-12, abs=1e-15
        )

    def test_nonnegative(self):
        for seed in range(12):
            pd = random_pairs(seed + 500, 5)
            wx, wy = weights_for(pd)
            assert rt.l2_statistic(pd, wx, wy) >= 0.0
            assert rt.l1_statistic(pd, wx, wy) >= 0.0
            assert rt.sup_statistic(pd) >= 0.0

    def test_clamp_and_consistency_guard(self):
        assert _clamp_nonnegative(-5e-13, "test") == 0.0
        assert _clamp_nonnegative(0.25, "test") == 0.25
        with pytest.raises(InternalConsistencyError):
            _clamp_nonnegative(-1e-9, "test")


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
