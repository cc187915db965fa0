import re

import numpy as np
import pytest

import recurtest as rt
from recurtest import Functional, InvalidInputError, Metric, StatisticSpec
from recurtest import inference, streams

from oracles import (
    l1_statistic_naive,
    l2_statistic_naive,
    sup_statistic_naive,
    value_block_evaluator,
)

SPEC22 = StatisticSpec(Functional.L2, Metric.L2, Metric.L2)


def gaussian_pair(seed, n=16, d=3):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, d)), rng.standard_normal((n, d))


class TestPermutationTest:
    def test_p_value_on_lattice_and_never_zero(self):
        x, y = gaussian_pair(1)
        for m in (7, 19):
            rep = rt.permutation_test(x, y, SPEC22, m=m, seed=4)
            lattice = np.arange(1, m + 2) / (m + 1)
            assert np.min(np.abs(lattice - rep.p_value)) < 1e-15
            assert rep.p_value > 0

    def test_perfect_dependence_minimal_p(self):
        x, _ = gaussian_pair(2, n=20)
        rep = rt.permutation_test(x, x.copy(), SPEC22, m=99, seed=5)
        assert rep.p_value == pytest.approx(1 / 100)

    def test_determinism(self):
        x, y = gaussian_pair(3)
        a = rt.permutation_test(x, y, SPEC22, m=29, seed=7)
        b = rt.permutation_test(x, y, SPEC22, m=29, seed=7)
        assert a.p_value == b.p_value and a.observed == b.observed
        assert np.array_equal(a.perm_stats, b.perm_stats)

    @pytest.mark.parametrize("functional", list(Functional), ids=lambda f: f.value)
    def test_block_size_does_not_change_result(self, functional, monkeypatch):
        # more than 128 pairs, so row sums span several pairwise-summation blocks
        x, y = gaussian_pair(4, n=24)
        spec = StatisticSpec(functional, Metric.L2, Metric.L1)
        m, pairs = 33, 24 * 23 // 2
        runs = []
        for block in (1, 7, m):
            monkeypatch.setattr(inference, "_BLOCK_ELEMENTS", block * pairs)
            runs.append(rt.permutation_test(x, y, spec, m=m, seed=9))
        for other in runs[1:]:
            assert np.array_equal(runs[0].perm_stats, other.perm_stats)
            assert runs[0].observed == other.observed
            assert runs[0].p_value == other.p_value

    @pytest.mark.parametrize(
        "metric, ties",
        [(Metric.L1, False), (Metric.LINF, True)],
        ids=["continuous-l1", "integer-linf"],
    )
    @pytest.mark.parametrize("functional", list(Functional), ids=lambda f: f.value)
    def test_observed_is_the_statistic_exactly(self, functional, metric, ties):
        # the observed pairing is row 0 of the first block, not a sweep of its own
        x, y = gaussian_pair(14, n=24, d=5)
        y = x**2 + y
        if ties:
            x, y = np.round(2 * x), np.round(y)
        spec = StatisticSpec(functional, metric, metric)
        rep = rt.permutation_test(x, y, spec, m=99, seed=2)
        assert rep.observed == rt.statistic(x, y, spec)

    def test_permuted_stats_match_direct_recomputation(self):
        # the pairing-gather shortcut must equal rebuilding each permuted
        # sample from scratch
        x, y = gaussian_pair(5, n=12)
        rep = rt.permutation_test(x, y, SPEC22, m=10, seed=13)
        for k in range(1, 11):
            perm = streams.substream(13, streams.PERMUTATION, k).permutation(12)
            direct = rt.statistic(x, y[perm], SPEC22)
            assert rep.perm_stats[k - 1] == pytest.approx(direct, rel=1e-12)

    def test_observed_and_report_fields(self):
        x, y = gaussian_pair(6)
        rep = rt.permutation_test(x, y, SPEC22, m=9, seed=3)
        assert rep.observed == pytest.approx(rt.statistic(x, y, SPEC22))
        assert rep.n == 16 and rep.m == 9 and rep.seed == 3
        assert rep.perm_stats.shape == (9,)
        assert rep.elapsed > 0

    def test_invalid_m(self):
        x, y = gaussian_pair(8)
        with pytest.raises(InvalidInputError):
            rt.permutation_test(x, y, SPEC22, m=0, seed=1)

    def test_needs_three_observations(self):
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal((2, 2)), rng.standard_normal((2, 2))
        with pytest.raises(InvalidInputError):
            rt.permutation_test(x, y, SPEC22, m=5, seed=1)

    @pytest.mark.parametrize("ties", [False, True], ids=["continuous", "ties"])
    @pytest.mark.parametrize("functional", list(Functional), ids=lambda f: f.value)
    def test_pair_index_gather_equals_square_matrix_gather(self, functional, ties):
        # Permuted pairs are evaluated by their index into pd0.t; gathering
        # their distances from the square Y-distance matrix and evaluating
        # those values instead must give the same bits.
        for n, seed in ((3, 1), (8, 2), (25, 3)):
            x, y = gaussian_pair(40 + n, n=n, d=4)
            if ties:
                x, y = np.round(x), np.round(2 * y)
            spec = StatisticSpec(functional, Metric.L1, Metric.LINF)
            rep = rt.permutation_test(x, y, spec, m=30, seed=seed)
            pd0 = rt.paired_distances(x, y, Metric.L1, Metric.LINF)
            rows, cols = np.triu_indices(n, 1)
            square = np.zeros((n, n))
            square[rows, cols] = square[cols, rows] = pd0.t
            perms = np.array(
                [streams.substream(seed, streams.PERMUTATION, k).permutation(n) for k in range(1, 31)]
            )
            want = value_block_evaluator(pd0, functional)(square[perms[:, rows], perms[:, cols]])
            assert np.array_equal(rep.perm_stats, want)

    @pytest.mark.parametrize("functional", list(Functional), ids=lambda f: f.value)
    def test_batched_matches_per_permutation_oracle_on_ties(self, functional):
        # integer-valued samples with duplicated rows: many tied and zero distances
        rng = np.random.default_rng(31)
        n = 9
        x = np.round(rng.standard_normal((n, 3)))
        y = np.round(rng.standard_normal((n, 2)))
        x[1] = x[0]
        y[4] = y[3]
        spec = StatisticSpec(functional, Metric.L1, Metric.LINF)
        rep = rt.permutation_test(x, y, spec, m=25, seed=17)
        pd0 = rt.paired_distances(x, y, Metric.L1, Metric.LINF)
        assert np.count_nonzero(pd0.z == 0) and np.count_nonzero(pd0.t == 0)
        wx, wy = rt.estimate_weight(pd0.z), rt.estimate_weight(pd0.t)
        pairs = pd0.pair_count
        for k in range(1, 26):
            perm = streams.substream(17, streams.PERMUTATION, k).permutation(n)
            pd = rt.paired_distances(x, y[perm], Metric.L1, Metric.LINF)
            got = rep.perm_stats[k - 1]
            if functional == Functional.SUP:
                # sqrt(n) k' / pairs^2 for an integer k': the same lattice
                # point, up to how each side rounds the marginal product
                want = sup_statistic_naive(pd)
                lattice = pairs * pairs / np.sqrt(n)
                assert round(got * lattice) == round(want * lattice)
                assert got == pytest.approx(want, rel=1e-14, abs=1e-15)
            elif functional == Functional.L2:
                want = l2_statistic_naive(pd, wx, wy)
                assert got == pytest.approx(want, rel=1e-10, abs=1e-14)
            else:
                want = l1_statistic_naive(pd, wx, wy)
                assert got == pytest.approx(want, rel=1e-10, abs=1e-14)

    @pytest.mark.parametrize("functional", list(Functional), ids=lambda f: f.value)
    def test_minimum_sample_size(self, functional):
        x, y = gaussian_pair(10, n=3)
        spec = StatisticSpec(functional, Metric.L2, Metric.L2)
        rep = rt.permutation_test(x, y, spec, m=19, seed=2)
        assert rep.n == 3 and rep.perm_stats.shape == (19,)
        assert rep.observed == rt.statistic(x, y, spec)
        assert np.min(np.abs(np.arange(1, 21) / 20 - rep.p_value)) < 1e-15

    @pytest.mark.parametrize("functional", [Functional.L1, Functional.L2], ids=lambda f: f.value)
    def test_weight_degenerate_on_one_side(self, functional):
        x, _ = gaussian_pair(11, n=10)
        y = np.ones((10, 2))  # every Y-side distance is zero
        spec = StatisticSpec(functional, Metric.L2, Metric.L2)
        with pytest.raises(rt.DegenerateWeightError):
            rt.permutation_test(x, y, spec, m=19, seed=1)

    def test_works_for_sup_functional(self):
        x, y = gaussian_pair(9, n=10)
        spec = StatisticSpec(Functional.SUP, Metric.L1, Metric.L1)
        rep = rt.permutation_test(x, y, spec, m=19, seed=2)
        assert 0 < rep.p_value <= 1


class TestCriticalValues:
    def test_spec_example_95th(self):
        assert rt.critical_values(np.arange(1.0, 100.0), [0.05]) == [95.0]

    def test_median_position(self):
        assert rt.critical_values([3.0, 1.0, 2.0], [0.5]) == [2.0]

    def test_infeasible_level_names_minimum(self):
        with pytest.raises(InvalidInputError, match="m = 19"):
            rt.critical_values([1.0, 2.0, 3.0], [0.05])
        # At the lattice boundary alpha = 1/(m + 1), and one ulp either side,
        # check_level and critical_values accept or reject together, with m
        # permutations and with one fewer.
        for m in (1, 3, 19, 99, 999):
            edge = 1.0 / (m + 1)
            for alpha in map(float, (np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0))):
                for size in (m - 1, m):
                    stats = np.arange(float(size))
                    try:
                        inference.check_level(alpha, size)
                    except InvalidInputError as err:
                        message = f"^{re.escape(str(err))}$"
                        with pytest.raises(InvalidInputError, match=message):
                            rt.critical_values(stats, [alpha])
                    else:
                        assert rt.critical_values(stats, [alpha]) == [size - 1.0]

    def test_nonincreasing_in_level(self):
        rng = np.random.default_rng(1)
        stats = rng.uniform(size=199)
        cvs = rt.critical_values(stats, [0.01, 0.05, 0.10, 0.25, 1 - 1e-15])
        assert all(a >= b for a, b in zip(cvs, cvs[1:]))
        assert cvs[-1] == stats.min()

    def test_level_bounds(self):
        with pytest.raises(InvalidInputError):
            rt.critical_values([1.0, 2.0], [0.0])

    def test_min_permutations(self):
        assert rt.min_permutations(0.05) == 19
        assert rt.min_permutations(0.04) == 24
        assert rt.min_permutations(0.5) == 1


class TestDependogram:
    def test_pair_count(self):
        rng = np.random.default_rng(2)
        groups = [rng.standard_normal((8, 2)) for _ in range(4)]
        dep = rt.dependogram(groups, SPEC22, m=19, seed=1)
        assert len(dep.entries) == 6

    def test_duplicated_group_rejects(self):
        rng = np.random.default_rng(3)
        base = rng.standard_normal((30, 3))
        groups = [base, base.copy(), rng.standard_normal((30, 3))]
        dep = rt.dependogram(groups, SPEC22, m=199, seed=11, labels=["a", "b", "c"])
        first = dep.entries[0]
        assert (first.label_a, first.label_b) == ("a", "b")
        assert first.rejects[0.05] is True
        assert first.observed > first.critical_values[0.05]

    def test_entry_consistency(self):
        rng = np.random.default_rng(4)
        groups = [rng.standard_normal((12, 2)) for _ in range(3)]
        dep = rt.dependogram(groups, SPEC22, m=39, seed=5, levels=[0.05, 0.10])
        for entry in dep.entries:
            assert entry.critical_values[0.05] >= entry.critical_values[0.10]
            for alpha, flag in entry.rejects.items():
                assert flag == (entry.p_value <= alpha)

    def test_determinism(self):
        rng = np.random.default_rng(5)
        groups = [rng.standard_normal((10, 2)) for _ in range(3)]
        a = rt.dependogram(groups, SPEC22, m=19, seed=9)
        b = rt.dependogram(groups, SPEC22, m=19, seed=9)
        assert [e.observed for e in a.entries] == [e.observed for e in b.entries]
        assert [e.p_value for e in a.entries] == [e.p_value for e in b.entries]

    def test_common_size_required(self):
        rng = np.random.default_rng(6)
        groups = [rng.standard_normal((8, 2)), rng.standard_normal((9, 2))]
        with pytest.raises(InvalidInputError):
            rt.dependogram(groups, SPEC22, m=19, seed=1)

    def test_infeasible_level_rejected_up_front(self):
        rng = np.random.default_rng(7)
        groups = [rng.standard_normal((8, 2)) for _ in range(2)]
        with pytest.raises(InvalidInputError):
            rt.dependogram(groups, SPEC22, m=10, seed=1, levels=[0.05])
