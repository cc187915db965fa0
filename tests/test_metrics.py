import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist

import recurtest as rt
from recurtest import InvalidInputError, Metric

from oracles import distance_naive, joint_recurrence_rate, pair_index, recurrence_rate


def distance(a, b, kind):
    """The distance of two observations: the one pair of their ``paired_distances``."""
    return rt.paired_distances([a, b], [a, b], kind, kind).z[0]


class TestDistance:
    def test_euclidean_345(self):
        assert distance((0, 0), (3, 4), Metric.L2) == 5.0

    def test_manhattan(self):
        assert distance((0, 0), (3, 4), Metric.L1) == 7.0

    def test_chebyshev(self):
        assert distance((0, 0), (3, 4), Metric.LINF) == 4.0

    def test_self_distance_zero(self):
        v = [1.5, -2.0, 3.25]
        for kind in Metric:
            assert distance(v, v, kind) == 0.0

    def test_non_finite_entry(self):
        with pytest.raises(InvalidInputError):
            distance([1, np.nan], [0, 0], Metric.L1)
        with pytest.raises(InvalidInputError):
            distance([0, 0], [np.inf, 0], Metric.LINF)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.floats(-50, 50), min_size=1, max_size=6),
        st.sampled_from(list(Metric)),
        st.randoms(use_true_random=False),
    )
    def test_matches_naive_loop(self, a, kind, rnd):
        b = [rnd.uniform(-50, 50) for _ in a]
        got = distance(a, b, kind)
        want = distance_naive(a, b, kind.value)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        a, b = rng.standard_normal(5), rng.standard_normal(5)
        for kind in Metric:
            assert distance(a, b, kind) == distance(b, a, kind)


class TestEnsureSample:
    def test_1d_promoted_to_column(self):
        s = rt.ensure_sample([1.0, 2.0, 3.0])
        assert s.shape == (3, 1)

    def test_too_few_rows(self):
        with pytest.raises(InvalidInputError):
            rt.ensure_sample([[1.0, 2.0]])

    def test_non_finite(self):
        with pytest.raises(InvalidInputError):
            rt.ensure_sample([[1.0], [np.nan]])

    def test_bad_ndim(self):
        with pytest.raises(InvalidInputError):
            rt.ensure_sample(np.zeros((2, 2, 2)))

    def test_no_columns(self):
        with pytest.raises(InvalidInputError, match="needs at least 1 coordinate"):
            rt.ensure_sample(np.zeros((3, 0)))


def test_unknown_metric_names_the_choices():
    with pytest.raises(InvalidInputError, match=r"^unknown metric 'l3' \(choose from l1, l2, linf\)$"):
        Metric.parse("l3")
    assert Metric.parse(" LINF ") is Metric.LINF


class TestPairedDistances:
    def test_hand_example(self):
        pd = rt.paired_distances([0, 1, 3], [0, 2, 3], Metric.L1, Metric.L1)
        assert pd.n == 3 and pd.pair_count == 3
        assert list(zip(pd.z, pd.t)) == [(1, 2), (3, 3), (2, 1)]

    def test_two_observations_single_record(self):
        pd = rt.paired_distances([[0.0], [2.0]], [[5.0], [1.0]], Metric.L2, Metric.L2)
        assert pd.pair_count == 1
        assert pd.z[0] == 2.0 and pd.t[0] == 4.0

    def test_identical_inputs_give_equal_sides(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((7, 3))
        pd = rt.paired_distances(x, x, Metric.LINF, Metric.LINF)
        assert np.array_equal(pd.z, pd.t)

    def test_size_mismatch(self):
        with pytest.raises(InvalidInputError):
            rt.paired_distances(np.zeros((3, 2)), np.zeros((4, 2)), Metric.L2, Metric.L2)

    @pytest.mark.parametrize(
        "n, z, t, message",
        [
            (1, [1.0], [1.0], "need n >= 2"),
            (3, [1.0, 2.0, 3.0], [1.0, 2.0], "equal positive length"),
            (3, [1.0, np.inf, 3.0], [1.0, 2.0, 3.0], "non-finite"),
        ],
        ids=["one-observation", "shape-mismatch", "non-finite"],
    )
    def test_invalid_structure(self, n, z, t, message):
        with pytest.raises(InvalidInputError, match=message):
            rt.PairedDistances(n=n, z=np.array(z), t=np.array(t))

    @pytest.mark.parametrize("kind", list(Metric))
    def test_overflowing_distances_raise_without_warning(self, kind):
        # |1e308 - (-1e308)| is beyond the float range under every metric.
        x = np.array([[1e308, 0.0], [-1e308, 0.0], [0.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="non-finite values"):
                rt.paired_distances(x, x, kind, kind)

    @pytest.mark.parametrize("n", [2, 3, 9])
    def test_pair_index_matches_square_matrix_lookup(self, n):
        rng = np.random.default_rng(n)
        pd = rt.paired_distances(rng.standard_normal(n), rng.standard_normal(n), Metric.L1, Metric.L1)
        perms = np.array([np.arange(n)] + [rng.permutation(n) for _ in range(6)])
        rows, cols = np.triu_indices(n, 1)
        at = np.zeros((n, n), dtype=int)
        at[rows, cols] = at[cols, rows] = np.arange(rows.size)
        index = pair_index(n, perms)
        assert np.array_equal(index, at[perms[:, rows], perms[:, cols]])
        assert np.array_equal(index[0], np.arange(pd.pair_count))

    def test_row_swap_leaves_multiset(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((6, 2))
        y = rng.standard_normal((6, 3))
        pd = rt.paired_distances(x, y, Metric.L2, Metric.L1)
        perm = rng.permutation(6)
        pd2 = rt.paired_distances(x[perm], y[perm], Metric.L2, Metric.L1)
        recs = sorted(zip(pd.z.tolist(), pd.t.tolist()))
        recs2 = sorted(zip(pd2.z.tolist(), pd2.t.tolist()))
        assert np.allclose(recs, recs2)

    def test_records_recomputable_independently(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((5, 4))
        y = rng.standard_normal((5, 2))
        pd = rt.paired_distances(x, y, Metric.L1, Metric.LINF)
        k = 0
        for i in range(5):
            for j in range(i + 1, 5):
                assert pd.z[k] == pytest.approx(distance_naive(x[i], x[j], "l1"), rel=1e-12)
                assert pd.t[k] == pytest.approx(distance_naive(y[i], y[j], "linf"), rel=1e-12)
                k += 1

    def test_rate_matches_ordered_pair_list(self):
        # duplicating every record (= the ordered-pair list) changes nothing
        rng = np.random.default_rng(6)
        x = rng.standard_normal((8, 2))
        y = rng.standard_normal((8, 2))
        pd = rt.paired_distances(x, y, Metric.L2, Metric.L2)
        dup = rt.PairedDistances(n=8, z=np.tile(pd.z, 2), t=np.tile(pd.t, 2))
        for r in (0.5, 1.0, 2.0):
            assert recurrence_rate(pd, "x", r) == recurrence_rate(dup, "x", r)
        assert joint_recurrence_rate(pd, 1.0, 1.5) == joint_recurrence_rate(dup, 1.0, 1.5)

    @pytest.mark.parametrize("kind", list(Metric))
    @pytest.mark.parametrize("n, d", [(2, 1), (30, 1), (50, 100), (101, 7)])
    def test_matches_pdist(self, kind, n, d):
        name = {Metric.L1: "cityblock", Metric.L2: "euclidean", Metric.LINF: "chebyshev"}[kind]
        rng = np.random.default_rng((n, d))
        x = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-3, 4, (n, 1))
        y = rng.integers(-3, 4, (n, d)).astype(float)  # integer-valued, with equal rows
        pd = rt.paired_distances(x, y, kind, kind)
        assert np.array_equal(pd.t, pdist(y, name))  # exact sums of integers
        if kind is Metric.LINF:
            assert np.array_equal(pd.z, pdist(x, name))
        else:  # summation order may differ in the last bits
            np.testing.assert_allclose(pd.z, pdist(x, name), rtol=4e-15, atol=0.0)

    def test_equal_rows_are_exactly_zero_apart(self):
        x = np.repeat(np.random.default_rng(7).standard_normal((4, 9)) * 1e3 + 1e6, 2, axis=0)
        for kind in Metric:
            pd = rt.paired_distances(x, x, kind, kind)
            pairs = [(i, j) for i in range(8) for j in range(i + 1, 8)]
            twins = [k for k, (i, j) in enumerate(pairs) if j == i + 1 and i % 2 == 0]
            assert np.all(pd.z[twins] == 0.0) and np.all(np.delete(pd.z, twins) > 0.0)

    def test_negative_distance_rejected(self):
        with pytest.raises(InvalidInputError):
            rt.PairedDistances(n=3, z=np.array([1.0, -0.1, 2.0]), t=np.ones(3))
