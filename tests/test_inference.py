import re
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import recurtest as rt
from recurtest import Functional, InvalidInputError, Metric, StatisticSpec
from recurtest import _workers, fileio, inference, stats_core, streams

from oracles import (
    l1_statistic_naive,
    l2_statistic_naive,
    pair_index,
    sup_numerator_max,
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
        # More than 128 pairs, so row sums span several pairwise-summation
        # blocks.  Continuous data give large grids, whose sweeps take wide
        # blocks, and rounded data small ones.
        x, y = gaussian_pair(4, n=24, d=5)
        y = x**2 + y
        m = 33
        real = inference.prepare
        for ties in (False, True):
            if ties:
                x, y = np.round(x), np.round(y)
            spec = StatisticSpec(functional, Metric.L1, Metric.L1)
            pd = rt.paired_distances(x, y, Metric.L1, Metric.L1)
            weights = () if functional == Functional.SUP else (rt.estimate_weight(pd.z), rt.estimate_weight(pd.t))
            assert stats_core._Cells(pd, *weights).large != ties
            # All m + 1 rows in one block, then each in its own, then the
            # kernel's own plan and plans between, whose work pays for
            # every process.
            runs = []
            for block_rows in (m + 1, 1, None, 4, 7):
                prepare = real if block_rows is None else (
                    lambda pd, f, rows=block_rows: replace(real(pd, f), block_rows=rows, row_seconds=1.0))
                monkeypatch.setattr(inference, "prepare", prepare)
                runs += [rt.permutation_test(x, y, spec, m=m, seed=9, jobs=jobs) for jobs in (1, 2)]
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
        with pytest.raises(InvalidInputError, match="^permutation count must be >= 1, got 0$"):
            rt.permutation_test(x, y, SPEC22, m=0, seed=1)

    @pytest.mark.parametrize(
        "m, message",
        [(0, "must be >= 1, got 0"), (2.5, "must be a positive integer, got 2.5"),
         (True, "must be a positive integer, got True")],
        ids=["zero", "fraction", "bool"],
    )
    def test_m_must_be_a_positive_integer(self, m, message):
        x, y = gaussian_pair(8)
        for call in (
            lambda: rt.permutation_test(x, y, SPEC22, m=m, seed=1),
            lambda: rt.dependogram([x, y], SPEC22, m=m, seed=1, levels=[0.5]),
        ):
            with pytest.raises(InvalidInputError, match=f"^permutation count {message}$"):
                call()

    def test_numpy_integer_m_accepted(self):
        # A numpy integer seed draws the streams of the same Python integer.
        x, y = gaussian_pair(8)
        rep = rt.permutation_test(x, y, SPEC22, m=np.int64(19), seed=np.int64(1))
        assert type(rep.m) is int and rep.m == 19
        assert type(rep.seed) is int and rep.seed == 1  # the JSON report holds it
        want = rt.permutation_test(x, y, SPEC22, m=19, seed=1)
        assert rep.p_value == want.p_value and rep.perm_stats.tobytes() == want.perm_stats.tobytes()
        dep = rt.dependogram([x, y], SPEC22, m=np.int64(19), seed=np.int64(1))
        assert dep == rt.dependogram([x, y], SPEC22, m=19, seed=1)

    @pytest.mark.parametrize("seed", [1.5, "1", True], ids=["fraction", "text", "bool"])
    def test_seed_must_be_an_integer(self, seed):
        # Each would otherwise draw some integer seed's streams.
        x, y = gaussian_pair(8)
        for call in (
            lambda: rt.permutation_test(x, y, SPEC22, m=19, seed=seed),
            lambda: rt.dependogram([x, y], SPEC22, m=19, seed=seed),
        ):
            with pytest.raises(InvalidInputError, match=f"^seed must be an integer, got {re.escape(repr(seed))}$"):
                call()

    def test_seed_and_jobs_are_checked_before_any_work(self):
        # Two observations would fail the test itself, and two groups of
        # different sizes the dependogram.
        x, y = gaussian_pair(8, n=2)
        for jobs in (1, None):
            with pytest.raises(InvalidInputError, match="^seed must be an integer, got 1.5$"):
                rt.permutation_test(x, y, SPEC22, m=19, seed=1.5, jobs=jobs)
            with pytest.raises(InvalidInputError, match="^seed must be an integer, got 1.5$"):
                rt.dependogram([x, y[:1]], SPEC22, m=19, seed=1.5, jobs=jobs)
        with pytest.raises(InvalidInputError, match="^jobs must be >= 1, got 0$"):
            rt.permutation_test(x, y, SPEC22, m=19, seed=1, jobs=0)
        with pytest.raises(InvalidInputError, match="^jobs must be >= 1, got 0$"):
            rt.dependogram([x, y[:1]], SPEC22, m=19, seed=1, jobs=0)

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

    @pytest.mark.parametrize("constant", ["x", "y"])
    def test_sup_constant_side_is_zero(self, constant):
        # Every numerator is zero, so every statistic is exactly 0.
        x, y = gaussian_pair(12, n=10)
        if constant == "x":
            x = np.ones_like(x)
        else:
            y = np.ones_like(y)
        spec = StatisticSpec(Functional.SUP, Metric.L2, Metric.L2)
        rep = rt.permutation_test(x, y, spec, m=19, seed=1)
        assert rep.observed == 0.0 and rep.p_value == 1.0
        assert np.array_equal(rep.perm_stats, np.zeros(19))

    def test_works_for_sup_functional(self):
        x, y = gaussian_pair(9, n=10)
        spec = StatisticSpec(Functional.SUP, Metric.L1, Metric.L1)
        rep = rt.permutation_test(x, y, spec, m=19, seed=2)
        assert 0 < rep.p_value <= 1


# Observations 2 and 7, and 11 and 15, of a sample of 20 are identical.
SWAPS = ((2, 7), (11, 15))
IDENTICAL_METRICS = [(Metric.L1, Metric.L1), (Metric.L2, Metric.LINF), (Metric.LINF, Metric.L2)]


@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_block_plan_deals_equal_blocks_to_the_processes(cpus, monkeypatch):
    monkeypatch.setattr(_workers.os, "sched_getaffinity", lambda pid: set(range(cpus)))
    for jobs in (1, 2, 3, None):
        for rows in range(1, 40):
            for block_rows in (1, 2, 3, 5, 13, 39, 40):
                # a second per row pays for every process
                plan = SimpleNamespace(block_rows=block_rows, row_seconds=1.0)
                bounds, workers = inference._block_bounds(rows, plan, jobs)
                sizes = np.diff(bounds)
                blocks = len(sizes)
                assert bounds[0] == 0 and bounds[-1] == rows
                assert sizes.min() >= 1 and sizes.max() <= block_rows
                assert sizes[0] - sizes[-1] <= 1 and np.all(np.diff(sizes) <= 0)
                if rows <= block_rows:
                    assert blocks == 1 and workers == 1
                else:
                    # a multiple of the processes while there are rows for
                    # each, and no more blocks than that takes
                    assert workers == _workers.worker_count(jobs, -(-rows // block_rows))
                    assert blocks % workers == 0 or blocks == rows
                    assert blocks < -(-rows // block_rows) + workers
    # m = 100 at n = 30, in blocks of at most 37 rows: three full blocks
    # would be 37, 37 and 27 rows, and two processes would do 74 and 27
    expected = {1: [0, 34, 68, 101], 2: [0, 26, 51, 76, 101], 4: [0, 34, 68, 101]}
    plan = SimpleNamespace(block_rows=37, row_seconds=1.0)
    assert inference._block_bounds(101, plan, None) == (expected[cpus], min(cpus, 3))


@pytest.mark.parametrize("cpus", [2, 4])
def test_block_plan_uses_the_processes_its_work_pays_for(cpus, monkeypatch):
    monkeypatch.setattr(_workers.os, "sched_getaffinity", lambda pid: set(range(cpus)))
    fork = _workers._FORK_SECONDS
    draw = inference._DRAW_SECONDS
    for k in range(1, cpus + 1):
        # k processes pay while k (k - 1) forks cost less than the work:
        # 101 rows of work just above and at that cost.
        work = k * (k - 1) * fork
        above = SimpleNamespace(block_rows=1, row_seconds=work * 1.01 / 101 - draw)
        at = SimpleNamespace(block_rows=1, row_seconds=work / 101 - draw)
        assert inference._block_bounds(101, above, None)[1] == k
        if k > 1:
            assert inference._block_bounds(101, at, None)[1] == k - 1
    # Blocks are not raised to a multiple of one process.
    tiny = SimpleNamespace(block_rows=13, row_seconds=0.0)
    assert inference._block_bounds(101, tiny, None) == ([0, 13, 26, 39, 52, 65, 77, 89, 101], 1)


def benchmark_pair(n, ties, seed=0):
    """X standard normal (n, 100) and Y = X^2 + 3 noise, rounded to
    integers when ``ties``: the inputs of the test benchmarks."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 100))
    y = x**2 + 3.0 * rng.standard_normal((n, 100))
    return (np.round(x), np.round(y)) if ties else (x, y)


def plan_of(x, y, metric, functional, jobs=None):
    pd = rt.paired_distances(x, y, metric, metric)
    return inference._block_bounds(101, stats_core.prepare(pd, functional), jobs)


@pytest.mark.parametrize("functional", list(Functional), ids=lambda f: f.value)
def test_block_plan_depends_only_on_the_sizes(functional):
    # Permuting and rescaling Y keeps the pair count, the stops and the
    # columns, and so the plan; other data of the same shape change them.
    for n, ties, metric in ((12, True, Metric.LINF), (30, False, Metric.L1), (50, True, Metric.LINF)):
        x, y = benchmark_pair(n, ties)
        perm = np.random.default_rng(n).permutation(n)
        evaluate = stats_core.prepare(rt.paired_distances(x, y, metric, metric), functional)
        again = stats_core.prepare(rt.paired_distances(x, 3 * y[perm], metric, metric), functional)
        assert (again.block_rows, again.row_seconds) == (evaluate.block_rows, evaluate.row_seconds)
        for jobs in (1, 2, None):
            assert plan_of(x, 3 * y[perm], metric, functional, jobs) == plan_of(x, y, metric, functional, jobs)


@pytest.mark.parametrize("functional", list(Functional), ids=lambda f: f.value)
def test_tied_benchmark_tests_fork_no_worker(functional, monkeypatch):
    # The tied tests at n = 50 and 100 take a few milliseconds, less than
    # forking a worker saves.
    def fork():
        raise AssertionError("forked")

    monkeypatch.setattr(_workers.os, "fork", fork)
    spec = StatisticSpec(functional, Metric.LINF, Metric.LINF)
    samples = [benchmark_pair(n, ties=True) for n in (50, 100)]
    for x, y in samples:
        rt.permutation_test(x, y, spec, m=100, seed=1)
    for cpus in (2, 4):
        monkeypatch.setattr(_workers.os, "sched_getaffinity", lambda pid, c=cpus: set(range(c)))
        for x, y in samples:
            assert plan_of(x, y, Metric.LINF, functional)[1] == 1


def test_paper_benchmark_tests_keep_two_processes(monkeypatch):
    # The continuous tests at the paper's sizes keep their blocks and share
    # them between two processes.
    monkeypatch.setattr(_workers.os, "sched_getaffinity", lambda pid: {0, 1})
    expected = {
        (30, Functional.L1): [51, 50], (30, Functional.SUP): [51, 50],
        (30, Functional.L2): [26, 25, 25, 25],
        (50, Functional.L1): [26, 25, 25, 25], (50, Functional.SUP): [26, 25, 25, 25],
        (50, Functional.L2): [13] * 5 + [12] * 3,
    }
    for (n, functional), sizes in expected.items():
        x, y = benchmark_pair(n, ties=False)
        bounds, workers = plan_of(x, y, Metric.L1, functional)
        assert (np.diff(bounds).tolist(), workers) == (sizes, 2)


def test_sweeps_over_large_grids_take_wider_blocks():
    x, y = gaussian_pair(4, n=40, d=5)
    for ties in (False, True):
        if ties:
            x, y = np.round(x), np.round(y)
        pd = rt.paired_distances(x, y + x**2, Metric.L1, Metric.L1)
        rows = {f: stats_core.prepare(pd, f).block_rows for f in Functional}
        assert rows[Functional.L2] == max(1, 2**14 // pd.pair_count)
        if ties:
            assert rows[Functional.L1] == rows[Functional.SUP] == rows[Functional.L2]
        else:
            assert rows[Functional.L1] == rows[Functional.SUP] > rows[Functional.L2]


@pytest.mark.parametrize("n", [3, 30, 100])
def test_rows_shuffled_in_place_are_the_drawn_permutations(n):
    # the rows of a block, row 0 included, as each block of rows 0-4 and 5-9 draws them
    draws = streams.Substreams(11, streams.PERMUTATION, ks=range(1, 10))
    got = np.concatenate([inference._permutations(draws, ks, n) for ks in (range(0, 5), range(5, 10))])
    want = [np.arange(n)] + [streams.substream(11, streams.PERMUTATION, k).permutation(n) for k in range(1, 10)]
    assert got.dtype == np.int64 and np.array_equal(got, np.array(want))


def with_identical_rows(rounded, both_sides):
    """X standard normal (20, 3), Y = X^2 + noise, rounded or not, with the
    rows of SWAPS made identical in X, and in Y too when ``both_sides``."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((20, 3))
    y = x**2 + rng.standard_normal((20, 3))
    if rounded:
        x, y = np.round(x), np.round(y)
    for i, j in SWAPS:
        x[j] = x[i]
        if both_sides:
            y[j] = y[i]
    return x, y


def swapped(*swaps):
    perm = np.arange(20)
    for i, j in swaps:
        perm[[i, j]] = perm[[j, i]]
    return perm


def assert_swaps_give_the_observed_statistic(monkeypatch, x, y, functional, metrics, rounded):
    # The pairings that transpose identical rows are the observed one, so
    # each must give its bits, and permutation_test must count every one.
    spec = StatisticSpec(functional, *metrics)
    pd = rt.paired_distances(x, y, *metrics)
    if functional == Functional.L2:
        # rounded data take the cell sum, continuous data the closed form
        cells = stats_core._Cells(pd, rt.estimate_weight(pd.z), rt.estimate_weight(pd.t))
        assert cells.large != rounded
    perms = np.array([swapped(), swapped(SWAPS[0]), swapped(SWAPS[1]), swapped(*SWAPS)])
    stats = stats_core.prepare(pd, functional)(pair_index(pd.n, perms))
    assert np.array_equal(stats, np.full(4, stats[0]))

    class Drawn:  # stands in for the generator of permutation k
        def __init__(self, k):
            self.k = k

        def shuffle(self, row):
            row[:] = perms[1 + self.k % 3]

    monkeypatch.setattr(streams.Substreams, "generator", lambda draws, k: Drawn(k))
    rep = rt.permutation_test(x, y, spec, m=19, seed=1, jobs=1)
    assert rep.observed == stats[0] and rep.p_value == 1.0


@pytest.mark.parametrize("metrics", IDENTICAL_METRICS, ids=lambda ms: "-".join(m.value for m in ms))
@pytest.mark.parametrize("rounded", [False, True], ids=["continuous", "rounded"])
@pytest.mark.parametrize("functional", list(Functional), ids=lambda f: f.value)
def test_swapping_identical_observations_gives_the_observed_statistic(
    monkeypatch, functional, rounded, metrics
):
    x, y = with_identical_rows(rounded, both_sides=True)
    assert_swaps_give_the_observed_statistic(monkeypatch, x, y, functional, metrics, rounded)


@pytest.mark.parametrize("metrics", IDENTICAL_METRICS, ids=lambda ms: "-".join(m.value for m in ms))
@pytest.mark.parametrize(
    "functional, rounded",
    [
        (Functional.L1, False),
        (Functional.L1, True),
        (Functional.SUP, False),
        (Functional.SUP, True),
        (Functional.L2, True),
        (Functional.L2, False),
    ],
    ids=["l1-continuous", "l1-rounded", "sup-continuous", "sup-rounded", "l2-rounded", "l2-continuous"],
)
def test_swapping_identical_x_rows_gives_the_observed_statistic(
    monkeypatch, functional, rounded, metrics
):
    # Only X repeats, so the transposed pairing couples other Y distances
    # with equal X distances: the same statistic, from other inputs.
    x, y = with_identical_rows(rounded, both_sides=False)
    assert_swaps_give_the_observed_statistic(monkeypatch, x, y, functional, metrics, rounded)


SUP_LINF = StatisticSpec(Functional.SUP, Metric.LINF, Metric.LINF)


@pytest.mark.parametrize(
    "seed",
    [0, 1, 2, 3, 4]
    + [
        pytest.param(
            seed,
            marks=pytest.mark.xfail(
                strict=True,
                reason="sup reports a float that rounds differently for pairings of equal K, "
                "so perm_stats >= observed misses permuted statistics tied with the observed one",
            ),
        )
        for seed in (9, 15, 22, 55, 97)
    ],
)
def test_sup_p_value_is_the_exact_lattice_p_value(seed):
    # Integer data under Linf: few distinct distances, and many pairings
    # share the observed maximum K = max |m C - h j|.  The p-value must
    # count exactly the permutations whose K reaches the observed one.  At
    # seeds 55 and 97 the reported p-value (0.04, 0.05) falls below the
    # exact one (0.06, 0.08) and flips the decision at level 0.05.
    rng = np.random.default_rng(seed)
    x = np.round(rng.standard_normal((12, 3)))
    y = np.round(x**2 + rng.standard_normal((12, 3)))
    m = 99
    rep = rt.permutation_test(x, y, SUP_LINF, m=m, seed=seed, jobs=1)
    pd = rt.paired_distances(x, y, Metric.LINF, Metric.LINF)
    perms = np.array(
        [streams.substream(seed, streams.PERMUTATION, k).permutation(12) for k in range(1, m + 1)]
    )
    observed = sup_numerator_max(pd)
    assert rep.observed == pytest.approx(np.sqrt(12) * observed / pd.pair_count**2, rel=1e-14)
    reached = sum(
        sup_numerator_max(rt.PairedDistances(pd.n, pd.z, pd.t[row])) >= observed
        for row in pair_index(pd.n, perms)
    )
    assert rep.p_value == (1 + reached) / (m + 1)


class TestCriticalValues:
    def test_spec_example_95th(self):
        assert rt.critical_values(np.arange(1.0, 100.0), [0.05]) == [95.0]

    def test_median_position(self):
        assert rt.critical_values([3.0, 1.0, 2.0], [0.5]) == [2.0]

    def test_infeasible_level_names_minimum(self):
        with pytest.raises(InvalidInputError, match="m = 19"):
            rt.critical_values([1.0, 2.0, 3.0], [0.05])
        # At the lattice boundary alpha = 1/(m + 1), and one ulp either side,
        # check_levels and critical_values accept or reject together, with m
        # permutations and with one fewer.
        for m in (1, 3, 19, 99, 999):
            edge = 1.0 / (m + 1)
            for alpha in map(float, (np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0))):
                for size in (m - 1, m):
                    stats = np.arange(float(size))
                    try:
                        inference.check_levels([alpha], size)
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

    def test_one_group_rejected(self):
        with pytest.raises(InvalidInputError, match="need at least 2 groups, got 1"):
            rt.dependogram([np.zeros((8, 2))], SPEC22, m=19, seed=1)

    def test_one_label_per_group(self):
        rng = np.random.default_rng(8)
        groups = [rng.standard_normal((8, 2)) for _ in range(3)]
        with pytest.raises(InvalidInputError, match="one label per group required"):
            rt.dependogram(groups, SPEC22, m=19, seed=1, labels=["a", "b"])

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

    @pytest.mark.parametrize(
        "labels, bad",
        [(["a,b", "c", "c"], "a,b"), (["a", "b:c", "d"], "b:c"), (["a", "", "d"], ""),
         (["a", "b", "a"], "a")],
        ids=["comma", "colon", "empty", "repeated"],
    )
    def test_bad_labels_rejected(self, labels, bad):
        # each would break the pair column or the row of the CSV
        groups = [np.random.default_rng(9).standard_normal((8, 2)) for _ in range(3)]
        message = f"^group {re.escape(repr(bad))}: a name must be nonempty, unique and free of ',' and ':'$"
        with pytest.raises(InvalidInputError, match=message):
            rt.dependogram(groups, SPEC22, m=19, seed=1, labels=labels)

    @pytest.mark.parametrize("levels", [(0.1, 0.10), (0.05, 0.1, 0.1000000000000001)])
    def test_levels_sharing_a_name_rejected(self, levels):
        # the CSV would have two columns of one name
        groups = [np.random.default_rng(10).standard_normal((8, 2)) for _ in range(2)]
        with pytest.raises(InvalidInputError, match="^level 0.1 is repeated$"):
            rt.dependogram(groups, SPEC22, m=19, seed=1, levels=levels)

    def test_csv_columns_follow_the_levels(self):
        groups = [np.random.default_rng(12).standard_normal((8, 2)) for _ in range(2)]
        dep = rt.dependogram(groups, SPEC22, m=19, seed=1, levels=[0.2], labels=["a", "b"])
        assert dep.levels == [0.2]
        header, row = fileio.dependogram_to_csv(dep).splitlines()
        assert header == "pair,observed,critical@0.2,reject@0.2"
        assert row.startswith("a:b,") and row.count(",") == 3
