"""Forked workers: results and errors do not depend on the worker count."""

import multiprocessing
import os
import sys
import threading
import time
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

import recurtest as rt
from recurtest import _workers, harness, inference, streams
from recurtest import Functional, InvalidInputError, Metric, ScenarioConfig, StatisticSpec

SPECS = (
    StatisticSpec(Functional.L2, Metric.L1, Metric.L1),
    StatisticSpec(Functional.SUP, Metric.L2, Metric.LINF),
)
JOBS = (1, 2, None)


def small_study(**overrides):
    kwargs = dict(
        scenario=ScenarioConfig(scenario="D3", n=10, length=6, phi=(0.1,), seed=0),
        specs=SPECS,
        reps=12,
        m=19,
        alpha=0.05,
        seed=8,
    )
    kwargs.update(overrides)
    return rt.PowerStudySpec(**kwargs)


def pid_and_index(i):
    return os.getpid(), i


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_run_power_same_for_every_jobs():
    # 12 replications make 12 units; one makes one, whose tests get the jobs
    for reps in (12, 1):
        results = [rt.run_power(small_study(reps=reps), jobs=jobs) for jobs in JOBS]
        first = results[0]
        for other in results[1:]:
            assert np.array_equal(first.p_values, other.p_values)
            assert first.study == other.study
            assert [replace(r, seconds=0.0) for r in first.rows] == [
                replace(r, seconds=0.0) for r in other.rows
            ]


def test_dependogram_same_for_every_jobs():
    rng = np.random.default_rng(12)
    base = rng.standard_normal((14, 2))
    groups = [base, base + 0.3 * rng.standard_normal((14, 2))]
    groups += [np.round(rng.standard_normal((14, 2))) for _ in range(3)]
    spec = StatisticSpec(Functional.L1, Metric.L2, Metric.L2)
    # five groups make 10 units; two make one, whose test gets the jobs
    for inputs, pairs in ((groups, 10), (groups[:2], 1)):
        deps = [rt.dependogram(inputs, spec, m=39, seed=4, jobs=jobs) for jobs in JOBS]
        assert len(deps[0].entries) == pairs
        for other in deps[1:]:
            assert other.labels == deps[0].labels
            assert other.entries == deps[0].entries


def sample_pair(ties, n=10):
    rng = np.random.default_rng(21)
    x = rng.standard_normal((n, 3))
    y = x**2 + rng.standard_normal((n, 3))
    return (np.round(x), np.round(y)) if ties else (x, y)


@pytest.fixture
def blocks_of_4(monkeypatch):
    """Permutation tests take blocks of at most 4 of their m + 1 rows, so a
    small m makes several units, and a second per row, so that their work
    pays for every process."""
    real = inference.prepare
    monkeypatch.setattr(
        inference, "prepare", lambda pd, f: replace(real(pd, f), block_rows=4, row_seconds=1.0))


@pytest.mark.parametrize("ties", [False, True], ids=["continuous", "ties"])
@pytest.mark.parametrize("functional", list(Functional), ids=lambda f: f.value)
def test_permutation_test_same_for_every_jobs(blocks_of_4, functional, ties):
    x, y = sample_pair(ties)
    spec = StatisticSpec(functional, Metric.L1, Metric.LINF)
    # one row of the observed pairing plus m: one part-filled block, one
    # full block, then 12 and 14 rows dealt evenly to the processes
    for m in (1, 3, 11, 13):
        reports = [rt.permutation_test(x, y, spec, m, seed=6, jobs=jobs) for jobs in JOBS]
        for other in reports:
            assert other.perm_stats.shape == (m,)
            assert np.array_equal(other.perm_stats, reports[0].perm_stats)
            assert other.observed == reports[0].observed == rt.statistic(x, y, spec)
            assert other.p_value == reports[0].p_value


class PermutationFailure(Exception):
    pass


# With 2 processes and m = 13, rows 0-7 (blocks 0 and 1) run in the caller
# and rows 8-13 in a worker.
@pytest.mark.parametrize("ks", [(5, 9), (9, 13)], ids=["caller-first", "worker-only"])
@pytest.mark.parametrize("jobs", JOBS)
def test_lowest_failing_block_raises(monkeypatch, blocks_of_4, jobs, ks):
    real = streams.substream

    def substream(seed, *path):
        if path[0] == streams.PERMUTATION and path[1] in ks:
            raise PermutationFailure(f"permutation {path[1]} broke")
        return real(seed, *path)

    monkeypatch.setattr(streams, "substream", substream)
    x, y = sample_pair(ties=False)
    with pytest.raises(PermutationFailure, match=f"^permutation {ks[0]} broke$"):
        rt.permutation_test(x, y, SPECS[0], 13, seed=2, jobs=jobs)


def test_nested_tests_never_fork(blocks_of_4, monkeypatch, tmp_path):
    # Every fork, in this process or a worker, logs the pid that made it.
    log = tmp_path / "forks"
    log.touch()
    real = os.fork

    def fork():
        with open(log, "a") as out:
            out.write(f"{os.getpid()}\n")
        return real()

    monkeypatch.setattr(_workers.os, "fork", fork)
    # A test of 10 rows and m = 3 is one block, which runs here; with
    # m = 19 its 20 rows need 5 blocks, so on its own it forks for every
    # process but this one.
    x, y = sample_pair(ties=False)
    rt.permutation_test(x, y, SPECS[0], 3, seed=3)
    assert log.read_text() == ""
    rt.permutation_test(x, y, SPECS[0], 19, seed=3)
    per_test = [str(os.getpid())] * (_workers.worker_count(None, 5) - 1)
    assert log.read_text().split() == per_test
    # A call of one unit gives its tests its jobs, so each forks as on its
    # own: one replication tests both SPECS, two groups make one pair.
    rt.run_power(small_study(reps=1))
    rt.dependogram([x, y], SPECS[0], m=19, seed=3)
    assert log.read_text().split() == 4 * per_test
    # The tests of these 12 replications and 6 group pairs are as large, but
    # only the calls fork, for their own units.
    log.write_text("")
    rt.run_power(small_study())
    rt.dependogram([x, y, x + y, x - y], SPECS[0], m=19, seed=3)
    outer = _workers.worker_count(None, 12) - 1 + _workers.worker_count(None, 6) - 1
    assert log.read_text().split() == [str(os.getpid())] * outer


def test_jobs_one_starts_no_process(blocks_of_4, monkeypatch):
    def fork():
        raise AssertionError("forked")

    monkeypatch.setattr(_workers.os, "fork", fork)
    x, y = sample_pair(ties=False)
    rt.permutation_test(x, y, SPECS[1], 19, seed=3, jobs=1)
    rt.run_power(small_study(), jobs=1)
    rt.run_power(small_study(reps=1), jobs=1)
    rt.dependogram([x, y, x + y], SPECS[0], m=19, seed=3, jobs=1)
    rt.dependogram([x, y], SPECS[0], m=19, seed=3, jobs=1)


class RepFailure(Exception):
    """Takes two arguments, so the one-message copy that run_power raises
    could not be rebuilt from a pickle: no exception may cross a process
    boundary."""

    def __init__(self, rep, detail):
        super().__init__(rep, detail)
        self.rep = rep


# With 2 processes, reps 0-5 run in the caller and reps 6-11 in a worker.
@pytest.mark.parametrize("reps", [(3, 7), (7, 9)], ids=["caller-first", "worker-only"])
@pytest.mark.parametrize("jobs", JOBS)
def test_lowest_failing_replication_raises(monkeypatch, jobs, reps):
    study = small_study()
    failing = {streams.derive_seed(study.seed, streams.POWER_REP, k, 0): k for k in reps}
    real = harness.gen_scenario

    def gen_scenario(cfg):
        if cfg.seed in failing:
            raise RepFailure(failing[cfg.seed], "generator broke")
        return real(cfg)

    monkeypatch.setattr(harness, "gen_scenario", gen_scenario)
    with pytest.raises(RepFailure) as info:
        rt.run_power(study, jobs=jobs)
    assert str(info.value).startswith(f"power replication {reps[0]} failed: ")
    assert info.value.rep == reps[0]
    assert isinstance(info.value.__cause__, RepFailure)


def test_failing_replication_keeps_invalid_input_type():
    # n = 2 fails inside every replication; the CLI maps this type to exit 2
    study = small_study(scenario=ScenarioConfig(scenario="null", n=2, length=3))
    with pytest.raises(InvalidInputError, match="^power replication 0 failed: "):
        rt.run_power(study, jobs=2)


def test_units_come_back_in_order_from_workers():
    got = _workers.run_units(pid_and_index, 5, 2)
    assert [i for _, i in got] == list(range(5))
    assert got[0][0] == os.getpid()  # unit 0 always runs in the caller
    if _workers.worker_count(2, 5) > 1:
        assert {pid for pid, _ in got} - {os.getpid()}


def test_default_jobs_starts_workers_when_they_pay():
    # however quick the units, the default jobs forks once there are two
    got = _workers.run_units(pid_and_index, 5, None)
    assert [i for _, i in got] == list(range(5))
    assert got[0][0] == os.getpid()
    if _workers.worker_count(None, 5) > 1:
        assert {pid for pid, _ in got} - {os.getpid()}


def test_units_need_not_pickle():
    # workers inherit fn by forking; only results travel by pipe
    lock = threading.Lock()
    got = _workers.run_units(lambda i: (lock.locked(), os.getpid(), i), 5, 2)
    assert [i for *_, i in got] == list(range(5))


@pytest.mark.parametrize("count", [3, 5])
def test_caller_computes_the_larger_share(count):
    # a worker starts late, so the caller takes units 0 .. ceil(count/2) - 1
    if _workers.worker_count(2, count) < 2:
        pytest.skip("one usable CPU: no worker starts")
    got = _workers.run_units(pid_and_index, count, 2)
    assert [i for pid, i in got if pid == os.getpid()] == list(range(-(-count // 2)))


def exit_in_worker(parent, i):
    if os.getpid() != parent:
        os._exit(3)
    return i


def test_dead_worker_raises_and_is_reaped():
    if _workers.worker_count(2, 5) < 2:
        pytest.skip("one usable CPU: no worker starts")
    with pytest.raises(RuntimeError, match=r"worker for units 3\.\.4 exited with code 3"):
        _workers.run_units(partial(exit_in_worker, os.getpid()), 5, 2)
    assert_no_child_left()


def fail_in_caller(parent, i):
    if os.getpid() != parent:
        time.sleep(60)
    elif i == 1:
        raise RepFailure(i, "caller broke")
    return i


def test_caller_failure_stops_workers():
    start = time.perf_counter()
    with pytest.raises(RepFailure):
        _workers.run_units(partial(fail_in_caller, os.getpid()), 5, 2)
    assert time.perf_counter() - start < 30  # the sleeping worker was killed
    assert_no_child_left()


@pytest.mark.skipif(sys.platform != "linux", reason="no worker processes off Linux")
def test_worker_count_clamps_without_starting_processes(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    assert _workers.worker_count(10**6, 50) == 3
    assert _workers.worker_count(None, 50) == 3
    assert _workers.worker_count(None, 2) == 2
    assert _workers.worker_count(2, 50) == 2
    assert _workers.worker_count(1, 50) == 1
    assert _workers.worker_count(np.int64(2), 50) == 2


def test_worker_count_is_one_while_other_threads_run():
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(30,))
    thread.start()
    try:
        assert _workers.worker_count(None, 50) == 1
    finally:
        release.set()
        thread.join(timeout=30)
    assert not thread.is_alive()


def test_daemonic_caller_runs_in_process():
    # A Pool worker may not start children: the units run in that worker.
    with multiprocessing.get_context("fork").Pool(1) as pool:
        got = pool.apply_async(_workers.run_units, (pid_and_index, 4, 2)).get(timeout=60)
    assert [i for _, i in got] == list(range(4))
    assert len({pid for pid, _ in got}) == 1 and got[0][0] != os.getpid()


def fail_in_worker(parent, i):
    if os.getpid() != parent and i == 4:
        raise RepFailure(i, "worker broke")
    return os.getpid(), i


def test_failure_only_in_a_worker_is_computed_here():
    # With 2 processes the worker has units 3-5.  Unit 4 raises there but
    # not in the caller, which then computes units 4 and 5 itself.
    if _workers.worker_count(2, 6) < 2:
        pytest.skip("one usable CPU: no worker starts")
    got = _workers.run_units(partial(fail_in_worker, os.getpid()), 6, 2)
    assert [i for _, i in got] == list(range(6))
    pids = [pid for pid, _ in got]
    assert pids[3] != os.getpid() and pids[:3] + pids[4:] == [os.getpid()] * 5
    assert_no_child_left()


@pytest.mark.parametrize("jobs", [0, -1, True, 1.5, "2"])
def test_invalid_jobs_rejected(jobs):
    with pytest.raises(InvalidInputError, match="jobs"):
        rt.run_power(small_study(), jobs=jobs)
    rng = np.random.default_rng(13)
    groups = [rng.standard_normal((8, 2)) for _ in range(3)]
    with pytest.raises(InvalidInputError, match="jobs"):
        rt.dependogram(groups, SPECS[0], m=19, seed=1, jobs=jobs)
    with pytest.raises(InvalidInputError, match="jobs"):
        rt.permutation_test(*groups[:2], SPECS[0], 19, seed=1, jobs=jobs)
