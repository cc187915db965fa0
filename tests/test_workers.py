"""Forked workers: results and errors do not depend on the worker count."""

import multiprocessing
import os
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

import recurtest as rt
from recurtest import _workers, harness, streams
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


@pytest.fixture
def pool_always(monkeypatch):
    """The default jobs starts workers even for units as small as these."""
    monkeypatch.setattr(_workers, "_MIN_POOL_SECONDS", 0.0)


def test_run_power_same_for_every_jobs(pool_always):
    results = [rt.run_power(small_study(), jobs=jobs) for jobs in JOBS]
    first = results[0]
    for other in results[1:]:
        assert np.array_equal(first.p_values, other.p_values)
        assert first.study == other.study
        assert [replace(r, seconds=0.0) for r in first.rows] == [
            replace(r, seconds=0.0) for r in other.rows
        ]


def test_dependogram_same_for_every_jobs(pool_always):
    rng = np.random.default_rng(12)
    base = rng.standard_normal((14, 2))
    groups = [base, base + 0.3 * rng.standard_normal((14, 2))]
    groups += [np.round(rng.standard_normal((14, 2))) for _ in range(3)]
    spec = StatisticSpec(Functional.L1, Metric.L2, Metric.L2)
    deps = [rt.dependogram(groups, spec, m=39, seed=4, jobs=jobs) for jobs in JOBS]
    assert len(deps[0].entries) == 10
    for other in deps[1:]:
        assert other.labels == deps[0].labels
        assert other.entries == deps[0].entries


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
def test_lowest_failing_replication_raises(monkeypatch, pool_always, jobs, reps):
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
    got = _workers.run_units(pid_and_index, (), 5, 2)
    assert [i for _, i in got] == list(range(5))
    assert got[0][0] == os.getpid()  # unit 0 always runs in the caller
    if _workers.worker_count(2, 4) == 2:
        assert {pid for pid, _ in got} - {os.getpid()}


def test_default_jobs_runs_quick_units_in_process():
    # four more units as quick as the first take far below _MIN_POOL_SECONDS
    got = _workers.run_units(pid_and_index, (), 5, None)
    assert got == [(os.getpid(), i) for i in range(5)]


def test_default_jobs_starts_workers_when_they_pay(pool_always):
    got = _workers.run_units(pid_and_index, (), 5, None)
    assert [i for _, i in got] == list(range(5))
    if _workers.worker_count(None, 4) > 1:
        assert {pid for pid, _ in got} - {os.getpid()}


def test_units_need_not_pickle():
    # workers inherit fn and args by forking; only results travel by pipe
    lock = threading.Lock()
    got = _workers.run_units(lambda held, i: (held.locked(), os.getpid(), i), (lock,), 5, 2)
    assert [i for *_, i in got] == list(range(5))


def nested_pids(i):
    return os.getpid(), {pid for pid, _ in _workers.run_units(pid_and_index, (), 4, 2)}


def test_workers_run_nested_units_in_process():
    got = _workers.run_units(nested_pids, (), 4, 2)
    in_workers = [(pid, inner) for pid, inner in got if pid != os.getpid()]
    assert all(inner == {pid} for pid, inner in in_workers)
    if _workers.worker_count(2, 3) == 2:
        assert in_workers


def exit_in_worker(parent, i):
    if os.getpid() != parent:
        os._exit(3)
    return i


def test_dead_worker_raises_and_is_reaped():
    if _workers.worker_count(2, 4) < 2:
        pytest.skip("one usable CPU: no worker starts")
    with pytest.raises(RuntimeError, match=r"worker for units 3\.\.4 exited with code 3"):
        _workers.run_units(exit_in_worker, (os.getpid(),), 5, 2)
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
        _workers.run_units(fail_in_caller, (os.getpid(),), 5, 2)
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
        got = pool.apply_async(_workers.run_units, (pid_and_index, (), 4, 2)).get(timeout=60)
    assert [i for _, i in got] == list(range(4))
    assert len({pid for pid, _ in got}) == 1 and got[0][0] != os.getpid()


@pytest.mark.parametrize("jobs", [0, -1, True, 1.5, "2"])
def test_invalid_jobs_rejected(jobs):
    with pytest.raises(InvalidInputError, match="jobs"):
        rt.run_power(small_study(), jobs=jobs)
    rng = np.random.default_rng(13)
    groups = [rng.standard_normal((8, 2)) for _ in range(3)]
    with pytest.raises(InvalidInputError, match="jobs"):
        rt.dependogram(groups, SPECS[0], m=19, seed=1, jobs=jobs)
