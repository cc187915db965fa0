"""Independent units of work over this process and forked workers.

A unit is ``fn(i)`` for an index ``i``; it must depend only on ``i`` and
what ``fn`` holds (every random draw comes from a stream of its own), so
the results do not depend on how many processes compute them.  The units
are split into contiguous chunks: this process computes the first and
largest, and a forked worker each of the others, whose results it sends
back pickled through a pipe.  The results are put back in index order.  A
fork costs a few milliseconds (``_FORK_SECONDS``), which a call of tiny
units pays in wall time.  A caller that can predict its work passes it to
``worker_count``, which then counts only the processes that the work pays
for, as a permutation test does; ``jobs=1`` keeps any call in-process.

Workers are forked, not spawned: a forked worker starts from the parent's
memory in a few milliseconds and inherits ``fn`` without pickling it, while
a spawned one re-imports the package (about 0.25 s, as long as a whole
short power study).  Forking is unsafe while other threads run, so a
multi-threaded caller runs its units in-process.  A bare ``os.fork`` starts
no helper thread and imports nothing: a ``concurrent.futures`` pool's
threads need the interpreter lock that this process holds while it computes
its own chunk, and its imports add about 1 MB to every caller's peak
memory.

Units that run tests of their own pass them a process budget as an
argument: the caller's ``jobs`` when there is one unit, and ``jobs=1`` when
there are several, which already use the processes.  A power study's units
are per-process shares: ``run_power`` cuts its replications into
``worker_count(jobs, reps)`` contiguous chunks (``chunk_bounds``), and each
process draws its share in generation blocks of replications and tests
them one at a time.

Every process holds one unit's working memory at a time, so the peak memory
of a call grows with the number of processes; ``jobs`` bounds it.  For a
power study that is one generation block of replications, at most
``simulate._BLOCK_VALUES`` counted values, plus one replication's test.
"""

from __future__ import annotations

import math
import os
import pickle
import sys
import threading

from .exceptions import positive_count

# One fork's cost to the caller: forking a worker, and collecting and
# reaping it.  ``run_units`` of two trivial units took 2.6 ms longer with
# two processes than with one (median of 60 alternating pairs, quartiles
# 2.5-2.9 ms, in a process of 38.5 MB peak RSS on a 2-core x86-64 VM).
_FORK_SECONDS = 2.6e-3


def check_jobs(jobs):
    """``jobs`` as a process budget: ``None``, which asks for every usable
    CPU, or a positive integer (see ``positive_count``)."""
    return None if jobs is None else positive_count(jobs, "jobs")


def worker_count(jobs, units: int, seconds: float = math.inf) -> int:
    """Number of processes, this one included, that may share ``units``
    units of ``seconds`` of work in all.

    ``jobs`` is checked by ``check_jobs``.  The count is clamped to the CPUs
    this process may run on, to ``units`` and to the processes the work
    pays for: the caller forks k - 1 workers (``_FORK_SECONDS`` each)
    before it computes its share, so k processes take about
    (k - 1) * ``_FORK_SECONDS`` + ``seconds`` / k.  It is 1 off Linux, in
    a daemonic process (such as a ``multiprocessing.Pool`` worker, which
    may not start children) and while other threads run.
    """
    jobs = check_jobs(jobs)
    # A process that never imported multiprocessing is no Pool worker.
    mp = sys.modules.get("multiprocessing")
    if sys.platform != "linux" or threading.active_count() > 1 or (
        mp is not None and mp.current_process().daemon
    ):
        return 1
    cpus = len(os.sched_getaffinity(0))
    workers = max(1, min(cpus if jobs is None else jobs, cpus, units))
    # k processes take about (k - 1) forks plus seconds / k, which is no
    # shorter than with k - 1 once k (k - 1) forks cost the work or more.
    while workers > 1 and workers * (workers - 1) * _FORK_SECONDS >= seconds:
        workers -= 1
    return workers


def chunk_bounds(count: int, chunks: int) -> list[int]:
    """The bounds of ``count`` units cut into ``chunks`` contiguous chunks,
    larger ones first: chunk c holds units ``bounds[c] .. bounds[c + 1] -
    1``, and the sizes differ by at most one."""
    return [-(-count * c // chunks) for c in range(chunks + 1)]


def run_units(fn, count: int, jobs) -> list:
    """``[fn(i) for i in range(count)]``, over up to ``jobs`` processes.

    Units 0 .. count-1 are split into ``worker_count(jobs, count)``
    contiguous chunks, larger ones first: this process, which starts before
    any worker, computes the first and a forked worker each of the others.
    The results of ``fn`` must be picklable; ``fn`` itself, a closure or a
    ``functools.partial`` alike, need not be.  A worker whose unit raises
    sends only the results before it; the units it did not compute are then
    run in this process, the lowest failing one first, so the caller gets
    the very exception a serial run raises, and no exception object has to
    survive pickling.
    """
    bounds = chunk_bounds(count, worker_count(jobs, count))
    (lo, hi), *chunks = zip(bounds, bounds[1:])
    children = []
    try:
        for chunk in chunks:
            children.append(_fork_chunk(fn, *chunk))
        # A failure here is the lowest one; the workers are then stopped.
        results = [fn(i) for i in range(lo, hi)]
        done = [_collect(child, *chunk) for child, chunk in zip(children, chunks)]

        for part, (start, stop) in zip(done, chunks):
            # The units after a worker's results, from its first failure on,
            # raise here as in a serial run; should the failure not repeat,
            # they are computed in-process.
            results += part + [fn(i) for i in range(start + len(part), stop)]
    finally:
        _stop(children)
    return results


def _run_chunk(fn, lo: int, hi: int) -> list:
    """The results of units ``lo .. hi-1`` in order, up to the first that
    raises."""
    results = []
    for i in range(lo, hi):
        try:
            results.append(fn(i))
        except Exception:  # the parent runs it again and re-raises
            break
    return results


def _fork_chunk(fn, lo: int, hi: int) -> list:
    """Fork a worker that pickles ``_run_chunk(fn, lo, hi)`` into a
    pipe; returns ``[pid, read end]``."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            with open(write_end, "wb") as out:
                pickle.dump(_run_chunk(fn, lo, hi), out, pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            # Never return into the caller's stack, run its exit handlers or
            # flush its buffers.
            os._exit(status)
    os.close(write_end)
    return [pid, read_end]


def _collect(child: list, lo: int, hi: int):
    """The results a worker sent, once it has exited and been reaped."""
    pid, read_end = child
    child[1] = None  # closed when the block ends
    with open(read_end, "rb") as pipe:
        payload = pipe.read()
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    child[0] = None
    if code != 0:
        raise RuntimeError(f"worker for units {lo}..{hi - 1} exited with code {code}")
    return pickle.loads(payload)


def _stop(children) -> None:
    """Kill and reap the workers that ``_collect`` did not reap."""
    import signal  # only on a failure; it costs the cold start about 1 ms

    for pid, read_end in children:
        if read_end is not None:
            os.close(read_end)
        if pid is not None:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
