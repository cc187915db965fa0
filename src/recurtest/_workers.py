"""Independent units of work over this process and forked workers.

A unit is ``fn(i)`` for an index ``i``; it must depend only on ``i`` and
what ``fn`` holds (every random draw comes from a stream of its own), so
the results do not depend on how many processes compute them.  The units
are split into contiguous chunks: this process computes the first, and a
forked worker computes each of the others and sends its results back
pickled through a pipe.  The results are put back in index order.  A fork
costs a few milliseconds, which a call of tiny units pays in wall time;
``jobs=1`` keeps such a call in-process.

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
there are several, which already use the processes.

Every process holds one unit's working memory at a time, so the peak memory
of a call grows with the number of processes; ``jobs`` bounds it.
"""

from __future__ import annotations

import numbers
import os
import pickle
import sys
import threading

from .exceptions import InvalidInputError


def worker_count(jobs, units: int) -> int:
    """Number of processes, this one included, that may share ``units``
    units.

    ``jobs=None`` asks for every usable CPU; otherwise ``jobs`` must be a
    positive integer.  The count is clamped to the CPUs this process may run
    on and to ``units``.  It is 1 off Linux, in a daemonic process (such as
    a ``multiprocessing.Pool`` worker, which may not start children) and
    while other threads run.
    """
    if jobs is not None:
        if isinstance(jobs, bool) or not isinstance(jobs, numbers.Integral) or jobs < 1:
            raise InvalidInputError(f"jobs must be a positive integer, got {jobs!r}")
        jobs = int(jobs)
    # A process that never imported multiprocessing is no Pool worker.
    mp = sys.modules.get("multiprocessing")
    if sys.platform != "linux" or threading.active_count() > 1 or (
        mp is not None and mp.current_process().daemon
    ):
        return 1
    cpus = len(os.sched_getaffinity(0))
    return max(1, min(cpus if jobs is None else jobs, cpus, units))


def run_units(fn, count: int, jobs) -> list:
    """``[fn(i) for i in range(count)]``, over up to ``jobs`` processes.

    Units 0 .. count-1 are split into ``worker_count(jobs, count)``
    contiguous chunks: this process computes the first and a forked worker
    each of the others.  The results of ``fn`` must be picklable; ``fn``
    itself, a closure or a ``functools.partial`` alike, need not be.  A
    worker whose unit raises reports only that unit's index; the lowest
    failing index is then run again in this process, so the caller gets the
    very exception a serial run raises, and no exception object has to
    survive pickling.
    """
    workers = worker_count(jobs, count)
    bounds = [count * w // workers for w in range(workers + 1)]
    (lo, hi), *chunks = zip(bounds, bounds[1:])
    children = []
    try:
        for chunk in chunks:
            children.append(_fork_chunk(fn, *chunk))
        # A failure here is the lowest one; the workers are then stopped.
        results = [fn(i) for i in range(lo, hi)]
        done = [_collect(child, *chunk) for child, chunk in zip(children, chunks)]

        for (part, failed), (_, hi) in zip(done, chunks):
            results += part
            if failed is not None:
                # Raises here as in a serial run; should the failure not
                # repeat, the rest of the chunk is computed in-process.
                results += [fn(i) for i in range(failed, hi)]
    finally:
        _stop(children)
    return results


def _run_chunk(fn, lo: int, hi: int):
    """Units ``lo .. hi-1`` in order: ``(results, None)``, or the results
    before the first failing unit and that unit's index."""
    results = []
    for i in range(lo, hi):
        try:
            results.append(fn(i))
        except Exception:  # reported by index; the parent re-raises it
            return results, i
    return results, None


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
    """The chunk result a worker sent, once it has exited and been reaped."""
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
