"""Work spread over every CPU: forked worker processes (``fork_map``) or
threads (``thread_map``).

``fork_map(job, *iterables)`` yields ``job(*args)`` for each ``args`` of
``zip(*iterables)``, in order. With more than one job and more than one CPU
in the process's affinity mask (``cpus``), the jobs run in a pool of at most
one forked worker per CPU; restrict the mask (``taskset``) to restrict the
workers. Forked workers inherit ``job`` and whatever it holds, open file
descriptors too, so only each job's arguments and its result are pickled. The
jobs run in this process instead where ``fork`` is unavailable, or when other
threads are alive: a lock one of them holds would stay locked in the child.
Callers make the result not depend on where or on how many workers the jobs
ran. A worker that dies breaks the pool, and the caller's iteration raises
``BrokenProcessPool``.

Forks serve work that runs Python code, which holds the interpreter lock
(GIL), so threads would take turns at it: the episodic run trains its
episode stacks on them, the CSV writer formats its row blocks and the CSV
reader parses its byte ranges. Text parsing is such work: two ``np.loadtxt``
threads took 1.39 s to read what one read in 1.77 s, and two forked halves
0.94 s. Threads serve work that releases the GIL: the FSCF reader and writer
run one share of record blocks per CPU on them, whose numpy field copies and
casts, ``os.preadv`` and ``os.pwrite`` run outside it, while forking a
~420 MB process with its pool costs ~8-13 ms, a tenth of a 128 MB FSCF load.
``multiprocessing`` and ``concurrent.futures`` are imported when a pool or a
thread share starts, so a call that starts neither does not pay for them.
"""
from __future__ import annotations

import itertools
import os
import threading

_job = None  # set only in a forked pool worker: the job its pool maps


def _adopt(job) -> None:
    global _job
    _job = job


def _adopted(*args):
    return _job(*args)


def cpus() -> int:
    """CPUs this process may run on: its affinity mask, where there is one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def fork_map(job, *iterables):
    """``job(*args)`` for each ``args`` of ``zip(*iterables)``, in order, from
    forked workers where there are several jobs and CPUs (see the module
    docstring). The pool is decided on, and started, at the first ``next``."""
    jobs = list(zip(*iterables))
    workers = min(cpus(), len(jobs))
    if workers > 1 and threading.active_count() == 1:
        import multiprocessing
        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                                     _adopt, (job,)) as pool:
                yield from pool.map(_adopted, *zip(*jobs))
            return
    yield from itertools.starmap(job, jobs)


def thread_map(job, items) -> list:
    """``[job(item) for item in items]``, each job on a thread of its own where
    there are several. Every job ends before any exception is raised, and the
    raised one is that of the first item that failed."""
    if len(items) < 2:
        return [job(item) for item in items]
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(len(items)) as threads:
        futures = [threads.submit(job, item) for item in items]
    return [f.result() for f in futures]
