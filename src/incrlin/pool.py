"""One pool of forked worker processes that maps a job over a list of jobs.

``fork_map(job, *iterables)`` yields ``job(*args)`` for each ``args`` of
``zip(*iterables)``, in order. With more than one job and more than one CPU
in the process's affinity mask (``cpus``), the jobs run in a pool of at most
one forked worker per CPU; restrict the mask (``taskset``) to restrict the
workers. Forked workers inherit ``job`` and whatever it holds, so only each
job's arguments and its result are pickled. The jobs run in this process
instead where ``fork`` is unavailable, or when other threads are alive: a lock
one of them holds would stay locked in the child. Callers make the result not
depend on where or on how many workers the jobs ran. A worker that dies breaks
the pool, and the caller's iteration raises ``BrokenProcessPool``.

The episodic run trains its episode stacks with it, and the CSV codec formats
and parses its row blocks with it.
"""
from __future__ import annotations

import concurrent.futures
import itertools
import multiprocessing
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
    if workers > 1 and threading.active_count() == 1 \
            and "fork" in multiprocessing.get_all_start_methods():
        with concurrent.futures.ProcessPoolExecutor(
                workers, multiprocessing.get_context("fork"), _adopt, (job,)) as pool:
            yield from pool.map(_adopted, *zip(*jobs))
    else:
        yield from itertools.starmap(job, jobs)
