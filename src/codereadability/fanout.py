"""One fork fan-out for independent work items.

``fan_out(work, costs)`` returns ``[work(i) for i in range(len(costs))]``.
It cuts the items into at most ``min(len(costs), available CPUs)``
contiguous runs of about equal cost (see :func:`split_shares`). This
process works the first run itself, with the caller's log handlers in
place, and each later run is a forked process (``os.fork``) that pickles
its results and log records into a pipe. The runs are read back in
order, so the results are the runs' outputs joined, and the log records
reach the handlers in item order. Every item is computed by the same code
on the same inputs, so the output is the serial one, bit for bit.

Each run starts on its own CPU of the caller's affinity mask and may then
migrate (left alone, the kernel often keeps a worker on its parent's CPU
while another idles). Once they are joined, each run logs its item count,
cost, wall and CPU seconds at INFO, so a shared CPU or uneven split shows.

The workers are forked, not spawned: a spawned worker starts a new
interpreter and re-imports numpy and the package, about 0.19 s of set-up
each on a 2-vCPU x86-64 VM, which is more than the work of most calls. A
fork copies the caller's threads' locks but not the threads, so a library
caller that runs threads of its own should not fork: pin it to one CPU
(``taskset -c 0``), and everything runs serially in the caller.

It also runs serially where ``os.sched_getaffinity`` is missing (no safe
fork).
"""

from __future__ import annotations

import logging
import os
import pickle
import signal
import sys
import time
from itertools import accumulate, groupby
from typing import Callable, NoReturn, Sequence, TypeVar

T = TypeVar("T")

# the package logger: the records of every module's logger reach its handlers
_LOGGER = "codereadability"


def split_shares(costs: Sequence[float], count: int) -> list[list[int]]:
    """The items cut into at most ``count`` non-empty contiguous runs, in
    item order, of about equal cost.

    The k-th cut lands at the running-cost boundary nearest k * total /
    count, the earlier one on a tie: an item goes to the run that holds the
    middle of its cost. So no run's cost is further than the largest
    item's cost from total / count. A run whose items all cost 0 joins the
    run before it (the first such run, the run after it), so no process
    works empty items alone. Order comes first: costs [3, 3, 2, 2] split
    6 / 4 in two, where dealing the costliest item to the least-loaded
    share would split them 5 / 5.
    """
    bounds = list(accumulate(costs, initial=0))
    total = bounds[-1]

    def run_of(i: int) -> int:
        if not total:
            return 0
        return min(count - 1, int(count * (bounds[i] + bounds[i + 1]) // (2 * total)))

    runs: list[list[int]] = []
    for _, items in groupby(range(len(costs)), run_of):
        run = list(items)
        if runs and not (any(costs[i] for i in run) and any(costs[i] for i in runs[-1])):
            runs[-1] += run
        else:
            runs.append(run)
    return runs


class _Held(logging.Handler):
    """Keeps the log records of a worker's run."""

    def __init__(self) -> None:
        super().__init__()
        self.records: list[logging.LogRecord] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.records.append(record)


def _place(cpu: int, cpus: list[int]) -> None:
    """Move this process to ``cpu``, then let it run on ``cpus`` again; an
    ``OSError`` skips that step."""
    for mask in ({cpu}, cpus):
        try:
            os.sched_setaffinity(0, mask)
        except OSError:
            pass


def _run_share(work: Callable[[int], T], items: list[int]):
    """``(results, failure, seconds)`` of ``items`` run in order up to the
    first failure: the results of the items that returned, the exception of
    the failing item or None, and the wall and CPU seconds they took."""
    start = time.perf_counter(), time.process_time()
    results: list[T] = []
    failure = None
    for i in items:
        try:
            results.append(work(i))
        except Exception as exc:
            failure = exc
            break
    return results, failure, (time.perf_counter() - start[0], time.process_time() - start[1])


def _flush_std_streams() -> None:
    """Flush stdout and stderr, so no buffered text is written twice by a
    fork or lost by ``os._exit``; a stream that is gone or closed is skipped."""
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, ValueError):
            pass


def _worker(work: Callable[[int], T], items: list[int], cpu: int, cpus: list[int],
            send: int) -> NoReturn:
    """A forked run started on ``cpu``: its results, log records, failure and
    seconds are pickled into the pipe end ``send``. The process then exits
    with 0, with the code of a ``SystemExit`` that escaped the run, or with 1
    after any other escaping exception."""
    code = 1
    try:
        _place(cpu, cpus)
        held = _Held()
        logger = logging.getLogger(_LOGGER)
        logger.handlers, logger.propagate = [held], False
        results, failure, seconds = _run_share(work, items)
        for record in held.records:
            # what the parent's handlers need, without args that may not pickle
            if record.exc_info:
                record.exc_text = logging.Formatter().formatException(record.exc_info)
            record.msg, record.args, record.exc_info = record.getMessage(), None, None
        try:
            data = pickle.dumps((results, held.records, failure, seconds))
        except Exception as exc:  # a result or exception that does not pickle
            data = pickle.dumps(([], [], RuntimeError(
                f"a fan-out worker could not send its results: {exc!r}"), seconds))
        with os.fdopen(send, "wb") as pipe:
            pipe.write(data)
        code = 0
    except SystemExit as exc:
        code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    finally:
        _flush_std_streams()
        os._exit(code)


def fan_out(work: Callable[[int], T], costs: Sequence[float]) -> list[T]:
    """``[work(i) for i in range(len(costs))]``, the items cut by cost into
    contiguous runs, one per process, on ``min(len(costs), available CPUs)``
    processes at most.

    Each run stops at its first failure, and the first failing run's
    exception is raised, as the serial loop would raise it. The records of
    the ``codereadability`` logger reach its handlers in item order, up to
    the failing item: this process's run logs live, and each worker's
    records follow once the runs before it have returned. No worker
    outlives the call.
    """
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else [0]
    runs = split_shares(costs, min(len(costs), len(cpus)))
    if len(runs) <= 1:
        return [work(i) for i in range(len(costs))]
    workers = []  # the pid and the pipe of each forked run, in run order
    reaped = 0  # how many of them have exited and been waited for
    try:
        for cpu, items in zip(cpus[1:], runs[1:]):
            receive, send = os.pipe()
            _flush_std_streams()
            pid = os.fork()
            if pid == 0:
                os.close(receive)
                _worker(work, items, cpu, cpus, send)
            os.close(send)  # so a worker that dies leaves EOF behind
            workers.append((pid, os.fdopen(receive, "rb")))
        _place(cpus[0], cpus)
        results, failure, seconds = _run_share(work, runs[0])
        run_seconds = [seconds]
        logger = logging.getLogger(_LOGGER)
        for pid, pipe in workers:
            if failure is not None:
                break
            data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            reaped += 1
            if code or not data:  # the worker died before it sent everything
                failure = RuntimeError(f"a fan-out worker exited with code {code} "
                                       "before it sent its results")
                break
            done, records, failure, seconds = pickle.loads(data)
            for record in records:
                logger.handle(record)
            results += done
            run_seconds.append(seconds)
    finally:
        # a worker not reaped here is one whose outcome will not be read
        for pid, _ in workers[reaped:]:
            os.kill(pid, signal.SIGTERM)
            os.waitpid(pid, 0)
        for _, pipe in workers:
            pipe.close()
    for n, (items, (wall_s, cpu_s)) in enumerate(zip(runs, run_seconds), 1):
        logger.info("fan-out run %d of %d: items %d, cost %g, wall %.3f s, CPU %.3f s",
                    n, len(runs), len(items), sum(costs[i] for i in items), wall_s, cpu_s)
    if failure is not None:
        raise failure
    return results
