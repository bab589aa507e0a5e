"""One fork fan-out for independent work items.

``fan_out(work, costs)`` returns ``[work(i) for i in range(len(costs))]``.
It cuts the items into at most ``min(len(costs), available CPUs)``
contiguous runs of about equal cost (see :func:`split_shares`). This
process works the first run itself, with the caller's log handlers in
place, and each later run is a forked daemonic process that sends its
results and log records back over a pipe. The runs are read back in
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
fork) and in a daemonic process, which may not have children.
"""

from __future__ import annotations

import logging
# the fork stack is imported with the package, not on the first fan-out,
# so a command's set-up shows what its run would otherwise pay
import multiprocessing
import multiprocessing.connection
import multiprocessing.popen_fork
import os
import time
from itertools import accumulate, groupby
from typing import Callable, Sequence, TypeVar

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


def _worker(work: Callable[[int], T], items: list[int], cpu: int, cpus: list[int], conn) -> None:
    """A forked run started on ``cpu``: its results, log records, failure and
    seconds go back over ``conn``."""
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
        conn.send((results, held.records, failure, seconds))
    except Exception as exc:  # a result or exception that does not pickle
        conn.send(([], [], RuntimeError(
            f"a fan-out worker could not send its results: {exc!r}"), seconds))
    conn.close()


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
    if multiprocessing.current_process().daemon:  # it may not have children
        return [work(i) for i in range(len(costs))]
    context = multiprocessing.get_context("fork")
    workers = []
    try:
        for cpu, items in zip(cpus[1:], runs[1:]):
            receive, send = context.Pipe(duplex=False)
            worker = context.Process(target=_worker, args=(work, items, cpu, cpus, send), daemon=True)
            worker.start()
            send.close()  # so a worker that dies leaves EOF behind
            workers.append((worker, receive))
        _place(cpus[0], cpus)
        results, failure, seconds = _run_share(work, runs[0])
        run_seconds = [seconds]
        logger = logging.getLogger(_LOGGER)
        for worker, receive in workers:
            if failure is not None:
                break
            try:
                done, records, failure, seconds = receive.recv()
            except EOFError:  # the worker died before it sent anything
                worker.join()
                failure = RuntimeError(f"a fan-out worker exited with code {worker.exitcode} "
                                       "before it sent its results")
                break
            worker.join()
            for record in records:
                logger.handle(record)
            results += done
            run_seconds.append(seconds)
    finally:
        # a worker still running here is one whose outcome will not be read
        for worker, receive in workers:
            if worker.is_alive():
                worker.terminate()
            worker.join()
            receive.close()
    for n, (items, (wall_s, cpu_s)) in enumerate(zip(runs, run_seconds), 1):
        logger.info("fan-out run %d of %d: items %d, cost %g, wall %.3f s, CPU %.3f s",
                    n, len(runs), len(items), sum(costs[i] for i in items), wall_s, cpu_s)
    if failure is not None:
        raise failure
    return results
