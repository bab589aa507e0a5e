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

The workers are forked, not spawned: a spawned worker re-imports numpy and
scipy, about 0.4 s of set-up each, which is more than the work of most
calls. A fork copies the caller's threads' locks but not the threads, so a
library caller that runs threads of its own should not fork: pin it to one
CPU (``taskset -c 0``), and everything runs serially in the caller.

It also runs serially where ``os.sched_getaffinity`` is missing (no safe
fork) and in a daemonic process, which may not have children.
"""

from __future__ import annotations

import logging
import os
from itertools import accumulate, groupby
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")

# the package logger: the records of every module's logger reach its handlers
_LOGGER = "codereadability"


def available_cpus() -> int:
    """The CPUs this process may run on; 1 without ``os.sched_getaffinity``."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


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


def _share_count(n: int) -> int:
    """``min(n, available CPUs)``, or 1 in a daemonic process."""
    count = min(n, available_cpus())
    if count > 1:
        import multiprocessing

        if multiprocessing.current_process().daemon:
            return 1
    return count


class _Held(logging.Handler):
    """Keeps the log records of a worker's run."""

    def __init__(self) -> None:
        super().__init__()
        self.records: list[logging.LogRecord] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.records.append(record)


def _run_share(work: Callable[[int], T], items: list[int]):
    """``(results, failure)`` of ``items`` run in order up to the first
    failure: the results of the items that returned, and the exception of
    the failing item or None."""
    results: list[T] = []
    for i in items:
        try:
            results.append(work(i))
        except Exception as exc:
            return results, exc
    return results, None


def _worker(work: Callable[[int], T], items: list[int], conn) -> None:
    """A forked run: its results, log records and failure go back over ``conn``."""
    held = _Held()
    logger = logging.getLogger(_LOGGER)
    logger.handlers, logger.propagate = [held], False
    results, failure = _run_share(work, items)
    for record in held.records:
        # what the parent's handlers need, without args that may not pickle
        if record.exc_info:
            record.exc_text = logging.Formatter().formatException(record.exc_info)
        record.msg, record.args, record.exc_info = record.getMessage(), None, None
    try:
        conn.send((results, held.records, failure))
    except Exception as exc:  # a result or exception that does not pickle
        conn.send(([], [], RuntimeError(
            f"a fan-out worker could not send its results: {exc!r}")))
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
    runs = split_shares(costs, _share_count(len(costs)))
    if len(runs) <= 1:
        return [work(i) for i in range(len(costs))]

    import multiprocessing

    context = multiprocessing.get_context("fork")
    workers = []
    try:
        for items in runs[1:]:
            receive, send = context.Pipe(duplex=False)
            worker = context.Process(target=_worker, args=(work, items, send), daemon=True)
            worker.start()
            send.close()  # so a worker that dies leaves EOF behind
            workers.append((worker, receive))
        results, failure = _run_share(work, runs[0])
        logger = logging.getLogger(_LOGGER)
        for worker, receive in workers:
            if failure is not None:
                break
            try:
                done, records, failure = receive.recv()
            except EOFError:  # the worker died before it sent anything
                worker.join()
                failure = RuntimeError(f"a fan-out worker exited with code {worker.exitcode} "
                                       "before it sent its results")
                break
            worker.join()
            for record in records:
                logger.handle(record)
            results += done
    finally:
        # a worker still running here is one whose outcome will not be read
        for worker, receive in workers:
            if worker.is_alive():
                worker.terminate()
            worker.join()
            receive.close()
    if failure is not None:
        raise failure
    return results
