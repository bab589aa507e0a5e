"""One fork fan-out for independent work items.

``fan_out(work, costs)`` returns ``[work(i) for i in range(len(costs))]``.
It splits the items among ``min(len(costs), available CPUs)`` shares
(see :func:`split_shares`); this process works share 0 itself, and each
other share runs in a forked daemonic process that sends its results back
over a pipe. Every item is computed by the same code on the same inputs
and its result is placed by its index, so the output is the serial one,
bit for bit.

The workers are forked, not spawned: a spawned worker re-imports numpy and
scipy, about 0.4 s of set-up each, which is more than the work of most
calls. A fork copies the caller's threads' locks but not the threads, so a
library caller that runs threads of its own should not fork: pin it to one
CPU (``taskset -c 0``), and everything runs serially in the caller.

It also runs serially where ``os.sched_getaffinity`` is missing (no safe
fork) and in a daemonic process, which may not have children.
"""

from __future__ import annotations

import heapq
import logging
import os
from contextlib import contextmanager
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")

# the package logger: the records of every module's logger reach its handlers
_LOGGER = "codereadability"


def available_cpus() -> int:
    """The CPUs this process may run on; 1 without ``os.sched_getaffinity``."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def split_shares(costs: Sequence[float], count: int) -> list[list[int]]:
    """The item indices of each of ``count`` shares, ascending within each.

    Items go costliest first (ties: lowest index first) to the share with
    the least cost so far (ties: the lowest share).
    """
    loads = [(0, share) for share in range(count)]
    shares: list[list[int]] = [[] for _ in range(count)]
    for i in sorted(range(len(costs)), key=lambda i: -costs[i]):
        load, share = heapq.heappop(loads)
        shares[share].append(i)
        heapq.heappush(loads, (load + costs[i], share))
    return [sorted(items) for items in shares]


def _share_count(n: int) -> int:
    """``min(n, available CPUs)``, or 1 in a daemonic process."""
    count = min(n, available_cpus())
    if count > 1:
        import multiprocessing

        if multiprocessing.current_process().daemon:
            return 1
    return count


class _Held(logging.Handler):
    """Keeps the log records of the item that runs."""

    def __init__(self) -> None:
        super().__init__()
        self.records: list[logging.LogRecord] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.records.append(record)


@contextmanager
def _holding():
    """The package logger's records go to the yielded handler, not on."""
    logger = logging.getLogger(_LOGGER)
    held = _Held()
    saved = logger.handlers, logger.propagate
    logger.handlers, logger.propagate = [held], False
    try:
        yield held
    finally:
        logger.handlers, logger.propagate = saved


def _run_share(work: Callable[[int], T], items: list[int]):
    """``(results, records, failure)`` of ``items`` run in ascending order
    up to the first failure: the results of the items that returned, the
    log records of each item that ran, and ``(index, exception)`` of the
    failing item or None."""
    results: list[T] = []
    records: list[list[logging.LogRecord]] = []
    with _holding() as held:
        for i in items:
            held.records = []
            records.append(held.records)
            try:
                results.append(work(i))
            except Exception as exc:
                return results, records, (i, exc)
    return results, records, None


def _worker(work: Callable[[int], T], items: list[int], conn) -> None:
    """A forked share: its outcome goes back over ``conn``."""
    results, records, failure = _run_share(work, items)
    for record in (r for item in records for r in item):
        # what the parent's handlers need, without args that may not pickle
        if record.exc_info:
            record.exc_text = logging.Formatter().formatException(record.exc_info)
        record.msg, record.args, record.exc_info = record.getMessage(), None, None
    try:
        conn.send((results, records, failure))
    except Exception as exc:  # a result or exception that does not pickle
        conn.send(([], [], (items[0], RuntimeError(
            f"a fan-out worker could not send its results: {exc!r}"))))
    conn.close()


def fan_out(work: Callable[[int], T], costs: Sequence[float]) -> list[T]:
    """``[work(i) for i in range(len(costs))]``, the items split by cost
    among ``min(len(costs), available CPUs)`` processes.

    Each share runs its items in ascending index order and stops at its
    first failure; the exception of the lowest failing index is raised, as
    the serial loop would raise it. While an item runs, the records of
    the ``codereadability`` logger are held; once every share has
    returned, they reach its handlers in item order, up to the failing
    item. No worker outlives the call.
    """
    n = len(costs)
    # zero-cost items can leave a share empty, and it needs no worker
    shares = [share for share in split_shares(costs, _share_count(n)) if share]
    if len(shares) <= 1:
        return [work(i) for i in range(n)]

    import multiprocessing

    context = multiprocessing.get_context("fork")
    workers = []
    try:
        for items in shares[1:]:
            receive, send = context.Pipe(duplex=False)
            worker = context.Process(target=_worker, args=(work, items, send), daemon=True)
            worker.start()
            send.close()  # so a worker that dies leaves EOF behind
            workers.append((worker, receive))
        outcomes = [_run_share(work, shares[0])]
        for (worker, receive), items in zip(workers, shares[1:]):
            try:
                outcomes.append(receive.recv())
            except EOFError:  # the worker died before it sent anything
                worker.join()
                outcomes.append(([], [], (items[0], RuntimeError(
                    f"a fan-out worker exited with code {worker.exitcode} "
                    "before it sent its results"))))
            worker.join()
    finally:
        # a worker still running here is one whose outcome will not be read
        for worker, receive in workers:
            if worker.is_alive():
                worker.terminate()
            worker.join()
            receive.close()

    results: list = [None] * n
    records: list[list[logging.LogRecord]] = [[] for _ in range(n)]
    failures = []
    for items, (done, logged, failure) in zip(shares, outcomes):
        for i, value in zip(items, done):
            results[i] = value
        for i, item_records in zip(items, logged):
            records[i] = item_records
        if failure is not None:
            failures.append(failure)
    first = min(failures, key=lambda f: f[0]) if failures else None
    logger = logging.getLogger(_LOGGER)
    for item_records in records[: n if first is None else first[0] + 1]:
        for record in item_records:
            logger.handle(record)
    if first is not None:
        raise first[1]
    return results
