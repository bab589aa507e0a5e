"""``fanout.fan_out``: the serial list, its errors and its log records at any
CPU count, with no worker left behind.

The CPU count is what ``os.sched_getaffinity`` reports, so each test sets
it with a stand-in: 1 runs everything in this process, more fork workers.
"""

import io
import logging
import multiprocessing
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codereadability import analytics, fanout
from codereadability.analytics import score_corpus, write_score_table
from codereadability.fanout import fan_out, split_shares
from codereadability.model import ReadabilityModel, ScalerParams
from codereadability.vectorizer import N_FEATURES, featurize_corpus, write_feature_matrix
from conftest import snip
from lexer_samples import fixture_snippets

CPU_COUNTS = (1, 2, 3, 4)
log = logging.getLogger("codereadability.test_fanout")


def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


@pytest.fixture
def no_leftover_workers():
    yield
    assert multiprocessing.active_children() == []


def _snippets():
    """Every lexer sample, an empty snippet and a long one: uneven line counts."""
    long = snip("\n".join(f"value_{i} = compute(items[{i}])  # step {i}" for i in range(300)),
                id="long")
    return [*fixture_snippets(), snip("", id="empty"), long]


class TestSplitShares:
    def test_contiguous_runs_cut_nearest_each_share_of_the_total(self):
        assert split_shares([1000, 2000, 3000, 4000], 2) == [[0, 1, 2], [3]]
        # order comes first: dealing the costliest item to the least-loaded share would split 5 / 5
        assert split_shares([3, 3, 2, 2], 2) == [[0, 1], [2, 3]]
        assert split_shares([5, 1, 1, 1, 1, 1], 2) == [[0], [1, 2, 3, 4, 5]]
        assert split_shares([1] * 10, 2) == [list(range(5)), list(range(5, 10))]

    def test_a_tie_cuts_at_the_earlier_boundary(self):
        assert split_shares([1, 1, 1], 2) == [[0], [1, 2]]
        assert split_shares([1] * 5, 2) == [[0, 1], [2, 3, 4]]

    def test_no_run_is_empty_or_costs_nothing_beside_a_costly_one(self):
        assert split_shares([2, 7], 4) == [[0], [1]]
        assert split_shares([], 2) == []
        assert split_shares([0, 0, 0], 3) == [[0, 1, 2]]
        assert split_shares([0, 4, 0, 4], 3) == [[0, 1, 2], [3]]
        assert split_shares([0, 4, 0, 0], 3) == [[0, 1, 2, 3]]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 50), max_size=40), st.integers(1, 6))
    def test_runs_are_contiguous_in_order_and_near_an_equal_share(self, costs, count):
        runs = split_shares(costs, count)
        # joined in order, the runs are the items: contiguous, in order, each item once
        assert [i for run in runs for i in run] == list(range(len(costs)))
        assert all(runs) and len(runs) <= count
        for run in runs:
            assert abs(sum(costs[i] for i in run) - sum(costs) / count) <= max(costs)


class TestFanOut:
    @pytest.mark.parametrize("cpus", CPU_COUNTS)
    @pytest.mark.parametrize("costs", [[], [7], [1, 1], [3, 0, 9, 1, 1, 20, 2]])
    def test_the_serial_list(self, monkeypatch, no_leftover_workers, cpus, costs):
        _cpus(monkeypatch, cpus)
        assert fan_out(lambda i: (i, costs[i] * 2), costs) == [(i, c * 2) for i, c in enumerate(costs)]

    @pytest.mark.parametrize("cpus,costs,processes", [
        (1, [1] * 5, 1), (2, [1] * 5, 2), (4, [1] * 5, 4), (4, [1, 1], 2), (3, [1], 1),
        # a run of zero-cost items joins the run before it, and forks nothing
        (3, [0, 0, 0], 1), (3, [0, 4, 0, 4], 2)])
    def test_this_process_works_share_0_and_each_other_share_forks(
            self, monkeypatch, no_leftover_workers, cpus, costs, processes):
        _cpus(monkeypatch, cpus)
        pids = fan_out(lambda i: os.getpid(), costs)
        assert pids[0] == os.getpid()
        assert len(set(pids)) == processes

    @pytest.mark.parametrize("cpus", CPU_COUNTS)
    @pytest.mark.parametrize("failing", [{2, 5}, {3, 4}, {5}, {0, 1, 2, 3, 4, 5}])
    def test_the_lowest_failing_index_raises(self, monkeypatch, no_leftover_workers, caplog,
                                             cpus, failing):
        def work(i):
            log.warning("item %d", i)
            if i in failing:
                raise ValueError(f"item {i} failed")
            return i

        _cpus(monkeypatch, cpus)
        with caplog.at_level(logging.WARNING, logger=log.name):
            with pytest.raises(ValueError, match=f"^item {min(failing)} failed$"):
                fan_out(work, [1] * 6)
        # the records of every item up to the failing one, as a serial loop leaves them
        assert [r.getMessage() for r in caplog.records] == [f"item {i}" for i in range(min(failing) + 1)]

    def test_an_exception_that_does_not_pickle_names_the_worker(self, monkeypatch,
                                                                no_leftover_workers):
        class LocalError(Exception):  # a local class does not pickle
            pass

        def work(i):
            if i == 1:
                raise LocalError("no way back")
            return i

        _cpus(monkeypatch, 2)
        with pytest.raises(RuntimeError, match="could not send its results"):
            fan_out(work, [1, 1])

    def test_a_worker_that_dies_raises(self, monkeypatch, no_leftover_workers):
        def work(i):
            if i == 2:  # the last item, which the worker runs
                os._exit(3)
            return i

        _cpus(monkeypatch, 2)
        with pytest.raises(RuntimeError, match="exited with code 3 before it sent its results"):
            fan_out(work, [1, 1, 1])

    @pytest.mark.parametrize("cpus", CPU_COUNTS)
    def test_log_records_reach_the_handlers_in_item_order(self, monkeypatch,
                                                          no_leftover_workers, cpus):
        stream = io.StringIO()
        handler = logging.StreamHandler(stream)
        handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
        package = logging.getLogger("codereadability")
        monkeypatch.setattr(package, "handlers", [handler])
        monkeypatch.setattr(package, "propagate", False)
        monkeypatch.setattr(package, "level", logging.INFO)
        costs = [5, 1, 1, 8, 2, 2, 1, 3]

        def work(i):
            log.info("item %d of %s", i, ["costs", costs[i]])
            log.debug("not shown")
            return i

        _cpus(monkeypatch, cpus)
        fan_out(work, costs)
        assert stream.getvalue() == "".join(
            f"INFO codereadability.test_fanout: item {i} of ['costs', {c}]\n"
            for i, c in enumerate(costs))
        # the caller's handlers are back in place
        assert package.handlers == [handler] and package.propagate is False

    @pytest.mark.parametrize("cpus", CPU_COUNTS[1:])
    def test_this_process_logs_its_run_live(self, monkeypatch, no_leftover_workers, caplog, cpus):
        def work(i):
            log.warning("item %d", i)
            return [r.getMessage() for r in caplog.records]

        _cpus(monkeypatch, cpus)
        with caplog.at_level(logging.WARNING, logger=log.name):
            seen = fan_out(work, [1] * 8)
        # items 0 and 1 open the first run, which this process works with the caller's handlers
        assert seen[:2] == [["item 0"], ["item 0", "item 1"]]

    @pytest.mark.parametrize("cpus", CPU_COUNTS)
    def test_a_record_with_a_traceback_keeps_its_text(self, monkeypatch, no_leftover_workers,
                                                      caplog, cpus):
        def work(i):
            try:
                raise KeyError(f"key {i}")
            except KeyError:
                log.warning("item %d", i, exc_info=True)
            return i

        _cpus(monkeypatch, cpus)
        with caplog.at_level(logging.WARNING, logger=log.name):
            fan_out(work, [1, 1, 1])
        assert [r.getMessage() for r in caplog.records] == ["item 0", "item 1", "item 2"]
        assert all(f"KeyError: 'key {i}'" in line
                   for i, line in enumerate(caplog.text.split("WARNING")[1:]))

    def test_a_daemonic_caller_runs_serially(self, monkeypatch, no_leftover_workers):
        _cpus(monkeypatch, 2)
        with multiprocessing.get_context("fork").Pool(1) as pool:
            # a pool worker is daemonic and may not have children
            pids = pool.apply(_pids, (4,))
        pool.join()
        assert len(set(pids)) == 1 and os.getpid() not in pids

    def test_no_multiprocessing_on_one_cpu(self, monkeypatch):
        _cpus(monkeypatch, 1)
        monkeypatch.setattr(multiprocessing, "get_context", None)
        assert fan_out(lambda i: i, [1, 2, 3]) == [0, 1, 2]

    def test_without_sched_getaffinity_everything_is_serial(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert fanout.available_cpus() == 1
        assert fan_out(lambda i: os.getpid(), [1, 1]) == [os.getpid()] * 2


def _pids(n):
    return fan_out(lambda i: os.getpid(), [1] * n)


class TestOutputsAtEveryCpuCount:
    """featurize and score write the same bytes at any CPU count, and score
    predicts in the calling process."""

    def _bytes_per_cpu_count(self, monkeypatch, tmp_path, write):
        outputs = []
        for cpus in CPU_COUNTS:
            _cpus(monkeypatch, cpus)
            path = tmp_path / f"out{cpus}.csv"
            write(path)
            outputs.append(path.read_bytes())
            assert multiprocessing.active_children() == []
        return outputs

    def test_feature_matrix(self, monkeypatch, tmp_path, bundled_dict):
        snippets = _snippets()

        def write(path):
            matrix = featurize_corpus(snippets, bundled_dict)
            assert matrix.shape == (len(snippets), N_FEATURES)
            write_feature_matrix(path, [s.id for s in snippets], matrix)

        outputs = self._bytes_per_cpu_count(monkeypatch, tmp_path, write)
        assert outputs == [outputs[0]] * len(CPU_COUNTS)

    def test_empty_corpus(self, monkeypatch, bundled_dict):
        _cpus(monkeypatch, 4)
        assert featurize_corpus([], bundled_dict).shape == (0, N_FEATURES)

    def test_score_table(self, monkeypatch, tmp_path, bundled_dict):
        snippets = _snippets()
        trained = _model()

        def write(path):
            write_score_table(score_corpus(trained, snippets, bundled_dict), path)

        outputs = self._bytes_per_cpu_count(monkeypatch, tmp_path, write)
        assert outputs == [outputs[0]] * len(CPU_COUNTS)

    @pytest.mark.parametrize("cpus", CPU_COUNTS)
    def test_score_predicts_each_snippet_once_in_this_process(self, monkeypatch,
                                                              no_leftover_workers,
                                                              bundled_dict, cpus):
        snippets = _snippets()
        real_predict = analytics.predict
        pids = []

        def spy(trained, x):
            pids.append(os.getpid())
            return real_predict(trained, x)

        monkeypatch.setattr(analytics, "predict", spy)
        _cpus(monkeypatch, cpus)
        score_corpus(_model(), snippets, bundled_dict)
        assert pids == [os.getpid()] * len(snippets)


def _model() -> ReadabilityModel:
    rng = np.random.default_rng(3)
    return ReadabilityModel(
        scaler=ScalerParams(mu=rng.normal(size=N_FEATURES), sigma=rng.uniform(1, 2, N_FEATURES)),
        selected=(0, 9, 14, 20, 50, 59), weights=rng.normal(size=6),
        intercept=0.25, lambda_l2=1.0)
