import json
import logging
import multiprocessing
import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codereadability import model
from codereadability.model import (
    ModelError,
    ReadabilityModel,
    ScalerParams,
    _objective,
    accuracy,
    auc,
    evaluate,
    fit_scaler,
    load_model,
    predict,
    save_model,
    sfs,
    sfs_path,
    stratified_folds,
    train_logreg,
    train_model,
    transform,
)
from codereadability.vectorizer import N_FEATURES
from conftest import no_child_left


def brute_force_auc(scores, labels):
    scores = np.asarray(scores)
    pos = scores[np.asarray(labels) == 1]
    neg = scores[np.asarray(labels) == 0]
    wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


class TestScaler:
    def test_constant_column_guard(self):
        X = np.full((5, 2), 7.0)
        scaler = fit_scaler(X)
        assert np.all(scaler.sigma == 1.0)
        assert np.all(transform(scaler, X) == 0.0)

    def test_two_point_column(self):
        scaler = fit_scaler(np.array([[0.0], [2.0]]))
        assert scaler.mu[0] == 1.0
        assert scaler.sigma[0] == 1.0  # population std of {0, 2}
        assert transform(scaler, np.array([[0.0], [2.0]])).ravel().tolist() == [-1.0, 1.0]

    def test_zscore_property(self):
        rng = np.random.default_rng(0)
        X = rng.normal(3.0, 2.5, size=(40, 6))
        Xn = transform(fit_scaler(X), X)
        assert np.all(np.abs(Xn.mean(axis=0)) < 1e-9)

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            fit_scaler(np.empty((0, 3)))


class TestLogreg:
    def test_separable_two_points(self):
        X = np.array([[-1.0], [1.0]])
        y = np.array([0.0, 1.0])
        w, b = train_logreg(X, y, lambda_l2=0.1)
        scores = 1 / (1 + np.exp(-(X @ w + b)))
        assert accuracy(scores, y) == 1.0

    def test_symmetric_data_shrinks_with_lambda(self):
        X = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        norms = []
        for lam in (0.01, 0.1, 1.0, 10.0, 100.0):
            w, b = train_logreg(X, y, lambda_l2=lam)
            norms.append(np.linalg.norm(w))
        assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))
        # prediction at the centroid stays 0.5 by symmetry
        w, b = train_logreg(X, y, lambda_l2=1.0)
        assert 1 / (1 + np.exp(-b)) == pytest.approx(0.5, abs=1e-6)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(20, N_FEATURES))
        y = (rng.random(20) > 0.5).astype(float)
        params = rng.normal(scale=0.5, size=N_FEATURES + 1)
        grad = _objective(params[None], X[None], y, 0.7)[1][0]
        h = 1e-5
        fd = np.empty_like(params)
        for j in range(len(params)):
            up, down = params.copy(), params.copy()
            up[j] += h
            down[j] -= h
            fd[j] = (_objective(up[None], X[None], y, 0.7)[0][0]
                     - _objective(down[None], X[None], y, 0.7)[0][0]) / (2 * h)
        assert np.max(np.abs(grad - fd)) < 1e-5

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="single class"):
            train_logreg(np.ones((4, 2)), np.ones(4), 1.0)

    def test_converges_to_gradient_tolerance(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(60, 5))
        y = (X[:, 0] + 0.3 * rng.normal(size=60) > 0).astype(float)
        w, b = train_logreg(X, y, lambda_l2=0.5)
        grad = _objective(np.append(w, b)[None], X[None], y, 0.5)[1][0]
        assert np.max(np.abs(grad)) <= 1e-8

    # NaN ran all 10,000 Newton iterations and returned NaN weights
    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), -1.0, -1e-300])
    @pytest.mark.parametrize("fit", [
        lambda X, y, lam: train_logreg(X, y, lambda_l2=lam),
        lambda X, y, lam: sfs_path(X, y, k_max=2, inner_cv=2, lambda_l2=lam),
        lambda X, y, lam: train_model(X, y, family="tf", lambda_l2=lam, k_max=2, inner_cv=2),
    ], ids=["train_logreg", "sfs_path", "train_model"])
    def test_invalid_lambda_rejected_before_fitting(self, fit, lam):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, N_FEATURES))
        y = np.array([0.0, 1.0] * 20)
        with pytest.raises(ValueError, match=r"lambda_l2 must be finite and >= 0, got "):
            fit(X, y, lam)

    def test_zero_lambda_accepted(self):
        X = np.array([[-2.0], [-1.0], [1.0], [0.5]])
        y = np.array([0.0, 1.0, 0.0, 1.0])
        w, b = train_logreg(X, y, lambda_l2=0.0)
        assert np.all(np.isfinite(w)) and np.isfinite(b)


class TestAuc:
    def test_perfect_ranking(self):
        assert auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_all_tied(self):
        assert auc([0.5] * 6, [0, 1, 0, 1, 0, 1]) == 0.5

    def test_hand_enumerated(self):
        assert auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == pytest.approx(0.75)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            auc([0.1, 0.2], [1, 1])

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 50), st.integers(0, 10_000))
    def test_rank_formula_equals_brute_force(self, n, seed):
        rng = np.random.default_rng(seed)
        labels = np.zeros(n, dtype=int)
        labels[: rng.integers(1, n)] = 1
        rng.shuffle(labels)
        # coarse grid makes ties common
        scores = rng.integers(0, 5, size=n) / 4.0
        assert auc(scores, labels) == pytest.approx(brute_force_auc(scores, labels), abs=1e-12)


class TestStratifiedFolds:
    def test_balanced_360(self):
        labels = np.array([0, 1] * 180)
        folds = stratified_folds(labels, 10, seed=42)
        for f in range(10):
            chunk = labels[folds == f]
            assert len(chunk) == 36
            assert (chunk == 1).sum() == 18

    def test_deterministic(self):
        labels = np.array([0, 1] * 30)
        a = stratified_folds(labels, 5, seed=9)
        b = stratified_folds(labels, 5, seed=9)
        assert np.array_equal(a, b)

    def test_k1_rejected(self):
        with pytest.raises(ValueError):
            stratified_folds(np.array([0, 1, 0, 1]), 1, seed=0)

    def test_small_class_rejected(self):
        labels = np.array([0] * 10 + [1] * 2)
        with pytest.raises(ValueError, match="fewer than k"):
            stratified_folds(labels, 3, seed=0)

    @pytest.mark.parametrize("seed", [None, [1, 2], (3,)])
    def test_a_seed_that_is_not_one_int_is_refused(self, seed):
        """numpy would draw fresh entropy for ``None``, so that no two
        calls split alike, and would hash a sequence of ints; the fold
        shuffle takes one int >= 0 alone."""
        with pytest.raises(TypeError):
            stratified_folds([0, 1] * 4, 2, seed)

    def test_proportionality_within_one(self):
        labels = np.array([0] * 17 + [1] * 29)
        folds = stratified_folds(labels, 4, seed=1)
        for cls in (0, 1):
            counts = [(labels[folds == f] == cls).sum() for f in range(4)]
            assert max(counts) - min(counts) <= 1


def _informative_data(n=200, n_noise=8, seed=0):
    rng = np.random.default_rng(seed)
    signal = rng.normal(size=(n, 2))
    y = (signal.sum(axis=1) + 0.4 * rng.normal(size=n) > 0).astype(float)
    noise = rng.normal(size=(n, n_noise))
    return np.hstack([signal, noise]), y


class TestSfs:
    def test_kmax_one_returns_best_column(self):
        X, y = _informative_data()
        Xn = transform(fit_scaler(X), X)
        picked = sfs(Xn, y, k_max=1, inner_cv=4, seed=0, lambda_l2=0.1)
        assert len(picked) == 1
        assert picked[0] in (0, 1)

    def test_flat_criterion_tie_breaks_to_first(self):
        X = np.ones((40, 5))
        y = np.array([0.0, 1.0] * 20)
        picked = sfs(X, y, k_max=5, inner_cv=4, seed=0, lambda_l2=1.0)
        assert picked == [0]

    def test_informative_columns_found(self):
        X, y = _informative_data(n=300)
        Xn = transform(fit_scaler(X), X)
        order, _ = sfs_path(Xn, y, k_max=4, inner_cv=4, seed=0, lambda_l2=0.1)
        assert {0, 1} <= set(order)

    def test_deterministic(self):
        X, y = _informative_data()
        Xn = transform(fit_scaler(X), X)
        a = sfs_path(Xn, y, k_max=3, inner_cv=4, seed=5, lambda_l2=0.5)
        b = sfs_path(Xn, y, k_max=3, inner_cv=4, seed=5, lambda_l2=0.5)
        assert a == b

    def test_candidate_restriction(self):
        X, y = _informative_data()
        Xn = transform(fit_scaler(X), X)
        picked = sfs(Xn, y, k_max=3, inner_cv=4, seed=0, candidates=[4, 5, 6])
        assert set(picked) <= {4, 5, 6}

    def test_negative_kmax_rejected(self):
        X, y = _informative_data()
        with pytest.raises(ValueError, match="k_max"):
            sfs_path(X, y, k_max=-1, inner_cv=4)
        X61, y61 = _feature_matrix_61()
        with pytest.raises(ValueError, match="k_max"):
            train_model(X61, y61, k_max=-3)

    def test_zero_kmax_selects_nothing(self):
        X, y = _informative_data()
        assert sfs_path(X, y, k_max=0, inner_cv=4) == ([], [])


def _feature_matrix_61(n=80, seed=0, informative=(0, 20, 45)):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, N_FEATURES))
    logit = sum(X[:, j] for j in informative)
    y = (logit + 0.5 * rng.normal(size=n) > 0).astype(float)
    return X, y


class TestEvaluate:
    def test_permuted_labels_auc_near_half(self):
        X, y = _feature_matrix_61(n=120, seed=1)
        rng = np.random.default_rng(99)
        y_perm = rng.permutation(y)
        report = evaluate(X, y_perm, family="pf", k=4, seed=0, lambda_l2=1.0, inner_cv=3)
        assert abs(report.auc - 0.5) < 0.12

    def test_signal_beats_noise(self):
        X, y = _feature_matrix_61(n=150, seed=2)
        report = evaluate(X, y, family="all", k=3, seed=0, lambda_l2=1.0,
                          k_max=4, inner_cv=3)
        assert report.auc > 0.75

    def test_bit_reproducible(self):
        X, y = _feature_matrix_61(n=90, seed=3)
        a = evaluate(X, y, family="tf", k=3, seed=11, lambda_l2=1.0, k_max=3, inner_cv=3)
        b = evaluate(X, y, family="tf", k=3, seed=11, lambda_l2=1.0, k_max=3, inner_cv=3)
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)

    def test_family_restricts_candidates(self):
        X, y = _feature_matrix_61(n=90, seed=4)
        report = evaluate(X, y, family="pf", k=3, seed=0, lambda_l2=1.0, inner_cv=3)
        for sel in report.fold_selected:
            assert all(42 <= j < 46 for j in sel)
            assert len(sel) <= 4

    def test_each_held_out_row_is_scored_by_one_predict(self, monkeypatch):
        X, y = _feature_matrix_61(n=60, seed=8)
        real_predict = model.predict
        rows = []

        def spy(trained, x):
            rows.append(x.tobytes())
            return real_predict(trained, x)

        monkeypatch.setattr(model, "predict", spy)
        _cpus(monkeypatch, 1)
        report = evaluate(X, y, family="tf", k=3, seed=2, k_max=2, inner_cv=3)
        folds = np.asarray(report.fold_assignment)
        assert rows == [x.tobytes() for f in range(3) for x in X[folds == f]]

    def test_each_fold_looks_up_train_model_and_auc_when_it_runs(self, monkeypatch):
        """A tracer wraps ``model.train_model`` and ``model.auc``. The spies
        go in only once ``fan_out`` is called, after the fold function is
        made, so a fold that bound either name earlier (a default argument,
        a local alias) calls the unwrapped one and the count falls short."""
        X, y = _feature_matrix_61(n=60, seed=8)
        calls = {"train_model": 0, "auc": 0}

        def spy(name, real):
            def counted(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return counted

        real_fan_out = model.fan_out

        def fan_out_with_spies(work, costs):
            for name in calls:
                monkeypatch.setattr(model, name, spy(name, getattr(model, name)))
            return real_fan_out(work, costs)

        monkeypatch.setattr(model, "fan_out", fan_out_with_spies)
        _cpus(monkeypatch, 1)
        evaluate(X, y, family="tf", k=3, seed=2, k_max=2, inner_cv=3)
        assert calls == {"train_model": 3, "auc": 3}


def _cpus(monkeypatch, n):
    """Make ``evaluate`` see ``n`` available CPUs: one runs the folds
    serially, more fan them out to forked workers, whose placement on a
    CPU is a no-op."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: None, raising=False)


def _report_json(X, y, **kwargs):
    return json.dumps(evaluate(X, y, **kwargs).to_dict())


@pytest.mark.skipif(sys.platform != "linux", reason="the outer folds fork only on Linux")
class TestEvaluateFanOut:
    """The outer folds give the same report, errors, log records and no
    leftover process whether they run serially or split by ``fan_out``
    among 2, 3 or 4 processes."""

    @pytest.mark.parametrize("family,k_max", [("all", 2), ("tf", 3), ("tf", None)])
    @pytest.mark.parametrize("k", [2, 3, 10])
    def test_report_bytes_do_not_depend_on_the_pool(self, monkeypatch, k, family, k_max):
        X, y = _feature_matrix_61(n=60, seed=5)
        kwargs = dict(family=family, k=k, seed=7, k_max=k_max, inner_cv=3)
        _cpus(monkeypatch, 1)
        serial = _report_json(X, y, **kwargs)
        for cpus in (2, 3, 4):
            _cpus(monkeypatch, cpus)
            assert _report_json(X, y, **kwargs) == serial
            assert no_child_left()

    def test_failing_fold_raises_the_serial_error(self, monkeypatch):
        X, y = _feature_matrix_61(n=40, seed=6)
        real_sfs = model.sfs

        def sfs_failing_in_fold_2(*args, seed, **kwargs):
            if seed == 3 + 1000 * 2:
                raise ValueError(f"no selection for seed {seed}")
            return real_sfs(*args, seed=seed, **kwargs)

        monkeypatch.setattr(model, "sfs", sfs_failing_in_fold_2)
        kwargs = dict(family="tf", k=4, seed=3, k_max=2, inner_cv=2)
        raised = []
        # fold 2 runs in a worker on 2, 3 and 4 CPUs: the runs are 01|23, 0|12|3 and 0|1|2|3
        for cpus in (1, 2, 3, 4):
            _cpus(monkeypatch, cpus)
            with pytest.raises(ValueError) as info:
                evaluate(X, y, **kwargs)
            raised.append((type(info.value), str(info.value)))
            assert no_child_left()
        assert raised == [(ValueError, "no selection for seed 2003")] * 4

    def test_fold_log_records_reach_the_caller_in_fold_order(self, monkeypatch, caplog):
        X, y = _feature_matrix_61(n=40, seed=7)
        real_sfs = model.sfs

        def sfs_announcing_its_seed(*args, seed, **kwargs):
            model.log.warning("selecting with seed %d", seed)
            return real_sfs(*args, seed=seed, **kwargs)

        monkeypatch.setattr(model, "sfs", sfs_announcing_its_seed)
        monkeypatch.setattr(model, "NEWTON_MAX_ITER", 1)
        kwargs = dict(family="tf", k=3, seed=0, k_max=2, inner_cv=2)
        seen = []
        for cpus in (1, 2, 3, 4):
            _cpus(monkeypatch, cpus)
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="codereadability.model"):
                evaluate(X, y, **kwargs)
            seen.append([(r.name, r.levelno, r.getMessage()) for r in caplog.records])
            # share 0 runs in this process, each other share in a forked worker
            processes = {r.process for r in caplog.records}
            assert os.getpid() in processes and len(processes) == min(cpus, 3)
        assert seen[1:] == seen[:1] * 3
        # per fold: its selection, then its final fit; 62 = (16 + 15) candidates x 2 inner folds
        assert seen[0] == [("codereadability.model", logging.WARNING, message)
                           for f in range(3)
                           for message in (f"selecting with seed {1000 * (f + 1)}",
                                           "sfs_path: 62 of 62 fits stopped at max_iter=1 above tol=1e-08",
                                           "train_logreg: the fit stopped at max_iter=1 above tol=1e-08")]

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_each_fold_is_train_model_on_its_training_rows(self, monkeypatch, cpus):
        X, y = _feature_matrix_61(n=60, seed=9)
        _cpus(monkeypatch, cpus)
        report = evaluate(X, y, family="tf", k=3, seed=4, lambda_l2=0.5, k_max=3, inner_cv=3)
        folds = np.asarray(report.fold_assignment)
        for f in range(3):
            train, test = folds != f, folds == f
            trained = train_model(X[train], y[train], "tf", lambda_l2=0.5, k_max=3,
                                  inner_cv=3, seed=4 + 1000 * (f + 1))
            assert report.fold_selected[f] == list(trained.selected)
            probs = [predict(trained, x)[0] for x in X[test]]
            assert report.fold_accuracy[f] == accuracy(probs, y[test])
        assert no_child_left()

    def test_unknown_family_fails_before_any_fork(self, monkeypatch):
        X, y = _feature_matrix_61(n=40, seed=6)
        _cpus(monkeypatch, 2)
        forks = []
        real_fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(os.getpid()) or real_fork())
        with pytest.raises(ValueError, match="unknown feature family 'NOPE'"):
            evaluate(X, y, family="nope", k=3)
        assert forks == []
        assert no_child_left()

    def test_a_daemonic_caller_fans_the_folds_out(self, monkeypatch):
        X, y = _feature_matrix_61(n=40, seed=8)
        kwargs = dict(family="tf", k=3, seed=1, k_max=2, inner_cv=2)
        _cpus(monkeypatch, 2)
        with multiprocessing.get_context("fork").Pool(1) as pool:
            # a pool worker is daemonic, and forks its fold runs like any other caller
            in_worker = pool.apply(_report_json, (X, y), kwargs)
        pool.join()
        assert in_worker == _report_json(X, y, **kwargs)


class TestPredictAndPersistence:
    def _tiny_model(self):
        return ReadabilityModel(
            scaler=ScalerParams(mu=np.zeros(N_FEATURES), sigma=np.ones(N_FEATURES)),
            selected=(3, 10),
            weights=np.array([1.5, -0.5]),
            intercept=0.0,
            lambda_l2=1.0,
            training_provenance="unit test",
        )

    def test_zero_logit_gives_half(self):
        model = self._tiny_model()
        prob, linear = predict(model, np.zeros(N_FEATURES))
        assert prob == pytest.approx(0.5)
        assert linear == 0.0

    def test_zero_weights_zero_score(self):
        model = ReadabilityModel(
            scaler=ScalerParams(mu=np.zeros(N_FEATURES), sigma=np.ones(N_FEATURES)),
            selected=(0, 1), weights=np.zeros(2), intercept=0.3, lambda_l2=1.0,
        )
        x = np.random.default_rng(0).normal(size=N_FEATURES)
        _, linear = predict(model, x)
        assert linear == 0.0

    def test_monotone_in_positive_weight_feature(self):
        model = self._tiny_model()
        x = np.zeros(N_FEATURES)
        x[3] = 1.0
        p1, l1 = predict(model, x)
        x[3] = 2.0
        p2, l2 = predict(model, x)
        assert p2 > p1 and l2 > l1

    def test_round_trip(self, tmp_path):
        model = self._tiny_model()
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.selected == model.selected
        assert np.array_equal(loaded.weights, model.weights)
        assert np.array_equal(loaded.scaler.mu, model.scaler.mu)
        assert loaded.intercept == model.intercept
        assert loaded.training_provenance == model.training_provenance

    def test_wrong_scaler_length_rejected(self, tmp_path):
        model = self._tiny_model()
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["mu"] = doc["mu"][:60]
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelError, match="does not match"):
            load_model(path)

    def test_version_mismatch_names_both(self, tmp_path):
        model = self._tiny_model()
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["schema_version"] = "0.9"
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelError, match="0.9.*1.0"):
            load_model(path)

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{not json")
        with pytest.raises(ModelError):
            load_model(path)

    @pytest.mark.parametrize("edit,field", [
        ({"sigma": [0.0] * N_FEATURES}, "sigma"),
        ({"sigma": [1.0] * 60 + [-1.0]}, "sigma"),
        ({"sigma": [1.0] * 60 + [float("inf")]}, "sigma"),
        ({"mu": [0.0] * 60 + [float("nan")]}, "mu"),
        ({"mu": 0.0}, "mu"),
        ({"weights": [1.5, float("-inf")]}, "weights"),
        ({"weights": [[1.5], [-0.5]]}, "weights"),
        ({"weights": ["a", "b"]}, "weights"),
        ({"intercept": float("nan")}, "intercept"),
        ({"intercept": [0.0]}, "intercept"),
        ({"intercept": None}, "intercept"),
        ({"lambda_l2": float("inf")}, "lambda_l2"),
        ({"selected": [3, 3]}, "selected"),
        ({"selected": [3, 10.5]}, "selected"),
        ({"selected": [3.0, 10]}, "selected"),
        ({"selected": [True, 10]}, "selected"),
        ({"selected": 3}, "selected"),
        # a JSON bool is an int to Python, numpy parses a numeric string, and
        # an integer past the float64 range overflows
        ({"intercept": True}, "intercept"),
        ({"weights": [True, -0.5]}, "weights"),
        ({"mu": [True] + [0.0] * 60}, "mu"),
        ({"sigma": [1.0] * 60 + [False]}, "sigma"),
        ({"lambda_l2": False}, "lambda_l2"),
        ({"intercept": "1.5"}, "intercept"),
        ({"weights": ["1.5", "-0.5"]}, "weights"),
        ({"intercept": 10 ** 400}, "intercept"),
        ({"weights": [10 ** 400, 0]}, "weights"),
        ({"provenance": 5}, "provenance"),
        ({"provenance": ["x"]}, "provenance"),
        ({"provenance": None}, "provenance"),
        # a penalty train_model refuses
        ({"lambda_l2": -3.0}, "lambda_l2"),
        ({"lambda_l2": -1e-300}, "lambda_l2"),
    ])
    def test_corrupt_fields_rejected_by_name(self, tmp_path, edit, field):
        path = tmp_path / "model.json"
        save_model(self._tiny_model(), path)
        doc = json.loads(path.read_text())
        doc.update(edit)
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelError, match=rf"model file .*: {field} "):
            load_model(path)

    def test_an_integer_too_long_to_parse_names_the_file(self, tmp_path):
        """CPython's json refuses an int of over 4,300 digits with a plain
        ``ValueError``; where it has no such limit, the int overflows."""
        path = tmp_path / "model.json"
        save_model(self._tiny_model(), path)
        path.write_text(path.read_text().replace('"intercept": 0.0', '"intercept": ' + "1" * 4301))
        with pytest.raises(ModelError, match=r"model file .*model\.json"):
            load_model(path)

    def test_non_object_file_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("[1, 2]")
        with pytest.raises(ModelError, match="not a JSON object"):
            load_model(path)

    @given(st.lists(st.integers(0, N_FEATURES - 1), max_size=8, unique=True),
           st.floats(-1e6, 1e6), st.floats(1e-300, 1e300), st.floats(0, 1e6))
    @settings(max_examples=40, deadline=None)
    def test_saved_models_load_unchanged(self, tmp_path_factory, selected, value, spread, lambda_l2):
        model = ReadabilityModel(
            scaler=ScalerParams(mu=np.full(N_FEATURES, value), sigma=np.full(N_FEATURES, spread)),
            selected=tuple(selected), weights=np.full(len(selected), value),
            intercept=value, lambda_l2=lambda_l2,
        )
        path = tmp_path_factory.mktemp("model") / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.selected == model.selected
        assert loaded.weights.tobytes() == model.weights.tobytes()
        assert loaded.scaler.mu.tobytes() == model.scaler.mu.tobytes()
        assert loaded.scaler.sigma.tobytes() == model.scaler.sigma.tobytes()
        assert (loaded.intercept, loaded.lambda_l2) == (model.intercept, model.lambda_l2)


class TestTrainModel:
    def test_affine_rescaling_absorbed(self):
        X, y = _feature_matrix_61(n=100, seed=5)
        model_a = train_model(X, y, family="pf", lambda_l2=1.0, inner_cv=3, seed=0)
        X_scaled = X.copy()
        X_scaled[:, 44] = 3.0 * X_scaled[:, 44] + 11.0
        model_b = train_model(X_scaled, y, family="pf", lambda_l2=1.0, inner_cv=3, seed=0)
        probe = np.random.default_rng(1).normal(size=(5, N_FEATURES))
        probe_scaled = probe.copy()
        probe_scaled[:, 44] = 3.0 * probe_scaled[:, 44] + 11.0
        for row_a, row_b in zip(probe, probe_scaled):
            pa, la = predict(model_a, row_a)
            pb, lb = predict(model_b, row_b)
            assert pa == pytest.approx(pb, abs=1e-6)
            assert la == pytest.approx(lb, abs=1e-6)
