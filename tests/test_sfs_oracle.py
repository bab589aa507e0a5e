"""Differential oracle for the lockstep Newton kernel.

The reference below is the sequential solver the kernel replaced: one
damped-Newton fit per (candidate, inner fold), scored by a one-row AUC.
The kernel must reproduce its iterates bit for bit, so ``train_logreg``,
the SFS selection order and the ``score_path`` criterion values are
compared with ``==``, not with a tolerance.
"""

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit
from scipy.stats import rankdata

from codereadability import model
from codereadability.model import (
    _objective,
    fit_scaler,
    sfs_path,
    stratified_folds,
    train_logreg,
    transform,
)
from codereadability.vectorizer import featurize_corpus
from conftest import snip
from test_cli import CRYPTIC, READABLE


# --------------------------------------------------------------------------
# Reference: the sequential solver, one problem at a time
# --------------------------------------------------------------------------

def ref_logloss_and_grad(params, X, y, lambda_l2):
    w, b = params[:-1], params[-1]
    z = X @ w + b
    loss = float(np.mean(np.logaddexp(0.0, z) - y * z)) + 0.5 * lambda_l2 * float(w @ w)
    p = expit(z)
    resid = (p - y) / len(y)
    grad = np.concatenate([X.T @ resid + lambda_l2 * w, [resid.sum()]])
    return loss, grad


def ref_train_logreg(Xn, y, lambda_l2=1.0, tol=1e-8, max_iter=10000):
    Xn = np.asarray(Xn, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, d = Xn.shape
    params = np.zeros(d + 1)
    Xa = np.hstack([Xn, np.ones((n, 1))])
    reg_diag = np.append(np.full(d, lambda_l2), 0.0)

    loss, grad = ref_logloss_and_grad(params, Xn, y, lambda_l2)
    for _ in range(max_iter):
        if np.max(np.abs(grad)) <= tol:
            break
        p = expit(Xa @ params)
        weights = np.maximum(p * (1.0 - p), 1e-12)
        hessian = (Xa.T * weights) @ Xa / n + np.diag(reg_diag)
        try:
            step = np.linalg.solve(hessian, grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(hessian, grad, rcond=None)[0]
        scale = 1.0
        for _ in range(60):
            candidate = params - scale * step
            new_loss, new_grad = ref_logloss_and_grad(candidate, Xn, y, lambda_l2)
            if new_loss <= loss + 1e-15:
                break
            scale *= 0.5
        params, loss, grad = candidate, new_loss, new_grad
    return params[:-1], float(params[-1])


def ref_auc(scores, labels):
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = len(labels) - n_pos
    ranks = rankdata(scores)
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def ref_cv_auc(Xn, y, cols, folds, k, lambda_l2):
    total = 0.0
    sub = Xn[:, cols]
    for fold in range(k):
        test = folds == fold
        w, b = ref_train_logreg(sub[~test], y[~test], lambda_l2)
        total += ref_auc(sub[test] @ w + b, y[test])
    return total / k


def ref_sfs_path(Xn, y, k_max, inner_cv=5, seed=0, lambda_l2=1.0, candidates=None):
    Xn = np.asarray(Xn, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    pool = sorted(candidates) if candidates is not None else list(range(Xn.shape[1]))
    k_max = min(k_max, len(pool))
    smallest = min(int((y == cls).sum()) for cls in np.unique(y))
    inner_cv = max(2, min(inner_cv, smallest))
    folds = stratified_folds(y, inner_cv, seed)

    selected, score_path = [], []
    remaining = list(pool)
    while len(selected) < k_max:
        best_feature, best_score = None, -np.inf
        for feature in remaining:
            score = ref_cv_auc(Xn, y, selected + [feature], folds, inner_cv, lambda_l2)
            if score > best_score:
                best_score, best_feature = score, feature
        selected.append(best_feature)
        remaining.remove(best_feature)
        score_path.append(best_score)
    return selected, score_path


def assert_same_path(Xn, y, k_max, **kwargs):
    got = sfs_path(Xn, y, k_max, **kwargs)
    want = ref_sfs_path(Xn, y, k_max, **kwargs)
    assert got[0] == want[0]
    assert got[1] == want[1]  # exact: the kernel follows the same iterates
    return got


# --------------------------------------------------------------------------
# Data
# --------------------------------------------------------------------------

def fixture_matrix(bundled_dict):
    """Scaled 61-feature matrix of the CLI test corpus: readable vs cryptic."""
    snippets, labels = [], []
    for i in range(8):
        for label, texts in ((1, READABLE), (0, CRYPTIC)):
            text = texts[i % len(texts)] + (f"\n# variant {i}\n" if label else "")
            snippets.append(snip(text, id=f"{label}-{i}"))
            labels.append(float(label))
    X = featurize_corpus(snippets, bundled_dict)
    return transform(fit_scaler(X), X), np.array(labels)


def criterion5_data():
    rng = np.random.default_rng(123)
    n = 500
    X = rng.normal(size=(n, 61))
    logit = 1.5 * X[:, 0] + 1.2 * X[:, 1] - 1.4 * X[:, 2] + 0.5 * rng.normal(size=n)
    y = (logit > 0).astype(float)
    return transform(fit_scaler(X), X), y


@st.composite
def small_datasets(draw):
    """Small problems with the shapes that make fits and ties awkward:
    constant and duplicated columns, separable columns, and weak or strong
    regularization."""
    n = draw(st.integers(8, 30))
    d = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    y = np.zeros(n)
    n_pos = draw(st.integers(2, n - 2))
    y[rng.choice(n, n_pos, replace=False)] = 1.0
    X = rng.normal(size=(n, d))
    if draw(st.booleans()):
        X[:, draw(st.integers(0, d - 1))] = 0.0
    if draw(st.booleans()):
        X = np.hstack([X, X[:, [draw(st.integers(0, d - 1))]]])
    if draw(st.booleans()):
        X = np.hstack([X, (2.0 * y - 1.0)[:, None]])
    if draw(st.booleans()):
        X = np.round(X)  # coarse values make tied scores common
    lam = draw(st.sampled_from([0.01, 1.0, 10.0]))
    return X, y, lam, draw(st.integers(2, 5))


# --------------------------------------------------------------------------
# Tests
# --------------------------------------------------------------------------

class TestTrainLogregOracle:
    @settings(max_examples=60, deadline=None)
    @given(small_datasets())
    def test_bitwise_equal_to_sequential(self, data):
        X, y, lam, _ = data
        w, b = train_logreg(X, y, lam)
        w_ref, b_ref = ref_train_logreg(X, y, lam)
        assert w.tobytes() == w_ref.tobytes()
        assert b == b_ref

    def test_bitwise_equal_on_random_problems(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n, d = rng.integers(10, 80), rng.integers(1, 12)
            X = rng.normal(size=(n, d))
            y = (X[:, 0] + rng.normal(size=n) > 0).astype(float)
            if y.min() == y.max():
                continue
            lam = float(rng.choice([0.01, 0.1, 1.0, 10.0]))
            w, b = train_logreg(X, y, lam)
            w_ref, b_ref = ref_train_logreg(X, y, lam)
            assert w.tobytes() == w_ref.tobytes() and b == b_ref

    def test_objective_is_the_one_problem_view(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(25, 7))
        y = (rng.random(25) > 0.5).astype(float)
        params = rng.normal(size=8)
        loss, grad = _objective(params[None], X[None], y, 0.3)
        loss, grad = loss[0], grad[0]
        loss_ref, grad_ref = ref_logloss_and_grad(params, X, y, 0.3)
        assert loss == loss_ref
        assert grad.tobytes() == grad_ref.tobytes()


class TestSfsOracle:
    def test_fixture_corpus(self, bundled_dict):
        Xn, y = fixture_matrix(bundled_dict)
        assert_same_path(Xn, y, 6, inner_cv=4, seed=3, lambda_l2=1.0)

    def test_criterion5_data(self):
        Xn, y = criterion5_data()
        order, _ = assert_same_path(Xn, y, 3, inner_cv=5, seed=42, lambda_l2=1.0)
        assert set(order) == {0, 1, 2}

    def test_candidate_subset(self):
        Xn, y = criterion5_data()
        assert_same_path(Xn[:120], y[:120], 3, inner_cv=3, seed=1, lambda_l2=0.1,
                         candidates=[9, 2, 30, 1, 44])

    def test_singular_hessian_falls_back_to_least_squares(self):
        # with lambda 0 a zero column makes its problems' Hessians singular,
        # while the other problems of the same stack still solve directly
        rng = np.random.default_rng(6)
        X = rng.normal(size=(40, 4))
        X[:, 2] = 0.0
        y = (X[:, 0] + rng.normal(scale=2.0, size=40) > 0).astype(float)
        w, b = train_logreg(X, y, 0.0)
        w_ref, b_ref = ref_train_logreg(X, y, 0.0)
        assert w.tobytes() == w_ref.tobytes() and b == b_ref
        assert_same_path(X, y, 3, inner_cv=3, seed=2, lambda_l2=0.0)

    @settings(max_examples=40, deadline=None)
    @given(small_datasets(), st.integers(0, 1000))
    def test_small_datasets(self, data, seed):
        X, y, lam, inner_cv = data
        assert_same_path(X, y, X.shape[1], inner_cv=inner_cv, seed=seed, lambda_l2=lam)


class TestTieBreak:
    def test_duplicate_and_constant_columns_pick_lower_index(self):
        rng = np.random.default_rng(8)
        n = 40
        y = np.array([0.0, 1.0] * (n // 2))
        signal = y + rng.normal(scale=0.8, size=n)
        noise = rng.normal(size=n)
        # column 1 duplicates column 3; column 0 and 4 are constant
        X = np.column_stack([np.zeros(n), signal, noise, signal, np.zeros(n)])
        order, path = sfs_path(X, y, k_max=5, inner_cv=4, seed=0, lambda_l2=1.0)
        assert order[0] == 1  # not 3, its exact copy
        # each constant column ties with the other; the lower index goes first
        assert order.index(0) < order.index(4)
        assert (order, path) == ref_sfs_path(X, y, 5, inner_cv=4, seed=0, lambda_l2=1.0)

    def test_all_constant_columns_keep_ascending_order(self):
        X = np.ones((20, 4))
        y = np.array([0.0, 1.0] * 10)
        order, path = sfs_path(X, y, k_max=4, inner_cv=2, seed=0)
        assert order == [0, 1, 2, 3]
        assert path == [0.5] * 4


class TestConvergenceWarning:
    def test_train_logreg_warns_at_max_iter(self, monkeypatch, caplog):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(30, 3))
        y = (X[:, 0] > 0).astype(float)
        monkeypatch.setattr(model, "NEWTON_MAX_ITER", 1)
        with caplog.at_level(logging.WARNING, logger="codereadability.model"):
            train_logreg(X, y, 1.0)
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1
        assert "max_iter=1" in warnings[0].getMessage()

    def test_converged_fit_is_silent(self, caplog):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(30, 3))
        y = (X[:, 0] > 0).astype(float)
        with caplog.at_level(logging.WARNING, logger="codereadability.model"):
            train_logreg(X, y, 1.0)
        assert not caplog.records

    def test_sfs_path_warns_once_with_the_count(self, caplog, monkeypatch):
        monkeypatch.setattr(model, "NEWTON_MAX_ITER", 1)
        rng = np.random.default_rng(2)
        X = rng.normal(size=(40, 4))
        y = (X[:, 0] + X[:, 1] > 0).astype(float)
        with caplog.at_level(logging.WARNING, logger="codereadability.model"):
            sfs_path(X, y, k_max=2, inner_cv=2, seed=0)
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1
        # 2 folds x (4 + 3 candidates); none converges in one step
        assert "14 of 14 fits" in warnings[0].getMessage()


class TestFoldErrorMessage:
    def test_class_label_printed_as_plain_value(self):
        y = np.array([1.0] + [0.0] * 9)
        X = np.random.default_rng(0).normal(size=(10, 2))
        with pytest.raises(ValueError) as info:
            sfs_path(X, y, k_max=1)
        assert str(info.value) == "class 1 has 1 members, fewer than k=2"
