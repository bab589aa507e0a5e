"""Readability classifier: scaling, L2 logistic regression, greedy forward
feature selection, stratified cross-validation, and model persistence.

The training objective is mean logistic loss plus ``lambda_l2/2 * ||w||^2``
(intercept unpenalized), minimized by damped Newton iteration to a
1e-8 gradient-norm tolerance. One kernel, ``_newton``, fits a stack of
independent problems in lockstep: batched matmuls build every gradient and
Hessian, one batched solve gives every Newton step, and per-problem masks
retire converged problems and halve only the steps whose own objective
rose. Forward selection hands it every remaining candidate of an inner
fold at once; ``train_logreg`` is the batch of one. Each problem takes the
same iterates, bit for bit, as it would alone, so no result depends on
the batch. Everything is deterministic under a seed.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import expit
from scipy.stats import rankdata

from .vectorizer import N_FEATURES, SCHEMA_VERSION, FeatureVector, family_indices

log = logging.getLogger(__name__)


class ModelError(ValueError):
    """Persistence or schema-compatibility failure."""


# --------------------------------------------------------------------------
# Scaling
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalerParams:
    mu: np.ndarray
    sigma: np.ndarray


def fit_scaler(X: np.ndarray) -> ScalerParams:
    """Column-wise z-score parameters (population std); constant columns
    get sigma=1 so they scale to exactly zero."""
    X = np.asarray(X, dtype=np.float64)
    if X.size == 0:
        raise ValueError("cannot fit scaler on an empty matrix")
    mu = X.mean(axis=0)
    sigma = X.std(axis=0)
    sigma = np.where(sigma > 0.0, sigma, 1.0)
    return ScalerParams(mu=mu, sigma=sigma)


def transform(scaler: ScalerParams, X: np.ndarray) -> np.ndarray:
    return (np.asarray(X, dtype=np.float64) - scaler.mu) / scaler.sigma


# --------------------------------------------------------------------------
# L2 logistic regression (damped Newton, many problems in lockstep)
# --------------------------------------------------------------------------

NEWTON_TOL = 1e-8
NEWTON_MAX_ITER = 10000


def _objective(params: np.ndarray, X: np.ndarray, y: np.ndarray,
               lambda_l2: float) -> tuple[np.ndarray, np.ndarray]:
    """Objective (c,) and gradient (c, d+1) of c problems sharing labels ``y``;
    ``params`` is (c, d+1) with the intercept last, ``X`` is (c, n, d)."""
    w, b = params[:, :-1], params[:, -1:]
    z = (X @ w[:, :, None])[:, :, 0] + b
    # mean log-loss via logaddexp for numerical stability
    loss = (np.mean(np.logaddexp(0.0, z) - y * z, axis=1)
            + 0.5 * lambda_l2 * (w[:, None, :] @ w[:, :, None])[:, 0, 0])
    resid = (expit(z) - y) / y.shape[0]
    grad = np.concatenate([(X.transpose(0, 2, 1) @ resid[:, :, None])[:, :, 0] + lambda_l2 * w,
                           resid.sum(axis=1, keepdims=True)], axis=1)
    return loss, grad


def logloss_and_grad(params: np.ndarray, X: np.ndarray, y: np.ndarray,
                     lambda_l2: float) -> tuple[float, np.ndarray]:
    """Objective and gradient; ``params`` is weights with the intercept last."""
    loss, grad = _objective(np.asarray(params, dtype=np.float64)[None],
                            np.asarray(X, dtype=np.float64)[None],
                            np.asarray(y, dtype=np.float64), lambda_l2)
    return float(loss[0]), grad[0]


def _solve(hessian: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Newton steps of a stack of systems; a singular one falls back to
    least squares on its own."""
    try:
        return np.linalg.solve(hessian, grad[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        step = np.empty_like(grad)
        for i, (h, g) in enumerate(zip(hessian, grad)):
            try:
                step[i] = np.linalg.solve(h, g)
            except np.linalg.LinAlgError:
                step[i] = np.linalg.lstsq(h, g, rcond=None)[0]
        return step


def _newton(X: np.ndarray, y: np.ndarray, lambda_l2: float, tol: float,
            max_iter: int) -> tuple[np.ndarray, int]:
    """Fit c independent problems on a (c, n, d) stack of features sharing
    labels ``y``. Returns the (c, d+1) parameters, intercept last, and the
    number of problems whose gradient is still above ``tol`` after
    ``max_iter`` steps.

    Each problem follows exactly the iterates it would follow alone: a
    converged problem leaves the stack, and each line search halves only
    the steps that have not yet stopped increasing their own objective.
    """
    # C order: X.T @ resid on a strided view would round differently
    X = np.ascontiguousarray(X, dtype=np.float64)
    c, n, d = X.shape
    Xa = np.concatenate([X, np.ones((c, n, 1))], axis=2)
    reg = np.diag(np.append(np.full(d, lambda_l2), 0.0))
    fitted = np.zeros((c, d + 1))
    live = np.arange(c)
    params = np.zeros((c, d + 1))
    loss, grad = _objective(params, X, y, lambda_l2)
    for _ in range(max_iter):
        moving = ~(np.max(np.abs(grad), axis=1) <= tol)
        if not moving.all():
            fitted[live[~moving]] = params[~moving]
            live, Xa, X, params, loss, grad = (
                a[moving] for a in (live, Xa, X, params, loss, grad))
            if live.size == 0:
                break
        p = expit((Xa @ params[:, :, None])[:, :, 0])
        weights = np.maximum(p * (1.0 - p), 1e-12)
        # F-ordered slices, so each slice's gemm rounds as 2-D (Xa.T * weights) @ Xa does
        hessian = (Xa * weights[:, :, None]).transpose(0, 2, 1) @ Xa / n + reg
        step = _solve(hessian, grad)
        # damped update: halve each step until its objective stops increasing
        trial = params - step
        new_loss, new_grad = _objective(trial, X, y, lambda_l2)
        scale = np.ones(len(live))
        searching = np.flatnonzero(~(new_loss <= loss + 1e-15))
        for _ in range(59):
            if searching.size == 0:
                break
            scale[searching] *= 0.5
            candidate = params[searching] - scale[searching, None] * step[searching]
            c_loss, c_grad = _objective(candidate, X[searching], y, lambda_l2)
            trial[searching], new_loss[searching], new_grad[searching] = candidate, c_loss, c_grad
            searching = searching[~(c_loss <= loss[searching] + 1e-15)]
        params, loss, grad = trial, new_loss, new_grad
    fitted[live] = params
    return fitted, int(np.count_nonzero(~(np.max(np.abs(grad), axis=1) <= tol)))


def train_logreg(Xn: np.ndarray, y: np.ndarray, lambda_l2: float = 1.0, tol: float = NEWTON_TOL,
                 max_iter: int = NEWTON_MAX_ITER) -> tuple[np.ndarray, float]:
    """Fit (w, b) on already-scaled features. Requires both classes."""
    Xn = np.asarray(Xn, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    classes = np.unique(y)
    if len(classes) < 2:
        raise ValueError("training labels contain a single class")

    params, unconverged = _newton(Xn[None], y, lambda_l2, tol, max_iter)
    if unconverged:
        log.warning("train_logreg: the fit stopped at max_iter=%d above tol=%g",
                    max_iter, tol)
    return params[0, :-1], float(params[0, -1])


# --------------------------------------------------------------------------
# Metrics
# --------------------------------------------------------------------------

def _auc_rows(scores: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """AUC of each row of ``scores`` against one label vector."""
    pos = np.asarray(labels) == 1
    n_pos = int(pos.sum())
    n_neg = len(pos) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC requires both classes")
    ranks = rankdata(scores, axis=1)
    return (ranks[:, pos].sum(axis=1) - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def auc(scores, labels) -> float:
    """Rank-based AUC: P(score_pos > score_neg) + 0.5 P(equal)."""
    return float(_auc_rows(np.asarray(scores, dtype=np.float64)[None], labels)[0])


def accuracy(scores, labels, threshold: float = 0.5) -> float:
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    return float(np.mean((scores >= threshold).astype(int) == labels))


# --------------------------------------------------------------------------
# Cross-validation and feature selection
# --------------------------------------------------------------------------

def stratified_folds(labels, k: int, seed: int) -> np.ndarray:
    """Fold id per sample; per-class counts across folds differ by <= 1."""
    labels = np.asarray(labels)
    if k < 2:
        raise ValueError("stratified CV needs k >= 2")
    assignment = np.empty(len(labels), dtype=np.int64)
    rng = np.random.default_rng(seed)
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        if len(idx) < k:
            raise ValueError(f"class {cls:g} has {len(idx)} members, fewer than k={k}")
        rng.shuffle(idx)
        for fold in range(k):
            assignment[idx[fold::k]] = fold
    return assignment


def _candidate_stack(Xn: np.ndarray, selected: list[int], remaining: list[int]) -> np.ndarray:
    """(c, n, s+1) stack, one slice per remaining candidate: the selected
    columns, then the candidate."""
    s = len(selected)
    stack = np.empty((len(remaining), len(Xn), s + 1))
    stack[:, :, :s] = Xn[:, selected]
    stack[:, :, s] = Xn[:, remaining].T
    return stack


def sfs_path(Xn: np.ndarray, y: np.ndarray, k_max: int, inner_cv: int = 5,
             seed: int = 0, lambda_l2: float = 1.0,
             candidates: list[int] | None = None) -> tuple[list[int], list[float]]:
    """Greedy forward selection from the empty set; full path.

    At every step the feature maximizing inner-CV AUC joins the set (ties
    go to the lower column index). Returns the selection order and the
    criterion value at each prefix size. Per inner fold, every remaining
    candidate is fitted at once by the lockstep Newton kernel.
    """
    Xn = np.asarray(Xn, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    pool = sorted(candidates) if candidates is not None else list(range(Xn.shape[1]))
    if k_max > len(pool):
        k_max = len(pool)
    # the inner split cannot have more folds than the smallest class
    smallest = min(int((y == cls).sum()) for cls in np.unique(y))
    inner_cv = max(2, min(inner_cv, smallest))
    folds = stratified_folds(y, inner_cv, seed)
    splits = [(folds != fold, folds == fold) for fold in range(inner_cv)]

    selected: list[int] = []
    score_path: list[float] = []
    remaining = list(pool)  # ascending, so the first argmax is the lowest index
    fits = unconverged = 0
    while len(selected) < k_max:
        total = np.zeros(len(remaining))
        for train, test in splits:  # summed in fold order
            params, missed = _newton(_candidate_stack(Xn[train], selected, remaining),
                                     y[train], lambda_l2, NEWTON_TOL, NEWTON_MAX_ITER)
            fits += len(remaining)
            unconverged += missed
            held_out = _candidate_stack(Xn[test], selected, remaining)
            total += _auc_rows((held_out @ params[:, :-1, None])[:, :, 0] + params[:, -1:],
                               y[test])
        scores = total / inner_cv
        best = int(np.argmax(scores))
        selected.append(remaining.pop(best))
        score_path.append(float(scores[best]))
    if unconverged:
        log.warning("sfs_path: %d of %d fits stopped at max_iter=%d above tol=%g",
                    unconverged, fits, NEWTON_MAX_ITER, NEWTON_TOL)
    return selected, score_path


def sfs(Xn: np.ndarray, y: np.ndarray, k_max: int, inner_cv: int = 5,
        seed: int = 0, lambda_l2: float = 1.0,
        candidates: list[int] | None = None) -> list[int]:
    """Forward selection truncated at the prefix whose criterion peaked
    (ties go to the smaller size)."""
    selected, score_path = sfs_path(Xn, y, k_max, inner_cv, seed, lambda_l2, candidates)
    if not selected:
        return []
    best_size = int(np.argmax(score_path)) + 1  # argmax takes the first peak
    return selected[:best_size]


# --------------------------------------------------------------------------
# Model object
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ReadabilityModel:
    scaler: ScalerParams
    selected: tuple[int, ...]      # schema column indices, in selection order
    weights: np.ndarray            # one weight per selected column
    intercept: float
    lambda_l2: float
    schema_version: str = SCHEMA_VERSION
    training_provenance: str = ""


def predict(model: ReadabilityModel, x: FeatureVector | np.ndarray) -> tuple[float, float]:
    """(probability, linear_score) for one feature vector.

    The linear score is the weighted sum of scaled selected features,
    without the intercept; the probability adds the intercept and applies
    the sigmoid.
    """
    if isinstance(x, FeatureVector):
        if x.schema_version != model.schema_version:
            raise ModelError(
                f"schema mismatch: vector {x.schema_version!r} vs model {model.schema_version!r}"
            )
        values = x.values
    else:
        values = np.asarray(x, dtype=np.float64)
    scaled = (values - model.scaler.mu) / model.scaler.sigma
    picked = scaled[list(model.selected)]
    linear = float(picked @ model.weights)
    probability = float(expit(linear + model.intercept))
    return probability, linear


def train_model(X: np.ndarray, y, family: str = "all", lambda_l2: float = 1.0,
                k_max: int | None = None, inner_cv: int = 5, seed: int = 0,
                provenance: str = "") -> ReadabilityModel:
    """Scaler + SFS + final logistic regression on the full training set."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    candidates = family_indices(family)
    if k_max is None:
        k_max = len(candidates)
    scaler = fit_scaler(X)
    Xn = transform(scaler, X)
    selected = sfs(Xn, y, k_max, inner_cv=inner_cv, seed=seed,
                   lambda_l2=lambda_l2, candidates=candidates)
    w, b = train_logreg(Xn[:, selected], y, lambda_l2)
    return ReadabilityModel(
        scaler=scaler, selected=tuple(selected), weights=w, intercept=b,
        lambda_l2=lambda_l2, training_provenance=provenance,
    )


# --------------------------------------------------------------------------
# Evaluation
# --------------------------------------------------------------------------

@dataclass
class EvaluationReport:
    family: str
    k: int
    seed: int
    lambda_l2: float
    accuracy: float
    auc: float
    n_selected: float                 # mean selected-feature count per fold
    fold_accuracy: list[float] = field(default_factory=list)
    fold_auc: list[float] = field(default_factory=list)
    fold_selected: list[list[int]] = field(default_factory=list)
    fold_assignment: list[int] = field(default_factory=list)
    config: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "k": self.k,
            "seed": self.seed,
            "lambda_l2": self.lambda_l2,
            "accuracy": self.accuracy,
            "auc": self.auc,
            "n_selected": self.n_selected,
            "fold_accuracy": self.fold_accuracy,
            "fold_auc": self.fold_auc,
            "fold_selected": self.fold_selected,
            "fold_assignment": self.fold_assignment,
            "config": self.config,
        }


def evaluate(X: np.ndarray, y, family: str = "all", k: int = 10, seed: int = 42,
             lambda_l2: float = 1.0, k_max: int | None = None,
             inner_cv: int = 5) -> EvaluationReport:
    """Cross-validated accuracy/AUC with per-fold scaling and selection."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    candidates = family_indices(family)
    if k_max is None:
        k_max = len(candidates)
    folds = stratified_folds(y, k, seed)

    report = EvaluationReport(family=family, k=k, seed=seed, lambda_l2=lambda_l2,
                              accuracy=0.0, auc=0.0, n_selected=0.0,
                              fold_assignment=folds.tolist())
    for fold in range(k):
        test = folds == fold
        scaler = fit_scaler(X[~test])
        Xn_train = transform(scaler, X[~test])
        Xn_test = transform(scaler, X[test])
        selected = sfs(Xn_train, y[~test], k_max, inner_cv=inner_cv,
                       seed=seed + 1000 * (fold + 1), lambda_l2=lambda_l2,
                       candidates=candidates)
        w, b = train_logreg(Xn_train[:, selected], y[~test], lambda_l2)
        probs = expit(Xn_test[:, selected] @ w + b)
        report.fold_accuracy.append(accuracy(probs, y[test]))
        report.fold_auc.append(auc(probs, y[test]))
        report.fold_selected.append(list(selected))

    report.accuracy = float(np.mean(report.fold_accuracy))
    report.auc = float(np.mean(report.fold_auc))
    report.n_selected = float(np.mean([len(s) for s in report.fold_selected]))
    return report


def render_evaluation_table(reports: list[EvaluationReport]) -> str:
    """Aligned text table: family, selected features, accuracy, AUC."""
    lines = [f"{'Feature Family':<16}{'Features':>10}{'Accuracy':>12}{'AUC':>10}"]
    for r in reports:
        lines.append(
            f"{r.family:<16}{r.n_selected:>10.1f}{100 * r.accuracy:>11.1f}%{100 * r.auc:>9.1f}%"
        )
    return "\n".join(lines)


# --------------------------------------------------------------------------
# Persistence
# --------------------------------------------------------------------------

def save_model(model: ReadabilityModel, path: str | Path) -> None:
    doc = {
        "schema_version": model.schema_version,
        "mu": model.scaler.mu.tolist(),
        "sigma": model.scaler.sigma.tolist(),
        "selected": list(model.selected),
        "weights": model.weights.tolist(),
        "intercept": model.intercept,
        "lambda_l2": model.lambda_l2,
        "provenance": model.training_provenance,
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def load_model(path: str | Path) -> ReadabilityModel:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ModelError(f"cannot read model file {path}: {exc}") from exc

    required = {"schema_version", "mu", "sigma", "selected", "weights",
                "intercept", "lambda_l2", "provenance"}
    missing = required - doc.keys()
    if missing:
        raise ModelError(f"model file {path} is missing fields: {sorted(missing)}")
    if doc["schema_version"] != SCHEMA_VERSION:
        raise ModelError(
            f"schema version mismatch: file has {doc['schema_version']!r}, "
            f"this build expects {SCHEMA_VERSION!r}"
        )
    mu = np.asarray(doc["mu"], dtype=np.float64)
    sigma = np.asarray(doc["sigma"], dtype=np.float64)
    if mu.shape != (N_FEATURES,) or sigma.shape != (N_FEATURES,):
        raise ModelError(
            f"scaler length {mu.shape[0]}/{sigma.shape[0]} does not match "
            f"the {N_FEATURES}-feature schema"
        )
    selected = tuple(int(i) for i in doc["selected"])
    weights = np.asarray(doc["weights"], dtype=np.float64)
    if len(weights) != len(selected):
        raise ModelError(f"{len(weights)} weights for {len(selected)} selected features")
    if any(i < 0 or i >= N_FEATURES for i in selected):
        raise ModelError("selected feature index out of schema range")
    return ReadabilityModel(
        scaler=ScalerParams(mu=mu, sigma=sigma),
        selected=selected,
        weights=weights,
        intercept=float(doc["intercept"]),
        lambda_l2=float(doc["lambda_l2"]),
        schema_version=doc["schema_version"],
        training_provenance=doc["provenance"],
    )
