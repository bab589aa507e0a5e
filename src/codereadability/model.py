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
the batch. ``predict`` is the one way from a feature row to a score:
each outer fold of ``evaluate`` is one ``train_model`` call on its
training rows, with one ``predict`` per held-out row. The folds share
nothing, so ``fanout.fan_out`` cuts them into contiguous runs, one per
available CPU at most, with the same bits at any CPU count. A model file
carries the feature ``schema_version`` it was trained under, and
``load_model`` rejects any other. Everything is deterministic under a
seed.
"""

from __future__ import annotations

import json
import logging
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path

import numpy as np
from scipy.special import expit

from .config import check_lambda_l2
from .fanout import fan_out
from .vectorizer import N_FEATURES, SCHEMA_VERSION, family_indices

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


def _newton(X: np.ndarray, y: np.ndarray, lambda_l2: float) -> tuple[np.ndarray, int]:
    """Fit c independent problems on a (c, n, d) stack of features sharing
    labels ``y``. Returns the (c, d+1) parameters, intercept last, and the
    number of problems whose gradient is still above ``NEWTON_TOL`` after
    ``NEWTON_MAX_ITER`` steps.

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
    for _ in range(NEWTON_MAX_ITER):
        moving = ~(np.max(np.abs(grad), axis=1) <= NEWTON_TOL)
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
    return fitted, int(np.count_nonzero(~(np.max(np.abs(grad), axis=1) <= NEWTON_TOL)))


def train_logreg(Xn: np.ndarray, y: np.ndarray, lambda_l2: float = 1.0) -> tuple[np.ndarray, float]:
    """Fit (w, b) on already-scaled features. Requires both classes."""
    check_lambda_l2(lambda_l2)
    Xn = np.asarray(Xn, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    classes = np.unique(y)
    if len(classes) < 2:
        raise ValueError("training labels contain a single class")

    params, unconverged = _newton(Xn[None], y, lambda_l2)
    if unconverged:
        log.warning("train_logreg: the fit stopped at max_iter=%d above tol=%g",
                    NEWTON_MAX_ITER, NEWTON_TOL)
    return params[0, :-1], float(params[0, -1])


# --------------------------------------------------------------------------
# Metrics
# --------------------------------------------------------------------------

def rankdata(a) -> np.ndarray:
    """Average ranks (1-based) along the last axis; each tie group gets
    the mean of its first and last sorted position, like
    ``scipy.stats.rankdata(a, axis=-1)``. Every row is ranked at once; a
    row holding NaN ranks as all NaN, as scipy's does."""
    a = np.asarray(a)
    n = a.shape[-1]
    if n == 0:
        return np.zeros(a.shape, dtype=np.float64)
    order = np.argsort(a, axis=-1, kind="stable")
    ordered = np.take_along_axis(a, order, axis=-1)
    starts = np.ones(a.shape, dtype=bool)
    starts[..., 1:] = ordered[..., 1:] != ordered[..., :-1]
    ends = np.ones(a.shape, dtype=bool)
    ends[..., :-1] = starts[..., 1:]
    position = np.arange(n)
    first = np.maximum.accumulate(np.where(starts, position, 0), axis=-1)
    last = np.minimum.accumulate(np.where(ends, position, n)[..., ::-1], axis=-1)[..., ::-1]
    ranks = np.empty(a.shape, dtype=np.float64)
    np.put_along_axis(ranks, order, (first + last) / 2.0 + 1.0, axis=-1)
    ranks[np.isnan(ordered[..., -1])] = np.nan  # NaN sorts last
    return ranks


def _auc_rows(scores: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """AUC of each row of ``scores`` against one label vector."""
    pos = np.asarray(labels) == 1
    n_pos = int(pos.sum())
    n_neg = len(pos) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC requires both classes")
    ranks = rankdata(scores)
    return (ranks[:, pos].sum(axis=1) - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def auc(scores, labels) -> float:
    """Rank-based AUC: P(score_pos > score_neg) + 0.5 P(equal)."""
    return float(_auc_rows(np.asarray(scores, dtype=np.float64)[None], labels)[0])


def accuracy(scores, labels) -> float:
    """Share of labels matched by ``scores >= 0.5``."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    return float(np.mean((scores >= 0.5).astype(int) == labels))


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
    check_lambda_l2(lambda_l2)
    if k_max < 0:
        raise ValueError(f"k_max must be non-negative, got {k_max}")
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
                                     y[train], lambda_l2)
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
    training_provenance: str = ""


def predict(model: ReadabilityModel, x: np.ndarray) -> tuple[float, float]:
    """(probability, linear_score) for one feature vector.

    The linear score is the weighted sum of scaled selected features,
    without the intercept; the probability adds the intercept and applies
    the sigmoid.
    """
    picked = transform(model.scaler, x)[list(model.selected)]
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
        return asdict(self)


def _outer_fold(fold: int, X: np.ndarray, y: np.ndarray, folds: np.ndarray,
                family: str, k_max: int | None, inner_cv: int, seed: int,
                lambda_l2: float) -> tuple[float, float, list[int]]:
    """``train_model`` on the training rows of one outer fold, then its
    held-out ``(accuracy, auc, selected)``, each held-out row scored by
    one :func:`predict`."""
    test = folds == fold
    trained = train_model(X[~test], y[~test], family, lambda_l2, k_max, inner_cv,
                          seed=seed + 1000 * (fold + 1))
    probs = [predict(trained, x)[0] for x in X[test]]
    return accuracy(probs, y[test]), auc(probs, y[test]), list(trained.selected)


def evaluate(X: np.ndarray, y, family: str = "all", k: int = 10, seed: int = 42,
             lambda_l2: float = 1.0, k_max: int | None = None,
             inner_cv: int = 5) -> EvaluationReport:
    """Cross-validated accuracy/AUC with per-fold scaling and selection.

    The outer folds share nothing, so :func:`fanout.fan_out` cuts them
    into contiguous runs of about equal fold count, one per process on
    ``min(k, available CPUs)`` processes at most. Each fold computes the
    same bits wherever it runs. This process logs its own folds live, the
    workers' records follow in fold order, and the first failing fold's
    exception is raised.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    family_indices(family)  # an unknown family fails here, before any fork
    folds = stratified_folds(y, k, seed)

    run = partial(_outer_fold, X=X, y=y, folds=folds, family=family, k_max=k_max,
                  inner_cv=inner_cv, seed=seed, lambda_l2=lambda_l2)
    fold_accuracy, fold_auc, fold_selected = map(list, zip(*fan_out(run, [1] * k)))
    return EvaluationReport(family=family, k=k, seed=seed, lambda_l2=lambda_l2,
                            accuracy=float(np.mean(fold_accuracy)),
                            auc=float(np.mean(fold_auc)),
                            n_selected=float(np.mean([len(s) for s in fold_selected])),
                            fold_accuracy=fold_accuracy, fold_auc=fold_auc,
                            fold_selected=fold_selected, fold_assignment=folds.tolist())


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
        "schema_version": SCHEMA_VERSION,
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
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ModelError(f"cannot read model file {path}: {exc}") from exc

    if not isinstance(doc, dict):
        raise ModelError(f"model file {path} is not a JSON object")
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
    mu, sigma, weights = (_model_numbers(doc, name, path, 1) for name in ("mu", "sigma", "weights"))
    intercept, lambda_l2 = (_model_numbers(doc, name, path, 0) for name in ("intercept", "lambda_l2"))
    if mu.shape != (N_FEATURES,) or sigma.shape != (N_FEATURES,):
        raise ModelError(
            f"scaler length {len(mu)}/{len(sigma)} does not match "
            f"the {N_FEATURES}-feature schema"
        )
    if not (sigma > 0).all():
        raise ModelError(f"model file {path}: sigma must be > 0 in every column")
    selected = doc["selected"]
    # a bool is an int to Python, and int() would truncate 2.5 to 2
    if (not isinstance(selected, list) or any(type(i) is not int for i in selected)
            or len(set(selected)) != len(selected)):
        raise ModelError(f"model file {path}: selected must be a list of distinct integer column indices")
    if len(weights) != len(selected):
        raise ModelError(f"{len(weights)} weights for {len(selected)} selected features")
    if any(i < 0 or i >= N_FEATURES for i in selected):
        raise ModelError("selected feature index out of schema range")
    return ReadabilityModel(
        scaler=ScalerParams(mu=mu, sigma=sigma),
        selected=tuple(selected),
        weights=weights,
        intercept=float(intercept),
        lambda_l2=float(lambda_l2),
        training_provenance=doc["provenance"],
    )


def _model_numbers(doc: dict, name: str, path, ndim: int) -> np.ndarray:
    """Field ``name`` as finite float64: a list for ``ndim`` 1, a number for 0."""
    try:
        value = np.asarray(doc[name], dtype=np.float64)
    except (TypeError, ValueError):  # ragged lists, strings, objects
        value = None
    if value is None or value.ndim != ndim or not np.isfinite(value).all():
        shape = "a list of finite numbers" if ndim else "a finite number"
        raise ModelError(f"model file {path}: {name} must be {shape}")
    return value
