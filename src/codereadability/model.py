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
available CPU at most, with the same bits at any CPU count. The frozen
``EvaluationReport`` holds only what ``evaluate`` computes; the CLI's
JSON report appends the configuration as its last key. A model file
carries the feature ``schema_version`` it was trained under, and
``load_model`` rejects any other. Everything is deterministic under a
seed, a non-negative int: the fold shuffle is the package's own port of
numpy's ``default_rng(seed).shuffle``, bit for bit, so no fold depends on
the ``Generator`` algorithms of the numpy installed.
"""

from __future__ import annotations

import json
import logging
import math
import operator
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .config import check_lambda_l2
from .corpus import read_utf8
from .fanout import fan_out
from .stats import accuracy, auc, auc_rows
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


def _exp(t: float) -> float:
    """libm's ``exp``, ``inf`` past its range."""
    try:
        return math.exp(t)
    except OverflowError:
        return math.inf


def sigmoid(z) -> np.ndarray:
    """``1 / (1 + exp(-z))`` elementwise with libm's ``exp``: the bits of
    ``scipy.special.expit``, with no overflow and no warning.

    numpy's float64 ``exp`` is a SIMD kernel that differs from libm in the
    last bit on some inputs; its complex ``exp`` calls libm's ``cexp``,
    which on a real argument up to 709 is ``exp`` itself. The rare entries
    past 709 (an ``exp`` near or over the float64 maximum), and NaN, go
    through :func:`_exp` one at a time.
    """
    t = -np.asarray(z, dtype=np.float64)
    e = np.exp(np.minimum(t, 709.0).astype(np.complex128)).real
    rare = ~(t <= 709.0)
    if rare.any():
        e = np.array(e)  # writable, also for a 0-d input
        e[rare] = [_exp(v) for v in t[rare].tolist()]
    return 1.0 / (1.0 + e)


def _objective(params: np.ndarray, X: np.ndarray, y: np.ndarray,
               lambda_l2: float) -> tuple[np.ndarray, np.ndarray]:
    """Objective (c,) and gradient (c, d+1) of c problems sharing labels ``y``;
    ``params`` is (c, d+1) with the intercept last, ``X`` is (c, n, d)."""
    w, b = params[:, :-1], params[:, -1:]
    z = (X @ w[:, :, None])[:, :, 0] + b
    # mean log-loss via logaddexp for numerical stability
    loss = (np.mean(np.logaddexp(0.0, z) - y * z, axis=1)
            + 0.5 * lambda_l2 * (w[:, None, :] @ w[:, :, None])[:, 0, 0])
    resid = (sigmoid(z) - y) / y.shape[0]
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
        p = sigmoid((Xa @ params[:, :, None])[:, :, 0])
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


def _classes(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct labels, ascending, and the count of each. (Without
    counts, ``np.unique`` imports ``numpy.ma`` on its first call.)"""
    return np.unique(labels, return_counts=True)


def train_logreg(Xn: np.ndarray, y: np.ndarray, lambda_l2: float = 1.0) -> tuple[np.ndarray, float]:
    """Fit (w, b) on already-scaled features. Requires both classes."""
    check_lambda_l2(lambda_l2)
    Xn = np.asarray(Xn, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(_classes(y)[0]) < 2:
        raise ValueError("training labels contain a single class")

    params, unconverged = _newton(Xn[None], y, lambda_l2)
    if unconverged:
        log.warning("train_logreg: the fit stopped at max_iter=%d above tol=%g",
                    NEWTON_MAX_ITER, NEWTON_TOL)
    return params[0, :-1], float(params[0, -1])


# --------------------------------------------------------------------------
# Cross-validation and feature selection
# --------------------------------------------------------------------------

# numpy's SeedSequence hash constants and PCG64's 128-bit multiplier
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1


def _seed_sequence(seed: int) -> tuple[int, int]:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` as PCG64 reads
    it: ``(initstate, initseq)``, 128 bits each. ``seed`` must be an int
    >= 0, the seeds that numpy and this port agree on."""
    seed = operator.index(seed)  # TypeError for None, a float or a string
    if seed < 0:
        raise ValueError("expected non-negative integer")
    entropy = [seed & _M32]  # 32-bit words, least significant first
    while seed > _M32:
        seed >>= 32
        entropy.append(seed & _M32)
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
        return result ^ result >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const, words = _INIT_B, []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * _MULT_B & _M32
        value = value * hash_const & _M32
        words.append(value ^ value >> 16)
    s0, s1, s2, s3 = (words[i] | words[i + 1] << 32 for i in range(0, 8, 2))
    return s0 << 64 | s1, s2 << 64 | s3


def _pcg64_uint32(initstate: int, initseq: int) -> Iterator[int]:
    """The 32-bit draws of numpy's PCG64 seeded with ``_seed_sequence``'s
    pair: each 64-bit XSL-RR output gives its low half, then its high
    half, as ``next_uint32`` buffers it."""
    inc = (initseq << 1 | 1) & _M128
    # seeding: a step from state 0 (which gives inc), add initstate, a step
    state = ((inc + initstate) * _PCG64_MULT + inc) & _M128
    while True:
        state = (state * _PCG64_MULT + inc) & _M128
        x, rot = (state >> 64 ^ state) & _M64, state >> 122
        out = (x >> rot | x << (64 - rot)) & _M64
        yield out & _M32
        yield out >> 32


def _shuffle(items: list, draws: Iterator[int]) -> None:
    """``Generator.shuffle`` of a 1-D array, in place: Fisher-Yates from
    the last index down to 1, each swap partner drawn as numpy's
    ``random_interval`` draws it, 32 bits masked to the smallest all-ones
    mask >= i, values above i rejected. (numpy draws 64 bits once i passes
    2**32 - 1; no class has that many rows.)"""
    for i in range(len(items) - 1, 0, -1):
        mask = (1 << i.bit_length()) - 1
        j = next(draws) & mask
        while j > i:
            j = next(draws) & mask
        items[i], items[j] = items[j], items[i]


def stratified_folds(labels, k: int, seed: int) -> np.ndarray:
    """Fold id per sample; per-class counts across folds differ by <= 1.

    Each class's row indices are shuffled in turn, as by one numpy
    ``default_rng(seed)``, and dealt out round-robin. ``seed`` is an int
    >= 0; ``None`` (fresh entropy) is refused.
    """
    labels = np.asarray(labels)
    if k < 2:
        raise ValueError("stratified CV needs k >= 2")
    assignment = np.empty(len(labels), dtype=np.int64)
    draws = _pcg64_uint32(*_seed_sequence(seed))
    for cls in _classes(labels)[0]:
        order = np.flatnonzero(labels == cls).tolist()
        if len(order) < k:
            raise ValueError(f"class {cls:g} has {len(order)} members, fewer than k={k}")
        _shuffle(order, draws)
        assignment[order] = np.arange(len(order)) % k
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
    smallest = int(_classes(y)[1].min())
    inner_cv = max(2, min(inner_cv, smallest))
    folds = stratified_folds(y, inner_cv, seed)
    tests = [folds == fold for fold in range(inner_cv)]
    splits = [(Xn[~t], y[~t], Xn[t], y[t]) for t in tests]  # sliced once, used every step

    selected: list[int] = []
    score_path: list[float] = []
    remaining = list(pool)  # ascending, so the first argmax is the lowest index
    fits = unconverged = 0
    while len(selected) < k_max:
        total = np.zeros(len(remaining))
        for X_train, y_train, X_test, y_test in splits:  # summed in fold order
            params, missed = _newton(_candidate_stack(X_train, selected, remaining),
                                     y_train, lambda_l2)
            fits += len(remaining)
            unconverged += missed
            held_out = _candidate_stack(X_test, selected, remaining)
            total += auc_rows((held_out @ params[:, :-1, None])[:, :, 0] + params[:, -1:],
                              y_test)
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
    probability = float(sigmoid(linear + model.intercept))
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

@dataclass(frozen=True)
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

    def to_dict(self) -> dict:
        return asdict(self)


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

    def run(fold: int) -> tuple[float, float, list[int]]:
        test = folds == fold
        trained = train_model(X[~test], y[~test], family, lambda_l2, k_max, inner_cv,
                              seed=seed + 1000 * (fold + 1))
        probs = [predict(trained, x)[0] for x in X[test]]
        return accuracy(probs, y[test]), auc(probs, y[test]), list(trained.selected)

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
    text = read_utf8(path, ModelError)
    try:
        doc = json.loads(text)
    # RecursionError: nested too deeply; ValueError: also an int of over 4,300 digits
    except (ValueError, RecursionError) as exc:
        raise ModelError(f"cannot read model file {path}: {exc}") from None

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
    try:  # the penalty train_model accepts, and no other
        check_lambda_l2(float(lambda_l2))
    except ValueError as exc:
        raise ModelError(f"model file {path}: {str(exc).removeprefix('[model] ')}") from None
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
    if not isinstance(doc["provenance"], str):
        raise ModelError(f"model file {path}: provenance must be a string")
    return ReadabilityModel(
        scaler=ScalerParams(mu=mu, sigma=sigma),
        selected=tuple(selected),
        weights=weights,
        intercept=float(intercept),
        lambda_l2=float(lambda_l2),
        training_provenance=doc["provenance"],
    )


def _model_numbers(doc: dict, name: str, path, ndim: int) -> np.ndarray:
    """Field ``name`` as finite float64: a list for ``ndim`` 1, a number for
    0, of JSON numbers only (not a bool, an int to Python, nor a string)."""
    value = doc[name]
    items = value if ndim else [value]
    try:
        valid = (isinstance(items, list) and all(type(v) in (int, float) for v in items)
                 and np.isfinite(np.asarray(items, dtype=np.float64)).all())
    except OverflowError:  # an integer past the float64 range
        valid = False
    if not valid:
        shape = "a list of finite numbers" if ndim else "a finite number"
        raise ModelError(f"model file {path}: {name} must be {shape}")
    return np.asarray(value, dtype=np.float64)
