"""Rank statistics: average ranks, the rank-based AUC and accuracy of the
classifier, and the Wilcoxon signed-rank test of the paired comparison.

The AUC is the Mann–Whitney statistic over average ranks. The signed-rank
test is two-sided on paired differences: zero differences are dropped,
tied absolute differences get average ranks, the p-value comes from the
exact sign-assignment distribution for up to 25 nonzero pairs and from the
tie-corrected normal approximation beyond that. Its normal tail,
:func:`ndtr`, is Moshier's Cephes ``ndtr`` (the one scipy compiles),
ported to Python floats with libm's ``exp``, so it returns the bits of
``scipy.special.ndtr``.

This module imports numpy and the standard library alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# up to this many nonzero pairs the p-value is exact; the 2^n
# sign-assignment counts stay exact in int64 only for n <= 62
EXACT_TEST_MAX_PAIRS = 25


# --------------------------------------------------------------------------
# Ranks, AUC and accuracy
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


def auc_rows(scores: np.ndarray, labels: np.ndarray) -> np.ndarray:
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
    return float(auc_rows(np.asarray(scores, dtype=np.float64)[None], labels)[0])


def accuracy(scores, labels) -> float:
    """Share of labels matched by ``scores >= 0.5``."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    return float(np.mean((scores >= 0.5).astype(int) == labels))


# --------------------------------------------------------------------------
# The standard normal distribution function (Cephes ndtr.c)
# --------------------------------------------------------------------------

# erf(x) = x T(x^2) / U(x^2) for |x| < 1
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
          7.00332514112805075473E3, 5.55923013010394962768E4)
_ERF_U = (3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
          2.26290000613890934246E4, 4.92673942608635921086E4)
# erfc(x) = exp(-x^2) P(x) / Q(x) for 1 <= x < 8, exp(-x^2) R(x) / S(x) from 8 on
_ERFC_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
           4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_ERFC_Q = (1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
           9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)
_ERFC_R = (5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0,
           6.16021097993053585195E0, 7.40974269950448939160E0, 2.97886665372100240670E0)
_ERFC_S = (2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1,
           1.70814450747565897222E1, 9.60896809063285878198E0, 3.36907645100081516050E0)
_MAXLOG = 7.09782712893383996843E2  # log of the largest double
_SQRT1_2 = 7.07106781186547524401E-1


def _polevl(x: float, coef: tuple[float, ...], monic: bool = False) -> float:
    """The polynomial at ``x`` by Horner's rule, ``coef`` from the highest
    power down; ``monic`` puts an implied leading 1 before ``coef`` (Cephes
    ``p1evl``)."""
    value = x + coef[0] if monic else coef[0]
    for c in coef[1:]:
        value = value * x + c
    return value


def ndtr(a: float) -> float:
    """Φ(a), the standard normal distribution function, as Cephes
    computes it: ``0.5 + 0.5 erf(a/√2)`` near 0, else ``0.5 erfc(|a|/√2)``
    (taken from 1 above 0), and 0 once ``exp(-a²/2)`` underflows."""
    if math.isnan(a):
        return math.nan
    x = a * _SQRT1_2
    z = abs(x)
    if z < 1.0:
        zz = x * x
        return 0.5 + 0.5 * (x * _polevl(zz, _ERF_T) / _polevl(zz, _ERF_U, monic=True))
    if z * z > _MAXLOG:
        tail = 0.0
    else:
        p, q = (_ERFC_P, _ERFC_Q) if z < 8.0 else (_ERFC_R, _ERFC_S)
        tail = 0.5 * (math.exp(-z * z) * _polevl(z, p) / _polevl(z, q, monic=True))
    return 1.0 - tail if x > 0 else tail


# --------------------------------------------------------------------------
# Wilcoxon signed-rank test
# --------------------------------------------------------------------------

def _exact_two_sided_p(w_plus: float, ranks: np.ndarray) -> float:
    """Exact p over all 2^n sign assignments, via the rank-sum distribution.

    Average ranks can be half-integers, so everything is doubled to stay
    integral; counts are exact int64 (safe for n <= 62).
    """
    doubled = np.rint(2.0 * ranks).astype(np.int64)
    total = int(doubled.sum())
    counts = np.zeros(total + 1, dtype=np.int64)
    counts[0] = 1
    for r in doubled:
        shifted = np.zeros_like(counts)
        shifted[r:] = counts[:-r]
        counts = counts + shifted
    w2 = int(round(2.0 * w_plus))
    lo = min(w2, total - w2)
    # the distribution is symmetric, so both tails have equal mass
    tail = int(counts[: lo + 1].sum())
    return min(1.0, 2.0 * tail / float(2 ** len(ranks)))


@dataclass(frozen=True)
class WilcoxonResult:
    w: float            # min(W+, W-)
    w_plus: float
    n_nonzero: int
    p_value: float
    z: float            # tie-corrected normal deviate of W+
    method: str         # "exact", "normal", or "degenerate"


def wilcoxon_signed_rank(differences) -> WilcoxonResult:
    """Two-sided test on paired differences; zeros dropped.

    The p-value is exact up to ``EXACT_TEST_MAX_PAIRS`` nonzero pairs and
    normal beyond. A NaN difference is rejected: it has no rank. ±inf
    ranks last and ties with itself.
    """
    diffs = np.asarray(differences, dtype=np.float64)
    nan_at = np.flatnonzero(np.isnan(diffs))
    if len(nan_at):
        raise ValueError(f"NaN paired difference at position {int(nan_at[0])} "
                         f"({len(nan_at)} in total)")
    nonzero = diffs[diffs != 0.0]
    n = len(nonzero)
    if n == 0:
        return WilcoxonResult(w=0.0, w_plus=0.0, n_nonzero=0, p_value=1.0,
                              z=0.0, method="degenerate")

    ranks = rankdata(np.abs(nonzero))
    w_plus = float(ranks[nonzero > 0].sum())
    w_minus = float(ranks[nonzero < 0].sum())
    w = min(w_plus, w_minus)

    mean = n * (n + 1) / 4.0
    variance = n * (n + 1) * (2 * n + 1) / 24.0
    _, tie_counts = np.unique(np.abs(nonzero), return_counts=True)
    variance -= float(np.sum(tie_counts**3 - tie_counts)) / 48.0
    z = (w_plus - mean) / np.sqrt(variance)

    if n <= EXACT_TEST_MAX_PAIRS:
        p = _exact_two_sided_p(w_plus, ranks)
        method = "exact"
    else:
        p = 2.0 * ndtr(-abs(float(z)))
        method = "normal"
    return WilcoxonResult(w=w, w_plus=w_plus, n_nonzero=n, p_value=p,
                          z=float(z), method=method)
