"""Corpus scoring and paired corpus comparison.

The comparison is a two-sided Wilcoxon signed-rank test on matched score
pairs: zero differences are dropped, tied absolute differences get average
ranks, the p-value comes from the exact sign-assignment distribution for
up to 25 nonzero pairs and from the tie-corrected normal approximation
beyond that. The effect size is |Z|/sqrt(N) over all submitted pairs.
"""

from __future__ import annotations

import csv
import json
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
from scipy.special import ndtr

from .config import AnalysisConfig
from .corpus import Snippet, read_id_table, write_table
from .dictionary import DictionaryProvider
from .model import ReadabilityModel, predict, rankdata
# perfbench/tracing.py wraps analytics.featurize; nothing here calls it
from .vectorizer import featurize, featurize_corpus  # noqa: F401

# up to this many nonzero pairs the p-value is exact; the 2^n
# sign-assignment counts stay exact in int64 only for n <= 62
EXACT_TEST_MAX_PAIRS = 25

_SCORE_COLUMNS = ("id", "linear_score", "probability")


@dataclass(frozen=True)
class ScoreTable:
    ids: tuple[str, ...]
    linear_scores: tuple[float, ...]
    probabilities: tuple[float, ...]
    corpus_label: str = ""

    def __len__(self) -> int:
        return len(self.ids)


def score_corpus(model: ReadabilityModel, snippets: list[Snippet],
                 d: DictionaryProvider | None = None,
                 config: AnalysisConfig | None = None,
                 label: str = "") -> ScoreTable:
    """Score snippets in input order: one :func:`model.predict` per row of
    :func:`vectorizer.featurize_corpus` for the model's selected columns.

    ``featurize_corpus`` resolves the profiles, ``d`` and ``config`` and
    fans the featurizing out; every ``predict`` runs in this process. The
    scores have the bits of ``predict`` on the full 61-feature vector.
    """
    matrix = featurize_corpus(snippets, d, config, columns=model.selected)
    results = [predict(model, x) for x in matrix]
    return ScoreTable(
        ids=tuple(s.id for s in snippets),
        linear_scores=tuple(linear for _, linear in results),
        probabilities=tuple(prob for prob, _ in results),
        corpus_label=label,
    )


def write_score_table(table: ScoreTable, path: str | Path) -> None:
    write_table(path, _SCORE_COLUMNS, zip(table.ids, table.linear_scores, table.probabilities))


def read_score_table(path: str | Path, label: str = "") -> ScoreTable:
    """A :func:`corpus.read_table` file with no NaN score, labeled ``label`` or its stem."""
    ids, values = read_id_table(path, _SCORE_COLUMNS, "score table", allow_nan=False)
    return ScoreTable(tuple(ids), *map(tuple, values.T.tolist()),
                      corpus_label=label or Path(path).stem)


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
        shifted[r:] = counts[:-r] if r > 0 else counts
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
        p = float(2.0 * ndtr(-abs(z)))
        method = "normal"
    return WilcoxonResult(w=w, w_plus=w_plus, n_nonzero=n, p_value=p,
                          z=float(z), method=method)


# --------------------------------------------------------------------------
# Paired comparison
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ComparisonReport:
    label_a: str
    label_b: str
    n_pairs: int
    n_nonzero: int
    avg_a: float
    avg_b: float
    win_rate_a: float
    wilcoxon_w: float
    w_over_wmax: float
    p_value: float
    effect_size_r: float
    degenerate: bool
    method: str

    def to_dict(self) -> dict:
        return asdict(self)


def paired_compare(a: ScoreTable, b: ScoreTable) -> ComparisonReport:
    """Compare two score tables over their shared snippet ids."""
    for side, table in (("a", a), ("b", b)):
        repeated = [sid for sid, count in Counter(table.ids).items() if count > 1]
        if repeated:
            raise ValueError(f"score table {table.corpus_label or side}: "
                             f"duplicate id {repeated[0]!r}")
    ids_a = set(a.ids)
    index_b = {sid: i for i, sid in enumerate(b.ids)}
    missing_in_b = [sid for sid in a.ids if sid not in index_b]
    missing_in_a = [sid for sid in index_b if sid not in ids_a]
    if missing_in_b or missing_in_a:
        raise ValueError(
            "score tables do not align one-to-one; "
            f"only in a: {missing_in_b[:10]}, only in b: {missing_in_a[:10]}"
        )

    scores_a = np.asarray(a.linear_scores)
    scores_b = np.asarray([b.linear_scores[index_b[sid]] for sid in a.ids])
    n = len(scores_a)
    diffs = scores_a - scores_b
    result = wilcoxon_signed_rank(diffs)

    w_max = result.n_nonzero * (result.n_nonzero + 1) / 2.0
    return ComparisonReport(
        label_a=a.corpus_label,
        label_b=b.corpus_label,
        n_pairs=n,
        n_nonzero=result.n_nonzero,
        avg_a=float(scores_a.mean()) if n else 0.0,
        avg_b=float(scores_b.mean()) if n else 0.0,
        win_rate_a=float(np.mean(diffs > 0)) if n else 0.0,
        wilcoxon_w=result.w,
        w_over_wmax=result.w / w_max if w_max > 0 else 0.0,
        p_value=result.p_value,
        effect_size_r=abs(result.z) / np.sqrt(n) if n else 0.0,
        degenerate=result.method == "degenerate",
        method=result.method,
    )


# --------------------------------------------------------------------------
# Rendering
# --------------------------------------------------------------------------

_TABLE_COLUMNS = ("Corpus A", "Corpus B", "Avg A", "Avg B", "Win Rate (%)",
                  "W/Wmax", "p-value", "r")


def _report_row(r: ComparisonReport) -> list[str]:
    p_text = f"{r.p_value:.3g}" if r.p_value >= 0.001 else "<0.001"
    return [
        r.label_a or "A",
        r.label_b or "B",
        f"{r.avg_a:.4f}",
        f"{r.avg_b:.4f}",
        f"{100.0 * r.win_rate_a:.2f}",
        f"{r.w_over_wmax:.3f}",
        p_text,
        f"{r.effect_size_r:.3f}",
    ]


def render_report(reports, format: str = "table") -> str:
    """Render one or more comparison reports as table, json, or csv."""
    if isinstance(reports, ComparisonReport):
        reports = [reports]
    if format == "json":
        return json.dumps([r.to_dict() for r in reports], indent=2)
    if format == "csv":
        import io
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(_TABLE_COLUMNS)
        for r in reports:
            writer.writerow(_report_row(r))
        return buf.getvalue()
    if format == "table":
        rows = [list(_TABLE_COLUMNS)] + [_report_row(r) for r in reports]
        widths = [max(len(row[i]) for row in rows) for i in range(len(_TABLE_COLUMNS))]
        lines = [
            "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))
            for row in rows
        ]
        for r in reports:
            if r.degenerate:
                lines.append(f"note: {r.label_a or 'A'} vs {r.label_b or 'B'}: "
                             "no nonzero pairs; test degenerate")
        return "\n".join(lines)
    raise ValueError(f"unknown report format {format!r}")
