"""Corpus scoring and paired corpus comparison.

The comparison is a two-sided Wilcoxon signed-rank test
(:func:`stats.wilcoxon_signed_rank`) on matched score pairs. The effect
size is |Z|/sqrt(N) over all submitted pairs.
"""

from __future__ import annotations

import csv
import json
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .config import AnalysisConfig
from .corpus import Snippet, read_id_table, write_table
from .dictionary import DictionaryProvider
from .model import ReadabilityModel, predict
from .stats import wilcoxon_signed_rank
# perfbench/tracing.py wraps analytics.featurize; nothing here calls it
from .vectorizer import featurize, featurize_corpus  # noqa: F401

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
    """Compare two score tables over their shared snippet ids. A score or a
    paired difference that is not finite, or an average that overflows,
    raises ``ValueError``: a report holds only finite numbers."""
    labels = (a.corpus_label or "a", b.corpus_label or "b")
    for label, table in zip(labels, (a, b)):
        repeated = [sid for sid, count in Counter(table.ids).items() if count > 1]
        if repeated:
            raise ValueError(f"score table {label}: duplicate id {repeated[0]!r}")
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
    for label, scores in zip(labels, (scores_a, scores_b)):
        _require_finite(scores, a.ids, f"score table {label}: non-finite score")
    with np.errstate(over="ignore"):  # an overflow is reported below, not warned
        diffs = scores_a - scores_b
        avg_a = float(scores_a.mean()) if n else 0.0
        avg_b = float(scores_b.mean()) if n else 0.0
    _require_finite(diffs, a.ids, "paired difference overflows to")
    for label, avg in zip(labels, (avg_a, avg_b)):
        if not np.isfinite(avg):
            raise ValueError(f"score table {label}: average score overflows")
    result = wilcoxon_signed_rank(diffs)

    w_max = result.n_nonzero * (result.n_nonzero + 1) / 2.0
    return ComparisonReport(
        label_a=a.corpus_label,
        label_b=b.corpus_label,
        n_pairs=n,
        n_nonzero=result.n_nonzero,
        avg_a=avg_a,
        avg_b=avg_b,
        win_rate_a=float(np.mean(diffs > 0)) if n else 0.0,
        wilcoxon_w=result.w,
        w_over_wmax=result.w / w_max if w_max > 0 else 0.0,
        p_value=result.p_value,
        effect_size_r=abs(result.z) / np.sqrt(n) if n else 0.0,
        degenerate=result.method == "degenerate",
        method=result.method,
    )


def _require_finite(values: np.ndarray, ids, message: str) -> None:
    """Raise ``ValueError`` with ``message``, the first value that is NaN or
    ±inf and its id."""
    bad = np.flatnonzero(~np.isfinite(values))
    if len(bad):
        raise ValueError(f"{message} {float(values[bad[0]])} (id {ids[bad[0]]!r})")


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
