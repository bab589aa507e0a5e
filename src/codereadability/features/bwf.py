"""Formatting and low-level structural statistics.

Per-line averages and maxima run over non-empty code lines; the two ratio
features are over all lines; the two occurrence maxima are snippet-wide.
The 15 averages and 5 maxima come from one transpose of the code lines'
``LineStats`` into columns. Every column holds ints, so each average is an
exact integer sum divided once.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from ..lexical import LexicalProfile, LineStats


class BwfFeatures(NamedTuple):
    line_len_avg: float
    line_len_max: float
    id_len_avg: float
    id_len_max: float
    ids_per_line_avg: float
    ids_per_line_max: float
    indent_avg: float
    indent_max: float
    kw_avg: float
    kw_max: float
    num_avg: float
    num_max: float
    paren_avg: float
    bracket_avg: float
    period_avg: float
    blank_ratio: float
    comment_ratio: float
    comma_avg: float
    space_avg: float
    assign_avg: float
    branch_avg: float
    loop_avg: float
    arith_avg: float
    cmp_avg: float
    max_char_occurrence: float
    max_identifier_occurrence: float


_NO_LINES = LineStats(*((),) * len(LineStats._fields))


def compute_bwf(profile: LexicalProfile) -> BwfFeatures:
    code_lines = [
        stats for stats in profile.per_line
        if not stats.is_blank and not stats.is_comment_only
    ]
    denom = max(1, len(code_lines))
    # one transpose: a LineStats of columns, each a tuple of ints, so every
    # sum below is exact
    col = LineStats(*zip(*code_lines)) if code_lines else _NO_LINES

    def avg(values: tuple[int, ...]) -> float:
        return sum(values) / denom

    def peak(values: tuple[int, ...]) -> float:
        return float(max(values, default=0))

    n_ids = len(profile.identifiers)
    id_lengths = [len(t) for t in profile.identifiers]
    m = max(1, profile.m)
    comment_lines = sum(1 for s in profile.per_line if s.has_comment)

    return BwfFeatures(
        line_len_avg=avg(col.length),
        line_len_max=peak(col.length),
        id_len_avg=sum(id_lengths) / max(1, n_ids),
        id_len_max=float(max(id_lengths, default=0)),
        ids_per_line_avg=avg(col.identifiers),
        ids_per_line_max=peak(col.identifiers),
        indent_avg=avg(col.indent),
        indent_max=peak(col.indent),
        kw_avg=avg(col.keywords),
        kw_max=peak(col.keywords),
        num_avg=avg(col.numbers),
        num_max=peak(col.numbers),
        paren_avg=avg(col.parens),
        bracket_avg=avg(col.brackets),
        period_avg=avg(col.periods),
        blank_ratio=(profile.m - profile.m_ne) / m,
        comment_ratio=comment_lines / m,
        comma_avg=avg(col.commas),
        space_avg=avg(col.spaces),
        assign_avg=avg(col.assignments),
        branch_avg=avg(col.branches),
        loop_avg=avg(col.loops),
        arith_avg=avg(col.arith_ops),
        cmp_avg=avg(col.cmp_ops),
        max_char_occurrence=float(max(profile.char_counts.values(), default=0)),
        max_identifier_occurrence=float(max(Counter(profile.identifiers).values(), default=0)),
    )
