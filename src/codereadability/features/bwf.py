"""Formatting and low-level structural statistics.

Per-line averages and maxima run over non-empty code lines; the two ratio
features are over all lines; the two occurrence maxima are snippet-wide.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, fields
from operator import attrgetter

from ..lexical import LexicalProfile


@dataclass(frozen=True)
class BwfFeatures:
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

    def as_tuple(self) -> tuple[float, ...]:
        return _FIELD_VALUES(self)


# the fields in declaration order; dataclasses.astuple would deep-copy each value
_FIELD_VALUES = attrgetter(*(f.name for f in fields(BwfFeatures)))


def compute_bwf(profile: LexicalProfile) -> BwfFeatures:
    code_lines = [
        stats for stats in profile.per_line
        if not stats.is_blank and not stats.is_comment_only
    ]
    denom = max(1, len(code_lines))

    def avg(attr: str) -> float:
        return sum(getattr(s, attr) for s in code_lines) / denom

    def peak(attr: str) -> float:
        return float(max((getattr(s, attr) for s in code_lines), default=0))

    n_ids = len(profile.identifiers)
    id_lengths = [len(t) for t in profile.identifiers]
    m = max(1, profile.m)
    blanks = sum(1 for s in profile.per_line if s.is_blank)
    comment_lines = sum(1 for s in profile.per_line if s.has_comment)

    return BwfFeatures(
        line_len_avg=avg("length"),
        line_len_max=peak("length"),
        id_len_avg=sum(id_lengths) / max(1, n_ids),
        id_len_max=float(max(id_lengths, default=0)),
        ids_per_line_avg=avg("identifiers"),
        ids_per_line_max=peak("identifiers"),
        indent_avg=avg("indent"),
        indent_max=peak("indent"),
        kw_avg=avg("keywords"),
        kw_max=peak("keywords"),
        num_avg=avg("numbers"),
        num_max=peak("numbers"),
        paren_avg=avg("parens"),
        bracket_avg=avg("brackets"),
        period_avg=avg("periods"),
        blank_ratio=blanks / m,
        comment_ratio=comment_lines / m,
        comma_avg=avg("commas"),
        space_avg=avg("spaces"),
        assign_avg=avg("assignments"),
        branch_avg=avg("branches"),
        loop_avg=avg("loops"),
        arith_avg=avg("arith_ops"),
        cmp_avg=avg("cmp_ops"),
        max_char_occurrence=float(max(profile.char_counts.values(), default=0)),
        max_identifier_occurrence=float(max(Counter(profile.identifiers).values(), default=0)),
    )
