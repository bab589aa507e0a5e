"""Visual and geometric features, treating the snippet as a block of
character cells: content densities, bounding-box occupancy, line-length
regularity, operator/bracket column alignment, and identifier-text
properties.

These are display-oriented textual proxies; no rendering is involved.

The identifier-text features reuse the lexer's work: the code word count
is the number of identifier terms the lexer already split, and each
distinct identifier is split (memoized) and checked against the
dictionary once per snippet, weighted by its occurrences.
"""

from __future__ import annotations

import re
from collections import Counter
from typing import NamedTuple

from ..dictionary import DictionaryProvider
from ..lexical import LexicalProfile, identifier_terms

# printable ASCII range, the divisor for character-set "visual complexity"
_CHARSET_NORM = 95

_WORD_RE = re.compile(r"[A-Za-z]+(?:'[A-Za-z]+)*")


class DfFeatures(NamedTuple):
    vkd: float
    vsd: float
    vcd: float
    vc: float
    saa: float
    sra: float
    sr: float
    sd: float
    align_op: float
    align_br: float
    align_cons: float
    text_english: float
    text_comment: float
    text_vocab: float
    text_id_len: float


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _pop_std(values) -> float:
    values = list(values)
    if len(values) <= 1:
        return 0.0
    mu = _mean(values)
    return (sum((v - mu) ** 2 for v in values) / len(values)) ** 0.5


def visual_densities(profile: LexicalProfile) -> tuple[float, float, float, float]:
    denom = max(1, profile.total_chars)
    return (
        profile.keyword_chars / denom,
        profile.string_chars / denom,
        profile.comment_chars / denom,
        len(profile.char_counts) / _CHARSET_NORM,
    )


def spatial(profile: LexicalProfile) -> tuple[float, float, float, float]:
    lengths = [stats.length for stats in profile.per_line]
    w_max = max(lengths, default=0)
    saa = float(profile.total_chars)
    sra = profile.total_chars / max(1, profile.m * w_max)
    sd = profile.m_ne / max(1, profile.m)
    sr = 1.0 - _pop_std(lengths) / max(1.0, _mean(lengths))
    return saa, sra, sr, sd


def alignment(profile: LexicalProfile) -> tuple[float, float, float]:
    """Column regularity of assignment operators and opening brackets;
    one or zero occurrences count as perfectly aligned."""
    align_op = 1.0 / (1.0 + _pop_std(profile.assign_columns))
    align_br = 1.0 / (1.0 + _pop_std(profile.bracket_columns))
    return align_op, align_br, (align_op + align_br) / 2.0


def text_features(profile: LexicalProfile, dictionary: DictionaryProvider) -> tuple[float, float, float, float]:
    user = profile.identifiers_user
    n_user = len(user)

    def is_english_ident(ident: str) -> bool:
        terms = identifier_terms(ident)  # digit terms too: "x2" needs "2"
        return bool(terms) and all(map(dictionary.is_english, terms))

    occurrences = Counter(user)  # each distinct identifier is checked once
    english = sum(n for ident, n in occurrences.items() if is_english_ident(ident))
    comment_text = " ".join(profile.comments)
    w_com = len(_WORD_RE.findall(comment_text))
    # the lexer's identifier terms are the non-digit terms of every identifier
    w_code = sum(map(len, profile.line_identifier_terms))
    return (
        english / max(1, n_user),
        w_com / max(1, w_com + w_code),
        float(len(occurrences)),
        sum(map(len, user)) / max(1, n_user),
    )


def compute_df(profile: LexicalProfile, dictionary: DictionaryProvider) -> DfFeatures:
    # each helper returns its fields in declaration order
    return DfFeatures(*visual_densities(profile), *spatial(profile), *alignment(profile),
                      *text_features(profile, dictionary))
