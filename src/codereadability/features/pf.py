"""Information-theoretic features: non-empty line count, per-line
character entropy, Halstead volume.

A line's entropy sums one term per distinct character, in ``Counter``
order, through the builtin ``sum``. The term of a count ``c`` on a line of
``n`` characters, ``(c/n) * log2(c/n)``, comes from a two-level
``corpus.BoundedMemo``, 256 line lengths of 1,024 counts each, so each
is computed once.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import NamedTuple

from ..corpus import BoundedMemo
from ..lexical import LexicalProfile


class PfFeatures(NamedTuple):
    loc: float
    entropy_avg: float
    entropy_std: float
    halstead_volume: float


# the term of a character seen c times on a line of ``total`` characters, by
# total and then by c; a line of n characters has at most n distinct counts
_TERMS = BoundedMemo(lambda total: BoundedMemo(lambda c: (c / total) * math.log2(c / total), 1 << 10),
                     1 << 8)


def line_entropy(line: str) -> float:
    """Shannon entropy in bits of the line's character distribution."""
    counts = Counter(line)
    return -sum(map(_TERMS[len(line)].__getitem__, counts.values()))


def halstead_volume(profile: LexicalProfile) -> float:
    eta = len(set(profile.operators)) + len(set(profile.operands))
    total = len(profile.operators) + len(profile.operands)
    if total == 0 or eta <= 1:
        return 0.0
    return total * math.log2(eta)


def compute_pf(profile: LexicalProfile) -> PfFeatures:
    entropies = [
        line_entropy(line)
        for line, stats in zip(profile.lines, profile.per_line)
        if not stats.is_blank
    ]
    if entropies:
        mean = sum(entropies) / len(entropies)
        # population std, matching the snippet-level aggregation convention
        # not ** 0.5 as in df: glibc's pow is not correctly rounded; golden features pin each root
        std = math.sqrt(sum((h - mean) ** 2 for h in entropies) / len(entropies))
    else:
        mean = std = 0.0
    return PfFeatures(
        loc=float(profile.m_ne),
        entropy_avg=mean,
        entropy_std=std,
        halstead_volume=halstead_volume(profile),
    )
