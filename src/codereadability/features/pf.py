"""Information-theoretic features: non-empty line count, per-line
character entropy, Halstead volume.

A line's entropy sums one term per distinct character, in ``Counter``
order, through the builtin ``sum``. The term of a count ``c`` on a line of
``n`` characters, ``(c/n) * log2(c/n)``, comes from a bounded table keyed
by ``n`` and then ``c``, so each is computed once.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import partial
from typing import NamedTuple

from ..lexical import BoundedMemo, LexicalProfile


class PfFeatures(NamedTuple):
    loc: float
    entropy_avg: float
    entropy_std: float
    halstead_volume: float


def _entropy_term(total: int, c: int) -> float:
    return (c / total) * math.log2(c / total)


# the term of a character seen c times on a line of ``total`` characters, by
# total and then by c; a line of n characters has at most n distinct counts
_TERMS = BoundedMemo(lambda total: BoundedMemo(partial(_entropy_term, total), 1 << 10), 1 << 8)


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
        std = math.sqrt(sum((h - mean) ** 2 for h in entropies) / len(entropies))
    else:
        mean = std = 0.0
    return PfFeatures(
        loc=float(profile.m_ne),
        entropy_avg=mean,
        entropy_std=std,
        halstead_volume=halstead_volume(profile),
    )
