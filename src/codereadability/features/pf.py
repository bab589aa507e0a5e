"""Information-theoretic features: non-empty line count, per-line
character entropy, Halstead volume."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, fields
from operator import attrgetter

from ..lexical import LexicalProfile


@dataclass(frozen=True)
class PfFeatures:
    loc: float
    entropy_avg: float
    entropy_std: float
    halstead_volume: float

    def as_tuple(self) -> tuple[float, ...]:
        return _FIELD_VALUES(self)


# the fields in declaration order; dataclasses.astuple would deep-copy each value
_FIELD_VALUES = attrgetter(*(f.name for f in fields(PfFeatures)))


def line_entropy(line: str) -> float:
    """Shannon entropy in bits of the line's character distribution."""
    counts = Counter(line)
    total = len(line)
    return -sum(
        (c / total) * math.log2(c / total) for c in counts.values()
    )


def halstead_volume(profile: LexicalProfile) -> float:
    eta = profile.eta1 + profile.eta2
    total = profile.n1 + profile.n2
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
