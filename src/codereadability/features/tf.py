"""Textual features: naming quality, comment-code consistency, comment
prose readability, block coherence, and concept counting.

All sixteen values land in [0, 1] except CR (a Flesch score) and the two
NMI/NM groups (depth sums and sense means). Missing evidence defaults to
zero so the feature block stays fixed-width.

Block coherence (TC) and the concept count (NOC) look at every pair of
blocks or lines, but neither holds an m×m matrix:

* TC streams the block pairs in (i, j) order through one builtin ``sum``
  and tracks min and max on the way. Below ``_BITSET_MIN_BLOCKS`` blocks
  the pairs come from the all-pairs loop (:func:`_jaccard_rows`), one set
  intersection each. From there on, each token found in two or more
  blocks gets one bit (a token of one block never overlaps), every block
  is packed into one row of a uint64 matrix, and a chunk of rows is
  intersected with all later rows at once by popcount; a matrix over
  ``_BITSET_MAX_WORDS`` words keeps the loop, so memory stays bounded.
  Both paths return the same bits: the overlap counts and set sizes are
  exact ints below 2**53, so the float64 division is the one Python does
  on them, min and max are exact, and the average is the same values, in
  the same order, into the same ``sum``.
* NOC counts DBSCAN clusters of valid lines under the token-overlap
  distance, i.e. the connected components among core lines. Lines with
  the same token set are one point carrying their count, keyed by the
  sorted tuple of its distinct tokens (:func:`_line_key`): 40 + 8k bytes
  for k tokens, where a frozenset takes 216 bytes up to 4 tokens and 728
  up to 18. For 0 <= eps < 1 the pairs within reach feed one union-find
  (:func:`_cluster_count`) as they come; eps >= 1 (one neighbourhood)
  and eps < 0 (none) have closed forms. Below ``_JOIN_MIN_SETS``
  distinct line sets every pair is checked by the same all-pairs loop as
  TC. From there on an exact Jaccard self-join with prefix and size
  filtering (:func:`_array_pairs`) runs on arrays: the prefix entries are
  joined on token rank in chunks of about ``_BITSET_CHUNK_WORDS`` words,
  and each candidate is checked by popcount over the packed token bitsets
  that TC uses, or by set intersection when they would exceed
  ``_BITSET_MAX_WORDS`` words. Both paths keep exactly the pairs with
  ``1.0 - inter / (la + lb - inter) <= eps``, whatever the order of
  tokens with equal counts, so NOC is the same integer. Memory grows with
  the number of distinct lines, not its square.

:func:`compute_tf` runs TC before the other groups and then drops its
reference to the block sets, which nothing else reads: when its caller
holds none either (``vectorizer.featurize`` binds them to no name), they
are freed before NOC and the other families run. That takes CPython 3.11
or later, where a call moves its arguments off the caller's stack.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from operator import attrgetter, countOf, itemgetter
from itertools import chain, count, groupby
from typing import NamedTuple

import numpy as np

from ..dictionary import DictionaryProvider, count_syllables
from ..lexical import COMMENT_WORD_RE, LexicalProfile

_SENTENCE_RE = re.compile(r"[.!?]+")

# block coherence: from this many blocks the packed bitsets beat the set
# loop (about 24 blocks on real code; 2x at 48), ...
_BITSET_MIN_BLOCKS = 32
# ... as long as the packed matrix stays within this many words, a 16 MB
# budget for the matrix alone (a 64k-line snippet of real code packs about
# 3.1 MB, and its packing temporaries peak at about 10 MB);
_BITSET_MAX_WORDS = 1 << 21
# and the words intersected at once (at least one row against all later
# ones), which bound each chunk's temporaries
_BITSET_CHUNK_WORDS = 1 << 15
# concept count: from this many distinct line sets the array join beats
# the all-pairs loop (a tie at 32 sets of real code; 1.3x at 40, 2.3x at 64)
_JOIN_MIN_SETS = 32


class TfFeatures(NamedTuple):
    cic: float
    cic_syn: float
    itid_min: float
    itid_avg: float
    itid_max: float
    nmi_min: float
    nmi_avg: float
    nmi_max: float
    cr: float
    nm_avg: float
    nm_max: float
    tc_min: float
    tc_avg: float
    tc_max: float
    noc: float
    noc_norm: float


# the fields each piece of TF work fills, in the order it returns them
TF_GROUPS = {
    "cic": ("cic", "cic_syn"),
    "identifier_semantics": ("itid_min", "itid_avg", "itid_max", "nmi_min", "nmi_avg", "nmi_max",
                             "nm_avg", "nm_max"),
    "comment_readability": ("cr",),
    "text_coherence": ("tc_min", "tc_avg", "tc_max"),
    "concept_count": ("noc", "noc_norm"),
}
assert sorted(chain.from_iterable(TF_GROUPS.values())) == sorted(TfFeatures._fields)
_IN_DICTIONARY, _MAX_DEPTH, _SENSES = map(attrgetter, ("in_dictionary", "max_depth", "senses"))


def jaccard(a: frozenset | set, b: frozenset | set) -> float:
    union = len(a | b)
    if union == 0:
        return 0.0
    return len(a & b) / union


def cic(profile: LexicalProfile, dictionary: DictionaryProvider) -> tuple[float, float]:
    """Comment-identifier consistency, plain and synonym-expanded."""
    tc, ti = profile.terms_comment, profile.terms_identifier
    plain = jaccard(tc, ti)
    expanded = jaccard(dictionary.expand_synonyms(tc), dictionary.expand_synonyms(ti))
    return plain, expanded


def identifier_semantics(profile: LexicalProfile, dictionary: DictionaryProvider) -> tuple[float, ...]:
    """Per-line identifier-term stats: dictionary-membership fraction,
    summed hypernym depth, mean sense count.

    Returns (itid min/avg/max, nmi min/avg/max, nm avg/max); all zeros when
    no line carries an identifier.
    """
    itid_vals: list[float] = []
    nmi_vals: list[float] = []
    nm_vals: list[float] = []
    # every distinct term is looked up once
    entry_of = {t: dictionary.lookup(t) for t in profile.terms_identifier}.__getitem__
    for stats, terms in zip(profile.per_line, profile.line_identifier_terms):
        if stats.identifiers == 0:
            continue
        entries = list(map(entry_of, terms))
        denom = max(1, len(terms))
        itid_vals.append(sum(map(_IN_DICTIONARY, entries)) / denom)
        nmi_vals.append(float(sum(map(_MAX_DEPTH, entries))))
        nm_vals.append(sum(map(_SENSES, entries)) / denom)
    if not itid_vals:
        return (0.0,) * 8
    return (
        min(itid_vals), sum(itid_vals) / len(itid_vals), max(itid_vals),
        min(nmi_vals), sum(nmi_vals) / len(nmi_vals), max(nmi_vals),
        sum(nm_vals) / len(nm_vals), max(nm_vals),
    )


def comment_readability(profile: LexicalProfile) -> float:
    """Flesch reading ease over all comment text concatenated."""
    text = " ".join(profile.comments)
    words = COMMENT_WORD_RE.findall(text)
    n_words = len(words)
    if n_words == 0:
        return 0.0
    # a wordy comment with no terminal punctuation still reads as one sentence
    n_sentences = max(1, len(_SENTENCE_RE.findall(text)))
    n_syllables = sum(count_syllables(w) for w in words)
    return 206.835 - 1.015 * (n_words / n_sentences) - 84.6 * (n_syllables / n_words)


def text_coherence(sets: list[frozenset[str]]) -> tuple[float, float, float]:
    """Min/avg/max pairwise Jaccard between block token sets.

    The pairs stream in (i, j) order through one builtin ``sum``, so both
    kernels give the average the same bits on one Python version (from
    3.12 on, ``sum`` of floats is compensated, and the bits can change).
    """
    n = len(sets)
    if n < 2:
        return 0.0, 0.0, 0.0
    packed = None
    if n >= _BITSET_MIN_BLOCKS:
        freq, singles, words = _token_counts(sets)
        if n * words <= _BITSET_MAX_WORDS:  # over the cap nothing is ranked or packed
            packed = _packed_blocks(n, *_ranked_tokens(sets, freq), singles, words)
    lo, total, hi = _set_pairs(sets) if packed is None else _bitset_pairs(packed, sets)
    return lo, total / (n * (n - 1) // 2), hi


def _jaccard_rows(sets: list[frozenset]):
    """Row i holds the Jaccard values of set i and each later set, one set
    intersection each; two empty sets give 0.0."""
    sizes = [len(s) for s in sets]
    for i in range(len(sets) - 1):
        a, la = sets[i], sizes[i]
        yield [inter / (la + lb - inter) if la + lb else 0.0
               for b, lb in zip(sets[i + 1:], sizes[i + 1:])
               for inter in (len(a & b),)]


def _set_pairs(sets: list[frozenset]) -> tuple[float, float, float]:
    """Min, sum and max over the pairs of :func:`_jaccard_rows`."""
    lo, hi = 1.0, 0.0  # every value lies in [0, 1]

    def rows():
        nonlocal lo, hi
        for row in _jaccard_rows(sets):
            lo, hi = min(lo, min(row)), max(hi, max(row))
            yield row

    total = sum(chain.from_iterable(rows()))
    return lo, total, hi


def _token_counts(sets: list[frozenset | tuple]) -> tuple[Counter, int, int]:
    """Each token's count over the sets; the number of tokens found in one
    set only; and the words of a bitset row with one bit for each other
    token."""
    freq = Counter(chain.from_iterable(sets))
    singles = countOf(freq.values(), 1)
    return freq, singles, max(1, -(-(len(freq) - singles) // 64))


def _ranked_tokens(sets: list[frozenset | tuple], freq: Counter) -> tuple[np.ndarray, np.ndarray]:
    """The set and the rank of every entry, set after set and ascending
    within a set. Tokens are ranked rarest first by ``freq``, equal counts
    in first-seen order, so the tokens found in one set only hold the
    lowest ranks."""
    rank = dict(zip(sorted(freq, key=freq.__getitem__), count()))
    rows = np.repeat(np.arange(len(sets)), list(map(len, sets)))
    offsets = rows * len(rank)
    keys = np.fromiter(map(rank.__getitem__, chain.from_iterable(sets)), dtype=np.int64, count=len(rows))
    keys += offsets
    keys.sort()
    keys -= offsets
    return rows, keys


def _packed_blocks(n: int, rows: np.ndarray, ranks: np.ndarray, singles: int, words: int) -> np.ndarray:
    """The (n, words) uint64 bitsets of the ranked entries of n sets, one
    bit for each token found in two or more sets (those ranked from
    ``singles`` on)."""
    shared = ranks >= singles
    bits = ranks[shared] - singles
    packed = np.zeros((n, words), dtype=np.uint64)
    np.bitwise_or.at(packed, (rows[shared], bits >> 6), np.uint64(1) << (bits & 63).astype(np.uint64))
    return packed


def _bitset_pairs(packed: np.ndarray, sets: list[frozenset]) -> tuple[float, float, float]:
    """Min, sum and max over the pairs, a chunk of rows against all later
    rows at a time; each chunk's values go to ``sum`` row-major."""
    n, words = packed.shape
    sizes = np.fromiter(map(len, sets), dtype=np.int64, count=n)
    lo, hi = 1.0, 0.0

    def chunks():
        nonlocal lo, hi
        i = 0
        while i < n - 1:
            later = n - 1 - i
            r = max(1, min(later, _BITSET_CHUNK_WORDS // (later * words)))
            inter = np.bitwise_count(packed[i:i + r, None] & packed[None, i + 1:]).sum(-1, dtype=np.int64)
            union = sizes[i:i + r, None] + sizes[None, i + 1:] - inter
            values = np.divide(inter, union, out=np.zeros(union.shape), where=union > 0)
            if r > 1:  # row i + k pairs with the later rows from column k on
                values = values[np.arange(later) >= np.arange(r)[:, None]]
            lo, hi = min(lo, values.min()), max(hi, values.max())
            yield values.ravel().tolist()
            i += r

    total = sum(chain.from_iterable(chunks()))
    return float(lo), total, float(hi)


def _cluster_count(multiplicity: list[int], pairs, min_samples: int) -> int:
    """DBSCAN cluster count over weighted points: the connected components
    among core points (Ester et al., KDD 1996).

    A point's degree is its own multiplicity plus its neighbours'. A pair
    is joined as soon as both ends are core; the others wait, and each
    point keeps fewer than ``min_samples`` of them while it is not core.
    Final degrees sum over all pairs, and a pair is joined when both ends
    end up core, so no order of the pairs or of their ends moves the count.
    """
    degree = list(multiplicity)
    parent = list(range(len(degree)))

    def find(i):
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    waiting = []
    for i, j in pairs:
        degree[i] += multiplicity[j]
        degree[j] += multiplicity[i]
        if degree[i] >= min_samples and degree[j] >= min_samples:
            parent[find(i)] = find(j)
        else:
            waiting.append((i, j))
    for i, j in waiting:
        if degree[i] >= min_samples and degree[j] >= min_samples:
            parent[find(i)] = find(j)
    return sum(1 for i, d in enumerate(degree) if d >= min_samples and find(i) == i)


def _array_pairs(token_sets: list[frozenset | tuple], eps: float):
    """Every pair ``(x, y)`` of non-empty sets with
    ``1.0 - inter / (la + lb - inter) <= eps``, for ``0 <= eps < 1``, as
    chunks of two index arrays from one vectorized join. A set may be a
    frozenset or a tuple of distinct tokens (a :func:`_line_key`).

    The candidates are those of :func:`_prefix_runs`, taken a chunk of
    probe sets at a time, about ``_BITSET_CHUNK_WORDS`` words of gathered
    rows. A sort drops the pairs found through several tokens, the size
    filter follows, and each pair left is checked exactly. Its overlap is
    counted by popcount over the packed token bitsets, or by set
    intersection (:func:`_overlaps`) when they would exceed
    ``_BITSET_MAX_WORDS`` words, and then nothing is packed.
    """
    n = len(token_sets)
    freq, singles, words = _token_counts(token_sets)
    rows, ranks = _ranked_tokens(token_sets, freq)
    del freq  # not held through the join
    packed = _packed_blocks(n, rows, ranks, singles, words) if n * words <= _BITSET_MAX_WORDS else None
    t = 1.0 - eps - 1e-9
    sizes = np.fromiter(map(len, token_sets), dtype=np.int64, count=n)
    px, lo, found, iy = _prefix_runs(rows, ranks, singles, sizes, t)
    # chunks of whole probe sets, cut where the candidates ahead cross a
    # multiple of the budget; a set over budget is a chunk of its own
    budget = max(1, _BITSET_CHUNK_WORDS // words)
    firsts = np.flatnonzero(np.diff(px, prepend=-1))
    ahead = (np.cumsum(found) - found)[firsts] // budget
    cuts = firsts[np.diff(ahead, prepend=-1) > 0].tolist()

    def chunks():
        for a, b in zip(cuts, cuts[1:] + [len(px)]):
            counts = found[a:b]
            xs = np.repeat(px[a:b], counts)
            ys = iy[np.repeat(lo[a:b] - (np.cumsum(counts) - counts), counts) + np.arange(len(xs))]
            keys = np.sort(xs * n + ys)
            xs, ys = np.divmod(keys[np.diff(keys, prepend=-1) > 0], n)
            la, lb = sizes[xs], sizes[ys]
            fits = lb >= t * la
            xs, ys, la, lb = xs[fits], ys[fits], la[fits], lb[fits]
            if packed is None:
                inter = np.fromiter(_overlaps(token_sets, xs.tolist(), ys.tolist()), dtype=np.int64, count=len(xs))
            else:
                common = packed[xs]
                common &= packed[ys]
                inter = np.bitwise_count(common).sum(-1, dtype=np.int64)
            near = 1.0 - inter / (la + lb - inter) <= eps
            yield xs[near], ys[near]

    return chunks()


def _overlaps(token_sets: list[frozenset | tuple], xs: list[int], ys: list[int]):
    """The overlap of each pair ``(xs[k], ys[k])`` of sets, ``xs``
    ascending: each probe set is made a set once for its run of pairs."""
    for x, run in groupby(zip(xs, ys), key=itemgetter(0)):
        common = set(token_sets[x]).intersection
        for _, y in run:
            yield len(common(token_sets[y]))


def _prefix_runs(rows: np.ndarray, ranks: np.ndarray, singles: int, sizes: np.ndarray, t: float):
    """The candidate runs of an exact Jaccard self-join at threshold ``t``
    with prefix and size filtering (Bayardo, Ma and Srikant, WWW 2007): for
    each probe entry ``(px[k], token)``, the earlier sets
    ``iy[lo[k]:lo[k] + found[k]]`` that hold the token in their index prefix.

    ``rows`` and ``ranks`` are :func:`_ranked_tokens`, so tokens run rarest
    first, and sets are visited in ascending size, then index. A probe x
    and an earlier set y within reach have |y| >= t|x| and share at least
    t|x| and at least 2t/(1+t)|y| tokens, so their rarest common token lies
    both in the probe's first |x| - ceil(t|x|) + 1 tokens and in y's first
    |y| - ceil(2t/(1+t)|y|) + 1, the prefix that is indexed (Xiao et al.,
    WWW 2008). ``t`` sits just below 1 - eps, so rounding only adds
    candidates. Tokens of one set only join nothing; they are dropped once
    the prefixes are cut.
    """
    n = len(sizes)
    t_index = 2.0 * t / (1.0 + t)
    ends = np.cumsum(sizes)  # each set's entries end here
    entry = np.arange(len(ranks))
    shared = ranks >= singles
    probe = shared & (entry < (ends - np.ceil(t * sizes).astype(np.int64) + 1)[rows])
    index = shared & (entry < (ends - np.ceil(t_index * sizes).astype(np.int64) + 1)[rows])
    by_visit = np.sort(sizes * n + np.arange(n)) % n
    visit = np.empty(n, dtype=np.int64)
    visit[by_visit] = np.arange(n)
    # index entries sorted by (rank, visit order)
    ikey = np.sort(ranks[index] * n + visit[rows[index]])
    px, pkey = rows[probe], ranks[probe] * n
    lo = np.searchsorted(ikey, pkey)
    found = np.searchsorted(ikey, pkey + visit[px]) - lo
    return px, lo, found, by_visit[ikey % n]


def _line_key(tokens: list[str]) -> tuple[str, ...]:
    """A line's distinct tokens in sorted order: lines with the same token
    set get equal keys, each a fraction of the size of a frozenset."""
    return tuple(sorted(set(tokens)))


def concept_count(profile: LexicalProfile, eps: float = 0.5, min_samples: int = 2) -> tuple[float, float]:
    """Cluster valid lines by token-set overlap; count non-noise clusters.

    Lines with the same token set are one point carrying their count; a
    line's neighbourhood includes itself.
    """
    lines = Counter(
        _line_key(toks)
        for stats, toks in zip(profile.per_line, profile.line_tokens)
        if not stats.is_blank and not stats.is_comment_only and toks
    )
    m_val = sum(lines.values())
    if m_val == 0:
        return 0.0, 0.0
    if eps >= 1:  # every pair is within reach: one cluster, or all noise
        noc = 1 if m_val >= min_samples else 0
    elif not eps >= 0:  # not even a line itself is within reach (NaN too)
        noc = m_val if min_samples <= 0 else 0
    else:
        sets = list(lines)
        if len(sets) < _JOIN_MIN_SETS:
            sets = list(map(frozenset, sets))
            pairs = ((i, j) for i, row in enumerate(_jaccard_rows(sets))
                     for j, v in enumerate(row, i + 1) if 1.0 - v <= eps)
        else:
            pairs = chain.from_iterable(zip(xs.tolist(), ys.tolist()) for xs, ys in _array_pairs(sets, eps))
        noc = _cluster_count(list(lines.values()), pairs, min_samples)
    return float(noc), noc / m_val


def compute_tf(profile: LexicalProfile, blocks: list[frozenset[str]],
               dictionary: DictionaryProvider,
               dbscan_eps: float = 0.5, dbscan_min_samples: int = 2,
               groups=None) -> TfFeatures:
    """The sixteen textual features of one snippet.

    ``groups`` names the groups of :data:`TF_GROUPS` that run (all of them
    for None); the fields of every other group are NaN. ``blocks`` is
    read only by ``text_coherence``, which runs first: from then on this
    call holds no reference to the block sets, so when the caller holds
    none either they are freed before the other groups run.
    """
    groups = TF_GROUPS if groups is None else groups
    values = dict.fromkeys(TfFeatures._fields, math.nan)
    if "text_coherence" in groups:
        values.update(zip(TF_GROUPS["text_coherence"], text_coherence(blocks)))
    del blocks
    work = {
        "cic": lambda: cic(profile, dictionary),
        "identifier_semantics": lambda: identifier_semantics(profile, dictionary),
        "comment_readability": lambda: (comment_readability(profile),),
        "concept_count": lambda: concept_count(profile, dbscan_eps, dbscan_min_samples),
    }
    for group in groups:
        if group != "text_coherence":
            values.update(zip(TF_GROUPS[group], work[group]()))
    return TfFeatures._make(values.values())
