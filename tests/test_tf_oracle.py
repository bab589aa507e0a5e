"""Differential oracle for the block-coherence and concept-count kernels.

The reference below is the dense version they replaced: an m×m float64
distance matrix from a binary incidence matrix, a breadth-first DBSCAN
over its thresholded rows, and a list of every block-pair Jaccard value.
``concept_count`` and ``text_coherence`` must return equal tuples (same
floats, bit for bit) on every sample, window, long snippet and generated
case, over the whole ``eps``/``min_samples`` range. Both functions are
checked on both of their paths. Below a size both check every pair with
the all-pairs set loop (``tf._jaccard_rows``): ``text_coherence`` below
``tf._BITSET_MIN_BLOCKS`` blocks or over ``tf._BITSET_MAX_WORDS`` packed
words, ``concept_count`` below ``tf._JOIN_MIN_SETS`` distinct line sets.
Above it ``text_coherence`` runs the packed bitsets and ``concept_count``
the array join (``tf._array_pairs``), whose pairs are also checked
against brute force: by popcount under the packed cap, by set
intersection over it.
"""

import math
import sys
import tracemalloc
import weakref
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codereadability import vectorizer
from codereadability.corpus import load_snippet, preprocess
from codereadability.dictionary import load_dictionary
from codereadability.features import tf
from codereadability.features.tf import (
    compute_tf,
    concept_count,
    text_coherence,
)
from codereadability.lexical import extract_blocks, tokenize
from codereadability.profiles import load_profiles
from lexer_samples import fixture_snippets, ini_profile, ini_snippet

from conftest import snip

BUILTIN = load_profiles(None)
PY = BUILTIN["python"]

ROOT = Path(__file__).resolve().parent.parent

EPS_VALUES = (-0.1, 0.0, 0.1, 0.25, 1 / 3, 0.5, 2 / 3, 0.75, 0.999, 1.0, 1.5,
              math.inf, -math.inf)
MIN_SAMPLES = (-1, 0, 1, 2, 3, 5)


def _eps_for_threshold(t):
    """The eps whose join threshold ``1.0 - eps - 1e-9`` is exactly ``t``."""
    eps, seen = 1.0 - t - 1e-9, set()
    while eps not in seen:
        seen.add(eps)
        got = 1.0 - eps - 1e-9
        if got == t:
            return eps
        eps = math.nextafter(eps, math.inf if got > t else -math.inf)
    raise AssertionError(f"no eps gives the threshold {t!r}")


# thresholds t with t·|x| a whole number for every |x| divisible by 3, 4 or 5,
# so each prefix length sits on its ceil boundary
WHOLE_T_EPS = tuple(_eps_for_threshold(t) for t in (1 / 3, 2 / 3, 3 / 4, 3 / 5))
JOIN_EPS = tuple(e for e in EPS_VALUES if 0 <= e < 1) + WHOLE_T_EPS


# --------------------------------------------------------------------------
# Reference: the dense kernels
# --------------------------------------------------------------------------

def ref_jaccard(a, b):
    union = len(a | b)
    if union == 0:
        return 0.0
    return len(a & b) / union


def ref_text_coherence(blocks):
    if len(blocks) < 2:
        return 0.0, 0.0, 0.0
    values = [
        ref_jaccard(blocks[i], blocks[j])
        for i in range(len(blocks))
        for j in range(i + 1, len(blocks))
    ]
    return min(values), sum(values) / len(values), max(values)


def ref_pairwise_overlap_distances(token_sets):
    vocab = {tok: j for j, tok in enumerate(sorted(set().union(*token_sets)))}
    incidence = np.zeros((len(token_sets), len(vocab)), dtype=np.float64)
    for i, toks in enumerate(token_sets):
        for tok in toks:
            incidence[i, vocab[tok]] = 1.0
    intersection = incidence @ incidence.T
    sizes = incidence.sum(axis=1)
    union = sizes[:, None] + sizes[None, :] - intersection
    with np.errstate(invalid="ignore"):
        dist = 1.0 - intersection / union
    return np.where(union > 0, dist, 0.0)


def ref_dbscan_cluster_count(adjacency, min_samples):
    n = len(adjacency)
    neighborhoods = [np.flatnonzero(row) for row in adjacency]
    is_core = [len(nb) >= min_samples for nb in neighborhoods]
    labels = [-1] * n
    clusters = 0
    for seed in range(n):
        if labels[seed] != -1 or not is_core[seed]:
            continue
        labels[seed] = clusters
        frontier = [seed]
        while frontier:
            point = frontier.pop()
            for neighbor in neighborhoods[point]:
                if labels[neighbor] == -1:
                    labels[neighbor] = clusters
                    if is_core[neighbor]:
                        frontier.append(neighbor)
        clusters += 1
    return clusters


def ref_concept_count(profile, eps=0.5, min_samples=2):
    token_sets = [
        frozenset(toks)
        for stats, toks in zip(profile.per_line, profile.line_tokens)
        if not stats.is_blank and not stats.is_comment_only and toks
    ]
    m_val = len(token_sets)
    if m_val == 0:
        return 0.0, 0.0
    dist = ref_pairwise_overlap_distances(token_sets)
    noc = ref_dbscan_cluster_count(dist <= eps, min_samples)
    return float(noc), noc / m_val


def token_overlap_distance(a, b):
    """The Jaccard distance of two token sets under ``tf.jaccard``."""
    if not a and not b:
        return 0.0  # identical (empty) token sets are at distance zero
    return 1.0 - tf.jaccard(a, b)


# --------------------------------------------------------------------------
# Inputs
# --------------------------------------------------------------------------

def _repo_python_lines():
    """The lines of the frozen snapshot of the repo's Python sources that
    the benchmark reads (``perfbench/corpus/python``), in file-name order:
    the long-snippet figures do not move when the sources do."""
    lines = []
    for path in sorted((ROOT / "perfbench" / "corpus" / "python").glob("*.py.txt")):
        lines += path.read_text(encoding="utf-8").splitlines()
    return lines


REPO_LINES = _repo_python_lines()


def repo_snippet(start, n_lines):
    """``n_lines`` consecutive lines of the frozen Python sources, wrapping around."""
    lines = (REPO_LINES * (1 + (start + n_lines) // len(REPO_LINES)))[start:start + n_lines]
    return preprocess(load_snippet("\n".join(lines), "python", f"repo{start}+{n_lines}"))


def assert_same(s, p=None, cases=((0.5, 2),)):
    prof = tokenize(s, BUILTIN[s.language] if p is None else p)
    blocks = extract_blocks(prof)
    assert text_coherence(blocks) == ref_text_coherence(blocks)
    for eps, min_samples in cases:
        assert concept_count(prof, eps, min_samples) == ref_concept_count(prof, eps, min_samples)


ALL_CASES = tuple((eps, k) for eps in EPS_VALUES for k in MIN_SAMPLES)


def brute_pairs(token_sets, eps):
    return {(i, j) for i in range(len(token_sets)) for j in range(i + 1, len(token_sets))
            if token_overlap_distance(token_sets[i], token_sets[j]) <= eps}


def array_join_pairs(token_sets, eps):
    chunks = tf._array_pairs(token_sets, eps)
    return [(min(x, y), max(x, y)) for xs, ys in chunks for x, y in zip(xs.tolist(), ys.tolist())]


# --------------------------------------------------------------------------
# Tests
# --------------------------------------------------------------------------

@pytest.mark.parametrize("snippet", fixture_snippets(), ids=lambda s: s.id)
def test_fixture_snippets(snippet):
    assert_same(snippet, cases=ALL_CASES)


def test_ini_profile_sample():
    assert_same(ini_snippet(), ini_profile(), cases=ALL_CASES)


def test_windows_of_repo_sources():
    for start in range(0, len(REPO_LINES) - 30, 97):
        assert_same(repo_snippet(start, 30), cases=((0.5, 2), (0.25, 3), (0.75, 1)))


@pytest.mark.parametrize("n_lines", [1000, 2500, 4000])
def test_long_snippets_of_repo_sources(n_lines):
    assert_same(repo_snippet(n_lines // 3, n_lines), cases=((0.5, 2), (1 / 3, 5)))


_TOKENS = st.sampled_from(["a", "b", "c", "d", "e", "=", "1", "(", ")"])
_LINES = st.lists(_TOKENS, min_size=0, max_size=5).map(" ".join)


@st.composite
def token_lines(draw):
    """Lines over a small alphabet; repeats drawn from a small pool, blanks split blocks."""
    pool = draw(st.lists(_LINES, min_size=1, max_size=6))
    picks = st.one_of(st.sampled_from(pool), _LINES, st.just(""), st.just("# note"))
    return draw(st.lists(picks, min_size=0, max_size=30))


@settings(max_examples=300, deadline=None)
@given(token_lines(), st.sampled_from(EPS_VALUES), st.sampled_from(MIN_SAMPLES))
def test_generated_lines_match_reference(lines, eps, min_samples):
    assert_same(snip("\n".join(lines)), cases=((eps, min_samples),))


def assert_join_finds_brute_pairs(token_sets, eps):
    """The array join finds every pair within reach, once, checked by
    popcount under the packed cap and by set intersection over it, from
    frozensets and from the sorted-tuple keys of ``concept_count`` alike."""
    brute = brute_pairs(token_sets, eps)
    with pytest.MonkeyPatch.context() as mp:
        for cap in (tf._BITSET_MAX_WORDS, 0):
            mp.setattr(tf, "_BITSET_MAX_WORDS", cap)
            for keys in (token_sets, list(map(tf._line_key, token_sets))):
                found = array_join_pairs(keys, eps)
                assert len(found) == len(set(found))
                assert set(found) == brute


class TestJaccardProperties:
    sets = st.frozensets(st.sampled_from("abcdefghij"), min_size=1, max_size=8)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(sets, min_size=1, max_size=60), st.sampled_from(JOIN_EPS))
    def test_join_pairs_match_scalar_distance(self, token_sets, eps):
        assert_join_finds_brute_pairs(token_sets, eps)


def test_no_neighbour_at_nan_eps():
    prof = tokenize(snip("a = 1\na = 1\nb = 2"), PY)
    assert concept_count(prof, math.nan, 2) == ref_concept_count(prof, math.nan, 2) == (0.0, 0.0)
    assert concept_count(prof, math.nan, 0) == ref_concept_count(prof, math.nan, 0) == (3.0, 1.0)


def ref_weighted_cluster_count(multiplicity, pairs, min_samples):
    """The DBSCAN count with every weighted point spelled out as that many
    copies, each a neighbour of itself, of its copies and of its pair's."""
    near = np.eye(len(multiplicity), dtype=bool)
    for i, j in pairs:
        near[i, j] = near[j, i] = True
    point = np.repeat(np.arange(len(multiplicity)), multiplicity)
    return ref_dbscan_cluster_count(near[np.ix_(point, point)], min_samples)


@st.composite
def weighted_graphs(draw):
    multiplicity = draw(st.lists(st.integers(1, 4), min_size=1, max_size=12))
    n = len(multiplicity)
    all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if not all_pairs:
        return multiplicity, []
    return multiplicity, draw(st.lists(st.sampled_from(all_pairs), unique=True, max_size=len(all_pairs)))


@settings(max_examples=300, deadline=None)
@given(weighted_graphs(), st.integers(-1, 9), st.data())
def test_cluster_count_is_dbscan_in_any_pair_order(graph, min_samples, data):
    """The one clusterer of both joins: any order of the pairs and of the
    ends within a pair gives the brute-force DBSCAN count."""
    multiplicity, pairs = graph
    shuffled = data.draw(st.permutations(pairs))
    swapped = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    reordered = [(j, i) if swap else (i, j) for (i, j), swap in zip(shuffled, swapped)]
    expected = ref_weighted_cluster_count(multiplicity, pairs, min_samples)
    assert tf._cluster_count(multiplicity, pairs, min_samples) == expected
    assert tf._cluster_count(multiplicity, iter(reordered), min_samples) == expected


def test_compute_tf_memory_is_bounded():
    """20k lines: the dense kernels needed gigabytes here; never run them at this size."""
    s = repo_snippet(0, 20_000)
    prof = tokenize(s, PY)
    blocks = extract_blocks(prof)
    d = load_dictionary()
    tracemalloc.start()
    try:
        compute_tf(prof, blocks, d)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20, f"compute_tf peaked at {peak / 2**20:.1f} MB"


class _Blocks(list):
    """A list of block sets that a weak reference can follow."""


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="before CPython 3.11 a caller holds the arguments of a call until it returns")
def test_no_block_set_is_alive_after_text_coherence(monkeypatch):
    """featurize binds the block sets to no name and compute_tf drops them
    once text coherence is done: none is alive while the concept count,
    BWF, PF or DF runs."""
    refs, alive = [], []
    extract = vectorizer.extract_blocks

    def blocks_of(profile):
        blocks = _Blocks(extract(profile))
        refs.append(weakref.ref(blocks))
        return blocks

    def watched(module, name):
        layer = getattr(module, name)

        def spy(*args):
            alive.append((name, refs[-1]() is not None))
            return layer(*args)

        monkeypatch.setattr(module, name, spy)

    monkeypatch.setattr(vectorizer, "extract_blocks", blocks_of)
    for module, name in ((tf, "concept_count"), (vectorizer, "compute_bwf"),
                         (vectorizer, "compute_pf"), (vectorizer, "compute_df")):
        watched(module, name)
    vectorizer.featurize(repo_snippet(0, 300), PY, load_dictionary())
    assert alive == [(name, False) for name in ("concept_count", "compute_bwf", "compute_pf", "compute_df")]


# --------------------------------------------------------------------------
# Block coherence on both kernels, compared by the bits of all three values
# --------------------------------------------------------------------------

def assert_same_bits(blocks):
    got = text_coherence(blocks)
    assert all(type(v) is float for v in got)
    assert [v.hex() for v in got] == [v.hex() for v in ref_text_coherence(blocks)]


@pytest.fixture(scope="module")
def long_blocks():
    s = repo_snippet(0, 4000)
    return extract_blocks(tokenize(s, PY))


@pytest.fixture
def bitset_calls(monkeypatch):
    """The block counts that reached the bitset kernel."""
    calls = []

    def spy(packed, sets):
        calls.append(len(sets))
        return kernel(packed, sets)

    kernel = tf._bitset_pairs
    monkeypatch.setattr(tf, "_bitset_pairs", spy)
    return calls


@pytest.mark.parametrize("n_blocks", sorted({tf._BITSET_MIN_BLOCKS - 1, tf._BITSET_MIN_BLOCKS,
                                             tf._BITSET_MIN_BLOCKS + 1, 63, 64, 65}))
def test_block_counts_around_the_bitset_threshold(long_blocks, bitset_calls, n_blocks):
    blocks = long_blocks[:n_blocks]
    assert len(blocks) == n_blocks
    assert_same_bits(blocks)
    assert bitset_calls == ([n_blocks] if n_blocks >= tf._BITSET_MIN_BLOCKS else [])
    if n_blocks >= 63:  # rows span several words
        assert tf._token_counts(blocks)[2] > 1


@pytest.mark.parametrize("tokens", [frozenset(), frozenset({"x"}), frozenset(map(str, range(100)))])
def test_identical_blocks(bitset_calls, tokens):
    blocks = [tokens] * (tf._BITSET_MIN_BLOCKS + 5)
    assert text_coherence(blocks) == ((1.0,) * 3 if tokens else (0.0,) * 3)
    assert bitset_calls == [len(blocks)]
    assert_same_bits(blocks)


@st.composite
def many_blocks(draw):
    """From the bitset threshold up to 128 blocks of empty, duplicate,
    disjoint and singleton-only sets; the shared pool may exceed 64 tokens."""
    rnd = draw(st.randoms(use_true_random=False))
    pool = [f"s{k}" for k in range(draw(st.integers(1, 200)))]
    halves = (pool[:len(pool) // 2] or pool, pool[len(pool) // 2:])
    kinds = draw(st.lists(st.sampled_from(("empty", "duplicate", "pool", "half", "singletons")),
                          min_size=tf._BITSET_MIN_BLOCKS, max_size=128))
    sets = []
    for i, kind in enumerate(kinds):
        if kind == "empty" or (kind == "duplicate" and not sets):
            s = frozenset()
        elif kind == "duplicate":
            s = rnd.choice(sets)
        elif kind == "singletons":  # tokens found in this block only
            s = frozenset(f"u{i}.{k}" for k in range(rnd.randint(1, 5)))
        else:  # the two halves of the pool are disjoint
            source = pool if kind == "pool" else rnd.choice(halves)
            s = frozenset(rnd.sample(source, rnd.randint(1, len(source))))
            s |= frozenset(f"u{i}.{k}" for k in range(rnd.randint(0, 2)))
        sets.append(s)
    return sets


@settings(max_examples=100, deadline=None)
@given(many_blocks())
def test_generated_many_blocks_match_reference(blocks):
    assert_same_bits(blocks)


def test_blocks_over_the_packed_cap_keep_the_set_loop(bitset_calls, monkeypatch):
    """1024 blocks, each sharing 17 tokens with the next only: 272 words a
    row, 2.1 MB packed, over a 2 MB cap; the set loop stays well under it."""
    monkeypatch.setattr(tf, "_BITSET_MAX_WORDS", 1 << 18)
    n, k = 1024, 17
    blocks = [frozenset([f"t{i - 1}.{j}" for j in range(k) if i]
                        + [f"t{i}.{j}" for j in range(k) if i < n - 1])
              for i in range(n)]
    assert n * -(-k * (n - 1) // 64) > tf._BITSET_MAX_WORDS
    tracemalloc.start()
    try:
        text_coherence(blocks)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2**20, f"text_coherence peaked at {peak / 2**20:.2f} MB"
    assert bitset_calls == []
    assert_same_bits(blocks)


# --------------------------------------------------------------------------
# Concept count on both paths: the all-pairs loop and the array join
# --------------------------------------------------------------------------

def distinct_line_sets(prof):
    return list(dict.fromkeys(
        frozenset(toks) for stats, toks in zip(prof.per_line, prof.line_tokens)
        if not stats.is_blank and not stats.is_comment_only and toks))


@contextmanager
def spy_on(name):
    """The set count of every call of ``tf.<name>``: the length of its
    first argument, or that argument when it is the count itself."""
    calls = []

    def spy(first, *args):
        calls.append(first if isinstance(first, int) else len(first))
        return kernel(first, *args)

    kernel = getattr(tf, name)
    setattr(tf, name, spy)
    try:
        yield calls
    finally:
        setattr(tf, name, kernel)


@pytest.fixture
def join_calls():
    """The set counts that reached the array join."""
    with spy_on("_array_pairs") as calls:
        yield calls


@pytest.fixture(scope="module")
def long_profile():
    return tokenize(repo_snippet(0, 4000), PY)


@pytest.mark.parametrize("n_sets", sorted({tf._JOIN_MIN_SETS - 1, tf._JOIN_MIN_SETS,
                                           tf._JOIN_MIN_SETS + 1, 127, 128, 129}))
def test_line_set_counts_around_the_join_threshold(long_profile, join_calls, n_sets):
    """The first lines of a long snippet that hold exactly ``n_sets`` distinct line sets."""
    seen, n_lines = set(), 0
    for n_lines, (stats, toks) in enumerate(zip(long_profile.per_line, long_profile.line_tokens), 1):
        if not stats.is_blank and not stats.is_comment_only and toks:
            seen.add(frozenset(toks))
            if len(seen) == n_sets:
                break
    prof = tokenize(repo_snippet(0, n_lines), PY)
    assert len(distinct_line_sets(prof)) == n_sets
    for eps, min_samples in ALL_CASES:
        assert concept_count(prof, eps, min_samples) == ref_concept_count(prof, eps, min_samples)
    runs = len([e for e, _ in ALL_CASES if 0 <= e < 1])
    assert join_calls == ([n_sets] * runs if n_sets >= tf._JOIN_MIN_SETS else [])


@st.composite
def many_lines(draw):
    """At least the join threshold of distinct line sets: duplicates
    (multiplicity > 1), singletons (tokens of one line only), sets from
    two disjoint halves of a pool or from all of it, and sets that share
    one token with each other."""
    rnd = draw(st.randoms(use_true_random=False))
    pool = [f"p{k}" for k in range(draw(st.integers(1, 150)))]
    halves = (pool[:len(pool) // 2] or pool, pool[len(pool) // 2:])
    kinds = draw(st.lists(st.sampled_from(("duplicate", "singletons", "pool", "half", "hub")),
                          min_size=1, max_size=192))
    sets = []
    for i, kind in enumerate(kinds):
        if kind == "duplicate" and sets:
            s = rnd.choice(sets)
        elif kind == "hub":  # one shared token, the rest of this line only
            s = ["hub"] + [f"u{i}_{k}" for k in range(rnd.randint(0, 4))]
        elif kind in ("pool", "half"):
            source = pool if kind == "pool" else rnd.choice(halves)
            s = rnd.sample(source, rnd.randint(1, min(len(source), 8)))
        else:
            s = [f"u{i}_{k}" for k in range(rnd.randint(1, 5))]
        sets.append(s)
    distinct = len({frozenset(s) for s in sets})
    sets += [[f"w{i}"] for i in range(tf._JOIN_MIN_SETS - distinct)]  # pad with singletons
    rnd.shuffle(sets)
    return [" ".join(s) for s in sets]


@settings(max_examples=60, deadline=None)
@given(many_lines(), st.sampled_from(JOIN_EPS + EPS_VALUES), st.sampled_from(MIN_SAMPLES))
def test_generated_many_lines_match_reference(lines, eps, min_samples):
    prof = tokenize(snip("\n".join(lines)), PY)
    n_sets = len(distinct_line_sets(prof))
    assert n_sets >= tf._JOIN_MIN_SETS
    with spy_on("_array_pairs") as calls:
        assert concept_count(prof, eps, min_samples) == ref_concept_count(prof, eps, min_samples)
    assert calls == ([n_sets] if 0 <= eps < 1 else [])
    if 0 <= eps < 1:
        assert_join_finds_brute_pairs(distinct_line_sets(prof), eps)


@pytest.mark.parametrize("n_sets", [10, tf._JOIN_MIN_SETS - 1, tf._JOIN_MIN_SETS, 40])
def test_lines_with_the_same_distinct_tokens_are_one_point(n_sets):
    """Each token set spelled three ways (in another order, and with a
    repeat) is one point of multiplicity 3, on the sorted-tuple keys made
    frozensets for the set loop (10 and 31 sets) and on the join."""
    lines = [line for i in range(n_sets)
             for line in (f"a{i} = b{i} + c", f"c + b{i} = a{i}", f"a{i} = a{i} + b{i} + c")]
    prof = tokenize(snip("\n".join(lines)), PY)
    assert len(distinct_line_sets(prof)) == n_sets
    with spy_on("_cluster_count") as points, spy_on("_array_pairs") as joins:
        for eps, min_samples in ((e, k) for e in JOIN_EPS for k in MIN_SAMPLES):
            assert concept_count(prof, eps, min_samples) == ref_concept_count(prof, eps, min_samples)
    assert points == [n_sets] * len(JOIN_EPS) * len(MIN_SAMPLES)
    assert joins == (points if n_sets >= tf._JOIN_MIN_SETS else [])


def test_array_join_chunks_bound_the_gathered_rows(monkeypatch):
    """A small word budget splits the join into many chunks with the same pairs."""
    token_sets = distinct_line_sets(tokenize(repo_snippet(0, 1000), PY))
    whole = array_join_pairs(token_sets, 0.5)
    monkeypatch.setattr(tf, "_BITSET_CHUNK_WORDS", 64)
    chunks = list(tf._array_pairs(token_sets, 0.5))
    assert len(chunks) > 10
    assert sorted(whole) == sorted((min(x, y), max(x, y)) for xs, ys in chunks
                                   for x, y in zip(xs.tolist(), ys.tolist()))


def test_concept_count_memory_is_bounded(join_calls):
    """20k lines on the array join: chunks of words keep the gathered rows
    small (the whole candidate set at once peaked near 60 MB here), and the
    sorted-tuple line keys hold the peak near 2.5 MB (4.2 MB on frozensets)."""
    prof = tokenize(repo_snippet(0, 20_000), PY)
    tracemalloc.start()
    try:
        concept_count(prof)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert join_calls
    assert peak <= 3 * 2**20, f"concept_count peaked at {peak / 2**20:.2f} MB"


def test_lines_over_the_packed_cap_join_by_set_intersection(join_calls, monkeypatch):
    """1024 lines, each sharing 17 tokens with the next only: 272 words a
    row, over a 2 MB cap, so the join packs nothing and checks its candidates
    by set intersection (the set join it replaced peaked at 4.9 MB here)."""
    monkeypatch.setattr(tf, "_BITSET_MAX_WORDS", 1 << 18)
    n, k = 1024, 17
    lines = [" ".join([f"t{i - 1}_{j}" for j in range(k) if i] + [f"t{i}_{j}" for j in range(k) if i < n - 1])
             for i in range(n)]
    prof = tokenize(snip("\n".join(lines)), PY)
    token_sets = distinct_line_sets(prof)
    assert len(token_sets) == n and n * -(-k * (n - 1) // 64) > tf._BITSET_MAX_WORDS
    # neighbours are at distance 2/3; the two end lines, at 1/2 from theirs
    assert sorted(array_join_pairs(token_sets, 0.5)) == [(0, 1), (n - 2, n - 1)]
    assert sorted(array_join_pairs(token_sets, 0.75)) == [(i, i + 1) for i in range(n - 1)]
    join_calls.clear()
    with spy_on("_packed_blocks") as packed:
        for eps, noc in ((0.5, 2), (0.75, 1)):
            tracemalloc.start()
            try:
                assert concept_count(prof, eps, 2) == (float(noc), noc / n)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 4.75 * 2**20, f"concept_count peaked at {peak / 2**20:.2f} MB"
    assert join_calls == [n, n]
    assert packed == []
