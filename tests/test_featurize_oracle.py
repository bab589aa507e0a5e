"""Differential oracle for the one-pass featurize.

The reference below is the code the token table, the one-transpose BWF,
the entropy term table and the reused identifier terms replaced: a
``finditer`` lexer loop that counts each line's categories from a
``Counter`` of its (kind, text) tokens, BWF's 20 ``getattr`` passes, a
``log2`` generator per line, DF's ``split_identifier`` per identifier
occurrence and TF's dictionary lookup per term occurrence. ``featurize``
must return the same 61 float64 values, byte for byte (``tobytes``, not
the ``.12g`` text of ``golden_features.csv``), for every sample, language
profile, tab width, dictionary and generated snippet.
"""

import math
import re
from collections import Counter
from dataclasses import dataclass, replace
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codereadability import lexical
from codereadability.config import AnalysisConfig
from codereadability.corpus import Snippet
from codereadability.features import pf
from codereadability.features.df import alignment, spatial, visual_densities
from codereadability.features.pf import halstead_volume
from codereadability.features.tf import comment_readability, cic, concept_count, text_coherence
from codereadability.lexical import (
    IDENT_RE,
    NUMBER_RE,
    LexicalProfile,
    extract_blocks,
    split_identifier,
)
from codereadability.profiles import CUDA_PROFILE, JAVA_PROFILE, PYTHON_PROFILE, get_profile
from codereadability.vectorizer import featurize
from lexer_samples import fixture_snippets, ini_profile, ini_snippet

# --------------------------------------------------------------------------
# Reference: the lexer loop and per-line Counter
# --------------------------------------------------------------------------

_IDENT, _KEYWORD, _NUMBER, _OP = range(4)
_OPEN_BRACKETS = frozenset("([{")


@dataclass(frozen=True)
class RefLineStats:
    length: int
    indent: int
    spaces: int
    identifiers: int
    keywords: int
    numbers: int
    parens: int
    brackets: int
    periods: int
    commas: int
    assignments: int
    branches: int
    loops: int
    arith_ops: int
    cmp_ops: int
    is_blank: bool
    has_comment: bool
    is_comment_only: bool


def ref_normalize_terms(tokens):
    return [t for tok in tokens for t in split_identifier(tok) if not t.isdigit()]


def ref_indent_width(line, tab_width):
    lead = line[: len(line) - len(line.lstrip(" \t"))]
    return len(lead) + lead.count("\t") * (tab_width - 1)


def ref_line_stats(line, tab_width, p, code, idents, has_comment, has_string):
    keywords = numbers = parens = brackets = periods = commas = 0
    assignments = branches = loops = arith_ops = cmp_ops = 0
    for (kind, text), n in Counter(code).items():
        if kind == _OP:
            if text == "(" or text == ")":
                parens += n
            elif text in ("[", "]", "{", "}"):
                brackets += n
            elif text == ".":
                periods += n
            elif text == ",":
                commas += n
            if text in p.assignment_ops:
                assignments += n
            if text in p.arithmetic_ops:
                arith_ops += n
            if text in p.comparison_ops:
                cmp_ops += n
        elif kind == _NUMBER:
            numbers += n
        else:
            if kind == _KEYWORD:
                keywords += n
            if text in p.branch_keywords:
                branches += n
            if text in p.loop_keywords:
                loops += n
    is_blank = not line.strip()
    return RefLineStats(
        length=len(line),
        indent=ref_indent_width(line, tab_width),
        spaces=line.count(" "),
        identifiers=idents,
        keywords=keywords,
        numbers=numbers,
        parens=parens,
        brackets=brackets,
        periods=periods,
        commas=commas,
        assignments=assignments,
        branches=branches,
        loops=loops,
        arith_ops=arith_ops,
        cmp_ops=cmp_ops,
        is_blank=is_blank,
        has_comment=has_comment,
        is_comment_only=(not is_blank) and has_comment and not code and not has_string,
    )


def ref_tokenize(s, p, tab_width):
    """The lexer loop over the scanner's segments (the marker scan is pinned
    by the lexer oracle); tokens from one ``finditer`` with a group per kind."""
    symbols = "".join(re.escape(sym) + "|" for sym in p.all_operator_symbols())
    code_re = re.compile(
        rf"[ \t]*(?:({IDENT_RE.pattern})|({NUMBER_RE.pattern})|({symbols}[^ \t]))"
    )
    scan = lexical._scanner(p).scan
    prof = LexicalProfile(lines=s.lines)
    prof.m = len(s.lines)
    text = "".join(s.lines)
    prof.total_chars = len(text)
    prof.char_counts.update(text)
    state = lexical._ScanState()
    for line in s.lines:
        tokens, code, idents, code_operands = [], [], [], []
        has_comment = has_string = False
        for seg in scan(line, state):
            if seg[0] == lexical._CODE:
                for m in code_re.finditer(line, seg[1], seg[2]):
                    group = m.lastindex
                    tok = m.group(group)
                    tokens.append(tok)
                    if group == 1:
                        if tok in p.keyword_set:
                            code.append((_KEYWORD, tok))
                            prof.operators.append(tok)
                            prof.keyword_chars += len(tok)
                        else:
                            code.append((_IDENT, tok))
                            idents.append(tok)
                            code_operands.append(tok)
                    elif group == 2:
                        code.append((_NUMBER, tok))
                        code_operands.append(tok)
                    else:
                        code.append((_OP, tok))
                        prof.operators.append(tok)
                        if tok in p.assignment_ops:
                            prof.assign_columns.append(m.start(3))
                        if tok in _OPEN_BRACKETS:
                            prof.bracket_columns.append(m.start(3))
            elif seg[0] == lexical._COMMENT:
                _, raw, body = seg
                has_comment = True
                prof.comment_chars += len(raw)
                prof.comments.append(body)
            else:
                _, raw, opens = seg
                has_string = True
                prof.string_chars += len(raw)
                tokens.append(raw)
                if opens:
                    prof.operands.append(raw)
        prof.operands.extend(code_operands)
        prof.identifiers.extend(idents)
        prof.identifiers_user.extend(t for t in idents if t not in p.builtin_names)
        prof.line_tokens.append(tokens)
        prof.line_identifier_terms.append(ref_normalize_terms(idents))
        stats = ref_line_stats(line, tab_width, p, code, len(idents), has_comment, has_string)
        prof.per_line.append(stats)
        if not stats.is_blank:
            prof.m_ne += 1
    comment_words = lexical._WORD_SPLIT_RE.findall(" ".join(prof.comments))
    prof.terms_comment = frozenset(ref_normalize_terms(comment_words))
    prof.terms_identifier = frozenset(chain.from_iterable(prof.line_identifier_terms))
    return prof


# --------------------------------------------------------------------------
# Reference: the feature families
# --------------------------------------------------------------------------

def ref_identifier_semantics(profile, dictionary):
    itid_vals, nmi_vals, nm_vals = [], [], []
    for stats, terms in zip(profile.per_line, profile.line_identifier_terms):
        if stats.identifiers == 0:
            continue
        entries = [dictionary.lookup(t) for t in terms]
        denom = max(1, len(terms))
        itid_vals.append(sum(1 for e in entries if e.in_dictionary) / denom)
        nmi_vals.append(float(sum(e.max_depth for e in entries)))
        nm_vals.append(sum(e.senses for e in entries) / denom)
    if not itid_vals:
        return (0.0,) * 8
    return (
        min(itid_vals), sum(itid_vals) / len(itid_vals), max(itid_vals),
        min(nmi_vals), sum(nmi_vals) / len(nmi_vals), max(nmi_vals),
        sum(nm_vals) / len(nm_vals), max(nm_vals),
    )


def ref_tf(profile, blocks, dictionary, config):
    sem = ref_identifier_semantics(profile, dictionary)
    return (
        *cic(profile, dictionary), *sem[:6], comment_readability(profile), *sem[6:],
        *text_coherence(blocks),
        *concept_count(profile, config.dbscan_eps, config.dbscan_min_samples),
    )


def ref_bwf(profile):
    code_lines = [s for s in profile.per_line if not s.is_blank and not s.is_comment_only]
    denom = max(1, len(code_lines))

    def avg(attr):
        return sum(getattr(s, attr) for s in code_lines) / denom

    def peak(attr):
        return float(max((getattr(s, attr) for s in code_lines), default=0))

    n_ids = len(profile.identifiers)
    id_lengths = [len(t) for t in profile.identifiers]
    m = max(1, profile.m)
    blanks = sum(1 for s in profile.per_line if s.is_blank)
    comment_lines = sum(1 for s in profile.per_line if s.has_comment)
    return (
        avg("length"), peak("length"),
        sum(id_lengths) / max(1, n_ids), float(max(id_lengths, default=0)),
        avg("identifiers"), peak("identifiers"),
        avg("indent"), peak("indent"),
        avg("keywords"), peak("keywords"),
        avg("numbers"), peak("numbers"),
        avg("parens"), avg("brackets"), avg("periods"),
        blanks / m, comment_lines / m,
        avg("commas"), avg("spaces"), avg("assignments"), avg("branches"),
        avg("loops"), avg("arith_ops"), avg("cmp_ops"),
        float(max(profile.char_counts.values(), default=0)),
        float(max(Counter(profile.identifiers).values(), default=0)),
    )


def ref_line_entropy(line):
    counts = Counter(line)
    total = len(line)
    return -sum((c / total) * math.log2(c / total) for c in counts.values())


def ref_pf(profile):
    entropies = [
        ref_line_entropy(line)
        for line, stats in zip(profile.lines, profile.per_line)
        if not stats.is_blank
    ]
    if entropies:
        mean = sum(entropies) / len(entropies)
        std = math.sqrt(sum((h - mean) ** 2 for h in entropies) / len(entropies))
    else:
        mean = std = 0.0
    return float(profile.m_ne), mean, std, halstead_volume(profile)


_WORD_RE = re.compile(r"[A-Za-z]+(?:'[A-Za-z]+)*")


def ref_text_features(profile, dictionary):
    user = profile.identifiers_user
    n_user = len(user)

    def is_english_ident(ident):
        terms = split_identifier(ident)
        return bool(terms) and all(dictionary.is_english(t) for t in terms)

    english = sum(1 for ident in user if is_english_ident(ident))
    w_com = len(_WORD_RE.findall(" ".join(profile.comments)))
    w_code = sum(
        1 for ident in profile.identifiers
        for term in split_identifier(ident)
        if not term.isdigit()
    )
    return (
        english / max(1, n_user),
        w_com / max(1, w_com + w_code),
        float(len(set(user))),
        sum(len(t) for t in user) / max(1, n_user),
    )


def ref_df(profile, dictionary):
    return (*visual_densities(profile), *spatial(profile), *alignment(profile),
            *ref_text_features(profile, dictionary))


def ref_featurize(s, p, d, config):
    if not s.lines:
        return np.zeros(61)
    profile = ref_tokenize(s, p or get_profile(s.language), config.tab_width)
    blocks = extract_blocks(profile)
    return np.array(ref_tf(profile, blocks, d, config) + ref_bwf(profile)
                    + ref_pf(profile) + ref_df(profile, d), dtype=np.float64)


def assert_same(s, d, p=None, tab_width=4):
    config = AnalysisConfig(tab_width=tab_width)
    got = featurize(s, p, d, config)
    want = ref_featurize(s, p, d, config)
    assert got.tobytes() == want.tobytes(), [
        (i, g, w) for i, (g, w) in enumerate(zip(got, want)) if g != w or math.isnan(g) != math.isnan(w)
    ]


@pytest.fixture(params=["bundled", "wordnet_mini"])
def dictionary(request, bundled_dict, wordnet_dict):
    return bundled_dict if request.param == "bundled" else wordnet_dict


# --------------------------------------------------------------------------
# Samples
# --------------------------------------------------------------------------

@pytest.mark.parametrize("snippet", fixture_snippets(), ids=lambda s: s.id)
@pytest.mark.parametrize("tab_width", [2, 4, 8])
def test_fixture_snippets(snippet, tab_width, dictionary):
    assert_same(snippet, dictionary, tab_width=tab_width)


@pytest.mark.parametrize("language", ["python", "java", "cuda"])
def test_samples_under_every_profile(language, bundled_dict):
    for s in fixture_snippets():
        assert_same(replace(s, language=language), bundled_dict)


def test_ini_profile_sample(dictionary):
    assert_same(ini_snippet(), dictionary, ini_profile())


def test_mylang_lines(bundled_dict):
    lines = ('let x2 = 1 ;; bind "q" # not a comment', "when x loop /* not a block */", '"""x"""')
    assert_same(Snippet(id="s", language="generic", lines=lines), bundled_dict, ini_profile())


def test_long_line(dictionary):
    """One 22k-character line: the entropy table for a long line, a large count."""
    line = "x = " + " + ".join(f"valueName{i % 97}" for i in range(1600))
    assert len(line) > 22_000
    assert_same(Snippet(id="s", language="python", lines=(line, "", "  # " + line[:500])), dictionary)


# --------------------------------------------------------------------------
# Fuzzing
# --------------------------------------------------------------------------

IDENTIFIERS = (
    "x", "x2", "value2", "getValue", "getValue2", "HTTPServer2", "URLParser", "parseURL",
    "ID", "_", "__init__", "_2", "a_b_c", "snake_case_name", "camelCaseName",
    "self", "print", "len", "range", "this", "threadIdx", "blockDim", "printf",
    "count", "index", "total", "foo", "qzx", "x1y2z3", "ABC", "aB", "Ab",
)
PIECES = IDENTIFIERS + (
    "if", "for", "while", "return", "def", "class", "int", "else", "do", "switch",
    "0", "42", "3.14", "0x1F", "1e5", ".5", "=", "+=", "==", "<=", "->", "::", "+",
    "-", "*", "/", "%", "(", ")", "[", "]", "{", "}", ",", ".", ";", ":", "@", "~", "!",
    " ", "  ", "\t", '"s"', "'c'", '"""', "# note", "// note", "/* c */", "/*", "*/",
    "é", "٣",
)

lines_strategy = st.lists(
    st.one_of(
        st.lists(st.sampled_from(PIECES), max_size=16).map(" ".join),
        st.sampled_from(("", "   ", "\t", "# only a comment", "// only a comment", "  ()")),
    ),
    max_size=12,
)


@settings(max_examples=300, deadline=None)
@given(lines=lines_strategy,
       profile=st.sampled_from((PYTHON_PROFILE, JAVA_PROFILE, CUDA_PROFILE)),
       tab_width=st.sampled_from((2, 4, 8)))
def test_generated_snippets_match_reference(bundled_dict, wordnet_dict, lines, profile, tab_width):
    s = Snippet(id="s", language="generic", lines=tuple(lines))
    for d in (bundled_dict, wordnet_dict):
        assert_same(s, d, profile, tab_width)


# --------------------------------------------------------------------------
# The tables stay bounded
# --------------------------------------------------------------------------

def test_token_table_is_bounded(bundled_dict):
    table = lexical._scanner(JAVA_PROFILE).table
    n = table.size + 100
    lines = tuple(" ".join(f"name{i}_{j}" for j in range(50)) for i in range(0, n, 50))
    s = Snippet(id="s", language="java", lines=lines)
    assert_same(s, bundled_dict)
    assert len(table) <= table.size


def test_entropy_table_is_bounded():
    for n in range(1, pf._TERMS.size + 20):
        line = "ab" * n
        assert pf.line_entropy(line) == ref_line_entropy(line)
    assert len(pf._TERMS) <= pf._TERMS.size
    assert all(len(t) <= t.size for t in pf._TERMS.values())
