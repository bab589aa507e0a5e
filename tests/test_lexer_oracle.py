"""Differential oracle for the compiled scanner.

The reference below is the character-at-a-time lexer the scanner
replaced: a per-position loop over the profile's four marker lists and a
``startswith`` loop over its operator symbols. ``tokenize`` must return an
equal ``LexicalProfile`` (every field, every list in order) for every
sample, language profile and tab width.
"""

from dataclasses import dataclass, replace
from enum import Enum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codereadability import lexical
from codereadability.corpus import Snippet
from codereadability.lexical import (
    IDENT_RE,
    NUMBER_RE,
    STRING_PREFIX_RE,
    CommentSegment,
    LexicalProfile,
    LineStats,
    split_identifier,
    tokenize,
)
from codereadability.profiles import (
    CUDA_PROFILE,
    JAVA_PROFILE,
    PYTHON_PROFILE,
    LanguageProfile,
    get_profile,
    load_profiles,
)
from lexer_samples import fixture_snippets, ini_profile, ini_snippet

_WORD_SPLIT_RE = lexical._WORD_SPLIT_RE


# --------------------------------------------------------------------------
# Reference: the character-at-a-time lexer
# --------------------------------------------------------------------------

class TokenKind(Enum):
    IDENT = "ident"
    KEYWORD = "keyword"
    NUMBER = "number"
    OP = "op"
    STRING = "string"


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    text: str
    col: int


_CODE, _COMMENT, _STRING = "code", "comment", "string"


@dataclass
class _Segment:
    kind: str
    col: int
    raw: str
    text: str = ""
    opens: bool = True


@dataclass
class _ScanState:
    mode: tuple | None = None


def ref_normalize_terms(tokens):
    out = []
    for tok in tokens:
        out.extend(t for t in split_identifier(tok) if not t.isdigit())
    return out


def ref_find_close(line, start, close, escaped):
    i = start
    while i <= len(line) - len(close):
        if escaped and line[i] == "\\":
            i += 2
            continue
        if line.startswith(close, i):
            return i + len(close)
        i += 1
    return -1


def ref_scan_line(line, profile, state):
    segments = []
    i = 0
    n = len(line)

    if state.mode is not None:
        kind = state.mode[0]
        if kind == "comment":
            close = state.mode[1]
            end = ref_find_close(line, 0, close, escaped=False)
            if end == -1:
                segments.append(_Segment(_COMMENT, 0, line, text=line))
                return segments
            segments.append(_Segment(_COMMENT, 0, line[:end], text=line[: end - len(close)]))
            state.mode = None
            i = end
        else:
            close, as_comment = state.mode[1], state.mode[2]
            end = ref_find_close(line, 0, close, escaped=True)
            seg_kind = _COMMENT if as_comment else _STRING
            if end == -1:
                segments.append(_Segment(seg_kind, 0, line, text=line, opens=False))
                return segments
            segments.append(
                _Segment(seg_kind, 0, line[:end], text=line[: end - len(close)], opens=False)
            )
            state.mode = None
            i = end

    code_start = i
    code_chars = []

    def flush_code():
        nonlocal code_chars
        if code_chars:
            segments.append(_Segment(_CODE, code_start, "".join(code_chars)))
            code_chars = []

    def begin_string(delim, start):
        raw_start = start
        buffered = "".join(code_chars)
        mt = STRING_PREFIX_RE.search(buffered)
        if mt:
            prefix = mt.group(1)
            del code_chars[len(code_chars) - len(prefix):]
            raw_start = start - len(prefix)
        return raw_start, start + len(delim)

    while i < n:
        matched = False

        for marker in profile.line_comment_markers:
            if line.startswith(marker, i):
                flush_code()
                segments.append(_Segment(_COMMENT, i, line[i:], text=line[i + len(marker):]))
                return segments

        if not matched:
            for opener, close in profile.block_comment_delims:
                if line.startswith(opener, i):
                    flush_code()
                    end = ref_find_close(line, i + len(opener), close, escaped=False)
                    if end == -1:
                        segments.append(_Segment(_COMMENT, i, line[i:], text=line[i + len(opener):]))
                        state.mode = ("comment", close)
                        return segments
                    segments.append(_Segment(_COMMENT, i, line[i:end],
                                             text=line[i + len(opener): end - len(close)]))
                    i = end
                    code_start = i
                    matched = True
                    break

        if not matched:
            for delim in profile.docstring_delims:
                if line.startswith(delim, i):
                    before = "".join(code_chars)
                    mt = STRING_PREFIX_RE.search(before)
                    rest = before[: len(before) - len(mt.group(1))] if mt else before
                    as_comment = not rest.strip() and not any(s.kind == _CODE for s in segments)
                    raw_start, scan_from = begin_string(delim, i)
                    flush_code()
                    end = ref_find_close(line, scan_from, delim, escaped=True)
                    seg_kind = _COMMENT if as_comment else _STRING
                    if end == -1:
                        segments.append(_Segment(seg_kind, raw_start, line[raw_start:],
                                                 text=line[scan_from:]))
                        state.mode = ("string", delim, as_comment)
                        return segments
                    segments.append(_Segment(seg_kind, raw_start, line[raw_start:end],
                                             text=line[scan_from: end - len(delim)]))
                    i = end
                    code_start = i
                    matched = True
                    break

        if not matched:
            for delim in profile.string_delims:
                if line.startswith(delim, i):
                    raw_start, scan_from = begin_string(delim, i)
                    flush_code()
                    end = ref_find_close(line, scan_from, delim, escaped=True)
                    if end == -1:
                        segments.append(_Segment(_STRING, raw_start, line[raw_start:],
                                                 text=line[scan_from:]))
                        return segments
                    segments.append(_Segment(_STRING, raw_start, line[raw_start:end],
                                             text=line[scan_from: end - len(delim)]))
                    i = end
                    code_start = i
                    matched = True
                    break

        if not matched:
            if not code_chars:
                code_start = i
            code_chars.append(line[i])
            i += 1

    flush_code()
    return segments


def ref_tokenize_code(text, base_col, profile, symbols):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t":
            i += 1
            continue
        if ch.isalpha() or ch == "_":
            mt = IDENT_RE.match(text, i)
            if mt:
                lexeme = mt.group(0)
                kind = TokenKind.KEYWORD if lexeme in profile.keyword_set else TokenKind.IDENT
                tokens.append(Token(kind, lexeme, base_col + i))
                i = mt.end()
                continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            mt = NUMBER_RE.match(text, i)
            if mt:
                tokens.append(Token(TokenKind.NUMBER, mt.group(0), base_col + i))
                i = mt.end()
                continue
        for sym in symbols:
            if text.startswith(sym, i):
                tokens.append(Token(TokenKind.OP, sym, base_col + i))
                i += len(sym)
                break
        else:
            tokens.append(Token(TokenKind.OP, ch, base_col + i))
            i += 1
    return tokens


def ref_indent_width(line, tab_width):
    width = 0
    for ch in line:
        if ch == " ":
            width += 1
        elif ch == "\t":
            width += tab_width
        else:
            break
    return width


def ref_tokenize(s, p=None, tab_width=4):
    if p is None:
        p = get_profile(s.language)
    symbols = p.all_operator_symbols()
    assign_set = set(p.assignment_ops)
    arith_set = set(p.arithmetic_ops)
    cmp_set = set(p.comparison_ops)
    open_brackets = {"(", "[", "{"}

    prof = LexicalProfile(lines=s.lines)
    prof.m = len(s.lines)
    state = _ScanState()

    for lineno, line in enumerate(s.lines):
        prof.total_chars += len(line)
        prof.char_counts.update(line)

        segments = ref_scan_line(line, p, state)
        is_blank = line.strip() == ""

        line_toks = []
        has_comment = False
        has_string = False
        for seg in segments:
            if seg.kind == _COMMENT:
                has_comment = True
                prof.comment_chars += len(seg.raw)
                prof.comments.append(CommentSegment(line=lineno, col=seg.col, raw=seg.raw, text=seg.text))
            elif seg.kind == _STRING:
                has_string = True
                prof.string_chars += len(seg.raw)
                line_toks.append(Token(TokenKind.STRING, seg.raw, seg.col))
                if seg.opens:
                    prof.operands.append(seg.raw)
            else:
                line_toks.extend(ref_tokenize_code(seg.raw, seg.col, p, symbols))
        line_toks.sort(key=lambda t: t.col)

        code_toks = [t for t in line_toks if t.kind is not TokenKind.STRING]
        idents = [t.text for t in line_toks if t.kind is TokenKind.IDENT]

        for tok in code_toks:
            if tok.kind is TokenKind.KEYWORD:
                prof.operators.append(tok.text)
                prof.keyword_chars += len(tok.text)
            elif tok.kind is TokenKind.OP:
                prof.operators.append(tok.text)
                if tok.text in assign_set:
                    prof.assign_columns.append(tok.col)
                if tok.text in open_brackets:
                    prof.bracket_columns.append(tok.col)
            else:
                prof.operands.append(tok.text)

        prof.identifiers.extend(idents)
        prof.identifiers_user.extend(t for t in idents if t not in p.builtin_names)
        prof.line_tokens.append([t.text for t in line_toks])
        prof.line_identifier_terms.append(ref_normalize_terms(idents))

        words = (TokenKind.KEYWORD, TokenKind.IDENT)
        stats = LineStats(
            length=len(line),
            indent=ref_indent_width(line, tab_width),
            spaces=line.count(" "),
            identifiers=len(idents),
            keywords=sum(1 for t in code_toks if t.kind is TokenKind.KEYWORD),
            numbers=sum(1 for t in code_toks if t.kind is TokenKind.NUMBER),
            parens=sum(1 for t in code_toks if t.text in ("(", ")")),
            brackets=sum(1 for t in code_toks if t.text in ("[", "]", "{", "}")),
            periods=sum(1 for t in code_toks if t.kind is TokenKind.OP and t.text == "."),
            commas=sum(1 for t in code_toks if t.text == ","),
            assignments=sum(1 for t in code_toks if t.kind is TokenKind.OP and t.text in assign_set),
            branches=sum(1 for t in code_toks if t.text in p.branch_keywords and t.kind in words),
            loops=sum(1 for t in code_toks if t.text in p.loop_keywords and t.kind in words),
            arith_ops=sum(1 for t in code_toks if t.kind is TokenKind.OP and t.text in arith_set),
            cmp_ops=sum(1 for t in code_toks if t.kind is TokenKind.OP and t.text in cmp_set),
            is_blank=is_blank,
            has_comment=has_comment,
            is_comment_only=(not is_blank) and has_comment and not code_toks and not has_string,
        )
        prof.per_line.append(stats)

        if not is_blank:
            prof.m_ne += 1

    comment_words = _WORD_SPLIT_RE.findall(" ".join(c.text for c in prof.comments))
    prof.terms_comment = frozenset(ref_normalize_terms(comment_words))
    prof.terms_identifier = frozenset(ref_normalize_terms(prof.identifiers))
    return prof


def assert_same(s, p=None, tab_width=4):
    got = tokenize(s, p, tab_width=tab_width)
    want = ref_tokenize(s, p, tab_width=tab_width)
    assert got == want
    # dataclass equality ignores the Counter's key order; the features do not
    assert list(got.char_counts.items()) == list(want.char_counts.items())


# --------------------------------------------------------------------------
# Samples
# --------------------------------------------------------------------------

@pytest.mark.parametrize("snippet", fixture_snippets(), ids=lambda s: s.id)
@pytest.mark.parametrize("tab_width", [2, 4, 8])
def test_fixture_snippets(snippet, tab_width):
    assert_same(snippet, tab_width=tab_width)


@pytest.mark.parametrize("language", ["python", "java", "cuda"])
def test_samples_under_every_profile(language):
    for s in fixture_snippets():
        assert_same(replace(s, language=language))


def test_ini_profile_sample():
    assert_same(ini_snippet(), ini_profile())


# --------------------------------------------------------------------------
# The scanner cache is keyed by profile value
# --------------------------------------------------------------------------

def _ini(tmp_path, text):
    path = tmp_path / "profiles.ini"
    path.write_text(text, encoding="utf-8")
    return load_profiles(path)


MYLANG_LINES = ('let x = 1 ;; bind "q" # not a comment', "when x loop /* not a block */", '"""x"""')


def test_mylang_profile_gets_its_own_scanner():
    profile = ini_profile()
    s = Snippet(id="s", language="generic", lines=MYLANG_LINES)
    assert_same(s, profile)
    prof = tokenize(s, profile)
    assert [c.text for c in prof.comments] == [' bind "q" # not a comment']
    # the python profile, cached earlier under the same snippet, sees a comment at '#'
    assert [c.raw for c in tokenize(s).comments] == ["# not a comment", '"""x"""']


def test_ini_profile_named_generic_is_not_the_builtin(tmp_path):
    generic = _ini(tmp_path, "[generic]\nkeywords = blop\nline_comments = --\nstrings = '\n")["generic"]
    s = Snippet(id="s", language="generic", lines=("blop x -- note # more", 'y = "a" # c'))
    tokenize(s)  # the built-in generic (python) scanner is built first
    assert_same(s, generic)
    prof = tokenize(s, generic)
    assert [c.text for c in prof.comments] == [" note # more"]
    assert "blop" in prof.operators
    assert [c.text for c in tokenize(s).comments] == [" more", " c"]


def test_profile_without_block_comments_or_docstrings(tmp_path):
    bare = _ini(tmp_path, "[bare]\nline_comments = //\nstrings = \"\n")["bare"]
    assert not bare.block_comment_delims and not bare.docstring_delims
    s = Snippet(id="s", language="generic",
                lines=('/* x */ a = """b""" // c', "*/ d = '''e'''"))
    assert_same(s, bare)
    assert [c.raw for c in tokenize(s, bare).comments] == ["// c"]


def test_profile_without_operator_symbols(tmp_path):
    text = ("[nosym]\nkeywords = if\nline_comments = #\nassignment_ops =\n"
            "arithmetic_ops =\ncomparison_ops =\npunctuation =\n")
    nosym = _ini(tmp_path, text)["nosym"]
    assert nosym.all_operator_symbols() == ()
    s = Snippet(id="s", language="generic", lines=("if a <= b: c += 1  # x", "f(a, b)"))
    assert_same(s, nosym)
    prof = tokenize(s, nosym)
    assert prof.operators[:4] == ["if", "<", "=", ":"]
    # no assignment symbols, but parentheses are counted as unknown operators
    assert prof.per_line[0].assignments == 0 and prof.per_line[1].parens == 2


def test_profile_without_any_marker(tmp_path):
    plain = _ini(tmp_path, "[plain]\nstrings =\n")["plain"]
    assert not (plain.line_comment_markers or plain.block_comment_delims
                or plain.docstring_delims or plain.string_delims)
    s = Snippet(id="s", language="generic", lines=("x = 'a' # b", '"c" /* d'))
    assert_same(s, plain)
    assert not tokenize(s, plain).comments


def test_profiles_equal_in_value_share_a_scanner():
    twin = replace(PYTHON_PROFILE)
    assert twin is not PYTHON_PROFILE
    assert lexical._scanner(twin) is lexical._scanner(PYTHON_PROFILE)
    assert lexical._scanner(JAVA_PROFILE) is not lexical._scanner(CUDA_PROFILE)


# --------------------------------------------------------------------------
# Fuzzing
# --------------------------------------------------------------------------

FRAGMENTS = (
    "#", "//", "/*", "*/", '"""', "'''", '"', "'", "\\", '\\"', "\\'", "\\\\",
    "r", "b", "f", "u", "R", "B", "rb", "Br", "x", "_y", "if", "for", "while", "do",
    "case", "self", "café", "é", "٣", "²", ".٣", ".²", "\x0c", "\t", " ", "  ",
    "1", "0x1F", "1_0.5e-3", ".5", "3.", "=", "+=", ">>>=", "**", "//=", "==", "<=",
    "->", "::", "(", ")", "[", "]", "{", "}", ",", ".", ":", ";", "@", "~", "!", "?",
    "$", "`", "\xa0", ";;", "--",
)

EXTRA_PROFILES = (
    LanguageProfile(
        name="generic",
        keyword_set=frozenset({"if", "do"}),
        line_comment_markers=(";;", "--"),
        block_comment_delims=(("/*", "*/"), ("(*", "*)")),
        string_delims=("'",),
        docstring_delims=('"""',),
        branch_keywords=frozenset({"if"}),
        loop_keywords=frozenset({"do"}),
        assignment_ops=("=", ":="),
        arithmetic_ops=("+", "-"),
        comparison_ops=("<", "=="),
        punctuation=("(", ")", ","),
    ),
    LanguageProfile(
        name="nosym",
        keyword_set=frozenset(),
        line_comment_markers=("#",),
        block_comment_delims=(),
        string_delims=('"', "'"),
    ),
)

lines_strategy = st.lists(
    st.lists(st.sampled_from(FRAGMENTS), max_size=14).map("".join), max_size=8
)


@settings(max_examples=400, deadline=None)
@given(lines=lines_strategy,
       profile=st.sampled_from((PYTHON_PROFILE, JAVA_PROFILE, CUDA_PROFILE) + EXTRA_PROFILES),
       tab_width=st.sampled_from((2, 4, 8)))
def test_fuzzed_lines_match_reference(lines, profile, tab_width):
    assert_same(Snippet(id="s", language="generic", lines=tuple(lines)), profile, tab_width)
