"""Language-aware lexical extraction.

One pass over a snippet yields everything the four feature families
consume: token multisets, identifier terms, comment segments, per-line
category counts, Halstead operator/operand tallies, character vocabularies,
and the column positions of assignment operators and opening brackets.

Scanning is regex/state-machine based, never a full parse, so incomplete
or syntactically broken snippets still produce a best-effort profile.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum

from .corpus import Snippet
from .profiles import LanguageProfile, get_profile

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
NUMBER_RE = re.compile(
    r"0[xX][0-9a-fA-F_]+|0[bB][01_]+|0[oO][0-7_]+"
    r"|\d[\d_]*(?:\.(?:\d[\d_]*)?)?(?:[eE][+-]?\d+)?"
    r"|\.\d[\d_]*(?:[eE][+-]?\d+)?"
)
STRING_PREFIX_RE = re.compile(r"(?:^|(?<=[^A-Za-z0-9_]))([rRbBuUfF]{1,2})$")
_WORD_SPLIT_RE = re.compile(r"[A-Za-z]+|\d+")
_CAMEL_RE = re.compile(
    r"[A-Z]+(?![a-z])|[A-Z][a-z]+|[a-z]+|\d+"
)


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
    col: int  # 0-based column in the raw line


@dataclass(frozen=True)
class CommentSegment:
    line: int   # 0-based line index
    col: int
    raw: str    # full segment including markers/delimiters
    text: str   # comment text with markers stripped


@dataclass(frozen=True)
class TextBlock:
    """Contiguous non-blank line group; carries its lexical token set."""

    start_line: int
    end_line: int  # inclusive
    tokens: frozenset[str]


@dataclass(frozen=True)
class LineStats:
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


@dataclass
class LexicalProfile:
    """All lexical evidence extracted from one snippet."""

    lines: tuple[str, ...] = ()
    m: int = 0
    m_ne: int = 0
    line_tokens: list[list[str]] = field(default_factory=list)
    identifiers: list[str] = field(default_factory=list)
    identifiers_user: list[str] = field(default_factory=list)
    comments: list[CommentSegment] = field(default_factory=list)
    terms_comment: frozenset[str] = frozenset()
    terms_identifier: frozenset[str] = frozenset()
    line_identifier_terms: list[list[str]] = field(default_factory=list)
    per_line: list[LineStats] = field(default_factory=list)
    operators: list[str] = field(default_factory=list)
    operands: list[str] = field(default_factory=list)
    keyword_chars: int = 0
    string_chars: int = 0
    comment_chars: int = 0
    total_chars: int = 0
    char_counts: Counter = field(default_factory=Counter)
    assign_columns: list[int] = field(default_factory=list)
    bracket_columns: list[int] = field(default_factory=list)

    @property
    def char_vocab(self) -> frozenset[str]:
        return frozenset(self.char_counts)

    @property
    def eta1(self) -> int:
        return len(set(self.operators))

    @property
    def eta2(self) -> int:
        return len(set(self.operands))

    @property
    def n1(self) -> int:
        return len(self.operators)

    @property
    def n2(self) -> int:
        return len(self.operands)


def split_identifier(ident: str) -> list[str]:
    """Decompose an identifier into lowercased terms.

    Splits on underscores/punctuation, camelCase humps, digit boundaries,
    and acronym runs: ``HTTPServer2`` -> ``["http", "server", "2"]``.
    """
    terms: list[str] = []
    for chunk in _WORD_SPLIT_RE.findall(ident):
        if chunk.isdigit():
            terms.append(chunk)
        else:
            terms.extend(part.lower() for part in _CAMEL_RE.findall(chunk))
    return terms


def normalize_terms(tokens) -> list[str]:
    """Shared term pipeline for comment text, identifiers, and line groups:
    split, lowercase, drop pure-number terms."""
    out: list[str] = []
    for tok in tokens:
        out.extend(t for t in split_identifier(tok) if not t.isdigit())
    return out


# --------------------------------------------------------------------------
# Line segmentation
# --------------------------------------------------------------------------

_CODE, _COMMENT, _STRING = "code", "comment", "string"


@dataclass
class _Segment:
    kind: str
    col: int
    raw: str
    text: str = ""       # comments: marker-stripped text
    opens: bool = True   # strings: False on continuation fragments


@dataclass
class _ScanState:
    # ("comment", close) or ("string", close, as_comment) while a block
    # construct spans lines; None otherwise
    mode: tuple | None = None


def _find_close(line: str, start: int, close: str, escaped: bool) -> int:
    """Index just past the closing delimiter, or -1. Honors backslash escapes."""
    i = start
    while i <= len(line) - len(close):
        if escaped and line[i] == "\\":
            i += 2
            continue
        if line.startswith(close, i):
            return i + len(close)
        i += 1
    return -1


def _scan_line(line: str, profile: LanguageProfile, state: _ScanState) -> list[_Segment]:
    segments: list[_Segment] = []
    i = 0
    n = len(line)

    if state.mode is not None:
        kind = state.mode[0]
        if kind == "comment":
            close = state.mode[1]
            end = _find_close(line, 0, close, escaped=False)
            if end == -1:
                segments.append(_Segment(_COMMENT, 0, line, text=line))
                return segments
            segments.append(_Segment(_COMMENT, 0, line[:end], text=line[: end - len(close)]))
            state.mode = None
            i = end
        else:
            close, as_comment = state.mode[1], state.mode[2]
            end = _find_close(line, 0, close, escaped=True)
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
    code_chars: list[str] = []

    def flush_code() -> None:
        nonlocal code_chars
        if code_chars:
            segments.append(_Segment(_CODE, code_start, "".join(code_chars)))
            code_chars = []

    def begin_string(delim: str, start: int) -> tuple[int, int]:
        """Pull a trailing string prefix (r/b/f/u) out of the code buffer."""
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
                segments.append(
                    _Segment(_COMMENT, i, line[i:], text=line[i + len(marker):])
                )
                return segments

        if not matched:
            for opener, close in profile.block_comment_delims:
                if line.startswith(opener, i):
                    flush_code()
                    end = _find_close(line, i + len(opener), close, escaped=False)
                    if end == -1:
                        segments.append(
                            _Segment(_COMMENT, i, line[i:], text=line[i + len(opener):])
                        )
                        state.mode = ("comment", close)
                        return segments
                    segments.append(
                        _Segment(
                            _COMMENT, i, line[i:end],
                            text=line[i + len(opener): end - len(close)],
                        )
                    )
                    i = end
                    code_start = i
                    matched = True
                    break

        if not matched:
            for delim in profile.docstring_delims:
                if line.startswith(delim, i):
                    # statement position (nothing but whitespace, or a string
                    # prefix like r/b/f, before it on the line) makes a
                    # triple-quoted string a docstring, counted as a comment
                    before = "".join(code_chars)
                    mt = STRING_PREFIX_RE.search(before)
                    rest = before[: len(before) - len(mt.group(1))] if mt else before
                    as_comment = not rest.strip() and not any(s.kind == _CODE for s in segments)
                    raw_start, scan_from = begin_string(delim, i)
                    flush_code()
                    end = _find_close(line, scan_from, delim, escaped=True)
                    seg_kind = _COMMENT if as_comment else _STRING
                    if end == -1:
                        segments.append(
                            _Segment(seg_kind, raw_start, line[raw_start:], text=line[scan_from:])
                        )
                        state.mode = ("string", delim, as_comment)
                        return segments
                    segments.append(
                        _Segment(
                            seg_kind, raw_start, line[raw_start:end],
                            text=line[scan_from: end - len(delim)],
                        )
                    )
                    i = end
                    code_start = i
                    matched = True
                    break

        if not matched:
            for delim in profile.string_delims:
                if line.startswith(delim, i):
                    raw_start, scan_from = begin_string(delim, i)
                    flush_code()
                    end = _find_close(line, scan_from, delim, escaped=True)
                    if end == -1:
                        # unterminated single-line literal: best effort to EOL
                        segments.append(
                            _Segment(_STRING, raw_start, line[raw_start:], text=line[scan_from:])
                        )
                        return segments
                    segments.append(
                        _Segment(
                            _STRING, raw_start, line[raw_start:end],
                            text=line[scan_from: end - len(delim)],
                        )
                    )
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


# --------------------------------------------------------------------------
# Tokenization
# --------------------------------------------------------------------------

def _tokenize_code(text: str, base_col: int, profile: LanguageProfile,
                   symbols: tuple[str, ...]) -> list[Token]:
    tokens: list[Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t":
            i += 1
            continue
        if ch.isalpha() or ch == "_":
            mt = IDENT_RE.match(text, i)
            if mt:  # identifiers are ASCII; other alphabetics fall through
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
            # unknown printable symbol: still an operator occurrence
            tokens.append(Token(TokenKind.OP, ch, base_col + i))
            i += 1
    return tokens


def _indent_width(line: str, tab_width: int) -> int:
    width = 0
    for ch in line:
        if ch == " ":
            width += 1
        elif ch == "\t":
            width += tab_width
        else:
            break
    return width


def tokenize(s: Snippet, p: LanguageProfile | None = None, tab_width: int = 4) -> LexicalProfile:
    """Extract the full lexical profile of a preprocessed snippet."""
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

        segments = _scan_line(line, p, state)
        is_blank = line.strip() == ""

        line_toks: list[Token] = []
        has_comment = False
        has_string = False
        for seg in segments:
            if seg.kind == _COMMENT:
                has_comment = True
                prof.comment_chars += len(seg.raw)
                prof.comments.append(
                    CommentSegment(line=lineno, col=seg.col, raw=seg.raw, text=seg.text)
                )
            elif seg.kind == _STRING:
                has_string = True
                prof.string_chars += len(seg.raw)
                line_toks.append(Token(TokenKind.STRING, seg.raw, seg.col))
                if seg.opens:
                    prof.operands.append(seg.raw)
            else:
                line_toks.extend(_tokenize_code(seg.raw, seg.col, p, symbols))
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
        prof.line_identifier_terms.append(normalize_terms(idents))

        word_toks = {t.text for t in code_toks if t.kind in (TokenKind.IDENT, TokenKind.KEYWORD)}
        stats = LineStats(
            length=len(line),
            indent=_indent_width(line, tab_width),
            spaces=line.count(" "),
            identifiers=len(idents),
            keywords=sum(1 for t in code_toks if t.kind is TokenKind.KEYWORD),
            numbers=sum(1 for t in code_toks if t.kind is TokenKind.NUMBER),
            parens=sum(1 for t in code_toks if t.text in ("(", ")")),
            brackets=sum(1 for t in code_toks if t.text in ("[", "]", "{", "}")),
            periods=sum(1 for t in code_toks if t.kind is TokenKind.OP and t.text == "."),
            commas=sum(1 for t in code_toks if t.text == ","),
            assignments=sum(1 for t in code_toks if t.kind is TokenKind.OP and t.text in assign_set),
            branches=sum(1 for t in code_toks if t.text in p.branch_keywords and t.kind in (TokenKind.KEYWORD, TokenKind.IDENT)),
            loops=sum(1 for t in code_toks if t.text in p.loop_keywords and t.kind in (TokenKind.KEYWORD, TokenKind.IDENT)),
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
    prof.terms_comment = frozenset(normalize_terms(comment_words))
    prof.terms_identifier = frozenset(normalize_terms(prof.identifiers))
    return prof


def extract_blocks(s: Snippet, p: LanguageProfile | None = None,
                   profile: LexicalProfile | None = None) -> list[TextBlock]:
    """Blank-line-delimited groups of non-blank lines with their token sets."""
    if profile is None:
        profile = tokenize(s, p)
    blocks: list[TextBlock] = []
    start = None
    for idx, stats in enumerate(profile.per_line):
        if stats.is_blank:
            if start is not None:
                blocks.append(_make_block(profile, start, idx - 1))
                start = None
        elif start is None:
            start = idx
    if start is not None:
        blocks.append(_make_block(profile, start, profile.m - 1))
    return blocks


def _make_block(profile: LexicalProfile, start: int, end: int) -> TextBlock:
    toks: set[str] = set()
    for i in range(start, end + 1):
        toks.update(profile.line_tokens[i])
    return TextBlock(start_line=start, end_line=end, tokens=frozenset(toks))
