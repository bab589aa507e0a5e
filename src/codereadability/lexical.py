"""Language-aware lexical extraction.

One pass over a snippet yields everything the four feature families
consume: token multisets, identifier terms, comment segments, per-line
category counts, Halstead operator/operand tallies, character vocabularies,
and the column positions of assignment operators and opening brackets.

Scanning is regex based, never a full parse, so incomplete or
syntactically broken snippets still produce a best-effort profile.

Each language profile gets one scanner, compiled the first time the
profile is used and cached by profile value (so an INI profile named
``generic`` does not share the built-in one). It holds two alternations:

* Markers: the line-comment markers, block-comment openers, docstring
  delimiters and string delimiters, in that group order and in profile
  order within a group. ``search`` finds the next marker on a line; the
  text before it is code. A block comment ends at the next occurrence of
  its closer (``str.find``). A string or docstring ends at the next
  delimiter that is not backslash-escaped, matched by one compiled
  pattern per delimiter that steps over backslash pairs. A string
  prefix (``r``, ``b``, ``f``, ``u``) just before the opener belongs to
  the literal.
* Code tokens: ``IDENT_RE``, ``NUMBER_RE``, the profile's operator
  symbols longest first, then any other character as an unknown
  operator, each after a run of blanks. ``finditer`` over the code
  between markers yields the tokens.

Only a block comment or triple-quoted string left open at the end of a
line crosses lines. ``_ScanState.mode`` then holds its closing
delimiter, whether backslashes escape it and whether it counts as a
comment, and the next line starts by looking for that closer.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain

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


@lru_cache(maxsize=1 << 13)
def _word_terms(token: str) -> tuple[str, ...]:
    """The non-digit terms of one identifier or word; bounded memo, since
    the same identifiers recur on most lines of a snippet."""
    return tuple(t for t in split_identifier(token) if not t.isdigit())


def normalize_terms(tokens) -> list[str]:
    """Shared term pipeline for comment text, identifiers, and line groups:
    split, lowercase, drop pure-number terms."""
    out: list[str] = []
    for tok in tokens:
        out.extend(_word_terms(tok))
    return out


# --------------------------------------------------------------------------
# The compiled scanner of one profile
# --------------------------------------------------------------------------

# marker groups, in alternation order
_LINE_COMMENT, _BLOCK_COMMENT, _DOCSTRING, _QUOTE = range(4)
# segment kinds: (_CODE, start, end), (_COMMENT, col, raw, text),
# (_STRING, col, raw, opens); opens is False on continuation fragments
_CODE, _COMMENT, _STRING = range(3)
# code-token kinds
_IDENT, _KEYWORD, _NUMBER, _OP = range(4)

_OPEN_BRACKETS = frozenset("([{")


@dataclass
class _ScanState:
    # (close, escaped, as_comment) while a block comment or triple-quoted
    # string spans lines; None otherwise
    mode: tuple[str, bool, bool] | None = None


def _escaped_close_re(delim: str) -> re.Pattern:
    """Matches from a literal's body to just past its first delimiter that is
    not escaped: a backslash always takes the next character with it."""
    if delim.startswith("\\"):
        return re.compile(r"(?!)")  # every backslash is an escape: never closes
    return re.compile(r"(?:[^\\]|\\.)*?" + re.escape(delim), re.DOTALL)


def _literal(as_comment: bool, col: int, raw: str, text: str, opens: bool) -> tuple:
    return (_COMMENT, col, raw, text) if as_comment else (_STRING, col, raw, opens)


class _Scanner:
    """The compiled marker and code-token alternations of one profile."""

    def __init__(self, p: LanguageProfile):
        self.markers = (
            [(_LINE_COMMENT, m, "") for m in p.line_comment_markers]
            + [(_BLOCK_COMMENT, o, c) for o, c in p.block_comment_delims]
            + [(_DOCSTRING, d, d) for d in p.docstring_delims]
            + [(_QUOTE, d, d) for d in p.string_delims]
        )
        # one group per marker: lastindex names the marker that matched
        alternation = "|".join(f"({re.escape(m)})" for _, m, _ in self.markers)
        self.marker_re = re.compile(alternation) if self.markers else None
        self.escaped_close = {d: _escaped_close_re(d)
                              for d in p.docstring_delims + p.string_delims}
        symbols = "".join(re.escape(s) + "|" for s in p.all_operator_symbols())
        self.code_re = re.compile(
            rf"[ \t]*(?:({IDENT_RE.pattern})|({NUMBER_RE.pattern})|({symbols}[^ \t]))"
        )
        self.keywords = p.keyword_set
        self.builtins = p.builtin_names
        self.branch = p.branch_keywords
        self.loop = p.loop_keywords
        self.assign = frozenset(p.assignment_ops)
        self.arith = frozenset(p.arithmetic_ops)
        self.cmp = frozenset(p.comparison_ops)

    def scan(self, line: str, state: _ScanState) -> list[tuple]:
        """Split one line into code, comment and string segments, in order."""
        segments: list[tuple] = []
        i = 0
        if state.mode is not None:
            close, escaped, as_comment = state.mode
            end = self._close(line, 0, close, escaped)
            if end == -1:
                segments.append(_literal(as_comment, 0, line, line, False))
                return segments
            segments.append(_literal(as_comment, 0, line[:end], line[:end - len(close)], False))
            state.mode = None
            i = end

        had_code = False  # a docstring is a comment only with no code before it
        while self.marker_re is not None:
            m = self.marker_re.search(line, i)
            if m is None:
                break
            j = m.start()
            group, opener, close = self.markers[m.lastindex - 1]
            body = j + len(opener)
            if group == _LINE_COMMENT or group == _BLOCK_COMMENT:
                if j > i:
                    segments.append((_CODE, i, j))
                    had_code = True
                end = -1 if group == _LINE_COMMENT else self._close(line, body, close, False)
                if end == -1:
                    segments.append((_COMMENT, j, line[j:], line[body:]))
                    if group == _BLOCK_COMMENT:
                        state.mode = (close, False, True)
                    return segments
                segments.append((_COMMENT, j, line[j:end], line[body:end - len(close)]))
                i = end
                continue

            # a trailing r/b/f/u prefix of the code belongs to the literal; the
            # prefix and the character before it lie in the code's last three
            start = j
            prefix = STRING_PREFIX_RE.search(line[max(i, j - 3):j])
            if prefix:
                start -= len(prefix.group(1))
            as_comment = group == _DOCSTRING and not had_code and not line[i:start].strip()
            if start > i:
                segments.append((_CODE, i, start))
                had_code = True
            end = self._close(line, body, close, True)
            if end == -1:
                segments.append(_literal(as_comment, start, line[start:], line[body:], True))
                if group == _DOCSTRING:
                    state.mode = (close, True, as_comment)
                return segments
            segments.append(
                _literal(as_comment, start, line[start:end], line[body:end - len(close)], True)
            )
            i = end

        if i < len(line):
            segments.append((_CODE, i, len(line)))
        return segments

    def _close(self, line: str, start: int, close: str, escaped: bool) -> int:
        """Index just past the closing delimiter, or -1."""
        if escaped:
            m = self.escaped_close[close].match(line, start)
            return m.end() if m else -1
        k = line.find(close, start)
        return -1 if k == -1 else k + len(close)


@lru_cache(maxsize=32)
def _scanner(p: LanguageProfile) -> _Scanner:
    """The scanner of a profile, keyed by its value, built on first use."""
    return _Scanner(p)


# --------------------------------------------------------------------------
# Tokenization
# --------------------------------------------------------------------------

def _indent_width(line: str, tab_width: int) -> int:
    lead = line[: len(line) - len(line.lstrip(" \t"))]
    return len(lead) + lead.count("\t") * (tab_width - 1)


def _line_stats(line: str, tab_width: int, sc: _Scanner, code: list[tuple[int, str]],
                idents: int, has_comment: bool, has_string: bool) -> LineStats:
    """Per-line counts from one Counter over the line's (kind, text) code tokens."""
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
            if text in sc.assign:
                assignments += n
            if text in sc.arith:
                arith_ops += n
            if text in sc.cmp:
                cmp_ops += n
        elif kind == _NUMBER:
            numbers += n
        else:
            if kind == _KEYWORD:
                keywords += n
            if text in sc.branch:
                branches += n
            if text in sc.loop:
                loops += n
    is_blank = not line.strip()
    return LineStats(
        length=len(line),
        indent=_indent_width(line, tab_width),
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


def tokenize(s: Snippet, p: LanguageProfile | None = None, tab_width: int = 4) -> LexicalProfile:
    """Extract the full lexical profile of a preprocessed snippet."""
    if p is None:
        p = get_profile(s.language)
    sc = _scanner(p)
    code_tokens = sc.code_re.finditer

    prof = LexicalProfile(lines=s.lines)
    prof.m = len(s.lines)
    text = "".join(s.lines)
    prof.total_chars = len(text)
    prof.char_counts.update(text)
    operators, operands = prof.operators, prof.operands
    state = _ScanState()

    for lineno, line in enumerate(s.lines):
        tokens: list[str] = []               # every token of the line, literals too
        code: list[tuple[int, str]] = []     # (kind, text) of its code tokens
        idents: list[str] = []
        code_operands: list[str] = []        # follow the line's string operands
        has_comment = has_string = False
        for seg in sc.scan(line, state):
            kind = seg[0]
            if kind == _CODE:
                for m in code_tokens(line, seg[1], seg[2]):
                    group = m.lastindex
                    tok = m.group(group)
                    tokens.append(tok)
                    if group == 1:
                        if tok in sc.keywords:
                            code.append((_KEYWORD, tok))
                            operators.append(tok)
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
                        operators.append(tok)
                        if tok in sc.assign:
                            prof.assign_columns.append(m.start(3))
                        if tok in _OPEN_BRACKETS:
                            prof.bracket_columns.append(m.start(3))
            elif kind == _COMMENT:
                _, col, raw, body = seg
                has_comment = True
                prof.comment_chars += len(raw)
                prof.comments.append(CommentSegment(line=lineno, col=col, raw=raw, text=body))
            else:
                _, col, raw, opens = seg
                has_string = True
                prof.string_chars += len(raw)
                tokens.append(raw)
                if opens:
                    operands.append(raw)
        operands.extend(code_operands)

        prof.identifiers.extend(idents)
        prof.identifiers_user.extend(t for t in idents if t not in sc.builtins)
        prof.line_tokens.append(tokens)
        prof.line_identifier_terms.append(normalize_terms(idents))
        stats = _line_stats(line, tab_width, sc, code, len(idents), has_comment, has_string)
        prof.per_line.append(stats)
        if not stats.is_blank:
            prof.m_ne += 1

    comment_words = _WORD_SPLIT_RE.findall(" ".join(c.text for c in prof.comments))
    prof.terms_comment = frozenset(normalize_terms(comment_words))
    prof.terms_identifier = frozenset(chain.from_iterable(prof.line_identifier_terms))
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
