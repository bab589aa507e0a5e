"""Language-aware lexical extraction.

One pass over a snippet yields everything the four feature families
consume: token multisets, identifier terms, comment texts, per-line
category counts, Halstead operator/operand tallies, character vocabularies,
and the column positions of assignment operators and opening brackets.

Scanning is regex based, never a full parse, so incomplete or
syntactically broken snippets still produce a best-effort profile.

Each language profile gets one scanner, compiled the first time the
profile is used and kept in a ``corpus.BoundedMemo`` of 32 profiles, keyed
by profile value (so an INI profile named ``generic`` does not share the
built-in one). It holds two alternations:

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
  operator, each after a run of blanks. ``findall`` over the code
  between markers returns each token with its blanks, and the running
  sum of their lengths gives each token's column.

Only a block comment or triple-quoted string left open at the end of a
line crosses lines. ``_Scanner.scan`` then returns with the line's
segments its mode: its closing delimiter, whether backslashes escape it
and whether it counts as a comment; the next line's scan starts there.

``extract_blocks`` reads the blocks off a profile: the token set of each
run of non-blank lines between blank ones, as a frozenset.

The scanner also keeps a token table: code-token text -> everything the
profile needs of that token, built the first time the text is seen (a
token's text fixes its kind), in a ``BoundedMemo`` of 8,192 tokens. An
entry's per-line counts are packed into one int, so a line's 12 category
counts are one builtin ``sum`` over its tokens' entries, and the
snippet's identifiers, operators, operands and bracket and assignment
columns are selected from its tokens with ``itertools.compress`` over the
entries' flags. No token is visited by a Python-level loop. An
identifier's terms come from one more memo of 8,192 identifiers, shared
by every profile.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate, chain, compress, groupby, repeat
from operator import itemgetter, not_, sub
from struct import Struct
from typing import NamedTuple

from .corpus import BoundedMemo, Snippet
from .profiles import LanguageProfile

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
NUMBER_RE = re.compile(
    r"0[xX][0-9a-fA-F_]+|0[bB][01_]+|0[oO][0-7_]+"
    r"|\d[\d_]*(?:\.(?:\d[\d_]*)?)?(?:[eE][+-]?\d+)?"
    r"|\.\d[\d_]*(?:[eE][+-]?\d+)?"
)
STRING_PREFIX_RE = re.compile(r"(?:^|(?<=[^A-Za-z0-9_]))([rRbBuUfF]{1,2})$")
_WORD_SPLIT_RE = re.compile(r"[A-Za-z]+|\d+")
COMMENT_WORD_RE = re.compile(r"[A-Za-z]+(?:'[A-Za-z]+)*")
_CAMEL_RE = re.compile(
    r"[A-Z]+(?![a-z])|[A-Z][a-z]+|[a-z]+|\d+"
)


class LineStats(NamedTuple):
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
    comments: list[str] = field(default_factory=list)  # texts, markers stripped
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


# ``split_identifier`` as a tuple; memoized, since the same identifiers
# recur on most lines of a snippet and across snippets
identifier_terms = BoundedMemo(lambda ident: tuple(split_identifier(ident))).__getitem__


def _word_terms(token: str) -> tuple[str, ...]:
    """The non-digit terms of one identifier or word; the memoized tuple
    itself when it has none, so the token table holds no copy."""
    terms = identifier_terms(token)
    if any(map(str.isdigit, terms)):
        return tuple(t for t in terms if not t.isdigit())
    return terms


# --------------------------------------------------------------------------
# The compiled scanner of one profile
# --------------------------------------------------------------------------

# marker groups, in alternation order
_LINE_COMMENT, _BLOCK_COMMENT, _DOCSTRING, _QUOTE = range(4)
# segment kinds: (_CODE, start, end), (_COMMENT, raw, text),
# (_STRING, raw, opens); opens is False on continuation fragments
_CODE, _COMMENT, _STRING = range(3)

_OPEN_BRACKETS = frozenset("([{")

# A token-table entry. Its first field packs the token's 12 per-line counts,
# in LineStats order from ``identifiers`` to ``cmp_ops``, into 64-bit fields
# of one int, so one builtin ``sum`` adds a line's counts; a line holds
# fewer than 2**64 tokens, so no field carries into the next. The other
# fields: is it an operand (else an operator), an identifier; its identifier
# terms and keyword characters; does its column join ``assign_columns`` or
# ``bracket_columns``.
_COUNTS = Struct("<12Q")
_PACKED, _OPERAND, _IDENTIFIER, _TERMS, _KEYWORD_CHARS, _ASSIGN, _OPEN = map(itemgetter, range(7))


def _escaped_close_re(delim: str) -> re.Pattern:
    """Matches from a literal's body to just past its first delimiter that is
    not escaped: a backslash always takes the next character with it."""
    if delim.startswith("\\"):
        return re.compile(r"(?!)")  # every backslash is an escape: never closes
    return re.compile(r"(?:[^\\]|\\.)*?" + re.escape(delim), re.DOTALL)


def _literal(as_comment: bool, raw: str, text: str, opens: bool) -> tuple:
    return (_COMMENT, raw, text) if as_comment else (_STRING, raw, opens)


def _pack(counts: tuple) -> int:
    """The packed counts of one token-table entry."""
    return int.from_bytes(_COUNTS.pack(*counts), "little")


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
        # each match is one code token with the blanks before it
        self.code_re = re.compile(
            rf"[ \t]*(?:{IDENT_RE.pattern}|{NUMBER_RE.pattern}|{symbols}[^ \t])"
        )
        self.keywords = p.keyword_set
        self.builtins = p.builtin_names
        self.branch = p.branch_keywords
        self.loop = p.loop_keywords
        self.assign = frozenset(p.assignment_ops)
        self.arith = frozenset(p.arithmetic_ops)
        self.cmp = frozenset(p.comparison_ops)
        self.table = BoundedMemo(self._entry)

    def _entry(self, tok: str) -> tuple:
        """The token-table entry of one code token.

        The alternation picks its branch from the token's own first
        characters, so the text alone gives the kind.
        """
        if IDENT_RE.match(tok):
            keyword = tok in self.keywords
            counts = (not keyword, keyword, 0, 0, 0, 0, 0, 0,
                      tok in self.branch, tok in self.loop, 0, 0)
            if keyword:
                return _pack(counts), False, False, (), len(tok), False, False
            return _pack(counts), True, True, _word_terms(tok), 0, False, False
        if NUMBER_RE.match(tok):
            return _pack((0, 0, 1) + (0,) * 9), True, False, (), 0, False, False
        assign = tok in self.assign
        counts = (0, 0, 0, tok == "(" or tok == ")", tok in ("[", "]", "{", "}"),
                  tok == ".", tok == ",", assign, 0, 0, tok in self.arith, tok in self.cmp)
        return _pack(counts), False, False, (), 0, assign, tok in _OPEN_BRACKETS

    def scan(self, line: str, mode: tuple | None) -> tuple[list[tuple], tuple | None]:
        """Split one line, begun in ``mode``, into code, comment and string
        segments, in order; with them the mode the line ends in, or None."""
        segments: list[tuple] = []
        i = 0
        if mode is not None:
            close, escaped, as_comment = mode
            end = self._close(line, 0, close, escaped)
            if end == -1:
                segments.append(_literal(as_comment, line, line, False))
                return segments, mode
            segments.append(_literal(as_comment, line[:end], line[:end - len(close)], False))
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
                    segments.append((_COMMENT, line[j:], line[body:]))
                    return segments, (close, False, True) if group == _BLOCK_COMMENT else None
                segments.append((_COMMENT, line[j:end], line[body:end - len(close)]))
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
                segments.append(_literal(as_comment, line[start:], line[body:], True))
                return segments, (close, True, as_comment) if group == _DOCSTRING else None
            segments.append(_literal(as_comment, line[start:end], line[body:end - len(close)], True))
            i = end

        if i < len(line):
            segments.append((_CODE, i, len(line)))
        return segments, None

    def _close(self, line: str, start: int, close: str, escaped: bool) -> int:
        """Index just past the closing delimiter, or -1."""
        if escaped:
            m = self.escaped_close[close].match(line, start)
            return m.end() if m else -1
        k = line.find(close, start)
        return -1 if k == -1 else k + len(close)


# the scanner of a profile, keyed by its value, built on first use
_scanner = BoundedMemo(_Scanner, 32).__getitem__


# --------------------------------------------------------------------------
# Tokenization
# --------------------------------------------------------------------------

def _indent_width(line: str, tab_width: int) -> int:
    lead = len(line) - len(line.lstrip(" \t"))
    return lead + line.count("\t", 0, lead) * (tab_width - 1)


def tokenize(s: Snippet, p: LanguageProfile, tab_width: int = 4) -> LexicalProfile:
    """Extract the full lexical profile of a preprocessed snippet under ``p``."""
    sc = _scanner(p)
    code_tokens = sc.code_re.findall
    entry_of = sc.table.__getitem__

    prof = LexicalProfile(lines=s.lines)
    prof.m = len(s.lines)
    text = "".join(s.lines)
    prof.total_chars = len(text)
    prof.char_counts.update(text)
    operands = prof.operands
    code: list[str] = []      # every code token of the snippet
    entries: list[tuple] = []  # and its table entry
    columns: list[int] = []   # and its column
    mode = None  # the block comment or triple-quoted string left open

    for line in s.lines:
        tokens: list[str] = []     # every token of the line, literals too
        line_code: list[str] = []  # its code tokens
        has_comment = has_string = False
        segments, mode = sc.scan(line, mode)
        for seg in segments:
            kind = seg[0]
            if kind == _CODE:
                raws = code_tokens(line, seg[1], seg[2])  # blanks + token
                toks = list(map(str.lstrip, raws, repeat(" \t")))
                ends = accumulate(map(len, raws), initial=seg[1])
                next(ends)
                columns += map(sub, ends, map(len, toks))
                line_code += toks
                tokens += toks
            elif kind == _COMMENT:
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
                    operands.append(raw)

        line_entries = list(map(entry_of, line_code))
        counts = _COUNTS.unpack(sum(map(_PACKED, line_entries)).to_bytes(_COUNTS.size, "little"))
        operands.extend(compress(line_code, map(_OPERAND, line_entries)))  # after the literals
        prof.line_tokens.append(tokens)
        prof.line_identifier_terms.append(list(chain.from_iterable(map(_TERMS, line_entries))))
        is_blank = not line.strip()
        prof.per_line.append(LineStats(
            len(line), _indent_width(line, tab_width), line.count(" "), *counts,
            is_blank, has_comment, (not is_blank) and has_comment and not line_code and not has_string,
        ))
        if not is_blank:
            prof.m_ne += 1
        code += line_code
        entries += line_entries

    prof.identifiers = list(compress(code, map(_IDENTIFIER, entries)))
    prof.identifiers_user = [t for t in prof.identifiers if t not in sc.builtins]
    prof.operators = list(compress(code, map(not_, map(_OPERAND, entries))))
    prof.keyword_chars = sum(map(_KEYWORD_CHARS, entries))
    prof.assign_columns = list(compress(columns, map(_ASSIGN, entries)))
    prof.bracket_columns = list(compress(columns, map(_OPEN, entries)))
    comment_words = _WORD_SPLIT_RE.findall(" ".join(prof.comments))
    prof.terms_comment = frozenset(chain.from_iterable(map(_word_terms, comment_words)))
    prof.terms_identifier = frozenset(chain.from_iterable(prof.line_identifier_terms))
    return prof


def extract_blocks(profile: LexicalProfile) -> list[frozenset[str]]:
    """The token set of each blank-line-delimited group of non-blank lines."""
    runs = groupby(zip(profile.per_line, profile.line_tokens), key=lambda line: line[0].is_blank)
    return [frozenset(chain.from_iterable(tokens for _, tokens in run))
            for blank, run in runs if not blank]
