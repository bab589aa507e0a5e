"""Lexical-semantic provider: dictionary membership, senses, hypernym
depth, synonyms, syllables.

Two interchangeable backends:

* WordNet 3.x database files (``index.*`` / ``data.*`` in a directory,
  configured via ``dictionary.path``) for real sense counts, hypernym
  depths, and synonym sets;
* a bundled ~11k common-English wordlist, used when no database is
  configured, where every known word has one sense, depth one, and an
  empty synonym set.

Terms absent from the backend get ``in_dictionary=False`` with all
sense/depth quantities zero and no synonyms. A provider is one
``lookup`` from a term to its entry: a ``corpus.BoundedMemo`` of 8,192
terms over the WordNet database, or a substring search of the bundled
list's text. That text is held as one newline-framed run per first three
letters, so no object is kept per word.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

from .corpus import BoundedMemo, read_utf8


class DictionaryError(ValueError):
    """Backing database missing or unreadable at provider initialization."""


@dataclass(frozen=True)
class LexEntry:
    in_dictionary: bool
    senses: int
    max_depth: int
    synonyms: frozenset[str]


# shared by every absent term, and by every term of the bundled list
_ABSENT = LexEntry(False, 0, 0, frozenset())
_LISTED = LexEntry(True, 1, 1, frozenset())

_POS_FILES = {"noun": "n", "verb": "v", "adj": "a", "adv": "r"}
_HYPERNYM_SYMBOLS = {"@", "@i"}


class _WordNetDatabase:
    """Parser for the WordNet 3.x flat-file format."""

    def __init__(self, directory: str | Path):
        directory = Path(directory)
        if not directory.is_dir():
            raise DictionaryError(f"WordNet directory not found: {directory}")
        # lemma -> list of (pos, offset)
        self.lemma_synsets: dict[str, list[tuple[str, int]]] = {}
        # (pos, offset) -> member words
        self.synset_words: dict[tuple[str, int], list[str]] = {}
        # (pos, offset) -> hypernym synsets
        self.hypernyms: dict[tuple[str, int], list[tuple[str, int]]] = {}
        self._depth_memo: dict[tuple[str, int], int] = {}

        loaded = 0
        for suffix, pos in _POS_FILES.items():
            index_file = directory / f"index.{suffix}"
            data_file = directory / f"data.{suffix}"
            if index_file.exists():
                _parse_records(index_file, self._index_record, pos)
                loaded += 1
            if data_file.exists():
                _parse_records(data_file, self._data_record, pos)
        if not loaded:
            raise DictionaryError(f"no index.* files under {directory}")

    def _index_record(self, line: str, pos: str) -> None:
        fields = line.split()
        lemma = fields[0]
        synset_cnt = int(fields[2])
        offsets = [int(off) for off in fields[-synset_cnt:]]
        self.lemma_synsets.setdefault(lemma, []).extend((pos, off) for off in offsets)

    def _data_record(self, line: str, pos: str) -> None:
        body = line.split("|", 1)[0]
        fields = body.split()
        offset = int(fields[0])
        w_cnt = int(fields[3], 16)
        words = [fields[4 + 2 * i] for i in range(w_cnt)]
        key = (pos, offset)
        self.synset_words[key] = words
        p_idx = 4 + 2 * w_cnt
        p_cnt = int(fields[p_idx])
        hypers = []
        for i in range(p_cnt):
            symbol = fields[p_idx + 1 + 4 * i]
            target_off = int(fields[p_idx + 2 + 4 * i])
            target_pos = fields[p_idx + 3 + 4 * i]
            if symbol in _HYPERNYM_SYMBOLS:
                hypers.append((target_pos, target_off))
        if hypers:
            self.hypernyms[key] = hypers

    def depth(self, key: tuple[str, int]) -> int:
        """Longest hypernym path measured in synsets; a root counts 1. The
        walk keeps its own stack, so a chain of any length fits."""
        memo = self._depth_memo
        if key not in memo:
            memo[key] = 1  # cycle guard; real WordNet is acyclic
            stack = [[key, 0, 1]]  # a synset, its next hypernym, its longest path so far
            while stack:
                frame = stack[-1]
                parents = self.hypernyms.get(frame[0], ())
                if frame[1] == len(parents):
                    memo[frame[0]] = frame[2]
                    stack.pop()
                elif (parent := parents[frame[1]]) in memo:  # done, or on the stack
                    frame[1] += 1
                    frame[2] = max(frame[2], 1 + memo[parent])
                else:  # walked first; this frame then reads it from the memo
                    memo[parent] = 1
                    stack.append([parent, 0, 1])
        return memo[key]

    def entry(self, term: str) -> LexEntry:
        synsets = self.lemma_synsets.get(term)
        if not synsets:
            return _ABSENT
        max_depth = 0
        synonyms: set[str] = set()
        for pos, off in synsets:
            if pos in ("n", "v"):
                max_depth = max(max_depth, self.depth((pos, off)))
            for word in self.synset_words.get((pos, off), ()):
                word = word.lower()
                if word != term and "_" not in word:
                    synonyms.add(word)
        return LexEntry(True, len(synsets), max_depth, frozenset(synonyms))


def _parse_records(path: Path, parse, pos: str) -> None:
    """``parse(line, pos)`` on each record line of a WordNet file; the
    license header lines start with a space. A file ``corpus.read_utf8``
    cannot read, or a record it cannot parse, raises ``DictionaryError``."""
    for lineno, line in enumerate(read_utf8(path, DictionaryError).splitlines(), 1):
        if not line or line.startswith(" "):
            continue
        try:
            parse(line, pos)
        except (IndexError, ValueError) as exc:
            raise DictionaryError(f"{path}, line {lineno}: malformed WordNet record: {exc}") from None


# One run of the bundled list: its words that share their first three
# letters (a shorter word alone), each line framed by newlines. The list is
# sorted and unique with one lowercase word per line and a final newline
# (tests/test_dictionary.py pins that), so a run is one stretch of its text.
_RUN_RE = re.compile(r"\n(?:([^\n]{3})[^\n]*(?:\n\1[^\n]*)*|([^\n]{1,2})(?=\n))")


def _word_runs(path: Path) -> dict[str, str]:
    """First three letters of a word (or the whole of a shorter one) -> the
    run ``"\nword\n...\nword\n"`` of the list's words that start so."""
    text = "\n" + read_utf8(path, DictionaryError)
    return {m[1] or m[2]: text[m.start():m.end() + 1] for m in _RUN_RE.finditer(text)}


# the bundled list never changes: read it once per process, by its path
_load_fallback_words = BoundedMemo(_word_runs, 1).__getitem__


class DictionaryProvider:
    """Read-only lexical lookups through the instance attribute ``lookup``,
    a term's :class:`LexEntry`; safe to share across threads after init."""

    def __init__(self, lookup: Callable[[str], LexEntry]):
        self.lookup = lookup

    def is_english(self, term: str) -> bool:
        return self.lookup(term).in_dictionary

    def expand_synonyms(self, terms) -> frozenset[str]:
        """terms plus every synonym the backend links to them (one hop)."""
        expanded = set(terms)
        for term in terms:
            expanded.update(self.lookup(term).synonyms)
        return frozenset(expanded)


def load_dictionary(path: str | Path | None = None) -> DictionaryProvider:
    """The WordNet database under the directory ``path``, or the bundled
    list (read once per process) when no path is given. A term is listed
    iff it is a whole line of the list: it holds no newline, and framed by
    newlines it occurs in the run of its first three letters."""
    if path:
        return DictionaryProvider(BoundedMemo(_WordNetDatabase(path).entry).__getitem__)
    runs = _load_fallback_words(Path(__file__).parent / "data" / "wordlist.txt")
    return DictionaryProvider(
        lambda term: _LISTED if "\n" not in term and f"\n{term}\n" in runs.get(term[:3], "") else _ABSENT)


_VOWEL_GROUP_RE = re.compile(r"[aeiouy]+")


def count_syllables(word: str) -> int:
    """Vowel-group heuristic, minimum one.

    A trailing lone 'e' is silent and dropped, except when it is the only
    vowel group or the word ends in consonant+'le' (ta-ble, read-a-ble).
    """
    w = word.lower()
    groups = _VOWEL_GROUP_RE.findall(w)
    count = len(groups)
    if count > 1 and w.endswith("e") and groups[-1] == "e":
        consonant_le = (
            len(w) >= 3 and w.endswith("le") and w[-3] not in "aeiouy"
        )
        if not consonant_le:
            count -= 1
    return max(1, count)
