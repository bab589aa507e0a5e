import json
import os
import string
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codereadability import dictionary
from codereadability.corpus import BoundedMemo, read_utf8
from codereadability.dictionary import (
    DictionaryError,
    _load_fallback_words,
    _WordNetDatabase,
    count_syllables,
    load_dictionary,
)
from conftest import WORDNET_MINI

FIXTURE_TERMS = ["dog", "cat", "big", "large", "entity", "person", "chase", "qqzx"]

ROOT = Path(__file__).resolve().parent.parent
WORDLIST_TEXT = read_utf8(Path(dictionary.__file__).parent / "data" / "wordlist.txt", ValueError)
# the word set the bundled lookup replaced, kept as its oracle
WORDLIST_SET = frozenset(WORDLIST_TEXT.split())
WORDLIST_SORTED = sorted(WORDLIST_SET)


class TestWordNetBackend:
    def test_dog_crosses_parts_of_speech(self, wordnet_dict):
        e = wordnet_dict.lookup("dog")
        assert e.in_dictionary
        assert e.senses == 3  # two noun synsets plus one verb synset
        assert e.max_depth == 4  # dog -> canine -> animal -> entity
        assert e.synonyms == {"frump", "chase", "tail"}

    def test_multiword_lemmas_excluded_from_synonyms(self, wordnet_dict):
        assert "domestic_dog" not in wordnet_dict.lookup("dog").synonyms

    def test_cat_depth(self, wordnet_dict):
        e = wordnet_dict.lookup("cat")
        assert (e.senses, e.max_depth) == (1, 4)
        assert e.synonyms == {"kitty"}

    def test_root_synset_depth_one(self, wordnet_dict):
        assert wordnet_dict.lookup("entity").max_depth == 1

    def test_adjective_has_no_hypernym_depth(self, wordnet_dict):
        e = wordnet_dict.lookup("big")
        assert e.in_dictionary and e.max_depth == 0
        assert e.synonyms == {"large"}

    def test_absent_term_all_zero(self, wordnet_dict):
        e = wordnet_dict.lookup("qqzx")
        assert not e.in_dictionary
        assert (e.senses, e.max_depth, e.synonyms) == (0, 0, frozenset())

    def test_empty_term(self, wordnet_dict):
        assert not wordnet_dict.lookup("").in_dictionary

    def test_a_dictionary_error_is_a_data_error(self):
        assert issubclass(DictionaryError, ValueError)

    def test_missing_directory_fails_at_init(self, tmp_path):
        with pytest.raises(DictionaryError):
            load_dictionary(tmp_path / "nowhere")

    def test_directory_without_index_files(self, tmp_path):
        with pytest.raises(DictionaryError, match="no index"):
            load_dictionary(tmp_path)

    def test_undecodable_file_names_the_file_and_line(self, tmp_path):
        (tmp_path / "index.noun").write_bytes(b"  1 license header\nanimal n 1 1 @ 1 0 00000002\n\xff\n")
        with pytest.raises(DictionaryError, match=r"cannot read .*index\.noun: 'utf-8' codec can't "
                                                  r"decode byte 0xff .*\(line 3\)$"):
            load_dictionary(tmp_path)

    def test_a_bom_is_dropped(self, tmp_path, wordnet_dict):
        for source in WORDNET_MINI.iterdir():
            (tmp_path / source.name).write_bytes(b"\xef\xbb\xbf" + source.read_bytes())
        with_bom = load_dictionary(tmp_path)
        assert [with_bom.lookup(t) for t in FIXTURE_TERMS] == [wordnet_dict.lookup(t) for t in FIXTURE_TERMS]

    def test_lookup_is_pure(self, wordnet_dict):
        assert wordnet_dict.lookup("dog") == wordnet_dict.lookup("dog")

    def test_lookups_stay_bounded(self):
        """More distinct terms than the memo holds, the fixture's own among
        many absent ones: the memo never passes its size, and every term
        looks up to the entry it had before."""
        provider = load_dictionary(WORDNET_MINI)
        memo = provider.lookup.__self__
        assert isinstance(memo, BoundedMemo)
        terms = [*FIXTURE_TERMS, *(f"absent{i}" for i in range(memo.size + 100))]
        first = []
        for term in terms * 2:
            first.append(provider.lookup(term))
            assert len(memo) <= memo.size
        assert first[:len(terms)] == first[len(terms):]
        assert [e.in_dictionary for e in first[:len(FIXTURE_TERMS)]] == [True] * 7 + [False]


def _recursive_depth(hypernyms, memo, key) -> int:
    """The recursive hypernym depth the explicit stack replaced, kept as its oracle."""
    if key in memo:
        return memo[key]
    memo[key] = 1
    best = 1
    for parent in hypernyms.get(key, ()):
        best = max(best, 1 + _recursive_depth(hypernyms, memo, parent))
    memo[key] = best
    return best


_SYNSETS = st.tuples(st.sampled_from("nv"), st.integers(0, 7))


class TestHypernymDepth:
    # self-loops, cycles and repeated parents included; the memo carries from
    # one query to the next, so the queries run in the same order on both
    @settings(max_examples=300, deadline=None)
    @given(st.dictionaries(_SYNSETS, st.lists(_SYNSETS, max_size=4)), st.lists(_SYNSETS, max_size=10))
    def test_the_stack_matches_the_recursion(self, hypernyms, queries):
        database = _WordNetDatabase.__new__(_WordNetDatabase)
        database.hypernyms, database._depth_memo = hypernyms, {}
        memo: dict = {}
        assert [database.depth(key) for key in queries] == [
            _recursive_depth(hypernyms, memo, key) for key in queries]
        assert database._depth_memo == memo


class TestSynonymExpansion:
    def test_empty_set(self, wordnet_dict):
        assert wordnet_dict.expand_synonyms(set()) == frozenset()

    def test_unknown_term_passes_through(self, wordnet_dict):
        assert wordnet_dict.expand_synonyms({"zzgw"}) == frozenset({"zzgw"})

    def test_big_expands_to_large(self, wordnet_dict):
        assert "large" in wordnet_dict.expand_synonyms({"big"})

    def test_output_superset_of_input(self, wordnet_dict):
        terms = {"dog", "cat", "qqzx"}
        assert terms <= wordnet_dict.expand_synonyms(terms)

    @given(st.sets(st.sampled_from(FIXTURE_TERMS)), st.sets(st.sampled_from(FIXTURE_TERMS)))
    def test_monotone(self, wordnet_dict, a, b):
        smaller, larger = a & b, a | b
        assert wordnet_dict.expand_synonyms(smaller) <= wordnet_dict.expand_synonyms(larger)


class TestBundledFallback:
    def test_common_words_present(self, bundled_dict):
        for word in ("value", "dog", "compute", "readable"):
            e = bundled_dict.lookup(word)
            assert e.in_dictionary, word
            assert (e.senses, e.max_depth, e.synonyms) == (1, 1, frozenset())

    def test_gibberish_absent(self, bundled_dict):
        assert not bundled_dict.is_english("xyzzyqq")

    def test_is_english(self, bundled_dict):
        assert bundled_dict.is_english("value")
        assert not bundled_dict.is_english("")

    def test_expansion_is_identity(self, bundled_dict):
        terms = frozenset({"big", "value"})
        assert bundled_dict.expand_synonyms(terms) == terms

    def test_providers_share_one_word_set(self, monkeypatch):
        """The bundled list is read once per process, however many
        providers are made from it."""
        reads = []

        def counted(*args):
            reads.append(args[0])
            return read_utf8(*args)

        monkeypatch.setattr(dictionary, "read_utf8", counted)
        _load_fallback_words.__self__.clear()  # as in a fresh process
        providers = [load_dictionary() for _ in range(3)]
        assert [p.is_english("value") for p in providers] == [True] * 3
        assert len(reads) == 1


_LOAD_MEMORY = """
import json, tracemalloc
from codereadability.dictionary import load_dictionary
tracemalloc.start()
provider = load_dictionary()
current, peak = tracemalloc.get_traced_memory()
print(json.dumps({"current": current, "peak": peak, "value": provider.is_english("value")}))
"""


def test_the_bundled_list_loads_in_under_half_a_megabyte():
    """In a fresh process, loading the bundled list peaks at 0.5 MB traced
    and keeps 0.4 MB: its text cut into runs, with no string per word (a
    frozenset of the 11,541 words peaked at 1.43 MB and kept 1.20 MB)."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", _LOAD_MEMORY], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    traced = json.loads(proc.stdout)
    assert traced["value"] is True
    assert traced["peak"] <= 500_000, traced
    assert traced["current"] <= 400_000, traced


def _agrees_with_the_word_set(provider, terms) -> None:
    for term in terms:
        assert provider.lookup(term).in_dictionary is (term in WORDLIST_SET), repr(term)


_JOINED_WORDS = st.builds(
    str.join,
    st.sampled_from(["", "\n", " ", "\n\n", "\t"]),
    st.lists(st.one_of(st.sampled_from(WORDLIST_SORTED),
                       st.text(alphabet=string.ascii_letters + "\n ", max_size=6)), max_size=3))


class TestBundledRuns:
    """The bundled lookup answers ``term in frozenset(text.split())`` for
    every string, on the file format that the runs rely on."""

    def test_the_shipped_list_is_sorted_unique_lowercase_lines(self):
        assert WORDLIST_TEXT.endswith("\n")
        lines = WORDLIST_TEXT[:-1].split("\n")
        assert lines == WORDLIST_SORTED
        assert all(line.isascii() and line.isalpha() and line.islower() for line in lines)

    def test_every_word_and_its_one_edit_neighbours(self, bundled_dict):
        for word in WORDLIST_SORTED:
            _agrees_with_the_word_set(bundled_dict, [
                word, word[:-1], word[0].upper() + word[1:],
                *(word + letter for letter in string.ascii_lowercase)])

    def test_newlines_and_blanks_are_no_word(self, bundled_dict):
        first, second = WORDLIST_SORTED[:2]
        _agrees_with_the_word_set(bundled_dict, [
            "", "\n", "a\nb", "\n\n", f"{first}\n{second}", f"\n{first}", f"{first}\n",
            *(edge for word in ("value", first, WORDLIST_SORTED[-1])
              for blank in " \t" for edge in (blank + word, word + blank, blank + word + blank))])

    @settings(max_examples=500, deadline=None)
    @given(_JOINED_WORDS)
    def test_joined_words_and_letters(self, bundled_dict, term):
        _agrees_with_the_word_set(bundled_dict, [term, term.strip(), term.lower()])

    @settings(max_examples=300, deadline=None)
    @given(st.text())
    def test_any_unicode_text(self, bundled_dict, term):
        _agrees_with_the_word_set(bundled_dict, [term])


class TestSyllables:
    @pytest.mark.parametrize("word,expected", [
        ("cat", 1),
        ("readable", 3),   # consonant+'le' keeps its final vowel group
        ("a", 1),
        ("the", 1),
        ("large", 1),
        ("value", 2),
        ("really", 2),
        ("basic", 2),
        ("code", 1),
        ("sentence", 2),
    ])
    def test_examples(self, word, expected):
        assert count_syllables(word) == expected

    @given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=15))
    def test_at_least_one(self, word):
        assert count_syllables(word) >= 1
