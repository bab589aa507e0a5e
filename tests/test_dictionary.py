import pytest
from hypothesis import given
from hypothesis import strategies as st

from codereadability.dictionary import (
    DictionaryError,
    DictionaryProvider,
    count_syllables,
    load_dictionary,
)
from conftest import WORDNET_MINI

FIXTURE_TERMS = ["dog", "cat", "big", "large", "entity", "person", "chase", "qqzx"]


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

    def test_missing_directory_fails_at_init(self, tmp_path):
        with pytest.raises(DictionaryError):
            DictionaryProvider.from_wordnet(tmp_path / "nowhere")

    def test_directory_without_index_files(self, tmp_path):
        with pytest.raises(DictionaryError, match="no index"):
            DictionaryProvider.from_wordnet(tmp_path)

    def test_undecodable_file_names_the_file_and_line(self, tmp_path):
        (tmp_path / "index.noun").write_bytes(b"  1 license header\nanimal n 1 1 @ 1 0 00000002\n\xff\n")
        with pytest.raises(DictionaryError, match=r"cannot read .*index\.noun: 'utf-8' codec can't "
                                                  r"decode byte 0xff .*\(line 3\)$"):
            DictionaryProvider.from_wordnet(tmp_path)

    def test_a_bom_is_dropped(self, tmp_path, wordnet_dict):
        for source in WORDNET_MINI.iterdir():
            (tmp_path / source.name).write_bytes(b"\xef\xbb\xbf" + source.read_bytes())
        with_bom = DictionaryProvider.from_wordnet(tmp_path)
        assert [with_bom.lookup(t) for t in FIXTURE_TERMS] == [wordnet_dict.lookup(t) for t in FIXTURE_TERMS]

    def test_lookup_is_pure(self, wordnet_dict):
        assert wordnet_dict.lookup("dog") == wordnet_dict.lookup("dog")


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

    def test_providers_share_one_word_set(self):
        assert load_dictionary()._fallback is DictionaryProvider.bundled()._fallback


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
