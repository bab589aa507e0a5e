import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from codereadability.features.tf import (
    cic,
    comment_readability,
    compute_tf,
    concept_count,
    identifier_semantics,
    jaccard,
    text_coherence,
    token_overlap_distance,
)
from codereadability.lexical import extract_blocks, tokenize

from conftest import snip


def block(*tokens):
    return frozenset(tokens)


class TestCic:
    def test_one_third_overlap(self, bundled_dict):
        # Tc = {compute, sum}, Ti = {sum, total}: |{sum}| / |{compute,sum,total}|
        prof = tokenize(snip("sum = total  # compute sum"))
        assert prof.terms_comment == {"compute", "sum"}
        assert prof.terms_identifier == {"sum", "total"}
        plain, _ = cic(prof, bundled_dict)
        assert plain == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_identical_sets(self, bundled_dict):
        prof = tokenize(snip("total = total  # total"))
        plain, expanded = cic(prof, bundled_dict)
        assert plain == 1.0
        assert expanded == 1.0

    def test_no_comments(self, bundled_dict):
        prof = tokenize(snip("x = total"))
        assert cic(prof, bundled_dict)[0] == 0.0

    def test_syn_equals_plain_when_synsets_empty(self, bundled_dict):
        # the bundled fallback has no synonym links
        prof = tokenize(snip("count = total + offset  # size of the data"))
        plain, expanded = cic(prof, bundled_dict)
        assert expanded == plain

    def test_syn_bridges_synonyms(self, wordnet_dict):
        # comment says "big", identifier says "large": disjoint until expansion
        prof = tokenize(snip("large = 1  # big"))
        plain, expanded = cic(prof, wordnet_dict)
        assert plain == 0.0
        assert expanded == 1.0

    def test_bounds(self, wordnet_dict):
        prof = tokenize(snip("dog = cat  # dog chases the cat"))
        plain, expanded = cic(prof, wordnet_dict)
        assert 0.0 <= plain <= 1.0
        assert 0.0 <= expanded <= 1.0


class TestIdentifierSemantics:
    def test_single_known_identifier(self, wordnet_dict):
        # depth(dog)=4, senses(dog)=3 in the fixture database
        vals = identifier_semantics(tokenize(snip("dog")), wordnet_dict)
        itid_min, itid_avg, itid_max, nmi_min, nmi_avg, nmi_max, nm_avg, nm_max = vals
        assert itid_min == itid_avg == itid_max == 1.0
        assert nmi_min == nmi_avg == nmi_max == 4.0
        assert nm_avg == nm_max == 3.0

    def test_unknown_identifier(self, wordnet_dict):
        vals = identifier_semantics(tokenize(snip("qqzx")), wordnet_dict)
        assert vals == (0.0,) * 8

    def test_no_identifiers(self, wordnet_dict):
        vals = identifier_semantics(tokenize(snip("1 + 2")), wordnet_dict)
        assert vals == (0.0,) * 8

    def test_per_line_grouping(self, wordnet_dict):
        # line 1: {dog} -> itid 1.0; line 2: {qqzx} -> itid 0.0
        vals = identifier_semantics(tokenize(snip("dog\nqqzx")), wordnet_dict)
        itid_min, itid_avg, itid_max = vals[:3]
        assert (itid_min, itid_avg, itid_max) == (0.0, 0.5, 1.0)

    def test_camel_case_split_before_lookup(self, wordnet_dict):
        # dogCat -> terms dog, cat; both depth 4
        vals = identifier_semantics(tokenize(snip("dogCat = 1")), wordnet_dict)
        assert vals[0] == 1.0  # itid
        assert vals[3] == 8.0  # nmi = 4 + 4


class TestCommentReadability:
    def test_the_cat_sat(self):
        # W=3, S=1, Y=3: 206.835 - 1.015*3 - 84.6*1 = 119.19
        prof = tokenize(snip("# The cat sat."))
        assert comment_readability(prof) == pytest.approx(119.19, abs=1e-9)

    def test_five_words_seven_syllables(self):
        # W=5, S=1, Y=7: 206.835 - 5.075 - 118.44 = 83.32
        prof = tokenize(snip("# really basic code runs fine."))
        assert comment_readability(prof) == pytest.approx(83.32, abs=1e-9)

    def test_no_comments(self):
        assert comment_readability(tokenize(snip("x = 1"))) == 0.0

    def test_unpunctuated_comment_is_one_sentence(self):
        prof = tokenize(snip("# the cat sat"))
        assert comment_readability(prof) == pytest.approx(119.19, abs=1e-9)

    def test_concatenates_all_comments(self):
        one = tokenize(snip("# The cat sat. The cat sat."))
        split = tokenize(snip("# The cat sat.\n# The cat sat."))
        assert comment_readability(one) == pytest.approx(comment_readability(split))


class TestTextCoherence:
    def test_identical_blocks(self):
        assert text_coherence([block("a", "b"), block("a", "b")]) == (1.0, 1.0, 1.0)

    def test_disjoint_blocks(self):
        assert text_coherence([block("a"), block("b")]) == (0.0, 0.0, 0.0)

    def test_three_blocks_hand_enumerated(self):
        # pairs: J(1,2)=1, J(1,3)=0, J(2,3)=0 -> (0, 1/3, 1)
        blocks = [block("x", "y"), block("x", "y"), block("z")]
        tc_min, tc_avg, tc_max = text_coherence(blocks)
        assert (tc_min, tc_max) == (0.0, 1.0)
        assert tc_avg == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_partial_overlap_hand_enumerated(self):
        # J({a},{a,b}) = 1/2, J({a},{b}) = 0, J({a,b},{b}) = 1/2
        blocks = [block("a"), block("a", "b"), block("b")]
        tc_min, tc_avg, tc_max = text_coherence(blocks)
        assert tc_min == 0.0
        assert tc_avg == pytest.approx(1.0 / 3.0, abs=1e-9)
        assert tc_max == pytest.approx(0.5, abs=1e-9)

    def test_fewer_than_two_blocks(self):
        assert text_coherence([block("a")]) == (0.0, 0.0, 0.0)
        assert text_coherence([]) == (0.0, 0.0, 0.0)

    def test_end_to_end_blocks(self):
        blocks = extract_blocks(tokenize(snip("a = 1\n\na = 1")))
        assert text_coherence(blocks) == (1.0, 1.0, 1.0)


class TestJaccardProperties:
    sets = st.frozensets(st.sampled_from("abcdef"), max_size=5)

    @given(sets, sets)
    def test_distance_symmetric(self, a, b):
        assert token_overlap_distance(a, b) == token_overlap_distance(b, a)

    @given(sets)
    def test_distance_identity(self, a):
        assert token_overlap_distance(a, a) == 0.0

    @given(sets, sets)
    def test_jaccard_bounds(self, a, b):
        assert 0.0 <= jaccard(a, b) <= 1.0


class TestConceptCount:
    def test_two_identical_lines_cluster(self):
        noc, noc_norm = concept_count(tokenize(snip("a = 1\na = 1")), 0.5, 2)
        assert noc == 1.0
        assert noc_norm == 0.5

    def test_single_line_is_noise(self):
        assert concept_count(tokenize(snip("a = 1")), 0.5, 2) == (0.0, 0.0)

    def test_no_valid_lines(self):
        assert concept_count(tokenize(snip("")), 0.5, 2) == (0.0, 0.0)

    def test_two_distinct_concepts(self):
        text = "a = 1\na = 1\nzebra(q, w)\nzebra(q, w)"
        noc, noc_norm = concept_count(tokenize(snip(text)), 0.5, 2)
        assert noc == 2.0
        assert noc_norm == 0.5

    def test_eps_widening_merges(self):
        # lines share '=' and '1' tokens; with eps=1.0 everything connects
        prof = tokenize(snip("a = 1\nb = 1"))
        assert concept_count(prof, 1.0, 2)[0] == 1.0


class TestComputeTf:
    def test_all_finite_on_odd_snippets(self, bundled_dict):
        for text in ("", "x", "# only a comment", "'''s'''", "if:", "1 1 1"):
            s = snip(text)
            prof = tokenize(s)
            feats = compute_tf(prof, extract_blocks(prof), bundled_dict)
            assert all(math.isfinite(v) for v in tuple(feats))

    def test_ordering_invariants(self, bundled_dict):
        s = snip("dog = cat\nentity\n\nperson = dog  # a dog")
        prof = tokenize(s)
        feats = compute_tf(prof, extract_blocks(prof), bundled_dict)
        assert feats.itid_min <= feats.itid_avg <= feats.itid_max
        assert feats.nmi_min <= feats.nmi_avg <= feats.nmi_max
        assert feats.tc_min <= feats.tc_avg <= feats.tc_max
        assert 0.0 <= feats.cic <= 1.0
        assert 0.0 <= feats.cic_syn <= 1.0
