import pytest
from hypothesis import given
from hypothesis import strategies as st

from codereadability.corpus import Snippet
from codereadability.features.df import (
    alignment,
    compute_df,
    spatial,
    text_features,
    visual_densities,
)
from codereadability.lexical import tokenize
from codereadability.profiles import load_profiles

from conftest import snip

PY = load_profiles(None)["python"]

SAFE_LINES = st.lists(st.text(alphabet="ab =+(1.", max_size=20), min_size=1, max_size=8)


class TestVisualDensities:
    def test_character_set_size(self):
        vkd, vsd, vcd, vc = visual_densities(tokenize(snip("a b c"), PY))
        assert vc == pytest.approx(4 / 95, abs=1e-9)

    def test_keyword_density(self):
        vkd, _, _, _ = visual_densities(tokenize(snip("if x:"), PY))
        assert vkd == pytest.approx(0.4, abs=1e-9)

    def test_no_comments_no_comment_density(self):
        _, _, vcd, _ = visual_densities(tokenize(snip("x = 1"), PY))
        assert vcd == 0.0

    def test_string_density(self):
        _, vsd, _, _ = visual_densities(tokenize(snip('x = "ab"'), PY))
        assert vsd == pytest.approx(4 / 8, abs=1e-9)


class TestSpatial:
    def test_equal_lengths_full_regularity(self):
        _, _, sr, _ = spatial(tokenize(snip("abcd\nefgh"), PY))
        assert sr == 1.0

    def test_length_spread(self):
        # lengths {2, 6}: avg 4, population std 2 -> sr = 0.5
        _, _, sr, _ = spatial(tokenize(snip("ab\nabcdef"), PY))
        assert sr == pytest.approx(0.5, abs=1e-9)

    def test_single_full_width_line(self):
        saa, sra, _, sd = spatial(tokenize(snip("abcdef"), PY))
        assert sra == 1.0
        assert saa == 6.0
        assert sd == 1.0

    def test_bounding_box_occupancy(self):
        # 2 rows x 4 cols box holds 6 chars
        _, sra, _, _ = spatial(tokenize(snip("abcd\nab"), PY))
        assert sra == pytest.approx(6 / 8, abs=1e-9)

    def test_density_counts_blank_lines(self):
        prof = tokenize(snip("ab\n\ncd"), PY)
        _, _, _, sd = spatial(prof)
        assert sd == pytest.approx(2 / 3, abs=1e-9)

    def test_saa_matches_per_line_lengths(self):
        prof = tokenize(snip("ab\n\ncd  # ok"), PY)
        saa = spatial(prof)[0]
        assert saa == sum(s.length for s in prof.per_line)

    @given(SAFE_LINES, st.integers(min_value=1, max_value=10))
    def test_widening_by_constant_suffix(self, lines, pad):
        base = tokenize(Snippet(id="s", language="python", lines=tuple(lines)), PY)
        widened = tokenize(Snippet(id="s", language="python",
                                   lines=tuple(l + " " * pad for l in lines)), PY)
        assert spatial(base)[3] == spatial(widened)[3]  # sd: padding never unblanks
        assert spatial(widened)[2] >= spatial(base)[2] - 1e-12  # sr non-decreasing


class TestAlignment:
    def test_no_or_single_assignment(self):
        assert alignment(tokenize(snip("foo(bar)"), PY))[0] == 1.0
        assert alignment(tokenize(snip("x = 1"), PY))[0] == 1.0

    def test_two_columns(self):
        # '=' at columns 4 and 8: population std 2 -> 1/3
        prof = tokenize(snip("abc = 1\nabcdefg = 2"), PY)
        assert prof.assign_columns == [4, 8]
        assert alignment(prof)[0] == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_aligned_assignments_score_one(self):
        prof = tokenize(snip("abc     = 1\nabcdefg = 2"), PY)
        assert alignment(prof)[0] == 1.0

    def test_consistency_is_mean(self):
        prof = tokenize(snip("x = 1"), PY)
        align_op, align_br, align_cons = alignment(prof)
        assert align_cons == pytest.approx((align_op + align_br) / 2, abs=1e-12)

    @given(SAFE_LINES)
    def test_range(self, lines):
        prof = tokenize(Snippet(id="s", language="python", lines=tuple(lines)), PY)
        align_op, align_br, align_cons = alignment(prof)
        for v in (align_op, align_br, align_cons):
            assert 0.0 < v <= 1.0


class TestTextFeatures:
    def test_english_ratio(self, bundled_dict):
        # maxValue -> max, value (both English); qz -> not English
        prof = tokenize(snip("maxValue = qz"), PY)
        english, _, _, _ = text_features(prof, bundled_dict)
        assert english == 0.5

    def test_no_comments_zero_comment_ratio(self, bundled_dict):
        prof = tokenize(snip("value = other"), PY)
        assert text_features(prof, bundled_dict)[1] == 0.0

    def test_vocab_and_length(self, bundled_dict):
        prof = tokenize(snip("ab = abcd"), PY)
        _, _, vocab, id_len = text_features(prof, bundled_dict)
        assert vocab == 2.0
        assert id_len == 3.0

    def test_comment_word_share(self, bundled_dict):
        # 2 comment words, 2 identifier-derived words
        prof = tokenize(snip("someValue  # two words"), PY)
        assert text_features(prof, bundled_dict)[1] == pytest.approx(0.5)

    def test_builtins_not_user_identifiers(self, bundled_dict):
        prof = tokenize(snip("print(myThing)"), PY)
        _, _, vocab, _ = text_features(prof, bundled_dict)
        assert vocab == 1.0


def test_compute_df_assembles(bundled_dict):
    feats = compute_df(tokenize(snip("value = 1  # set the value"), PY), bundled_dict)
    assert 0.0 <= feats.vkd <= 1.0
    assert 0.0 <= feats.text_english <= 1.0
    assert feats.saa > 0
