import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from codereadability.corpus import Snippet
from codereadability.features.bwf import compute_bwf
from codereadability.lexical import tokenize
from codereadability.profiles import load_profiles

from conftest import snip

PY = load_profiles(None)["python"]

# lines with no quote characters, so every line lexes independently and
# snippets can be permuted line-by-line without changing lexer state
SAFE_LINE = st.text(alphabet="abc def_=+-0123456789#(),.:\t ", max_size=25)
SAFE_LINES = st.lists(SAFE_LINE, min_size=1, max_size=10)


def bwf_of_lines(lines):
    return compute_bwf(tokenize(Snippet(id="s", language="python", lines=tuple(lines)), PY))


class TestExamples:
    def test_single_assignment_line(self):
        feats = compute_bwf(tokenize(snip("x = 1"), PY))
        assert feats.line_len_avg == 5.0
        assert feats.line_len_max == 5.0
        assert feats.assign_avg == 1.0
        assert feats.num_avg == 1.0
        assert feats.space_avg == 2.0

    def test_blank_and_comment_ratios(self):
        # 4 lines: code, blank, comment-only, code
        feats = compute_bwf(tokenize(snip("x = 1\n\n# note\ny = 2"), PY))
        assert feats.blank_ratio == 0.25
        assert feats.comment_ratio == 0.25

    def test_inline_comment_counts_as_comment_line(self):
        feats = compute_bwf(tokenize(snip("x = 1  # note\ny = 2"), PY))
        assert feats.comment_ratio == 0.5

    def test_empty_snippet_all_zero(self):
        feats = compute_bwf(tokenize(snip(""), PY))
        assert all(v == 0.0 for v in tuple(feats))

    def test_identifier_stats(self):
        # occurrences alpha, beta, alpha: lengths 5+4+5 over 3
        feats = compute_bwf(tokenize(snip("alpha = beta + alpha"), PY))
        assert feats.id_len_avg == pytest.approx(14 / 3)
        assert feats.id_len_max == 5.0
        assert feats.ids_per_line_avg == 3.0
        assert feats.max_identifier_occurrence == 2.0

    def test_averages_exclude_comment_only_lines(self):
        with_comment = compute_bwf(tokenize(snip("x = 1\n# a comment line"), PY))
        without = compute_bwf(tokenize(snip("x = 1"), PY))
        assert with_comment.line_len_avg == without.line_len_avg
        assert with_comment.assign_avg == without.assign_avg


class TestInvariants:
    @given(SAFE_LINES, st.randoms())
    def test_line_permutation_invariance(self, lines, rnd):
        shuffled = list(lines)
        rnd.shuffle(shuffled)
        assert bwf_of_lines(lines) == bwf_of_lines(shuffled)

    @given(SAFE_LINES)
    def test_appending_blank_line(self, lines):
        # a preprocessed snippet has no outer blanks, so the ratio must
        # strictly rise when one is appended
        lines = list(snip("\n".join(lines)).lines)
        base = bwf_of_lines(lines)
        extended = bwf_of_lines(lines + [""])
        assert extended.blank_ratio > base.blank_ratio
        # every per-code-line statistic is untouched
        for field in base._fields:
            if field in ("blank_ratio", "comment_ratio"):
                continue
            assert getattr(extended, field) == getattr(base, field)

    @given(SAFE_LINES)
    def test_avg_le_max_pairs(self, lines):
        feats = bwf_of_lines(lines)
        for prefix in ("line_len", "id_len", "ids_per_line", "indent", "kw", "num"):
            avg = getattr(feats, f"{prefix}_avg")
            peak = getattr(feats, f"{prefix}_max")
            assert avg <= peak + 1e-12

    @given(SAFE_LINES)
    def test_ratios_bounded(self, lines):
        feats = bwf_of_lines(lines)
        assert 0.0 <= feats.blank_ratio <= 1.0
        assert 0.0 <= feats.comment_ratio <= 1.0

    @given(SAFE_LINES)
    def test_max_char_occurrence_pigeonhole(self, lines):
        prof = tokenize(Snippet(id="s", language="python", lines=tuple(lines)), PY)
        feats = compute_bwf(prof)
        total = prof.total_chars
        if total > 0:
            assert feats.max_char_occurrence >= math.ceil(total / len(prof.char_counts))

    @given(SAFE_LINES)
    def test_all_nonnegative(self, lines):
        assert all(v >= 0.0 for v in tuple(bwf_of_lines(lines)))
