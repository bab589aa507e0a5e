import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from codereadability.features.pf import compute_pf, halstead_volume, line_entropy
from codereadability.lexical import tokenize
from codereadability.profiles import load_profiles

from conftest import snip

PY = load_profiles(None)["python"]


class TestLineEntropy:
    @pytest.mark.parametrize("line,expected", [
        ("aaaa", 0.0),
        ("abab", 1.0),
        ("abcd", 2.0),
        ("aabb", 1.0),
    ])
    def test_uniform_distributions(self, line, expected):
        assert line_entropy(line) == pytest.approx(expected, abs=1e-9)

    @given(st.text(min_size=1, max_size=40))
    def test_bounds(self, line):
        h = line_entropy(line)
        assert -1e-12 <= h <= math.log2(len(set(line))) + 1e-12


class TestHalstead:
    def test_volume_example(self):
        # eta1=2 (=,+), N1=2, eta2=3 (x,a,b), N2=3: HV = 5*log2(5)
        prof = tokenize(snip("x = a + b"), PY)
        assert halstead_volume(prof) == pytest.approx(5 * math.log2(5), abs=1e-9)

    def test_empty_volume_zero(self):
        assert halstead_volume(tokenize(snip(""), PY)) == 0.0

    def test_single_symbol_vocabulary_zero(self):
        # one operand occurrence: eta = 1 -> log2(1) = 0 by convention
        assert halstead_volume(tokenize(snip("x"), PY)) == 0.0

    def test_rename_invariance(self):
        a = tokenize(snip("x = a + b\ny = x * a"), PY)
        b = tokenize(snip("alpha = beta + gamma\ndelta = alpha * beta"), PY)
        assert halstead_volume(a) == pytest.approx(halstead_volume(b))


class TestComputePf:
    def test_identical_lines_zero_spread(self):
        feats = compute_pf(tokenize(snip("aaaa\naaaa\naaaa"), PY))
        assert feats.entropy_avg == 0.0
        assert feats.entropy_std == 0.0
        assert feats.loc == 3.0

    def test_empty_snippet(self):
        feats = compute_pf(tokenize(snip(""), PY))
        assert tuple(feats) == (0.0, 0.0, 0.0, 0.0)

    def test_population_std(self):
        # entropies: "abab" -> 1.0, "abcd" -> 2.0; population std = 0.5
        feats = compute_pf(tokenize(snip("abab\nabcd"), PY))
        assert feats.entropy_avg == pytest.approx(1.5, abs=1e-9)
        assert feats.entropy_std == pytest.approx(0.5, abs=1e-9)

    def test_loc_excludes_blanks(self):
        feats = compute_pf(tokenize(snip("x = 1\n\ny = 2"), PY))
        assert feats.loc == 2.0

    @given(st.lists(st.text(alphabet="xyz=+ 123", max_size=20), min_size=1, max_size=8))
    def test_loc_equals_m_minus_blanks(self, lines):
        prof = tokenize(snip("\n".join(lines)), PY)
        blanks = sum(1 for s in prof.per_line if s.is_blank)
        assert compute_pf(prof).loc == prof.m - blanks
