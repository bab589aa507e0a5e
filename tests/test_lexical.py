import pytest
from hypothesis import given
from hypothesis import strategies as st

from codereadability.lexical import extract_blocks, split_identifier, tokenize
from codereadability.profiles import get_profile

from conftest import snip

# single-line-safe source text: no quotes, so no multi-line lexer state
SAFE_LINE = st.text(alphabet="abc xyz_=+-0123456789#(),.:", max_size=30)


class TestTokenizeBasics:
    def test_assignment_with_comment(self):
        prof = tokenize(snip("x = a + b  # sum"))
        assert sorted(prof.identifiers) == ["a", "b", "x"]
        assert len(prof.comments) == 1
        assert prof.comments[0] == " sum"
        assert prof.assign_columns == [2]
        assert prof.per_line[0].arith_ops == 1

    def test_empty_snippet(self):
        prof = tokenize(snip(""))
        assert prof.m == 0
        assert prof.m_ne == 0
        assert not prof.per_line and not prof.line_tokens
        assert not prof.identifiers and not prof.comments

    def test_branch_and_indentation(self):
        prof = tokenize(snip("if x:\n    return x"))
        keywords = {t for t in prof.operators if t in get_profile("python").keyword_set}
        assert keywords == {"if", "return"}
        assert sum(s.branches for s in prof.per_line) == 1
        assert [s.indent for s in prof.per_line] == [0, 4]

    def test_tab_width_configurable(self):
        prof = tokenize(snip("\tx = 1"), tab_width=8)
        assert prof.per_line[0].indent == 8

    def test_counts_line_one(self):
        prof = tokenize(snip("x = 1"))
        stats = prof.per_line[0]
        assert (stats.length, stats.spaces, stats.assignments, stats.numbers) == (5, 2, 1, 1)

    def test_halstead_example(self):
        prof = tokenize(snip("x = a + b"))
        assert (len(set(prof.operators)), len(prof.operators)) == (2, 2)
        assert (len(set(prof.operands)), len(prof.operands)) == (3, 3)


class TestStringsAndComments:
    def test_string_contents_not_identifiers(self):
        prof = tokenize(snip('msg = "hello world"'))
        assert prof.identifiers == ["msg"]
        assert prof.string_chars == len('"hello world"')

    def test_string_literal_is_one_operand(self):
        prof = tokenize(snip('a = "x" + "x"'))
        assert prof.operands.count('"x"') == 2
        assert len(set(prof.operands)) == 2  # a and "x"

    def test_hash_inside_string_not_comment(self):
        prof = tokenize(snip('tag = "#nope"'))
        assert not prof.comments

    def test_docstring_counts_as_comment(self):
        prof = tokenize(snip('def f():\n    """Docstring text."""\n    return 1'))
        assert len(prof.comments) == 1
        assert prof.comments[0] == "Docstring text."
        assert prof.per_line[1].is_comment_only

    def test_multiline_docstring(self):
        prof = tokenize(snip('def f():\n    """Start\n    middle\n    end."""\n    pass'))
        assert [i for i, s in enumerate(prof.per_line) if s.has_comment] == [1, 2, 3]
        code_lines = [s for s in prof.per_line if not s.is_blank and not s.is_comment_only]
        assert len(code_lines) == 2  # def line and pass line

    def test_assigned_triple_quote_is_string(self):
        prof = tokenize(snip('text = """not a docstring"""'))
        assert not prof.comments
        assert prof.string_chars == len('"""not a docstring"""')

    def test_string_prefix_stays_with_literal(self):
        prof = tokenize(snip('p = r"\\d+"'))
        assert prof.identifiers == ["p"]
        assert prof.string_chars == len('r"\\d+"')

    def test_prefixed_docstring_is_comment(self):
        prof = tokenize(snip('def f():\n    r"""Raw doc."""\n    pass'))
        assert len(prof.comments) == 1
        assert prof.per_line[1].is_comment_only

    def test_java_block_comment_spans_lines(self):
        prof = tokenize(snip("int x = 1; /* start\nstill comment\nend */ int y = 2;", "java"))
        assert [i for i, s in enumerate(prof.per_line) if s.has_comment] == [0, 1, 2]
        assert sorted(prof.identifiers) == ["x", "y"]
        assert prof.per_line[1].is_comment_only

    def test_java_line_comment_vs_division(self):
        prof = tokenize(snip("int z = a / b; // halve", "java"))
        assert len(prof.comments) == 1
        assert prof.per_line[0].arith_ops == 1

    def test_cuda_keywords(self):
        prof = tokenize(snip("__global__ void add(int n) { }", "cuda"))
        assert "__global__" in prof.operators
        assert "void" in prof.operators


class TestNumbersAndOperators:
    @pytest.mark.parametrize("text,expected", [
        ("a = 0x1F", ["0x1F"]),
        ("a = 3.14", ["3.14"]),
        ("a = 1e5", ["1e5"]),
        ("a = 10_000", ["10_000"]),
    ])
    def test_number_forms(self, text, expected):
        prof = tokenize(snip(text))
        numbers = [t for line in prof.line_tokens for t in line if t in expected]
        assert numbers == expected

    def test_augmented_assignment_single_token(self):
        prof = tokenize(snip("x += 1"))
        assert prof.per_line[0].assignments == 1
        assert prof.per_line[0].arith_ops == 0

    def test_comparison_not_assignment(self):
        prof = tokenize(snip("flag = x <= y == z"))
        assert prof.per_line[0].assignments == 1
        assert prof.per_line[0].cmp_ops == 2

    def test_bracket_columns_open_only(self):
        # '[' at column 1, '(' at column 8; closers are not alignment anchors
        prof = tokenize(snip("a[0] = f(1)"))
        assert prof.bracket_columns == [1, 8]


class TestSplitIdentifier:
    @pytest.mark.parametrize("ident,expected", [
        ("maxValue", ["max", "value"]),
        ("snake_case_name", ["snake", "case", "name"]),
        ("HTTPServer2", ["http", "server", "2"]),
        ("XMLHttpRequest", ["xml", "http", "request"]),
        ("value", ["value"]),
        ("__dunder__", ["dunder"]),
        ("a2b", ["a", "2", "b"]),
    ])
    def test_examples(self, ident, expected):
        assert split_identifier(ident) == expected

    @given(st.text(alphabet=st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=20))
    def test_terms_lowercase_nonempty(self, ident):
        for term in split_identifier(ident):
            assert term
            assert term == term.lower()


class TestInvariants:
    @given(st.lists(SAFE_LINE, max_size=12))
    def test_per_line_identifiers_sum(self, lines):
        prof = tokenize(snip("\n".join(lines)))
        assert sum(s.identifiers for s in prof.per_line) == len(prof.identifiers)

    @given(st.lists(SAFE_LINE, max_size=12))
    def test_char_vocab_is_union_of_line_vocabs(self, lines):
        prof = tokenize(snip("\n".join(lines)))
        assert frozenset(prof.char_counts) == frozenset("".join(prof.lines))

    def test_removing_comment_lines_keeps_code_counts(self):
        text = "x = 1\n# first note\ny = x + 2\n# second note\nz = y * 3"
        with_comments = tokenize(snip(text))
        without = tokenize(snip("x = 1\ny = x + 2\nz = y * 3"))
        kept = [s for s in with_comments.per_line if not s.is_comment_only]
        assert [(s.identifiers, s.assignments, s.arith_ops) for s in kept] == \
               [(s.identifiers, s.assignments, s.arith_ops) for s in without.per_line]

    def test_deterministic(self):
        a = tokenize(snip("def f(x):\n    return x + 1  # inc"))
        b = tokenize(snip("def f(x):\n    return x + 1  # inc"))
        assert a == b

    def test_line_class_ordering(self):
        prof = tokenize(snip("x = 1\n\n# note\ny = 2"))
        code = [i for i, s in enumerate(prof.per_line) if not s.is_blank and not s.is_comment_only]
        valid = [i for i in code if prof.line_tokens[i]]
        assert prof.m_ne <= prof.m
        assert len(code) <= prof.m_ne
        assert len(valid) <= prof.m_ne
        assert (prof.m, prof.m_ne, len(code), len(valid)) == (4, 3, 2, 2)


class TestProfileLoading:
    INI = """
[mylang]
keywords = fn let ret
line_comments = ;;
strings = "
branch_keywords = when
loop_keywords = loop
"""

    def test_ini_profile_drives_tokenizer(self, tmp_path):
        from codereadability.corpus import Snippet
        from codereadability.profiles import load_profiles

        path = tmp_path / "profiles.ini"
        path.write_text(self.INI)
        profile = load_profiles(path)["mylang"]
        assert profile.keyword_set == {"fn", "let", "ret"}
        s = Snippet(id="s", language="generic", lines=("let x = 1 ;; bind", "when x loop"))
        prof = tokenize(s, profile)
        assert "let" in prof.operators
        assert prof.comments == [" bind"]
        assert sum(st.branches for st in prof.per_line) == 1
        assert sum(st.loops for st in prof.per_line) == 1

    def test_ini_profile_overrides_generic(self, tmp_path, bundled_dict):
        from codereadability.config import AnalysisConfig
        from codereadability.corpus import Snippet
        from codereadability.profiles import get_profile, load_profiles
        from codereadability.vectorizer import featurize

        path = tmp_path / "profiles.ini"
        path.write_text("[generic]\nkeywords = blop\nline_comments = --\nstrings = \"\n")
        table = load_profiles(path)
        assert "blop" in get_profile("generic", table).keyword_set
        assert "blop" not in get_profile("generic").keyword_set  # the built-in is untouched

        s = Snippet(id="s", language="generic", lines=("blop x -- note # more",))
        config = AnalysisConfig(profiles_path=str(path))
        expected = featurize(s, table["generic"], bundled_dict, config)
        assert (featurize(s, d=bundled_dict, config=config) == expected).all()
        assert (featurize(s, d=bundled_dict) != expected).any()


class TestBlocks:
    def test_contiguous_lines_one_block(self):
        blocks = extract_blocks(tokenize(snip("a = 1\nb = 2\nc = 3")))
        assert len(blocks) == 1

    def test_blank_line_delimits(self):
        blocks = extract_blocks(tokenize(snip("a=1\n\nb=2")))
        assert len(blocks) == 2
        assert blocks[0] != blocks[1]

    def test_all_blank_snippet(self):
        assert extract_blocks(tokenize(snip("\n\n\n"))) == []

    def test_block_token_sets(self):
        blocks = extract_blocks(tokenize(snip("a = 1\n\na = 1")))
        assert blocks[0] == blocks[1]
