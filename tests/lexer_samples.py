"""Snippets shared by the lexer oracle and the golden feature matrix.

They cover the test fixtures (the CLI corpus and the lexer's inline
cases), a Python, a Java and a CUDA sample file, and a sample in the
``mylang`` language defined by ``data/lexer/profiles.ini``.
"""

from pathlib import Path

from codereadability.corpus import load_snippet, load_snippet_file, preprocess
from codereadability.profiles import load_profiles

from test_cli import CRYPTIC, READABLE

LEXER_DATA = Path(__file__).parent / "data" / "lexer"

SAMPLE_FILES = (("sample.py", "python"), ("Sample.java", "java"), ("kernel.cu", "cuda"))

# the inline snippets of test_lexical, with their languages
INLINE = (
    ("python", "x = a + b  # sum"),
    ("python", "if x:\n    return x"),
    ("python", "\tx = 1"),
    ("python", 'msg = "hello world"'),
    ("python", 'a = "x" + "x"'),
    ("python", 'tag = "#nope"'),
    ("python", 'def f():\n    """Docstring text."""\n    return 1'),
    ("python", 'def f():\n    """Start\n    middle\n    end."""\n    pass'),
    ("python", 'text = """not a docstring"""'),
    ("python", 'p = r"\\d+"'),
    ("python", 'def f():\n    r"""Raw doc."""\n    pass'),
    ("java", "int x = 1; /* start\nstill comment\nend */ int y = 2;"),
    ("java", "int z = a / b; // halve"),
    ("cuda", "__global__ void add(int n) { }"),
    ("python", "a = 0x1F\nb = 3.14\nc = 1e5\nd = 10_000"),
    ("python", "x += 1\nflag = x <= y == z\na[0] = f(1)"),
    ("python", "x = 1\n\n# note\ny = 2"),
)


def fixture_snippets():
    """Every built-in-language sample as a preprocessed snippet, in a fixed order."""
    snippets = []
    for tag, texts in (("readable", READABLE), ("cryptic", CRYPTIC)):
        snippets += [preprocess(load_snippet(t, "python", f"{tag}{i}")) for i, t in enumerate(texts)]
    snippets += [preprocess(load_snippet(t, lang, f"inline{i}"))
                 for i, (lang, t) in enumerate(INLINE)]
    snippets += [preprocess(load_snippet_file(LEXER_DATA / name, lang))
                 for name, lang in SAMPLE_FILES]
    return snippets


def ini_profile():
    """The ``mylang`` profile: ``;;`` line comments, no block comments or docstrings."""
    return load_profiles(LEXER_DATA / "profiles.ini")["mylang"]


def ini_snippet():
    """``sample.mylang``, tagged ``generic``; callers pass ``ini_profile()``
    explicitly, so the tag is never looked up."""
    text = (LEXER_DATA / "sample.mylang").read_text(encoding="utf-8")
    return preprocess(load_snippet(text, "generic", "sample.mylang"))
