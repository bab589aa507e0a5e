"""Fuzz: any Unicode text goes through ``load_snippet`` and ``featurize``.

The only error allowed is ``SnippetDecodeError``; every one of the 61
features comes out finite. The text mixes arbitrary characters with the
constructs the lexer tracks across lines (left unterminated as often as
not), CR/CRLF/LF line ends, very long lines and many repeated lines.
"""

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from codereadability.corpus import SnippetDecodeError, load_snippet, preprocess
from codereadability.vectorizer import N_FEATURES, featurize

_CONSTRUCTS = ('"""', "'''", '"', "'", "/*", "*/", "#", "//", "\\", "r\"", "f'",
               "\r\n", "\r", "\n", "\n\n", "\t", " ", "\x0c", "def f():", "{", "}",
               "x = 1", "é", "٣", "²")
_PIECES = st.one_of(st.text(max_size=20), st.sampled_from(_CONSTRUCTS))


@st.composite
def source_texts(draw):
    text = "".join(draw(st.lists(_PIECES, max_size=40)))
    if draw(st.booleans()):  # a very long line
        text += draw(st.sampled_from(_CONSTRUCTS[:12])) + "ab = c + d " * 2000
    if draw(st.booleans()):  # many repeated lines
        line = draw(st.text(max_size=12).filter(lambda t: "\n" not in t and "\r" not in t))
        text += draw(st.sampled_from(("\n", "\r\n", "\r"))).join([line] * draw(st.integers(2, 300)))
    return text


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(source_texts(), st.sampled_from(["python", "java", "cuda"]))
def test_featurize_any_text(bundled_dict, text, language):
    try:
        vec = featurize(preprocess(load_snippet(text, language, "fuzz")), d=bundled_dict)
    except SnippetDecodeError:
        return
    assert len(vec) == N_FEATURES == 61
    assert all(math.isfinite(v) for v in vec)
