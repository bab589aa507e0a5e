"""Per-language lexical profiles.

A profile tells the scanner what counts as a keyword, a comment, a string
delimiter, and which operator symbols fall into each counted category.
Built-in profiles cover python, java, and cuda; ``generic`` falls back to
the python profile so unknown languages behave deterministically.

A profile table, a plain dict, maps language names to profiles; only
``load_profiles`` builds one: the built-ins for None, else the built-ins
overlaid by the sections of an INI file read by ``config.read_ini``, so a
section may add a language or override a built-in one (``[generic]``,
``[python]``). Nothing here keeps state between calls, and the built-ins
cannot be changed.
"""

from __future__ import annotations

import keyword
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType

from .config import read_ini


@dataclass(frozen=True)
class LanguageProfile:
    name: str
    keyword_set: frozenset[str]
    line_comment_markers: tuple[str, ...]
    block_comment_delims: tuple[tuple[str, str], ...]
    string_delims: tuple[str, ...]
    builtin_names: frozenset[str] = frozenset()
    branch_keywords: frozenset[str] = frozenset()
    loop_keywords: frozenset[str] = frozenset()
    assignment_ops: tuple[str, ...] = ()
    arithmetic_ops: tuple[str, ...] = ()
    comparison_ops: tuple[str, ...] = ()
    punctuation: tuple[str, ...] = ()
    # triple-quoted strings in statement position are treated as comments
    docstring_delims: tuple[str, ...] = ()

    def all_operator_symbols(self) -> tuple[str, ...]:
        """Every symbol token, longest first so the scanner munches maximally."""
        symbols = set(self.assignment_ops) | set(self.arithmetic_ops) | set(self.comparison_ops) | set(self.punctuation)
        return tuple(sorted(symbols, key=len, reverse=True))


_COMPARISONS = ("==", "!=", "<=", ">=", "<", ">")

_PY_BUILTINS = frozenset("""
    abs all any ascii bin bool bytearray bytes callable chr classmethod compile
    complex delattr dict dir divmod enumerate eval exec filter float format
    frozenset getattr globals hasattr hash help hex id input int isinstance
    issubclass iter len list locals map max min next object oct open ord pow
    print property range repr reversed round set setattr slice sorted
    staticmethod str sum super tuple type vars zip self cls
""".split())

PYTHON_PROFILE = LanguageProfile(
    name="python",
    keyword_set=frozenset(keyword.kwlist),
    line_comment_markers=("#",),
    block_comment_delims=(),
    string_delims=("'", '"'),
    builtin_names=_PY_BUILTINS,
    branch_keywords=frozenset({"if", "elif"}),
    loop_keywords=frozenset({"for", "while"}),
    assignment_ops=("=", "+=", "-=", "*=", "/=", "//=", "%=", "**=", "&=", "|=", "^=", ">>=", "<<=", ":="),
    arithmetic_ops=("+", "-", "*", "/", "%", "**", "//"),
    comparison_ops=_COMPARISONS,
    punctuation=("(", ")", "[", "]", "{", "}", ",", ":", ".", ";", "@", "->", "&", "|", "^", "~", "<<", ">>"),
    docstring_delims=('"""', "'''"),
)

_JAVA_KEYWORDS = frozenset("""
    abstract assert boolean break byte case catch char class const continue
    default do double else enum extends final finally float for goto if
    implements import instanceof int interface long native new package private
    protected public return short static strictfp super switch synchronized
    this throw throws transient try void volatile while true false null var
""".split())

_JAVA_BUILTINS = frozenset("""
    String System Object Integer Double Boolean Float Long Short Byte Character
    Math List Map Set ArrayList HashMap HashSet LinkedList Iterator Exception
    RuntimeException StringBuilder StringBuffer Thread Runnable Override
    Comparable Collections Arrays Optional Stream out in err println print
""".split())

JAVA_PROFILE = LanguageProfile(
    name="java",
    keyword_set=_JAVA_KEYWORDS,
    line_comment_markers=("//",),
    block_comment_delims=(("/*", "*/"),),
    string_delims=('"', "'"),
    builtin_names=_JAVA_BUILTINS,
    branch_keywords=frozenset({"if", "case", "switch"}),
    loop_keywords=frozenset({"for", "while", "do"}),
    assignment_ops=("=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", ">>=", "<<=", ">>>="),
    arithmetic_ops=("+", "-", "*", "/", "%", "++", "--"),
    comparison_ops=_COMPARISONS,
    punctuation=("(", ")", "[", "]", "{", "}", ",", ":", ".", ";", "@", "&&", "||", "!", "?", "&", "|", "^", "~", "<<", ">>", ">>>", "::", "->"),
)

_CUDA_KEYWORDS = _JAVA_KEYWORDS - frozenset({"instanceof", "strictfp", "synchronized", "transient", "implements", "extends", "package", "import", "var"}) | frozenset("""
    auto constexpr decltype delete explicit extern friend inline mutable
    namespace nullptr operator register reinterpret_cast signed sizeof
    static_cast struct template typedef typeid typename union unsigned using
    virtual wchar_t __global__ __device__ __host__ __shared__ __constant__
    __restrict__ __syncthreads
""".split())

CUDA_PROFILE = LanguageProfile(
    name="cuda",
    keyword_set=_CUDA_KEYWORDS,
    line_comment_markers=("//",),
    block_comment_delims=(("/*", "*/"),),
    string_delims=('"', "'"),
    builtin_names=frozenset({"threadIdx", "blockIdx", "blockDim", "gridDim", "warpSize", "printf", "malloc", "free", "cudaMalloc", "cudaMemcpy", "cudaFree"}),
    branch_keywords=frozenset({"if", "case", "switch"}),
    loop_keywords=frozenset({"for", "while", "do"}),
    assignment_ops=JAVA_PROFILE.assignment_ops,
    arithmetic_ops=JAVA_PROFILE.arithmetic_ops,
    comparison_ops=_COMPARISONS,
    punctuation=JAVA_PROFILE.punctuation,
)

_BUILTIN_PROFILES: Mapping[str, LanguageProfile] = MappingProxyType({
    "python": PYTHON_PROFILE,
    "java": JAVA_PROFILE,
    "cuda": CUDA_PROFILE,
    # deterministic fallback for unknown languages
    "generic": PYTHON_PROFILE,
})


def _split_list(raw: str) -> tuple[str, ...]:
    return tuple(tok for tok in raw.split() if tok)


def _split_set(raw: str) -> frozenset[str]:
    return frozenset(_split_list(raw))


def _split_pairs(raw: str) -> tuple[tuple[str, str], ...]:
    toks = raw.split()
    if len(toks) % 2:
        raise ValueError(f"block comment delimiters must come in open/close pairs: {raw!r}")
    return tuple((toks[i], toks[i + 1]) for i in range(0, len(toks), 2))


# each INI key of a profile section: the LanguageProfile field it sets, how
# its whitespace-separated tokens parse, and the field's value when the
# section leaves the key out
_PROFILE_KEYS = {
    "keywords": ("keyword_set", _split_set, frozenset()),
    "line_comments": ("line_comment_markers", _split_list, ()),
    "block_comments": ("block_comment_delims", _split_pairs, ()),
    "strings": ("string_delims", _split_list, ('"',)),
    "builtins": ("builtin_names", _split_set, frozenset()),
    "branch_keywords": ("branch_keywords", _split_set, frozenset({"if"})),
    "loop_keywords": ("loop_keywords", _split_set, frozenset({"for", "while"})),
    "assignment_ops": ("assignment_ops", _split_list, PYTHON_PROFILE.assignment_ops),
    "arithmetic_ops": ("arithmetic_ops", _split_list, PYTHON_PROFILE.arithmetic_ops),
    "comparison_ops": ("comparison_ops", _split_list, PYTHON_PROFILE.comparison_ops),
    "punctuation": ("punctuation", _split_list, PYTHON_PROFILE.punctuation),
    "docstring_delims": ("docstring_delims", _split_list, ()),
}
_KEY_TABLE = {key: (field, parse) for key, (field, parse, _) in _PROFILE_KEYS.items()}
_LEFT_OUT = {field: value for field, _, value in _PROFILE_KEYS.values()}


def load_profiles(path: str | Path | None) -> dict[str, LanguageProfile]:
    """The profile table: the built-ins overlaid by an INI file's sections.

    With no path the table holds only the built-ins. Each INI section
    defines one language, and a section named after a built-in replaces
    it. Keys hold whitespace-separated token lists, e.g.::

        [mylang]
        keywords = if else while fn let
        line_comments = #
        block_comments = /* */
        strings = " '

    A key left out takes its value in ``_PROFILE_KEYS``. The file follows
    the INI rules of ``config.read_ini``, but a ``;`` after a value is a
    token, not a comment.
    """
    profiles = dict(_BUILTIN_PROFILES)
    if not path:
        return profiles
    for section, fields in read_ini(path, lambda section: _KEY_TABLE).items():
        profiles[section] = LanguageProfile(name=section, **{**_LEFT_OUT, **fields})
    return profiles
