"""Per-language lexical profiles.

A profile tells the scanner what counts as a keyword, a comment, a string
delimiter, and which operator symbols fall into each counted category.
Built-in profiles cover python, java, and cuda; ``generic`` falls back to
the python profile so unknown languages behave deterministically.

A profile table maps language names to profiles. ``load_profiles(path)``
builds one: the built-ins overlaid by the sections of an INI file, so a
section may add a language or override a built-in one (``[generic]``,
``[python]``). The table is a value passed to ``get_profile``; nothing
here keeps state between calls, and the built-ins cannot be changed.
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


def get_profile(language: str, table: Mapping[str, LanguageProfile] | None = None) -> LanguageProfile:
    """The profile of ``language`` in ``table`` (the built-ins by default)."""
    try:
        return (_BUILTIN_PROFILES if table is None else table)[language]
    except KeyError:
        raise ValueError(f"unsupported language {language!r}") from None


def _split_list(raw: str) -> tuple[str, ...]:
    return tuple(tok for tok in raw.split() if tok)


def _split_pairs(raw: str, where: str) -> tuple[tuple[str, str], ...]:
    toks = raw.split()
    if len(toks) % 2:
        raise ValueError(f"{where}: block comment delimiters must come in open/close pairs: {raw!r}")
    return tuple((toks[i], toks[i + 1]) for i in range(0, len(toks), 2))


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

    A key that no profile takes is an error, unless [DEFAULT] has it. A
    ``;`` after a value is a token, not a comment.
    """
    profiles = dict(_BUILTIN_PROFILES)
    if not path:
        return profiles
    parser = read_ini(path)
    base = PYTHON_PROFILE
    # each key a section takes, and its value when the section leaves it out
    defaults = {
        "keywords": "", "line_comments": "", "block_comments": "", "strings": '"',
        "builtins": "", "branch_keywords": "if", "loop_keywords": "for while",
        "assignment_ops": " ".join(base.assignment_ops),
        "arithmetic_ops": " ".join(base.arithmetic_ops),
        "comparison_ops": " ".join(base.comparison_ops),
        "punctuation": " ".join(base.punctuation),
        "docstring_delims": "",
    }
    for section in parser.sections():
        sec = parser[section]
        for key in sec:
            if key not in defaults and key not in parser.defaults():
                raise ValueError(f"{path}: unknown key {key!r} in section [{section}]; "
                                 f"it takes {', '.join(defaults)}")
        raw = {key: sec.get(key, default) for key, default in defaults.items()}
        profiles[section] = LanguageProfile(
            name=section,
            keyword_set=frozenset(_split_list(raw["keywords"])),
            line_comment_markers=_split_list(raw["line_comments"]),
            block_comment_delims=_split_pairs(raw["block_comments"], f"{path}: [{section}] block_comments"),
            string_delims=_split_list(raw["strings"]),
            builtin_names=frozenset(_split_list(raw["builtins"])),
            branch_keywords=frozenset(_split_list(raw["branch_keywords"])),
            loop_keywords=frozenset(_split_list(raw["loop_keywords"])),
            assignment_ops=_split_list(raw["assignment_ops"]),
            arithmetic_ops=_split_list(raw["arithmetic_ops"]),
            comparison_ops=_split_list(raw["comparison_ops"]),
            punctuation=_split_list(raw["punctuation"]),
            docstring_delims=_split_list(raw["docstring_delims"]),
        )
    return profiles
