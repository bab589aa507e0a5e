"""The package namespace: the public names, and which modules importing
it loads."""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import codereadability

ROOT = Path(__file__).resolve().parent.parent

EXPORTS = {
    "analytics": ["ComparisonReport", "ScoreTable", "paired_compare", "render_report",
                  "score_corpus"],
    "config": ["AnalysisConfig", "load_config"],
    "corpus": ["LabeledDataset", "Snippet", "load_labeled_dataset", "load_snippet",
               "preprocess"],
    "dictionary": ["DictionaryProvider", "count_syllables", "load_dictionary"],
    "lexical": ["extract_blocks", "split_identifier", "tokenize"],
    "model": ["EvaluationReport", "ReadabilityModel", "evaluate", "fit_scaler",
              "load_model", "predict", "save_model", "sfs", "stratified_folds",
              "train_logreg", "train_model"],
    "profiles": ["LanguageProfile", "load_profiles"],
    "stats": ["auc", "wilcoxon_signed_rank"],
    "vectorizer": ["SCHEMA_VERSION", "family_indices", "featurize",
                   "featurize_corpus", "schema", "schema_names"],
}


def test_all_lists_the_public_names():
    assert sorted(codereadability.__all__) == sorted(n for names in EXPORTS.values() for n in names)


def test_every_export_has_a_use_outside_the_tests():
    """Each exported name is used in the package besides its definition and
    its export, or in a demo or the README."""
    package = ROOT / "src" / "codereadability"
    paths = [*(path for path in package.rglob("*.py") if path != package / "__init__.py"),
             *(ROOT / "demos").glob("*.py"), ROOT / "README.md"]
    texts = [path.read_text(encoding="utf-8") for path in paths]
    unused = []
    for name in codereadability.__all__:
        definition = re.compile(rf"^[ \t]*(?:def|class)[ \t]+{name}\b.*$|^{name}[ \t]*[:=].*$", re.M)
        if not any(re.search(rf"\b{name}\b", definition.sub("", text)) for text in texts):
            unused.append(name)
    assert unused == []


# the imports a module keeps without using them: perfbench/tracing.py wraps
# analytics.featurize
UNUSED_IMPORTS = {"analytics": ["featurize"]}


def test_no_module_imports_a_name_it_never_uses():
    """Each name a module imports is read in it or listed in its ``__all__``."""
    package = ROOT / "src" / "codereadability"
    unused = {}
    for path in sorted(package.rglob("*.py")):
        imported, read = set(), set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", "") != "__future__"):
                imported.update((alias.asname or alias.name).partition(".")[0]
                                for alias in node.names)
            elif isinstance(node, ast.Name):
                read.add(node.id)
            elif (isinstance(node, ast.Assign)
                  and [getattr(t, "id", None) for t in node.targets] == ["__all__"]):
                read.update(elt.value for elt in node.value.elts)
        if imported - read:
            unused[".".join(path.relative_to(package).with_suffix("").parts)] = sorted(imported - read)
    assert unused == UNUSED_IMPORTS


# the functions that read a file: the one reader of input files, which
# also reads the bundled word list
FILE_READERS = {"corpus.read_utf8"}

_MODE = re.compile(r"[rwxabt+]+")


def _reads_a_file(call: ast.Call) -> bool:
    """A ``.read_bytes()``, a ``.read_text()`` or an ``open()`` whose mode
    (a string constant among its arguments) has no w, a, x or +."""
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr in ("read_bytes", "read_text"):
        return True
    if getattr(func, "id", None) != "open" and getattr(func, "attr", None) != "open":
        return False
    modes = [arg.value for arg in (*call.args, *(kw.value for kw in call.keywords if kw.arg == "mode"))
             if isinstance(arg, ast.Constant) and isinstance(arg.value, str) and _MODE.fullmatch(arg.value)]
    return not any(set("wax+") & set(mode) for mode in modes)


def _sites(node: ast.AST, name: str, matches):
    """The dotted name of the innermost function or class around each node
    under ``node`` that ``matches``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _sites(child, f"{name}.{child.name}", matches)
            continue
        if matches(child):
            yield name
        yield from _sites(child, name, matches)


def _package_sites(matches) -> set[str]:
    """``_sites`` over every module of the package, named from the package."""
    package = ROOT / "src" / "codereadability"
    sites = set()
    for path in sorted(package.rglob("*.py")):
        module = ".".join(path.relative_to(package).with_suffix("").parts)
        sites.update(_sites(ast.parse(path.read_text(encoding="utf-8")), module, matches))
    return sites


def test_only_read_utf8_reads_a_file():
    readers = _package_sites(lambda node: isinstance(node, ast.Call) and _reads_a_file(node))
    assert readers == FILE_READERS


@pytest.mark.parametrize("source,reads", [
    ("open(path)", True), ("open(path, 'rb')", True), ("io.open(path, mode='r')", True),
    ("Path(p).open()", True), ("p.read_text('utf-8')", True), ("p.read_bytes()", True),
    ("open('data.txt')", True), ("open(path, 'w')", False), ("open(path, 'ab')", False),
    ("Path(p).open('x')", False), ("open(path, 'r+')", False), ("p.write_text(t)", False),
    ("read_bytes(p)", False),
])
def test_the_scan_sees_each_way_to_read_a_file(source, reads):
    assert _reads_a_file(ast.parse(source).body[0].value) is reads


_CACHES = {"lru_cache", "cache", "cached_property"}


def _names_a_cache(node: ast.AST) -> bool:
    """An import of a ``functools`` cache, or a ``functools.<cache>``."""
    if isinstance(node, ast.ImportFrom):
        return node.module == "functools" and any(alias.name in _CACHES for alias in node.names)
    return (isinstance(node, ast.Attribute) and node.attr in _CACHES
            and getattr(node.value, "id", None) == "functools")


def test_bounded_memo_is_the_one_cache():
    """Every cache of the package is a ``corpus.BoundedMemo``, which never
    grows past its size; no ``functools`` cache."""
    assert _package_sites(_names_a_cache) == set()


@pytest.mark.parametrize("source,names", [
    ("from functools import lru_cache", True), ("from functools import partial, cache", True),
    ("from functools import cached_property", True), ("@functools.cache\ndef f(): pass", True),
    ("functools.lru_cache(maxsize=8)(f)", True), ("from functools import partial", False),
    ("functools.reduce(f, xs)", False), ("memo.cache", False),
])
def test_the_scan_sees_each_functools_cache(source, names):
    assert any(map(_names_a_cache, ast.walk(ast.parse(source)))) is names


# the one place a language becomes a profile
PROFILE_RESOLVERS = {"vectorizer.featurize_corpus"}

_RESOLVER = re.compile(r"(?:get|load)_profiles?")


def _resolves_a_profile(node: ast.AST) -> bool:
    """A call, bare or as an attribute, of a function that gets or loads a
    profile or a profile table: ``load_profiles`` and its like."""
    if not isinstance(node, ast.Call):
        return False
    name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
    return name is not None and _RESOLVER.fullmatch(name) is not None


def _reads_builtin_profiles(node: ast.AST) -> bool:
    """A read or an import of ``profiles._BUILTIN_PROFILES``."""
    if isinstance(node, ast.ImportFrom):
        return any(alias.name == "_BUILTIN_PROFILES" for alias in node.names)
    return "_BUILTIN_PROFILES" in (getattr(node, "id", None), getattr(node, "attr", None))


def test_only_featurize_corpus_resolves_a_profile():
    assert _package_sites(_resolves_a_profile) == PROFILE_RESOLVERS
    assert {site.partition(".")[0] for site in _package_sites(_reads_builtin_profiles)} == {"profiles"}


@pytest.mark.parametrize("source,resolves", [
    ("load_profiles(None)", True), ("profiles.load_profiles(path)", True),
    ("load_profile('python')", True), ("table[language]", False), ("load_dictionary(p)", False),
    ("load_profiles_from(p)", False),
])
def test_the_scan_sees_each_way_to_resolve_a_profile(source, resolves):
    assert _resolves_a_profile(ast.parse(source).body[0].value) is resolves


@pytest.mark.parametrize("source,reads", [
    ("_BUILTIN_PROFILES['python']", True), ("profiles._BUILTIN_PROFILES", True),
    ("from .profiles import _BUILTIN_PROFILES", True), ("BUILTIN_PROFILES", False),
])
def test_the_scan_sees_each_read_of_the_builtins(source, reads):
    node = ast.parse(source).body[0]
    assert any(map(_reads_builtin_profiles, ast.walk(node))) is reads


# the rank statistics, each defined in ``stats`` alone
RANK_STATISTICS = {"rankdata", "auc", "auc_rows", "accuracy", "wilcoxon_signed_rank"}


def _rank_statistics_defined(tree: ast.Module) -> set[str]:
    """The rank statistics that a module defines: a def or a class
    anywhere in it, or a module-level assignment, named for one with or
    without leading underscores."""
    names = {node.name for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    for stmt in tree.body:
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
        names.update(getattr(target, "id", "") for target in targets)
    return {name.lstrip("_") for name in names} & RANK_STATISTICS


# what ``stats`` may import at module level
NUMPY_AND_STDLIB = {*sys.stdlib_module_names, "numpy"}


def _imports_beyond(node: ast.AST, allowed: set[str]) -> bool:
    """An import of a package not in ``allowed``; a relative import counts."""
    if isinstance(node, ast.Import):
        return any(alias.name.partition(".")[0] not in allowed for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or node.module.partition(".")[0] not in allowed
    return False


def test_stats_is_the_one_home_of_the_rank_statistics():
    package = ROOT / "src" / "codereadability"
    homes = {}
    for path in sorted(package.rglob("*.py")):
        module = ".".join(path.relative_to(package).with_suffix("").parts)
        for name in _rank_statistics_defined(ast.parse(path.read_text(encoding="utf-8"))):
            homes.setdefault(name, set()).add(module)
    assert homes == dict.fromkeys(RANK_STATISTICS, {"stats"})


def test_stats_imports_numpy_and_the_standard_library_alone():
    """``stats`` imports numpy and the standard library alone, at module
    level and inside its functions."""
    tree = ast.parse((ROOT / "src" / "codereadability" / "stats.py").read_text(encoding="utf-8"))
    assert set(_sites(tree, "stats", lambda node: _imports_beyond(node, NUMPY_AND_STDLIB))) == set()


# the name the package binds numpy to
_ALIASES = {"np": "numpy"}


def _dotted(node: ast.AST) -> str:
    """``a.b.c`` of an attribute chain on a name, ``np`` read as
    ``numpy``; empty for anything else."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return ""
    return ".".join([_ALIASES.get(node.id, node.id), *reversed(parts)])


def _imports(module: str):
    """Whether a node imports ``module`` (a dotted name) or one of its
    submodules: an import statement, an ``__import__`` or
    ``import_module`` call naming one, or an attribute read such as
    ``np.random``, which numpy 2 answers by importing ``numpy.random``."""
    def within(name: str) -> bool:
        return name == module or name.startswith(module + ".")

    def imports(node: ast.AST) -> bool:
        if isinstance(node, ast.Import):
            return any(within(alias.name) for alias in node.names)
        if isinstance(node, ast.ImportFrom):
            return node.level == 0 and (within(node.module) or any(
                within(f"{node.module}.{alias.name}") for alias in node.names))
        if isinstance(node, ast.Call) and (getattr(node.func, "id", None) == "__import__"
                                           or getattr(node.func, "attr", None) == "import_module"):
            return any(isinstance(arg, ast.Constant) and within(str(arg.value))
                       for arg in node.args[:1])
        return isinstance(node, ast.Attribute) and within(_dotted(node))
    return imports


def test_no_module_imports_scipy():
    """scipy is a test dependency: no module of the package imports it,
    at module level or inside a function."""
    assert _package_sites(_imports("scipy")) == set()


def test_no_module_imports_multiprocessing():
    """``fanout`` forks with ``os.fork`` and a pipe: no module of the
    package imports multiprocessing, at module level or inside a function."""
    assert _package_sites(_imports("multiprocessing")) == set()


def test_no_module_imports_numpy_random():
    """The fold shuffle is the package's own port: no module of the
    package imports ``numpy.random`` or reads ``np.random``, at module level
    or inside a function."""
    assert _package_sites(_imports("numpy.random")) == set()


@pytest.mark.parametrize("source,imports", [
    ("import scipy", True), ("import os, scipy.special as sp", True),
    ("from scipy.special import expit", True), ("from scipy import stats", True),
    ("def f():\n    from scipy.special import ndtr", True),
    ("importlib.import_module('scipy.special')", True), ("__import__('scipy')", True),
    ("import numpy as np", False), ("from .stats import ndtr", False),
    ("from . import scipy", False), ("import scipyish", False), ("scipy_version = 1", False),
])
def test_the_scan_sees_each_scipy_import(source, imports):
    assert any(map(_imports("scipy"), ast.walk(ast.parse(source)))) is imports


@pytest.mark.parametrize("source,imports", [
    ("import multiprocessing", True), ("import multiprocessing.connection", True),
    ("from multiprocessing import get_context", True),
    ("from multiprocessing.popen_fork import Popen", True),
    ("def f():\n    import multiprocessing as mp", True),
    ("importlib.import_module('multiprocessing.pool')", True),
    ("import os", False), ("from .fanout import fan_out", False),
    ("multiprocessing_start = 'fork'", False),
])
def test_the_scan_sees_each_multiprocessing_import(source, imports):
    assert any(map(_imports("multiprocessing"), ast.walk(ast.parse(source)))) is imports


@pytest.mark.parametrize("source,imports", [
    ("import numpy.random", True), ("import numpy.random as npr", True),
    ("import os, numpy.random._pcg64", True), ("from numpy.random import default_rng", True),
    ("from numpy import random", True), ("from numpy import linalg, random as r", True),
    ("def f():\n    from numpy.random import Generator", True),
    ("importlib.import_module('numpy.random')", True), ("__import__('numpy.random.mtrand')", True),
    ("np.random.default_rng(0)", True), ("numpy.random.seed(1)", True), ("rng = np.random", True),
    ("def f(a):\n    np.random.shuffle(a)", True),
    ("import numpy as np", False), ("import numpy.linalg", False), ("from numpy import linalg", False),
    ("np.linalg.solve(a, b)", False), ("import random", False), ("random.random()", False),
    ("from .model import _shuffle", False), ("np.random_state", False),
    ("__import__('numpy')", False), ("import numpy.randomx", False), ("rng.random()", False),
])
def test_the_scan_sees_each_numpy_random_import(source, imports):
    assert any(map(_imports("numpy.random"), ast.walk(ast.parse(source)))) is imports


@pytest.mark.parametrize("source,defined", [
    ("def rankdata(a): pass", {"rankdata"}), ("def _auc_rows(s, y): pass", {"auc_rows"}),
    ("def f():\n    def accuracy(s, y): pass", {"accuracy"}), ("auc = roc_auc", {"auc"}),
    ("class wilcoxon_signed_rank: pass", {"wilcoxon_signed_rank"}),
    ("class Report:\n    auc: float", set()), ("from .stats import auc", set()),
    ("def f():\n    auc = 0.5", set()), ("accuracy(scores, y)", set()),
])
def test_the_scan_sees_each_definition_of_a_rank_statistic(source, defined):
    assert _rank_statistics_defined(ast.parse(source)) == defined


@pytest.mark.parametrize("source,beyond", [
    ("import numpy as np", False), ("import numpy.linalg", False),
    ("from math import sqrt", False), ("from __future__ import annotations", False),
    ("from scipy.special import ndtr", True), ("import os, scipy", True),
    ("from . import model", True), ("from .model import predict", True),
])
def test_the_scan_sees_each_import_beyond_numpy_and_the_standard_library(source, beyond):
    node = ast.parse(source).body[0]
    assert _imports_beyond(node, NUMPY_AND_STDLIB) is beyond


def test_star_import_binds_each_name_to_its_submodule_object():
    namespace: dict = {}
    exec("from codereadability import *", namespace)
    for module, names in EXPORTS.items():
        home = importlib.import_module(f"codereadability.{module}")
        for name in names:
            assert namespace[name] is getattr(home, name), name
            assert getattr(codereadability, name) is getattr(home, name), name


def test_dir_lists_the_public_names_and_modules():
    listed = dir(codereadability)
    assert set(codereadability.__all__) <= set(listed)
    assert {"analytics", "model"} <= set(listed)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        codereadability.no_such_name


_LOADED = """
import json, sys
import codereadability.cli
import codereadability
print(json.dumps({
    "modules": sorted(m for m in ("codereadability.model", "codereadability.analytics")
                      if m in sys.modules),
    "scipy": sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"),
    "fork stack": sorted(m for m in sys.modules
                         if m.partition(".")[0] in ("multiprocessing", "socket", "selectors")),
    "rng stack": sorted(m for m in sys.modules
                        if m.partition(".")[0] in ("secrets", "hmac", "hashlib", "_hashlib")
                        or m == "numpy.random" or m.startswith("numpy.random.")),
    "same": [getattr(codereadability, name) is getattr(getattr(codereadability, home), name)
             for home, name in (("model", "evaluate"), ("analytics", "paired_compare"))],
}))
"""


def test_the_cli_loads_every_module_and_no_scipy():
    """In a fresh process, ``import codereadability.cli`` loads the model
    and the analytics up front, and each package name is its module's
    object. No scipy module is loaded, and none of ``multiprocessing``,
    ``socket`` or ``selectors``: the fan-out forks with ``os``. No
    ``numpy.random`` module is loaded either, nor ``secrets``, ``hmac`` or
    ``hashlib``: the fold shuffle is the package's own."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", _LOADED], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "modules": ["codereadability.analytics", "codereadability.model"],
        "scipy": [], "fork stack": [], "rng stack": [], "same": [True, True]}
