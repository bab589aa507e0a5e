"""The profile table comes from the configuration of each call.

``[lexical] profiles`` names an INI file whose sections add languages or
override built-in ones. Every call that takes the configuration (CLI and
library) featurizes under that table, and no call leaves it behind for
the next one.
"""

import csv
import dataclasses
import os
import re
import subprocess
import sys
from itertools import chain
from pathlib import Path

import numpy as np
import pytest

from codereadability import analytics, vectorizer
from codereadability.analytics import score_corpus, write_score_table
from codereadability.cli import main
from codereadability.config import load_config
from codereadability.corpus import load_labeled_dataset
from codereadability.model import ReadabilityModel, ScalerParams, save_model
from codereadability.profiles import (
    CUDA_PROFILE,
    JAVA_PROFILE,
    PYTHON_PROFILE,
    LanguageProfile,
    load_profiles,
)
from codereadability.vectorizer import N_FEATURES, featurize, featurize_corpus, write_feature_matrix

ROOT = Path(__file__).resolve().parent.parent

# a [python] section that lexes differently from the built-in one (``//``
# comments, no docstrings) and a language only the INI defines
PROFILES_INI = (
    "[python]\nkeywords = def return if\nline_comments = //\nstrings = \"\n"
    "[rust]\nkeywords = fn let mut return\nline_comments = //\n"
    "block_comments = /* */\nstrings = \"\n"
)
PYTHON_SOURCE = ('# Add two numbers.\ndef add(first, second):\n'
                 '    """Sum."""\n    total = first + second  // not python\n    return total\n')
RUST_SOURCE = "fn add(a: i32, b: i32) -> i32 {\n    a + b // sum\n}\n"


@pytest.fixture
def setup(tmp_path):
    """A config naming the profile INI, and a manifest of python and rust snippets."""
    (tmp_path / "profiles.ini").write_text(PROFILES_INI, encoding="utf-8")
    config = tmp_path / "conf.ini"
    config.write_text(f"[lexical]\nprofiles = {tmp_path / 'profiles.ini'}\n", encoding="utf-8")
    data = tmp_path / "data"
    data.mkdir()
    (data / "add.py").write_text(PYTHON_SOURCE, encoding="utf-8")
    (data / "add.rs").write_text(RUST_SOURCE, encoding="utf-8")
    manifest = data / "manifest.csv"
    with open(manifest, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([("id", "path", "language", "label"),
                                  ("py", "add.py", "python", 1), ("rs", "add.rs", "rust", 0)])
    return config, manifest


def _fresh_process_featurize(args, out):
    """``featurize`` in a new interpreter, with nothing left by earlier calls."""
    code = ("import sys; from codereadability.cli import main; "
            "sys.exit(main(sys.argv[1:]))")
    subprocess.run([sys.executable, "-c", code, "featurize", *args, "--out", str(out)],
                   env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, check=True, timeout=120)
    return out.read_bytes()


def test_ini_override_does_not_leak_into_a_later_call(setup, tmp_path, capsys):
    config, manifest = setup
    py_only = tmp_path / "py"
    py_only.mkdir()
    (py_only / "add.py").write_text(PYTHON_SOURCE, encoding="utf-8")

    with_ini, later = tmp_path / "with_ini.csv", tmp_path / "later.csv"
    assert main(["--config", str(config), "featurize", "--in", str(py_only),
                 "--out", str(with_ini)]) == 0
    assert main(["featurize", "--in", str(py_only), "--out", str(later)]) == 0
    fresh = _fresh_process_featurize(["--in", str(py_only)], tmp_path / "fresh.csv")
    assert later.read_bytes() == fresh
    assert with_ini.read_bytes() != fresh  # the [python] override took effect

    capsys.readouterr()
    rust_only = tmp_path / "rs"
    rust_only.mkdir()
    (rust_only / "add.rs").write_text(RUST_SOURCE, encoding="utf-8")
    assert main(["featurize", "--in", str(rust_only), "--lang", "rust",
                 "--out", str(tmp_path / "rust.csv")]) == 3
    assert "unsupported language 'rust'" in capsys.readouterr().err
    # and a manifest naming rust fails the same way without the config
    assert main(["featurize", "--in", str(manifest), "--out", str(tmp_path / "m.csv")]) == 3


def test_library_calls_use_the_config_profiles(setup, tmp_path, bundled_dict):
    config, manifest = setup
    cfg = load_config(config)
    snippets = load_labeled_dataset(manifest).snippets

    # the library first, so nothing a CLI call might leave behind can help it
    matrix = featurize_corpus(snippets, config=cfg)
    singles = np.vstack([featurize_corpus([s], config=cfg) for s in snippets])
    model = ReadabilityModel(scaler=ScalerParams(mu=np.zeros(N_FEATURES), sigma=np.ones(N_FEATURES)),
                             selected=tuple(range(N_FEATURES)),
                             weights=np.random.default_rng(0).normal(size=N_FEATURES) / 10,
                             intercept=0.1, lambda_l2=1.0)
    table = score_corpus(model, snippets, config=cfg)

    python_default = featurize(snippets[0], PYTHON_PROFILE, bundled_dict)
    assert not np.array_equal(matrix[0], python_default)  # the INI [python] profile was used
    assert np.array_equal(singles, matrix)

    write_feature_matrix(tmp_path / "lib.csv", [s.id for s in snippets], matrix)
    write_score_table(table, tmp_path / "lib_scores.csv")
    save_model(model, tmp_path / "model.json")
    assert main(["--config", str(config), "featurize", "--in", str(manifest),
                 "--out", str(tmp_path / "cli.csv")]) == 0
    assert main(["--config", str(config), "score", "--model", str(tmp_path / "model.json"),
                 "--in", str(manifest), "--out", str(tmp_path / "cli_scores.csv")]) == 0
    assert (tmp_path / "lib.csv").read_bytes() == (tmp_path / "cli.csv").read_bytes()
    assert (tmp_path / "lib_scores.csv").read_bytes() == (tmp_path / "cli_scores.csv").read_bytes()


def test_unsupported_language_names_its_snippet_before_any_is_featurized(tmp_path, capsys,
                                                                        monkeypatch, bundled_dict):
    (tmp_path / "a.py").write_text(PYTHON_SOURCE, encoding="utf-8")
    (tmp_path / "b.kl").write_text("qaStaH nuq\n", encoding="utf-8")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("id,path,language,label\na,a.py,python,1\nb,b.kl,klingon,0\n",
                        encoding="utf-8")
    model = tmp_path / "model.json"
    save_model(ReadabilityModel(scaler=ScalerParams(mu=np.zeros(N_FEATURES), sigma=np.ones(N_FEATURES)),
                                selected=(0,), weights=np.ones(1), intercept=0.0, lambda_l2=1.0),
               model)
    featurized = []
    for module in (vectorizer, analytics):
        monkeypatch.setattr(module, "featurize",
                            lambda *args, inner=module.featurize, **kw: featurized.append(args[0].id)
                            or inner(*args, **kw))
    for argv in (["featurize", "--in", str(manifest), "--out", str(tmp_path / "m.csv")],
                 ["score", "--model", str(model), "--in", str(manifest),
                  "--out", str(tmp_path / "s.csv")]):
        assert main(argv) == 3
        assert ("ERROR codereadability: snippet 'b': unsupported language 'klingon'\n"
                in capsys.readouterr().err)
    assert featurized == []
    with pytest.raises(ValueError, match=r"^snippet 'b': unsupported language 'klingon'$"):
        featurize_corpus(load_labeled_dataset(manifest).snippets, d=bundled_dict)


def test_compare_does_not_read_the_profile_ini(tmp_path):
    config = tmp_path / "conf.ini"
    config.write_text(f"[lexical]\nprofiles = {tmp_path / 'missing.ini'}\n", encoding="utf-8")
    for side in ("a", "b"):
        (tmp_path / f"{side}.csv").write_text("id,linear_score,probability\nx,0.5,0.6\n",
                                              encoding="utf-8")
    assert main(["--config", str(config), "compare", "--a", str(tmp_path / "a.csv"),
                 "--b", str(tmp_path / "b.csv"), "--out", str(tmp_path / "r.txt")]) == 0


def test_profile_table_is_builtins_overlaid_by_ini(tmp_path):
    path = tmp_path / "profiles.ini"
    path.write_text(PROFILES_INI, encoding="utf-8")
    table = load_profiles(path)
    assert set(table) == {"python", "java", "cuda", "generic", "rust"}
    assert table["python"].line_comment_markers == ("//",)
    assert table["generic"] is PYTHON_PROFILE  # only named sections are replaced
    assert load_profiles(None) == {"python": PYTHON_PROFILE, "java": JAVA_PROFILE,
                                   "cuda": CUDA_PROFILE, "generic": PYTHON_PROFILE}
    table["python"] = table["rust"]  # a caller's table is its own
    assert load_profiles(None)["python"] is PYTHON_PROFILE
    with pytest.raises(KeyError):
        load_profiles(None)["rust"]


def test_profile_ini_keys(tmp_path):
    path = tmp_path / "profiles.ini"
    path.write_text("[DEFAULT]\nops = = +=\nnote = a [DEFAULT] key no profile reads\n\n"
                    "[mylang]\nkeywords = fn let\nassignment_ops = %(ops)s\n"
                    "punctuation = ( ) ; ,\narithmetic_ops = + %%\n", encoding="utf-8")
    profile = load_profiles(path)["mylang"]
    assert profile.assignment_ops == ("=", "+=")
    assert profile.arithmetic_ops == ("+", "%")
    assert profile.punctuation == ("(", ")", ";", ",")  # a ";" is a token, not a comment
    path.write_text("[mylang]\nkeyword = fn let\n", encoding="utf-8")
    with pytest.raises(ValueError, match=rf"{re.escape(str(path))}: unknown key 'keyword' "
                                         r"in section \[mylang\]; it takes keywords, "):
        load_profiles(path)


# each profile INI key and the LanguageProfile field it sets
PROFILE_KEYS = {
    "keywords": "keyword_set", "line_comments": "line_comment_markers",
    "block_comments": "block_comment_delims", "strings": "string_delims",
    "builtins": "builtin_names", "branch_keywords": "branch_keywords",
    "loop_keywords": "loop_keywords", "assignment_ops": "assignment_ops",
    "arithmetic_ops": "arithmetic_ops", "comparison_ops": "comparison_ops",
    "punctuation": "punctuation", "docstring_delims": "docstring_delims",
}


@pytest.mark.parametrize("builtin", [PYTHON_PROFILE, JAVA_PROFILE, CUDA_PROFILE],
                         ids=lambda profile: profile.name)
def test_a_builtin_profile_written_through_every_key_loads_back_equal(tmp_path, builtin):
    def tokens(value):
        if isinstance(value, frozenset):
            value = sorted(value)
        elif value and isinstance(value[0], tuple):  # block comment pairs
            value = chain.from_iterable(value)
        return " ".join(value).replace("%", "%%")

    path = tmp_path / "profiles.ini"
    path.write_text("[mine]\n" + "".join(f"{key} = {tokens(getattr(builtin, field))}\n"
                                         for key, field in PROFILE_KEYS.items()),
                    encoding="utf-8")
    assert dataclasses.replace(load_profiles(path)["mine"], name=builtin.name) == builtin


def test_a_profile_key_left_out_takes_its_documented_value(tmp_path):
    path = tmp_path / "profiles.ini"
    path.write_text("[empty]\n", encoding="utf-8")
    assert load_profiles(path)["empty"] == LanguageProfile(
        name="empty", keyword_set=frozenset(), line_comment_markers=(), block_comment_delims=(),
        string_delims=('"',), branch_keywords=frozenset({"if"}),
        loop_keywords=frozenset({"for", "while"}), assignment_ops=PYTHON_PROFILE.assignment_ops,
        arithmetic_ops=PYTHON_PROFILE.arithmetic_ops, comparison_ops=PYTHON_PROFILE.comparison_ops,
        punctuation=PYTHON_PROFILE.punctuation)
