"""The package namespace: the public names, and which modules importing
it loads."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import codereadability

ROOT = Path(__file__).resolve().parent.parent

EXPORTS = {
    "analytics": ["ComparisonReport", "ScoreTable", "paired_compare", "render_report",
                  "score_corpus", "wilcoxon_signed_rank"],
    "config": ["AnalysisConfig", "load_config"],
    "corpus": ["LabeledDataset", "Snippet", "load_labeled_dataset", "load_snippet",
               "preprocess", "save_labeled_dataset"],
    "dictionary": ["DictionaryProvider", "count_syllables", "load_dictionary"],
    "lexical": ["extract_blocks", "split_identifier", "tokenize"],
    "model": ["EvaluationReport", "ReadabilityModel", "auc", "evaluate", "fit_scaler",
              "load_model", "predict", "save_model", "sfs", "stratified_folds",
              "train_logreg", "train_model"],
    "profiles": ["LanguageProfile", "get_profile", "load_profiles"],
    "vectorizer": ["SCHEMA_VERSION", "family_indices", "featurize",
                   "featurize_corpus", "schema", "schema_names"],
}


def test_all_lists_the_public_names():
    assert sorted(codereadability.__all__) == sorted(n for names in EXPORTS.values() for n in names)


def test_star_import_binds_each_name_to_its_submodule_object():
    namespace: dict = {}
    exec("from codereadability import *", namespace)
    for module, names in EXPORTS.items():
        home = importlib.import_module(f"codereadability.{module}")
        for name in names:
            assert namespace[name] is getattr(home, name), name
            assert getattr(codereadability, name) is getattr(home, name), name


def test_dir_lists_lazy_names():
    listed = dir(codereadability)
    assert set(codereadability.__all__) <= set(listed)
    assert {"analytics", "model"} <= set(listed)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        codereadability.no_such_name


_LOADED = """
import json, sys

def loaded():
    return {"model": "codereadability.model" in sys.modules,
            "analytics": "codereadability.analytics" in sys.modules,
            "multiprocessing": "multiprocessing" in sys.modules,
            "scipy": sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")}

steps = {}
import codereadability.cli
steps["cli"] = loaded()
import codereadability
codereadability.auc
steps["auc"] = loaded()
codereadability.paired_compare
steps["paired_compare"] = loaded()
print(json.dumps(steps))
"""


def test_modules_load_on_first_access():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", _LOADED], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    steps = json.loads(proc.stdout)
    assert steps["cli"] == {"model": False, "analytics": False, "multiprocessing": False,
                            "scipy": []}
    assert steps["auc"]["model"] and not steps["auc"]["analytics"]
    # only a fan-out over two CPUs or more loads multiprocessing
    assert not steps["auc"]["multiprocessing"]
    assert "scipy.special" in steps["auc"]["scipy"]
    assert steps["paired_compare"]["analytics"]
    assert not [m for m in steps["paired_compare"]["scipy"] if m.startswith("scipy.stats")]
