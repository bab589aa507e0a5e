"""Code readability measurement toolkit.

Turns source snippets into a fixed 61-feature representation spanning
textual, formatting, information-theoretic, and visual signals; trains
and evaluates a logistic-regression readability classifier with forward
feature selection; scores corpora; and compares paired corpora with a
Wilcoxon signed-rank test.

The scoring and statistics names (``analytics`` and ``model``) are
imported on first access, so code that only featurizes never loads them
or scipy.
"""

import importlib

from .config import AnalysisConfig, load_config
from .corpus import (
    LabeledDataset,
    Snippet,
    load_labeled_dataset,
    load_snippet,
    preprocess,
    save_labeled_dataset,
)
from .dictionary import DictionaryProvider, count_syllables, load_dictionary
from .lexical import extract_blocks, split_identifier, tokenize
from .profiles import LanguageProfile, get_profile, load_profiles
from .vectorizer import (
    SCHEMA_VERSION,
    family_indices,
    featurize,
    featurize_corpus,
    schema,
    schema_names,
)

# the submodules and the names taken from them, resolved on first access (PEP 562)
_LAZY_MODULES = ("analytics", "model")
_LAZY = {
    **dict.fromkeys(("ComparisonReport", "ScoreTable", "paired_compare", "render_report",
                     "score_corpus", "wilcoxon_signed_rank"), "analytics"),
    **dict.fromkeys(("EvaluationReport", "ReadabilityModel", "auc", "evaluate", "fit_scaler",
                     "load_model", "predict", "save_model", "sfs", "stratified_folds",
                     "train_logreg", "train_model"), "model"),
}

__version__ = "0.1.0"

__all__ = [
    "AnalysisConfig",
    "ComparisonReport",
    "DictionaryProvider",
    "EvaluationReport",
    "LabeledDataset",
    "LanguageProfile",
    "ReadabilityModel",
    "SCHEMA_VERSION",
    "ScoreTable",
    "Snippet",
    "auc",
    "count_syllables",
    "evaluate",
    "extract_blocks",
    "family_indices",
    "featurize",
    "featurize_corpus",
    "fit_scaler",
    "get_profile",
    "load_config",
    "load_dictionary",
    "load_labeled_dataset",
    "load_model",
    "load_profiles",
    "load_snippet",
    "paired_compare",
    "predict",
    "preprocess",
    "render_report",
    "save_labeled_dataset",
    "save_model",
    "schema",
    "schema_names",
    "score_corpus",
    "sfs",
    "split_identifier",
    "stratified_folds",
    "tokenize",
    "train_logreg",
    "train_model",
    "wilcoxon_signed_rank",
]


def __getattr__(name):
    if name in _LAZY_MODULES:
        return importlib.import_module(f".{name}", __name__)
    if name in _LAZY:
        value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_LAZY) | set(_LAZY_MODULES))
