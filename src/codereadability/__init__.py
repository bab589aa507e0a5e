"""Code readability measurement toolkit.

Turns source snippets into a fixed 61-feature representation spanning
textual, formatting, information-theoretic, and visual signals; trains
and evaluates a logistic-regression readability classifier with forward
feature selection; scores corpora; and compares paired corpora with a
Wilcoxon signed-rank test.

Every module loads with the package, and none imports anything beyond
numpy and the standard library: the sigmoid (``model``) and the normal
tail of the signed-rank test (``stats``) compute the bits of
``scipy.special``'s ``expit`` and ``ndtr`` without it.
"""

from .analytics import (
    ComparisonReport,
    ScoreTable,
    paired_compare,
    render_report,
    score_corpus,
)
from .config import AnalysisConfig, load_config
from .corpus import (
    LabeledDataset,
    Snippet,
    load_labeled_dataset,
    load_snippet,
    preprocess,
)
from .dictionary import DictionaryProvider, count_syllables, load_dictionary
from .lexical import extract_blocks, split_identifier, tokenize
from .model import (
    EvaluationReport,
    ReadabilityModel,
    evaluate,
    fit_scaler,
    load_model,
    predict,
    save_model,
    sfs,
    stratified_folds,
    train_logreg,
    train_model,
)
from .profiles import LanguageProfile, load_profiles
from .stats import auc, wilcoxon_signed_rank
from .vectorizer import (
    SCHEMA_VERSION,
    family_indices,
    featurize,
    featurize_corpus,
    schema,
    schema_names,
)

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
