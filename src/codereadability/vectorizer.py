"""Fixed-order 61-dimensional feature vector and its named schema.

Family blocks: 16 textual, 26 formatting, 4 information-theoretic,
15 visual, concatenated in that order. A degenerate (empty) snippet maps
to the all-zero vector.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .config import AnalysisConfig
from .corpus import Snippet
from .dictionary import DictionaryProvider, load_dictionary
from .features import (
    BwfFeatures,
    DfFeatures,
    PfFeatures,
    TfFeatures,
    compute_bwf,
    compute_df,
    compute_pf,
    compute_tf,
)
from .lexical import extract_blocks, tokenize
from .profiles import LanguageProfile, get_profile, load_profiles

SCHEMA_VERSION = "1.0"

FAMILIES = ("TF", "BWF", "PF", "DF")


@dataclass(frozen=True)
class FeatureSpec:
    name: str
    family: str


def _build_schema() -> tuple[FeatureSpec, ...]:
    """One spec per field of each family's dataclass, in field order."""
    return tuple(FeatureSpec(f"{family.lower()}.{f.name}", family)
                 for family, cls in zip(FAMILIES, (TfFeatures, BwfFeatures, PfFeatures, DfFeatures))
                 for f in fields(cls))


_SCHEMA = _build_schema()
N_FEATURES = len(_SCHEMA)
assert N_FEATURES == 61


def schema() -> list[FeatureSpec]:
    """Stable, version-stamped feature schema (name, family) in vector order."""
    return list(_SCHEMA)


def schema_names() -> list[str]:
    return [spec.name for spec in _SCHEMA]


def family_indices(family: str) -> list[int]:
    """Column indices of one family, or all 61 for 'all'."""
    family = family.upper()
    if family == "ALL":
        return list(range(N_FEATURES))
    if family not in FAMILIES:
        raise ValueError(f"unknown feature family {family!r}")
    return [i for i, spec in enumerate(_SCHEMA) if spec.family == family]


@dataclass(frozen=True)
class FeatureVector:
    values: np.ndarray  # shape (61,), float64

    def __post_init__(self):
        if self.values.shape != (N_FEATURES,):
            raise ValueError(f"expected {N_FEATURES} features, got {self.values.shape}")


def featurize(s: Snippet, p: LanguageProfile | None = None,
              d: DictionaryProvider | None = None,
              config: AnalysisConfig | None = None) -> FeatureVector:
    """Compute the full 61-feature vector for a preprocessed snippet.

    Without ``p`` the snippet's language is looked up in the profile table
    of ``config`` (the built-ins and its ``profiles_path``, read on each such
    call); an unsupported language raises ``ValueError``.
    """
    if config is None:
        config = AnalysisConfig()
    if p is None:
        p = get_profile(s.language, load_profiles(config.profiles_path))
    if d is None:
        d = load_dictionary(config.dictionary_path)

    if not s.lines:
        # no evidence at all: every feature takes its default
        return FeatureVector(values=np.zeros(N_FEATURES))

    profile = tokenize(s, p, tab_width=config.tab_width)
    blocks = extract_blocks(s, p, profile=profile)
    tf = compute_tf(profile, blocks, d, config.dbscan_eps, config.dbscan_min_samples)
    bwf = compute_bwf(profile)
    pf = compute_pf(profile)
    df = compute_df(profile, d)
    values = np.array(
        tf.as_tuple() + bwf.as_tuple() + pf.as_tuple() + df.as_tuple(),
        dtype=np.float64,
    )
    return FeatureVector(values=values)


def featurize_corpus(snippets: list[Snippet], d: DictionaryProvider | None = None,
                     config: AnalysisConfig | None = None) -> np.ndarray:
    """Feature matrix for a snippet list, one row per snippet in input order.

    The profile table of ``config`` is built once; each snippet is
    featurized under its language's profile in it.
    """
    if config is None:
        config = AnalysisConfig()
    if d is None:
        d = load_dictionary(config.dictionary_path)
    table = load_profiles(config.profiles_path)
    matrix = np.empty((len(snippets), N_FEATURES))
    for row, s in zip(matrix, snippets):
        row[:] = featurize(s, get_profile(s.language, table), d, config).values
    return matrix


# --------------------------------------------------------------------------
# Feature matrix files
# --------------------------------------------------------------------------

def write_feature_matrix(path: str | Path, ids: list[str], matrix: np.ndarray) -> None:
    """CSV with header ``id`` + 61 schema names; 12 significant digits."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[1] != N_FEATURES:
        raise ValueError(f"matrix must be (n, {N_FEATURES}), got {matrix.shape}")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id"] + schema_names())
        for sid, row in zip(ids, matrix):
            writer.writerow([sid] + [f"{v:.12g}" for v in row])


def read_feature_matrix(path: str | Path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        expected = ["id"] + schema_names()
        if header != expected:
            raise ValueError(f"feature matrix header does not match schema {SCHEMA_VERSION}")
        ids: list[str] = []
        rows: list[list[float]] = []
        for row in reader:
            ids.append(row[0])
            rows.append([float(v) for v in row[1:]])
    matrix = np.array(rows, dtype=np.float64) if rows else np.empty((0, N_FEATURES))
    return ids, matrix
