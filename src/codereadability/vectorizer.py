"""Fixed-order 61-dimensional feature vector and its named schema.

Family blocks: 16 textual, 26 formatting, 4 information-theoretic,
15 visual, concatenated in that order. A degenerate (empty) snippet maps
to the all-zero vector.

``featurize`` can be asked for some columns only. Each piece of feature
work then runs only when one of its columns is wanted: the lexer for any
column, block extraction for ``tf.tc_*``, each TF group of
``features.TF_GROUPS`` for its fields, and BWF, PF and DF for any column
of their family. The columns that are not wanted are NaN.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .config import AnalysisConfig
from .corpus import Snippet
from .dictionary import DictionaryProvider, load_dictionary
from .features import (
    BwfFeatures,
    DfFeatures,
    PfFeatures,
    TF_GROUPS,
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
    """One spec per field of each family's record, in field order."""
    return tuple(FeatureSpec(f"{family.lower()}.{name}", family)
                 for family, cls in zip(FAMILIES, (TfFeatures, BwfFeatures, PfFeatures, DfFeatures))
                 for name in cls._fields)


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


class _ColumnPlan(NamedTuple):
    """The feature work behind a set of wanted schema columns."""
    wanted: np.ndarray          # bool, one per schema column (read-only)
    tf_fields: frozenset[str]   # the wanted ``TfFeatures`` fields
    layers: tuple[str, ...]     # the feature layers they need, in run order


@lru_cache(maxsize=64)
def _column_plan(columns: tuple[int, ...] | None) -> _ColumnPlan:
    wanted = np.zeros(N_FEATURES, dtype=bool)
    if columns is None:
        wanted[:] = True
    elif columns:
        if not all(0 <= i < N_FEATURES for i in columns):
            raise ValueError(f"feature columns must lie in [0, {N_FEATURES}), got {list(columns)}")
        wanted[list(columns)] = True
    wanted.flags.writeable = False
    specs = [spec for spec, w in zip(_SCHEMA, wanted) if w]
    tf_fields = frozenset(spec.name[3:] for spec in specs if spec.family == "TF")
    tf_groups = [f"tf.{group}" for group, names in TF_GROUPS.items()
                 if not tf_fields.isdisjoint(names)]
    layers = ["tokenize"] if specs else []
    if "tf.text_coherence" in tf_groups:
        layers.append("extract_blocks")
    layers += tf_groups
    layers += [family.lower() for family in FAMILIES[1:]
               if any(spec.family == family for spec in specs)]
    return _ColumnPlan(wanted, tf_fields, tuple(layers))


def feature_layers(columns=None) -> list[str]:
    """The feature layers ``featurize`` runs on a non-empty snippet for
    ``columns`` (all 61 for None), in run order: ``tokenize``,
    ``extract_blocks``, ``tf.<group>`` for each group of
    ``features.TF_GROUPS``, ``bwf``, ``pf`` and ``df``."""
    return list(_column_plan(None if columns is None else tuple(columns)).layers)


_TF, _BWF, _PF, _DF = (slice(idx[0], idx[-1] + 1) for idx in map(family_indices, FAMILIES))


def featurize(s: Snippet, p: LanguageProfile | None = None,
              d: DictionaryProvider | None = None,
              config: AnalysisConfig | None = None,
              columns=None) -> np.ndarray:
    """The (61,) float64 feature vector of a preprocessed snippet.

    ``columns`` lists the wanted schema column indices (all 61 for None).
    Only the feature work those columns read runs (see
    :func:`feature_layers`); each wanted value has the bits it has in the
    full vector, and every other value is NaN.

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
    plan = _column_plan(None if columns is None else tuple(columns))

    # an empty snippet has no evidence at all: every feature takes its default
    values = np.zeros(N_FEATURES)
    if s.lines and plan.layers:
        profile = tokenize(s, p, tab_width=config.tab_width)
        if plan.tf_fields:
            blocks = extract_blocks(profile) if "extract_blocks" in plan.layers else []
            values[_TF] = compute_tf(profile, blocks, d, config.dbscan_eps,
                                     config.dbscan_min_samples, plan.tf_fields)
        if "bwf" in plan.layers:
            values[_BWF] = compute_bwf(profile)
        if "pf" in plan.layers:
            values[_PF] = compute_pf(profile)
        if "df" in plan.layers:
            values[_DF] = compute_df(profile, d)
    values[~plan.wanted] = np.nan
    return values


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
        row[:] = featurize(s, get_profile(s.language, table), d, config)
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
