"""Fixed-order 61-dimensional feature vector and its named schema.

Family blocks: 16 textual, 26 formatting, 4 information-theoretic,
15 visual, concatenated in that order. A degenerate (empty) snippet maps
to the all-zero vector.

``featurize`` can be asked for some columns only. One table names the
feature layer that fills each column: a TF group of
``features.TF_GROUPS``, or ``bwf``, ``pf`` or ``df``. Only the layers of
the wanted columns run, after the lexer and, for ``tf.text_coherence``,
block extraction. The columns that are not wanted are NaN.

``featurize`` takes the snippet's language profile and the dictionary;
``featurize_corpus``, the one corpus featurizer, loads the profile table
and the dictionary once per corpus. It featurizes each snippet on its
own, so ``fanout.fan_out`` cuts the snippets into contiguous runs
of about equal line count, one per available CPU at most; its matrix has
the same bits at any CPU count.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import AnalysisConfig
from .corpus import Snippet, read_id_table, write_table
from .dictionary import DictionaryProvider, load_dictionary
from .fanout import fan_out
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
from .profiles import LanguageProfile, load_profiles

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
_MATRIX_COLUMNS = ("id", *(spec.name for spec in _SCHEMA))
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


# the feature layer that fills each schema column: ``tf.<group>`` for the
# group of ``features.TF_GROUPS`` with its field, else the family's name
_TF_LAYERS = {f"tf.{name}": f"tf.{group}" for group, names in TF_GROUPS.items() for name in names}
_COLUMN_LAYERS = tuple(_TF_LAYERS.get(spec.name, spec.family.lower()) for spec in _SCHEMA)
# the layers in run order
_LAYER_ORDER = (*(f"tf.{group}" for group in TF_GROUPS), *(family.lower() for family in FAMILIES[1:]))


def feature_layers(columns=None) -> list[str]:
    """The feature layers ``featurize`` runs on a non-empty snippet for
    ``columns`` (all 61 for None), in run order: ``tokenize``,
    ``extract_blocks``, ``tf.<group>`` for each group of
    ``features.TF_GROUPS``, ``bwf``, ``pf`` and ``df``."""
    columns = range(N_FEATURES) if columns is None else tuple(columns)
    if not all(0 <= i < N_FEATURES for i in columns):
        raise ValueError(f"feature columns must lie in [0, {N_FEATURES}), got {list(columns)}")
    read = {_COLUMN_LAYERS[i] for i in columns}
    if not read:
        return []
    first = ["tokenize", "extract_blocks"] if "tf.text_coherence" in read else ["tokenize"]
    return [*first, *(layer for layer in _LAYER_ORDER if layer in read)]


_TF, _BWF, _PF, _DF = (slice(idx[0], idx[-1] + 1) for idx in map(family_indices, FAMILIES))


def featurize(s: Snippet, p: LanguageProfile, d: DictionaryProvider,
              config: AnalysisConfig | None = None, columns=None) -> np.ndarray:
    """The (61,) float64 feature vector of a preprocessed snippet, lexed
    under ``p`` with ``d`` as its dictionary.

    ``columns`` lists the wanted schema column indices (all 61 for None).
    Only the feature work those columns read runs (see
    :func:`feature_layers`); each wanted value has the bits it has in the
    full vector, and every other value is NaN.
    """
    if config is None:
        config = AnalysisConfig()
    columns = None if columns is None else tuple(columns)
    layers = feature_layers(columns)

    # an empty snippet has no evidence at all: every feature takes its default
    values = np.zeros(N_FEATURES)
    if s.lines and layers:
        profile = tokenize(s, p, tab_width=config.tab_width)
        groups = [group for group in TF_GROUPS if f"tf.{group}" in layers]
        if groups:  # the block sets are bound to no name here: compute_tf frees them after TC
            values[_TF] = compute_tf(profile, extract_blocks(profile) if "extract_blocks" in layers else [],
                                     d, config.dbscan_eps, config.dbscan_min_samples, groups)
        if "bwf" in layers:
            values[_BWF] = compute_bwf(profile)
        if "pf" in layers:
            values[_PF] = compute_pf(profile)
        if "df" in layers:
            values[_DF] = compute_df(profile, d)
    if columns is not None:  # every column nobody asked for is NaN
        wanted = np.zeros(N_FEATURES, dtype=bool)
        wanted[list(columns)] = True
        values[~wanted] = np.nan
    return values


def featurize_corpus(snippets: list[Snippet], d: DictionaryProvider | None = None,
                     config: AnalysisConfig | None = None, columns=None) -> np.ndarray:
    """Feature matrix for a snippet list: one :func:`featurize` row per
    snippet in input order, under its language's profile in the profile
    table of ``config``; an unsupported language raises ``ValueError``
    naming its snippet. The profile table and, without ``d``, the
    dictionary are loaded once per call. :func:`fanout.fan_out` cuts the
    snippets into contiguous runs of about equal line count, one per
    available CPU at most; the matrix has the same bits at any CPU count,
    and the log records come in snippet order.
    """
    if config is None:
        config = AnalysisConfig()
    if d is None:
        d = load_dictionary(config.dictionary_path)
    table = load_profiles(config.profiles_path)
    for s in snippets:
        if s.language not in table:
            raise ValueError(f"snippet {s.id!r}: unsupported language {s.language!r}")
    rows = fan_out(lambda i: featurize(snippets[i], table[snippets[i].language], d, config, columns),
                   [len(s.lines) for s in snippets])
    return np.array(rows).reshape(len(snippets), N_FEATURES)


# --------------------------------------------------------------------------
# Feature matrix files
# --------------------------------------------------------------------------

def write_feature_matrix(path: str | Path, ids: list[str], matrix: np.ndarray) -> None:
    """CSV with header ``id`` + 61 schema names; 12 significant digits."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.shape != (len(ids), N_FEATURES):
        raise ValueError(f"matrix must be ({len(ids)}, {N_FEATURES}) for {len(ids)} ids, "
                         f"got {matrix.shape}")
    write_table(path, _MATRIX_COLUMNS, ([sid, *row.tolist()] for sid, row in zip(ids, matrix)))


def read_feature_matrix(path: str | Path) -> tuple[list[str], np.ndarray]:
    """The ids and (n, 61) matrix of a :func:`corpus.read_table` file; NaN stays."""
    return read_id_table(path, _MATRIX_COLUMNS, "feature matrix")
