"""Oracle for featurizing some columns only.

``featurize(s, columns=c)`` must give every wanted column the bits of
the full vector (``tobytes``) and NaN everywhere else, for each column
alone, Hypothesis subsets and all 61, and ``featurize_corpus(snippets,
columns=c)`` must be those rows stacked. ``score_corpus``, which featurizes
the model's columns only, must give the ``.hex()`` of ``predict`` on the
full vector. A model that reads one column must not run the feature work
of any other.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from codereadability import vectorizer
from codereadability.analytics import score_corpus
from codereadability.corpus import load_snippet, preprocess
from codereadability.features import TF_GROUPS, TfFeatures, compute_tf, tf
from codereadability.lexical import extract_blocks, tokenize
from codereadability.model import ReadabilityModel, ScalerParams, predict
from codereadability.profiles import get_profile
from codereadability.vectorizer import (
    N_FEATURES,
    feature_layers,
    featurize,
    featurize_corpus,
    schema_names,
)

from conftest import snip
from lexer_samples import fixture_snippets
from test_fuzz_featurize import source_texts

ROOT = Path(__file__).resolve().parent.parent
NAMES = schema_names()


def _samples():
    # the fixtures, an empty snippet, and windows of this repository's
    # sources with many blocks and repeated lines
    source = (ROOT / "src" / "codereadability" / "features" / "tf.py").read_text(encoding="utf-8")
    lines = source.splitlines()
    windows = [preprocess(load_snippet("\n".join(lines[i:i + 120]), "python", f"tf{i}"))
               for i in (0, 200, 400)]
    return fixture_snippets() + [snip("", id="empty")] + windows


SAMPLES = _samples()
FULL = {s.id: featurize(s) for s in SAMPLES}


def assert_only(values: np.ndarray, full: np.ndarray, columns) -> None:
    wanted = np.zeros(N_FEATURES, dtype=bool)
    wanted[list(columns)] = True
    assert values[wanted].tobytes() == full[wanted].tobytes()
    assert np.isnan(values[~wanted]).all()


def assert_corpus_rows(snippets, columns) -> None:
    """``featurize_corpus`` is the stacked ``featurize`` rows, bit for bit."""
    matrix = featurize_corpus(snippets, columns=columns)
    rows = [featurize(s, columns=columns) for s in snippets]
    assert matrix.shape == (len(snippets), N_FEATURES)
    assert matrix.tobytes() == b"".join(row.tobytes() for row in rows)


class TestFeaturizeColumns:
    @pytest.mark.parametrize("column", range(N_FEATURES), ids=NAMES)
    def test_each_column_alone(self, column):
        for s in SAMPLES:
            assert_only(featurize(s, columns=[column]), FULL[s.id], [column])
        assert_corpus_rows(SAMPLES, [column])

    def test_all_columns(self):
        for s in SAMPLES:
            assert featurize(s, columns=range(N_FEATURES)).tobytes() == FULL[s.id].tobytes()
        assert_corpus_rows(SAMPLES, range(N_FEATURES))
        assert_corpus_rows(SAMPLES, None)

    def test_no_column_is_all_nan_and_runs_nothing(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("feature work ran for no column")

        monkeypatch.setattr(vectorizer, "tokenize", never)
        for s in SAMPLES:
            assert np.isnan(featurize(s, columns=())).all()
        assert_corpus_rows(SAMPLES, ())
        assert_corpus_rows([], ())

    @settings(max_examples=150, deadline=None)
    @given(st.sets(st.integers(0, N_FEATURES - 1)), st.sampled_from(SAMPLES))
    def test_column_subsets(self, columns, s):
        assert_only(featurize(s, columns=sorted(columns)), FULL[s.id], columns)
        assert_corpus_rows([s, SAMPLES[0]], sorted(columns))

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(source_texts(), st.sampled_from(["python", "java", "cuda"]),
           st.lists(st.integers(0, N_FEATURES - 1), max_size=8))
    def test_column_subsets_of_generated_snippets(self, text, language, columns):
        s = preprocess(load_snippet(text, language, "fuzz"))
        assert_only(featurize(s, columns=columns), featurize(s), columns)

    @pytest.mark.parametrize("columns", [[-1], [N_FEATURES], [3, 61]])
    def test_out_of_range_columns_rejected(self, columns):
        with pytest.raises(ValueError, match="feature columns"):
            featurize(SAMPLES[0], columns=columns)


class TestComputeTfFields:
    @pytest.mark.parametrize("group", TF_GROUPS)
    def test_each_group_fills_its_fields_only(self, bundled_dict, group):
        for s in SAMPLES[-3:]:
            p = get_profile(s.language)
            profile = tokenize(s, p)
            blocks = extract_blocks(profile)
            full = compute_tf(profile, blocks, bundled_dict)
            part = compute_tf(profile, blocks, bundled_dict, groups=[group])
            for field in TfFeatures._fields:
                value = getattr(part, field)
                if field in TF_GROUPS[group]:
                    assert value.hex() == getattr(full, field).hex()
                else:
                    assert math.isnan(value)


class TestFeatureLayers:
    def test_layers_per_column(self):
        index = NAMES.index
        assert feature_layers() == ["tokenize", "extract_blocks", "tf.cic", "tf.identifier_semantics",
                                    "tf.comment_readability", "tf.text_coherence", "tf.concept_count",
                                    "bwf", "pf", "df"]
        assert feature_layers([]) == []
        assert feature_layers([index("tf.itid_avg")]) == ["tokenize", "tf.identifier_semantics"]
        assert feature_layers([index("tf.tc_max"), index("pf.loc")]) == [
            "tokenize", "extract_blocks", "tf.text_coherence", "pf"]
        assert feature_layers([index("df.vkd"), index("bwf.kw_avg")]) == ["tokenize", "bwf", "df"]

    @pytest.mark.parametrize("column", range(N_FEATURES), ids=NAMES)
    def test_layers_of_each_column(self, column):
        [layer] = [name for name, columns in _GROUP_COLUMNS.items() if column in columns]
        if layer in TF_GROUPS:
            layer = f"tf.{layer}"
        blocks = ["extract_blocks"] if layer == "tf.text_coherence" else []
        assert feature_layers([column]) == ["tokenize", *blocks, layer]


# --------------------------------------------------------------------------
# score_corpus against predict on the full vector
# --------------------------------------------------------------------------

# the columns of each feature layer, by schema-name prefix
_GROUP_COLUMNS = {
    **{group: [NAMES.index(f"tf.{name}") for name in names] for group, names in TF_GROUPS.items()},
    **{family: [i for i, name in enumerate(NAMES) if name.startswith(f"{family}.")]
       for family in ("bwf", "pf", "df")},
}


def random_model(selected, seed: int) -> ReadabilityModel:
    rng = np.random.default_rng(seed)
    return ReadabilityModel(
        scaler=ScalerParams(mu=rng.normal(size=N_FEATURES), sigma=rng.uniform(0.5, 3.0, N_FEATURES)),
        selected=tuple(selected), weights=rng.normal(size=len(selected)),
        intercept=float(rng.normal()), lambda_l2=1.0,
    )


def assert_scores_match_full_predict(trained: ReadabilityModel, d) -> None:
    table = score_corpus(trained, SAMPLES, d=d)
    for s, linear, prob in zip(SAMPLES, table.linear_scores, table.probabilities):
        want_prob, want_linear = predict(trained, featurize(s, d=d))
        assert (linear.hex(), prob.hex()) == (want_linear.hex(), want_prob.hex()), s.id


class TestScoreCorpusColumns:
    @pytest.mark.parametrize("group", _GROUP_COLUMNS)
    def test_models_of_one_group(self, bundled_dict, group):
        columns = _GROUP_COLUMNS[group]
        assert_scores_match_full_predict(random_model(columns, seed=len(columns)), bundled_dict)
        assert_scores_match_full_predict(random_model(columns[-1:], seed=1), bundled_dict)

    def test_model_of_no_column(self, bundled_dict):
        assert_scores_match_full_predict(random_model([], seed=2), bundled_dict)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(0, N_FEATURES - 1), unique=True, max_size=12), st.integers(0, 99))
    def test_models_drawn_across_groups(self, bundled_dict, selected, seed):
        assert_scores_match_full_predict(random_model(selected, seed), bundled_dict)

    def test_itid_model_runs_no_other_feature_work(self, bundled_dict, monkeypatch):
        trained = random_model([NAMES.index("tf.itid_avg")], seed=3)
        expected = [tuple(map(float.hex, predict(trained, featurize(s, d=bundled_dict))))
                    for s in SAMPLES]

        def never(*args, **kwargs):
            raise AssertionError("feature work ran that tf.itid_avg does not read")

        for module, name in ((tf, "concept_count"), (tf, "text_coherence"),
                             (vectorizer, "extract_blocks"), (vectorizer, "compute_bwf"),
                             (vectorizer, "compute_pf"), (vectorizer, "compute_df")):
            monkeypatch.setattr(module, name, never)
        table = score_corpus(trained, SAMPLES, d=bundled_dict)
        assert [(p.hex(), linear.hex()) for p, linear in
                zip(table.probabilities, table.linear_scores)] == expected
        with pytest.raises(AssertionError, match="does not read"):
            featurize(SAMPLES[0], d=bundled_dict)
