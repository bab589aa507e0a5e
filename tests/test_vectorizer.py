import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codereadability import vectorizer
from codereadability.config import AnalysisConfig
from codereadability.features import (
    BwfFeatures,
    DfFeatures,
    PfFeatures,
    TfFeatures,
    compute_bwf,
    compute_df,
    compute_pf,
    compute_tf,
)
from codereadability.lexical import extract_blocks, tokenize
from codereadability.profiles import load_profiles
from codereadability.vectorizer import (
    FAMILIES,
    family_indices,
    featurize,
    featurize_corpus,
    read_feature_matrix,
    schema,
    schema_names,
    write_feature_matrix,
)

from conftest import WORDNET_MINI, snip
from lexer_samples import LEXER_DATA, fixture_snippets, ini_profile, ini_snippet
from test_cli import write_labeled_dataset

BUILTIN = load_profiles(None)
PY = BUILTIN["python"]

ROOT = Path(__file__).resolve().parent.parent


class TestSchema:
    def test_length(self):
        assert len(schema()) == 61

    def test_family_block_sizes(self):
        counts = {fam: sum(1 for s in schema() if s.family == fam) for fam in FAMILIES}
        assert counts == {"TF": 16, "BWF": 26, "PF": 4, "DF": 15}

    def test_block_layout(self):
        names = schema_names()
        assert names[0].startswith("tf.")
        assert names[16].startswith("bwf.")  # first BWF entry index
        assert names[42].startswith("pf.")
        assert names[46].startswith("df.")

    def test_family_indices(self):
        assert family_indices("all") == list(range(61))
        assert family_indices("TF") == list(range(16))
        assert family_indices("bwf") == list(range(16, 42))
        assert family_indices("pf") == list(range(42, 46))
        assert family_indices("df") == list(range(46, 61))
        with pytest.raises(ValueError):
            family_indices("xyz")

    def test_stable_across_calls(self):
        assert schema() == schema()


class TestFamilyRecords:
    """Each family's result is a tuple in schema order, and ``featurize``
    copies it into its slice unchanged."""

    def test_schema_is_the_records_fields_in_order(self):
        records = (TfFeatures, BwfFeatures, PfFeatures, DfFeatures)
        assert schema_names() == [f"{family.lower()}.{name}"
                                  for family, record in zip(FAMILIES, records)
                                  for name in record._fields]

    def test_featurize_copies_each_record_bit_for_bit(self, bundled_dict):
        samples = [(s, BUILTIN[s.language]) for s in fixture_snippets()]
        samples.append((ini_snippet(), ini_profile()))
        for s, p in samples:
            profile = tokenize(s, p)
            blocks = extract_blocks(profile)
            records = (compute_tf(profile, blocks, bundled_dict), compute_bwf(profile),
                       compute_pf(profile), compute_df(profile, bundled_dict))
            values = featurize(s, p, bundled_dict)
            for family, record in zip(FAMILIES, records):
                assert isinstance(record, tuple)
                copied = values[family_indices(family)]
                assert [v.hex() for v in copied] == [float(v).hex() for v in record], (s.id, family)


class TestFeaturize:
    def test_empty_snippet_all_zero(self, bundled_dict):
        vec = featurize(snip(""), PY, bundled_dict)
        assert vec.shape == (61,) and vec.dtype == np.float64
        assert np.all(vec == 0.0)

    def test_halstead_position_matches_schema(self, bundled_dict):
        vec = featurize(snip("x = a + b"), PY, bundled_dict)
        idx = schema_names().index("pf.halstead_volume")
        assert vec[idx] == pytest.approx(5 * math.log2(5), abs=1e-9)

    def test_deterministic(self, bundled_dict):
        text = "def f(x):\n    return x + 1  # inc"
        a = featurize(snip(text), PY, bundled_dict)
        b = featurize(snip(text), PY, bundled_dict)
        assert np.array_equal(a, b)

    @settings(max_examples=30, deadline=None)
    @given(st.text(max_size=120))
    def test_every_entry_finite(self, bundled_dict, text):
        vec = featurize(snip(text), PY, bundled_dict)
        assert np.all(np.isfinite(vec))

    def test_takes_its_profile_and_dictionary(self, wordnet_dict, monkeypatch):
        s = ini_snippet()
        with pytest.raises(TypeError):
            featurize(s)
        with pytest.raises(TypeError):
            featurize(s, d=wordnet_dict)
        # with a profile table and a dictionary named in the config,
        # featurize still loads neither: it works from p and d alone
        config = AnalysisConfig(profiles_path=str(LEXER_DATA / "profiles.ini"),
                                dictionary_path=str(WORDNET_MINI))
        before = featurize(s, ini_profile(), wordnet_dict, config).tobytes()

        def never(*args, **kwargs):
            raise AssertionError("featurize loaded a profile table or dictionary")

        monkeypatch.setattr(vectorizer, "load_profiles", never)
        monkeypatch.setattr(vectorizer, "load_dictionary", never)
        assert featurize(s, ini_profile(), wordnet_dict, config).tobytes() == before


class TestCorpusMatrix:
    def test_empty_corpus(self, bundled_dict):
        assert featurize_corpus([], d=bundled_dict).shape == (0, 61)

    def test_csv_round_trip(self, bundled_dict, tmp_path):
        snippets = [snip("x = a + b  # sum", id="a"), snip("if x:\n    y = 2", id="b")]
        matrix = featurize_corpus(snippets, d=bundled_dict)
        path = tmp_path / "matrix.csv"
        write_feature_matrix(path, ["a", "b"], matrix)
        ids, loaded = read_feature_matrix(path)
        assert ids == ["a", "b"]
        # 12 significant digits survive the trip
        assert np.allclose(loaded, matrix, rtol=1e-11, atol=0)

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,not_a_feature\nx,1\n")
        with pytest.raises(ValueError, match="header"):
            read_feature_matrix(path)

    def test_empty_file_names_the_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_bytes(b"")
        with pytest.raises(ValueError, match=f"empty feature matrix: {re.escape(str(path))}"):
            read_feature_matrix(path)


_TRACED_COMMANDS = """
import json, os, sys
# the tracer counts calls in this process only, so nothing may fan out
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import tracing
from codereadability.cli import main
manifest, model, every_layer_model, matrix, scores, every_layer_scores, report, columns = sys.argv[1:]
trained = main(["train", "--data", manifest, "--kmax", "2", "--out", model])
doc = json.load(open(model))
selected = doc["selected"]
doc["selected"] = json.loads(columns)
doc["weights"] = [0.5] * len(doc["selected"])
with open(every_layer_model, "w") as fh:
    json.dump(doc, fh)
tracer = tracing.Tracer()
tracing.install(tracer)

def calls():
    return {name: s["calls"] for name, s in tracer.to_dict()["layers"].items()}

codes, steps = [trained], []
for argv in (["featurize", "--in", manifest, "--out", matrix],
             ["score", "--model", model, "--in", manifest, "--out", scores],
             ["score", "--model", every_layer_model, "--in", manifest, "--out", every_layer_scores],
             ["compare", "--a", scores, "--b", every_layer_scores, "--out", report]):
    before = calls()
    codes.append(main(argv))
    steps.append({name: n - before.get(name, 0) for name, n in calls().items()})
print(json.dumps({"exit": codes, "selected": selected, "steps": steps}))
"""

# the traced feature layers, and the schema columns that need each one
_FEATURE_LAYERS = {
    "lexical.tokenize": "",
    "lexical.extract_blocks": "tf.tc_",
    "features.tf": "tf.",
    "features.tf.text_coherence": "tf.tc_",
    "features.tf.concept_count": "tf.noc",
    "features.bwf": "bwf.",
    "features.pf": "pf.",
    "features.df": "df.",
}
# one column of every TF group and of BWF, PF and DF
_EVERY_LAYER_COLUMNS = ("tf.cic", "tf.itid_avg", "tf.cr", "tf.tc_avg", "tf.noc",
                        "bwf.line_len_avg", "pf.loc", "df.vkd")


@pytest.fixture(scope="module")
def traced_steps(tmp_path_factory):
    """Snippet count and the traced run: the exit codes, the trained
    model's columns, and the per-layer calls of each step."""
    tmp_path = tmp_path_factory.mktemp("traced")
    manifest = write_labeled_dataset(tmp_path / "data")
    n = len(manifest.read_text().splitlines()) - 1
    names = schema_names()
    every_layer = [names.index(name) for name in _EVERY_LAYER_COLUMNS]
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")])}
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_COMMANDS, str(manifest),
         *(str(tmp_path / name) for name in ("model.json", "every_layer_model.json", "m.csv",
                                             "scores.csv", "every_layer_scores.csv",
                                             "report.txt")),
         json.dumps(every_layer)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["exit"] == [0, 0, 0, 0, 0]
    return n, result


def test_benchmark_layers_see_featurize_and_score(traced_steps):
    """The per-layer trace wraps module-level names. ``featurize`` reaches
    every feature layer once per snippet through them. ``score`` featurizes
    once per snippet too, and reaches a feature layer once per snippet when
    the model's columns need it and never otherwise."""
    n, result = traced_steps
    names = schema_names()
    featurized, scored, every_layer_scored, _ = result["steps"]
    read = [names[i] for i in result["selected"]]
    assert read  # the trained model reads at least one column
    for layer, prefix in _FEATURE_LAYERS.items():
        assert featurized[layer] == n, layer
        assert scored[layer] == (n if any(c.startswith(prefix) for c in read) else 0), layer
        assert every_layer_scored[layer] == n, layer
    for step in (featurized, scored, every_layer_scored):
        assert step["vectorizer.featurize"] == n
    for step in (scored, every_layer_scored):
        assert step["model.predict"] == n


def test_benchmark_layers_see_compare(traced_steps):
    """``compare`` reads its two score tables and runs one paired
    comparison and one signed-rank test, each through the name the trace
    wraps; it featurizes and scores nothing."""
    _, result = traced_steps
    compared = result["steps"][-1]
    assert compared["io.score_table"] == 2
    assert compared["analytics.paired_compare"] == 1
    assert compared["analytics.wilcoxon"] == 1
    assert compared["vectorizer.featurize"] == compared["model.predict"] == 0
