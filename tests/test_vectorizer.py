import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codereadability.vectorizer import (
    FAMILIES,
    FeatureVector,
    family_indices,
    featurize,
    featurize_corpus,
    read_feature_matrix,
    schema,
    schema_names,
    write_feature_matrix,
)

from conftest import snip
from test_cli import write_labeled_dataset

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


class TestFeaturize:
    def test_empty_snippet_all_zero(self, bundled_dict):
        vec = featurize(snip(""), d=bundled_dict)
        assert vec.values.shape == (61,)
        assert np.all(vec.values == 0.0)

    def test_halstead_position_matches_schema(self, bundled_dict):
        vec = featurize(snip("x = a + b"), d=bundled_dict)
        idx = schema_names().index("pf.halstead_volume")
        assert vec.values[idx] == pytest.approx(5 * math.log2(5), abs=1e-9)

    def test_deterministic(self, bundled_dict):
        text = "def f(x):\n    return x + 1  # inc"
        a = featurize(snip(text), d=bundled_dict)
        b = featurize(snip(text), d=bundled_dict)
        assert np.array_equal(a.values, b.values)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            FeatureVector(values=np.zeros(60))

    @settings(max_examples=30, deadline=None)
    @given(st.text(max_size=120))
    def test_every_entry_finite(self, bundled_dict, text):
        vec = featurize(snip(text), d=bundled_dict)
        assert np.all(np.isfinite(vec.values))


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


_TRACED_FEATURIZE_AND_SCORE = """
import json, sys
import tracing
from codereadability.cli import main
manifest, model, matrix, scores = sys.argv[1:]
trained = main(["train", "--data", manifest, "--kmax", "2", "--out", model])
tracer = tracing.Tracer()
tracing.install(tracer)
codes = [trained, main(["featurize", "--in", manifest, "--out", matrix]),
         main(["score", "--model", model, "--in", manifest, "--out", scores])]
layers = tracer.to_dict()["layers"]
print(json.dumps({"exit": codes, "calls": {name: s["calls"] for name, s in layers.items()}}))
"""


def test_benchmark_layers_see_featurize_and_score(tmp_path):
    """The per-layer trace wraps module-level names; featurize and score must
    still reach every feature layer through them, one featurize per snippet."""
    manifest = write_labeled_dataset(tmp_path / "data")
    n = len(manifest.read_text().splitlines()) - 1
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")])}
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_FEATURIZE_AND_SCORE, str(manifest),
         *(str(tmp_path / name) for name in ("model.json", "m.csv", "scores.csv"))],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["exit"] == [0, 0, 0]
    calls = result["calls"]
    for layer in ("lexical.tokenize", "lexical.extract_blocks", "features.tf", "features.bwf",
                  "features.pf", "features.df", "vectorizer.featurize"):
        assert calls[layer] == 2 * n, layer
    assert calls["features.tf.concept_count"] > 0
