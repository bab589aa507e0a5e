"""Golden feature matrix: the 61 features of every lexer sample, byte for byte.

``data/golden_features.csv`` was written by the character-at-a-time lexer
that the compiled scanner replaced. Any change to a feature value on these
inputs changes the file. Rewrite it only for a named, justified output
change::

    PYTHONPATH=src python tests/test_golden_features.py
"""

from pathlib import Path

import numpy as np

from codereadability.dictionary import load_dictionary
from codereadability.profiles import load_profiles
from codereadability.vectorizer import featurize, write_feature_matrix
from lexer_samples import fixture_snippets, ini_profile, ini_snippet

BUILTIN = load_profiles(None)

GOLDEN = Path(__file__).parent / "data" / "golden_features.csv"


def write_golden_matrix(path, d):
    """Featurize every sample (the INI one under its own profile) into ``path``."""
    snippets = [(s, BUILTIN[s.language]) for s in fixture_snippets()] + [(ini_snippet(), ini_profile())]
    matrix = np.vstack([featurize(s, p, d) for s, p in snippets])
    write_feature_matrix(path, [s.id for s, _ in snippets], matrix)


def test_feature_matrix_matches_golden(tmp_path, bundled_dict):
    out = tmp_path / "features.csv"
    write_golden_matrix(out, bundled_dict)
    assert out.read_bytes() == GOLDEN.read_bytes()


if __name__ == "__main__":
    write_golden_matrix(GOLDEN, load_dictionary())
    print(f"wrote {GOLDEN}")
