"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its runtime (run with ``pytest -v -s`` to see them).
"""

import contextlib
import json
import math
import os
import time

import numpy as np
import pytest

from codereadability import analytics
from codereadability.analytics import wilcoxon_signed_rank
from codereadability.cli import main
from codereadability.features.pf import line_entropy
from codereadability.features.tf import (
    cic,
    comment_readability,
    jaccard,
    text_coherence,
    token_overlap_distance,
)
from codereadability.features.bwf import compute_bwf
from codereadability.features.df import alignment, spatial
from codereadability.lexical import tokenize
from codereadability.model import (
    _objective,
    auc,
    fit_scaler,
    sfs_path,
    transform,
)
from codereadability.vectorizer import FAMILIES, featurize, schema

from conftest import snip
from test_cli import write_labeled_dataset


@contextlib.contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} FAIL: {description}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, (
        f"criterion {number} exceeded its {budget_seconds}s budget ({elapsed:.2f}s)"
    )
    print(f"criterion {number} PASS ({elapsed:.2f}s): {description}")


def test_criterion_1_schema_integrity(bundled_dict):
    with criterion(1, "61 features in 16/26/4/15 family blocks; empty snippet is all zeros", 1.0):
        entries = schema()
        assert len(entries) == 61
        counts = {fam: sum(1 for e in entries if e.family == fam) for fam in FAMILIES}
        assert counts == {"TF": 16, "BWF": 26, "PF": 4, "DF": 15}
        assert [e.family for e in entries] == ["TF"] * 16 + ["BWF"] * 26 + ["PF"] * 4 + ["DF"] * 15

        vec = featurize(snip(""), d=bundled_dict)
        assert vec.shape == (61,)
        assert np.all(vec == 0.0)

        nonempty = featurize(snip("x = a + b  # sum"), d=bundled_dict)
        assert np.all(np.isfinite(nonempty))


def test_criterion_2_formula_oracles(bundled_dict):
    with criterion(2, "CR, entropy, Halstead, CIC, TC, SR, AlignOp match hand oracles at 1e-9", 1.0):
        tol = 1e-9

        # Flesch: W=3,S=1,Y=3 and W=5,S=1,Y=7
        assert comment_readability(tokenize(snip("# The cat sat."))) == pytest.approx(119.19, abs=tol)
        assert comment_readability(tokenize(snip("# really basic code runs fine."))) == pytest.approx(83.32, abs=tol)

        # character entropy on uniform distributions
        assert line_entropy("aaaa") == pytest.approx(0.0, abs=tol)
        assert line_entropy("abab") == pytest.approx(1.0, abs=tol)
        assert line_entropy("abcd") == pytest.approx(2.0, abs=tol)

        # Halstead: 2 operators (=,+) and 3 operands (x,a,b), each once
        from codereadability.features.pf import halstead_volume
        assert halstead_volume(tokenize(snip("x = a + b"))) == pytest.approx(5 * math.log2(5), abs=tol)

        # CIC: {compute,sum} vs {sum,total} -> 1/3
        plain, _ = cic(tokenize(snip("sum = total  # compute sum")), bundled_dict)
        assert plain == pytest.approx(1 / 3, abs=tol)

        # TC over hand-enumerated pairs: J(1,2)=1, J(1,3)=J(2,3)=0
        blocks = [frozenset("xy"), frozenset("xy"), frozenset("z")]
        tc_min, tc_avg, tc_max = text_coherence(blocks)
        assert (tc_min, tc_max) == (0.0, 1.0)
        assert tc_avg == pytest.approx(1 / 3, abs=tol)
        # and J({a},{a,b})=1/2, J({a},{b})=0, J({a,b},{b})=1/2
        blocks = [frozenset("a"), frozenset("ab"), frozenset("b")]
        assert text_coherence(blocks)[1] == pytest.approx(1 / 3, abs=tol)

        # SR with line lengths {2, 6}: 1 - 2/4
        assert spatial(tokenize(snip("ab\nabcdef")))[2] == pytest.approx(0.5, abs=tol)

        # AlignOp with '=' columns {4, 8}: 1/(1+2)
        assert alignment(tokenize(snip("abc = 1\nabcdefg = 2")))[0] == pytest.approx(1 / 3, abs=tol)


def test_criterion_3_property_suites(wordnet_dict):
    with criterion(3, "BWF permutation, entropy bounds, Jaccard laws, AUC vs brute force (1000), gradient FD", 30.0):
        rng = np.random.default_rng(2024)

        # BWF invariance under line permutation (quote-free lines keep the
        # lexer stateless across lines)
        alphabet = list("abc def_=+-0123456789#(),.: \t")
        for _ in range(150):
            n_lines = rng.integers(1, 9)
            lines = [
                "".join(rng.choice(alphabet, size=rng.integers(0, 22)))
                for _ in range(n_lines)
            ]
            from codereadability.corpus import Snippet
            base = compute_bwf(tokenize(Snippet(id="s", language="python", lines=tuple(lines))))
            perm = rng.permutation(n_lines)
            shuffled = compute_bwf(tokenize(Snippet(id="s", language="python",
                                                    lines=tuple(lines[i] for i in perm))))
            assert base == shuffled

        # entropy bounds 0 <= H <= log2 |vocab|
        for _ in range(300):
            line = "".join(rng.choice(list("abcdefgh XYZ=+.1"), size=rng.integers(1, 40)))
            h = line_entropy(line)
            assert -1e-12 <= h <= math.log2(len(set(line))) + 1e-12

        # Jaccard symmetry and distance identity
        universe = list("abcdef")
        for _ in range(300):
            a = frozenset(rng.choice(universe, size=rng.integers(0, 6)))
            b = frozenset(rng.choice(universe, size=rng.integers(0, 6)))
            assert jaccard(a, b) == jaccard(b, a)
            assert token_overlap_distance(a, a) == 0.0

        # AUC rank formula equals brute-force pairwise enumeration
        for _ in range(1000):
            n = int(rng.integers(2, 51))
            labels = np.zeros(n, dtype=int)
            labels[: rng.integers(1, n)] = 1
            rng.shuffle(labels)
            scores = rng.integers(0, 6, size=n) / 5.0  # coarse grid forces ties
            pos, neg = scores[labels == 1], scores[labels == 0]
            brute = float(((pos[:, None] > neg).sum() + 0.5 * (pos[:, None] == neg).sum())
                          / (len(pos) * len(neg)))
            assert auc(scores, labels) == pytest.approx(brute, abs=1e-12)

        # analytic gradient vs central finite differences on random 20x61
        X = rng.normal(size=(20, 61))
        y = (rng.random(20) > 0.5).astype(float)
        params = rng.normal(scale=0.4, size=62)
        grad = _objective(params[None], X[None], y, 1.0)[1][0]
        h = 1e-5
        for j in range(62):
            up, down = params.copy(), params.copy()
            up[j] += h
            down[j] -= h
            fd = (_objective(up[None], X[None], y, 1.0)[0][0]
                  - _objective(down[None], X[None], y, 1.0)[0][0]) / (2 * h)
            assert abs(grad[j] - fd) < 1e-5


def test_criterion_4_wilcoxon_correctness(monkeypatch):
    with criterion(4, "exact Wilcoxon matches hand-derived p; exact vs normal agree within 0.05 for n' in [20,25]", 10.0):
        result = wilcoxon_signed_rank([1.0, 2.0, 3.0])
        assert result.p_value == pytest.approx(0.25, abs=1e-12)
        assert result.w == 0.0

        # {+1,-2,+3}: W-=2, two-sided p = 6/8
        assert wilcoxon_signed_rank([1.0, -2.0, 3.0]).p_value == pytest.approx(0.75, abs=1e-12)

        rng = np.random.default_rng(7)
        samples = [rng.normal(0.3, 1.0, size=n) for n in range(20, 26) for _ in range(30)]
        exact = [wilcoxon_signed_rank(diffs) for diffs in samples]
        monkeypatch.setattr(analytics, "EXACT_TEST_MAX_PAIRS", 0)
        for diffs, e in zip(samples, exact):
            approx = wilcoxon_signed_rank(diffs)
            assert e.method == "exact" and approx.method == "normal"
            assert abs(e.p_value - approx.p_value) < 0.05


def test_criterion_5_sfs_sanity():
    with criterion(5, "3 informative columns among the first 5 SFS selections (n=500, 58 noise columns)", 60.0):
        rng = np.random.default_rng(123)
        n = 500
        informative = [0, 1, 2]
        X = rng.normal(size=(n, 61))
        logit = 1.5 * X[:, 0] + 1.2 * X[:, 1] - 1.4 * X[:, 2] + 0.5 * rng.normal(size=n)
        y = (logit > 0).astype(float)
        Xn = transform(fit_scaler(X), X)
        order, _ = sfs_path(Xn, y, k_max=5, inner_cv=5, seed=42, lambda_l2=1.0)
        assert set(informative) <= set(order[:5]), f"selection order {order}"


def test_criterion_6_reproduction_and_synthetic_comparison(tmp_path):
    desc = "synthetic shifted corpora: win rate > 0.9 and p < 0.01 through the compare pipeline"
    with criterion(6, desc, 300.0):
        rng = np.random.default_rng(99)
        n = 200
        base = rng.normal(0.0, 1.0, size=n)
        shifted_down = base - 1.0 + rng.normal(0.0, 0.3, size=n)

        import csv
        for name, scores in (("a.csv", base), ("b.csv", shifted_down)):
            with open(tmp_path / name, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["id", "linear_score", "probability"])
                for i, s in enumerate(scores):
                    writer.writerow([f"s{i}", f"{s:.12g}", "0.5"])
        out = tmp_path / "report.json"
        code = main(["compare", "--a", str(tmp_path / "a.csv"), "--b", str(tmp_path / "b.csv"),
                     "--format", "json", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())[0]
        assert report["win_rate_a"] > 0.9
        assert report["p_value"] < 0.01

    manifest = os.environ.get("DORN_MANIFEST")
    if not manifest:
        print("criterion 6 NOTE: labeled benchmark reproduction skipped "
              "(set DORN_MANIFEST to a 360-snippet manifest to run it)")
        return
    with criterion(6, "user-supplied 360-snippet benchmark: accuracy >= 0.70, AUC >= 0.78", 300.0):
        out = tmp_path / "dorn_report.json"
        code = main(["evaluate", "--data", manifest, "--family", "all",
                     "--folds", "10", "--seed", "42", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["accuracy"] >= 0.70, f"accuracy {doc['accuracy']:.3f}"
        assert doc["auc"] >= 0.78, f"AUC {doc['auc']:.3f}"


def test_criterion_7_determinism(tmp_path):
    with criterion(7, "identical (inputs, seed) give byte-identical outputs", 120.0):
        manifest = write_labeled_dataset(tmp_path / "data")
        src_dir = manifest.parent

        # featurize: repeated runs are byte-identical
        m1, m2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
        for target in (m1, m2):
            assert main(["featurize", "--in", str(src_dir), "--out", str(target)]) == 0
        assert m1.read_bytes() == m2.read_bytes()

        # evaluate: repeated runs with one seed are byte-identical
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        args = ["evaluate", "--data", str(manifest), "--family", "all",
                "--folds", "3", "--seed", "42", "--kmax", "2"]
        assert main(args + ["--out", str(r1)]) == 0
        assert main(args + ["--out", str(r2)]) == 0
        assert r1.read_bytes() == r2.read_bytes()

        # train + score: repeated scoring runs are byte-identical
        model_path = tmp_path / "model.json"
        assert main(["train", "--data", str(manifest), "--kmax", "2", "--seed", "42",
                     "--out", str(model_path)]) == 0
        s1, s2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        for target in (s1, s2):
            assert main(["score", "--model", str(model_path), "--in", str(src_dir),
                         "--out", str(target)]) == 0
        assert s1.read_bytes() == s2.read_bytes()

        # compare: deterministic report bytes
        c1, c2 = tmp_path / "c1.json", tmp_path / "c2.json"
        for target in (c1, c2):
            assert main(["compare", "--a", str(s1), "--b", str(s2),
                         "--format", "json", "--out", str(target)]) == 0
        assert c1.read_bytes() == c2.read_bytes()
