import json
import time

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from codereadability import stats
from codereadability.analytics import (
    ScoreTable,
    paired_compare,
    read_score_table,
    render_report,
    score_corpus,
    wilcoxon_signed_rank,
    write_score_table,
)
from codereadability.model import ReadabilityModel, ScalerParams, train_model
from codereadability.vectorizer import N_FEATURES, featurize_corpus

from conftest import snip


def table(ids, scores, label=""):
    return ScoreTable(tuple(ids), tuple(float(s) for s in scores),
                      tuple(1 / (1 + np.exp(-s)) for s in scores), corpus_label=label)


def extreme_table(ids, scores, label=""):
    """A table of scores near the float range, whose sigmoid would overflow."""
    return ScoreTable(tuple(ids), tuple(scores), (0.5,) * len(ids), corpus_label=label)


def enumeration_p(diffs):
    """Literal 2^n sign-assignment enumeration, independent of the
    implementation's distribution recursion."""
    nonzero = np.asarray([d for d in diffs if d != 0], dtype=float)
    n = len(nonzero)
    doubled = np.rint(2 * scipy.stats.rankdata(np.abs(nonzero))).astype(int)
    total = int(doubled.sum())
    w_obs = int(doubled[nonzero > 0].sum())
    lo, hi = min(w_obs, total - w_obs), max(w_obs, total - w_obs)
    count = 0
    for mask in range(2**n):
        w = sum(int(doubled[i]) for i in range(n) if (mask >> i) & 1)
        if w <= lo or w >= hi:
            count += 1
    return count / 2**n


class TestWilcoxon:
    def test_three_positive_differences(self):
        # W- = 0; exact two-sided p = 2/8
        result = wilcoxon_signed_rank([1.0, 2.0, 3.0])
        assert result.w == 0.0
        assert result.p_value == pytest.approx(0.25, abs=1e-12)
        assert result.method == "exact"

    def test_zeros_dropped(self):
        with_zeros = wilcoxon_signed_rank([1.0, 0.0, 2.0, 0.0, 3.0])
        without = wilcoxon_signed_rank([1.0, 2.0, 3.0])
        assert with_zeros.n_nonzero == 3
        assert with_zeros.p_value == without.p_value

    def test_all_zero_degenerate(self):
        result = wilcoxon_signed_rank([0.0, 0.0])
        assert result.method == "degenerate"
        assert result.p_value == 1.0
        assert result.z == 0.0

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(-5, 5), min_size=1, max_size=11))
    def test_exact_matches_enumeration(self, diffs):
        if not any(diffs):
            return
        ours = wilcoxon_signed_rank(diffs)
        assert ours.method == "exact"
        assert ours.p_value == pytest.approx(enumeration_p(diffs), abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_exact_matches_scipy_without_ties(self, seed):
        rng = np.random.default_rng(seed)
        diffs = rng.normal(size=rng.integers(3, 20))
        theirs = scipy.stats.wilcoxon(diffs, mode="exact", zero_method="wilcox")
        ours = wilcoxon_signed_rank(diffs)
        assert ours.p_value == pytest.approx(theirs.pvalue, abs=1e-12)

    def test_exact_close_to_normal_in_band(self, monkeypatch):
        rng = np.random.default_rng(12)
        samples = [rng.normal(0.2, 1.0, size=n) for n in range(20, 26) for _ in range(20)]
        exact = [wilcoxon_signed_rank(diffs) for diffs in samples]
        monkeypatch.setattr(stats, "EXACT_TEST_MAX_PAIRS", 0)
        for diffs, e in zip(samples, exact):
            approx = wilcoxon_signed_rank(diffs)
            assert e.method == "exact" and approx.method == "normal"
            assert abs(e.p_value - approx.p_value) < 0.05

    def test_exact_matches_scipy_at_largest_exact_n(self, monkeypatch):
        # 62 is the largest n whose exact counts stay within int64
        monkeypatch.setattr(stats, "EXACT_TEST_MAX_PAIRS", 62)
        diffs = np.random.default_rng(62).normal(0.1, 1.0, size=62)
        theirs = scipy.stats.wilcoxon(diffs, method="exact", zero_method="wilcox")
        ours = wilcoxon_signed_rank(diffs)
        assert ours.method == "exact"
        assert ours.p_value == pytest.approx(theirs.pvalue, abs=1e-12)

    def test_large_n_uses_normal(self):
        diffs = np.random.default_rng(5).normal(size=40)
        assert wilcoxon_signed_rank(diffs).method == "normal"

    @pytest.mark.parametrize("n", [6, 40])  # exact and normal
    def test_nan_difference_rejected(self, n):
        diffs = np.random.default_rng(n).normal(size=n)
        diffs[3] = np.nan
        with pytest.raises(ValueError, match="NaN paired difference at position 3"):
            wilcoxon_signed_rank(diffs)

    @pytest.mark.parametrize("n", [6, 40])
    def test_infinite_differences_rank_last_and_tie(self, n):
        diffs = np.random.default_rng(n).normal(size=n)
        diffs[:3] = [np.inf, -np.inf, np.inf]
        result = wilcoxon_signed_rank(diffs)
        ranks = scipy.stats.rankdata(np.abs(diffs))
        assert list(ranks[:3]) == [n - 1.0] * 3
        assert result.w_plus == ranks[diffs > 0].sum()
        assert result.n_nonzero == n
        assert np.isfinite(result.z) and 0.0 < result.p_value <= 1.0


class TestPairedCompare:
    def test_identical_tables_degenerate(self):
        t = table(["a", "b", "c"], [1.0, 2.0, 3.0])
        report = paired_compare(t, t)
        assert report.degenerate
        assert report.p_value == 1.0
        assert report.win_rate_a == 0.0
        assert report.wilcoxon_w == 0.0
        assert report.w_over_wmax == 0.0

    def test_three_wins(self):
        a = table(["x", "y", "z"], [2.0, 3.0, 4.0], "llm")
        b = table(["x", "y", "z"], [1.0, 1.0, 1.0], "human")
        report = paired_compare(a, b)
        assert report.win_rate_a == 1.0
        assert report.p_value == pytest.approx(0.25)
        assert report.n_nonzero == 3
        assert report.avg_a == 3.0
        assert report.avg_b == 1.0

    def test_key_mismatch_lists_ids(self):
        a = table(["x", "y"], [1, 2])
        b = table(["y", "z"], [1, 2])
        with pytest.raises(ValueError, match="only in a: \\['x'\\], only in b: \\['z'\\]"):
            paired_compare(a, b)

    def test_repeated_id_names_the_table_and_the_id(self, bundled_dict):
        snippets = [snip("x = 1", id="s"), snip("y = 2", id="t"), snip("z = 3", id="t")]
        scored = score_corpus(TestScoreCorpus()._model(), snippets, d=bundled_dict, label="llm")
        with pytest.raises(ValueError, match=r"^score table llm: duplicate id 't'$"):
            paired_compare(table(["s", "t"], [1, 2]), scored)
        with pytest.raises(ValueError, match=r"^score table a: duplicate id 'x'$"):
            paired_compare(table(["x", "y", "x"], [1, 2, 3]), table(["x", "y"], [1, 2]))

    def test_mismatch_message_lists_the_first_ten_ids_of_each_side(self):
        a = table([f"a{i}" for i in range(12)] + ["shared"], range(13))
        b = table(["shared"] + [f"b{i}" for i in range(12)], range(13))
        with pytest.raises(ValueError) as exc:
            paired_compare(a, b)
        assert str(exc.value) == (
            "score tables do not align one-to-one; "
            f"only in a: {[f'a{i}' for i in range(10)]}, "
            f"only in b: {[f'b{i}' for i in range(10)]}")

    def test_aligns_many_shuffled_ids_quickly(self):
        """40,000 ids, B in another order: the join stays linear in the ids
        (one id set per call, not one per id of B)."""
        n = 40_000
        ids = [f"s{i}" for i in range(n)]
        order = np.random.default_rng(10).permutation(n)
        scores = np.arange(n, dtype=np.float64)
        a = table(ids, scores)
        b = table([ids[i] for i in order], scores[order] - 1.0)
        start = time.perf_counter()
        report = paired_compare(a, b)
        assert time.perf_counter() - start < 5.0
        assert (report.n_pairs, report.win_rate_a) == (n, 1.0)

    def test_join_order_independent(self):
        a = table(["x", "y", "z"], [5.0, 1.0, 3.0])
        b = table(["z", "x", "y"], [2.0, 4.0, 2.0])
        report = paired_compare(a, b)
        # pairs: x: 5-4, y: 1-2, z: 3-2
        assert report.win_rate_a == pytest.approx(2 / 3)

    def test_symmetry(self):
        rng = np.random.default_rng(8)
        ids = [f"s{i}" for i in range(30)]
        a = table(ids, rng.normal(size=30), "a")
        b = table(ids, rng.normal(size=30), "b")
        ab = paired_compare(a, b)
        ba = paired_compare(b, a)
        assert ab.p_value == pytest.approx(ba.p_value, abs=1e-12)
        assert ab.effect_size_r == pytest.approx(ba.effect_size_r, abs=1e-12)
        assert ab.wilcoxon_w == ba.wilcoxon_w
        assert ab.win_rate_a + ba.win_rate_a <= 1.0

    def test_constant_shift_leaves_statistics_unchanged(self):
        rng = np.random.default_rng(9)
        ids = [f"s{i}" for i in range(25)]
        scores_a, scores_b = rng.normal(size=25), rng.normal(size=25)
        base = paired_compare(table(ids, scores_a), table(ids, scores_b))
        shifted = paired_compare(table(ids, scores_a + 7.5), table(ids, scores_b + 7.5))
        assert shifted.win_rate_a == base.win_rate_a
        assert shifted.wilcoxon_w == base.wilcoxon_w
        assert shifted.p_value == pytest.approx(base.p_value, abs=1e-12)
        assert shifted.effect_size_r == pytest.approx(base.effect_size_r, abs=1e-12)
        # averages move with the shift
        assert shifted.avg_a == pytest.approx(base.avg_a + 7.5)

    @pytest.mark.parametrize("side,value", [("a", np.inf), ("b", -np.inf), ("a", np.nan)])
    def test_a_non_finite_score_names_the_table_and_the_id(self, side, value):
        scores = {"a": [1.0, 2.0, 3.0], "b": [0.5, 2.5, 1.0]}
        scores[side][1] = value
        a = table(["x", "y", "z"], scores["a"], "llm")
        b = table(["z", "y", "x"], scores["b"][::-1])
        label = "llm" if side == "a" else "b"
        with pytest.raises(ValueError, match=rf"^score table {label}: non-finite score "
                                             rf"{value} \(id 'y'\)$"):
            paired_compare(a, b)

    @pytest.mark.parametrize("big", [1.5e308, -1.5e308, 1e308])
    def test_an_overflowing_difference_names_the_id(self, big):
        a = extreme_table(["x", "y"], [1.0, big], "llm")
        b = extreme_table(["x", "y"], [0.0, -big], "human")
        with pytest.raises(ValueError, match=rf"^paired difference overflows to "
                                             rf"{np.sign(big) * np.inf} \(id 'y'\)$"):
            paired_compare(a, b)

    @pytest.mark.parametrize("side", ["a", "b"])
    def test_an_overflowing_average_names_the_table(self, side):
        overflowing = extreme_table(["x", "y", "z"], [1.5e308, 1.5e308, 1.0], "llm")
        finite = extreme_table(["x", "y", "z"], [1.5e308, -1.0, 2.0])  # every difference finite
        a, b = (overflowing, finite) if side == "a" else (finite, overflowing)
        with pytest.raises(ValueError, match=r"^score table llm: average score overflows$"):
            paired_compare(a, b)

    def test_extreme_finite_scores_that_do_not_overflow_pass(self):
        a = extreme_table(["x", "y"], [1.5e308, -1.5e308])
        b = extreme_table(["x", "y"], [1e308, -1e308])
        report = paired_compare(a, b)
        assert report.avg_a == 0.0 and report.avg_b == 0.0
        assert report.win_rate_a == 0.5
        assert json.loads(render_report(report, format="json")) == [report.to_dict()]

    def test_effect_size_uses_all_pairs(self):
        # half the pairs are ties: N stays in the denominator
        ids = [f"s{i}" for i in range(10)]
        a = table(ids, [1, 2, 3, 4, 5, 9, 9, 9, 9, 9])
        b = table(ids, [0, 1, 2, 3, 4, 9, 9, 9, 9, 9])
        report = paired_compare(a, b)
        assert report.n_pairs == 10
        assert report.n_nonzero == 5
        expected_r = abs(wilcoxon_signed_rank([1] * 5).z) / np.sqrt(10)
        assert report.effect_size_r == pytest.approx(expected_r)


class TestRender:
    def _report(self):
        a = table(["x", "y", "z"], [2.0, 3.0, 4.0], "llm")
        b = table(["x", "y", "z"], [1.0, 1.0, 1.0], "human")
        return paired_compare(a, b)

    def test_json_round_trip(self):
        report = self._report()
        assert json.loads(render_report(report, format="json")) == [report.to_dict()]

    def test_win_rate_two_decimals(self):
        ids = [f"s{i}" for i in range(1000)]
        scores_a = [1.0] * 733 + [0.0] * 267
        scores_b = [0.0] * 733 + [1.0] * 267
        report = paired_compare(table(ids, scores_a), table(ids, scores_b))
        assert report.win_rate_a == pytest.approx(0.733)
        assert "73.30" in render_report(report, format="table")

    def test_empty_report_list_is_header_only(self):
        out = render_report([], format="table")
        assert out.splitlines() == [out.splitlines()[0]]
        assert "Win Rate" in out

    def test_csv_format(self):
        out = render_report(self._report(), format="csv")
        lines = out.strip().splitlines()
        assert lines[0].startswith("Corpus A,Corpus B,")
        assert len(lines) == 2

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            render_report(self._report(), format="yaml")


class TestScoreCorpus:
    def _model(self):
        rng = np.random.default_rng(0)
        return ReadabilityModel(
            scaler=ScalerParams(mu=np.zeros(N_FEATURES), sigma=np.ones(N_FEATURES)),
            selected=tuple(range(6)),
            weights=rng.normal(size=6),
            intercept=0.1,
            lambda_l2=1.0,
        )

    def test_empty_corpus(self, bundled_dict):
        t = score_corpus(self._model(), [], d=bundled_dict)
        assert len(t) == 0

    def test_duplicate_bytes_same_score(self, bundled_dict):
        snippets = [snip("x = value + 1", id="a"), snip("x = value + 1", id="b")]
        t = score_corpus(self._model(), snippets, d=bundled_dict)
        assert t.linear_scores[0] == t.linear_scores[1]
        assert t.probabilities[0] == t.probabilities[1]

    def test_csv_round_trip(self, bundled_dict, tmp_path):
        snippets = [snip("x = 1", id="a"), snip("y = 2", id="b")]
        t = score_corpus(self._model(), snippets, d=bundled_dict, label="demo")
        path = tmp_path / "scores.csv"
        write_score_table(t, path)
        loaded = read_score_table(path, label="demo")
        assert loaded.ids == t.ids
        assert loaded.linear_scores == pytest.approx(t.linear_scores)

    @pytest.mark.parametrize("row", [["b", "nan", "0.5"], ["b", "0.2", "nan"]])
    def test_nan_score_names_its_row(self, tmp_path, row):
        path = tmp_path / "scores.csv"
        path.write_text("id,linear_score,probability\na,0.1,0.52\n" + ",".join(row) + "\n",
                        encoding="utf-8")
        with pytest.raises(ValueError, match=r"scores\.csv, line 3: NaN value \(id 'b'\)"):
            read_score_table(path)

    @pytest.mark.parametrize("row,message", [
        ("b,0.2", "scores.csv, line 3: expected 3 fields, got 2"),
        ("b,0.2,0.5,extra", "scores.csv, line 3: expected 3 fields, got 4"),
        ("b,abc,0.5", r"scores.csv, line 3: non-numeric value \(id 'b'\)"),
    ], ids=["short", "long", "non-numeric"])
    def test_malformed_row_names_its_line(self, tmp_path, row, message):
        path = tmp_path / "scores.csv"
        path.write_text("id,linear_score,probability\na,0.1,0.52\n" + row + "\n",
                        encoding="utf-8")
        with pytest.raises(ValueError, match=message):
            read_score_table(path)

    def test_trained_model_separates_training_labels(self, bundled_dict):
        readable = [
            snip("# Add one to the value.\ndef add_one(value):\n    return value + 1", id=f"r{i}")
            for i in range(8)
        ]
        cryptic = [
            snip("def q(z9,qq,zz):\n return ((z9<<3)^qq)%zz if z9 else (qq//zz)+(z9&qq)", id=f"c{i}")
            for i in range(8)
        ]
        snippets = readable + cryptic
        y = np.array([1] * 8 + [0] * 8)
        X = featurize_corpus(snippets, d=bundled_dict)
        model = train_model(X, y, family="all", lambda_l2=1.0, k_max=2,
                            inner_cv=2, seed=0)
        scores = np.array(score_corpus(model, snippets, d=bundled_dict).linear_scores)
        assert scores[y == 1].mean() > scores[y == 0].mean()
