import csv
import io
import json
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from codereadability.cli import build_parser, main
from codereadability.config import AnalysisConfig, load_config

ROOT = Path(__file__).resolve().parent.parent

READABLE = [
    '# Add two numbers and return the total.\ndef add_numbers(first, second):\n    total = first + second\n    return total',
    '# Count the items in the list.\ndef count_items(items):\n    return len(items)',
    '# Find the largest value.\ndef find_largest(values):\n    largest = values[0]\n    for value in values:\n        if value > largest:\n            largest = value\n    return largest',
    '# Join words with spaces.\ndef join_words(words):\n    return " ".join(words)',
    '# Check whether the number is even.\ndef is_even(number):\n    return number % 2 == 0',
    '# Compute the average of the values.\ndef average(values):\n    total = sum(values)\n    return total / len(values)',
]
CRYPTIC = [
    'def q(a9,b8,c7):\n return ((a9<<3)^b8)%c7 if a9 else (b8//c7)+(a9&b8)',
    'def zz(x):\n    return [(i,j,k) for i in x for j in x for k in x if i^j&k or not i%3!=2]',
    'def w1(p,q):\n  r=p;s=q\n  while r:r,s=s%r,r\n  return s if s else q',
    'def m0(v):\n        t=0\n        for u in v:t=t*31+u if u%2 else t^u<<2\n        return t',
    'def k(o):\n return {x:y for x,y in zip(o[::2],o[1::2]) if x*y-x//(y or 1)>0}',
    'def j8(n):\n    return n and j8(n-1)*n or 1 if n>=0 else -j8(-n)',
]


def write_labeled_dataset(root, n_each=6):
    root.mkdir(parents=True, exist_ok=True)
    rows = []
    for i in range(n_each):
        for label, texts, tag in ((1, READABLE, "good"), (0, CRYPTIC, "bad")):
            sid = f"{tag}{i}"
            (root / f"{sid}.py").write_text(texts[i % len(texts)] + f"\n# variant {i}\n"
                                            if label == 1 else texts[i % len(texts)],
                                            encoding="utf-8")
            rows.append((sid, f"{sid}.py", "python", label))
    manifest = root / "manifest.csv"
    with open(manifest, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "path", "language", "label"])
        writer.writerows(rows)
    return manifest


class TestFeaturizeCommand:
    def test_directory_of_files(self, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        for i in range(3):
            (src / f"f{i}.py").write_text(f"x{i} = {i}\n")
        out = tmp_path / "matrix.csv"
        assert main(["featurize", "--in", str(src), "--out", str(out)]) == 0
        rows = out.read_text().strip().splitlines()
        assert len(rows) == 4  # header + 3

    def test_empty_directory_header_only(self, tmp_path, capsys):
        src = tmp_path / "empty"
        src.mkdir()
        out = tmp_path / "matrix.csv"
        assert main(["featurize", "--in", str(src), "--out", str(out)]) == 0
        assert len(out.read_text().strip().splitlines()) == 1
        assert f"no snippets found in {src}; writing header-only matrix" in capsys.readouterr().err

    def test_corrupt_file_keep_going(self, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        (src / "ok1.py").write_text("x = 1\n")
        (src / "bad.py").write_bytes(b"\xff\xfe broken")
        (src / "ok2.py").write_text("y = 2\n")
        out = tmp_path / "matrix.csv"
        code = main(["featurize", "--in", str(src), "--out", str(out), "--keep-going"])
        assert code != 0
        assert len(out.read_text().strip().splitlines()) == 3  # header + 2 good rows

    def test_corrupt_file_without_keep_going(self, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        (src / "bad.py").write_bytes(b"\xff")
        code = main(["featurize", "--in", str(src), "--out", str(tmp_path / "m.csv")])
        assert code == 3

    def test_ini_profile_adds_a_language(self, tmp_path):
        (tmp_path / "p.ini").write_text(
            "[rust]\nkeywords = fn let mut return\nline_comments = //\n"
            "block_comments = /* */\nstrings = \"\n")
        cfg = tmp_path / "conf.ini"
        cfg.write_text(f"[lexical]\nprofiles = {tmp_path / 'p.ini'}\n")
        src = tmp_path / "src"
        src.mkdir()
        (src / "add.rs").write_text("fn add(a: i32, b: i32) -> i32 {\n    a + b // sum\n}\n")
        out = tmp_path / "matrix.csv"
        assert main(["--config", str(cfg), "featurize", "--in", str(src),
                     "--lang", "rust", "--out", str(out)]) == 0
        assert len(out.read_text().strip().splitlines()) == 2  # header + 1

    def test_manifest_input(self, tmp_path):
        manifest = write_labeled_dataset(tmp_path / "data", n_each=2)
        out = tmp_path / "matrix.csv"
        assert main(["featurize", "--in", str(manifest), "--out", str(out)]) == 0
        assert len(out.read_text().strip().splitlines()) == 5  # header + 4


class TestTrainEvaluateCommands:
    def test_train_writes_loadable_model(self, tmp_path):
        manifest = write_labeled_dataset(tmp_path / "data")
        model_path = tmp_path / "model.json"
        code = main(["train", "--data", str(manifest), "--family", "all",
                     "--kmax", "2", "--seed", "7", "--out", str(model_path)])
        assert code == 0
        doc = json.loads(model_path.read_text())
        assert len(doc["mu"]) == 61
        assert len(doc["weights"]) == len(doc["selected"])

    @pytest.mark.parametrize("extra", [[], ["--folds", "3", "--out", "model.json"]])
    def test_train_flag_errors_are_usage_errors_before_training(self, tmp_path, monkeypatch,
                                                                 capsys, extra):
        """No --out, or --folds (an evaluate flag): exit 2, nothing trained."""
        from codereadability import model

        def never(*args, **kwargs):
            raise AssertionError("train ran with a usage error")

        monkeypatch.setattr(model, "train_model", never)
        manifest = write_labeled_dataset(tmp_path / "data", n_each=2)
        with pytest.raises(SystemExit) as exc:
            main(["train", "--data", str(manifest)] + extra)
        assert exc.value.code == 2
        assert ("--out" if not extra else "--folds") in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, value", [
        ("train", "--kmax", "0"), ("train", "--kmax", "-3"), ("evaluate", "--kmax", "0"),
        ("evaluate", "--folds", "1"), ("evaluate", "--folds", "0"), ("evaluate", "--folds", "-2"),
        ("train", "--seed", "-5"), ("evaluate", "--seed", "-1"),
    ])
    def test_kmax_and_folds_below_their_minimum_are_usage_errors_before_featurize(
            self, tmp_path, monkeypatch, capsys, command, flag, value):
        """--kmax < 1, --folds < 2 and --seed < 0: exit 2, nothing featurized or written."""
        from codereadability import cli

        def never(*args, **kwargs):
            raise AssertionError(f"{command} featurized with a usage error")

        monkeypatch.setattr(cli, "featurize_corpus", never)
        manifest = write_labeled_dataset(tmp_path / "data", n_each=2)
        out = tmp_path / "out.json"
        with pytest.raises(SystemExit) as exc:
            main([command, "--data", str(manifest), flag, value, "--out", str(out)])
        assert exc.value.code == 2
        assert f"argument {flag}: must be at least" in capsys.readouterr().err
        assert not out.exists()

    def test_smallest_kmax_and_folds_run(self, tmp_path):
        manifest = write_labeled_dataset(tmp_path / "data", n_each=4)
        model_path = tmp_path / "model.json"
        assert main(["train", "--data", str(manifest), "--kmax", "1",
                     "--out", str(model_path)]) == 0
        assert len(json.loads(model_path.read_text())["selected"]) == 1
        assert main(["evaluate", "--data", str(manifest), "--family", "pf", "--folds", "2",
                     "--kmax", "1", "--out", str(tmp_path / "r.json")]) == 0

    def test_evaluate_writes_report_with_config(self, tmp_path, capsys):
        manifest = write_labeled_dataset(tmp_path / "data")
        report_path = tmp_path / "report.json"
        code = main(["evaluate", "--data", str(manifest), "--family", "pf",
                     "--folds", "3", "--seed", "1", "--out", str(report_path)])
        assert code == 0
        doc = json.loads(report_path.read_text())
        assert doc["family"] == "pf"
        assert doc["k"] == 3
        assert "config" in doc and "lambda_l2" in doc["config"]
        assert 0.0 <= doc["auc"] <= 1.0
        printed = capsys.readouterr().out
        assert "Accuracy" in printed

    def test_evaluate_deterministic_bytes(self, tmp_path):
        manifest = write_labeled_dataset(tmp_path / "data")
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        args = ["evaluate", "--data", str(manifest), "--family", "bwf",
                "--folds", "3", "--seed", "5", "--kmax", "2"]
        main(args + ["--out", str(out1)])
        main(args + ["--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_missing_manifest_is_data_error(self, tmp_path):
        code = main(["evaluate", "--data", str(tmp_path / "none.csv"),
                     "--out", str(tmp_path / "r.json")])
        assert code == 3

    def test_too_small_class_names_label_plainly(self, tmp_path, caplog):
        manifest = write_labeled_dataset(tmp_path / "data", n_each=9)
        rows = manifest.read_text(encoding="utf-8").splitlines()
        # keep one readable snippet (label 1) and all nine cryptic ones
        kept = [r for r in rows if not r.startswith("good") or r.startswith("good0,")]
        manifest.write_text("\n".join(kept) + "\n", encoding="utf-8")
        code = main(["evaluate", "--data", str(manifest), "--folds", "2",
                     "--out", str(tmp_path / "r.json")])
        assert code == 3
        assert "class 1 has 1 members, fewer than k=2" in caplog.text


class TestScoreCompareCommands:
    @pytest.fixture()
    def trained_model(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("trained")
        manifest = write_labeled_dataset(root / "data")
        model_path = root / "model.json"
        main(["train", "--data", str(manifest), "--kmax", "2", "--out", str(model_path)])
        return model_path

    def test_score_empty_corpus(self, trained_model, tmp_path, capsys):
        src = tmp_path / "empty"
        src.mkdir()
        out = tmp_path / "scores.csv"
        assert main(["score", "--model", str(trained_model), "--in", str(src),
                     "--out", str(out)]) == 0
        assert out.read_text().strip() == "id,linear_score,probability"
        assert (f"no snippets found in {src}; writing header-only score table"
                in capsys.readouterr().err)

    def test_score_logs_the_columns_and_layers_it_reads(self, trained_model, tmp_path, capsys):
        from codereadability.vectorizer import feature_layers

        src = tmp_path / "src"
        src.mkdir()
        (src / "a.py").write_text("# note\nx = value + 1\n")
        quiet, verbose = tmp_path / "quiet.csv", tmp_path / "verbose.csv"
        assert main(["score", "--model", str(trained_model), "--in", str(src),
                     "--out", str(quiet)]) == 0
        assert "feature columns" not in capsys.readouterr().err
        assert main(["-v", "score", "--model", str(trained_model), "--in", str(src),
                     "--out", str(verbose)]) == 0
        selected = json.loads(trained_model.read_text())["selected"]
        assert (f"INFO codereadability: model reads {len(selected)} of 61 feature columns; "
                f"feature layers run: {', '.join(feature_layers(selected))}\n"
                in capsys.readouterr().err)
        assert verbose.read_bytes() == quiet.read_bytes()

    def test_score_logs_a_model_that_reads_no_column(self, trained_model, tmp_path, capsys):
        doc = json.loads(trained_model.read_text())
        doc["selected"], doc["weights"] = [], []
        empty = tmp_path / "empty_model.json"
        empty.write_text(json.dumps(doc))
        src = tmp_path / "src"
        src.mkdir()
        (src / "a.py").write_text("x = 1\n")
        assert main(["-v", "score", "--model", str(empty), "--in", str(src),
                     "--out", str(tmp_path / "s.csv")]) == 0
        assert ("model reads 0 of 61 feature columns; feature layers run: none"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("edit,field", [
        ({"sigma": [0.0] * 61, "intercept": float("nan")}, "intercept"),
        ({"sigma": [0.0] * 61}, "sigma"),
        ({"selected": [0], "weights": [[1.0]]}, "weights"),
        ({"selected": [0, 0], "weights": [1.0, 1.0]}, "selected"),
        ({"selected": [0.5], "weights": [1.0]}, "selected"),
    ], ids=["sigma=0,intercept=nan", "sigma=0", "weights=2d", "selected=dup", "selected=0.5"])
    def test_score_rejects_a_corrupt_model_exit_3(self, trained_model, tmp_path, capsys,
                                                 edit, field):
        doc = json.loads(trained_model.read_text())
        doc.update(edit)
        corrupt = tmp_path / "corrupt.json"
        corrupt.write_text(json.dumps(doc))
        src = tmp_path / "src"
        src.mkdir()
        (src / "a.py").write_text("x = 1\n")
        out = tmp_path / "s.csv"
        assert main(["score", "--model", str(corrupt), "--in", str(src), "--out", str(out)]) == 3
        assert not out.exists()
        assert f"ERROR codereadability: model file {corrupt}: {field} " in capsys.readouterr().err

    def test_compare_with_itself_degenerate(self, trained_model, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        (src / "a.py").write_text("x = 1\n")
        (src / "b.py").write_text("y = value + 2\n")
        scores = tmp_path / "s.csv"
        main(["score", "--model", str(trained_model), "--in", str(src), "--out", str(scores)])
        out = tmp_path / "cmp.json"
        code = main(["compare", "--a", str(scores), "--b", str(scores),
                     "--format", "json", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())[0]
        assert doc["degenerate"] is True
        assert doc["p_value"] == 1.0

    def test_compare_nan_score_exit_3_names_row(self, tmp_path, capsys):
        for name, score in (("a.csv", "nan"), ("b.csv", "0.5")):
            (tmp_path / name).write_text(f"id,linear_score,probability\nx,0.1,0.5\ny,{score},0.5\n",
                                         encoding="utf-8")
        assert main(["compare", "--a", str(tmp_path / "a.csv"),
                     "--b", str(tmp_path / "b.csv")]) == 3
        err = capsys.readouterr().err
        assert f"ERROR codereadability: {tmp_path / 'a.csv'}, line 3: NaN value (id 'y')" in err

    def test_compare_empty_score_table_exit_3_names_the_file(self, tmp_path, capsys):
        empty, one = tmp_path / "empty.csv", tmp_path / "one.csv"
        empty.write_bytes(b"")
        one.write_text("id,linear_score,probability\nx,0.1,0.5\n", encoding="utf-8")
        assert main(["compare", "--a", str(empty), "--b", str(one)]) == 3
        err = capsys.readouterr().err
        assert f"ERROR codereadability: empty score table: {empty}" in err
        assert "internal error" not in err

    def test_compare_disjoint_ids_error(self, tmp_path):
        for name, sid in (("a.csv", "only_a"), ("b.csv", "only_b")):
            with open(tmp_path / name, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["id", "linear_score", "probability"])
                writer.writerow([sid, "1.0", "0.7"])
        assert main(["compare", "--a", str(tmp_path / "a.csv"),
                     "--b", str(tmp_path / "b.csv")]) == 3


class TestCliContract:
    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["not-a-command"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command,flags", [
        ("featurize", ["--in", "--lang", "--out", "--keep-going"]),
        ("train", ["--data", "--family", "--seed", "--lambda", "--kmax", "--out"]),
        ("evaluate", ["--data", "--family", "--folds", "--seed", "--lambda", "--kmax", "--out"]),
        ("score", ["--model", "--in", "--lang", "--out"]),
        ("compare", ["--a", "--b", "--format", "--out"]),
    ])
    def test_help_documents_flags(self, command, flags, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--help"])
        text = capsys.readouterr().out
        for flag in flags:
            assert flag in text, f"{command} help is missing {flag}"

    def test_global_flags_in_help(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--help"])
        text = capsys.readouterr().out
        for flag in ("--config", "--verbose"):
            assert flag in text

    def test_config_file_applies(self, tmp_path):
        cfg = tmp_path / "conf.ini"
        cfg.write_text("[bwf]\ntab_width = 8\n\n[model]\nlambda_l2 = 0.5\n")
        src = tmp_path / "src"
        src.mkdir()
        (src / "a.py").write_text("\tx = 1\n")
        out_default = tmp_path / "m_default.csv"
        out_wide = tmp_path / "m_wide.csv"
        main(["featurize", "--in", str(src), "--out", str(out_default)])
        main(["--config", str(cfg), "featurize", "--in", str(src), "--out", str(out_wide)])
        assert out_default.read_text() != out_wide.read_text()

    @pytest.mark.parametrize("section", [
        "eps = nan", "eps = inf", "eps = -inf", "eps = -0.5", "min_samples = 0", "min_samples = -1",
    ])
    def test_invalid_dbscan_settings_exit_3(self, tmp_path, caplog, section):
        cfg = tmp_path / "conf.ini"
        cfg.write_text(f"[tf.dbscan]\n{section}\n")
        src = tmp_path / "src"
        src.mkdir()
        (src / "a.py").write_text("x = 1\nx = 1\n")
        out = tmp_path / "m.csv"
        assert main(["--config", str(cfg), "featurize", "--in", str(src), "--out", str(out)]) == 3
        assert not out.exists()
        assert "[tf.dbscan]" in caplog.text

    @pytest.mark.parametrize("section,key", [
        ("[tf.dbscan]\nepsilon = 0.9", "epsilon"),
        ("[tf.dbscan]\neps = 0.9\nmin_sample = 3", "min_sample"),
        ("[bwf]\ntabwidth = 8", "tabwidth"),
        ("[model]\nlambda = 0.5", "lambda"),
        ("[dictionary]\ndir = /nowhere", "dir"),
        ("[lexical]\nprofile = p.ini", "profile"),
    ])
    def test_unknown_key_exit_3_names_file_section_and_key(self, tmp_path, capsys, section, key):
        cfg = tmp_path / "conf.ini"
        cfg.write_text(section + "\n")
        src = tmp_path / "src"
        src.mkdir()
        (src / "a.py").write_text("x = 1\nx = 1\n")
        out = tmp_path / "m.csv"
        assert main(["--config", str(cfg), "featurize", "--in", str(src), "--out", str(out)]) == 3
        assert not out.exists()
        name = section[1:section.index("]")]
        assert f"{cfg}: unknown key '{key}' in section [{name}]" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["x = 1\n", "[bwf]\ntab_width = 4\n\n[bwf]\ntab_width = 2\n",
                                      "[bwf]\ntab_width = 4 %\n"],
                             ids=["no-section-header", "section-twice", "lone-percent"])
    @pytest.mark.parametrize("via", ["config", "profiles"])
    def test_malformed_ini_exit_3_names_the_file(self, tmp_path, capsys, text, via):
        bad = tmp_path / "bad.ini"
        bad.write_text(text)
        cfg = bad
        if via == "profiles":
            cfg = tmp_path / "conf.ini"
            cfg.write_text(f"[lexical]\nprofiles = {bad}\n")
        src = tmp_path / "src"
        src.mkdir()
        (src / "a.py").write_text("x = 1\n")
        out = tmp_path / "m.csv"
        assert main(["--config", str(cfg), "featurize", "--in", str(src), "--out", str(out)]) == 3
        assert not out.exists()
        err = capsys.readouterr().err
        assert f"{bad}: malformed INI: " in err
        assert "internal error" not in err

    def test_unknown_profile_key_exit_3_names_file_section_and_key(self, tmp_path, capsys):
        profiles = tmp_path / "p.ini"
        profiles.write_text("[mylang]\nkeyword = fn let\n")  # for "keywords"
        cfg = tmp_path / "conf.ini"
        cfg.write_text(f"[lexical]\nprofiles = {profiles}\n")
        src = tmp_path / "src"
        src.mkdir()
        (src / "a.ml").write_text("fn f\nlet x = 1\n")
        out = tmp_path / "m.csv"
        assert main(["--config", str(cfg), "featurize", "--in", str(src), "--lang", "mylang",
                     "--out", str(out)]) == 3
        assert not out.exists()
        assert (f"{profiles}: unknown key 'keyword' in section [mylang]"
                in capsys.readouterr().err)

    def test_invalid_profile_value_exit_3_names_file_section_and_key(self, tmp_path, capsys):
        profiles = tmp_path / "p.ini"
        profiles.write_text("[mylang]\nblock_comments = /*\n")
        cfg = tmp_path / "conf.ini"
        cfg.write_text(f"[lexical]\nprofiles = {profiles}\n")
        src = tmp_path / "src"
        src.mkdir()
        (src / "a.py").write_text("x = 1\n")
        out = tmp_path / "m.csv"
        assert main(["--config", str(cfg), "featurize", "--in", str(src), "--out", str(out)]) == 3
        assert not out.exists()
        assert (f"{profiles}: [mylang] block_comments: block comment delimiters must come in "
                f"open/close pairs: '/*'" in capsys.readouterr().err)

    def test_readme_ini_example_loads(self, tmp_path):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        cfg = tmp_path / "conf.ini"
        cfg.write_text(re.search(r"```ini\n(.*?)```", readme, re.DOTALL).group(1), encoding="utf-8")
        assert load_config(cfg) == AnalysisConfig(
            dictionary_path="/usr/share/wordnet/dict", dbscan_eps=0.5, dbscan_min_samples=2,
            tab_width=4, lambda_l2=1.0, inner_cv=5, profiles_path="my_profiles.ini")

    def test_unknown_section_warns_and_default_keys_are_accepted(self, tmp_path, capsys):
        src = tmp_path / "src"
        src.mkdir()
        (src / "a.py").write_text("\tx = 1\nx = 1\n")
        cfg, plain = tmp_path / "conf.ini", tmp_path / "plain.ini"
        plain.write_text("[bwf]\ntab_width = 8\n")
        # a [DEFAULT] key reaches every section: only its interpolation uses it here
        cfg.write_text("[DEFAULT]\nwidth = 8\n\n[bwf]\ntab_width = %(width)s\n\n"
                       "[tf.dbsan]\neps = 0.9\n")
        out, expected = tmp_path / "m.csv", tmp_path / "expected.csv"
        assert main(["--config", str(plain), "featurize", "--in", str(src),
                     "--out", str(expected)]) == 0
        capsys.readouterr()
        assert main(["--config", str(cfg), "featurize", "--in", str(src), "--out", str(out)]) == 0
        assert out.read_bytes() == expected.read_bytes()
        assert (f"WARNING codereadability.config: {cfg}: ignoring unknown section [tf.dbsan]"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("section", ["eps = 0.5\nmin_samples = 2", "eps = 0\nmin_samples = 1",
                                         "eps = 1.5"])
    def test_valid_dbscan_settings_featurize(self, tmp_path, section):
        cfg = tmp_path / "conf.ini"
        cfg.write_text(f"[tf.dbscan]\n{section}\n")
        src = tmp_path / "src"
        src.mkdir()
        (src / "a.py").write_text("x = 1\nx = 1\n")
        out, default = tmp_path / "m.csv", tmp_path / "default.csv"
        assert main(["--config", str(cfg), "featurize", "--in", str(src), "--out", str(out)]) == 0
        main(["featurize", "--in", str(src), "--out", str(default)])
        if section.startswith("eps = 0.5"):  # the defaults, spelled out
            assert out.read_bytes() == default.read_bytes()

    @pytest.mark.parametrize("section,message", [
        ("[bwf]\ntab_width = -4", "[bwf] tab_width must be >= 1, got -4"),
        ("[bwf]\ntab_width = 0", "[bwf] tab_width must be >= 1, got 0"),
        ("[model]\ninner_cv = 0", "[model] inner_cv must be >= 2, got 0"),
        ("[model]\ninner_cv = 1", "[model] inner_cv must be >= 2, got 1"),
        ("[model]\nlambda_l2 = nan", "[model] lambda_l2 must be finite and >= 0, got nan"),
        ("[model]\nlambda_l2 = inf", "[model] lambda_l2 must be finite and >= 0, got inf"),
        ("[model]\nlambda_l2 = -1", "[model] lambda_l2 must be finite and >= 0, got -1.0"),
    ], ids=["tab_width=-4", "tab_width=0", "inner_cv=0", "inner_cv=1",
            "lambda_l2=nan", "lambda_l2=inf", "lambda_l2=-1"])
    def test_invalid_numeric_settings_exit_3(self, tmp_path, capsys, section, message):
        cfg = tmp_path / "conf.ini"
        cfg.write_text(section + "\n")
        src = tmp_path / "src"
        src.mkdir()
        (src / "a.py").write_text("\tx = 1\n")
        out = tmp_path / "m.csv"
        assert main(["--config", str(cfg), "featurize", "--in", str(src), "--out", str(out)]) == 3
        assert not out.exists()
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("section,message", [
        ("[model]\ninner_cv = 5.0", "[model] inner_cv: invalid literal for int() with base 10: '5.0'"),
        ("[tf.dbscan]\neps = wide", "[tf.dbscan] eps: could not convert string to float: 'wide'"),
        ("[bwf]\ntab_width = 0", "[bwf] tab_width must be >= 1, got 0"),
    ], ids=["inner_cv=5.0", "eps=wide", "tab_width=0"])
    def test_invalid_value_names_file_section_and_key(self, tmp_path, capsys, section, message):
        cfg = tmp_path / "conf.ini"
        cfg.write_text(section + "\n")
        src = tmp_path / "src"
        src.mkdir()
        (src / "a.py").write_text("x = 1\n")
        assert main(["--config", str(cfg), "featurize", "--in", str(src),
                     "--out", str(tmp_path / "m.csv")]) == 3
        assert f"{cfg}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("name,record", [
        ("index.noun", "garbage"),
        ("data.noun", "00000002 05 n 01 animal 0 001 @"),  # a pointer without its target
    ])
    def test_malformed_wordnet_file_exit_3_names_file_and_line(self, tmp_path, capsys, name, record):
        wordnet = tmp_path / "wordnet"
        wordnet.mkdir()
        (wordnet / "index.noun").write_text("  1 license header\nanimal n 1 1 @ 1 0 00000002\n")
        (wordnet / name).write_text(f"  1 license header\n{record}\n")
        cfg = tmp_path / "conf.ini"
        cfg.write_text(f"[dictionary]\npath = {wordnet}\n")
        src = tmp_path / "src"
        src.mkdir()
        (src / "a.py").write_text("animal = 1\n")
        out = tmp_path / "m.csv"
        assert main(["--config", str(cfg), "featurize", "--in", str(src), "--out", str(out)]) == 3
        assert not out.exists()
        err = capsys.readouterr().err
        assert f"{wordnet / name}, line 2: malformed WordNet record" in err
        assert "internal error" not in err

    def test_undecodable_wordnet_file_exit_3_names_file_and_line(self, tmp_path, capsys):
        wordnet = tmp_path / "wordnet"
        wordnet.mkdir()
        (wordnet / "index.noun").write_bytes(b"  1 license header\nanimal n 1 1 @ 1 0 00000002\n\xff\n")
        cfg = tmp_path / "conf.ini"
        cfg.write_text(f"[dictionary]\npath = {wordnet}\n")
        src = tmp_path / "src"
        src.mkdir()
        (src / "a.py").write_text("animal = 1\n")
        out = tmp_path / "m.csv"
        assert main(["--config", str(cfg), "featurize", "--in", str(src), "--out", str(out)]) == 3
        assert not out.exists()
        err = capsys.readouterr().err
        assert re.search(rf"cannot read {re.escape(str(wordnet / 'index.noun'))}: .*\(line 3\)$", err, re.M)
        assert "internal error" not in err

    @pytest.mark.parametrize("value", ["nan", "-0.5"])
    def test_invalid_lambda_flag_exit_3(self, tmp_path, capsys, value):
        manifest = write_labeled_dataset(tmp_path / "data")
        code = main(["train", "--data", str(manifest), f"--lambda={value}",
                     "--out", str(tmp_path / "model.json")])
        assert code == 3
        assert "[model] lambda_l2 must be finite and >= 0" in capsys.readouterr().err
        assert not (tmp_path / "model.json").exists()

    def test_smallest_valid_numeric_settings_featurize(self, tmp_path):
        cfg = tmp_path / "conf.ini"
        cfg.write_text("[bwf]\ntab_width = 1\n\n[model]\ninner_cv = 2\nlambda_l2 = 0\n")
        src = tmp_path / "src"
        src.mkdir()
        (src / "a.py").write_text("\tx = 1\n")
        assert main(["--config", str(cfg), "featurize", "--in", str(src),
                     "--out", str(tmp_path / "m.csv")]) == 0


@pytest.mark.parametrize("kind", ["model", "score table", "config", "manifest"])
def test_undecodable_file_exit_3_names_the_file(tmp_path, capsys, kind):
    bad = tmp_path / "bad"
    bad.write_bytes(b"\xff\xfe not UTF-8\n")
    src = tmp_path / "src"
    src.mkdir()
    (src / "a.py").write_text("x = 1\n")
    scores = tmp_path / "scores.csv"
    scores.write_text("id,linear_score,probability\nx,0.1,0.5\n", encoding="utf-8")
    out = tmp_path / "out.csv"
    argv = {
        "model": ["score", "--model", str(bad), "--in", str(src), "--out", str(out)],
        "score table": ["compare", "--a", str(scores), "--b", str(bad)],
        "config": ["--config", str(bad), "featurize", "--in", str(src), "--out", str(out)],
        "manifest": ["featurize", "--in", str(bad), "--out", str(out)],
    }[kind]
    assert main(argv) == 3
    assert not out.exists()
    err = capsys.readouterr().err
    assert re.search(rf"ERROR codereadability: cannot read .*{re.escape(str(bad))}: 'utf-8' codec can't decode", err)
    assert "internal error" not in err


@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["no-bom", "bom"])
def test_undecodable_config_names_its_line_past_a_long_line(tmp_path, capsys, bom):
    cfg = tmp_path / "conf.ini"
    cfg.write_bytes(bom + b"[bwf]\n; " + b"c" * 20000 + b"\ntab_width = \xff\n")
    src = tmp_path / "src"
    src.mkdir()
    (src / "a.py").write_text("x = 1\n")
    out = tmp_path / "m.csv"
    assert main(["--config", str(cfg), "featurize", "--in", str(src), "--out", str(out)]) == 3
    assert not out.exists()
    err = capsys.readouterr().err
    assert re.search(rf"ERROR codereadability: cannot read {re.escape(str(cfg))}: 'utf-8' codec "
                     r"can't decode byte 0xff in position 20021: .* \(line 3\)$", err, re.M), err


def test_undecodable_snippet_of_a_manifest_exit_3_names_the_row(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n")
    (tmp_path / "b.py").write_bytes(b"\xff\xfe\n")
    manifest = tmp_path / "m.csv"
    manifest.write_text("id,path,language,label\na,a.py,python,1\nb,b.py,python,0\n")
    out = tmp_path / "out.csv"
    assert main(["featurize", "--in", str(manifest), "--out", str(out)]) == 3
    assert not out.exists()
    assert (f"ERROR codereadability: {manifest}, line 3: snippet file {tmp_path / 'b.py'}: "
            f"undecodable byte at offset 0\n" in capsys.readouterr().err)


@pytest.mark.parametrize("flags,verbose", [([], False), (["-v"], True), (["--verbose"], True),
                                           (["-vv"], True), (["-v", "-v"], True)])
def test_verbose_is_one_flag(flags, verbose):
    assert build_parser().parse_args([*flags, "compare", "--a", "x", "--b", "y"]).verbose is verbose


def test_each_main_call_logs_to_its_own_stderr_and_level(tmp_path, capsys, monkeypatch):
    first = io.StringIO()
    monkeypatch.setattr(sys, "stderr", first)
    assert main(["compare", "--a", str(tmp_path / "one.csv"), "--b", str(tmp_path / "one.csv")]) == 3
    monkeypatch.undo()
    assert main(["-v", "compare", "--a", str(tmp_path / "two.csv"),
                 "--b", str(tmp_path / "two.csv")]) == 3
    second = capsys.readouterr().err
    assert "one.csv" in first.getvalue() and "two.csv" not in first.getvalue()
    assert "INFO" not in first.getvalue()
    assert "ERROR codereadability:" in second and "two.csv" in second
    assert "INFO codereadability: resolved config" in second
    assert "one.csv" not in second
    assert logging.getLogger("codereadability").handlers == []


_TRACED_FEATURIZE = """
import json, sys
import tracing
from codereadability import cli
tracer = tracing.Tracer()
tracing.install(tracer)
code = cli.main(["featurize", "--in", sys.argv[1], "--out", sys.argv[2]])
print(json.dumps({"exit": code, "tokenize_calls":
                  tracer.to_dict()["layers"]["lexical.tokenize"]["calls"]}))
"""


def test_benchmark_tracer_hooks_resolve(tmp_path):
    """Every name the benchmark's tracer patches must still exist and be
    on the call path, or traced benchmark runs break."""
    src = tmp_path / "src"
    src.mkdir()
    (src / "a.py").write_text("total = price * count  # cost\n")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")])}
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_FEATURIZE, str(src), str(tmp_path / "m.csv")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["exit"] == 0
    assert result["tokenize_calls"] > 0


_SCIPY_MODULES = """
import json, sys
from codereadability.cli import main
code = main(sys.argv[1:])
print(json.dumps({"exit": code, "scipy": sorted(m for m in sys.modules
                                                 if m.partition(".")[0] == "scipy")}))
"""


def run_cli_reporting_scipy(*argv):
    """Exit code and loaded scipy modules of one CLI command in a fresh process."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", _SCIPY_MODULES, *map(str, argv)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["exit"] == 0, proc.stderr
    return result["scipy"]


class TestImportFootprint:
    def test_featurize_loads_no_scipy(self, tmp_path):
        manifest = write_labeled_dataset(tmp_path / "data")
        assert run_cli_reporting_scipy("featurize", "--in", manifest,
                                       "--out", tmp_path / "m.csv") == []

    def test_model_and_compare_commands_never_load_scipy_stats(self, tmp_path):
        manifest = write_labeled_dataset(tmp_path / "data")
        model, scores = tmp_path / "model.json", tmp_path / "scores.csv"
        loaded = {
            "train": run_cli_reporting_scipy("train", "--data", manifest, "--kmax", "2",
                                             "--out", model),
            "evaluate": run_cli_reporting_scipy("evaluate", "--data", manifest, "--folds", "2",
                                                "--kmax", "2"),
            "score": run_cli_reporting_scipy("score", "--model", model, "--in", manifest,
                                             "--out", scores),
            "compare": run_cli_reporting_scipy("compare", "--a", scores, "--b", scores),
        }
        for command, modules in loaded.items():
            assert "scipy.special" in modules, command  # the check can see scipy at all
            assert not [m for m in modules if m.startswith("scipy.stats")], command
