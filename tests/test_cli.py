import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from codereadability import profiles
from codereadability.cli import build_parser, main

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

    def test_empty_directory_header_only(self, tmp_path):
        src = tmp_path / "empty"
        src.mkdir()
        out = tmp_path / "matrix.csv"
        assert main(["featurize", "--in", str(src), "--out", str(out)]) == 0
        assert len(out.read_text().strip().splitlines()) == 1

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

    def test_ini_profile_adds_a_language(self, tmp_path, monkeypatch):
        monkeypatch.setattr(profiles, "_registered_profiles", {})
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

    def test_score_empty_corpus(self, trained_model, tmp_path):
        src = tmp_path / "empty"
        src.mkdir()
        out = tmp_path / "scores.csv"
        assert main(["score", "--model", str(trained_model), "--in", str(src),
                     "--out", str(out)]) == 0
        assert out.read_text().strip() == "id,linear_score,probability"

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
        ("train", ["--data", "--family", "--folds", "--seed", "--lambda", "--kmax", "--out"]),
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
