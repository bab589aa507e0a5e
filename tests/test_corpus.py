import csv
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codereadability.corpus import (
    BoundedMemo,
    DatasetError,
    load_labeled_dataset,
    load_snippet,
    load_snippet_file,
    preprocess,
)
from codereadability.vectorizer import featurize_corpus


class TestBoundedMemo:
    def test_holds_at_most_size_keys_and_builds_each_key_once_until_cleared(self):
        built = []
        memo = BoundedMemo(lambda key: built.append(key) or key * 2, 3)
        for key in [0, 1, 0, 2, 1, 2, 0]:
            assert memo[key] == key * 2
            assert len(memo) <= 3
        assert built == [0, 1, 2]
        assert memo[3] == 6  # the fourth key empties it first
        assert dict(memo) == {3: 6}
        assert [memo[key] for key in (0, 3, 0)] == [0, 6, 0]
        assert built == [0, 1, 2, 3, 0]

    def test_a_build_that_raises_stores_nothing(self):
        def build(key):
            if key < 0:
                raise ValueError(key)
            return key

        memo = BoundedMemo(build, 4)
        assert memo[1] == 1
        with pytest.raises(ValueError):
            memo[-1]
        assert dict(memo) == {1: 1}


class TestLoadSnippet:
    def test_crlf_normalized(self):
        assert load_snippet("a\r\nb", "python", "s1").lines == ("a", "b")

    def test_empty_input(self):
        assert load_snippet("", "python", "s2").lines == ()

    def test_trailing_blanks_preserved_until_preprocess(self):
        # newline terminates a line: three lines, two of them blank
        s = load_snippet("x=1\n\n\n", "python", "s3")
        assert s.lines == ("x=1", "", "")
        assert preprocess(s).lines == ("x=1",)

    def test_unsupported_language(self, bundled_dict):
        # only recorded on load; featurizing looks it up in the profile table,
        # even for a snippet with no lines
        s, empty = load_snippet("x", "fortran", "s"), load_snippet("", "fortran", "e")
        assert s.language == empty.language == "fortran"
        for call in (lambda: featurize_corpus([s], d=bundled_dict),
                     lambda: featurize_corpus([empty], d=bundled_dict)):
            with pytest.raises(ValueError, match="unsupported language 'fortran'"):
                call()

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.binary(max_size=64),
                     st.text(max_size=40).map(lambda t: t.encode("utf-8", "surrogatepass")),
                     st.lists(st.sampled_from(["\ufeff", "x", "\r", "\n", "\r\n", "é"]))
                     .map(lambda parts: "".join(parts).encode("utf-8"))),
           st.one_of(st.text(max_size=20), st.sampled_from(["python", "generic", "rust", ""])))
    def test_any_bytes_and_language_load(self, data, language):
        # only undecodable bytes fail, where UTF-8 decoding does, naming the file and line
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "s.txt"
            path.write_bytes(data)
            try:
                s = load_snippet_file(path, language, "s")
            except DatasetError as exc:
                body = data.removeprefix(b"\xef\xbb\xbf")
                with pytest.raises(UnicodeDecodeError) as decode:
                    body.decode("utf-8")
                line = body.count(b"\n", 0, decode.value.start) + 1
                assert str(exc) == f"cannot read {path}: {decode.value} (line {line})"
                return
        text = data.decode("utf-8-sig").replace("\r\n", "\n").replace("\r", "\n")
        assert (s.id, s.language) == ("s", language)
        assert not any("\r" in line or "\n" in line for line in s.lines)
        assert "\n".join(s.lines) == text.removesuffix("\n")

    def test_undecodable_bytes_name_the_file_and_line(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_bytes(b"x = 1\n\xff\xfe\n")
        with pytest.raises(DatasetError, match=rf"^cannot read {re.escape(str(bad))}: 'utf-8' codec "
                                               r"can't decode byte 0xff in position 6: .* \(line 2\)$"):
            load_snippet_file(bad, "python", "bad")

    def test_a_nul_in_the_path_names_the_file(self, tmp_path):
        with pytest.raises(DatasetError, match=r"^cannot read .*a\0\.py: embedded null byte$"):
            load_snippet_file(tmp_path / "a\0.py", "python")

    def test_a_bom_is_dropped_on_load(self, tmp_path):
        path = tmp_path / "a.py"
        path.write_bytes(b"\xef\xbb\xbfx = 1\n")
        assert load_snippet_file(path, "python").lines == ("x = 1",)


class TestPreprocess:
    def test_trims_outer_blank_lines(self):
        s = load_snippet("\nx=1\n", "python", "s")
        assert preprocess(s).lines == ("x=1",)

    def test_internal_blank_preserved(self):
        s = load_snippet("def f():\n\n    return 1", "python", "s")
        assert preprocess(s).lines == ("def f():", "", "    return 1")

    def test_bom_stripped(self):
        s = load_snippet("﻿x=1", "python", "s")
        out = preprocess(s)
        assert out.lines == ("x=1",)

    def test_whitespace_only_lines_are_blank(self):
        s = load_snippet("   \nx=1\n\t", "python", "s")
        assert preprocess(s).lines == ("x=1",)

    @given(st.lists(st.text(alphabet=st.characters(blacklist_categories=("Cs",),
                                                   blacklist_characters="\r\n"),
                            max_size=20), max_size=10))
    def test_idempotent(self, lines):
        s = load_snippet("\n".join(lines), "python", "s")
        once = preprocess(s)
        assert preprocess(once) == once

    @given(st.lists(st.text(alphabet="ab x=1", max_size=10), max_size=10))
    def test_nonblank_lines_survive_unchanged(self, lines):
        s = load_snippet("\n".join(lines), "python", "s")
        kept = [l for l in preprocess(s).lines if l.strip()]
        original = [l for l in s.lines if l.strip()]
        assert kept == original


def _write_dataset(tmp_path, rows):
    for sid, text in rows:
        (tmp_path / f"{sid}.py").write_text(text, encoding="utf-8")
    manifest = tmp_path / "manifest.csv"
    with open(manifest, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "path", "language", "label"])
        for i, (sid, _) in enumerate(rows):
            writer.writerow([sid, f"{sid}.py", "python", i % 2])
    return manifest


class TestLabeledDataset:
    def test_loads_all_rows(self, tmp_path):
        manifest = _write_dataset(tmp_path, [("a", "x=1"), ("b", "y=2"), ("c", "z=3")])
        ds = load_labeled_dataset(manifest)
        assert len(ds) == 3
        assert ds.labels == (0, 1, 0)

    def test_empty_manifest_warns(self, tmp_path, caplog):
        manifest = _write_dataset(tmp_path, [])
        with caplog.at_level("WARNING"):
            ds = load_labeled_dataset(manifest)
        assert len(ds) == 0
        assert any("no rows" in rec.message for rec in caplog.records)

    def test_nonbinary_label_names_row(self, tmp_path):
        manifest = _write_dataset(tmp_path, [("a", "x=1")])
        text = manifest.read_text().replace("a.py,python,0", "a.py,python,2")
        manifest.write_text(text)
        with pytest.raises(DatasetError, match=r"manifest\.csv, line 2: label must be 0 or 1, got '2'"):
            load_labeled_dataset(manifest)

    def test_duplicate_id_rejected(self, tmp_path):
        manifest = _write_dataset(tmp_path, [("a", "x=1")])
        with open(manifest, "a", newline="") as fh:
            csv.writer(fh).writerow(["a", "a.py", "python", 1])
        with pytest.raises(DatasetError, match="duplicate"):
            load_labeled_dataset(manifest)

    def test_missing_file_rejected(self, tmp_path):
        manifest = _write_dataset(tmp_path, [("a", "x=1")])
        (tmp_path / "a.py").unlink()
        with pytest.raises(DatasetError, match=rf"manifest\.csv, line 2: cannot read "
                                               rf"{re.escape(str(tmp_path / 'a.py'))}: "
                                               r"No such file or directory$"):
            load_labeled_dataset(manifest)

    def test_undecodable_snippet_names_manifest_line_path_and_line(self, tmp_path):
        manifest = _write_dataset(tmp_path, [("a", "x=1"), ("b", "y=2")])
        (tmp_path / "b.py").write_bytes(b"y = 2\n\xff\xfe\n")
        with pytest.raises(DatasetError, match=r"manifest\.csv, line 3: cannot read .*b\.py: 'utf-8' "
                                               r"codec can't decode byte 0xff in position 6: .* \(line 2\)$"):
            load_labeled_dataset(manifest)

    def test_unreadable_snippet_names_manifest_line(self, tmp_path):
        manifest = _write_dataset(tmp_path, [("a", "x=1")])
        (tmp_path / "a.py").unlink()
        (tmp_path / "a.py").mkdir()
        with pytest.raises(DatasetError, match=rf"manifest\.csv, line 2: cannot read "
                                               rf"{re.escape(str(tmp_path / 'a.py'))}: Is a directory$"):
            load_labeled_dataset(manifest)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DatasetError, match=rf"^cannot read {re.escape(str(tmp_path / 'nope.csv'))}: "
                                               r"No such file or directory$"):
            load_labeled_dataset(tmp_path / "nope.csv")
