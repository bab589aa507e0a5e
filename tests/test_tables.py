"""The table rules shared by the three CSV files the commands pass along:
the labeled manifest, the feature matrix and the score table.

Blank lines are skipped, the header is exact, every row has the header's
field count and a unique id, and every error is a ``ValueError`` naming
the file and, for a row, its physical line (exit 3 through the CLI). A
UTF-8 byte-order mark is dropped, as it is from the INI, snippet, model
and WordNet files. An input file that is missing, is a directory or holds
an undecodable byte is named once, ``cannot read <path>: <reason>``.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codereadability.analytics import read_score_table
from codereadability.cli import main
from codereadability.config import load_config
from codereadability.corpus import load_labeled_dataset
from codereadability.model import ReadabilityModel, ScalerParams, save_model
from codereadability.profiles import load_profiles
from codereadability.vectorizer import (
    N_FEATURES,
    read_feature_matrix,
    schema_names,
    write_feature_matrix,
)

# each table's public reader, its header, a valid row for an id, and the
# ids of what the reader returns
TABLES = {
    "manifest": (load_labeled_dataset, ["id", "path", "language", "label"],
                 lambda sid: [sid, "a.py", "python", "1"],
                 lambda loaded: [s.id for s in loaded.snippets]),
    "feature matrix": (read_feature_matrix, ["id", *schema_names()],
                       lambda sid: [sid, *["0.5"] * N_FEATURES],
                       lambda loaded: loaded[0]),
    "score table": (read_score_table, ["id", "linear_score", "probability"],
                    lambda sid: [sid, "0.1", "0.5"],
                    lambda loaded: list(loaded.ids)),
}


def _line(fields) -> bytes:
    return ",".join(fields).encode() + b"\n"


_BOM = b"\xef\xbb\xbf"


# each case: the file's bytes from (header, row) and the pattern of the
# expected message, formatted with the path, the table's name and the
# header's field count
CASES = {
    "empty file": (lambda header, row: b"", "empty {what}: {path}$"),
    "wrong header": (lambda header, row: _line([*header[:-1], "other"]) + _line(row("x")),
                     "{path}, line 1: {what} header must be "),
    "short row": (lambda header, row: _line(header) + _line(row("x")) + _line(row("y")[:-1]),
                  "{path}, line 3: expected {n} fields, got {n_minus_1}$"),
    "long row": (lambda header, row: _line(header) + _line(row("x")) + _line(row("y") + ["1"]),
                 "{path}, line 3: expected {n} fields, got {n_plus_1}$"),
    # the blank line is skipped but still counted
    "repeated id": (lambda header, row: _line(header) + _line(row("x")) + b"\n" + _line(row("x")),
                    "{path}, line 4: duplicate id 'x'$"),
    "undecodable byte": (lambda header, row: _line(header) + _line(row("x")) + b"\xff" + _line(row("y")),
                         "cannot read {path}: 'utf-8' codec can't decode byte 0xff in position "
                         "[0-9]+: invalid start byte \\(line 3\\)$"),
    # the decoder's offset counts from after the BOM
    "undecodable byte after a BOM": (
        lambda header, row: _BOM + _line(header) + _line(row("x")) + b"\xff" + _line(row("y")),
        "cannot read {path}: 'utf-8' codec can't decode byte 0xff in position "
        "[0-9]+: invalid start byte \\(line 3\\)$"),
    "oversized field": (lambda header, row: _line(header) + _line(row("x" * 200_000)),
                        "{path}, line 2: field larger than field limit"),
}


def _write_case(tmp_path, table, case):
    _, header, row, _ = TABLES[table]
    content, message = CASES[case]
    (tmp_path / "a.py").write_text("x = 1\n", encoding="utf-8")
    path = tmp_path / "table.csv"
    path.write_bytes(content(header, row))
    n = len(header)
    return path, message.format(path=re.escape(str(path)), what=table, n=n,
                                n_minus_1=n - 1, n_plus_1=n + 1)


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("table", TABLES)
def test_each_table_reader_names_the_file_and_line(tmp_path, table, case):
    path, pattern = _write_case(tmp_path, table, case)
    with pytest.raises(ValueError, match=pattern):
        TABLES[table][0](path)


@pytest.mark.parametrize("table", TABLES)
def test_blank_lines_are_skipped(tmp_path, table):
    read, header, row, ids_of = TABLES[table]
    (tmp_path / "a.py").write_text("x = 1\n", encoding="utf-8")
    path = tmp_path / "table.csv"
    path.write_bytes(b"\n" + _line(header) + b"\n" + _line(row("x")) + b"\r\n\n"
                     + _line(row("y")) + b"\n")
    assert ids_of(read(path)) == ["x", "y"]


@pytest.mark.parametrize("table", TABLES)
def test_a_bom_is_dropped(tmp_path, table):
    read, header, row, ids_of = TABLES[table]
    (tmp_path / "a.py").write_text("x = 1\n", encoding="utf-8")
    path = tmp_path / "table.csv"
    path.write_bytes(_BOM + _line(header) + _line(row("x")))
    assert ids_of(read(path)) == ["x"]


def test_a_bom_is_dropped_from_the_config(tmp_path):
    path = tmp_path / "conf.ini"
    path.write_bytes(_BOM + b"[bwf]\ntab_width = 8\n")
    assert load_config(path).tab_width == 8


def test_a_bom_is_dropped_from_the_profiles(tmp_path):
    path = tmp_path / "p.ini"
    path.write_bytes(_BOM + b"[mylang]\nkeywords = fn let\n")
    assert load_profiles(path)["mylang"].keyword_set == {"fn", "let"}


def _write_cli_inputs(tmp_path, special: str, prefix: bytes = b"", inserted: bytes = b"") -> None:
    """The files a featurize, score or compare call reads: a manifest, a
    config, a profiles INI, a WordNet database, snippet files (``a.ml``
    through the manifest, ``src/b.ml`` and ``src/c.ml`` in a directory), a
    model and a score table. The file ``special`` gets ``prefix`` before its
    bytes and ``inserted`` at the start of its line 2."""
    (tmp_path / "src").mkdir(exist_ok=True)
    (tmp_path / "wn").mkdir(exist_ok=True)
    save_model(ReadabilityModel(scaler=ScalerParams(mu=np.zeros(N_FEATURES), sigma=np.ones(N_FEATURES)),
                                selected=(0, 20), weights=np.array([0.5, -0.25]), intercept=0.1,
                                lambda_l2=1.0), tmp_path / "model.json")
    files = {
        "m.csv": _line(["id", "path", "language", "label"]) + _line(["a", "a.ml", "mylang", "1"]),
        "conf.ini": (f"[bwf]\ntab_width = 8\n\n[lexical]\nprofiles = {tmp_path / 'p.ini'}\n\n"
                     f"[dictionary]\npath = {tmp_path / 'wn'}\n").encode(),
        "p.ini": b"[mylang]\nkeywords = fn let\n",
        "wn/index.noun": b"  1 license header\nx n 1 1 @ 1 0 00000001\n",
        "wn/data.noun": b"  1 license header\n00000001 03 n 01 x 0 000 | a letter\n",
        "a.ml": b"fn f\nlet x = 1\n",
        "src/b.ml": b"fn g\n\tlet y = 2\n",
        "src/c.ml": b"let z = 3\n",
        "model.json": (tmp_path / "model.json").read_bytes(),
        "t.csv": _line(["id", "linear_score", "probability"]) + _line(["a", "0.1", "0.5"]),
    }
    for name, content in files.items():
        if name == special:
            first, rest = content.split(b"\n", 1)
            content = prefix + first + b"\n" + inserted + rest
        (tmp_path / name).write_bytes(content)


def _cli_argv(tmp_path, command: str, source: str) -> list[str]:
    argv = ["--config", str(tmp_path / "conf.ini"), command, "--in", str(tmp_path / source),
            "--lang", "mylang", "--out", str(tmp_path / "out.csv")]
    return argv + ["--model", str(tmp_path / "model.json")] if command == "score" else argv


@pytest.mark.parametrize("bom_in", ["m.csv", "conf.ini", "p.ini", "a.ml", "src/b.ml", "model.json",
                                    "wn/index.noun"])
def test_a_bom_changes_nothing_through_the_cli(tmp_path, bom_in):
    outputs = []
    for bom in (b"", _BOM):
        _write_cli_inputs(tmp_path, bom_in, prefix=bom)
        for command in ("featurize", "score"):
            for source in ("m.csv", "src"):
                assert main(_cli_argv(tmp_path, command, source)) == 0
                outputs.append((tmp_path / "out.csv").read_bytes())
    assert outputs[:4] == outputs[4:]


@pytest.mark.parametrize("bom", [b"", _BOM], ids=["no-bom", "bom"])
@pytest.mark.parametrize("command,bad_in", [("featurize", "a.ml"), ("featurize", "src/b.ml"),
                                            ("score", "a.ml"), ("score", "src/b.ml"),
                                            ("score", "model.json")])
def test_an_undecodable_byte_exits_3_naming_the_file_and_line(tmp_path, capsys, command, bad_in, bom):
    _write_cli_inputs(tmp_path, bad_in, prefix=bom, inserted=b"\xff")
    source = "src" if bad_in == "src/b.ml" else "m.csv"
    where = f"{tmp_path / 'm.csv'}, line 2: " if bad_in == "a.ml" else ""
    out = tmp_path / "out.csv"
    for keep_going in ([], ["--keep-going"]):
        assert main([*_cli_argv(tmp_path, command, source), *keep_going]) == 3
        err = capsys.readouterr().err
        assert re.fullmatch(f"ERROR codereadability: {re.escape(where)}cannot read "
                            f"{re.escape(str(tmp_path / bad_in))}: 'utf-8' codec can't decode byte "
                            r"0xff in position [0-9]+: invalid start byte \(line 2\)\n", err), err
        # --keep-going writes the other files of a directory, and nothing past a manifest row
        ids = (None if not out.exists()
               else [row.split(",")[0] for row in out.read_text().splitlines()[1:]])
        assert ids == (["c.ml"] if keep_going and source == "src" else None)
        out.unlink(missing_ok=True)


# each input kind: the file, the argv after --config, and the output it
# writes with --keep-going (the other file of a directory), or None
INPUT_KINDS = {
    # through train: featurize --in reads a directory in its place as a directory input
    "manifest": ("m.csv", ["train", "--data", "m.csv"], None),
    "manifest row": ("a.ml", ["featurize", "--in", "m.csv"], None),
    "directory": ("src/b.ml", ["featurize", "--in", "src"], None),
    "directory --keep-going": ("src/b.ml", ["featurize", "--in", "src", "--keep-going"], ["c.ml"]),
    "config": ("conf.ini", ["featurize", "--in", "src"], None),
    "profiles": ("p.ini", ["featurize", "--in", "src"], None),
    "model": ("model.json", ["score", "--model", "model.json", "--in", "src"], None),
    "score table": ("t.csv", ["compare", "--a", "t.csv", "--b", "t.csv"], None),
    "wordnet": ("wn/index.noun", ["featurize", "--in", "src"], None),
}

FAULTS = {
    "missing": "No such file or directory",
    "a directory": "Is a directory",
    "an undecodable byte": r"'utf-8' codec can't decode byte 0xff in position [0-9]+: "
                           r"invalid start byte \(line 2\)",
}


def _input_fault_cases():
    for kind, (name, _, _) in INPUT_KINDS.items():
        for fault in FAULTS:
            # a directory input lists its regular files only, so a file of it
            # cannot be missing or a directory
            if name.startswith("src/") and fault != "an undecodable byte":
                continue
            yield pytest.param(kind, fault, id=f"{kind}-{fault}")


@pytest.mark.parametrize("kind,fault", _input_fault_cases())
def test_an_input_file_that_cannot_be_read_exits_3_naming_it_once(tmp_path, capsys, kind, fault):
    name, argv, kept = INPUT_KINDS[kind]
    _write_cli_inputs(tmp_path, name, inserted=b"\xff" if fault == "an undecodable byte" else b"")
    bad = tmp_path / name
    if fault != "an undecodable byte":
        bad.unlink()
    if fault == "a directory":
        bad.mkdir()
    argv = [str(tmp_path / arg) if arg in ("m.csv", "src", "model.json", "t.csv") else arg
            for arg in argv]
    out = tmp_path / "out.csv"
    assert main(["--config", str(tmp_path / "conf.ini"), *argv, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    where = f"{tmp_path / 'm.csv'}, line 2: " if kind == "manifest row" else ""
    message = f"cannot read {re.escape(str(bad))}: {FAULTS[fault]}"
    if (kind, fault) == ("wordnet", "missing"):  # its only index file, so the directory is named
        bad = tmp_path / "wn"
        message = f"no index\\.\\* files under {re.escape(str(bad))}"
    assert re.fullmatch(f"ERROR codereadability: {re.escape(where)}{message}\n", err), err
    assert err.count(str(bad)) == 1
    ids = None if not out.exists() else [row.split(",")[0] for row in out.read_text().splitlines()[1:]]
    assert ids == kept


@pytest.mark.parametrize("case", [c for c in CASES if c != "oversized field"])
@pytest.mark.parametrize("command", ["featurize", "train", "compare"])
def test_each_table_error_exits_3_through_the_cli(tmp_path, capsys, command, case):
    table = "score table" if command == "compare" else "manifest"
    path, pattern = _write_case(tmp_path, table, case)
    out = tmp_path / "out"
    argv = {
        "featurize": ["featurize", "--in", str(path), "--out", str(out)],
        "train": ["train", "--data", str(path), "--out", str(out)],
        "compare": ["compare", "--a", str(path), "--b", str(path), "--out", str(out)],
    }[command]
    assert main(argv) == 3
    assert not out.exists()
    err = capsys.readouterr().err
    assert re.search("ERROR codereadability: " + pattern, err, re.MULTILINE), err
    assert "internal error" not in err


def test_write_feature_matrix_refuses_ids_that_do_not_match_the_rows(tmp_path):
    path = tmp_path / "m.csv"
    with pytest.raises(ValueError, match=r"matrix must be \(1, 61\) for 1 ids, got \(2, 61\)"):
        write_feature_matrix(path, ["a"], np.zeros((2, N_FEATURES)))
    assert not path.exists()


# csv on Python 3.10 rejects NUL, so ids leave it out
_ID_TEXT = st.text(alphabet=st.one_of(st.sampled_from(',"\n\r '),
                                      st.characters(blacklist_categories=("Cs",),
                                                    blacklist_characters="\x00")),
                   max_size=8)


@settings(max_examples=60, deadline=None)
@given(st.lists(_ID_TEXT, unique=True, max_size=4).flatmap(lambda ids: st.tuples(
    st.just(ids),
    st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                      min_size=N_FEATURES, max_size=N_FEATURES),
             min_size=len(ids), max_size=len(ids)))))
def test_feature_matrix_round_trip_keeps_ids_and_12_digit_values(tmp_path_factory, ids_rows):
    ids, rows = ids_rows
    path = tmp_path_factory.mktemp("matrix") / "m.csv"
    write_feature_matrix(path, ids, np.array(rows).reshape(len(ids), N_FEATURES))
    read_ids, matrix = read_feature_matrix(path)
    assert read_ids == ids
    expected = np.array([[float(f"{v:.12g}") for v in row] for row in rows])
    assert matrix.tobytes() == expected.reshape(len(ids), N_FEATURES).tobytes()
