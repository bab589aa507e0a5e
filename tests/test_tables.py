"""The table rules shared by the three CSV files the commands pass along:
the labeled manifest, the feature matrix and the score table.

Blank lines are skipped, the header is exact, every row has the header's
field count and a unique id, and every error is a ``ValueError`` naming
the file and, for a row, its physical line (exit 3 through the CLI). A
UTF-8 byte-order mark is dropped, as it is from the INI, snippet and model
files, and an undecodable byte in any of them names the file and its line.
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
    """The files a featurize or score call decodes: a manifest, a config, a
    profiles INI, snippet files (``a.ml`` through the manifest, ``src/b.ml``
    and ``src/c.ml`` in a directory) and a model. The file ``special`` gets
    ``prefix`` before its bytes and ``inserted`` at the start of its line 2."""
    (tmp_path / "src").mkdir(exist_ok=True)
    save_model(ReadabilityModel(scaler=ScalerParams(mu=np.zeros(N_FEATURES), sigma=np.ones(N_FEATURES)),
                                selected=(0, 20), weights=np.array([0.5, -0.25]), intercept=0.1,
                                lambda_l2=1.0), tmp_path / "model.json")
    files = {
        "m.csv": _line(["id", "path", "language", "label"]) + _line(["a", "a.ml", "mylang", "1"]),
        "conf.ini": f"[bwf]\ntab_width = 8\n\n[lexical]\nprofiles = {tmp_path / 'p.ini'}\n".encode(),
        "p.ini": b"[mylang]\nkeywords = fn let\n",
        "a.ml": b"fn f\nlet x = 1\n",
        "src/b.ml": b"fn g\n\tlet y = 2\n",
        "src/c.ml": b"let z = 3\n",
        "model.json": (tmp_path / "model.json").read_bytes(),
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


@pytest.mark.parametrize("bom_in", ["m.csv", "conf.ini", "p.ini", "a.ml", "src/b.ml", "model.json"])
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
    where = {"a.ml": f"{tmp_path / 'm.csv'}, line 2: ", "src/b.ml": "unreadable input: b.ml: ",
             "model.json": ""}[bad_in]
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
