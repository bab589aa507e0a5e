"""Snippet ingestion and labeled-dataset handling.

A snippet is a list of text lines plus a language tag. Preprocessing is
deliberately light: normalize line endings, strip a UTF-8 BOM, trim
leading/trailing blank lines. Internal blank lines, indentation, and
comments are layout signals and must survive untouched.
"""

from __future__ import annotations

import csv
import io
import logging
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

log = logging.getLogger(__name__)


class SnippetDecodeError(ValueError):
    """Input bytes are not valid UTF-8; carries the offending byte offset."""

    def __init__(self, snippet_id: str, offset: int):
        self.snippet_id = snippet_id
        self.offset = offset
        super().__init__(f"snippet {snippet_id!r}: undecodable byte at offset {offset}")


class DatasetError(ValueError):
    """A table file or labeled dataset that breaks its format, naming the file and line."""


@dataclass(frozen=True)
class Snippet:
    """Normalized source text with line structure and a language tag."""

    id: str
    language: str
    lines: tuple[str, ...]

    @property
    def raw_text(self) -> str:
        return "\n".join(self.lines)


@dataclass(frozen=True)
class LabeledDataset:
    """Snippets paired with binary readability labels (1 readable, 0 not)."""

    snippets: tuple[Snippet, ...]
    labels: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.snippets)


def load_snippet(source_text: str, language: str, id: str) -> Snippet:
    """Split source text into lines under normalized line endings.

    Newlines terminate lines ("x=1\\n\\n\\n" is three lines). No further
    preprocessing happens here; trailing blank lines survive until
    :func:`preprocess`. The language is only recorded: it is looked up in
    the profile table of the configuration when the snippet is featurized,
    and an unsupported one fails there.
    """
    text = source_text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return Snippet(id=id, language=language, lines=tuple(lines))


def load_snippet_file(path: str | Path, language: str, id: str | None = None) -> Snippet:
    """Read a snippet file; undecodable bytes fail loudly with an offset."""
    path = Path(path)
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SnippetDecodeError(id or str(path), exc.start) from exc
    return load_snippet(text, language, id if id is not None else path.name)


def _is_blank(line: str) -> bool:
    return line.strip() == ""


def preprocess(s: Snippet) -> Snippet:
    """Strip BOM and outer blank lines; leave everything internal alone."""
    lines = list(s.lines)
    if lines and lines[0].startswith("﻿"):
        lines[0] = lines[0][1:]
    start = 0
    end = len(lines)
    while start < end and _is_blank(lines[start]):
        start += 1
    while end > start and _is_blank(lines[end - 1]):
        end -= 1
    return replace(s, lines=tuple(lines[start:end]))


def decode_utf8(data: bytes, path: str | Path, error: type[Exception]) -> str:
    """``data``, the bytes of the file ``path``, decoded as UTF-8 with a BOM
    dropped; an undecodable byte raises ``error`` naming the file and line."""
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:  # its offset counts from after a BOM
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise error(f"cannot read {path}: {exc} (line {line})") from None


def read_table(path: str | Path, columns: tuple[str, ...], what: str) -> list[tuple[str, list[str]]]:
    """The data rows of a CSV table file (a ``what``), each with its place "<path>, line <n>".

    Every table file follows one set of rules: UTF-8 text, a BOM dropped,
    blank lines skipped, a header of exactly ``columns``, then rows of as
    many fields whose first field is a unique id. A file that breaks one
    raises :class:`DatasetError` naming the file and, for a row, its physical line.
    """
    try:
        data = Path(path).read_bytes()
    except FileNotFoundError:
        raise DatasetError(f"{what} not found: {path}") from None
    reader = csv.reader(io.StringIO(decode_utf8(data, path, DatasetError), newline=""))
    try:
        records = [(f"{path}, line {reader.line_num}", row) for row in reader if row]
    except csv.Error as exc:
        raise DatasetError(f"{path}, line {reader.line_num}: {exc}") from None
    if not records:
        raise DatasetError(f"empty {what}: {path}")
    (where, header), *rows = records
    if tuple(header) != columns:
        raise DatasetError(f"{where}: {what} header must be {','.join(columns)!r}, "
                           f"got {','.join(header)!r}")
    seen_ids: set[str] = set()
    for where, row in rows:
        if len(row) != len(columns):
            raise DatasetError(f"{where}: expected {len(columns)} fields, got {len(row)}")
        if row[0] in seen_ids:
            raise DatasetError(f"{where}: duplicate id {row[0]!r}")
        seen_ids.add(row[0])
    return rows


def read_id_table(path: str | Path, columns: tuple[str, ...], what: str,
                  allow_nan: bool = True) -> tuple[list[str], np.ndarray]:
    """The ids and float64 values of a :func:`read_table` file whose fields
    after the id are numbers; with ``allow_nan`` false a NaN is an error."""
    rows = read_table(path, columns, what)
    values = np.empty((len(rows), len(columns) - 1))
    for (where, (sid, *cells)), out in zip(rows, values):
        try:
            out[:] = [float(cell) for cell in cells]
        except ValueError:
            raise DatasetError(f"{where}: non-numeric value (id {sid!r})") from None
        if not allow_nan and np.isnan(out).any():
            raise DatasetError(f"{where}: NaN value (id {sid!r})")
    return [row[0] for _, row in rows], values


def write_table(path: str | Path, columns: tuple[str, ...], rows: Iterable[Sequence]) -> None:
    """Write the header ``columns`` and then ``rows`` as a :func:`read_table`
    file; float cells keep 12 significant digits."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows([f"{cell:.12g}" if isinstance(cell, float) else cell for cell in row]
                         for row in rows)


MANIFEST_COLUMNS = ("id", "path", "language", "label")


def load_labeled_dataset(manifest_path: str | Path) -> LabeledDataset:
    """Load a labeled dataset from a manifest CSV.

    Manifest columns: ``id,path,language,label``; paths are resolved
    relative to the manifest's directory; labels must already be binary.
    The file follows the table rules of :func:`read_table`. Every snippet
    is preprocessed on load.
    """
    base = Path(manifest_path).parent
    snippets, labels = [], []
    for where, (sid, rel, language, label) in read_table(manifest_path, MANIFEST_COLUMNS, "manifest"):
        if label not in ("0", "1"):
            raise DatasetError(f"{where}: label must be 0 or 1, got {label!r}")
        snippet_path = base / rel
        if not snippet_path.exists():
            raise DatasetError(f"{where}: snippet file not found: {snippet_path}")
        try:
            snippet = load_snippet_file(snippet_path, language, sid)
        except SnippetDecodeError as exc:
            raise DatasetError(f"{where}: snippet file {snippet_path}: "
                               f"undecodable byte at offset {exc.offset}") from None
        snippets.append(preprocess(snippet))
        labels.append(int(label))
    if not snippets:
        log.warning("manifest %s contains no rows", manifest_path)
    return LabeledDataset(tuple(snippets), tuple(labels))


def save_labeled_dataset(dataset: LabeledDataset, directory: str | Path) -> Path:
    """Write snippets plus a manifest CSV; inverse of load_labeled_dataset."""
    directory = Path(directory)
    (directory / "snippets").mkdir(parents=True, exist_ok=True)
    rows = []
    for snippet, label in zip(dataset.snippets, dataset.labels):
        rel = Path("snippets") / f"{snippet.id}.txt"
        (directory / rel).write_text(snippet.raw_text, encoding="utf-8")
        rows.append([snippet.id, str(rel), snippet.language, label])
    write_table(directory / "manifest.csv", MANIFEST_COLUMNS, rows)
    return directory / "manifest.csv"
