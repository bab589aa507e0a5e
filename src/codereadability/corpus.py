"""Snippet ingestion and labeled-dataset handling.

A snippet is a list of text lines plus a language tag. Preprocessing is
deliberately light: normalize line endings, strip a UTF-8 BOM, trim
leading/trailing blank lines. Internal blank lines, indentation, and
comments are layout signals and must survive untouched.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, replace
from pathlib import Path

log = logging.getLogger(__name__)


class SnippetDecodeError(ValueError):
    """Input bytes are not valid UTF-8; carries the offending byte offset."""

    def __init__(self, snippet_id: str, offset: int):
        self.snippet_id = snippet_id
        self.offset = offset
        super().__init__(f"snippet {snippet_id!r}: undecodable byte at offset {offset}")


class DatasetError(ValueError):
    """Structured labeled-dataset load failure, naming the offending row."""


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

    entries: tuple[tuple[str, Snippet, int], ...]

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def snippets(self) -> list[Snippet]:
        return [s for _, s, _ in self.entries]

    @property
    def labels(self) -> list[int]:
        return [y for _, _, y in self.entries]


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


MANIFEST_COLUMNS = ("id", "path", "language", "label")


def load_labeled_dataset(manifest_path: str | Path) -> LabeledDataset:
    """Load a labeled dataset from a manifest CSV.

    Manifest columns: ``id,path,language,label``; paths are resolved
    relative to the manifest's directory; labels must already be binary.
    Every snippet is preprocessed on load.
    """
    manifest_path = Path(manifest_path)
    if not manifest_path.exists():
        raise DatasetError(f"manifest not found: {manifest_path}")
    base = manifest_path.parent

    entries: list[tuple[str, Snippet, int]] = []
    seen_ids: set[str] = set()
    try:
        with open(manifest_path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or tuple(reader.fieldnames) != MANIFEST_COLUMNS:
                raise DatasetError(
                    f"manifest header must be {','.join(MANIFEST_COLUMNS)!r}, "
                    f"got {reader.fieldnames!r}"
                )
            for rownum, row in enumerate(reader, start=2):
                sid = row["id"]
                if sid in seen_ids:
                    raise DatasetError(f"row {rownum}: duplicate snippet id {sid!r}")
                seen_ids.add(sid)
                if row["label"] not in ("0", "1"):
                    raise DatasetError(
                        f"row {rownum}: label must be 0 or 1, got {row['label']!r}"
                    )
                snippet_path = base / row["path"]
                if not snippet_path.exists():
                    raise DatasetError(f"row {rownum}: snippet file not found: {snippet_path}")
                snippet = preprocess(load_snippet_file(snippet_path, row["language"], sid))
                entries.append((sid, snippet, int(row["label"])))
    except UnicodeDecodeError as exc:
        raise DatasetError(f"cannot read manifest {manifest_path}: {exc}") from None

    if not entries:
        log.warning("manifest %s contains no rows", manifest_path)
    return LabeledDataset(entries=tuple(entries))


def save_labeled_dataset(dataset: LabeledDataset, directory: str | Path) -> Path:
    """Write snippets plus a manifest CSV; inverse of load_labeled_dataset."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    snippets_dir = directory / "snippets"
    snippets_dir.mkdir(exist_ok=True)
    manifest = directory / "manifest.csv"
    with open(manifest, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(MANIFEST_COLUMNS)
        for sid, snippet, label in dataset.entries:
            rel = Path("snippets") / f"{sid}.txt"
            (directory / rel).write_text(snippet.raw_text, encoding="utf-8")
            writer.writerow([sid, str(rel), snippet.language, label])
    return manifest
