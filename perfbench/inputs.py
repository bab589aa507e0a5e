"""Workload inputs, generated from the seed and the frozen source snapshot.

Every input is cut from the text under ``corpus/`` (a snapshot of Python
source plus hand-written Java and CUDA files), never from the live tree,
so later edits to the program do not change what the benchmark feeds it.
The seed selects one of ``VARIANTS`` input sets; the same seed always
writes byte-identical files, and every variant of a workload has the same
shape (snippet count, line count, language mix).
"""

from __future__ import annotations

import hashlib
import keyword
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

VARIANTS = 32
WINDOW = 30
CORPUS = Path(__file__).resolve().parent / "corpus"
EXTENSIONS = {"python": ".py", "java": ".java", "cuda": ".cu"}

# corpus_score: windows per language in corpus A (B is its degraded rewrite)
CORPUS_MIX = {"python": 160, "java": 20, "cuda": 20}
# the model that scores corpora is trained on a fixed set, the same for every seed
TRAIN_MIX = {"python": 48, "java": 8, "cuda": 8}
LONG_LINES = (1000, 2000, 3000, 4000)
EVAL_MIX = {"python": 48, "java": 8, "cuda": 8}

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_C_KEYWORDS = frozenset("""
    abstract boolean break byte case catch char class const continue default
    do double else enum extends final finally float for if implements import
    int interface long new package private protected public return short
    static super switch this throw throws try void while true false null
    auto extern inline namespace sizeof struct template typedef unsigned
    signed include define __global__ __device__ __shared__ __syncthreads
""".split())
_KEYWORDS = {"python": frozenset(keyword.kwlist), "java": _C_KEYWORDS, "cuda": _C_KEYWORDS}
_LINE_COMMENT = {"python": "#", "java": "//", "cuda": "//"}


@dataclass
class InputSet:
    """Files written for one workload, with the facts a result records."""

    root: Path
    files: list[tuple[str, str]] = field(default_factory=list)  # measured snippets: (path, language)
    written: list[str] = field(default_factory=list)            # every file, relative to root

    def write(self, rel: str, text: str, language: str | None = None) -> None:
        """Write one file; a snippet the measured commands read names its language."""
        path = self.root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(text.encode("utf-8"))
        self.written.append(rel)
        if language is not None:
            self.files.append((rel, language))

    def digest(self) -> str:
        """sha256 over every file written, in path order."""
        h = hashlib.sha256()
        for rel in sorted(self.written):
            h.update(rel.encode() + b"\0" + (self.root / rel).read_bytes() + b"\0")
        return h.hexdigest()

    def summary(self) -> dict:
        """Snippet, line and byte counts with the language mix."""
        mix: dict[str, int] = {}
        lines = size = 0
        for rel, language in self.files:
            data = (self.root / rel).read_bytes()
            mix[language] = mix.get(language, 0) + 1
            lines += data.count(b"\n")
            size += len(data)
        return {"snippets": len(self.files), "lines": lines, "bytes": size,
                "languages": dict(sorted(mix.items())), "digest": self.digest()}


def variant(seed: int) -> int:
    return seed % VARIANTS


def load_snapshot() -> dict[str, list[list[str]]]:
    """Lines of every snapshot file at least one window long, by language."""
    snapshot: dict[str, list[list[str]]] = {}
    for language in EXTENSIONS:
        files = sorted((CORPUS / language).glob("*.txt"))
        texts = [f.read_text(encoding="utf-8").split("\n") for f in files]
        snapshot[language] = [t for t in texts if len(t) >= WINDOW]
        if not snapshot[language]:
            raise FileNotFoundError(f"no {language} snapshot under {CORPUS}")
    return snapshot


def _window(rng: random.Random, files: list[list[str]], size: int = WINDOW) -> list[str]:
    lines = rng.choice(files)
    start = rng.randrange(len(lines) - size + 1)
    return lines[start:start + size]


def _strip_comment(line: str, marker: str) -> str | None:
    """Line without its trailing comment; None for a comment-only line.

    A marker counts only outside quotes, judged by quote parity, which is
    enough for a degraded rewrite.
    """
    col = line.find(marker)
    while col != -1:
        before = line[:col]
        if before.count('"') % 2 == 0 and before.count("'") % 2 == 0:
            return None if not before.strip() else before.rstrip()
        col = line.find(marker, col + 1)
    return line


def degrade(lines: list[str], language: str, rng: random.Random) -> list[str]:
    """Comments stripped, identifiers shortened, indentation collapsed."""
    keywords = _KEYWORDS[language]
    names: dict[str, str] = {}

    def shorten(match: re.Match) -> str:
        word = match.group(0)
        if word in keywords or len(word) <= 2:
            return word
        if word not in names:
            names[word] = rng.choice("abcdefghijklmnopqrstuvwxyz") + str(len(names))
        return names[word]

    out = []
    for line in lines:
        code = _strip_comment(line, _LINE_COMMENT[language])
        if code is None:
            continue
        out.append(_IDENT_RE.sub(shorten, code.strip()))
    return out


def _text(lines: list[str]) -> str:
    return "\n".join(lines) + "\n"


def _mixed_windows(rng: random.Random, snapshot, mix: dict[str, int]) -> list[tuple[str, list[str]]]:
    """(language, window) pairs in the given per-language counts, shuffled."""
    picks = [(language, _window(rng, snapshot[language]))
             for language, count in mix.items() for _ in range(count)]
    rng.shuffle(picks)
    return picks


def _write_labeled(inputs: InputSet, directory: str, picks: list[tuple[str, list[str]]],
                   labels: list[int], measured: bool = True) -> None:
    """Snippet files under ``directory`` and their manifest ``directory.csv``."""
    rows = ["id,path,language,label"]
    for i, ((language, lines), label) in enumerate(zip(picks, labels)):
        sid = f"s{i:03d}"
        rel = f"{directory}/{sid}{EXTENSIONS[language]}"
        inputs.write(rel, _text(lines), language if measured else None)
        rows.append(f"{sid},{rel},{language},{label}")
    inputs.write(f"{directory}.csv", _text(rows))


def _training_set(inputs: InputSet, snapshot) -> None:
    """Fixed labeled set for the scoring model: raw windows are 1, degraded 0."""
    rng = random.Random("train")
    picks = _mixed_windows(rng, snapshot, TRAIN_MIX)
    labels = [i % 2 for i in range(len(picks))]
    picks = [(lang, lines if label else degrade(lines, lang, rng))
             for (lang, lines), label in zip(picks, labels)]
    # set-up for the scoring model, not measured input
    _write_labeled(inputs, "train", picks, labels, measured=False)


def corpus_score(root: Path, seed: int) -> InputSet:
    """Corpus A (mixed-language windows) and its degraded rewrite B, same ids."""
    snapshot = load_snapshot()
    rng = random.Random(f"corpus_score:{variant(seed)}")
    inputs = InputSet(Path(root))
    picks = _mixed_windows(rng, snapshot, CORPUS_MIX)
    ones = [1] * len(picks)
    _write_labeled(inputs, "a", picks, ones)
    degraded = [(lang, degrade(lines, lang, rng)) for lang, lines in picks]
    _write_labeled(inputs, "b", degraded, ones)
    _training_set(inputs, snapshot)
    return inputs


def long_snippet(root: Path, seed: int) -> InputSet:
    """One Python snippet per entry of LONG_LINES, made of whole windows.

    Each size takes a fixed set of the snapshot's windows and the seed
    shuffles their order, so every variant has the same lines and
    vocabulary, and so the same quadratic cost and memory.
    """
    snapshot = load_snapshot()
    rng = random.Random(f"long_snippet:{variant(seed)}")
    inputs = InputSet(Path(root))
    tiles = [lines[i:i + WINDOW] for lines in snapshot["python"]
             for i in range(0, len(lines) - WINDOW + 1, WINDOW)]
    for n_lines in LONG_LINES:
        count = -(-n_lines // WINDOW)
        chosen = random.Random(f"long_snippet:lines:{n_lines}").sample(tiles, count)
        rng.shuffle(chosen)
        lines = [line for tile in chosen for line in tile]
        inputs.write(f"long/l{n_lines}.py", _text(lines[:n_lines]), "python")
    return inputs


def readability_property(lines: list[str]) -> float:
    """Benchmark-side readability proxy: comment and blank shares up,
    mean line length down."""
    n = max(1, len(lines))
    comments = sum(1 for line in lines if line.lstrip().startswith(("#", "//", "/*", "*")))
    blanks = sum(1 for line in lines if not line.strip())
    mean_len = sum(len(line) for line in lines) / n
    return comments / n + blanks / n - mean_len / 80.0


def evaluate_sfs(root: Path, seed: int) -> InputSet:
    """Labeled manifest; half the windows degraded, labels a noisy median
    split of ``readability_property``."""
    snapshot = load_snapshot()
    rng = random.Random(f"evaluate_sfs:{variant(seed)}")
    inputs = InputSet(Path(root))
    picks = _mixed_windows(rng, snapshot, EVAL_MIX)
    picks = [(lang, degrade(lines, lang, rng) if i % 2 else lines)
             for i, (lang, lines) in enumerate(picks)]
    scores = [readability_property(lines) + rng.gauss(0.0, 0.1) for _, lines in picks]
    cut = sorted(scores)[len(scores) // 2]
    labels = [int(s >= cut) for s in scores]
    _write_labeled(inputs, "data", picks, labels)
    return inputs
