"""The three workloads: their CLI commands, outputs and reference digests.

Each command runs in a fresh process. Its primary outputs must match the
sha256 digests frozen in ``references.json`` for the seed's input
variant; a mismatch or a nonzero exit is a failed operation.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import inputs

REFERENCES = Path(__file__).resolve().parent / "references.json"


@dataclass(frozen=True)
class Command:
    name: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...]
    featurizes: str | None = None   # input directory whose snippets it featurizes
    loads_model: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[Path, int], inputs.InputSet]
    commands: tuple[Command, ...]
    prepare: tuple[Command, ...] = ()  # untimed, run once per run


TRAIN = Command("train", ("train", "--data", "train.csv", "--family", "all", "--kmax", "6",
                          "--seed", "1", "--out", "model.json"), ("model.json",))

WORKLOADS = {
    "corpus_score": Workload("corpus_score", inputs.corpus_score, (
        Command("featurize", ("featurize", "--in", "a.csv", "--out", "matrix.csv"),
                ("matrix.csv",), featurizes="a"),
        Command("score_a", ("score", "--model", "model.json", "--in", "a.csv",
                            "--out", "scores_a.csv"), ("scores_a.csv",),
                featurizes="a", loads_model=True),
        Command("score_b", ("score", "--model", "model.json", "--in", "b.csv",
                            "--out", "scores_b.csv"), ("scores_b.csv",),
                featurizes="b", loads_model=True),
        Command("compare", ("compare", "--a", "scores_a.csv", "--b", "scores_b.csv",
                            "--format", "json", "--out", "compare.json"), ("compare.json",)),
    ), prepare=(TRAIN,)),
    "long_snippet": Workload("long_snippet", inputs.long_snippet, (
        Command("featurize", ("featurize", "--in", "long", "--lang", "python",
                              "--out", "matrix.csv"), ("matrix.csv",), featurizes="long"),
    )),
    "evaluate_sfs": Workload("evaluate_sfs", inputs.evaluate_sfs, (
        Command("evaluate", ("evaluate", "--data", "data.csv", "--family", "all",
                             "--folds", "2", "--kmax", "20", "--seed", "42",
                             "--out", "report.json"), ("report.json",), featurizes="data"),
    )),
}


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load_references() -> dict:
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


def expected(references: dict, workload: str, seed: int) -> dict[str, str]:
    """Frozen digests of the inputs (``input``) and of every output file."""
    return references["workloads"][workload][str(inputs.variant(seed))]


def check_outputs(work: Path, command: Command, reference: dict[str, str]) -> list[str]:
    """Failures of one command's outputs against the frozen digests."""
    failures = []
    for name in command.outputs:
        path = work / name
        if not path.is_file():
            failures.append(f"{command.name}: {name} was not written")
        elif digest(path) != reference[name]:
            failures.append(f"{command.name}: {name} differs from the reference")
    return failures


def featurized(input_set: inputs.InputSet, command: Command) -> tuple[int, int]:
    """(snippets, lines) the command featurizes."""
    if command.featurizes is None:
        return 0, 0
    prefix = command.featurizes + "/"
    snippets = lines = 0
    for rel, _ in input_set.files:
        if rel.startswith(prefix):
            snippets += 1
            lines += (input_set.root / rel).read_bytes().count(b"\n")
    return snippets, lines
