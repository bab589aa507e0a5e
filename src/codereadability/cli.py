"""Command-line pipeline: featurize, train, evaluate, score, compare.

Exit codes: 0 success, 2 usage error, 3 data error, 4 internal error.
Every command logs its fully resolved configuration so runs can be
reproduced exactly; outputs are byte-identical for identical
(inputs, seed).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

import numpy as np

from . import analytics, model
from .config import AnalysisConfig, load_config
from .corpus import DatasetError, Snippet, load_labeled_dataset, load_snippet_file, preprocess
from .dictionary import load_dictionary
from .vectorizer import FAMILIES, N_FEATURES, feature_layers, featurize_corpus, write_feature_matrix

log = logging.getLogger("codereadability")

EXIT_OK = 0
EXIT_DATA = 3
EXIT_INTERNAL = 4

# DatasetError, DictionaryError and ModelError are ValueErrors; OSError is
# an output file that cannot be written
_DATA_ERRORS = (ValueError, OSError)


def _write_from_inputs(args, cfg: AnalysisConfig, output: str, write) -> int:
    """``write(snippets, dictionary)`` for the snippets of ``--in``, a
    directory of files or a labeled manifest CSV; the exit code. Each
    unreadable file is logged, and stops the command before any output
    unless ``--keep-going`` is set, which writes the rest and exits 3.
    A directory entry that is neither a directory nor a regular file (a
    dangling symlink, a FIFO) is skipped with a warning and never opened,
    and so is a symlink to a directory, which ``rglob`` does not descend.
    No snippet at all warns that ``output`` is written header-only.
    """
    path = Path(args.in_path)
    unreadable = False
    if path.is_dir():
        snippets: list[Snippet] = []
        for file in sorted(path.rglob("*")):
            if not file.is_file():  # never opened: reading a FIFO blocks
                if not file.is_dir():
                    log.warning("skipping %s: not a regular file", file)
                elif file.is_symlink():
                    log.warning("skipping %s: symlink to a directory, not followed", file)
                continue
            try:
                snippets.append(preprocess(load_snippet_file(file, args.lang,
                                                             str(file.relative_to(path)))))
            except DatasetError as exc:
                log.error("%s", exc)
                unreadable = True
        if unreadable and not args.keep_going:
            return EXIT_DATA
    else:
        snippets = list(load_labeled_dataset(path).snippets)
    if not snippets:
        log.warning("no snippets found in %s; writing header-only %s", args.in_path, output)
    write(snippets, load_dictionary(cfg.dictionary_path))
    return EXIT_DATA if unreadable else EXIT_OK


def cmd_featurize(args, cfg: AnalysisConfig) -> int:
    def write(snippets, d):
        matrix = featurize_corpus(snippets, d, cfg)
        write_feature_matrix(args.out, [s.id for s in snippets], matrix)
        log.info("wrote %d rows to %s", len(snippets), args.out)

    return _write_from_inputs(args, cfg, "matrix", write)


def _featurized_dataset(args, cfg: AnalysisConfig):
    dataset = load_labeled_dataset(args.data)
    d = load_dictionary(cfg.dictionary_path)
    X = featurize_corpus(dataset.snippets, d, cfg)
    y = np.array(dataset.labels)
    return dataset, X, y


def cmd_train(args, cfg: AnalysisConfig) -> int:
    dataset, X, y = _featurized_dataset(args, cfg)
    trained = model.train_model(
        X, y, family=args.family, lambda_l2=cfg.lambda_l2,
        k_max=args.kmax, inner_cv=cfg.inner_cv, seed=args.seed,
        provenance=f"data={args.data} family={args.family} seed={args.seed}",
    )
    model.save_model(trained, args.out)
    log.info("trained on %d snippets; %d features selected; model at %s",
             len(dataset), len(trained.selected), args.out)
    return EXIT_OK


def cmd_evaluate(args, cfg: AnalysisConfig) -> int:
    _, X, y = _featurized_dataset(args, cfg)
    report = model.evaluate(
        X, y, family=args.family, k=args.folds, seed=args.seed,
        lambda_l2=cfg.lambda_l2, k_max=args.kmax, inner_cv=cfg.inner_cv,
    )
    print(model.render_evaluation_table([report]))
    if args.out:
        doc = {**report.to_dict(), "config": cfg.to_dict()}
        Path(args.out).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        log.info("report written to %s", args.out)
    return EXIT_OK


def cmd_score(args, cfg: AnalysisConfig) -> int:
    trained = model.load_model(args.model)
    log.info("model reads %d of %d feature columns; feature layers run: %s",
             len(trained.selected), N_FEATURES,
             ", ".join(feature_layers(trained.selected)) or "none")

    def write(snippets, d):
        table = analytics.score_corpus(trained, snippets, d=d, config=cfg)
        analytics.write_score_table(table, args.out)
        log.info("scored %d snippets to %s", len(table), args.out)

    return _write_from_inputs(args, cfg, "score table", write)


def cmd_compare(args, cfg: AnalysisConfig) -> int:
    table_a = analytics.read_score_table(args.a)
    table_b = analytics.read_score_table(args.b)
    report = analytics.paired_compare(table_a, table_b)
    rendered = analytics.render_report(report, format=args.format)
    if not rendered.endswith("\n"):  # csv ends its last record with the csv module's \r\n
        rendered += "\n"
    if args.out:
        Path(args.out).write_text(rendered, encoding="utf-8")
        log.info("comparison written to %s", args.out)
    else:
        sys.stdout.write(rendered)
    return EXIT_OK


def _at_least(low: int):
    """argparse type: an integer no smaller than ``low``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in its "invalid int value" error
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="codereadability",
        description="Measure code readability: 61 lexical/structural/visual "
                    "features, classifier training and evaluation, corpus "
                    "scoring, and paired statistical comparison.",
    )
    parser.add_argument("--config", help="INI config file", default=None)
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log the resolved configuration and progress on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input_flags(p, out_help):
        p.add_argument("--in", dest="in_path", required=True,
                       help="snippet directory or manifest CSV")
        p.add_argument("--lang", default="python",
                       help="language for directory inputs: python, java, cuda, generic, "
                            "or a section of the [lexical] profiles INI")
        p.add_argument("--out", required=True, help=out_help)
        p.add_argument("--keep-going", action="store_true",
                       help="skip unreadable files but still exit nonzero")

    feat = sub.add_parser("featurize", help="compute the 61-column feature matrix")
    add_input_flags(feat, "output matrix CSV")
    feat.set_defaults(func=cmd_featurize)

    def add_train_eval_flags(p):
        p.add_argument("--data", required=True, help="labeled manifest CSV")
        p.add_argument("--family", default="all",
                       choices=[*map(str.lower, FAMILIES), "all"],
                       help="feature family to use")
        p.add_argument("--seed", type=_at_least(0), default=42,
                       help="RNG seed, at least 0")
        p.add_argument("--kmax", type=_at_least(1), default=None,
                       help="max selected features, at least 1 (default: family size)")

    train = sub.add_parser("train", help="fit a model on the full labeled dataset")
    add_train_eval_flags(train)
    train.add_argument("--out", required=True, help="output model JSON file")
    train.set_defaults(func=cmd_train)

    evaluate = sub.add_parser("evaluate", help="cross-validated accuracy/AUC report")
    add_train_eval_flags(evaluate)
    evaluate.add_argument("--folds", type=_at_least(2), default=10,
                          help="cross-validation folds (at least 2)")
    evaluate.add_argument("--out", help="write the JSON report here")
    evaluate.set_defaults(func=cmd_evaluate)

    score = sub.add_parser("score", help="score a corpus with a trained model")
    score.add_argument("--model", required=True, help="model JSON file")
    add_input_flags(score, "output score-table CSV")
    score.set_defaults(func=cmd_score)

    compare = sub.add_parser("compare", help="paired comparison of two score tables")
    compare.add_argument("--a", required=True, help="score table CSV (side A)")
    compare.add_argument("--b", required=True, help="score table CSV (side B)")
    compare.add_argument("--format", default="table", choices=["table", "json", "csv"])
    compare.add_argument("--out", help="write the report here instead of stdout")
    compare.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # one handler per call, on this call's stderr, so repeated calls in one
    # process each log where and at the level they were asked to
    level = logging.INFO if args.verbose else logging.WARNING
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    previous_level = log.level
    log.addHandler(handler)
    log.setLevel(level)
    try:
        cfg = load_config(args.config)
        log.info("resolved config: %s", json.dumps(cfg.to_dict(), sort_keys=True))
        return args.func(args, cfg)
    except _DATA_ERRORS as exc:
        log.error("%s", exc)
        return EXIT_DATA
    except Exception:  # pragma: no cover - safety net
        log.exception("internal error")
        return EXIT_INTERNAL
    finally:
        log.removeHandler(handler)
        log.setLevel(previous_level)


if __name__ == "__main__":
    sys.exit(main())
