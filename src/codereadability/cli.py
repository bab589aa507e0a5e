"""Command-line pipeline: featurize, train, evaluate, score, compare.

Exit codes: 0 success, 2 usage error, 3 data error, 4 internal error.
Every command logs its fully resolved configuration so runs can be
reproduced exactly; outputs are byte-identical for identical
(inputs, seed).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path

import numpy as np

from .config import AnalysisConfig, load_config
from .corpus import (
    Snippet,
    SnippetDecodeError,
    load_labeled_dataset,
    load_snippet_file,
    preprocess,
)
from .dictionary import DictionaryError, load_dictionary
from .vectorizer import N_FEATURES, feature_layers, featurize_corpus, write_feature_matrix

log = logging.getLogger("codereadability")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_INTERNAL = 4

# corpus.DatasetError, corpus.SnippetDecodeError and model.ModelError are
# ValueErrors; analytics and model are imported by the commands that use
# them, so featurize never loads scipy
_DATA_ERRORS = (DictionaryError, ValueError, OSError)


def _resolve_config(args) -> AnalysisConfig:
    cfg = load_config(getattr(args, "config", None))
    if getattr(args, "lambda_l2", None) is not None:
        cfg = dataclasses.replace(cfg, lambda_l2=args.lambda_l2)
    log.info("resolved config: %s", json.dumps(cfg.to_dict(), sort_keys=True))
    return cfg


def _write_from_inputs(args, cfg: AnalysisConfig, output: str, write) -> int:
    """``write(snippets, dictionary)`` for the snippets of ``--in``, a
    directory of files or a labeled manifest CSV; the exit code. Each
    unreadable file is logged, and stops the command before any output
    unless ``--keep-going`` is set, which writes the rest and exits 3.
    No snippet at all warns that ``output`` is written header-only.
    """
    path = Path(args.in_path)
    unreadable = False
    if path.is_dir():
        snippets: list[Snippet] = []
        for file in sorted(p for p in path.rglob("*") if p.is_file()):
            rel = str(file.relative_to(path))
            try:
                snippets.append(preprocess(load_snippet_file(file, args.lang, rel)))
            except (SnippetDecodeError, OSError) as exc:
                log.error("unreadable input: %s: %s", rel, exc)
                unreadable = True
        if unreadable and not args.keep_going:
            return EXIT_DATA
    else:
        snippets = list(load_labeled_dataset(path).snippets)
    if not snippets:
        log.warning("no snippets found in %s; writing header-only %s", args.in_path, output)
    write(snippets, load_dictionary(cfg.dictionary_path))
    return EXIT_DATA if unreadable else EXIT_OK


def cmd_featurize(args) -> int:
    cfg = _resolve_config(args)

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


def cmd_train(args) -> int:
    from . import model as model_mod

    cfg = _resolve_config(args)
    dataset, X, y = _featurized_dataset(args, cfg)
    trained = model_mod.train_model(
        X, y, family=args.family, lambda_l2=cfg.lambda_l2,
        k_max=args.kmax, inner_cv=cfg.inner_cv, seed=args.seed,
        provenance=f"data={args.data} family={args.family} seed={args.seed}",
    )
    model_mod.save_model(trained, args.out)
    log.info("trained on %d snippets; %d features selected; model at %s",
             len(dataset), len(trained.selected), args.out)
    return EXIT_OK


def cmd_evaluate(args) -> int:
    from . import model as model_mod

    cfg = _resolve_config(args)
    _, X, y = _featurized_dataset(args, cfg)
    report = model_mod.evaluate(
        X, y, family=args.family, k=args.folds, seed=args.seed,
        lambda_l2=cfg.lambda_l2, k_max=args.kmax, inner_cv=cfg.inner_cv,
    )
    report.config = cfg.to_dict()
    print(model_mod.render_evaluation_table([report]))
    if args.out:
        Path(args.out).write_text(json.dumps(report.to_dict(), indent=2) + "\n",
                                  encoding="utf-8")
        log.info("report written to %s", args.out)
    return EXIT_OK


def cmd_score(args) -> int:
    from . import analytics, model as model_mod

    cfg = _resolve_config(args)
    trained = model_mod.load_model(args.model)
    log.info("model reads %d of %d feature columns; feature layers run: %s",
             len(trained.selected), N_FEATURES,
             ", ".join(feature_layers(trained.selected)) or "none")

    def write(snippets, d):
        table = analytics.score_corpus(trained, snippets, d=d, config=cfg)
        analytics.write_score_table(table, args.out)
        log.info("scored %d snippets to %s", len(table), args.out)

    return _write_from_inputs(args, cfg, "score table", write)


def cmd_compare(args) -> int:
    from . import analytics

    _resolve_config(args)
    table_a = analytics.read_score_table(args.a)
    table_b = analytics.read_score_table(args.b)
    report = analytics.paired_compare(table_a, table_b)
    rendered = analytics.render_report(report, format=args.format)
    if args.out:
        Path(args.out).write_text(rendered + "\n", encoding="utf-8")
        log.info("comparison written to %s", args.out)
    else:
        print(rendered)
    return EXIT_OK


def _at_least(low: int):
    """argparse type: an int no smaller than ``low``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in its "invalid int value" error
    return parse


_LANG_HELP = ("language for directory inputs: python, java, cuda, generic, or a "
              "section of the [lexical] profiles INI")


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

    feat = sub.add_parser("featurize", help="compute the 61-column feature matrix")
    feat.add_argument("--in", dest="in_path", required=True,
                      help="snippet directory or manifest CSV")
    feat.add_argument("--lang", default="python", help=_LANG_HELP)
    feat.add_argument("--out", required=True, help="output matrix CSV")
    feat.add_argument("--keep-going", action="store_true",
                      help="skip unreadable files but still exit nonzero")
    feat.set_defaults(func=cmd_featurize)

    def add_train_eval_flags(p):
        p.add_argument("--data", required=True, help="labeled manifest CSV")
        p.add_argument("--family", default="all",
                       choices=["tf", "bwf", "pf", "df", "all"],
                       help="feature family to use")
        p.add_argument("--seed", type=_at_least(0), default=42,
                       help="RNG seed, at least 0")
        p.add_argument("--lambda", dest="lambda_l2", type=float, default=None,
                       help="L2 regularization strength")
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
    score.add_argument("--in", dest="in_path", required=True,
                       help="snippet directory or manifest CSV")
    score.add_argument("--lang", default="python", help=_LANG_HELP)
    score.add_argument("--out", required=True, help="output score-table CSV")
    score.add_argument("--keep-going", action="store_true",
                       help="skip unreadable files but still exit nonzero")
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
        return args.func(args)
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
