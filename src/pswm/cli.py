"""Command-line interface wiring the pipeline end to end.

Subcommands: ingest (corpus -> index), train (index + judgments -> model),
search (index + model + query -> ranked results), eval (model accuracy on
judgments), gradcheck (finite-difference verification of the backward
pass).

Exit codes: 0 success, 1 usage error, 2 data error or unwritable output, 3 check failure.
Each command checks its whole command line before it reads or writes a file, so a
usage error, or an output path that stdout cannot print, leaves every file as it was.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import corpus, neural, ranker, scoring, training
from .errors import DataError
from .query import build_syntax_tree, tokenize

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_CHECK = 3

DEFAULT_EPOCHS = 5000
DEFAULT_LR = 0.5
DEFAULT_SEED = 42
DEFAULT_HIDDEN = 4


def _flag(convert, rule: str, holds):
    """An argparse type: `convert` the text, then refuse it as "must be <rule>" unless `holds(value)`."""
    def check(text: str):
        value = convert(text)
        if not holds(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value
    check.__name__ = convert.__name__  # argparse names the type in "invalid float value: 'abc'"
    return check


_probability = _flag(float, "in [0, 1]", lambda v: 0.0 <= v <= 1.0)
_positive_float = _flag(float, "positive and finite", lambda v: 0.0 < v < math.inf)
_positive_int = _flag(int, "a positive integer", lambda v: v >= 1)
_non_negative_int = _flag(int, "non-negative", lambda v: v >= 0)


def _check_output_path(args, output: str, *inputs: str) -> None:
    path = getattr(args, output)
    if sys.stdout.encoding is not None:  # `saved … -> PATH` prints after the save; a StringIO has no encoding
        path.encode(sys.stdout.encoding, sys.stdout.errors)
    for flag in inputs:
        paths = path, getattr(args, flag)
        if all(map(os.path.exists, paths)) and os.path.samefile(*paths):
            raise ValueError(f"--{output} and --{flag} name the same file: {path}")


def cmd_ingest(args) -> int:
    _check_output_path(args, "index", "corpus")
    docs = corpus.parse_corpus_file(args.corpus)
    index = corpus.build_index(docs)
    corpus.save_index(index, args.index)
    distinct: set[str] = set()
    for doc in docs:
        distinct.update(tokenize(doc.body))
    print(f"ingested {index.doc_count} documents, {len(distinct)} distinct tokens")
    print(f"saved index -> {args.index}")
    return EXIT_OK


def cmd_train(args) -> int:
    _check_output_path(args, "model", "index", "judgments")
    try:
        net = neural.init_weights([2, args.hidden, 1], args.seed)
    except MemoryError:
        raise ValueError(f"--hidden {args.hidden} is too large to allocate") from None
    index = corpus.load_index(args.index)
    judgments = training.parse_judgments_file(args.judgments)
    examples = training.judgments_to_examples(judgments, index)
    initial = training.evaluate(net, judgments, index)["mean_error"]  # both numbers as `eval` reports them
    net, _ = neural.train(net, examples, args.epochs, args.lr, args.seed)
    neural.save_model(net, args.model)
    print(f"trained on {len(examples)} examples for {args.epochs} epochs")
    print(f"initial mean error: {initial:.6f}")
    print(f"final mean error: {training.evaluate(net, judgments, index)['mean_error']:.6f}")
    print(f"saved model -> {args.model}")
    return EXIT_OK


def _load_ranking_model(path) -> neural.Network:
    """Load a model for ranking; DataError unless it maps the two features to one output."""
    net = neural.load_model(path)
    try:
        ranker.check_ranking_shape(net)
    except ValueError as exc:
        raise DataError(f"model {path}: {exc}") from exc
    return net


def cmd_search(args) -> int:
    try:
        args.query.encode()
    except UnicodeEncodeError:  # a lone surrogate, which Python decodes from an argv byte that is not UTF-8
        raise ValueError(f"query {args.query!r} is not UTF-8 text") from None
    tree = build_syntax_tree(args.query)
    index = corpus.load_index(args.index)
    net = _load_ranking_model(args.model)
    candidates = scoring.analyze(tree, index)
    ranked = ranker.attach_probabilities(candidates, net)
    page = ranker.format_results(ranked, args.cutoff, args.top_k, query=args.query)
    print(ranker.render(page, args.format))
    return EXIT_OK


def cmd_eval(args) -> int:
    index = corpus.load_index(args.index)
    net = _load_ranking_model(args.model)
    judgments = training.parse_judgments_file(args.judgments)
    report = training.evaluate(net, judgments, index)
    print(f"count: {report['count']}")
    print(f"mean error: {report['mean_error']:.6f}")
    print(f"accuracy@0.5: {report['accuracy_at_0.5']:.4f}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    worst = neural.gradient_check_suite(args.seed)
    print(f"max relative error: {worst:.3e}")
    if worst <= neural.GRADIENT_TOLERANCE:
        print("gradient check passed")
        return EXIT_OK
    print(f"gradient check FAILED (tolerance {neural.GRADIENT_TOLERANCE:.0e})", file=sys.stderr)
    return EXIT_CHECK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pswm", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse a corpus file and build + save the index")
    p.add_argument("--corpus", required=True, help="line-delimited JSON corpus file")
    p.add_argument("--index", required=True, help="output index file")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("train", help="train the ranking network from judgments")
    p.add_argument("--index", required=True, help="index file written by ingest")
    p.add_argument("--judgments", required=True, help="tab-separated judgments file")
    p.add_argument("--model", required=True, help="output model file")
    p.add_argument("--epochs", type=_non_negative_int, default=DEFAULT_EPOCHS)
    p.add_argument("--lr", type=_positive_float, default=DEFAULT_LR)
    p.add_argument("--seed", type=_non_negative_int, default=DEFAULT_SEED)
    p.add_argument("--hidden", type=_positive_int, default=DEFAULT_HIDDEN)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("search", help="run a query through the full pipeline")
    p.add_argument("query", help="query string")
    p.add_argument("--index", required=True, help="index file written by ingest")
    p.add_argument("--model", required=True, help="model file written by train")
    p.add_argument("--cutoff", type=_probability, default=ranker.DEFAULT_CUTOFF)
    p.add_argument("--top-k", type=_positive_int, default=None)
    p.add_argument("--format", choices=("text", "machine"), default="text")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("eval", help="report model accuracy against judgments")
    p.add_argument("--index", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--judgments", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="verify backward-pass derivatives numerically")
    p.add_argument("--seed", type=_non_negative_int, default=DEFAULT_SEED)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # argparse exits 2 on bad usage, but pswm reserves 2 for data errors
            code = EXIT_USAGE if exc.code else EXIT_OK  # 0 after --help, whose text is still to be flushed
        else:
            code = args.func(args)
        sys.stdout.flush()  # a reader that left is reported here, not by a failed flush at exit
        return code
    except UnicodeEncodeError as exc:  # a ValueError, yet the flags were fine: stdout cannot take the output
        print(f"error: stdout's encoding {sys.stdout.encoding} cannot write the output: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (DataError, OSError) as exc:
        if isinstance(exc, BrokenPipeError):  # send what stdout still holds nowhere, so exit flushes without error
            with open(os.devnull, "w") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ValueError, MemoryError) as exc:  # MemoryError: an allocation too large to make; cmd_train names --hidden
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    raise SystemExit(main())
