"""pswm: metadata-aware document search with a trainable neural ranker."""

from .corpus import (
    Document,
    InvertedIndex,
    MetaRecord,
    build_index,
    load_index,
    parse_corpus_file,
    save_index,
)
from .errors import DataError
from .neural import (
    Network,
    TrainingExample,
    backprop,
    error,
    forward,
    gradient_check,
    gradient_check_suite,
    init_weights,
    load_model,
    save_model,
    sigmoid,
    train,
)
from .query import QuerySyntaxTree, build_syntax_tree, tokenize
from .ranker import RankedResult, ResultPage, attach_probabilities, format_results, render
from .scoring import CandidateFeatures, analyze, semantic_score, syntactic_score
from .training import Judgment, evaluate, judgments_to_examples, parse_judgments_file

__version__ = "0.1.0"

__all__ = [
    "CandidateFeatures",
    "DataError",
    "Document",
    "InvertedIndex",
    "Judgment",
    "MetaRecord",
    "Network",
    "QuerySyntaxTree",
    "RankedResult",
    "ResultPage",
    "TrainingExample",
    "analyze",
    "attach_probabilities",
    "backprop",
    "build_index",
    "build_syntax_tree",
    "error",
    "evaluate",
    "format_results",
    "forward",
    "gradient_check",
    "gradient_check_suite",
    "init_weights",
    "judgments_to_examples",
    "load_index",
    "load_model",
    "parse_corpus_file",
    "parse_judgments_file",
    "render",
    "save_index",
    "save_model",
    "semantic_score",
    "sigmoid",
    "syntactic_score",
    "tokenize",
    "train",
]
