"""Supervised bridge for the ranker: judgments in, training examples out.

A judgment is one human-labeled (query, doc_id, relevant?) triple. The
judgments file is UTF-8 with one tab-separated judgment per line::

    query text<TAB>doc_id<TAB>label

where label is 0 or 1, and the query holds at least one searchable token.
Blank lines and lines starting with ``#`` are ignored.
"""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import InvertedIndex
from .errors import DataError
from .fileio import read_lines
from .neural import Network, TrainingExample, error, forward
from .query import build_syntax_tree, tokenize
from .scoring import semantic_score, syntactic_score

# Probability at or above which a prediction counts as "relevant".
ACCURACY_THRESHOLD = 0.5


@dataclass
class Judgment:
    query: str
    doc_id: str
    label: int


def parse_judgments_file(path) -> list[Judgment]:
    """Read a judgments file; DataError naming a bad line (fields, label, tokenless query), or if it holds none."""
    judgments: list[Judgment] = []
    for line_no, line in enumerate(read_lines(path, "judgments"), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise DataError(f"line {line_no}: expected query<TAB>doc_id<TAB>label, got {len(parts)} fields")
        query, doc_id, label_text = parts
        if label_text not in ("0", "1"):
            raise DataError(f"line {line_no}: label must be 0 or 1, got {label_text!r}")
        if not doc_id:
            raise DataError(f"line {line_no}: empty doc_id")
        if not tokenize(query):
            raise DataError(f"line {line_no}: query has no searchable tokens: {query!r}")
        judgments.append(Judgment(query=query, doc_id=doc_id, label=int(label_text)))
    if not judgments:
        raise DataError(f"judgments file {path} contains no judgments")
    return judgments


def judgments_to_examples(judgments: list[Judgment], index: InvertedIndex) -> list[TrainingExample]:
    """Turn judgments into (syntactic, semantic) -> label training examples.

    Order and cardinality are preserved. Judgments whose document shares no
    token with the query are kept (syntactic score 0) so the network also
    sees true negatives. DataError on doc ids missing from the index; a
    tokenless query, which `parse_judgments_file` refuses, is a ValueError.
    """
    examples: list[TrainingExample] = []
    for j in judgments:
        doc = index.docs.get(j.doc_id)
        if doc is None:
            raise DataError(f"judgment references unknown doc id {j.doc_id!r}")
        tree = build_syntax_tree(j.query)
        examples.append(
            TrainingExample(
                features=[syntactic_score(tree, doc), semantic_score(tree, doc.meta)],
                desired=[float(j.label)],
            )
        )
    return examples


def evaluate(net: Network, judgments: list[Judgment], index: InvertedIndex) -> dict:
    """Mean error and thresholded accuracy of `net` on `judgments`.

    Returns ``{"count", "mean_error", "accuracy_at_0.5"}``. Raises
    ValueError on an empty judgment list. Sigmoid overflow is not reported.
    """
    if not judgments:
        raise ValueError("cannot evaluate on an empty judgment list")
    examples = judgments_to_examples(judgments, index)
    total_error = 0.0
    correct = 0
    for example in examples:
        output = forward(net, example.features)[-1]
        total_error += error(output, example.desired)
        predicted_relevant = output[0] >= ACCURACY_THRESHOLD
        if predicted_relevant == (example.desired[0] >= ACCURACY_THRESHOLD):
            correct += 1
    return {
        "count": len(examples),
        "mean_error": total_error / len(examples),
        "accuracy_at_0.5": correct / len(examples),
    }
